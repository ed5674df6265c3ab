"""Command line binding the library together: derive, verify, recognize,
nobility, transform, decompose, analyze, gen.

Exit codes: 0 success or affirmative verdict, 1 negative verdict, 2 input
error, 3 budget exceeded.  `-` means standard input.  All output is
deterministic: identical invocations print identical bytes.
"""

from __future__ import annotations

import argparse
import os
import sys

from .errors import BudgetExceededError, ParseError, ValidationError
from .generators import (
    gen_chandelier,
    gen_flower,
    gen_k4_subdivision,
    gen_luxury_chandelier,
    gen_theta,
    gen_wheel,
    gen_figure,
)
from .graphs import OrientedGraph, parse_graph, serialize_graph
from .recognition import (
    parse_certificate,
    recognize,
    serialize_certificate,
    verify_certificate,
)
from .sequential import EXACT_BUDGET_DEFAULT, nobility
from .structure import (
    analyze_hole,
    decompose,
    full_star_cutsets,
    serialize_decomposition,
    top_set,
)
from .transforms import (
    ExpandStep,
    contract,
    expand_arcs,
    normalize,
    subdivide_bottom,
    top_subdivide,
)
from .trees import Derivation, derive, parse_derivation, serialize_derivation, validate_derivation

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INPUT = 2
EXIT_BUDGET = 3
# `analyze` refuses larger graphs: hole enumeration is exponential
HOLE_BUDGET_DEFAULT = 16


def _read(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _int(raw: str, what: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ValidationError(f"{what} must be an integer, got {raw!r}")


def _default_budget() -> int:
    raw = os.environ.get("BURLING_BUDGET")
    if raw is None:
        return EXACT_BUDGET_DEFAULT
    return _int(raw, "BURLING_BUDGET")


def _first_meaningful_line(text: str) -> str:
    for raw in text.splitlines():
        line = raw.strip()
        if line and not line.startswith("#"):
            return line
    return ""


def _cmd_derive(args) -> int:
    d = parse_derivation(_read(args.tree))
    sys.stdout.write(serialize_graph(derive(d)))
    return EXIT_OK


def _first_mismatch(g, d: Derivation) -> str:
    problems = validate_derivation(d)
    if problems:
        return problems[0]
    got = derive(d)
    if not isinstance(g, OrientedGraph):
        got = got.underlying()
        pairs = sorted(got.edges), sorted(g.edges)
        kind = "edge"
    else:
        pairs = sorted(got.arcs), sorted(g.arcs)
        kind = "arc"
    for v in sorted(got.vertex_set - g.vertex_set):
        return f"derived vertex {v} is not in the graph"
    for v in sorted(g.vertex_set - got.vertex_set):
        return f"graph vertex {v} is not derived"
    derived, target = pairs
    for a in derived:
        if a not in target:
            return f"derived {kind} {a[0]} {a[1]} is not in the graph"
    for a in target:
        if a not in derived:
            return f"graph {kind} {a[0]} {a[1]} is not derived"
    return ""


def _cmd_verify(args) -> int:
    doc = _read(args.tree)
    g = parse_graph(_read(args.graph))
    if _first_meaningful_line(doc).startswith("cert_version:"):
        verdict = parse_certificate(doc)
        if verify_certificate(g, verdict):
            print("OK")
            return EXIT_OK
        print("certificate does not verify against the graph")
        return EXIT_NEGATIVE
    d = parse_derivation(doc)
    mismatch = _first_mismatch(g, d)
    if mismatch:
        print(mismatch)
        return EXIT_NEGATIVE
    print("OK")
    return EXIT_OK


def _cmd_recognize(args) -> int:
    g = parse_graph(_read(args.graph))
    try:
        verdict = recognize(
            g, budget=args.budget, obstructions_only=args.obstructions_only
        )
    except BudgetExceededError as exc:
        print(f"INCONCLUSIVE {exc}")
        return EXIT_BUDGET
    if args.cert:
        with open(args.cert, "w", encoding="utf-8") as fh:
            fh.write(serialize_certificate(verdict))
    if verdict.is_burling:
        print("BURLING")
        return EXIT_OK
    print(f"NOT_BURLING {verdict.reason.tag}")
    return EXIT_NEGATIVE


def _cmd_nobility(args) -> int:
    g = parse_graph(_read(args.graph))
    if args.oriented and not isinstance(g, OrientedGraph):
        raise ValidationError("--oriented requires a directed graph file")
    try:
        value = nobility(g, budget=args.budget)
    except BudgetExceededError as exc:
        print(f"INCONCLUSIVE {exc}")
        return EXIT_BUDGET
    if value is None:
        print("NOT_BURLING")
        return EXIT_NEGATIVE
    print(value)
    return EXIT_OK


def _parse_expand_step(token: str) -> ExpandStep:
    parts = token.split(":")
    if len(parts) != 3 or ">" not in parts[0]:
        raise ValidationError(
            f"expand steps look like 'u>v:bottom:3', got {token!r}"
        )
    u, _, v = parts[0].partition(">")
    return ExpandStep(u, v, parts[1], _int(parts[2], "expand length"))


def _cmd_transform(args) -> int:
    d = parse_derivation(_read(args.tree))
    op = args.op
    rest = args.args
    if op == "normalize":
        if rest:
            raise ValidationError("normalize takes no arguments")
        out = normalize(d)
    elif op in ("subdivide-bottom", "top-subdivide"):
        if len(rest) != 3:
            raise ValidationError(f"{op} takes: u v new-label")
        fn = subdivide_bottom if op == "subdivide-bottom" else top_subdivide
        out = fn(d, rest[0], rest[1], rest[2])
    elif op == "contract":
        if len(rest) != 2:
            raise ValidationError("contract takes: u v")
        out = contract(d, rest[0], rest[1])
    elif op == "expand":
        if not rest:
            raise ValidationError("expand takes at least one step")
        out = expand_arcs(d, [_parse_expand_step(t) for t in rest])
    else:
        raise ValidationError(
            f"unknown op {op!r}; known: normalize, subdivide-bottom, "
            "top-subdivide, contract, expand"
        )
    sys.stdout.write(serialize_derivation(out))
    return EXIT_OK


def _cmd_decompose(args) -> int:
    g = parse_graph(_read(args.graph))
    if not isinstance(g, OrientedGraph):
        raise ValidationError("decompose requires a directed graph file")
    sys.stdout.write(serialize_decomposition(decompose(g)))
    return EXIT_OK


def _hole_line(g, hole) -> str:
    line = "hole " + " ".join(hole)
    if isinstance(g, OrientedGraph):
        analysis = analyze_hole(g, hole)
        if analysis is None:
            return line + " not-chandelier-oriented"
        line += f" pivot={analysis.pivot}"
        line += " antennas=" + ",".join(analysis.antennas)
        line += f" bottom={analysis.bottom}"
        line += " subordinate=" + ",".join(sorted(analysis.subordinate))
    return line


def _cmd_analyze(args) -> int:
    text = _read(args.graph)
    derivation = None
    if _first_meaningful_line(text).startswith("root "):
        derivation = parse_derivation(text)
        g = derive(derivation)
    else:
        g = parse_graph(text)
    lines = []
    if derivation is not None:
        report = top_set(derivation)
        lines.append("top_set " + " ".join(sorted(report.top_set)))
        lines.append("pivots " + " ".join(sorted(report.pivots)))
        lines.append("antennas " + " ".join(sorted(report.antennas)))
        for v in sorted(report.top_ancestor):
            lines.append(f"branch {v} {report.top_ancestor[v]}")
    n = len(g.vertices)
    if n > args.budget:
        raise BudgetExceededError(
            f"hole enumeration limited to {args.budget} vertices, got {n}"
        )
    lines.append("holes")
    for hole in g.holes:
        lines.append(_hole_line(g, hole))
    lines.append("cutsets")
    for center, comps in full_star_cutsets(g):
        parts = "|".join(",".join(sorted(c)) for c in comps)
        lines.append(f"cutset center={center} components={parts}")
    sys.stdout.write("\n".join(lines) + "\n")
    return EXIT_OK


def _int_list(raw: str, what: str) -> list:
    try:
        return [int(tok) for tok in raw.split(",") if tok != ""]
    except ValueError:
        raise ValidationError(f"{what} must be a comma-separated integer list")


def _arc_list(tokens) -> list:
    arcs = []
    for tok in tokens:
        u, sep, v = tok.partition(">")
        if not sep or not u or not v:
            raise ValidationError(f"arcs look like 'child>parent', got {tok!r}")
        arcs.append((u, v))
    return arcs


def _cmd_gen(args) -> int:
    family = args.family
    params = args.params
    if family == "wheel":
        if len(params) != 2:
            raise ValidationError("gen wheel takes: rim-length spoke,positions")
        obj = gen_wheel(
            _int(params[0], "rim length"), _int_list(params[1], "spoke positions")
        )
    elif family == "theta":
        if len(params) != 3:
            raise ValidationError("gen theta takes: l1 l2 l3")
        obj = gen_theta(*(_int(p, "path length") for p in params))
    elif family == "flower":
        if len(params) != 2:
            raise ValidationError("gen flower takes: core-length petal,lengths")
        obj = gen_flower(
            _int(params[0], "core length"), _int_list(params[1], "petal lengths")
        )
    elif family == "k4-subdivision":
        if len(params) != 1:
            raise ValidationError(
                "gen k4-subdivision takes: ab,ac,ad,bc,bd,cd path lengths"
            )
        obj = gen_k4_subdivision(_int_list(params[0], "path lengths"))
    elif family == "chandelier":
        obj = gen_chandelier(_arc_list(params))
    elif family == "luxury-chandelier":
        obj = gen_luxury_chandelier(_arc_list(params))
    elif family == "figure":
        if len(params) != 1:
            raise ValidationError("gen figure takes one catalogue name")
        obj = gen_figure(params[0])
    else:
        raise ValidationError(
            f"unknown family {family!r}; known: wheel, theta, flower, "
            "k4-subdivision, chandelier, luxury-chandelier, figure"
        )
    if isinstance(obj, Derivation):
        sys.stdout.write(serialize_derivation(obj))
    else:
        sys.stdout.write(serialize_graph(obj))
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """Usage errors raise, so `main` reports them as one `error:` line."""

    def error(self, message):
        raise ValidationError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="burling",
        description="Burling trees, derived graphs, and membership certificates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("derive", help="derive the graph of a tree file")
    p.add_argument("tree")
    p.set_defaults(fn=_cmd_derive)

    p = sub.add_parser("verify", help="check a tree or certificate against a graph")
    p.add_argument("tree")
    p.add_argument("graph")
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("recognize", help="decide membership")
    p.add_argument("graph")
    p.add_argument("--budget", type=int, default=None)
    p.add_argument("--obstructions-only", action="store_true")
    p.add_argument("--cert", default=None, metavar="PATH")
    p.set_defaults(fn=_cmd_recognize)

    p = sub.add_parser("nobility", help="compute nobility")
    p.add_argument("graph")
    p.add_argument("--oriented", action="store_true")
    p.add_argument("--budget", type=int, default=None)
    p.set_defaults(fn=_cmd_nobility)

    p = sub.add_parser("transform", help="rewrite a tree file")
    p.add_argument("tree")
    p.add_argument(
        "op",
        help="normalize | subdivide-bottom | top-subdivide | contract | expand",
    )
    p.add_argument("args", nargs="*")
    p.set_defaults(fn=_cmd_transform)

    p = sub.add_parser("decompose", help="in-star decomposition tree")
    p.add_argument("graph")
    p.set_defaults(fn=_cmd_decompose)

    p = sub.add_parser("analyze", help="top-set, hole and cutset report")
    p.add_argument("graph")
    p.add_argument("--budget", type=int, default=HOLE_BUDGET_DEFAULT)
    p.set_defaults(fn=_cmd_analyze)

    p = sub.add_parser("gen", help="generate a family instance or figure")
    p.add_argument("family")
    p.add_argument("params", nargs="*")
    p.set_defaults(fn=_cmd_gen)

    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        if hasattr(args, "budget") and args.budget is None:
            args.budget = _default_budget()
        return args.fn(args)
    except (ParseError, ValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
