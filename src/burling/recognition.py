"""End-to-end membership decision with certificates.

The pipeline tries cheap refutations first: a triangle, a wheel, a
flower, a connected induced subgraph that survives the star-cutset
filter, and (for oriented input) an orientation constraint violated by
some hole, domino, long theta or dumbbell.  When no detector fires the
exact layered search settles the question; a positive answer carries a
derivation, a negative one the exhausted search statistics.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations

from .errors import BudgetExceededError, ParseError
from .graphs import Graph, OrientedGraph, is_hole, underlying
from .sequential import (
    EXACT_BUDGET_DEFAULT,
    derivable_orientations,
    exact_searcher,
    tree_from_seq,
)
from .structure import (
    chalopin_filter,
    chandelier_pivot_candidates,
    chandelier_pivots,
    hole_ends,
)
from .trees import check_derivation, parse_derivation, serialize_derivation

CERT_VERSION = 1
# Hole pairs (or, for dumbbells, connector endpoint pairs) examined per
# orientation by the domino, theta and dumbbell rules; the rules stop
# looking once it is reached, so it bounds the work on hole-rich graphs.
_PAIR_BOUND = 5000

BURLING = "burling"
NOT_BURLING = "not_burling"
NOT_A_K4_SUBDIVISION = "not_a_k4_subdivision"


@dataclass
class Triangle:
    tag = "triangle"
    vertices: tuple


@dataclass
class Wheel:
    tag = "wheel"
    hole: tuple
    center: str


@dataclass
class Flower:
    tag = "flower"
    hole: tuple
    petals: dict  # (u, v) sorted edge -> petal hole tuple


@dataclass
class FilterFailure:
    tag = "filter"
    subgraph: tuple  # vertices of a stuck connected induced subgraph


@dataclass
class OrientationConstraint:
    tag = "orientation"
    rule: str  # hole | domino | theta | dumbbell
    witness: tuple  # ((section, values), ...)


@dataclass
class Exhausted:
    tag = "exhausted"
    orientations: int
    subsets: int


@dataclass
class Verdict:
    outcome: str  # burling | not_burling
    derivation: object = None
    reason: object = None

    @property
    def is_burling(self) -> bool:
        return self.outcome == BURLING


def find_wheel(g: Graph):
    """Some hole plus a vertex outside it with >= 3 neighbors on it."""
    for hole in g.holes:
        on_hole = set(hole)
        for center in sorted(g.vertex_set - on_hole):
            if len(g.neighbors(center) & on_hole) >= 3:
                return hole, center
    return None


def _cyclic_edges(hole):
    n = len(hole)
    return [tuple(sorted((hole[i], hole[(i + 1) % n]))) for i in range(n)]


def find_flower(g: Graph):
    """A core hole with one petal hole per core edge, meeting the core in
    exactly that edge, meeting each other only in shared core vertices,
    and spanning no further edges."""
    holes = g.holes
    for core in holes:
        core_set = set(core)
        edges = _cyclic_edges(core)
        candidates = []
        for u, v in edges:
            fits = [
                p
                for p in holes
                if u in p and v in p and set(p) & core_set == {u, v}
            ]
            if not fits:
                candidates = None
                break
            candidates.append(fits)
        if candidates is None:
            continue
        found = _assign_petals(g, core, edges, candidates, 0, {})
        if found is not None:
            return core, found
    return None


def _assign_petals(g, core, edges, candidates, i, chosen):
    if i == len(edges):
        return dict(chosen) if _induces_only(g, [core, *chosen.values()]) else None
    edge = edges[i]
    for petal in candidates[i]:
        ok = True
        for other_edge, other in chosen.items():
            allowed = set(edge) & set(other_edge)
            if set(petal) & set(other) != allowed:
                ok = False
                break
        if not ok:
            continue
        chosen[edge] = petal
        result = _assign_petals(g, core, edges, candidates, i + 1, chosen)
        if result is not None:
            return result
        del chosen[edge]
    return None


def _induced_edges(g: Graph, vertices):
    return {frozenset(e) for e in g.induced_subgraph(set(vertices)).edges}


def _hole_edge_sets(*paths_or_holes):
    out = set()
    for cyclic, seq in paths_or_holes:
        n = len(seq)
        stop = n if cyclic else n - 1
        out |= {frozenset((seq[i], seq[(i + 1) % n])) for i in range(stop)}
    return out


def _induces_only(g: Graph, holes) -> bool:
    """Whether the union of the holes induces no edge beyond their cycles."""
    union = set().union(*holes)
    return _induced_edges(g, union) == _hole_edge_sets(*((True, h) for h in holes))


def _find_dominoes(g: Graph, holes):
    """Pairs of holes sharing exactly one edge and nothing else."""
    found = []
    examined = 0
    for i in range(len(holes)):
        for j in range(i + 1, len(holes)):
            examined += 1
            if examined > _PAIR_BOUND:
                return found
            h1, h2 = holes[i], holes[j]
            shared = set(h1) & set(h2)
            if len(shared) != 2:
                continue
            x, y = sorted(shared)
            if not g.has_edge(x, y):
                continue
            if not _induces_only(g, (h1, h2)):
                continue
            found.append(((x, y), h1, h2))
    return found


def _path_in_hole(hole, members):
    """The members as a contiguous stretch of the hole, or None."""
    n = len(hole)
    if len(members) >= n:
        return None
    positions = [i for i, v in enumerate(hole) if v in members]
    if len(positions) != len(members):
        return None
    for start in positions:
        stretch = [hole[(start + k) % n] for k in range(len(members))]
        if set(stretch) == set(members):
            return stretch
    return None


def _find_thetas(g: Graph, holes):
    """Hole pairs overlapping in a path of length >= 3 whose symmetric
    difference closes a third long hole: a long theta.  Returns
    (u, v, three holes) tuples."""
    found = []
    examined = 0
    for i in range(len(holes)):
        for j in range(i + 1, len(holes)):
            examined += 1
            if examined > _PAIR_BOUND:
                return found
            h1, h2 = holes[i], holes[j]
            shared = set(h1) & set(h2)
            if len(shared) < 4:
                continue  # shared path needs >= 3 edges
            p1 = _path_in_hole(h1, shared)
            if p1 is None:
                continue
            p2 = _path_in_hole(h2, shared)
            if p2 is None:
                continue
            if p2[0] != p1[0]:
                p2 = p2[::-1]
            if p1 != p2:
                continue
            u, v = p1[0], p1[-1]
            avoid = set(p1[1:-1])
            side1 = _detour(h1, u, v, avoid)
            side2 = _detour(h2, u, v, avoid)
            if side1 is None or side2 is None:
                continue
            if len(side1) < 4 or len(side2) < 4:
                continue  # the other two paths must also have >= 3 edges
            inner1, inner2 = set(side1[1:-1]), set(side2[1:-1])
            if inner1 & inner2:
                continue
            if any(g.has_edge(a, b) for a in inner1 for b in inner2):
                continue
            third = tuple(side1) + tuple(side2[1:-1][::-1])
            found.append((u, v, h1, h2, third))
    return found


def _detour(hole, u, v, avoid):
    """The u..v stretch of the hole whose interior avoids `avoid`."""
    n = len(hole)
    iu = hole.index(u)
    for step in (1, -1):
        walk = [u]
        k = iu
        while walk[-1] != v or len(walk) == 1:
            k += step
            walk.append(hole[k % n])
        if not set(walk[1:-1]) & avoid:
            return walk
    return None


def _find_dumbbells(g: Graph, holes):
    """Disjoint hole pairs joined by an induced path meeting them only at
    its endpoints, with no other edges between the parts."""
    found = []
    examined = 0
    for i in range(len(holes)):
        for j in range(i + 1, len(holes)):
            h1, h2 = holes[i], holes[j]
            if set(h1) & set(h2):
                continue
            blob = set(h1) | set(h2)
            for x in sorted(h1):
                for y in sorted(h2):
                    examined += 1
                    if examined > _PAIR_BOUND:
                        return found
                    free = {
                        w
                        for w in g.vertex_set - blob
                        if g.neighbors(w) & blob <= {x, y}
                    }
                    path = _shortest_path(g.induced_subgraph(free | {x, y}), x, y)
                    if path is None:
                        continue
                    union = blob | set(path)
                    if _induced_edges(g, union) != _hole_edge_sets(
                        (True, h1), (True, h2), (False, path)
                    ):
                        continue
                    found.append((tuple(path), h1, h2))
    return found


def _shortest_path(g: Graph, a, b):
    prev = {a: None}
    queue = [a]
    while queue:
        nxt = []
        for v in queue:
            for w in sorted(g.neighbors(v)):
                if w not in prev:
                    prev[w] = v
                    nxt.append(w)
        if b in prev:
            break
        queue = nxt
    if b not in prev:
        return None
    path = [b]
    while prev[path[-1]] is not None:
        path.append(prev[path[-1]])
    return path[::-1]


def orientation_constraints(g: OrientedGraph):
    """None when every hole-based constraint admits a consistent pivot
    choice; otherwise a violation certifying that g, as oriented, is not
    derivable.

    Checks: every hole chandelier-oriented; for every induced domino an
    endpoint of the shared edge can pivot one hole while sitting
    subordinate in the other; for every induced long theta one apex can
    pivot all three holes; for every induced dumbbell some connector
    endpoint can avoid being subordinate in its hole.
    """
    holes = g.holes
    cand = {h: chandelier_pivots(g.has_arc, h) for h in holes}
    for h in holes:
        if not cand[h]:
            return OrientationConstraint("hole", (("hole", h),))

    def candidates(h):
        # a theta's third hole is a hole by construction, but may be uncached
        if h not in cand:
            cand[h] = chandelier_pivots(g.has_arc, h)
        return cand[h]

    for path, h1, h2 in _find_dumbbells(g, holes):
        x, y = path[0], path[-1]
        x_ok = x in hole_ends(g.has_arc, h1)[0] or x in candidates(h1)
        y_ok = y in hole_ends(g.has_arc, h2)[0] or y in candidates(h2)
        if not (x_ok or y_ok):
            return OrientationConstraint(
                "dumbbell", (("path", path), ("hole1", h1), ("hole2", h2))
            )

    for (x, y), h1, h2 in _find_dominoes(g, holes):
        ok = False
        for z in (x, y):
            for a, b in ((h1, h2), (h2, h1)):
                if (
                    z in candidates(a)
                    and z not in hole_ends(g.has_arc, b)[0]
                    and set(candidates(b)) - {z}
                ):
                    ok = True
        if not ok:
            return OrientationConstraint(
                "domino", (("edge", (x, y)), ("hole1", h1), ("hole2", h2))
            )

    for u, v, h1, h2, h3 in _find_thetas(g, holes):
        shared = set(candidates(h1)) & set(candidates(h2)) & set(candidates(h3))
        if not shared & {u, v}:
            return OrientationConstraint(
                "theta",
                (("apex", (u, v)), ("hole1", h1), ("hole2", h2), ("hole3", h3)),
            )
    return None


def _detector_phase(g: Graph):
    tri = g.find_triangle()
    if tri is not None:
        return Verdict(NOT_BURLING, reason=Triangle(tri))
    wheel = find_wheel(g)
    if wheel is not None:
        return Verdict(NOT_BURLING, reason=Wheel(*wheel))
    flower = find_flower(g)
    if flower is not None:
        hole, petals = flower
        return Verdict(NOT_BURLING, reason=Flower(hole, petals))
    filtered = chalopin_filter(g)
    if not filtered.passes:
        return Verdict(
            NOT_BURLING,
            reason=FilterFailure(tuple(sorted(filtered.witness.vertices))),
        )
    return None


def _check_exact_budget(g: Graph, budget: int, obstructions_only: bool):
    """Raise BudgetExceededError unless the exact search may run on g."""
    if obstructions_only:
        raise BudgetExceededError(
            "no obstruction found; exact search skipped (obstructions-only)"
        )
    n = len(g.vertices)
    if n > budget:
        raise BudgetExceededError(
            f"graph has {n} vertices, exact budget is {budget};"
            " raise the budget or use --obstructions-only"
        )


def _exact_search(o: OrientedGraph):
    """A sequential decomposition of o or None, and the base subsets tried."""
    searcher = exact_searcher(o)
    if searcher is None:
        return None, 0
    sd = searcher.search(searcher.full, len(o.vertices), frozenset())
    return sd, searcher.stats["subsets"]


def recognize_oriented(
    g: OrientedGraph,
    budget: int = EXACT_BUDGET_DEFAULT,
    obstructions_only: bool = False,
) -> Verdict:
    """Decide whether g is derivable with this exact orientation."""
    hit = _detector_phase(g)
    if hit is not None:
        return hit
    violation = orientation_constraints(g)
    if violation is not None:
        return Verdict(NOT_BURLING, reason=violation)
    _check_exact_budget(g, budget, obstructions_only)
    sd, subsets = _exact_search(g)
    if sd is not None:
        return Verdict(BURLING, derivation=tree_from_seq(sd))
    return Verdict(NOT_BURLING, reason=Exhausted(1, subsets))


def recognize(
    g: Graph,
    budget: int = EXACT_BUDGET_DEFAULT,
    obstructions_only: bool = False,
) -> Verdict:
    """Decide whether some orientation of g is derivable."""
    if isinstance(g, OrientedGraph):
        return recognize_oriented(g, budget, obstructions_only)
    hit = _detector_phase(g)
    if hit is not None:
        return hit
    _check_exact_budget(g, budget, obstructions_only)
    explored = 0
    subsets = 0
    for o in derivable_orientations(g):
        explored += 1
        if orientation_constraints(o) is not None:
            continue
        sd, cost = _exact_search(o)
        subsets += cost
        if sd is not None:
            return Verdict(BURLING, derivation=tree_from_seq(sd))
    return Verdict(NOT_BURLING, reason=Exhausted(explored, subsets))


def _k4_skeleton(g: Graph):
    """Branch vertices and branch paths if g subdivides K4, else None."""
    degrees = {v: len(g.neighbors(v)) for v in g.vertices}
    branch = sorted(v for v, d in degrees.items() if d == 3)
    if len(branch) != 4 or any(d not in (2, 3) for d in degrees.values()):
        return None
    paths = {}
    hits = {}
    for a in branch:
        for first in sorted(g.neighbors(a)):
            walk = [a, first]
            while degrees[walk[-1]] == 2:
                (step,) = g.neighbors(walk[-1]) - {walk[-2]}
                walk.append(step)
            b = walk[-1]
            if b == a:
                return None
            pair = (min(a, b), max(a, b))
            interior = frozenset(walk[1:-1])
            paths.setdefault(pair, set()).add(interior)
            hits[pair] = hits.get(pair, 0) + 1
    if len(paths) != 6 or any(len(s) != 1 for s in paths.values()):
        return None
    if any(n != 2 for n in hits.values()):
        return None
    interiors = [next(iter(s)) for s in paths.values()]
    if sum(len(i) for i in interiors) != len(g.vertices) - 4:
        return None
    seen = set()
    for i in interiors:
        if i & seen:
            return None
        seen |= i
    return branch, {pair: next(iter(s)) for pair, s in paths.items()}


def classify_k4_subdivision(g: Graph) -> str:
    """Outcome of the degree-3 dichotomy on subdivisions of K4: such a
    graph is derivable exactly when branch vertices a, b, c, d exist
    with ab and ac undivided while ad and bc are subdivided."""
    skeleton = _k4_skeleton(g)
    if skeleton is None:
        return NOT_A_K4_SUBDIVISION
    branch, _ = skeleton
    for a, b, c, d in permutations(branch):
        if (
            g.has_edge(a, b)
            and g.has_edge(a, c)
            and not g.has_edge(a, d)
            and not g.has_edge(b, c)
        ):
            return BURLING
    return NOT_BURLING


# --- independent witness checkers -----------------------------------------


def verify_triangle(g: Graph, vertices) -> bool:
    a, b, c = vertices
    return (
        len({a, b, c}) == 3
        and g.has_edge(a, b)
        and g.has_edge(b, c)
        and g.has_edge(a, c)
    )


def verify_wheel(g: Graph, hole, center) -> bool:
    if not is_hole(g, hole) or center in hole or center not in g.vertex_set:
        return False
    return sum(1 for v in hole if g.has_edge(center, v)) >= 3


def verify_flower(g: Graph, hole, petals) -> bool:
    if not is_hole(g, hole):
        return False
    edges = {tuple(sorted(e)) for e in _cyclic_edges(hole)}
    if set(petals) != edges:
        return False
    for edge, petal in petals.items():
        if not is_hole(g, petal) or set(petal) & set(hole) != set(edge):
            return False
    items = sorted(petals.items())
    for i in range(len(items)):
        for j in range(i + 1, len(items)):
            (e1, p1), (e2, p2) = items[i], items[j]
            if set(p1) & set(p2) != set(e1) & set(e2):
                return False
    return _induces_only(g, [hole, *petals.values()])


def verify_filter_witness(g: Graph, vertices) -> bool:
    """The witnessed induced subgraph must be connected and escape all
    three outcomes available to a derivable connected graph: a full star
    cutset, a luxury chandelier, a path on at most four vertices."""
    from .structure import full_star_cutsets, is_luxury_chandelier, is_path_graph

    g = underlying(g)
    if not set(vertices) <= g.vertex_set:
        return False
    h = g.induced_subgraph(set(vertices))
    if len(h.vertices) <= 1 or not h.is_connected():
        return False
    if is_path_graph(h) and len(h.vertices) <= 4:
        return False
    if is_luxury_chandelier(h) is not None:
        return False
    return not full_star_cutsets(h)


def verify_orientation_witness(g: OrientedGraph, reason: OrientationConstraint) -> bool:
    """Re-check that the witness structure exists in g and that the named
    constraint indeed fails on it."""
    sections = dict(reason.witness)
    holes = [v for k, v in reason.witness if k.startswith("hole")]
    if not all(is_hole(g, h) for h in holes):
        return False
    if reason.rule == "hole":
        return not chandelier_pivot_candidates(g, sections["hole"])
    if reason.rule == "domino":
        x, y = sections["edge"]
        h1, h2 = sections["hole1"], sections["hole2"]
        if set(h1) & set(h2) != {x, y} or not g.has_edge(x, y):
            return False
        for z in (x, y):
            for a, b in ((h1, h2), (h2, h1)):
                if (
                    z in chandelier_pivot_candidates(g, a)
                    and z not in hole_ends(g.has_arc, b)[0]
                    and set(chandelier_pivot_candidates(g, b)) - {z}
                ):
                    return False
        return True
    if reason.rule == "theta":
        u, v = sections["apex"]
        hs = [sections["hole1"], sections["hole2"], sections["hole3"]]
        shared = set(chandelier_pivot_candidates(g, hs[0]))
        for h in hs[1:]:
            shared &= set(chandelier_pivot_candidates(g, h))
        return not shared & {u, v}
    if reason.rule == "dumbbell":
        path = sections["path"]
        h1, h2 = sections["hole1"], sections["hole2"]
        x, y = path[0], path[-1]
        if x not in h1 or y not in h2 or set(h1) & set(h2):
            return False
        x_ok = x in hole_ends(g.has_arc, h1)[0] or x in chandelier_pivot_candidates(g, h1)
        y_ok = y in hole_ends(g.has_arc, h2)[0] or y in chandelier_pivot_candidates(g, h2)
        return not (x_ok or y_ok)
    return False


# --- certificates ----------------------------------------------------------


def serialize_certificate(verdict: Verdict) -> str:
    lines = [f"cert_version: {CERT_VERSION}"]
    if verdict.is_burling:
        lines.append("result burling")
        lines.append("tree")
        return "\n".join(lines) + "\n" + serialize_derivation(verdict.derivation)
    reason = verdict.reason
    lines.append("result not_burling")
    lines.append(f"reason {reason.tag}")
    if isinstance(reason, Triangle):
        lines.append("triangle " + " ".join(reason.vertices))
    elif isinstance(reason, Wheel):
        lines.append("hole " + " ".join(reason.hole))
        lines.append(f"center {reason.center}")
    elif isinstance(reason, Flower):
        lines.append("hole " + " ".join(reason.hole))
        for (u, v), petal in sorted(reason.petals.items()):
            lines.append(f"petal {u} {v} " + " ".join(petal))
    elif isinstance(reason, FilterFailure):
        lines.append("subgraph " + " ".join(reason.subgraph))
    elif isinstance(reason, OrientationConstraint):
        lines.append(f"rule {reason.rule}")
        for key, values in reason.witness:
            lines.append(f"{key} " + " ".join(values))
    elif isinstance(reason, Exhausted):
        lines.append(
            f"stats orientations={reason.orientations} subsets={reason.subsets}"
        )
    return "\n".join(lines) + "\n"


# The sections each negative reason (and each orientation rule) needs, with
# the number of labels on the line; None means one or more.
_REASON_SECTIONS = {
    "triangle": {"triangle": 3},
    "wheel": {"hole": None, "center": 1},
    "flower": {"hole": None},
    "filter": {"subgraph": None},
    "orientation": {"rule": 1},
    "exhausted": {"stats": 2},
}
_RULE_SECTIONS = {
    "hole": {"hole": None},
    "domino": {"edge": 2, "hole1": None, "hole2": None},
    "theta": {"apex": 2, "hole1": None, "hole2": None, "hole3": None},
    "dumbbell": {"path": None, "hole1": None, "hole2": None},
}


def _check_sections(table: dict, needed: dict, what: str):
    for key, count in needed.items():
        if key not in table:
            raise ParseError(f"{what} certificate missing {key!r} line")
        got = len(table[key])
        if not got or (count is not None and got != count):
            raise ParseError(f"{key!r} line has {got} labels, expected {count or 'some'}")


def parse_certificate(text: str) -> Verdict:
    lines = text.splitlines()
    if not lines or not lines[0].startswith("cert_version:"):
        raise ParseError("missing cert_version header")
    version = lines[0].split(":", 1)[1].strip()
    if version != str(CERT_VERSION):
        raise ParseError(f"unsupported cert_version {version!r}")
    body = lines[1:]
    if not body or not body[0].startswith("result "):
        raise ParseError("missing result line")
    result = body[0].partition(" ")[2].strip()
    if result == BURLING:
        if len(body) < 2 or body[1].strip() != "tree":
            raise ParseError("burling certificate missing tree section")
        derivation = parse_derivation("\n".join(body[2:]) + "\n")
        return Verdict(BURLING, derivation=derivation)
    if result != NOT_BURLING:
        raise ParseError(f"unknown result {result!r}")
    if len(body) < 2 or not body[1].startswith("reason "):
        raise ParseError("missing reason line")
    tag = body[1].partition(" ")[2].strip()
    if tag not in _REASON_SECTIONS:
        raise ParseError(f"unknown reason {tag!r}")
    sections = []
    for line in body[2:]:
        if not line.strip():
            continue
        tokens = line.split()
        sections.append((tokens[0], tuple(tokens[1:])))
    table = dict(sections)
    _check_sections(table, _REASON_SECTIONS[tag], tag)
    if tag == "triangle":
        return Verdict(NOT_BURLING, reason=Triangle(table["triangle"]))
    if tag == "wheel":
        return Verdict(NOT_BURLING, reason=Wheel(table["hole"], table["center"][0]))
    if tag == "flower":
        petals = {}
        for key, values in sections:
            if key == "petal":
                if len(values) < 2:
                    raise ParseError("'petal' line needs a core edge")
                petals[(values[0], values[1])] = values[2:]
        return Verdict(NOT_BURLING, reason=Flower(table["hole"], petals))
    if tag == "filter":
        return Verdict(NOT_BURLING, reason=FilterFailure(table["subgraph"]))
    if tag == "orientation":
        rule = table["rule"][0]
        _check_sections(table, _RULE_SECTIONS.get(rule, {}), f"{rule} rule")
        witness = tuple((k, v) for k, v in sections if k != "rule")
        return Verdict(NOT_BURLING, reason=OrientationConstraint(rule, witness))
    stats = dict(item.partition("=")[::2] for item in table["stats"])
    try:
        return Verdict(
            NOT_BURLING,
            reason=Exhausted(int(stats["orientations"]), int(stats["subsets"])),
        )
    except (KeyError, ValueError):
        raise ParseError("stats line looks like 'stats orientations=N subsets=N'")


def verify_certificate(g: Graph, verdict: Verdict) -> bool:
    """Independent check of a certificate against the graph it is about."""
    if verdict.is_burling:
        return check_derivation(g, verdict.derivation)
    reason = verdict.reason
    if isinstance(reason, Triangle):
        return verify_triangle(g, reason.vertices)
    if isinstance(reason, Wheel):
        return verify_wheel(g, reason.hole, reason.center)
    if isinstance(reason, Flower):
        petals = {tuple(sorted(e)): tuple(p) for e, p in reason.petals.items()}
        return verify_flower(g, tuple(reason.hole), petals)
    if isinstance(reason, FilterFailure):
        return verify_filter_witness(g, reason.subgraph)
    if isinstance(reason, OrientationConstraint):
        if not isinstance(g, OrientedGraph):
            return False
        return verify_orientation_witness(g, reason)
    if isinstance(reason, Exhausted):
        return reason.orientations >= 1
    return False
