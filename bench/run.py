#!/usr/bin/env python3
"""Benchmark of exact Burling-graph membership decisions.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the program is imported from ./src.  Each
workload is a fixed list of decisions (see workloads.py) run as a closed
loop with one caller in this single-threaded process: the next decision
starts when the previous one returns.  A round runs every decision once,
in an order drawn from the seed, on copies of the instances whose labels
carry a round prefix.  The prefix keeps label order, so every round does
the same work, but no input repeats within a run and a cache across calls
cannot win anything a real sweep would not see.

--trace 0 runs rounds until S seconds of rounds are measured and reports
the end-to-end metrics, with times scaled to the host's speed (see
calibrate.py).  --trace 1 runs three rounds, untraced, traced (spans
around every layer) and count-only (hot leaf counters), and reports
unscaled per-layer metrics.  Every answer is checked against its
reference after the round that produced it; any failure makes the exit
code 1.  The last line of standard output is the result object; the line
before it, and a file under .bench_out/, hold the full record.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import platform
import random
import resource
import string
import sys
from dataclasses import dataclass
from pathlib import Path
from statistics import median
from time import perf_counter
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

import spans  # noqa: E402
from calibrate import REFERENCE_S, Calibrator  # noqa: E402
from workloads import WORKLOADS, Ref  # noqa: E402

MODULES = ("graphs", "trees", "structure", "sequential", "recognition", "generators", "catalog")
SETUP_REPS_PER_ROUND = 2
SETUP_MAX_REPS_PER_ROUND = 20
SETUP_SECONDS_PER_ROUND = 0.5
PREFIXES = [a + b for a in string.ascii_lowercase for b in string.ascii_lowercase]
# top-level span of each decision kind
TOP = {
    "recognize": "recognition.recognize",
    "recognize_oriented": "recognition.recognize_oriented",
    "nobility_oriented": "sequential.nobility_oriented",
}
ROUND_TRIP = "certificate.round_trip"
ROUND_TRIP_REPS = 5
ROUND_TRIP_SECONDS = 0.001
TAGS = ("triangle", "wheel", "flower", "filter", "orientation", "exhausted", "burling")
@dataclass
class Outcome:
    task: int
    graph: object
    started: float
    seconds: float
    value: object = None
    error: str | None = None
    cert_seconds: float | None = None
    cert_ok: bool | None = None


def _burling_entries():
    return [n for n in sys.modules if n == "burling" or n.startswith("burling.")]


class Setup:
    """Timed set-ups of one workload: importing the program and building
    the instances.  Set-ups are repeated between rounds, so that the median
    spans the run rather than one moment of a shared machine."""

    def __init__(self, build, calibrator=None):
        self.build = build
        self.calibrator = calibrator
        self.seconds = []
        self.scaled = []
        self.layer_s = {}

    def once(self):
        for name in _burling_entries():
            del sys.modules[name]
        gc.collect()
        timings = {}
        if self.calibrator:
            self.calibrator.sample()
        start = perf_counter()
        m = SimpleNamespace(**{n: importlib.import_module("burling." + n) for n in MODULES})
        tasks = self.build(m, timings)
        end = perf_counter()
        self.seconds.append(end - start)
        if self.calibrator:
            self.calibrator.sample()
            self.scaled.append((end - start) * self.calibrator.scale(start, end))
        for name, seconds in timings.items():
            self.layer_s.setdefault(name, []).append(seconds)
        return m, tasks

    def again(self):
        """More set-ups, keeping the program in use loaded."""
        loaded = {name: sys.modules[name] for name in _burling_entries()}
        start = perf_counter()
        reps = 0
        while reps < SETUP_REPS_PER_ROUND or (
            perf_counter() - start < SETUP_SECONDS_PER_ROUND and reps < SETUP_MAX_REPS_PER_ROUND
        ):
            self.once()
            reps += 1
        for name in _burling_entries():
            del sys.modules[name]
        sys.modules.update(loaded)


def relabel(m, g, prefix):
    vertices = [prefix + v for v in g.vertices]
    if isinstance(g, m.graphs.OrientedGraph):
        return m.graphs.OrientedGraph(vertices, [(prefix + u, prefix + v) for u, v in g.arcs])
    return m.graphs.Graph(vertices, [(prefix + u, prefix + v) for u, v in g.edges])


def run_round(m, ops, tasks, order, prefix, tracer=None, budget=None, between=None):
    """One closed-loop pass over the tasks, cut short once `budget` seconds
    have passed if a budget is given, calling `between` before and after
    each decision; returns (wall seconds, outcomes)."""
    rec = m.recognition
    inputs = [(i, relabel(m, tasks[i].graph, prefix)) for i in order]
    outcomes = []
    gc.collect()
    if between is not None:
        between()
    start = perf_counter()
    deadline = math.inf if budget is None else start + budget
    for i, g in inputs:
        if perf_counter() >= deadline:
            break
        kind = tasks[i].kind
        if tracer:
            tracer.instance = i
            top = tracer.open(TOP[kind])
        t0 = perf_counter()
        try:
            out = Outcome(i, g, t0, 0.0, value=ops[kind](g, budget=len(g.vertices)))
        except Exception as exc:  # a raising decision is a failed one
            out = Outcome(i, g, t0, 0.0, error=f"{type(exc).__name__}: {exc}")
        out.seconds = perf_counter() - t0
        if tracer:
            tracer.close(top)
        if kind != "nobility_oriented" and out.error is None:
            # a round trip takes from 0.05 to 1 ms, so it is repeated
            # back to back and timed by its fastest repetition
            out.cert_seconds = math.inf
            spent = 0.0
            for _ in range(ROUND_TRIP_REPS):
                if tracer:
                    top = tracer.open(ROUND_TRIP)
                t0 = perf_counter()
                try:
                    text = rec.serialize_certificate(out.value)
                    out.cert_ok = rec.verify_certificate(g, rec.parse_certificate(text))
                except Exception as exc:
                    out.error = f"certificate: {type(exc).__name__}: {exc}"
                seconds = perf_counter() - t0
                if tracer:
                    tracer.close(top)
                out.cert_seconds = min(out.cert_seconds, seconds)
                spent += seconds
                if out.error is not None or spent >= ROUND_TRIP_SECONDS:
                    break
        outcomes.append(out)
        if between is not None:
            between()
    return perf_counter() - start, outcomes


def check(m, task, out) -> str | None:
    """Why the outcome disagrees with the task's reference, or None."""
    ref = task.ref
    if out.error is not None:
        return out.error
    if task.kind == "nobility_oriented":
        if out.value != ref.nobility:
            return f"nobility {out.value}, {ref.source} reference says {ref.nobility}"
        if ref.depth_bound is not None and out.value > ref.depth_bound:
            return f"nobility {out.value} exceeds the tree's depth {ref.depth_bound}"
        return None
    verdict = out.value
    if verdict.is_burling != ref.burling:
        return f"verdict {verdict.outcome}, {ref.source} reference disagrees"
    if verdict.is_burling:
        if not m.trees.check_derivation(out.graph, verdict.derivation):
            return "the returned derivation does not derive the input"
        tag = "burling"
    else:
        tag = verdict.reason.tag
        if ref.reason is not None and tag != ref.reason:
            return f"reason {tag}, {ref.source} says {ref.reason}"
    # verify_certificate accepts any exhausted certificate, so an exhausted
    # verdict rests on the reference check above alone
    if tag != "exhausted" and not out.cert_ok:
        return "certificate rejected by verify_certificate"
    return None


def tag_of(out):
    if out.error is not None or not hasattr(out.value, "is_burling"):
        return None
    return "burling" if out.value.is_burling else out.value.reason.tag


def percentile(values, pct):
    """Nearest-rank percentile: the smallest value with pct% at or below it."""
    ordered = sorted(values)
    rank = max(1, -(-pct * len(ordered) // 100))
    return ordered[rank - 1]


def tail_percentile(per_round) -> int:
    """Highest whole percentile leaving >= 10 of one round's samples beyond
    it.  Fixed by the workload, so the percentile does not move when a
    faster program fits more rounds into a run."""
    for pct in range(99, 49, -1):
        if per_round - -(-pct * per_round // 100) >= 10:
            return pct
    return 100


def commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


class Run:
    def __init__(self, seed, setup, m, tasks):
        self.setup = setup
        self.calibrator = setup.calibrator
        self.m = m
        self.tasks = tasks
        # bound before any tracing patch, so a top-level span wraps the
        # program's own function and not a layer wrapper
        self.ops = {
            "recognize": m.recognition.recognize,
            "recognize_oriented": m.recognition.recognize_oriented,
            "nobility_oriented": m.sequential.nobility_oriented,
        }
        self.rng = random.Random(seed)
        self.order = self.shuffled()
        self.prefixes = iter(self.rng.sample(PREFIXES, len(PREFIXES)))
        self.attempted = 0
        self.failures = []
        self.peak_rss_mb = None

    def shuffled(self):
        return self.rng.sample(range(len(self.tasks)), len(self.tasks))

    def round(self, patch=None, budget=None, order=None):
        """One round, in `order` or else the run's fixed order, with `patch`
        (a Tracer or a Counter) applied during the round only; answers are
        checked once it is removed."""
        tracer = patch if isinstance(patch, spans.Tracer) else None
        if patch is not None:
            patch.patch()
        try:
            wall, outcomes = run_round(
                self.m,
                self.ops,
                self.tasks,
                order or self.order,
                next(self.prefixes),
                tracer,
                budget,
                self.calibrator.tick if self.calibrator else None,
            )
        finally:
            if patch is not None:
                patch.unpatch()
        self.attempted += len(outcomes)
        for out in outcomes:
            problem = check(self.m, self.tasks[out.task], out)
            if problem is not None:
                self.failures.append(f"{self.tasks[out.task].label}: {problem}")
        if self.peak_rss_mb is None:
            # read before any repeated set-up, so that the number of rounds
            # a run fits cannot move it
            self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        self.setup.again()
        return wall, outcomes


def end_to_end(run, seconds, record):
    """Rounds until `seconds` of rounds are measured; the first round is
    always whole, the last one may be cut short.  Each decision's times
    are scaled to the host's speed around it (see calibrate.py), and the
    decision is timed by its fastest round, which filters out bursts of
    load.  Percentiles and throughput are taken over decisions."""
    cal = run.calibrator
    walls = []
    samples = {}  # task -> [(decision seconds, certificate seconds or 0, scale)]
    while not walls or seconds - sum(walls) > 0.05:
        # a fresh order each round moves the collector's pauses to other
        # decisions, so a decision's fastest round is free of them
        budget = seconds - sum(walls) if walls else None
        wall, outcomes = run.round(budget=budget, order=run.shuffled())
        walls.append(wall)
        for out in outcomes:
            if out.error is None:
                cert = out.cert_seconds or 0.0
                scale = cal.scale(out.started, out.started + out.seconds + cert)
                samples.setdefault(out.task, []).append((out.seconds, cert, scale))
    raw = {i: (min(d for d, _, _ in v), min(c for _, c, _ in v)) for i, v in samples.items()}
    best = {i: (min(d * k for d, _, k in v), min(c * k for _, c, k in v)) for i, v in samples.items()}

    recognizing = [i for i in best if run.tasks[i].kind != "nobility_oriented"]
    tail = tail_percentile(len(recognizing))

    def summary(times):
        recognize = [times[i][0] for i in recognizing]
        nobility = [d for i, (d, _) in times.items() if run.tasks[i].kind == "nobility_oriented"]
        return {
            "ops_per_s": len(times) / sum(d + c for d, c in times.values()),
            "recognize_p50_ms": 1000 * percentile(recognize, 50),
            "recognize_tail_ms": 1000 * percentile(recognize, tail),
            "nobility_p50_ms": 1000 * percentile(nobility, 50),
            "verify_p50_ms": 1000 * percentile([times[i][1] for i in recognizing], 50),
        }

    record["rounds"] = len(walls)
    record["round_walls_s"] = walls
    record["decisions_per_wall_s"] = run.attempted / sum(walls)
    record["tail"] = {
        "percentile": tail,
        "samples": len(recognizing),
        "beyond": len(recognizing) - -(-tail * len(recognizing) // 100),
    }
    record["calibration"] = {
        "samples": len(cal.kernel_s),
        "kernel_median_s": median(cal.kernel_s),
        "reference_s": REFERENCE_S,
    }
    record["unscaled"] = summary(raw) | {"setup_s": median(run.setup.seconds)}
    scaled = summary(best)
    # kept in the record only: their spread over seeds reached the largest
    # bound allowed (see README.md)
    record["unsteady"] = {k: scaled.pop(k) for k in ("nobility_p50_ms", "verify_p50_ms")}
    units = {"ops_per_s": "1/s", "recognize_p50_ms": "ms", "recognize_tail_ms": "ms"}
    metrics = {"setup_s": (median(run.setup.scaled), "s")}
    metrics.update({k: (v, units[k]) for k, v in scaled.items()})
    metrics["peak_rss_mb"] = (run.peak_rss_mb, "MiB")
    return metrics


def per_layer(run, reference_s, record):
    ops = len(run.tasks)
    untraced_wall, outcomes = run.round()
    tags = [tag_of(out) for out in outcomes]
    metrics = {f"recognition.decided_by.{t}": (tags.count(t), "count") for t in TAGS}

    tracer = spans.Tracer()
    traced_wall, _ = run.round(tracer)
    totals = spans.layer_totals(tracer.spans)
    zero = {"calls": 0, "self_s": 0.0, "true": 0}

    def layer(name):
        return totals.get(name, zero)

    for name in sorted(tracer.layers) + [ROUND_TRIP]:
        metrics[name + ".self_s"] = (layer(name)["self_s"], "s")
    # the top-level spans of both recognize kinds are one layer
    own = layer(TOP["recognize"])["self_s"] + layer(TOP["recognize_oriented"])["self_s"]
    metrics["recognition.recognize.self_s"] = (own, "s")
    for name in ("graphs.enumerate_holes", "structure.chandelier_pivot_candidates"):
        if name in tracer.layers:
            metrics[name + ".calls_per_op"] = (layer(name)["calls"] / ops, "1/op")
    name = "sequential.derivable_orientations"
    if name in tracer.layers:
        metrics[name + ".yielded_per_op"] = (layer(name)["true"] / ops, "1/op")
    name = "recognition.orientation_constraints"
    if name in tracer.layers:
        calls = layer(name)["calls"]
        metrics[name + ".pass_ratio"] = (layer(name)["true"] / calls if calls else 0.0, "ratio")
    if tracer.searcher_stats is not None:
        subsets = sum(s.get("subsets", 0) for s in tracer.searcher_stats)
        calls = sum(s.get("calls", 0) for s in tracer.searcher_stats)
        metrics["sequential.searcher.subsets"] = (subsets, "count")
        metrics["sequential.searcher.calls"] = (calls, "count")
        metrics["sequential.searcher.subsets_per_call"] = (subsets / calls if calls else 0.0, "1/call")
    top = sum(e - s for _, s, e, parent, _, _ in tracer.spans if parent < 0)
    metrics["trace.coverage"] = (top / traced_wall, "ratio")
    metrics["trace.overhead_ratio"] = (traced_wall / untraced_wall, "ratio")

    counter = spans.Counter()
    counted_wall, _ = run.round(counter)
    if "graphs.check_token" in counter.patched:
        metrics["graphs.check_token.calls_per_op"] = (next(counter.check_token) / ops, "1/op")
    if "graphs.graph_init" in counter.patched:
        metrics["graphs.graph_init.calls_per_op"] = (next(counter.graph_init) / ops, "1/op")

    census = run.setup.layer_s.get("catalog.triangle_free_graphs.s", [0.0])
    metrics["catalog.triangle_free_graphs.s"] = (median(census), "s")
    metrics["catalog.burling_by_tree_search.s"] = (reference_s, "s")
    record["walls_s"] = {
        "untraced": untraced_wall,
        "traced": traced_wall,
        "count_only": counted_wall,
    }
    record["spans"] = len(tracer.spans)
    return metrics, tracer


def measure(workload, seed, seconds, trace, select=None):
    """Set up, run and check one workload; returns (result, record, tracer)."""
    # per-layer metrics are unscaled, and kernel samples inside a traced
    # round would sit outside its top-level spans
    setup = Setup(WORKLOADS[workload], None if trace else Calibrator())
    m, tasks = setup.once()
    if select is not None:
        tasks = select(tasks)
    oracle_s = 0.0
    for task in tasks:
        if not isinstance(task.ref, Ref):
            start = perf_counter()
            task.ref = task.ref()
            if task.ref.source == "burling_by_tree_search":
                oracle_s += perf_counter() - start
    run = Run(seed, setup, m, tasks)
    kinds, sources = {}, {}
    for task in tasks:
        family = task.label.split(":")[0]
        kinds[f"{task.kind}:{family}"] = kinds.get(f"{task.kind}:{family}", 0) + 1
        sources[task.ref.source] = sources.get(task.ref.source, 0) + 1
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "commit": commit(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "instances": kinds,
        "references": sources,
    }
    tracer = None
    if trace:
        metrics, tracer = per_layer(run, oracle_s, record)
    else:
        metrics = end_to_end(run, seconds, record)
    record["setup_reps_s"] = setup.seconds
    record["failed_ratio"] = len(run.failures) / run.attempted
    record["failures"] = run.failures[:20]
    result = {
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, record, tracer


def use_source_tree() -> bool:
    """Put ./src first on the import path; False when there is no program."""
    if not (SRC / "burling").is_dir():
        print(f"bench: no program to measure: {SRC / 'burling'} is missing", file=sys.stderr)
        return False
    sys.path.insert(0, str(SRC))
    return True


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not use_source_tree():
        return 2

    result, record, tracer = measure(args.workload, args.seed, args.seconds, args.trace)

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if tracer is not None:
        tracer.write(OUT / f"{stem}.spans.tsv")
    (OUT / f"{stem}.json").write_text(json.dumps({"record": record, "result": result}, indent=1))
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
