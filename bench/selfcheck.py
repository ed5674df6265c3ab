#!/usr/bin/env python3
"""Fast self-check of the benchmark itself.

    python3 bench/selfcheck.py

For each workload it runs one round over a small slice (the three
smallest instances of each decision kind) in both modes, and checks that
the correctness gate passes, that every emitted metric name is declared in
BENCHMARK.json and matches [A-Za-z0-9_.-]+, and that every declared name
is emitted.  It then flips one reference and checks that the gate fails.
"""

import dataclasses
import json
import re
import sys

import run

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def small_slice(tasks):
    """The three smallest instances of each decision kind."""
    kept = []
    for kind in sorted({t.kind for t in tasks}):
        of_kind = [t for t in tasks if t.kind == kind]
        kept += sorted(of_kind, key=lambda t: len(t.graph.vertices))[:3]
    return kept


def wrong_reference(tasks):
    """The small slice with the verdict of one recognize reference flipped."""
    tasks = small_slice(tasks)
    task = next(t for t in tasks if t.kind != "nobility_oriented")
    original = task.ref

    def flipped():
        ref = original() if callable(original) else original
        return dataclasses.replace(ref, burling=not ref.burling, reason=None)

    task.ref = flipped
    return tasks


def main() -> int:
    if not run.use_source_tree():
        return 2
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in (w["name"] for w in declared["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            result, _, _ = run.measure(workload, 0, 0, trace, select=small_slice)
            names = set(result["metrics"])
            allowed = {m["name"] for m in declared[key]}
            where = f"{workload} --trace {trace}"
            if not result["correct"]:
                problems.append(f"{where}: gate failed on the seed slice")
            problems += [f"{where}: bad name {n!r}" for n in names if not NAME.fullmatch(n)]
            problems += [f"{where}: undeclared {n}" for n in sorted(names - allowed)]
            problems += [f"{where}: missing {n}" for n in sorted(allowed - names)]
        result, _, _ = run.measure(workload, 0, 0, 0, select=wrong_reference)
        if result["correct"] or result["failed"] != 1:
            problems.append(f"{workload}: a wrong reference went unnoticed")
        print(f"{workload}: checked", flush=True)
    for problem in problems:
        print("selfcheck:", problem, file=sys.stderr)
    print("selfcheck:", "FAIL" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
