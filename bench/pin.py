#!/usr/bin/env python3
"""Regenerate pinned.json, the references the benchmark cannot derive
independently: exact-positives seeds and their nobility, the nobility of
the `c6` figure, and the orientations of the feedback family that survive
`derivable_orientations`.

The pinned file records the program's answers at the commit it was made
on, so rerun this only on a commit whose answers are trusted:

    python3 bench/pin.py
"""

import json
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from burling.catalog import random_derivation  # noqa: E402
from burling.generators import gen_figure  # noqa: E402
from burling.graphs import Graph  # noqa: E402
from burling.sequential import derivable_orientations, nobility_oriented  # noqa: E402
from burling.trees import derive  # noqa: E402

import workloads  # noqa: E402


def main() -> int:
    seeds = {n: [] for n in workloads.DERIVED_SIZES}
    nobility = {}
    seed = 0
    while any(len(s) < workloads.DERIVED_PER_SIZE for s in seeds.values()):
        d = random_derivation(random.Random(seed), workloads.DERIVED_TREE_VERTICES)
        n = len(d.kept)
        if n in seeds and len(seeds[n]) < workloads.DERIVED_PER_SIZE:
            seeds[n].append(seed)
            nobility[str(seed)] = nobility_oriented(derive(d), budget=n)
        seed += 1

    orientations = {}
    for inner in workloads.FEEDBACK_FAMILY:
        g = workloads.feedback_graph(Graph, inner)
        orientations[",".join(map(str, inner))] = [
            sorted(o.arcs) for o in derivable_orientations(g)
        ]

    c6 = derive(gen_figure("c6"))
    pinned = {
        "derived_seeds": {str(n): s for n, s in seeds.items()},
        "derived_nobility": nobility,
        "figure_nobility": {"c6": nobility_oriented(c6, budget=len(c6.vertices))},
        "feedback_orientations": orientations,
    }
    (HERE / "pinned.json").write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
