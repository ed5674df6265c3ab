"""The three membership-decision workloads: instances, operations, references.

Each workload is a list of tasks.  A task names one decision the program
makes (`recognize`, `recognize_oriented` or `nobility_oriented`), the graph
it is made on, and the reference its answer is checked against.  Builders
use the program's own generators and are timed as set-up; references that
need computing are callables resolved afterwards, outside every timed
region.
"""

from __future__ import annotations

import functools
import itertools
import json
import random
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

# Verdicts and reasons stated in docs/figures.md; nobility where it states one.
FIGURE_VERDICTS = {
    "square-c4": (True, None),
    "k33": (True, None),
    "c6": (True, None),
    "nobility4": (True, None),
    "wheel6": (False, "wheel"),
    "flower12": (False, "flower"),
    "k4-all-subdivided": (False, "filter"),
    "k4-one-edge": (False, "filter"),
    "k4-matching": (False, "filter"),
    "feedback": (False, "exhausted"),
}
FIGURE_NOBILITY = {"square-c4": 2, "k33": 3, "nobility4": 4}

K4_POSITIVES = ((1, 1, 3, 3, 3, 3), (1, 1, 2, 4, 4, 4), (1, 1, 4, 4, 4, 4))
# every theta with path lengths 2..5: all Burling, 5 to 14 vertices
THETAS = tuple(itertools.combinations_with_replacement(range(2, 6), 3))
DERIVED_SIZES = (12, 14, 16)
DERIVED_PER_SIZE = 6
DERIVED_TREE_VERTICES = 24
# Inner path lengths of the y -> x paths; the first three paths of length 2
# with the edge x y induce the `feedback` figure, so no member is Burling.
FEEDBACK_FAMILY = ((2, 2, 2), (2, 2, 2, 2), (2, 2, 2, 3), (2, 2, 2, 4))
# Orientations of family members up to this size also get a nobility call;
# the (2,2,2,4) orientations alone would add 4 s to every round.
FEEDBACK_NOBILITY_MAX_VERTICES = 11


@dataclass
class Ref:
    """What a correct answer looks like, and where that knowledge comes from."""

    burling: bool
    source: str
    reason: str | None = None  # expected reason tag of a negative verdict
    nobility: int | None = None  # expected nobility_oriented value
    depth_bound: int | None = None  # nobility may not exceed this


@dataclass
class Task:
    kind: str  # recognize | recognize_oriented | nobility_oriented
    label: str
    graph: object
    ref: object  # a Ref, or a callable returning one


def k4_lengths(max_vertices: int = 10):
    """Path-length sextuples of every K4 subdivision with <= max_vertices."""
    top = max_vertices + 2
    for lengths in itertools.product(range(1, top - 4), repeat=6):
        if sum(lengths) <= top:
            yield lengths


@functools.cache
def pinned() -> dict:
    """References recorded by pin.py at the commit that defined the benchmark."""
    return json.loads(Path(__file__).with_name("pinned.json").read_text())


def feedback_graph(graph_class, inner):
    vertices = ["x", "y"]
    edges = [("x", "y")]
    for i, length in enumerate(inner):
        prev = "y"
        for k in range(length):
            w = f"p{i}_{k}"
            vertices.append(w)
            edges.append((prev, w))
            prev = w
        edges.append((prev, "x"))
    return graph_class(vertices, edges)


def _as_graph(m, item):
    return m.trees.derive(item) if isinstance(item, m.trees.Derivation) else item


def _k4_task(m, lengths):
    g = m.generators.gen_k4_subdivision(lengths)
    rec = m.recognition
    ref = lambda: Ref(rec.classify_k4_subdivision(g) == rec.BURLING, "classify_k4_subdivision")
    return Task("recognize", "k4:" + ",".join(map(str, lengths)), g, ref)


def small_graphs(m, timings):
    tasks = [_k4_task(m, lengths) for lengths in k4_lengths(10)]

    start = perf_counter()
    census = m.catalog.triangle_free_graphs(6)
    timings["catalog.triangle_free_graphs.s"] = perf_counter() - start
    for i, g in enumerate(census):
        ref = lambda g=g: Ref(
            m.catalog.burling_by_tree_search(g) is not None, "burling_by_tree_search"
        )
        tasks.append(Task("recognize", f"census:{i}", g, ref))

    # an in-forest is its own depth-1 decomposition: nobility 1
    for i, g in enumerate(m.catalog.in_forests(6)):
        ref = Ref(True, "in-forest", nobility=1)
        tasks.append(Task("nobility_oriented", f"in-forest:{i}", g, ref))

    for name, (burling, reason) in FIGURE_VERDICTS.items():
        g = _as_graph(m, m.generators.gen_figure(name))
        tasks.append(Task("recognize", f"figure:{name}", g, Ref(burling, "docs/figures.md", reason)))
        if name in FIGURE_NOBILITY:
            ref = Ref(True, "docs/figures.md", nobility=FIGURE_NOBILITY[name])
        elif burling:
            ref = Ref(True, "pinned", nobility=pinned()["figure_nobility"][name])
        else:
            continue
        tasks.append(Task("nobility_oriented", f"figure:{name}", g, ref))
    return tasks


def exact_positives(m, timings):
    tasks = []
    nobility = pinned()["derived_nobility"]
    for seeds in pinned()["derived_seeds"].values():
        for seed in seeds:
            d = m.catalog.random_derivation(random.Random(seed), DERIVED_TREE_VERTICES)
            g = m.trees.derive(d)
            label = f"derived:{seed}"
            tasks.append(Task("recognize_oriented", label, g, Ref(True, "self-checking")))
            ref = lambda d=d, seed=seed: Ref(
                True,
                "pinned",
                nobility=nobility[str(seed)],
                depth_bound=m.sequential.seq_from_tree(d).depth,
            )
            tasks.append(Task("nobility_oriented", label, g, ref))
    tasks += [_k4_task(m, lengths) for lengths in K4_POSITIVES]
    for lengths in THETAS:
        g = m.generators.gen_theta(*lengths)
        label = "theta:" + ",".join(map(str, lengths))
        tasks.append(Task("recognize", label, g, Ref(True, "pinned")))
    return tasks


def exact_negatives(m, timings):
    tasks = []
    orientations = pinned()["feedback_orientations"]
    for inner in FEEDBACK_FAMILY:
        g = feedback_graph(m.graphs.Graph, inner)
        key = ",".join(map(str, inner))
        ref = Ref(False, "contains feedback")
        tasks.append(Task("recognize", f"feedback:{key}", g, ref))
        for j, arcs in enumerate(orientations[key]):
            o = m.graphs.OrientedGraph(g.vertices, [tuple(a) for a in arcs])
            if o.underlying() != g:
                raise ValueError(f"pinned orientation {key}#{j} does not orient its graph")
            label = f"feedback:{key}#{j}"
            tasks.append(Task("recognize_oriented", label, o, ref))
            if len(g.vertices) <= FEEDBACK_NOBILITY_MAX_VERTICES:
                tasks.append(Task("nobility_oriented", label, o, ref))
    return tasks


WORKLOADS = {
    "small-graphs": small_graphs,
    "exact-positives": exact_positives,
    "exact-negatives": exact_negatives,
}
