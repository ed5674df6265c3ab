import random
from itertools import combinations

from burling.catalog import (
    acyclic_orientations,
    burling_by_tree_search,
    derivable_by_tree_search,
    in_forests,
    random_derivation,
    random_tree,
    triangle_free_graphs,
)
from burling.generators import gen_figure
from burling.graphs import Graph, OrientedGraph, underlying
from burling.structure import is_in_forest
from burling.trees import (
    check_derivation,
    derive,
    serialize_derivation,
    validate_derivation,
    validate_tree,
)


def test_random_trees_are_valid():
    for seed in range(30):
        t = random_tree(random.Random(seed))
        assert validate_tree(t) == []
        assert len(t.vertices) <= 14


def test_random_derivations_are_valid_and_deterministic():
    for seed in range(30):
        d = random_derivation(random.Random(seed))
        assert validate_derivation(d) == []
        again = random_derivation(random.Random(seed))
        assert serialize_derivation(d) == serialize_derivation(again)


def test_in_forest_census():
    small = in_forests(3)
    assert len(small) == 7
    forests = in_forests(8)
    assert len(forests) == 485
    assert all(is_in_forest(f) for f in forests)
    assert all(1 <= len(f.vertices) <= 8 for f in forests)


def test_triangle_free_census():
    graphs = triangle_free_graphs(6)
    assert len(graphs) == 66
    by_size = {}
    for g in graphs:
        by_size[len(g.vertices)] = by_size.get(len(g.vertices), 0) + 1
        assert g.find_triangle() is None
    assert by_size == {0: 1, 1: 1, 2: 2, 3: 3, 4: 7, 5: 14, 6: 38}
    # the 5-cycle shows up exactly once
    c5s = [
        g
        for g in graphs
        if len(g.vertices) == 5
        and sorted(g.degree(v) for v in g.vertices) == [2, 2, 2, 2, 2]
        and len(g.components()) == 1
    ]
    assert len(c5s) == 1


def test_acyclic_orientations():
    c4 = underlying(derive(gen_figure("square-c4")))
    ors = list(acyclic_orientations(c4))
    assert len(ors) == 14
    assert all(o.topological_order() is not None for o in ors)
    assert [sorted(o.arcs) for o in ors] == [
        sorted(o.arcs) for o in acyclic_orientations(c4)
    ]
    triangle = Graph("abc", [("a", "b"), ("b", "c"), ("a", "c")])
    assert len(list(acyclic_orientations(triangle))) == 6


def test_acyclic_orientations_match_bitmask_order():
    """The pruned enumeration yields the acyclic members of the plain
    bitmask enumeration, bit i reversing the i-th sorted edge, in order."""
    for g in triangle_free_graphs(6) + [Graph("abcd", combinations("abcd", 2))]:
        edges = sorted(g.edges)
        expected = []
        for bits in range(1 << len(edges)):
            arcs = [(v, u) if bits >> i & 1 else (u, v) for i, (u, v) in enumerate(edges)]
            o = OrientedGraph(sorted(g.vertices), arcs)
            if o.topological_order() is not None:
                expected.append(sorted(o.arcs))
        assert [sorted(o.arcs) for o in acyclic_orientations(g)] == expected


def test_tree_search_finds_the_square():
    g = derive(gen_figure("square-c4"))
    d = derivable_by_tree_search(g)
    assert d is not None
    assert check_derivation(g, d)
    assert len(d.tree.vertices) <= 13


def test_tree_search_rejects():
    lopsided = OrientedGraph("uvxy", [("u", "x"), ("u", "y"), ("v", "x"), ("y", "v")])
    assert derivable_by_tree_search(lopsided) is None
    cyclic = OrientedGraph("abc", [("a", "b"), ("b", "c"), ("c", "a")])
    assert derivable_by_tree_search(cyclic) is None


def test_tree_search_empty_graph():
    d = derivable_by_tree_search(OrientedGraph([], []))
    assert d is not None and d.kept == frozenset()


def test_burling_by_tree_search():
    c4 = underlying(derive(gen_figure("square-c4")))
    found = burling_by_tree_search(c4)
    assert found is not None
    orientation, derivation = found
    assert underlying(orientation) == c4
    assert check_derivation(orientation, derivation)

    triangle = Graph("abc", [("a", "b"), ("b", "c"), ("a", "c")])
    assert burling_by_tree_search(triangle) is None
    k4 = Graph(
        "abcd", [(x, y) for i, x in enumerate("abcd") for y in "abcd"[i + 1 :]]
    )
    assert burling_by_tree_search(k4) is None
