from hypothesis import given
import pytest

from burling.errors import ValidationError
from burling.generators import gen_chandelier, gen_figure, gen_luxury_chandelier
from burling.graphs import Graph, OrientedGraph, underlying
from burling.structure import (
    analyze_hole,
    chalopin_filter,
    chandelier_pivot_candidates,
    check_top_ancestor_dichotomy,
    decompose,
    full_star_cutsets,
    in_tree_leaves,
    is_in_forest,
    is_in_tree,
    is_luxury_chandelier,
    is_oriented_chandelier,
    is_path_graph,
    is_path_like_tree,
    serialize_decomposition,
    top_set,
)
from burling.trees import derive

from .strategies import derivations


def test_top_set_square():
    rep = top_set(gen_figure("square-c4"))
    assert rep.top_set == frozenset("uvx")
    assert rep.top_ancestor == {"u": "u", "v": "v", "x": "x", "y": "x"}
    assert rep.pivots == frozenset("x")
    assert rep.antennas == frozenset("uv")


def test_top_set_k33():
    rep = top_set(gen_figure("k33"))
    assert rep.top_set == frozenset({"u1", "u2", "u3", "x1"})
    assert rep.top_ancestor["x3"] == "x1"
    assert rep.pivots == frozenset({"x1"})
    assert rep.antennas == frozenset({"u1", "u2", "u3"})


def test_top_ancestor_dichotomy():
    d = gen_figure("square-c4")
    assert check_top_ancestor_dichotomy(d) is None
    # a corrupted map must surface the arc it breaks
    bad = dict(top_set(d).top_ancestor)
    bad["u"] = "x"
    assert check_top_ancestor_dichotomy(d, bad) == ("u", "x")


@given(derivations())
def test_top_ancestor_dichotomy_holds(d):
    assert check_top_ancestor_dichotomy(d) is None


@given(derivations())
def test_top_set_induces_in_forest(d):
    rep = top_set(d)
    inside = derive(d).induced_subgraph(rep.top_set)
    assert is_in_forest(inside)


def test_in_tree_predicates():
    path = OrientedGraph("abc", [("a", "b"), ("b", "c")])
    assert is_in_tree(path)
    assert is_in_forest(path)
    assert in_tree_leaves(path) == frozenset("a")

    star = OrientedGraph("abc", [("a", "c"), ("b", "c")])
    assert in_tree_leaves(star) == frozenset("ab")

    out2 = OrientedGraph("abc", [("a", "b"), ("a", "c")])
    assert not is_in_forest(out2)

    forest = OrientedGraph("abcd", [("a", "b"), ("c", "d")])
    assert is_in_forest(forest)
    assert not is_in_tree(forest)

    cycle = OrientedGraph("abc", [("a", "b"), ("b", "c"), ("c", "a")])
    assert not is_in_forest(cycle)

    lone = OrientedGraph("a", [])
    assert is_in_tree(lone)
    assert in_tree_leaves(lone) == frozenset()


def test_oriented_chandelier_witness():
    g = gen_chandelier([("a", "b"), ("b", "c"), ("d", "c")])
    assert is_oriented_chandelier(g) == ("p", "c")
    # on the square both sinks qualify; the smallest label wins
    g = gen_chandelier([("a", "c"), ("b", "c")])
    assert is_oriented_chandelier(g) == ("c", "p")
    path = OrientedGraph("abc", [("a", "b"), ("b", "c")])
    assert is_oriented_chandelier(path) is None


def test_hole_analysis_square():
    g = derive(gen_figure("square-c4"))
    hole = ("u", "x", "v", "y")
    assert chandelier_pivot_candidates(g, hole) == ["x", "y"]
    rep = analyze_hole(g, hole)
    assert rep.pivot == "x"
    assert rep.antennas == ("u", "v")
    assert rep.bottom == "y"
    assert rep.subordinate == frozenset("y")


def test_hole_analysis_c6():
    g = derive(gen_figure("c6"))
    hole = ("x", "u", "w2", "w1", "y", "v")
    assert chandelier_pivot_candidates(g, hole) == ["x"]
    rep = analyze_hole(g, hole)
    assert rep.pivot == "x"
    assert rep.antennas == ("u", "v")
    assert rep.bottom == "y"
    assert rep.subordinate == frozenset({"w1", "w2", "y"})


def test_hole_analysis_rejects_bad_holes():
    g = derive(gen_figure("c6"))
    with pytest.raises(ValidationError):
        analyze_hole(g, ("x", "u", "w1", "w2", "y", "v"))  # u w1 not an edge
    with pytest.raises(ValidationError):
        analyze_hole(g, ("u", "x", "u", "y"))
    chorded = OrientedGraph(
        "abcd", [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a"), ("a", "c")]
    )
    with pytest.raises(ValidationError):
        chandelier_pivot_candidates(chorded, ("a", "b", "c", "d"))


def test_directed_cycle_is_not_chandelier_oriented():
    g = OrientedGraph("abcd", [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")])
    assert chandelier_pivot_candidates(g, ("a", "b", "c", "d")) == []
    assert analyze_hole(g, ("a", "b", "c", "d")) is None


def test_full_in_star_cutsets_k33():
    g = derive(gen_figure("k33"))
    cuts = full_star_cutsets(g)
    assert [c for c, _ in cuts] == ["x1", "x2", "x3"]
    assert cuts[0][1] == [["x2"], ["x3"]]
    # the C4 has none: deleting any closed in-neighborhood leaves one vertex
    assert full_star_cutsets(derive(gen_figure("square-c4"))) == []


def test_full_star_cutsets():
    p5 = Graph("abcde", [("a", "b"), ("b", "c"), ("c", "d"), ("d", "e")])
    cuts = full_star_cutsets(p5)
    assert [c for c, _ in cuts] == ["c"]
    assert cuts[0][1] == [["a"], ["e"]]
    c6 = underlying(derive(gen_figure("c6")))
    assert full_star_cutsets(c6) == []


def test_decompose_leaf_and_chandelier():
    lone = decompose(OrientedGraph("a", []))
    assert lone.kind == "leaf" and lone.vertices == ("a",)
    node = decompose(derive(gen_figure("square-c4")))
    assert node.kind == "chandelier"
    assert node.center == "x"
    assert node.children == ()


def test_decompose_deg1_chain():
    g = OrientedGraph("abc", [("a", "b"), ("b", "c")])
    node = decompose(g)
    assert node.kind == "deg1" and node.center == "a"
    kinds = [n.kind for n in (node, *node.children)]
    assert kinds == ["deg1", "deg1"]
    assert len(node.find("leaf")) == 1
    assert node.find("failure") == []


def test_decompose_cutset_k33():
    node = decompose(derive(gen_figure("k33")))
    assert node.kind == "cutset" and node.center == "x1"
    assert [c.kind for c in node.children] == ["leaf", "leaf"]
    assert serialize_decomposition(node) == (
        "node 0 kind=cutset center=x1 vertices=u1,u2,u3,x1,x2,x3 children=1,2\n"
        "node 1 kind=leaf vertices=x2\n"
        "node 2 kind=leaf vertices=x3\n"
    )


def test_decompose_directed_cycle_fails():
    g = OrientedGraph("abcd", [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")])
    node = decompose(g)
    assert node.kind == "failure"
    assert node.find("failure") == [node]


@given(derivations())
def test_derived_graphs_decompose_cleanly(d):
    assert decompose(derive(d)).find("failure") == []


def test_path_predicates():
    assert is_path_graph(Graph("ab", [("a", "b")]))
    assert is_path_graph(Graph("abc", [("a", "b"), ("b", "c")]))
    assert not is_path_graph(Graph("abc", [("a", "b"), ("b", "c"), ("a", "c")]))
    assert not is_path_graph(Graph("abcd", [("a", "b"), ("c", "d")]))
    assert not is_path_graph(Graph([], []))
    star = Graph("abcd", [("a", "b"), ("a", "c"), ("a", "d")])
    assert is_path_like_tree(star)
    assert not is_path_graph(star)


def test_luxury_chandelier():
    arcs = [("a1", "a2"), ("a2", "c"), ("b1", "b2"), ("b2", "c"), ("d1", "d2"), ("d2", "c")]
    g = gen_luxury_chandelier(arcs)
    # the spider's own center also reads as a pivot and sorts first
    assert is_luxury_chandelier(g) == "c"
    assert is_luxury_chandelier(underlying(derive(gen_figure("c6")))) == "u"
    p4 = Graph("abcd", [("a", "b"), ("b", "c"), ("c", "d")])
    assert is_luxury_chandelier(p4) is None
    k4 = Graph("abcd", [(x, y) for i, x in enumerate("abcd") for y in "abcd"[i + 1 :]])
    assert is_luxury_chandelier(k4) is None


def test_filter_accepts_small_derivable_shapes():
    assert chalopin_filter(underlying(derive(gen_figure("k33")))).passes
    assert chalopin_filter(underlying(derive(gen_figure("c6")))).passes
    p5 = Graph("abcde", [("a", "b"), ("b", "c"), ("c", "d"), ("d", "e")])
    assert chalopin_filter(p5).passes


def test_filter_rejects_triangle_and_subdivided_k4():
    tri = Graph("abc", [("a", "b"), ("b", "c"), ("a", "c")])
    res = chalopin_filter(tri)
    assert not res.passes
    assert set(res.witness.vertices) == set("abc")

    k4 = underlying(gen_figure("k4-all-subdivided"))
    res = chalopin_filter(k4)
    assert not res.passes
    # the witness piece resists every reduction the filter knows
    assert full_star_cutsets(res.witness) == []
    assert is_luxury_chandelier(res.witness) is None


@given(derivations())
def test_filter_accepts_derived_graphs(d):
    assert chalopin_filter(derive(d)).passes
