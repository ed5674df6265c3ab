from itertools import combinations, permutations

from hypothesis import given
from hypothesis import strategies as st
import pytest

from burling.catalog import triangle_free_graphs
from burling.errors import ParseError
from burling.generators import gen_theta, gen_wheel
from burling.graphs import (
    Graph,
    OrientedGraph,
    enumerate_holes,
    is_hole,
    parse_graph,
    serialize_graph,
)

C4 = Graph("abcd", [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")])


def test_basic_accessors():
    assert C4.has_edge("a", "b") and C4.has_edge("b", "a")
    assert not C4.has_edge("a", "c")
    assert C4.neighbors("a") == {"b", "d"}
    assert C4.degree("a") == 2
    assert len(C4) == 4
    assert C4.is_connected()


def test_components_and_induced():
    g = Graph("abcde", [("a", "b"), ("c", "d")])
    assert [sorted(c) for c in g.components()] == [["a", "b"], ["c", "d"], ["e"]]
    sub = g.induced_subgraph({"a", "b", "e"})
    assert sub.vertex_set == {"a", "b", "e"}
    assert sub.has_edge("a", "b") and sub.degree("e") == 0


def test_triangle_detection():
    g = Graph("abc", [("a", "b"), ("b", "c"), ("a", "c")])
    assert set(g.find_triangle()) == {"a", "b", "c"}
    assert C4.find_triangle() is None


def test_oriented_accessors():
    g = OrientedGraph("abc", [("a", "b"), ("c", "b")])
    assert g.has_arc("a", "b") and not g.has_arc("b", "a")
    assert g.has_edge("a", "b") and g.has_edge("b", "a")
    assert g.out_neighbors("a") == {"b"}
    assert g.in_neighbors("b") == {"a", "c"}
    assert g.sources() == ["a", "c"]
    assert g.sinks() == ["b"]
    assert g.underlying() == Graph("abc", [("a", "b"), ("b", "c")])


def test_topological_order():
    dag = OrientedGraph("abc", [("a", "b"), ("b", "c")])
    assert dag.topological_order() == ["a", "b", "c"]
    loop = OrientedGraph("abc", [("a", "b"), ("b", "c"), ("c", "a")])
    assert loop.topological_order() is None


def test_parse_errors():
    with pytest.raises(ParseError):
        parse_graph("undirected\na a\n")
    with pytest.raises(ParseError):
        parse_graph("undirected\na b\nb a\n")
    with pytest.raises(ParseError):
        parse_graph("nonsense\na b\n")
    with pytest.raises(ParseError):
        parse_graph("directed\na b\nb a\n")


def test_parse_isolated_vertices_and_comments():
    g = parse_graph("# c\nundirected\nvertex z\na b\n")
    assert g.vertex_set == {"a", "b", "z"}
    assert g.degree("z") == 0


def test_serialize_round_trip_fixed():
    for g in [C4, OrientedGraph("abc", [("a", "b"), ("c", "b")]), Graph(), Graph("x", [])]:
        assert parse_graph(serialize_graph(g)) == g


_labels = st.text(alphabet="abcdefgh", min_size=1, max_size=2)


@given(st.sets(_labels, max_size=6), st.data())
def test_serialize_round_trip_random(verts, data):
    verts = sorted(verts)
    pairs = [(u, v) for i, u in enumerate(verts) for v in verts[i + 1 :]]
    edges = data.draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    g = Graph(verts, edges)
    assert parse_graph(serialize_graph(g)) == g
    flipped = data.draw(st.lists(st.booleans(), min_size=len(edges), max_size=len(edges)))
    arcs = [(v, u) if f else (u, v) for (u, v), f in zip(edges, flipped)]
    og = OrientedGraph(verts, arcs)
    assert parse_graph(serialize_graph(og)) == og


def test_enumerate_holes_known_instances():
    assert enumerate_holes(C4) == [("a", "b", "c", "d")]
    assert enumerate_holes(Graph("abc", [("a", "b"), ("b", "c"), ("a", "c")])) == []
    theta = gen_theta(3, 3, 3)
    holes = enumerate_holes(theta)
    assert [len(h) for h in holes] == [6, 6, 6]
    wheel = gen_wheel(6, {0, 2, 4})
    lengths = sorted(len(h) for h in enumerate_holes(wheel))
    assert lengths.count(6) >= 1 and min(lengths) == 4


def test_enumerate_holes_canonical_and_deterministic():
    theta = gen_theta(3, 3, 4)
    holes = enumerate_holes(theta)
    assert holes == enumerate_holes(theta)
    for h in holes:
        assert h[0] == min(h)
        assert h[1] < h[-1]


def _canonical_cycle(cycle) -> tuple:
    """The rotation and direction enumerate_holes reports a hole in."""
    i = cycle.index(min(cycle))
    turned = tuple(cycle[i:]) + tuple(cycle[:i])
    return turned if turned[1] < turned[-1] else (turned[0],) + turned[1:][::-1]


def test_holes_match_networkx_chordless_cycles():
    nx = pytest.importorskip("networkx")
    census = triangle_free_graphs(6)
    assert len(census) == 66
    for g in census:
        oracle = nx.Graph(list(g.edges))
        oracle.add_nodes_from(g.vertices)
        expected = {
            _canonical_cycle(c) for c in nx.chordless_cycles(oracle) if len(c) >= 4
        }
        assert set(enumerate_holes(g)) == expected
        # is_hole on every cyclic vertex sequence of length >= 4
        for k in range(4, len(g.vertices) + 1):
            for subset in combinations(sorted(g.vertices), k):
                for rest in permutations(subset[1:]):
                    seq = (subset[0],) + rest
                    assert is_hole(g, seq) == (_canonical_cycle(seq) in expected)
