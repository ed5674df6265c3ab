import random
from itertools import combinations

from hypothesis import given, settings, strategies as st
import pytest

from burling.catalog import (
    acyclic_orientations,
    in_forests,
    random_derivation,
    triangle_free_graphs,
)
from burling.errors import BudgetExceededError, ValidationError
from burling.generators import FIGURES, gen_figure
from burling.graphs import Graph, OrientedGraph, enumerate_holes, underlying
from burling.sequential import (
    EMPTY,
    SequentialDecomposition,
    _rank,
    _Searcher,
    derivable_orientations,
    exact_searcher,
    find_sequential,
    is_chain,
    nobility,
    nobility_oriented,
    realized_graph,
    realizes,
    seq_from_tree,
    serialize_sequential,
    tree_from_seq,
    validate_decomposition,
)
from burling.structure import chandelier_pivot_candidates
from burling.trees import Derivation, derive

from .strategies import derivations


def square_seq():
    return seq_from_tree(gen_figure("square-c4"))


def test_empty_decomposition():
    assert EMPTY.depth == 0
    assert EMPTY.vertex_set == frozenset()
    assert validate_decomposition(EMPTY) == []
    assert realized_graph(EMPTY) == OrientedGraph([], [])
    assert is_chain(EMPTY, frozenset())
    assert not is_chain(EMPTY, frozenset("a"))


def test_seq_from_square():
    sd = square_seq()
    assert validate_decomposition(sd) == []
    assert sd.depth == 2
    assert sd.base.vertex_set == frozenset("uvx")
    assert sd.links == {"u": frozenset("y"), "v": frozenset("y")}
    assert sd.children["x"].base.vertex_set == frozenset("y")
    assert realizes(derive(gen_figure("square-c4")), sd)


def test_chain_predicate():
    sd = square_seq()
    assert is_chain(sd.children["x"], frozenset("y"))
    assert not is_chain(sd.children["x"], frozenset("yz"))
    assert not is_chain(sd, frozenset("uv"))
    assert is_chain(sd, frozenset(["x", "y"]))


def test_validation_messages():
    two_out = SequentialDecomposition(
        OrientedGraph("abc", [("a", "b"), ("a", "c")]),
        {"a": EMPTY, "b": EMPTY, "c": EMPTY},
        {"a": frozenset()},
    )
    assert "base is not an in-forest" in validate_decomposition(two_out)

    assert validate_decomposition(
        SequentialDecomposition(OrientedGraph("a", []), {}, {})
    ) == ["children keys differ from base vertices"]

    shadowing = SequentialDecomposition(
        OrientedGraph("ab", []),
        {"a": SequentialDecomposition(OrientedGraph("b", []), {"b": EMPTY}, {}), "b": EMPTY},
        {},
    )
    assert "vertex sets overlap at ['b']" in validate_decomposition(shadowing)

    stray = SequentialDecomposition(
        OrientedGraph("ab", [("a", "b")]),
        {"a": EMPTY, "b": EMPTY},
        {"a": frozenset("c")},
    )
    assert "link of a leaves the block of b" in validate_decomposition(stray)

    forked = SequentialDecomposition(
        OrientedGraph("ab", [("a", "b")]),
        {
            "a": EMPTY,
            "b": SequentialDecomposition(OrientedGraph("cd", []), {"c": EMPTY, "d": EMPTY}, {}),
        },
        {"a": frozenset("cd")},
    )
    assert "link of a is not a chain under b" in validate_decomposition(forked)
    assert not realizes(realized_graph(forked), forked)


def test_find_sequential_square():
    g = derive(gen_figure("square-c4"))
    sd = find_sequential(g, 2)
    assert sd is not None
    assert realizes(g, sd)
    assert find_sequential(g, 1) is None
    with pytest.raises(ValidationError):
        find_sequential(g, -1)


def test_find_sequential_rejects_quickly():
    cyclic = OrientedGraph("abc", [("a", "b"), ("b", "c"), ("c", "a")])
    assert find_sequential(cyclic, 3) is None
    # acyclic but the hole has only one source, so no pivot exists
    lopsided = OrientedGraph("uvxy", [("u", "x"), ("u", "y"), ("v", "x"), ("y", "v")])
    assert lopsided.topological_order() is not None
    assert find_sequential(lopsided, 4) is None
    assert nobility_oriented(lopsided) is None


def test_nobility_known_values():
    assert nobility_oriented(OrientedGraph([], [])) == 0
    assert nobility_oriented(OrientedGraph("a", [])) == 1
    assert nobility_oriented(OrientedGraph("abc", [("a", "c"), ("b", "c")])) == 1
    assert nobility_oriented(derive(gen_figure("square-c4"))) == 2
    assert nobility_oriented(derive(gen_figure("k33"))) == 3
    assert nobility_oriented(gen_figure("nobility4")) == 4


def test_nobility_undirected():
    assert nobility(Graph([], [])) == 0
    assert nobility(Graph("abc", [("a", "b"), ("b", "c")])) == 1
    assert nobility(underlying(derive(gen_figure("square-c4")))) == 2
    triangle = Graph("abc", [("a", "b"), ("b", "c"), ("a", "c")])
    assert nobility(triangle) is None


def test_nobility_budget():
    big = OrientedGraph([f"v{i}" for i in range(13)], [])
    with pytest.raises(BudgetExceededError):
        nobility_oriented(big)
    assert nobility_oriented(big, budget=13) == 1
    with pytest.raises(BudgetExceededError):
        nobility(Graph([f"v{i}" for i in range(13)], []))


def test_derivable_orientations_square():
    c4 = underlying(derive(gen_figure("square-c4")))
    first = [frozenset(o.arcs) for o in derivable_orientations(c4)]
    again = [frozenset(o.arcs) for o in derivable_orientations(c4)]
    assert first == again
    assert first == [
        frozenset({("u", "x"), ("u", "y"), ("v", "x"), ("v", "y")}),
        frozenset({("x", "u"), ("x", "v"), ("y", "u"), ("y", "v")}),
    ]


def test_derivable_orientations_triangle_empty():
    triangle = Graph("abc", [("a", "b"), ("b", "c"), ("a", "c")])
    assert list(derivable_orientations(triangle)) == []


def _figure_graphs():
    for name in sorted(FIGURES):
        figure = gen_figure(name)
        yield underlying(derive(figure) if isinstance(figure, Derivation) else figure)


def test_derivable_orientations_match_brute_force():
    """The arc-map checks keep exactly the acyclic orientations with stable
    out-neighborhoods and every hole chandelier-oriented, in edge order."""
    for g in triangle_free_graphs(6) + list(_figure_graphs()):
        edges = sorted(g.edges)
        holes = enumerate_holes(g)
        expected = []
        for o in acyclic_orientations(g):
            if any(
                g.has_edge(v, w)
                for u in o.vertices
                for v, w in combinations(o.out_neighbors(u), 2)
            ):
                continue
            if all(chandelier_pivot_candidates(o, h) for h in holes):
                expected.append(o)
        expected.sort(key=lambda o: [(b, a) in o.arcs for a, b in edges])
        got = list(derivable_orientations(g))
        assert [sorted(o.arcs) for o in got] == [sorted(o.arcs) for o in expected]
        assert all(o.holes == g.holes == tuple(holes) for o in got)


def test_serialize_sequential_golden():
    assert serialize_sequential(EMPTY) == "empty\n"
    assert serialize_sequential(square_seq()) == (
        "base u v x\n"
        "arc u x\n"
        "arc v x\n"
        "link u: y\n"
        "link v: y\n"
        "child x\n"
        "  base y\n"
    )


def test_tree_from_seq_square():
    sd = square_seq()
    d = tree_from_seq(sd)
    assert derive(d) == derive(gen_figure("square-c4"))
    with pytest.raises(ValidationError):
        tree_from_seq(SequentialDecomposition(OrientedGraph("a", []), {}, {}))


@given(derivations())
def test_seq_round_trip(d):
    sd = seq_from_tree(d)
    assert validate_decomposition(sd) == []
    assert realizes(derive(d), sd)
    assert derive(tree_from_seq(sd)) == derive(d)


@settings(max_examples=40, deadline=None)
@given(derivations(max_vertices=9))
def test_seq_depth_is_searchable(d):
    sd = seq_from_tree(d)
    assert find_sequential(derive(d), sd.depth) is not None


def _subsets_ascending(mask):
    """Every subset of mask, the empty one included, in (popcount, mask) order."""
    subs = []
    s = mask
    while True:
        subs.append(s)
        if s == 0:
            break
        s = (s - 1) & mask
    subs.sort(key=lambda m: (bin(m).count("1"), m))
    return subs


def _closed(searcher, region, s):
    return all(
        not searcher.in_mask[i] & region & ~s
        for i in range(len(searcher.order))
        if s >> i & 1
    )


def _closed_brute_force(searcher, region):
    return [s for s in _subsets_ascending(region) if s and _closed(searcher, region, s)]


def test_closed_subsets_match_brute_force_on_census():
    for g in triangle_free_graphs(6):
        for o in acyclic_orientations(g):
            searcher = _Searcher(o)
            for region in [searcher.full] + [searcher.full & ~(1 << i) for i in range(len(o))]:
                got = list(searcher._closed_subsets(region))
                assert got == _closed_brute_force(searcher, region)


@st.composite
def dag_regions(draw):
    """A random DAG on v0..v{n-1}, arcs following a drawn vertex ranking,
    and a region of it as a mask."""
    n = draw(st.integers(min_value=1, max_value=9))
    rank = draw(st.permutations(range(n)))
    pairs = list(combinations(range(n), 2))
    chosen = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    arcs = [(f"v{rank[i]}", f"v{rank[j]}") for (i, j), c in zip(pairs, chosen) if c]
    region = draw(st.integers(min_value=0, max_value=(1 << n) - 1))
    return OrientedGraph([f"v{i}" for i in range(n)], arcs), region


@settings(max_examples=150, deadline=None)
@given(dag_regions())
def test_closed_subsets_match_brute_force_on_dags(case):
    g, region = case
    searcher = _Searcher(g)
    assert list(searcher._closed_subsets(region)) == _closed_brute_force(searcher, region)


def test_rank_is_position_in_subset_order():
    for region in (0, 0b1, 0b101101, 0b111111, 0b1000010010001, (1 << 10) - 1):
        for position, s in enumerate(_subsets_ascending(region)):
            assert _rank(region, s) == position


class _BruteForceSearcher(_Searcher):
    """The search trying every subset of the region in (popcount, mask)
    order and counting each one."""

    def _search(self, region, depth, chains):
        if region == 0:
            return EMPTY if not chains else None
        if depth <= 0:
            return None
        for s in _subsets_ascending(region):
            self.stats["subsets"] += 1
            if s and _closed(self, region, s):
                candidate = self._try_base(region, depth, chains, s)
                if candidate is not None:
                    return candidate
        return None


def _census_orientations():
    for g in triangle_free_graphs(6):
        yield from derivable_orientations(g)


def _derived_graphs(count=100):
    for seed in range(count):
        yield derive(random_derivation(random.Random(seed), 14))


def test_search_and_subset_count_match_brute_force():
    feedback = derivable_orientations(gen_figure("feedback"))
    for g in [*_census_orientations(), *_derived_graphs(40), *feedback]:
        fast, slow = _Searcher(g), _BruteForceSearcher(g)
        for depth in range(len(g) + 1):
            found = fast.search(fast.full, depth, frozenset())
            expected = slow.search(slow.full, depth, frozenset())
            assert (found is None) == (expected is None)
            if found is not None:
                assert serialize_sequential(found) == serialize_sequential(expected)
        assert fast.stats["subsets"] == slow.stats["subsets"]
        assert fast.stats["bases"] <= fast.stats["subsets"]


def _nobility_whole_graph(g):
    """Least depth at which the search over all of g succeeds."""
    searcher = exact_searcher(g)
    if searcher is None:
        return None
    for k in range(len(g) + 1):
        if searcher.search(searcher.full, k, frozenset()) is not None:
            return k
    return None


def test_nobility_by_components_matches_whole_graph_search():
    graphs = [*in_forests(6), *_census_orientations(), *_derived_graphs()]
    for g in graphs:
        assert nobility_oriented(g, budget=len(g)) == _nobility_whole_graph(g)
