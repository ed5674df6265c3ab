"""Top-sets, chandelier predicates, hole analysis, star cutsets and the
in-star decomposition of oriented graphs.

A derived graph's top-set is the set of kept vertices that are alone on
their root branch; it induces an in-forest whose sinks are the pivots
and whose sources are the antennas.  Cutset and decomposition routines
work on arbitrary (oriented) graphs; on derived graphs the trichotomy
`chandelier / degree <= 1 / full in-star cutset` never fails.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ValidationError
from .graphs import Graph, OrientedGraph, is_hole, underlying
from .trees import Derivation, check_derivation_valid, derive


@dataclass(frozen=True)
class TopSetReport:
    top_set: frozenset
    top_ancestor: dict
    pivots: frozenset
    antennas: frozenset


def top_set(d: Derivation) -> TopSetReport:
    """Top-set report of a derivation: the kept vertices with no kept
    strict ancestor, the map sending each kept vertex to the top-set
    vertex on its branch, and the sinks/sources of the induced graph."""
    check_derivation_valid(d)
    t = d.tree
    ancestor = {}
    for v in sorted(d.kept):
        top = v
        for a in t.ancestors(v):
            if a in d.kept:
                top = a
        ancestor[v] = top
    s = frozenset(ancestor.values())
    g = derive(d)
    inside = g.induced_subgraph(s)
    return TopSetReport(
        top_set=s,
        top_ancestor=ancestor,
        pivots=frozenset(inside.sinks()),
        antennas=frozenset(inside.sources()),
    )


def check_top_ancestor_dichotomy(d: Derivation, top_ancestor=None):
    """First arc uv violating the top-ancestor dichotomy, or None.

    For every arc uv with top-ancestors u', v', either u'=v' with
    u'!=u and v'!=v, or u=u' and uv' is also an arc.  On a valid
    derivation no violation exists; passing an inconsistent
    `top_ancestor` map exercises the checker itself.
    """
    if top_ancestor is None:
        top_ancestor = top_set(d).top_ancestor
    g = derive(d)
    for u, v in sorted(g.arcs):
        tu, tv = top_ancestor[u], top_ancestor[v]
        if tu == tv and tu != u and tv != v:
            continue
        if tu == u and g.has_arc(u, tv):
            continue
        return (u, v)
    return None


def is_in_forest(g: OrientedGraph) -> bool:
    """Disjoint union of trees with every edge oriented toward a root."""
    if any(len(g.out_neighbors(v)) > 1 for v in g.vertices):
        return False
    return len(g.edges) == len(g.vertices) - len(g.components())


def is_in_tree(g: OrientedGraph) -> bool:
    return len(g.vertices) >= 1 and g.is_connected() and is_in_forest(g)


def in_tree_leaves(g: OrientedGraph) -> frozenset:
    """Sources with exactly one out-neighbor; excludes an isolated root."""
    return frozenset(
        v
        for v in g.vertices
        if not g.in_neighbors(v) and len(g.out_neighbors(v)) == 1
    )


def is_oriented_chandelier(g: OrientedGraph):
    """Witness (pivot, bottom) if g is an in-tree with >= 2 leaves plus a
    vertex receiving an arc from every leaf; None otherwise.

    The pivot is the added vertex, the bottom the in-tree's sink.  Ties
    (several valid pivots) break to the smallest label.
    """
    for p in sorted(g.vertices):
        if g.out_neighbors(p):
            continue
        rest = g.induced_subgraph(set(g.vertices) - {p})
        if not is_in_tree(rest):
            continue
        leaves = in_tree_leaves(rest)
        if len(leaves) >= 2 and g.in_neighbors(p) == leaves:
            bottom = next(v for v in rest.vertices if not rest.out_neighbors(v))
            return (p, bottom)
    return None


@dataclass(frozen=True)
class HoleAnalysis:
    pivot: str
    antennas: tuple
    bottom: str
    subordinate: frozenset


def hole_ends(has_arc, hole):
    """The hole's sources and its sinks (both hole arcs at the vertex
    leaving it, or both entering it), each list in hole order.
    `has_arc(u, v)` tells whether u -> v is an arc."""
    n = len(hole)
    sources, sinks = [], []
    for i, v in enumerate(hole):
        a, b = hole[i - 1], hole[(i + 1) % n]
        if has_arc(v, a) and has_arc(v, b):
            sources.append(v)
        elif has_arc(a, v) and has_arc(b, v):
            sinks.append(v)
    return sources, sinks


def chandelier_pivots(has_arc, hole):
    """The chandelier rule on a known hole: the sinks of the hole that
    receive an arc from each of its exactly two sources.

    Nonempty exactly when the hole is chandelier-oriented; a square has
    two candidates, longer holes at most one.  Only the arcs along the
    hole are read, so a partial orientation that fixes them suffices.
    """
    sources, sinks = hole_ends(has_arc, hole)
    if len(sources) != 2:
        return []
    return sorted(p for p in sinks if all(has_arc(s, p) for s in sources))


def chandelier_pivot_candidates(g: OrientedGraph, hole):
    """`chandelier_pivots` on a vertex sequence that must be a hole of g."""
    if not is_hole(g, hole):
        raise ValidationError(f"not a hole: {hole!r}")
    return chandelier_pivots(g.has_arc, hole)


def analyze_hole(g: OrientedGraph, hole):
    """Special vertices of a chandelier-oriented hole, None otherwise.

    A hole supports a derivation only when exactly two of its vertices
    are sources (the antennas) and some sink is adjacent to both (the
    pivot); the remaining sink is the bottom, and everything that is
    neither pivot nor antenna is subordinate.
    """
    candidates = chandelier_pivot_candidates(g, hole)
    if not candidates:
        return None
    pivot = candidates[0]
    sources, sinks = hole_ends(g.has_arc, hole)
    bottom = next(v for v in sinks if v != pivot)
    return HoleAnalysis(
        pivot=pivot,
        antennas=tuple(sorted(sources)),
        bottom=bottom,
        subordinate=frozenset(hole) - {pivot} - set(sources),
    )


def full_star_cutsets(g: Graph) -> list:
    """All (center, components) where deleting the closed neighborhood of
    the center leaves a disconnected graph.  On an oriented graph the
    closed in-neighborhood is deleted: a full in-star cutset."""
    around = g.in_neighbors if isinstance(g, OrientedGraph) else g.neighbors
    out = []
    for v in sorted(g.vertices):
        rest = g.induced_subgraph(set(g.vertices) - around(v) - {v})
        comps = rest.components()
        if len(comps) >= 2:
            out.append((v, comps))
    return out


@dataclass(frozen=True)
class DecompositionNode:
    kind: str  # leaf | chandelier | deg1 | cutset | failure
    vertices: tuple
    center: str | None
    children: tuple

    def find(self, kind: str):
        """All nodes of the given kind, preorder."""
        hits = [self] if self.kind == kind else []
        for child in self.children:
            hits.extend(child.find(kind))
        return hits


def decompose(g: OrientedGraph) -> DecompositionNode:
    """Reduction tree for the trichotomy: strip chandeliers and trivial
    graphs as leaves, peel degree-<=1 vertices, split on full in-star
    cutsets (smallest center), and flag anything else as a failure.

    A failure node certifies that g is not derivable; derived graphs
    always decompose cleanly.
    """
    verts = tuple(sorted(g.vertices))
    if len(verts) <= 1:
        return DecompositionNode("leaf", verts, None, ())
    witness = is_oriented_chandelier(g)
    if witness:
        return DecompositionNode("chandelier", verts, witness[0], ())
    for v in verts:
        if g.degree(v) <= 1:
            child = decompose(g.induced_subgraph(set(verts) - {v}))
            return DecompositionNode("deg1", verts, v, (child,))
    cutsets = full_star_cutsets(g)
    if cutsets:
        center, comps = cutsets[0]
        children = tuple(decompose(g.induced_subgraph(c)) for c in comps)
        return DecompositionNode("cutset", verts, center, children)
    return DecompositionNode("failure", verts, None, ())


def serialize_decomposition(root: DecompositionNode) -> str:
    """One `node` line per decomposition node, preorder ids."""
    lines = []
    counter = [0]

    def walk(node):
        nid = counter[0]
        counter[0] += 1
        child_ids = []
        parts = [f"node {nid}", f"kind={node.kind}"]
        if node.center is not None:
            parts.append(f"center={node.center}")
        parts.append("vertices=" + ",".join(node.vertices))
        slot = len(lines)
        lines.append(None)
        for child in node.children:
            child_ids.append(walk(child))
        if child_ids:
            parts.append("children=" + ",".join(str(c) for c in child_ids))
        lines[slot] = " ".join(parts)
        return nid

    walk(root)
    return "\n".join(lines) + "\n"


def is_path_graph(g: Graph) -> bool:
    if len(g.vertices) == 0:
        return False
    return (
        g.is_connected()
        and len(g.edges) == len(g.vertices) - 1
        and all(g.degree(v) <= 2 for v in g.vertices)
    )


def is_luxury_chandelier(g: Graph):
    """Witness pivot if g is a tree plus a vertex adjacent to all its
    leaves, where each leaf's tree neighbor has tree degree two."""
    for p in sorted(g.vertices):
        tree = g.induced_subgraph(set(g.vertices) - {p})
        if len(tree.vertices) == 0 or not is_path_like_tree(tree):
            continue
        leaves = {v for v in tree.vertices if tree.degree(v) == 1}
        if len(leaves) < 2 or g.neighbors(p) != leaves:
            continue
        if all(
            tree.degree(next(iter(tree.neighbors(leaf)))) == 2 for leaf in leaves
        ):
            return p
    return None


def is_path_like_tree(g: Graph) -> bool:
    return g.is_connected() and len(g.edges) == len(g.vertices) - 1


@dataclass(frozen=True)
class FilterResult:
    passes: bool
    witness: Graph | None


def chalopin_filter(g: Graph) -> FilterResult:
    """Necessary condition for membership: every connected piece reached
    by recursively deleting full-star-cutset neighborhoods must have a
    full star cutset, be a luxury chandelier, or fit inside a path on
    four vertices.  A piece with none of these properties is returned
    as a witness of non-membership."""
    u = underlying(g)
    for comp in u.components():
        witness = _filter_connected(u.induced_subgraph(comp))
        if witness is not None:
            return FilterResult(False, witness)
    return FilterResult(True, None)


def _filter_connected(h: Graph):
    if len(h.vertices) <= 1:
        return None
    if is_path_graph(h) and len(h.vertices) <= 4:
        return None
    if is_luxury_chandelier(h) is not None:
        return None
    cuts = full_star_cutsets(h)
    if not cuts:
        return h
    center, comps = cuts[0]
    for comp in comps:
        witness = _filter_connected(h.induced_subgraph(comp))
        if witness is not None:
            return witness
    return None
