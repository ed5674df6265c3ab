"""Instance collections backing the test suite: random trees and
derivations, exhaustive censuses of small in-forests and triangle-free
graphs, and a direct search over normalized trees that decides
membership without any of the layered machinery.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

from .graphs import Graph, OrientedGraph
from .trees import BurlingTree, Derivation, check_derivation, check_derivation_valid


def random_tree(rng, max_vertices: int = 14) -> BurlingTree:
    """Uniform-ish random Burling tree with 1..max_vertices vertices.

    Parents are drawn uniformly from the earlier vertices, one child per
    internal vertex becomes the last born, and each remaining vertex gets
    a random (possibly empty) branch below its parent's last born.
    """
    n = rng.randint(1, max_vertices)
    labels = [f"t{i}" for i in range(n)]
    parent = {}
    kids = {labels[0]: []}
    for i in range(1, n):
        p = labels[rng.randrange(i)]
        parent[labels[i]] = p
        kids[p].append(labels[i])
        kids[labels[i]] = []
    last_born = {v: ks[rng.randrange(len(ks))] for v, ks in kids.items() if ks}
    choose = {}
    for v in labels[1:]:
        if last_born[parent[v]] == v:
            continue
        if rng.random() < 0.25:
            continue
        path = []
        cur = last_born[parent[v]]
        while True:
            path.append(cur)
            ks = kids[cur]
            if not ks or rng.random() < 0.35:
                break
            cur = ks[rng.randrange(len(ks))]
        choose[v] = tuple(path)
    return BurlingTree(labels[0], parent, last_born, choose)


def random_derivation(rng, max_vertices: int = 14) -> Derivation:
    tree = random_tree(rng, max_vertices)
    keep = rng.uniform(0.4, 1.0)
    kept = frozenset(v for v in sorted(tree.vertices) if rng.random() < keep)
    return check_derivation_valid(Derivation(tree, kept))


@lru_cache(maxsize=None)
def _tree_shapes(n: int) -> tuple:
    """Unlabeled rooted trees on n vertices: each a sorted tuple of child shapes."""
    if n == 1:
        return ((),)
    return _forest_shapes(n - 1)


@lru_cache(maxsize=None)
def _forest_shapes(n: int) -> tuple:
    """Multisets of tree shapes with sizes summing to n, as sorted tuples."""
    if n == 0:
        return ((),)
    shapes = set()
    for k in range(1, n + 1):
        for tree in _tree_shapes(k):
            for rest in _forest_shapes(n - k):
                shapes.add(tuple(sorted(rest + (tree,))))
    return tuple(sorted(shapes))


def _shape_arcs(shape, root, counter, arcs):
    for child in shape:
        c = f"v{next(counter)}"
        arcs.append((c, root))
        _shape_arcs(child, c, counter, arcs)


def in_forests(max_vertices: int = 8) -> list:
    """One representative per isomorphism class of non-empty in-forests."""
    out = []
    for n in range(1, max_vertices + 1):
        for forest in _forest_shapes(n):
            counter = itertools.count()
            arcs = []
            for tree in forest:
                root = f"v{next(counter)}"
                _shape_arcs(tree, root, counter, arcs)
            out.append(OrientedGraph([f"v{i}" for i in range(n)], arcs))
    return out


def _canonical_edges(n: int, edges: frozenset) -> tuple:
    best = None
    for perm in itertools.permutations(range(n)):
        mapped = tuple(
            sorted(tuple(sorted((perm[a], perm[b]))) for a, b in edges)
        )
        if best is None or mapped < best:
            best = mapped
    return best


def triangle_free_graphs(max_vertices: int = 6) -> list:
    """One representative per isomorphism class, smallest first.

    Grown by vertex extension: every triangle-free graph minus a vertex
    is a smaller triangle-free graph, so extending each representative by
    one vertex with every stable neighborhood reaches every class.
    """
    out = [Graph([], [])]
    layer = [frozenset()]
    for n in range(1, max_vertices + 1):
        seen = set()
        grown = []
        new = n - 1
        for base in layer:
            for bits in range(1 << new):
                nb = [i for i in range(new) if bits >> i & 1]
                if any((a, b) in base for a, b in itertools.combinations(nb, 2)):
                    continue
                edges = base | {(a, new) for a in nb}
                key = _canonical_edges(n, frozenset(edges))
                if key in seen:
                    continue
                seen.add(key)
                grown.append(frozenset(edges))
        layer = grown
        for edges in grown:
            out.append(
                Graph(
                    [f"v{i}" for i in range(n)],
                    [(f"v{a}", f"v{b}") for a, b in sorted(edges)],
                )
            )
    return out


def acyclic_orientations(g: Graph):
    """Every acyclic orientation of g, in a fixed order: by the bitmask
    whose bit i reverses the i-th edge in sorted order, ascending.

    Edges are oriented from the last to the first, so an arc that closes
    a directed cycle prunes every orientation extending it unbuilt.
    """
    edges = sorted(g.edges)
    verts = sorted(g.vertices)
    outs = {v: set() for v in verts}
    arcs = [None] * len(edges)

    def reaches(a, b):
        seen = {a}
        stack = [a]
        while stack:
            x = stack.pop()
            if x == b:
                return True
            for y in outs[x] - seen:
                seen.add(y)
                stack.append(y)
        return False

    def place(i):
        if i < 0:
            yield OrientedGraph(verts, arcs)
            return
        u, v = edges[i]
        for a, b in ((u, v), (v, u)):
            if reaches(b, a):
                continue
            outs[a].add(b)
            arcs[i] = (a, b)
            yield from place(i - 1)
            outs[a].discard(b)

    yield from place(len(edges) - 1)


def derivable_by_tree_search(g: OrientedGraph, max_tree_vertices: int = 13):
    """Search all normalized derivations with at most the given number of
    tree vertices for one deriving g exactly; the witness or None.

    Kept vertices are placed one at a time, out-neighbors first, each as
    a fresh non-last-born child; shadow vertices appear only as last
    borns, matching normal form, so a vertex whose out-neighborhood is
    non-empty can only hang where its branch already exists, and fresh
    last-born chains are tried only for vertices choosing nothing.
    """
    verts = sorted(g.vertex_set)
    prefix = "_"
    while any(v.startswith(prefix) for v in verts):
        prefix += "_"
    root = prefix + "r"
    if not verts:
        return Derivation(BurlingTree(root), frozenset())
    outs = {v: frozenset(g.out_neighbors(v)) for v in verts}
    kept = frozenset(verts)
    seen = set()

    def branch_path(anchor, targets, parent, depth):
        deepest = max(targets, key=lambda t: (depth[t], t))
        path = [deepest]
        while path[-1] != anchor:
            up = parent.get(path[-1])
            if up is None:
                return None
            path.append(up)
        path.reverse()
        if {x for x in path if x in kept} != targets:
            return None
        return tuple(path)

    def rec(parent, last_born, choose, depth, placed):
        if len(placed) == len(verts):
            d = Derivation(BurlingTree(root, parent, last_born, choose), kept)
            return d if check_derivation(g, d) else None
        if len(parent) + 1 + len(verts) - len(placed) > max_tree_vertices:
            return None
        key = (
            tuple(sorted(parent.items())),
            tuple(sorted(last_born.items())),
            tuple(sorted(choose.items())),
        )
        if key in seen:
            return None
        seen.add(key)
        vertices = [root] + sorted(parent)
        for u in verts:
            if u in placed or not outs[u] <= placed:
                continue
            for x in vertices:
                if outs[u]:
                    anchor = last_born.get(x)
                    if anchor is None:
                        continue
                    path = branch_path(anchor, outs[u], parent, depth)
                    if path is None:
                        continue
                    found = rec(
                        {**parent, u: x},
                        last_born,
                        {**choose, u: path},
                        {**depth, u: depth[x] + 1},
                        placed | {u},
                    )
                    if found is not None:
                        return found
                    continue
                # empty choose: attach directly, or below a fresh chain of
                # last borns grown from a vertex that has none yet
                budget = max_tree_vertices - len(parent) - 1
                chains = [0] if x in last_born else range(budget)
                for extra in chains:
                    room = budget - extra - (1 + (0 if x in last_born else 1))
                    if room < len(verts) - len(placed) - 1:
                        break
                    parent2 = dict(parent)
                    last_born2 = dict(last_born)
                    depth2 = dict(depth)
                    tip = x
                    for _ in range(extra):
                        s = f"{prefix}s{len(parent2)}"
                        parent2[s] = tip
                        last_born2[tip] = s
                        depth2[s] = depth2[tip] + 1
                        tip = s
                    parent2[u] = tip
                    depth2[u] = depth2[tip] + 1
                    if tip not in last_born2:
                        s = f"{prefix}s{len(parent2)}"
                        parent2[s] = tip
                        last_born2[tip] = s
                        depth2[s] = depth2[tip] + 1
                    found = rec(parent2, last_born2, choose, depth2, placed | {u})
                    if found is not None:
                        return found
        return None

    return rec({}, {}, {}, {root: 0}, frozenset())


def burling_by_tree_search(g: Graph, max_tree_vertices: int = 13):
    """First acyclic orientation derivable within the tree budget, as a
    (orientation, derivation) pair; None when none is."""
    for oriented in acyclic_orientations(g):
        found = derivable_by_tree_search(oriented, max_tree_vertices)
        if found is not None:
            return oriented, found
    return None
