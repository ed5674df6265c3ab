"""Layered decompositions of oriented graphs and nobility computation.

A graph derivable from a tree with at most k kept vertices per branch
can equivalently be peeled into layers: an in-forest base, one
sub-decomposition per base vertex, and for each non-sink base vertex a
"link", a chain threading the sub-decomposition of its out-neighbor.
`find_sequential` searches those decompositions exhaustively, which
makes it an exact recognizer for derivability; nobility is the least
depth at which the search succeeds, minimized over orientations for
non-oriented input.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb

from .errors import BudgetExceededError, ValidationError
from .graphs import Graph, OrientedGraph
from .structure import chandelier_pivots, is_in_forest
from .trees import BurlingTree, Derivation, check_derivation_valid, derive

EXACT_BUDGET_DEFAULT = 12


@dataclass(frozen=True)
class SequentialDecomposition:
    """base: an in-forest; children: one decomposition per base vertex;
    links: for each non-sink base vertex, the chain of extra out-neighbors
    drawn from its base out-neighbor's decomposition."""

    base: OrientedGraph = field(default_factory=OrientedGraph)
    children: dict = field(default_factory=dict)
    links: dict = field(default_factory=dict)

    @property
    def depth(self) -> int:
        if not self.base.vertices:
            return 0
        return 1 + max((self.children[v].depth for v in self.base.vertices), default=0)

    @property
    def vertex_set(self) -> frozenset:
        out = set(self.base.vertices)
        for child in self.children.values():
            out |= child.vertex_set
        return frozenset(out)


EMPTY = SequentialDecomposition()


def _base_out(sd: SequentialDecomposition, u):
    outs = sd.base.out_neighbors(u)
    return next(iter(outs)) if outs else None


def is_chain(sd: SequentialDecomposition, rest) -> bool:
    """True iff `rest` is a chain of the decomposition: empty, or exactly
    one element in the base whose removal leaves a chain of that
    element's sub-decomposition."""
    rest = frozenset(rest)
    if not rest:
        return True
    heads = rest & sd.base.vertex_set
    if len(heads) != 1:
        return False
    (w,) = heads
    return is_chain(sd.children[w], rest - {w})


def validate_decomposition(sd: SequentialDecomposition) -> list:
    """Violation strings; empty when the decomposition is well formed."""
    problems = []
    if not is_in_forest(sd.base):
        problems.append("base is not an in-forest")
    base_vs = sd.base.vertex_set
    if set(sd.children) != set(base_vs):
        problems.append("children keys differ from base vertices")
        return problems
    seen = set(base_vs)
    for v in sorted(base_vs):
        child = sd.children[v]
        problems.extend(f"under {v}: {p}" for p in validate_decomposition(child))
        overlap = child.vertex_set & seen
        if overlap:
            problems.append(f"vertex sets overlap at {sorted(overlap)}")
        seen |= child.vertex_set
    non_sinks = {u for u in base_vs if sd.base.out_neighbors(u)}
    if set(sd.links) != non_sinks:
        problems.append("links keys differ from non-sink base vertices")
        return problems
    for u in sorted(non_sinks):
        v = _base_out(sd, u)
        link = frozenset(sd.links[u])
        if not link <= sd.children[v].vertex_set:
            problems.append(f"link of {u} leaves the block of {v}")
        elif not is_chain(sd.children[v], link):
            problems.append(f"link of {u} is not a chain under {v}")
    return problems


def realized_graph(sd: SequentialDecomposition) -> OrientedGraph:
    """The oriented graph the decomposition describes."""
    vertices = sorted(sd.vertex_set)
    arcs = set(sd.base.arcs)
    for v in sd.base.vertices:
        arcs |= set(realized_graph(sd.children[v]).arcs)
    for u, link in sd.links.items():
        arcs |= {(u, w) for w in link}
    return OrientedGraph(vertices, sorted(arcs))


def realizes(g: OrientedGraph, sd: SequentialDecomposition) -> bool:
    """True iff sd is well formed and reconstructs exactly g."""
    if validate_decomposition(sd):
        return False
    return realized_graph(sd) == g


class _Searcher:
    """Backtracking search over layered decompositions, on bitmasks.

    A base has no arc into it from the rest of its region, so candidate
    bases are the non-empty subsets of the region closed under in-region
    predecessors, generated smallest-first in (popcount, mask) order.
    Vertices outside the base split into weak components whose owner
    (the base vertex whose block absorbs them) is forced by link arcs
    and by incoming chains.  Components nothing points at are
    independent subproblems, attached to the smallest base vertex.
    Memoized on (region, depth, chains).

    `stats["subsets"]` adds up, over the searched regions, the position
    reached in the (popcount, mask) order of all subsets of the region:
    the accepted base's rank plus one, or every subset when none is
    accepted.  `stats["bases"]` counts the bases actually tried.
    """

    def __init__(self, g: OrientedGraph):
        self.order = sorted(g.vertices)
        self.index = {v: i for i, v in enumerate(self.order)}
        n = len(self.order)
        self.out_mask = [0] * n
        self.in_mask = [0] * n
        self.adj_mask = [0] * n
        for u, v in g.arcs:
            iu, iv = self.index[u], self.index[v]
            self.out_mask[iu] |= 1 << iv
            self.in_mask[iv] |= 1 << iu
            self.adj_mask[iu] |= 1 << iv
            self.adj_mask[iv] |= 1 << iu
        self.full = (1 << n) - 1
        self.memo = {}
        self.stats = {"subsets": 0, "calls": 0, "bases": 0}

    def vertices_of(self, mask):
        return [self.order[i] for i in _bits(mask)]

    def _subgraph(self, mask) -> OrientedGraph:
        vs = self.vertices_of(mask)
        arcs = []
        for i in _bits(mask):
            for j in _bits(self.out_mask[i] & mask):
                arcs.append((self.order[i], self.order[j]))
        return OrientedGraph(vs, arcs)

    def _is_in_forest(self, s) -> bool:
        # out-degree <= 1 everywhere makes underlying cycles directed ones
        for i in _bits(s):
            if _popcount(self.out_mask[i] & s) > 1:
                return False
        state = {}
        for start in _bits(s):
            if start in state:
                continue
            path = []
            i = start
            while True:
                mark = state.get(i)
                if mark == "done":
                    break
                if mark == "open":
                    return False
                state[i] = "open"
                path.append(i)
                nxt = self.out_mask[i] & s
                if not nxt:
                    break
                i = nxt.bit_length() - 1
            for j in path:
                state[j] = "done"
        return True

    def _components(self, mask):
        comps = []
        left = mask
        while left:
            seed = left & -left
            comp = seed
            frontier = seed
            while frontier:
                grown = 0
                for i in _bits(frontier):
                    grown |= self.adj_mask[i] & mask & ~comp
                comp |= grown
                frontier = grown
            comps.append(comp)
            left &= ~comp
        return comps

    def search(self, region, depth, chains):
        key = (region, depth, chains)
        if key in self.memo:
            return self.memo[key]
        self.stats["calls"] += 1
        result = self._search(region, depth, chains)
        self.memo[key] = result
        return result

    def _search(self, region, depth, chains):
        if region == 0:
            return EMPTY if not chains else None
        if depth <= 0:
            return None
        for s in self._closed_subsets(region):
            self.stats["bases"] += 1
            candidate = self._try_base(region, depth, chains, s)
            if candidate is not None:
                self.stats["subsets"] += _rank(region, s) + 1
                return candidate
        self.stats["subsets"] += 1 << _popcount(region)
        return None

    def _closed_subsets(self, region):
        """The non-empty subsets of region closed under in-region
        predecessors, in (popcount, mask) order, one size at a time: each
        one of size p + 1 is one of size p plus a vertex whose in-region
        predecessors all lie in it."""
        preds = {i: self.in_mask[i] & region for i in _bits(region)}
        level = [0]
        while level:
            grown = set()
            for s in level:
                for i in _bits(region & ~s):
                    if not preds[i] & ~s:
                        grown.add(s | 1 << i)
            level = sorted(grown)
            yield from level

    def _try_base(self, region, depth, chains, s):
        """The decomposition of region with base s, or None; s is closed
        under in-region predecessors."""
        rest = region & ~s
        if not self._is_in_forest(s):
            return None
        for i in _bits(s):
            if not self.out_mask[i] & s and self.out_mask[i] & region:
                return None  # base sinks must be sinks of the region
        for chain in chains:
            if _popcount(chain & s) != 1:
                return None

        comps = self._components(rest)
        comp_of = {}
        for comp in comps:
            for i in _bits(comp):
                comp_of[i] = comp
        owner = {}

        def force(comp, target) -> bool:
            if owner.setdefault(comp, target) != target:
                return False
            return True

        block_chains = {i: [] for i in _bits(s)}
        for i in _bits(s):
            out_in_s = self.out_mask[i] & s
            if not out_in_s:
                continue
            target = out_in_s.bit_length() - 1
            link = self.out_mask[i] & rest
            for j in _bits(link):
                if not force(comp_of[j], target):
                    return None
            if link:
                block_chains[target].append(link)
        for chain in chains:
            head = (chain & s).bit_length() - 1
            tail = chain & ~s
            for j in _bits(tail):
                if not force(comp_of[j], head):
                    return None
            if tail:
                block_chains[head].append(tail)

        blocks = {i: 0 for i in _bits(s)}
        free = []
        for comp in comps:
            target = owner.get(comp)
            if target is None:
                free.append(comp)
            else:
                blocks[target] |= comp

        free_parts = []
        for comp in free:
            solved = self.search(comp, depth - 1, frozenset())
            if solved is None:
                return None
            free_parts.append(solved)

        children = {}
        for i in sorted(_bits(s)):
            sub = self.search(blocks[i], depth - 1, frozenset(block_chains[i]))
            if sub is None:
                return None
            children[self.order[i]] = sub
        if free_parts:
            anchor = self.order[min(_bits(s))]
            children[anchor] = _merge([children[anchor]] + free_parts)

        links = {}
        for i in _bits(s):
            if self.out_mask[i] & s:
                links[self.order[i]] = frozenset(
                    self.vertices_of(self.out_mask[i] & rest)
                )
        return SequentialDecomposition(self._subgraph(s), children, links)


def _bits(mask):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask &= ~low


def _popcount(mask):
    return bin(mask).count("1")


def _rank(region, s):
    """Position of s among all subsets of region in (popcount, mask) order:
    the subsets of smaller size, then the colex rank of s among its size."""
    r = _popcount(region)
    rank = sum(comb(r, j) for j in range(_popcount(s)))
    taken = 0
    for c, i in enumerate(_bits(region)):
        if s >> i & 1:
            taken += 1
            rank += comb(c, taken)
    return rank


def _merge(parts):
    base_vs = []
    arcs = []
    children = {}
    links = {}
    for part in parts:
        base_vs.extend(part.base.vertices)
        arcs.extend(part.base.arcs)
        children.update(part.children)
        links.update(part.links)
    return SequentialDecomposition(
        OrientedGraph(sorted(base_vs), sorted(arcs)), children, links
    )


def exact_searcher(g: OrientedGraph):
    """The exact search over g's decompositions, or None when g fails the
    guard that rejects it without searching: a directed cycle, or a hole
    that is not chandelier-oriented."""
    if g.topological_order() is None:
        return None
    if not all(chandelier_pivots(g.has_arc, hole) for hole in g.holes):
        return None
    return _Searcher(g)


def find_sequential(g: OrientedGraph, k: int):
    """A decomposition of depth <= k realizing g, or None.

    The search is exact: None for k = |V(g)| means g is not derivable
    from any Burling tree.  Graphs that fail the `exact_searcher` guard
    are rejected without searching.
    """
    if k < 0:
        raise ValidationError("depth bound must be >= 0")
    searcher = exact_searcher(g)
    if searcher is None:
        return None
    return searcher.search(searcher.full, k, frozenset())


def seq_from_tree(d: Derivation) -> SequentialDecomposition:
    """Decomposition read off a derivation: the base is the graph induced
    on the top-set and each base vertex's block holds the kept vertices
    below it, recursively."""
    check_derivation_valid(d)
    g = derive(d)
    t = d.tree

    def build(pool):
        pool = set(pool)
        if not pool:
            return EMPTY
        top = {v for v in pool if not any(a in pool for a in t.ancestors(v))}
        base = g.induced_subgraph(top)
        children = {}
        for v in sorted(top):
            below = {w for w in pool if w != v and t.is_ancestor(v, w)}
            children[v] = build(below)
        links = {}
        for u in sorted(top):
            outs = base.out_neighbors(u)
            if outs:
                (v,) = outs
                links[u] = frozenset(g.out_neighbors(u)) - {v}
        return SequentialDecomposition(base, children, links)

    return build(d.kept)


class _TreeBuilder:
    def __init__(self, taken):
        self.parent = {}
        self.last_born = {}
        self.choose = {}
        self.taken = set(taken)
        self.counter = 0

    def fresh(self):
        while True:
            self.counter += 1
            label = f"_s{self.counter}"
            if label not in self.taken:
                self.taken.add(label)
                return label


def tree_from_seq(sd: SequentialDecomposition) -> Derivation:
    """Derivation reconstructed from a decomposition; its derived graph
    equals the realized graph and each branch keeps at most depth(sd)
    vertices.

    Base vertices hang off a shadow spine in topological order, child
    trees are glued below their base vertex as its last born, and each
    non-sink's choose list walks down to the deepest vertex of its
    {out-neighbor} + link chain.
    """
    problems = validate_decomposition(sd)
    if problems:
        raise ValidationError("; ".join(problems))
    b = _TreeBuilder(sd.vertex_set)
    root = b.fresh()
    _build_level(sd, b, root)
    tree = BurlingTree(root, b.parent, b.last_born, {v: tuple(ws) for v, ws in b.choose.items()})
    return check_derivation_valid(Derivation(tree, sd.vertex_set))


def _topo_base(base: OrientedGraph) -> list:
    order = []
    placed = set()
    pending = set(base.vertices)
    while pending:
        ready = sorted(
            v for v in pending if base.in_neighbors(v) <= placed
        )
        order.append(ready[0])
        placed.add(ready[0])
        pending.discard(ready[0])
    return order


def _build_level(sd: SequentialDecomposition, b: _TreeBuilder, root):
    spine = [root]
    slots = {}
    for v in _topo_base(sd.base):
        nxt = b.fresh()
        b.parent[v] = spine[-1]
        b.parent[nxt] = spine[-1]
        b.last_born[spine[-1]] = nxt
        slots[v] = len(spine)  # choose lists for v start at this spine shadow
        spine.append(nxt)
    for v in sorted(sd.base.vertices):
        child = sd.children[v]
        if child.vertex_set:
            sub_root = b.fresh()
            b.parent[sub_root] = v
            b.last_born[v] = sub_root
            _build_level(child, b, sub_root)
    depth = {root: 0}

    def depth_of(x):
        if x not in depth:
            depth[x] = depth_of(b.parent[x]) + 1
        return depth[x]

    for u in sorted(sd.base.vertices):
        outs = sd.base.out_neighbors(u)
        if not outs:
            continue
        (v,) = outs
        targets = {v} | set(sd.links[u])
        deepest = max(targets, key=depth_of)
        walk = [deepest]
        while walk[-1] != spine[slots[u]]:
            walk.append(b.parent[walk[-1]])
        b.choose[u] = walk[::-1]


def nobility_oriented(g: OrientedGraph, budget: int = EXACT_BUDGET_DEFAULT):
    """Smallest decomposition depth realizing g, or None when g is not
    derivable from any Burling tree; graphs that fail the
    `exact_searcher` guard are None without searching.  Each weak
    component is searched on its own, and g's nobility is the largest of
    theirs."""
    if len(g.vertices) > budget:
        raise BudgetExceededError(
            f"exact search limited to {budget} vertices, got {len(g.vertices)}"
        )
    searcher = exact_searcher(g)
    if searcher is None:
        return None
    # a disconnected graph's least depth is the largest over its weak
    # components, and a search that succeeds at depth k succeeds above it
    k = 0
    for comp in searcher._components(searcher.full):
        while searcher.search(comp, k, frozenset()) is None:
            if k >= _popcount(comp):
                return None
            k += 1
    return k


def derivable_orientations(g: Graph):
    """All orientations of g that survive the cheap derivability tests:
    no directed cycle, stable out-neighborhoods, and the `exact_searcher`
    hole guard, applied to each hole as soon as its last edge is placed.
    Yields deterministically by edge order."""
    edges = sorted(g.edges)
    edge_pos = {e: i for i, e in enumerate(edges)}
    closed_at = {}  # edge position -> holes whose last edge it is
    for hole in g.holes:
        around = zip(hole, hole[1:] + hole[:1])
        last = max(edge_pos[min(u, v), max(u, v)] for u, v in around)
        closed_at.setdefault(last, []).append(hole)
    arcs = {}

    def creates_cycle(u, v):
        # arc u -> v closes a cycle iff v already reaches u
        seen = {v}
        stack = [v]
        while stack:
            x = stack.pop()
            if x == u:
                return True
            for y in arcs.get(x, ()):
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        return False

    def stable_out(u, v):
        return all(not g.has_edge(v, w) for w in arcs.get(u, ()))

    def has_arc(u, v):
        return v in arcs.get(u, ())

    def place(i):
        if i == len(edges):
            flat = [(u, v) for u, outs in arcs.items() for v in outs]
            yield OrientedGraph(sorted(g.vertices), sorted(flat))
            return
        a, b = edges[i]
        for u, v in ((a, b), (b, a)):
            if creates_cycle(u, v) or not stable_out(u, v):
                continue
            arcs.setdefault(u, set()).add(v)
            if all(chandelier_pivots(has_arc, hole) for hole in closed_at.get(i, ())):
                yield from place(i + 1)
            arcs[u].discard(v)

    yield from place(0)


def nobility(g: Graph, budget: int = EXACT_BUDGET_DEFAULT):
    """Minimum nobility over all orientations of g, or None when no
    orientation is derivable."""
    if isinstance(g, OrientedGraph):
        return nobility_oriented(g, budget)
    if len(g.vertices) > budget:
        raise BudgetExceededError(
            f"exact search limited to {budget} vertices, got {len(g.vertices)}"
        )
    if not g.vertices:
        return 0
    best = None
    for oriented in derivable_orientations(g):
        k = nobility_oriented(oriented, budget)
        if k is not None and (best is None or k < best):
            best = k
            if best <= 1:
                break
    return best


def serialize_sequential(sd: SequentialDecomposition, indent: int = 0) -> str:
    """Nested plain-text rendering: base vertices and arcs, links, then
    one indented block per non-empty child."""
    pad = "  " * indent
    if not sd.base.vertices:
        return f"{pad}empty\n"
    lines = [pad + "base " + " ".join(sorted(sd.base.vertices))]
    for u, v in sorted(sd.base.arcs):
        lines.append(f"{pad}arc {u} {v}")
    for u in sorted(sd.links):
        link = " ".join(sorted(sd.links[u]))
        lines.append(f"{pad}link {u}: {link}".rstrip())
    text = "\n".join(lines) + "\n"
    for v in sorted(sd.base.vertices):
        child = sd.children[v]
        if child.vertex_set:
            text += f"{pad}child {v}\n" + serialize_sequential(child, indent + 1)
    return text
