"""Graph values and the plain-text graph format.

Vertices are label tokens: non-empty strings without whitespace and without
'#', compared lexicographically.  Both graph kinds are immutable values;
equality ignores the presentation order of vertices (serialization is
canonical, so ``parse(serialize(g)) == g`` and re-serialization is
byte-identical).

Text format::

    # comment lines start with '#'
    undirected          (or: directed)
    vertex c            (declares an isolated vertex)
    a b                 (an edge; for directed graphs, the arc a -> b)

The first non-comment line must be exactly ``directed`` or ``undirected``.
Serialization emits vertex lines for isolated vertices (sorted), then edge
or arc lines (sorted), each with a single separating space.

An OrientedGraph is an orientation of a simple graph: loops and
two-vertex directed cycles (both uv and vu) are rejected.
"""

from __future__ import annotations

from functools import cached_property

from .errors import ParseError


def check_token(label: str) -> str:
    if not isinstance(label, str) or not label:
        raise ParseError(f"empty vertex label {label!r}")
    if "#" in label or any(c.isspace() for c in label):
        raise ParseError(f"invalid vertex label {label!r}")
    return label


def _dedup(labels) -> tuple:
    seen = {}
    for v in labels:
        seen.setdefault(check_token(v), None)
    return tuple(seen)


class Graph:
    """An undirected simple graph."""

    directed = False

    def __init__(self, vertices=(), edges=()):
        self.vertices = _dedup(vertices)
        vs = set(self.vertices)
        canon = set()
        for u, v in edges:
            check_token(u), check_token(v)
            if u == v:
                raise ParseError(f"loop at {u!r}")
            if u not in vs or v not in vs:
                raise ParseError(f"edge {u!r} {v!r} uses an undeclared vertex")
            canon.add((min(u, v), max(u, v)))
        self.edges = frozenset(canon)
        self._adj = {v: set() for v in self.vertices}
        for u, v in self.edges:
            self._adj[u].add(v)
            self._adj[v].add(u)

    @property
    def vertex_set(self) -> frozenset:
        return frozenset(self.vertices)

    def __eq__(self, other):
        return (
            isinstance(other, Graph)
            and not isinstance(other, OrientedGraph)
            and self.vertex_set == other.vertex_set
            and self.edges == other.edges
        )

    def __hash__(self):
        return hash((self.vertex_set, self.edges))

    def __repr__(self):
        return f"Graph({len(self.vertices)} vertices, {len(self.edges)} edges)"

    def __len__(self):
        return len(self.vertices)

    def has_edge(self, u, v) -> bool:
        return (min(u, v), max(u, v)) in self.edges

    def neighbors(self, v) -> frozenset:
        return frozenset(self._adj[v])

    def degree(self, v) -> int:
        return len(self._adj[v])

    def induced_subgraph(self, keep) -> "Graph":
        keep = set(keep)
        missing = keep - set(self.vertices)
        if missing:
            raise ParseError(f"unknown vertices {sorted(missing)}")
        return Graph(
            [v for v in self.vertices if v in keep],
            [e for e in self.edges if e[0] in keep and e[1] in keep],
        )

    def components(self) -> list:
        """Connected components as sorted vertex lists, ordered by smallest label."""
        seen = set()
        out = []
        for start in sorted(self.vertices):
            if start in seen:
                continue
            comp = {start}
            stack = [start]
            while stack:
                for w in self._adj[stack.pop()]:
                    if w not in comp:
                        comp.add(w)
                        stack.append(w)
            seen |= comp
            out.append(sorted(comp))
        return out

    def is_connected(self) -> bool:
        return len(self.components()) <= 1

    @cached_property
    def holes(self) -> tuple:
        """The holes of the graph (of its underlying graph when oriented),
        in `enumerate_holes` order; computed once per graph value."""
        return tuple(enumerate_holes(self))

    def find_triangle(self):
        for u, v in sorted(self.edges):
            common = self._adj[u] & self._adj[v]
            if common:
                return tuple(sorted((u, v, min(common))))
        return None


class OrientedGraph(Graph):
    """An orientation of a simple graph; at most one of uv, vu is an arc."""

    directed = True

    def __init__(self, vertices=(), arcs=()):
        arcs = [(check_token(u), check_token(v)) for u, v in arcs]
        seen = set()
        for u, v in arcs:
            if (v, u) in seen:
                raise ParseError(f"both directions between {u!r} and {v!r}")
            seen.add((u, v))
        super().__init__(vertices, arcs)
        self.arcs = frozenset(seen)
        self._out = {v: set() for v in self.vertices}
        self._in = {v: set() for v in self.vertices}
        for u, v in self.arcs:
            self._out[u].add(v)
            self._in[v].add(u)

    def __eq__(self, other):
        return (
            isinstance(other, OrientedGraph)
            and self.vertex_set == other.vertex_set
            and self.arcs == other.arcs
        )

    def __hash__(self):
        return hash((self.vertex_set, self.arcs))

    def __repr__(self):
        return f"OrientedGraph({len(self.vertices)} vertices, {len(self.arcs)} arcs)"

    def has_arc(self, u, v) -> bool:
        return (u, v) in self.arcs

    def out_neighbors(self, v) -> frozenset:
        return frozenset(self._out[v])

    def in_neighbors(self, v) -> frozenset:
        return frozenset(self._in[v])

    def sources(self) -> list:
        return sorted(v for v in self.vertices if not self._in[v])

    def sinks(self) -> list:
        return sorted(v for v in self.vertices if not self._out[v])

    def underlying(self) -> Graph:
        return Graph(self.vertices, self.arcs)

    def induced_subgraph(self, keep) -> "OrientedGraph":
        keep = set(keep)
        missing = keep - set(self.vertices)
        if missing:
            raise ParseError(f"unknown vertices {sorted(missing)}")
        return OrientedGraph(
            [v for v in self.vertices if v in keep],
            [a for a in self.arcs if a[0] in keep and a[1] in keep],
        )

    def topological_order(self):
        """A topological order of the arcs, or None if there is a directed cycle."""
        indeg = {v: len(self._in[v]) for v in self.vertices}
        ready = sorted(v for v in self.vertices if not indeg[v])
        order = []
        while ready:
            v = ready.pop()
            order.append(v)
            for w in sorted(self._out[v], reverse=True):
                indeg[w] -= 1
                if not indeg[w]:
                    ready.append(w)
            ready.sort(reverse=True)
        return order if len(order) == len(self.vertices) else None


def underlying(g: Graph) -> Graph:
    return g.underlying() if isinstance(g, OrientedGraph) else g


def parse_graph(text: str):
    """Parse the text format; returns Graph or OrientedGraph per the header."""
    directed = None
    vertices = []
    pairs = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if directed is None:
            if line not in ("directed", "undirected"):
                raise ParseError(
                    f"expected 'directed' or 'undirected', got {line!r}", lineno
                )
            directed = line == "directed"
            continue
        tokens = line.split()
        if tokens[0] == "vertex":
            if len(tokens) != 2:
                raise ParseError("'vertex' line needs exactly one label", lineno)
            vertices.append(tokens[1])
        elif len(tokens) == 2:
            u, v = tokens
            if u == v:
                raise ParseError(f"loop at {u!r}", lineno)
            if directed and (u, v) in pairs:
                raise ParseError(f"duplicate arc {u} {v}", lineno)
            if not directed and ((u, v) in pairs or (v, u) in pairs):
                raise ParseError(f"duplicate edge {u} {v}", lineno)
            vertices.extend((u, v))
            pairs.append((u, v))
        else:
            raise ParseError(f"expected two tokens, got {len(tokens)}", lineno)
    if directed is None:
        raise ParseError("missing 'directed'/'undirected' header")
    try:
        cls = OrientedGraph if directed else Graph
        return cls(vertices, pairs)
    except ParseError:
        raise
    except Exception as exc:  # pragma: no cover - defensive
        raise ParseError(str(exc))


def serialize_graph(g: Graph) -> str:
    lines = ["directed" if g.directed else "undirected"]
    for v in sorted(g.vertices):
        if not g._adj[v]:
            lines.append(f"vertex {v}")
    pairs = g.arcs if isinstance(g, OrientedGraph) else g.edges
    for u, v in sorted(pairs):
        lines.append(f"{u} {v}")
    return "\n".join(lines) + "\n"


def enumerate_holes(g: Graph) -> list:
    """All holes (chordless cycles of length >= 4) of the underlying graph.

    Each hole is reported once, as the tuple rotated to start at its
    smallest vertex, continuing toward the smaller of that vertex's two
    cycle neighbors.  The list is sorted by (length, labels).  The search
    is exponential in the worst case; `Graph.holes` keeps its result.
    """
    adj = {v: g.neighbors(v) for v in g.vertices}
    holes = []

    def extend(path, pathset, m):
        last = path[-1]
        for q in sorted(adj[last]):
            if q <= m or q in pathset:
                continue
            hits = adj[q] & pathset
            if m in hits:
                # closing the cycle: no chord to any interior vertex allowed
                if len(path) >= 3 and hits == {last, m} and q > path[1]:
                    holes.append(tuple(path) + (q,))
                continue
            if hits == {last}:
                path.append(q)
                pathset.add(q)
                extend(path, pathset, m)
                pathset.discard(q)
                path.pop()

    for m in sorted(g.vertices):
        for a in sorted(adj[m]):
            if a > m:
                extend([m, a], {m, a}, m)
    holes.sort(key=lambda h: (len(h), h))
    return holes


def is_hole(g: Graph, hole) -> bool:
    """Whether the vertex sequence is a hole of g (of its underlying graph
    when g is oriented): at least four distinct vertices of g, adjacent
    exactly when consecutive around the cycle."""
    n = len(hole)
    if n < 4 or len(set(hole)) != n or not set(hole) <= g.vertex_set:
        return False
    for i in range(n):
        for k in range(i + 1, n):
            consecutive = k - i == 1 or (i == 0 and k == n - 1)
            if g.has_edge(hole[i], hole[k]) != consecutive:
                return False
    return True
