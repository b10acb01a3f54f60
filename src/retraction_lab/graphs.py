"""Undirected graphs with per-vertex loops, and the structural queries shared
by every other module.

Vertex identifiers are opaque strings and the canonical vertex order is
lexicographic.  Loops are ordinary edges {v, v}: they live in the adjacency
bitmasks and in a separate looped-vertex mask so loop tests are O(1).
Instances are immutable after construction; a Graph computes its hash and
its non-loop edge list on first use and keeps them.
"""
from __future__ import annotations

import math
from typing import Iterable, Iterator


def _bits(mask: int) -> Iterator[int]:
    """Iterate set-bit positions of ``mask`` in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class Graph:
    """Immutable undirected graph over string vertex ids, loops allowed."""

    __slots__ = ("vertices", "_index", "_adj", "_loops", "_hash", "_nl_edges")

    def __init__(self, vertices: Iterable[str] = (), edges: Iterable[tuple[str, str]] = ()):
        self._hash: int | None = None
        self._nl_edges: tuple[tuple[str, str], ...] | None = None
        edges = list(edges)
        vset = {self._check_id(v) for v in vertices}
        for u, v in edges:
            vset.add(self._check_id(u))
            vset.add(self._check_id(v))
        self.vertices: tuple[str, ...] = tuple(sorted(vset))
        self._index: dict[str, int] = {v: i for i, v in enumerate(self.vertices)}
        adj = [0] * len(self.vertices)
        loops = 0
        for u, v in edges:
            i, j = self._index[u], self._index[v]
            adj[i] |= 1 << j
            adj[j] |= 1 << i
            if i == j:
                loops |= 1 << i
        self._adj: tuple[int, ...] = tuple(adj)
        self._loops: int = loops

    @staticmethod
    def _check_id(v: object) -> str:
        if not isinstance(v, str) or not v:
            raise ValueError(f"vertex ids must be non-empty strings, got {v!r}")
        return v

    # -- basic queries ----------------------------------------------------

    def __len__(self) -> int:
        return len(self.vertices)

    def __contains__(self, v: str) -> bool:
        return v in self._index

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Graph)
            and self.vertices == other.vertices
            and self._adj == other._adj
        )

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.vertices, self._adj))
        return self._hash

    def __getstate__(self):
        # str hashes are salted per process, so a cached hash must not travel
        state = {name: getattr(self, name) for name in self.__slots__}
        state["_hash"] = None
        return None, state

    def __repr__(self) -> str:
        return f"Graph({len(self)} vertices, {self.edge_count()} edges)"

    def index(self, v: str) -> int:
        if v not in self._index:
            raise ValueError(f"unknown vertex {v!r}")
        return self._index[v]

    def adjacency_mask(self, v: str) -> int:
        return self._adj[self.index(v)]

    def loop_mask(self) -> int:
        return self._loops

    def has_edge(self, u: str, v: str) -> bool:
        return bool(self._adj[self.index(u)] >> self.index(v) & 1)

    def is_looped(self, v: str) -> bool:
        return bool(self._loops >> self.index(v) & 1)

    def neighbors(self, v: str) -> frozenset[str]:
        """Γ(v); a looped v is its own neighbor."""
        return self._vertex_set(self._adj[self.index(v)])

    def degree(self, v: str) -> int:
        """|Γ(v)|: a loop contributes one (the vertex itself)."""
        return self._adj[self.index(v)].bit_count()

    def _vertex_set(self, mask: int) -> frozenset[str]:
        vs = self.vertices
        out = []
        while mask:
            low = mask & -mask
            mask ^= low
            out.append(vs[low.bit_length() - 1])
        return frozenset(out)

    def looped_vertices(self) -> tuple[str, ...]:
        return tuple(self.vertices[i] for i in _bits(self._loops))

    def unlooped_vertices(self) -> tuple[str, ...]:
        full = (1 << len(self)) - 1
        return tuple(self.vertices[i] for i in _bits(full & ~self._loops))

    def is_irreflexive(self) -> bool:
        return self._loops == 0

    def edges(self) -> list[tuple[str, str]]:
        """All edges, loops included, as sorted pairs (u <= v), sorted."""
        vs = self.vertices
        out = []
        for i, a in enumerate(self._adj):
            v = vs[i]
            a = a >> i << i  # the neighbors j >= i
            while a:
                low = a & -a
                a ^= low
                out.append((v, vs[low.bit_length() - 1]))
        return out

    def non_loop_edges(self) -> list[tuple[str, str]]:
        """`edges()` without the loops, as a fresh list."""
        if self._nl_edges is None:
            self._nl_edges = tuple((u, v) for u, v in self.edges() if u != v)
        return list(self._nl_edges)

    def edge_count(self) -> int:
        """len(edges()): a non-loop edge is in two masks, a loop in one."""
        return (sum(map(int.bit_count, self._adj)) + self._loops.bit_count()) // 2

    # -- derived graphs ---------------------------------------------------

    def induced(self, keep: Iterable[str]) -> "Graph":
        keep = set(keep)
        for v in keep:
            self.index(v)
        edges = [
            (u, v)
            for u, v in self.edges()
            if u in keep and v in keep
        ]
        return Graph(keep, edges)

    def relabel(self, mapping: dict[str, str]) -> "Graph":
        """Rename vertices; ``mapping`` must be injective on V."""
        img = [mapping.get(v, v) for v in self.vertices]
        if len(set(img)) != len(img):
            raise ValueError("relabel mapping is not injective")
        ren = dict(zip(self.vertices, img))
        return Graph(img, [(ren[u], ren[v]) for u, v in self.edges()])


class DiGraph:
    """Immutable directed graph over string vertex ids; loops are (v, v) arcs."""

    __slots__ = ("vertices", "_index", "_out", "_in")

    def __init__(self, vertices: Iterable[str] = (), arcs: Iterable[tuple[str, str]] = ()):
        arcs = list(arcs)
        vset = {Graph._check_id(v) for v in vertices}
        for u, v in arcs:
            vset.add(Graph._check_id(u))
            vset.add(Graph._check_id(v))
        self.vertices: tuple[str, ...] = tuple(sorted(vset))
        self._index: dict[str, int] = {v: i for i, v in enumerate(self.vertices)}
        out = [0] * len(self.vertices)
        inn = [0] * len(self.vertices)
        for u, v in arcs:
            i, j = self._index[u], self._index[v]
            out[i] |= 1 << j
            inn[j] |= 1 << i
        self._out: tuple[int, ...] = tuple(out)
        self._in: tuple[int, ...] = tuple(inn)

    def __len__(self) -> int:
        return len(self.vertices)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, DiGraph)
            and self.vertices == other.vertices
            and self._out == other._out
        )

    def __hash__(self) -> int:
        return hash((self.vertices, self._out))

    def __repr__(self) -> str:
        return f"DiGraph({len(self)} vertices, {sum(m.bit_count() for m in self._out)} arcs)"

    def index(self, v: str) -> int:
        if v not in self._index:
            raise ValueError(f"unknown vertex {v!r}")
        return self._index[v]

    def has_arc(self, u: str, v: str) -> bool:
        return bool(self._out[self.index(u)] >> self.index(v) & 1)

    def arcs(self) -> list[tuple[str, str]]:
        vs = self.vertices
        out = []
        for i, a in enumerate(self._out):
            v = vs[i]
            while a:
                low = a & -a
                a ^= low
                out.append((v, vs[low.bit_length() - 1]))
        return out


# -- structural queries ----------------------------------------------------


def girth(h: Graph) -> float:
    """Length of a shortest cycle (>= 3 distinct vertices); loops are not
    cycles; math.inf for acyclic graphs.

    Per-root BFS: for each root, any non-tree edge between explored vertices
    closes a cycle of length dist[u] + dist[v] + 1; the minimum of these over
    all roots is the girth (cross-checked against exhaustive enumeration in
    the reference module).
    """
    n = len(h)
    best = math.inf
    adj = [h._adj[i] & ~(1 << i) for i in range(n)]  # drop loops
    for root in range(n):
        dist = [-1] * n
        parent = [-1] * n
        dist[root] = 0
        frontier = [root]
        while frontier:
            nxt = []
            for u in frontier:
                for w in _bits(adj[u]):
                    if dist[w] == -1:
                        dist[w] = dist[u] + 1
                        parent[w] = u
                        nxt.append(w)
                    elif w != parent[u] and parent[w] != u:
                        cand = dist[u] + dist[w] + 1
                        if cand < best:
                            best = cand
            frontier = nxt
    return best


def neighborhoods(h: Graph, u: str) -> tuple[frozenset[str], frozenset[str]]:
    """(Γ(u), Γ²(u)): distance-1 and distance-2 neighborhoods."""
    gamma = h.adjacency_mask(u)
    gamma2 = 0
    for i in _bits(gamma):
        gamma2 |= h._adj[i]
    return h._vertex_set(gamma), h._vertex_set(gamma2)


def common_neighbors(h: Graph, us: Iterable[str]) -> frozenset[str]:
    """Γ(U) = intersection of the Γ(u); U must be non-empty."""
    us = list(us)
    if not us:
        raise ValueError("common_neighbors requires a non-empty vertex set")
    mask = (1 << len(h)) - 1
    for u in us:
        mask &= h.adjacency_mask(u)
    return h._vertex_set(mask)


def neighbor_union(h: Graph, vs: Iterable[str]) -> frozenset[str]:
    """Φ(S) = union of the Γ(v)."""
    mask = 0
    for v in vs:
        mask |= h.adjacency_mask(v)
    return h._vertex_set(mask)


def connected_components(h: Graph) -> list[Graph]:
    """Components as graphs, ordered by their smallest vertex id."""
    adj, vs = h._adj, h.vertices
    full = (1 << len(h)) - 1
    rest = full
    comps = []
    while rest:
        comp = frontier = rest & -rest
        while frontier:
            nxt = 0
            while frontier:
                low = frontier & -frontier
                frontier ^= low
                nxt |= adj[low.bit_length() - 1]
            frontier = nxt & ~comp
            comp |= frontier
        if comp == full:
            return [h]  # connected; graphs are immutable, so h is its own component
        rest &= ~comp
        # a component is closed under adjacency: its vertices' edges are all
        # inside it, so there is no need to scan the edges of all of h
        names = []
        edges = []
        while comp:
            low = comp & -comp
            comp ^= low
            i = low.bit_length() - 1
            u = vs[i]
            names.append(u)
            a = adj[i] >> i << i  # the neighbors j >= i
            while a:
                lo = a & -a
                a ^= lo
                edges.append((u, vs[lo.bit_length() - 1]))
        comps.append(Graph(names, edges))
    return comps


def is_connected(h: Graph) -> bool:
    return len(h) <= 1 or len(connected_components(h)) == 1
