"""Seeded inputs for the workloads, generated here rather than imported from
`verify`, so a cleanup of the verification suite cannot change a workload.

Every generator takes its randomness from `rng(*labels)`, a stream keyed by
the workload seed and the labels, so one seed always gives the same inputs.
"""
from __future__ import annotations

import hashlib
import os
import random

from retraction_lab import files
from retraction_lab.graphs import DiGraph, Graph


def derive(*parts) -> int:
    material = "\x1f".join(str(p) for p in parts).encode()
    return int.from_bytes(hashlib.sha256(material).digest()[:8], "big")


def rng(*parts) -> random.Random:
    return random.Random(derive(*parts))


# -- fixtures -----------------------------------------------------------------


def load_fixtures(root: str) -> dict[str, object]:
    """Parse every checked-in fixture: graphs by file stem, plus the listed
    instance as `p3_center_pinned` -> (instance, target)."""
    fdir = os.path.join(root, "fixtures")
    out: dict[str, object] = {}
    for name in sorted(os.listdir(fdir)):
        path = os.path.join(fdir, name)
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        stem = name.rsplit(".", 1)[0]
        if name.endswith(".hg"):
            out[stem] = files.parse_graph(text)
        elif name.endswith(".inst"):
            out[stem] = files.parse_instance(text, base_dir=fdir)
    return out


# -- pattern shapes -----------------------------------------------------------


def path(n: int, prefix: str = "p") -> Graph:
    vs = [f"{prefix}{i:02d}" for i in range(n)]
    return Graph(vs, list(zip(vs, vs[1:])))


def cycle(n: int, prefix: str = "c") -> Graph:
    vs = [f"{prefix}{i:02d}" for i in range(n)]
    return Graph(vs, list(zip(vs, vs[1:])) + [(vs[-1], vs[0])])


def grid(rows: int, cols: int) -> Graph:
    name = lambda r, c: f"v{r}_{c}"  # noqa: E731
    edges = [(name(r, c), name(r, c + 1)) for r in range(rows) for c in range(cols - 1)]
    edges += [(name(r, c), name(r + 1, c)) for r in range(rows - 1) for c in range(cols)]
    return Graph([name(r, c) for r in range(rows) for c in range(cols)], edges)


def spider(legs: tuple[int, ...]) -> Graph:
    """A centre with one path of each given length hanging off it."""
    edges = []
    for i, length in enumerate(legs):
        prev = "hub"
        for j in range(length):
            cur = f"l{i}_{j}"
            edges.append((prev, cur))
            prev = cur
    return Graph([], edges)


def gnp(r: random.Random, n: int, p: float, prefix: str = "g") -> Graph:
    """G(n, p), the shape of the estimator battery's corpus."""
    vs = [f"{prefix}{i}" for i in range(n)]
    edges = [(vs[a], vs[b]) for a in range(n) for b in range(a + 1, n) if r.random() < p]
    return Graph(vs, edges)


def gnm(r: random.Random, n: int, m: int, prefix: str = "s") -> Graph:
    """Sparse random graph with exactly m edges."""
    vs = [f"{prefix}{i}" for i in range(n)]
    pairs = [(vs[a], vs[b]) for a in range(n) for b in range(a + 1, n)]
    return Graph(vs, r.sample(pairs, m))


def random_tree(r: random.Random, n: int, prefix: str = "t") -> Graph:
    vs = [f"{prefix}{i}" for i in range(n)]
    return Graph(vs, [(vs[i], vs[r.randrange(i)]) for i in range(1, n)])


def relabel(r: random.Random, g: Graph, prefix: str = "x") -> Graph:
    """Isomorphic copy under seeded vertex names."""
    names = [f"{prefix}{i:02d}" for i in range(len(g))]
    r.shuffle(names)
    return g.relabel(dict(zip(g.vertices, names)))


def random_digraph(r: random.Random, n: int, m: int) -> DiGraph:
    """Loopless digraph with exactly m arcs."""
    vs = [f"d{i}" for i in range(n)]
    return DiGraph(vs, r.sample([(a, b) for a in vs for b in vs if a != b], m))


def girth_at_least_5(h: Graph) -> bool:
    """No loop-free cycle of length 3 or 4 (checked by brute force)."""
    adj = {v: h.neighbors(v) - {v} for v in h.vertices}
    for v in h.vertices:
        for a in adj[v]:
            for b in adj[v]:
                if a < b and (b in adj[a] or (adj[a] & adj[b]) - {v}):
                    return False
    return True


def girth5_component(r: random.Random) -> Graph:
    """A connected graph of girth at least 5 with random loops, the shape of
    the classifier's Theorem 1 battery."""
    while True:
        n = r.randint(2, 8)
        vs = [f"v{i}" for i in range(n)]
        edges = [(v, v) for v in vs if r.random() < 0.5]
        edges += [(vs[a], vs[b]) for a in range(n) for b in range(a + 1, n) if r.random() < 0.3]
        h = Graph(vs, edges)
        if not girth_at_least_5(h):
            continue
        # keep the component of v0
        seen, frontier = {vs[0]}, [vs[0]]
        while frontier:
            v = frontier.pop()
            for w in h.neighbors(v):
                if w not in seen:
                    seen.add(w)
                    frontier.append(w)
        return h.induced(seen)


# -- lists --------------------------------------------------------------------


def random_lists(r: random.Random, pattern: Graph, target: Graph) -> dict[str, frozenset[str]]:
    """Half the vertices keep the full list, the rest a random non-empty one."""
    out = {}
    for v in pattern.vertices:
        if r.random() < 0.5:
            out[v] = frozenset(target.vertices)
        else:
            out[v] = frozenset(r.sample(target.vertices, r.randint(1, len(target.vertices))))
    return out


def retraction_lists(r: random.Random, pattern: Graph, target: Graph, pins: int) -> dict[str, frozenset[str]]:
    """`pins` vertices pinned to single target vertices, the rest full: a
    retraction-shaped instance."""
    out = {v: frozenset(target.vertices) for v in pattern.vertices}
    for v in r.sample(pattern.vertices, min(pins, len(pattern))):
        out[v] = frozenset((r.choice(target.vertices),))
    return out
