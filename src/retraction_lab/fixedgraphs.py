"""The fixed graphs used by the classifier, the hardness gadgets and the type
machinery: the subdivided star J_q, the reflexive star WR_q, the 2-Wrench,
the target graphs H_k and H'_k, bristled reflexive paths, and the blocked
vertex gadget J(p, q, t).
"""
from __future__ import annotations

from functools import cache

from .graphs import Graph
from .instances import Block, BlockedInstance, Coupling


def build_jq(q: int) -> Graph:
    """Irreflexive q-leaf star with every edge subdivided.

    For q = 3 the vertices carry the standard labels
    w, x0, x1, y0, y1, z0, z1 (legs w-x0-x1 etc.).
    """
    if q < 3:
        raise ValueError("J_q needs q >= 3")
    if q == 3:
        edges = [
            ("w", "x0"), ("x0", "x1"),
            ("w", "y0"), ("y0", "y1"),
            ("w", "z0"), ("z0", "z1"),
        ]
        return Graph([], edges)
    edges = []
    for i in range(1, q + 1):
        edges.append(("w", f"m{i}"))
        edges.append((f"m{i}", f"t{i}"))
    return Graph([], edges)


def build_wr(q: int) -> Graph:
    """Reflexive star with q leaves; center is "c"."""
    if q < 1:
        raise ValueError("WR_q needs q >= 1")
    edges = [("c", "c")]
    for i in range(1, q + 1):
        leaf = f"l{i}"
        edges += [("c", leaf), (leaf, leaf)]
    return Graph([], edges)


def build_two_wrench() -> Graph:
    """Looped path r1-b-r2 with an unlooped pendant g on b."""
    return Graph(
        [],
        [
            ("r1", "b"), ("b", "r2"), ("b", "g"),
            ("r1", "r1"), ("b", "b"), ("r2", "r2"),
        ],
    )


@cache
def build_hk(k: int) -> Graph:
    """The (8+k)-vertex target of the distance-2 hardness analysis: looped
    w1, d-shaped tails on r1/r2, center path r1-b-r2, pendant g with leaves
    y1..yk, and complete joins between {w1,d1}, {w2,d2} and the y's.  Built
    once per k: a Graph is immutable.
    """
    if k < 1:
        raise ValueError("H_k needs k >= 1")
    ys = [f"y{i}" for i in range(1, k + 1)]
    looped = ["w1", "r1", "w2", "r2", "b"] + ys
    edges = [(v, v) for v in looped]
    edges += [
        ("w1", "r1"), ("w2", "r2"),
        ("d1", "r1"), ("d2", "r2"),
        ("r1", "b"), ("r2", "b"), ("b", "g"),
    ]
    edges += [("g", y) for y in ys]
    for a in ("w1", "d1"):
        for c in ("w2", "d2"):
            edges.append((a, c))
    for a in ("w1", "d1", "w2", "d2"):
        for y in ys:
            edges.append((a, y))
    return Graph([], edges)


def build_hk_prime(k: int) -> Graph:
    """The (4+k)-vertex subgraph witness: looped path r1-b-r2, unlooped g on
    b, unlooped leaves y1..yk on g.
    """
    if k < 1:
        raise ValueError("H'_k needs k >= 1")
    edges = [
        ("r1", "b"), ("b", "r2"), ("b", "g"),
        ("r1", "r1"), ("b", "b"), ("r2", "r2"),
    ]
    edges += [("g", f"y{i}") for i in range(1, k + 1)]
    return Graph([], edges)


def build_pbrp(q: int, s: set[int] | frozenset[int]) -> Graph:
    """Reflexive path c0..c_{q+1} with unlooped bristles g_i at positions
    i in s (s may be empty: a plain reflexive path).
    """
    if q < 1:
        raise ValueError("q must be positive")
    s = frozenset(s)
    if not s <= set(range(1, q + 1)):
        raise ValueError(f"s must be a subset of 1..{q}")
    cs = [f"c{i}" for i in range(q + 2)]
    edges = [(c, c) for c in cs]
    edges += [(cs[i], cs[i + 1]) for i in range(q + 1)]
    edges += [(cs[i], f"g{i}") for i in sorted(s)]
    return Graph([], edges)


def build_reflexive_path(n: int) -> Graph:
    if n < 1:
        raise ValueError("n must be positive")
    vs = [f"c{i}" for i in range(n)]
    edges = [(v, v) for v in vs]
    edges += [(vs[i], vs[i + 1]) for i in range(n - 1)]
    return Graph(vs, edges)


def build_reflexive_cycle(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycles need >= 3 vertices")
    vs = [f"c{i}" for i in range(n)]
    edges = [(v, v) for v in vs]
    edges += [(vs[i], vs[(i + 1) % n]) for i in range(n)]
    return Graph(vs, edges)


def build_cycle(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycles need >= 3 vertices")
    vs = [f"c{i}" for i in range(n)]
    return Graph(vs, [(vs[i], vs[(i + 1) % n]) for i in range(n)])


def build_path(n: int) -> Graph:
    if n < 1:
        raise ValueError("n must be positive")
    vs = [f"c{i}" for i in range(n)]
    return Graph(vs, [(vs[i], vs[i + 1]) for i in range(n - 1)])


def build_star(leaves: int) -> Graph:
    if leaves < 0:
        raise ValueError("leaves must be non-negative")
    return Graph(["c"], [("c", f"l{i}") for i in range(1, leaves + 1)])


J_BLOCK_NAMES = ("A", "B", "C", "C'", "B'", "A'")
# the apex blocks that every J(p, q, t) is wired to, and their pins: alpha
# and alpha' to g, beta to b, vertices of every H_k
J_APEXES = ("alpha", "alpha'", "beta")
J_APEX_PINS = tuple(zip(J_APEXES, ("g", "g", "b")))


def j_gadget_parts(p: int, q: int, t: int, prefix: str) -> tuple[list[Block], list[Coupling]]:
    """Blocks and couplings of one J(p, q, t) gadget wired to the apex blocks
    J_APEXES (the apex blocks themselves are not included)."""
    if min(p, q, t) < 1:
        raise ValueError("p, q, t must be positive")
    names = {n: prefix + n for n in J_BLOCK_NAMES}
    alpha, alpha2, beta = J_APEXES
    blocks = [
        Block(names["A"], p * t), Block(names["B"], p * t),
        Block(names["C"], q * t), Block(names["C'"], q * t),
        Block(names["B'"], p * t), Block(names["A'"], p * t),
    ]
    couplings = [
        Coupling(names["A"], names["B"], "pm"),
        Coupling(names["C"], names["C'"], "pm"),
        Coupling(names["A'"], names["B'"], "pm"),
        Coupling(names["B"], names["C"], "cb"),
        Coupling(names["B'"], names["C'"], "cb"),
        Coupling(alpha, names["A"], "apex"),
        Coupling(alpha2, names["A'"], "apex"),
        Coupling(beta, names["B"], "apex"),
        Coupling(beta, names["C"], "apex"),
        Coupling(beta, names["C'"], "apex"),
        Coupling(beta, names["B'"], "apex"),
    ]
    return blocks, couplings


def build_j_blocked(p: int, q: int, t: int, k: int = 1) -> BlockedInstance:
    """The vertex gadget J with parameters (p, q, t) in blocked form over
    H_k's vertex set, pinned for the H_k experiments: blocks A, B, B', A' of
    multiplicity p*t and C, C' of multiplicity q*t; matchings A-B, C-C',
    A'-B'; complete joins B-C and B'-C'; apexes alpha->A, alpha'->A',
    beta->B,C,C',B'; pins alpha, alpha' -> g and beta -> b (vertices of
    every H_k).
    """
    blocks, couplings = j_gadget_parts(p, q, t, "")
    blocks += [Block(apex, 1) for apex in J_APEXES]
    return BlockedInstance(tuple(blocks), tuple(couplings), J_APEX_PINS, build_hk(k).vertices)


def build_fixed_graph(kind: str, **params) -> Graph:
    """Dispatcher for the named fixed graphs: J_q(q), WR_q(q), 2-wrench,
    H_k(k), H'_k(k), PBRP(q, s)."""
    kind_l = kind.lower()

    def need(name: str):
        if params.get(name) is None:
            raise ValueError(f"fixed graph {kind!r} needs parameter {name!r}")
        return params[name]

    if kind_l in ("j_q", "jq"):
        return build_jq(need("q"))
    if kind_l in ("wr_q", "wr"):
        return build_wr(need("q"))
    if kind_l in ("2-wrench", "two-wrench", "two_wrench"):
        return build_two_wrench()
    if kind_l in ("h_k", "hk"):
        return build_hk(need("k"))
    if kind_l in ("h'_k", "hk_prime", "h'k"):
        return build_hk_prime(need("k"))
    if kind_l == "pbrp":
        return build_pbrp(need("q"), params.get("s", frozenset()))
    raise ValueError(f"unknown fixed graph kind {kind!r}")
