"""Hardness-gadget constructions and their desk-scale accounting: Dirichlet
approximation, the multiterminal-cut reduction instance with its exact
bookkeeping, the large-cut reduction instance built from vertex gadgets J,
and the neighborhood-pinning construction.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product

from .classifier import induced_j3_embeddings, is_square_free
from .exact import count_blocked
from .fixedgraphs import build_hk, j_gadget_parts
from .graphs import Graph, connected_components, is_connected
from .homtypes import enumerate_maximal_types, j_matchings, symmetric_partner, type_of_assignment
from .instances import Block, BlockedInstance, Coupling, ListedInstance, expand_blocked


# -- Dirichlet approximation -------------------------------------------------


def _as_fraction(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def dirichlet_approx(lambdas, n: int) -> tuple[list[int], int]:
    """Smallest r <= n with positive integers p_i such that
    |r*lambda_i - p_i| <= 1/n^(1/d); returns (p, r).

    The search prefers a strictly-smaller-than-bound solution and falls back
    to the boundary.  Comparisons are exact over integers: with
    lambda_i = a_i/b_i, |r*a_i - p_i*b_i|^d * n vs b_i^d, so no root is
    ever taken.
    """
    lams = [_as_fraction(x) for x in lambdas]
    if not lams or any(x <= 0 for x in lams):
        raise ValueError("lambdas must be positive and non-empty")
    if n < 1:
        raise ValueError("n must be a positive integer")
    d = len(lams)
    fracs = [(lam.numerator, lam.denominator, lam.denominator**d) for lam in lams]
    boundary: tuple[list[int], int] | None = None
    for r in range(1, n + 1):
        ps = []
        strict = True
        for a, b, bd in fracs:
            # the nearest positive integer to r*a/b, ties rounded up
            p = max(1, (2 * r * a + b) // (2 * b))
            dev = abs(r * a - p * b) ** d * n
            if dev > bd:
                break
            strict = strict and dev < bd
            ps.append(p)
        else:
            if strict:
                return ps, r
            if boundary is None:
                boundary = (ps, r)
    if boundary is not None:
        return boundary
    raise ValueError("no qualifying (p, r) with positive p; lambdas too small for this n")


def dirichlet_for_error(lambdas, err_bound: Fraction, r_max: int) -> tuple[list[int], int]:
    """Smallest r <= r_max with positive p_i and |r*lambda_i - p_i| <= err_bound
    (over integers: |r*a_i - p_i*b_i| * e_den <= e_num * b_i)."""
    err_bound = _as_fraction(err_bound)
    e_num, e_den = err_bound.numerator, err_bound.denominator
    fracs = [(lam.numerator, lam.denominator) for lam in map(_as_fraction, lambdas)]
    for r in range(1, r_max + 1):
        ps = []
        for a, b in fracs:
            p = max(1, (2 * r * a + b) // (2 * b))
            if abs(r * a - p * b) * e_den > e_num * b:
                break
            ps.append(p)
        else:
            return ps, r
    raise ValueError(f"no r <= {r_max} achieves error {err_bound}")


# -- multiterminal cuts -------------------------------------------------------


def _components_after_removal(g: Graph, removed: frozenset[frozenset[str]]) -> list[frozenset[str]]:
    left = [
        (u, v) for u, v in g.non_loop_edges() if frozenset((u, v)) not in removed
    ]
    return [frozenset(c.vertices) for c in connected_components(Graph(g.vertices, left))]


def is_multiterminal_cut(g: Graph, a: str, b: str, c: str, edges) -> bool:
    removed = frozenset(frozenset(e) for e in edges)
    comps = _components_after_removal(g, removed)
    homes = [next(i for i, comp in enumerate(comps) if t in comp) for t in (a, b, c)]
    return len(set(homes)) == 3


def count_multiterminal_cuts_bruteforce(g: Graph, a: str, b: str, c: str, budget: int) -> int:
    """Number of size-`budget` edge sets disconnecting the three terminals
    pairwise (exhaustive; |E| <= 20)."""
    edges = g.non_loop_edges()
    if len(edges) > 20:
        raise ValueError("brute force bounded to 20 edges")
    return sum(
        1 for sel in combinations(edges, budget) if is_multiterminal_cut(g, a, b, c, sel)
    )


def min_multiterminal_cut(g: Graph, a: str, b: str, c: str) -> int | None:
    edges = g.non_loop_edges()
    for size in range(len(edges) + 1):
        for sel in combinations(edges, size):
            if is_multiterminal_cut(g, a, b, c, sel):
                return size
    return None


def find_J3_labels(h: Graph) -> dict[str, str]:
    """A concrete induced embedding {w, x0, x1, y0, y1, z0, z1} -> V(h);
    deterministically the first in the lexicographic generation order."""
    for label in induced_j3_embeddings(h):
        return label
    raise ValueError("graph has no induced J3")


@dataclass(frozen=True)
class CutReductionPlan:
    """Everything the multiterminal-cut estimator needs: the base instance,
    the gadget sizes from the Dirichlet step, and the blocked instance."""

    base: Graph
    terminals: tuple[str, str, str]
    budget: int
    target: Graph
    labels: tuple[tuple[str, str], ...]  # J3 slot -> target vertex
    delta_prime: Fraction
    s: int
    r: int
    s_alpha: int
    s_beta: int
    s_gamma: int
    blocked: BlockedInstance

    @property
    def zstar(self) -> int:
        e = len(self.base.non_loop_edges())
        return 2 ** (self.s * self.r * (e - self.budget))

    def label_map(self) -> dict[str, str]:
        return dict(self.labels)


def _edge_names(g: Graph) -> list[tuple[str, tuple[str, str]]]:
    return [(f"e{i}", e) for i, e in enumerate(sorted(g.non_loop_edges()))]


# the cut gadget sizes come from the smallest Dirichlet r up to this bound
CUT_R_MAX = 10**6


def build_cut_instance(
    g: Graph,
    alpha: str,
    beta: str,
    gamma: str,
    budget: int,
    h: Graph,
    *,
    delta_prime,
) -> CutReductionPlan:
    """The retraction instance of the multiterminal-cut reduction, in blocked
    form: per base edge {u, v} three blocks of sizes s_alpha, s_beta,
    s_gamma, each joined to u, v and its terminal; a pinned hub adjacent to
    all base vertices; terminals pinned to the J3 arms.

    delta_prime is the Dirichlet error budget.  The gadget sizes come from
    the smallest r <= CUT_R_MAX with |r*log_{d}(2^s) - p| <= delta_prime/n^2
    for the three terminal degrees d.
    """
    if not is_connected(g):
        raise ValueError("base graph must be connected")
    if not g.is_irreflexive():
        raise ValueError("base graph must be irreflexive")
    terminals = (alpha, beta, gamma)
    if len(set(terminals)) != 3:
        raise ValueError("terminals must be three distinct vertices")
    for t in terminals:
        g.index(t)
    if not is_square_free(h):
        raise ValueError("target must be square-free")
    labels = find_J3_labels(h)
    delta_prime = _as_fraction(delta_prime)
    if delta_prime <= 0:
        raise ValueError("delta_prime must be positive")
    n = len(g)
    edges = g.non_loop_edges()
    if len(edges) <= 20:
        mmc = min_multiterminal_cut(g, alpha, beta, gamma)
        if mmc is None or mmc < budget:
            raise ValueError(
                f"instance promise violated: minimum multiterminal cut is {mmc}, budget {budget}"
            )
    q = len(h)
    s = 2 + len(edges) + math.ceil(math.log2(q)) * n
    degs = [h.degree(labels[slot]) for slot in ("x0", "y0", "z0")]
    lams = [Fraction(s) / Fraction(math.log2(d)) for d in degs]
    err = delta_prime / n**2
    (p1, p2, p3), r = dirichlet_for_error(lams, err, CUT_R_MAX)

    hub = "omega"
    vblock = {v: f"v:{v}" for v in g.vertices}
    blocks = [Block(hub, 1)] + [Block(vblock[v], 1) for v in g.vertices]
    couplings = []
    for v in g.vertices:
        couplings.append(Coupling(hub, vblock[v], "cb"))
    pins = [
        (hub, labels["w"]),
        (vblock[alpha], labels["x0"]),
        (vblock[beta], labels["y0"]),
        (vblock[gamma], labels["z0"]),
    ]
    for ename, (u, v) in _edge_names(g):
        for tvert, size in ((alpha, p1), (beta, p2), (gamma, p3)):
            bname = f"{ename}:{tvert}"
            blocks.append(Block(bname, size))
            couplings.append(Coupling(vblock[u], bname, "apex"))
            couplings.append(Coupling(vblock[v], bname, "apex"))
            couplings.append(Coupling(vblock[tvert], bname, "apex"))
    blocked = BlockedInstance(tuple(blocks), tuple(couplings), tuple(pins), h.vertices)
    return CutReductionPlan(
        base=g,
        terminals=terminals,
        budget=budget,
        target=h,
        labels=tuple(sorted(labels.items())),
        delta_prime=delta_prime,
        s=s,
        r=r,
        s_alpha=p1,
        s_beta=p2,
        s_gamma=p3,
        blocked=blocked,
    )


@dataclass(frozen=True)
class CutRecord:
    edges: tuple[tuple[str, str], ...]
    kappa: int
    psi_size: int
    xyz_sizes: tuple[tuple[int, int, int], ...]  # per psi: |X|, |Y|, |Z|
    z_contribution: int  # sum over psi of d_x^(p1 |X|) d_y^(p2 |Y|) d_z^(p3 |Z|)


@dataclass(frozen=True)
class CutAccounting:
    records: tuple[CutRecord, ...]
    t_count: int  # number of budget-size multiterminal cuts
    z_value: int  # T Z* + sum over larger cuts of the 2^(sr ...) terms
    z_by_edge_factors: int  # sum over all cuts of the exact per-psi products

    def window(self, zstar: int) -> tuple[Fraction, Fraction]:
        return Fraction(self.z_value, zstar), Fraction(self.t_count)


def cut_accounting(plan: CutReductionPlan) -> CutAccounting:
    """Exact enumeration of every multiterminal cut, its component-colorings
    psi and their monochromatic-edge profile; yields both the idealized Z
    (powers of 2^(sr)) and the exact edge-factor sum, which coincide when
    the terminal degrees are powers of two."""
    g = plan.base
    a, b, c = plan.terminals
    labels = plan.label_map()
    h = plan.target
    gw = sorted(h.neighbors(labels["w"]))
    x0, y0, z0 = labels["x0"], labels["y0"], labels["z0"]
    dx, dy, dz = h.degree(x0), h.degree(y0), h.degree(z0)
    p1, p2, p3 = plan.s_alpha, plan.s_beta, plan.s_gamma
    edges = sorted(g.non_loop_edges())
    records = []
    t_count = 0
    z_small = 0
    z_large = 0
    z_exact = 0
    for size in range(len(edges) + 1):
        for sel in combinations(edges, size):
            if not is_multiterminal_cut(g, a, b, c, sel):
                continue
            removed = frozenset(frozenset(e) for e in sel)
            comps = _components_after_removal(g, removed)
            kappa = len(comps)
            fixed: dict[int, str] = {}
            for term, col in ((a, x0), (b, y0), (c, z0)):
                i = next(j for j, comp in enumerate(comps) if term in comp)
                fixed[i] = col
            free = [i for i in range(kappa) if i not in fixed]
            xyz = []
            zc = 0
            for colors in product(gw, repeat=len(free)):
                coloring = dict(fixed)
                coloring.update(dict(zip(free, colors)))
                vcol = {}
                for i, comp in enumerate(comps):
                    for v in comp:
                        vcol[v] = coloring[i]
                bichromatic = {
                    frozenset((u, v)) for u, v in edges if vcol[u] != vcol[v]
                }
                if bichromatic != removed:
                    continue
                x = sum(1 for u, v in edges if vcol[u] == vcol[v] == x0)
                y = sum(1 for u, v in edges if vcol[u] == vcol[v] == y0)
                z = sum(1 for u, v in edges if vcol[u] == vcol[v] == z0)
                xyz.append((x, y, z))
                zc += dx ** (p1 * x) * dy ** (p2 * y) * dz ** (p3 * z)
            records.append(CutRecord(tuple(sel), kappa, len(xyz), tuple(xyz), zc))
            z_exact += zc
            if size == plan.budget:
                t_count += 1
            elif size > plan.budget:
                z_large += sum(
                    2 ** (plan.s * plan.r * (x + y + z)) for x, y, z in xyz
                )
    z_value = t_count * plan.zstar + z_large
    return CutAccounting(tuple(records), t_count, z_value, z_exact)


def estimate_multiterminal_cuts(plan: CutReductionPlan, count, epsilon: float) -> int:
    """One call count(blocked, target, epsilon/42), then the nearest integer
    to Qhat/Z* (floor agrees inside the [T, T + 1/4] window).  `count` is an
    oracle's count function, e.g. `approx.ExactOracle().count`."""
    qhat = count(plan.blocked, plan.target, epsilon / 42)
    ratio = Fraction(qhat) / plan.zstar
    return math.floor(ratio + Fraction(1, 2))


# kept beside ExactOracle().count because perfbench/workloads.py passes it by
# name, and the benchmark's files do not change with the library
def exact_blocked_oracle(blocked: BlockedInstance, target: Graph, eps: float) -> int:
    """The exact retraction oracle over blocked instances; ignores eps."""
    return count_blocked(blocked, target)


# -- large cuts ---------------------------------------------------------------


def choose_pq(k: int) -> tuple[int, int]:
    """Lexicographically least (p, q) with p, q >= 32 + 12k and q/p strictly
    inside (log_4(4+k), log_{9/4}(4+k)); comparisons are exact integer power
    tests."""
    if k < 1:
        raise ValueError("k >= 1")
    lo = 32 + 12 * k
    p = lo
    while True:
        q = max(lo, math.floor(p * math.log(4 + k, 4)))
        while not 4**q > (4 + k) ** p:
            q += 1
        if 9**q < 4**q * (4 + k) ** p:
            return p, q
        p += 1


@dataclass(frozen=True)
class LargeCutPlan:
    base: Graph
    k_target: int  # the cut size K
    k: int  # H_k parameter
    p: int
    q: int
    t: int
    s: int
    blocked: BlockedInstance
    target: Graph


def build_largecut_instance(
    g: Graph,
    cut_size: int,
    k: int,
    p: int | None = None,
    q: int | None = None,
    t: int | None = None,
    s: int | None = None,
) -> LargeCutPlan:
    """The large-cut reduction instance: one J(p, q, t) vertex gadget per base
    vertex (apexes shared), and per base edge two size-s blocks joined
    crosswise to the C-blocks of the endpoint gadgets and to the hub beta.

    Default parameters: (p, q) from choose_pq(k), t = n^4, s = n + 1; all
    overridable for desk scale.
    """
    if not is_connected(g):
        raise ValueError("base graph must be connected")
    if not g.is_irreflexive():
        raise ValueError("base graph must be irreflexive")
    n = len(g)
    if p is None or q is None:
        if (p is None) != (q is None):
            raise ValueError("override p and q together")
        p, q = choose_pq(k)
    t = n**4 if t is None else t
    s = n + 1 if s is None else s
    if min(p, q, t, s) < 1:
        raise ValueError("parameters must be positive")
    alpha, alpha2, beta = "alpha", "alpha'", "beta"
    blocks = [Block(alpha, 1), Block(alpha2, 1), Block(beta, 1)]
    couplings = []
    for v in g.vertices:
        vb, vc = j_gadget_parts(p, q, t, f"{v}.", alpha, alpha2, beta)
        blocks += vb
        couplings += vc
    for ename, (u, v) in _edge_names(g):
        se, sep = f"{ename}:S", f"{ename}:S'"
        blocks += [Block(se, s), Block(sep, s)]
        couplings += [
            Coupling(f"{u}.C", se, "cb"),
            Coupling(f"{u}.C'", sep, "cb"),
            Coupling(f"{v}.C", sep, "cb"),
            Coupling(f"{v}.C'", se, "cb"),
            Coupling(beta, se, "apex"),
            Coupling(beta, sep, "apex"),
        ]
    pins = ((alpha, "g"), (alpha2, "g"), (beta, "b"))
    target = build_hk(k)
    blocked = BlockedInstance(tuple(blocks), tuple(couplings), pins, target.vertices)
    return LargeCutPlan(g, cut_size, k, p, q, t, s, blocked, target)


def count_large_cuts_bruteforce(g: Graph, cut_size: int) -> int:
    """Number of size-`cut_size` cuts (unordered bipartitions); |V| <= 8."""
    n = len(g)
    if n > 8:
        raise ValueError("brute force bounded to 8 vertices")
    if n == 0:
        return 1 if cut_size == 0 else 0
    verts = g.vertices
    edges = g.non_loop_edges()
    count = 0
    anchor = verts[0]
    rest = verts[1:]
    for mask in range(1 << len(rest)):
        side = {anchor} | {v for i, v in enumerate(rest) if mask >> i & 1}
        size = sum(1 for u, v in edges if (u in side) != (v in side))
        if size == cut_size:
            count += 1
    return count


FULL_EXPANSION_GUARD = 20


def _edge_block_factor(plan: LargeCutPlan, anchors: frozenset[str]) -> int:
    """Choices for one size-s edge block whose expanded vertices are joined to
    beta (pinned b) and to gadget vertices realizing exactly `anchors`."""
    h = plan.target
    dom = set(h.neighbors("b"))
    for x in anchors:
        dom &= h.neighbors(x)
    return len(dom) ** plan.s


def full_hom_histogram(plan: LargeCutPlan) -> dict[int, int]:
    """Histogram cut-size -> number of full homomorphisms (every vertex
    gadget of type T4 or its symmetric partner).

    The enumeration is factored losslessly: the edge blocks are independent
    sets anchored to the C-blocks of the endpoint gadgets and to beta, so
    given per-gadget assignments their choices multiply; per-gadget
    assignments of a full type realize exactly that type's C/C' projections,
    so the factor depends on the type pair alone.  Per-gadget counts come
    from genuine enumeration (brute_count_by_type), not the closed form.
    """
    from itertools import product as iproduct

    from .homtypes import brute_count_by_type

    buckets = brute_count_by_type(plan.p, plan.q, plan.t, plan.k)
    types = dict(enumerate_maximal_types(plan.k))
    t4 = types["T4"]
    t4s = symmetric_partner(t4)
    n_by_side = (buckets.get(t4, 0), buckets.get(t4s, 0))
    proj = {0: t4.projections(), 1: t4s.projections()}
    verts = plan.base.vertices
    edges = plan.base.non_loop_edges()
    hist: dict[int, int] = {}
    for sides in iproduct((0, 1), repeat=len(verts)):
        side = dict(zip(verts, sides))
        weight = 1
        for b in sides:
            weight *= n_by_side[b]
        if weight == 0:
            continue
        for u, v in edges:
            cu, cpu = proj[side[u]][2], proj[side[u]][3]
            cv, cpv = proj[side[v]][2], proj[side[v]][3]
            weight *= _edge_block_factor(plan, cu | cpv)
            weight *= _edge_block_factor(plan, cpu | cv)
        cut = sum(1 for u, v in edges if side[u] != side[v])
        hist[cut] = hist.get(cut, 0) + weight
    return {k: v for k, v in hist.items() if v}


def full_hom_histogram_direct(plan: LargeCutPlan) -> dict[int, int]:
    """Reference implementation: walk every homomorphism of the expanded
    instance and extract per-gadget types; guarded to tiny plans."""
    from .exact import enumerate_homs

    if plan.blocked.expansion_size() > FULL_EXPANSION_GUARD:
        raise ValueError(
            f"plan expands to {plan.blocked.expansion_size()} vertices; "
            f"enumeration guard is {FULL_EXPANSION_GUARD}"
        )
    types = dict(enumerate_maximal_types(plan.k))
    t4 = types["T4"]
    t4s = symmetric_partner(t4)
    inst = expand_blocked(plan.blocked)
    hist: dict[int, int] = {}
    edges = plan.base.non_loop_edges()
    matchings = {v: j_matchings(plan.p, plan.q, plan.t, f"{v}.") for v in plan.base.vertices}
    for hom in enumerate_homs(inst, plan.target):
        side = {}
        full = True
        for v in plan.base.vertices:
            tv = type_of_assignment(hom, matchings[v])
            if tv == t4:
                side[v] = 0
            elif tv == t4s:
                side[v] = 1
            else:
                full = False
                break
        if not full:
            continue
        cut = sum(1 for u, v in edges if side[u] != side[v])
        hist[cut] = hist.get(cut, 0) + 1
    return hist


# -- neighborhood pinning -----------------------------------------------------


def pin_neighborhood_instance(g: Graph, h: Graph, u: str) -> ListedInstance:
    """The apex construction connecting hom(G, H[Gamma(u)]) to retraction
    counting: add a hub adjacent to every pattern vertex, pin it to u, leave
    everything else full."""
    h.index(u)
    if not g.is_irreflexive():
        raise ValueError("pattern must be irreflexive")
    hub = "apex"
    while hub in g:
        hub += "_"
    pattern = Graph(list(g.vertices) + [hub], list(g.non_loop_edges()) + [(hub, v) for v in g.vertices])
    return ListedInstance(pattern, {hub: frozenset((u,))}, h.vertices)
