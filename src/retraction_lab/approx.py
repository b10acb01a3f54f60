"""The Monte Carlo approximation stack: confidence powering, sampling via
self-partitioning, the coverage estimator for surjective homomorphisms and
compactions, and the padding translation from plain list-homomorphism
counting.

An oracle is an `ExactOracle` or a `NoisyOracle`; both count listed and
blocked instances, and only an `ExactOracle` is treated as exact.  Its counts
are exact integers, a noisy oracle's exact rationals; the estimator's output
Y is an exact rational.
"""
from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, permutations

from . import reference
from ._seeds import nprng, pyrng, pyrng_family
from .exact import count_blocked, count_compaction, count_list_hom, count_surjective, enumerate_homs
from .graphs import Graph
from .instances import BlockedInstance, ListedInstance

POWERING_TRIALS_PER_LOG = 72  # Chernoff: median of 8 ln(1/delta) quarter-fail
# trials already suffices; 72 is comfortable


# -- oracles -----------------------------------------------------------------


def _instance_key(inst: ListedInstance, target: Graph):
    # a ListedInstance keeps its lists in pattern-vertex order, so equal
    # instances give equal keys without a sort
    return (inst.pattern, tuple(inst.lists.items()), target)


class ExactOracle:
    """Retraction/list-homomorphism counting backed by the exact counter:
    `count_list_hom` for a ListedInstance, `count_blocked` for a
    BlockedInstance; ignores the precision parameter.  Memoises counts and
    pinning trees by instance, for as long as the oracle lives; `calls`
    counts the count queries actually made, so a draw that walks known nodes
    adds none."""

    def __init__(self):
        self.calls = 0
        self._cache: dict = {}
        self._trees: dict = {}

    def count(self, inst: ListedInstance | BlockedInstance, target: Graph, eps: float | None = None):
        self.calls += 1
        blocked = type(inst) is BlockedInstance
        # a BlockedInstance is a frozen dataclass, so it is its own key
        key = (inst, target) if blocked else _instance_key(inst, target)
        n = self._cache.get(key)
        if n is None:
            n = self._cache[key] = (count_blocked if blocked else count_list_hom)(inst, target)
        return n

    def pin_tree(self, inst: ListedInstance, target: Graph) -> "_PinTree":
        """The pinning tree of (inst, target), built on first use and kept."""
        key = _instance_key(inst, target)
        tree = self._trees.get(key)
        if tree is None:
            tree = self._trees[key] = _PinTree(self, inst, target, None, keep=True)
        return tree


class NoisyOracle:
    """An ExactOracle's count with a seeded multiplicative perturbation.

    With probability 1 - fail_prob the output is true * e^u for |u| < the
    requested precision (default eps0); with probability fail_prob it is
    pushed outside the window.  Outputs are exact Fractions.  Call k draws
    from `pyrng(seed, "noisy-call", k)`.
    """

    def __init__(self, eps0: float, fail_prob: float, seed: int):
        if not 0 < eps0 < 1 or not 0 <= fail_prob < 1:
            raise ValueError("need 0 < eps0 < 1 and 0 <= fail_prob < 1")
        self.eps0 = eps0
        self.fail_prob = fail_prob
        self.seed = seed
        self.calls = 0
        self._exact = ExactOracle()
        self._call_rng = pyrng_family(seed, "noisy-call")

    def count(self, inst: ListedInstance | BlockedInstance, target: Graph, eps: float | None = None):
        self.calls += 1
        true = self._exact.count(inst, target)
        if true == 0:
            return Fraction(0)
        eps_use = self.eps0 if eps is None else min(eps, self.eps0) if eps > 0 else self.eps0
        rng = self._call_rng(self.calls)
        if rng.random() < self.fail_prob:
            u = (1.5 + rng.random()) * eps_use * rng.choice((-1, 1))
        else:
            u = rng.uniform(-eps_use, eps_use) * 0.999
        num, den = math.exp(u).as_integer_ratio()
        return Fraction(true * num, den)


def powered_count(oracle, inst: ListedInstance, target: Graph, eps: float, delta: float):
    """Boost a quarter-failure oracle to failure probability delta by taking
    the median of independent calls at precision eps.  An ExactOracle is
    asked once."""
    if not 0 < eps < 1 or not 0 < delta < 1:
        raise ValueError("eps and delta must lie in (0, 1)")
    if delta >= 0.25 or type(oracle) is ExactOracle:
        # a deterministic oracle's median of identical answers is its one answer
        return oracle.count(inst, target, eps)
    m = math.ceil(POWERING_TRIALS_PER_LOG * math.log(1 / delta))
    # float() of a Fraction is correctly rounded, so monotone: the float
    # orders all but near-ties, and the exact value breaks those
    vals = [oracle.count(inst, target, eps) for _ in range(m)]
    vals.sort(key=lambda x: (float(x), x))
    return vals[m // 2]


# -- sampling ----------------------------------------------------------------


def _prefix_sums(weights) -> list[int]:
    """Running totals of non-negative rational weights, scaled by the least
    common denominator to integers, for `_draw`."""
    denom = 1
    for w in weights:
        if isinstance(w, Fraction):
            denom = denom * w.denominator // math.gcd(denom, w.denominator)
    acc, total = [], 0
    for w in weights:
        total += w.numerator * (denom // w.denominator)
        acc.append(total)
    return acc


def _draw(rng, acc: list[int]) -> int:
    """Exact categorical draw: index i with probability proportional to
    acc[i] - acc[i - 1].  One `randrange` over the total; a zero weight is
    never drawn."""
    if not acc or acc[-1] <= 0:
        raise ValueError("all weights vanish")
    return bisect_right(acc, rng.randrange(acc[-1]))


# candidates `sample_hom` draws before it gives up
MAX_RESAMPLES = 100


class _PinNode:
    """A node of a pinning tree: its instance, the prefix sums of its
    children's counts (built on the first visit), the children drawn so far
    (None where a child was never drawn), and at a leaf the assignment,
    stored once it has passed the edge check."""

    __slots__ = ("inst", "acc", "kids", "tau")

    def __init__(self, inst: ListedInstance):
        self.inst = inst
        self.acc = None
        self.kids = None
        self.tau = None


class _PinTree:
    """Self-reducible sampling of one instance: depth d pins the d-th
    multi-valued vertex, each value weighted by its oracle count.

    With keep=True (an ExactOracle's tree) the nodes persist across draws,
    so a draw asks the oracle only at nodes it visits for the first time.
    Otherwise every attempt starts from a fresh root, which makes exactly
    the calls of the plain walk, in the same order."""

    __slots__ = ("target", "eps", "keep", "choices", "edges", "root")

    def __init__(self, oracle, inst: ListedInstance, target: Graph, eps, keep: bool):
        if oracle.count(inst, target, eps) <= 0:
            raise ValueError("instance has no homomorphisms (oracle count is zero)")
        self.target = target
        self.eps = eps
        self.keep = keep
        self.choices = [(v, sorted(sv)) for v, sv in inst.lists.items() if len(sv) > 1]
        self.edges = inst.pattern.non_loop_edges()
        self.root = _PinNode(inst)

    def draw(self, oracle, rng) -> _PinNode:
        """A leaf whose assignment is a homomorphism, drawn by walking from
        the root; raises ValueError after MAX_RESAMPLES failed attempts."""
        target, eps = self.target, self.eps
        for _ in range(MAX_RESAMPLES):
            node = self.root if self.keep else _PinNode(self.root.inst)
            for v, values in self.choices:
                pins = None
                if node.acc is None:
                    pins = [node.inst.pin(v, s) for s in values]
                    node.acc = _prefix_sums([oracle.count(p, target, eps) for p in pins])
                    node.kids = [None] * len(values)
                if node.acc[-1] <= 0:
                    break  # a dead end: resample
                i = _draw(rng, node.acc)
                kid = node.kids[i]
                if kid is None:
                    # the undrawn pins are not kept; a later draw pins again
                    kid = node.kids[i] = _PinNode(pins[i] if pins else node.inst.pin(v, values[i]))
                node = kid
            else:
                if node.tau is None:
                    tau = {v: next(iter(sv)) for v, sv in node.inst.lists.items()}
                    if not all(target.has_edge(tau[u], tau[v]) for u, v in self.edges):
                        continue
                    node.tau = tau
                return node
        raise ValueError(f"no homomorphism found after {MAX_RESAMPLES} resamples")


def sample_hom(
    oracle,
    inst: ListedInstance,
    target: Graph,
    eps: float,
    rng=None,
    seed: int | None = None,
):
    """One homomorphism of (G, S), sampled by sequentially pinning each
    multi-valued vertex with probability proportional to oracle counts.
    Draws from `rng`, or from a stream derived from `seed` (default 0);
    giving both raises ValueError.  Returns a new dict.

    With an exact oracle the output is exactly uniform.  The fully pinned
    candidate is verified to be a homomorphism and resampled on failure
    (rejection correction for noisy oracles).

    A draw costs one `randrange` per multi-valued vertex.  With an
    ExactOracle it walks the oracle's pinning tree of the instance, so it
    asks the oracle only at nodes no earlier draw reached: a node's first
    visit asks once per value of its vertex and pins each, and later draws
    reuse the node's prefix sums.  Any other oracle is asked once for the
    instance per call and once per (multi-valued vertex, value) per attempt,
    since its answers may vary from call to call.
    """
    if rng is not None and seed is not None:
        raise ValueError("give sample_hom a seed or an rng, not both")
    if rng is None:
        rng = pyrng(seed if seed is not None else 0, "sample-hom")
    if type(oracle) is ExactOracle:
        tree = oracle.pin_tree(inst, target)
    else:
        tree = _PinTree(oracle, inst, target, eps, keep=False)
    return dict(tree.draw(oracle, rng).tau)


# -- the coverage estimator ---------------------------------------------------


def enumerate_T(inst: ListedInstance, target: Graph, mode: str):
    """The index set of the union: list-respecting witnesses (U, tau).

    surjective mode: |U| = |V(H)| and tau a surjective (hence bijective)
    homomorphism from G[U]; compaction mode: |U| <= |V(H)| + 2|E(H)| and tau
    a compaction from G[U].  Deterministic order.
    """
    if mode not in ("sur", "comp"):
        raise ValueError("mode must be 'sur' or 'comp'")
    pv = inst.pattern.vertices
    tv = target.vertices
    out: list[tuple[tuple[str, ...], dict[str, str]]] = []
    if mode == "sur":
        if len(pv) < len(tv):
            return out
        for us in combinations(pv, len(tv)):
            sub = inst.pattern.induced(us)
            for perm in permutations(tv):
                tau = dict(zip(us, perm))
                if any(tau[u] not in inst.lists[u] for u in us):
                    continue
                if all(target.has_edge(tau[a], tau[b]) for a, b in sub.non_loop_edges()):
                    out.append((us, tau))
        return out
    bound = min(len(pv), len(tv) + 2 * target.edge_count())
    nl_target = {frozenset(e) for e in target.non_loop_edges()}
    for size in range(len(tv), bound + 1):
        for us in combinations(pv, size):
            sub = inst.pattern.induced(us)
            sub_inst = ListedInstance(
                sub, {u: inst.lists[u] for u in us}, inst.target_vertices
            )
            for tau in enumerate_homs(sub_inst, target):
                if set(tau.values()) != set(tv):
                    continue
                realized = {
                    frozenset((tau[a], tau[b]))
                    for a, b in sub.non_loop_edges()
                    if tau[a] != tau[b]
                }
                if nl_target <= realized:
                    out.append((us, tau))
    return out


@dataclass(frozen=True)
class CoverageRun:
    """One run of the coverage estimator: the branch weights, sample budget,
    number of successes and the exact rational estimate."""

    mode: str
    t: int
    omegas: tuple
    omega: object  # int or Fraction
    m: int
    x_total: int
    y: Fraction
    seed: int
    epsilon: float
    delta: float
    sampler: str


def _first_occurrence(ts, i: int, sigma: dict) -> bool:
    """Whether sigma, drawn in branch i, extends no earlier witness."""
    return not any(all(sigma[u] == tau[u] for u in us) for us, tau in ts[:i])


# perfbench/trace.py wraps this name as the table layer of the `estimate`
# workload; nothing else calls it, and it can go once that layer is dropped
def coverage_tables(inst: ListedInstance, target: Graph, mode: str):
    """reference.coverage_partition over this instance's witnesses."""
    return reference.coverage_partition(inst, target, enumerate_T(inst, target, mode))


def algorithm_parameters(t: int, eps: float, delta: float) -> tuple[float, float, float, int]:
    """(eps', delta', delta'', m) exactly as in the coverage algorithm."""
    eps1 = eps / 12
    delta1 = delta / 2
    delta2 = delta1 / t
    m = math.ceil(6 * t * math.log(2 / delta1) / eps1**2)
    return eps1, delta1, delta2, m


def coverage_mc(
    inst: ListedInstance,
    target: Graph,
    mode: str,
    eps: float,
    delta: float,
    oracle,
    seed: int,
    force_jvv: bool = False,
) -> CoverageRun:
    """The Monte Carlo union estimator: pin each witness (U_i, tau_i), weigh
    the branches by powered oracle counts, sample m homomorphisms from the
    weighted disjoint union and count first-occurrence hits.

    With an ExactOracle the per-sample JVV walk collapses: a sample lands in
    branch i with probability omega_i / Omega, is uniform there, and is a
    first-occurrence hit with probability phat_i.  So the m samples hit
    independently with probability sum_i omega_i phat_i / Omega = |union| /
    Omega, and x_total is one Binomial(m, |union| / Omega) draw (Karp, Luby
    and Madras).  |union| is the exact surjective (sur) or compaction (comp)
    count, one call per run.  force_jvv runs the literal per-sample walk
    instead, which is also what every oracle other than an ExactOracle
    gets.  With an ExactOracle that walk draws from the oracle's pinning
    trees (see `sample_hom`): it looks up each witness's tree once per run
    and decides the first-occurrence verdict once per (witness index, leaf);
    other oracles get one `sample_hom` call per draw.
    """
    if not 0 < eps < 1 or not 0 < delta < 1:
        raise ValueError("eps and delta must lie in (0, 1)")
    ts = enumerate_T(inst, target, mode)
    t = len(ts)
    if t == 0:
        return CoverageRun(mode, 0, (), 0, 0, 0, Fraction(0), seed, eps, delta, "none")
    eps1, delta1, delta2, m = algorithm_parameters(t, eps, delta)
    pinned = []
    for us, tau in ts:
        cur = inst
        for u in us:
            cur = cur.pin(u, tau[u])
        pinned.append(cur)
    omegas = [powered_count(oracle, pi, target, eps1, delta2) for pi in pinned]
    omega = sum(omegas)
    if omega <= 0:
        return CoverageRun(mode, t, tuple(omegas), omega, m, 0, Fraction(0), seed, eps, delta, "none")

    if type(oracle) is ExactOracle and not force_jvv:
        # the binomial's success probability is only right for exact weights,
        # which an ExactOracle's omegas are by construction
        union = count_surjective(inst, target) if mode == "sur" else count_compaction(inst, target)
        rng = nprng(seed, "coverage", mode)
        x_total = int(rng.binomial(m, union / float(omega)))
        sampler = "collapsed-exact"
    else:
        rng = pyrng(seed, "coverage-jvv", mode)
        sample_eps = eps1 / (2 * len(target.vertices) ** len(inst.pattern.vertices))
        acc = _prefix_sums(omegas)
        if type(oracle) is ExactOracle:
            # per-run state: each witness's tree is looked up on its first draw,
            # and the verdict of a (witness index, leaf) is decided once; two
            # witnesses may pin to the same instance, hence the same leaves
            trees: dict = {}
            verdicts: dict = {}

            def hit(i):
                tree = trees.get(i)
                if tree is None:
                    tree = trees[i] = oracle.pin_tree(pinned[i], target)
                leaf = tree.draw(oracle, rng)
                verdict = verdicts.get((i, leaf))
                if verdict is None:
                    verdict = verdicts[i, leaf] = _first_occurrence(ts, i, leaf.tau)
                return verdict
        else:

            def hit(i):
                return _first_occurrence(ts, i, sample_hom(oracle, pinned[i], target, sample_eps, rng=rng))

        x_total = sum(hit(_draw(rng, acc)) for _ in range(m))
        sampler = "jvv"
    y = Fraction(omega) * x_total / m
    return CoverageRun(mode, t, tuple(omegas), omega, m, x_total, y, seed, eps, delta, sampler)


# -- padding -----------------------------------------------------------------


def lhom_padding(inst: ListedInstance, target: Graph) -> ListedInstance:
    """Disjoint union of the pattern with a pinned (irreflexive) copy of the
    target, making every list homomorphism surjective and edge-covering:
    hom((G,S),H) = sur((G',S'),H) = comp((G',S'),H).

    The copy carries the target's non-loop edges only; patterns are
    irreflexive, and pinning makes loop edges redundant for coverage.
    """
    prefix = "H."
    while any(v.startswith(prefix) for v in inst.pattern.vertices):
        prefix = "H" + prefix
    copy = {v: f"{prefix}{v}" for v in target.vertices}
    verts = list(inst.pattern.vertices) + list(copy.values())
    edges = list(inst.pattern.non_loop_edges()) + [
        (copy[u], copy[v]) for u, v in target.non_loop_edges()
    ]
    lists = dict(inst.lists)
    for v, cv in copy.items():
        lists[cv] = frozenset((v,))
    return ListedInstance(Graph(verts, edges), lists, inst.target_vertices)
