"""The Monte Carlo approximation stack: confidence powering, sampling via
self-partitioning, the coverage estimator for surjective homomorphisms and
compactions, and the padding translation from plain list-homomorphism
counting.

An oracle is any object with a method `count(inst, target, eps)`, and every
entry point that asks one (`powered_count`, `sample_hom`, `coverage_mc`)
takes any such object.  The module has two: an `ExactOracle` and a
`NoisyOracle` both count listed and blocked instances, and only an
`ExactOracle` is treated as exact.  Its counts are exact integers, a noisy
oracle's exact rationals; the estimator's output Y is an exact rational.

With an `ExactOracle` the coverage estimator costs at most three kernel
counts: the number t of witnesses, the union |union| and their total weight
Omega, counted only for a non-empty union (every map that Omega counts lies
in the union, so an empty one forces Omega = 0); it lists no witness and
asks the oracle nothing.  Any other oracle, and a run with force_jvv, lists
the witnesses with `enumerate_T` and weighs each one.
One capped covering search (`exact._witness_search`) defines the witnesses:
`count_witnesses` counts its maps and `enumerate_T` lists them.  It runs on
the target and the lists as they are: a vertex outside U takes no value
there, and in Omega's search it takes one but covers nothing.

The sampler pins one multi-valued vertex per step, in the order the
kernel's sweep fixes them, each value weighted by the count of the instance
pinned to it (self-reducibility, as in Jerrum, Valiant and Vazirani).  An
`ExactOracle` reads those counts from the instance's level store
(`exact._Levels`, the one store that listings walk too); any other oracle
is asked once per value, since its answers may vary from call to call.  A
`NoisyOracle` answers those calls, and the m calls of a powered median, as
memoised exact counts (for the sampler, its inner `ExactOracle`'s tables)
times fresh factors e^u, with the calls, order and random numbers of asking
it one call at a time.
"""
from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate

from . import reference
from ._seeds import pyrng
from .exact import (
    _draw,
    _kernel,
    _Levels,
    _walk_order,
    _witness_search,
    count_blocked,
    count_compaction,
    count_list_hom,
    count_surjective,
)
from .graphs import Graph
from .instances import BlockedInstance, ListedInstance, check_target

POWERING_TRIALS_PER_LOG = 72  # Chernoff: median of 8 ln(1/delta) quarter-fail
# trials already suffices; 72 is comfortable


# -- oracles -----------------------------------------------------------------


class ExactOracle:
    """Retraction/list-homomorphism counting backed by the exact counter:
    `count_list_hom` for a ListedInstance, `count_blocked` for a
    BlockedInstance; ignores the precision parameter.  Memoises counts and
    level stores (`exact._Levels`) keyed by (instance, target), for as
    long as the oracle lives: both instance types are hashable values, so
    equal instances share one entry, and a ListedInstance computes its hash
    once.  `calls` counts each `count` call, memoised or not, and each table
    built, so a draw that reaches only known tables adds none."""

    def __init__(self):
        self._asked = 0
        self._cache: dict = {}
        self._tables: dict = {}

    @property
    def calls(self) -> int:
        return self._asked + sum(tables.built for tables in self._tables.values())

    def count(self, inst: ListedInstance | BlockedInstance, target: Graph, eps: float | None = None):
        self._asked += 1
        key = (inst, target)
        n = self._cache.get(key)
        if n is None:
            blocked = type(inst) is BlockedInstance
            n = self._cache[key] = (count_blocked if blocked else count_list_hom)(inst, target)
        return n

    def draw_tables(self, inst: ListedInstance, target: Graph) -> _Levels:
        """The level store of (inst, target), whose draw tables a draw
        builds, made on first use and kept; raises ValueError if the count
        is zero."""
        key = (inst, target)
        tables = self._tables.get(key)
        if tables is None:
            tables = _Levels(_kernel(inst, target), inst.pattern.vertices, target.vertices)
            if not tables.total:
                raise ValueError(_NO_HOMS)
            self._tables[key] = tables
        return tables


class NoisyOracle:
    """An ExactOracle's count with a seeded multiplicative perturbation.

    With probability 1 - fail_prob the output is true * e^u for |u| < the
    requested precision (default eps0); with probability fail_prob it is
    pushed outside the window.  Outputs are exact Fractions.  The calls draw,
    in call order, from one stream per oracle, `pyrng(seed, "noisy")`; a
    zero count draws nothing.

    Every answer is the memoised exact count times one factor e^u from
    `_factors`.  `median` answers the m calls of `powered_count` with one
    exact count and one Fraction; the sampler walks the inner ExactOracle's
    draw tables and perturbs a table's exact prefix sums afresh on every
    visit (`_perturbed`).  Both make the calls of `count`, in order, drawing
    the same random numbers.
    """

    def __init__(self, eps0: float, fail_prob: float, seed: int):
        if not 0 < eps0 < 1 or not 0 <= fail_prob < 1:
            raise ValueError("need 0 < eps0 < 1 and 0 <= fail_prob < 1")
        self.eps0 = eps0
        self.fail_prob = fail_prob
        self.seed = seed
        self.calls = 0
        self._exact = ExactOracle()
        self._rng = pyrng(seed, "noisy")

    def count(self, inst: ListedInstance | BlockedInstance, target: Graph, eps: float | None = None):
        return self.median(inst, target, eps, 1)

    def median(
        self, inst: ListedInstance | BlockedInstance, target: Graph, eps: float | None, m: int
    ) -> Fraction:
        """The median of m calls of `count` (which is the case m = 1) at
        precision eps, as `powered_count` takes it over any oracle: the same
        value, `calls` and random numbers, from one exact count and one
        Fraction.  Sorting the m factors e^u orders the m answers true * e^u
        the same way, since true > 0 is a common factor, each float's
        `as_integer_ratio` is exact, and equal floats give equal answers."""
        self.calls += m
        true = self._exact.count(inst, target)
        if true == 0:
            return Fraction(0)
        factors = self._factors(eps, m)
        factors.sort()
        return _times(true, factors[m // 2])

    def _perturbed(self, acc: list[int], eps) -> list[int]:
        """One fresh answer per value of a vertex whose exact pinned counts
        have prefix sums acc (a draw table's), as `_prefix_sums` of the
        answers: len(acc) calls of `count`.  An answer is true * num / den
        with den a power of two (`float.as_integer_ratio`), so the least
        common denominator of the answers in lowest terms is the largest
        den / gcd(true * num, den), and the sums stay integers throughout."""
        self.calls += len(acc)
        trues = [b - a for a, b in zip([0, *acc], acc)]
        factors = iter(self._factors(eps, len(trues) - trues.count(0)))
        answers = []  # (true * num, den) per answer
        for true in trues:
            num, den = next(factors).as_integer_ratio() if true else (0, 1)
            answers.append((true * num, den))
        lcd = max(den // math.gcd(p, den) for p, den in answers)
        return list(accumulate(p * lcd // den for p, den in answers))

    def _factors(self, eps, n: int) -> list[float]:
        """The factors e^u of n answers at precision eps (eps0 when eps is
        None, not positive or above eps0), drawn in order: per answer a
        uniform coin against fail_prob, then a magnitude in [1.5, 2.5) times
        the precision and a sign on a failure, else u uniform in
        (-precision, precision) times 0.999."""
        eps_use = self.eps0 if eps is None else min(eps, self.eps0) if eps > 0 else self.eps0
        rng, fail, exp = self._rng, self.fail_prob, math.exp
        random, lo = rng.random, -eps_use
        width = eps_use - lo
        out = []
        for _ in range(n):
            if random() < fail:
                u = (1.5 + random()) * eps_use * rng.choice((-1, 1))
            else:
                u = (lo + width * random()) * 0.999  # rng.uniform(lo, eps_use), inlined
            out.append(exp(u))
        return out


def _times(true: int, factor: float) -> Fraction:
    """true * factor, exactly."""
    num, den = factor.as_integer_ratio()
    return Fraction(true * num, den)


def powered_count(oracle, inst: ListedInstance, target: Graph, eps: float, delta: float):
    """Boost a quarter-failure oracle to failure probability delta by taking
    the median of m = ceil(72 ln(1/delta)) independent calls at precision
    eps.  An ExactOracle is asked once, and a NoisyOracle answers the m
    calls at once (`NoisyOracle.median`)."""
    if not 0 < eps < 1 or not 0 < delta < 1:
        raise ValueError("eps and delta must lie in (0, 1)")
    if delta >= 0.25 or type(oracle) is ExactOracle:
        # a deterministic oracle's median of identical answers is its one answer
        return oracle.count(inst, target, eps)
    m = math.ceil(POWERING_TRIALS_PER_LOG * math.log(1 / delta))
    if type(oracle) is NoisyOracle:
        return oracle.median(inst, target, eps, m)
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


# candidates `sample_hom` draws before it gives up
MAX_RESAMPLES = 100
_NO_HOMS = "instance has no homomorphisms (oracle count is zero)"


def _drawer(oracle, inst: ListedInstance, target: Graph, eps):
    """draw(rng): one homomorphism of inst as a new dict, with the oracle
    calls of one `sample_hom` call at precision eps (see there); raises
    ValueError if the instance has no homomorphism."""
    if type(oracle) is ExactOracle:
        return oracle.draw_tables(inst, target).draw
    noisy = type(oracle) is NoisyOracle
    pv, tv, edges = inst.pattern.vertices, inst.target_vertices, inst.pattern.non_loop_edges()
    lists = None if noisy else inst.lists
    choices = () if noisy else [(v, sorted(lists[v])) for v in _walk_order(inst, target) if len(lists[v]) > 1]

    def draw(rng):
        # an empty list leaves no map, whatever an inexact oracle answers
        if oracle.count(inst, target, eps) <= 0 or 0 in inst.domains:
            raise ValueError(_NO_HOMS)
        if noisy:  # the walk's answers, from the inner ExactOracle's tables
            return oracle._exact.draw_tables(inst, target).draw(rng, lambda acc: oracle._perturbed(acc, eps))
        for _ in range(MAX_RESAMPLES):
            cur = inst
            for v, values in choices:
                pins = [cur.pin(v, s) for s in values]
                acc = _prefix_sums([oracle.count(pin, target, eps) for pin in pins])
                if acc[-1] <= 0:
                    break  # a dead end: resample
                cur = pins[_draw(rng, acc)]
            else:
                tau = {v: tv[d.bit_length() - 1] for v, d in zip(pv, cur.domains)}
                if all(target.has_edge(tau[u], tau[v]) for u, v in edges):
                    return tau
        raise ValueError(f"no homomorphism found after {MAX_RESAMPLES} resamples")

    return draw


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
    Draws from `rng`, a `random.Random`, or from a stream derived from
    `seed` (default 0); giving both raises ValueError.  Returns a new dict.

    With an exact oracle the output is exactly uniform.  Every oracle pins
    in the walk order (`exact._walk_order`), with one categorical draw
    (`_draw`) per multi-valued vertex.  An ExactOracle draws from the
    instance's level store (`exact._Levels`), building one table (a unit of
    its `calls`) per (step, state) pair no earlier draw reached.  A
    NoisyOracle is asked for the instance once and each (multi-valued
    vertex, value) once, answered from its inner ExactOracle's tables.  Any
    other oracle is asked the same calls, since its answers may vary from
    call to call; its fully pinned candidate is checked and resampled on
    failure, as is a walk that reaches a vertex whose values all weigh 0
    (ValueError after MAX_RESAMPLES attempts).
    """
    if rng is not None and seed is not None:
        raise ValueError("give sample_hom a seed or an rng, not both")
    if rng is None:
        rng = pyrng(seed if seed is not None else 0, "sample-hom")
    if type(oracle) is ExactOracle:
        # `_drawer`'s first case without its call: a repeat draw takes a few µs
        return oracle.draw_tables(inst, target).draw(rng)
    return _drawer(oracle, inst, target, eps)(rng)


# -- the coverage estimator ---------------------------------------------------


def enumerate_T(inst: ListedInstance, target: Graph, mode: str):
    """The index set of the union: list-respecting witnesses (U, tau).

    surjective mode: |U| = |V(H)| and tau a surjective (hence bijective)
    homomorphism from G[U]; compaction mode: |V(H)| <= |U| <= |V(H)| + 2|E(H)|
    and tau a compaction from G[U].  They are the maps of the search that
    `count_witnesses` counts, U the vertices that take a value, sorted by
    |U|, then U, then the images' target indices in pattern vertex order,
    so the order does not depend on the kernel's.
    """
    _check_mode(mode)
    pv, tv = inst.pattern.vertices, target.vertices
    k = len(tv)
    found = []
    for image in _witness_search(inst, target, mode, weighted=False).assignments():
        us = tuple(i for i, t in enumerate(image) if t < k)
        found.append((len(us), us, image))
    found.sort()
    return [(tuple(pv[i] for i in us), {pv[i]: tv[image[i]] for i in us}) for _, us, image in found]


def _check_mode(mode: str) -> None:
    if mode not in ("sur", "comp"):
        raise ValueError("mode must be 'sur' or 'comp'")


def count_witnesses(inst: ListedInstance, target: Graph, mode: str) -> int:
    """t, the number of witnesses, as one count of the search whose maps
    `enumerate_T` lists (see `exact._witness_search`); no witness is listed."""
    _check_mode(mode)
    return _witness_search(inst, target, mode, weighted=False).count()


def count_witness_extensions(inst: ListedInstance, target: Graph, mode: str) -> int:
    """Omega, the sum over the witnesses (U, tau) of the list-homomorphism
    counts of (G, S) pinned to tau on U, as one covering count of the kernel:
    the number of pairs (U, sigma) with sigma a list homomorphism of (G, S)
    whose restriction to U is a witness."""
    _check_mode(mode)
    return _witness_search(inst, target, mode, weighted=True).count()


@dataclass(frozen=True)
class CoverageRun:
    """One run of the coverage estimator: the branch weights (() on a
    collapsed exact-oracle run, which never computes them), sample budget,
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


def _binomial(rng, n: int, p: float) -> int:
    """One Binomial(n, p) draw from `rng`, a `random.Random` (Knuth, TAOCP
    vol. 2, 3.4.1).  While more than 64 trials remain, the median X of their
    uniforms is a Beta(j, n - j + 1) draw with j = ceil(n / 2): if X >= p,
    only the j - 1 uniforms below X, uniform on [0, X), can fall below p;
    otherwise those j all do, and the n - j above X are uniform on (X, 1).
    The last trials, unless p is 0 or 1, are drawn one by one."""
    hits = 0
    while n > 64 and 0 < p < 1:
        j = (n + 1) // 2
        x = rng.betavariate(j, n - j + 1)
        if x >= p:
            n, p = j - 1, p / x
        else:
            hits, n, p = hits + j, n - j, (p - x) / (1 - x)
    if not 0 < p < 1:
        return hits + n * (p >= 1)
    random = rng.random
    return hits + sum(random() < p for _ in range(n))


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
    and Madras), made by `_binomial` from the stream
    `pyrng(seed, "coverage", mode)` at the correctly rounded float of that
    ratio, which exists however large Omega is.  That needs no witness and
    no omega_i, only at most three kernel counts: t (`count_witnesses`, which
    fixes m), |union|, the exact surjective (sur) or compaction (comp) count,
    and Omega (`count_witness_extensions`), counted only when |union| > 0:
    every sigma counted in Omega extends a witness and so lies in the union,
    so an empty union forces Omega = 0, and the run returns with no draw;
    `omegas` is then ().  force_jvv runs the
    literal per-sample walk instead, which is also what every oracle other
    than an ExactOracle gets: it lists the witnesses with `enumerate_T` and
    weighs each by `powered_count`.  That walk is one loop over the m draws
    of `sample_hom` (see `_drawer`), with the calls of one `sample_hom` call
    per draw (with an ExactOracle, one per draw table built); it decides the
    first-occurrence verdict once per (witness index, drawn map).  With an
    ExactOracle, a witness with no multi-valued vertex always draws the same
    map and no random number, so it is drawn once per run.
    """
    if not 0 < eps < 1 or not 0 < delta < 1:
        raise ValueError("eps and delta must lie in (0, 1)")
    # the binomial's success probability is only right for exact weights
    collapsed = type(oracle) is ExactOracle and not force_jvv
    if collapsed:
        t = count_witnesses(inst, target, mode)
    else:
        ts = enumerate_T(inst, target, mode)
        t = len(ts)
    if t == 0:
        return CoverageRun(mode, 0, (), 0, 0, 0, Fraction(0), seed, eps, delta, "none")
    eps1, delta1, delta2, m = algorithm_parameters(t, eps, delta)
    if collapsed:
        omegas = ()
        union = count_surjective(inst, target) if mode == "sur" else count_compaction(inst, target)
        # every sigma counted in Omega extends a witness, so lies in the union
        omega = count_witness_extensions(inst, target, mode) if union else 0
    else:
        pinned = []
        for us, tau in ts:
            cur = inst
            for u in us:
                cur = cur.pin(u, tau[u])
            pinned.append(cur)
        omegas = tuple(powered_count(oracle, pi, target, eps1, delta2) for pi in pinned)
        omega = sum(omegas)
    if omega <= 0:
        return CoverageRun(mode, t, omegas, omega, m, 0, Fraction(0), seed, eps, delta, "none")

    if collapsed:
        x_total = _binomial(pyrng(seed, "coverage", mode), m, union / omega)
        sampler = "collapsed-exact"
    else:
        rng = pyrng(seed, "coverage-jvv", mode)
        sample_eps = eps1 / (2 * len(target.vertices) ** len(inst.pattern.vertices))
        acc = _prefix_sums(omegas)
        # by witness index: its draw function, set up on its first draw, and
        # with an ExactOracle the verdict of its one map if it has no choice.
        # Two witnesses may pin to one instance, drawing the same maps.
        getrandbits, total = rng.getrandbits, acc[-1]
        k = total.bit_length()
        draws: list = [None] * t
        fixed: list = [None] * t
        verdicts: dict = {}
        x_total = 0
        for _ in range(m):
            r = getrandbits(k)  # _draw(rng, acc), inlined
            while r >= total:
                r = getrandbits(k)
            i = bisect_right(acc, r)
            verdict = fixed[i]
            if verdict is None:
                draw = draws[i]
                if draw is None:
                    draw = draws[i] = _drawer(oracle, pinned[i], target, sample_eps)
                sigma = draw(rng)
                image = tuple(sigma.values())
                verdict = verdicts.get((i, image))
                if verdict is None:
                    verdict = verdicts[i, image] = _first_occurrence(ts, i, sigma)
                    if type(oracle) is ExactOracle and all(d.bit_count() == 1 for d in pinned[i].domains):
                        fixed[i] = verdict
            x_total += verdict
        sampler = "jvv"
    y = Fraction(omega) * x_total / m
    return CoverageRun(mode, t, omegas, omega, m, x_total, y, seed, eps, delta, sampler)


# -- padding -----------------------------------------------------------------


def lhom_padding(inst: ListedInstance, target: Graph) -> ListedInstance:
    """Disjoint union of the pattern with a pinned (irreflexive) copy of the
    target, making every list homomorphism surjective and edge-covering:
    hom((G,S),H) = sur((G',S'),H) = comp((G',S'),H).

    The copy carries the target's non-loop edges only; patterns are
    irreflexive, and pinning makes loop edges redundant for coverage.
    """
    check_target(inst, target)
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
