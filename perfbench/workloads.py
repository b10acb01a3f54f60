"""The four workloads as fixed, seeded op lists, with their correctness gate.

An op is one timed call sequence into the library.  Its `check` runs after
the timed phase, untimed, and compares the output with an independent route;
`groups` holds the checks that need several ops' outputs together (sampler
uniformity).  The heavy graph shapes are fixed so that every seed does about
the same amount of work; the seed draws vertex names, lists, pins, the small
random patterns and every estimator and sampler seed.
"""
from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations

from retraction_lab import approx, classifier, csp, exact, gadgets, homtypes, reference
from retraction_lab.graphs import Graph
from retraction_lab.instances import ListedInstance

from . import corpus, independent


class Op:
    __slots__ = ("kind", "fn", "check")

    def __init__(self, kind, fn, check):
        self.kind = kind
        self.fn = fn
        self.check = check


def _window(truth: int, eps: float) -> tuple[Fraction, Fraction]:
    lo = Fraction(truth) * Fraction(math.exp(-eps)).limit_denominator(10**12)
    hi = Fraction(truth) * Fraction(math.exp(eps)).limit_denominator(10**12)
    return lo, hi


def _in_window(value, truth: int, eps: float) -> bool:
    if truth == 0:
        return value == 0
    lo, hi = _window(truth, eps)
    return lo <= value <= hi


class _Truth:
    """Independent exact counts, computed once per (instance, mode) in the gate."""

    def __init__(self):
        self._memo = {}

    def __call__(self, inst, target, mode):
        key = (id(inst), id(target), mode)
        if key not in self._memo:
            self._memo[key] = (inst, target, independent.count(inst, target, mode))
        return self._memo[key][2]


def _is_list_hom(tau, inst, target) -> bool:
    return (
        set(tau) == set(inst.pattern.vertices)
        and all(tau[v] in inst.lists[v] for v in inst.pattern.vertices)
        and all(target.has_edge(tau[u], tau[v]) for u, v in inst.pattern.non_loop_edges())
    )


# -- estimate -------------------------------------------------------------------

# the battery's G(n, 1/2) stream (n = 5 + i % 3) without its n = 7 graphs,
# whose ops take seconds each: the first eight graphs with n <= 6
ESTIMATE_GRAPHS = (0, 1, 3, 4, 6, 7, 9, 10)
ESTIMATE_TARGETS = ("k2", "two_wrench", "p3")
# as in the battery, run r of a target and mode uses graph r % len(graphs),
# so every graph gets two estimator seeds per target and mode
ESTIMATE_RUNS_PER_MODE = 16


def build_estimate(seed, fx, smoke):
    """`coverage_mc` with a fresh ExactOracle per op on the estimator battery's
    corpus: G(n, 1/2) patterns, targets K2, the 2-wrench and P3, sur and comp,
    eps = 0.2, delta = 0.1, each instance under at least two estimator seeds."""
    eps, delta = 0.2, 0.1
    truth = _Truth()
    graphs = ESTIMATE_GRAPHS[:1] if smoke else ESTIMATE_GRAPHS
    # fixed vertex names g0, g1, ... as in the battery; the seed draws the
    # estimator seeds
    patterns = [corpus.gnp(corpus.rng("estimate-corpus", i), 5 + i % 3, 0.5) for i in graphs]
    ops = []
    for tname in ESTIMATE_TARGETS:
        target = fx[tname]
        insts = [ListedInstance.full(g, target) for g in patterns]
        for mode in ("sur", "comp"):
            for r in range(2 if smoke else ESTIMATE_RUNS_PER_MODE):
                inst = insts[r % len(insts)]
                run_seed = corpus.derive(seed, "estimate", tname, mode, r)

                def fn(inst=inst, target=target, mode=mode, run_seed=run_seed):
                    return approx.coverage_mc(
                        inst, target, mode, eps, delta, approx.ExactOracle(), run_seed
                    )

                def check(run, inst=inst, target=target, mode=mode):
                    return _in_window(run.y, truth(inst, target, mode), eps)

                ops.append(Op(f"coverage_mc/{tname}/{mode}", fn, check))
    return ops, []


# -- sample ---------------------------------------------------------------------


def _draw_ops(kind, seed, inst, target, draws, eps=0.01):
    """`draws` sample_hom calls sharing one ExactOracle and one seeded stream."""
    oracle = approx.ExactOracle()
    stream = corpus.rng(seed, "draws", kind)

    def fn():
        return approx.sample_hom(oracle, inst, target, eps, rng=stream)

    def check(tau):
        return _is_list_hom(tau, inst, target)

    return [Op(kind, fn, check) for _ in range(draws)]


def build_sample(seed, fx, smoke):
    """The pinning sampler as many tiny calls: sample_hom draws, powering with
    a noisy oracle, and literal-walk coverage runs."""
    tw, j3, h1, k2, p3 = (fx[n] for n in ("two_wrench", "j3", "h1", "k2", "p3"))
    ops, groups = [], []
    truth = _Truth()

    # criterion 14's traffic: P3 -> 2-wrench, judged by total variation
    p3_pattern = corpus.relabel(corpus.rng(seed, "p3-names"), corpus.path(3))
    uni = ListedInstance.full(p3_pattern, tw)
    n_uni = 1000 if smoke else 10_000
    uni_ops = _draw_ops("sample_hom/P3->2-wrench", seed, uni, tw, n_uni)
    ops += uni_ops
    homs = [tuple(sorted(h.items())) for h in reference.naive_assignments(uni, tw)]
    # sampling noise in TV shrinks as 1/sqrt(draws); 0.05 at 10^4 draws
    tv_bound = 0.05 * math.sqrt(10_000 / n_uni)

    def uniformity(outputs):
        counts = {}
        for tau in outputs:
            key = tuple(sorted(tau.items()))
            counts[key] = counts.get(key, 0) + 1
        if set(counts) - set(homs):
            return False
        tv = sum(abs(Fraction(counts.get(h, 0), n_uni) - Fraction(1, len(homs))) for h in homs) / 2
        return tv <= tv_bound

    groups.append((range(0, len(uni_ops)), uniformity))

    # draws from paths, trees and small random patterns into the hard targets;
    # fixed shapes keep their names, since the pinning order follows them
    shapes = [
        ("P5->2-wrench", corpus.path(5), tw),
        ("P6->H1", corpus.path(6), h1),
        ("spider->J3", corpus.spider((2, 2, 1)), j3),
        ("C6->J3", corpus.cycle(6), j3),
        ("tree6->H1", corpus.random_tree(corpus.rng(seed, "sample-tree"), 6), h1),
        ("G(6,.4)->2-wrench", corpus.gnp(corpus.rng(seed, "sample-gnp"), 6, 0.4), tw),
    ]
    for kind, g, target in shapes:
        inst = ListedInstance.full(g, target)
        ops += _draw_ops(f"sample_hom/{kind}", seed, inst, target, 3 if smoke else 25)

    # confidence powering over a noisy oracle at delta = 1e-3
    pk = ListedInstance.full(corpus.path(3), k2)
    for i in range(3 if smoke else 40):
        noisy_seed = corpus.derive(seed, "noisy", i)

        def fn(noisy_seed=noisy_seed):
            return approx.powered_count(approx.NoisyOracle(0.1, 0.25, noisy_seed), pk, k2, 0.1, 1e-3)

        ops.append(Op("powered_count/noisy", fn, lambda x: _in_window(x, truth(pk, k2, "lhom"), 0.1)))

    # literal-walk coverage runs on K2 / P3 instances
    walks = [
        (f"{name}/{mode}/{eps}", shape, target, mode, eps, 0.3)
        for name, shape, target in (("K2->K2", corpus.path(2), k2), ("P3->P3", corpus.path(3), p3))
        for mode in ("sur", "comp")
        for eps in (0.5, 0.7, 0.9)
    ]
    for kind, shape, target, mode, eps, delta in walks[-1:] if smoke else walks:
        inst = ListedInstance.full(shape, target)
        run_seed = corpus.derive(seed, "walk", kind)

        def fn(inst=inst, target=target, mode=mode, eps=eps, delta=delta, run_seed=run_seed):
            return approx.coverage_mc(
                inst, target, mode, eps, delta, approx.ExactOracle(), run_seed, force_jvv=True
            )

        def check(run, inst=inst, target=target, mode=mode, eps=eps):
            return _in_window(run.y, truth(inst, target, mode), eps)

        ops.append(Op(f"coverage_mc/jvv/{kind}", fn, check))
    return ops, groups


# -- count ----------------------------------------------------------------------


def _spider_with(n: int):
    """A spider on n vertices with legs as even as possible."""
    legs = [(n - 1) // 3 + (1 if i < (n - 1) % 3 else 0) for i in range(3)]
    return corpus.spider(tuple(legs))


def build_count(seed, fx, smoke):
    """`exact.count` in all five modes; answers from tens to millions."""
    tw, j3, h1, p3 = (fx[n] for n in ("two_wrench", "j3", "h1", "p3"))
    truth = _Truth()
    heavy = [
        (corpus.grid(2, 5), h1, "lhom"),
        (corpus.path(9), h1, "hom"),
        (corpus.grid(3, 3), h1, "lhom"),
        (corpus.grid(3, 4), tw, "comp"),
        (corpus.grid(3, 4), tw, "sur"),
        (corpus.path(10), tw, "comp"),
        (corpus.path(10), tw, "sur"),
        (corpus.cycle(10), tw, "comp"),
        (corpus.grid(3, 4), j3, "lhom"),
        (corpus.path(10), j3, "hom"),
        (corpus.grid(2, 6), p3, "comp"),
    ]
    cases = [] if smoke else [(g, t, mode, None) for g, t, mode in heavy]
    # a fixed grid of shapes with full lists ...
    for target in (tw, p3) if smoke else (tw, j3, h1, p3):
        small = target is h1 or target is j3
        modes = ("hom",) if small else ("hom", "sur", "comp")
        for n in (6,) if smoke else (6, 8):
            n = n if small else n + 2
            for g in (corpus.path(n), corpus.cycle(n), corpus.grid(2, n // 2), _spider_with(n)):
                for mode in modes:
                    cases.append((g, target, mode, None))
    # ... and many small seeded instances with random and retraction-shaped
    # lists: the median op is one of them, and with this many their median
    # moves little from seed to seed
    r = corpus.rng(seed, "count-cases")
    for i in range(4 if smoke else 800):
        target = (tw, j3, h1, p3)[i % 4]
        n = 5 + i % 3
        g = corpus.random_tree(r, n) if i % 2 else corpus.gnm(r, n, n)
        if i % 8 < 4:
            cases.append((g, target, "lhom", corpus.random_lists(r, g, target)))
        else:
            cases.append((g, target, "ret", corpus.retraction_lists(r, g, target, 2)))
    ops = []
    for g, target, mode, lists in cases:
        inst = ListedInstance(g, lists or {}, target.vertices)

        def fn(inst=inst, target=target, mode=mode):
            return exact.count(inst, target, mode)

        def check(c, inst=inst, target=target, mode=mode):
            return c == truth(inst, target, mode)

        ops.append(Op(f"count/{mode}", fn, check))
    return ops, []


# -- reduce ---------------------------------------------------------------------

# classes fixed by the paper's theorems for the fixtures that have one
FIXTURE_CLASSES = {
    "star3": classifier.CLASS_FP,
    "two_wrench": classifier.CLASS_BIS,
    "reflexive_p5": classifier.CLASS_BIS,
    "j3": classifier.CLASS_SAT,
    "c5": classifier.CLASS_SAT,
    "reflexive_c5": classifier.CLASS_SAT,
    "c4": classifier.CLASS_UNCLASSIFIED,
}
CLASSES = (
    classifier.CLASS_FP, classifier.CLASS_BIS, classifier.CLASS_SAT, classifier.CLASS_UNCLASSIFIED,
)
EQ4_GRID = ((1, 1, 1), (2, 2, 1), (1, 2, 1), (2, 1, 1))


def _cuts_of_size(g: Graph, size: int) -> int:
    """Unordered bipartitions of V(g) cutting exactly `size` edges."""
    verts = g.vertices
    edges = g.non_loop_edges()
    total = 0
    for mask in range(1 << (len(verts) - 1)):
        side = {verts[0]} | {v for i, v in enumerate(verts[1:]) if mask >> i & 1}
        total += sum((u in side) != (v in side) for u, v in edges) == size
    return total


def _classify_ops(seed, fx, smoke):
    ops = []
    for name in sorted(n for n, g in fx.items() if isinstance(g, Graph)):
        h = fx[name]
        want = FIXTURE_CLASSES.get(name)
        ops.append(Op(
            "classify/fixture",
            lambda h=h: classifier.classify(h),
            lambda v, want=want: v.cls == want if want else v.cls in CLASSES,
        ))
    r = corpus.rng(seed, "girth5")
    for _ in range(10 if smoke else 1500):
        h = corpus.girth5_component(r)
        # Theorem 1: every graph of girth at least 5 falls into a class
        ops.append(Op(
            "classify/girth5",
            lambda h=h: classifier.classify(h),
            lambda v: v.cls != classifier.CLASS_UNCLASSIFIED,
        ))
    return ops


def _csp_ops(seed, smoke):
    ops = []
    r = corpus.rng(seed, "csp")
    truth = _Truth()
    # every bristled path shape up to q = 4, as in criterion 4, each against a
    # path and a spider pattern of at most 24 CSP variables with one pin
    shapes = [
        (q, frozenset(sub))
        for q in range(1, 5)
        for k in range(1, q + 1)
        for sub in combinations(range(1, q + 1), k)
    ]
    for q, bristles in shapes[:2] if smoke else shapes:
        iv, ie = csp.pbrp_csp(q, bristles)
        h = csp.build_graph_from_csp(iv, ie)
        core = sorted(v for v in h.vertices if h.is_looped(v))
        n = min(8, 24 // (q + 1))
        # fixed names and pins: the CSP counter branches in variable order, so
        # either would change the work from seed to seed
        for g in (corpus.path(n), _spider_with(n), corpus.cycle(n - n % 2)):
            for pin in core[:1] if smoke else (core[0], core[-1]):
                lists = {v: frozenset(h.vertices) for v in g.vertices}
                lists[g.vertices[0]] = frozenset((pin,))
                inst = ListedInstance(g, lists, h.vertices)

                def fn(inst=inst, iv=iv, ie=ie):
                    return csp.count_csp(csp.translate_ret_to_csp(inst, iv, ie))

                # parsimony: #CSP of the translation equals the retraction count
                ops.append(Op("csp/ret", fn, lambda c, inst=inst, h=h: c == truth(inst, h, "ret")))
    xs = ("x0", "x1", "x2")
    for _ in range(4 if smoke else 200):
        iv, if_, ib = (
            csp.CspInstance(xs, tuple(dict.fromkeys((r.choice(xs), r.choice(xs)) for _ in range(2))))
            for _ in range(3)
        )
        dh = csp.build_digraph_from_csp(iv, if_, ib)
        dg = corpus.random_digraph(r, 5, 6)
        lists = {v: frozenset(dh.vertices) for v in dg.vertices}
        lists[r.choice(dg.vertices)] = frozenset((r.choice(dh.vertices),))

        def fn(dg=dg, lists=lists, iv=iv, if_=if_, ib=ib, dh=dh):
            via_csp = csp.count_csp(csp.translate_dirret_to_csp(dg, lists, iv, if_, ib))
            return via_csp, csp.count_dir_list_hom(dg, lists, dh)

        def check(out, dg=dg, lists=lists, dh=dh):
            return out[0] == out[1] == reference.naive_count_digraph(dg, lists, dh)

        ops.append(Op("csp/dirret", fn, check))
    return ops


def _gadget_ops(seed, fx, smoke):
    ops = []
    star, j3 = fx["terminal_star"], fx["j3"]
    r = corpus.rng(seed, "cut")
    for dp in r.sample([Fraction(1, d) for d in (20, 30, 50, 80, 100, 200)], 1 if smoke else 3):

        def fn(dp=dp):
            plan = gadgets.build_cut_instance(star, "a", "b", "c", 2, j3, delta_prime=dp)
            blocked = exact.count_blocked(plan.blocked, plan.target)
            acc = gadgets.cut_accounting(plan)
            est = gadgets.estimate_multiterminal_cuts(plan, gadgets.exact_blocked_oracle, 0.2)
            return plan, blocked, acc, est

        def check(out):
            plan, blocked, acc, est = out
            t_true = gadgets.count_multiterminal_cuts_bruteforce(star, "a", "b", "c", 2)
            ratio = Fraction(acc.z_value, plan.zstar)
            return (
                blocked == acc.z_by_edge_factors
                and acc.t_count == est == t_true
                and t_true <= ratio <= t_true + Fraction(1, 4)
            )

        ops.append(Op("gadgets/cut", fn, check))

    types = dict(homtypes.enumerate_maximal_types(1))
    nt4 = homtypes.n_exact(types["T4"], 1, 1, 1)
    bases = [corpus.path(2), corpus.path(3), corpus.path(4), corpus.spider((1, 1, 1)), corpus.cycle(4)]
    for g in bases[:1] if smoke else bases:
        plan = gadgets.build_largecut_instance(g, 1, 1, p=1, q=1, t=1, s=1)

        def check(hist, g=g, plan=plan):
            # large-cut identity: full homomorphisms per cut size
            return all(
                hist.get(ell, 0) == _cuts_of_size(g, ell) * 2 * nt4 ** len(g) * 4 ** (plan.s * ell)
                for ell in range(1, len(g.non_loop_edges()) + 1)
            )

        ops.append(Op("gadgets/full_hom_histogram", lambda plan=plan: gadgets.full_hom_histogram(plan), check))

    for i in range(3 if smoke else 45):
        d, n = 1 + i % 3, (10, 100, 1000)[i // 3 % 3]
        lams = [Fraction(r.uniform(0.5, 4.0)).limit_denominator(10**6) for _ in range(d)]

        def check(out, lams=lams, n=n):
            ps, rr = out
            return 1 <= rr <= n and all(p >= 1 for p in ps) and all(
                abs(rr * lam - p) ** len(lams) * n <= 1 for lam, p in zip(lams, ps)
            )

        ops.append(Op("gadgets/dirichlet", lambda lams=lams, n=n: gadgets.dirichlet_approx(lams, n), check))
    return ops


def _type_ops(smoke):
    ops = []
    for k in (1,) if smoke else (1, 2, 3):
        p, q = (44, 52) if k == 1 else gadgets.choose_pq(k)

        def dominance_ok(rep, k=k, p=p, q=q):
            return (
                rep.window_ok
                and len(rep.per_step) == 9
                and all(x < 1 for _, x in rep.per_step)
                and dict(rep.per_step)["T1"] == Fraction(4 + k) ** p / Fraction(4) ** q
            )

        ops.append(Op("homtypes/dominance", lambda k=k, p=p, q=q: homtypes.dominance_report(k, p, q), dominance_ok))
    grid = [(p, q, t, 1) for p, q, t in EQ4_GRID] + [(1, 1, 1, 2), (1, 2, 1, 2)]
    for p, q, t, k in grid[:1] if smoke else grid:

        def check(buckets, p=p, q=q, t=t):
            return bool(buckets) and all(
                homtypes.n_exact(typ, p, q, t) == c for typ, c in buckets.items()
            )

        ops.append(Op(
            "homtypes/brute_count_by_type",
            lambda p=p, q=q, t=t, k=k: homtypes.brute_count_by_type(p, q, t, k),
            check,
        ))
    return ops


def build_reduce(seed, fx, smoke):
    """The hardness side: classifier, CSP bridge, cut gadgets, type census."""
    ops = _classify_ops(seed, fx, smoke)
    ops += _csp_ops(seed, smoke)
    ops += _gadget_ops(seed, fx, smoke)
    ops += _type_ops(smoke)
    return ops, []


BUILDERS = {
    "estimate": build_estimate,
    "sample": build_sample,
    "count": build_count,
    "reduce": build_reduce,
}


def build(name: str, seed: int, fx: dict, smoke: bool):
    return BUILDERS[name](seed, fx, smoke)
