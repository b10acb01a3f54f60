import math
import random
import statistics
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from retraction_lab import approx, exact, reference, verify
from retraction_lab._seeds import pyrng, pyrng_family
from retraction_lab.fixedgraphs import build_cycle, build_hk, build_jq, build_path, build_two_wrench
from retraction_lab.graphs import Graph
from retraction_lab.instances import ListedInstance

K2 = Graph("ab", [("a", "b")])


def test_enumerate_T_examples():
    inst = ListedInstance.full(K2, K2)
    assert len(approx.enumerate_T(inst, K2, "sur")) == 2
    assert len(approx.enumerate_T(inst, K2, "comp")) == 2
    single = ListedInstance.full(Graph(["z"]), K2)
    assert approx.enumerate_T(single, K2, "sur") == []
    with pytest.raises(ValueError):
        approx.enumerate_T(inst, K2, "hom")


def test_enumerate_T_respects_lists():
    inst = ListedInstance(K2, {"a": frozenset(("a",))}, K2.vertices)
    ts = approx.enumerate_T(inst, K2, "sur")
    assert all(tau["a"] == "a" for us, tau in ts if "a" in dict(tau))


def test_coverage_zero_shortcircuit():
    single = ListedInstance.full(Graph(["z"]), K2)
    run = approx.coverage_mc(single, K2, "sur", 0.2, 0.1, approx.ExactOracle(), seed=0)
    assert run.t == 0 and run.y == 0


def test_coverage_m_formula():
    eps1, delta1, delta2, m = approx.algorithm_parameters(7, 0.2, 0.1)
    assert eps1 == 0.2 / 12 and delta1 == 0.05 and delta2 == 0.05 / 7
    assert m == math.ceil(6 * 7 * math.log(2 / 0.05) / eps1**2)


def test_coverage_determinism_and_window():
    inst = ListedInstance.full(build_path(4), K2)
    truth = exact.count_surjective(inst, K2)
    r1 = approx.coverage_mc(inst, K2, "sur", 0.2, 0.1, approx.ExactOracle(), seed=9)
    r2 = approx.coverage_mc(inst, K2, "sur", 0.2, 0.1, approx.ExactOracle(), seed=9)
    assert r1.y == r2.y and r1.m == r2.m
    assert truth * math.exp(-0.2) <= r1.y <= truth * math.exp(0.2)


def test_jvv_and_collapsed_agree_distributionally():
    inst = ListedInstance.full(K2, K2)
    truth = exact.count_compaction(inst, K2)
    rj = approx.coverage_mc(inst, K2, "comp", 0.5, 0.3, approx.ExactOracle(), 1, force_jvv=True)
    rf = approx.coverage_mc(inst, K2, "comp", 0.5, 0.3, approx.ExactOracle(), 1)
    assert rj.m == rf.m and rj.t == rf.t
    for run in (rj, rf):
        assert truth * math.exp(-0.5) <= run.y <= truth * math.exp(0.5)


def test_collapsed_hit_count_is_binomial():
    tw = build_two_wrench()
    inst = ListedInstance.full(build_path(5), tw)
    oracle = approx.ExactOracle()
    for mode, counter in (("sur", exact.count_surjective), ("comp", exact.count_compaction)):
        # hit probability 1/2 and 1
        ts = approx.enumerate_T(inst, tw, mode)
        omegas, firsts = reference.coverage_partition(inst, tw, ts)
        omega = sum(omegas)
        p = Fraction(counter(inst, tw), omega)
        assert p == Fraction(sum(firsts), omega)
        runs = [approx.coverage_mc(inst, tw, mode, 0.5, 0.3, oracle, seed=s) for s in range(200)]
        assert all(run.omega == omega for run in runs)
        xs = [run.x_total for run in runs]
        m = runs[0].m
        var = float(m * p * (1 - p))
        assert abs(statistics.fmean(xs) - float(m * p)) <= 4 * math.sqrt(var / len(xs))
        assert 0.5 * var <= statistics.pvariance(xs) <= 1.5 * var


# (x_total, y) of seeded exact-oracle runs at eps 0.5, delta 0.3, seeds 0-4,
# recorded while |union| still came from enumeration tables; every other case
# of test_seeded_exact_oracle_runs_are_pinned draws x_total = y = 0
_PINNED = {
    ("P5", "2-wrench", "sur"): (
        [53585, 53695, 53831, 53916, 53875],
        ["53585/8952", "53695/8952", "53831/8952", "4493/746", "53875/8952"],
    ),
    ("P5", "2-wrench", "comp"): ([53712] * 5, ["6"] * 5),
    ("acc1", "2-wrench", "sur"): (
        [98957, 99133, 99350, 99486, 99420],
        ["5145764/322271", "5154916/322271", "5166200/322271", "5173272/322271", "5169840/322271"],
    ),
    ("acc1", "2-wrench", "comp"): (
        [107243, 107390, 107522, 107009, 107206],
        ["3860748/322271", "3866040/322271", "3870792/322271", "3852324/322271", "3859416/322271"],
    ),
    ("acc2", "2-wrench", "sur"): (
        [228442, 228727, 229081, 229301, 229192],
        ["12335868/268559", "12351258/268559", "12370374/268559", "12382254/268559", "12376368/268559"],
    ),
    ("acc2", "2-wrench", "comp"): (
        [304557, 304847, 305108, 304096, 304485],
        ["79793934/1736681", "79869914/1736681", "79938296/1736681", "79673152/1736681", "79775070/1736681"],
    ),
}


def test_seeded_exact_oracle_runs_are_pinned():
    tw = build_two_wrench()
    cases = [("P5", build_path(5), "2-wrench", tw)] + [
        (f"acc{i}", verify.acceptance8_graph(i), tname, target)
        for i in range(3)
        for tname, target in verify._acceptance8_fixtures()
    ]
    for gname, g, tname, target in cases:
        inst = ListedInstance.full(g, target)
        for mode in ("sur", "comp"):
            xs, ys = _PINNED.get((gname, tname, mode), ([0] * 5, ["0"] * 5))
            for seed in range(5):
                run = approx.coverage_mc(inst, target, mode, 0.5, 0.3, approx.ExactOracle(), seed)
                assert (run.x_total, run.y) == (xs[seed], Fraction(ys[seed])), (gname, tname, mode, seed)


def test_only_an_exact_oracle_gets_the_exact_shortcuts():
    class ClaimsExact:
        behavior = "exact"  # exactness is the type, so this claim is not read

        def __init__(self):
            self.calls = 0

        def count(self, inst, target, eps=None):
            self.calls += 1
            return exact.count_list_hom(inst, target) + 1

    inst = ListedInstance.full(K2, K2)
    run = approx.coverage_mc(inst, K2, "sur", 0.9, 0.9, ClaimsExact(), seed=0)
    assert run.sampler == "jvv" and run.omegas == (2, 2)
    stub = ClaimsExact()
    assert approx.powered_count(stub, inst, K2, 0.1, 0.2) == 3
    assert stub.calls > 1


def test_closed_form_expectation():
    tw = build_two_wrench()
    for g in (build_path(4), build_path(5)):
        inst = ListedInstance.full(g, tw)
        for mode, counter in (("sur", exact.count_surjective), ("comp", exact.count_compaction)):
            ts = approx.enumerate_T(inst, tw, mode)
            # E[Y] = sum_i omega_i phat_i = the sum of the first-occurrence counts
            assert sum(reference.coverage_partition(inst, tw, ts)[1]) == counter(inst, tw)


def test_partition_and_eq9():
    tw = build_two_wrench()
    inst = ListedInstance.full(build_path(5), tw)
    ts = approx.enumerate_T(inst, tw, "comp")
    omegas, firsts = reference.coverage_partition(inst, tw, ts)
    truth = exact.count_compaction(inst, tw)
    assert sum(firsts) == truth
    assert truth >= Fraction(sum(omegas), len(ts))


def _keep_first_witness(enumerate_T):
    return lambda inst, target, mode: enumerate_T(inst, target, mode)[:1]


def _comp_without_edge_filter(enumerate_T):
    def mutant(inst, target, mode):
        if mode == "sur":
            return enumerate_T(inst, target, mode)
        pv, tv = inst.pattern.vertices, target.vertices
        out = []
        for size in range(len(tv), min(len(pv), len(tv) + 2 * target.edge_count()) + 1):
            for us in combinations(pv, size):
                sub = ListedInstance(
                    inst.pattern.induced(us), {u: inst.lists[u] for u in us}, inst.target_vertices
                )
                out.extend(
                    (us, tau) for tau in exact.enumerate_homs(sub, target) if set(tau.values()) == set(tv)
                )
        return out

    return mutant


@pytest.mark.parametrize("mutate", [_keep_first_witness, _comp_without_edge_filter])
def test_exact_expectation_catches_wrong_witnesses(monkeypatch, mutate):
    assert verify.check_exact_expectation(quick=True).passed
    monkeypatch.setattr(approx, "enumerate_T", mutate(approx.enumerate_T))
    assert not verify.check_exact_expectation(quick=True).passed


def test_sample_hom_unique_and_errors():
    # a fully pinned instance has a single homomorphism
    inst = ListedInstance(
        K2, {"a": frozenset(("a",)), "b": frozenset(("b",))}, K2.vertices
    )
    oracle = approx.ExactOracle()
    for _ in range(5):
        assert approx.sample_hom(oracle, inst, K2, 0.1, seed=3) == {"a": "a", "b": "b"}
    # no homomorphism at all: both ends pinned to the same endpoint
    bad = ListedInstance(
        K2, {"a": frozenset(("a",)), "b": frozenset(("a",))}, K2.vertices
    )
    with pytest.raises(ValueError):
        approx.sample_hom(oracle, bad, K2, 0.1, seed=3)


def test_sample_hom_uniformity_small():
    tw = build_two_wrench()
    inst = ListedInstance.full(build_path(3), tw)
    homs = {tuple(sorted(h.items())) for h in exact.enumerate_homs(inst, tw)}
    oracle = approx.ExactOracle()
    rng = pyrng("uniform-unit")
    counts: dict = {}
    n = 4000
    for _ in range(n):
        tau = approx.sample_hom(oracle, inst, tw, 0.05, rng=rng)
        counts[tuple(sorted(tau.items()))] = counts.get(tuple(sorted(tau.items())), 0) + 1
    assert set(counts) <= homs
    tv = 0.5 * sum(abs(counts.get(h, 0) / n - 1 / len(homs)) for h in homs)
    assert tv <= 0.07


def test_powered_count_exact_and_quarter_delta():
    oracle = approx.ExactOracle()
    inst = ListedInstance.full(build_path(3), K2)
    assert approx.powered_count(oracle, inst, K2, 0.01, 1e-6) == exact.count_list_hom(inst, K2)
    assert oracle.calls == 1
    oracle2 = approx.ExactOracle()
    approx.powered_count(oracle2, inst, K2, 0.3, 0.25)
    assert oracle2.calls == 1


def test_noisy_oracle_window():
    inst = ListedInstance.full(build_path(3), K2)
    true = exact.count_list_hom(inst, K2)
    good = bad = 0
    for i in range(400):
        oracle = approx.NoisyOracle(0.2, 0.2, seed=i)
        x = oracle.count(inst, K2)
        if true * math.exp(-0.2) <= x <= true * math.exp(0.2):
            good += 1
        else:
            bad += 1
    assert good >= 280 and bad >= 30  # both behaviors actually exercised


def test_powered_count_noisy_statistics():
    res = verify.check_powered_count(quick=False)
    assert res.passed, res.detail


def test_padding_identities():
    tw = build_two_wrench()
    inst = ListedInstance.full(K2, tw)
    padded = approx.lhom_padding(inst, tw)
    assert exact.count_surjective(padded, tw) == exact.count_list_hom(inst, tw) == 9
    # empty pattern
    empty = ListedInstance.full(Graph(), tw)
    pe = approx.lhom_padding(empty, tw)
    assert exact.count_surjective(pe, tw) == 1
    # padding twice leaves the count fixed
    twice = approx.lhom_padding(padded, tw)
    assert exact.count_surjective(twice, tw) == 9


def test_coverage_with_noisy_oracle_runs_jvv():
    inst = ListedInstance.full(K2, K2)
    truth = exact.count_surjective(inst, K2)
    oracle = approx.NoisyOracle(0.05, 0.05, seed=17)
    run = approx.coverage_mc(inst, K2, "sur", 0.9, 0.35, oracle, seed=4)
    assert run.sampler == "jvv"
    assert truth * math.exp(-0.9) <= run.y <= truth * math.exp(0.9)


# seeded sampler outputs, recorded before the per-draw fast paths: each draw
# is the images of the pattern vertices in vertex order.  The optimisations
# must consume the same random numbers and make the same choices.
_PINNED_DRAWS = {
    ("P3", 0): ["r1 b b", "g b r1", "r2 r2 b", "r1 b r2", "g b r1"],
    ("P3", 1): ["r2 b r2", "r1 b b", "b b b", "r1 b b", "b r1 r1"],
    ("P3", 2): ["b g b", "b b r1", "g b g", "r2 r2 r2", "b r1 r1"],
    ("P5", 0): ["r1 b b r1 b", "r2 b g b b", "r1 r1 b r2 b", "b r2 b r2 r2", "g b r1 r1 b"],
    ("P5", 1): ["b b r2 b r1", "r2 r2 b g b", "g b r1 r1 r1", "r2 b b r1 r1", "b r2 b b r2"],
    ("P5", 2): ["b b r2 r2 b", "r1 b b b r1", "r2 b r1 r1 r1", "r1 b r2 r2 b", "r1 r1 b b r1"],
    ("C6", 0): ["x0 x1 x0 w z0 w", "y0 w z0 w z0 w", "w y0 w y0 y1 y0", "w y0 y1 y0 w x0", "y0 w y0 w y0 y1"],
    ("C6", 1): ["w x0 w z0 w z0", "y0 w y0 w x0 w", "z0 w z0 z1 z0 z1", "w y0 w x0 w y0", "y0 y1 y0 w y0 w"],
    ("C6", 2): ["w y0 w y0 y1 y0", "x0 w y0 y1 y0 w", "x0 w y0 w x0 x1", "x0 w x0 x1 x0 w", "z0 z1 z0 w z0 w"],
}


def _draws(oracle, inst, target, rng, n):
    draws = [approx.sample_hom(oracle, inst, target, 0.05, rng=rng) for _ in range(n)]
    return [" ".join(tau[v] for v in inst.pattern.vertices) for tau in draws]


def test_seeded_sample_hom_draws_are_pinned():
    tw = build_two_wrench()
    shapes = {"P3": (build_path(3), tw), "P5": (build_path(5), tw), "C6": (build_cycle(6), build_jq(3))}
    for name, (g, target) in shapes.items():
        inst = ListedInstance.full(g, target)
        oracle = approx.ExactOracle()
        for seed in range(3):
            rng = pyrng(seed, "pinned-draws", name)
            assert _draws(oracle, inst, target, rng, 5) == _PINNED_DRAWS[name, seed], (name, seed)
    # Fraction weights: the noisy oracle's perturbed counts
    inst = ListedInstance.full(build_path(3), tw)
    oracle = approx.NoisyOracle(0.05, 0.05, seed=3)
    assert _draws(oracle, inst, tw, pyrng("pinned-noisy-draws"), 8) == [
        "r2 r2 r2", "r1 b b", "r1 r1 b", "r1 b r2", "g b g", "r1 b g", "b g b", "r1 b r1",
    ]
    assert oracle.calls == 104


def test_seeded_jvv_and_noisy_runs_are_pinned():
    p3, p4 = build_path(3), build_path(4)
    for g, target in ((K2, K2), (p3, p3)):
        for mode in ("sur", "comp"):
            run = approx.coverage_mc(
                ListedInstance.full(g, target), target, mode, 0.9, 0.3, approx.ExactOracle(), 5,
                force_jvv=True,
            )
            assert (run.m, run.x_total, run.y) == (5526, 5526, 2), (g, mode)
    # overlapping branches, so some samples miss
    inst = ListedInstance.full(p4, K2)
    for mode, want in (("sur", (4211, "33688/17137")), ("comp", (3627, "4464/2197"))):
        run = approx.coverage_mc(inst, K2, mode, 0.95, 0.9, approx.ExactOracle(), 3, force_jvv=True)
        assert (run.x_total, run.y) == (want[0], Fraction(want[1])), mode
    run = approx.coverage_mc(
        ListedInstance.full(K2, K2), K2, "sur", 0.9, 0.35, approx.NoisyOracle(0.05, 0.05, seed=17), 4
    )
    assert (run.x_total, run.y) == (5198, Fraction("2255050628962391/1125899906842624"))
    pk = ListedInstance.full(p3, K2)
    got = approx.powered_count(approx.NoisyOracle(0.1, 0.25, 11), pk, K2, 0.1, 1e-3)
    assert got == Fraction("4494938011717683/2251799813685248")


def test_equal_instances_share_one_oracle_entry():
    tw = build_two_wrench()
    p3 = build_path(3)
    lists = {"c0": frozenset(("b", "g")), "c2": frozenset(("r1",)), "c1": frozenset(tw.vertices)}
    forward = ListedInstance(p3, lists, tw.vertices)
    backward = ListedInstance(p3, dict(reversed(list(lists.items()))), tw.vertices)
    pinned = ListedInstance.full(p3, tw).pin("c2", "r1").pin("c0", "b")
    oracle = approx.ExactOracle()
    assert oracle.count(forward, tw) == oracle.count(backward, tw)
    assert len(oracle._cache) == 1
    assert oracle.count(pinned, tw) == exact.count_list_hom(pinned, tw)
    assert oracle.count(pinned.pin("c0", "b"), tw) == oracle.count(pinned, tw)
    assert len(oracle._cache) == 2


def _linear_scan_index(rng, weights) -> int:
    """The categorical draw as a linear scan over the scaled weights."""
    denom = 1
    for w in weights:
        if isinstance(w, Fraction):
            denom = denom * w.denominator // math.gcd(denom, w.denominator)
    scaled = [int(w * denom) for w in weights]
    r = rng.randrange(sum(scaled))
    acc = 0
    for i, w in enumerate(scaled):
        acc += w
        if r < acc:
            return i


_weights = st.lists(
    st.one_of(st.integers(0, 50), st.fractions(0, 50, max_denominator=30)), min_size=1, max_size=8
).filter(lambda ws: sum(ws) > 0)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_weights, st.integers(0, 2**32))
def test_prefix_sum_draw_matches_linear_scan(weights, seed):
    acc = approx._prefix_sums(weights)
    a, b = random.Random(seed), random.Random(seed)
    for _ in range(20):
        i = approx._draw(a, acc)
        assert i == _linear_scan_index(b, weights)
        assert weights[i] > 0
    assert a.random() == b.random()  # the same random numbers consumed


def test_draw_rejects_vanishing_weights():
    for weights in ([], [0], [0, Fraction(0)]):
        with pytest.raises(ValueError, match="all weights vanish"):
            approx._draw(random.Random(0), approx._prefix_sums(weights))


class _FreshRootExact:
    """Exact counts from an oracle that is not an ExactOracle, so sample_hom
    walks a fresh pinning root on every attempt, as the plain walk does."""

    def __init__(self):
        self._memo = {}

    def count(self, inst, target, eps=None):
        key = approx._instance_key(inst, target)
        if key not in self._memo:
            self._memo[key] = exact.count_list_hom(inst, target)
        return self._memo[key]


def _owned_draws(oracle, inst, target, rng, n):
    """n draws as strings; each returned dict is then cleared, since the
    caller owns it and a later draw must not see the change."""
    out = []
    for _ in range(n):
        tau = approx.sample_hom(oracle, inst, target, 0.05, rng=rng)
        out.append(" ".join(tau[v] for v in inst.pattern.vertices))
        tau.clear()
    return out


def _random_lists(r, g, target, retraction):
    tv = target.vertices
    if retraction:
        return {v: frozenset((r.choice(tv),)) for v in g.vertices if r.random() < 0.3}
    return {v: frozenset(r.sample(tv, r.randint(1, len(tv)))) for v in g.vertices}


def test_pinning_tree_matches_fresh_root_walk():
    tw, j3, h1 = build_two_wrench(), build_jq(3), build_hk(1)
    tree7 = Graph("abcdefg", [("a", "b"), ("b", "c"), ("b", "d"), ("d", "e"), ("e", "f"), ("e", "g")])
    shapes = [(build_path(3), tw), (build_path(5), tw), (build_cycle(6), j3), (tree7, h1)]
    for k, (g, target) in enumerate(shapes):
        inst = ListedInstance.full(g, target)
        a = _owned_draws(approx.ExactOracle(), inst, target, pyrng("tree-vs-fresh", k), 60)
        b = _owned_draws(_FreshRootExact(), inst, target, pyrng("tree-vs-fresh", k), 60)
        assert a == b, (k, g.vertices)
    # random and one-or-all lists on one pattern, all through one ExactOracle,
    # with some values of zero weight
    r = random.Random(7)
    g = build_path(5)
    oracle, zero_branches, checked = approx.ExactOracle(), 0, 0
    for k in range(40):
        inst = ListedInstance(g, _random_lists(r, g, tw, retraction=k % 2 == 1), tw.vertices)
        if exact.count_list_hom(inst, tw) == 0:
            with pytest.raises(ValueError, match="no homomorphisms"):
                approx.sample_hom(oracle, inst, tw, 0.05, rng=pyrng("lists", k))
            continue
        a = _owned_draws(oracle, inst, tw, pyrng("lists", k), 30)
        assert a == _owned_draws(_FreshRootExact(), inst, tw, pyrng("lists", k), 30), k
        tree = oracle.pin_tree(inst, tw)
        zero_branches += sum(
            x == y for x, y in zip([0] + tree.root.acc, tree.root.acc)
        )
        checked += 1
    assert checked >= 20 and zero_branches > 0
    # the literal walk: overlapping witnesses on P4 -> K2
    inst = ListedInstance.full(build_path(4), K2)
    for mode in ("sur", "comp"):
        runs = [
            approx.coverage_mc(inst, K2, mode, 0.95, 0.9, oracle, 8, force_jvv=True)
            for oracle in (approx.ExactOracle(), _FreshRootExact())
        ]
        assert (runs[0].m, runs[0].x_total, runs[0].y) == (runs[1].m, runs[1].x_total, runs[1].y), mode
    # witnesses ({x, y}, x->a y->b) and ({y, z}, y->b z->a) pin to the same
    # instance, so they share the tree's leaves while their draws get
    # different verdicts
    g = Graph(["x", "y", "z", "w"], [("x", "y"), ("y", "z"), ("z", "w")])
    inst = ListedInstance(g, {"x": frozenset("a"), "z": frozenset("a")}, K2.vertices)
    ts = approx.enumerate_T(inst, K2, "sur")
    pinned = [inst.pin(us[0], tau[us[0]]).pin(us[1], tau[us[1]]) for us, tau in ts]
    assert pinned[ts.index((("x", "y"), {"x": "a", "y": "b"}))] == pinned[
        ts.index((("y", "z"), {"y": "b", "z": "a"}))
    ]
    runs = [
        approx.coverage_mc(inst, K2, "sur", 0.9, 0.5, oracle, 11, force_jvv=True)
        for oracle in (approx.ExactOracle(), _FreshRootExact())
    ]
    assert (runs[0].x_total, runs[0].y) == (runs[1].x_total, runs[1].y)


def test_exact_sampler_work_does_not_grow_with_draws(monkeypatch):
    counted = []

    def counting(inst, target):
        counted.append(1)
        return exact.count_list_hom(inst, target)

    monkeypatch.setattr(approx, "count_list_hom", counting)
    tw = build_two_wrench()
    inst = ListedInstance.full(build_path(3), tw)
    oracle, rng = approx.ExactOracle(), pyrng("work")
    calls = []
    for n in (200, 1800):
        for _ in range(n):
            approx.sample_hom(oracle, inst, tw, 0.05, rng=rng)
        calls.append(oracle.calls)
    assert calls[0] == calls[1]
    # one count per distinct instance met, as in the per-draw walk
    assert len(counted) == len(oracle._cache) == 57


def test_noisy_call_streams_match_pyrng():
    for seed in (0, 3, 17):
        family = pyrng_family(seed, "noisy-call")
        for k in range(1, 1001):
            assert family(k).getstate() == pyrng(seed, "noisy-call", k).getstate(), (seed, k)
    assert pyrng_family()(5).getstate() == pyrng(5).getstate()


def test_sample_hom_rejects_seed_with_rng():
    inst = ListedInstance.full(K2, K2)
    with pytest.raises(ValueError, match="not both"):
        approx.sample_hom(approx.ExactOracle(), inst, K2, 0.1, rng=pyrng("x"), seed=3)
