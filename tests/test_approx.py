import hashlib
import math
import random
import statistics
from bisect import bisect_right
from collections import Counter
from fractions import Fraction
from itertools import accumulate, combinations

import pytest
from hypothesis import given, settings, strategies as st

from retraction_lab import approx, exact, reference, verify
from retraction_lab._seeds import pyrng
from retraction_lab.fixedgraphs import (
    build_cycle,
    build_hk,
    build_jq,
    build_path,
    build_reflexive_path,
    build_star,
    build_two_wrench,
)
from retraction_lab.graphs import Graph
from retraction_lab.instances import ListedInstance

K2 = Graph("ab", [("a", "b")])
# shapes whose walk order is not their vertex order: the star's is l1, c,
# l2, l3, the spider's a2, a1, h, c1, b1, b2, the tailed triangle's d, c, a, b
SPIDER = Graph(
    ["h", "a1", "a2", "b1", "b2", "c1"], [("h", "a1"), ("a1", "a2"), ("h", "b1"), ("b1", "b2"), ("h", "c1")]
)
TAILED_TRIANGLE = Graph("abcd", [("a", "b"), ("b", "c"), ("a", "c"), ("c", "d")])


def test_enumerate_T_examples():
    inst = ListedInstance.full(K2, K2)
    assert len(approx.enumerate_T(inst, K2, "sur")) == 2
    assert len(approx.enumerate_T(inst, K2, "comp")) == 2
    single = ListedInstance.full(Graph(["z"]), K2)
    assert approx.enumerate_T(single, K2, "sur") == []
    with pytest.raises(ValueError):
        approx.enumerate_T(inst, K2, "hom")
    # the witness search walks its levels in a loop, so a pattern deeper than
    # the recursion limit lists: P1500 with every list empty but c0's and c1's
    path = build_path(1500)
    lists = {v: frozenset() for v in path.vertices} | {"c0": frozenset("a"), "c1": frozenset("b")}
    deep = ListedInstance(path, lists, K2.vertices)
    assert approx.enumerate_T(deep, K2, "sur") == [(("c0", "c1"), {"c0": "a", "c1": "b"})]


def test_enumerate_T_respects_lists():
    inst = ListedInstance(K2, {"a": frozenset(("a",))}, K2.vertices)
    ts = approx.enumerate_T(inst, K2, "sur")
    assert all(tau["a"] == "a" for us, tau in ts if "a" in dict(tau))


def _witness_corpus():
    """(target name, instance, target): `verify.acceptance8_graph` 0-2 and
    eight seeded random patterns on at most 7 vertices, onto five targets,
    with full lists and with `verify.random_lists`."""
    targets = [
        ("K2", K2), ("2-wrench", build_two_wrench()), ("P3", build_path(3)),
        ("C4", build_cycle(4)), ("reflexive P3", build_reflexive_path(3)),
    ]
    graphs = [verify.acceptance8_graph(i) for i in range(3)]
    graphs += [verify.random_pattern(("witness-pin", i), max_n=7) for i in range(8)]
    for tname, target in targets:
        for gi, g in enumerate(graphs):
            for listed in (False, True):
                lists = verify.random_lists(("witness-pin", tname, gi), g, target) if listed else {}
                yield tname, ListedInstance(g, lists, target.vertices), target


def _witness_digests():
    """Per mode, a digest of every case's witnesses (comp: in order; sur:
    sorted) and the total t per target."""
    h = {"sur": hashlib.sha256(), "comp": hashlib.sha256()}
    ts_per_target: dict = {}
    for tname, inst, target in _witness_corpus():
        for mode in ("sur", "comp"):
            ts = [(us, sorted(tau.items())) for us, tau in approx.enumerate_T(inst, target, mode)]
            h[mode].update(repr(ts if mode == "comp" else sorted(ts)).encode() + b"\0")
            ts_per_target[tname, mode] = ts_per_target.get((tname, mode), 0) + len(ts)
    return {mode: x.hexdigest()[:16] for mode, x in h.items()}, ts_per_target


def test_witness_lists_are_pinned():
    # the sur digest and the totals were computed with the enumerators the
    # covering kernel replaced; the comp digest was re-recorded when
    # `enumerate_T` came to sort each U's witnesses by their images (the
    # same witnesses, as multisets)
    digests, ts_per_target = _witness_digests()
    assert digests == {"sur": "c36a9551522dca76", "comp": "a8fa694dee7c1ea6"}
    assert ts_per_target == {
        ("K2", "sur"): 305, ("K2", "comp"): 1070,
        ("2-wrench", "sur"): 596, ("2-wrench", "comp"): 560,
        ("P3", "sur"): 593, ("P3", "comp"): 897,
        ("C4", "sur"): 1153, ("C4", "comp"): 360,
        ("reflexive P3", "sur"): 638, ("reflexive P3", "comp"): 3914,
    }


def _per_subset_witnesses(inst, target, mode):
    """The witnesses by a second route, the one `enumerate_T` took before it
    listed the capped witness search: each U of |V(H)| up to the cap
    vertices in `combinations` order, and for each the covering kernel's
    maps of G[U], sorted."""
    pv, tv = inst.pattern.vertices, target.vertices
    top = len(tv) if mode == "sur" else len(tv) + 2 * target.edge_count()
    out = []
    for size in range(len(tv), min(len(pv), top) + 1):
        for us in combinations(pv, size):
            sub = ListedInstance(inst.pattern.induced(us), {u: inst.lists[u] for u in us}, tv)
            for image in sorted(exact._covering(sub, target, need_edges=mode == "comp").assignments()):
                out.append((us, {u: tv[t] for u, t in zip(us, image)}))
    return out


def test_enumerate_T_matches_the_per_subset_route():
    # in order and in both modes, which also pins the sur order that
    # test_witness_lists_are_pinned sorts away; seeded patterns of 0-7
    # vertices with random lists onto targets of 1-4 vertices with loops,
    # so that both caps bind, then the pinned witness corpus
    cases = [(inst, target) for _, inst, target in _witness_corpus()]
    for i in range(300):
        rng = pyrng("witness-route", i)
        target = verify.random_graph(rng, rng.randint(1, 4), 0.5, "h", loop_p=0.5)
        tv = target.vertices
        g = verify.random_graph(rng, rng.randint(0, 7), 0.4, "g")
        lists = {v: frozenset(rng.sample(tv, rng.randint(1, len(tv)))) for v in g.vertices}
        cases.append((ListedInstance(g, lists, target.vertices), target))
    listed = 0
    for inst, target in cases:
        for mode in ("sur", "comp"):
            ts = approx.enumerate_T(inst, target, mode)
            assert ts == _per_subset_witnesses(inst, target, mode), (inst.pattern, target, mode)
            listed += len(ts)
    assert listed > 10_000


def _pinned_total(inst, target, ts):
    """Omega by the listing route: the sum of the pinned witnesses' counts."""
    total = 0
    for us, tau in ts:
        pinned = inst
        for u in us:
            pinned = pinned.pin(u, tau[u])
        total += exact.count_list_hom(pinned, target)
    return total


def test_witness_counts_match_the_listing():
    # seeded G(n, 0.3) patterns with |V(H)| - 1 <= n <= |V(H)| + 3 and random
    # lists, so that n > |V(H)| often and the sur cap binds
    targets = [("K2", K2), ("2-wrench", build_two_wrench()), ("P3", build_path(3)), ("J3", build_jq(3))]
    for tname, target in targets:
        k = len(target.vertices)
        for i in range(20):
            rng = pyrng("witness-count", tname, i)
            g = verify.random_graph(rng, rng.randint(k - 1, k + 3), 0.3, "g")
            inst = ListedInstance(g, verify.random_lists(("witness-count", tname, i), g, target), target.vertices)
            for mode in ("sur", "comp"):
                where = (tname, i, mode)
                ts = approx.enumerate_T(inst, target, mode)
                assert approx.count_witnesses(inst, target, mode) == len(ts), where
                assert approx.count_witness_extensions(inst, target, mode) == _pinned_total(inst, target, ts), where
                for weighted in (False, True) if i < 5 else ():
                    # the capped search enumerates what it counts
                    search = exact._witness_search(inst, target, mode, weighted)
                    assert sum(1 for _ in search.assignments()) == search.count(), (where, weighted)


def _naive_t_and_omega(inst, target, mode):
    """t and Omega from `reference` alone: the naive witnesses, and the sum
    of the homomorphisms that extend each."""
    ws = reference.naive_witnesses(inst, target, mode)
    return len(ws), sum(reference.coverage_partition(inst, target, ws)[0])


def _last_step_instances():
    """Seeded instances on which only the last vertex of the kernel's order
    may take one target vertex h, a leaf of the target if it has one: every
    witness covers h, and in comp mode h's edges, at its last step."""
    targets = [build_path(3), build_two_wrench(), build_cycle(4), build_star(3)]
    for i in range(40):
        rng = pyrng("witness-last-step", i)
        target = targets[i % len(targets)]
        tv = target.vertices
        g = verify.random_graph(rng, rng.randint(len(tv), len(tv) + 2), 0.5, "g")
        # lists of two or more values, so no vertex is placed first for a
        # single value and the order is the one of full lists
        last = exact._search(g, {v: frozenset(tv) for v in g.vertices}, target)._order()[-1]
        leaves = [h for h in tv if len(target.neighbors(h) - {h}) == 1]
        h = rng.choice(leaves or tv)
        others = [u for u in tv if u != h]
        lists = {v: frozenset(rng.sample(others, rng.randint(2, len(others)))) for v in g.vertices}
        lists[g.vertices[last]] |= {h}
        yield ListedInstance(g, lists, tv), target, last


def test_witness_counts_match_the_naive_witnesses():
    # t and Omega against `reference` alone, in both modes: K2 plus isolated
    # vertices, where both caps bind (sur 2, comp 4), with full and random
    # lists; then instances whose last step must cover the last target
    # vertex or edge
    cases = []
    for m in range(7):
        g = Graph(["x", "y"] + [f"i{j}" for j in range(m)], [("x", "y")])
        cases.append((ListedInstance.full(g, K2), K2))
        rng = pyrng("witness-naive-caps", m)
        lists = {v: frozenset(rng.sample("ab", rng.randint(1, 2))) for v in g.vertices}
        cases.append((ListedInstance(g, lists, K2.vertices), K2))
    p3_and_two = Graph(["u", "v", "x", "y", "z"], [("x", "y"), ("y", "z")])
    cases.append((ListedInstance.full(p3_and_two, K2), K2))
    found = {"sur": 0, "comp": 0}
    for inst, target in cases:
        for mode in ("sur", "comp"):
            t, omega = _naive_t_and_omega(inst, target, mode)
            assert approx.count_witnesses(inst, target, mode) == t, (inst.pattern, mode)
            assert approx.count_witness_extensions(inst, target, mode) == omega, (inst.pattern, mode)
            found[mode] += t > 0
    assert min(found.values()) >= 12, found
    last_step = {"sur": 0, "comp": 0}
    for inst, target, last in _last_step_instances():
        assert exact._witness_search(inst, target, "sur", False)._order()[-1] == last
        for mode in ("sur", "comp"):
            t, omega = _naive_t_and_omega(inst, target, mode)
            assert approx.count_witnesses(inst, target, mode) == t, (inst.pattern, target, mode)
            assert approx.count_witness_extensions(inst, target, mode) == omega, (inst.pattern, target, mode)
            last_step[mode] += t > 0
    assert min(last_step.values()) >= 10, last_step


def test_witness_counts_examples():
    tw = build_two_wrench()
    # the sur cap binds: only |V(H)| = 4 of the six vertices may cover
    p6 = ListedInstance.full(build_path(6), tw)
    assert approx.count_witnesses(p6, tw, "sur") == len(approx.enumerate_T(p6, tw, "sur")) == 72
    assert approx.count_witness_extensions(p6, tw, "sur") == 120
    # the comp cap (4 onto K2) binds: after the two isolated vertices, the
    # states (a, a) and (a, _|_) cover the same and differ only in the count
    # of covering vertices, which the count's state key must tell apart
    two_and_p3 = ListedInstance.full(Graph(["u", "v", "x", "y", "z"], [("x", "y"), ("y", "z")]), K2)
    ts = approx.enumerate_T(two_and_p3, K2, "comp")
    assert approx.count_witnesses(two_and_p3, K2, "comp") == len(ts) == 46
    assert approx.count_witness_extensions(two_and_p3, K2, "comp") == _pinned_total(two_and_p3, K2, ts) == 88
    # fewer pattern vertices than target vertices: no witness, t = Omega = 0
    for g, target in ((build_path(2), build_path(3)), (build_path(3), tw), (build_path(6), build_jq(3))):
        inst = ListedInstance.full(g, target)
        for mode in ("sur", "comp"):
            assert approx.enumerate_T(inst, target, mode) == []
            assert approx.count_witnesses(inst, target, mode) == 0
            assert approx.count_witness_extensions(inst, target, mode) == 0
    with pytest.raises(ValueError):
        approx.count_witnesses(p6, tw, "hom")


def test_covering_counts_at_the_edges_of_the_packed_key():
    """The covering state packs the fields, the covered target vertices, the
    covered edges and the number used into one int; these shapes put each
    region past a machine word or a byte."""
    # K2 + m isolated vertices: every cap binds, and for m > 60 the fields
    # (3 bits each in sur/comp, 5 weighted) pass 128 bits and the counts 2^64
    for m, mode in ((64, "sur"), (12, "comp"), (70, "comp")):
        g = Graph(["x", "y"] + [f"i{j:02d}" for j in range(m)], [("x", "y")])
        inst = ListedInstance.full(g, K2)
        t = approx.count_witnesses(inst, K2, mode)
        omega = approx.count_witness_extensions(inst, K2, mode)
        if mode == "comp":
            # U is {x, y} and at most two isolated vertices, each free
            assert t == 2 * (1 + 2 * m + 4 * math.comb(m, 2))
            assert omega == 2 ** (m + 1) * (1 + m + math.comb(m, 2))
        if m < 70:
            ts = approx.enumerate_T(inst, K2, mode)
            assert t == len(ts) and omega == _pinned_total(inst, K2, ts), (m, mode)
        if m > 60:
            assert omega > 2**64 and len(g.vertices) * 3 > 128
            sur, comp = exact.count_surjective(inst, K2), exact.count_compaction(inst, K2)
            assert sur == comp == reference.count_compaction_ie(inst, K2) == 2 ** (m + 1) > 2**64
    # the wheel on a 4-cycle with one chord: 9 edges, so the covered edges
    # fill more than a byte; the sur cap binds on the 7-vertex pattern
    rim = [f"c{i}" for i in range(4)]
    wheel_edges = [("h", c) for c in rim] + list(zip(rim, rim[1:] + rim[:1])) + [("c0", "c2")]
    wheel = Graph(["h"] + rim, wheel_edges)
    assert wheel.edge_count() == 9
    inst = ListedInstance.full(Graph(["h", "p", "q"] + rim, wheel_edges + [("c0", "p"), ("p", "q")]), wheel)
    assert exact.count_surjective(inst, wheel) == reference.count_surjective_ie(inst, wheel) > 0
    assert exact.count_compaction(inst, wheel) == reference.count_compaction_ie(inst, wheel) > 0
    for mode in ("sur", "comp"):
        ts = approx.enumerate_T(inst, wheel, mode)
        assert approx.count_witnesses(inst, wheel, mode) == len(ts) > 0, mode
        assert approx.count_witness_extensions(inst, wheel, mode) == _pinned_total(inst, wheel, ts), mode
    # the comp cap (23) cannot bind on 7 vertices; a cap of 6 puts the
    # number used right above the 9 edge bits, checked against the listing
    for outside in ("blank", "valued"):
        search = exact._search(inst.pattern, inst.lists, wheel).cover(31, True, 6, outside)
        assert search.count() == sum(1 for _ in search.assignments()) > 0, outside


def test_omega_is_zero_exactly_when_the_union_is():
    """|union| <= Omega, since every sigma in the union extends a witness;
    and Omega = 0 exactly when |union| = 0, since every sigma counted in
    Omega lies in the union.  The estimator skips Omega on the second."""
    targets = [("K2", K2), ("P3", build_path(3)), ("2-wrench", build_two_wrench()), ("J3", build_jq(3))]
    empty = full = 0
    for tname, target in targets:
        k = len(target.vertices)
        for i in range(15):
            rng = pyrng("omega-union", tname, i)
            g = verify.random_graph(rng, rng.randint(k, k + 3), 0.5, "g")
            inst = ListedInstance(g, verify.random_lists(("omega-union", tname, i), g, target), target.vertices)
            for mode, counter in (("sur", exact.count_surjective), ("comp", exact.count_compaction)):
                where = (tname, i, mode)
                union = counter(inst, target)
                omega = approx.count_witness_extensions(inst, target, mode)
                assert union <= omega, where
                assert (omega == 0) == (union == 0), where
                if union:
                    full += 1
                elif approx.count_witnesses(inst, target, mode):
                    empty += 1
    # neither direction holds vacuously
    assert empty and full, (empty, full)


def test_coverage_zero_shortcircuit():
    single = ListedInstance.full(Graph(["z"]), K2)
    run = approx.coverage_mc(single, K2, "sur", 0.2, 0.1, approx.ExactOracle(), seed=0)
    assert run.t == 0 and run.y == 0


def test_coverage_skips_omega_when_the_union_is_empty(monkeypatch):
    calls = []
    omega_count = approx.count_witness_extensions

    def refuse(*args):
        raise AssertionError("Omega counted although the union is empty")

    monkeypatch.setattr(approx, "count_witness_extensions", refuse)
    # K3 -> K2: six witnesses (an edge onto K2), no homomorphism
    k3 = ListedInstance.full(Graph("xyz", [("x", "y"), ("y", "z"), ("x", "z")]), K2)
    for mode in ("sur", "comp"):
        run = approx.coverage_mc(k3, K2, mode, 0.2, 0.1, approx.ExactOracle(), seed=3)
        assert (run.t, run.omega, run.x_total, run.y, run.m, run.sampler) == (6, 0, 0, 0, 478079, "none")

    def counting(*args):
        calls.append(args)
        return omega_count(*args)

    monkeypatch.setattr(approx, "count_witness_extensions", counting)
    p4 = ListedInstance.full(build_path(4), K2)
    run = approx.coverage_mc(p4, K2, "sur", 0.2, 0.1, approx.ExactOracle(), seed=3)
    assert run.sampler == "collapsed-exact" and len(calls) == 1
    assert run.omega == _pinned_total(p4, K2, approx.enumerate_T(p4, K2, "sur"))


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


def test_estimator_runs_past_the_float_range():
    """520 isolated vertices plus P3 into the 2-wrench: Omega and Y pass
    2^1024.  The draw's ratio |union| / Omega is a correctly rounded int
    division, so it needs no float of Omega."""
    tw = build_two_wrench()
    pattern = Graph([f"i{k:03d}" for k in range(520)] + ["a", "b", "c"], [("a", "b"), ("b", "c")])
    inst = ListedInstance.full(pattern, tw)
    run = approx.coverage_mc(inst, tw, "sur", 0.5, 0.5, approx.ExactOracle(), seed=0)
    assert run.sampler == "collapsed-exact" and run.omega >= 2**1024 and run.y >= 2**1024
    assert math.exp(-0.5) <= run.y / exact.count_surjective(inst, tw) <= math.exp(0.5)


def test_binomial_draw_matches_the_exact_pmf():
    """A chi-squared test of `approx._binomial` against the exact pmf: 0.3
    and 0.002 keep the lower side of the median split, 0.93 the upper side,
    and n = 64 and 65 straddle the switch to single trials.  Bins merge
    until each expects at least 5 draws; the bound is the chi-squared
    quantile at z = 4 (Wilson-Hilferty), 56-101 here, far below a wrong
    draw's statistic: one that keeps j trials on the lower side reads 196,
    409, 239, 36 and 915."""
    rng = random.Random(28)
    draws = 8000
    for n, p in ((100, Fraction(3, 10)), (1000, Fraction(93, 100)), (5000, Fraction(1, 500)),
                 (64, Fraction(1, 2)), (65, Fraction(1, 2))):
        a, b = p.numerator, p.denominator
        mean, sd = float(n * p), math.sqrt(n * p * (1 - p))
        ks = range(max(0, math.floor(mean - 10 * sd)), min(n, math.ceil(mean + 10 * sd)) + 1)
        want = [draws * math.comb(n, k) * a**k * (b - a) ** (n - k) / b**n for k in ks]
        seen = Counter(approx._binomial(rng, n, float(p)) for _ in range(draws))
        bins, e, o = [], 0.0, 0
        for k, w in zip(ks, want):
            e, o = e + w, o + seen.pop(k, 0)
            if e >= 5:
                bins.append([e, o])
                e, o = 0.0, 0
        bins[-1][0] += e
        bins[-1][1] += o
        assert not seen, (n, p, seen)  # no draw outside mean +- 10 sd
        chi2 = sum((o - e) ** 2 / e for e, o in bins)
        dof = len(bins) - 1
        assert chi2 < dof * (1 - 2 / (9 * dof) + 4 * math.sqrt(2 / (9 * dof))) ** 3, (n, p, chi2, dof)


def test_binomial_draw_edges():
    rng = random.Random(0)
    assert approx._binomial(rng, 0, 0.5) == 0
    for n in (1, 64, 65, 10**9):
        assert approx._binomial(rng, n, 0.0) == 0
        assert approx._binomial(rng, n, 1.0) == n
    for n in (64, 65):
        assert all(0 <= approx._binomial(rng, n, p) <= n for p in (1e-300, 0.5, 1 - 2**-53) for _ in range(50))


# (x_total, y) of seeded exact-oracle runs at eps 0.5, delta 0.3, seeds 0-4,
# recorded when the collapsed draw became `approx._binomial` on the
# `pyrng(seed, "coverage", mode)` stream (a new random stream, not a looser
# check); every other case of test_seeded_exact_oracle_runs_are_pinned draws
# x_total = y = 0
_PINNED = {
    ("P5", "2-wrench", "sur"): (
        [53433, 53609, 53441, 54001, 53766],
        ["17811/2984", "53609/8952", "53441/8952", "54001/8952", "8961/1492"],
    ),
    ("P5", "2-wrench", "comp"): ([53712] * 5, ["6"] * 5),
    ("acc1", "2-wrench", "sur"): (
        [98662, 99204, 98459, 99586, 99149],
        ["5130424/322271", "5158608/322271", "5119868/322271", "5178472/322271", "5155748/322271"],
    ),
    ("acc1", "2-wrench", "comp"): (
        [107287, 107604, 107295, 107160, 107331],
        ["3862332/322271", "3873744/322271", "3862620/322271", "3857760/322271", "3863916/322271"],
    ),
    ("acc2", "2-wrench", "sur"): (
        [227968, 228925, 227594, 229386, 228600],
        ["12310272/268559", "12361950/268559", "12290076/268559", "12386844/268559", "12344400/268559"],
    ),
    ("acc2", "2-wrench", "comp"): (
        [305671, 305586, 304968, 304572, 305122],
        ["80085802/1736681", "80063532/1736681", "79901616/1736681", "79797864/1736681", "79941964/1736681"],
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


def _drop_an_extending_witness(enumerate_T):
    """Drops the first witness that extends an earlier one.  Every
    homomorphism extending it extends the earlier one too, so the union, the
    first-occurrence counts and every other |Omega_i| stay as they were."""

    def mutant(inst, target, mode):
        ts = enumerate_T(inst, target, mode)
        for j, (us, tau) in enumerate(ts):
            if any(set(ui) < set(us) and all(ti[u] == tau[u] for u in ui) for ui, ti in ts[:j]):
                return ts[:j] + ts[j + 1 :]
        return ts

    return mutant


@pytest.mark.parametrize(
    "mutate", [_keep_first_witness, _comp_without_edge_filter, _drop_an_extending_witness]
)
def test_exact_expectation_catches_wrong_witnesses(verify_results, monkeypatch, mutate):
    assert verify_results["approx/exact-expectation"].passed
    monkeypatch.setattr(approx, "enumerate_T", mutate(approx.enumerate_T))
    assert not verify.check_exact_expectation().passed


@pytest.mark.parametrize(
    "name, detail", [("count_witnesses", "kernel t"), ("count_witness_extensions", "kernel Omega")]
)
def test_exact_expectation_catches_a_wrong_kernel_count(verify_results, monkeypatch, name, detail):
    assert verify_results["approx/exact-expectation"].passed
    right = getattr(approx, name)
    monkeypatch.setattr(approx, name, lambda inst, target, mode: right(inst, target, mode) + 1)
    result = verify.check_exact_expectation()
    assert not result.passed and result.detail.endswith(detail)


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


class _Counts:
    """An oracle with only count(), answering f(inst, target) and counting
    its calls."""

    def __init__(self, f):
        self.f, self.calls = f, 0

    def count(self, inst, target, eps=None):
        self.calls += 1
        return self.f(inst, target)


def test_sample_hom_rejects_what_a_third_party_oracle_overcounts():
    # ExactOracle and NoisyOracle weigh an instance with no homomorphism 0,
    # so only another oracle's answers reach a leaf that is not one, or a
    # node whose children all weigh 0
    p3 = ListedInstance.full(build_path(3), K2)
    oracle = _Counts(lambda inst, target: exact.count_list_hom(inst, target) + 1)
    rng = pyrng("rejections")
    for _ in range(20):
        tau = approx.sample_hom(oracle, p3, K2, 0.1, rng=rng)
        assert tau["c0"] == tau["c2"] != tau["c1"]
    # one walk asks the root once and each of three vertices' two values
    assert oracle.calls > 20 * 7
    apart = Graph(["x", "y"])
    with pytest.raises(ValueError, match=f"after {approx.MAX_RESAMPLES} resamples"):
        approx.sample_hom(_Counts(lambda inst, target: 1), ListedInstance.full(K2, apart), apart, 0.1, seed=1)
    k2 = ListedInstance.full(K2, K2)
    only_root = _Counts(lambda inst, target: int(inst.lists == k2.lists))
    with pytest.raises(ValueError, match=f"after {approx.MAX_RESAMPLES} resamples"):
        approx.sample_hom(only_root, k2, K2, 0.1, seed=1)
    assert only_root.calls == 1 + 2 * approx.MAX_RESAMPLES
    # an empty list leaves no map, whatever the oracle answers
    empty = ListedInstance(Graph(["x"]), {"x": frozenset()}, K2.vertices)
    with pytest.raises(ValueError, match="no homomorphisms"):
        approx.sample_hom(_Counts(lambda inst, target: 1), empty, K2, 0.1, seed=1)


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


def test_sample_hom_uniformity_where_the_walk_order_is_not_the_vertex_order():
    # the 1/20 bound of verify's jvv-uniformity check, on the 81 maps of the
    # star K_{1,3} into the 2-wrench, whose draws pin a leaf before the centre
    tw = build_two_wrench()
    inst = ListedInstance.full(build_star(3), tw)
    assert exact._walk_order(inst, tw) == ["l1", "c", "l2", "l3"]
    homs = {tuple(sorted(h.items())) for h in exact.enumerate_homs(inst, tw)}
    oracle, rng, n = approx.ExactOracle(), pyrng("uniform-star"), 20_000
    draws = (approx.sample_hom(oracle, inst, tw, 0.05, rng=rng) for _ in range(n))
    counts = Counter(tuple(sorted(tau.items())) for tau in draws)
    assert set(counts) <= homs and len(homs) == 81
    tv = Fraction(1, 2) * sum(abs(Fraction(counts[h], n) - Fraction(1, len(homs))) for h in homs)
    assert tv <= Fraction(1, 20)


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


def test_powered_count_noisy_statistics(verify_results):
    res = verify_results["approx/powered-count"]
    assert res.passed, res.detail


def test_powered_count_check_can_fail(verify_results, monkeypatch):
    assert verify_results["approx/powered-count"].passed
    # powering with one trial: a quarter of the answers fall outside
    monkeypatch.setattr(approx, "POWERING_TRIALS_PER_LOG", 0.1)
    assert not verify.check_powered_count().passed
    monkeypatch.undo()

    # the smallest of the m answers instead of their median
    def smallest(oracle, inst, target, eps, m):
        oracle.calls += m
        return oracle._exact.count(inst, target) * Fraction(min(oracle._factors(eps, m)))

    monkeypatch.setattr(approx.NoisyOracle, "median", smallest)
    result = verify.check_powered_count()
    assert not result.passed and "failures" in result.detail


class _PerCall:
    """An oracle with only count(), answering through a NoisyOracle's count,
    so that powering and sampling take the per-call route."""

    def __init__(self, noisy):
        self.noisy = noisy

    def count(self, inst, target, eps=None):
        return self.noisy.count(inst, target, eps)


def _noisy_twins(fail_prob, seed):
    """Two NoisyOracles on the same stream: one as it is, one behind _PerCall."""
    return approx.NoisyOracle(0.1, fail_prob, seed), _PerCall(approx.NoisyOracle(0.1, fail_prob, seed))


def _same_state(a, b):
    return a.calls == b.noisy.calls and a._rng.getstate() == b.noisy._rng.getstate()


@pytest.mark.parametrize("fail_prob", [0, 0.25, 0.9])
def test_batched_noisy_median_matches_per_call_route(fail_prob):
    tw = build_two_wrench()
    cases = [
        (ListedInstance.full(build_path(3), K2), K2),
        (ListedInstance.full(build_cycle(3), K2), K2),  # no homomorphism: Fraction(0), no draw
        (ListedInstance.full(build_path(4), tw), tw),
    ]
    for eps in (0.05, 0.3):  # below and above eps0 = 0.1
        for delta in (0.2499, 1e-3):  # m = 100 and m = 498
            for k, (inst, target) in enumerate(cases):
                a, b = _noisy_twins(fail_prob, k)
                for _ in range(3):
                    got = approx.powered_count(a, inst, target, eps, delta)
                    assert type(got) is Fraction
                    assert got == approx.powered_count(b, inst, target, eps, delta), (eps, delta, k)
                    assert _same_state(a, b)
                assert (got == 0) == (k == 1)


def test_noisy_sampler_matches_per_call_route():
    tw = build_two_wrench()
    r = random.Random(5)
    g = build_path(4)
    for k in range(12):
        # random lists, so some values weigh zero and some nodes are dead ends
        inst = ListedInstance(g, _random_lists(r, g, tw, retraction=False), tw.vertices)
        a, b = _noisy_twins(0.25, k)
        if exact.count_list_hom(inst, tw) == 0:
            for oracle in (a, b):
                with pytest.raises(ValueError, match="no homomorphisms"):
                    approx.sample_hom(oracle, inst, tw, 0.05, rng=pyrng("noisy-walk", k))
            assert _same_state(a, b)
            continue
        draws = [_owned_draws(oracle, inst, tw, pyrng("noisy-walk", k), 20) for oracle in (a, b)]
        assert draws[0] == draws[1], k
        assert _same_state(a, b)
    # where the walk order is not the vertex order: full lists, then random
    # lists with singletons
    j3 = build_jq(3)
    for k, (g, target) in enumerate(((build_star(3), tw), (SPIDER, j3), (TAILED_TRIANGLE, tw))):
        for lists in ({}, _random_lists(r, g, target, retraction=True)):
            inst = ListedInstance(g, lists, target.vertices)
            a, b = _noisy_twins(0.25, k)
            if exact.count_list_hom(inst, target) == 0:
                continue
            draws = [_owned_draws(oracle, inst, target, pyrng("noisy-order", k), 20) for oracle in (a, b)]
            assert draws[0] == draws[1], (k, lists)
            assert _same_state(a, b)
    for g, target, mode, seed in ((K2, K2, "sur", 1), (build_path(3), K2, "comp", 2)):
        a, b = _noisy_twins(0.25, seed)
        runs = [
            approx.coverage_mc(ListedInstance.full(g, target), target, mode, 0.9, 0.9, oracle, seed)
            for oracle in (a, b)
        ]
        assert (runs[0].omegas, runs[0].x_total, runs[0].y) == (runs[1].omegas, runs[1].x_total, runs[1].y)
        assert _same_state(a, b)


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
    with pytest.raises(ValueError, match="instance lists are over a different target vertex set"):
        approx.lhom_padding(inst, K2)


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
        "r2 r2 r2", "r1 b b", "r1 r1 b", "r1 b r1", "g b r2", "b r2 b", "r2 b g", "b b r2",
    ]
    assert oracle.calls == 104


def test_noisy_perturbed_sums_are_the_prefix_sums_of_the_fraction_answers():
    # `_perturbed` scales its answers to integers itself; the reference is
    # `_prefix_sums` of the answers as Fractions, over a twin oracle's factors
    rng = random.Random(56)
    mine, twin = approx.NoisyOracle(0.3, 0.2, seed=4), approx.NoisyOracle(0.3, 0.2, seed=4)
    for _ in range(20_000):
        sizes = (0, rng.randrange(1, 9), rng.randrange(1, 1 << 12) << rng.randrange(60), rng.getrandbits(90))
        trues = [rng.choice(sizes) for _ in range(rng.randrange(1, 6))]
        eps = rng.choice((None, 0.01, 0.2, 0.5))
        factors = iter(twin._factors(eps, len(trues) - trues.count(0)))
        want = approx._prefix_sums([approx._times(t, next(factors)) if t else 0 for t in trues])
        assert mine._perturbed(list(accumulate(trues)), eps) == want, trues


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
    assert (run.x_total, run.y) == (5198, Fraction("9065994472003405/4503599627370496"))
    pk = ListedInstance.full(p3, K2)
    got = approx.powered_count(approx.NoisyOracle(0.1, 0.25, 11), pk, K2, 0.1, 1e-3)
    assert got == Fraction("4507815932407919/2251799813685248")


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
    # the draw tables: one entry for the forward and backward lists alike
    for inst in (forward, backward):
        approx.sample_hom(oracle, inst, tw, 0.05, seed=3)
    assert len(oracle._tables) == 1
    # equal instances hash equal: the lists in either order, a pinned copy
    # and the same instance built again
    again = ListedInstance(p3, {"c0": frozenset(("b",)), "c2": frozenset(("r1",))}, tw.vertices)
    assert hash(forward) == hash(backward)
    for twin in (pinned.pin("c0", "b"), again):
        assert twin == pinned and hash(twin) == hash(pinned)


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


@pytest.mark.parametrize(
    "total", [1, 2, 3, 4, 5, 7, 8, 9, 255, 256, 257, 2**64 - 1, 2**64, 2**64 + 1, 3**50]
)
def test_draw_consumes_the_randrange_stream(total):
    acc = sorted({total // 3, total // 2, total})
    a, b = random.Random(total), random.Random(total)
    for _ in range(200):
        assert approx._draw(a, acc) == bisect_right(acc, b.randrange(acc[-1]))
    assert a.getstate() == b.getstate()


def test_draw_rejects_vanishing_weights():
    for weights in ([], [0], [0, Fraction(0)]):
        with pytest.raises(ValueError, match="all weights vanish"):
            approx._draw(random.Random(0), approx._prefix_sums(weights))


class _FreshRootExact:
    """Exact counts from an oracle that is not an ExactOracle, so sample_hom
    asks it every count of a walk from a fresh root on every attempt, as
    the plain walk does."""

    def __init__(self):
        self._memo = {}

    def count(self, inst, target, eps=None):
        key = (inst, target)
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


class _Recorder:
    """An oracle with only count(): exact counts, each call recorded as (the
    lists of the instance, a vertex's list written * when it is the whole
    target, eps)."""

    def __init__(self):
        self.seen = []
        self._memo = {}

    def count(self, inst, target, eps=None):
        lists = " ".join("*" if len(s) == len(target) else "|".join(sorted(s)) for s in inst.lists.values())
        self.seen.append((lists, eps))
        if lists not in self._memo:
            self._memo[lists] = exact.count_list_hom(inst, target)
        return self._memo[lists]


def test_a_third_party_oracle_sees_the_same_calls():
    # recorded before the pinning trees of non-exact oracles kept their nodes
    tw = build_two_wrench()
    oracle, rng = _Recorder(), pyrng("recorded-calls")
    for _ in range(2):
        approx.sample_hom(oracle, ListedInstance.full(build_path(3), tw), tw, 0.05, rng=rng)
    assert {eps for _, eps in oracle.seen} == {0.05}
    assert [lists for lists, _ in oracle.seen] == [
        "* * *", "b * *", "g * *", "r1 * *", "r2 * *",
        "r1 b *", "r1 g *", "r1 r1 *", "r1 r2 *", "r1 b b", "r1 b g", "r1 b r1", "r1 b r2",
        "* * *", "b * *", "g * *", "r1 * *", "r2 * *",
        "b b *", "b g *", "b r1 *", "b r2 *", "b b b", "b b g", "b b r1", "b b r2",
    ]
    # powering asks each witness's instance at eps', then every draw asks the
    # calls of one sample_hom call at the sampling precision
    for g, mode, want in (
        (K2, "sur", (3183, 3183, 3399, "aa105936e78e9f98")),
        (build_path(3), "comp", (9547, 3208, 23481, "dddc569b0acb0b62")),
    ):
        oracle = _Recorder()
        run = approx.coverage_mc(ListedInstance.full(g, K2), K2, mode, 0.9, 0.9, oracle, seed=2)
        digest = hashlib.sha256(repr(oracle.seen).encode()).hexdigest()[:16]
        assert (run.m, run.x_total, len(oracle.seen), digest) == want, mode


def test_pinning_tree_matches_fresh_root_walk():
    tw, j3, h1 = build_two_wrench(), build_jq(3), build_hk(1)
    tree7 = Graph("abcdefg", [("a", "b"), ("b", "c"), ("b", "d"), ("d", "e"), ("e", "f"), ("e", "g")])
    shapes = [(build_path(3), tw), (build_path(5), tw), (build_cycle(6), j3), (tree7, h1)]
    shapes += [(build_star(3), tw), (SPIDER, j3), (TAILED_TRIANGLE, tw)]
    for k, (g, target) in enumerate(shapes):
        inst = ListedInstance.full(g, target)
        rngs = [pyrng("tree-vs-fresh", k) for _ in range(2)]
        a = _owned_draws(approx.ExactOracle(), inst, target, rngs[0], 60)
        b = _owned_draws(_FreshRootExact(), inst, target, rngs[1], 60)
        assert a == b, (k, g.vertices)
        # the table draw consumes the random numbers of the walk's `_draw`s
        assert rngs[0].getstate() == rngs[1].getstate(), (k, g.vertices)
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
        rngs = [pyrng("lists", k) for _ in range(2)]
        a = _owned_draws(oracle, inst, tw, rngs[0], 30)
        assert a == _owned_draws(_FreshRootExact(), inst, tw, rngs[1], 30), k
        assert rngs[0].getstate() == rngs[1].getstate(), k
        zero_branches += _zero_weights(oracle.draw_tables(inst, tw))
        checked += 1
    assert checked >= 20 and zero_branches > 0
    # random lists with singletons where the walk order is not the vertex order
    for k, (g, target) in enumerate(shapes[4:] * 6):
        inst = ListedInstance(g, _random_lists(r, g, target, retraction=k % 2 == 0), target.vertices)
        if exact.count_list_hom(inst, target) == 0:
            continue
        a = _owned_draws(oracle, inst, target, pyrng("order-lists", k), 30)
        b = _owned_draws(_FreshRootExact(), inst, target, pyrng("order-lists", k), 30)
        assert a == b, (k, g.vertices)
    # the literal walk: overlapping witnesses on P4 -> K2; on K2 -> K2 and
    # P3 -> P3 every witness pins the whole pattern, so each tree is one leaf;
    # on P3 -> K2 in comp mode the |U| = 3 witnesses have one leaf and the
    # |U| = 2 ones do not
    p3 = build_path(3)
    walks = [(build_path(4), K2, mode, 0.95, 0.9, 8) for mode in ("sur", "comp")]
    walks += [(g, g, mode, 0.9, 0.3, 5) for g in (K2, p3) for mode in ("sur", "comp")]
    walks.append((p3, K2, "comp", 0.9, 0.5, 6))
    one_leaf = []  # per walk, whether each witness pins the whole pattern
    for g, target, mode, eps, delta, seed in walks:
        inst = ListedInstance.full(g, target)
        one_leaf.append({len(us) == len(g) for us, _ in approx.enumerate_T(inst, target, mode)})
        runs = [
            approx.coverage_mc(inst, target, mode, eps, delta, oracle, seed, force_jvv=True)
            for oracle in (approx.ExactOracle(), _FreshRootExact())
        ]
        assert (runs[0].m, runs[0].x_total, runs[0].y) == (runs[1].m, runs[1].x_total, runs[1].y), (
            g.vertices, target.vertices, mode,
        )
    assert one_leaf[2:] == [{True}] * 4 + [{True, False}]
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


def _zero_weights(tables) -> int:
    """The values of zero count over every prefix sum list of the tables
    built so far."""
    accs = [table[0] for memo in tables.tables for table in memo.values() if table[0] is not None]
    return sum(x == y for acc in accs for x, y in zip([0] + acc, acc))


def test_exact_sampler_work_does_not_grow_with_draws(monkeypatch):
    work = []
    for cls, name in ((exact._Search, "_steps"), (exact._Search, "count"), (exact._Search, "_sweep")):

        def recorded(self, *args, _f=getattr(cls, name), _name=name):
            work.append(_name)
            return _f(self, *args)

        monkeypatch.setattr(cls, name, recorded)
    tw = build_two_wrench()
    inst = ListedInstance.full(build_path(3), tw)
    oracle, rng = approx.ExactOracle(), pyrng("work")
    seen = []
    for n in (200, 1800):
        for _ in range(n):
            approx.sample_hom(oracle, inst, tw, 0.05, rng=rng)
        seen.append((oracle.calls, len(work)))
    assert seen[0] == seen[1]
    # one sweep, no count, and one table per (step, state) pair reached: the
    # start state, then one state per neighbourhood of c0's value, then of
    # c1's (b: every value, g: b, r1: b and r1, r2: b and r2)
    tables = oracle.draw_tables(inst, tw)
    assert [len(memo) for memo in tables.tables] == [1, 4, 4]
    assert work.count("_steps") == work.count("_sweep") == 1 and "count" not in work
    assert seen[-1][0] == 9 and not oracle._cache


def test_sample_hom_rejects_seed_with_rng():
    inst = ListedInstance.full(K2, K2)
    with pytest.raises(ValueError, match="not both"):
        approx.sample_hom(approx.ExactOracle(), inst, K2, 0.1, rng=pyrng("x"), seed=3)
