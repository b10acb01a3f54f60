import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from retraction_lab import approx, exact, gadgets
from retraction_lab.fixedgraphs import build_cycle, build_hk, build_jq
from retraction_lab.graphs import Graph
from retraction_lab.instances import expand_blocked


def star_fixture():
    return Graph(["z", "a", "b", "c"], [("z", "a"), ("z", "b"), ("z", "c")])


def test_dirichlet_worked_examples():
    assert gadgets.dirichlet_approx([Fraction(1, 2)], 4) == ([1], 2)
    assert gadgets.dirichlet_approx([Fraction(3, 2)], 2) == ([3], 2)


def test_dirichlet_needs_positive_p():
    with pytest.raises(ValueError):
        gadgets.dirichlet_approx([Fraction(1, 100)], 4)


# the Dirichlet searches as loops over Fractions, the cross-check for the
# integer comparisons in gadgets


def _nearest_positive(x: Fraction) -> int:
    return max(1, math.floor(x + Fraction(1, 2)))


def _fraction_approx(lams, n):
    if not lams or any(x <= 0 for x in lams):
        raise ValueError("lambdas must be positive and non-empty")
    if n < 1:
        raise ValueError("n must be a positive integer")
    d = len(lams)
    boundary = None
    for r in range(1, n + 1):
        ps = [_nearest_positive(r * lam) for lam in lams]
        scaled = [abs(r * lam - p) ** d * n for lam, p in zip(lams, ps)]
        if all(s < 1 for s in scaled):
            return ps, r
        if boundary is None and all(s <= 1 for s in scaled):
            boundary = (ps, r)
    if boundary is not None:
        return boundary
    raise ValueError("no qualifying (p, r)")


def _fraction_for_error(lams, err_bound, r_max):
    for r in range(1, r_max + 1):
        ps = [_nearest_positive(r * lam) for lam in lams]
        if all(abs(r * lam - p) <= err_bound for lam, p in zip(lams, ps)):
            return ps, r
    raise ValueError(f"no r <= {r_max}")


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError:
        return ValueError


_lambda = st.fractions(0, 5, max_denominator=10**6)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.lists(_lambda, min_size=1, max_size=3), st.integers(1, 1000))
@example([Fraction(1, 2)], 4)  # strict at r = 2
@example([Fraction(1, 4)], 2)  # only the boundary qualifies (r = 2)
@example([Fraction(3, 2)], 2)  # boundary at r = 1 before strict at r = 2
@example([Fraction(3, 2)], 1)  # r * lambda on a half: rounds up to 2
@example([Fraction(1, 100)], 4)  # no positive p qualifies
@example([Fraction(1, 2), Fraction(0)], 10)  # non-positive lambda
@example([Fraction(1, 2)], 0)  # n < 1
def test_dirichlet_approx_matches_fraction_loop(lams, n):
    assert _outcome(gadgets.dirichlet_approx, lams, n) == _outcome(_fraction_approx, lams, n)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    st.lists(_lambda.filter(bool), min_size=1, max_size=3),
    st.fractions(0, 1, max_denominator=10**6),
    st.integers(1, 1000),
)
@example([Fraction(1, 2)], Fraction(1, 2), 1)  # error exactly on the bound
@example([Fraction(1, 2)], Fraction(0), 1)  # no r reaches the error
@example([Fraction(3, 2)], Fraction(1, 2), 1)  # rounds up to 2
def test_dirichlet_for_error_matches_fraction_loop(lams, err, r_max):
    got = _outcome(gadgets.dirichlet_for_error, lams, err, r_max)
    assert got == _outcome(_fraction_for_error, lams, err, r_max)


def test_find_j3_labels():
    j3 = build_jq(3)
    labels = gadgets.find_J3_labels(j3)
    assert labels == {s: s for s in ("w", "x0", "x1", "y0", "y1", "z0", "z1")}
    with pytest.raises(ValueError):
        gadgets.find_J3_labels(build_cycle(6))
    # two disjoint copies: the lexicographically least embedding wins
    # ("qw" sorts before "w", so the q-copy is found first)
    j3b = j3.relabel({v: f"q{v}" for v in j3.vertices})
    both = Graph(
        list(j3.vertices) + list(j3b.vertices), j3.edges() + j3b.edges()
    )
    assert gadgets.find_J3_labels(both)["w"] == "qw"


def test_multiterminal_cut_bruteforce():
    g = star_fixture()
    assert gadgets.min_multiterminal_cut(g, "a", "b", "c") == 2
    assert gadgets.count_multiterminal_cuts_bruteforce(g, "a", "b", "c", 2) == 3
    assert gadgets.count_multiterminal_cuts_bruteforce(g, "a", "b", "c", 0) == 0
    # budgets beyond |E| have no cuts at all
    assert gadgets.count_multiterminal_cuts_bruteforce(g, "a", "b", "c", 5) == 0
    tri = Graph(["a", "b", "c"], [("a", "b"), ("b", "c"), ("a", "c")])
    assert gadgets.count_multiterminal_cuts_bruteforce(tri, "a", "b", "c", 3) == 1


def test_single_edge_gadget_shape():
    # the per-edge gadget at unit sizes: u, v, hub, three terminals and one
    # auxiliary vertex per terminal block
    from retraction_lab.instances import Block, BlockedInstance, Coupling

    j3 = build_jq(3)
    blocks = [Block("u", 1), Block("v", 1), Block("omega", 1)]
    couplings = [Coupling("omega", "u", "cb"), Coupling("omega", "v", "cb")]
    pins = [("omega", "w")]
    for term, slot in (("ta", "x0"), ("tb", "y0"), ("tc", "z0")):
        blk = f"e:{term}"
        blocks += [Block(term, 1), Block(blk, 1)]
        pins.append((term, slot))
        couplings += [
            Coupling("u", blk, "apex"),
            Coupling("v", blk, "apex"),
            Coupling(term, blk, "apex"),
        ]
    blocked = BlockedInstance(tuple(blocks), tuple(couplings), tuple(pins), j3.vertices)
    inst = expand_blocked(blocked)
    assert len(inst.pattern) == 9
    assert exact.count_blocked(blocked, j3) == exact.count_list_hom(inst, j3)


def test_cut_plan_s_formula():
    p3 = Graph(["a", "b", "c"], [("a", "b"), ("b", "c")])
    plan = gadgets.build_cut_instance(
        p3, "a", "b", "c", 2, build_jq(3), delta_prime=Fraction(1, 20)
    )
    assert plan.s == 2 + 2 + 3 * 3  # |E| + ceil(log2 7) |V|
    assert plan.zstar == 2 ** (plan.s * plan.r * (2 - 2))
    assert plan.zstar == 1


def test_cut_plan_rejects_bad_budget():
    g = star_fixture()
    with pytest.raises(ValueError):
        gadgets.build_cut_instance(g, "a", "b", "c", 3, build_jq(3), delta_prime=Fraction(1, 50))


def test_cut_window_and_estimator():
    g = star_fixture()
    plan = gadgets.build_cut_instance(g, "a", "b", "c", 2, build_jq(3), delta_prime=Fraction(1, 50))
    acc = gadgets.cut_accounting(plan)
    assert acc.t_count == 3
    ratio = Fraction(acc.z_value, plan.zstar)
    assert 3 <= ratio <= 3 + Fraction(1, 4)
    # terminal degrees of J3 are powers of two, so the idealized and exact
    # accountings coincide with the blocked homomorphism count
    assert acc.z_by_edge_factors == acc.z_value
    assert exact.count_blocked(plan.blocked, plan.target) == acc.z_value
    assert gadgets.estimate_multiterminal_cuts(plan, gadgets.exact_blocked_oracle, 0.2) == 3
    assert gadgets.estimate_multiterminal_cuts(plan, approx.ExactOracle().count, 0.2) == 3
    noisy = approx.NoisyOracle(0.05, 0.1, seed=3)
    assert gadgets.estimate_multiterminal_cuts(plan, noisy.count, 0.2) == 3


def _cut_plans():
    """The cut plans of verify.check_cut_window and verify.check_cut_psi."""
    j3 = build_jq(3)
    path = Graph(["a", "b", "c"], [("a", "b"), ("b", "c")])
    tri = Graph(["a", "b", "c"], [("a", "b"), ("b", "c"), ("a", "c")])
    return [
        gadgets.build_cut_instance(star_fixture(), "a", "b", "c", 2, j3, delta_prime=Fraction(1, 50)),
        gadgets.build_cut_instance(path, "a", "b", "c", 2, j3, delta_prime=Fraction(1, 20)),
        gadgets.build_cut_instance(tri, "a", "b", "c", 3, j3, delta_prime=Fraction(1, 20)),
    ]


def test_exact_oracle_counts_each_blocked_instance_once(monkeypatch):
    want = [exact.count_blocked(plan.blocked, plan.target) for plan in _cut_plans()]
    counted = []

    def counting(blocked, target):
        counted.append(blocked)
        return exact.count_blocked(blocked, target)

    monkeypatch.setattr(approx, "count_blocked", counting)
    oracle = approx.ExactOracle()
    # plans built anew are equal instances, so they share the memo entries
    for _ in range(3):
        plans = _cut_plans()
        assert [oracle.count(plan.blocked, plan.target, 0.1) for plan in plans] == want
    assert counted == [plan.blocked for plan in plans]
    assert oracle.calls == 9


def test_noisy_oracle_on_blocked_instances():
    plans = _cut_plans()
    eps0 = 0.05
    lo, hi = Fraction(math.exp(-eps0)), Fraction(math.exp(eps0))
    for seed in (0, 3, 17):
        runs = []
        for _ in range(2):
            oracle = approx.NoisyOracle(eps0, 0, seed)
            runs.append([oracle.count(plan.blocked, plan.target) for plan in plans for _ in range(20)])
        assert [str(x) for x in runs[0]] == [str(x) for x in runs[1]]
        for i, got in enumerate(runs[0]):
            plan = plans[i // 20]
            assert lo < got / exact.count_blocked(plan.blocked, plan.target) < hi
        assert len(set(runs[0])) == len(runs[0])  # every call draws afresh


def test_psi_identity_and_kappa4_counterexample():
    j3 = build_jq(3)
    path = Graph(["a", "b", "c"], [("a", "b"), ("b", "c")])
    plan = gadgets.build_cut_instance(path, "a", "b", "c", 2, j3, delta_prime=Fraction(1, 20))
    acc = gadgets.cut_accounting(plan)
    assert all(rec.psi_size == 3 ** (rec.kappa - 3) for rec in acc.records)
    # the stated equality fails at kappa = 4: the free component cannot
    # reuse any adjacent terminal color, so Psi is empty, not d_w^1
    g = star_fixture()
    plan = gadgets.build_cut_instance(g, "a", "b", "c", 2, j3, delta_prime=Fraction(1, 50))
    acc = gadgets.cut_accounting(plan)
    kappa4 = [rec for rec in acc.records if rec.kappa == 4]
    assert kappa4 and all(rec.psi_size == 0 for rec in kappa4)
    assert all(rec.psi_size <= 3 ** (rec.kappa - 3) for rec in acc.records)


def test_choose_pq():
    assert gadgets.choose_pq(1) == (44, 52)
    assert gadgets.choose_pq(2) == (56, 73)
    for k in (1, 2, 3, 4):
        p, q = gadgets.choose_pq(k)
        assert p >= 32 + 12 * k and q >= 32 + 12 * k
        assert 4**q > (4 + k) ** p
        assert 9**q < 4**q * (4 + k) ** p


def test_j_blocked_sizes():
    from retraction_lab.fixedgraphs import build_j_blocked, rebind_target

    hk = build_hk(1)
    j111 = rebind_target(build_j_blocked(1, 1, 1), hk)
    expanded = expand_blocked(j111)
    assert len(expanded.pattern) == 9
    # wiring at unit sizes: three matching edges, two join edges, and the
    # six apex edges (one per A-side, four from the hub)
    assert len(expanded.pattern.non_loop_edges()) == 3 + 2 + 2 + 4
    j231 = rebind_target(build_j_blocked(2, 3, 1), hk)
    assert j231.expansion_size() == 3 + 4 * 2 + 2 * 3


def test_largecut_plan():
    k2 = Graph(["u", "v"], [("u", "v")])
    plan = gadgets.build_largecut_instance(k2, 1, 1, p=1, q=1, t=1, s=1)
    assert plan.blocked.expansion_size() == 17
    assert exact.count_blocked(plan.blocked, plan.target) == exact.count_list_hom(
        expand_blocked(plan.blocked), plan.target
    )
    tri = build_cycle(3)
    defaults = gadgets.build_largecut_instance(tri, 2, 1)
    assert (defaults.t, defaults.s) == (81, 4)
    assert (defaults.p, defaults.q) == (44, 52)
    with pytest.raises(ValueError):
        exact.count_blocked(defaults.blocked, defaults.target)


def test_count_large_cuts():
    k2 = Graph(["u", "v"], [("u", "v")])
    assert gadgets.count_large_cuts_bruteforce(k2, 1) == 1
    assert gadgets.count_large_cuts_bruteforce(k2, 0) == 1
    p3 = Graph(["u", "v", "w"], [("u", "v"), ("v", "w")])
    assert gadgets.count_large_cuts_bruteforce(p3, 1) == 2
    assert gadgets.count_large_cuts_bruteforce(p3, 2) == 1
    assert gadgets.count_large_cuts_bruteforce(p3, 3) == 0


def test_full_hom_histogram_matches_direct_and_formula():
    from retraction_lab import homtypes

    types = dict(homtypes.enumerate_maximal_types(1))
    nt4 = homtypes.n_exact(types["T4"], 1, 1, 1)
    assert nt4 == 0
    k2 = Graph(["u", "v"], [("u", "v")])
    plan = gadgets.build_largecut_instance(k2, 1, 1, p=1, q=1, t=1, s=1)
    hist = gadgets.full_hom_histogram(plan)
    assert hist == gadgets.full_hom_histogram_direct(plan)
    for ell in (1,):
        expected = gadgets.count_large_cuts_bruteforce(k2, ell) * 2 * nt4**2 * 4 ** (plan.s * ell)
        assert hist.get(ell, 0) == expected


def test_pin_neighborhood_examples():
    h1 = build_hk(1)
    k2 = Graph(["u", "v"], [("u", "v")])
    sub = h1.induced(h1.neighbors("b"))
    from retraction_lab.instances import ListedInstance

    lhs = exact.count_list_hom(ListedInstance.full(k2, sub), sub)
    rhs = exact.count_retraction(gadgets.pin_neighborhood_instance(k2, h1, "b"), h1)
    assert lhs == rhs == 9  # Gamma(b) induces a 2-wrench
    single = Graph(["u"])
    assert exact.count_retraction(
        gadgets.pin_neighborhood_instance(single, h1, "b"), h1
    ) == len(h1.neighbors("b"))
    assert exact.count_retraction(
        gadgets.pin_neighborhood_instance(Graph(), h1, "b"), h1
    ) == 1
