"""Acceptance gate: every criterion at its stated size and tolerance, one
pass/fail line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` (or via
`retraction-lab verify all`).  The criteria read one run of every verify
check (the `verify_results` fixture), which takes a few seconds.
"""


def _gate(verify_results, *names):
    """The results of the named checks, each of which must pass."""
    results = [verify_results[name] for name in names]
    for res in results:
        print(res.line())
        assert res.passed, res.line()
    return results


def test_criterion_01_exact_counter_oracle_equivalence(verify_results):
    _gate(verify_results, "oracles/oracle-equivalence")


def test_criterion_02_decomposition_identities(verify_results):
    _gate(verify_results, "oracles/decomposition", "oracles/monotonicity")


def test_criterion_03_csp_parsimony(verify_results):
    _gate(verify_results, "csp/parsimony")


def test_criterion_04_lemma33_structure(verify_results):
    (res,) = _gate(verify_results, "csp/lemma33-structure")
    # all non-empty S over Q <= 4: 1 + 3 + 7 + 15 cases
    assert "26" in res.detail


def test_criterion_05_table1_reproduction(verify_results):
    _gate(verify_results, "types/table1-k1", "types/table1-k2", "types/table1-k3")


def test_criterion_06_type_count_formula_grid(verify_results):
    _gate(verify_results, "types/eq4-grid", "types/symmetry", "types/lemma45-fixed-points")


def test_criterion_07_sandwich_and_dominance(verify_results):
    _gate(verify_results, "types/lemma43-sandwich", "types/lemma47-dominance")


def test_criterion_08_algorithm1_statistics(verify_results):
    (res,) = _gate(verify_results, "approx/algorithm1-statistics")
    # 100 seeded runs per fixture (50 per mode), hit rate at least 85%
    for part in res.detail.split("; "):
        hits, total = part.split(": ")[1].split("/")
        assert int(total) == 100
        assert int(hits) >= 85


def test_criterion_09_exact_expectation(verify_results):
    _gate(verify_results, "approx/exact-expectation")


def test_criterion_10_lemma18_end_to_end(verify_results):
    _gate(verify_results, "gadgets/cut-window", "gadgets/cut-psi", "gadgets/bichromatic-forcing")


def test_criterion_11_largecut_identity(verify_results):
    _gate(verify_results, "gadgets/largecut-identity", "gadgets/largecut-roundtrip")


def test_criterion_12_dirichlet_property(verify_results):
    _gate(verify_results, "gadgets/dirichlet-property")


def test_criterion_13_classifier_table(verify_results):
    _gate(verify_results, "classify/fixture-table")


def test_criterion_14_jvv_sampler_uniformity(verify_results):
    (res,) = _gate(verify_results, "approx/jvv-uniformity")
    assert "10000 samples" in res.detail
    tv = float(res.detail.split("TV = ")[1].split(" ")[0])
    assert tv <= 0.05


def test_criterion_15_padding_and_pinning(verify_results):
    _gate(verify_results, "approx/padding-identity", "gadgets/pin-neighborhood")
