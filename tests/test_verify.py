import hashlib

from retraction_lab import files, verify
from retraction_lab._seeds import pyrng


def _digest(graphs):
    h = hashlib.sha256()
    for g in graphs:
        h.update(files.serialize_graph(g).encode() + b"\0")
    return h.hexdigest()[:16]


def _girth_graph(i):
    rng = pyrng("girth", i)  # the corpus of check_girth_crosscheck
    return verify.random_graph(rng, rng.randint(1, 8), 0.35, "v", loop_p=0.3)


# (stream, max_n[, p]) of every random_target / random_pattern call in verify
_TARGETS = (("oe", 4), ("dec-t", 4), ("mono", 4), ("g2", 6), ("io", 6), ("pinn", 4), ("pad", 4))
_PATTERNS = (("oe", 6, 0.4), ("dec-p", 6, 0.25), ("mono", 5, 0.4), ("pars-g", 5, 0.5), ("pinn-g", 4, 0.4), ("pad", 4, 0.4))


def test_seeded_corpora_are_pinned():
    seeds = range(300)
    corpora = {
        "random_target": (verify.random_target((s, i), max_n=m) for s, m in _TARGETS for i in seeds),
        "random_pattern": (verify.random_pattern((s, i), max_n=m, p=p) for s, m, p in _PATTERNS for i in seeds),
        "acceptance8_graph": (verify.acceptance8_graph(i) for i in seeds),
        "girth": (_girth_graph(i) for i in seeds),
        "girth5": (
            verify._random_girth5_graph((s, i), allow_loops=loops)
            for s, loops in (("cat", False), ("satw", True))
            for i in seeds
        ),
    }
    assert {name: _digest(graphs) for name, graphs in corpora.items()} == {
        "random_target": "b92ba9c795b09afa",
        "random_pattern": "42ab30a8147068af",
        "acceptance8_graph": "f32f444d5a02fda9",
        "girth": "086ec1a66edd9762",
        "girth5": "30dd4fbe09843013",
    }


# the lines of `retraction-lab verify all`, recorded at the commit before
# each check ran at one size; the n-exact-total totals are the kernel's
# counts of J(5, 4, 1), taken at the commit before that check was added
_PINNED_LINES = [
    'oracles/oracle-equivalence: pass (200 cases x 5 modes)',
    'oracles/decomposition: pass (100 multi-component cases)',
    'oracles/monotonicity: pass',
    'oracles/lemma19-bounds: pass (b<=10, a<=200)',
    'oracles/blocked-roundtrip: pass (4 fixtures)',
    'oracles/girth-crosscheck: pass (200 graphs <= 8 vertices)',
    'oracles/gamma2-phi: pass',
    'oracles/parse-roundtrip: pass',
    'csp/parsimony: pass (100 cases, undirected + directed)',
    'csp/lemma33-structure: pass (26 (q, s) cases)',
    'csp/extreme-assignments: pass',
    'csp/strip-subtract: pass',
    'types/table1-k1: pass (10 rows, projections and size triples)',
    'types/table1-k2: pass (10 rows, projections and size triples)',
    'types/table1-k3: pass (10 rows, projections and size triples)',
    'types/eq4-grid: pass (grid [(1, 1, 1), (2, 2, 1), (1, 2, 1), (2, 1, 1)])',
    'types/n-exact-total: pass (J(5,4,1) into H_1: 17833575, H_2: 79556996)',
    'types/symmetry: pass',
    'types/lemma45-fixed-points: pass',
    'types/lemma43-sandwich: pass ((p,q)=(44,52), least t0=1)',
    'types/lemma47-dominance: pass (gamma=0.2803)',
    'gadgets/dirichlet-property: pass (500 cases)',
    'gadgets/cut-window: pass (T=3, Z/Z*=3)',
    'gadgets/cut-psi: pass',
    'gadgets/bichromatic-forcing: pass',
    'gadgets/largecut-roundtrip: pass',
    'gadgets/largecut-identity: pass (K2, P3 at (5,4,1,1) and (5,4,1,2); C3 at (44,52,81,4))',
    'gadgets/pin-neighborhood: pass (50 cases)',
    'gadgets/j-shapes: pass',
    'approx/exact-expectation: pass',
    'approx/jvv-uniformity: pass (TV = 0.0156 over 10000 samples)',
    'approx/padding-identity: pass (50 cases)',
    'approx/powered-count: pass (0/1000 failures)',
    'approx/seed-determinism: pass',
    'approx/algorithm1-statistics: pass (2-wrench: 100/100; K2: 100/100; P3: 100/100)',
    'classify/fixture-table: pass (12 fixtures)',
    'classify/theorem1-partition: pass (600 random girth->=5 components)',
    'classify/caterpillar-harary: pass (200 cases)',
    'classify/pbrp-implies-bis: pass',
    'classify/sat-witnesses: pass (48 SAT components examined)',
    'classify/component-order: pass',
]


def test_run_lines_are_pinned(verify_results):
    assert [r.line() for r in verify_results.values()] == _PINNED_LINES
