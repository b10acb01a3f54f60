import hashlib

import pytest

from retraction_lab import files, verify
from retraction_lab._seeds import pyrng


@pytest.mark.parametrize("suite", sorted(verify.SUITES))
def test_suite_passes_quick(suite):
    results = verify.run_suite(suite, quick=True)
    failed = [r.line() for r in results if not r.passed]
    assert results and not failed, failed


def test_algorithm1_battery_independent_of_workers(monkeypatch):
    monkeypatch.delenv("RETRACTION_LAB_THREADS", raising=False)
    sequential = verify.algorithm1_battery(runs_per_mode=2)
    monkeypatch.setenv("RETRACTION_LAB_THREADS", "2")
    assert verify.worker_count() == 2
    assert verify.algorithm1_battery(runs_per_mode=2) == sequential


def _digest(graphs):
    h = hashlib.sha256()
    for g in graphs:
        h.update(files.serialize_graph(g).encode() + b"\0")
    return h.hexdigest()[:16]


def _girth_graph(i):
    rng = pyrng("girth", i)  # the corpus of check_girth_crosscheck
    return verify.random_graph(rng, rng.randint(1, 8), 0.35, "v", loop_p=0.3)


# (stream, max_n[, p]) of every random_target / random_pattern call in verify
_TARGETS = (("oe", 4), ("dec-t", 4), ("mono", 4), ("g2", 6), ("io", 6), ("pinn", 4), ("pad", 4), ("kelk", 5))
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
        "random_target": "e22bf8fb2f8fc1f2",
        "random_pattern": "42ab30a8147068af",
        "acceptance8_graph": "f32f444d5a02fda9",
        "girth": "086ec1a66edd9762",
        "girth5": "30dd4fbe09843013",
    }
