import pytest

from retraction_lab import verify


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
