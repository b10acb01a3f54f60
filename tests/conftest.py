import pytest

from retraction_lab import verify


@pytest.fixture(scope="session")
def verify_results() -> dict[str, verify.CheckResult]:
    """One run of every verify check, keyed "suite/name", shared by the
    tests that read a check's result."""
    return {f"{r.suite}/{r.name}": r for r in verify.run_suite("all")}


@pytest.fixture
def verify_run_once(monkeypatch, verify_results):
    """`verify.run_suite` answered from the session's one run, for the tests
    of the `verify` command's output."""

    def run_suite(name):
        return [r for r in verify_results.values() if name in ("all", r.suite)]

    monkeypatch.setattr(verify, "run_suite", run_suite)
