import pytest

from odolab.verify import SUITES, run_all, run_suite


def test_all_suites_pass_with_default_seed():
    for rep in run_all(0):
        assert rep.passed, [c for c in rep.checks if not c.passed]
        assert rep.checks


def test_suite_reports_are_structured():
    rep = run_suite("adjoint", seed=3)
    payload = rep.to_dict()
    assert payload["suite"] == "adjoint"
    assert payload["passed"] is True
    first = payload["checks"][0]
    assert set(first) == {"suite", "case", "metric", "value", "threshold", "passed"}


def test_unknown_suite_rejected():
    with pytest.raises(KeyError):
        run_suite("nope")


def test_suite_registry_names():
    assert set(SUITES) == {"adjoint", "toeplitz", "douglas", "coburn", "wold"}
