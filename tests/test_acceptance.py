"""Acceptance suite: every criterion at its stated tolerance (all exact).

Each test prints one PASS/FAIL line; `superkit verify-all` runs the same
checks from the command line.
"""

import pytest

from superkit import acceptance


@pytest.mark.parametrize(
    "name,fn", acceptance.CRITERIA, ids=[name for name, _ in acceptance.CRITERIA]
)
def test_criterion(name, fn, capsys):
    try:
        detail = fn(acceptance.DEFAULT_SEED)
    except AssertionError as exc:
        with capsys.disabled():
            print(f"FAIL  {name}: {exc}")
        raise
    with capsys.disabled():
        print(f"PASS  {name}: {detail}")


def test_runner_reports_failures():
    failing = ("always-fails", lambda seed: (_ for _ in ()).throw(AssertionError("boom")))
    acceptance.CRITERIA.append(failing)
    try:
        results = acceptance.run_all(name_filter="always-fails")
        assert len(results) == 1
        assert not results[0].passed
        assert "boom" in results[0].detail
    finally:
        acceptance.CRITERIA.remove(failing)


def test_runner_filter():
    results = acceptance.run_all(name_filter="djokovic")
    assert [r.name for r in results] == ["djokovic-element"]
    assert all(r.passed for r in results)


def test_cross_validation_detail_is_reproducible():
    # elapsed time belongs in CriterionResult.elapsed, not in the detail
    first = acceptance.crit_cross_validation(acceptance.DEFAULT_SEED)
    assert acceptance.crit_cross_validation(acceptance.DEFAULT_SEED) == first
