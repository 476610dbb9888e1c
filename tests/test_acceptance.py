"""Acceptance suite: every criterion at its stated tolerance (all exact).

Each test prints one PASS/FAIL line; `superkit verify-all` runs the same
checks from the command line.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import superkit
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


def test_classification_needs_only_the_standard_library():
    # sympy and hypothesis are test-only; with both made unimportable the
    # classification criterion (Cartan search, root decomposition, minimal
    # polynomials, squarefree tests, rational roots) must still pass
    code = ("import sys; sys.modules['sympy'] = sys.modules['hypothesis'] = None; "
            "from superkit.cli import main; "
            "sys.exit(main(['verify-all', '--filter', 'classification']))")
    src = str(Path(superkit.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    result = subprocess.run([sys.executable, "-c", code], capture_output=True,
                            text=True, env=env, timeout=120)
    assert result.returncode == 0, result.stdout + result.stderr
    assert result.stdout.startswith("PASS  classification")
