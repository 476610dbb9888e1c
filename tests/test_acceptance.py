"""Acceptance suite: every criterion at its stated tolerance (all exact).

Each test prints one PASS/FAIL line; `superkit verify-all` runs the same
checks from the command line.
"""

import hashlib
import os
import random
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


def _generator_digest(draw, seed, count=50):
    """sha256 of (parity, denominator, integer table) over `count` draws of
    one module generator from Random(seed), each row as (column, entry) pairs."""
    rng = random.Random(seed)
    h = hashlib.sha256()
    for _ in range(count):
        m = draw(rng)
        table = tuple(tuple(tuple(map(tuple, row)) for row in rows) for rows in m._table)
        h.update(repr((m.parity, m._den, table)).encode())
    return h.hexdigest()


# recorded before `reps.conjugate` moved onto the integer table; they pin the
# draw order of the seeded generators, and with it the DS criterion's modules
GENERATOR_DIGESTS = {
    "random_gl11_module": [
        "f9f664e1e4dedcb88996baaec457be05c17467aeecc96264e09838834f71ebac",
        "3109753ecedfc56f47be3e5e72a99599853c37f8709e307bfbeaf083de2355f5",
        "24e7cd7d422fd8a1c4276189117484d3d32dba3588ebb1d87a7ffe41f2088d4c",
        "9e855d152d4538d386ff8161dde504aa085eb24541b1ef713f198c037d0d9aa4",
    ],
    "random_toy_module": [
        "f427b299c243d80371e41b8ec37b035bd3619e9092a3df3fca312835d058d177",
        "a26b0da45e2541b6859a227303b4dfe4452396fe499dfade4faf9e63bbf84953",
        "fe4a17e6b36cc866ea1b5802b3f4a6337945f0c2423aaf8a16325ae9c26a0bfe",
        "b3a1984d09ccfa648d4e401ea4c2ef29c0f9cada5e2e30c5fd9d0a9e4e7327ab",
    ],
}


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("name", ["random_gl11_module", "random_toy_module"])
def test_module_generators_match_their_recorded_digests(name, seed):
    draw = getattr(acceptance, name)
    assert _generator_digest(draw, seed) == GENERATOR_DIGESTS[name][seed]
