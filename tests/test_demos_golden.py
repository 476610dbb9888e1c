"""Golden demo outputs: each script in `demos/` prints exactly what
`tests/data/demos/<name>.out` holds.

The demos are deterministic, so any change of their stdout is a change of
behaviour.  Refactors must leave every file unchanged; record them again
only for a deliberate change of output, with

    PYTHONPATH=src python tests/test_demos_golden.py
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
GOLDEN = Path(__file__).parent / "data" / "demos"


def _run(demo: Path) -> str:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, str(demo)], env=env, capture_output=True,
                          text=True, check=True, timeout=120)
    return done.stdout


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_output_matches_golden(demo):
    assert _run(demo) == (GOLDEN / f"{demo.stem}.out").read_text(encoding="utf-8")


def test_golden_covers_every_demo():
    assert sorted(p.stem for p in GOLDEN.glob("*.out")) == [d.stem for d in DEMOS]


if __name__ == "__main__":
    GOLDEN.mkdir(parents=True, exist_ok=True)
    for demo in DEMOS:
        (GOLDEN / f"{demo.stem}.out").write_text(_run(demo), encoding="utf-8")
    print(f"recorded {len(DEMOS)} demos in {GOLDEN}", file=sys.stderr)
