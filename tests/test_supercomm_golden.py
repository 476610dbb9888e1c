"""Golden supercommutative tables and splitting witnesses, byte for byte.

The inputs are the four catalog pairs and the coinvariant duals of gl(1|1)
(u = E12+E21), gl(2|1) (u = E13+E31), gl(3|1) (u = E14+E41) and gl(2|2)
(u = E13+E31), the last two 64- and 256-dimensional exterior algebras.  For each, `tests/data/supercomm_golden.json`
keeps the `serialize_supercomm` text of the pair and the exit code and stdout
of `--json witness-splitting --table FILE` on that text; the catalog pairs
also keep those of `--json witness-splitting --catalog NAME`.  Refactors must
leave every entry unchanged; record the file again only for a deliberate
change of output, with

    PYTHONPATH=src python tests/test_supercomm_golden.py
"""

import contextlib
import io
import json
import os
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from superkit.cli import main
from superkit.families import build_gl
from superkit.fileformat import serialize_supercomm
from superkit.supercomm import catalog_pairs, coinvariant_dual_pair

GOLDEN = Path(__file__).parent / "data" / "supercomm_golden.json"
CATALOG = ("exterior1", "torus-exterior", "two-odd", "vanishing")
DUALS = {"gl:1:1": (1, 1, "E12", "E21"), "gl:2:1": (2, 1, "E13", "E31"),
         "gl:3:1": (3, 1, "E14", "E41"), "gl:2:2": (2, 2, "E13", "E31")}


def dual_pair(spec):
    """The coinvariant dual of gl(m|n) with the contragredient action of u."""
    m, n, *names = DUALS[spec]
    g = build_gl(m, n)
    u = [Fraction(0)] * g.dim
    for name in names:
        u[g.names.index(name)] = Fraction(1)
    return coinvariant_dual_pair(g, u)


def _pair(name):
    return catalog_pairs()[name] if name in CATALOG else dual_pair(name)


def _cli(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(["--json", "witness-splitting", *argv])
    return {"exit": code, "stdout": buf.getvalue()}


def _record(name, directory):
    text = serialize_supercomm(*_pair(name), name=name)
    path = os.path.join(directory, name.replace(":", "_") + ".tab")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    out = {"serialized": text, "table": _cli(["--table", path])}
    if name in CATALOG:
        out["catalog"] = _cli(["--catalog", name])
    return out


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(CATALOG + tuple(DUALS))


@pytest.mark.parametrize("name", CATALOG + tuple(DUALS))
def test_supercomm_output_matches_golden(golden, tmp_path, name):
    assert _record(name, str(tmp_path)) == golden[name]


if __name__ == "__main__":
    import tempfile
    with tempfile.TemporaryDirectory() as tmp:
        record = {name: _record(name, tmp) for name in CATALOG + tuple(DUALS)}
    GOLDEN.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"recorded {len(record)} cases in {GOLDEN}", file=sys.stderr)
