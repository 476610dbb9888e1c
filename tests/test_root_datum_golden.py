"""Golden Cartan search, root datum and decomposition, as sha256 digests.

For each input the digest is taken over these values, as strings and in
order: the vectors `find_cartan` returns; weight, parity and `space` of every
root of `root_decomposition` on that Cartan; the center and the ideals of
`direct_sum_decompose`, or the error it raises; and the Cartan and the roots
of each factor's own root datum.  The inputs are every `--family` spec of
`tests/data/cli_golden.json`, serialized without its `cartan` line, and the
width-1 rebased draws that `test_roots.py::test_rebased_basis_keeps_the_verdict`
runs.  The digests live in `tests/data/root_datum_golden.json`; record them
again only for a deliberate change of these values, with

    PYTHONPATH=src:tests python tests/test_root_datum_golden.py
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest

from superkit.core import SuperkitError
from superkit.roots import find_cartan, root_decomposition
from support import KNOWN_HANGS, REBASED_SPECS, cartanless, golden_family_specs, rebased

GOLDEN = Path(__file__).parent / "data" / "root_datum_golden.json"


def _rebased(spec, seed):
    try:
        return rebased(spec, seed, 1)
    except ValueError:
        return None


def _cases():
    """(case id, builder) for every input."""
    cases = [(f"family {spec}", lambda s=spec: cartanless(s)) for spec in golden_family_specs()]
    cases += [(f"rebased {spec} {seed}", lambda s=spec, t=seed: _rebased(s, t))
              for spec in REBASED_SPECS for seed in range(8) if (spec, seed) not in KNOWN_HANGS]
    return cases


def _vector(v):
    return " ".join(str(c) for c in v)


def _datum_lines(cartan, roots):
    lines = ["cartan"] + [_vector(t) for t in cartan]
    for r in roots:
        lines.append(f"root {_vector(r.weight)} parity {r.parity}")
        lines += [_vector(u) for u in r.space]
    return lines


def _values(g):
    """The pinned values of the algebra g, as strings in order."""
    try:
        cartan = find_cartan(g)
        datum = root_decomposition(g, cartan)
    except SuperkitError as exc:
        return [f"cartan raises {type(exc).__name__}: {exc}"]
    lines = _datum_lines(cartan, datum.roots)
    try:
        dec = g.direct_sum_decompose()
    except SuperkitError as exc:
        return lines + [f"decompose raises {type(exc).__name__}: {exc}"]
    lines += ["center"] + [_vector(z) for z in dec.center]
    for basis, sub in zip(dec.ideals, dec.subalgebras):
        lines += ["ideal"] + [_vector(v) for v in basis]
        own = sub._root_datum()
        lines += _datum_lines(own.cartan, own.roots)
    return lines


def _digest(g):
    return hashlib.sha256("\n".join(_values(g)).encode()).hexdigest()


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_golden_covers_every_drawn_case(golden):
    assert len(golden) == sum(1 for _, make in _cases() if make() is not None)


@pytest.mark.parametrize("case,make", _cases(), ids=[case for case, _ in _cases()])
def test_cartan_and_root_datum_match_golden(golden, case, make):
    g = make()
    if g is None:
        assert case not in golden
        pytest.skip("the rebased matrices are dependent")
    assert _digest(g) == golden[case]


if __name__ == "__main__":
    record = {}
    for case, make in _cases():
        g = make()
        if g is not None:
            record[case] = _digest(g)
    GOLDEN.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"recorded {len(record)} cases in {GOLDEN}", file=sys.stderr)
