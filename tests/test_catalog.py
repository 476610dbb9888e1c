"""The catalog of algebras and their expected outcomes (`superkit.catalog`):
its entries agree with the classification theorem, every Tier-1 entry's
outcomes are recomputed, and the benchmark's spec lists name its entries."""

import ast
import contextlib
import io
import json
import re
from fractions import Fraction as Q
from pathlib import Path

import pytest

from superkit import catalog
from superkit.cli import main
from superkit.enveloping import SEMISIMPLE
from superkit.families import parse_family_spec
from superkit.reps import induced_trivial, is_module_semisimple
from support import outcome_mismatch

ROOT = Path(__file__).resolve().parents[1]


def _factor_specs(spec):
    return spec[len("product:"):].split(",") if spec.startswith("product:") else [spec]


def _has_odd_part(spec):
    kind, *dims = spec.split(":")
    return kind.startswith("toy") or (kind == "osp1" and dims != ["0"]) or (
        kind in ("gl", "sl") and "0" not in dims)


@pytest.mark.parametrize("e", catalog.CATALOG, ids=lambda e: e.spec)
def test_entries_agree_with_the_classification_theorem(e):
    """A product of osp(1|2n) factors and even ones has a zero cone,
    semisimple representations and a semisimple induced module; any other
    factor on the list (gl(m|n) and sl(m|n) with m, n >= 1, the toys) has
    a nonzero odd element with semisimple square.  The odd part of every
    built-in family is traceless under the even part, so the invariant
    lines are 1-dimensional."""
    factors = _factor_specs(e.spec)
    cone_is_zero = all(f.startswith("osp1:") or not _has_odd_part(f) for f in factors)
    if e.classify is not None:
        assert (e.classify != catalog.WITNESS) is cone_is_zero
        if cone_is_zero:
            osp = [f"Osp({f.split(':')[1]})" for f in factors if f.startswith("osp1:")]
            assert [f for f in e.classify if f.startswith("Osp")] == osp
            assert (e.classify == catalog.PURELY_EVEN) is not any(map(_has_odd_part, factors))
    if e.ghost is not None:
        assert (e.ghost == SEMISIMPLE) is cone_is_zero
    if e.induced is not None:
        assert e.induced is cone_is_zero
    assert e.invariant_dim in (None, 1)
    if e.cost == catalog.TIER1:
        assert None not in (e.classify, e.ghost, e.invariant_dim)
        small = len(parse_family_spec(e.spec).odd_indices) <= 4
        assert (e.induced is not None) is small
    for verb, seconds in e.budgets:
        assert seconds > 0
        assert (e.classify if verb == "classify" else e.ghost) is not None, verb


def test_specs_are_unique_and_groups_are_known():
    assert len({e.spec for e in catalog.CATALOG}) == len(catalog.CATALOG)
    known = {catalog.CONE, catalog.RESCALED, catalog.CONSTRUCTION, catalog.CROSS_VALIDATION}
    assert all(set(e.groups) <= known and e.cost == catalog.TIER1
               for e in catalog.CATALOG if e.groups)


@pytest.mark.parametrize("spec", catalog.specs(cost=catalog.TIER1))
def test_tier1_outcomes_match_the_catalog(spec):
    """`classify` and `ghost` as CI runs them (with the same comparison),
    and the induced module where the catalog records it; a witness must be
    a nonzero odd element of the cone."""
    e = catalog.entry(spec)
    g = parse_family_spec(spec)
    for verb in ("classify", "ghost"):
        with contextlib.redirect_stdout(io.StringIO()) as buf:
            code = main(["--json", verb, "--family", spec])
        out = buf.getvalue()
        assert outcome_mismatch(e, verb, code, out) is None, (verb, out)
        if verb == "classify" and e.classify == catalog.WITNESS:
            u = [Q(c) for c in json.loads(out)["coordinates"]]
            assert len(u) == g.dim and not any(u[i] for i in g.even_indices)
            assert g.in_g1ss(u)
    if e.induced is not None:
        assert is_module_semisimple(g, induced_trivial(g)) is e.induced


def test_the_mismatch_names_what_differs():
    osp, gl = catalog.entry("osp1:2"), catalog.entry("gl:1:1")
    assert outcome_mismatch(osp, "classify", 3, '{"outcome": "witness", "coordinates": ["1"]}')
    assert outcome_mismatch(osp, "ghost", 0, '{"verdict": "Semisimple", "invariant_dim": 0}')
    assert outcome_mismatch(osp, "classify", 0, "Traceback") == "exit 0, output is not JSON"
    assert outcome_mismatch(gl, "classify", 3, '{"outcome": "witness", "coordinates": ["0"]}')


def _workload_literals():
    """The spec lists of perfbench/workloads.py, read without importing it."""
    tree = ast.parse((ROOT / "perfbench" / "workloads.py").read_text())
    names = {"CONE_SPECS", "GHOST_SPECS", "CLASSIFY_SPECS", "INDUCED_SPECS"}
    return {t.id: ast.literal_eval(node.value) for node in tree.body
            if isinstance(node, ast.Assign) for t in node.targets
            if isinstance(t, ast.Name) and t.id in names}


def test_the_benchmark_specs_are_catalog_entries():
    """The benchmark keeps its own lists; they must stay on the catalog,
    with the cone workload's algebras its cone group and the classify
    workload's factor lists its outcomes."""
    lists = _workload_literals()
    assert len(lists) == 4
    for spec in (s for specs in lists.values() for s in specs):
        catalog.entry(spec)
    assert set(lists["CONE_SPECS"]) == set(catalog.specs(catalog.CONE))
    for spec, factors in lists["CLASSIFY_SPECS"].items():
        expected = catalog.WITNESS if factors is None else tuple(factors)
        assert catalog.entry(spec).classify == expected, spec
    assert all(catalog.entry(s).induced is not None for s in lists["INDUCED_SPECS"])


def test_no_test_module_imports_another():
    for path in Path(__file__).parent.glob("*.py"):
        assert not re.search(r"^\s*(from|import) test_", path.read_text(), re.M), path.name
