"""Golden CLI outputs: `check`, `classify`, `ghost`, `ds` and `modcheck`, human
and `--json`, byte for byte.

The expected stdout and exit codes live in `tests/data/cli_golden.json`.
The inputs of `check` and `classify` are family specs and serialized algebras
without a `cartan` line (so classification runs the Cartan search), written
the way the benchmark's classify workload writes them; `check` also reads a
gl(1|1) file whose representation is not faithful.  `ghost` runs on family
specs, and `ds` on one odd element inside the semisimple-square cone and one
outside it, then on the defining, adjoint and trivial modules and on tensor
products with the defining module.  `modcheck` reads a valid gl(1|1) module
file and two corrupted copies of it.  `verify-all --json` at the default
seed is kept in `tests/data/verify_all_golden.json` as its exit code and the
(criterion, passed, detail) triples, without the timings.  Refactors must
leave every entry unchanged; record the files again only for a deliberate
change of output, with

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import contextlib
import io
import json
import os
import sys
from pathlib import Path

import pytest

from superkit import acceptance
from superkit.cli import main
from superkit.families import parse_family_spec
from superkit.fileformat import serialize_algebra
from support import cartanless_text

GOLDEN = Path(__file__).parent / "data" / "cli_golden.json"
VERIFY_ALL_GOLDEN = Path(__file__).parent / "data" / "verify_all_golden.json"

FAMILY_SPECS = ("osp1:1", "osp1:2", "osp1:3", "osp1:4", "product:osp1:1,osp1:2",
                "product:osp1:1,osp1:1,osp1:1", "sl:2:1", "gl:2:2", "sl:3:1",
                "product:osp1:2,gl:1:1")
FILE_SPECS = ("osp1:2", "osp1:3", "product:osp1:1,osp1:2")
VERBS = ("check", "classify")
MODES = ("human", "json")
GHOST_SPECS = ("osp1:1", "osp1:2", "osp1:3", "gl:1:1", "sl:2:1", "toy_odd_semisimple")
DS_CASES = (("gl:1:1", "E12+E21"), ("osp1:1", "a1"))
DS_MODULE_CASES = (("gl:1:1", "E12+E21"), ("sl:2:1", "E23"), ("toy_odd_semisimple", "u"))
DS_MODULES = ("defining", "adjoint", "trivial")

# V (x) V* for the defining module V of gl(1|1), parity even, odd, odd, even
_GL11_MODULE = """module module
parity even odd odd even
action E11
0 0 0 0
0 1 0 0
0 0 -1 0
0 0 0 0
action E12
0 0 1 0
-1 0 0 1
0 0 0 0
0 0 1 0
action E21
0 1 0 0
0 0 0 0
1 0 0 -1
0 1 0 0
action E22
0 0 0 0
0 -1 0 0
0 0 1 0
0 0 0 0
"""
# file name -> text; the corruptions break the law only, and parity and the law
MODULE_FILES = {
    "gl11-valid.mod": _GL11_MODULE,
    "gl11-law.mod": _GL11_MODULE.replace("action E11\n0 0 0 0\n0 1 0 0",
                                         "action E11\n0 0 0 0\n0 2 0 0"),
    "gl11-parity.mod": _GL11_MODULE.replace("action E12\n0 0 1 0",
                                            "action E12\n0 0 1 5"),
}
UNFAITHFUL = "unfaithful:gl:1:1"


def _write_cartanless(spec: str, directory: str) -> str:
    if spec == UNFAITHFUL:
        # E22 acts like E11, so the four matrices are linearly dependent
        text = serialize_algebra(parse_family_spec(spec.split(":", 1)[1]))
        text = text.replace("repmat E22\n0 0\n0 1", "repmat E22\n1 0\n0 0")
    else:
        text = cartanless_text(spec)
    path = os.path.join(directory, spec.replace(":", "_").replace(",", "+") + ".alg")
    return _write(path, text)


def _write(path: str, text: str) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path


def _cases():
    for verb in VERBS:
        for mode in MODES:
            for spec in FAMILY_SPECS:
                yield f"{verb} {mode} --family {spec}", verb, mode, "--family", spec, ()
            for spec in FILE_SPECS:
                yield f"{verb} {mode} --algebra {spec}", verb, mode, "--algebra", spec, ()
    for mode in MODES:
        for spec in GHOST_SPECS:
            yield f"ghost {mode} --family {spec}", "ghost", mode, "--family", spec, ()
        for spec, u in DS_CASES:
            yield (f"ds {mode} --family {spec} --u {u}", "ds", mode, "--family", spec,
                   ("--u", u))
        for spec, u in DS_MODULE_CASES:
            for mod in DS_MODULES:
                yield (f"ds {mode} --family {spec} --u {u} --module {mod}", "ds", mode,
                       "--family", spec, ("--u", u, "--module", mod))
            yield (f"ds {mode} --family {spec} --u {u} --tensor defining", "ds", mode,
                   "--family", spec, ("--u", u, "--tensor", "defining"))
        for name in MODULE_FILES:
            yield (f"modcheck {mode} --family gl:1:1 --module {name}", "modcheck", mode,
                   "--family", "gl:1:1", ("--module", name))
        yield f"check {mode} --algebra {UNFAITHFUL}", "check", mode, "--algebra", UNFAITHFUL, ()


def _run(verb: str, mode: str, source: str, spec: str, extra: tuple,
         directory: str) -> dict:
    arg = spec if source == "--family" else _write_cartanless(spec, directory)
    extra = [_write(os.path.join(directory, a), MODULE_FILES[a]) if a in MODULE_FILES else a
             for a in extra]
    argv = (["--json"] if mode == "json" else []) + [verb, source, arg, *extra]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    return {"exit": code, "stdout": buf.getvalue()}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.mark.parametrize("key, verb, mode, source, spec, extra",
                         list(_cases()), ids=[c[0] for c in _cases()])
def test_cli_output_matches_golden(golden, tmp_path, key, verb, mode, source, spec, extra):
    assert _run(verb, mode, source, spec, extra, str(tmp_path)) == golden[key]


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(c[0] for c in _cases())


def _verify_all() -> dict:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(["--json", "verify-all", "--seed", str(acceptance.DEFAULT_SEED)])
    return {"exit": code, "results": [[r["criterion"], r["passed"], r["detail"]]
                                      for r in json.loads(buf.getvalue())]}


def test_verify_all_json_matches_golden():
    assert _verify_all() == json.loads(VERIFY_ALL_GOLDEN.read_text(encoding="utf-8"))


if __name__ == "__main__":
    import tempfile
    with tempfile.TemporaryDirectory() as tmp:
        record = {key: _run(verb, mode, source, spec, extra, tmp)
                  for key, verb, mode, source, spec, extra in _cases()}
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n",
                      encoding="utf-8")
    VERIFY_ALL_GOLDEN.write_text(json.dumps(_verify_all(), indent=1) + "\n",
                                 encoding="utf-8")
    print(f"recorded {len(record)} cases in {GOLDEN} and {VERIFY_ALL_GOLDEN}",
          file=sys.stderr)
