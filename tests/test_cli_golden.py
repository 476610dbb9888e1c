"""Golden CLI outputs: `check`, `classify`, `ghost` and `ds`, human and `--json`,
byte for byte.

The expected stdout and exit codes live in `tests/data/cli_golden.json`.
The inputs of `check` and `classify` are family specs and serialized algebras
without a `cartan` line (so classification runs the Cartan search), written
the way the benchmark's classify workload writes them.  `ghost` runs on
family specs, and `ds` on one odd element inside the semisimple-square cone
and one outside it.  Refactors must leave every entry unchanged;
record the file again only for a deliberate change of output, with

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import contextlib
import io
import json
import os
import sys
from pathlib import Path

import pytest

from superkit.cli import main
from superkit.families import parse_family_spec
from superkit.fileformat import serialize_algebra

GOLDEN = Path(__file__).parent / "data" / "cli_golden.json"

FAMILY_SPECS = ("osp1:1", "osp1:2", "osp1:3", "osp1:4", "product:osp1:1,osp1:2",
                "product:osp1:1,osp1:1,osp1:1", "sl:2:1", "gl:2:2", "sl:3:1",
                "product:osp1:2,gl:1:1")
FILE_SPECS = ("osp1:2", "osp1:3", "product:osp1:1,osp1:2")
VERBS = ("check", "classify")
MODES = ("human", "json")
GHOST_SPECS = ("osp1:1", "osp1:2", "osp1:3", "gl:1:1", "sl:2:1", "toy_odd_semisimple")
DS_CASES = (("gl:1:1", "E12+E21"), ("osp1:1", "a1"))


def _write_cartanless(spec: str, directory: str) -> str:
    text = serialize_algebra(parse_family_spec(spec))
    text = "".join(line for line in text.splitlines(keepends=True)
                   if not line.startswith("cartan "))
    path = os.path.join(directory, spec.replace(":", "_").replace(",", "+") + ".alg")
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


def _run(verb: str, mode: str, source: str, spec: str, extra: tuple,
         directory: str) -> dict:
    arg = spec if source == "--family" else _write_cartanless(spec, directory)
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


if __name__ == "__main__":
    import tempfile
    with tempfile.TemporaryDirectory() as tmp:
        record = {key: _run(verb, mode, source, spec, extra, tmp)
                  for key, verb, mode, source, spec, extra in _cases()}
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n",
                      encoding="utf-8")
    print(f"recorded {len(record)} cases in {GOLDEN}", file=sys.stderr)
