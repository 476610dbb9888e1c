"""Command-line interface: verbs, exit codes, machine output, determinism."""

import json
import time

import pytest

from superkit import cli
from superkit.cli import build_parser, main
from superkit.families import build_gl, build_osp1
from superkit.fileformat import serialize_algebra, serialize_module
from superkit.reps import induced_trivial
from support import cartanless_text, golden_family_specs


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_check_families(capsys):
    code, out = run(capsys, "check", "--family", "osp1:1")
    assert code == 0 and "valid" in out
    code, out = run(capsys, "check", "--family", "gl:1:1")
    assert code == 0


def test_check_malformed_file(tmp_path, capsys):
    bad = tmp_path / "bad.alg"
    bad.write_text("algebra x\nbasis a even\nbracket a a b 1\n")
    code, out = run(capsys, "check", "--algebra", str(bad))
    assert code == 2
    assert "line" in out or "unknown" in out


def test_check_axiom_violation_exit_1(tmp_path, capsys):
    text = "algebra broken\nbasis x even\nbasis u odd\nbracket x u u 1\n"
    f = tmp_path / "broken.alg"
    f.write_text(text)
    code, out = run(capsys, "check", "--algebra", str(f))
    assert code == 1
    assert "INVALID" in out


def test_classify_osp(capsys):
    code, out = run(capsys, "classify", "--family", "osp1:2")
    assert code == 0
    assert "Osp(2)" in out


def test_classify_witness_exit_3(capsys):
    code, out = run(capsys, "--json", "classify", "--family", "sl:2:1")
    assert code == 3
    payload = json.loads(out)
    assert payload["outcome"] == "witness"
    assert len(payload["coordinates"]) == 8


def test_classify_product(capsys):
    code, out = run(capsys, "classify", "--family", "product:osp1:1,osp1:1")
    assert code == 0
    assert out.count("Osp(1)") == 2


def test_classify_deterministic(capsys):
    a = run(capsys, "--json", "classify", "--family", "gl:1:1")
    b = run(capsys, "--json", "classify", "--family", "gl:1:1")
    assert a == b
    assert a[0] == 3


@pytest.mark.parametrize("spec, factors", [
    ("osp1:3", ["Osp(3)"]),
    ("product:osp1:1,osp1:2", ["Osp(1)", "Osp(2)"]),
])
def test_classify_decomposes_once(capsys, monkeypatch, spec, factors):
    from superkit import families, roots
    from superkit.core import LieSuperalgebra
    # fresh algebras, as in a new process: no root datum computed yet
    for build in (families.build_gl, families.build_sl, families.build_osp1):
        build.cache_clear()
    calls = []

    def count(owner, name):
        original = getattr(owner, name)

        def counted(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    count(LieSuperalgebra, "direct_sum_decompose")
    # every factor table, through `restricted_subalgebra` or not, is built here
    count(LieSuperalgebra, "_restricted_subalgebra")
    count(roots, "_certify_osp")
    count(roots, "_root_witness")
    count(roots, "root_decomposition")
    code, out = run(capsys, "--json", "classify", "--family", spec)
    assert code == 0
    assert [f["factor"] for f in json.loads(out)["factors"]] == factors
    assert calls.count("direct_sum_decompose") == 1
    # one osp certification per odd factor, one factor table per factor
    assert calls.count("_certify_osp") == len(factors)
    assert calls.count("_restricted_subalgebra") == len(factors)
    # the factors inherit g's root datum instead of decomposing again
    assert calls.count("root_decomposition") == 1
    # each odd root is walked once; every odd root space here is 1-dimensional
    assert calls.count("_root_witness") == len(families.parse_family_spec(spec).odd_indices)


@pytest.mark.parametrize("source", ["--family", "--algebra"])
def test_check_validates_once(tmp_path, capsys, monkeypatch, source):
    # check proves a family's axioms by its defining rep, without validate;
    # the parser validates a file once, and not at all when the file's
    # accepted rep proves the axioms
    from superkit.core import LieSuperalgebra
    calls = []
    validate = LieSuperalgebra.validate

    def counted(self):
        calls.append(self)
        return validate(self)

    monkeypatch.setattr(LieSuperalgebra, "validate", counted)
    if source == "--family":
        code, out = run(capsys, "check", source, "osp1:1")
        assert code == 0 and "valid" in out
        assert len(calls) == 0
        return
    text = serialize_algebra(build_osp1(1))
    for body, expected in ((text, 0), (text[:text.index("rep ")], 1)):
        path = tmp_path / "osp.alg"
        path.write_text(body)
        calls.clear()
        code, out = run(capsys, "check", source, str(path))
        assert code == 0 and "valid" in out
        assert len(calls) == expected


@pytest.mark.parametrize("spec", golden_family_specs() + ["osp1:6", "gl:3:3", "sl:4:2"])
def test_cartanless_file_gets_its_familys_answer(tmp_path, capsys, spec):
    # the Cartan search finds the family's own Cartan on a file without the
    # `cartan` line, so the file classifies exactly as its family does
    from superkit.families import parse_family_spec
    from superkit.fileformat import parse_algebra
    from superkit.roots import cartan_of, find_cartan
    text = cartanless_text(spec)
    assert find_cartan(parse_algebra(text)[0]) == cartan_of(parse_family_spec(spec))
    path = tmp_path / "cartanless.alg"
    path.write_text(text)
    assert (run(capsys, "--json", "classify", "--algebra", str(path))
            == run(capsys, "--json", "classify", "--family", spec))


def test_check_without_source_is_a_parse_error(capsys):
    code, out = run(capsys, "check")
    assert code == 2 and "provide --family SPEC or --algebra FILE" in out


def test_check_has_no_lax_option(tmp_path, capsys):
    # check reports violations instead of refusing the file, so --lax would
    # change nothing
    f = tmp_path / "broken.alg"
    f.write_text("algebra broken\nbasis x even\nbasis u odd\nbracket x u u 1\n")
    with pytest.raises(SystemExit) as exc:
        main(["check", "--lax", "--algebra", str(f)])
    assert exc.value.code == 2


@pytest.mark.parametrize("verb, extra", [("classify", []), ("ghost", []),
                                         ("ds", ["--u", "a1"]),
                                         ("modcheck", ["--module", "m.mod"])])
def test_lax_belongs_to_the_verbs_that_read_it(verb, extra):
    args = build_parser().parse_args([verb, "--lax", "--family", "osp1:1", *extra])
    assert args.lax


def test_one_parser_serves_every_call(capsys):
    # main keeps one parser per process: an argparse error between two calls
    # on different verbs leaves their output as that of fresh calls
    calls = (["--json", "check", "--family", "osp1:2"], ["classify", "--bogus"],
             ["ghost", "--family", "gl:1:1"])

    def outcome(argv):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        return code, capsys.readouterr().out

    reused = [outcome(argv) for argv in calls]
    assert [code for code, _ in reused] == [0, 2, 0]
    fresh = []
    for argv in calls:
        cli._parser.cache_clear()
        fresh.append(outcome(argv))
    assert reused == fresh
    assert cli._parser() is cli._parser()
    assert build_parser() is not build_parser()


def test_two_digit_labels_name_different_elements():
    g = build_gl(6, 5)
    u = cli._parse_element(g, "E1_11+2*E11_1")
    assert {g.names[i]: c for i, c in enumerate(u) if c} == {"E1_11": 1, "E11_1": 2}


def test_classify_has_no_seed_option(capsys):
    # the Cartan search is deterministic and has nothing to seed
    with pytest.raises(SystemExit):
        main(["classify", "--family", "osp1:1", "--seed", "3"])


def test_ghost_osp(capsys):
    code, out = run(capsys, "--json", "ghost", "--family", "osp1:1")
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "Semisimple"
    assert payload["epsilon"] == "1"
    assert payload["invariant_dim"] == 1


def test_ghost_gl11(capsys):
    code, out = run(capsys, "--json", "ghost", "--family", "gl:1:1")
    payload = json.loads(out)
    assert payload["verdict"] == "NotSemisimple"
    assert payload["epsilon"] == "0"


def test_ghost_computes_invariants_once(capsys, monkeypatch):
    from superkit import cli, enveloping
    calls = []
    original = enveloping.invariants

    def counted(g, side):
        calls.append(side)
        return original(g, side)

    # rebind the name wherever a package module holds it
    for module in (cli, enveloping):
        if hasattr(module, "invariants"):
            monkeypatch.setattr(module, "invariants", counted)
    code, out = run(capsys, "ghost", "--family", "gl:2:1")
    assert code == 0 and "invariant dimension: 1" in out
    assert calls == ["right"]


def test_ghost_osp1_5_weight_graded(capsys):
    # a 1024-dimensional quotient; 32 of its subsets have weight zero
    code, out = run(capsys, "--json", "ghost", "--family", "osp1:5")
    assert code == 0
    payload = json.loads(out)
    assert payload["invariant_dim"] == 1
    assert payload["verdict"] == "Semisimple" and payload["epsilon"] == "1"


def test_ghost_over_budget_exits_4_with_the_count(capsys):
    # gl(4|4) has 32 odd basis vectors and 824 410 weight-zero subsets
    # (checked by an independent count in test_enveloping.py); listing their
    # weights first would need 2^32 of them
    start = time.perf_counter()
    code, out = run(capsys, "--json", "ghost", "--family", "gl:4:4")
    assert time.perf_counter() - start < 60
    assert code == 4
    payload = json.loads(out)
    assert payload["outcome"] == "inconclusive"
    assert payload["weight_zero_subsets"] == 824410
    code, out = run(capsys, "ghost", "--family", "gl:4:4")
    assert code == 4 and "824410 weight-zero subsets" in out


def test_ghost_djokovic(capsys):
    code, out = run(capsys, "--json", "ghost", "--djokovic", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["epsilon"] == "15" and payload["ok"]


@pytest.mark.parametrize("n", ["0", "6"])
def test_ghost_djokovic_out_of_range_is_an_input_error(capsys, n):
    code, out = run(capsys, "ghost", "--djokovic", n)
    assert code == 2 and "1 <= n <= 5" in out


@pytest.mark.parametrize("source", [("--family", "gl:1:1"), ("--algebra", "g.alg")],
                         ids=["family", "algebra"])
def test_ghost_djokovic_rejects_an_algebra(tmp_path, capsys, source):
    flag, value = source
    if flag == "--algebra":
        value = str(tmp_path / value)
        (tmp_path / "g.alg").write_text(serialize_algebra(build_gl(1, 1)))
    for mode in ([], ["--json"]):
        code, out = run(capsys, *mode, "ghost", flag, value, "--djokovic", "1")
        assert code == 2 and "--djokovic" in out and "counit" not in out
    code, out = run(capsys, "--json", "ghost", flag, value, "--djokovic", "1")
    assert json.loads(out) == {"error": "--djokovic takes no --family or --algebra"}


def test_ds_induced_vanishes(capsys):
    code, out = run(capsys, "ds", "--family", "gl:1:1", "--u", "E12+E21",
                    "--module", "induced")
    assert code == 0
    assert "DS = 0|0" in out


def test_ds_zero_element(capsys):
    code, out = run(capsys, "ds", "--family", "gl:1:1", "--u", "0,0,0,0",
                    "--module", "defining")
    assert code == 0
    assert "DS = 1|1" in out


def test_ds_rejects_outside_cone(capsys):
    code, out = run(capsys, "ds", "--family", "osp1:1", "--u", "a1")
    assert code == 5


def test_ds_rejects_non_odd_element(capsys):
    code, out = run(capsys, "ds", "--family", "gl:1:1", "--u", "1/2,0,0,0")
    assert code == 2
    assert "purely odd" in out


def test_ds_rejects_an_algebra_without_rep(tmp_path, capsys):
    text = serialize_algebra(build_gl(1, 1))
    f = tmp_path / "norep.alg"
    f.write_text(text[:text.index("\nrep ") + 1])
    code, out = run(capsys, "ds", "--algebra", str(f), "--u", "E12+E21")
    assert code == 2
    assert "faithful representation" in out


def test_ds_tensor_check(capsys):
    code, out = run(capsys, "ds", "--family", "gl:1:1", "--u", "E12+E21",
                    "--module", "defining", "--tensor", "defining")
    assert code == 0
    assert "multiplicative: True" in out


def test_ds_missing_tensor_module_is_an_input_error(tmp_path, capsys):
    code, out = run(capsys, "ds", "--family", "gl:1:1", "--u", "E12+E21",
                    "--tensor", str(tmp_path / "missing.txt"))
    assert code == 2 and "parse error" in out


def test_ds_module_file(tmp_path, capsys):
    g = build_gl(1, 1)
    m = induced_trivial(g)
    f = tmp_path / "mod.txt"
    f.write_text(serialize_module(m, g, "ind"))
    code, out = run(capsys, "ds", "--family", "gl:1:1", "--u", "E12+E21",
                    "--module", str(f))
    assert code == 0 and "DS = 0|0" in out


def test_modcheck_validates_once(tmp_path, capsys, monkeypatch):
    from superkit import cli, fileformat, reps
    g = build_gl(1, 1)
    f = tmp_path / "defining.txt"
    f.write_text(serialize_module(g.faithful_rep, g, "defining"))
    calls = []
    original = reps.validate_module

    def counted(g, m):
        calls.append(m)
        return original(g, m)

    # rebind the name wherever a package module holds it
    for module in (cli, fileformat, reps):
        if hasattr(module, "validate_module"):
            monkeypatch.setattr(module, "validate_module", counted)
    code, out = run(capsys, "modcheck", "--family", "gl:1:1", "--module", str(f))
    assert code == 0 and "valid" in out
    assert len(calls) == 1


def test_modcheck(tmp_path, capsys):
    g = build_gl(1, 1)
    m = induced_trivial(g)
    f = tmp_path / "mod.txt"
    f.write_text(serialize_module(m, g, "ind"))
    code, out = run(capsys, "modcheck", "--family", "gl:1:1", "--module", str(f))
    assert code == 0 and "valid" in out
    text = serialize_module(m, g, "ind")
    header = "action E11\n"
    pos = text.index(header) + len(header)
    eol = text.index("\n", pos)
    broken = text[:pos] + "0 5 0 0" + text[eol:]
    assert broken != text
    f.write_text(broken)
    code, out = run(capsys, "modcheck", "--family", "gl:1:1", "--module", str(f))
    assert code == 1


def test_witness_splitting_catalog(capsys):
    code, out = run(capsys, "witness-splitting", "--catalog", "exterior1")
    assert code == 0 and "u(f) = 1" in out
    code, out = run(capsys, "witness-splitting", "--catalog", "vanishing")
    assert code == 1 and "Vanishing" in out
    code, out = run(capsys, "witness-splitting", "--catalog", "no-such")
    assert code == 2


def test_witness_splitting_from_file(tmp_path, capsys):
    from superkit.fileformat import serialize_supercomm
    from superkit.supercomm import catalog_pairs
    a, d = catalog_pairs()["two-odd"]
    f = tmp_path / "table.txt"
    f.write_text(serialize_supercomm(a, d, "two-odd"))
    code, out = run(capsys, "witness-splitting", "--table", str(f))
    assert code == 0 and "u(f) = 1" in out


def test_witness_splitting_without_a_source_is_a_parse_error(capsys):
    code, out = run(capsys, "witness-splitting")
    assert code == 2
    assert out == "parse error: provide exactly one of --table FILE or --catalog NAME\n"
    code, out = run(capsys, "--json", "witness-splitting")
    assert code == 2
    assert json.loads(out) == {"error": "provide exactly one of --table FILE or --catalog NAME"}


def test_witness_splitting_with_two_sources_is_a_parse_error(tmp_path, capsys):
    from superkit.fileformat import serialize_supercomm
    from superkit.supercomm import catalog_pairs
    f = tmp_path / "table.txt"
    f.write_text(serialize_supercomm(*catalog_pairs()["two-odd"], "two-odd"))
    argv = ("witness-splitting", "--table", str(f), "--catalog", "exterior1")
    code, out = run(capsys, *argv)
    assert code == 2
    assert out == "parse error: provide exactly one of --table FILE or --catalog NAME\n"
    code, out = run(capsys, "--json", *argv)
    assert code == 2
    assert json.loads(out) == {"error": "provide exactly one of --table FILE or --catalog NAME"}


def test_algebra_file_through_cli(tmp_path, capsys):
    from superkit.families import build_osp1
    f = tmp_path / "osp.alg"
    f.write_text(serialize_algebra(build_osp1(1), "osp1"))
    code, out = run(capsys, "classify", "--algebra", str(f))
    assert code == 0 and "Osp(1)" in out


def test_unfaithful_rep_file_is_a_parse_error(tmp_path, capsys):
    from superkit.families import build_osp1
    g = build_osp1(1)
    text = serialize_algebra(g, "zero-rep")
    text = text[:text.index("\nrep ") + 1]
    f = tmp_path / "zero-rep.alg"
    f.write_text(text + "rep even\n" + "".join(f"repmat {nm}\n0\n" for nm in g.names))
    code, out = run(capsys, "classify", "--algebra", str(f))
    assert code == 2 and "not faithful" in out
    code, out = run(capsys, "--json", "check", "--algebra", str(f))
    assert code == 1 and json.loads(out)["valid"] is False


def test_lawless_rep_file_is_a_parse_error(tmp_path, capsys):
    # B11 acts by diag(1, 2, 3): the rep stays injective, and classify used
    # to certify a witness through it
    text = serialize_algebra(build_osp1(1), "lawless-rep")
    f = tmp_path / "lawless-rep.alg"
    f.write_text(text.replace("repmat B11\n0 0 0\n0 0 1\n0 0 0\n",
                              "repmat B11\n1 0 0\n0 2 0\n0 0 3\n"))
    code, out = run(capsys, "classify", "--algebra", str(f))
    assert (code, out) == (2, "parse error: rep: representation law: fails on pair (0,1)\n")
    code, out = run(capsys, "check", "--algebra", str(f))
    assert code == 1 and "INVALID" in out and "representation law" in out


@pytest.mark.parametrize("argv", [
    ["classify"],
    ["ds", "--u", "a1", "--module", "trivial"],
], ids=["classify", "ds"])
def test_lax_lawless_rep_is_inconclusive(tmp_path, capsys, argv):
    # every cone test runs through the rep: under --lax, classify used to
    # certify the witness a1 of osp(1|2), whose cone is zero, and exit 3
    text = serialize_algebra(build_osp1(1), "lawless-rep")
    f = tmp_path / "lawless-rep.alg"
    f.write_text(text.replace("repmat B11\n0 0 0\n0 0 1\n0 0 0\n",
                              "repmat B11\n1 0 0\n0 2 0\n0 0 3\n"))
    reason = "rep: representation law: fails on pair (0,1)"
    assert main([argv[0], "--lax", "--algebra", str(f), *argv[1:]]) == 4
    captured = capsys.readouterr()
    assert captured.out == f"Inconclusive: {reason}\n"
    assert captured.err == f"warning: {reason}\n"
    assert main(["--json", argv[0], "--lax", "--algebra", str(f), *argv[1:]]) == 4
    assert json.loads(capsys.readouterr().out) == {"outcome": "inconclusive", "reason": reason}


def test_lax_prints_each_parser_warning_on_stderr(tmp_path, capsys):
    # a file that breaks Jacobi and has no rep: ghost under --lax names
    # every violation on stderr, and stdout the first one as inconclusive
    text = serialize_algebra(build_osp1(1), "broken")
    text = text[:text.index("rep ")].replace("bracket a1 a1 B11 -2\n", "bracket a1 a1 B11 -3\n")
    f = tmp_path / "broken.alg"
    f.write_text(text)
    code, out = run(capsys, "ghost", "--algebra", str(f))
    assert code == 2 and out.startswith("parse error: axiom violations: ")
    from superkit.fileformat import parse_algebra
    warnings = parse_algebra(text, strict=False)[2]
    assert warnings
    assert main(["ghost", "--lax", "--algebra", str(f)]) == 4
    captured = capsys.readouterr()
    assert captured.err == "".join(f"warning: {w}\n" for w in warnings)
    assert captured.out == f"Inconclusive: {warnings[0]}\n"


def test_lax_ghost_on_a_table_that_breaks_the_axioms_is_inconclusive(tmp_path, capsys):
    # osp(1|2) with [a1, a1] = -3 B11 and its rep: ghost --lax used to print
    # "verdict: Semisimple" and exit 0; the criterion means nothing off a Lie
    # superalgebra, so it reports the first axiom violation and exits 4
    from superkit.fileformat import parse_algebra
    text = serialize_algebra(build_osp1(1), "broken").replace(
        "bracket a1 a1 B11 -2\n", "bracket a1 a1 B11 -3\n")
    f = tmp_path / "broken.alg"
    f.write_text(text)
    warnings = parse_algebra(text, strict=False)[2]
    reason = "jacobi: fails at triple (1,3,4)"
    assert warnings[0] == reason and warnings[-1].startswith("rep: representation law")
    assert main(["ghost", "--lax", "--algebra", str(f)]) == 4
    captured = capsys.readouterr()
    assert captured.out == f"Inconclusive: {reason}\n"
    assert captured.err == "".join(f"warning: {w}\n" for w in warnings)
    assert main(["--json", "ghost", "--lax", "--algebra", str(f)]) == 4
    assert json.loads(capsys.readouterr().out) == {"outcome": "inconclusive", "reason": reason}


@pytest.mark.parametrize("edit", [
    ("repmat B11\n0 0 0\n0 0 1\n0 0 0\n", "repmat B11\n1 0 0\n0 2 0\n0 0 3\n"),
    ("cartan M11\n", "cartan a1\n"),
], ids=["lawless-rep", "odd-cartan"])
def test_lax_ghost_reads_only_the_table(tmp_path, capsys, edit):
    # a rep or cartan refusal alone leaves the table a Lie superalgebra, and
    # ghost reads nothing else: it prints the family's verdict
    text = serialize_algebra(build_osp1(1), "osp1")
    assert edit[0] in text
    f = tmp_path / "refused.alg"
    f.write_text(text.replace(*edit))
    _, expected = run(capsys, "ghost", "--family", "osp1:1")
    assert main(["ghost", "--lax", "--algebra", str(f)]) == 0
    captured = capsys.readouterr()
    assert captured.out == expected and captured.err.startswith("warning: ")


def test_verify_all_filter(capsys):
    code, out = run(capsys, "verify-all", "--filter", "splitting")
    assert code == 0
    assert "PASS" in out and "splitting-obstruction" in out
    assert "ghost-criterion" not in out


def test_seed_env_override(capsys, monkeypatch):
    monkeypatch.setenv("SUPERKIT_SEED", "12345")
    code, out = run(capsys, "verify-all", "--filter", "splitting")
    assert code == 0
