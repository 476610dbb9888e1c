"""Structured text formats: round-trips are bit-exact, errors carry lines."""

from collections import Counter
from fractions import Fraction as Q

import pytest

from superkit import catalog, fileformat
from superkit.families import (
    build_gl,
    build_osp1,
    build_product,
    build_toy,
    parse_family_spec,
)
from superkit.fileformat import (
    ParseError,
    parse_algebra,
    parse_module,
    parse_supercomm,
    serialize_algebra,
    serialize_module,
    serialize_supercomm,
)
from superkit.reps import adjoint_module, induced_trivial, validate_module
from superkit.roots import g1ss_structural_scan
from superkit.supercomm import catalog_pairs, coinvariant_dual_pair
from support import cartanless_text, golden_family_specs

@pytest.mark.parametrize("spec", catalog.specs(cost=catalog.TIER1))
def test_algebra_roundtrip_bit_exact(spec):
    g = parse_family_spec(spec)
    text = serialize_algebra(g, "roundtrip")
    g2, name, warnings = parse_algebra(text)
    assert name == "roundtrip"
    # the warnings are validate() then the refusals, with or without a rep
    assert warnings == [] == g2.validate()
    assert parse_algebra(without_rep(text))[2] == []
    assert g2.parity == g.parity
    assert g2.names == g.names
    assert g2.cartan == g.cartan
    for i in range(g.dim):
        for j in range(g.dim):
            assert g2.bracket_basis(i, j) == g.bracket_basis(i, j)
    assert (g2.faithful_rep is None) == (g.faithful_rep is None)
    if g.faithful_rep is not None:
        assert g2.faithful_rep.parity == g.faithful_rep.parity
        for a, b in zip(g2.faithful_rep.action, g.faithful_rep.action):
            assert a == b


def test_rational_strings_roundtrip():
    g = build_gl(1, 1)
    text = serialize_algebra(g, "with-fraction")
    text = text.replace("bracket E11 E12 E12 1", "bracket E11 E12 E12 2/2")
    g2, _, _ = parse_algebra(text)
    assert g2.structure_constant(0, 1, 1) == Q(1)


def test_parse_error_reports_line():
    bad = "algebra x\nbasis a even\nbracket a a a nonsense\n"
    with pytest.raises(ParseError) as err:
        parse_algebra(bad)
    assert "line 3" in str(err.value)


def test_parse_unknown_directive():
    with pytest.raises(ParseError) as err:
        parse_algebra("algebra x\nbasis a even\nfrobnicate 1\n")
    assert "line 3" in str(err.value)


def test_strict_mode_rejects_invalid_axioms_lax_warns():
    text = (
        "algebra broken\n"
        "basis x even\n"
        "basis u odd\n"
        "bracket x u u 1\n"      # antisymmetric partner missing
    )
    with pytest.raises(ParseError):
        parse_algebra(text, strict=True)
    g, _, warnings = parse_algebra(text, strict=False)
    assert warnings


@pytest.mark.parametrize("n", [1, 2])
def test_bare_cartan_line_needs_labels_when_there_is_an_even_part(n):
    # a bare line used to be taken as an empty given Cartan, which leaves a
    # single zero weight and made classify report Inconclusive for osp(1|2n)
    text = serialize_algebra(build_osp1(n), "osp")
    lines = ["cartan" if line.startswith("cartan ") else line
             for line in text.splitlines()]
    with pytest.raises(ParseError) as err:
        parse_algebra("\n".join(lines) + "\n")
    assert f"line {lines.index('cartan') + 1}: cartan names no basis labels" in str(err.value)
    # without the line the Cartan is searched for and the algebra classifies
    g, _, _ = parse_algebra("\n".join(l for l in lines if l != "cartan") + "\n")
    assert g.cartan is None
    report = g1ss_structural_scan(g)
    assert report.witness is None
    assert report.factors == [{"factor": f"Osp({n})", "dim": g.dim}]


def test_bare_cartan_line_is_fine_for_a_purely_odd_algebra():
    g = build_toy("toy_odd_nilpotent")
    text = serialize_algebra(g, "odd")
    assert "cartan" in [line.strip() for line in text.splitlines()]
    g2, _, _ = parse_algebra(text)
    assert g2.cartan == ()


@pytest.mark.parametrize("labels, reason", [
    ("M11 a1", "names an odd basis element"),
    ("M11 B11", "names elements that do not commute"),
    ("M11", "span has dimension 1, its centralizer in the even part 4"),
])
def test_cartan_line_must_span_an_abelian_self_centralizing_even_subalgebra(labels, reason):
    # osp(1|4): its Cartan line reads "cartan M11 M22"
    lines = serialize_algebra(build_osp1(2), "osp").splitlines()
    (at,) = [t for t, line in enumerate(lines) if line.startswith("cartan ")]
    lines[at] = f"cartan {labels}"
    text = "\n".join(lines) + "\n"
    with pytest.raises(ParseError) as err:
        parse_algebra(text)
    assert str(err.value).startswith(f"line {at + 1}: cartan ")
    assert reason in str(err.value)
    assert parse_algebra(text, strict=False)[2] == [str(err.value)]


def test_product_of_cartanless_factors_decomposes_and_roundtrips():
    # restricted subalgebras carry no Cartan, so neither may their product;
    # a Cartan made of only some factors' Cartans must not be taken as given
    subs = build_product([build_osp1(1), build_osp1(1)]).direct_sum_decompose().subalgebras
    assert [s.cartan for s in subs] == [None, None]
    for g in (build_product(subs), build_product([subs[0], build_osp1(1)])):
        assert g.cartan is None
        assert len(g.direct_sum_decompose().ideals) == 2
        text = serialize_algebra(g, "prod")
        assert "cartan" not in [line.split()[0] for line in text.splitlines() if line.split()]
        g2, _, _ = parse_algebra(text)
        assert g2.cartan is None
        for h in (g, g2):
            report = g1ss_structural_scan(h)
            assert report.witness is None
            assert report.factors == [{"factor": "Osp(1)", "dim": 5}] * 2


def test_module_roundtrip():
    g = build_gl(1, 1)
    m = induced_trivial(g)
    text = serialize_module(m, g, "induced")
    m2, name, warnings = parse_module(text, g)
    assert name == "induced" and warnings == []
    assert m2.parity == m.parity
    for a, b in zip(m2.action, m.action):
        assert a == b


def test_module_missing_action_matrix():
    g = build_gl(1, 1)
    text = "module m\nparity even odd\naction E11\n0 0\n0 0\n"
    with pytest.raises(ParseError) as err:
        parse_module(text, g)
    assert "missing action" in str(err.value)


def appended_block(text, header, size):
    """text with one more matrix block (an identity) under `header`, and the
    line number of that header."""
    block = header + "\n" + "".join(
        " ".join("1" if c == r else "0" for c in range(size)) + "\n" for r in range(size))
    return text + block, text.count("\n") + 1


@pytest.mark.parametrize("strict", [True, False])
@pytest.mark.parametrize("label, message", [
    ("B11", "repmat 'B11' repeats the block of line"),
    ("NOPE", "unknown basis label 'NOPE'"),
])
def test_repmat_block_needs_a_new_basis_label(label, message, strict):
    g = build_osp1(1)
    text, line = appended_block(serialize_algebra(g, "x"), f"repmat {label}",
                                g.faithful_rep.dim)
    with pytest.raises(ParseError) as err:
        parse_algebra(text, strict=strict)
    assert str(err.value).startswith(f"line {line}: {message}")


@pytest.mark.parametrize("strict", [True, False])
@pytest.mark.parametrize("label, message", [
    ("E11", "action 'E11' repeats the block of line"),
    ("NOPE", "unknown basis label 'NOPE'"),
])
def test_action_block_needs_a_new_basis_label(label, message, strict):
    g = build_gl(1, 1)
    m = induced_trivial(g)
    text, line = appended_block(serialize_module(m, g, "m"), f"action {label}", m.dim)
    with pytest.raises(ParseError) as err:
        parse_module(text, g, strict=strict)
    assert str(err.value).startswith(f"line {line}: {message}")


def repeat_cases():
    """(directive, parse(text, strict), a valid text, the prefix of the
    entry's line, the rows of its block, and a function from that line to
    a bad copy of the entry, block included)"""
    osp = serialize_algebra(build_osp1(1), "osp")
    g = build_gl(1, 1)
    module = serialize_module(induced_trivial(g), g, "m")
    a, d = catalog_pairs()["two-odd"]
    comm = serialize_supercomm(a, d, "two-odd")

    def bump(line):
        *head, value = line.split()
        return " ".join(head + [str(Q(value) + 5)]) + "\n"

    yield "bracket", parse_algebra, osp, "bracket ", 0, bump
    yield "cartan", parse_algebra, osp, "cartan ", 0, lambda line: "cartan B12\n"
    yield "rep", parse_algebra, osp, "rep ", 0, lambda line: "rep even\n"
    yield "parity", lambda t, strict: parse_module(t, g, strict), module, "parity ", 0, \
        lambda line: "parity " + " ".join(["even"] * (len(line.split()) - 1)) + "\n"
    yield "mul", parse_supercomm, comm, "mul ", 0, bump
    yield "unit", parse_supercomm, comm, "unit ", 0, lambda line: "unit 0 1 0 0\n"
    yield "derivation", parse_supercomm, comm, "derivation", a.dim, \
        lambda line: "derivation\n" + "0 0 0 0\n" * a.dim


@pytest.mark.parametrize("strict", [True, False])
@pytest.mark.parametrize("bad_first", [True, False])
@pytest.mark.parametrize("directive, parse, text, prefix, rows, make_bad",
                         list(repeat_cases()), ids=[c[0] for c in repeat_cases()])
def test_a_repeated_entry_is_refused(directive, parse, text, prefix, rows, make_bad,
                                     bad_first, strict):
    parse(text, strict=strict)
    lines = text.splitlines(keepends=True)
    i = next(k for k, line in enumerate(lines) if line.startswith(prefix))
    entry = "".join(lines[i:i + 1 + rows])
    bad = make_bad(lines[i])
    assert bad != entry
    first, second = (bad, entry) if bad_first else (entry, bad)
    lines[i:i + 1 + rows] = [first, second]
    key = " ".join(first.split()[:4 if directive in ("bracket", "mul") else 1])
    second_line = i + 1 + first.count("\n")
    with pytest.raises(ParseError) as err:
        parse("".join(lines), strict=strict)
    assert str(err.value) == f"line {second_line}: {key} repeats line {i + 1}"


def test_supercomm_roundtrip():
    for name, (a, d) in catalog_pairs().items():
        text = serialize_supercomm(a, d, name)
        a2, d2, name2 = parse_supercomm(text)
        assert name2 == name
        assert a2.parity == a.parity
        assert a2.table == a.table
        assert a2.unit == a.unit
        assert d2 == d


def test_supercomm_requires_unit():
    with pytest.raises(ParseError):
        parse_supercomm("algebra a\nbasis one even\n")


def zero_rep_text(g):
    """g's file with its faithful representation replaced by the zero
    1-dimensional module."""
    text = serialize_algebra(g, "zero-rep")
    text = text[:text.index("\nrep ") + 1]
    return text + "rep even\n" + "".join(f"repmat {nm}\n0\n" for nm in g.names)


def lawless_rep_text():
    """osp(1|2) whose rep sends B11 to diag(1, 2, 3): still injective, but
    no longer a representation."""
    text = serialize_algebra(build_osp1(1), "lawless-rep")
    i = text.index("repmat B11\n") + len("repmat B11\n")
    j = text.index("repmat", i)
    return text[:i] + "1 0 0\n0 2 0\n0 0 3\n" + text[j:]


def test_rep_breaking_the_representation_law_is_rejected():
    text = lawless_rep_text()
    with pytest.raises(ParseError) as err:
        parse_algebra(text)
    assert str(err.value) == "rep: representation law: fails on pair (0,1)"
    g, _, warnings = parse_algebra(text, strict=False)
    assert g.validate() == []
    assert warnings == ["rep: " + validate_module(g, g.faithful_rep)[0]]


def test_unfaithful_rep_is_rejected():
    text = zero_rep_text(build_osp1(1))
    with pytest.raises(ParseError) as err:
        parse_algebra(text)
    assert "not faithful" in str(err.value)
    g, _, warnings = parse_algebra(text, strict=False)
    assert g.faithful_rep.dim == 1
    assert len(warnings) == 1 and "not faithful" in warnings[0]


NOT_FAITHFUL = "rep: the representation is not faithful (its matrices are linearly dependent)"


def broken_jacobi_text(text):
    """An osp(1|2) file with [a1, a1] = -3 B11: the table breaks Jacobi."""
    assert "bracket a1 a1 B11 -2\n" in text
    return text.replace("bracket a1 a1 B11 -2\n", "bracket a1 a1 B11 -3\n")


def without_rep(text):
    return text[:text.index("\nrep ") + 1] if "\nrep " in text else text


def parity_breaking_rep_text():
    """osp(1|2) whose rep gives the even B11 an entry from an odd to an even
    basis vector: still injective, but it breaks the parity."""
    text = serialize_algebra(build_osp1(1), "parity-rep")
    old = "repmat B11\n0 0 0\n0 0 1\n"
    assert old in text
    return text.replace(old, "repmat B11\n0 0 1\n0 0 1\n")


@pytest.mark.parametrize("case", ["jacobi-lawless-rep", "parity-rep", "jacobi-zero-rep"])
def test_parse_warnings_are_validate_then_refusals(case):
    # the parser skips `validate` only behind an accepted rep; whenever the
    # rep is refused, the warnings are the axiom violations, then the refusal
    osp = serialize_algebra(build_osp1(1), "osp1")
    if case == "jacobi-lawless-rep":
        text = broken_jacobi_text(osp)
    elif case == "parity-rep":
        text = parity_breaking_rep_text()
    else:
        # the zero rep obeys the law over any table, but is not faithful
        text = broken_jacobi_text(zero_rep_text(build_osp1(1)))
    g, _, warnings = parse_algebra(text, strict=False)
    axioms, law = g.validate(), validate_module(g, g.faithful_rep)
    assert (axioms != []) == case.startswith("jacobi")
    assert all(w.startswith("jacobi") for w in axioms)
    if case == "jacobi-zero-rep":
        assert law == []
        assert warnings == axioms + [NOT_FAITHFUL]
    else:
        assert law[0].startswith("representation law" if case == "jacobi-lawless-rep"
                                 else "parity: action of e1 at entry (0,2)")
        assert warnings == axioms + ["rep: " + law[0]]
    with pytest.raises(ParseError) as err:
        parse_algebra(text)
    assert str(err.value) == (f"axiom violations: {'; '.join(axioms[:5])}" if axioms
                              else "rep: " + law[0])


def test_an_accepted_rep_spares_the_axiom_check(monkeypatch):
    from superkit.core import LieSuperalgebra
    calls = []
    validate = LieSuperalgebra.validate

    def counted(self):
        calls.append(self)
        return validate(self)

    monkeypatch.setattr(LieSuperalgebra, "validate", counted)
    for spec in catalog.specs(cost=catalog.TIER1):
        g = parse_family_spec(spec)
        text = serialize_algebra(g)
        assert g.faithful_rep is not None
        calls.clear()
        parse_algebra(text)
        assert calls == []
        parse_algebra(without_rep(text))
        assert len(calls) == 1
    calls.clear()
    parse_algebra(zero_rep_text(build_osp1(1)), strict=False)
    assert len(calls) == 1


def dense_serialize_algebra(g, name):
    """`serialize_algebra` through the Fraction views `bracket_sparse` and
    `action`: the bytes the integer serializer must reproduce."""
    lines = [f"algebra {name}"]
    lines += [f"basis {g.names[i]} {'odd' if g.parity[i] else 'even'}" for i in range(g.dim)]
    lines += [f"bracket {g.names[i]} {g.names[j]} {g.names[k]} {c}"
              for i in range(g.dim) for j in range(g.dim) for k, c in g.bracket_sparse(i, j)]
    if g.cartan is not None:
        lines.append("cartan " + " ".join(g.names[i] for i in g.cartan))
    rep = g.faithful_rep
    if rep is not None:
        lines.append("rep " + " ".join("odd" if p else "even" for p in rep.parity))
        lines += dense_matrix_lines("repmat", g.names, rep)
    return "\n".join(lines) + "\n"


def dense_matrix_lines(kind, names, m):
    lines = []
    for nm, mat in zip(names, m.action):
        lines.append(f"{kind} {nm}")
        lines += [" ".join(str(c) for c in row) for row in mat.data]
    return lines


def integer_action(m):
    """m's integer rows (as lists: the builders of products store tuples)
    and their denominator."""
    return [[list(row) for row in rows] for rows in m._table], m._den


# every --family spec of the CLI goldens, and two whose indices reach two digits
@pytest.mark.parametrize("spec", golden_family_specs() + ["osp1:11", "gl:6:5"])
def test_algebra_roundtrip_keeps_the_integer_tables(spec):
    g = parse_family_spec(spec)
    assert len(set(g.names)) == g.dim
    text = serialize_algebra(g, spec)
    assert text == dense_serialize_algebra(g, spec)
    g2, _, warnings = parse_algebra(text)
    assert warnings == []
    assert (g2.names, g2.parity, g2.cartan) == (g.names, g.parity, g.cartan)
    assert (g2._table, g2._den) == (g._table, g._den)
    rep, rep2 = g.faithful_rep, g2.faithful_rep
    assert rep2.parity == rep.parity
    assert integer_action(rep2) == integer_action(rep)


@pytest.mark.parametrize("spec", golden_family_specs())
def test_module_roundtrip_keeps_the_integer_table(spec):
    g = parse_family_spec(spec)
    modules = [adjoint_module(g), g.faithful_rep]
    if len(g.odd_indices) <= 4:
        modules.append(induced_trivial(g))
    for m in modules:
        text = serialize_module(m, g, "m")
        assert text == "\n".join(["module m", "parity " + " ".join(
            "odd" if p else "even" for p in m.parity)] + dense_matrix_lines("action", g.names, m)) + "\n"
        m2, _, warnings = parse_module(text, g)
        assert warnings == []
        assert m2.parity == m.parity
        assert integer_action(m2) == integer_action(m)


def supercomm_cases():
    yield from catalog_pairs().items()
    for spec, names in (("gl:1:1", ("E12", "E21")), ("gl:2:1", ("E13", "E31"))):
        g = parse_family_spec(spec)
        u = [Q(0)] * g.dim
        for nm in names:
            u[g.names.index(nm)] = Q(1)
        yield f"{spec}-dual", coinvariant_dual_pair(g, u)


SUPERCOMM_CASES = dict(supercomm_cases())


@pytest.mark.parametrize("name", list(SUPERCOMM_CASES))
def test_supercomm_roundtrip_keeps_the_integer_table(name):
    a, d = SUPERCOMM_CASES[name]
    a2, d2, _ = parse_supercomm(serialize_supercomm(a, d, name))
    assert (a2._table, a2._den, a2.unit, a2.parity) == (a._table, a._den, a.unit, a.parity)
    assert d2 == d


def test_one_fraction_per_distinct_token(monkeypatch):
    # the cartan-less osp(1|6) file of the CLI goldens and the benchmark
    text = cartanless_text("osp1:3")
    calls = Counter()

    def counted(*args):
        calls[args] += 1
        return Q(*args)

    monkeypatch.setattr(fileformat, "Q", counted)
    parse_algebra(text)
    assert calls and max(calls.values()) == 1
    assert set(calls) <= {(tok,) for tok in text.split()}


@pytest.mark.parametrize("parse, text", [
    (parse_algebra, "algebra a\nbasis x even\nbasis y odd\nbracket x x x 1\n# x again\nbasis x odd\n"),
    (parse_supercomm, "algebra a\nbasis x even\nbasis y odd\nmul x x x 1\n# x again\nbasis x odd\n"),
])
def test_a_repeated_basis_label_is_refused_at_its_line(parse, text):
    with pytest.raises(ParseError) as err:
        parse(text, strict=False)
    assert str(err.value) == "line 6: duplicate basis labels: 'x' repeats line 2"


@pytest.mark.parametrize("spec, labels", [
    ("osp1:11", ("M1_11", "M11_1", "B1_11", "C11_11")),
    ("gl:6:5", ("E1_11", "E11_1", "E10_10")),
    ("sl:6:5", ("E1_11", "E11_1", "D10")),
    ("osp1:9", ("M19", "M91", "B99")),
])
def test_two_digit_indices_are_joined_by_an_underscore(spec, labels):
    names = parse_family_spec(spec).names
    assert len(set(names)) == len(names)
    assert set(labels) <= set(names)
