"""Core Lie superalgebra type: axioms, brackets, structural predicates."""

import random
import re
from fractions import Fraction as Q

import pytest

from superkit import catalog
from superkit.core import (
    EVEN,
    ODD,
    LieSuperalgebra,
    NotSemisimpleStructure,
    SuperkitError,
    _format_terms,
)
from superkit.families import (
    algebra_from_matrices,
    build_gl,
    build_osp1,
    build_product,
    build_sl,
    build_toy,
    parse_family_spec,
)
from superkit.linalg import (Echelon, Matrix, is_squarefree, is_zero_vec, minimal_polynomial,
                             span_basis, zero_vec)
from superkit.reps import SuperModule, is_module_semisimple
from support import (cartanless, fresh, odd_part_as_even_module, rescale_factors, rescaled,
                     same_span, unit_vec)


def abelian(dim_even=1, dim_odd=0):
    parity = [EVEN] * dim_even + [ODD] * dim_odd
    return LieSuperalgebra(parity, {})


# -- signed-term printer -----------------------------------------------------------

def test_format_terms():
    assert _format_terms([(Q(1), "a")]) == "a"
    assert _format_terms([(Q(-1), "a")]) == "-a"
    assert _format_terms([(Q(-3, 2), "a*b")]) == "-3/2*a*b"
    assert _format_terms([(Q(2, 3), "a")]) == "2/3*a"
    assert _format_terms([(Q(5), "")]) == "5"
    assert _format_terms([(Q(-1), "")]) == "-1"
    assert _format_terms([(Q(1), "")]) == "1"
    assert _format_terms([]) == "0"
    assert _format_terms([(Q(0), "a"), (0, "b")]) == "0"
    terms = [(Q(1), ""), (Q(0), "z"), (Q(1), "a"), (Q(-1), "b"), (Q(-3, 2), "c"),
             (Q(2, 3), "d*e"), (2, "f"), (Q(-7), "")]
    assert _format_terms(terms) == "1 + a - b - 3/2*c + 2/3*d*e + 2*f - 7"
    assert build_gl(1, 1).describe([0, 1, Q(-1, 2), 0]) == "E12 - 1/2*E21"


# -- validate ---------------------------------------------------------------------

def test_validate_families():
    for g in (build_osp1(1), build_gl(1, 1), build_sl(2, 1)):
        assert g.validate() == []


def test_validate_abelian():
    assert abelian(2, 1).validate() == []


def test_validate_reports_corrupted_jacobi():
    g = build_gl(1, 1)
    table = {
        (i, j): {k: q for k, q in g.bracket_sparse(i, j)}
        for i in range(g.dim)
        for j in range(g.dim)
    }
    # corrupt [E11, E12] = E12 into 2*E12: antisymmetry with (E12, E11) and
    # Jacobi both break
    i, j, k = g.names.index("E11"), g.names.index("E12"), g.names.index("E12")
    table[(i, j)][k] = Q(2)
    bad = LieSuperalgebra(g.parity, table, g.names)
    issues = bad.validate()
    assert any("jacobi" in s for s in issues)
    assert f"antisymmetry: [e{i},e{j}] vs [e{j},e{i}] disagree" in issues


def _validate_every_triple(g):
    """The issue list of `validate` with Jacobi checked on every ordered
    pair (i, j), as the reference for the half-pair check."""
    issues = []
    n, p, sp = g.dim, g.parity, g._table
    for i in range(n):
        for j in range(n):
            for k, c in sp[i][j]:
                if p[k] != (p[i] + p[j]) % 2:
                    issues.append(f"parity: c[{i}][{j}][{k}] = {Q(c, g._den)} violates grading")
    for i in range(n):
        for j in range(i, n):
            sign = 1 if p[i] and p[j] else -1
            if sp[i][j] != tuple((k, sign * c) for k, c in sp[j][i]):
                issues.append(f"antisymmetry: [e{i},e{j}] vs [e{j},e{i}] disagree")
    for i in range(n):
        for j in range(n):
            sgn = -1 if p[i] and p[j] else 1
            for k in range(n):
                acc = {}
                for t, q in sp[j][k]:
                    for l, r in sp[i][t]:
                        acc[l] = acc.get(l, 0) + q * r
                for t, q in sp[i][j]:
                    for l, r in sp[t][k]:
                        acc[l] = acc.get(l, 0) - q * r
                for t, q in sp[i][k]:
                    for l, r in sp[j][t]:
                        acc[l] = acc.get(l, 0) - sgn * q * r
                if any(acc.values()):
                    issues.append(f"jacobi: fails at triple ({i},{j},{k})")
    return issues


def _corrupted(g, changes):
    table = {(i, j): {k: q for k, q in g.bracket_sparse(i, j)}
             for i in range(g.dim) for j in range(g.dim)}
    for (i, j, k), q in changes.items():
        table[i, j][k] = q
    return LieSuperalgebra(g.parity, table, g.names)


@pytest.mark.parametrize("spec", ["gl:1:1", "osp1:1", "sl:2:1", "product:osp1:1,gl:1:1"])
def test_validate_half_jacobi_matches_every_triple(spec):
    # Jacobi on the pairs i <= j only, with each failure reported with its
    # swap, gives the same issue list as every ordered pair
    import random
    g = parse_family_spec(spec)
    rng = random.Random(3)
    nonzero = [(i, j, k) for i in range(g.dim) for j in range(i, g.dim)
               for k, _ in g.bracket_sparse(i, j)]
    graded_jacobi = 0
    for _ in range(6):
        i, j, k = rng.choice(nonzero)
        q = g.structure_constant(i, j, k) * rng.choice([2, -1, Q(1, 3)])
        sign = 1 if g.parity[i] and g.parity[j] else -1
        # both orders changed: only Jacobi breaks
        jacobi_only = _corrupted(g, {(i, j, k): q, (j, i, k): sign * q})
        issues = jacobi_only.validate()
        assert issues == _validate_every_triple(jacobi_only)
        assert issues and all(s.startswith("jacobi") for s in issues)
        # one order changed: antisymmetry breaks too, and every pair is checked
        if i != j:
            lopsided = _corrupted(g, {(i, j, k): q})
            issues = lopsided.validate()
            assert issues == _validate_every_triple(lopsided)
            assert any(s.startswith("antisymmetry") for s in issues)
        # both orders given a term of the wrong parity: the grading breaks,
        # the table stays super-antisymmetric, so only i <= j is computed
        if i != j or sign == 1:
            t = next(t for t in range(g.dim) if g.parity[t] == g.parity[k] ^ 1)
            off_grade = _corrupted(g, {(i, j, t): Q(1), (j, i, t): sign})
            issues = off_grade.validate()
            assert issues == _validate_every_triple(off_grade)
            assert any(s.startswith("parity") for s in issues)
            assert not any(s.startswith("antisymmetry") for s in issues)
            graded_jacobi += any(s.startswith("jacobi") for s in issues)
    assert graded_jacobi


def test_validate_reports_parity_violation():
    bad = LieSuperalgebra([EVEN, ODD], {(0, 0): {1: Q(1)}})
    assert any("parity" in s for s in bad.validate())


# -- bracket and odd squares ----------------------------------------------------------

def test_bracket_abelian_is_zero():
    g = abelian(2)
    assert is_zero_vec(g.bracket([1, 2], [3, 4]))


def test_bracket_gl11_matches_matrix_supercommutator():
    g = build_gl(1, 1)
    x, y = unit_vec(g, "E12"), unit_vec(g, "E21")
    br = g.bracket(x, y)
    # oracle: E12 E21 + E21 E12 = E11 + E22 as matrices
    rep = g.faithful_rep
    m = rep.action[g.names.index("E12")].mul(rep.action[g.names.index("E21")]).add(
        rep.action[g.names.index("E21")].mul(rep.action[g.names.index("E12")]))
    assert m == g.element_matrix(br)
    assert br == [Q(1), Q(0), Q(0), Q(1)]


def test_bracket_osp_odd_square_nonzero():
    g = build_osp1(1)
    a = unit_vec(g, "a1")
    sq = g.bracket(a, a)
    assert not is_zero_vec(sq)
    assert g.is_even_element(sq)
    assert sq == [c * 2 for c in g.odd_square(a)]


def test_bracket_length_mismatch():
    g = build_gl(1, 1)
    with pytest.raises(ValueError):
        g.bracket([1, 0], [0, 0, 0, 1])


def test_odd_square_examples():
    g = build_gl(1, 1)
    assert is_zero_vec(g.odd_square(zero_vec(g.dim)))
    u = [a + b for a, b in zip(unit_vec(g, "E12"), unit_vec(g, "E21"))]
    assert g.odd_square(u) == [Q(1), Q(0), Q(0), Q(1)]
    s = build_sl(2, 1)
    assert is_zero_vec(s.odd_square(unit_vec(s, "E13")))
    with pytest.raises(ValueError):
        g.odd_square(unit_vec(g, "E11"))


# -- semisimple elements and the cone ---------------------------------------------------

def test_semisimple_element_examples():
    g = build_gl(1, 1)
    assert g.is_semisimple_element(zero_vec(g.dim))
    ident = [a + b for a, b in zip(unit_vec(g, "E11"), unit_vec(g, "E22"))]
    assert g.is_semisimple_element(ident)
    o = build_osp1(1)
    assert not o.is_semisimple_element(unit_vec(o, "B11"))
    with pytest.raises(ValueError):
        g.is_semisimple_element(unit_vec(g, "E12"))


def test_semisimple_element_refuses_a_vector_of_the_wrong_length():
    # gl(1|1) has dimension 4: too short, too long with a zero or a nonzero
    # entry past the end
    g = build_gl(1, 1)
    for x in ([Q(1)], [Q(1), 0, 0, 0, 0], [0, 0, 0, 0, Q(7)]):
        with pytest.raises(ValueError, match="^coordinate vectors must have length dim$"):
            g.is_semisimple_element(x)


def test_element_matrix_refuses_a_vector_of_the_wrong_length():
    g = build_gl(1, 1)
    for x in ([Q(1)], [Q(1), 0, 0, 0, 0], [0, 0, 0, 0, Q(7)]):
        with pytest.raises(ValueError, match="^coordinate vectors must have length dim$"):
            g.element_matrix(x)
        with pytest.raises(ValueError, match="^coordinate vectors must have length dim$"):
            g.faithful_rep.matrix_of(x)


def test_semisimple_element_requires_rep():
    g = abelian(1)
    with pytest.raises(SuperkitError):
        g.is_semisimple_element([Q(1)])


def test_in_g1ss_examples():
    g = build_gl(1, 1)
    assert g.in_g1ss(zero_vec(g.dim))
    u = [a + b for a, b in zip(unit_vec(g, "E12"), unit_vec(g, "E21"))]
    assert g.in_g1ss(u)
    o = build_osp1(1)
    a1, b1 = unit_vec(o, "a1"), unit_vec(o, "b1")
    for coeffs in [(1, 0), (0, 1), (1, 1), (2, -3), (5, 7)]:
        u = [coeffs[0] * x + coeffs[1] * y for x, y in zip(a1, b1)]
        assert not o.in_g1ss(u)


def exp_ad_nilpotent(g, x):
    """exp(ad x) as an exact rational matrix; requires ad x nilpotent."""
    ad = g.ad_matrix(x)
    out = term = Matrix.identity(g.dim)
    fact = 1
    for k in range(1, g.dim + 2):
        term = term.mul(ad)
        if term.is_zero():
            return out
        fact *= k
        out = out.add(term.scale(Q(1, fact)))
    raise ValueError("ad x is not nilpotent")


def test_in_g1ss_membership_is_exp_ad_invariant():
    o = build_osp1(1)
    x = unit_vec(o, "B11")          # nilpotent even element
    exp = exp_ad_nilpotent(o, x)
    for u in ([1, 0], [0, 1], [2, 3]):
        uu = zero_vec(o.dim)
        for c, i in zip(u, o.odd_indices):
            uu[i] = Q(c)
        moved = exp.matvec(uu)
        assert o.is_odd_element(moved)
        assert o.in_g1ss(moved) == o.in_g1ss(uu)
    s = build_sl(2, 1)
    x = unit_vec(s, "E12")          # even nilpotent
    exp = exp_ad_nilpotent(s, x)
    u = unit_vec(s, "E13")
    moved = exp.matvec(u)
    assert s.in_g1ss(moved) == s.in_g1ss(u) is True


# -- the block route of the cone test ----------------------------------------------------

def block_branch(g, u):
    """The branch the block route takes on odd u, re-derived on dense
    Fraction matrices: X = rho(u) = [[0, A], [B, 0]] with A from the smaller
    parity side, p the minimal polynomial of AB."""
    x, par = g.element_matrix(u), g.faithful_rep.parity
    sides = ([r for r, q in enumerate(par) if q == EVEN], [r for r, q in enumerate(par) if q == ODD])
    small, large = sorted(sides, key=len)
    a = Matrix([[x.data[r][c] for c in large] for r in small])
    b = Matrix([[x.data[r][c] for c in small] for r in large])
    ab = a.mul(b) if small else Matrix.zeros(0, 0)
    p = minimal_polynomial(ab)
    if not is_squarefree(p):
        return "p not squarefree"
    if p[0]:
        return "p(0) != 0"
    r = Matrix.zeros(len(small), len(small))
    for c in reversed(p[1:]):
        r = r.mul(ab).add(Matrix.identity(len(small)).scale(c))
    return "B r A = 0" if b.mul(r).mul(a).is_zero() else "B r A != 0"


def odd_draws(g, seed, count):
    """count odd elements of g, alternately on two coordinates and dense."""
    rng = random.Random(seed)
    odd = g.odd_indices
    for k in range(count):
        u = [Q(0)] * g.dim
        for i in (odd if k % 2 else rng.sample(odd, min(len(odd), 2))):
            u[i] = Q(rng.randint(-3, 3), rng.randint(1, 4))
        yield u


BLOCK_SPECS = tuple(e.spec for e in catalog.CATALOG) + ("gl:4:4", "gl:1:2")


@pytest.mark.parametrize("spec", BLOCK_SPECS)
def test_block_route_matches_the_krylov_route(spec):
    """in_g1ss against the minimal polynomial of rho(D [U, U]) on the whole
    rep, and the branch it takes against `block_branch` (on u = 0 alone
    when g has no odd part)."""
    g = parse_family_spec(spec)
    for u in odd_draws(g, spec, 24):
        verdict = g.in_g1ss(u)
        assert verdict is g.is_semisimple_element(g.odd_square(u)), u
        assert verdict is (block_branch(g, u) in ("p(0) != 0", "B r A = 0")), u


def test_block_route_reaches_every_branch():
    seen = set()
    for spec in BLOCK_SPECS:
        g = parse_family_spec(spec)
        seen.update(block_branch(g, u) for u in odd_draws(g, spec, 24))
    assert seen == {"p not squarefree", "p(0) != 0", "B r A = 0", "B r A != 0"}


@pytest.mark.parametrize("spec, small, elements", [
    # V1 is the smaller side (dim 1 against 2)
    ("sl:2:1", ODD, {"E13 + E31": "p(0) != 0", "E13": "B r A = 0",
                     "E13 + E32": "B r A != 0", "E23 + E32": "p(0) != 0"}),
    # V0 is the smaller side (dim 1 against 2)
    ("gl:1:2", EVEN, {"E12 + E21": "p(0) != 0", "E12 + E13": "B r A = 0",
                      "E12 + E31": "B r A != 0", "E13 + E31": "p(0) != 0"}),
])
def test_block_route_on_either_smaller_side(spec, small, elements):
    g = parse_family_spec(spec)
    par = g.faithful_rep.parity
    assert par.count(small) < par.count(1 - small)
    for text, branch in elements.items():
        u = [Q(0)] * g.dim
        for name in text.split(" + "):
            u[g.names.index(name)] = Q(1)
        assert block_branch(g, u) == branch
        assert g.in_g1ss(u) is (branch != "B r A != 0") is g.is_semisimple_element(g.odd_square(u))


def lawless_gl11():
    """gl(1|1) through the API with its defining rep's odd matrices doubled:
    rho(u)^2 = 4 rho(u^2) then breaks the representation law."""
    g = build_gl(1, 1)
    table = {(i, j): dict(g.bracket_sparse(i, j)) for i in range(g.dim) for j in range(g.dim)}
    mats = [m.scale(2) if p == ODD else m for m, p in zip(g.faithful_rep.action, g.parity)]
    bad = SuperModule(g.faithful_rep.parity, mats)
    good = SuperModule(g.faithful_rep.parity, g.faithful_rep.action)
    return LieSuperalgebra(g.parity, table, g.names, faithful_rep=bad), good


def test_a_lawless_rep_is_refused_by_the_cone_test():
    from superkit.reps import ds_functor, validate_module
    g, _ = lawless_gl11()
    law = validate_module(g, g.faithful_rep)
    assert law and law[0].startswith("representation law")
    u = [a + b for a, b in zip(unit_vec(g, "E12"), unit_vec(g, "E21"))]
    message = "^" + re.escape(f"the faithful representation is refused: {law[0]}") + "$"
    with pytest.raises(SuperkitError, match=message):
        g.in_g1ss(u)
    with pytest.raises(SuperkitError, match=message):
        ds_functor(g, u, g.faithful_rep)
    # the general matrix question keeps its route and needs no certificate
    assert g.is_semisimple_element(unit_vec(g, "E11"))


def test_matrices_of_the_wrong_parity_are_not_certified():
    # E12 labelled even: the span is still closed under the supercommutator
    # the labels give, but rho(E12) does not keep parity
    g = build_gl(1, 1)
    mislabelled = [EVEN, EVEN, ODD, EVEN]
    assert [g.names[i] for i in range(g.dim)] == ["E11", "E12", "E21", "E22"]
    h = algebra_from_matrices(g.faithful_rep.action, mislabelled, g.faithful_rep.parity, g.names)
    with pytest.raises(SuperkitError, match="^the faithful representation is refused: parity"):
        h.in_g1ss(unit_vec(h, "E21"))


def test_reassigning_the_rep_runs_the_check_again(monkeypatch):
    from superkit import reps
    calls = []
    real = reps.validate_module

    def counted(g, m):
        calls.append(m)
        return real(g, m)

    monkeypatch.setattr(reps, "validate_module", counted)
    g, good = lawless_gl11()
    u = [a + b for a, b in zip(unit_vec(g, "E12"), unit_vec(g, "E21"))]
    bad = g.faithful_rep
    g.faithful_rep = good
    assert g.in_g1ss(u) and g.in_g1ss(u)
    assert calls == [good]
    g.faithful_rep = bad
    with pytest.raises(SuperkitError, match="the faithful representation is refused"):
        g.in_g1ss(u)
    assert calls == [good, bad]
    g.faithful_rep = SuperModule(good.parity, good.action)
    assert g.in_g1ss(u)
    assert len(calls) == 3


def test_reassigning_the_rep_data_runs_the_check_again(monkeypatch):
    # the certificate rests on the rep's parity and table and on g's own, by
    # identity: a new object for any of them, even with equal data, checks again
    from superkit import reps
    calls = []
    real = reps.validate_module
    monkeypatch.setattr(reps, "validate_module", lambda g, m: calls.append(m) or real(g, m))
    g = fresh("osp1:2")
    rep = g.faithful_rep
    u = unit_vec(g, "a1")
    assert not g.in_g1ss(u)
    assert calls == [] and g._rep_certificate() is True
    for owner, name in ((rep, "parity"), (rep, "_table"), (g, "parity"), (g, "_table")):
        value = getattr(owner, name)
        setattr(owner, name, type(value)(list(value)))
        assert g._rep_certificate() is False
        assert not g.in_g1ss(u) and not g.in_g1ss(u)
        assert g._rep_certificate() is True
    assert calls == [rep] * 4


def test_a_reassigned_parity_that_breaks_the_grading_is_refused():
    g = fresh("gl:1:1")
    u = [a + b for a, b in zip(unit_vec(g, "E12"), unit_vec(g, "E21"))]
    assert g.in_g1ss(u)
    g.faithful_rep.parity = (EVEN, EVEN)
    with pytest.raises(SuperkitError, match="^the faithful representation is refused: parity"):
        g.in_g1ss(u)


def test_a_lawful_unfaithful_rep_is_refused():
    # the zero rep obeys the representation law for any table, so it
    # certifies nothing: with it, osp(1|4), whose cone is zero, would get a
    # witness.  Every entry point that reads the rep refuses it instead.
    from superkit.reps import ds_functor, trivial_module, validate_module
    from superkit.roots import classify_simple, g1ss_structural_scan
    g = fresh("osp1:2")
    zero = trivial_module(g)
    h = LieSuperalgebra._of_table(g.parity, g._table, g._den, g.names, zero, g.cartan)
    assert validate_module(h, zero) == []
    u = unit_vec(h, "a1")
    message = ("^the faithful representation is refused: the representation is not faithful "
               r"\(its matrices are linearly dependent\)$")
    for call in (lambda: h.in_g1ss(u), lambda: g1ss_structural_scan(h),
                 lambda: classify_simple(h), lambda: ds_functor(h, u, zero)):
        with pytest.raises(SuperkitError, match=message):
            call()
        assert h._rep_certificate() is False


def test_built_and_parsed_reps_are_certified_without_a_law_check(monkeypatch):
    from superkit import reps
    from superkit.fileformat import parse_algebra, serialize_algebra
    parsed = [parse_algebra(serialize_algebra(parse_family_spec(spec)))[0]
              for spec in ("gl:2:1", "osp1:2", "product:osp1:1,gl:1:1")]
    calls = []
    monkeypatch.setattr(reps, "validate_module", lambda g, m: calls.append(m) or [])
    # fresh builds: the builders' caches may hold algebras certified on first use
    built = [fresh(spec) for spec in catalog.specs(catalog.CONE)]
    s = fresh("sl:2:1")
    built.append(algebra_from_matrices(s.faithful_rep.action, s.parity, s.faithful_rep.parity,
                                       s.names))
    built += fresh("product:osp1:1,osp1:2").direct_sum_decompose().subalgebras
    for g in built + parsed:
        for u in odd_draws(g, 0, 4):
            g.in_g1ss(u)
    assert calls == []


# -- center -------------------------------------------------------------------------------

def test_center_gl11():
    g = build_gl(1, 1)
    c = g.center()
    assert len(c) == 1
    v = c[0]
    assert v[g.names.index("E11")] == v[g.names.index("E22")] != 0
    assert v[g.names.index("E12")] == v[g.names.index("E21")] == 0


def test_center_osp_trivial_and_abelian_full():
    for n in (1, 2, 3):
        assert build_osp1(n).center() == []
    g = abelian(3)
    assert len(g.center()) == 3


def test_zero_is_in_the_cone_for_every_builtin():
    builtins = [build_gl(1, 1), build_gl(2, 1), build_sl(2, 1), build_osp1(1),
                build_osp1(2), build_toy("toy_odd_nilpotent"),
                build_toy("toy_odd_semisimple")]
    for g in builtins:
        assert g.in_g1ss(zero_vec(g.dim))


def test_odd_square_is_always_even():
    import random
    rng = random.Random(6)
    for g in (build_gl(1, 1), build_sl(2, 1), build_osp1(2)):
        for _ in range(10):
            u = zero_vec(g.dim)
            for i in g.odd_indices:
                u[i] = Q(rng.randint(-3, 3))
            assert g.is_even_element(g.odd_square(u))


def test_center_of_quasireductive_builtins_is_even():
    for g in (build_gl(1, 1), build_gl(2, 1), build_osp1(1), build_osp1(2),
              build_toy("toy_odd_semisimple"),
              build_product([build_gl(1, 0), build_osp1(1)])):
        for v in g.center():
            assert is_zero_vec(g.odd_part(v)), "center has an odd component"


# -- reductivity and quasireductivity ------------------------------------------------------

def solvable_nonabelian_even():
    # [x, y] = y with the (faithful) adjoint representation attached
    table = {(0, 1): {1: Q(1)}, (1, 0): {1: Q(-1)}}
    g = LieSuperalgebra([EVEN, EVEN], table, ["x", "y"])
    rep = SuperModule(parity=(EVEN, EVEN),
                      action=[g.ad_matrix(g.basis_vector(0)),
                              g.ad_matrix(g.basis_vector(1))])
    return LieSuperalgebra([EVEN, EVEN], table, ["x", "y"], faithful_rep=rep)


def test_reductive_even_part():
    assert build_osp1(1).is_reductive_even_part()
    assert build_gl(1, 1).is_reductive_even_part()
    assert not solvable_nonabelian_even().is_reductive_even_part()


def nonsemisimple_odd_action():
    # x even; u, v odd; [x, u] = v, all other brackets zero
    table = {(0, 1): {2: Q(1)}, (1, 0): {2: Q(-1)}}
    names = ["x", "u", "v"]
    # faithful 1|2-dimensional representation
    rx = Matrix([[0, 0, 0], [0, 0, 0], [0, 1, 0]])
    ru = Matrix([[0, 0, 0], [1, 0, 0], [0, 0, 0]])
    rv = Matrix([[0, 0, 0], [0, 0, 0], [1, 0, 0]])
    rep = SuperModule(parity=(EVEN, ODD, ODD), action=[rx, ru, rv])
    return LieSuperalgebra([EVEN, ODD, ODD], table, names, faithful_rep=rep)


def test_quasireductive():
    assert build_osp1(1).is_quasireductive()
    assert build_osp1(2).is_quasireductive()
    assert build_osp1(3).is_quasireductive()
    assert build_gl(1, 1).is_quasireductive()
    bad = nonsemisimple_odd_action()
    assert bad.validate() == []
    assert bad.is_reductive_even_part()
    assert not bad.is_quasireductive()


@pytest.mark.parametrize("make", [
    *[lambda s=s: parse_family_spec(s) for s in catalog.specs(cost=catalog.TIER1)],
    solvable_nonabelian_even,
    nonsemisimple_odd_action,
], ids=[*catalog.specs(cost=catalog.TIER1), "solvable-even", "nonsemisimple-odd-action"])
def test_quasireductive_matches_the_odd_part_module(make):
    """The center criterion against the route it replaced: g0 reductive and
    g1 a semisimple g0-module by the trace radical of the algebra its
    action generates."""
    g = make()
    expected = (g.is_reductive_even_part()
                and is_module_semisimple(None, odd_part_as_even_module(g)))
    assert g.is_quasireductive() is expected


# -- decomposition ---------------------------------------------------------------------------

def test_decompose_gl11_fails():
    with pytest.raises(NotSemisimpleStructure):
        build_gl(1, 1).direct_sum_decompose()


@pytest.mark.parametrize("spec, reason", [
    # the identity is central and spans [g_a, g_-a]
    ("gl:1:1", "center plus the root-graph ideals do not span the algebra directly"),
    ("gl:2:2", "center plus the root-graph ideals do not span the algebra directly"),
    ("sl:2:2", "a root space has dimension > 1"),
    # the odd part has weight zero under the given Cartan
    ("sl:1:1", "the zero-weight space has dimension 1|2, not 1|0"),
    ("toy_odd_semisimple", "the zero-weight space has dimension 1|1, not 1|0"),
])
def test_decompose_refusals_name_their_reason(spec, reason):
    with pytest.raises(NotSemisimpleStructure) as err:
        parse_family_spec(spec).direct_sum_decompose()
    assert reason in str(err.value)


def test_decompose_product_of_osps():
    g = build_product([build_osp1(1), build_osp1(2)])
    dec = g.direct_sum_decompose()
    assert dec.center == []
    assert sorted(len(f) for f in dec.ideals) == [5, 14]


def test_decompose_abelian_even():
    g = abelian(2)
    dec = g.direct_sum_decompose()
    assert len(dec.center) == 2
    assert dec.ideals == []


def test_decompose_with_torus_factor():
    g = build_product([build_gl(1, 0), build_osp1(1)])
    dec = g.direct_sum_decompose()
    assert len(dec.center) == 1
    assert [len(f) for f in dec.ideals] == [5]


def sl2_semidirect_c2():
    # sl2 acting on C^2 inside 3x3 matrices: a perfect, centerless algebra
    # whose only proper ideal is C^2, so it is not a product of simples
    def unit(a, b):
        m = Matrix.zeros(3, 3)
        m.data[a][b] = Q(1)
        return m
    h = unit(0, 0).add(unit(1, 1).scale(Q(-1)))
    mats = [unit(0, 1), h, unit(1, 0), unit(0, 2), unit(1, 2)]
    return algebra_from_matrices(mats, [EVEN] * 5, [EVEN] * 3,
                                 ["e", "h", "f", "v1", "v2"], cartan=[1])


def full_closure(g, seed):
    """Ideal closure by saturation: the brackets [e_i, v], summed in
    Fractions from the table `bracket_sparse`, of every basis vector with
    every spanning vector, until none is new or the span is g."""
    span = Echelon()
    basis = [list(s) for s in seed if span.add(s)]
    todo = list(basis)
    while todo and len(basis) < g.dim:
        v = todo.pop()
        for i in range(g.dim):
            w = [Q(0)] * g.dim
            for j, a in enumerate(v):
                if a:
                    for k, c in g.bracket_sparse(i, j):
                        w[k] += c * a
            if span.add(w):
                basis.append(w)
                todo.append(w)
    return basis


def test_toral_targets_equal_the_sum_over_every_weight():
    # the oracle: d(h) summed over the coordinates of h, for every weight d;
    # h1 - h2 vanishes on the weights with d(h1) = d(h2), such as e1 + e2
    from math import lcm
    from superkit.core import _toral_targets
    datum = build_osp1(3)._root_datum()
    nodes = [r for r in datum.roots if any(r.weight)]
    den = lcm(*(x.denominator for r in nodes for x in r.weight))
    weights = [tuple(int(x * den) for x in r.weight) for r in nodes]
    rank = len(datum.cartan)
    supports = [{d for d, wd in enumerate(weights) if wd[s]} for s in range(rank)]
    rng = random.Random(3)
    draws = [[(0, 1)], [(0, 1), (1, -1)], [(0, 1), (1, 1), (2, -2)], [(1, 2), (2, -2)]]
    draws += [[(s, c) for s in sorted(rng.sample(range(rank), rng.randint(1, rank)))
               if (c := rng.choice([-2, -1, 1, 2]))] for _ in range(40)]
    cancelled = 0
    for x in draws:
        expected = {d for d, wd in enumerate(weights) if sum(c * wd[s] for s, c in x)}
        assert _toral_targets(x, supports, weights) == expected
        cancelled += len(set().union(*(supports[s] for s, _ in x)) - expected)
    assert cancelled


def test_decompose_rejects_seed_that_generates_a_smaller_ideal():
    # the root vector v2 lies in the one root-graph component, but generates
    # only the ideal C^2
    g = sl2_semidirect_c2()
    assert g.validate() == [] and g.center() == []
    names = g.names
    v2 = [Q(1) if n == "v2" else Q(0) for n in names]
    assert len(full_closure(g, [v2])) == 2
    with pytest.raises(NotSemisimpleStructure) as err:
        g.direct_sum_decompose()
    assert "a root vector generates a proper ideal" in str(err.value)


def sl2_semidirect_v3():
    # sl2 acting on its 4-dimensional irreducible V_3, inside 5x5 matrices:
    # perfect and centerless, with the proper ideal V_3.  The root listed
    # first, of weight -3, lies in V_3 and generates only V_3, while every
    # root reaches it; `sl2_semidirect_c2` is the other way round
    def unit(a, b, c=1):
        m = Matrix.zeros(5, 5)
        m.data[a][b] = Q(c)
        return m
    e = unit(0, 1, 3).add(unit(1, 2, 4)).add(unit(2, 3, 3))
    f = unit(1, 0).add(unit(2, 1)).add(unit(3, 2))
    h = unit(0, 0, 3).add(unit(1, 1, 1)).add(unit(2, 2, -1)).add(unit(3, 3, -3))
    mats = [e, h, f] + [unit(k, 4) for k in range(4)]
    return algebra_from_matrices(mats, [EVEN] * 7, [EVEN] * 5,
                                 ["e", "h", "f", "v0", "v1", "v2", "v3"], cartan=[1])


def test_decompose_rejects_a_first_root_that_generates_a_smaller_ideal():
    g = sl2_semidirect_v3()
    assert g.validate() == [] and g.center() == []
    first = g._root_datum().roots[0]
    assert first.weight == (Q(-3),) and len(full_closure(g, first.space)) == 4
    with pytest.raises(NotSemisimpleStructure) as err:
        g.direct_sum_decompose()
    assert "a root vector generates a proper ideal" in str(err.value)


@pytest.mark.parametrize("spec", [
    "osp1:1", "osp1:2", "osp1:3", "osp1:4", "product:osp1:1,osp1:2",
    "product:gl:1:0,osp1:1,osp1:2", "cartanless product:osp1:1,osp1:2",
])
def test_factors_equal_the_full_closure_of_each_root_vector(spec):
    # the oracle: the brute-force ideal closure of every nonzero root vector
    name = spec.removeprefix("cartanless ")
    g = parse_family_spec(name) if name == spec else cartanless(name)
    dec = g.direct_sum_decompose()
    assert len(dec.center) + sum(len(f) for f in dec.ideals) == g.dim
    assert len(span_basis(dec.center + [v for f in dec.ideals for v in f])) == g.dim
    roots = [u for r in g._root_datum().roots if not r.is_zero_weight for u in r.space]
    homes = [[f for f in dec.ideals if same_span(f, f + [u])] for u in roots]
    assert all(len(home) == 1 for home in homes)
    for u, (f,) in zip(roots, homes):
        assert same_span(full_closure(g, [u]), f)
    # and every factor holds a root vector
    assert all(any(f is home[0] for home in homes) for f in dec.ideals)
    # the decomposition computes no factor center: directness forces it to be 0
    assert [sub.center() for sub in dec.subalgebras] == [[] for _ in dec.ideals]


# -- a toral Cartan that is not maximal -------------------------------------------------

def sl2():
    def unit(a, b):
        m = Matrix.zeros(2, 2)
        m.data[a][b] = Q(1)
        return m
    return algebra_from_matrices([unit(0, 1), unit(0, 0).sub(unit(1, 1)), unit(1, 0)],
                                 [EVEN] * 3, [EVEN] * 2, ["e", "h", "f"], cartan=[1])


def mixed(factors, i, j, cartan):
    """The product of the factors with e_i + e_j and e_i - e_j in place of the
    toral e_i and e_j, rebuilt from its defining matrices with the given
    Cartan (basis indices, or None to have it searched for)."""
    g = build_product(factors)
    mats = list(g.faithful_rep.action)
    mats[i], mats[j] = mats[i].add(mats[j]), mats[i].sub(mats[j])
    names = list(g.names)
    names[i], names[j] = f"{names[i]}+{names[j]}", f"{names[i]}-{names[j]}"
    return algebra_from_matrices(mats, g.parity, g.faithful_rep.parity, names,
                                 cartan=cartan)


def sl2_sl2_osp(cartan):
    # sl(2) + sl(2) + osp(1|2) with h1 + h2 and h1 - h2; index 6 is the osp h
    return mixed([sl2(), sl2(), build_osp1(1)], 1, 4, cartan)


def osp_osp(cartan):
    # osp(1|2) + osp(1|2) with h1 + h2 and h1 - h2
    return mixed([build_osp1(1), build_osp1(1)], 0, 5, cartan)


@pytest.mark.parametrize("g", [sl2_sl2_osp([1, 6]), osp_osp([0])],
                         ids=["sl2+sl2+osp", "osp+osp"])
def test_decompose_refuses_a_toral_cartan_that_is_not_self_centralizing(g):
    from superkit.roots import g1ss_structural_scan
    assert g.validate() == []
    for run in (g.direct_sum_decompose, lambda: g1ss_structural_scan(g)):
        with pytest.raises(NotSemisimpleStructure) as err:
            run()
        assert "the Cartan subalgebra is not self-centralizing" in str(err.value)


@pytest.mark.parametrize("g, factors", [
    (sl2_sl2_osp(None), [("even simple ideal", 3), ("even simple ideal", 3), ("Osp(1)", 5)]),
    (osp_osp(None), [("Osp(1)", 5), ("Osp(1)", 5)]),
], ids=["sl2+sl2+osp", "osp+osp"])
def test_a_searched_cartan_splits_the_mixed_products(g, factors):
    from superkit.roots import g1ss_structural_scan
    report = g1ss_structural_scan(g)
    assert report.witness is None
    assert [(f["factor"], f["dim"]) for f in report.factors] == factors


def test_cartan_line_that_is_not_self_centralizing_is_refused_at_parse(tmp_path, capsys):
    from superkit.cli import main
    from superkit.fileformat import ParseError, parse_algebra, serialize_algebra
    text = serialize_algebra(sl2_sl2_osp([1, 6]), "mixed")
    assert "cartan 0.h+1.h 2.M11" in text.splitlines()
    with pytest.raises(ParseError) as err:
        parse_algebra(text)
    assert "span has dimension 2, its centralizer in the even part 3" in str(err.value)
    assert any("not self-centralizing" in w for w in parse_algebra(text, strict=False)[2])
    path = tmp_path / "mixed.alg"
    path.write_text(text)
    assert main(["classify", "--algebra", str(path)]) == 2
    assert "not self-centralizing" in capsys.readouterr().out
    # without the line the Cartan is searched for
    path.write_text("".join(line for line in text.splitlines(keepends=True)
                            if not line.startswith("cartan ")))
    assert main(["classify", "--algebra", str(path)]) == 0
    assert capsys.readouterr().out == (
        "No nonzero semisimple-square element (certified).\n"
        "  factor: even simple ideal (dim 3)\n"
        "  factor: even simple ideal (dim 3)\n"
        "  factor: Osp(1) (dim 5)\n")


def test_restricted_subalgebra_of_ideal():
    g = build_product([build_osp1(1), build_osp1(1)])
    dec = g.direct_sum_decompose()
    sub = g.restricted_subalgebra(dec.ideals[0])
    assert sub.dim == 5
    assert sub.validate() == []
    assert sub.center() == []


def test_restricted_subalgebra_refuses_vectors_that_span_no_subalgebra():
    # e = E12 and f = E21 in gl(2): [e, f] = E11 - E22 lies outside their span
    g = build_gl(2, 0)
    e, f = (g.basis_vector(g.names.index(nm)) for nm in ("E12", "E21"))
    with pytest.raises(ValueError, match="vectors do not span a subalgebra"):
        g.restricted_subalgebra([e, f])


# -- structure constants over a common denominator D > 1 ------------------------------

def _rescaled_constants(g):
    """The dense Fraction tensor of the structure constants of g rebuilt
    with e_i -> e_i / k_i (`rescaled`), c'[i][j][k] = c[i][j][k] k_k /
    (k_i k_j), written out by hand."""
    ks = rescale_factors(g.dim)
    return [[[g.structure_constant(i, j, k) * ks[k] / (ks[i] * ks[j])
              for k in range(g.dim)] for j in range(g.dim)] for i in range(g.dim)]


@pytest.mark.parametrize("spec", ["osp1:2", "sl:2:1"])
def test_rescaled_basis_matches_dense_reference(spec, tmp_path, capsys):
    import json
    import random
    from superkit.cli import main
    from superkit.fileformat import serialize_algebra

    g = parse_family_spec(spec)
    h, dense = rescaled(spec), _rescaled_constants(g)
    n = h.dim
    assert any(q.denominator > 1 for i in range(n) for j in range(n)
               for _, q in h.bracket_sparse(i, j))
    assert h.validate() == []
    rng = random.Random(7)
    for _ in range(5):
        x = [Q(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(n)]
        y = [Q(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(n)]
        ref = [sum((x[i] * y[j] * dense[i][j][k] for i in range(n) for j in range(n)),
                   Q(0)) for k in range(n)]
        assert h.bracket(x, y) == ref
        ad = [[sum((x[i] * dense[i][j][k] for i in range(n)), Q(0)) for j in range(n)]
              for k in range(n)]
        assert h.ad_matrix(x) == Matrix(ad)
    path = tmp_path / "rescaled.alg"
    path.write_text(serialize_algebra(h, "rescaled"))
    outs = []
    for source in (["--family", spec], ["--algebra", str(path)]):
        code = main(["--json", "classify", *source])
        outs.append((code, json.loads(capsys.readouterr().out).get("factors")))
    assert outs[0] == outs[1]
    assert outs[0][0] == (0 if spec == "osp1:2" else 3)
