"""Core Lie superalgebra type: axioms, brackets, structural predicates."""

import pytest
from fractions import Fraction as Q

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
from superkit.linalg import Matrix, is_zero_vec, span_basis, zero_vec
from superkit.reps import SuperModule


def unit_vec(g, name):
    v = zero_vec(g.dim)
    v[g.names.index(name)] = Q(1)
    return v


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


# -- decomposition ---------------------------------------------------------------------------

def test_decompose_gl11_fails():
    with pytest.raises(NotSemisimpleStructure):
        build_gl(1, 1).direct_sum_decompose()


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
    """Ideal closure by saturation, without any stopping rule."""
    span = span_basis(seed)
    while True:
        grown = span_basis(span + [g.bracket(g.basis_vector(i), v)
                                   for i in range(g.dim) for v in span])
        if len(grown) == len(span):
            return span
        span = grown


def test_decompose_rejects_seed_that_generates_a_smaller_ideal():
    # the seed v2 lies in closure(f) = g, but generates only the ideal C^2
    g = sl2_semidirect_c2()
    assert g.validate() == [] and g.center() == []
    names = g.names
    v2 = [Q(1) if n == "v2" else Q(0) for n in names]
    assert len(full_closure(g, [v2])) == 2
    with pytest.raises(NotSemisimpleStructure) as err:
        g.direct_sum_decompose()
    assert "overlapping ideal closures do not coincide" in str(err.value)


@pytest.mark.parametrize("spec", ["osp1:2", "product:osp1:1,osp1:2"])
def test_stopped_closures_span_the_full_closures(spec, monkeypatch):
    from superkit.roots import cartan_of, root_decomposition
    g = parse_family_spec(spec)
    seeds = [r.space for r in root_decomposition(g, cartan_of(g)).roots
             if any(w != 0 for w in r.weight)]
    closures = []
    original = LieSuperalgebra.ideal_closure

    def recorded(self, seed, bound=None):
        seed = list(seed)
        out = original(self, seed, bound)
        closures.append((seed, out))
        return out

    monkeypatch.setattr(LieSuperalgebra, "ideal_closure", recorded)
    dec = g.direct_sum_decompose()
    # every root seed is closed, none is skipped
    assert [seed for seed, _ in closures] == seeds
    for seed, out in closures:
        full = full_closure(g, seed)
        assert len(out) == len(full) == len(span_basis(out + full))
    assert sorted(len(f) for f in dec.ideals) == sorted(
        {len(full_closure(g, seed)) for seed in seeds})


def test_restricted_subalgebra_of_ideal():
    g = build_product([build_osp1(1), build_osp1(1)])
    dec = g.direct_sum_decompose()
    sub = g.restricted_subalgebra(dec.ideals[0])
    assert sub.dim == 5
    assert sub.validate() == []
    assert sub.center() == []


# -- structure constants over a common denominator D > 1 ------------------------------

def _rescaled(g):
    """g rebuilt from its defining matrices with e_i -> e_i / k_i, k_i in
    {1, 2, 3}, and the dense Fraction tensor of the new structure constants
    c'[i][j][k] = c[i][j][k] k_k / (k_i k_j), written out by hand."""
    ks = [1 + i % 3 for i in range(g.dim)]
    mats = [m.scale(Q(1, k)) for m, k in zip(g.faithful_rep.action, ks)]
    h = algebra_from_matrices(mats, g.parity, g.faithful_rep.parity, g.names,
                              cartan=g.cartan)
    dense = [[[g.structure_constant(i, j, k) * ks[k] / (ks[i] * ks[j])
               for k in range(g.dim)] for j in range(g.dim)] for i in range(g.dim)]
    return h, dense


@pytest.mark.parametrize("spec", ["osp1:2", "sl:2:1"])
def test_rescaled_basis_matches_dense_reference(spec, tmp_path, capsys):
    import json
    import random
    from superkit.cli import main
    from superkit.fileformat import serialize_algebra

    g = parse_family_spec(spec)
    h, dense = _rescaled(g)
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
