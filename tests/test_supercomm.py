"""Supercommutative algebras, odd derivations, and the splitting witness."""

import pytest
from fractions import Fraction as Q

from superkit.families import build_gl, build_sl, build_toy
from superkit.linalg import Matrix, in_span, zero_vec
from superkit.supercomm import (
    NonSemisimpleSquare,
    Vanishing,
    catalog_pairs,
    coinvariant_dual_pair,
    exterior_algebra,
    is_nonvanishing,
    poly_quotient_algebra,
    splitting_witness,
    tensor_algebra,
    validate_algebra,
    validate_derivation,
    verify_no_splitting,
)


def d_dxi():
    a = exterior_algebra(1, ["xi"])
    d = Matrix.zeros(2, 2)
    d.data[0][1] = Q(1)
    return a, d


# -- validation -------------------------------------------------------------------

def test_exterior_algebra_valid():
    for k in (1, 2, 3):
        assert validate_algebra(exterior_algebra(k)) == []


def test_tensor_with_torus_valid():
    a = tensor_algebra(poly_quotient_algebra([-1, 0, 1]), exterior_algebra(1))
    assert validate_algebra(a) == []


def test_poly_quotient_multiplication():
    a = poly_quotient_algebra([-1, 0, 1])   # k[x]/(x^2 - 1)
    x = a.basis_vector(1)
    assert a.multiply(x, x) == a.unit


def test_derivation_validation_and_corruption():
    a, d = d_dxi()
    assert validate_derivation(a, d) == []
    bad = d.copy()
    bad.data[0][1] = Q(2)
    bad.data[1][0] = Q(1)   # 1 -> xi is parity-reversing but breaks Leibniz
    issues = validate_derivation(a, bad)
    assert any("leibniz" in s for s in issues)


def test_derivation_parity_check():
    a, d = d_dxi()
    bad = Matrix([[1, 0], [0, 0]])
    assert any("parity" in s for s in validate_derivation(a, bad))


# -- nonvanishing -----------------------------------------------------------------------

def test_nonvanishing_examples():
    a, d = d_dxi()
    assert is_nonvanishing(a, d)
    assert not is_nonvanishing(a, Matrix.zeros(2, 2))
    van_a, van_d = catalog_pairs()["vanishing"]
    assert not is_nonvanishing(van_a, van_d)


# -- splitting witness -------------------------------------------------------------------

def test_witness_exterior_is_xi():
    a, d = d_dxi()
    f = splitting_witness(a, d)
    assert a.describe(f) == "xi"


def test_witness_torus_exterior_is_x_xi():
    a, d = catalog_pairs()["torus-exterior"]
    f = splitting_witness(a, d)
    assert d.matvec(f) == a.unit
    # u(x xi) = x^2 = 1
    idx = list(a.names).index("x*xi")
    expected = zero_vec(a.dim)
    expected[idx] = Q(1)
    assert f == expected


def test_witness_two_odd_pair():
    a, d = catalog_pairs()["two-odd"]
    f = splitting_witness(a, d)
    assert d.matvec(f) == a.unit
    assert all(Q(c) == 0 or a.parity[i] == 1 for i, c in enumerate(f))


def test_witness_vanishing_raises():
    a, d = catalog_pairs()["vanishing"]
    with pytest.raises(Vanishing):
        splitting_witness(a, d)


def test_witness_nonsemisimple_square_raises():
    a = exterior_algebra(2, ["x1", "x2"])
    # u(x1) = 1 + x1 x2, u(x2) = 1 + x1 x2: h = u^2 is nilpotent nonzero
    d = Matrix.zeros(4, 4)
    d.data[0][1] = Q(1)
    d.data[3][1] = Q(1)
    d.data[0][2] = Q(1)
    d.data[3][2] = Q(1)
    d.data[2][3] = Q(1)
    d.data[1][3] = Q(-1)
    assert validate_derivation(a, d) == []
    h = d.mul(d)
    assert not h.is_zero()
    with pytest.raises(NonSemisimpleSquare,
                       match=r"^u\^2 does not act semisimply with rational spectrum$"):
        splitting_witness(a, d)


def test_witness_computes_the_spectrum_of_u_squared_once(monkeypatch):
    # every spectrum goes through one minimal polynomial computation
    from superkit import linalg
    calls = []
    real = linalg._minimal_polynomial

    def spy(rows):
        calls.append(rows)
        return real(rows)

    monkeypatch.setattr(linalg, "_minimal_polynomial", spy)
    for name, (a, d) in catalog_pairs().items():
        if name == "vanishing":
            continue
        calls.clear()
        f = splitting_witness(a, d)
        assert d.matvec(f) == a.unit
        assert len(calls) == 1, name


def test_square_commutes_with_derivation():
    for name, (a, d) in catalog_pairs().items():
        h = d.mul(d)
        assert h.mul(d) == d.mul(h)


def test_verify_no_splitting():
    a, d = d_dxi()
    assert verify_no_splitting(a, d)
    assert not verify_no_splitting(a, Matrix.zeros(2, 2))
    for name, (alg, der) in catalog_pairs().items():
        if name != "vanishing":
            assert verify_no_splitting(alg, der)


# -- the coinvariant-dual bridge -----------------------------------------------------------

def test_dual_coinvariant_derivations_and_no_splitting():
    cases = []
    g = build_gl(1, 1)
    u = zero_vec(g.dim)
    u[g.names.index("E12")] = Q(1)
    u[g.names.index("E21")] = Q(1)
    cases.append((g, u))
    s = build_sl(2, 1)
    u = zero_vec(s.dim)
    u[s.names.index("E13")] = Q(1)
    cases.append((s, u))
    toy = build_toy("toy_odd_semisimple")
    cases.append((toy, toy.basis_vector(1)))
    for g, u in cases:
        assert g.in_g1ss(u)
        a, d = coinvariant_dual_pair(g, u)
        assert validate_algebra(a) == []
        assert validate_derivation(a, d) == []
        # the unit is in the image: the trivial line does not split off
        assert in_span([d.column(j) for j in range(a.dim)], a.unit) is not None
