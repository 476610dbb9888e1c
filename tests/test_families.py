"""Family constructors: dimensions, axioms, defining representations."""

import pytest
from fractions import Fraction as Q

from superkit.core import EVEN, ODD
from superkit.families import (
    build_gl,
    build_osp1,
    build_product,
    build_sl,
    build_toy,
    osp_odd_indices,
    parse_family_spec,
    supertrace,
)
from superkit.linalg import Matrix, rank
from superkit.reps import validate_module


def test_gl_dimensions():
    g = build_gl(1, 1)
    assert g.dim == 4 and len(g.odd_indices) == 2
    g = build_gl(2, 1)
    assert g.dim == 9 and len(g.odd_indices) == 4


def test_gl_validates():
    assert build_gl(1, 1).validate() == []
    assert build_gl(2, 1).validate() == []


def test_sl_dimensions_and_supertrace():
    s = build_sl(2, 1)
    assert s.dim == 8 and len(s.odd_indices) == 4
    rep = s.faithful_rep
    for i in range(s.dim):
        assert supertrace(rep.action[i], rep.parity) == 0


def test_sl_nn_constructs_but_is_not_simple():
    # the supertrace-zero identity is central, so sl(n|n) never decomposes
    # into simples; it still validates and carries a cone witness
    s = build_sl(1, 1)
    assert s.dim == 3
    assert s.validate() == []
    assert len(s.center()) == 1
    from superkit.roots import g1ss_structural_scan
    w = g1ss_structural_scan(s).witness
    assert w is not None and s.in_g1ss(w)


def test_defining_reps_satisfy_representation_law():
    # bracket agrees with matrix supercommutators on all basis pairs
    for g in (build_gl(1, 1), build_gl(2, 1), build_sl(2, 1), build_osp1(1),
              build_osp1(2)):
        assert validate_module(g, g.faithful_rep) == []


def test_osp_dimensions():
    for n in (1, 2, 3):
        g = build_osp1(n)
        assert g.dim == n * (2 * n + 1) + 2 * n
        assert len(g.odd_indices) == 2 * n
        assert g.validate() == []


def test_osp_odd_bracket_is_isomorphism_onto_even_part():
    for n in (1, 2, 3):
        g = build_osp1(n)
        odd = g.odd_indices
        cols = []
        for p in range(len(odd)):
            for q in range(p, len(odd)):
                cols.append(g.bracket(g.basis_vector(odd[p]), g.basis_vector(odd[q])))
        m = 2 * n
        assert len(cols) == m * (m + 1) // 2 == n * (2 * n + 1)
        assert rank(Matrix.from_columns(cols)) == len(g.even_indices)


def test_osp_symplectic_pairing_normalization():
    # (a_i, b_j) = delta_ij: the bracket [a_i, b_j] acts on a_i by +1
    for n in (1, 2):
        g = build_osp1(n)
        a_idx, b_idx = osp_odd_indices(n)
        for i in range(n):
            h = g.bracket(g.basis_vector(a_idx[i]), g.basis_vector(b_idx[i]))
            acted = g.bracket(h, g.basis_vector(a_idx[i]))
            assert acted == g.basis_vector(a_idx[i])


def test_toys():
    nil = build_toy("toy_odd_nilpotent")
    assert nil.dim == 1 and nil.parity == (ODD,)
    assert nil.validate() == []
    assert nil.in_g1ss([Q(1)])
    toy = build_toy("toy_odd_semisimple")
    assert toy.dim == 2 and toy.parity == (EVEN, ODD)
    assert toy.validate() == []
    assert toy.bracket([0, 1], [0, 1]) == [Q(2), Q(0)]   # [u,u] = 2h
    assert toy.in_g1ss([Q(0), Q(1)])
    with pytest.raises(ValueError):
        build_toy("no_such_toy")


def test_product_block_structure():
    g = build_product([build_osp1(1), build_osp1(2)])
    assert g.dim == 19
    assert g.validate() == []
    assert len(g.center()) == 0


def test_product_with_torus_center():
    g = build_product([build_gl(1, 0), build_osp1(1)])
    assert len(g.center()) == 1


def test_empty_product_is_zero_algebra():
    g = build_product([])
    assert g.dim == 0
    assert g.validate() == []
    assert g.center() == []


def test_parse_family_spec():
    assert parse_family_spec("gl:1:1").dim == 4
    assert parse_family_spec("osp1:2").dim == 14
    assert parse_family_spec("sl:2:1").dim == 8
    assert parse_family_spec("product:osp1:1,osp1:2").dim == 19
    assert parse_family_spec("toy_odd_semisimple").dim == 2
    assert parse_family_spec("product:").dim == 0
    for bad in ("nope", "gl:1", "osp1:x"):
        with pytest.raises(ValueError):
            parse_family_spec(bad)
