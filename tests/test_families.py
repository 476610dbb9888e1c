"""Family constructors: dimensions, axioms, defining representations."""

import pytest
from fractions import Fraction as Q

from superkit import catalog
from superkit.core import EVEN, ODD, LieSuperalgebra
from superkit.families import (
    algebra_from_matrices,
    build_gl,
    build_osp1,
    build_product,
    build_sl,
    build_toy,
    osp_odd_indices,
    parse_family_spec,
    supertrace,
)
from superkit.linalg import Matrix, rank, solve_linear
from superkit.reps import SuperModule, validate_module
from support import rescale_factors, rescaled


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


def test_algebra_from_matrices_refuses_a_span_not_closed_under_the_bracket():
    # E12 and E21 of gl(2) without their bracket E11 - E22
    with pytest.raises(ValueError, match="matrix span is not closed under the supercommutator"):
        algebra_from_matrices([unit(2, 0, 1), unit(2, 1, 0)], [EVEN, EVEN], [EVEN, EVEN],
                              ["e", "f"])


def test_algebra_from_matrices_refuses_dependent_matrices():
    e = unit(2, 0, 1)
    with pytest.raises(ValueError, match="linearly dependent"):
        algebra_from_matrices([e, e.scale(2)], [EVEN, EVEN], [EVEN, EVEN], ["e", "e2"])


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


# -- integer construction against the Fraction reference -------------------------------------

def reference_algebra_from_matrices(mats, mat_parity, space_parity, names, cartan=None):
    """An independent Fraction path: for every ordered pair, the
    supercommutator of the dense matrices by `Matrix.mul`, solved for by
    `solve_linear` in the flattened basis matrices, and the constructor's
    conversion to the integer table."""
    basis = Matrix.from_columns([[x for row in m.data for x in row] for m in mats])
    products = [[mi.mul(mj) for mj in mats] for mi in mats]
    table = {}
    for i in range(len(mats)):
        for j in range(len(mats)):
            sign = 1 if mat_parity[i] and mat_parity[j] else -1
            br = products[i][j].add(products[j][i].scale(sign))
            if br.is_zero():
                continue
            comps = solve_linear(basis, [x for row in br.data for x in row])
            table[(i, j)] = {k: c for k, c in enumerate(comps) if c}
    rep = SuperModule(parity=space_parity, action=mats, name="defining")
    return LieSuperalgebra(mat_parity, table, names, faithful_rep=rep, cartan=cartan)


def unit(d, a, b):
    m = Matrix.zeros(d, d)
    m.data[a][b] = Q(1)
    return m


def dense_family(spec):
    """(matrices, parities, space parity, names, cartan) of a gl, sl, osp1 or
    toy spec, built as dense Fraction matrices."""
    kind, *args = spec.split(":")
    args = [int(a) for a in args]
    if kind in ("gl", "sl"):
        m, n = args
        d = m + n
        par = [EVEN] * m + [ODD] * n
        mats, parities, names, cartan = [], [], [], []
        for a in range(d):
            for b in range(d):
                if kind == "gl" or a != b:
                    mats.append(unit(d, a, b))
                    parities.append((par[a] + par[b]) % 2)
                    names.append(f"E{a + 1}{b + 1}")
                    if a == b:
                        cartan.append(len(mats) - 1)
        if kind == "sl":
            for a in range(d - 1):
                other = unit(d, a + 1, a + 1)
                diag = unit(d, a, a).add(other) if par[a] != par[a + 1] else unit(d, a, a).sub(other)
                mats.append(diag)
                parities.append(EVEN)
                names.append(f"D{a + 1}")
                cartan.append(len(mats) - 1)
        return mats, parities, par, names, cartan
    if kind == "osp1":
        (n,) = args
        d, k = 1 + 2 * n, 2 * n
        form = Matrix.zeros(k, k)
        for i in range(n):
            form.data[i][n + i], form.data[n + i][i] = Q(1), Q(-1)
        sp, names = [], []
        for i in range(n):
            for j in range(n):
                sp.append(unit(k, i, j).sub(unit(k, n + j, n + i)))
                names.append(f"M{i + 1}{j + 1}")
        for block, (r0, c0) in (("B", (0, n)), ("C", (n, 0))):
            for i in range(n):
                sp.append(unit(k, r0 + i, c0 + i))
                names.append(f"{block}{i + 1}{i + 1}")
                for j in range(i + 1, n):
                    sp.append(unit(k, r0 + i, c0 + j).add(unit(k, r0 + j, c0 + i)))
                    names.append(f"{block}{i + 1}{j + 1}")
        mats = []
        for m in sp:
            big = Matrix.zeros(d, d)
            for r in range(k):
                for c in range(k):
                    big.data[1 + r][1 + c] = m.data[r][c]
            mats.append(big)
        for p in range(k):
            big = Matrix.zeros(d, d)
            big.data[1 + p][0] = Q(1)
            for c in range(k):
                big.data[0][1 + c] = -form.data[p][c]
            mats.append(big)
        names += [f"a{i + 1}" for i in range(n)] + [f"b{i + 1}" for i in range(n)]
        cartan = [names.index(f"M{i + 1}{i + 1}") for i in range(n)]
        return mats, [EVEN] * len(sp) + [ODD] * k, [EVEN] + [ODD] * k, names, cartan
    if spec == "toy_odd_nilpotent":
        return [Matrix([[0, 0], [1, 0]])], [ODD], [EVEN, ODD], ["u"], []
    u = Matrix([[0, 0, 1, 0], [0, 0, 0, 2], [1, 0, 0, 0], [0, 2, 0, 0]])
    return [u.mul(u), u], [EVEN, ODD], [EVEN, EVEN, ODD, ODD], ["h", "u"], [0]


def reference_family(spec):
    """The family built through the Fraction reference; a product takes its
    factors' Fraction brackets shifted to their blocks and the block-diagonal
    sum of their defining matrices."""
    if not spec.startswith("product:"):
        return reference_algebra_from_matrices(*dense_family(spec))
    factors = [reference_family(s) for s in spec[len("product:"):].split(",")]
    total = sum(f.dim for f in factors)
    size = sum(f.faithful_rep.dim for f in factors)
    table, mats, space, parity, names, cartan = {}, [], [], [], [], []
    offset = roff = 0
    for t, f in enumerate(factors):
        for i in range(f.dim):
            for j in range(f.dim):
                if f.bracket_sparse(i, j):
                    table[(offset + i, offset + j)] = {offset + k: q for k, q in f.bracket_sparse(i, j)}
            big = Matrix.zeros(size, size)
            for r, row in enumerate(f.faithful_rep.action[i].data):
                for c, x in enumerate(row):
                    big.data[roff + r][roff + c] = x
            mats.append(big)
        parity += f.parity
        names += [f"{t}.{nm}" for nm in f.names]
        cartan += [offset + i for i in f.cartan]
        space += f.faithful_rep.parity
        offset += f.dim
        roff += f.faithful_rep.dim
    rep = SuperModule(space, mats, "defining")
    return LieSuperalgebra(parity, table, names, faithful_rep=rep, cartan=cartan)


def same_algebra(g, ref):
    assert g._table == ref._table
    assert g._den == ref._den
    assert g.faithful_rep.action == ref.faithful_rep.action
    assert (g.parity, g.names, g.cartan) == (ref.parity, ref.names, ref.cartan)
    assert (g.faithful_rep.parity, g.faithful_rep.name) == (ref.faithful_rep.parity, "defining")


# the Fraction reference is cubic in dim g: on osp1:5 (dim 65) it alone
# takes longer than all the other Tier-1 entries together
@pytest.mark.parametrize("spec", [s for s in catalog.specs(cost=catalog.TIER1)
                                  if parse_family_spec(s).dim < 60])
def test_integer_construction_matches_the_fraction_reference(spec):
    same_algebra(parse_family_spec(spec), reference_family(spec))


@pytest.mark.parametrize("spec", catalog.specs(catalog.RESCALED))
def test_algebra_from_matrices_matches_the_fraction_reference_at_d_above_1(spec):
    g, h = parse_family_spec(spec), rescaled(spec)
    ks = rescale_factors(g.dim)
    mats = [m.scale(Q(1, k)) for m, k in zip(g.faithful_rep.action, ks)]
    same_algebra(h, reference_algebra_from_matrices(mats, g.parity, g.faithful_rep.parity,
                                                    g.names, g.cartan))
