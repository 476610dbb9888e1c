"""PBW arithmetic, coinvariants, ghost criterion, and the product invariant."""

import itertools
import random

import pytest
from fractions import Fraction as Q

from superkit.core import EVEN, ODD, LieSuperalgebra
from superkit.enveloping import (
    LEFT,
    NOT_SEMISIMPLE,
    RIGHT,
    SEMISIMPLE,
    CoinvariantElement,
    EnvelopingElement,
    QuotientTooLarge,
    WEIGHT_ZERO_BUDGET,
    coinvariant_dim,
    coinvariant_project,
    djokovic_element,
    _antipode_words,
    _column,
    _project_words,
    _weight_dp,
    _weight_zero_masks,
    ghost_criterion,
    invariants,
    is_coinvariant_invariant,
    module_action,
    pbw_normal_form,
    verify_djokovic,
)
from superkit.families import (
    algebra_from_matrices,
    build_gl,
    build_osp1,
    build_sl,
    build_toy,
    parse_family_spec,
)
from superkit.linalg import Matrix, in_span, kernel_basis, rank, solve_linear, zero_vec
from superkit.reps import induced_trivial


# -- reference oracles: the Fraction column recursion and the dense matrices ----------

def reference_columns(g):
    """The Fraction recursion that `_column` replaced, read off
    `bracket_sparse`: column(side, i, mask) maps T to the coordinate of x_T
    in e_i . x_S (left quotient) or x_S . e_i (right quotient)."""
    odd = g.odd_indices
    pos = {idx: t for t, idx in enumerate(odd)}
    memo = {}

    def column(side, i, mask):
        key = (side, i, mask)
        if key in memo:
            return memo[key]
        t = pos.get(i)
        if side == LEFT:
            s = (mask & -mask).bit_length() - 1
            extends = t is not None and (mask == 0 or t < s)
        else:
            s = mask.bit_length() - 1
            extends = t is not None and t > s
        col = {}

        def add(src, c):
            for m, a in src.items():
                col[m] = col.get(m, Q(0)) + c * a

        if extends:
            col[mask | 1 << t] = Q(1)
        elif mask:
            rest = mask & ~(1 << s)
            es = odd[s]
            if t == s:
                for l, q in g.bracket_sparse(i, i):
                    add(column(side, l, rest), q / 2)
            else:
                sign = 1 if t is None else -1
                for m, c in column(side, i, rest).items():
                    add(column(side, es, m), sign * c)
                pair = (i, es) if side == LEFT else (es, i)
                for l, q in g.bracket_sparse(*pair):
                    add(column(side, l, rest), q)
        memo[key] = {m: a for m, a in col.items() if a}
        return memo[key]

    return column


def coinvariant_action_matrices(g, side):
    """One dense 2^k x 2^k matrix per basis element, from the reference
    columns: left multiplication on the left quotient, right multiplication
    on the right quotient."""
    column = reference_columns(g)
    dim = coinvariant_dim(g)
    mats = []
    for i in range(g.dim):
        mat = Matrix.zeros(dim, dim)
        for mask in range(dim):
            for t, c in column(side, i, mask).items():
                mat.data[t][mask] = c
        mats.append(mat)
    return mats


def unit_vec(g, name):
    v = zero_vec(g.dim)
    v[g.names.index(name)] = Q(1)
    return v


def word_of(g, *names):
    return tuple(g.names.index(nm) for nm in names)


# -- normal form ----------------------------------------------------------------

def test_normal_form_empty_word_is_unit():
    g = build_gl(1, 1)
    assert pbw_normal_form(g, ()) == EnvelopingElement.unit(g)


def test_normal_form_gl11_swap():
    g = build_gl(1, 1)
    # E21 E12 = -E12 E21 + E11 + E22
    got = pbw_normal_form(g, word_of(g, "E21", "E12"))
    expected = EnvelopingElement(g, {
        word_of(g, "E12", "E21"): Q(-1),
        word_of(g, "E11"): Q(1),
        word_of(g, "E22"): Q(1),
    })
    assert got == expected


def test_normal_form_osp_odd_square():
    g = build_osp1(1)
    # a a = [a,a]/2, an even element (the family normalization makes it -B11)
    got = pbw_normal_form(g, word_of(g, "a1", "a1"))
    sq = g.odd_square(unit_vec(g, "a1"))
    assert got == EnvelopingElement.from_lie(g, sq)
    assert got == EnvelopingElement(g, {word_of(g, "B11"): Q(-1)})


def test_confluence_on_random_words():
    rng = random.Random(1)
    for g in (build_osp1(1), build_gl(1, 1)):
        for _ in range(100):
            w = tuple(rng.randrange(g.dim) for _ in range(rng.randint(0, 6)))
            assert pbw_normal_form(g, w, "leftmost") == pbw_normal_form(g, w, "rightmost")


# -- ring operations ----------------------------------------------------------------

def test_multiply_unit_and_associativity():
    g = build_gl(1, 1)
    rng = random.Random(2)

    def rand_elt():
        out = EnvelopingElement(g, {})
        for _ in range(rng.randint(1, 3)):
            w = tuple(rng.randrange(g.dim) for _ in range(rng.randint(0, 3)))
            out = out + EnvelopingElement.from_word(g, w, rng.randint(-2, 2))
        return out

    one = EnvelopingElement.unit(g)
    for _ in range(20):
        x, y, z = rand_elt(), rand_elt(), rand_elt()
        assert one * x == x
        assert (x * y) * z == x * (y * z)


def test_odd_generator_squares_to_odd_square():
    g = build_gl(1, 1)
    u = [a + b for a, b in zip(unit_vec(g, "E12"), unit_vec(g, "E21"))]
    uel = EnvelopingElement.from_lie(g, u)
    assert uel * uel == EnvelopingElement.from_lie(g, g.odd_square(u))


# -- counit and antipode ----------------------------------------------------------------

def test_counit_basics():
    g = build_gl(1, 1)
    assert EnvelopingElement.unit(g).counit() == 1
    for i in range(g.dim):
        assert EnvelopingElement.from_word(g, (i,)).counit() == 0


def test_counit_of_product_element_n2():
    _, v = djokovic_element(2)
    assert v.counit() == 3


def test_antipode_on_generators_and_unit():
    g = build_osp1(1)
    one = EnvelopingElement.unit(g)
    assert one.antipode() == one
    for i in range(g.dim):
        e = EnvelopingElement.from_word(g, (i,))
        assert e.antipode() == e.scale(-1)


def test_antipode_reverses_products_with_super_sign():
    g = build_gl(1, 1)
    for nm_a in g.names:
        for nm_b in g.names:
            a = EnvelopingElement.from_word(g, word_of(g, nm_a))
            b = EnvelopingElement.from_word(g, word_of(g, nm_b))
            pa = g.parity[g.names.index(nm_a)]
            pb = g.parity[g.names.index(nm_b)]
            sign = -1 if pa and pb else 1
            assert (a * b).antipode() == (b.antipode() * a.antipode()).scale(sign)


def test_antipode_is_an_involution():
    rng = random.Random(3)
    for g in (build_gl(1, 1), build_osp1(1)):
        for _ in range(30):
            x = EnvelopingElement(g, {})
            for _ in range(rng.randint(1, 3)):
                w = tuple(rng.randrange(g.dim) for _ in range(rng.randint(0, 4)))
                x = x + EnvelopingElement.from_word(g, w, rng.randint(-2, 2))
            assert x.antipode().antipode() == x


# -- coinvariant modules -------------------------------------------------------------------

def test_coinvariant_dims_are_2_to_the_odd_dim():
    for g in (build_gl(1, 1), build_sl(2, 1), build_osp1(2)):
        d = coinvariant_dim(g)
        assert d == 2 ** len(g.odd_indices)
        for side in (LEFT, RIGHT):
            for m in coinvariant_action_matrices(g, side):
                assert m.rows == m.cols == d


def test_project_unit_and_even_elements():
    g = build_gl(1, 1)
    one = coinvariant_project(g, EnvelopingElement.unit(g), LEFT)
    assert one.coords[0] == 1 and all(c == 0 for c in one.coords[1:])
    ev = coinvariant_project(g, EnvelopingElement.from_word(g, word_of(g, "E11")), LEFT)
    assert ev.is_zero()


def test_project_odd_product_both_sides():
    g = build_gl(1, 1)
    xy = EnvelopingElement.from_word(g, word_of(g, "E12", "E21"))
    left = coinvariant_project(g, xy, LEFT)
    right = coinvariant_project(g, xy, RIGHT)
    # subset mask 3 = {E12, E21}
    assert left.coords == [Q(0), Q(0), Q(0), Q(1)]
    assert right.coords == [Q(0), Q(0), Q(0), Q(1)]
    yx = EnvelopingElement.from_word(g, word_of(g, "E21", "E12"))
    assert coinvariant_project(g, yx, LEFT).coords == [Q(0), Q(0), Q(0), Q(-1)]
    assert coinvariant_project(g, yx, RIGHT).coords == [Q(0), Q(0), Q(0), Q(-1)]


def test_module_action_frozen_matrix_gl11():
    g = build_gl(1, 1)
    u = [a + b for a, b in zip(unit_vec(g, "E12"), unit_vec(g, "E21"))]
    cols = []
    for mask in range(4):
        coords = [Q(0)] * 4
        coords[mask] = Q(1)
        w = CoinvariantElement(g, LEFT, coords)
        cols.append(module_action(g, u, w).coords)
    # computed by reducing all four products by hand
    assert Matrix.from_columns(cols) == Matrix([
        [0, 0, 0, 0],
        [1, 0, 0, 0],
        [1, 0, 0, 0],
        [0, -1, 1, 0],
    ])


def test_left_action_of_z_on_unit_is_projection_of_z():
    g = build_sl(2, 1)
    one = CoinvariantElement(g, LEFT, [Q(1)] + [Q(0)] * (coinvariant_dim(g) - 1))
    for i in range(g.dim):
        acted = module_action(g, g.basis_vector(i), one)
        direct = coinvariant_project(g, EnvelopingElement.from_word(g, (i,)), LEFT)
        assert acted.coords == direct.coords
        if g.parity[i] == EVEN:
            assert acted.is_zero()


# -- invariants and the ghost criterion -----------------------------------------------------

def test_invariants_purely_even_algebra():
    g = build_gl(2, 0)
    for side in (LEFT, RIGHT):
        inv = invariants(g, side)
        assert len(inv) == 1 and inv[0].coords == [Q(1)]


def test_invariants_osp1_both_sides():
    g = build_osp1(1)
    for side in (LEFT, RIGHT):
        inv = invariants(g, side)
        assert len(inv) == 1
        v = inv[0]
        scaled = v.scale(Q(1) / v.coords[0])
        assert scaled.coords == [Q(1), Q(0), Q(0), Q(1)]  # 1 + a1 b1


def test_invariants_gl11():
    g = build_gl(1, 1)
    inv = invariants(g, RIGHT)
    assert len(inv) == 1
    assert inv[0].counit() == 0


def test_ghost_criterion_verdicts():
    ghost, verdict = ghost_criterion(build_osp1(1))
    assert verdict == SEMISIMPLE and ghost.epsilon_value == 1
    assert ghost.v.coords[0] == 1 and ghost.invariant_dim == 1
    ghost, verdict = ghost_criterion(build_gl(1, 1))
    assert verdict == NOT_SEMISIMPLE and ghost.epsilon_value == 0
    ghost, verdict = ghost_criterion(build_toy("toy_odd_semisimple"))
    assert verdict == NOT_SEMISIMPLE and ghost.epsilon_value == 0
    ghost, verdict = ghost_criterion(build_gl(1, 0))
    assert verdict == SEMISIMPLE and ghost.epsilon_value == 1


def test_antipode_exchanges_invariants_between_sides():
    for g in (build_gl(1, 1), build_osp1(1), build_toy("toy_odd_semisimple"),
              build_sl(2, 1)):
        for src, dst in ((LEFT, RIGHT), (RIGHT, LEFT)):
            for w in invariants(g, src):
                lift = EnvelopingElement(
                    g,
                    {tuple(i for t, i in enumerate(g.odd_indices) if mask >> t & 1): c
                     for mask, c in enumerate(w.coords) if c != 0},
                )
                image = coinvariant_project(g, lift.antipode(), dst)
                assert not image.is_zero()
                assert is_coinvariant_invariant(g, image)


def test_invariant_dimensions_and_counits_agree_across_sides():
    for g in (build_gl(1, 1), build_osp1(1), build_toy("toy_odd_semisimple")):
        left = invariants(g, LEFT)
        right = invariants(g, RIGHT)
        assert len(left) == len(right)
        assert {v.counit() == 0 for v in left} == {v.counit() == 0 for v in right}


def test_witness_forces_zero_counit_on_invariants():
    # for u in the cone and any left invariant v, v = u . v' is solvable and
    # the counit of v vanishes
    cases = [
        (build_gl(1, 1), "E12+E21"),
        (build_sl(2, 1), "E13"),
        (build_toy("toy_odd_semisimple"), "u"),
    ]
    for g, expr in cases:
        u = zero_vec(g.dim)
        for nm in expr.split("+"):
            u[g.names.index(nm)] += Q(1)
        assert g.in_g1ss(u)
        umat = Matrix.zeros(coinvariant_dim(g), coinvariant_dim(g))
        for i, c in enumerate(u):
            if c:
                umat = umat.add(coinvariant_action_matrices(g, LEFT)[i].scale(c))
        for v in invariants(g, LEFT):
            assert solve_linear(umat, v.coords) is not None
            assert v.counit() == 0


# -- the classical product element ------------------------------------------------------------

def test_djokovic_reports():
    for n, eps in ((1, 1), (2, 3), (3, 15), (4, 105), (5, 945)):
        rep = verify_djokovic(n)
        assert rep.ok
        assert rep.epsilon == eps
    for n in (0, 6):
        with pytest.raises(ValueError):
            verify_djokovic(n)


def test_djokovic_n1_element_is_the_invariant():
    g, v = djokovic_element(1)
    assert str(v) == "1 + a1*b1"
    assert coinvariant_project(g, v, LEFT).coords == [Q(1), Q(0), Q(0), Q(1)]


def test_product_element_spans_invariant_line():
    for n in (1, 2):
        g, v = djokovic_element(n)
        vp = coinvariant_project(g, v, LEFT)
        inv = invariants(g, LEFT)
        assert len(inv) == 1
        assert in_span([inv[0].coords], vp.coords) is not None


# -- sign-convention regression -----------------------------------------------------------------

def osp12_with_literal_bracket():
    """osp(1|2) with the odd bracket [u,v](w) = (u,w)v + (v,w)u applied
    literally to (a,b) = 1: the opposite normalization to build_osp1."""
    # h, e, f, a, b with [h,e]=2e, [h,f]=-2f, [e,f]=h, [h,a]=a, [h,b]=-b,
    # [e,b]=a, [f,a]=b, [a,a]=2e, [b,b]=-2f, [a,b]=-h
    table = {
        (0, 1): {1: Q(2)}, (1, 0): {1: Q(-2)},
        (0, 2): {2: Q(-2)}, (2, 0): {2: Q(2)},
        (1, 2): {0: Q(1)}, (2, 1): {0: Q(-1)},
        (0, 3): {3: Q(1)}, (3, 0): {3: Q(-1)},
        (0, 4): {4: Q(-1)}, (4, 0): {4: Q(1)},
        (1, 4): {3: Q(1)}, (4, 1): {3: Q(-1)},
        (2, 3): {4: Q(1)}, (3, 2): {4: Q(-1)},
        (3, 3): {1: Q(2)},
        (4, 4): {2: Q(-2)},
        (3, 4): {0: Q(-1)}, (4, 3): {0: Q(-1)},
    }
    return LieSuperalgebra([EVEN, EVEN, EVEN, ODD, ODD], table,
                           ["h", "e", "f", "a", "b"])


def test_literal_bracket_flips_the_invariant_sign():
    """With the opposite bracket normalization the spanning invariant is
    1 - a b, which is why build_osp1 fixes the convention it does."""
    g = osp12_with_literal_bracket()
    assert g.validate() == []
    for side in (LEFT, RIGHT):
        inv = invariants(g, side)
        assert len(inv) == 1
        v = inv[0].scale(Q(1) / inv[0].coords[0])
        assert v.coords == [Q(1), Q(0), Q(0), Q(-1)]  # 1 - a b


# -- weight-graded invariants against the full action matrices ---------------------------------

def gl11_rotated_odd_basis():
    """gl(1|1) with odd basis E12 + E21, E12 - E21.  No even basis element
    acts diagonally on it, so every subset has weight zero."""
    mats = [Matrix([[1, 0], [0, 0]]), Matrix([[0, 0], [0, 1]]),
            Matrix([[0, 1], [1, 0]]), Matrix([[0, 1], [-1, 0]])]
    return algebra_from_matrices(mats, [EVEN, EVEN, ODD, ODD], [EVEN, ODD],
                                 ["E11", "E22", "u", "v"])


def weight_graded_cases():
    return [build_gl(1, 1), build_sl(2, 1), build_osp1(1), build_osp1(2),
            build_toy("toy_odd_semisimple"), parse_family_spec("product:osp1:1,osp1:1"),
            osp12_with_literal_bracket(), gl11_rotated_odd_basis()]


def test_rotated_gl11_has_no_weight_grading():
    g = gl11_rotated_odd_basis()
    assert g.validate() == []
    assert _weight_zero_masks(g) == list(range(coinvariant_dim(g)))
    assert len(_weight_zero_masks(build_osp1(2))) == 4


def test_invariants_match_joint_kernel_of_full_matrices():
    rng = random.Random(11)
    for g in weight_graded_cases():
        dim = coinvariant_dim(g)
        for side in (LEFT, RIGHT):
            mats = coinvariant_action_matrices(g, side)
            full = kernel_basis(Matrix([row for m in mats for row in m.data]))
            inv = [v.coords for v in invariants(g, side)]
            assert len(inv) == len(full) == rank(Matrix(full + inv)), (g.names, side)
            for _ in range(10):
                coords = zero_vec(dim)
                for mask in rng.sample(range(dim), rng.randint(1, min(3, dim))):
                    coords[mask] = Q(rng.randint(-3, 3), rng.randint(1, 3))
                z = [Q(rng.randint(-2, 2)) if rng.random() < 0.5 else Q(0)
                     for _ in range(g.dim)]
                expected = zero_vec(dim)
                for i, zi in enumerate(z):
                    col = mats[i].matvec(coords)
                    expected = [a + zi * b for a, b in zip(expected, col)]
                w = CoinvariantElement(g, side, coords)
                assert module_action(g, z, w).coords == expected


# -- the coinvariant projections against an independent rewriter -------------------------------

def even_first_normal_form(g, items):
    """Reference rewriter: PBW normal form with the even letters first, each
    block ascending, and no repeated odd letter.  Kept apart from the package,
    whose only normal form puts the odd letters first."""
    par = g.parity
    out = {}
    stack = [(tuple(w), Q(c)) for w, c in items]
    while stack:
        w, c = stack.pop()
        for k in range(len(w) - 1):
            i, j = w[k], w[k + 1]
            if (i == j and par[i] == ODD) or (par[i], i) > (par[j], j):
                break
        else:
            out[w] = out.get(w, Q(0)) + c
            continue
        head, tail = w[:k], w[k + 2:]
        if i == j:
            stack.extend((head + (l,) + tail, c * q / 2) for l, q in g.bracket_sparse(i, i))
        else:
            sign = -1 if par[i] and par[j] else 1
            stack.append((head + (j, i) + tail, sign * c))
            stack.extend((head + (l,) + tail, c * q) for l, q in g.bracket_sparse(i, j))
    return out


def reference_projection(g, x, side):
    """Coordinates of x in U/(U g0) or U/(g0 U), read off a normal form with
    the even letters on the side of the ideal (odd-first on the left,
    even-first on the right) by deleting every monomial with an even letter."""
    terms = x.terms if side == LEFT else even_first_normal_form(g, x.terms.items())
    pos = {idx: t for t, idx in enumerate(g.odd_indices)}
    coords = zero_vec(coinvariant_dim(g))
    for w, c in terms.items():
        if all(g.parity[i] == ODD for i in w):
            coords[sum(1 << pos[i] for i in w)] += c
    return coords


def test_action_columns_match_pbw_normal_forms():
    for g in weight_graded_cases():
        odd = g.odd_indices
        for side in (LEFT, RIGHT):
            mats = coinvariant_action_matrices(g, side)
            for mask in range(coinvariant_dim(g)):
                sword = tuple(odd[t] for t in range(len(odd)) if mask >> t & 1)
                for i in range(g.dim):
                    word = (i,) + sword if side == LEFT else sword + (i,)
                    projected = reference_projection(g, pbw_normal_form(g, word), side)
                    assert mats[i].column(mask) == projected


def random_element(g, rng):
    x = EnvelopingElement(g, {})
    for _ in range(rng.randint(1, 4)):
        w = tuple(rng.randrange(g.dim) for _ in range(rng.randint(0, 5)))
        x = x + EnvelopingElement.from_word(g, w, Q(rng.randint(-3, 3), rng.randint(1, 2)))
    return x


def test_unrewritten_words_project_like_their_normal_form():
    rng = random.Random(7)
    for spec in ("osp1:1", "gl:1:1", "sl:2:1"):
        g = parse_family_spec(spec)
        for _ in range(25):
            x = random_element(g, rng)
            sx = x.antipode()
            words = _antipode_words(g, x.terms)
            for side in (LEFT, RIGHT):
                assert coinvariant_project(g, x, side).coords == reference_projection(g, x, side)
                projected = coinvariant_project(g, sx, side)
                assert projected.coords == reference_projection(g, sx, side)
                assert _project_words(g, words, side) == projected.coords
    for n in (1, 2, 3, 4):
        g, v = djokovic_element(n)
        words = _antipode_words(g, v.terms)
        assert _project_words(g, words, RIGHT) == coinvariant_project(g, v.antipode(), RIGHT).coords


def test_projection_rejects_an_unknown_side():
    g = build_gl(1, 1)
    for x in (EnvelopingElement.unit(g), EnvelopingElement.from_word(g, (2,))):
        with pytest.raises(ValueError):
            coinvariant_project(g, x, "middle")


# -- integer columns against the Fraction recursion ----------------------------------------------

# the ghost and classify benchmark specs
ORACLE_SPECS = ("osp1:1", "osp1:2", "osp1:3", "osp1:4", "gl:1:1", "gl:2:1", "sl:2:1",
                "sl:3:1", "toy_odd_semisimple", "product:osp1:1,osp1:2", "gl:2:2",
                "product:osp1:1,osp1:1,osp1:1", "product:osp1:2,gl:1:1")
RESCALED_SPECS = ("osp1:1", "osp1:2", "gl:1:1", "sl:2:1", "toy_odd_semisimple")


def rescaled(spec):
    """The family rebuilt from its defining matrices with e_i -> e_i / k_i,
    k_i in {1, 2, 3}, as in tests/test_core.py: a common denominator D > 1."""
    g = parse_family_spec(spec)
    ks = [1 + i % 3 for i in range(g.dim)]
    mats = [m.scale(Q(1, k)) for m, k in zip(g.faithful_rep.action, ks)]
    h = algebra_from_matrices(mats, g.parity, g.faithful_rep.parity, g.names, cartan=g.cartan)
    assert h._den > 1
    return h


ORACLE_CASES = ([pytest.param(parse_family_spec, s, id=s) for s in ORACLE_SPECS]
                + [pytest.param(rescaled, s, id=f"rescaled-{s}") for s in RESCALED_SPECS])


def graded(g, col, mask):
    """The Fraction column of an integer column N of e_i . x_S:
    N_T (2D)^(|T| - |S| - 1) at T."""
    base = Q(2 * g._den)
    return {t: n * base ** (bin(t).count("1") - bin(mask).count("1") - 1)
            for t, n in col.items()}


@pytest.mark.parametrize("build, spec", ORACLE_CASES)
def test_integer_columns_match_the_fraction_recursion(build, spec):
    g = build(spec)
    ref = reference_columns(g)
    for side in (LEFT, RIGHT):
        for i in range(g.dim):
            for mask in range(coinvariant_dim(g)):
                col = _column(g, side, i, mask)
                assert all(type(n) is int and n for n in col.values())
                assert graded(g, col, mask) == ref(side, i, mask), (side, i, mask)


@pytest.mark.parametrize("build, spec", [pytest.param(rescaled, s, id=s) for s in RESCALED_SPECS])
def test_integer_layer_on_a_common_denominator(build, spec):
    """invariants, module_action and word projections on algebras with D > 1
    against the dense reference matrices."""
    g = build(spec)
    rng = random.Random(5)
    dim = coinvariant_dim(g)
    for side in (LEFT, RIGHT):
        mats = coinvariant_action_matrices(g, side)
        full = kernel_basis(Matrix([row for m in mats for row in m.data]))
        inv = [v.coords for v in invariants(g, side)]
        assert len(inv) == len(full) == rank(Matrix(full + inv))
        for _ in range(10):
            coords = [Q(rng.randint(-3, 3), rng.randint(1, 3)) if rng.random() < 0.5 else Q(0)
                      for _ in range(dim)]
            z = [Q(rng.randint(-2, 2), rng.randint(1, 2)) for _ in range(g.dim)]
            expected = zero_vec(dim)
            for i, zi in enumerate(z):
                expected = [a + zi * b for a, b in zip(expected, mats[i].matvec(coords))]
            assert module_action(g, z, CoinvariantElement(g, side, coords)).coords == expected
        for _ in range(10):
            words = [(tuple(rng.randrange(g.dim) for _ in range(rng.randint(0, 4))),
                      Q(rng.randint(-3, 3), rng.randint(1, 3))) for _ in range(3)]
            expected = zero_vec(dim)
            for w, c in words:
                x = zero_vec(dim)
                x[0] = c
                for i in (reversed(w) if side == LEFT else w):
                    x = mats[i].matvec(x)
                expected = [a + b for a, b in zip(expected, x)]
            assert _project_words(g, words, side) == expected


INDUCED_SPECS = ("gl:1:1", "gl:2:1", "sl:2:1", "osp1:1", "osp1:2", "product:osp1:1,gl:1:1",
                 "toy_odd_semisimple")


@pytest.mark.parametrize("build, spec",
                         [pytest.param(parse_family_spec, s, id=s) for s in INDUCED_SPECS]
                         + [pytest.param(rescaled, s, id=f"rescaled-{s}") for s in RESCALED_SPECS])
def test_induced_trivial_matches_the_dense_oracle(build, spec):
    g = build(spec)
    m = induced_trivial(g)
    assert m.action == coinvariant_action_matrices(g, LEFT)
    assert m.parity == tuple(bin(mask).count("1") % 2 for mask in range(coinvariant_dim(g)))


def fresh(spec):
    """A newly built family algebra, not one the builders' caches share."""
    for build in (build_gl, build_sl, build_osp1, build_toy):
        build.cache_clear()
    return parse_family_spec(spec)


@pytest.mark.parametrize("spec", ["osp1:2", "gl:2:1", "toy_odd_semisimple",
                                  "product:osp1:1,osp1:2"])
def test_ghost_never_builds_the_fraction_bracket_view(spec):
    g = fresh(spec)
    assert g._sparse is None
    ghost, _ = ghost_criterion(g)
    assert is_coinvariant_invariant(g, ghost.v)
    invariants(g, LEFT)
    induced_trivial(g)
    assert g._sparse is None


# -- counting the weight-zero subsets ------------------------------------------------------

def brute_force_weight_zero_masks(g):
    """Every subset of the odd basis, with the diagonal weights read off
    `bracket` on basis vectors."""
    odd = g.odd_indices
    diag = []
    for h in g.even_indices:
        lam = []
        for j in odd:
            br = g.bracket(g.basis_vector(h), g.basis_vector(j))
            if any(c for k, c in enumerate(br) if k != j):
                break
            lam.append(br[j])
        else:
            diag.append(lam)
    return [mask for mask in range(1 << len(odd))
            if all(sum(lam[t] for t in range(len(odd)) if mask >> t & 1) == 0 for lam in diag)]


@pytest.mark.parametrize("spec", ["gl:2:2", "osp1:3", "sl:3:1", "product:osp1:1,gl:1:1"])
def test_weight_dp_matches_brute_force(spec):
    g = parse_family_spec(spec)
    brute = brute_force_weight_zero_masks(g)
    _, counts, zero = _weight_dp(g)
    assert counts[-1][zero] == len(brute)
    assert _weight_zero_masks(g) == brute


def gl_weight_zero_count(m, n):
    """The weight-zero subsets of the odd basis of gl(m|n), counted without
    its bracket table.  X_ab = E_{a, m+b} has weight e_a - d_b and
    Y_ab = E_{m+b, a} the opposite, so a subset has weight zero exactly when
    Z = X - Y, for its 0/1 indicator matrices X and Y, has zero row and
    column sums; an entry 0 of Z comes from two choices (neither or both), an
    entry +-1 from one.  A dynamic program over the rows of Z."""
    rows = [z for z in itertools.product((-1, 0, 1), repeat=n) if sum(z) == 0]
    states = {(0,) * n: 1}
    for _ in range(m):
        nxt = {}
        for cols, c in states.items():
            for z in rows:
                key = tuple(a + b for a, b in zip(cols, z))
                nxt[key] = nxt.get(key, 0) + c * 2 ** z.count(0)
        states = nxt
    return states.get((0,) * n, 0)


def test_weight_zero_counts_of_gl():
    assert gl_weight_zero_count(1, 1) == 2
    assert gl_weight_zero_count(2, 2) == len(brute_force_weight_zero_masks(build_gl(2, 2)))
    for m, n in ((2, 1), (2, 2), (3, 2)):
        _, counts, zero = _weight_dp(build_gl(m, n))
        assert counts[-1][zero] == gl_weight_zero_count(m, n)
    assert gl_weight_zero_count(4, 4) == 824410


def test_quotient_over_budget_is_refused_before_listing():
    with pytest.raises(QuotientTooLarge) as err:
        ghost_criterion(build_gl(4, 4))
    assert err.value.count == gl_weight_zero_count(4, 4) > WEIGHT_ZERO_BUDGET
    assert "824410 weight-zero subsets" in str(err.value)
