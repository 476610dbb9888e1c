"""Exact linear algebra: examples with independent oracles, plus property tests."""

import random
from fractions import Fraction as Q
from math import gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from superkit.linalg import (
    Echelon,
    Matrix,
    _sparse_integer_rows,
    _split,
    integer_coordinates_in,
    inverse,
    is_squarefree,
    kernel_basis,
    minimal_polynomial,
    rational_eigenspaces,
    rational_roots,
    rank,
    solve_linear,
    splits_semisimply_over_q,
)


# -- reference polynomial arithmetic over Q (oracles, not the package's code) --

def poly_trim(p):
    out = [Q(c) for c in p]
    while out and out[-1] == 0:
        out.pop()
    return out


def poly_mul(p, q):
    out = [Q(0)] * max(0, len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return poly_trim(out)


def poly_divmod(p, q):
    """Schoolbook division by a nonzero q: (quotient, remainder)."""
    rem, q = poly_trim(p), poly_trim(q)
    quot = [Q(0)] * max(0, len(rem) - len(q) + 1)
    while len(rem) >= len(q):
        c, d = rem[-1] / q[-1], len(rem) - len(q)
        quot[d] = c
        rem = poly_trim([a - c * q[i - d] if i >= d else a for i, a in enumerate(rem)][:-1])
    return poly_trim(quot), rem


def matvec_is_zero(m, v):
    return all(c == 0 for c in m.matvec(v))


def poly_eval_matrix(p, m):
    """p(m) by Horner's rule."""
    acc = Matrix.zeros(m.rows, m.cols)
    for c in reversed(poly_trim(p)):
        acc = acc.mul(m) if acc.rows else acc
        if c != 0:
            acc = acc.add(Matrix.identity(m.rows).scale(c))
    return acc


# -- kernel_basis ---------------------------------------------------------------

def test_kernel_of_identity_is_empty():
    assert kernel_basis(Matrix.identity(2)) == []


def test_kernel_of_sum_functional():
    basis = kernel_basis(Matrix([[1, 1]]))
    assert len(basis) == 1
    v = basis[0]
    assert v[0] == -v[1] != 0


def oracle_rank(rows):
    # independent row-reduction rank, fraction arithmetic from scratch
    a = [[Q(x) for x in row] for row in rows]
    r = 0
    for c in range(len(a[0]) if a else 0):
        piv = next((i for i in range(r, len(a)) if a[i][c] != 0), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        for i in range(len(a)):
            if i != r and a[i][c] != 0:
                f = a[i][c] / a[r][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        r += 1
    return r


def test_kernel_of_random_rank4_matrix():
    rng = random.Random(7)
    left = [[rng.randint(-3, 3) for _ in range(4)] for _ in range(6)]
    right = [[rng.randint(-3, 3) for _ in range(6)] for _ in range(4)]
    prod = [[sum(left[i][k] * right[k][j] for k in range(4)) for j in range(6)]
            for i in range(6)]
    while oracle_rank(prod) != 4:
        left = [[rng.randint(-3, 3) for _ in range(4)] for _ in range(6)]
        right = [[rng.randint(-3, 3) for _ in range(6)] for _ in range(4)]
        prod = [[sum(left[i][k] * right[k][j] for k in range(4)) for j in range(6)]
                for i in range(6)]
    m = Matrix(prod)
    basis = kernel_basis(m)
    assert len(basis) == 2
    for v in basis:
        assert matvec_is_zero(m, v)
    assert oracle_rank(prod) + len(basis) == 6


# -- solve_linear -----------------------------------------------------------------

def test_solve_identity():
    b = [Q(3), Q(-1, 2), Q(7)]
    assert solve_linear(Matrix.identity(3), b) == b


def test_solve_inconsistent():
    assert solve_linear(Matrix([[1, 1], [1, 1]]), [Q(1), Q(0)]) is None


def test_solve_invertible_4x4_multiply_back():
    m = Matrix([[2, 1, 0, 0], [1, 2, 1, 0], [0, 1, 2, 1], [0, 0, 1, 2]])
    b = [Q(1), Q(0), Q(2), Q(-3)]
    x = solve_linear(m, b)
    assert x is not None
    assert m.matvec(x) == b


def test_solve_checks_rhs_length():
    with pytest.raises(ValueError):
        solve_linear(Matrix.identity(2), [Q(1)])


# -- coordinates of sparse integer targets ------------------------------------------

def _random_basis(rng, n, m):
    """m independent random Fraction vectors of length n."""
    while True:
        basis = [[Q(rng.randint(-3, 3), rng.choice([1, 1, 2, 3])) for _ in range(n)]
                 for _ in range(m)]
        if rank(Matrix(basis)) == m:
            return basis


def _sparse(v):
    return {i: a for i, a in enumerate(v) if a}


def _check_against_solve(basis, target):
    """integer_coordinates_in against solve_linear; the integer coordinates
    come back as sorted pairs with no zero entry, and the same from the
    basis vectors given as dicts."""
    expected = solve_linear(Matrix.from_columns(basis), [Q(a) for a in target])
    found = integer_coordinates_in(basis)(_sparse(target))
    assert integer_coordinates_in([_sparse(v) for v in basis])(_sparse(target)) == found
    if expected is None:
        assert found is None
    else:
        pairs, den = found
        assert pairs == sorted(pairs) and all(c for _, c in pairs)
        assert len({s for s, _ in pairs}) == len(pairs)
        xs = [Q(0)] * len(basis)
        for s, c in pairs:
            xs[s] = Q(c, den)
        assert xs == expected


def _check_targets(rng, basis):
    """The map on a combination of the basis, on random integer targets
    (mostly outside the span when it is not the whole space), on sparse
    ones and on zero."""
    n, m = len(basis[0]), len(basis)
    coeffs = [Q(rng.randint(-4, 4), rng.choice([1, 2, 5])) for _ in range(m)]
    inside = [sum((c * v[i] for c, v in zip(coeffs, basis)), Q(0)) for i in range(n)]
    scale = 1
    for a in inside:
        scale = scale * a.denominator // gcd(scale, a.denominator)
    _check_against_solve(basis, [int(a * scale) for a in inside])
    for _ in range(4):
        _check_against_solve(basis, [rng.randint(-5, 5) for _ in range(n)])
        sparse = [0] * n
        for r in rng.sample(range(n), min(n, 2)):
            sparse[r] = rng.choice([-3, -1, 1, 2])
        _check_against_solve(basis, sparse)
    _check_against_solve(basis, [0] * n)


@pytest.mark.parametrize("seed", range(12))
def test_integer_coordinates_match_solve_linear(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 6)
    m = rng.randint(1, n)
    _check_targets(rng, _random_basis(rng, n, m))


def _monomial_basis(rng, n, m):
    """m scaled unit vectors at distinct random positions."""
    basis = []
    for r in rng.sample(range(n), m):
        v = [Q(0)] * n
        v[r] = Q(rng.choice([-3, -1, 1, 2, 5]), rng.choice([1, 2, 3]))
        basis.append(v)
    return basis


def _chain_basis(rng, n, m):
    """v_s = a_s e_{p_s} + b_s e_{p_(s+1)} along a random order p of the
    positions, plus a third entry now and then: eliminating a chain fills
    in, since clearing p_(s+1) from v_s brings in p_(s+2)."""
    order = rng.sample(range(n), n)
    basis = []
    for s in range(m):
        v = [Q(0)] * n
        v[order[s]] = Q(rng.choice([-2, -1, 1, 3]))
        v[order[s + 1]] = Q(rng.choice([-1, 1, 2]), rng.choice([1, 2]))
        if rng.random() < 0.3:
            v[rng.randrange(n)] += rng.choice([-1, 1])
        basis.append(v)
    return basis


@pytest.mark.parametrize("seed", range(12))
def test_integer_coordinates_on_sparse_bases(seed):
    rng = random.Random(300 + seed)
    n = rng.randint(2, 12)
    m = rng.randint(1, n - 1)
    _check_targets(rng, _monomial_basis(rng, n, m))
    basis = _chain_basis(rng, n, m)
    if rank(Matrix(basis)) == m:
        _check_targets(rng, basis)


def _pivot_positions(basis):
    """The positions the coordinate map pivots on: the lead columns of the
    echelon form of the basis vectors as rows, each vector's lowest nonzero
    position once reduced to zero at the earlier pivots.  The lead columns
    of a span do not depend on how it is reduced, so Fraction Gauss-Jordan
    finds the same positions."""
    rows = {}  # pivot -> row with 1 there and 0 at every other pivot
    for v in basis:
        row = list(v)
        for p, r in rows.items():
            row = [a - row[p] * b for a, b in zip(row, r)]
        p = min(q for q, a in enumerate(row) if a)
        row = [a / row[p] for a in row]
        rows = {q: [a - r[p] * b for a, b in zip(r, row)] for q, r in rows.items()}
        rows[p] = row
    return set(rows)


@pytest.mark.parametrize("seed", range(6))
def test_integer_coordinates_reject_targets_off_the_pivot_rows(seed):
    # the coordinates are read at the pivot positions, where this target is
    # zero: they all come out 0, and the first half of the span check (the
    # image against the target's entries) must reject it
    rng = random.Random(100 + seed)
    n = rng.randint(2, 6)
    m = rng.randint(1, n - 1)
    basis = _random_basis(rng, n, m)
    pivots = _pivot_positions(basis)
    target = [0 if r in pivots else rng.choice([-2, -1, 1, 3]) for r in range(n)]
    assert integer_coordinates_in(basis)(_sparse(target)) is None
    _check_against_solve(basis, target)


@pytest.mark.parametrize("seed", range(6))
def test_integer_coordinates_reject_targets_on_the_pivot_positions_only(seed):
    # the image matches this target at the pivot positions, its whole
    # support; off the span, the second half of the span check (the image
    # off the target's support) must reject it
    rng = random.Random(200 + seed)
    n = rng.randint(3, 6)
    m = rng.randint(1, n - 1)
    basis = _random_basis(rng, n, m)
    pivots = _pivot_positions(basis)
    target = [rng.choice([-2, -1, 1, 3]) if r in pivots else 0 for r in range(n)]
    if solve_linear(Matrix.from_columns(basis), [Q(a) for a in target]) is None:
        assert integer_coordinates_in(basis)(_sparse(target)) is None
    _check_against_solve(basis, target)


def test_integer_coordinates_in_the_empty_basis():
    coordinates = integer_coordinates_in([])
    assert coordinates({}) == ([], 1)
    assert coordinates({0: 0}) == ([], 1)
    assert coordinates({2: 5}) is None


def test_integer_coordinates_reject_a_dependent_basis():
    u = [Q(1), Q(2), Q(-1, 2)]
    with pytest.raises(ValueError):
        integer_coordinates_in([u, [2 * a for a in u]])
    with pytest.raises(ValueError):
        integer_coordinates_in([u, [Q(0)] * 3])


# -- the elimination engine against a dense reference ------------------------------

def _engine_rows(rng, width):
    """Seeded integer and Fraction rows of one width: sparse random rows,
    empty rows, combinations of earlier rows, and chains e_i + e_(i+1)
    followed by e_i, whose elimination fills in one pivot column after
    another."""
    rows = []
    for _ in range(rng.randint(1, 12)):
        kind = rng.random()
        if kind < 0.1:
            row = [0] * width
        elif kind < 0.25 and rows:
            a, b = rng.choice(rows), rng.choice(rows)
            x, y = rng.randint(-2, 2), rng.randint(-2, 2)
            row = [x * p + y * q for p, q in zip(a, b)]
        elif kind < 0.4 and width > 2:
            start = rng.randrange(width - 2)
            for i in range(start, min(width - 1, start + rng.randint(2, 4))):
                chain = [0] * width
                chain[i], chain[i + 1] = rng.choice([1, 2, -3]), rng.choice([1, -1, 5])
                rows.append(chain)
            row = [0] * width
            row[start] = rng.choice([1, 4, -2])
        else:
            row = [0] * width
            for c in rng.sample(range(width), rng.randint(1, min(width, 4))):
                row[c] = rng.choice([-6, -2, -1, 1, 3, 4])
        if rng.random() < 0.3:
            den = rng.choice([2, 3, 6])
            row = [Q(a, den) for a in row]
        rows.append(row)
    return rows


def _as_dict(rng, row):
    """The row as a dict with its keys in random order, and now and then a
    zero entry kept."""
    items = [(c, a) for c, a in enumerate(row) if a or rng.random() < 0.3]
    rng.shuffle(items)
    return dict(items)


def _primitive_ints(row):
    den = lcm(*(Q(a).denominator for a in row))
    ints = [int(a * den) for a in row]
    g = gcd(*ints)
    return [a // g for a in ints] if g > 1 else ints


def _fraction_rref(rows):
    """Pivot column -> the reduced row of the echelon rows, by Fraction
    back-substitution."""
    out = {}
    for c in sorted(rows, reverse=True):
        row = [Q(a, rows[c][c]) for a in rows[c]]
        for c2, r2 in out.items():
            row = [a - row[c2] * b for a, b in zip(row, r2)]
        out[c] = row
    return out


@pytest.mark.parametrize("seed", range(40))
def test_echelon_matches_the_dense_reference(seed):
    from test_reps import _DenseIntEchelon

    rng = random.Random(900 + seed)
    width = rng.randint(1, 10)
    rows = _engine_rows(rng, width)
    sparse, dense, ref = Echelon(), Echelon(), _DenseIntEchelon()
    for row in rows:
        new = ref.add(_primitive_ints(row))
        assert sparse.add(_as_dict(rng, row)) == new
        assert dense.add(row) == new
    assert sparse.pivots == dense.pivots == sorted(ref.pivots)
    expected = {c: {k: a for k, a in enumerate(r) if a} for c, r in ref.pivots.items()}
    assert sparse.rows == dense.rows == expected
    rref = _fraction_rref(ref.pivots)
    reduced = [{k: a for k, a in enumerate(rref[c]) if a} for c in sorted(ref.pivots)]
    for ech in (sparse, dense):
        done = ech._back_substituted()
        assert [{k: Q(a, done[c][c]) for k, a in done[c].items()} for c in ech.pivots] == reduced
    for probe in _engine_rows(rng, width):
        left = ref._normalize(ref.reduce(_primitive_ints(probe)))
        assert sparse.reduce(_as_dict(rng, probe)) == {k: a for k, a in enumerate(left) if a}
        assert sparse.contains(probe) == (not any(left))


# -- minimal polynomial -------------------------------------------------------------

def test_minpoly_zero_matrix():
    assert minimal_polynomial(Matrix.zeros(3, 3)) == [Q(0), Q(1)]


def test_minpoly_jordan_block():
    j = Matrix([[0, 1], [0, 0]])
    assert minimal_polynomial(j) == [Q(0), Q(0), Q(1)]


def test_minpoly_diag_1_1_2():
    m = Matrix([[1, 0, 0], [0, 1, 0], [0, 0, 2]])
    # oracle: evaluate candidate polynomials on m
    cand = poly_mul([Q(-1), Q(1)], [Q(-2), Q(1)])  # (x-1)(x-2)
    assert poly_eval_matrix(cand, m).is_zero()
    for lower in ([Q(-1), Q(1)], [Q(-2), Q(1)]):
        assert not poly_eval_matrix(lower, m).is_zero()
    assert minimal_polynomial(m) == cand


def test_minpoly_annihilates_and_is_minimal():
    rng = random.Random(11)
    for _ in range(10):
        d = rng.randint(1, 4)
        m = Matrix([[rng.randint(-2, 2) for _ in range(d)] for _ in range(d)])
        p = minimal_polynomial(m)
        assert p[-1] == 1
        assert poly_eval_matrix(p, m).is_zero()
        # no proper monic divisor annihilates
        for root in rational_roots(p):
            quo, rem = poly_divmod(p, [-root, Q(1)])
            assert rem == []
            assert not poly_eval_matrix(quo, m).is_zero()


# -- squarefree -----------------------------------------------------------------------

def test_squarefree_examples():
    assert not is_squarefree([Q(0), Q(0), Q(1)])          # x^2
    assert is_squarefree([Q(0), Q(-1), Q(1)])             # x(x-1)
    sq = poly_mul([Q(1), Q(0), Q(1)], [Q(1), Q(0), Q(1)])  # (x^2+1)^2
    assert not is_squarefree(sq)
    with pytest.raises(ValueError):
        is_squarefree([])


def test_squarefree_matches_diagonalizability():
    diag = Matrix([[1, 0], [0, 5]])
    assert is_squarefree(minimal_polynomial(diag))
    jordan = Matrix([[5, 1], [0, 5]])
    assert not is_squarefree(minimal_polynomial(jordan))


# -- rational eigenspaces ---------------------------------------------------------------

def test_eigenspaces_diagonal():
    m = Matrix([[0, 0, 0], [0, 0, 0], [0, 0, 3]])
    eig = dict((lam, len(basis)) for lam, basis in rational_eigenspaces(m))
    assert eig == {Q(0): 2, Q(3): 1}


def test_eigenspaces_irrational_spectrum_empty():
    rot = Matrix([[0, -1], [1, 0]])
    assert rational_eigenspaces(rot) == []
    assert not splits_semisimply_over_q(rot)


def test_eigenspaces_nilpotent_jordan():
    j = Matrix([[0, 1], [0, 0]])
    eig = rational_eigenspaces(j)
    assert len(eig) == 1 and eig[0][0] == 0 and len(eig[0][1]) == 1


def test_eigen_dimension_sum_iff_split_squarefree():
    split = Matrix([[1, 0], [0, 2]])
    assert sum(len(b) for _, b in rational_eigenspaces(split)) == 2
    assert splits_semisimply_over_q(split)
    jordan = Matrix([[1, 1], [0, 1]])
    assert sum(len(b) for _, b in rational_eigenspaces(jordan)) == 1


# -- the split test -------------------------------------------------------------------

def conjugated(rng, t):
    """P t P^-1 for P a product of six random rational shears I + c E_ij."""
    n = len(t)
    p = Matrix.identity(n)
    for _ in range(6 if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        shear = Matrix.identity(n)
        shear.data[i][j] = Q(rng.randint(-3, 3), rng.randint(1, 4))
        p = p.mul(shear)
    return p.mul(Matrix(t)).mul(inverse(p))


def split_cases():
    """(name, m, sorted distinct eigenvalues or None), seeded."""
    rng = random.Random(28)
    h, third = Q(1, 2), Q(-5, 3)
    yield "diagonal", Matrix([[h, 0, 0], [0, 3, 0], [0, 0, h]]), [h, 3]
    yield "jordan", Matrix([[h, 1], [0, h]]), None
    yield "rotation", Matrix([[0, -1], [1, 0]]), None
    yield "zero", Matrix.zeros(3, 3), [0]
    yield "1x1", Matrix([[third]]), [third]
    for k in range(8):
        n = rng.randint(2, 4)
        diag = [Q(rng.randint(-3, 3), rng.choice([1, 2, 3])) for _ in range(n)]
        t = [[diag[r] if r == c else 0 for c in range(n)] for r in range(n)]
        yield f"shear {k}", conjugated(rng, t), sorted(set(diag))
        # a Jordan block on a repeated eigenvalue
        t[0][0] = t[1][1]
        t[0][1] = Q(rng.randint(1, 3), rng.randint(1, 3))
        yield f"shear jordan {k}", conjugated(rng, t), None
        # an irrational pair: a rotation block
        t[0][0], t[0][1], t[1][0], t[1][1] = 0, 2, 1, 0
        yield f"shear rotation {k}", conjugated(rng, t), None


@pytest.mark.parametrize("name, m, expected", list(split_cases()),
                         ids=[c[0] for c in split_cases()])
def test_split_returns_the_spectrum_of_a_rationally_diagonalizable_matrix(name, m, expected):
    rows, d = _sparse_integer_rows(m.data)
    assert _split(rows, d) == expected
    # the same m, as 7 M / (7 d): d is never 1
    assert _split([[(c, 7 * a) for c, a in row] for row in rows], 7 * d) == expected
    eig = rational_eigenspaces(m)
    assert (sum(len(b) for _, b in eig) == m.rows) == (expected is not None)
    assert splits_semisimply_over_q(m) == (expected is not None)
    if expected is not None:
        assert [lam for lam, _ in eig] == expected


# -- property tests -------------------------------------------------------------------

small_entries = st.integers(min_value=-4, max_value=4)


@st.composite
def small_matrices(draw, square=False):
    rows = draw(st.integers(min_value=1, max_value=4))
    cols = rows if square else draw(st.integers(min_value=1, max_value=4))
    data = [[draw(small_entries) for _ in range(cols)] for _ in range(rows)]
    return Matrix(data)


@settings(max_examples=60, deadline=None)
@given(small_matrices())
def test_kernel_vectors_satisfy_equation(m):
    basis = kernel_basis(m)
    assert len(basis) == m.cols - rank(m)
    for v in basis:
        assert matvec_is_zero(m, v)


@settings(max_examples=60, deadline=None)
@given(small_matrices(), st.lists(small_entries, min_size=1, max_size=4))
def test_solve_result_is_exact(m, b):
    b = [Q(x) for x in b[:m.rows]] + [Q(0)] * max(0, m.rows - len(b))
    x = solve_linear(m, b)
    if x is not None:
        assert m.matvec(x) == b


@settings(max_examples=40, deadline=None)
@given(small_matrices(square=True))
def test_minimal_polynomial_annihilates(m):
    p = minimal_polynomial(m)
    assert p[-1] == 1
    assert poly_eval_matrix(p, m).is_zero()
    assert len(p) - 1 <= m.rows
