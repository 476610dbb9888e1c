"""Exact linear algebra: examples with independent oracles, plus property tests."""

import random
from fractions import Fraction as Q
from math import gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from superkit import catalog
from superkit.families import parse_family_spec
from superkit.linalg import (
    Echelon,
    Matrix,
    _minimal_polynomial,
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
from support import DenseIntEchelon


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
    rng = random.Random(900 + seed)
    width = rng.randint(1, 10)
    rows = _engine_rows(rng, width)
    sparse, dense, ref = Echelon(), Echelon(), DenseIntEchelon()
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


# -- the dense Krylov step, kept as an oracle for the sparse one on the transpose --

def _int_matvec(rows, w):
    return [sum(a * w[c] for c, a in row) for row in rows]


def _poly_apply(p, rows, v):
    """p(M) v on dense vectors, M the integer matrix with these sparse rows."""
    acc = [0] * len(v)
    for j, c in enumerate(p):
        if c:
            acc = [a + c * x for a, x in zip(acc, v)]
        if j < len(p) - 1:
            v = _int_matvec(rows, v)
    return acc


def _dense_local_minimal_polynomial(rows, v):
    n = len(v)
    ech = Echelon()
    w = v
    for k in range(n + 1):
        row = {c: x for c, x in enumerate(w) if x}
        row[n + k] = 1
        ech.add(row)
        lead = ech.pivots[-1]
        if lead >= n:
            a = ech.rows[lead]
            return [a.get(n + j, 0) // a[n + k] for j in range(k + 1)]
        w = _int_matvec(rows, w)
    raise RuntimeError("Krylov iteration failed to terminate")


def _dense_minimal_polynomial(rows):
    """The lcm of the local minimal polynomials of M on the basis vectors,
    each found from p(M) e_i by dense matrix-vector products on M itself."""
    n = len(rows)
    result = [1]
    for i in range(n):
        v = [0] * n
        v[i] = 1
        w = _poly_apply(result, rows, v)
        if any(w):
            q = _dense_local_minimal_polynomial(rows, w)
            product = [0] * (len(result) + len(q) - 1)
            for j, a in enumerate(result):
                for k, b in enumerate(q):
                    product[j + k] += a * b
            result = product
            if len(result) == n + 1:
                break
    return result


def _companion(p):
    """The companion matrix of the monic integer polynomial p (constant first)."""
    n = len(p) - 1
    return [[1 if r == c + 1 else 0 for c in range(n - 1)] + [-p[r]] for r in range(n)]


def _block_sum(*blocks):
    n = sum(len(b) for b in blocks)
    out, at = [[0] * n for _ in range(n)], 0
    for b in blocks:
        for r, row in enumerate(b):
            out[at + r][at:at + len(row)] = row
        at += len(b)
    return out


def _jordan(lam, k):
    return [[lam if r == c else 1 if c == r + 1 else 0 for c in range(k)] for r in range(k)]


def _unimodular_conjugate(rng, m):
    """P m P^-1 for a random integer P with det 1, as row and column shears:
    the same minimal polynomial on a denser matrix."""
    m = [row[:] for row in m]
    n = len(m)
    for _ in range(2 * n):
        i, j = rng.sample(range(n), 2)
        t = rng.choice((-2, -1, 1, 2))
        # row i += t row j, then column j -= t column i
        m[i] = [a + t * b for a, b in zip(m[i], m[j])]
        for row in m:
            row[j] -= t * row[i]
    return m


def _oracle_matrices(seed):
    """Seeded integer matrices of every shape the Krylov step meets."""
    rng = random.Random(seed)
    n = rng.randint(1, 12)
    yield "zero", [[0] * n for _ in range(n)]
    c = rng.choice((-3, 2, 5))
    yield "scalar", [[c if r == k else 0 for k in range(n)] for r in range(n)]
    sizes = [rng.randint(1, 4) for _ in range(rng.randint(1, 3))]
    yield "nilpotent Jordan blocks", _block_sum(*(_jordan(0, k) for k in sizes))
    a = [rng.randint(-3, 3) for _ in range(n)]
    b = [rng.randint(-3, 3) for _ in range(n)]
    yield "rank one", [[x * y for y in b] for x in a]
    if n > 1:
        # b_n absorbs b^T a, so b^T a = 0 and a b^T squares to zero
        a[-1] = a[-1] or 1
        s = sum(x * y for x, y in zip(a[:-1], b[:-1]))
        b = [y * a[-1] for y in b[:-1]] + [-s]
        assert sum(x * y for x, y in zip(a, b)) == 0
        yield "rank one, b^T a = 0", [[x * y for y in b] for x in a]
    # (x - 1)^2 (x + 2), (x - 1)(x^2 + 1) and (x - 1)^2 share x - 1;
    # x^2 - 2, x - 3 and (x + 1)^3 are coprime
    shared = _block_sum(_companion([2, -3, 0, 1]), _companion([-1, 1, -1, 1]), _jordan(1, 2))
    yield "block sum, shared factors", _unimodular_conjugate(rng, shared)
    coprime = _block_sum(_companion([-2, 0, 1]), _jordan(3, 1), _jordan(-1, 3))
    yield "block sum, coprime factors", _unimodular_conjugate(rng, coprime)
    yield "companion", _companion([rng.randint(-4, 4) for _ in range(n)] + [1])
    perm = list(range(n))
    rng.shuffle(perm)
    yield "permutation", [[1 if perm[r] == k else 0 for k in range(n)] for r in range(n)]
    yield "random sparse", [[rng.randint(-3, 3) if rng.random() < 0.2 else 0 for _ in range(n)]
                            for _ in range(n)]
    yield "random dense", [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]


@pytest.mark.parametrize("seed", range(12))
def test_minimal_polynomial_matches_the_dense_krylov_step(seed):
    for name, m in _oracle_matrices(seed):
        rows = [[(c, a) for c, a in enumerate(row) if a] for row in m]
        assert _minimal_polynomial(rows) == _dense_minimal_polynomial(rows), name


@pytest.mark.parametrize("spec", catalog.specs(catalog.CONE) + ("osp1:8", "gl:4:4"))
def test_minimal_polynomial_of_odd_squares_matches_the_dense_krylov_step(spec):
    """On the rows of rho(D [U, U]) that the cone test builds, for dense and
    two-coordinate odd U."""
    g = parse_family_spec(spec)
    rng = random.Random(spec)
    odd = g.odd_indices
    for k in range(8):
        u = [Q(0)] * g.dim
        for i in (odd if k % 2 else rng.sample(odd, min(len(odd), 2))):
            u[i] = Q(rng.randint(-4, 4), rng.randint(1, 6))
        rows = g.faithful_rep._combine(g._odd_square_rows(u)[1])
        assert _minimal_polynomial(rows) == _dense_minimal_polynomial(rows)


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


# -- rational roots ---------------------------------------------------------------------

def test_rational_roots_of_products_with_large_and_repeated_roots():
    """Products of rationals with numerators up to 10^12, each to the power 1
    or 2, times c (x^2 + a) with a > 0, which has no rational root, against
    their known roots."""
    rng = random.Random(7)
    for _ in range(100):
        roots = {Q(rng.randint(-10 ** 12, 10 ** 12), rng.randint(1, 10 ** 6))
                 for _ in range(rng.randint(0, 4))}
        c, a = rng.choice([-3, 1, 2, 7]), rng.randint(1, 9)
        p = [Q(c * a), Q(0), Q(c)]
        for r in roots:
            for _ in range(rng.randint(1, 2)):
                p = poly_mul(p, [-r, Q(1)])
        assert rational_roots(p) == sorted(roots)


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
