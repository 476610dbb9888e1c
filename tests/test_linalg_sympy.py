"""Differential tests of the exact elimination engine, the minimal
polynomial and the polynomial layer against sympy, an independent
implementation.

Matrices are small and rational, with many zeros and often a row that is a
combination of two others, so rank-deficient, inconsistent, 0-row and
0-column cases all occur.  Polynomials are products of linear factors, some
repeated, and a random cofactor, scaled by a large rational, with int or
Fraction coefficients.
"""

from fractions import Fraction as Q
from itertools import product
from random import Random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

sympy = pytest.importorskip("sympy")

from superkit.linalg import (  # noqa: E402
    Matrix,
    _sparse_integer_rows,
    _split,
    in_span,
    inverse,
    is_squarefree,
    kernel_basis,
    kernel_of_rows,
    minimal_polynomial,
    rank,
    rational_roots,
    solve_linear,
    span_basis,
)

ENTRIES = st.one_of(st.just(Q(0)), st.fractions(min_value=-3, max_value=3, max_denominator=4))


@st.composite
def rational_rows(draw, rows=None, cols=None):
    r = draw(st.integers(0, 5)) if rows is None else rows
    c = draw(st.integers(0, 5)) if cols is None else cols
    data = [[draw(ENTRIES) for _ in range(c)] for _ in range(r)]
    if r >= 3 and draw(st.booleans()):
        a, b = draw(ENTRIES), draw(ENTRIES)
        data[-1] = [a * x + b * y for x, y in zip(data[0], data[1])]
    return data, c


def ours(data, cols):
    return Matrix(data) if data else Matrix.zeros(0, cols)


def theirs(data, cols):
    return sympy.Matrix(len(data), cols,
                        [sympy.Rational(x.numerator, x.denominator) for row in data for x in row])


def as_fractions(column):
    return [Q(int(x.p), int(x.q)) for x in column]


def sympy_solution(a, b):
    """The solution of a x = b with every free parameter 0, or None."""
    try:
        sol, params = a.gauss_jordan_solve(b)
    except ValueError:
        return None
    return as_fractions(sol.xreplace({p: 0 for p in params}))


@settings(max_examples=100, deadline=None)
@given(rational_rows())
@example(([[Q(1), Q(1), Q(1)], [Q(0), Q(1), Q(2)]], 3))  # needs back-substitution
def test_rank_and_kernel_match_sympy(case):
    data, cols = case
    m, s = ours(data, cols), theirs(data, cols)
    assert rank(m) == s.rank()
    assert kernel_basis(m) == [as_fractions(v) for v in s.nullspace()]


@settings(max_examples=100, deadline=None)
@given(rational_rows(), st.randoms(use_true_random=False))
@example(([[Q(1), Q(1), Q(0), Q(0)], [Q(0), Q(1), Q(1), Q(0)], [Q(1), Q(0), Q(0), Q(0)]], 4),
         Random(0))  # eliminating column 0 of the last row fills in pivot column 1
def test_kernel_of_dict_rows_matches_sympy(case, rng):
    # the rows as dicts {column: entry}, keys in random order, some zeros kept
    data, cols = case
    rows = []
    for row in data:
        items = [(c, a) for c, a in enumerate(row) if a or rng.random() < 0.3]
        rng.shuffle(items)
        rows.append(dict(items))
    expected = [as_fractions(v) for v in theirs(data, cols).nullspace()]
    assert kernel_of_rows(rows, cols) == expected


@settings(max_examples=100, deadline=None)
@given(rational_rows(), st.data())
def test_solve_linear_matches_sympy(case, data):
    rows, cols = case
    if data.draw(st.booleans()) and rows:
        # a consistent right-hand side: m applied to a random vector
        x = [data.draw(ENTRIES) for _ in range(cols)]
        b = Matrix(rows).matvec(x)
    else:
        b = [data.draw(ENTRIES) for _ in range(len(rows))]
    got = solve_linear(ours(rows, cols), b)
    expected = sympy_solution(theirs(rows, cols), sympy.Matrix(len(b), 1, [sympy.Rational(
        x.numerator, x.denominator) for x in b]))
    assert got == expected


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 5).flatmap(lambda n: st.tuples(
    st.lists(st.lists(ENTRIES, min_size=n, max_size=n), max_size=5),
    st.lists(ENTRIES, min_size=n, max_size=n))))
def test_in_span_and_span_basis_match_sympy(case):
    vectors, target = case
    got = in_span(vectors, target)
    if vectors:
        cols = theirs([list(r) for r in zip(*vectors)], len(vectors))
        assert got == sympy_solution(cols, theirs([[x] for x in target], 1))
        _, pivots = cols.rref()
        assert span_basis(vectors) == [vectors[j] for j in pivots]
    else:
        assert got == ([] if not any(target) else None)
        assert span_basis(vectors) == []


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 5).flatmap(lambda n: rational_rows(rows=n, cols=n)))
def test_inverse_matches_sympy(case):
    data, n = case
    s = theirs(data, n)
    if s.det() == 0:
        with pytest.raises(ValueError):
            inverse(ours(data, n))
        return
    inv = s.inv()
    assert inverse(ours(data, n)) == Matrix([as_fractions(inv.row(r)) for r in range(n)])


def sympy_minimal_polynomial(s):
    """The monic divisor of least degree of the characteristic polynomial
    that annihilates s, by trying every product of its irreducible factors."""
    x = sympy.Symbol("x")
    _, factors = sympy.factor_list(s.charpoly(x).as_expr(), x)
    n = s.rows
    best = None
    for exps in product(*[range(e + 1) for _, e in factors]):
        p = sympy.Poly(sympy.Mul(*[f ** k for (f, _), k in zip(factors, exps)]), x)
        if best is not None and p.degree() >= best.degree():
            continue
        acc = sympy.zeros(n, n)
        for c in p.all_coeffs():
            acc = acc * s + c * sympy.eye(n)
        if acc.is_zero_matrix:
            best = p
    return [Q(int(c.p), int(c.q)) for c in reversed(best.monic().all_coeffs())]


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 4).flatmap(lambda n: rational_rows(rows=n, cols=n)))
def test_minimal_polynomial_matches_sympy(case):
    data, n = case
    assert minimal_polynomial(ours(data, n)) == sympy_minimal_polynomial(theirs(data, n))



X = sympy.Symbol("x")


@st.composite
def split_candidates(draw):
    """An n x n rational matrix, n in 1..4: random rows, or P T P^-1 for an
    upper triangular T whose diagonal repeats often and a product P of
    rational shears, so that both outcomes of the split test occur."""
    n = draw(st.integers(1, 4))
    if draw(st.booleans()):
        return draw(rational_rows(rows=n, cols=n))
    diag = draw(st.lists(st.sampled_from([Q(0), Q(1), Q(-1, 2), Q(3)]), min_size=n, max_size=n))
    t = [[diag[r] if r == c else Q(draw(st.sampled_from([0, 0, 0, 1])) if c > r else 0)
          for c in range(n)] for r in range(n)]
    p = sympy.eye(n)
    for _ in range(draw(st.integers(0, 4)) if n > 1 else 0):
        i, j = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        c = draw(st.fractions(-3, 3, max_denominator=4))
        shear = sympy.eye(n)
        shear[i, j] = sympy.Rational(c.numerator, c.denominator)
        p = p * shear
    m = p * theirs(t, n) * p.inv()
    return [as_fractions(m.row(r)) for r in range(n)], n


@settings(max_examples=100, deadline=None)
@given(split_candidates())
@example(([[Q(1), Q(1)], [Q(0), Q(1)]], 2))    # a Jordan block
@example(([[Q(0), Q(-1)], [Q(1), Q(0)]], 2))   # a rotation
def test_split_matches_sympy(case):
    # m splits over Q iff the eigenspaces of the rational roots of its
    # characteristic polynomial have dimensions summing to n
    data, n = case
    s = theirs(data, n)
    roots = sympy.roots(s.charpoly(X), filter="Q")
    dims = sum(len((s - r * sympy.eye(n)).nullspace()) for r in roots)
    expected = sorted(Q(int(r.p), int(r.q)) for r in roots) if dims == n else None
    assert _split(*_sparse_integer_rows(data)) == expected


def times(p, q):
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


@st.composite
def polynomials(draw, cofactor_size):
    """Coefficients, ascending, of a product of linear factors a x - b, each
    to a power 1..3, a cofactor with coefficients up to `cofactor_size`, and
    a nonzero rational of up to 30 digits; ints when integral, or by choice
    Fractions."""
    p = [1]
    for _ in range(draw(st.integers(0, 3))):
        a, b = draw(st.integers(1, 4)), draw(st.integers(-6, 6))
        for _ in range(draw(st.integers(1, 3))):
            p = times(p, [-b, a])
    cofactor = draw(st.lists(st.integers(-cofactor_size, cofactor_size), max_size=3))
    p = times(p, [*cofactor, draw(st.integers(1, cofactor_size))])
    scale = Q(draw(st.integers(1, 10 ** 30)) * draw(st.sampled_from((1, -1))),
              draw(st.one_of(st.just(1), st.integers(1, 10 ** 12))))
    p = [scale * c for c in p]
    if all(c.denominator == 1 for c in p) and draw(st.booleans()):
        return [int(c) for c in p]
    return p


def theirs_poly(p):
    return sympy.Poly([sympy.Rational(Q(c).numerator, Q(c).denominator)
                       for c in reversed(p)], X, domain=sympy.QQ)


@settings(max_examples=200, deadline=None)
@given(polynomials(cofactor_size=10 ** 15))
@example([0, 0, 1])                       # x^2
@example([Q(3, 7)])                       # a nonzero constant
def test_is_squarefree_matches_sympy(p):
    s = theirs_poly(p)
    assert is_squarefree(p) == (sympy.gcd(s, s.diff(X)).degree() == 0)


@settings(max_examples=200, deadline=None)
@given(polynomials(cofactor_size=9))
@example([0, 0, 6, -5, 1])                # x^2 (x - 2)(x - 3)
@example([-(10 ** 9 + 7) ** 2, 0, 1])     # x^2 - (10^9 + 7)^2
# (3x^2 + 5)(3x - 2^40 - 15)^2, a repeated root of 40 bits
@example(times(times([5, 0, 3], [-(2 ** 40 + 15), 3]), [-(2 ** 40 + 15), 3]))
# the roots (10^12 + 39) / (10^6 + 3) and -(10^15 + 37)
@example(times([-(10 ** 12 + 39), 10 ** 6 + 3], [10 ** 15 + 37, 1]))
def test_rational_roots_match_sympy(p):
    _, factors = theirs_poly(p).factor_list()
    expected = sorted(Q(int(r.p), int(r.q))
                      for r in (-f.nth(0) / f.nth(1) for f, _ in factors if f.degree() == 1))
    assert rational_roots(p) == expected
