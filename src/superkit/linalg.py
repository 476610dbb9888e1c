"""Exact rational linear and polynomial algebra.

Everything in this package runs over the rationals with `fractions.Fraction`
as the scalar type; there is no floating point anywhere.  Matrices are dense
(row-major lists of lists), which is adequate for the dimensions this toolkit
targets (at most a few hundred).

Polynomials are plain coefficient lists in ascending degree with a nonzero
leading coefficient (the zero polynomial is the empty list).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

Q = Fraction

Vec = list[Fraction]
Poly = list[Fraction]


def vec(entries: Iterable) -> Vec:
    return [Q(e) for e in entries]


def zero_vec(n: int) -> Vec:
    return [Q(0)] * n


def vec_add(u: Sequence[Fraction], v: Sequence[Fraction]) -> Vec:
    return [a + b for a, b in zip(u, v)]

def vec_sub(u: Sequence[Fraction], v: Sequence[Fraction]) -> Vec:
    return [a - b for a, b in zip(u, v)]

def vec_scale(c: Fraction, v: Sequence[Fraction]) -> Vec:
    return [c * a for a in v]

_Q0 = Fraction(0)


def dot(u: Sequence[Fraction], v: Sequence[Fraction]) -> Fraction:
    acc = _Q0
    for a, b in zip(u, v):
        if a and b:
            acc += a * b
    return acc

def is_zero_vec(v: Sequence[Fraction]) -> bool:
    return all(a == 0 for a in v)


class Matrix:
    """Dense rational matrix; entries are Fractions, rows × cols."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, data: Sequence[Sequence]) -> None:
        self.data = [
            [e if type(e) is Fraction else Q(e) for e in row] for row in data
        ]
        self.rows = len(self.data)
        self.cols = len(self.data[0]) if self.data else 0
        for row in self.data:
            if len(row) != self.cols:
                raise ValueError("ragged matrix rows")

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "Matrix":
        m = cls.__new__(cls)
        m.data = [[Q(0)] * cols for _ in range(rows)]
        m.rows, m.cols = rows, cols
        return m

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        m = cls.zeros(n, n)
        for i in range(n):
            m.data[i][i] = Q(1)
        return m

    @classmethod
    def from_columns(cls, cols: Sequence[Sequence[Fraction]]) -> "Matrix":
        if not cols:
            return cls.zeros(0, 0)
        n = len(cols[0])
        return cls([[col[i] for col in cols] for i in range(n)])

    def copy(self) -> "Matrix":
        return Matrix(self.data)

    def column(self, j: int) -> Vec:
        return [row[j] for row in self.data]

    def columns(self) -> list[Vec]:
        return [self.column(j) for j in range(self.cols)]

    def transpose(self) -> "Matrix":
        return Matrix([[self.data[i][j] for i in range(self.rows)]
                       for j in range(self.cols)])

    def matvec(self, v: Sequence[Fraction]) -> Vec:
        if len(v) != self.cols:
            raise ValueError("dimension mismatch in matvec")
        nz = [(k, c) for k, c in enumerate(v) if c]
        out = []
        for row in self.data:
            acc = _Q0
            for k, c in nz:
                r = row[k]
                if r:
                    acc += r * c
            out.append(acc)
        return out

    def mul(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise ValueError("dimension mismatch in mul")
        ot = other.transpose().data
        return Matrix([[dot(row, col) for col in ot] for row in self.data])

    def add(self, other: "Matrix") -> "Matrix":
        return Matrix([[a + b for a, b in zip(r1, r2)]
                       for r1, r2 in zip(self.data, other.data)])

    def sub(self, other: "Matrix") -> "Matrix":
        return Matrix([[a - b for a, b in zip(r1, r2)]
                       for r1, r2 in zip(self.data, other.data)])

    def scale(self, c) -> "Matrix":
        c = Q(c)
        return Matrix([[c * a for a in row] for row in self.data])

    def is_zero(self) -> bool:
        return all(a == 0 for row in self.data for a in row)

    def trace(self) -> Fraction:
        return sum((self.data[i][i] for i in range(min(self.rows, self.cols))), Q(0))

    def flatten(self) -> Vec:
        return [a for row in self.data for a in row]

    def __eq__(self, other) -> bool:
        return (isinstance(other, Matrix) and self.rows == other.rows
                and self.cols == other.cols and self.data == other.data)

    def __repr__(self) -> str:
        return f"Matrix({self.data!r})"

    def __mul__(self, other):
        if isinstance(other, Matrix):
            return self.mul(other)
        return NotImplemented


def rref(m: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form; returns (reduced matrix, pivot columns)."""
    a = [row[:] for row in m.data]
    rows, cols = m.rows, m.cols
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, rows) if a[i][c] != 0), None)
        if pivot is None:
            continue
        a[r], a[pivot] = a[pivot], a[r]
        pv = a[r][c]
        if pv != 1:
            a[r] = [e / pv if e else e for e in a[r]]
        for i in range(rows):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [e - f * p if p else e for e, p in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    out = Matrix.__new__(Matrix)
    out.data, out.rows, out.cols = a, rows, cols
    return out, pivots


def rank(m: Matrix) -> int:
    return len(rref(m)[1])


def kernel_basis(m: Matrix) -> list[Vec]:
    """Basis of the right null space {v : m v = 0}."""
    red, pivots = rref(m)
    free = [c for c in range(m.cols) if c not in pivots]
    basis = []
    for fc in free:
        v = zero_vec(m.cols)
        v[fc] = Q(1)
        for r, pc in enumerate(pivots):
            v[pc] = -red.data[r][fc]
        basis.append(v)
    return basis


def solve_linear(m: Matrix, b: Sequence[Fraction]) -> Vec | None:
    """Some x with m x = b, or None if the system is inconsistent."""
    if len(b) != m.rows:
        raise ValueError("right-hand side length must equal row count")
    aug = Matrix([row + [Q(bi)] for row, bi in zip(m.data, b)] or [])
    if m.rows == 0:
        return zero_vec(m.cols)
    red, pivots = rref(aug)
    if m.cols in pivots:
        return None
    x = zero_vec(m.cols)
    for r, pc in enumerate(pivots):
        x[pc] = red.data[r][m.cols]
    return x


def in_span(vectors: Sequence[Sequence[Fraction]], target: Sequence[Fraction]) -> Vec | None:
    """Coordinates of target in span(vectors), or None."""
    if not vectors:
        return [] if is_zero_vec(target) else None
    return solve_linear(Matrix.from_columns(list(vectors)), list(target))


def span_basis(vectors: Sequence[Sequence[Fraction]]) -> list[Vec]:
    """Extract a linearly independent spanning subset (as row reduction pivots)."""
    if not vectors:
        return []
    _, pivots = rref(Matrix.from_columns(list(vectors)))
    return [vec(vectors[j]) for j in pivots]


class Echelon:
    """Incremental row echelon over the rationals, for cheap span membership."""

    def __init__(self, width: int) -> None:
        self.width = width
        self.rows: list[tuple[int, Vec]] = []  # (pivot column, row with pivot 1)

    def reduce(self, v: Sequence[Fraction]) -> Vec:
        v = [e if type(e) is Fraction else Q(e) for e in v]
        for c, row in self.rows:
            f = v[c]
            if f:
                v = [a - f * b if b else a for a, b in zip(v, row)]
        return v

    def contains(self, v: Sequence[Fraction]) -> bool:
        return all(a == 0 for a in self.reduce(v))

    def add(self, v: Sequence[Fraction]) -> bool:
        """Insert if independent of the current span; returns True if new."""
        r = self.reduce(v)
        lead = next((c for c, a in enumerate(r) if a), None)
        if lead is None:
            return False
        pv = r[lead]
        if pv != 1:
            r = [a / pv if a else a for a in r]
        self.rows.append((lead, r))
        self.rows.sort(key=lambda t: t[0])
        return True

    @property
    def rank(self) -> int:
        return len(self.rows)


class SpanSolver:
    """Repeated exact coordinates-in-span queries against a fixed independent
    basis, via a precomputed left inverse."""

    def __init__(self, basis: Sequence[Sequence[Fraction]]) -> None:
        self.basis = [vec(v) for v in basis]
        if not self.basis:
            self.bmat = None
            self.left = None
            return
        self.bmat = Matrix.from_columns(self.basis)
        bt = self.bmat.transpose()
        gram = bt.mul(self.bmat)
        n = gram.rows
        cols = []
        for j in range(n):
            e = zero_vec(n)
            e[j] = Q(1)
            x = solve_linear(gram, e)
            if x is None:
                raise ValueError("SpanSolver needs a linearly independent basis")
            cols.append(x)
        self.left = Matrix.from_columns(cols).mul(bt)

    def coordinates(self, target: Sequence[Fraction]) -> Vec | None:
        if self.bmat is None:
            return [] if is_zero_vec(target) else None
        x = self.left.matvec(target)
        return x if self.bmat.matvec(x) == list(target) else None


# ---------------------------------------------------------------------------
# polynomials
# ---------------------------------------------------------------------------

def poly_trim(p: Sequence[Fraction]) -> Poly:
    out = [Q(c) for c in p]
    while out and out[-1] == 0:
        out.pop()
    return out


def poly_is_zero(p: Sequence[Fraction]) -> bool:
    return not poly_trim(p)


def poly_add(p: Poly, q: Poly) -> Poly:
    n = max(len(p), len(q))
    return poly_trim([(p[i] if i < len(p) else Q(0)) + (q[i] if i < len(q) else Q(0))
                      for i in range(n)])


def poly_mul(p: Poly, q: Poly) -> Poly:
    if not p or not q:
        return []
    out = [Q(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a == 0:
            continue
        for j, b in enumerate(q):
            out[i + j] += a * b
    return poly_trim(out)


def poly_divmod(p: Poly, q: Poly) -> tuple[Poly, Poly]:
    p, q = poly_trim(p), poly_trim(q)
    if not q:
        raise ZeroDivisionError("polynomial division by zero")
    quot = [Q(0)] * max(0, len(p) - len(q) + 1)
    rem = p[:]
    while len(rem) >= len(q):
        c = rem[-1] / q[-1]
        d = len(rem) - len(q)
        quot[d] = c
        rem = poly_trim([rem[i] - (c * q[i - d] if 0 <= i - d < len(q) else Q(0))
                         for i in range(len(rem))])
        if len(rem) >= d + len(q):
            # leading term must have cancelled
            rem = poly_trim(rem[:d + len(q) - 1])
    return poly_trim(quot), rem


def poly_monic(p: Poly) -> Poly:
    p = poly_trim(p)
    if not p:
        return p
    lead = p[-1]
    return [c / lead for c in p]


def poly_gcd(p: Poly, q: Poly) -> Poly:
    """Monic gcd by the Euclidean algorithm."""
    a, b = poly_trim(p), poly_trim(q)
    while b:
        a, b = b, poly_divmod(a, b)[1]
    return poly_monic(a)


def poly_lcm(p: Poly, q: Poly) -> Poly:
    if poly_is_zero(p) or poly_is_zero(q):
        return []
    g = poly_gcd(p, q)
    return poly_monic(poly_mul(p, poly_divmod(q, g)[0]))


def poly_derivative(p: Poly) -> Poly:
    return poly_trim([i * p[i] for i in range(1, len(p))])


def is_squarefree(p: Poly) -> bool:
    """True iff gcd(p, p') is constant.  Rejects the zero polynomial."""
    p = poly_trim(p)
    if not p:
        raise ValueError("zero polynomial has no squarefree test")
    if len(p) == 1:
        return True
    return len(poly_gcd(p, poly_derivative(p))) == 1


def minimal_polynomial(m: Matrix) -> Poly:
    """Monic annihilating polynomial of least degree.

    Computed per basis vector: iterate powers of m on e_i until the Krylov
    vectors become dependent, read the dependency off as a monic local
    annihilator, and take the lcm over i.
    """
    if m.rows != m.cols:
        raise ValueError("minimal polynomial needs a square matrix")
    n = m.rows
    if n == 0:
        return [Q(1)]
    result: Poly = [Q(1)]
    for i in range(n):
        # skip if current candidate already kills e_i
        v = zero_vec(n)
        v[i] = Q(1)
        if _poly_kills_vector(result, m, v):
            continue
        local = _local_minimal_polynomial(m, v)
        result = poly_lcm(result, local)
        if len(result) == n + 1:
            break
    return result


def _poly_kills_vector(p: Poly, m: Matrix, v: Vec) -> bool:
    acc = zero_vec(len(v))
    w = v[:]
    for c in p:
        if c != 0:
            acc = vec_add(acc, vec_scale(c, w))
        w = m.matvec(w)
    return is_zero_vec(acc)


def _local_minimal_polynomial(m: Matrix, v: Vec) -> Poly:
    n = len(v)
    krylov: list[Vec] = []
    w = v[:]
    while True:
        coeffs = in_span(krylov, w)
        if coeffs is not None:
            # w = sum coeffs[j] * krylov[j]  =>  x^k - sum coeffs[j] x^j kills v
            p = [-c for c in coeffs] + [Q(1)]
            return poly_trim(p)
        krylov.append(w)
        w = m.matvec(w)
        if len(krylov) > n:
            raise RuntimeError("Krylov iteration failed to terminate")


def rational_roots(p: Poly, bound: Fraction | None = None) -> list[Fraction]:
    """All rational roots of a nonzero polynomial, by the rational root test.

    An optional bound on the absolute value of the roots prunes the candidate
    scan (used with the Gershgorin bound for matrix spectra)."""
    p = poly_trim(p)
    if not p:
        raise ValueError("zero polynomial")
    roots: list[Fraction] = []
    # strip powers of x
    k = 0
    while p[k] == 0:
        k += 1
    if k > 0:
        roots.append(Q(0))
        p = p[k:]
    if len(p) == 1:
        return roots
    # clear denominators to a primitive integer polynomial
    from math import gcd, lcm
    den = lcm(*[c.denominator for c in p]) if len(p) > 1 else p[0].denominator
    ints = [int(c * den) for c in p]
    g = 0
    for c in ints:
        g = gcd(g, c)
    if g:
        ints = [c // g for c in ints]
    a0, alead = abs(ints[0]), abs(ints[-1])
    seen: set[Fraction] = set()
    for r in _divisors(a0):
        for s in _divisors(alead):
            if gcd(r, s) != 1:
                continue
            if bound is not None and Q(r, s) > bound:
                continue
            for rr in (r, -r):
                cand = Q(rr, s)
                if cand not in seen and _int_poly_root(ints, rr, s):
                    seen.add(cand)
                    roots.append(cand)
    return sorted(roots)


def _int_poly_root(ints: list[int], r: int, s: int) -> bool:
    """p(r/s) == 0 via the integer form sum a_i r^i s^(d-i)."""
    d = len(ints) - 1
    acc = 0
    rpow = 1
    spow = s ** d
    for a in ints:
        acc += a * rpow * spow
        rpow *= r
        if spow:
            spow //= s
    return acc == 0


def _divisors(n: int) -> list[int]:
    n = abs(n)
    if n == 0:
        return [1]
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            if d != n // d:
                out.append(n // d)
        d += 1
    return sorted(out)


def gershgorin_bound(m: Matrix) -> Fraction:
    """Upper bound on the absolute value of every eigenvalue."""
    best = Q(0)
    for row in m.data:
        s = sum((abs(e) for e in row), Q(0))
        if s > best:
            best = s
    return best


def rational_eigenspaces(m: Matrix) -> list[tuple[Fraction, list[Vec]]]:
    """(eigenvalue, eigenspace basis) for each rational root of the minimal
    polynomial.  Irrational eigenvalues are detected but not materialized."""
    if m.rows != m.cols:
        raise ValueError("eigenspaces need a square matrix")
    if m.rows == 0:
        return []
    mp = minimal_polynomial(m)
    out = []
    for lam in rational_roots(mp, bound=gershgorin_bound(m)):
        shifted = m.sub(Matrix.identity(m.rows).scale(lam))
        basis = kernel_basis(shifted)
        if basis:
            out.append((lam, basis))
    return out


def splits_semisimply_over_q(m: Matrix) -> bool:
    """True iff the minimal polynomial is squarefree with all roots rational,
    i.e. m is diagonalizable over the rationals."""
    mp = minimal_polynomial(m)
    if not is_squarefree(mp):
        return False
    roots = rational_roots(mp, bound=gershgorin_bound(m))
    prod: Poly = [Q(1)]
    for r in roots:
        prod = poly_mul(prod, [-r, Q(1)])
    return len(prod) == len(mp)
