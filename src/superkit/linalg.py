"""Exact rational linear and polynomial algebra.

Everything in this package runs over the rationals, with no floating point
anywhere.  Vectors and matrices that cross a public interface hold
`fractions.Fraction` entries.  Inside, the heavy loops run on integers: a
rational vector v is written as V / L, with V an integer vector and L the
lcm of the denominators (`integer_vector`), and turned back into Fractions
only when it leaves (`fraction_vector`).  Matrices are dense (row-major lists
of lists), which is adequate for the dimensions this toolkit targets (at
most a few hundred).

All elimination goes through one engine, `Echelon`: an incremental,
fraction-free row echelon form on primitive integer rows.  `rank`,
`kernel_basis`, `kernel_of_rows`, `solve_linear`, `in_span`, `span_basis`,
`inverse`, `coordinates_in` and the Krylov step of `minimal_polynomial` are
built on it, and read their answers off its reduced echelon form, which is
unique; so they give the same vectors as any other exact elimination would.
`minimal_polynomial` runs its Krylov step on the integer matrix d·m and
rescales the monic result, so it too returns the unique minimal polynomial.

Polynomials are coefficient lists in ascending degree with a nonzero
leading coefficient (the zero polynomial is the empty list).  Inside, they
are integer lists: the minimal polynomial of d·m, squarefree tests by Euclid
on primitive integer polynomials, and rational roots on the primitive
integer form.  `is_squarefree` and `rational_roots` also accept Fraction
coefficients; Fractions appear only in `minimal_polynomial`'s output.
"""

from __future__ import annotations

from bisect import insort
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

Q = Fraction

Vec = list[Fraction]


def vec(entries: Iterable) -> Vec:
    return [Q(e) for e in entries]


def zero_vec(n: int) -> Vec:
    return [Q(0)] * n


def vec_add(u: Sequence[Fraction], v: Sequence[Fraction]) -> Vec:
    return [a + b for a, b in zip(u, v)]

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


_INT = {int}


def _all_int(row: list) -> bool:
    """Every entry is an int.  The type test runs in C: a generator over
    the row was a visible share of the time of every `Echelon` insert."""
    return set(map(type, row)) <= _INT


def integer_vector(v: Iterable) -> tuple[list[int], int]:
    """(V, L) with v = V / L: L is the lcm of the denominators of v's
    entries (ints, Fractions, or anything `Fraction` accepts) and V the
    integer vector L * v."""
    row = list(v)
    if _all_int(row):
        return row, 1
    row = [e if isinstance(e, (int, Fraction)) else Q(e) for e in row]
    dens = [e.denominator for e in row]
    den = lcm(*dens)
    return [e.numerator * (den // d) for e, d in zip(row, dens)], den


def integer_vectors(vectors: Iterable[Iterable]) -> tuple[list[list[int]], int]:
    """The vectors over one common denominator: (Vs, L) with v_t = Vs[t] / L."""
    ints = [integer_vector(v) for v in vectors]
    den = lcm(*(d for _, d in ints))
    return [row if d == den else [a * (den // d) for a in row] for row, d in ints], den


def fraction_vector(row: Iterable[int], den: int) -> Vec:
    """The rational vector row / den."""
    if den == 1:
        return [Q(x) if x else _Q0 for x in row]
    return [Q(x, den) if x else _Q0 for x in row]


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

    def __eq__(self, other) -> bool:
        return (isinstance(other, Matrix) and self.rows == other.rows
                and self.cols == other.cols and self.data == other.data)

    def __repr__(self) -> str:
        return f"Matrix({self.data!r})"


def _integer_row(v: Iterable) -> list[int]:
    """The entries of v (ints or Fractions) times the lcm of their
    denominators, divided by the gcd of the results: a primitive integer
    vector on the same line as v."""
    row = list(v)
    if not _all_int(row):
        dens = [e.denominator for e in row]
        den = lcm(*dens)
        row = [e.numerator * (den // d) for e, d in zip(row, dens)]
    g = gcd(*row)
    return [x // g for x in row] if g > 1 else row


class Echelon:
    """Incremental fraction-free row echelon form, the package's one exact
    elimination engine.

    Rows are scaled to primitive integer rows on entry.  Each pivot row is
    kept gcd-normalized with a positive lead; `pivots` lists the lead columns
    in increasing order and `rows` maps each to its row.  A row added later
    is reduced against every earlier pivot, so it is zero at their columns;
    `reduced` back-substitutes once to give the reduced echelon form.
    """

    def __init__(self) -> None:
        self.rows: dict[int, list[int]] = {}
        self.pivots: list[int] = []

    def reduce(self, v: Iterable) -> list[int]:
        """v minus its part in the span, as an integer row up to scale."""
        row = _integer_row(v)
        for c in self.pivots:
            x = row[c]
            if x:
                row = _eliminate(row, self.rows[c], c, x)
        return row

    def contains(self, v: Iterable) -> bool:
        return not any(self.reduce(v))

    def add(self, v: Iterable) -> bool:
        """Insert if independent of the current span; returns True if new."""
        row = self.reduce(v)
        lead = next((c for c, x in enumerate(row) if x), None)
        if lead is None:
            return False
        self.rows[lead] = row if row[lead] > 0 else [-x for x in row]
        insort(self.pivots, lead)
        return True

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def reduced(self) -> list[Vec]:
        """The reduced row echelon form of the span, one row per pivot in
        `pivots` order: lead 1 and zero at every other pivot column."""
        done = self._back_substituted()
        out = []
        for c in self.pivots:
            row = done[c]
            lead = row[c]
            out.append([Q(x, lead) if x else _Q0 for x in row])
        return out

    def _back_substituted(self) -> dict[int, list[int]]:
        """Pivot column -> its primitive integer row, zero at every other
        pivot column: the reduced echelon form up to the scale of each row."""
        done: dict[int, list[int]] = {}
        for c in reversed(self.pivots):
            row = self.rows[c]
            for c2, p in done.items():
                x = row[c2]
                if x:
                    row = _eliminate(row, p, c2, x)
            done[c] = row
        return done


def _eliminate(row: list[int], p: list[int], c: int, x: int) -> list[int]:
    """row * p[c] - p * x (zero at column c when x = row[c]), made primitive."""
    pc = p[c]
    row = [a * pc - b * x for a, b in zip(row, p)]
    g = gcd(*row)
    return [a // g for a in row] if g > 1 else row


def _echelon(rows: Iterable, width: int) -> Echelon:
    """An Echelon of the rows; stops early once the rank reaches width."""
    ech = Echelon()
    for row in rows:
        if ech.add(row) and ech.rank == width:
            break
    return ech


def rank(m: Matrix) -> int:
    return _echelon(m.data, m.cols).rank


def kernel_basis(m: Matrix) -> list[Vec]:
    """Basis of the right null space {v : m v = 0}: one vector per free
    column, with 1 there and 0 at the other free columns."""
    return kernel_of_rows(m.data, m.cols)


def kernel_of_rows(rows: Iterable, width: int) -> list[Vec]:
    """`kernel_basis` of the matrix with these rows (ints or Fractions) and
    `width` columns; no rows means the zero matrix."""
    ech = _echelon(rows, width)
    red = ech.reduced()
    pivots = set(ech.pivots)
    basis = []
    for fc in range(width):
        if fc in pivots:
            continue
        v = zero_vec(width)
        v[fc] = Q(1)
        for pc, row in zip(ech.pivots, red):
            v[pc] = -row[fc]
        basis.append(v)
    return basis


def solve_linear(m: Matrix, b: Sequence[Fraction]) -> Vec | None:
    """The x with m x = b whose free variables are zero, or None if the
    system is inconsistent."""
    if len(b) != m.rows:
        raise ValueError("right-hand side length must equal row count")
    n = m.cols
    ech = _echelon(([*row, bi] for row, bi in zip(m.data, b)), n + 1)
    if ech.pivots and ech.pivots[-1] == n:
        return None
    x = zero_vec(n)
    for pc, row in zip(ech.pivots, ech.reduced()):
        x[pc] = row[n]
    return x


def in_span(vectors: Sequence[Sequence[Fraction]], target: Sequence[Fraction]) -> Vec | None:
    """Coordinates of target in span(vectors), or None."""
    if not vectors:
        return [] if is_zero_vec(target) else None
    return solve_linear(Matrix.from_columns(list(vectors)), list(target))


def span_basis(vectors: Sequence[Sequence[Fraction]]) -> list[Vec]:
    """The vectors that are independent of the ones before them."""
    ech = Echelon()
    out: list[Vec] = []
    for v in vectors:
        if ech.add(v):
            out.append(vec(v))
            if len(out) == len(v):
                break
    return out


def inverse(m: Matrix) -> Matrix:
    """The inverse of a square matrix, read off the reduced rows of [m | I]."""
    if m.cols != m.rows:
        raise ValueError("only a square matrix has an inverse")
    rows, den = _integer_inverse(m.data)
    return Matrix([fraction_vector(row, den) for row in rows])


def _integer_inverse(rows: Sequence[Sequence]) -> tuple[list[list[int]], int]:
    """(W, w) with W / w the inverse of the square matrix with these rows
    (ints or Fractions), read off the integer reduced rows of [m | I]."""
    n = len(rows)
    ech = Echelon()
    for r, row in enumerate(rows):
        ech.add([*row, *(int(r == c) for c in range(n))])
    if ech.pivots != list(range(n)):
        raise ValueError("matrix is not invertible")
    done = ech._back_substituted()
    den = lcm(*(done[c][c] for c in range(n)))
    return [[x * (den // done[c][c]) for x in done[c][n:]] for c in range(n)], den


def coordinates_in(basis: Sequence[Sequence[Fraction]]):
    """The map (t, scale=1) -> coordinates of t / scale in the independent
    vectors `basis`, or None when t lies outside their span."""
    integer = integer_coordinates_in(basis)

    def coordinates(t: Sequence, scale: int = 1) -> Vec | None:
        found = integer(t)
        return None if found is None else fraction_vector(found[0], found[1] * scale)

    return coordinates


def integer_coordinates_in(basis: Sequence[Sequence[Fraction]]):
    """The map t -> (X, L), X an integer vector with X / L the coordinates
    of t in the independent vectors `basis`, or None when t lies outside
    their span (checked by one integer matvec).  t may hold ints or
    Fractions."""
    if not basis:
        return lambda t: ([], 1) if is_zero_vec(t) else None
    ints, basis_den = integer_vectors(basis)
    m = len(ints)
    # m positions S at which the basis vectors b_s = V_s / L form an
    # invertible block B[S] = V[S] / L, and the inverse L W / w of that block
    ech = Echelon()
    pos = []
    for r, entries in enumerate(zip(*ints)):
        if ech.add(entries):
            pos.append(r)
            if len(pos) == m:
                break
    if len(pos) != m:
        raise ValueError("the basis vectors are linearly dependent")
    inv, inv_den = _integer_inverse([[v[r] for v in ints] for r in pos])
    # the columns of L W, and the V_s, as sparse integer columns
    inv_cols = [[(s, basis_den * a) for s, a in enumerate(col) if a] for col in zip(*inv)]
    cols = [[(r, b) for r, b in enumerate(v) if b] for v in ints]
    check = inv_den * basis_den

    def coordinates(t: Sequence) -> tuple[list[int], int] | None:
        tt, den = integer_vector(t)
        x = [0] * m
        for r, col in zip(pos, inv_cols):
            b = tt[r]
            if b:
                for s, a in col:
                    x[s] += a * b
        image = [0] * len(tt)
        for xs, col in zip(x, cols):
            if xs:
                for r, b in col:
                    image[r] += xs * b
        if image != (tt if check == 1 else [b * check for b in tt]):
            return None
        return x, inv_den * den

    return coordinates


def _sparse_integer_rows(rows: Sequence[Sequence]) -> tuple[list[list[tuple[int, int]]], int]:
    """The rows over one common denominator L, as sparse (column, integer)
    lists of L * row, and L."""
    ints, den = integer_vectors(rows)
    return [[(c, a) for c, a in enumerate(r) if a] for r in ints], den


# ---------------------------------------------------------------------------
# polynomials
# ---------------------------------------------------------------------------

def _integer_poly(p: Iterable) -> list[int]:
    """The primitive integer polynomial on the same line as p (ints or
    Fractions), with zero leading coefficients dropped."""
    row = _integer_row(p)
    while row and not row[-1]:
        row.pop()
    return row


def _primitive_remainder(a: list[int], b: list[int]) -> list[int]:
    """The primitive part of the pseudo-remainder of a by b (b nonzero): an
    integer polynomial of degree below deg b, a nonzero rational multiple of
    the remainder of a by b over Q (Knuth, TAOCP vol. 2, 4.6.1)."""
    m = len(b) - 1
    lead = b[-1]
    while len(a) > m:
        # lead * a - a[-1] x^k b cancels the leading term of a
        c, k = a[-1], len(a) - 1 - m
        a = [lead * x for x in a[:-1]]
        for i in range(m):
            a[k + i] -= c * b[i]
        while a and not a[-1]:
            a.pop()
    return _integer_row(a)


def is_squarefree(p: Sequence) -> bool:
    """True iff gcd(p, p') is constant, for p with int or Fraction
    coefficients.  Rejects the zero polynomial.

    Euclid on p, scaled to a primitive integer polynomial, and p' by
    primitive pseudo-remainders: p is squarefree iff the last nonzero
    remainder is a constant."""
    a = _integer_poly(p)
    if not a:
        raise ValueError("zero polynomial has no squarefree test")
    b = _integer_row([j * c for j, c in enumerate(a)][1:])
    while b:
        a, b = b, _primitive_remainder(a, b)
    return len(a) == 1


def minimal_polynomial(m: Matrix) -> list[Fraction]:
    """Monic annihilating polynomial of least degree.

    Computed on the integer matrix M = d m, d the lcm of the denominators of
    m, whose minimal polynomial is monic with integer coefficients; the one
    of m has coefficient j divided by d^(r-j), r the degree.
    """
    if m.rows != m.cols:
        raise ValueError("minimal polynomial needs a square matrix")
    rows, d = _sparse_integer_rows(m.data)
    p = _minimal_polynomial(rows)
    r = len(p) - 1
    return [Q(c, d ** (r - j)) for j, c in enumerate(p)]


def _minimal_polynomial(rows: list[list[tuple[int, int]]]) -> list[int]:
    """The minimal polynomial of M, the integer matrix with these sparse rows.

    Grows p over the basis vectors e_i: if p(M) e_i = w is nonzero, p becomes
    p q, q the local minimal polynomial of w (read off the Krylov vectors of
    w).  q is the local one of e_i divided by its gcd with p, so p q is their
    lcm, and after the last e_i, p is the minimal polynomial of M.  Every
    local minimal polynomial of M divides the monic integer characteristic
    polynomial, so by Gauss's lemma all of them have integer coefficients.
    """
    n = len(rows)
    result = [1]
    for i in range(n):
        v = [0] * n
        v[i] = 1
        w = _poly_apply(result, rows, v)
        if any(w):
            q = _local_minimal_polynomial(rows, w)
            product = [0] * (len(result) + len(q) - 1)
            for j, a in enumerate(result):
                for k, b in enumerate(q):
                    product[j + k] += a * b
            result = product
            if len(result) == n + 1:
                break
    return result


def _root_polynomial(p: list[int], d: int) -> list[int]:
    """The coefficients c_j d^j of d^r P(x / d), r = deg P: its roots are
    P's divided by d, so for P the minimal polynomial of M = d m, m's."""
    return [c * d ** j for j, c in enumerate(p)]


def _int_matvec(rows: list[list[tuple[int, int]]], w: list[int]) -> list[int]:
    return [sum(a * w[c] for c, a in row) for row in rows]


def _poly_apply(p: list[int], rows: list[list[tuple[int, int]]], v: list[int]) -> list[int]:
    """p(M) v, for the integer matrix M with these sparse rows."""
    acc = [0] * len(v)
    for j, c in enumerate(p):
        if c:
            acc = [a + c * x for a, x in zip(acc, v)]
        if j < len(p) - 1:
            v = _int_matvec(rows, v)
    return acc


def _local_minimal_polynomial(rows: list[list[tuple[int, int]]], v: list[int]) -> list[int]:
    """Monic p of least degree with p(M) v = 0, for the integer matrix M with
    these sparse rows.  The Krylov vectors w_k = M^k v go into one Echelon as
    [w_k | e_k]; the first row whose w-part reduces to zero carries the
    dependency sum a_j w_j = 0 in its e-part, and a_k divides every a_j."""
    n = len(v)
    ech = Echelon()
    w = v
    for k in range(n + 1):
        ech.add([*w, *(int(j == k) for j in range(n + 1))])
        lead = ech.pivots[-1]
        if lead >= n:
            a = ech.rows[lead][n:n + k + 1]
            return [x // a[k] for x in a]
        w = _int_matvec(rows, w)
    raise RuntimeError("Krylov iteration failed to terminate")


def rational_roots(p: Sequence, bound: Fraction | None = None) -> list[Fraction]:
    """All rational roots of a nonzero polynomial (int or Fraction
    coefficients), by the rational root test on its primitive integer form.

    An optional bound on the absolute value of the roots prunes the candidate
    scan (used with the Gershgorin bound for matrix spectra)."""
    ints = _integer_poly(p)
    if not ints:
        raise ValueError("zero polynomial")
    # strip powers of x
    k = next(j for j, c in enumerate(ints) if c)
    roots = [Q(0)] if k else []
    ints = ints[k:]
    if len(ints) == 1:
        return roots
    # coprime (r, s) with both signs of r give every candidate r/s once
    for r in _divisors(ints[0]):
        for s in _divisors(ints[-1]):
            if gcd(r, s) != 1:
                continue
            if bound is not None and Q(r, s) > bound:
                continue
            for rr in (r, -r):
                if _int_poly_root(ints, rr, s):
                    roots.append(Q(rr, s))
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


def _gershgorin(rows: list[list[tuple[int, int]]], d: int) -> Fraction:
    """Upper bound on the absolute value of every eigenvalue of M / d, M the
    integer matrix with these sparse rows."""
    return Q(max((sum(abs(a) for _, a in row) for row in rows), default=0), d)


def rational_eigenspaces(m: Matrix) -> list[tuple[Fraction, list[Vec]]]:
    """(eigenvalue, eigenspace basis) for each rational root of the minimal
    polynomial.  Irrational eigenvalues are detected but not materialized."""
    if m.rows != m.cols:
        raise ValueError("eigenspaces need a square matrix")
    n = m.rows
    if n == 0:
        return []
    rows, d = _sparse_integer_rows(m.data)
    out = []
    roots = rational_roots(_root_polynomial(_minimal_polynomial(rows), d),
                           bound=_gershgorin(rows, d))
    for lam in roots:
        # d q (m - lam) = q M - d p for lam = p / q, in integers
        p, q = lam.numerator, lam.denominator
        shifted = []
        for i, row in enumerate(rows):
            r = [0] * n
            for c, a in row:
                r[c] = q * a
            r[i] -= d * p
            shifted.append(r)
        basis = kernel_of_rows(shifted, n)
        if basis:
            out.append((lam, basis))
    return out


def splits_semisimply_over_q(m: Matrix) -> bool:
    """True iff the minimal polynomial is squarefree with all roots rational,
    i.e. m is diagonalizable over the rationals."""
    if m.rows != m.cols:
        raise ValueError("minimal polynomial needs a square matrix")
    rows, d = _sparse_integer_rows(m.data)
    mp = _minimal_polynomial(rows)
    # m's minimal polynomial is mp(d x) / d^r: squarefree exactly when mp is
    if not is_squarefree(mp):
        return False
    # the roots are distinct, so they split mp exactly when there are deg mp
    roots = rational_roots(_root_polynomial(mp, d), bound=_gershgorin(rows, d))
    return len(roots) == len(mp) - 1
