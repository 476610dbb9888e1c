"""Exact rational linear and polynomial algebra.

Everything in this package runs over the rationals, with no floating point
anywhere.  Vectors and matrices that cross a public interface hold
`fractions.Fraction` entries.  Inside, the heavy loops run on integers: a
rational vector v is written as V / L, with V a sparse integer vector,
given as its nonzero (index, entry) pairs or as a dict {index: entry}, and
L a common denominator.  Fractions become integers once, on entry
(`_sparse_integer_rows`, which puts a list of vectors over the lcm of their
denominators; `integer_vector` for one dense vector), and integers become
Fractions once, on exit (`fraction_vector`, the dense vector of sparse
pairs over a denominator).  `Matrix` is dense (row-major lists of lists),
which is adequate for the dimensions this toolkit targets (at most a few
hundred).

Elimination goes through one engine, `Echelon`: an incremental,
fraction-free row echelon form on sparse primitive integer rows
{column: entry}.  It takes rows as dicts or as dense sequences, of ints or
Fractions, and keeps only the sparse form.  `rank`, `kernel_basis`,
`kernel_of_rows`, `solve_linear`, `in_span`, `span_basis`, `inverse`, the
Krylov step of `minimal_polynomial` and `integer_coordinates_in` are built
on it, and read their answers off its reduced echelon form, which is
unique; so they give the same vectors as any other exact elimination would.
Kernels, solutions, inverses and coordinates read it over the lcm of its
leads (`_reduced_over_lcm`).  Kernels, eigenspaces and solutions come out
as sparse integer vectors over one denominator (`_kernel`, `_eigenspace`,
and `_solve`, the one linear solve); `kernel_of_rows`,
`rational_eigenspaces`, `solve_linear` and `in_span` are their views.
`integer_coordinates_in` is the package's one map from brackets to
coordinates: it eliminates the basis vectors, each tagged with its own
index, once, then solves each target, a sparse integer vector {index:
entry}, by sparse integer products, and returns the coordinates as sparse
pairs over one denominator.
`minimal_polynomial` runs its Krylov step on the integer matrix d·m, in
sparse vectors on its transpose, and rescales the monic result, so it too
returns the unique minimal polynomial.

Polynomials are coefficient lists in ascending degree with a nonzero
leading coefficient (the zero polynomial is the empty list).  Inside, they
are integer lists: the minimal polynomial of d·m, and gcd(p, p') by Euclid
on primitive integer polynomials (`_derivative_gcd`), which gives both the
squarefree test and the squarefree part whose roots `rational_roots` lifts
p-adically, in time polynomial in the bit size.  `is_squarefree` and
`rational_roots` also accept Fraction coefficients; Fractions appear only
in `minimal_polynomial`'s output.

`_split` is the one test of "is m diagonalizable over Q?": it returns the
distinct eigenvalues, or None.  `splits_semisimply_over_q` and
`rational_eigenspaces` are public views; both pass the monic integer
minimal polynomial of d·m to `rational_roots` and divide its roots by d.
Inside, only the root decomposition computes eigenvectors (`_eigenspace`).
"""

from __future__ import annotations

from bisect import insort
from heapq import heapify, heappop, heappush
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


def _all_int(row: Iterable) -> bool:
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


def fraction_vector(pairs: Iterable[tuple[int, int]], n: int, den: int = 1) -> Vec:
    """The length-n rational vector with x / den at each (index, x) of
    pairs and zero elsewhere."""
    v = [_Q0] * n
    for k, x in pairs:
        v[k] = Q(x, den)
    return v


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


Row = dict[int, int]


def _sparse_row(v: dict | Iterable) -> Row:
    """The nonzero entries of v, a dict {column: entry} or a dense sequence
    of ints or Fractions, times the lcm of their denominators and divided by
    the gcd of the results: a primitive integer row {column: entry} on the
    same line as v."""
    row = {c: a for c, a in (v.items() if isinstance(v, dict) else enumerate(v)) if a}
    if not _all_int(row.values()):
        den = lcm(*(a.denominator for a in row.values()))
        row = {c: a.numerator * (den // a.denominator) for c, a in row.items()}
    g = gcd(*row.values())
    return {c: a // g for c, a in row.items()} if g > 1 else row


class Echelon:
    """Incremental fraction-free row echelon form, the package's one exact
    elimination engine.

    A row, a dict {column: entry} or a dense sequence of ints or Fractions,
    becomes a sparse primitive integer row {column: entry} on entry, and
    only that form is kept.  Each pivot row is gcd-normalized with a
    positive lead at its lowest column; `pivots` lists the lead columns in
    increasing order and `rows` maps each to its row.  A row added later is
    reduced against every earlier pivot, so it is zero at their columns;
    `_back_substituted` gives the reduced echelon form, each row up to scale.
    """

    def __init__(self) -> None:
        self.rows: dict[int, Row] = {}
        self.pivots: list[int] = []

    def reduce(self, v: dict | Iterable) -> Row:
        """v minus its part in the span, as a primitive integer row up to
        scale.  The row's pivot columns are cleared in increasing order, the
        ones that an elimination fills in included: each pivot row is zero
        left of its lead, so a cleared column stays clear."""
        row = _sparse_row(v)
        rows = self.rows
        todo = [c for c in row if c in rows]
        heapify(todo)
        while todo:
            c = heappop(todo)
            if c in row:
                for k in _eliminate(row, rows[c], c):
                    if k in rows:
                        heappush(todo, k)
        return row

    def contains(self, v: dict | Iterable) -> bool:
        return not self.reduce(v)

    def add(self, v: dict | Iterable) -> bool:
        """Insert if independent of the current span; returns True if new."""
        row = self.reduce(v)
        if not row:
            return False
        lead = min(row)
        self.rows[lead] = row if row[lead] > 0 else {c: -a for c, a in row.items()}
        insort(self.pivots, lead)
        return True

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def _back_substituted(self) -> dict[int, Row]:
        """Pivot column -> its primitive integer row, zero at every other
        pivot column: the reduced echelon form up to the scale of each row.
        A finished row is zero at every other finished pivot, so clearing
        one of them leaves the others clear."""
        done: dict[int, Row] = {}
        for c in reversed(self.pivots):
            row = self.rows[c]
            hits = [k for k in row if k in done]
            if hits:
                row = dict(row)
                for k in hits:
                    _eliminate(row, done[k], k)
            done[c] = row
        return done


def _reduced_over_lcm(ech: Echelon) -> tuple[dict[int, Row], int]:
    """(rows, L): pivot column c -> L times its row of the reduced echelon
    form of ech's span, with L the lcm of the back-substituted leads."""
    done = ech._back_substituted()
    den = lcm(*(row[c] for c, row in done.items()))
    return {c: row if row[c] == den else {k: a * (den // row[c]) for k, a in row.items()}
            for c, row in done.items()}, den


def _eliminate(row: Row, p: Row, c: int) -> list[int]:
    """Make row zero at column c, in place: row * a - p * b for
    a / b = p[c] / row[c] in lowest terms (a > 0, as p's lead is positive),
    divided by its gcd.  Returns the columns the step filled in."""
    x, pc = row[c], p[c]
    g = gcd(x, pc)
    a, b = pc // g, x // g
    if a != 1:
        for k in row:
            row[k] *= a
    filled = []
    for k, y in p.items():
        w = row.get(k, 0) - b * y
        if w:
            if k not in row:
                filled.append(k)
            row[k] = w
        else:
            del row[k]
    g = gcd(*row.values())
    if g > 1:
        for k in row:
            row[k] //= g
    return filled


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
    """`kernel_basis` of the matrix with these rows (dicts {column: entry}
    or dense sequences, of ints or Fractions) and `width` columns; no rows
    means the zero matrix.  The Fraction view of `_kernel`."""
    ks, den = _kernel(rows, width)
    return [fraction_vector(k.items(), width, den) for k in ks]


def _kernel(rows: Iterable, width: int) -> tuple[list[Row], int]:
    """(Ks, L): the `kernel_of_rows` basis as the sparse integer vectors
    K / L, K = {index: entry}, L the lcm of the leads of the reduced echelon
    form.  Free column f gets L, and pivot p gets -row[f] L / row[p]."""
    rref, den = _reduced_over_lcm(_echelon(rows, width))
    ks = {f: {f: den} for f in range(width) if f not in rref}
    for p, row in rref.items():
        for f, a in row.items():
            if f != p:
                ks[f][p] = -a
    return list(ks.values()), den


def solve_linear(m: Matrix, b: Sequence[Fraction]) -> Vec | None:
    """The x with m x = b whose free variables are zero, or None if the
    system is inconsistent: the Fraction view of `_solve`."""
    if len(b) != m.rows:
        raise ValueError("right-hand side length must equal row count")
    sol = _solve(([*row, bi] for row, bi in zip(m.data, b)), m.cols)
    return None if sol is None else fraction_vector(sol[0].items(), m.cols, sol[1])


def in_span(vectors: Sequence[Sequence[Fraction]], target: Sequence[Fraction]) -> Vec | None:
    """Coordinates of target in span(vectors), or None: the Fraction view
    of `_solve` on the matrix with these columns."""
    if any(len(v) != len(target) for v in vectors):
        raise ValueError("right-hand side length must equal row count")
    sol = _solve(zip(*vectors, target), len(vectors))
    return None if sol is None else fraction_vector(sol[0].items(), len(vectors), sol[1])


def _solve(rows: Iterable, width: int) -> tuple[Row, int] | None:
    """(X, L): the x = X / L with m x = b whose free variables are zero, X =
    {index: entry}, for the rows of [m | b] (dicts {column: entry} or dense
    sequences, of ints or Fractions), b at column `width`; None if a pivot
    lies there, i.e. m x = b is inconsistent.  Pivot c of the reduced
    echelon form over the lcm L of its leads has x_c = row[width] / L."""
    ech = _echelon(rows, width + 1)
    if ech.pivots and ech.pivots[-1] == width:
        return None
    rref, den = _reduced_over_lcm(ech)
    return {c: row[width] for c, row in rref.items() if width in row}, den


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
    """The inverse of a square matrix (`_inverse_rows`)."""
    if m.cols != m.rows:
        raise ValueError("only a square matrix has an inverse")
    rows, den = _inverse_rows(*_sparse_integer_rows(m.data))
    return Matrix([fraction_vector(row, m.rows, den) for row in rows])


def _inverse_rows(rows: list[list[tuple[int, int]]], den: int) -> tuple[list[list[tuple[int, int]]], int]:
    """(S, L') with P^-1 = S / L', for the square P = R / L given by the
    sparse integer rows of R and L = den; S as sparse integer rows.

    One `Echelon` of the rows of [R | L I] = L [P | I]: back-substituted,
    pivot row c is a multiple a_c [e_c | row c of P^-1], so with L' the lcm
    of the a_c, row c of S is the right half times L' / a_c.  P is singular
    exactly when a pivot falls in the right half (a ValueError)."""
    n = len(rows)
    ech = Echelon()
    for r, row in enumerate(rows):
        ech.add({**dict(row), n + r: den})
    if ech.pivots != list(range(n)):
        raise ValueError("matrix is not invertible")
    rref, lead = _reduced_over_lcm(ech)
    return [[(k - n, a) for k, a in rref[c].items() if k >= n] for c in range(n)], lead


def integer_coordinates_in(basis: Sequence[dict | Sequence]):
    """The map t -> (X, L), with t an integer vector given as {index: entry}:
    X lists the sorted nonzero pairs (s, X_s), and X_s / L are the
    coordinates of t in the independent vectors `basis` (dicts {index:
    entry} or dense sequences, of ints or Fractions, as `Echelon` takes
    them); None when t lies outside their span (checked by one sparse
    integer matvec).  L does not depend on t.

    The map is set up by one `Echelon` of the integer basis vectors
    V_s = L_b b_s, each fed as the row {r: V_s[r]} + {n + s: 1}, n past
    every index of the basis.  Every row of its span is a pair (R, T) with
    R = sum_s T[s] V_s, and a row with R = 0 is a dependency, so the basis
    is independent iff every pivot p_k lies below n.  Back-substituted, row
    k is (R_k, T_k) with R_k zero at every other pivot; a t in the span is
    then sum_k t[p_k] R_k / R_k[p_k], which gives its coordinates.  They
    are unique, so the pivots cannot change them."""
    if not basis:
        return lambda t: ([], 1) if not any(t.values()) else None
    cols, basis_den = _sparse_integer_rows(basis)
    n = 1 + max((r for col in cols for r, _ in col), default=-1)
    ech = Echelon()
    for s, col in enumerate(cols):
        ech.add({**dict(col), n + s: 1})
    if ech.pivots[-1] >= n:
        raise ValueError("the basis vectors are linearly dependent")
    # t = sum_s (X_s / L) b_s for X = sum_k t[p_k] C_k, C_k[s] = L L_b T_k[s] / R_k[p_k]:
    # L the lcm of the pivot entries, then divided by its gcd with every C_k
    rref, den = _reduced_over_lcm(ech)
    inv_cols = {p: [(k - n, basis_den * a) for k, a in sorted(row.items()) if k >= n]
                for p, row in rref.items()}
    common = gcd(den, *(a for col in inv_cols.values() for _, a in col))
    if common > 1:
        den //= common
        inv_cols = {p: [(s, a // common) for s, a in col] for p, col in inv_cols.items()}
    check = den * basis_den

    def coordinates(t: dict[int, int]) -> tuple[list[tuple[int, int]], int] | None:
        xs: dict[int, int] = {}
        for r, b in t.items():
            for s, a in inv_cols.get(r, ()):
                xs[s] = xs.get(s, 0) + a * b
        image: dict[int, int] = {}
        for s, c in xs.items():
            for r, b in cols[s]:
                image[r] = image.get(r, 0) + c * b
        for r, b in t.items():
            if image.pop(r, 0) != check * b:
                return None
        if any(image.values()):
            return None
        return sorted((s, c) for s, c in xs.items() if c), den

    return coordinates


def _sparse_integer_rows(rows: Iterable) -> tuple[list[list[tuple[int, int]]], int]:
    """The rows (dicts {column: entry} or dense sequences, of ints or
    Fractions) over one common denominator L, as sparse (column, integer)
    lists of L * row, and L."""
    nonzero = [[(c, a) for c, a in (v.items() if isinstance(v, dict) else enumerate(v)) if a]
               for v in rows]
    den = lcm(*(a.denominator for row in nonzero for _, a in row))
    return [[(c, a.numerator * (den // a.denominator)) for c, a in row] for row in nonzero], den


def _combine(cs: Iterable[tuple[int, int]], items: Sequence) -> dict[int, int]:
    """sum_t c_t V_t over the pairs (t, c_t) of cs, for the sparse integer
    vectors V_t = items[t] (their (index, entry) pairs, or dicts {index:
    entry}), as {index: entry} without zero entries."""
    out: dict[int, int] = {}
    for t, c in cs:
        v = items[t]
        for i, b in (v.items() if isinstance(v, dict) else v):
            out[i] = out.get(i, 0) + c * b
    return {i: a for i, a in out.items() if a}


def _kernel_of_columns(cols: Iterable[dict[int, int]], width: int) -> tuple[list[Row], int]:
    """`_kernel` of the matrix with these `width` sparse columns {row:
    entry}."""
    rows: dict[int, dict[int, int]] = {}
    for t, col in enumerate(cols):
        for r, a in col.items():
            rows.setdefault(r, {})[t] = a
    return _kernel(rows.values(), width)


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
    coefficients (`_derivative_gcd`).  Rejects the zero polynomial."""
    a = _integer_poly(p)
    if not a:
        raise ValueError("zero polynomial has no squarefree test")
    return len(_derivative_gcd(a)) == 1


def _derivative_gcd(a: list[int]) -> list[int]:
    """gcd(a, a') as a primitive integer polynomial, for a nonzero primitive
    integer polynomial a: Euclid on a and a' by primitive pseudo-remainders,
    whose last nonzero remainder is the gcd up to a rational factor."""
    b = _integer_row([j * c for j, c in enumerate(a)][1:])
    while b:
        a, b = b, _primitive_remainder(a, b)
    return a


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

    Works on the transpose T = M^T, which has the same minimal polynomial:
    the rows of M are the columns of T, so T v = sum_r v_r row_r is a sparse
    `_combine` of the rows on the entries of v, with no transpose and no
    dense vector.  Grows p over the basis vectors e_i: if p(T) e_i = w,
    applied by Horner on sparse vectors {index: entry}, is nonzero, p
    becomes p q, q the local minimal polynomial of w (read off the sparse
    Krylov vectors of w).  q is the local one of e_i divided by its gcd with
    p, so p q is their lcm, and after the last e_i, p is the minimal
    polynomial of M (Augot–Camion, Lin. Alg. Appl. 260, 1997).  Every local
    minimal polynomial of T divides the monic integer characteristic
    polynomial, so by Gauss's lemma all of them have integer coefficients.
    """
    n = len(rows)
    result = [1]
    for i in range(n):
        w = _poly_apply(result, rows, {i: 1})
        if w:
            q = _local_minimal_polynomial(rows, w)
            product = [0] * (len(result) + len(q) - 1)
            for j, a in enumerate(result):
                for k, b in enumerate(q):
                    product[j + k] += a * b
            result = product
            if len(result) == n + 1:
                break
    return result


def _poly_apply(p: list[int], rows: list[list[tuple[int, int]]],
                v: dict[int, int]) -> dict[int, int]:
    """p(T) v by Horner, for T the transpose of the integer matrix M with
    these sparse rows and v a sparse vector {index: entry}; zeros dropped."""
    acc: dict[int, int] = {}
    for c in reversed(p):
        acc = _combine(acc.items(), rows)
        if c:
            for k, x in v.items():
                acc[k] = acc.get(k, 0) + c * x
    return {k: a for k, a in acc.items() if a}


def _local_minimal_polynomial(rows: list[list[tuple[int, int]]], v: dict[int, int]) -> list[int]:
    """Monic p of least degree with p(T) v = 0, for T the transpose of the
    integer matrix M with these n sparse rows and v a nonzero sparse vector.
    The Krylov vectors w_k = T^k v go into one Echelon as the rows w_k +
    {n + k: 1}; the first row whose w-part reduces to zero carries the
    dependency sum a_j w_j = 0 in its e-part, and a_k divides every a_j."""
    n = len(rows)
    ech = Echelon()
    w = v
    for k in range(n + 1):
        ech.add({**w, n + k: 1})
        lead = ech.pivots[-1]
        if lead >= n:
            a = ech.rows[lead]
            return [a.get(n + j, 0) // a[n + k] for j in range(k + 1)]
        w = _combine(w.items(), rows)
    raise RuntimeError("Krylov iteration failed to terminate")


def rational_roots(p: Sequence) -> list[Fraction]:
    """The sorted distinct rational roots of a nonzero polynomial (int or
    Fraction coefficients), by p-adic lifting (Loos, SIAM J. Comput. 12, 1983).

    a, the primitive integer form of p, and its squarefree part s =
    a / gcd(a, a') have the same roots, simple in s.  For c the leading
    coefficient of s and n its degree, f(y) = c^(n-1) s(y / c) is monic with
    integer coefficients, so its rational roots y = c x are integers, none
    larger in absolute value than B = 1 + max |f_i| (Cauchy).  At the first
    modulus m >= 2 where f' is a unit at every root of f mod m, each root
    mod m lifts to a unique root mod m^2, m^4, ... by Newton's step
    r - f(r) / f'(r), until the modulus exceeds 2B.  Every integer root is
    then the symmetric residue of one lift, and the exact roots among those
    residues are all of them.  Such an m exists: f is squarefree, so any
    prime that does not divide its discriminant will do."""
    a = _integer_poly(p)
    if not a:
        raise ValueError("zero polynomial")
    s = _exact_quotient(a, _derivative_gcd(a))
    n, c = len(s) - 1, s[-1]
    if not n:
        return []
    f = [x * c ** (n - 1 - i) for i, x in enumerate(s[:-1])] + [1]
    df = [i * x for i, x in enumerate(f)][1:]
    m = 2
    while True:
        rs = [r for r in range(m) if not _horner(f, r) % m]
        if all(gcd(_horner(df, r), m) == 1 for r in rs):
            break
        m += 1
    bound = 2 * (1 + max(map(abs, f[:-1])))
    while m <= bound:
        m *= m
        rs = [(r - _horner(f, r) * pow(_horner(df, r), -1, m)) % m for r in rs]
    ys = (r if 2 * r <= m else r - m for r in rs)
    return sorted(Q(y, c) for y in ys if not _horner(f, y))


def _exact_quotient(a: list[int], b: list[int]) -> list[int]:
    """a / b for integer polynomials a and b, b a primitive divisor of a:
    by Gauss's lemma the quotient has integer coefficients, so each step of
    the long division divides exactly by b's leading coefficient."""
    a, m = list(a), len(b) - 1
    q = [0] * (len(a) - m)
    for k in reversed(range(len(q))):
        q[k] = t = a[k + m] // b[-1]
        for i, x in enumerate(b):
            a[k + i] -= t * x
    return q


def _horner(p: list[int], x: int) -> int:
    """p(x), for an integer polynomial p and an integer x."""
    acc = 0
    for c in reversed(p):
        acc = acc * x + c
    return acc


def rational_eigenspaces(m: Matrix) -> list[tuple[Fraction, list[Vec]]]:
    """(eigenvalue, eigenspace basis) for each rational root of the minimal
    polynomial.  Irrational eigenvalues are detected but not materialized."""
    if m.rows != m.cols:
        raise ValueError("eigenspaces need a square matrix")
    rows, d = _sparse_integer_rows(m.data)
    roots = [lam / d for lam in rational_roots(_minimal_polynomial(rows))]
    eig = ((lam, *_eigenspace(rows, d, lam)) for lam in roots)
    return [(lam, [fraction_vector(k.items(), m.rows, den) for k in ks]) for lam, ks, den in eig]


def _eigenspace(rows: list[list[tuple[int, int]]], d: int, lam: Fraction) -> tuple[list[Row], int]:
    """The eigenspace of m = M / d for lam, M the integer matrix with these
    sparse rows, as the `_kernel` of d q (m - lam) = q M - d p, lam = p / q."""
    p, q = lam.numerator, lam.denominator
    shifted = [{c: q * a for c, a in row} for row in rows]
    for i, r in enumerate(shifted):
        r[i] = r.get(i, 0) - d * p
    return _kernel(shifted, len(rows))


def _diagonal(rows: list[list[tuple[int, int]]]) -> list[int] | None:
    """The diagonal of M, the integer matrix with these sparse rows, if M
    is diagonal; else None."""
    diag = []
    for i, row in enumerate(rows):
        if not row:
            diag.append(0)
        elif len(row) == 1 and row[0][0] == i:
            diag.append(row[0][1])
        else:
            return None
    return diag


def splits_semisimply_over_q(m: Matrix) -> bool:
    """True iff the minimal polynomial is squarefree with all roots rational,
    i.e. m is diagonalizable over the rationals (`_split`)."""
    if m.rows != m.cols:
        raise ValueError("minimal polynomial needs a square matrix")
    return _split(*_sparse_integer_rows(m.data)) is not None


def _split(rows: list[list[tuple[int, int]]], d: int) -> list[Fraction] | None:
    """The sorted distinct eigenvalues of m = M / d, M the integer matrix
    with these sparse rows, when m is diagonalizable over Q; else None.

    A diagonal M gives them at once.  Otherwise m splits exactly when the
    monic integer minimal polynomial mp of M has deg mp distinct rational
    roots, i.e. is squarefree and splits over Q: they are M's eigenvalues,
    and m's are them divided by d."""
    diag = _diagonal(rows)
    if diag is not None:
        return sorted(Q(a, d) for a in set(diag))
    mp = _minimal_polynomial(rows)
    roots = rational_roots(mp)
    return [lam / d for lam in roots] if len(roots) == len(mp) - 1 else None
