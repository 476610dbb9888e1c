"""Supercommutative superalgebras, odd derivations, and the splitting witness.

The splitting-obstruction algorithm: for an odd derivation u of a
finite-dimensional supercommutative algebra A that is everywhere
non-vanishing (the ideal generated by its image is all of A) and whose square
h = u^2 acts semisimply with rational spectrum, produce f in A with
u(f) = 1 exactly.  Consequently the line spanned by 1 admits no complement
stable under u, which is the finite-dimensional form of the obstruction to
semisimplicity coming from an odd vector field.

Construction: solve sum g_i u(xi_i) = 1 with even g_i and odd xi_i (possible
exactly when u is non-vanishing, so this one solve decides it), set
p = sum g_i xi_i so u(p) = 1 + eta with eta a nilpotent element of the
square of the odd part, project p to the kernel of h by the spectral
projector prod_{lam != 0} (h - lam) / (-lam) over the distinct eigenvalues
that `linalg._split`, the package's one split test, returns, invert the
unit 1 + eta_0 by a finite geometric series, and divide.  No eigenvector is
formed: `linalg.rational_eigenspaces` is only a public view.

The multiplication is stored as `LieSuperalgebra` stores its brackets, one
sparse integer table (`core._structure_table`), and computed by the same
kernel (`core._product`); the dense `SupercommAlgebra.table` is a view.
`validate_algebra` checks it with `LieSuperalgebra.validate`'s table checks,
associativity as the law of its left-regular columns, the table itself.
The witness (by `linalg._solve` and `_split`), the span tests (`Echelon`
membership) and `validate_derivation` read it in sparse integers too, and
only the returned f becomes Fractions.
"""

from __future__ import annotations

from typing import Sequence

from .core import (EVEN, SparseVec, SuperkitError, Table, _asymmetric_pairs, _Basis,
                   _grading_failures, _law_failures, _product, _structure_table)
from .linalg import (
    Matrix,
    Q,
    Vec,
    fraction_vector,
    _combine,
    _echelon,
    _solve,
    _sparse_integer_rows,
    _split,
    vec,
)


class Vanishing(SuperkitError):
    """The derivation vanishes somewhere: its image generates a proper ideal."""


class NonSemisimpleSquare(SuperkitError):
    """The square of the derivation does not act semisimply with rational spectrum."""


class SupercommAlgebra(_Basis):
    """Unital supercommutative algebra given by a multiplication table
    table[i][j] = coordinates of e_i e_j, stored as `core`'s integer table:
    e_i e_j = sum_k C / D e_k for each (k, C) in `_table[i][j]`."""

    def __init__(self, parity: Sequence[int], table: Sequence[Sequence[Sequence]],
                 unit: Sequence, names: Sequence[str] = ()) -> None:
        self.parity = tuple(int(p) % 2 for p in parity)
        n = self.dim
        self._table, self._den = _structure_table(n, (
            (i, j, k, q) for i in range(n) for j in range(n) for k, q in enumerate(table[i][j]) if q))
        self.unit = vec(unit)
        self.names = tuple(names) or tuple(f"e{i}" for i in range(n))
        self._dense: list[list[Vec]] | None = None

    @classmethod
    def _of_table(cls, parity: Sequence[int], table: Table, den: int, unit: Sequence,
                  names: Sequence[str] = ()) -> "SupercommAlgebra":
        """The algebra with the given integer table over D = den."""
        n = len(parity)
        a = cls(parity, [[()] * n] * n, unit, names)
        a._table, a._den = table, den
        return a

    @property
    def table(self) -> list[list[Vec]]:
        """The coordinates of each e_i e_j, as Fractions (built on first use)."""
        if self._dense is None:
            n, den = self.dim, self._den
            self._dense = [[fraction_vector(row, n, den) for row in block]
                           for block in self._table]
        return self._dense

    def multiply(self, x: Sequence, y: Sequence) -> Vec:
        (xs, ys), den = _sparse_integer_rows((x, y))
        return fraction_vector(_product(self._table, xs, ys).items(), self.dim,
                               den * den * self._den)


def validate_algebra(a: SupercommAlgebra) -> list[str]:
    """Violations of grading, supercommutativity, associativity, or the unit law."""
    issues = [f"grading: e{i}*e{j} has component at e{k}"
              for i, j, k, _ in _grading_failures(a._table, a.parity, a.parity)]
    issues += [f"supercommutativity: fails on pair ({i},{j})"
               for i, j in _asymmetric_pairs(a, 1)]
    every = range(a.dim)
    issues += [f"associativity: fails at triple ({i},{j},{k})"
               for i, j, k in _law_failures(a, a._table, a._den,
                                            ((i, j) for i in every for j in every),
                                            commutator=False)]
    t = a._table
    (us,), ud = _sparse_integer_rows((a.unit,))
    for i in range(a.dim):
        # 1 e_i = e_i 1 = e_i, scaled by L D for unit = U / L
        e = {i: ud * a._den}
        if _product(t, us, ((i, 1),)) != e or _product(t, ((i, 1),), us) != e:
            issues.append(f"unit law: fails on e{i}")
    return issues


def _columns(a: SupercommAlgebra, u: Matrix) -> tuple[list[list[tuple[int, int]]], int]:
    """(U, L) with u = U / L, U as its sparse integer columns; ValueError
    unless the derivation u is a dim x dim matrix."""
    if u.rows != a.dim or u.cols != a.dim:
        raise ValueError(f"the derivation must be a {a.dim}x{a.dim} matrix")
    return _sparse_integer_rows(u.column(c) for c in range(a.dim))


def validate_derivation(a: SupercommAlgebra, u: Matrix) -> list[str]:
    """Violations of parity reversal or the super-Leibniz rule
    u(xy) = u(x) y + (-1)^{|x|} x u(y)."""
    issues: list[str] = []
    # the columns of u = U / L as integer vectors; both sides scaled by L D
    cols, _ = _columns(a, u)
    n, p, t = a.dim, a.parity, a._table
    for r in range(n):
        for c in range(n):
            if u.data[r][c] != 0 and p[r] == p[c]:
                issues.append(f"parity: derivation entry ({r},{c}) is not parity-reversing")
    for i in range(n):
        for j in range(n):
            rhs = _combine(((0, 1), (1, -1 if p[i] else 1)),
                           (_product(t, cols[i], ((j, 1),)), _product(t, ((i, 1),), cols[j])))
            if _combine(t[i][j], cols) != rhs:
                issues.append(f"leibniz: fails on pair ({i},{j})")
    return issues


def is_nonvanishing(a: SupercommAlgebra, u: Matrix) -> bool:
    """True iff the ideal generated by the image of u is all of A,
    i.e. the span of A * u(A) contains the unit."""
    cols, _ = _columns(a, u)
    products = (_product(a._table, ((k, 1),), col) for k in range(a.dim) for col in cols)
    return _echelon(products, a.dim).contains(a.unit)


def splitting_witness(a: SupercommAlgebra, u: Matrix) -> Vec:
    """An odd f with u(f) = 1 exactly.

    Raises Vanishing if the image ideal is proper, NonSemisimpleSquare if
    h = u^2 fails to act semisimply with rational spectrum.

    Every vector is an integer numerator over a denominator: u = U / lu,
    1 = E / le, and each product of the table carries its D.
    """
    cols, lu = _columns(a, u)
    (unit,), le = _sparse_integer_rows((a.unit,))
    n, t, d = a.dim, a._table, a._den
    pairs = [(gi, xi) for gi in a.even_indices for xi in a.odd_indices]
    # the span of A u(A) is graded and the unit is even, so the unit lies in
    # it iff it lies in the span of the even products g u(x) and x u(g), g
    # even, x odd.  x u(g) = u(x) g - u(x g), and u(x) g = g u(x) and
    # u(x g) = 1 u(x g) are of the first kind, so on a valid table this one
    # solve decides `is_nonvanishing`.  Column s is D lu g u(x), so the
    # solution Y / ly of sum_s y_s column_s = E has c_s = D lu Y_s / (ly le)
    rows: list[dict[int, int]] = [{} for _ in range(n)]
    for s, col in enumerate([_product(t, ((gi, 1),), cols[xi]) for gi, xi in pairs] + [dict(unit)]):
        for r, c in col.items():
            rows[r][s] = c
    sol = _solve(rows, len(pairs))
    if sol is None:
        raise Vanishing("the image of the derivation generates a proper ideal")
    # the columns of U^2 are the rows of its transpose, as good for `_split`
    lams = _split([list(_combine(col, cols).items()) for col in cols], lu * lu)
    if lams is None:
        raise NonSemisimpleSquare("u^2 does not act semisimply with rational spectrum")

    def minus_unit(v: dict[int, int], lv: int) -> tuple[dict[int, int], int]:
        # u(V / lv) - 1, as (numerator, denominator)
        return _combine(((0, le), (1, -lu * lv)), (_combine(v.items(), cols), unit)), lu * lv * le

    # p = sum c_s g x = P / lp, and eta = u(p) - 1
    ys, ly = sol
    p = _combine(((s, lu * y) for s, y in ys.items()), [t[gi][xi] for gi, xi in pairs])
    lp = ly * le
    if _powers(t, unit, minus_unit(p, lp)[0], n) is None:
        raise SuperkitError("intermediate element failed the nilpotence check")
    # the component p0 of p in ker h, by the spectral projector
    # prod_{lam != 0} (h - lam) / (-lam) of the split h, whose factor for
    # lam = q / r is (q lu^2 - r U^2) / (q lu^2)
    for lam in filter(None, lams):
        q, r = lam.numerator, lam.denominator
        hp = _combine(_combine(p.items(), cols).items(), cols)
        p, lp = _combine(((0, q * lu * lu), (1, -r)), (p, hp)), lp * q * lu * lu
    # (1 + eta0)^-1 = sum_k (-eta0)^k, a finite sum as eta0 is nilpotent:
    # for eta0 = X / lx and s = -D lx, the term k is W_k / (le s^k)
    eta0, lx = minus_unit(p, lp)
    powers = _powers(t, unit, eta0, n)
    if powers is None:
        raise SuperkitError("element 1 + eta was not unipotent")
    s, top = -d * lx, len(powers) - 1
    inv = _combine(((k, s ** (top - k)) for k in range(top + 1)), powers)
    f, lf = _product(t, p, inv), d * lp * le * s ** top
    # u(f) = 1, i.e. le U F = lu lf E
    if _combine(((0, le),), (_combine(f.items(), cols),)) != _combine(((0, lu * lf),), (unit,)):
        raise SuperkitError("witness construction failed the final check")
    if any(a.parity[i] == EVEN for i in f):
        raise SuperkitError("witness is not purely odd")
    return fraction_vector(f.items(), n, lf)


def _powers(t: Table, unit: SparseVec, x: dict[int, int], n: int) -> list[dict[int, int]] | None:
    """[W_0, ..., W_m], W_0 = E the integer unit L 1 and W_k = D^k L x^k,
    up to x^(m+1) = 0, for the integer vector x; None if x^(n+1) != 0."""
    powers = [dict(unit)]
    for _ in range(n + 1):
        w = _product(t, powers[-1], x)
        if not w:
            return powers
        powers.append(w)
    return None


def verify_no_splitting(a: SupercommAlgebra, u: Matrix) -> bool:
    """True when the unit lies in the image of u, so the trivial line has no
    u-stable complement; a functional phi with phi(1) = 1 and phi after u = 0
    would contradict u(f) = 1."""
    cols, _ = _columns(a, u)
    return _echelon(map(dict, cols), a.dim).contains(a.unit)


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------

def _interleave_sign(s: int, t: int) -> int:
    """Sign of merging two disjoint ascending index sets (bitmasks)."""
    sign = 1
    while t:
        low = t & -t
        # count elements of s above this element of t
        above = bin(s >> (low.bit_length())).count("1")
        if above % 2:
            sign = -sign
        t ^= low
    return sign


def exterior_algebra(k: int, names: Sequence[str] | None = None) -> SupercommAlgebra:
    """Exterior algebra on k odd generators; basis indexed by subsets."""
    dim = 1 << k
    gen_names = list(names) if names else [f"x{i + 1}" for i in range(k)]
    if len(gen_names) != k:
        raise ValueError("need one name per generator")
    basis_names = ["*".join(gen_names[t] for t in range(k) if mask >> t & 1) or "1"
                   for mask in range(dim)]
    parity = tuple(bin(mask).count("1") % 2 for mask in range(dim))
    table = [[() if s & t else ((s | t, _interleave_sign(s, t)),) for t in range(dim)]
             for s in range(dim)]
    return SupercommAlgebra._of_table(parity, table, 1, fraction_vector(((0, 1),), dim),
                                      basis_names)


def poly_quotient_algebra(modulus: Sequence, var: str = "x") -> SupercommAlgebra:
    """Purely even algebra k[x]/(m(x)) for a monic modulus (coefficient list,
    ascending degree)."""
    m = [Q(c) for c in modulus]
    if not m or m[-1] != 1:
        raise ValueError("modulus must be monic")
    d = len(m) - 1
    if d < 1:
        raise ValueError("modulus must have positive degree")
    # x^d = -(m[0] + m[1] x + ... + m[d-1] x^{d-1})
    red = [-c for c in m[:-1]]
    powers = [fraction_vector(((k, 1),), d) for k in range(d)]
    for _ in range(d, 2 * d):
        # x^k = x x^(k-1): shift the coefficients up, then reduce x^d
        prev = powers[-1]
        powers.append([c + prev[-1] * r for c, r in zip([Q(0), *prev[:-1]], red)])
    table, den = _structure_table(d, ((i, j, k, q) for i in range(d) for j in range(d)
                                      for k, q in enumerate(powers[i + j]) if q))
    names = tuple("1" if k == 0 else (var if k == 1 else f"{var}^{k}") for k in range(d))
    return SupercommAlgebra._of_table((EVEN,) * d, table, den, powers[0], names)


def tensor_algebra(a: SupercommAlgebra, b: SupercommAlgebra) -> SupercommAlgebra:
    """Super tensor product: (x ox y)(x' ox y') = (-1)^{|y||x'|} xx' ox yy'."""
    da, db = a.dim, b.dim
    parity = tuple((a.parity[i] + b.parity[j]) % 2 for i in range(da) for j in range(db))
    names = tuple(
        b.names[j] if a.names[i] == "1" else
        (a.names[i] if b.names[j] == "1" else f"{a.names[i]}*{b.names[j]}")
        for i in range(da) for j in range(db)
    )
    # distinct (ka, kb) give distinct ka * db + kb, in ascending order
    table = [[tuple((ka * db + kb, (-1 if b.parity[j] and a.parity[i2] else 1) * ca * cb)
                    for ka, ca in a._table[i][i2] for kb, cb in b._table[j][j2])
              for i2 in range(da) for j2 in range(db)]
             for i in range(da) for j in range(db)]
    unit = [ca * cb for ca in a.unit for cb in b.unit]
    return SupercommAlgebra._of_table(parity, table, a._den * b._den, unit, names)


# ---------------------------------------------------------------------------
# catalog pairs and the coinvariant-dual bridge
# ---------------------------------------------------------------------------

def catalog_pairs() -> dict[str, tuple[SupercommAlgebra, Matrix]]:
    """Named (algebra, derivation) pairs used by the demos and the test suite.

    Three pairs admit a splitting witness; 'vanishing' is the documented
    failure case (the derivative image generates a proper ideal).
    """

    def ones(n: int, *entries: tuple[int, int]) -> Matrix:
        """The n x n matrix with 1 at each (row, column) of entries."""
        m = Matrix.zeros(n, n)
        for r, c in entries:
            m.data[r][c] = Q(1)
        return m

    # xi -> 1
    out = {"exterior1": (exterior_algebra(1, ["xi"]), ones(2, (0, 1)))}
    # basis: 1, xi, x, x*xi ; u = x d/dxi: xi -> x, x*xi -> x^2 = 1
    out["torus-exterior"] = (tensor_algebra(poly_quotient_algebra([-1, 0, 1]),
                                            exterior_algebra(1, ["xi"])), ones(4, (2, 1), (0, 3)))
    # basis: 1, x1, x2, x1*x2 ; u(x1) = 1 + x1 x2, u(x2) = x1 x2,
    # u(x1 x2) = u(x1) x2 - x1 u(x2) = x2
    out["two-odd"] = (exterior_algebra(2, ["x1", "x2"]),
                      ones(4, (0, 1), (3, 1), (3, 2), (2, 3)))
    # basis: 1, x, xi, xi*x ; u(xi) = x, u(xi*x) = x^2 = 0
    out["vanishing"] = (tensor_algebra(exterior_algebra(1, ["xi"]),
                                       poly_quotient_algebra([0, 0, 1])), ones(4, (1, 2)))
    return out


def coinvariant_dual_pair(g, u: Sequence) -> tuple[SupercommAlgebra, Matrix]:
    """The exterior function algebra dual to the left coinvariant module,
    with the contragredient action of an odd element u as an odd derivation.

    The pairing of dual monomials against subset monomials carries the sign
    (-1)^{k(k-1)/2} on degree k (reversal of the evaluation order); with that
    convention the contragredient of every algebra element acts by a
    superderivation of the exterior multiplication.
    """
    from .enveloping import LEFT, CoinvariantElement, module_action
    g.odd_square(u)  # ValueError unless u is a purely odd vector of length dim
    odd = g.odd_indices
    k = len(odd)
    algebra = exterior_algebra(k, [f"th_{g.names[i]}" for i in odd])
    dual = Matrix.zeros(1 << k, 1 << k)
    for tmask in range(1 << k):
        u_x_t = module_action(g, u, CoinvariantElement(g, LEFT, {tmask: Q(1)}))
        t = bin(tmask).count("1")
        for smask, entry in u_x_t.coords.items():
            # <u.theta_S, x_T> = -(-1)^{|u||theta_S|} <theta_S, u.x_T>, u odd,
            # times the pairing signs of degree s = |S| and t = |T|
            s = bin(smask).count("1")
            dual.data[tmask][smask] += entry * (-1) ** (1 + s * (s + 1) // 2 + t * (t - 1) // 2)
    return algebra, dual
