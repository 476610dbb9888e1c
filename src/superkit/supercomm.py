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
"""

from __future__ import annotations

from typing import Sequence

from .core import EVEN, SuperkitError, Table, _Basis, _product, _structure_table
from .linalg import (
    Matrix,
    Q,
    Vec,
    fraction_vector,
    in_span,
    _combine,
    _sparse_integer_rows,
    _split,
    is_zero_vec,
    solve_linear,
    vec,
    vec_add,
    vec_scale,
    zero_vec,
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

    def power_zero_index(self, x: Sequence) -> int | None:
        """Least k with x^k = 0, or None if x is not nilpotent within dim steps."""
        acc = vec(x)
        for k in range(1, self.dim + 2):
            if is_zero_vec(acc):
                return k
            acc = self.multiply(acc, x)
        return None


def validate_algebra(a: SupercommAlgebra) -> list[str]:
    """Violations of grading, supercommutativity, associativity, or the unit law."""
    issues: list[str] = []
    n, p, t = a.dim, a.parity, a._table
    for i in range(n):
        for j in range(n):
            for k, _ in t[i][j]:
                if p[k] != (p[i] + p[j]) % 2:
                    issues.append(f"grading: e{i}*e{j} has component at e{k}")
    for i in range(n):
        for j in range(i, n):
            sign = -1 if p[i] and p[j] else 1
            if t[i][j] != tuple((k, sign * c) for k, c in t[j][i]):
                issues.append(f"supercommutativity: fails on pair ({i},{j})")
    # (e_i e_j) e_k = e_i (e_j e_k), both sides scaled by D^2
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if _product(t, t[i][j], ((k, 1),)) != _product(t, ((i, 1),), t[j][k]):
                    issues.append(f"associativity: fails at triple ({i},{j},{k})")
    (us,), ud = _sparse_integer_rows((a.unit,))
    for i in range(n):
        # 1 e_i = e_i 1 = e_i, scaled by L D for unit = U / L
        e = {i: ud * a._den}
        if _product(t, us, ((i, 1),)) != e or _product(t, ((i, 1),), us) != e:
            issues.append(f"unit law: fails on e{i}")
    return issues


def _require_square(a: SupercommAlgebra, u: Matrix) -> None:
    """ValueError unless the derivation u is a dim x dim matrix."""
    if u.rows != a.dim or u.cols != a.dim:
        raise ValueError(f"the derivation must be a {a.dim}x{a.dim} matrix")


def validate_derivation(a: SupercommAlgebra, u: Matrix) -> list[str]:
    """Violations of parity reversal or the super-Leibniz rule
    u(xy) = u(x) y + (-1)^{|x|} x u(y)."""
    issues: list[str] = []
    _require_square(a, u)
    n, p, t = a.dim, a.parity, a._table
    # the columns of u = U / L as integer vectors; both sides scaled by L D
    cols, _ = _sparse_integer_rows(u.column(c) for c in range(n))
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
    _require_square(a, u)
    products = [a.multiply(a.basis_vector(k), u.column(j))
                for k in range(a.dim) for j in range(a.dim)]
    return in_span(products, a.unit) is not None


def splitting_witness(a: SupercommAlgebra, u: Matrix) -> Vec:
    """An odd f with u(f) = 1 exactly.

    Raises Vanishing if the image ideal is proper, NonSemisimpleSquare if
    h = u^2 fails to act semisimply with rational spectrum.
    """
    _require_square(a, u)
    pairs = [(gi, xi) for gi in a.even_indices for xi in a.odd_indices]
    cols = [a.multiply(a.basis_vector(gi), u.column(xi)) for gi, xi in pairs]
    # the span of A u(A) is graded and the unit is even, so the unit lies in
    # it iff it lies in the span of the even products g u(x) and x u(g), g
    # even, x odd.  x u(g) = u(x) g - u(x g), and u(x) g = g u(x) and
    # u(x g) = 1 u(x g) are of the first kind, so on a valid table this one
    # solve decides `is_nonvanishing`
    sol = solve_linear(Matrix.from_columns(cols), a.unit) if cols else None
    if sol is None:
        raise Vanishing("the image of the derivation generates a proper ideal")
    h = u.mul(u)
    lams = _split(*_sparse_integer_rows(h.data))
    if lams is None:
        raise NonSemisimpleSquare("u^2 does not act semisimply with rational spectrum")
    p = zero_vec(a.dim)
    for c, (gi, xi) in zip(sol, pairs):
        if c:
            p = vec_add(p, vec_scale(c, a.multiply(a.basis_vector(gi), a.basis_vector(xi))))
    eta = vec_add(u.matvec(p), vec_scale(Q(-1), a.unit))
    if a.power_zero_index(eta) is None:
        raise SuperkitError("intermediate element failed the nilpotence check")
    # the component p0 of p in ker h, by the spectral projector
    # prod_{lam != 0} (h - lam) / (-lam) of the split h
    p0 = p
    for lam in filter(None, lams):
        p0 = vec_scale(-1 / lam, vec_add(h.matvec(p0), vec_scale(-lam, p0)))
    eta0 = vec_add(u.matvec(p0), vec_scale(Q(-1), a.unit))
    inv = _invert_one_plus_nilpotent(a, eta0)
    f = a.multiply(p0, inv)
    if u.matvec(f) != a.unit:
        raise SuperkitError("witness construction failed the final check")
    if any(Q(c) != 0 and a.parity[i] == EVEN for i, c in enumerate(f)):
        raise SuperkitError("witness is not purely odd")
    return f


def _invert_one_plus_nilpotent(a: SupercommAlgebra, eta: Vec) -> Vec:
    """(1 + eta)^{-1} = sum (-eta)^k, finite since eta is nilpotent."""
    inv = vec(a.unit)
    term = vec(a.unit)
    for _ in range(a.dim + 1):
        term = vec_scale(Q(-1), a.multiply(term, eta))
        if is_zero_vec(term):
            return inv
        inv = vec_add(inv, term)
    raise SuperkitError("element 1 + eta was not unipotent")


def verify_no_splitting(a: SupercommAlgebra, u: Matrix) -> bool:
    """True when the unit lies in the image of u, so the trivial line has no
    u-stable complement; a functional phi with phi(1) = 1 and phi after u = 0
    would contradict u(f) = 1."""
    _require_square(a, u)
    return in_span([u.column(j) for j in range(a.dim)], a.unit) is not None


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
    basis_names = []
    for mask in range(dim):
        letters = [gen_names[t] for t in range(k) if mask >> t & 1]
        basis_names.append("*".join(letters) if letters else "1")
    parity = tuple(bin(mask).count("1") % 2 for mask in range(dim))
    table = [[() if s & t else ((s | t, _interleave_sign(s, t)),) for t in range(dim)]
             for s in range(dim)]
    unit = zero_vec(dim)
    unit[0] = Q(1)
    return SupercommAlgebra._of_table(parity, table, 1, unit, basis_names)


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
    powers: list[Vec] = []
    for k in range(2 * d):
        if k < d:
            v = zero_vec(d)
            v[k] = Q(1)
        else:
            prev = powers[k - 1]
            v = zero_vec(d)
            for t in range(d - 1):
                v[t + 1] = prev[t]
            if prev[d - 1]:
                v = vec_add(v, vec_scale(prev[d - 1], red))
        powers.append(v)
    table, den = _structure_table(d, ((i, j, k, q) for i in range(d) for j in range(d)
                                      for k, q in enumerate(powers[i + j]) if q))
    unit = zero_vec(d)
    unit[0] = Q(1)
    names = tuple("1" if k == 0 else (var if k == 1 else f"{var}^{k}") for k in range(d))
    return SupercommAlgebra._of_table((EVEN,) * d, table, den, unit, names)


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
    out: dict[str, tuple[SupercommAlgebra, Matrix]] = {}

    lam = exterior_algebra(1, ["xi"])
    d = Matrix.zeros(2, 2)
    d.data[0][1] = Q(1)  # xi -> 1
    out["exterior1"] = (lam, d)

    circle = tensor_algebra(poly_quotient_algebra([-1, 0, 1]), exterior_algebra(1, ["xi"]))
    # basis: 1, xi, x, x*xi ; u = x d/dxi: xi -> x, x*xi -> x^2 = 1
    d = Matrix.zeros(4, 4)
    d.data[2][1] = Q(1)
    d.data[0][3] = Q(1)
    out["torus-exterior"] = (circle, d)

    two = exterior_algebra(2, ["x1", "x2"])
    # basis: 1, x1, x2, x1*x2 ; u(x1) = 1 + x1 x2, u(x2) = x1 x2,
    # u(x1 x2) = u(x1) x2 - x1 u(x2) = x2
    d = Matrix.zeros(4, 4)
    d.data[0][1] = Q(1)
    d.data[3][1] = Q(1)
    d.data[3][2] = Q(1)
    d.data[2][3] = Q(1)
    out["two-odd"] = (two, d)

    dual_numbers = tensor_algebra(exterior_algebra(1, ["xi"]),
                                  poly_quotient_algebra([0, 0, 1]))
    # basis: 1, x, xi, xi*x ; u(xi) = x, u(xi*x) = x^2 = 0
    d = Matrix.zeros(4, 4)
    d.data[1][2] = Q(1)
    out["vanishing"] = (dual_numbers, d)
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
        for smask, entry in u_x_t.coords.items():
            # <u.theta_S, x_T> = -(-1)^{|u||theta_S|} <theta_S, u.x_T>, u odd
            spar = bin(smask).count("1") % 2
            sign = Q(-1) if spar else Q(1)
            sig_s = Q(-1) ** (bin(smask).count("1") * (bin(smask).count("1") - 1) // 2)
            sig_t = Q(-1) ** (bin(tmask).count("1") * (bin(tmask).count("1") - 1) // 2)
            dual.data[tmask][smask] += -sign * entry * sig_s / sig_t
    return algebra, dual
