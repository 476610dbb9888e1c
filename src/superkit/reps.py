"""Finite-dimensional super modules and the Duflo-Serganova functor.

A `SuperModule` over a Lie superalgebra g is a parity-graded space with one
action matrix per basis element of g, subject to the super-representation law

    rho([x, y]) = rho(x) rho(y) - (-1)^{|x||y|} rho(y) rho(x).

The action is stored once, as sparse integer rows over one common
denominator D, as `LieSuperalgebra` stores its brackets: rho(e_i)[r][c] =
A / D for each (c, A) in row r of e_i, sorted by c.  Every computation here
and the cone test of `core` read those rows; `action` is their Fraction view.

Semisimplicity of a module is decided by the characteristic-zero trace-form
criterion on the associative algebra generated by the action matrices: the
module is semisimple iff that algebra has zero trace radical.  The algebra is
spanned from the identity by left multiplication with a pruned generating set
(each action matrix not already in the span found so far), in exact integers;
the generators are kept as sparse rows, so a product costs nnz(s)·dim row
operations, and the trace form is filled on its upper triangle only.

`ds_functor` computes the homology V -> ker(u)/im(u) on the invariants of
h = [u,u]/2, which is defined whenever h is a semisimple element; u acts by a
square-zero operator there.  The functor kills modules induced from the even
part, vanishes on projectives, and is multiplicative on tensor products at the
level of graded dimensions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import gcd, lcm
from typing import Callable, Sequence

from .core import EVEN, ODD, LieSuperalgebra, SuperkitError, _dense
from .linalg import (
    Echelon,
    Matrix,
    Vec,
    fraction_vector,
    integer_vector,
    integer_vectors,
    inverse,
    kernel_of_rows,
    rational_eigenspaces,
    vec,
)

# sparse integer rows of one matrix: row r holds the (column, entry) pairs
Rows = list[Sequence[tuple[int, int]]]


class NotInG1ss(SuperkitError):
    """The supplied odd element does not have a semisimple square."""


class SuperModule:
    """A parity-graded module: rho(e_i)[r][c] = A / D for each (c, A) in
    `_table[i][r]`, and `action` lists the rho(e_i) as Fraction matrices."""

    def __init__(self, parity: Sequence[int], action: Sequence[Matrix],
                 name: str = "") -> None:
        self.parity = tuple(int(p) % 2 for p in parity)
        self.name = name
        for m in action:
            if m.rows != self.dim or m.cols != self.dim:
                raise ValueError("action matrices must be dim x dim")
        self._den = den = lcm(*{a.denominator for m in action for row in m.data for a in row})
        self._table: list[Rows] = [
            [[(c, a.numerator * (den // a.denominator)) for c, a in enumerate(row) if a]
             for row in m.data] for m in action]
        self._action: list[Matrix] | None = None

    @classmethod
    def _of_table(cls, parity: Sequence[int], table: list[Rows], den: int,
                  name: str = "") -> "SuperModule":
        """The module with the given integer table over D = den."""
        m = cls(parity, [], name)
        m._table, m._den = table, den
        return m

    @property
    def action(self) -> list[Matrix]:
        """rho(e_i) for each i, as Fraction matrices (built once, on first use)."""
        if self._action is None:
            n, den = self.dim, self._den
            self._action = [Matrix([fraction_vector(_dense(row, n), den) for row in rows])
                            for rows in self._table]
        return self._action

    @property
    def dim(self) -> int:
        return len(self.parity)

    @property
    def even_dim(self) -> int:
        return sum(1 for p in self.parity if p == EVEN)

    @property
    def odd_dim(self) -> int:
        return sum(1 for p in self.parity if p == ODD)

    def matrix_of(self, x: Sequence) -> Matrix:
        """sum_i x[i] rho(e_i), accumulated in integers and turned into
        Fractions once."""
        xs, lx = integer_vector(x)
        n, den = self.dim, lx * self._den
        return Matrix([fraction_vector(_dense(row, n), den) for row in self._combine(xs)])

    def _combine(self, xs: Sequence[int]) -> list[list[tuple[int, int]]]:
        """The sparse rows of sum_i xs[i] A_i, A_i = D rho(e_i), for integers
        xs: D times the matrix of the element xs."""
        n = self.dim
        acc = [[0] * n for _ in range(n)]
        for a, rows in zip(xs, self._table):
            if a:
                for out, row in zip(acc, rows):
                    for c, b in row:
                        out[c] += a * b
        return [[(c, v) for c, v in enumerate(out) if v] for out in acc]

    def _supercommutator(self, i: int, j: int, odd: bool) -> list[int]:
        """A_i A_j - A_j A_i, or A_i A_j + A_j A_i when both are odd, row-major
        (A_i = D rho(e_i))."""
        n, t = self.dim, self._table
        out = [0] * (n * n)
        for x, y, s in ((i, j, 1), (j, i, 1 if odd else -1)):
            for r, row in enumerate(t[x]):
                for c, a in row:
                    for c2, b in t[y][c]:
                        out[r * n + c2] += s * a * b
        return out

    def __repr__(self) -> str:
        return f"<SuperModule {self.even_dim}|{self.odd_dim}{' ' + self.name if self.name else ''}>"


@dataclass
class DSResult:
    """Graded homology of u on the h-invariants, with chosen representatives."""

    even_dim: int
    odd_dim: int
    homology_basis: list[Vec] = field(default_factory=list)

    @property
    def dims(self) -> tuple[int, int]:
        return (self.even_dim, self.odd_dim)


def trivial_module(g: LieSuperalgebra) -> SuperModule:
    return SuperModule._of_table((EVEN,), [[()] for _ in range(g.dim)], 1, "trivial")


def adjoint_module(g: LieSuperalgebra) -> SuperModule:
    """ad(e_i)[k][j] = c[i][j][k], read off g's integer table."""
    table = [_transpose(block, g.dim, [1] * g.dim) for block in g._table]
    return SuperModule._of_table(g.parity, table, g._den, "adjoint")


def validate_module(g: LieSuperalgebra, m: SuperModule) -> list[str]:
    """Every violated parity or representation-law instance; with A_k = D rho(e_k)
    and D_g [e_i, e_j] = sum_k C_k e_k, the law reads D_g [A_i, A_j] = D sum_k C_k A_k."""
    issues: list[str] = []
    n, table, par, gpar = m.dim, m._table, m.parity, g.parity
    for i in range(g.dim):
        for r, row in enumerate(table[i]):
            for c, _ in row:
                if par[r] != (par[c] + gpar[i]) % 2:
                    issues.append(f"parity: action of e{i} at entry ({r},{c})")
    for i in range(g.dim):
        for j in range(g.dim):
            rhs = m._supercommutator(i, j, gpar[i] and gpar[j])
            lhs = _flat(m._combine(_dense(g._table[i][j], g.dim)), n)
            if any(g._den * a != m._den * b for a, b in zip(rhs, lhs)):
                issues.append(f"representation law: fails on pair ({i},{j})")
    return issues


def direct_sum(m: SuperModule, n: SuperModule) -> SuperModule:
    den = lcm(m._den, n._den)
    sm, sn, dm = den // m._den, den // n._den, m.dim
    table = [[tuple((c, sm * x) for c, x in row) for row in a]
             + [tuple((dm + c, sn * y) for c, y in row) for row in b]
             for a, b in zip(m._table, n._table)]
    return SuperModule._of_table(m.parity + n.parity, table, den)


def tensor(m: SuperModule, n: SuperModule) -> SuperModule:
    """Tensor product with the sign rule
    rho(x)(a ox b) = rho(x)a ox b + (-1)^{|x||a|} a ox rho(x)b."""
    dm, dn = m.dim, n.dim
    den = lcm(m._den, n._den)
    sm, sn = den // m._den, den // n._den
    parity = tuple((m.parity[i] + n.parity[j]) % 2 for i in range(dm) for j in range(dn))
    table = []
    for a, b in zip(m._table, n._table):
        xpar = _parity_of(a, m.parity) if any(a) else _parity_of(b, n.parity)
        rows = []
        for r1 in range(dm):
            sign = -sn if xpar and m.parity[r1] else sn
            for r2 in range(dn):
                # row (r1, r2): rho(x)[r1][c1] at (c1, r2), sign rho(x)[r2][c2] at (r1, c2)
                acc = {c1 * dn + r2: sm * x for c1, x in a[r1]}
                for c2, y in b[r2]:
                    k = r1 * dn + c2
                    acc[k] = acc.get(k, 0) + sign * y
                rows.append(tuple(sorted((k, v) for k, v in acc.items() if v)))
        table.append(rows)
    return SuperModule._of_table(parity, table, den)


def dual(m: SuperModule) -> SuperModule:
    """Contragredient module: (x.phi)(v) = -(-1)^{|x||phi|} phi(x.v), so rho*(x)
    is rho(x) transposed with row j signed by -(-1)^{|x||j|} (phi_j has j's parity)."""
    table = []
    for a in m._table:
        xpar = _parity_of(a, m.parity)
        table.append(_transpose(a, m.dim, [1 if xpar and p else -1 for p in m.parity]))
    return SuperModule._of_table(m.parity, table, m._den)


def _transpose(rows: Rows, n: int, signs: Sequence[int]) -> Rows:
    """The rows of the transpose of these n rows, row j multiplied by signs[j]."""
    out: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for j, row in enumerate(rows):
        for k, x in row:
            out[k].append((j, signs[j] * x))
    return out


def _parity_of(rows: Rows, parity: Sequence[int]) -> int:
    """The parity of a matrix, read at its first nonzero entry; EVEN for zero."""
    for r, row in enumerate(rows):
        if row:
            return (parity[r] + parity[row[0][0]]) % 2
    return EVEN


def conjugate(m: SuperModule, p: Matrix) -> SuperModule:
    """Change of basis by a parity-preserving invertible matrix."""
    pinv = inverse(p)
    return SuperModule(parity=m.parity,
                       action=[p.mul(a).mul(pinv) for a in m.action])


def induced_trivial(g: LieSuperalgebra) -> SuperModule:
    """The module induced from the trivial even-part module: the quotient of
    the enveloping algebra by the left ideal generated by the even part,
    2^{dim g_1}-dimensional with subset basis.

    rho(e_i)[T][S] = N_T (2D)^{|T| - |S| - 1} for the integer columns N of
    `enveloping._column`; since |T| - |S| - 1 >= -(k + 1) for k = dim g_1,
    the rows are N_T (2D)^{k + |T| - |S|} over (2D)^{k + 1}, divided by the
    gcd of all entries and that denominator."""
    from .enveloping import LEFT, _column
    k = len(g.odd_indices)
    size = 1 << k
    base = 2 * g._den
    table = []
    for i in range(g.dim):
        rows: list[list[tuple[int, int]]] = [[] for _ in range(size)]
        for mask in range(size):
            for t, n in _column(g, LEFT, i, mask).items():
                rows[t].append((mask, n * base ** (k + t.bit_count() - mask.bit_count())))
        table.append(rows)
    den = base ** (k + 1)
    common = gcd(den, *(a for rows in table for row in rows for _, a in row))
    table = [[[(c, a // common) for c, a in row] for row in rows] for rows in table]
    parity = tuple(mask.bit_count() % 2 for mask in range(size))
    return SuperModule._of_table(parity, table, den // common, "induced-trivial")


def has_integral_weights(g: LieSuperalgebra, m: SuperModule,
                         cartan: Sequence[Sequence] | None = None) -> bool:
    """Integrability surrogate: every Cartan element acts diagonalizably with
    integer eigenvalues."""
    if cartan is None:
        if g.cartan is None:
            raise SuperkitError("no Cartan subalgebra available")
        cartan = [g.basis_vector(i) for i in g.cartan]
    for t in cartan:
        mat = m.matrix_of(t)
        eig = rational_eigenspaces(mat)
        if sum(len(b) for _, b in eig) != m.dim:
            return False
        if any(lam.denominator != 1 for lam, _ in eig):
            return False
    return True


# ---------------------------------------------------------------------------
# semisimplicity via the trace radical of the acting algebra
# ---------------------------------------------------------------------------

def is_semisimple_action(mats: Sequence[Matrix], dim: int) -> bool:
    """`is_module_semisimple` of the dim-dimensional module with these matrices."""
    return is_module_semisimple(None, SuperModule((EVEN,) * dim, mats))


def is_module_semisimple(g: LieSuperalgebra | None, m: SuperModule) -> bool:
    """True iff the associative algebra A generated by m's action matrices and
    the identity has zero trace radical {a : tr(ab) = 0 for all b}.

    A is spanned by closing span{I} under left multiplication by a pruned
    generating set S: a matrix that already lies in the current span is
    skipped, the others join S.  The final span contains I and every matrix
    and is closed under S, so it is A.  The matrices are m's integer rows
    (the scale D does not change A); products are row combinations through
    the sparse rows of S, and the verdict is the rank of the symmetric Gram
    matrix tr(ab) on a basis of A.
    """
    dim = m.dim
    if dim == 0:
        return True
    ech = Echelon()
    basis: list[list[int]] = []
    used: list[Rows] = []
    queue = [[int(r == c) for r in range(dim) for c in range(dim)]]

    def close() -> None:
        while queue:
            cand = queue.pop()
            if ech.add(cand):
                basis.append(cand)
                queue.extend(_left_mul(s, cand, dim) for s in used)

    close()
    for s in m._table:
        if ech.contains(_flat(s, dim)):
            continue
        used.append(s)
        queue.extend(_left_mul(s, b, dim) for b in basis)
        close()
    n = len(basis)
    support = [[(k, x) for k, x in enumerate(a) if x] for a in basis]
    # tr(ab) = sum_k flat(a)[k] * flat(b^T)[k]
    transposed = [[b[c * dim + r] for r in range(dim) for c in range(dim)] for b in basis]
    gram = [[0] * n for _ in range(n)]
    for p in range(n):
        sup = support[p]
        row = gram[p]
        for q in range(p, n):
            bt = transposed[q]
            row[q] = gram[q][p] = sum(x * bt[k] for k, x in sup)
    ech = Echelon()
    return all(ech.add(row) for row in gram)


def _flat(rows: Rows, dim: int) -> list[int]:
    """The row-major integer vector of the dim x dim matrix with these rows."""
    return [x for row in rows for x in _dense(row, dim)]


def _left_mul(s: Rows, b: list[int], dim: int) -> list[int]:
    """Row-major s.b for s given by its sparse rows and b row-major: row r of
    the product is the combination of the rows of b that row r of s names."""
    out: list[int] = []
    for entries in s:
        acc = [0] * dim
        for k, x in entries:
            off = k * dim
            acc = [a + x * y for a, y in zip(acc, b[off:off + dim])]
        out.extend(acc)
    return out


# ---------------------------------------------------------------------------
# Duflo-Serganova functor
# ---------------------------------------------------------------------------

def ds_functor(g: LieSuperalgebra, u: Sequence, m: SuperModule) -> DSResult:
    """Homology ker(u)/im(u) on the invariants of h = [u,u]/2.

    Requires u to lie in the semisimple-square cone; u then acts by a
    square-zero operator on ker(rho(h)) and the homology is parity-graded.
    """
    u = vec(u)
    if not g.in_g1ss(u):
        raise NotInG1ss("the odd element does not have semisimple square")
    return _ds_homology(u, g.odd_square(u), m)


def _ds_homology(u: Vec, h: Vec, m: SuperModule) -> DSResult:
    """`ds_functor` for u in the cone with square h.  rho(h) and rho(u) enter
    as integer multiples; kernels, images and spans do not see the scale."""
    hrows = [dict(row) for row in m._combine(integer_vector(h)[0])]
    urows = m._combine(integer_vector(u)[0])

    def act(vs: list[list[int]]) -> list[list[int]]:
        return [[sum(a * v[c] for c, a in row) for row in urows] for v in vs]

    # the kernel of h on each graded piece, as full vectors
    ker: dict[int, list[Vec]] = {}
    for p in (EVEN, ODD):
        idx = [i for i, q in enumerate(m.parity) if q == p]
        small = kernel_of_rows([[row.get(c, 0) for c in idx] for row in hrows], len(idx))
        ker[p] = [fraction_vector(_dense(zip(idx, v), m.dim), 1) for v in small]
    # u must square to zero on the h-invariants
    if any(map(any, act(act(integer_vectors(ker[EVEN] + ker[ODD])[0])))):
        raise SuperkitError("u does not square to zero on the h-invariants")
    de, be = _homology_at(act, ker[EVEN], ker[ODD])
    do, bo = _homology_at(act, ker[ODD], ker[EVEN])
    return DSResult(even_dim=de, odd_dim=do, homology_basis=be + bo)


def _homology_at(act: Callable, source: list[Vec], target: list[Vec]) -> tuple[int, list[Vec]]:
    """dim and representatives of ker(u|source) / im(u|target); `act` applies
    u, up to one common scale, to a list of integer vectors."""
    if not source:
        return 0, []
    smat = Matrix.from_columns(source)
    # u maps source into the span of target (parity flip); kernel of u on source:
    images = act(integer_vectors(source)[0])
    kern = [smat.matvec(c) for c in kernel_of_rows(zip(*images), len(source))]
    span = Echelon()
    for w in act(integer_vectors(target)[0]):
        span.add(w)
    reps = [v for v in kern if span.add(v)]
    return len(reps), reps


def ds_tensor_check(g: LieSuperalgebra, u: Sequence, m: SuperModule,
                    n: SuperModule) -> dict:
    """Tensor multiplicativity of DS graded dimensions, with parity
    convolution.  The cone test runs once, in the first `ds_functor`."""
    u = vec(u)
    dm = ds_functor(g, u, m).dims
    h = g.odd_square(u)
    dn = _ds_homology(u, h, n).dims
    dmn = _ds_homology(u, h, tensor(m, n)).dims
    expected = (dm[0] * dn[0] + dm[1] * dn[1], dm[0] * dn[1] + dm[1] * dn[0])
    return {
        "ds_m": dm,
        "ds_n": dn,
        "ds_tensor": dmn,
        "expected": expected,
        "ok": dmn == expected,
    }
