"""Finite-dimensional super modules and the Duflo-Serganova functor.

A `SuperModule` over a Lie superalgebra g is a parity-graded space with one
action matrix per basis element of g, subject to the super-representation law

    rho([x, y]) = rho(x) rho(y) - (-1)^{|x||y|} rho(y) rho(x).

The action is stored once, as sparse integer rows over one common
denominator D, as `LieSuperalgebra` stores its brackets: rho(e_i)[r][c] =
A / D for each (c, A) in row r of e_i, sorted by c.  Every computation and
construction here (`direct_sum`, `tensor`, `dual`, `induced_trivial`, and
the change of basis `conjugate`, which also checks that it keeps parity)
and the cone test of `core` read or build those rows; `action` is their
Fraction view.
`validate_module` transposes them for `core._law_failures`, which also
checks super Jacobi, as the law of the adjoint module, and the
associativity of a `supercomm` product, on its left-regular columns.

Semisimplicity of a module is decided by the characteristic-zero trace-form
criterion on the associative algebra A generated by the action matrices: the
module is semisimple iff A has zero trace radical.  A is graded before it is
closed: each basis vector gets a label (its parity, and the diagonal entry of
each diagonal generator) and the label coordinates in which every generator
is homogeneous grade A.  A is spanned from the identity by left
multiplication with a pruned generating set (each action matrix not already
in the span found so far), one degree at a time, on sparse integer matrices;
the trace form pairs the piece of degree d only with that of degree -d, so
the Gram test is one block per pair.

`ds_functor` computes the homology V -> ker(u)/im(u) on the invariants of
h = [u,u]/2, which is defined whenever h is a semisimple element; u acts by a
square-zero operator there.  The functor kills modules induced from the even
part, vanishes on projectives, and is multiplicative on tensor products at the
level of graded dimensions.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from math import gcd, lcm
from typing import Sequence

from .core import (EVEN, ODD, LieSuperalgebra, SparseVec, SuperkitError, _asymmetric_pairs,
                   _grading_failures, _require_length, _super_law_failures)
from .linalg import (
    Echelon,
    Matrix,
    Vec,
    _combine,
    _inverse_rows,
    _kernel,
    _kernel_of_columns,
    _sparse_integer_rows,
    _split,
    fraction_vector,
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
            self._action = [Matrix([fraction_vector(row, n, den) for row in rows])
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
        _require_length(len(self._table), x)
        (xs,), lx = _sparse_integer_rows((x,))
        n, den = self.dim, lx * self._den
        return Matrix([fraction_vector(row, n, den) for row in self._combine(xs)])

    def _combine(self, xs: SparseVec) -> list[list[tuple[int, int]]]:
        """The sparse rows of sum_i xs[i] A_i, A_i = D rho(e_i), for the
        integer vector xs (its (i, xs[i]) pairs, or a dict {i: xs[i]}): D
        times the matrix of the element xs."""
        acc: list[dict[int, int]] = [{} for _ in range(self.dim)]
        for i, a in (xs.items() if isinstance(xs, dict) else xs):
            if a:
                for out, row in zip(acc, self._table[i]):
                    for c, b in row:
                        out[c] = out.get(c, 0) + a * b
        return [sorted((c, v) for c, v in out.items() if v) if out else [] for out in acc]

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


def _count_mismatch(g: LieSuperalgebra, m: SuperModule) -> str | None:
    """Why m cannot be a module over g: its action count is not dim g."""
    if len(m._table) != g.dim:
        return f"the module has {len(m._table)} action matrices, but g has dimension {g.dim}"
    return None


def _require_modules_of(g: LieSuperalgebra, *ms: SuperModule) -> None:
    """Refuse a module whose action count is not dim g (`_count_mismatch`)."""
    for m in ms:
        issue = _count_mismatch(g, m)
        if issue:
            raise ValueError(issue)


def _require_same_count(m: SuperModule, n: SuperModule) -> None:
    """Refuse two modules with different action counts: they are modules
    over different algebras."""
    if len(m._table) != len(n._table):
        raise ValueError(f"the modules have {len(m._table)} and {len(n._table)} "
                         "action matrices")


def trivial_module(g: LieSuperalgebra) -> SuperModule:
    return SuperModule._of_table((EVEN,), [[()] for _ in range(g.dim)], 1, "trivial")


def adjoint_module(g: LieSuperalgebra) -> SuperModule:
    """ad(e_i)[k][j] = c[i][j][k], read off g's integer table."""
    table = [_transpose(block, g.dim, [1] * g.dim) for block in g._table]
    return SuperModule._of_table(g.parity, table, g._den, "adjoint")


def validate_module(g: LieSuperalgebra, m: SuperModule) -> list[str]:
    """Every violated parity or representation-law instance; with A_k = D rho(e_k)
    and D_g [e_i, e_j] = sum_k C_k e_k, the law reads D_g [A_i, A_j] = D sum_k C_k A_k.

    Parity is checked by `core._grading_failures` on the action table, the
    law by `core._super_law_failures` on its transposed columns; a pair
    fails when any of its columns does.  A module with another action
    count than dim g has that as its only issue."""
    mismatch = _count_mismatch(g, m)
    if mismatch:
        return [mismatch]
    issues = [f"parity: action of e{i} at entry ({r},{c})"
              for i, r, c, _ in _grading_failures(m._table, g.parity, m.parity)]
    cols = [_transpose(rows, m.dim, [1] * m.dim) for rows in m._table]
    failing = _super_law_failures(g, cols, m._den, not _asymmetric_pairs(g, -1))
    issues += [f"representation law: fails on pair ({i},{j})"
               for i, j in dict.fromkeys((i, j) for i, j, _ in failing)]
    return issues


def direct_sum(m: SuperModule, n: SuperModule) -> SuperModule:
    _require_same_count(m, n)
    den = lcm(m._den, n._den)
    sm, sn, dm = den // m._den, den // n._den, m.dim
    table = [[tuple((c, sm * x) for c, x in row) for row in a]
             + [tuple((dm + c, sn * y) for c, y in row) for row in b]
             for a, b in zip(m._table, n._table)]
    return SuperModule._of_table(m.parity + n.parity, table, den)


def tensor(m: SuperModule, n: SuperModule) -> SuperModule:
    """Tensor product with the sign rule
    rho(x)(a ox b) = rho(x)a ox b + (-1)^{|x||a|} a ox rho(x)b."""
    _require_same_count(m, n)
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
    """The module with rho'(x) = P rho(x) P^-1, for an invertible dim x dim
    P that preserves parity: P[r][c] = 0 whenever r and c differ in parity
    (a ValueError otherwise).

    Works on m's integer rows A_i = D rho(e_i): with P = R / L and
    P^-1 = S / L' over the integers, rho'(e_i) = R A_i S / (L D L'), and
    row r of R A_i S is sum_c (sum_k R[r][k] A_i[k])[c] S[c].  The table is
    divided by the gcd of its entries and L D L', which gives the rows the
    Fraction matrices would.  S and L' come from one `Echelon` of R's rows
    (`linalg._inverse_rows`)."""
    if p.cols != p.rows:
        raise ValueError("only a square matrix has an inverse")
    prows, pden = _sparse_integer_rows(p.data)
    qrows, qden = _inverse_rows(prows, pden)
    if p.rows != m.dim:
        raise ValueError("the change of basis must be dim x dim")
    par = m.parity
    if any(par[r] != par[c] for r, row in enumerate(prows) for c, _ in row):
        raise ValueError("the change of basis must preserve parity")
    table = [[sorted(_combine(_combine(prow, rows).items(), qrows).items()) for prow in prows]
             for rows in m._table]
    den = pden * m._den * qden
    common = gcd(den, *(a for rows in table for row in rows for _, a in row))
    table = [[[(c, a // common) for c, a in row] for row in rows] for rows in table]
    return SuperModule._of_table(par, table, den // common)


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
    integer eigenvalues.  The Cartan subalgebra defaults to `roots.cartan_of`:
    the given one, else the one the Cartan search finds."""
    _require_modules_of(g, m)
    if cartan is None:
        from .roots import cartan_of
        cartan = cartan_of(g)
    _require_length(g.dim, *cartan)
    ts, lt = _sparse_integer_rows(cartan)
    spectra = (_split(m._combine(t), lt * m._den) for t in ts)
    return all(lams is not None and all(lam.denominator == 1 for lam in lams)
               for lams in spectra)


# ---------------------------------------------------------------------------
# semisimplicity via the trace radical of the acting algebra
# ---------------------------------------------------------------------------

def is_semisimple_action(mats: Sequence[Matrix], dim: int) -> bool:
    """`is_module_semisimple` of the dim-dimensional module with these matrices."""
    return is_module_semisimple(None, SuperModule((EVEN,) * dim, mats))


def is_module_semisimple(g: LieSuperalgebra | None, m: SuperModule) -> bool:
    """True iff the associative algebra A generated by m's action matrices and
    the identity has zero trace radical {a : tr(ab) = 0 for all b}.

    Under the grading of `_grading` every generator is homogeneous, and a
    product of matrices of degrees d and e has degree d + e, so A is the sum
    of its pieces A_d = A ∩ M_d, M_d the matrices supported on the positions
    of degree d (`_acting_algebra` closes A piece by piece).
    The trace form pairs A_d only with A_-d: when d + e != 0, ab has degree
    d + e and so a zero diagonal (every diagonal position has degree 0), and
    tr(ab) = 0.  With the basis ordered by pieces, the Gram matrix of tr(ab)
    is the direct sum, over the pairs {d, -d}, of [[0, G], [G^T, 0]] with
    G = tr(A_d A_-d) when d != -d, and of the symmetric block tr(A_d A_d) when
    d = -d.  [[0, G], [G^T, 0]] is nonsingular iff G is square and
    nonsingular (a p x q block G has rank at most min(p, q), so the whole has
    rank at most 2 min(p, q) < p + q when p != q).  So the trace form is
    nondegenerate iff dim A_d = dim A_-d for every d and each pair's block is
    nonsingular; a piece whose opposite is smaller, or empty, puts a nonzero
    element of A in the radical.
    """
    if g is not None:
        _require_modules_of(g, m)
    if m.dim == 0:
        return True
    pieces, moduli = _acting_algebra(m)
    tested = set()
    for d, part in pieces.items():
        e = tuple((-x) % q if q else -x for x, q in zip(d, moduli))
        if e in tested:
            continue
        tested.add(d)
        other = pieces.get(e, [])
        n, symmetric = len(part), d == e
        if len(other) != n:
            return False
        gram = [[0] * n for _ in range(n)]
        for p, a in enumerate(part):
            entries = [(r, c, x) for r, row in a.items() for c, x in row.items()]
            for q in range(p if symmetric else 0, n):
                b = other[q]
                gram[p][q] = sum(x * b[c].get(r, 0) for r, c, x in entries if c in b)
                if symmetric:
                    gram[q][p] = gram[p][q]
        ech = Echelon()
        if not all(ech.add(row) for row in gram):
            return False
    return True


# a sparse integer matrix: {row: {column: entry}} over its nonzero rows
Sparse = dict[int, dict[int, int]]
# a degree of `_grading`: one difference of labels per kept coordinate
Degree = tuple[int, ...]


def _grading(m: SuperModule) -> tuple[list[tuple[int, ...]], tuple[int, ...]]:
    """A label L(r) for each basis vector r of m, and the modulus of each
    label coordinate (2 or 0 for the integers), such that each generator is
    homogeneous: L(r) - L(c) is one degree on all its nonzero entries (r, c).
    The degree of a position (r, c) is L(r) - L(c), coordinatewise modulo q.

    The candidate coordinates are the parity, taken modulo 2, and the
    diagonal of each generator that is diagonal.  A coordinate is kept when
    every generator is homogeneous in it; a vector of differences is constant
    iff each coordinate is, so the kept coordinates together grade every
    generator.  Constant coordinates grade nothing and are dropped, so no
    coordinate may be kept (the trivial grading, A in one piece)."""
    table = m._table
    candidates = [(m.parity, 2)] + [
        (tuple(row[0][1] if row else 0 for row in rows), 0)
        for rows in table if all(c == r for r, row in enumerate(rows) for c, _ in row)]
    kept = [(label, q) for label, q in dict.fromkeys(candidates)
            if len(set(label)) > 1 and all(_homogeneous(rows, label, q) for rows in table)]
    labels = list(zip(*(label for label, _ in kept))) or [()] * m.dim
    return labels, tuple(q for _, q in kept)


def _homogeneous(rows: Rows, label: Sequence[int], q: int) -> bool:
    """Whether label[r] - label[c] (modulo q, if q) is one value over the
    nonzero entries (r, c) of the matrix with these rows."""
    degrees = {label[r] - label[c] for r, row in enumerate(rows) for c, _ in row}
    return len({x % q for x in degrees} if q else degrees) <= 1


def _acting_algebra(m: SuperModule) -> tuple[dict[Degree, list[Sparse]], tuple[int, ...]]:
    """A basis of the algebra A generated by m's action matrices and the
    identity, split by the degrees of `_grading`: degree -> the basis
    elements of that degree as sparse integer matrices (m's integer rows;
    the scale D does not change A), and the moduli of the degree coordinates.

    A is spanned by closing span{I} under left multiplication by a pruned
    generating set S: a generator already in the span is skipped, the others
    join S.  The final span contains I and every generator and is closed
    under S, so it is A.  Every product is homogeneous, and the span found so
    far is spanned by homogeneous elements, so a product lies in it iff it
    lies in the span of its own piece: each degree keeps its own `Echelon`
    over the positions of that degree.  The basis found is the one the
    ungraded closure finds with the same last-in-first-out queue; with no
    grading coordinate it is that closure.  The product of pieces of degrees
    d and e has degree d + e, summed once per pair of degrees (by their ids),
    so no product's degree is read off its entries; when no position has
    degree d + e, the product is zero and is skipped before it is formed.
    """
    labels, moduli = _grading(m)
    n = m.dim

    def difference(a: Sequence[int], b: Sequence[int]) -> Degree:
        return tuple((x - y) % q if q else x - y for x, y, q in zip(a, b, moduli))

    distinct = set(labels)
    placed = {difference(a, b) for a in distinct for b in distinct}
    # the degrees met, by id, and sums[i][j] = the id of degrees[i] +
    # degrees[j], or -1 when no position has that degree
    degrees: list[Degree] = []
    ids: dict[Degree, int] = {}
    sums: list[dict[int, int]] = []

    def id_of(d: Degree) -> int:
        if d not in ids:
            ids[d] = len(degrees)
            degrees.append(d)
            sums.append({})
        return ids[d]

    def total(i: int, j: int) -> int:
        row = sums[i]
        if j not in row:
            d = tuple((x + y) % q if q else x + y for x, y, q in zip(degrees[i], degrees[j], moduli))
            row[j] = id_of(d) if d in placed else -1
        return row[j]

    def vector(x: Sparse) -> dict[int, int]:
        """x's entries as a row {r n + c: entry}."""
        return {r * n + c: a for r, row in x.items() for c, a in row.items()}

    spans: defaultdict[int, Echelon] = defaultdict(Echelon)
    basis: list[tuple[Sparse, int]] = []  # with the ids of their degrees

    def add(x: Sparse, d: int) -> bool:
        """Whether x, nonzero and of the degree with id d, joins the basis."""
        if not spans[d].add(vector(x)):
            return False
        basis.append((x, d))
        return True

    add({r: {r: 1} for r in range(n)}, id_of((0,) * len(moduli)))
    used: list[tuple[Sparse, int]] = []
    for rows in m._table:
        s = {r: dict(row) for r, row in enumerate(rows) if row}
        if not s:
            continue
        r, c = next((r, c) for r, row in s.items() for c in row)
        d = id_of(difference(labels[r], labels[c]))
        if d in spans and spans[d].contains(vector(s)):
            continue
        used.append((s, d))
        queue = [(s, d, b, e) for b, e in basis]
        while queue:
            t, dt, b, db = queue.pop()
            d = total(dt, db)
            if d < 0:
                continue
            x = _left_mul(t, b)
            if x and add(x, d):
                queue.extend((u, du, x, d) for u, du in used)
    pieces: defaultdict[Degree, list[Sparse]] = defaultdict(list)
    for x, d in basis:
        pieces[degrees[d]].append(x)
    return dict(pieces), moduli


def _left_mul(s: Sparse, b: Sparse) -> Sparse:
    """s.b: row r of the product is the combination of the rows of b that
    row r of s names."""
    out: Sparse = {}
    for r, entries in s.items():
        if len(entries) == 1:  # the common monomial row: no sums, no cancellation
            (k, x), = entries.items()
            if k in b:
                out[r] = {c: x * y for c, y in b[k].items()}
            continue
        acc: dict[int, int] = {}
        for k, x in entries.items():
            for c, y in b.get(k, {}).items():
                acc[c] = acc.get(c, 0) + x * y
        acc = {c: v for c, v in acc.items() if v}
        if acc:
            out[r] = acc
    return out


# ---------------------------------------------------------------------------
# Duflo-Serganova functor
# ---------------------------------------------------------------------------

def ds_functor(g: LieSuperalgebra, u: Sequence, m: SuperModule) -> DSResult:
    """Homology ker(u)/im(u) on the invariants of h = [u,u]/2.

    Requires u to lie in the semisimple-square cone; u then acts by a
    square-zero operator on ker(rho(h)) and the homology is parity-graded.
    """
    _require_modules_of(g, m)
    return _ds_homology(*_cone_square(g, u), m)


def _cone_square(g: LieSuperalgebra, u: Sequence) -> tuple[list[tuple[int, int]], dict[int, int]]:
    """(U, S) for u in the cone (`NotInG1ss` otherwise): U an integer
    multiple of u and S a positive multiple of h = [u,u]/2, from
    `LieSuperalgebra._odd_square_rows`, formed once and tested by
    `LieSuperalgebra._in_cone`, as `in_g1ss` tests it."""
    us, sq, _ = g._odd_square_rows(vec(u))
    if not g._in_cone(us, sq):
        raise NotInG1ss("the odd element does not have semisimple square")
    return us, sq


def _ds_homology(us: list[tuple[int, int]], hs: dict[int, int], m: SuperModule) -> DSResult:
    """`ds_functor` for u in the cone, given by integer multiples U of u and
    H of its square h (`_cone_square`): rho(h) and rho(u) enter as integer
    multiples, and kernels, images and spans do not see the scale.  Vectors
    stay sparse integers, each set over one denominator, and only the
    representatives become Fractions."""
    hrows = [dict(row) for row in m._combine(hs)]
    # u applied by columns: u v = _combine(v, ucols), column c of rho(u) its
    # nonzero (r, entry), up to scale
    ucols = _transpose(m._combine(us), m.dim, [1] * m.dim)
    # the kernel of h on each graded piece, as full vectors over one denominator
    ker: dict[int, tuple[list[list[tuple[int, int]]], int]] = {}
    for p in (EVEN, ODD):
        idx = [i for i, q in enumerate(m.parity) if q == p]
        small, den = _kernel(
            [{t: row[c] for t, c in enumerate(idx) if c in row} for row in hrows], len(idx))
        ker[p] = [[(idx[t], x) for t, x in v.items()] for v in small], den
    # u must square to zero on the h-invariants
    if any(_combine(_combine(v, ucols).items(), ucols) for v in ker[EVEN][0] + ker[ODD][0]):
        raise SuperkitError("u does not square to zero on the h-invariants")
    de, be = _homology_at(ucols, ker[EVEN], ker[ODD][0], m.dim)
    do, bo = _homology_at(ucols, ker[ODD], ker[EVEN][0], m.dim)
    return DSResult(even_dim=de, odd_dim=do, homology_basis=be + bo)


def _homology_at(ucols: Rows, source: tuple[list[list[tuple[int, int]]], int],
                 target: list[list[tuple[int, int]]], n: int) -> tuple[int, list[Vec]]:
    """dim and representatives of ker(u|source) / im(u|target), for u with
    the columns `ucols`, up to scale, and sparse integer vectors given as
    their (index, entry) pairs: source is (Vs, L), the vectors V / L, and
    target's vectors matter only up to scale."""
    vs, den = source
    if not vs:
        return 0, []
    # u maps source into the span of target (parity flip); kernel of u on
    # source, as coordinates in the V_t:
    images = (_combine(v, ucols) for v in vs)
    coords, lc = _kernel_of_columns(images, len(vs))
    span = Echelon()
    for w in target:
        span.add(_combine(w, ucols))
    kern = (_combine(c.items(), vs) for c in coords)
    reps = [fraction_vector(v.items(), n, lc * den) for v in kern if span.add(v)]
    return len(reps), reps


def ds_tensor_check(g: LieSuperalgebra, u: Sequence, m: SuperModule,
                    n: SuperModule) -> dict:
    """Tensor multiplicativity of DS graded dimensions, with parity
    convolution.  The cone test runs once, in `_cone_square`."""
    _require_modules_of(g, m, n)
    us, sq = _cone_square(g, u)
    dm = _ds_homology(us, sq, m).dims
    dn = _ds_homology(us, sq, n).dims
    dmn = _ds_homology(us, sq, tensor(m, n)).dims
    expected = (dm[0] * dn[0] + dm[1] * dn[1], dm[0] * dn[1] + dm[1] * dn[0])
    return {
        "ds_m": dm,
        "ds_n": dn,
        "ds_tensor": dmn,
        "expected": expected,
        "ok": dmn == expected,
    }
