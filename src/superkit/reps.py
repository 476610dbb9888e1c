"""Finite-dimensional super modules and the Duflo-Serganova functor.

A `SuperModule` over a Lie superalgebra g is a parity-graded space with one
action matrix per basis element of g, subject to the super-representation law

    rho([x, y]) = rho(x) rho(y) - (-1)^{|x||y|} rho(y) rho(x).

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
from typing import Sequence

from .core import EVEN, ODD, LieSuperalgebra, SuperkitError
from .linalg import (
    Echelon,
    Matrix,
    Q,
    Vec,
    _integer_row,
    inverse,
    kernel_basis,
    rational_eigenspaces,
    vec,
    zero_vec,
)


class NotInG1ss(SuperkitError):
    """The supplied odd element does not have a semisimple square."""


@dataclass
class SuperModule:
    parity: tuple[int, ...]
    action: list[Matrix]
    name: str = ""

    def __post_init__(self) -> None:
        self.parity = tuple(int(p) % 2 for p in self.parity)
        for m in self.action:
            if m.rows != self.dim or m.cols != self.dim:
                raise ValueError("action matrices must be dim x dim")

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
        """sum_i x[i] rho(e_i), accumulated in one matrix."""
        out = Matrix.zeros(self.dim, self.dim)
        for i, c in enumerate(x):
            c = Q(c)
            if c:
                for orow, arow in zip(out.data, self.action[i].data):
                    for k, a in enumerate(arow):
                        if a:
                            orow[k] += c * a
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
    return SuperModule(parity=(EVEN,), action=[Matrix.zeros(1, 1) for _ in range(g.dim)],
                       name="trivial")


def adjoint_module(g: LieSuperalgebra) -> SuperModule:
    return SuperModule(parity=g.parity,
                       action=[g.ad_matrix(g.basis_vector(i)) for i in range(g.dim)],
                       name="adjoint")


def validate_module(g: LieSuperalgebra, m: SuperModule) -> list[str]:
    """Every violated parity or representation-law instance."""
    issues: list[str] = []
    for i in range(g.dim):
        mat = m.action[i]
        for r in range(m.dim):
            for c in range(m.dim):
                if mat.data[r][c] != 0 and m.parity[r] != (m.parity[c] + g.parity[i]) % 2:
                    issues.append(f"parity: action of e{i} at entry ({r},{c})")
    for i in range(g.dim):
        for j in range(g.dim):
            sign = -1 if g.parity[i] and g.parity[j] else 1
            lhs = m.matrix_of(g.bracket_basis(i, j))
            rhs = m.action[i].mul(m.action[j]).sub(
                m.action[j].mul(m.action[i]).scale(sign))
            if lhs != rhs:
                issues.append(f"representation law: fails on pair ({i},{j})")
    return issues


def direct_sum(m: SuperModule, n: SuperModule) -> SuperModule:
    dm, dn = m.dim, n.dim
    action = []
    for a, b in zip(m.action, n.action):
        big = Matrix.zeros(dm + dn, dm + dn)
        for r in range(dm):
            for c in range(dm):
                big.data[r][c] = a.data[r][c]
        for r in range(dn):
            for c in range(dn):
                big.data[dm + r][dm + c] = b.data[r][c]
        action.append(big)
    return SuperModule(parity=m.parity + n.parity, action=action)


def tensor(m: SuperModule, n: SuperModule) -> SuperModule:
    """Tensor product with the sign rule
    rho(x)(a ox b) = rho(x)a ox b + (-1)^{|x||a|} a ox rho(x)b."""
    dm, dn = m.dim, n.dim
    parity = tuple((m.parity[i] + n.parity[j]) % 2 for i in range(dm) for j in range(dn))
    action = []
    for idx in range(len(m.action)):
        a, b = m.action[idx], n.action[idx]
        xpar = _matrix_parity(a, m.parity) if not a.is_zero() else _matrix_parity(b, n.parity)
        big = Matrix.zeros(dm * dn, dm * dn)
        for i in range(dm):
            for ip in range(dm):
                if a.data[ip][i] == 0:
                    continue
                for j in range(dn):
                    big.data[ip * dn + j][i * dn + j] += a.data[ip][i]
        for i in range(dm):
            sign = Q(-1) if (xpar and m.parity[i]) else Q(1)
            for j in range(dn):
                for jp in range(dn):
                    if b.data[jp][j] == 0:
                        continue
                    big.data[i * dn + jp][i * dn + j] += sign * b.data[jp][j]
        action.append(big)
    return SuperModule(parity=parity, action=action)


def dual(m: SuperModule) -> SuperModule:
    """Contragredient module: (x.phi)(v) = -(-1)^{|x||phi|} phi(x.v)."""
    action = []
    for a in m.action:
        xpar = _matrix_parity(a, m.parity)
        big = Matrix.zeros(m.dim, m.dim)
        for k in range(m.dim):
            for j in range(m.dim):
                if a.data[j][k] == 0:
                    continue
                # phi_j carries the parity of basis vector j
                sign = Q(-1) if (xpar and m.parity[j]) else Q(1)
                big.data[k][j] += -sign * a.data[j][k]
        action.append(big)
    return SuperModule(parity=m.parity, action=action)


def _matrix_parity(a: Matrix, parity: Sequence[int]) -> int:
    for r in range(a.rows):
        for c in range(a.cols):
            if a.data[r][c] != 0:
                return (parity[r] + parity[c]) % 2
    return EVEN


def conjugate(m: SuperModule, p: Matrix) -> SuperModule:
    """Change of basis by a parity-preserving invertible matrix."""
    pinv = inverse(p)
    return SuperModule(parity=m.parity,
                       action=[p.mul(a).mul(pinv) for a in m.action])


def induced_trivial(g: LieSuperalgebra) -> SuperModule:
    """The module induced from the trivial even-part module: the quotient of
    the enveloping algebra by the left ideal generated by the even part,
    2^{dim g_1}-dimensional with subset basis."""
    from .enveloping import LEFT, coinvariant_action_matrices
    odd = g.odd_indices
    mats = coinvariant_action_matrices(g, LEFT)
    parity = tuple(bin(mask).count("1") % 2 for mask in range(1 << len(odd)))
    return SuperModule(parity=parity, action=list(mats), name="induced-trivial")


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
    """True iff the associative algebra A generated by the matrices and the
    identity has zero trace radical {a : tr(ab) = 0 for all b}.

    A is spanned by closing span{I} under left multiplication by a pruned
    generating set S: a matrix that already lies in the current span is
    skipped, the others join S.  The final span contains I and every matrix
    and is closed under S, so it is A.  Each matrix is scaled to integers;
    products are row combinations through the sparse rows of S, and the
    verdict is the rank of the symmetric Gram matrix tr(ab) on a basis of A.
    """
    if dim == 0:
        return True
    ech = Echelon()
    basis: list[list[int]] = []
    used: list[list[list[tuple[int, int]]]] = []
    queue = [[int(r == c) for r in range(dim) for c in range(dim)]]

    def close() -> None:
        while queue:
            cand = queue.pop()
            if ech.add(cand):
                basis.append(cand)
                queue.extend(_left_mul(s, cand, dim) for s in used)

    close()
    for m in mats:
        flat = _integer_row(m.flatten())
        if ech.contains(flat):
            continue
        s = [[(c, x) for c, x in enumerate(flat[r * dim:(r + 1) * dim]) if x]
             for r in range(dim)]
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


def is_module_semisimple(g: LieSuperalgebra, m: SuperModule) -> bool:
    return is_semisimple_action(m.action, m.dim)


def _left_mul(s: list[list[tuple[int, int]]], b: list[int], dim: int) -> list[int]:
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
    h = g.odd_square(u)
    hmat = m.matrix_of(h)
    umat = m.matrix_of(u)
    even_idx = [i for i, p in enumerate(m.parity) if p == EVEN]
    odd_idx = [i for i, p in enumerate(m.parity) if p == ODD]
    ker_even = _graded_kernel(hmat, even_idx, m.dim)
    ker_odd = _graded_kernel(hmat, odd_idx, m.dim)
    vh = ker_even + ker_odd
    # u must square to zero on the h-invariants
    for v in vh:
        if not all(c == 0 for c in umat.matvec(umat.matvec(v))):
            raise SuperkitError("u does not square to zero on the h-invariants")
    de, be = _homology_at(umat, ker_even, ker_odd)
    do, bo = _homology_at(umat, ker_odd, ker_even)
    return DSResult(even_dim=de, odd_dim=do, homology_basis=be + bo)


def _graded_kernel(hmat: Matrix, idx: list[int], dim: int) -> list[Vec]:
    """Kernel of h restricted to the coordinate subspace idx, as full vectors."""
    if not idx:
        return []
    block = Matrix([[hmat.data[r][c] for c in idx] for r in range(dim)])
    out = []
    for small in kernel_basis(block):
        v = zero_vec(dim)
        for t, c in zip(idx, small):
            v[t] = c
        out.append(v)
    return out


def _homology_at(umat: Matrix, source: list[Vec], target: list[Vec]) -> tuple[int, list[Vec]]:
    """dim and representatives of ker(u|source) / im(u|target)."""
    if not source:
        return 0, []
    smat = Matrix.from_columns(source)
    # u maps source into the span of target (parity flip); kernel of u on source:
    usrc = Matrix.from_columns([umat.matvec(v) for v in source])
    kern_coords = kernel_basis(usrc)
    kern = [smat.matvec(c) for c in kern_coords]
    span = Echelon()
    for v in target:
        span.add(umat.matvec(v))
    reps = [v for v in kern if span.add(v)]
    return len(reps), reps


def ds_tensor_check(g: LieSuperalgebra, u: Sequence, m: SuperModule,
                    n: SuperModule) -> dict:
    """Tensor multiplicativity of DS graded dimensions, with parity convolution."""
    dm = ds_functor(g, u, m).dims
    dn = ds_functor(g, u, n).dims
    dmn = ds_functor(g, u, tensor(m, n)).dims
    expected = (dm[0] * dn[0] + dm[1] * dn[1], dm[0] * dn[1] + dm[1] * dn[0])
    return {
        "ds_m": dm,
        "ds_n": dn,
        "ds_tensor": dmn,
        "expected": expected,
        "ok": dmn == expected,
    }
