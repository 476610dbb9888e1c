"""Constructors for the classical and toy Lie superalgebra families.

Every family is built from an explicit faithful matrix realization: the
structure constants are obtained by expanding supercommutators of the basis
matrices, and the same matrices are attached as the defining representation.
This guarantees the super axioms hold by construction and gives every family
the faithful representation needed for semisimple-element testing.

Conventions for osp(1|2n):

* the odd part has ordered basis a_1..a_n, b_1..b_n with symplectic pairing
  (a_i, b_j) = delta_ij;
* the odd bracket sends a pair u, v to the symplectic transformation
  w -> (w, u) v + (w, v) u.

The second convention (feeding w through the first slot of the form) is the
normalization under which the classical coinvariant element
(1 + a_1 b_1)(3 + a_2 b_2)...((2n-1) + a_n b_n) is invariant with counit
(2n-1)!!; the opposite sign choice would flip it to (1 - a_1 b_1)....
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Sequence

from .core import EVEN, ODD, LieSuperalgebra
from .linalg import Matrix, Q, integer_coordinates_in, integer_vector
from .reps import SuperModule


def algebra_from_matrices(
    mats: Sequence[Matrix],
    mat_parity: Sequence[int],
    space_parity: Sequence[int],
    names: Sequence[str],
    cartan: Sequence[int] | None = None,
) -> LieSuperalgebra:
    """Lie superalgebra spanned by matrices closed under the supercommutator,
    with the defining representation attached.  The supercommutators are
    expanded in integers: each matrix is A / L with A an integer matrix."""
    n = len(mats)
    d = mats[0].rows if mats else 0
    flat = [m.flatten() for m in mats]
    coordinates = integer_coordinates_in(flat)
    ints = [integer_vector(f) for f in flat]
    # the nonzero entries of each A, by row: row -> [(column, entry)]
    by_row = []
    for entries, _ in ints:
        rows: dict[int, list[tuple[int, int]]] = {}
        for pos, a in enumerate(entries):
            if a:
                rows.setdefault(pos // d, []).append((pos % d, a))
        by_row.append(rows)
    table: dict[tuple[int, int], dict[int, Fraction]] = {}
    for i in range(n):
        for j in range(n):
            # A_i A_j -/+ A_j A_i, flattened
            br = [0] * (d * d)
            sign = 1 if mat_parity[i] and mat_parity[j] else -1
            for x, y, s in ((i, j, 1), (j, i, sign)):
                for r, row in by_row[x].items():
                    for c, a in row:
                        for c2, b in by_row[y].get(c, ()):
                            br[r * d + c2] += s * a * b
            if not any(br):
                continue
            found = coordinates(br)
            if found is None:
                raise ValueError(
                    "matrix span is not closed under the supercommutator"
                )
            comps, den = found
            den *= ints[i][1] * ints[j][1]
            table[(i, j)] = {k: Q(c, den) for k, c in enumerate(comps) if c}
    rep = SuperModule(parity=tuple(space_parity), action=[m.copy() for m in mats],
                      name="defining")
    g = LieSuperalgebra(mat_parity, table, names, faithful_rep=rep, cartan=cartan)
    return g


# ---------------------------------------------------------------------------
# gl(m|n) and sl(m|n)
# ---------------------------------------------------------------------------

def _matrix_unit(d: int, a: int, b: int) -> Matrix:
    m = Matrix.zeros(d, d)
    m.data[a][b] = Q(1)
    return m


@lru_cache(maxsize=None)
def build_gl(m: int, n: int) -> LieSuperalgebra:
    """General linear superalgebra on matrix units E_ab, bracket = supercommutator."""
    if m < 0 or n < 0 or m + n < 1:
        raise ValueError("gl(m|n) needs m + n >= 1 with nonnegative m, n")
    d = m + n
    par = lambda a: EVEN if a < m else ODD
    mats, parities, names, cartan = [], [], [], []
    for a in range(d):
        for b in range(d):
            mats.append(_matrix_unit(d, a, b))
            parities.append((par(a) + par(b)) % 2)
            names.append(f"E{a + 1}{b + 1}")
            if a == b:
                cartan.append(len(mats) - 1)
    space_parity = [par(a) for a in range(d)]
    return algebra_from_matrices(mats, parities, space_parity, names, cartan)


def supertrace(mat: Matrix, space_parity: Sequence[int]) -> Fraction:
    return sum(
        (mat.data[i][i] if p == EVEN else -mat.data[i][i]
         for i, p in enumerate(space_parity)),
        Q(0),
    )


@lru_cache(maxsize=None)
def build_sl(m: int, n: int) -> LieSuperalgebra:
    """Supertrace-zero subalgebra of gl(m|n).  sl(n|n) is constructible but is
    not simple (it has a central supertrace-zero identity)."""
    if m < 1 or n < 1:
        raise ValueError("sl(m|n) needs m, n >= 1")
    d = m + n
    par = lambda a: EVEN if a < m else ODD
    mats, parities, names, cartan = [], [], [], []
    for a in range(d):
        for b in range(d):
            if a != b:
                mats.append(_matrix_unit(d, a, b))
                parities.append((par(a) + par(b)) % 2)
                names.append(f"E{a + 1}{b + 1}")
    for a in range(d - 1):
        # supertrace-zero diagonal: E_aa -/+ E_{a+1,a+1} across the block edge
        other = _matrix_unit(d, a + 1, a + 1)
        diag = _matrix_unit(d, a, a)
        diag = diag.add(other) if par(a) != par(a + 1) else diag.sub(other)
        mats.append(diag)
        parities.append(EVEN)
        names.append(f"D{a + 1}")
        cartan.append(len(mats) - 1)
    space_parity = [par(a) for a in range(d)]
    return algebra_from_matrices(mats, parities, space_parity, names, cartan)


# ---------------------------------------------------------------------------
# osp(1|2n)
# ---------------------------------------------------------------------------

def symplectic_form_matrix(n: int) -> Matrix:
    """Gram matrix on the ordered basis a_1..a_n, b_1..b_n with (a_i,b_j) = delta_ij."""
    j = Matrix.zeros(2 * n, 2 * n)
    for i in range(n):
        j.data[i][n + i] = Q(1)
        j.data[n + i][i] = Q(-1)
    return j


def sp_basis(n: int) -> tuple[list[Matrix], list[str]]:
    """Standard basis of sp(2n) preserving the fixed symplectic form."""
    mats, names = [], []
    for i in range(n):
        for j in range(n):
            m = _matrix_unit(2 * n, i, j).sub(_matrix_unit(2 * n, n + j, n + i))
            mats.append(m)
            names.append(f"M{i + 1}{j + 1}")
    for i in range(n):
        mats.append(_matrix_unit(2 * n, i, n + i))
        names.append(f"B{i + 1}{i + 1}")
        for j in range(i + 1, n):
            mats.append(_matrix_unit(2 * n, i, n + j).add(_matrix_unit(2 * n, j, n + i)))
            names.append(f"B{i + 1}{j + 1}")
    for i in range(n):
        mats.append(_matrix_unit(2 * n, n + i, i))
        names.append(f"C{i + 1}{i + 1}")
        for j in range(i + 1, n):
            mats.append(_matrix_unit(2 * n, n + i, j).add(_matrix_unit(2 * n, n + j, i)))
            names.append(f"C{i + 1}{j + 1}")
    return mats, names


@lru_cache(maxsize=None)
def build_osp1(n: int) -> LieSuperalgebra:
    """Orthosymplectic superalgebra with even part sp(2n) and odd part its
    standard module, realized inside gl(1|2n)."""
    if n < 1:
        raise ValueError("osp(1|2n) needs n >= 1")
    spmats, spnames = sp_basis(n)
    d = 1 + 2 * n
    jform = symplectic_form_matrix(n)
    mats: list[Matrix] = []
    parities: list[int] = []
    names: list[str] = []
    for m, nm in zip(spmats, spnames):
        big = Matrix.zeros(d, d)
        for r in range(2 * n):
            for c in range(2 * n):
                big.data[1 + r][1 + c] = m.data[r][c]
        mats.append(big)
        parities.append(EVEN)
        names.append(nm)
    # odd basis vector e_p acts by e0 -> e_p, f_j -> -(e_p, f_j) e0
    for p in range(2 * n):
        big = Matrix.zeros(d, d)
        big.data[1 + p][0] = Q(1)
        for jcol in range(2 * n):
            big.data[0][1 + jcol] = -jform.data[p][jcol]
        mats.append(big)
        parities.append(ODD)
    names += [f"a{i + 1}" for i in range(n)] + [f"b{i + 1}" for i in range(n)]
    cartan = [spnames.index(f"M{i + 1}{i + 1}") for i in range(n)]
    space_parity = [EVEN] + [ODD] * (2 * n)
    return algebra_from_matrices(mats, parities, space_parity, names, cartan)


def osp_odd_indices(n: int) -> tuple[list[int], list[int]]:
    """Basis indices of a_1..a_n and b_1..b_n inside build_osp1(n)."""
    even_count = n * (2 * n + 1)
    return (
        [even_count + i for i in range(n)],
        [even_count + n + i for i in range(n)],
    )


# ---------------------------------------------------------------------------
# toy algebras and products
# ---------------------------------------------------------------------------

TOY_ODD_NILPOTENT = "toy_odd_nilpotent"
TOY_ODD_SEMISIMPLE = "toy_odd_semisimple"


@lru_cache(maxsize=None)
def build_toy(kind: str) -> LieSuperalgebra:
    """Two smallest probes of the semisimple-square cone.

    toy_odd_nilpotent: one odd u with [u,u] = 0 (u is in the cone since the
    zero element is semisimple).  toy_odd_semisimple: span{h even, u odd} with
    [u,u] = 2h and [h,u] = 0, carried by a 2|2 representation in which h acts
    diagonalizably.
    """
    if kind == TOY_ODD_NILPOTENT:
        u = Matrix([[0, 0], [1, 0]])
        return algebra_from_matrices([u], [ODD], [EVEN, ODD], ["u"], cartan=[])
    if kind == TOY_ODD_SEMISIMPLE:
        u = Matrix.zeros(4, 4)
        # basis e1, e2 even; f1, f2 odd; u: e1<->f1, e2<->2 f2
        u.data[2][0] = Q(1)
        u.data[0][2] = Q(1)
        u.data[3][1] = Q(2)
        u.data[1][3] = Q(2)
        h = u.mul(u)
        return algebra_from_matrices(
            [h, u], [EVEN, ODD], [EVEN, EVEN, ODD, ODD], ["h", "u"], cartan=[0]
        )
    raise ValueError(f"unknown toy kind {kind!r}")


def build_product(factors: Sequence[LieSuperalgebra]) -> LieSuperalgebra:
    """Block direct sum; the faithful representation is the direct sum of the
    factors' representations.  The Cartan is the sum of the factors' Cartans,
    or None (found when needed) unless every factor with an even part has one."""
    factors = list(factors)
    total = sum(f.dim for f in factors)
    parity: list[int] = []
    names: list[str] = []
    table: dict[tuple[int, int], dict[int, Fraction]] = {}
    cartan: list[int] | None = []
    offset = 0
    for t, f in enumerate(factors):
        parity.extend(f.parity)
        prefix = f"{t}." if len(factors) > 1 else ""
        names.extend(prefix + nm for nm in f.names)
        for i in range(f.dim):
            for j in range(f.dim):
                comps = {
                    offset + k: q for k, q in f.bracket_sparse(i, j)
                }
                if comps:
                    table[(offset + i, offset + j)] = comps
        if f.cartan:
            if cartan is not None:
                cartan.extend(offset + i for i in f.cartan)
        elif EVEN in f.parity:
            cartan = None
        offset += f.dim
    rep = None
    if all(f.faithful_rep is not None for f in factors):
        rep_parity: list[int] = []
        rep_total = sum(f.faithful_rep.dim for f in factors)
        for f in factors:
            rep_parity.extend(f.faithful_rep.parity)
        action = []
        roff = 0
        for t, f in enumerate(factors):
            for a in f.faithful_rep.action:
                big = Matrix.zeros(rep_total, rep_total)
                for r in range(a.rows):
                    for c in range(a.cols):
                        big.data[roff + r][roff + c] = a.data[r][c]
                action.append(big)
            roff += f.faithful_rep.dim
        rep = SuperModule(parity=tuple(rep_parity), action=action, name="defining")
        if total == 0:
            rep = SuperModule(parity=(EVEN,), action=[], name="defining")
    return LieSuperalgebra(parity, table, names, faithful_rep=rep, cartan=cartan)


# ---------------------------------------------------------------------------
# family spec strings (shared with the command line)
# ---------------------------------------------------------------------------

def parse_family_spec(spec: str) -> LieSuperalgebra:
    """Build a family from a compact spec string.

    gl:m:n | sl:m:n | osp1:n | toy_odd_nilpotent | toy_odd_semisimple |
    product:spec,spec,...  (inner specs use ':').
    """
    spec = spec.strip()
    if spec.startswith("product:"):
        inner = spec[len("product:"):]
        if not inner:
            return build_product([])
        return build_product([parse_family_spec(s) for s in inner.split(",") if s])
    if spec in (TOY_ODD_NILPOTENT, TOY_ODD_SEMISIMPLE):
        return build_toy(spec)
    parts = spec.split(":")
    try:
        if parts[0] == "gl" and len(parts) == 3:
            return build_gl(int(parts[1]), int(parts[2]))
        if parts[0] == "sl" and len(parts) == 3:
            return build_sl(int(parts[1]), int(parts[2]))
        if parts[0] == "osp1" and len(parts) == 2:
            return build_osp1(int(parts[1]))
    except ValueError as exc:
        raise ValueError(f"bad family spec {spec!r}: {exc}") from exc
    raise ValueError(f"unknown family spec {spec!r}")
