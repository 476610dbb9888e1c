"""Constructors for the classical and toy Lie superalgebra families.

Every family is built from an explicit faithful matrix realization: the
structure constants are obtained by expanding supercommutators of the basis
matrices, and the same matrices are attached as the defining representation.
The builders write their matrices as sparse integer rows.  Only the nonzero
products of those matrices are formed, and the supercommutator of each
unordered pair with a nonzero product is solved for in integers, straight
into the algebra's integer structure table.
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

from collections import defaultdict
from fractions import Fraction
from functools import lru_cache, reduce
from math import lcm
from typing import Sequence

from .core import EVEN, ODD, LieSuperalgebra, _grading_failures
from .linalg import Matrix, Q, integer_coordinates_in
from .reps import Rows, SuperModule, direct_sum


def algebra_from_matrices(
    mats: Sequence[Matrix],
    mat_parity: Sequence[int],
    space_parity: Sequence[int],
    names: Sequence[str],
    cartan: Sequence[int] | None = None,
) -> LieSuperalgebra:
    """Lie superalgebra spanned by matrices closed under the supercommutator,
    with the defining representation attached.  The rep is certified lawful
    when every matrix has its stated parity."""
    rep = SuperModule(parity=space_parity, action=mats, name="defining")
    return _algebra_from_rep(rep, mat_parity, names, cartan,
                             not _grading_failures(rep._table, mat_parity, rep.parity))


def _algebra_from_rep(rep: SuperModule, mat_parity: Sequence[int], names: Sequence[str],
                      cartan: Sequence[int] | None, lawful: bool = True) -> LieSuperalgebra:
    """The algebra spanned by the action matrices m_i of `rep`, which becomes
    its defining representation.  Only the nonzero products of the action
    rows A_i = D m_i are formed, in integers: each entry (r, c, a) of A_x
    meets row c of every A_y.  The supercommutator A_i A_j -/+ A_j A_i of
    each pair i <= j with a nonzero product is solved for;
    [m_j, m_i] = -(-1)^{|i||j|} [m_i, m_j] is an exact identity of the
    supercommutator, so it fills (j, i).  The table is rep's
    supercommutators, so rep obeys the representation law; `lawful` says
    that it also keeps parity, as the family builders' matrices do."""
    n, d = len(rep._table), rep.dim
    coordinates = integer_coordinates_in(
        [{r * d + c: a for r, row in enumerate(rows) for c, a in row} for rows in rep._table])
    # row c of every A_y, as its entries (y, c2, b)
    by_row: list[list[tuple[int, int, int]]] = [[] for _ in range(d)]
    for y, rows in enumerate(rep._table):
        for c, row in enumerate(rows):
            by_row[c].extend((y, c2, b) for c2, b in row)
    # products[x][y] = A_x A_y as {r * d + c2: entry}, for the y it reaches
    products: list[defaultdict[int, dict[int, int]]] = []
    for rows in rep._table:
        prod: defaultdict[int, dict[int, int]] = defaultdict(dict)
        for r, row in enumerate(rows):
            for c, a in row:
                for y, c2, b in by_row[c]:
                    out, k = prod[y], r * d + c2
                    out[k] = out.get(k, 0) + a * b
        products.append(prod)
    pairs = sorted({(min(x, y), max(x, y)) for x, prod in enumerate(products) for y in prod})
    table: list[list[tuple[tuple[int, int], ...]]] = [[()] * n for _ in range(n)]
    den = 1
    for i, j in pairs:
        odd = bool(mat_parity[i] and mat_parity[j])
        sign = 1 if odd else -1
        br = dict(products[i].get(j, {}))
        for k, v in products[j].get(i, {}).items():
            br[k] = br.get(k, 0) + sign * v
        br = {k: v for k, v in br.items() if v}
        if not br:
            continue
        found = coordinates(br)
        if found is None:
            raise ValueError(
                "matrix span is not closed under the supercommutator"
            )
        # D^2 [m_i, m_j] = br = sum_k (C_k / den) D m_k; den is the same for
        # every integer br
        row, den = found
        table[i][j] = row = tuple(row)
        if j != i:
            table[j][i] = row if odd else tuple((k, -c) for k, c in row)
    return LieSuperalgebra._of_table(mat_parity, table, den * rep._den, names, rep, cartan,
                                     lawful)


def _defining(space_parity: Sequence[int], mats: list[Rows]) -> SuperModule:
    """The defining representation on integer matrices given by sparse rows."""
    return SuperModule._of_table(space_parity, mats, 1, "defining")


def _label(prefix: str, a: int, b: int) -> str:
    """The name of the basis element with 1-based indices a, b: prefix, a and
    b run together while both are single digits, else joined by "_", so that
    (1, 11) and (11, 1) get different names."""
    return f"{prefix}{a}{b}" if a < 10 and b < 10 else f"{prefix}{a}_{b}"


def _rows(d: int, entries: Sequence[tuple[int, int, int]]) -> Rows:
    """The sparse rows of the d x d integer matrix with entries (r, c, a)."""
    rows: Rows = [[] for _ in range(d)]
    for r, c, a in sorted(entries):
        rows[r].append((c, a))
    return rows


# ---------------------------------------------------------------------------
# gl(m|n) and sl(m|n)
# ---------------------------------------------------------------------------

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
            mats.append(_rows(d, [(a, b, 1)]))
            parities.append((par(a) + par(b)) % 2)
            names.append(_label("E", a + 1, b + 1))
            if a == b:
                cartan.append(len(mats) - 1)
    space_parity = [par(a) for a in range(d)]
    return _algebra_from_rep(_defining(space_parity, mats), parities, names, cartan)


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
                mats.append(_rows(d, [(a, b, 1)]))
                parities.append((par(a) + par(b)) % 2)
                names.append(_label("E", a + 1, b + 1))
    for a in range(d - 1):
        # supertrace-zero diagonal: E_aa -/+ E_{a+1,a+1} across the block edge
        sign = 1 if par(a) != par(a + 1) else -1
        mats.append(_rows(d, [(a, a, 1), (a + 1, a + 1, sign)]))
        parities.append(EVEN)
        names.append(f"D{a + 1}")
        cartan.append(len(mats) - 1)
    space_parity = [par(a) for a in range(d)]
    return _algebra_from_rep(_defining(space_parity, mats), parities, names, cartan)


# ---------------------------------------------------------------------------
# osp(1|2n)
# ---------------------------------------------------------------------------

def _sp_entries(n: int) -> tuple[list[list[tuple[int, int, int]]], list[str]]:
    """Standard basis of sp(2n) preserving the symplectic form with
    (a_i, b_j) = delta_ij on the ordered basis a_1..a_n, b_1..b_n, as the
    (row, column, entry) lists of its matrices."""
    mats, names = [], []
    for i in range(n):
        for j in range(n):
            mats.append([(i, j, 1), (n + j, n + i, -1)])
            names.append(_label("M", i + 1, j + 1))
    for i in range(n):
        mats.append([(i, n + i, 1)])
        names.append(_label("B", i + 1, i + 1))
        for j in range(i + 1, n):
            mats.append([(i, n + j, 1), (j, n + i, 1)])
            names.append(_label("B", i + 1, j + 1))
    for i in range(n):
        mats.append([(n + i, i, 1)])
        names.append(_label("C", i + 1, i + 1))
        for j in range(i + 1, n):
            mats.append([(n + i, j, 1), (n + j, i, 1)])
            names.append(_label("C", i + 1, j + 1))
    return mats, names


@lru_cache(maxsize=None)
def build_osp1(n: int) -> LieSuperalgebra:
    """Orthosymplectic superalgebra with even part sp(2n) and odd part its
    standard module, realized inside gl(1|2n)."""
    if n < 1:
        raise ValueError("osp(1|2n) needs n >= 1")
    spmats, spnames = _sp_entries(n)
    d = 1 + 2 * n
    mats = [_rows(d, [(1 + r, 1 + c, a) for r, c, a in m]) for m in spmats]
    parities = [EVEN] * len(mats)
    names = list(spnames)
    # odd basis vector e_p acts by e0 -> e_p, f_j -> -(e_p, f_j) e0, where
    # (a_i, b_i) = 1 = -(b_i, a_i)
    for p in range(2 * n):
        form = (1 + n + p, -1) if p < n else (1 + p - n, 1)
        mats.append(_rows(d, [(1 + p, 0, 1), (0, *form)]))
        parities.append(ODD)
    names += [f"a{i + 1}" for i in range(n)] + [f"b{i + 1}" for i in range(n)]
    cartan = [spnames.index(_label("M", i + 1, i + 1)) for i in range(n)]
    space_parity = [EVEN] + [ODD] * (2 * n)
    return _algebra_from_rep(_defining(space_parity, mats), parities, names, cartan)


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
        u = _rows(2, [(1, 0, 1)])
        return _algebra_from_rep(_defining([EVEN, ODD], [u]), [ODD], ["u"], cartan=[])
    if kind == TOY_ODD_SEMISIMPLE:
        # basis e1, e2 even; f1, f2 odd; u: e1<->f1, e2<->2 f2, and h = u^2
        u = _rows(4, [(2, 0, 1), (0, 2, 1), (3, 1, 2), (1, 3, 2)])
        h = _rows(4, [(0, 0, 1), (1, 1, 4), (2, 2, 1), (3, 3, 4)])
        return _algebra_from_rep(_defining([EVEN, EVEN, ODD, ODD], [h, u]),
                                 [EVEN, ODD], ["h", "u"], cartan=[0])
    raise ValueError(f"unknown toy kind {kind!r}")


def build_product(factors: Sequence[LieSuperalgebra]) -> LieSuperalgebra:
    """Block direct sum; the faithful representation is the direct sum of the
    factors' representations.  The Cartan is the sum of the factors' Cartans,
    or None (found when needed) unless every factor with an even part has one."""
    factors = list(factors)
    total = sum(f.dim for f in factors)
    parity: list[int] = []
    names: list[str] = []
    # every factor's table over the common denominator, shifted to its block
    den = lcm(*(f._den for f in factors))
    table: list[list[tuple[tuple[int, int], ...]]] = [[()] * total for _ in range(total)]
    cartan: list[int] | None = []
    pieces: list[SuperModule] = []
    offset = 0
    for t, f in enumerate(factors):
        parity.extend(f.parity)
        prefix = f"{t}." if len(factors) > 1 else ""
        names.extend(prefix + nm for nm in f.names)
        scale = den // f._den
        for i, block in enumerate(f._table):
            out = table[offset + i]
            for j, row in enumerate(block):
                if row:
                    out[offset + j] = tuple((offset + k, scale * c) for k, c in row)
        if f.cartan:
            if cartan is not None:
                cartan.extend(offset + i for i in f.cartan)
        elif EVEN in f.parity:
            cartan = None
        if f.faithful_rep is not None:
            # f's rep as a module over the product: the other factors act by zero
            r, zero = f.faithful_rep, [()] * f.faithful_rep.dim
            rows = [zero] * offset + r._table + [zero] * (total - offset - f.dim)
            pieces.append(SuperModule._of_table(r.parity, rows, r._den))
        offset += f.dim
    rep = None
    if len(pieces) == len(factors):
        rep = reduce(direct_sum, pieces) if total else SuperModule((EVEN,), [])
        rep.name = "defining"
    # a direct sum of lawful reps is lawful
    return LieSuperalgebra._of_table(parity, table, den, names, rep, cartan,
                                     all(f._certified() for f in factors))


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
