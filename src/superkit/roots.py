"""Root decompositions and the classification decision procedure.

`classify_simple` runs the structure-theoretic argument that pins down the
orthosymplectic family: on a simple quasireductive algebra with nonzero odd
part, walk the odd roots of a Cartan subalgebra of the even part.  A root
vector in the semisimple-square cone (or, in a higher-dimensional odd root
space, a rational isotropic combination, which squares to zero) is returned
as a witness.  A zero-weight or higher-dimensional odd root space without
one leaves the procedure inconclusive.  Otherwise every odd root space is
one-dimensional with nonzero nilpotent square; the procedure then verifies
that the squared bracket map of the odd part is onto the even part, pairs
each odd root u with the root w of opposite weight, and reads the one
scalar beta(u, w) of the pair off [[u, u], w] = 2 beta(u, w) u.  The pairs
map straight onto the family's a_i, b_i, the even part follows from the
odd brackets, and an exact check that the map preserves every bracket makes
it an explicit isomorphism onto `build_osp1(n)`.  That check is the
certificate; the steps before it only build the map.

`g1ss_structural_scan` extends this to products of a center and simple
ideals: it certifies that the semisimple-square cone is zero exactly when
every odd factor classifies as osp(1|2n), and otherwise exhibits a nonzero
witness.  The cone condition is decided structurally, never by sampling.
The scan runs in one pass and returns a `ScanReport`: the witness or None,
and for a certified-zero cone the per-factor records the CLI prints.  It
computes the center and the root datum of g once and decomposes g once,
reusing both.  Each odd factor is certified by `_certify_osp`, the second
half of `classify_simple`, with g's root datum restricted to it: its odd
roots are g's, which the scan has already walked with `_root_witness`.

All of this runs on sparse integer vectors V / L, V = {index: entry}, a
`Root`'s space included; Fractions are made only for public values: the
Cartan `find_cartan` returns, `Root.space`, witnesses and basis maps.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt, lcm
from typing import Sequence

from .core import (EVEN, ODD, LieSuperalgebra, SparseVec, SuperkitError, _law_failures,
                   _product, _proportion)
from .linalg import (
    Echelon,
    Matrix,
    Q,
    Vec,
    fraction_vector,
    _combine,
    _diagonal,
    _eigenspace,
    _kernel_of_columns,
    _sparse_integer_rows,
    _split,
    integer_coordinates_in,
    is_zero_vec,
    span_basis,
    vec,
    vec_add,
    vec_scale,
)
from .reps import SuperModule, _transpose


class NonSemisimpleCartanAction(SuperkitError):
    """A supplied Cartan element does not act semisimply with rational spectrum."""


class CartanSearchFailed(SuperkitError):
    """The Cartan search found no candidate that splits over Q."""


class ClassificationInconclusive(SuperkitError):
    """The structural scan could not certify either outcome."""


@dataclass
class Root:
    """A root space: its weight, its parity and its basis, the integer
    vectors V / `den`, V = {index: entry} in `vectors`; `space` is their
    Fraction view, of length `dim`."""

    weight: tuple[Fraction, ...]
    parity: int
    vectors: list[dict[int, int]]
    den: int
    dim: int

    @property
    def space(self) -> list[Vec]:
        return [fraction_vector(v.items(), self.dim, self.den) for v in self.vectors]

    @property
    def is_zero_weight(self) -> bool:
        return all(w == 0 for w in self.weight)


@dataclass
class RootDatum:
    cartan: list[Vec]
    roots: list[Root]

    def odd_roots(self) -> list[Root]:
        return [r for r in self.roots if r.parity == ODD]

    def even_roots(self) -> list[Root]:
        return [r for r in self.roots if r.parity == EVEN]


@dataclass
class Osp:
    """Classified as osp(1|2n), with an explicit bracket-preserving basis map
    (columns = images of the input basis vectors in build_osp1(n) coordinates)."""

    n: int
    basis_map: Matrix


@dataclass
class Witness:
    """A nonzero odd element with semisimple square."""

    u: Vec


@dataclass
class Inconclusive:
    reason: str


# ---------------------------------------------------------------------------
# Cartan subalgebras
# ---------------------------------------------------------------------------

def find_cartan(g: LieSuperalgebra) -> list[Vec]:
    """Maximal toral subalgebra of the even part, by a deterministic
    split-seeking search.

    Grows a commuting family of elements whose adjoint actions are
    diagonalizable with rational spectrum, restricting the search to the
    centralizer `cent` of what has been found so far.  Each round takes the
    first of `_candidates(cent)`, in their fixed order, that lies outside
    the span of the family and splits over Q (`_splits`, on the integer rows
    of ad(x)).  Succeeds when `cent` becomes abelian with every basis
    element acting semisimply; that centralizer is the Cartan subalgebra.
    Requires a reductive even part; raises CartanSearchFailed when no
    candidate of a round splits.

    `cent` is kept as integer vectors V / L, V = {index: entry}, and the
    toral family as the span of one `Echelon`.
    """
    even = g.even_indices
    if not even:
        return []
    toral = Echelon()
    cent: list[dict[int, int]] = [{i: 1} for i in even]
    den = 1
    for _round in range(len(even) + 1):
        if _is_abelian_family(g, cent) and all(_splits(g, t, den * g._den) for t in cent):
            return [fraction_vector(t.items(), g.dim, den) for t in cent]
        found = next((x for x in _candidates(cent)
                      if not toral.contains(x) and _splits(g, x, den * g._den)), None)
        if found is None:
            raise CartanSearchFailed(
                "no basis vector of the centralizer, nor a sum or difference "
                "of two, outside the toral family splits over Q")
        toral.add(found)
        cent, lc = _centralizer_within(g, cent, found)
        den *= lc
    raise CartanSearchFailed("toral family failed to stabilize")


def _candidates(cent: list[dict[int, int]]):
    """The integer vectors of `cent`, then cent[p] + cent[q] and
    cent[p] - cent[q] for p < q."""
    yield from cent
    for p in range(len(cent)):
        for q in range(p + 1, len(cent)):
            yield _combine(((p, 1), (q, 1)), cent)
            yield _combine(((p, 1), (q, -1)), cent)


def _splits(g: LieSuperalgebra, xs: SparseVec, scale: int) -> bool:
    """True iff ad(x) is diagonalizable over the rationals (`_split`), for
    x = X / L given by the integer vector xs = X and its true scale L D
    (D = g._den)."""
    return _split(g._adjoint_module()._combine(xs), scale) is not None


def _centralizer_within(g: LieSuperalgebra, space: list[dict[int, int]],
                        xs: SparseVec) -> tuple[list[dict[int, int]], int]:
    """(Ws, M): {y in span(space) : [y, x] = 0} as the combinations W / M of
    the integer vectors of `space`; no positive scale of x or of the vectors
    changes it, so for space = the V_s / L it is spanned by the W / (M L)."""
    ks, lc = _kernel_of_columns([_product(g._table, v, xs) for v in space], len(space))
    return [_combine(k.items(), space) for k in ks], lc


def _is_abelian_family(g: LieSuperalgebra, items: list[SparseVec]) -> bool:
    return not any(
        _product(g._table, a, b) for t, a in enumerate(items) for b in items[t + 1:]
    )


# ---------------------------------------------------------------------------
# root decomposition
# ---------------------------------------------------------------------------

def root_decomposition(g: LieSuperalgebra, cartan: Sequence[Sequence]) -> RootDatum:
    """Simultaneous eigenspace decomposition of the adjoint action of a
    commuting, rationally-semisimple family of even elements, labeled by
    weight and parity.

    Each element splits the joint eigenspaces of the ones before it, on the
    integer rows of its action there.  Those spaces are stable under it, as
    the family commutes, so it acts diagonalizably over Q exactly when every
    one of them splits: an even commuting family needs no separate test of
    each element's spectrum.  Otherwise `_require_toral` raises the first
    failure."""
    cartan = [vec(t) for t in cartan]
    ts, lt = _sparse_integer_rows(cartan)
    if any(g.parity[i] == ODD for t in ts for i, _ in t) or not _is_abelian_family(g, ts):
        _require_toral(g, ts, lt)
    roots: list[Root] = []
    for parity, idx in ((EVEN, g.even_indices), (ODD, g.odd_indices)):
        if not idx:
            continue
        # (weight, Vs, L): the space spanned by the vectors V / L, each V a
        # sparse integer dict {index: entry}
        spaces: list[tuple[tuple[Fraction, ...], list[dict[int, int]], int]] = [
            ((), [{i: 1} for i in idx], 1)]
        for t in ts:
            refined = []
            for weight, items, den in spaces:
                for lam, vs, lv in _split_space(g, t, lt, items):
                    refined.append((weight + (lam,), vs, lv * den))
            spaces = refined
        roots += [Root(weight, parity, items, den, g.dim) for weight, items, den in spaces]
    roots.sort(key=lambda r: (r.parity, r.weight))
    return RootDatum(cartan=cartan, roots=roots)


_NOT_SPLIT = ("a Cartan element acts with non-squarefree minimal polynomial "
              "or irrational spectrum")


def _require_toral(g: LieSuperalgebra, ts: list[list[tuple[int, int]]], lt: int) -> None:
    """Raise NonSemisimpleCartanAction for the first element t = T / lt (ts
    the nonzero pairs of the T) that is not even or does not split over Q,
    else for a family that does not commute."""
    for t in ts:
        if any(g.parity[i] == ODD for i, _ in t):
            raise NonSemisimpleCartanAction("Cartan elements must be even")
        if not _splits(g, t, lt * g._den):
            raise NonSemisimpleCartanAction(_NOT_SPLIT)
    if not _is_abelian_family(g, ts):
        raise NonSemisimpleCartanAction("Cartan elements do not commute")


def _split_space(g: LieSuperalgebra, ts: list[tuple[int, int]], lt: int,
                 items: list[dict[int, int]]):
    """The eigenspaces (lam, Ws, M) of t = T / lt (ts the nonzero pairs of
    T) on the t-stable space spanned by the v_s = V_s / L (items = the V_s,
    as sparse integer dicts): the eigenvectors W / (M L), each a combination
    of the v_s whose coordinates are the eigenspace basis of t's matrix K in
    the v_s, so they do not depend on L.  Raises NonSemisimpleCartanAction
    when K does not split over Q."""
    # D [T, V_s] = sum_r (X_s[r] / M) V_r, so K = X / (M lt D) with the X_s
    # as columns
    coordinates = integer_coordinates_in(items)
    rows: list[list[tuple[int, int]]] = [[] for _ in items]
    for s, vs in enumerate(items):
        found = coordinates(_product(g._table, ts, vs))
        if found is None:
            raise NonSemisimpleCartanAction(_NOT_SPLIT)
        for r, x in found[0]:
            rows[r].append((s, x))
    scale = found[1] * lt * g._den
    diag = _diagonal(rows)
    if diag is not None:
        # K is diagonal: each v_s is an eigenvector, of eigenvalue K[s][s],
        # with no minimal polynomial
        spaces: dict[Fraction, list[dict[int, int]]] = {}
        for s, a in enumerate(diag):
            spaces.setdefault(Q(a, scale), []).append(items[s])
        return [(lam, vs, 1) for lam, vs in sorted(spaces.items())]
    lams = _split(rows, scale)
    if lams is None:
        raise NonSemisimpleCartanAction(_NOT_SPLIT)
    eig = ((lam, *_eigenspace(rows, scale, lam)) for lam in lams)
    return [(lam, [_combine(k.items(), items) for k in ks], lc) for lam, ks, lc in eig]


def cartan_of(g: LieSuperalgebra) -> list[Vec]:
    """A basis of the algebra's given Cartan subalgebra, else `find_cartan`'s."""
    if g.cartan is not None:
        return [g.basis_vector(i) for i in dict.fromkeys(g.cartan)]
    return find_cartan(g)


# ---------------------------------------------------------------------------
# isotropic vectors in odd root spaces
# ---------------------------------------------------------------------------

def _fraction_sqrt(x: Fraction) -> Fraction | None:
    if x < 0:
        return None
    rn, rd = isqrt(x.numerator), isqrt(x.denominator)
    if rn * rn == x.numerator and rd * rd == x.denominator:
        return Q(rn, rd)
    return None


def _root_witness(g: LieSuperalgebra, root: Root) -> Vec | None:
    """An element of the cone from an odd root space: a basis vector in the
    cone, else, in a space of dimension > 1, a rational isotropic combination
    in the cone; None if neither is found.  A basis vector u = V / L is
    tested by `LieSuperalgebra._in_cone` on V and D [V, V]."""
    for v in root.vectors:
        if g._in_cone(v, _product(g._table, v, v)):
            return fraction_vector(v.items(), g.dim, root.den)
    if len(root.vectors) > 1:
        v = isotropic_combination(g, root.space)
        if v is not None and g.in_g1ss(v):
            return v
    return None


def isotropic_combination(g: LieSuperalgebra, space: list[Vec]) -> Vec | None:
    """A nonzero rational v in the span with [v, v] = 0, if one is found.

    Tries basis vectors first, then solves the binary quadric on each pair;
    returns None when no rational isotropic vector is located (the caller
    reports Inconclusive rather than extending the scalar field).
    """
    for u in space:
        if is_zero_vec(g.bracket(u, u)):
            return u
    for p in range(len(space)):
        for q in range(p + 1, len(space)):
            u, w = space[p], space[q]
            a = vec_scale(Q(1, 2), g.bracket(u, u))
            b = g.bracket(u, w)
            c = vec_scale(Q(1, 2), g.bracket(w, w))
            v = _solve_binary_quadric(a, b, c, u, w)
            if v is not None and not is_zero_vec(v):
                return v
    return None


def _solve_binary_quadric(a: Vec, b: Vec, c: Vec, u: Vec, w: Vec) -> Vec | None:
    """Nonzero (s,t) with s^2 a + s t b + t^2 c = 0 as vectors, if rational."""
    if is_zero_vec(a):
        return u
    if is_zero_vec(c):
        return w
    # the three coefficient vectors must be proportional for a common root
    basis = span_basis([a, b, c])
    if len(basis) > 1:
        return None
    line = basis[0]
    pivot = next(i for i, x in enumerate(line) if x != 0)
    aa, bb, cc = a[pivot], b[pivot], c[pivot]
    disc = bb * bb - 4 * aa * cc
    root = _fraction_sqrt(disc)
    if root is None:
        return None
    s = (-bb + root) / (2 * aa)
    return vec_add(vec_scale(s, u), w)


# ---------------------------------------------------------------------------
# the classification procedure
# ---------------------------------------------------------------------------

def classify_simple(g: LieSuperalgebra):
    """Decision procedure for a simple quasireductive algebra with nonzero odd
    part: returns Osp(n) with an explicit isomorphism, a Witness in the
    semisimple-square cone, or Inconclusive with a reason.  Works on the
    algebra's root datum, `g._root_datum()`."""
    if not g.odd_indices:
        return Inconclusive("the algebra has no odd part")
    try:
        datum = g._root_datum()
    except SuperkitError as exc:
        return Inconclusive(str(exc))
    odd_roots = datum.odd_roots()
    for r in odd_roots:
        u = _root_witness(g, r)
        if u is not None:
            return Witness(u)
    return _certify_osp(g, odd_roots)


def _certify_osp(g: LieSuperalgebra, odd_roots: list[Root]) -> Osp | Inconclusive:
    """Osp(n) with an explicit isomorphism, or Inconclusive with a reason,
    for an algebra none of whose odd roots `odd_roots` yields a witness.

    The odd roots are g's own: root vectors u_p, one per weight a_p, the
    weights distinct.  After the cheap refusals and the onto test, which
    keeps a basis of g0 among the brackets [u_p, u_q], `_opposite_pairs`
    pairs each root with the root of opposite weight and reads the scalar
    beta(u_p, u_q) off [[u_p, u_p], u_q] = 2 beta(u_p, u_q) u_p.  These steps
    only build the map; the exact check in `_build_osp_isomorphism`
    certifies it, through g's designated rep, which must be accepted
    (faithful and lawful, `LieSuperalgebra._lawful_rep`, a SuperkitError
    otherwise): that makes g a Lie superalgebra, and the onto test shows
    that the odd basis generates g, so the check needs only the pairs
    touching an odd row (`_intertwining_pairs`).

    * Soundness.  No weight is zero (the first check), every root has its
      opposite and the weights are distinct, so the pairing is a perfect
      matching of the odd basis; with each beta nonzero the odd map sends a
      basis to a basis.  The exact check makes the map bracket-preserving,
      so the images of the brackets that span g0 span [fam1, fam1] = fam0,
      and the map is bijective.
    * Completeness.  On osp(1|2n) the invariant symplectic form beta obeys
      [[u, u], w] = 2 beta(u, w) u, and a Cartan element t gives
      (a_p + a_q)(t) beta(u_p, u_q) = 0: beta pairs each root only with its
      opposite, so by nondegeneracy every root has one, with beta nonzero.
      The built map is then a beta-isometry of the odd parts, and every such
      isometry extends to an isomorphism (see `_build_osp_isomorphism`).

    On tables that break Jacobi the pairing can fail (a root without an
    opposite, a zero beta, [[u_p, u_p], u_q] off the line of u_p) and is
    refused; whatever it builds, only the exact check certifies."""
    for r in odd_roots:
        if r.is_zero_weight:
            return Inconclusive(
                "zero-weight odd vector whose square is not semisimple"
            )
        if len(r.vectors) > 1:
            return Inconclusive(
                "higher-dimensional odd root space with no rational "
                "square-zero combination"
            )
    # every odd root space is now 1-dimensional with nonzero nilpotent square;
    # the double of each odd root is automatically an even root (the square is
    # a nonzero even vector of doubled weight).  Certify the osp structure.
    den = lcm(*(r.den for r in odd_roots))
    ints = [[(i, a * (den // r.den)) for i, a in v.items()] for r in odd_roots for v in r.vectors]
    m = len(ints)
    if m % 2:
        return Inconclusive("odd-dimensional odd part cannot be symplectic")
    n = m // 2
    even_dim = len(g.even_indices)
    if even_dim != n * (2 * n + 1):
        return Inconclusive(
            f"even part has dimension {even_dim}, expected {n * (2 * n + 1)}"
        )
    # the independent brackets (p, q, D [B_p, B_q]) of the root vectors
    # u = B / L, over one common denominator L
    pair_brackets, spanning = Echelon(), []
    for p in range(m):
        for q in range(p, m):
            w = _product(g._table, ints[p], ints[q])
            if pair_brackets.add(w):
                spanning.append((p, q, w))
    if pair_brackets.rank != even_dim:
        return Inconclusive(
            "the squared bracket map on the odd part is not onto the even part"
        )
    pairs = _opposite_pairs(g, odd_roots, ints, den)
    if pairs is None:
        return Inconclusive(
            "the odd roots do not pair off by opposite weights with a nonzero form"
        )
    phi = _build_osp_isomorphism(g, ints, den, pairs, spanning, n)
    if phi is None:
        return Inconclusive("basis map construction failed to intertwine brackets")
    return Osp(n, phi)


def _opposite_pairs(g: LieSuperalgebra, odd_roots: list[Root],
                    items: list[list[tuple[int, int]]],
                    den: int) -> list[tuple[int, int, Fraction]] | None:
    """The triples (p, q, beta(u_p, u_q)), p < q, in the order of p, that pair
    each 1-dimensional odd root u_p with the root u_q of opposite weight;
    beta is read off [[u_p, u_p], u_q] = 2 beta(u_p, u_q) u_p.  None when a
    root has no opposite, or a beta is zero or off the line of u_p.

    `items` are the root vectors over one common denominator L = `den`, as
    their nonzero (index, entry) pairs: B = L u.  [[B_p, B_p], B_q] is
    D^2 L^3 times the double bracket, so its ratio to B_p is 2 beta D^2 L^2."""
    index = {r.weight: p for p, r in enumerate(odd_roots)}
    pairs = []
    for p, r in enumerate(odd_roots):
        q = index.get(tuple(-a for a in r.weight))
        if q is None:
            return None
        if q < p:
            continue
        upp = _product(g._table, items[p], items[p])
        ratio = _proportion(_product(g._table, upp, items[q]), dict(items[p]))
        if not ratio:
            return None
        pairs.append((p, q, ratio / (2 * (g._den * den) ** 2)))
    return pairs


def _build_osp_isomorphism(g: LieSuperalgebra, items: list[list[tuple[int, int]]], den: int,
                           pairs: list[tuple[int, int, Fraction]],
                           spanning: list[tuple[int, int, dict[int, int]]],
                           n: int) -> Matrix | None:
    """The basis map onto build_osp1(n) given by the opposite pairs `pairs`,
    or None unless it intertwines the brackets (`_intertwines`).

    For each pair (p, r, beta(u_p, u_r)), in order, u_p goes to a_i and u_r
    to -beta(u_p, u_r) b_i: the family has beta(a_i, b_i) = -1 (its
    [a_i, a_i] sends b_i to -2 a_i), so the odd map is a beta-isometry.  The
    even map follows from the brackets `spanning`, (p, q, W) with W = D [B_p,
    B_q] and B = L u (L = `den`, `items` the nonzero pairs of the B) a basis
    of g0: W goes to D L^2 [phi u_p, phi u_q], read in the family basis by
    solving the supercommutators of the family's odd matrices
    (`families.osp1_defining`) in its even ones, so no family table is
    built.  The check makes the map bracket-preserving.  It is the
    isomorphism whenever one exists: any isomorphism psi is a beta-isometry
    on g1, the isometry phi psi^-1 of the family's odd part extends to an
    automorphism as Sp(2n) acts on osp(1|2n), and an isomorphism is fixed
    by its odd part as g0 = [g1, g1].

    The map is built and checked on sparse integer vectors; only the
    returned matrix is in Fractions."""
    from .families import osp1_defining, osp_odd_indices
    fam, parity, *_ = osp1_defining(n)
    # phi u_p = I_p / lb, with lb the lcm of the denominators of the betas
    lb = lcm(*(beta.denominator for *_, beta in pairs))
    odd_images: list[dict[int, int]] = [{}] * len(items)
    for (p, r, beta), a, b in zip(pairs, *osp_odd_indices(n)):
        odd_images[p] = {a: lb}
        odd_images[r] = {b: -beta.numerator * (lb // beta.denominator)}
    # [f_a, f_b] = sum_k (X_k / M) f_k for the family's odd f_a, f_b, from the
    # supercommutator M_a M_b + M_b M_a of their integer matrices
    d, even = fam.dim, [k for k, q in enumerate(parity) if q == EVEN]
    family_coordinates = integer_coordinates_in(
        [{r * d + c: x for r, row in enumerate(fam._table[k]) for c, x in row} for k in even])
    even_images, fden = [], 1
    for p, q, _ in spanning:
        ((a, x),), ((b, y),) = odd_images[p].items(), odd_images[q].items()
        ma, mb = fam._table[a], fam._table[b]
        product: dict[int, int] = {}
        for m1, m2 in ((ma, mb), (mb, ma)):
            for r, row in enumerate(m1):
                for c, v in _combine(row, m2).items():
                    product[r * d + c] = product.get(r * d + c, 0) + x * y * v
        # the family is closed under the supercommutator, so this is found
        coeffs, fden = family_coordinates({k: v for k, v in product.items() if v})
        even_images.append({even[t]: v for t, v in coeffs})
    # phi W = D L^2 [I_p, I_q] / lb^2 = D L^2 E / (lb^2 M), E = M [I_p, I_q];
    # for e_i = sum_s (X_s / M') B_s, phi e_i = (L / lb) sum_s (X_s / M') I_s;
    # for e_i = sum_s (X_s / M') W_s, phi e_i = (D L^2 / (lb^2 M)) sum_s (X_s / M') E_s
    odd = integer_coordinates_in([dict(v) for v in items]), odd_images, den, lb
    even = (integer_coordinates_in([w for *_, w in spanning]), even_images,
            g._den * den ** 2, lb ** 2 * fden)
    images = []  # (E, c, d): phi e_i = c E / d
    for i in range(g.dim):
        coordinates, targets, c, d = even if g.parity[i] == EVEN else odd
        found = coordinates({i: 1})
        if found is None:
            return None
        images.append((_combine(found[0], targets), c, found[1] * d))
    # phi e_i = Phi_i / lc, over one common denominator
    lc = lcm(*(d for *_, d in images))
    big = [[(t, x * c * (lc // d)) for t, x in e.items()] for e, c, d in images]
    if not _intertwines(g, fam, big, lc):
        return None
    return Matrix.from_columns([fraction_vector(col, len(parity), lc) for col in big])


def _intertwines(g: LieSuperalgebra, fam: SuperModule, images: list[list[tuple[int, int]]],
                 lc: int) -> bool:
    """Whether phi e_i = Phi_i / lc, for Phi_i = images[i] the nonzero pairs
    of an integer vector in the basis of a matrix algebra whose basis
    matrices M_t are the integer rows `fam._table[t]` (over `fam._den`),
    preserves brackets.

    The map rho from the algebra to its matrices is injective and
    bracket-preserving, so phi preserves brackets exactly when the integer
    matrices P_i = sum_t Phi_i[t] M_t = lc fam._den rho(phi e_i) obey the
    representation law of g: `core._law_failures` on their columns,
    transposed as `reps.validate_module` does, over the pairs of
    `_intertwining_pairs`.  Those suffice because g is a Lie superalgebra:
    its designated rep is accepted first (`_lawful_rep`), which on a
    certified g costs one identity check."""
    g._lawful_rep()
    d = fam.dim
    cols = [_transpose(fam._combine(img), d, [1] * d) for img in images]
    return not _law_failures(g, cols, lc * fam._den, _intertwining_pairs(g))


def _intertwining_pairs(g: LieSuperalgebra):
    """The pairs i <= j on which `_intertwines` checks a map: those touching
    an odd row, |odd| dim - C(|odd|, 2) of them.

    g is a Lie superalgebra, and the x with phi [x, y] = [phi x, phi y] for
    every y form a subalgebra, as both sides obey Jacobi (Jacobson, Lie
    Algebras, 1962, ch. I); so it is enough to check the x in a generating
    set, and the odd basis generates g when [g1, g1] = g0, as
    `_certify_osp` checks.  Both sides are super-antisymmetric, so the
    pairs i <= j suffice."""
    odd = g.odd_indices
    for i in range(g.dim):
        yield from ((i, j) for j in (range(i, g.dim) if g.parity[i] else odd) if j >= i)


# ---------------------------------------------------------------------------
# the structural scan for the semisimple-square cone
# ---------------------------------------------------------------------------

@dataclass
class ScanReport:
    """Outcome of `g1ss_structural_scan`: a nonzero odd element with
    semisimple square, or None when the cone is certified to be zero; and, for
    a certified-zero cone, one record per factor of the decomposition (center,
    even simple ideal, or the classified odd ideal).  The records are empty
    when a witness is returned."""

    witness: Vec | None
    factors: list[dict]


def g1ss_structural_scan(g: LieSuperalgebra) -> ScanReport:
    """Decide the semisimple-square cone in one pass.

    Looks for a witness among the odd parts of central elements and among the
    odd root vectors (and rational isotropic combinations in larger odd root
    spaces); failing that, decomposes g into its center and simple ideals and
    classifies each odd factor.  The cone is certified zero exactly when every
    odd factor classifies as osp(1|2n).  The center and the root datum of g are
    computed once and reused by the decomposition, which gives each factor
    g's datum restricted to it; a factor's odd roots are g's, walked above.
    """
    if not g.odd_indices:
        return ScanReport(None, [{"factor": "purely even", "dim": g.dim}])
    for z in g.center():
        zo = g.odd_part(z)
        if not is_zero_vec(zo) and g.in_g1ss(zo):
            return ScanReport(zo, [])
    datum = g._root_datum()
    for r in datum.odd_roots():
        u = _root_witness(g, r)
        if u is not None:
            return ScanReport(u, [])
    dec = g.direct_sum_decompose()
    factors = [{"factor": "center", "dim": len(dec.center)}] if dec.center else []
    for sub in dec.subalgebras:
        if not sub.odd_indices:
            factors.append({"factor": "even simple ideal", "dim": sub.dim})
            continue
        outcome = _certify_osp(sub, sub._root_datum().odd_roots())
        if isinstance(outcome, Inconclusive):
            raise ClassificationInconclusive(outcome.reason)
        factors.append({"factor": f"Osp({outcome.n})", "dim": sub.dim})
    return ScanReport(None, factors)
