"""Root decompositions and the classification decision procedure.

`classify_simple` runs the structure-theoretic argument that pins down the
orthosymplectic family: on a simple quasireductive algebra with nonzero odd
part, walk the odd roots of a Cartan subalgebra of the even part.  A root
vector with zero weight or square zero (or, in a higher-dimensional odd root
space, a rational isotropic combination) is a certified member of the
semisimple-square cone and is returned as a witness.  If no odd root yields a
witness, every odd root space is one-dimensional with nonzero nilpotent
square; the procedure then verifies that the odd part is a symplectic space
whose squared bracket map is an isomorphism onto the even part, reconstructs
the invariant symplectic form from the triple bracket, reduces it to a
Darboux basis, and produces an explicit bracket-preserving isomorphism onto
`build_osp1(n)`.

`g1ss_structural_scan` extends this to products of a center and simple
ideals: it certifies that the semisimple-square cone is zero exactly when
every odd factor classifies as osp(1|2n), and otherwise exhibits a nonzero
witness.  The cone condition is decided structurally, never by sampling.
The scan runs in one pass and returns a `ScanReport`: the witness or None,
and for a certified-zero cone the per-factor records the CLI prints.  It
decomposes g once, reusing the center and root datum it has already looked
at, and classifies each odd factor from the subalgebra the decomposition
built for its certificate.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt
from typing import Sequence

from .core import EVEN, ODD, LieSuperalgebra, SuperkitError
from .linalg import (
    Matrix,
    Q,
    Vec,
    coordinates_in,
    in_span,
    is_zero_vec,
    kernel_basis,
    rational_eigenspaces,
    solve_linear,
    span_basis,
    splits_semisimply_over_q,
    vec,
    vec_add,
    vec_scale,
    zero_vec,
)

DEFAULT_SEED = 20230


class NonSemisimpleCartanAction(SuperkitError):
    """A supplied Cartan element does not act semisimply with rational spectrum."""


class CartanSearchFailed(SuperkitError):
    """The randomized Cartan search exhausted its retry budget."""


class ClassificationInconclusive(SuperkitError):
    """The structural scan could not certify either outcome."""


@dataclass
class Root:
    weight: tuple[Fraction, ...]
    parity: int
    space: list[Vec]

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

def find_cartan(g: LieSuperalgebra, seed: int = DEFAULT_SEED,
                attempts: int = 200) -> list[Vec]:
    """Maximal toral subalgebra of the even part, by randomized search.

    Grows a commuting family of elements whose adjoint actions are
    diagonalizable with rational spectrum, restricting the search to the
    centralizer of what has been found so far (sparse random combinations of
    the current centralizer basis are far more likely to have rational
    spectrum than dense ones).  Succeeds when the centralizer becomes abelian
    with every basis element acting semisimply; that centralizer is the
    Cartan subalgebra.  Requires a reductive even part; raises
    CartanSearchFailed after the per-round retry budget.
    """
    even = g.even_indices
    if not even:
        return []
    rng = random.Random(seed)
    toral: list[Vec] = []
    cent: list[Vec] = [g.basis_vector(i) for i in even]
    for _round in range(len(even) + 1):
        if _is_abelian_family(g, cent) and all(
            splits_semisimply_over_q(g.ad_matrix(t)) for t in cent
        ):
            return cent
        found = None
        for attempt in range(attempts):
            support = rng.randint(1, min(3, len(cent)))
            x = zero_vec(g.dim)
            for b in rng.sample(cent, support):
                c = Q(rng.randint(-3, 3))
                if c:
                    x = [a + c * e for a, e in zip(x, b)]
            if is_zero_vec(x) or in_span(toral, x) is not None:
                continue
            if splits_semisimply_over_q(g.ad_matrix(x)):
                found = x
                break
        if found is None:
            raise CartanSearchFailed(
                f"no rational Cartan subalgebra found in {attempts} attempts"
            )
        toral.append(found)
        cent = _centralizer_within(g, cent, found)
    raise CartanSearchFailed("toral family failed to stabilize")


def _centralizer_within(g: LieSuperalgebra, space: list[Vec], x: Vec) -> list[Vec]:
    """Basis of {y in span(space) : [y, x] = 0}."""
    cols = [g.bracket(v, x) for v in space]
    kern = kernel_basis(Matrix.from_columns(cols))
    out = []
    for coords in kern:
        v = zero_vec(g.dim)
        for c, b in zip(coords, space):
            if c:
                v = [a + c * e for a, e in zip(v, b)]
        out.append(v)
    return out


def _is_abelian_family(g: LieSuperalgebra, vecs: list[Vec]) -> bool:
    return all(
        is_zero_vec(g.bracket(a, b)) for t, a in enumerate(vecs) for b in vecs[t + 1:]
    )


# ---------------------------------------------------------------------------
# root decomposition
# ---------------------------------------------------------------------------

def root_decomposition(g: LieSuperalgebra, cartan: Sequence[Sequence]) -> RootDatum:
    """Simultaneous eigenspace decomposition of the adjoint action of a
    commuting, rationally-semisimple family of even elements, labeled by
    weight and parity."""
    cartan = [vec(t) for t in cartan]
    for t in cartan:
        if not g.is_even_element(t):
            raise NonSemisimpleCartanAction("Cartan elements must be even")
        if not splits_semisimply_over_q(g.ad_matrix(t)):
            raise NonSemisimpleCartanAction(
                "a Cartan element acts with non-squarefree minimal polynomial "
                "or irrational spectrum"
            )
    if not _is_abelian_family(g, cartan):
        raise NonSemisimpleCartanAction("Cartan elements do not commute")
    roots: list[Root] = []
    for parity, idx in ((EVEN, g.even_indices), (ODD, g.odd_indices)):
        if not idx:
            continue
        spaces: list[tuple[tuple[Fraction, ...], list[Vec]]] = [
            ((), [g.basis_vector(i) for i in idx])
        ]
        for t in cartan:
            adt = g.ad_matrix(t)
            refined = []
            for weight, basis in spaces:
                coordinates = coordinates_in(basis)
                bmat = Matrix.from_columns(basis)
                k_cols = []
                for v in basis:
                    w = adt.matvec(v)
                    coords = coordinates(w)
                    if coords is None:
                        raise NonSemisimpleCartanAction(
                            "Cartan action does not preserve a weight space"
                        )
                    k_cols.append(coords)
                kmat = Matrix.from_columns(k_cols)
                eig = rational_eigenspaces(kmat)
                if sum(len(b) for _, b in eig) != len(basis):
                    raise NonSemisimpleCartanAction(
                        "irrational spectrum in the Cartan action"
                    )
                for lam, small in eig:
                    lifted = [bmat.matvec(s) for s in small]
                    refined.append((weight + (lam,), lifted))
            spaces = refined
        for weight, basis in spaces:
            roots.append(Root(weight=weight, parity=parity, space=basis))
    roots.sort(key=lambda r: (r.parity, r.weight))
    return RootDatum(cartan=cartan, roots=roots)


def cartan_of(g: LieSuperalgebra, cartan: Sequence[Sequence] | None = None,
              seed: int = DEFAULT_SEED) -> list[Vec]:
    if cartan is not None:
        return [vec(t) for t in cartan]
    if g.cartan is not None:
        return [g.basis_vector(i) for i in g.cartan]
    return find_cartan(g, seed=seed)


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
# symplectic (Darboux) reduction
# ---------------------------------------------------------------------------

def darboux_basis(gram: Matrix) -> list[Vec] | None:
    """Coordinates of a basis x_1..x_n, y_1..y_n with form(x_i, y_j) = delta_ij
    for a nondegenerate alternating Gram matrix, or None if degenerate."""
    m = gram.rows
    if m % 2:
        return None

    def form(u: Vec, w: Vec) -> Fraction:
        return sum((u[r] * sum(gram.data[r][c] * w[c] for c in range(m))
                    for r in range(m)), Q(0))

    remaining = [[Q(1) if r == t else Q(0) for r in range(m)] for t in range(m)]
    xs: list[Vec] = []
    ys: list[Vec] = []
    while remaining:
        u = remaining[0]
        partner = next((w for w in remaining[1:] if form(u, w) != 0), None)
        if partner is None:
            return None
        w = vec_scale(Q(1) / form(u, partner), partner)
        xs.append(u)
        ys.append(w)
        projected = []
        for x in remaining:
            x2 = vec_add(x, vec_sub_scaled(u, w, form(w, x), form(u, x)))
            if not is_zero_vec(x2):
                projected.append(x2)
        remaining = span_basis(projected)
    return xs + ys


def vec_sub_scaled(u: Vec, w: Vec, cu: Fraction, cw: Fraction) -> Vec:
    """cu * u - cw * w."""
    return [cu * a - cw * b for a, b in zip(u, w)]


# ---------------------------------------------------------------------------
# the classification procedure
# ---------------------------------------------------------------------------

def _extract_form(g: LieSuperalgebra, odd_basis: list[Vec]) -> Matrix | None:
    """Reconstruct the symplectic form beta on the odd part from the triple
    bracket via [[u, u], w] = 2 beta(u, w) u, then verify the two-variable
    identity [[u, v], w] = beta(u, w) v + beta(v, w) u on all triples."""
    m = len(odd_basis)
    coordinates = coordinates_in(odd_basis)
    gram = Matrix.zeros(m, m)
    for p in range(m):
        upp = g.bracket(odd_basis[p], odd_basis[p])
        for r in range(m):
            t = g.bracket(upp, odd_basis[r])
            coords = coordinates(t)
            if coords is None:
                return None
            if any(c != 0 for i, c in enumerate(coords) if i != p):
                return None
            gram.data[p][r] = coords[p] / 2
    for p in range(m):
        for q in range(m):
            for r in range(m):
                t = g.bracket(g.bracket(odd_basis[p], odd_basis[q]), odd_basis[r])
                expected = vec_add(
                    vec_scale(gram.data[p][r], odd_basis[q]),
                    vec_scale(gram.data[q][r], odd_basis[p]),
                )
                if t != expected:
                    return None
    return gram


def classify_simple(g: LieSuperalgebra, cartan: Sequence[Sequence] | None = None):
    """Decision procedure for a simple quasireductive algebra with nonzero odd
    part: returns Osp(n) with an explicit isomorphism, a Witness in the
    semisimple-square cone, or Inconclusive with a reason."""
    if not g.odd_indices:
        return Inconclusive("the algebra has no odd part")
    try:
        cartan_vecs = cartan_of(g, cartan)
        datum = root_decomposition(g, cartan_vecs)
    except SuperkitError as exc:
        return Inconclusive(str(exc))
    odd_roots = datum.odd_roots()
    for r in odd_roots:
        for u in r.space:
            if g.in_g1ss(u):
                return Witness(u)
        if r.is_zero_weight:
            return Inconclusive(
                "zero-weight odd vector whose square is not semisimple"
            )
        if len(r.space) > 1:
            v = isotropic_combination(g, r.space)
            if v is not None and g.in_g1ss(v):
                return Witness(v)
            return Inconclusive(
                "higher-dimensional odd root space with no rational "
                "square-zero combination"
            )
    # every odd root space is now 1-dimensional with nonzero nilpotent square;
    # the double of each odd root is automatically an even root (the square is
    # a nonzero even vector of doubled weight).  Certify the osp structure.
    odd_basis = [u for r in odd_roots for u in r.space]
    m = len(odd_basis)
    if m != len(g.odd_indices):
        return Inconclusive("odd root spaces do not exhaust the odd part")
    if m % 2:
        return Inconclusive("odd-dimensional odd part cannot be symplectic")
    n = m // 2
    even_dim = len(g.even_indices)
    if even_dim != n * (2 * n + 1):
        return Inconclusive(
            f"even part has dimension {even_dim}, expected {n * (2 * n + 1)}"
        )
    pair_brackets = [
        g.bracket(odd_basis[p], odd_basis[q])
        for p in range(m)
        for q in range(p, m)
    ]
    if len(span_basis(pair_brackets)) != even_dim:
        return Inconclusive(
            "the squared bracket map on the odd part is not onto the even part"
        )
    gram = _extract_form(g, odd_basis)
    if gram is None:
        return Inconclusive("the triple bracket is not of symplectic type")
    if not gram.add(gram.transpose()).is_zero():
        return Inconclusive("reconstructed form is not alternating")
    dar = darboux_basis(gram)
    if dar is None:
        return Inconclusive("reconstructed form is degenerate")
    phi = _build_osp_isomorphism(g, odd_basis, dar, n)
    if phi is None:
        return Inconclusive("basis map construction failed to intertwine brackets")
    return Osp(n, phi)


def _build_osp_isomorphism(g: LieSuperalgebra, odd_basis: list[Vec],
                           dar: list[Vec], n: int) -> Matrix | None:
    from .families import build_osp1
    fam = build_osp1(n)
    fam_odd = [fam.basis_vector(i) for i in fam.odd_indices]
    fam_gram = _extract_form(fam, fam_odd)
    fam_dar = darboux_basis(fam_gram)
    if fam_dar is None:
        return None
    m = 2 * n
    # source Darboux vectors in full g coordinates
    src = []
    for coeffs in dar:
        v = zero_vec(g.dim)
        for c, b in zip(coeffs, odd_basis):
            v = vec_add(v, vec_scale(c, b))
        src.append(v)
    # target Darboux vectors in full fam coordinates
    tgt = []
    for coeffs in fam_dar:
        v = zero_vec(fam.dim)
        for c, b in zip(coeffs, fam_odd):
            v = vec_add(v, vec_scale(c, b))
        tgt.append(v)
    # odd map: express an odd vector in the source Darboux basis, push the
    # coordinates onto the target Darboux basis
    src_coordinates = coordinates_in(src)
    tgt_coordinates = coordinates_in(tgt)
    tgt_mat = Matrix.from_columns(tgt)

    def phi_odd(v: Vec) -> Vec | None:
        coords = src_coordinates(v)
        if coords is None:
            return None
        return tgt_mat.matvec(coords)

    # even map: match adjoint actions on the odd part in Darboux coordinates
    fam_even = fam.even_indices
    act_cols = []
    for e in fam_even:
        ade = fam.ad_matrix(fam.basis_vector(e))
        entries = []
        for w in tgt:
            img = ade.matvec(w)
            coords = tgt_coordinates(img)
            if coords is None:
                return None
            entries.extend(coords)
        act_cols.append(entries)
    act_mat = Matrix.from_columns(act_cols)

    def phi_even(x: Vec) -> Vec | None:
        adx = g.ad_matrix(x)
        entries = []
        for w in src:
            img = adx.matvec(w)
            coords = src_coordinates(img)
            if coords is None:
                return None
            entries.extend(coords)
        sol = solve_linear(act_mat, entries)
        if sol is None:
            return None
        out = zero_vec(fam.dim)
        for t, e in enumerate(fam_even):
            out[e] = sol[t]
        return out

    cols = []
    for i in range(g.dim):
        b = g.basis_vector(i)
        img = phi_even(b) if g.parity[i] == EVEN else phi_odd(b)
        if img is None:
            return None
        cols.append(img)
    phi = Matrix.from_columns(cols)
    # exact intertwining check on all basis pairs
    for i in range(g.dim):
        for j in range(g.dim):
            lhs = phi.matvec(g.bracket_basis(i, j))
            rhs = fam.bracket(phi.column(i), phi.column(j))
            if lhs != rhs:
                return None
    return phi


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
    computed once and reused by the decomposition, and each factor is
    classified from the subalgebra the decomposition built to certify it.
    """
    if not g.odd_indices:
        return ScanReport(None, [{"factor": "purely even", "dim": g.dim}])
    for z in g.center():
        zo = g.odd_part(z)
        if not is_zero_vec(zo) and g.in_g1ss(zo):
            return ScanReport(zo, [])
    datum = g._root_datum()
    # the datum may be the algebra's shared one: hand out copies of its vectors
    for r in datum.odd_roots():
        for u in r.space:
            if g.in_g1ss(u):
                return ScanReport(list(u), [])
        if len(r.space) > 1:
            v = isotropic_combination(g, r.space)
            if v is not None and g.in_g1ss(v):
                return ScanReport(list(v), [])
    dec = g.direct_sum_decompose()
    full = dec.center + [v for f in dec.ideals for v in f]
    factors = [{"factor": "center", "dim": len(dec.center)}] if dec.center else []
    for f, sub in zip(dec.ideals, dec.subalgebras):
        if not sub.odd_indices:
            factors.append({"factor": "even simple ideal", "dim": sub.dim})
            continue
        outcome = classify_simple(sub, _project_cartan(g, datum.cartan, f, full))
        if isinstance(outcome, Witness):
            w = zero_vec(g.dim)
            for c, b in zip(outcome.u, f):
                w = vec_add(w, vec_scale(c, b))
            if g.in_g1ss(w):
                return ScanReport(w, [])
            raise ClassificationInconclusive("factor witness failed re-verification")
        if isinstance(outcome, Inconclusive):
            raise ClassificationInconclusive(outcome.reason)
        factors.append({"factor": f"Osp({outcome.n})", "dim": sub.dim})
    return ScanReport(None, factors)


def _project_cartan(g: LieSuperalgebra, cartan_vecs: list[Vec], factor: list[Vec],
                    full_basis: list[Vec]) -> list[Vec]:
    """Project Cartan elements onto a factor of a direct decomposition and
    express them in the factor's coordinates."""
    full_mat = Matrix.from_columns(full_basis)
    offset = None
    # locate the factor block inside the full basis list
    for start in range(len(full_basis) - len(factor) + 1):
        if all(full_basis[start + t] is factor[t] for t in range(len(factor))):
            offset = start
            break
    if offset is None:
        raise SuperkitError("factor basis not found in decomposition basis")
    out: list[Vec] = []
    for t in cartan_vecs:
        coords = solve_linear(full_mat, t)
        if coords is None:
            raise SuperkitError("Cartan element outside the decomposition span")
        proj = coords[offset:offset + len(factor)]
        if any(c != 0 for c in proj):
            out.append(proj)
    return span_basis(out)
