"""Finite-dimensional Lie superalgebras over the rationals.

A `LieSuperalgebra` is a basis with parities and rational structure constants
c[i][j][k] meaning [e_i, e_j] = sum_k c[i][j][k] e_k.  They are stored once,
as one sparse integer table over a common denominator D: for each (i, j) the
pairs (k, C) with c[i][j][k] = C / D.  `_structure_table` builds it, and the
one product kernel `_product` multiplies through it; the multiplication of
`supercomm.SupercommAlgebra` is stored and computed the same way.  Brackets,
adjoint matrices, the center, `validate`, the root graph of
`direct_sum_decompose` and `restricted_subalgebra`, which builds each of its
factors, work on that table with sparse integer vectors V / L, given as
their nonzero (index, entry) pairs or as dicts {index: entry}: Fractions
become such vectors once on entry (`linalg._sparse_integer_rows`),
`_product` combines them, and results become Fractions only on the way out
(`linalg.fraction_vector`).  `bracket`, `structure_constant`,
`bracket_basis` and `bracket_sparse` are Fraction views of the table.  The
super axioms, checked in turn by `_grading_failures`, `_asymmetric_pairs`
and `_law_failures` (through `_super_law_failures`), which also check
modules, `supercomm` products and the basis maps of `roots`:

* parity homogeneity: c[i][j][k] = 0 unless |k| = |i| + |j| (mod 2),
* super-antisymmetry: [x, y] = -(-1)^{|x||y|} [y, x],
* super Jacobi, in derivation form, which is the representation law of the
  adjoint module (as associativity is the law of the left-regular columns):
  [x, [y, z]] = [[x, y], z] + (-1)^{|x||y|} [y, [x, z]].

Element semisimplicity ("acts diagonalizably over an algebraic closure") is
tested in a designated faithful representation via a squarefree minimal
polynomial; the adjoint representation alone would misclassify central
elements, so algebras that want the test must carry a `faithful_rep`.
Built-in families attach their defining matrix representation.  The test
and the other uses of it here combine its integer action rows
(`reps.SuperModule`) directly; `element_matrix` is their Fraction view.

The cone of odd elements with semisimple square (`in_g1ss`) is the central
obstruction set of this package: it is nonzero exactly when the corresponding
supergroup has non-semisimple representation theory.  It is tested by the
block route of `_square_is_semisimple`, on the rows of X = rho(u) alone: X
swaps the parity pieces V0 and V1 of the rep, so X^2 = diag(AB, BA), and AB
and BA have the same elementary divisors away from 0 (Flanders, Proc. AMS 2,
1951).  So one minimal polynomial of the k x k product on the smaller side
(k = min(dim V0, dim V1), 1 on osp(1|2n)) decides it, with one product
B r(AB) A when that polynomial vanishes at 0.  The route needs rho([u,u]/2)
= rho(u)^2, the representation law.  A rep is accepted only when it is
faithful and lawful, certified once per rep and its data (`_rep_refusal`):
by construction for the family builders, products and restricted
subalgebras, by `fileformat.axiom_check` for a parsed rep, and by one
faithfulness test and one `reps.validate_module` on first use otherwise.
An accepted rep makes g a Lie superalgebra, the image of g in gl(V), which
`roots._intertwines` uses to check a basis map on the odd rows alone.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import gcd, lcm
from operator import add
from typing import TYPE_CHECKING, Iterable, Sequence

from .linalg import (
    Echelon,
    Matrix,
    Q,
    Vec,
    _combine,
    fraction_vector,
    integer_coordinates_in,
    _echelon,
    _kernel,
    _minimal_polynomial,
    _poly_apply,
    _sparse_integer_rows,
    is_squarefree,
    kernel_of_rows,
    zero_vec,
)

if TYPE_CHECKING:  # pragma: no cover
    from .reps import SuperModule
    from .supercomm import SupercommAlgebra

EVEN, ODD = 0, 1

# an integer vector, as its nonzero (index, entry) pairs or as {index: entry}
SparseVec = Sequence[tuple[int, int]] | dict[int, int]

# a structure table T over a denominator D: e_i e_j = sum C / D e_k over the
# (k, C) of T[i][j], sorted by k and nonzero
Table = list[list[tuple[tuple[int, int], ...]]]


def _structure_table(n: int, items: Iterable[tuple[int, int, int, object]]) -> tuple[Table, int]:
    """(T, D) for the rational constants c[i][j][k] = q of the (i, j, k, q)
    in items (the last wins; zeros are dropped): the n x n table over the
    least common denominator D of the q."""
    items = [(i, j, k, q if type(q) is Fraction else Q(q)) for i, j, k, q in items]
    den = lcm(*{q.denominator for *_, q in items})
    pairs: list[list[dict[int, int]]] = [[{} for _ in range(n)] for _ in range(n)]
    for i, j, k, q in items:
        pairs[i][j][k] = q.numerator * (den // q.denominator)
    return [[tuple(sorted((k, c) for k, c in row.items() if c)) if row else ()
             for row in block] for block in pairs], den


def _require_length(n: int, *xs: Sequence) -> None:
    """Refuse coordinate vectors whose length is not n, the dimension."""
    if any(len(x) != n for x in xs):
        raise ValueError("coordinate vectors must have length dim")


def _product(table: Table, x: SparseVec, y: SparseVec) -> dict[int, int]:
    """sum x_i y_j T[i][j] = D x y for integer vectors x, y (nonzero (index,
    entry) pairs or dicts {index: entry}), as {k: entry} without zeros: the
    one product kernel, of brackets and of supercommutative products."""
    if isinstance(x, dict):
        x = x.items()
    if isinstance(y, dict):
        y = y.items()
    out: dict[int, int] = {}
    for i, a in x:
        row = table[i]
        for j, b in y:
            ab = a * b
            for k, c in row[j]:
                out[k] = out.get(k, 0) + ab * c
    return {k: c for k, c in out.items() if c}


class SuperkitError(Exception):
    """Base class for structured failures in this package."""


class NotSemisimpleStructure(SuperkitError):
    """The algebra is not a direct product of its center and simple ideals."""


class _Basis:
    """The graded basis, `parity` and `names`, of an algebra stored as a
    structure table: `LieSuperalgebra` and `supercomm.SupercommAlgebra`."""

    @property
    def dim(self) -> int:
        return len(self.parity)

    @property
    def even_indices(self) -> list[int]:
        return [i for i, p in enumerate(self.parity) if p == EVEN]

    @property
    def odd_indices(self) -> list[int]:
        return [i for i, p in enumerate(self.parity) if p == ODD]

    def basis_vector(self, i: int) -> Vec:
        v = zero_vec(self.dim)
        v[i] = Q(1)
        return v

    def describe(self, x: Sequence) -> str:
        """Pretty form of a coordinate vector, e.g. '2*h - a'."""
        return _format_terms(zip(x, self.names))


class LieSuperalgebra(_Basis):
    """Immutable-by-convention Lie superalgebra with rational structure constants."""

    def __init__(
        self,
        parity: Sequence[int],
        brackets: dict[tuple[int, int], dict[int, Fraction]] | Sequence[Sequence[Sequence]],
        names: Sequence[str] | None = None,
        faithful_rep: "SuperModule | None" = None,
        cartan: Sequence[int] | None = None,
    ) -> None:
        n = len(parity)
        if isinstance(brackets, dict):
            items = [(i, j, k, val) for (i, j), comps in brackets.items()
                     for k, val in comps.items()]
        else:
            items = [(i, j, k, val) for i in range(n) for j in range(n)
                     for k, val in enumerate(brackets[i][j])]
        self._init(parity, *_structure_table(n, items), names, faithful_rep, cartan)

    @classmethod
    def _of_table(cls, parity: Sequence[int], table: Table, den: int,
                  names: Sequence[str] | None = None,
                  faithful_rep: "SuperModule | None" = None,
                  cartan: Sequence[int] | None = None,
                  lawful: bool = False) -> "LieSuperalgebra":
        """The algebra with the given integer table over D = den: c[i][j][k] =
        C / D for each (k, C) in table[i][j], sorted by k and nonzero.  D is
        divided by its gcd with every entry, so it is the least common
        denominator, as the constructor computes it.  `lawful` certifies the
        rep as faithful and obeying the representation law, for a caller
        that built it so (`_certify_rep`)."""
        common = gcd(den, *(c for block in table for row in block for _, c in row))
        if common > 1:
            table = [[tuple((k, c // common) for k, c in row) for row in block]
                     for block in table]
        g = cls.__new__(cls)
        g._init(parity, table, den // common, names, faithful_rep, cartan)
        if lawful and faithful_rep is not None:
            g._certify_rep()
        return g

    def _init(self, parity, table, den, names, faithful_rep, cartan) -> None:
        self.parity = tuple(int(p) % 2 for p in parity)
        n = len(self.parity)
        # c[i][j][k] = C / D for each (k, C) in _table[i][j], sorted by k
        self._den = den
        self._table: Table = table
        self.names = tuple(names) if names else tuple(f"e{i}" for i in range(n))
        if len(self.names) != n:
            raise ValueError("need one name per basis element")
        self.faithful_rep = faithful_rep
        # the data the rep was certified faithful and lawful on
        self._certificate: tuple | None = None
        self.cartan = tuple(cartan) if cartan is not None else None
        self._sparse: list[list[tuple[tuple[int, Fraction], ...]]] | None = None
        # computed once, shared by the structural scan and the decomposition
        self._center: list[Vec] | None = None
        self._adjoint: "SuperModule | None" = None
        self._datum_cache = None

    # -- basic structure ----------------------------------------------------

    def structure_constant(self, i: int, j: int, k: int) -> Fraction:
        return next((Q(c, self._den) for t, c in self._table[i][j] if t == k), Q(0))

    def bracket_basis(self, i: int, j: int) -> Vec:
        return fraction_vector(self._table[i][j], self.dim, self._den)

    def bracket_sparse(self, i: int, j: int) -> tuple[tuple[int, Fraction], ...]:
        """The nonzero (k, c[i][j][k]) as Fractions, read off the integer
        table (converted once per algebra, on first use)."""
        if self._sparse is None:
            den = self._den
            self._sparse = [
                [tuple((k, Q(c, den)) for k, c in row) for row in block]
                for block in self._table
            ]
        return self._sparse[i][j]

    def bracket(self, x: Sequence, y: Sequence) -> Vec:
        _require_length(self.dim, x, y)
        (xs, ys), den = _sparse_integer_rows((x, y))
        return fraction_vector(_product(self._table, xs, ys).items(), self.dim,
                               den * den * self._den)

    def ad_matrix(self, x: Sequence) -> Matrix:
        """Matrix of y -> [x, y] in the basis: x in the adjoint module."""
        return self._adjoint_module().matrix_of(x)

    def _adjoint_module(self) -> "SuperModule":
        """`reps.adjoint_module` of the algebra, built once."""
        if self._adjoint is None:
            from .reps import adjoint_module
            self._adjoint = adjoint_module(self)
        return self._adjoint

    def odd_part(self, x: Sequence) -> Vec:
        return [Q(c) if self.parity[i] == ODD else Q(0) for i, c in enumerate(x)]

    def is_even_element(self, x: Sequence) -> bool:
        return all(Q(c) == 0 or self.parity[i] == EVEN for i, c in enumerate(x))

    def is_odd_element(self, x: Sequence) -> bool:
        return all(Q(c) == 0 or self.parity[i] == ODD for i, c in enumerate(x))

    # -- axioms --------------------------------------------------------------

    def validate(self) -> list[str]:
        """All violated axiom instances; empty list means the axioms hold.

        Super Jacobi fails at the basis triple (i, j, k) when column k of
        [ad e_i, ad e_j] - ad [e_i, e_j] is nonzero: the representation law
        of the adjoint module, whose column table is g's own table, checked
        by `_super_law_failures`."""
        issues = [f"parity: c[{i}][{j}][{k}] = {Q(c, self._den)} violates grading"
                  for i, j, k, c in _grading_failures(self._table, self.parity, self.parity)]
        asymmetric = _asymmetric_pairs(self, -1)
        issues += [f"antisymmetry: [e{i},e{j}] vs [e{j},e{i}] disagree"
                   for i, j in asymmetric]
        issues += [f"jacobi: fails at triple ({i},{j},{k})"
                   for i, j, k in _super_law_failures(self, self._table, self._den,
                                                      not asymmetric)]
        return issues

    # -- odd squares and the semisimple cone ----------------------------------

    def odd_square(self, u: Sequence) -> Vec:
        """[u, u]/2 for odd u; always an even element."""
        _, sq, den = self._odd_square_rows(u)
        return fraction_vector(sq.items(), self.dim, 2 * den * den * self._den)

    def _odd_square_rows(self, u: Sequence) -> tuple[list[tuple[int, int]], dict[int, int], int]:
        """(U, S, L) for odd u = U / L: U the nonzero (index, entry) pairs of
        the integer vector L u, and S = D [U, U] = 2 D L^2 [u,u]/2 as {k:
        entry}, a positive multiple of the square."""
        _require_length(self.dim, u)
        (us,), den = _sparse_integer_rows((u,))
        if any(self.parity[i] == EVEN for i, _ in us):
            raise ValueError("odd_square requires a purely odd element")
        return us, _product(self._table, us, us), den

    def element_matrix(self, x: Sequence) -> Matrix:
        """Matrix of x in the designated faithful representation."""
        return self._require_rep().matrix_of(x)

    def _require_rep(self):
        if self.faithful_rep is None:
            raise SuperkitError(
                "this operation needs a designated faithful representation"
            )
        return self.faithful_rep

    def _lawful_rep(self) -> "SuperModule":
        """The designated rep, certified faithful and lawful
        (`_rep_refusal`); a SuperkitError refuses a missing rep, and one
        that is not faithful or breaks the parity or representation law."""
        rep = self._require_rep()
        refusal = self._rep_refusal()
        if refusal:
            raise SuperkitError(f"the faithful representation is refused: {refusal}")
        return rep

    def _rep_refusal(self) -> str | None:
        """Why the rep is refused, or None once it is accepted: the one
        acceptance test of a rep, first that it is faithful, then
        `reps.validate_module`.  It runs unless the rep is certified on its
        current data (`_rep_certificate`), so reassigning `faithful_rep`,
        its `parity` or its `_table` tests again, and certifies an accepted
        rep."""
        if self._rep_certificate():
            return None
        rep = self.faithful_rep
        if not _is_faithful(self, rep):
            return "the representation is not faithful (its matrices are linearly dependent)"
        from .reps import validate_module
        issues = validate_module(self, rep)
        if issues:
            return issues[0]
        self._certify_rep()
        return None

    def _certify_rep(self) -> None:
        """Record that the rep is faithful and obeys the representation law
        on the current data: then g is a Lie superalgebra, as the image of
        g in gl(V) is one."""
        rep = self.faithful_rep
        self._certificate = (rep, rep.parity, rep._table, rep._den,
                             self.parity, self._table, self._den)

    def _rep_certificate(self) -> bool:
        """Whether the rep is certified faithful and lawful on its current
        data: the rep, its parity and integer table, and g's own, compared
        by identity."""
        c, rep = self._certificate, self.faithful_rep
        return (c is not None and c[0] is rep and c[1] is rep.parity and c[2] is rep._table
                and c[3] is rep._den and c[4] is self.parity and c[5] is self._table
                and c[6] is self._den)

    def is_semisimple_element(self, x: Sequence) -> bool:
        """True iff x acts diagonalizably (over a closure) in the faithful rep,
        i.e. its matrix there has squarefree minimal polynomial: that of the
        integer matrix D rho(L x), for x = X / L, on the whole rep."""
        _require_length(self.dim, x)
        (xs,), _ = _sparse_integer_rows((x,))
        if any(self.parity[i] == ODD for i, _ in xs):
            raise ValueError("element semisimplicity is defined for even elements")
        return is_squarefree(_minimal_polynomial(self._require_rep()._combine(xs)))

    def in_g1ss(self, u: Sequence) -> bool:
        """Membership of the cone of odd u whose square [u,u]/2 is semisimple.

        Decided by the block route (`_square_is_semisimple`) on the integer
        rows of rho(U), u = U / L: rho(u) swaps V0 and V1, so rho(u)^2 =
        diag(AB, BA), and AB and BA share their elementary divisors away
        from 0 (Flanders, "Elementary divisors of AB and BA", Proc. AMS 2,
        1951).  One minimal polynomial of the product on the smaller parity
        side decides it.  The route uses rho([u,u]/2) = rho(u)^2, so the
        rep must be lawful (`_lawful_rep`); the square D [U, U]
        (`_odd_square_rows`) is formed only to refuse a table that breaks
        the grading."""
        us, sq, _ = self._odd_square_rows(u)
        return self._in_cone(us, sq)

    def _in_cone(self, us: SparseVec, sq: dict[int, int]) -> bool:
        """`in_g1ss` of u = U / L, for U the integer vector us and S = D [U, U]
        = sq: a ValueError when S is not even, a SuperkitError without a
        lawful rep, else `_square_is_semisimple` of rho(U)'s integer rows."""
        if any(self.parity[i] == ODD for i in sq):
            raise ValueError("element semisimplicity is defined for even elements")
        rep = self._lawful_rep()
        return _square_is_semisimple(rep._combine(us), rep.parity)

    # -- structural predicates -------------------------------------------------

    def center(self) -> list[Vec]:
        """Basis of {x : [x, e_i] = 0 for all i}."""
        if self._center is None:
            every = range(self.dim)
            rows = [r for j in every for r in self._bracket_rows(every, j, every)]
            self._center = kernel_of_rows(rows, self.dim)
        return [list(v) for v in self._center]

    def _bracket_rows(self, xs: Sequence[int], j: int, ks: Sequence[int]) -> list[dict[int, int]]:
        """The nonzero rows k in ks of the integer matrix of x -> D [x, e_j]
        on span(e_i : i in xs), as {t: c[i][j][k] D} for i = xs[t]."""
        keep = set(ks)
        block: dict[int, dict[int, int]] = {}
        for t, i in enumerate(xs):
            for k, c in self._table[i][j]:
                if k in keep:
                    block.setdefault(k, {})[t] = c
        return list(block.values())

    def _root_datum(self):
        """Root datum of the algebra's own Cartan subalgebra (`roots.cartan_of`:
        the given one, else `roots.find_cartan`'s deterministic search),
        computed once per algebra.  A factor of `direct_sum_decompose` is
        given its parent's datum, restricted to it, instead."""
        if self._datum_cache is None:
            from .roots import cartan_of, root_decomposition
            self._datum_cache = root_decomposition(self, cartan_of(self))
        return self._datum_cache

    def is_reductive_even_part(self) -> bool:
        """True iff the solvable radical of the even part equals its center.

        The radical is computed as the orthogonal complement of [g0, g0]
        under the trace form of the faithful representation (Cartan's
        criterion in characteristic zero).
        """
        return self._reductive_even_center() is not None

    def _reductive_even_center(self) -> list[dict[int, int]] | None:
        """A basis of the center z(g0) of the even part, as sparse integer
        vectors in even coordinates, when g0 is reductive; else None."""
        rep = self._require_rep()
        ev = self.even_indices
        if not ev:
            return []
        # a basis of [g0, g0] as integer rows D [e_a, e_b]; the scale of a
        # row does not change the kernel below
        derived = Echelon()
        basis: list[dict[int, int]] = []
        for a in ev:
            for b in ev:
                br = dict(self._table[a][b])
                if derived.add(br):
                    basis.append(br)
        # radical = {x in g0 : tr(rho(x) rho(y)) = 0 for all y in [g0,g0]},
        # with rho(x) and rho(y) as integer multiples D rho(e_i) and L D rho(y);
        # tr(A Y) is the sum of A[r][c] Y[c][r] over the nonzero entries of Y
        entries = [{(r, c): a for r, row in enumerate(rep._table[i]) for c, a in row}
                   for i in ev]
        rows = []
        for y in basis:
            ynz = [(r, c, b) for c, row in enumerate(rep._combine(y)) for r, b in row]
            rows.append([sum(a.get((r, c), 0) * b for r, c, b in ynz) for a in entries])
        radical = _kernel(rows, len(ev))[0]
        # center of g0 (as a Lie algebra), in even coordinates
        crows = [r for b in ev for r in self._bracket_rows(ev, b, ev)]
        center = _kernel(crows, len(ev))[0]
        # both are kernel bases, so independent: the spans agree when their
        # sizes do and the center lies in the radical's span
        span = _echelon(radical, len(ev))
        if len(center) == len(radical) and all(span.contains(z) for z in center):
            return center
        return None

    def is_quasireductive(self) -> bool:
        """Even part reductive and the odd part a semisimple even-part module.

        With g0 reductive, a finite-dimensional g0-module is semisimple iff
        the center z(g0) acts on it by semisimple endomorphisms (Bourbaki,
        Lie Groups and Lie Algebras, Ch. I, 6.5, Thm 4).  A basis of z(g0)
        commutes, so it acts semisimply iff each basis element z does; ad(z)
        vanishes on g0, so that is the squarefree minimal polynomial of
        ad(z) on all of g.
        """
        center = self._reductive_even_center()
        if center is None:
            return False
        ev, ad = self.even_indices, self._adjoint_module()
        return all(
            is_squarefree(_minimal_polynomial(ad._combine({ev[t]: c for t, c in z.items()})))
            for z in center)

    # -- decomposition into center and simple ideals ---------------------------

    def direct_sum_decompose(self) -> "Decomposition":
        """Split g as center x (simple ideals), or raise NotSemisimpleStructure.

        The factors are read off the root datum of the Cartan subalgebra H
        (`roots.cartan_of`; the center and the datum are computed once per
        algebra), and no ideal closure is grown:

        1. The zero-weight space of g must be span(H), even and odd, and every
           nonzero root space 1-dimensional, spanned by e_a.
        2. The root graph joins a, b and the root a + b (if a + b != 0)
           whenever [e_a, e_b] != 0.  A component C gives the ideal
           I_C = sum_{a in C} (g_a + [g_a, g_-a]): for b outside C, [e_b, -]
           kills e_a and, by Jacobi, [e_a, e_-a]; so distinct I_C commute.
           The center and the I_C must span g directly: with the e_a in
           distinct root spaces, a dimension check inside span(H).
        3. The generation digraph has a -> a + b when [e_b, e_a] != 0, and
           a -> d when x = [e_b, e_a] lies in H and d(x) != 0.  The e_c for
           the c that a reaches (a included), with the [e_-c, e_c], span the
           ideal generated by e_a: a bracket with a basis vector leaving that
           span would be an arrow.  A nonzero ideal K of I_C is an ideal of g
           (the rest of g commutes with I_C), so it is H-stable and graded:
           a sum of root spaces and a part in H.
           If K holds an e_a, it holds I_C when a reaches all of C; if not, K
           lies in H and commutes with every e_a, so it is central in I_C.
           Hence I_C is simple when every node reaches all of C and I_C has
           trivial center (and so is perfect).  Every node reaches all of C
           iff some a0 in C reaches all of C and all of C reaches a0: one
           search along the arrows and one against them.
        4. I_C has trivial center once step 2's directness check passes: a z
           central in I_C commutes with every other I_C' (step 2) and with
           the center, which with I_C span g, so z lies in the center of g
           and in I_C, whose intersection is 0.  No center is computed.

        Each factor's subalgebra is kept on the result, built by
        `_restricted_subalgebra` on its basis (the e_a of C, then its part
        of span(H)) from the products [e_a, e_b] the root graph has already
        formed, each on the line of e_{a+b} or in span(H), with g's root
        datum restricted to it as its own: e_a is a basis vector of it, and
        h in H acts on it as h's component in its part of span(H).  The
        arrows of a toral product x are read off the supports of x's
        nonzero coordinates in the Cartan elements.
        """
        zc = self.center()
        if _is_abelian(self):
            return Decomposition(zc, [], [])
        datum = self._root_datum()
        zero = {r.parity: len(r.vectors) for r in datum.roots if not any(r.weight)}
        if (zero.get(EVEN, 0), zero.get(ODD, 0)) != (len(datum.cartan), 0):
            raise NotSemisimpleStructure(
                f"the zero-weight space has dimension {zero.get(EVEN, 0)}|{zero.get(ODD, 0)}"
                f", not {len(datum.cartan)}|0: the Cartan subalgebra is not self-centralizing"
            )
        nodes = [r for r in datum.roots if any(r.weight)]
        if any(len(r.vectors) != 1 for r in nodes):
            raise NotSemisimpleStructure("a root space has dimension > 1")
        # the weights over one common denominator, as integer tuples
        wden = lcm(*(x.denominator for r in nodes for x in r.weight))
        weights = [tuple(x.numerator * (wden // x.denominator) for x in r.weight) for r in nodes]
        node = {(w, r.parity): a for a, (w, r) in enumerate(zip(weights, nodes))}
        # e_a = X_a / L_a, with X_a = {index: entry}
        items = [r.vectors[0] for r in nodes]
        dens = [r.den for r in nodes]
        # d(x) for x in H, up to a positive factor: the integer coordinates
        # of x in the Cartan elements against d's scaled weights; supports[s]
        # holds the d with d(h_s) != 0
        h_coordinates = integer_coordinates_in(datum.cartan)
        supports = [{d for d, wd in enumerate(weights) if wd[s]} for s in range(len(datum.cartan))]
        links: list[set[int]] = [set() for _ in nodes]  # the root graph
        arrows: list[set[int]] = [set() for _ in nodes]  # the generation digraph
        toral = []  # (a, W, L) with [e_a, e_-a] = W / L
        # (a, b, W, c) for each W = D [X_a, X_b] != 0, a <= b: on the line of
        # X_c, or in span(H) when c is None
        products = []
        # [X_a, X_b] can be nonzero only when X_b meets an index j with
        # [e_i, e_j] != 0 for some index i of X_a
        meets: dict[int, list[int]] = {}
        for b, x in enumerate(items):
            for j in x:
                meets.setdefault(j, []).append(b)
        for a, la in enumerate(dens):
            partners = {b for i in items[a] for j, row in enumerate(self._table[i])
                        if row for b in meets.get(j, ()) if b >= a}
            for b in sorted(partners):
                w = _product(self._table, items[a], items[b])
                if not w:
                    continue
                total = tuple(map(add, weights[a], weights[b]))
                joined = {a, b}
                if any(total):
                    c = node[total, (nodes[a].parity + nodes[b].parity) % 2]
                    targets = {c}
                    joined.add(c)
                else:
                    c = None
                    toral.append((a, w, la * dens[b] * self._den))
                    targets = _toral_targets(h_coordinates(w)[0], supports, weights)
                products.append((a, b, w, c))
                for t in joined:
                    links[t] |= joined
                arrows[a] |= targets
                arrows[b] |= targets
        components, home = [], {}
        for a in range(len(nodes)):
            if a not in home:
                components.append(sorted(_reachable(links, a)))
                home.update((c, len(components) - 1) for c in components[-1])
        spans = [Echelon() for _ in components]
        zero_parts: list[list[tuple[dict[int, int], int]]] = [[] for _ in components]  # (W, L)
        for a, w, den in toral:
            if spans[home[a]].add(w):
                zero_parts[home[a]].append((w, den))
        split = zc + [fraction_vector(w.items(), self.dim, den)
                      for part in zero_parts for w, den in part]
        direct = Echelon()
        if len(split) != len(datum.cartan) or not all(direct.add(v) for v in split):
            raise NotSemisimpleStructure(
                "center plus the root-graph ideals do not span the algebra directly"
            )
        from .roots import Root, RootDatum
        coordinates = integer_coordinates_in(split)
        hs, lh = _sparse_integer_rows(datum.cartan)
        h_split = [fraction_vector(x, len(split), den * lh)
                   for x, den in (coordinates(dict(h)) for h in hs)]
        start = len(zc)
        backward: list[set[int]] = [set() for _ in nodes]
        for a, targets in enumerate(arrows):
            for d in targets:
                backward[d].add(a)
        # each factor's root-pair products, at the roots' places in its basis
        place = {a: j for comp in components for j, a in enumerate(comp)}
        local = [[] for _ in components]
        for a, b, w, c in products:
            local[home[a]].append((a, b, w, c))
        del products
        factors, subalgebras = [], []
        for t, comp in enumerate(components):
            if not set(comp) <= _reachable(arrows, comp[0]) & _reachable(backward, comp[0]):
                raise NotSemisimpleStructure(
                    f"candidate ideal {t} is not simple: a root vector generates a proper ideal"
                )
            # the e_a of C, then its part of span(H), over one denominator
            parts = [(items[a], dens[a]) for a in comp] + zero_parts[t]
            den = lcm(*(d for _, d in parts))
            ints = [[(i, x * (den // d)) for i, x in v.items()] for v, d in parts]
            basis = [fraction_vector(v, self.dim, den) for v in ints]
            # V_j = (den / L_a) X_a for the root a at place j, so
            # D [V_j, V_k] = (den / L_a) (den / L_b) D [X_a, X_b]
            known = []
            for a, b, w, c in local[t]:
                scale = (den // dens[a]) * (den // dens[b])
                if scale != 1:
                    w = {i: scale * x for i, x in w.items()}
                known.append((place[a], place[b], w, None if c is None else place[c]))
            local[t] = None
            sub = self._restricted_subalgebra(ints, den, known, len(comp))
            roots = [Root(nodes[a].weight, nodes[a].parity, [{j: 1}], 1, sub.dim)
                     for j, a in enumerate(comp)]
            k = len(zero_parts[t])
            if k:
                roots.append(Root((Q(0),) * len(datum.cartan), EVEN,
                                  [{j: 1} for j in range(len(comp), sub.dim)], 1, sub.dim))
            roots.sort(key=lambda r: (r.parity, r.weight))
            sub._datum_cache = RootDatum(
                [[Q(0)] * len(comp) + c[start:start + k] for c in h_split], roots)
            start += k
            factors.append(basis)
            subalgebras.append(sub)
        return Decomposition(zc, factors, subalgebras)

    def restricted_subalgebra(self, basis_vectors: Sequence[Sequence]) -> "LieSuperalgebra":
        """The subalgebra spanned by the given (parity-homogeneous) vectors,
        with structure constants re-expressed in that basis.  The parent's
        faithful representation restricts to a faithful one.  The products
        of the pairs a <= b are formed and solved for, and (b, a) follows by
        super-antisymmetry."""
        return self._restricted_subalgebra(*_sparse_integer_rows(basis_vectors))

    def _restricted_subalgebra(self, items: list[list[tuple[int, int]]], den: int,
                               known: list[tuple[int, int, dict[int, int], int | None]]
                               | None = None, roots: int = 0) -> "LieSuperalgebra":
        """`restricted_subalgebra` of the vectors V_t / den, with items[t]
        the nonzero (index, entry) pairs of V_t: the one routine that builds
        a factor table.

        It reads the coordinates of each D [V_a, V_b], a <= b, in the V_t
        exactly; coordinates are unique, so the table does not depend on
        how they are read.  `direct_sum_decompose` passes a factor's basis,
        its `roots` root vectors and then its part of span(H), with
        `known`: the (a, b, W, c) of its root pairs a <= b < roots with
        nonzero product W = D [V_a, V_b], on the line of V_c, or in span(H)
        when c is None; the other root pairs have product 0.  The other
        products are formed here.  Then:

        * a product on the line of a root vector V_c, as W is, and as
          [V_a, h] is on V_a's for h in span(H), is W / V_c, by exact
          integer proportion;
        * a toral product (c None) is one small solve in the factor's part
          of span(H);
        * anything else, and every product when `known` is None, is one
          solve in all the V_t (`integer_coordinates_in`), which refuses
          vectors that do not span a subalgebra."""
        parities = []
        for v in items:
            pe = {self.parity[i] for i, _ in v}
            if len(pe) > 1:
                raise ValueError("subalgebra basis must be parity-homogeneous")
            parities.append(pe.pop() if pe else EVEN)
        n = len(items)
        solvers = {}

        def solver(start: int):
            # the coordinates in V_start, ..., V_{n-1}, set up once
            if start not in solvers:
                solvers[start] = integer_coordinates_in([dict(v) for v in items[start:]])
            return solvers[start]

        if known is None:
            known = []
            solver(0)  # refuses dependent vectors before any product
        lines = [dict(v) for v in items[:roots]]
        # (a, b, W, c): the known products, then those formed here
        formed = ((a, b, w, a if a < roots else None)
                  for a in range(n) for b in range(max(a, roots), n)
                  if (w := _product(self._table, items[a], items[b])))
        # W = sum_k (X_k / M) V_k for each (a, b, X, M), read as set out above
        found = []
        for a, b, w, c in chain(known, formed):
            coeffs = None
            if c is not None:
                ratio = _proportion(w, lines[c])
                if ratio is not None:
                    coeffs = [(c, ratio.numerator)], ratio.denominator
            elif roots:
                x = solver(roots)(w)
                if x is not None:
                    coeffs = [(roots + s, v) for s, v in x[0]], x[1]
            if coeffs is None:
                coeffs = solver(0)(w)
                if coeffs is None:
                    raise ValueError("vectors do not span a subalgebra")
            found.append((a, b, *coeffs))
        # v_k = V_k / L, so [v_a, v_b] = D [V_a, V_b] / (L^2 D) =
        # sum_k (X_k / M) V_k / (L^2 D) = sum_k (X_k / (M L D)) v_k, over
        # the common denominator M of the coordinates
        cden = lcm(*{m for *_, m in found})
        table = [[()] * n for _ in range(n)]
        for a, b, coeffs, m in found:
            table[a][b] = row = tuple((k, x * (cden // m)) for k, x in coeffs)
            if b != a:
                sign = 1 if parities[a] and parities[b] else -1
                table[b][a] = tuple((k, sign * x) for k, x in row)
        rep = self.faithful_rep
        if rep is not None:
            # rho(v_t) = sum_i V_t[i] A_i / (L D), over the common denominator
            from .reps import SuperModule
            rep = SuperModule._of_table(rep.parity, [rep._combine(v) for v in items],
                                        den * rep._den)
        names = tuple(f"x{t}" for t in range(n))
        # the restriction of a lawful rep is lawful, and to independent
        # vectors that of a faithful rep is faithful
        return LieSuperalgebra._of_table(parities, table, cden * den * self._den, names, rep,
                                         lawful=self._rep_certificate())

    def __repr__(self) -> str:
        ev = len(self.even_indices)
        od = len(self.odd_indices)
        return f"<LieSuperalgebra dim {ev}|{od}>"


class Decomposition:
    """Result of direct_sum_decompose: center basis plus simple ideal bases,
    with each ideal as a subalgebra in the coordinates of its basis."""

    def __init__(self, center: list[Vec], ideals: list[list[Vec]],
                 subalgebras: list[LieSuperalgebra]) -> None:
        self.center = center
        self.ideals = ideals
        self.subalgebras = subalgebras

    def __repr__(self) -> str:
        return f"Decomposition(center dim {len(self.center)}, {len(self.ideals)} simple ideals)"


def _format_terms(terms: Iterable[tuple[Fraction, str]]) -> str:
    """A signed sum such as '2*h - a + 1/2' of (coefficient, monomial) pairs;
    an empty monomial is a constant, and zero coefficients are left out."""
    pieces = []
    for c, mono in terms:
        c = Q(c)
        if c == 0:
            continue
        sign = "- " if c < 0 else "+ "
        if mono and abs(c) == 1:
            pieces.append(sign + mono)
        else:
            pieces.append(f"{sign}{abs(c)}" + (f"*{mono}" if mono else ""))
    if not pieces:
        return "0"
    head = pieces[0][2:] if pieces[0].startswith("+ ") else "-" + pieces[0][2:]
    return " ".join([head] + pieces[1:])


def _grading_failures(table: Table, p: Sequence[int], q: Sequence[int]) -> list[tuple[int, ...]]:
    """The (i, j, k, C) of the table, in order, with q[k] != p[i] + q[j]
    (mod 2): p = q = g.parity for g's own table, p = g.parity and q the
    module's parity for an action table (row j of e_i)."""
    return [(i, j, k, c) for i, block in enumerate(table) for j, row in enumerate(block)
            for k, c in row if q[k] != (p[i] + q[j]) % 2]


def _asymmetric_pairs(g: "LieSuperalgebra | SupercommAlgebra", s: int) -> list[tuple[int, int]]:
    """The pairs i <= j at which e_i e_j != s (-1)^{|i||j|} e_j e_i in g's
    table: s = -1 checks super-antisymmetry, s = 1 supercommutativity."""
    p, t = g.parity, g._table
    return [(i, j) for i in range(g.dim) for j in range(i, g.dim)
            if t[i][j] != tuple((k, (-s if p[i] and p[j] else s) * c) for k, c in t[j][i])]


def _law_failures(g: "LieSuperalgebra | SupercommAlgebra",
                  cols: Sequence[Sequence[Sequence[tuple[int, int]]]], den: int,
                  pairs: Iterable[tuple[int, int]],
                  commutator: bool = True) -> list[tuple[int, int, int]]:
    """The sorted (i, j, c), for the (i, j) in `pairs`, at which column c of
    D_g (A_i A_j - s A_j A_i) - D sum_k C_k A_k is nonzero, where D_g e_i e_j
    = sum_k C_k e_k in g's table and `cols[x][c]` holds the nonzero (r, a)
    of column c of the square matrix A_x = D rho(e_x).  With s =
    (-1)^{|i||j|} (`commutator`) it is the representation law of a module,
    super Jacobi on g's own table (the adjoint module's), and the law a
    basis map of `roots` must keep; with s = 0 it is associativity on the
    left-regular columns of a `SupercommAlgebra`, its own table (column c
    of L_i is e_i e_c).  Each pair is summed over the nonzero entries of
    its matrices into one accumulator keyed by (c, r), so the columns where
    every term vanishes cost nothing."""
    par, table, m = g.parity, g._table, len(cols[0]) if cols else 0
    common = gcd(g._den, den)
    lead, tail = g._den // common, -(den // common)
    # the nonzero entries (c m, r, a) of each A_x, column by column
    flat = [[(c * m, r, a) for c, col in enumerate(cx) for r, a in col] for cx in cols]
    failing = []
    for i, j in pairs:
        acc: dict[int, int] = {}
        # column c of A_x A_y is sum_t A_y[t][c] (column t of A_x)
        ci, cj = cols[i], cols[j]
        for c, t, b in flat[j]:
            b *= lead
            for r, a in ci[t]:
                acc[c + r] = acc.get(c + r, 0) + b * a
        if commutator:
            swap = lead if par[i] and par[j] else -lead
            for c, t, b in flat[i]:
                b *= swap
                for r, a in cj[t]:
                    acc[c + r] = acc.get(c + r, 0) + b * a
        for k, ck in table[i][j]:
            ck *= tail
            for c, r, a in flat[k]:
                acc[c + r] = acc.get(c + r, 0) + ck * a
        if any(acc.values()):
            failing.extend({(i, j, cr // m) for cr, v in acc.items() if v})
    failing.sort()
    return failing


def _super_law_failures(g: LieSuperalgebra, cols: Sequence[Sequence[Sequence[tuple[int, int]]]],
                        den: int, antisymmetric: bool) -> list[tuple[int, int, int]]:
    """`_law_failures` of the representation law on every pair (i, j).  The
    law at (j, i) is -(-1)^{|i||j|} times the law at (i, j) when g's table
    is super-antisymmetric (`antisymmetric`), so then the pairs i <= j are
    visited and each failure is reported with its swap."""
    n = g.dim
    if not antisymmetric:
        return _law_failures(g, cols, den, ((i, j) for i in range(n) for j in range(n)))
    failing = _law_failures(g, cols, den, ((i, j) for i in range(n) for j in range(i, n)))
    return sorted(failing + [(j, i, c) for i, j, c in failing if i != j])


def _square_is_semisimple(rows: Sequence[Sequence[tuple[int, int]]],
                          parity: Sequence[int]) -> bool:
    """Whether X^2 is semisimple, for the integer matrix X with these sparse
    rows that swaps the parity pieces V0 and V1 of a module of this parity.

    With A = X from the smaller piece's rows to the larger one's, and B
    back, X^2 = diag(AB, BA).  AB and BA have the same elementary divisors
    away from 0 (Flanders, Proc. AMS 2, 1951), and BA q(BA) = B q(AB) A for
    every polynomial q.  So with p the minimal polynomial of the k x k
    product AB, k = min(dim V0, dim V1): X^2 is not semisimple when p is
    not squarefree; it is when p(0) != 0, as BA then satisfies the
    squarefree x p; and with p = x r, it is exactly when BA r(BA) =
    B r(AB) A = 0.  Rows of B r(AB) A are row vectors times matrices, by
    `linalg._poly_apply` and `_combine`, on sparse integer vectors."""
    even = [r for r, q in enumerate(parity) if q == EVEN]
    odd = [r for r, q in enumerate(parity) if q == ODD]
    small, large = (even, odd) if len(even) <= len(odd) else (odd, even)
    at = {r: t for t, r in enumerate(small)}
    a = [rows[r] for r in small]
    # row t of AB combines the rows of B that row t of A names
    ab = [sorted((at[c], x) for c, x in _combine(row, rows).items()) for row in a]
    p = _minimal_polynomial(ab)
    if not is_squarefree(p):
        return False
    if p[0]:
        return True
    r = p[1:]
    for b in large:
        w = _poly_apply(r, ab, {at[c]: x for c, x in rows[b]})
        if w and _combine(w.items(), a):
            return False
    return True


def _toral_targets(x: Sequence[tuple[int, int]], supports: Sequence[set[int]],
                   weights: Sequence[tuple[int, ...]]) -> set[int]:
    """The nodes d with d(h) != 0, for h = sum_s x_s h_s in H given by its
    nonzero coordinates x = [(s, x_s)] in the Cartan elements h_s, where
    weights[d] lists the d(h_s) and supports[s] = {d : d(h_s) != 0}: the
    support of h's one coordinate, else the d of the union of the supports
    at which d(h) does not cancel."""
    if len(x) == 1:
        return supports[x[0][0]]
    return {d for d in set().union(*(supports[s] for s, _ in x))
            if sum(c * weights[d][s] for s, c in x)}


def _is_faithful(g: LieSuperalgebra, rep: "SuperModule") -> bool:
    """Whether rep's action matrices span a space of dimension dim g: for a
    rep with one matrix per basis element, whether rho is injective."""
    return _echelon(({r * rep.dim + c: a for r, row in enumerate(rows) for c, a in row}
                     for rows in rep._table), rep.dim ** 2).rank >= g.dim


def _proportion(w: dict[int, int], x: dict[int, int]) -> Fraction | None:
    """rho with w = rho x, for sparse integer vectors w and x != 0 ({index:
    entry}, no zero entries), or None when w is off the line of x."""
    if not w.keys() <= x.keys():
        return None
    k = next(iter(x))
    w0, x0 = w.get(k, 0), x[k]
    if any(w.get(t, 0) * x0 != w0 * xt for t, xt in x.items()):
        return None
    return Q(w0, x0)


def _is_abelian(g: LieSuperalgebra) -> bool:
    return not any(pairs for block in g._table for pairs in block)


def _reachable(arrows: list[set[int]], start: int) -> set[int]:
    """The nodes that `start` reaches along the arrows, itself included."""
    seen = {start}
    stack = [start]
    while stack:
        for d in arrows[stack.pop()] - seen:
            seen.add(d)
            stack.append(d)
    return seen
