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
and `_law_failures`, which also check modules and `supercomm` products:

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
= rho(u)^2, the representation law, certified once per rep object
(`_lawful_rep`): by construction for the family builders, products and
restricted subalgebras, by `fileformat.axiom_check` for a parsed rep, and by
one `reps.validate_module` on first use otherwise.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
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
        rep against the representation law, for a caller that built it so."""
        common = gcd(den, *(c for block in table for row in block for _, c in row))
        if common > 1:
            table = [[tuple((k, c // common) for k, c in row) for row in block]
                     for block in table]
        g = cls.__new__(cls)
        g._init(parity, table, den // common, names, faithful_rep, cartan)
        if lawful:
            g._lawful = faithful_rep
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
        # the rep object last certified against the representation law
        self._lawful: "SuperModule | None" = None
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
        by `_law_failures` (on i <= j, with swaps, when antisymmetric)."""
        issues = [f"parity: c[{i}][{j}][{k}] = {Q(c, self._den)} violates grading"
                  for i, j, k, c in _grading_failures(self._table, self.parity, self.parity)]
        asymmetric = _asymmetric_pairs(self, -1)
        issues += [f"antisymmetry: [e{i},e{j}] vs [e{j},e{i}] disagree"
                   for i, j in asymmetric]
        issues += [f"jacobi: fails at triple ({i},{j},{k})"
                   for i, j, k in _law_failures(self, self._table, self._den, not asymmetric)]
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
        """The faithful rep, certified against the representation law: once
        per rep object, by `reps.validate_module` unless a builder certified
        it, so reassigning `faithful_rep` checks again.  A SuperkitError
        refuses a rep that breaks the law."""
        rep = self._require_rep()
        if rep is not self._lawful:
            from .reps import validate_module
            issues = validate_module(self, rep)
            if issues:
                raise SuperkitError(f"the faithful representation is refused: {issues[0]}")
            self._lawful = rep
        return rep

    def _certified(self) -> bool:
        """Whether the faithful rep is present and certified lawful."""
        return self.faithful_rep is not None and self._lawful is self.faithful_rep

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
        `restricted_subalgebra` on its basis (the e_a of C, then its part of
        span(H)), with g's root datum restricted to it as its own: e_a is a
        basis vector of it, and h in H acts on it as h's component in its
        part of span(H).
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
        # of x in the Cartan elements against d's scaled weights
        h_coordinates = integer_coordinates_in(datum.cartan)
        links: list[set[int]] = [set() for _ in nodes]  # the root graph
        arrows: list[set[int]] = [set() for _ in nodes]  # the generation digraph
        toral = []  # (a, W, L) with [e_a, e_-a] = W / L
        for a, la in enumerate(dens):
            for b in range(a, len(nodes)):
                w = _product(self._table, items[a], items[b])
                if not w:
                    continue
                total = tuple(p + q for p, q in zip(weights[a], weights[b]))
                joined = {a, b}
                if any(total):
                    c = node[total, (nodes[a].parity + nodes[b].parity) % 2]
                    targets = {c}
                    joined.add(c)
                else:
                    toral.append((a, w, la * dens[b] * self._den))
                    x = h_coordinates(w)[0]
                    targets = {d for d, wd in enumerate(weights)
                               if sum(c * wd[s] for s, c in x)}
                for c in joined:
                    links[c] |= joined
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
            sub = self._restricted_subalgebra(ints, den)
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
        faithful representation restricts to a faithful one.  The pairs
        a <= b are solved for, and (b, a) follows by super-antisymmetry."""
        return self._restricted_subalgebra(*_sparse_integer_rows(basis_vectors))

    def _restricted_subalgebra(self, items: list[list[tuple[int, int]]],
                               den: int) -> "LieSuperalgebra":
        """`restricted_subalgebra` of the vectors V_t / den, with items[t]
        the nonzero (index, entry) pairs of V_t."""
        parities = []
        for v in items:
            pe = {self.parity[i] for i, _ in v}
            if len(pe) > 1:
                raise ValueError("subalgebra basis must be parity-homogeneous")
            parities.append(pe.pop() if pe else EVEN)
        n = len(items)
        coordinates = integer_coordinates_in([dict(v) for v in items])
        # v_k = V_k / L, so [v_a, v_b] = D [V_a, V_b] / (L^2 D^2) =
        # sum_k (X_k / M) V_k / (L^2 D) = sum_k (X_k / (M L D)) v_k, with
        # (X, M) the integer coordinates of D [V_a, V_b] in the V_k; M is the
        # same for every target
        table = [[()] * n for _ in range(n)]
        cden = 1
        for a, xa in enumerate(items):
            for b in range(a, n):
                found = coordinates(_product(self._table, xa, items[b]))
                if found is None:
                    raise ValueError("vectors do not span a subalgebra")
                coeffs, cden = found
                table[a][b] = tuple(coeffs)
                if b != a:
                    sign = 1 if parities[a] and parities[b] else -1
                    table[b][a] = tuple((k, sign * c) for k, c in table[a][b])
        rep = self.faithful_rep
        if rep is not None:
            # rho(v_t) = sum_i V_t[i] A_i / (L D), over the common denominator
            from .reps import SuperModule
            rep = SuperModule._of_table(rep.parity, [rep._combine(v) for v in items],
                                        den * rep._den)
        names = tuple(f"x{t}" for t in range(n))
        # the restriction of a lawful rep is lawful
        return LieSuperalgebra._of_table(parities, table, cden * den * self._den, names, rep,
                                         lawful=self._certified())

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
                  cols: Sequence[Sequence[Sequence[tuple[int, int]]]], den: int, half: bool,
                  commutator: bool = True) -> list[tuple[int, int, int]]:
    """The sorted (i, j, c) at which column c of D_g (A_i A_j - s A_j A_i) -
    D sum_k C_k A_k is nonzero, where D_g e_i e_j = sum_k C_k e_k in g's
    table and `cols[x][c]` holds the nonzero (r, a) of column c of
    A_x = D rho(e_x).  With s = (-1)^{|i||j|} (`commutator`) it is the
    representation law of a module, and super Jacobi on g's own table, the
    adjoint module's; [A_j, A_i] = -(-1)^{|i||j|} [A_i, A_j], so on a
    super-antisymmetric table `half` computes i <= j and reports each
    failure with its swap.  With s = 0 it is associativity on the
    left-regular columns of a `SupercommAlgebra`, its own table (column c
    of L_i is e_i e_c); where e_i e_j = 0 only the columns c with A_j e_c
    != 0 can fail, and only those are visited."""
    par, table, n = g.parity, g._table, g.dim
    common = gcd(g._den, den)
    lead, tail = g._den // common, -(den // common)
    live = None if commutator else [[(c, col) for c, col in enumerate(cx) if col] for cx in cols]
    failing = []
    for i in range(n):
        ci, ti = cols[i], table[i]
        for j in range(i if half else 0, n):
            cj = cols[j]
            terms = [(cols[k], tail * C) for k, C in ti[j]]
            if commutator:
                swap, visit = (lead if par[i] and par[j] else -lead), enumerate(cj)
            else:
                swap, visit = 0, enumerate(cj) if terms else live[j]
            for c, col in visit:
                acc: dict[int, int] = {}
                for t, q in col:
                    q *= lead
                    for r, a in ci[t]:
                        acc[r] = acc.get(r, 0) + q * a
                if swap:
                    for t, q in ci[c]:
                        q *= swap
                        for r, a in cj[t]:
                            acc[r] = acc.get(r, 0) + q * a
                for ak, q in terms:
                    for r, a in ak[c]:
                        acc[r] = acc.get(r, 0) + q * a
                if any(acc.values()):
                    failing.append((i, j, c))
                    if half and i != j:
                        failing.append((j, i, c))
    failing.sort()
    return failing


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
