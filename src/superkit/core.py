"""Finite-dimensional Lie superalgebras over the rationals.

A `LieSuperalgebra` is a basis with parities and rational structure constants
c[i][j][k] meaning [e_i, e_j] = sum_k c[i][j][k] e_k.  They are stored once,
as one sparse integer table over a common denominator D: for each (i, j) the
pairs (k, C) with c[i][j][k] = C / D.  Brackets, adjoint matrices, the
center, `validate` and the ideal closures work on that table with integer
vectors V / L and turn their results into Fractions only on the way out;
`structure_constant`, `bracket_basis` and `bracket_sparse` are Fraction
views of it.  The super axioms:

* parity homogeneity: c[i][j][k] = 0 unless |k| = |i| + |j| (mod 2),
* super-antisymmetry: [x, y] = -(-1)^{|x||y|} [y, x],
* super Jacobi, in derivation form:
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
supergroup has non-semisimple representation theory.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import TYPE_CHECKING, Iterable, Sequence

from .linalg import (
    Echelon,
    Matrix,
    Q,
    Vec,
    fraction_vector,
    integer_coordinates_in,
    integer_vector,
    integer_vectors,
    _minimal_polynomial,
    is_squarefree,
    kernel_of_rows,
    span_basis,
    vec,
    vec_scale,
    zero_vec,
)

if TYPE_CHECKING:  # pragma: no cover
    from .reps import SuperModule

EVEN, ODD = 0, 1


class SuperkitError(Exception):
    """Base class for structured failures in this package."""


class NotSemisimpleStructure(SuperkitError):
    """The algebra is not a direct product of its center and simple ideals."""


class LieSuperalgebra:
    """Immutable-by-convention Lie superalgebra with rational structure constants."""

    def __init__(
        self,
        parity: Sequence[int],
        brackets: dict[tuple[int, int], dict[int, Fraction]] | Sequence[Sequence[Sequence]],
        names: Sequence[str] | None = None,
        faithful_rep: "SuperModule | None" = None,
        cartan: Sequence[int] | None = None,
    ) -> None:
        self.parity = tuple(int(p) % 2 for p in parity)
        n = len(self.parity)
        if isinstance(brackets, dict):
            items = [(i, j, k, Q(val)) for (i, j), comps in brackets.items()
                     for k, val in comps.items()]
        else:
            items = [(i, j, k, Q(val)) for i in range(n) for j in range(n)
                     for k, val in enumerate(brackets[i][j])]
        den = lcm(*(q.denominator for *_, q in items))
        pairs: list[list[dict[int, int]]] = [[{} for _ in range(n)] for _ in range(n)]
        for i, j, k, q in items:
            pairs[i][j][k] = q.numerator * (den // q.denominator)
        # c[i][j][k] = C / D for each (k, C) in _table[i][j], sorted by k
        self._den = den
        self._table: list[list[tuple[tuple[int, int], ...]]] = [
            [tuple(sorted((k, c) for k, c in row.items() if c)) for row in block]
            for block in pairs
        ]
        self.names = tuple(names) if names else tuple(f"e{i}" for i in range(n))
        if len(self.names) != n:
            raise ValueError("need one name per basis element")
        self.faithful_rep = faithful_rep
        self.cartan = tuple(cartan) if cartan is not None else None
        self._sparse: list[list[tuple[tuple[int, Fraction], ...]]] | None = None
        # computed once, shared by the structural scan and the decomposition
        self._center: list[Vec] | None = None
        self._datum_cache = None

    # -- basic structure ----------------------------------------------------

    @property
    def dim(self) -> int:
        return len(self.parity)

    @property
    def even_indices(self) -> list[int]:
        return [i for i, p in enumerate(self.parity) if p == EVEN]

    @property
    def odd_indices(self) -> list[int]:
        return [i for i, p in enumerate(self.parity) if p == ODD]

    def structure_constant(self, i: int, j: int, k: int) -> Fraction:
        return next((Q(c, self._den) for t, c in self._table[i][j] if t == k), Q(0))

    def bracket_basis(self, i: int, j: int) -> Vec:
        return fraction_vector(_dense(self._table[i][j], self.dim), self._den)

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

    def _int_bracket(self, x: Sequence[int], y: Sequence[int]) -> list[int]:
        """D [x, y] for integer vectors x, y."""
        out = [0] * self.dim
        ys = [(j, b) for j, b in enumerate(y) if b]
        for a, row in zip(x, self._table):
            if a:
                for j, b in ys:
                    ab = a * b
                    for k, c in row[j]:
                        out[k] += ab * c
        return out

    def bracket(self, x: Sequence, y: Sequence) -> Vec:
        if len(x) != self.dim or len(y) != self.dim:
            raise ValueError("coordinate vectors must have length dim")
        xs, lx = integer_vector(x)
        ys, ly = integer_vector(y)
        return fraction_vector(self._int_bracket(xs, ys), lx * ly * self._den)

    def ad_matrix(self, x: Sequence) -> Matrix:
        """Matrix of y -> [x, y] in the basis: x in the adjoint module."""
        from .reps import adjoint_module
        return adjoint_module(self).matrix_of(x)

    def basis_vector(self, i: int) -> Vec:
        v = zero_vec(self.dim)
        v[i] = Q(1)
        return v

    def even_part(self, x: Sequence) -> Vec:
        return [Q(c) if self.parity[i] == EVEN else Q(0) for i, c in enumerate(x)]

    def odd_part(self, x: Sequence) -> Vec:
        return [Q(c) if self.parity[i] == ODD else Q(0) for i, c in enumerate(x)]

    def is_even_element(self, x: Sequence) -> bool:
        return all(Q(c) == 0 or self.parity[i] == EVEN for i, c in enumerate(x))

    def is_odd_element(self, x: Sequence) -> bool:
        return all(Q(c) == 0 or self.parity[i] == ODD for i, c in enumerate(x))

    def describe(self, x: Sequence) -> str:
        """Pretty form of a coordinate vector, e.g. '2*h - a'."""
        return _format_terms(zip(x, self.names))

    # -- axioms --------------------------------------------------------------

    def validate(self) -> list[str]:
        """All violated axiom instances; empty list means the axioms hold.

        The super Jacobi identity is checked in derivation form on every
        basis triple,
            [e_i, [e_j, e_k]] = [[e_i, e_j], e_k] + (-1)^{|i||j|} [e_j, [e_i, e_k]],
        working directly on the sparse integer table: every term is a
        product of two constants over D^2, so the numerators must cancel.
        """
        issues: list[str] = []
        n = self.dim
        p = self.parity
        sp = self._table
        for i in range(n):
            for j in range(n):
                for k, c in sp[i][j]:
                    if p[k] != (p[i] + p[j]) % 2:
                        issues.append(
                            f"parity: c[{i}][{j}][{k}] = {Q(c, self._den)} violates grading"
                        )
        for i in range(n):
            for j in range(i, n):
                sign = 1 if p[i] and p[j] else -1
                if sp[i][j] != tuple((k, sign * c) for k, c in sp[j][i]):
                    issues.append(
                        f"antisymmetry: [e{i},e{j}] vs [e{j},e{i}] disagree"
                    )
        for i in range(n):
            spi = sp[i]
            for j in range(n):
                sgn = -1 if p[i] and p[j] else 1
                sij = sp[i][j]
                spj = sp[j]
                for k in range(n):
                    acc: dict[int, int] = {}
                    for t, q in spj[k]:
                        for l, r in spi[t]:
                            acc[l] = acc.get(l, 0) + q * r
                    for t, q in sij:
                        for l, r in sp[t][k]:
                            acc[l] = acc.get(l, 0) - q * r
                    for t, q in spi[k]:
                        for l, r in spj[t]:
                            acc[l] = acc.get(l, 0) - sgn * q * r
                    if any(acc.values()):
                        issues.append(f"jacobi: fails at triple ({i},{j},{k})")
        return issues

    # -- odd squares and the semisimple cone ----------------------------------

    def odd_square(self, u: Sequence) -> Vec:
        """[u, u]/2 for odd u; always an even element."""
        if not self.is_odd_element(u):
            raise ValueError("odd_square requires a purely odd element")
        return vec_scale(Q(1, 2), self.bracket(u, u))

    def element_matrix(self, x: Sequence) -> Matrix:
        """Matrix of x in the designated faithful representation."""
        return self._require_rep().matrix_of(x)

    def _require_rep(self):
        if self.faithful_rep is None:
            raise SuperkitError(
                "this operation needs a designated faithful representation"
            )
        return self.faithful_rep

    def is_semisimple_element(self, x: Sequence) -> bool:
        """True iff x acts diagonalizably (over a closure) in the faithful rep,
        i.e. its matrix there has squarefree minimal polynomial.  That holds
        for rho(x) iff it holds for the integer matrix L D rho(x)."""
        if not self.is_even_element(x):
            raise ValueError("element semisimplicity is defined for even elements")
        rows = self._require_rep()._combine(integer_vector(x)[0])
        return is_squarefree(_minimal_polynomial(rows))

    def in_g1ss(self, u: Sequence) -> bool:
        """Membership of the cone of odd u whose square [u,u]/2 is semisimple."""
        return self.is_semisimple_element(self.odd_square(u))

    # -- structural predicates -------------------------------------------------

    def center(self) -> list[Vec]:
        """Basis of {x : [x, e_i] = 0 for all i}."""
        if self._center is None:
            every = range(self.dim)
            rows = [r for j in every for r in self._bracket_rows(every, j, every)]
            self._center = kernel_of_rows(rows, self.dim)
        return [list(v) for v in self._center]

    def _bracket_rows(self, xs: Sequence[int], j: int, ks: Sequence[int]) -> list[list[int]]:
        """The nonzero rows k in ks of the integer matrix of x -> D [x, e_j]
        on span(e_i : i in xs): row k holds c[i][j][k] D at the place of i."""
        keep = set(ks)
        block: dict[int, list[int]] = {}
        for t, i in enumerate(xs):
            for k, c in self._table[i][j]:
                if k in keep:
                    block.setdefault(k, [0] * len(xs))[t] = c
        return list(block.values())

    def _root_datum(self):
        """Root datum of the algebra's own Cartan subalgebra (`roots.cartan_of`:
        the given one, else the seeded search), computed once per algebra.  A
        factor of the structural scan's decomposition inherits its parent's
        datum, restricted to it, instead."""
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
        rep = self._require_rep()
        ev = self.even_indices
        if not ev:
            return True
        # a basis of [g0, g0] as integer rows D [e_a, e_b]; the scale of a
        # row does not change the kernel below
        derived = Echelon()
        basis: list[list[int]] = []
        for a in ev:
            for b in ev:
                br = _dense(self._table[a][b], self.dim)
                if any(br) and derived.add(br):
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
        radical = kernel_of_rows(rows, len(ev))
        # center of g0 (as a Lie algebra), in even coordinates
        crows = [r for b in ev for r in self._bracket_rows(ev, b, ev)]
        zcenter = kernel_of_rows(crows, len(ev))
        return _same_span(radical, zcenter)

    def is_quasireductive(self) -> bool:
        """Even part reductive and the odd part a semisimple even-part module."""
        if not self.is_reductive_even_part():
            return False
        odd = self.odd_indices
        if not odd:
            return True
        from .reps import SuperModule, adjoint_module, is_module_semisimple
        # g1 as a g0-module: the rows of D ad(e_i) at odd k hold only odd columns
        pos = {j: t for t, j in enumerate(odd)}
        ad = adjoint_module(self)._table
        table = [[[(pos[j], c) for j, c in ad[i][k]] for k in odd] for i in self.even_indices]
        return is_module_semisimple(self, SuperModule._of_table([ODD] * len(odd), table, self._den))

    # -- decomposition into center and simple ideals ---------------------------

    def ideal_closure(self, seed: Iterable[Sequence], bound: int | None = None) -> list[Vec]:
        """Smallest subspace containing the seed and stable under [g, -].

        `bound` is a dimension the caller knows the closure cannot exceed
        (default dim g).  The search stops as soon as the span reaches it: the
        span is then the whole closure, and the basis is the one the full
        search would have returned, since no later bracket could add to it.
        """
        n = self.dim
        bound = n if bound is None else bound
        ech = Echelon()
        # integer vectors v = V / L
        basis: list[tuple[list[int], int]] = []
        queue: list[tuple[list[int], int]] = []
        for s in seed:
            v = integer_vector(s)
            if ech.add(v[0]):
                basis.append(v)
                queue.append(v)
        while queue and len(basis) < bound:
            vs, den = queue.pop()
            nz = [(j, a) for j, a in enumerate(vs) if a]
            for row in self._table:
                # [e_i, v] = W / (L D), W = sum_j V_j C[i][j]
                w = [0] * n
                for j, a in nz:
                    for k, c in row[j]:
                        w[k] += a * c
                if any(w) and ech.add(w):
                    basis.append((w, den * self._den))
                    queue.append(basis[-1])
                    if len(basis) == bound:
                        break
        return [fraction_vector(vs, den) for vs, den in basis]

    def direct_sum_decompose(self) -> "Decomposition":
        """Split g as center x (simple ideals), or raise NotSemisimpleStructure.

        Minimal ideals are grown as ideal closures of the nonzero-weight root
        spaces of the algebra's Cartan subalgebra (`roots.cartan_of`), then
        certified: pairwise commuting, direct sum with the center, each factor
        perfect with trivial center and regenerated by every one of its seeds.
        The center and the root datum are computed once per algebra, so a
        structural scan that has already looked at them does not repeat the
        work.  Each factor's restricted subalgebra, built for the certificate,
        is kept on the result.

        No seed is skipped, since regeneration is part of the certificate.
        A closure stops early once it reaches a dimension known to bound it:
        dim g always, and len(f) when the seed lies in an already closed
        factor f.  f is an ideal containing the seed, so closure(seed) lies in
        f, and reaching len(f) proves the two are equal.  A closure that stops
        short of its bound is complete and goes through the overlap check.
        """
        if self.dim == 0:
            return Decomposition([], [], [])
        zc = self.center()
        if _is_abelian(self):
            return Decomposition(zc, [], [])
        datum = self._root_datum()
        seeds = [r.space for r in datum.roots if any(w != 0 for w in r.weight)]
        if not seeds:
            raise NotSemisimpleStructure(
                "non-abelian algebra with no nonzero roots"
            )
        factors: list[list[Vec]] = []
        spans: list[Echelon] = []
        for s in seeds:
            home = next((f for f, e in zip(factors, spans)
                         if all(e.contains(v) for v in s)), None)
            cl = self.ideal_closure(s, len(home) if home is not None else None)
            if home is not None and len(cl) == len(home):
                continue
            ecl = Echelon()
            for v in cl:
                ecl.add(v)
            merged = False
            for f, e in zip(factors, spans):
                if any(e.contains(v) for v in cl) or any(ecl.contains(v) for v in f):
                    if not _same_span(f, cl):
                        raise NotSemisimpleStructure(
                            "overlapping ideal closures do not coincide; "
                            "the algebra is not a product of center and simples"
                        )
                    merged = True
                    break
            if not merged:
                factors.append(cl)
                spans.append(ecl)
        subalgebras = self._certify_decomposition(zc, factors)
        return Decomposition(zc, factors, subalgebras)

    def _certify_decomposition(self, zc, factors) -> list["LieSuperalgebra"]:
        total = len(zc) + sum(len(f) for f in factors)
        if total != self.dim or len(span_basis(zc + [v for f in factors for v in f])) != self.dim:
            raise NotSemisimpleStructure(
                "center plus ideal closures do not span the algebra directly"
            )
        ints = [integer_vectors(f)[0] for f in factors]
        for a in range(len(factors)):
            for b in range(a + 1, len(factors)):
                for x in ints[a]:
                    for y in ints[b]:
                        if any(self._int_bracket(x, y)):
                            raise NotSemisimpleStructure(
                                f"candidate ideals {a} and {b} do not commute"
                            )
        subalgebras = []
        for t, f in enumerate(factors):
            sub = self.restricted_subalgebra(f)
            if sub.center():
                raise NotSemisimpleStructure(
                    f"candidate ideal {t} has nontrivial center, so it is not simple"
                )
            derived = Echelon()
            for block in sub._table:
                for pairs in block:
                    if pairs and derived.rank < sub.dim:
                        derived.add(_dense(pairs, sub.dim))
            if derived.rank != sub.dim:
                raise NotSemisimpleStructure(f"candidate ideal {t} is not perfect")
            subalgebras.append(sub)
        return subalgebras

    def restricted_subalgebra(self, basis_vectors: Sequence[Sequence]) -> "LieSuperalgebra":
        """The subalgebra spanned by the given (parity-homogeneous) vectors,
        with structure constants re-expressed in that basis.  The parent's
        faithful representation restricts to a faithful one."""
        basis = [vec(v) for v in basis_vectors]
        parities = []
        for v in basis:
            pe = [self.parity[i] for i, c in enumerate(v) if c != 0]
            if len(set(pe)) > 1:
                raise ValueError("subalgebra basis must be parity-homogeneous")
            parities.append(pe[0] if pe else EVEN)
        n = len(basis)
        coordinates = integer_coordinates_in(basis)
        ints, den = integer_vectors(basis)
        table: dict[tuple[int, int], dict[int, Fraction]] = {}
        for a, xa in enumerate(ints):
            for b, xb in enumerate(ints):
                found = coordinates(self._int_bracket(xa, xb))
                if found is None:
                    raise ValueError("vectors do not span a subalgebra")
                coeffs, cden = found
                cden *= den * den * self._den
                table[(a, b)] = {k: Q(c, cden) for k, c in enumerate(coeffs) if c}
        rep = None
        if self.faithful_rep is not None:
            from .reps import SuperModule
            # rho(v_t) = sum_i V_t[i] A_i / (L D), over the common denominator
            parent = self.faithful_rep
            rep = SuperModule._of_table(parent.parity, [parent._combine(v) for v in ints],
                                        den * parent._den)
        names = tuple(f"x{t}" for t in range(n))
        return LieSuperalgebra(parities, table, names, faithful_rep=rep)

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


def _dense(pairs: Iterable[tuple[int, int]], n: int) -> list[int]:
    """The length-n integer row with the given (position, entry) pairs."""
    row = [0] * n
    for k, c in pairs:
        row[k] = c
    return row


def _is_abelian(g: LieSuperalgebra) -> bool:
    return not any(pairs for block in g._table for pairs in block)


def _same_span(a: list[Vec], b: list[Vec]) -> bool:
    ea, eb = Echelon(), Echelon()
    for v in a:
        ea.add(v)
    for v in b:
        eb.add(v)
    if ea.rank != eb.rank:
        return False
    return all(ea.contains(v) for v in b)
