"""PBW arithmetic in the universal enveloping algebra and its coinvariants.

Monomials are words in the basis indices.  The canonical normal form places
all odd generators before all even generators, each block ascending by index;
odd generators appear with exponent at most one (a repeated odd letter rewrites
through half its self-bracket).  Rewriting rules:

    e_j e_i = (-1)^{|i||j|} e_i e_j + [e_j, e_i]   (out-of-order adjacent pair)
    e_i e_i = [e_i, e_i] / 2                        (odd i)

Both one-sided quotients by the even part, the left module U/(U g0) (the
module induced from the trivial even-part module) and the right module
U/(g0 U), are carried on the same 2^{dim g_1}-dimensional subset basis {x_S},
where x_S is the image of the ascending product of the odd basis vectors in S.
Words, in normal form or not, reach either quotient only through the action
columns of `_column`, letter by letter from x_{} (the image of 1); the PBW
normal form serves the arithmetic of U alone.

The antipode is the anti-automorphism with S(e_i) = -e_i and
S(xy) = (-1)^{|x||y|} S(y) S(x); it exchanges the two quotients and therefore
their invariants.  With this convention S is an involution on all of U.

The ghost element is the (at most one-dimensional) invariant of the
coinvariant module; the representation category of the corresponding
supergroup is semisimple exactly when the counit does not vanish on it.

Invariants are found on the weight-zero subsets only.  Call an even basis
element h diagonal when its bracket with every odd basis vector e_j is a
rational multiple lambda_j(h) e_j; this is read exactly off the structure
constants, so algebras from files qualify without a `cartan` line.  Such an h
acts on x_S through wt(S)(h) = sum of lambda_j(h) over j in S: in U/(U g0),
h x_S = x_S h + [h, x_S] = wt(S)(h) x_S, and in U/(g0 U),
x_S h = h x_S - [h, x_S] = -wt(S)(h) x_S.  Every invariant therefore lies in
the span of the x_S with wt(S) = 0, and only the action columns of those
subsets are computed, lazily and memoized per algebra.  A ghost computation
thus costs the number of weight-zero subsets (16 of 256 for osp(1|8), 32 of
1024 for osp(1|10)), not 2^{dim g_1}.  When no even basis element is diagonal,
every subset has weight zero and the whole quotient is used.  The weight-zero
subsets are counted by a dynamic program over partial weights before any is
listed, and a count above `WEIGHT_ZERO_BUDGET` raises `QuotientTooLarge`
(gl(4|4) has 824 410 of its 2^32 subsets at weight zero).

The quotients are computed in integers, read off the algebra's integer
structure table (c[i][j][k] = C / D over one common denominator D), with no
Fraction view of the brackets.  The action columns follow one graded
convention: the coordinate of x_T in e_i . x_S is N_T (2D)^{|T| - |S| - 1}
with N_T an integer.  The proof is by induction on the recursion of
`_column`: a letter that extends S gives N = 1, an odd square
sum_l C_l N', and a swap the product of two columns plus 2 C_l N', where
[e_a, e_b] = sum_l (C_l / D) e_l and N' is a column on a shorter subset.
Equivalently, 2D e_i acts on y_T = (2D)^{|T|} x_T by an integer matrix.  So the kernel of
`invariants` is taken on integer rows, and `module_action`, the word
projections and `reps.induced_trivial` sum integers and turn them into
Fractions once.  The PBW normal form of U still reads Fraction brackets.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .core import ODD, LieSuperalgebra, SuperkitError, _format_terms
from .linalg import Q, _integer_row, integer_vector, kernel_of_rows, zero_vec

Word = tuple[int, ...]

LEFT = "left"
RIGHT = "right"


def _normal_form_terms(
    g: LieSuperalgebra,
    items: Iterable[tuple[Word, Fraction]],
    *,
    leftmost: bool = True,
) -> dict[Word, Fraction]:
    par = g.parity
    out: dict[Word, Fraction] = {}
    stack: list[tuple[Word, Fraction]] = [(tuple(w), Q(c)) for w, c in items]
    while stack:
        w, c = stack.pop()
        if c == 0:
            continue
        pos = -1
        square = False
        rng = range(len(w) - 1) if leftmost else range(len(w) - 2, -1, -1)
        for k in rng:
            i, j = w[k], w[k + 1]
            if i == j and par[i] == ODD:
                pos, square = k, True
                break
            if (1 - par[i], i) > (1 - par[j], j):
                pos, square = k, False
                break
        if pos < 0:
            acc = out.get(w, Q(0)) + c
            if acc:
                out[w] = acc
            elif w in out:
                del out[w]
            continue
        i, j = w[pos], w[pos + 1]
        head, tail = w[:pos], w[pos + 2:]
        if square:
            for l, q in g.bracket_sparse(i, i):
                stack.append((head + (l,) + tail, c * q / 2))
        else:
            sign = Q(-1) if (par[i] and par[j]) else Q(1)
            stack.append((head + (j, i) + tail, c * sign))
            for l, q in g.bracket_sparse(i, j):
                stack.append((head + (l,) + tail, c * q))
    return out


class EnvelopingElement:
    """Finite rational combination of canonical PBW monomials."""

    __slots__ = ("g", "terms")

    def __init__(self, g: LieSuperalgebra, terms: dict[Word, Fraction]) -> None:
        self.g = g
        self.terms = {w: Q(c) for w, c in terms.items() if Q(c) != 0}

    # -- constructors -------------------------------------------------------

    @classmethod
    def unit(cls, g: LieSuperalgebra) -> "EnvelopingElement":
        return cls(g, {(): Q(1)})

    @classmethod
    def from_word(cls, g: LieSuperalgebra, word: Sequence[int],
                  coeff=1) -> "EnvelopingElement":
        return cls(g, _normal_form_terms(g, [(tuple(word), Q(coeff))]))

    @classmethod
    def from_lie(cls, g: LieSuperalgebra, x: Sequence) -> "EnvelopingElement":
        return cls(g, {(i,): Q(c) for i, c in enumerate(x) if Q(c) != 0})

    # -- ring structure -------------------------------------------------------

    def _binop(self, other: "EnvelopingElement", sign: int) -> "EnvelopingElement":
        if self.g is not other.g:
            raise SuperkitError("elements live over different algebras")
        terms = dict(self.terms)
        for w, c in other.terms.items():
            acc = terms.get(w, Q(0)) + sign * c
            if acc:
                terms[w] = acc
            elif w in terms:
                del terms[w]
        return EnvelopingElement(self.g, terms)

    def __add__(self, other: "EnvelopingElement") -> "EnvelopingElement":
        return self._binop(other, 1)

    def __sub__(self, other: "EnvelopingElement") -> "EnvelopingElement":
        return self._binop(other, -1)

    def __neg__(self) -> "EnvelopingElement":
        return self.scale(-1)

    def scale(self, c) -> "EnvelopingElement":
        c = Q(c)
        return EnvelopingElement(self.g, {w: c * q for w, q in self.terms.items()})

    def __mul__(self, other: "EnvelopingElement") -> "EnvelopingElement":
        if self.g is not other.g:
            raise SuperkitError("elements live over different algebras")
        items = [
            (wa + wb, ca * cb)
            for wa, ca in self.terms.items()
            for wb, cb in other.terms.items()
        ]
        return EnvelopingElement(self.g, _normal_form_terms(self.g, items))

    def __eq__(self, other) -> bool:
        return (isinstance(other, EnvelopingElement) and self.g is other.g
                and self.terms == other.terms)

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def is_zero(self) -> bool:
        return not self.terms

    # -- Hopf structure --------------------------------------------------------

    def counit(self) -> Fraction:
        """Coefficient of the empty monomial; kills the augmentation ideal."""
        return self.terms.get((), Q(0))

    def antipode(self) -> "EnvelopingElement":
        items = _antipode_words(self.g, self.terms)
        return EnvelopingElement(self.g, _normal_form_terms(self.g, items))

    def __str__(self) -> str:
        names = self.g.names
        return _format_terms(
            (self.terms[w], "*".join(names[i] for i in w))
            for w in sorted(self.terms, key=lambda w: (len(w), w))
        )

    __repr__ = __str__


def _antipode_words(g: LieSuperalgebra,
                    terms: dict[Word, Fraction]) -> list[tuple[Word, Fraction]]:
    """S applied word by word: each word reversed, with the sign
    (-1)^{len + k(k-1)/2} for k odd letters.  The words are not rewritten."""
    par = g.parity
    items = []
    for w, c in terms.items():
        odd = sum(1 for i in w if par[i] == ODD)
        sign = Q(-1) ** (len(w) + (odd * (odd - 1) // 2))
        items.append((tuple(reversed(w)), sign * c))
    return items


def pbw_normal_form(g: LieSuperalgebra, word: Sequence[int],
                    strategy: str = "leftmost") -> EnvelopingElement:
    """Normal form of a word of basis indices.  The strategy picks which
    reducible position fires first; all strategies agree on the result."""
    terms = _normal_form_terms(g, [(tuple(word), Q(1))],
                               leftmost=(strategy == "leftmost"))
    return EnvelopingElement(g, terms)


# ---------------------------------------------------------------------------
# coinvariant modules
# ---------------------------------------------------------------------------

@dataclass
class CoinvariantElement:
    """Vector in one of the one-sided quotients of U by its even part,
    on the subset basis {x_S} indexed by bitmasks over the odd basis."""

    g: LieSuperalgebra
    side: str
    coords: list[Fraction]

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)

    def counit(self) -> Fraction:
        """Empty-subset coordinate (the counit descends to both quotients)."""
        return self.coords[0]

    def scale(self, c) -> "CoinvariantElement":
        c = Q(c)
        return CoinvariantElement(self.g, self.side, [c * a for a in self.coords])

    def __str__(self) -> str:
        odd = self.g.odd_indices
        names = self.g.names
        return _format_terms(
            (c, "*".join(names[odd[t]] for t in range(len(odd)) if mask >> t & 1))
            for mask, c in enumerate(self.coords)
        )


def coinvariant_dim(g: LieSuperalgebra) -> int:
    return 1 << len(g.odd_indices)


def _graded(n: int, e: int, base: int, den: int = 1) -> Fraction:
    """The rational n base^e / den."""
    return Q(n * base ** e, den) if e >= 0 else Q(n, den * base ** -e)


def _project_words(g: LieSuperalgebra, items: Iterable[tuple[Word, Fraction]],
                   side: str) -> list[Fraction]:
    """Coordinates in the chosen quotient of a combination of words in any
    order: each word acts on x_{} through `_column`, from its last letter on
    the left side and from its first letter on the right side.

    2D e_i acts on y_T = (2D)^{|T|} x_T by the integer columns, so a word of
    length L takes x_{} = y_{} to (2D)^{-L} times an integer vector in the
    y_T.  Every word is scaled to the longest one, summed in integers, and
    turned into Fractions once.
    """
    if side not in (LEFT, RIGHT):
        raise ValueError(f"side must be {LEFT!r} or {RIGHT!r}")
    items = list(items)
    coeffs, den = integer_vector([c for _, c in items])
    base = 2 * g._den
    top = max((len(w) for w, _ in items), default=0)
    acc: dict[int, int] = {}
    for (w, _), c in zip(items, coeffs):
        if not c:
            continue
        vec = {0: c * base ** (top - len(w))}
        for i in (reversed(w) if side == LEFT else w):
            out: dict[int, int] = {}
            for mask, a in vec.items():
                _accumulate(out, _column(g, side, i, mask), a)
            vec = out
        _accumulate(acc, vec, 1)
    coords = zero_vec(coinvariant_dim(g))
    for mask, a in acc.items():
        coords[mask] = _graded(a, mask.bit_count() - top, base, den)
    return coords


def coinvariant_project(g: LieSuperalgebra, x: EnvelopingElement,
                        side: str) -> CoinvariantElement:
    """Image of x in U/(U g0) (side 'left') or U/(g0 U) (side 'right'),
    word by word through the action columns."""
    return CoinvariantElement(g, side, _project_words(g, x.terms.items(), side))


class _ColumnMemo:
    """Per-algebra memo of the action columns on both coinvariant quotients."""

    __slots__ = ("odd", "pos", "cols")

    def __init__(self, g: LieSuperalgebra) -> None:
        self.odd = g.odd_indices
        self.pos = {idx: t for t, idx in enumerate(self.odd)}
        self.cols: dict[tuple[str, int, int], dict[int, int]] = {}


def _column(g: LieSuperalgebra, side: str, i: int, mask: int) -> dict[int, int]:
    """The integer column N of e_i . x_S on the left quotient, or of
    x_S . e_i on the right quotient, where S is the subset with bitmask
    `mask`, in the graded convention

        e_i . x_S = sum_T N_T (2D)^{|T| - |S| - 1} x_T

    with D the algebra's common denominator: 2D e_i acts by the integer
    matrix N on y_T = (2D)^{|T|} x_T.

    This is the one place that maps words into either quotient and knows the
    word order of each side.  On the left x_S = e_s . x_R with s the lowest
    letter of S, and e_i e_s = (-1)^{|i||s|} e_s e_i + [e_i, e_s]; on the
    right x_S = x_R . e_s with s the highest letter, and
    e_s e_i = (-1)^{|i||s|} e_i e_s + [e_s, e_i].  Either way the column is a
    combination of columns on shorter words, or of e_s acting on a word that
    e_s already extends in order, so the recursion terminates.  With
    [e_a, e_b] = sum_l (C_l / D) e_l read off the integer table, N is an
    integer vector by induction on the three cases (|S| = |R| + 1):

    * extending, x_{S+i}: |T| = |S| + 1 and N = 1;
    * odd square (i = s): e_s e_s = [e_s, e_s] / 2 = sum_l C_l / (2D) e_l,
      and a column N' of e_l on x_R carries (2D)^{|T| - |R| - 1} =
      (2D)^{|T| - |S|}, one factor 2D above the exponent for S, which the
      1 / (2D) takes back: N = sum_l C_l N';
    * swap: e_i and then e_s through x_R multiplies two columns N1 and N2
      whose exponents sum to |T| - |R| - 2 = |T| - |S| - 1, so that term is
      +-N1 N2; the bracket term (C_l / D) e_l on x_R is again one factor 2D
      above, so it is (C_l / D) (2D) N' = 2 C_l N'.

    Results are memoized on the algebra and shared: callers must not mutate
    them.
    """
    memo = getattr(g, "_coinv_columns", None)
    if memo is None:
        memo = g._coinv_columns = _ColumnMemo(g)
    key = (side, i, mask)
    col = memo.cols.get(key)
    if col is not None:
        return col
    if side not in (LEFT, RIGHT):
        raise ValueError(f"side must be {LEFT!r} or {RIGHT!r}")
    t = memo.pos.get(i)
    if side == LEFT:
        s = (mask & -mask).bit_length() - 1
        extends = t is not None and (mask == 0 or t < s)
    else:
        s = mask.bit_length() - 1
        extends = t is not None and t > s
    col = {}
    if extends:
        col[mask | 1 << t] = 1
    elif mask:
        rest = mask & ~(1 << s)
        es = memo.odd[s]
        if t == s:
            for l, c in g._table[i][i]:
                _accumulate(col, _column(g, side, l, rest), c)
        else:
            sign = 1 if t is None else -1
            for m, a in _column(g, side, i, rest).items():
                _accumulate(col, _column(g, side, es, m), sign * a)
            x, y = (i, es) if side == LEFT else (es, i)
            for l, c in g._table[x][y]:
                _accumulate(col, _column(g, side, l, rest), 2 * c)
    memo.cols[key] = col
    return col


def _accumulate(out: dict[int, int], col: dict[int, int], c: int) -> None:
    for m, a in col.items():
        acc = out.get(m, 0) + c * a
        if acc:
            out[m] = acc
        else:
            out.pop(m, None)


def module_action(g: LieSuperalgebra, z: Sequence,
                  w: CoinvariantElement) -> CoinvariantElement:
    """Action of the algebra element z on a coinvariant vector (left
    multiplication on the left side, right multiplication on the right side).
    Only the columns of the subsets in the support of w are computed; the
    sum runs in integers, each x_S scaled to the largest |S| in the
    support, and is turned into Fractions once."""
    support = [(mask, c) for mask, c in enumerate(w.coords) if c]
    zs, lz = integer_vector(z)
    ws, lw = integer_vector([c for _, c in support])
    base = 2 * g._den
    top = max((mask.bit_count() for mask, _ in support), default=0)
    acc: dict[int, int] = {}
    for i, zi in enumerate(zs):
        if zi == 0:
            continue
        for (mask, _), c in zip(support, ws):
            _accumulate(acc, _column(g, w.side, i, mask), zi * c * base ** (top - mask.bit_count()))
    out = zero_vec(coinvariant_dim(g))
    for t, a in acc.items():
        out[t] = _graded(a, t.bit_count() - top - 1, base, lz * lw)
    return CoinvariantElement(g, w.side, out)


WEIGHT_ZERO_BUDGET = 1 << 16


class QuotientTooLarge(SuperkitError):
    """The weight-zero part of a coinvariant quotient exceeds the budget."""

    def __init__(self, count: int) -> None:
        super().__init__(f"{count} weight-zero subsets of the odd basis exceed "
                         f"the budget of {WEIGHT_ZERO_BUDGET}")
        self.count = count


def _odd_weights(g: LieSuperalgebra) -> list[tuple[int, ...]]:
    """D lambda_j(h) for each odd basis vector e_j, over the even basis
    elements h whose bracket with every odd e_j is a rational multiple
    lambda_j(h) e_j, read exactly off the integer table."""
    odd = g.odd_indices
    rows = []
    for h in g.even_indices:
        row = []
        for j in odd:
            br = g._table[h][j]
            if br and (len(br) > 1 or br[0][0] != j):
                break
            row.append(br[0][1] if br else 0)
        else:
            rows.append(row)
    return list(zip(*rows)) if rows else [()] * len(odd)


def _weight_dp(g: LieSuperalgebra):
    """(steps, counts, zero): steps[t] is D wt({t}), the weight of the t-th
    odd basis vector, and counts[t] maps each weight w = D wt(S) of a subset
    S of the first t odd basis vectors to the number of such S, for the w
    that the remaining vectors can still bring back to zero: -w lies, in
    every coordinate, between the sums of their negative and of their
    positive entries.  A dynamic program over the partial weights; it lists
    no subset, and counts[-1][zero] is the number of weight-zero subsets."""
    steps = _odd_weights(g)
    zero = (0,) * len(steps[0]) if steps else ()
    # lo[t], hi[t]: the coordinatewise range of the weights of the subsets
    # of the vectors from t on
    lo, hi = [zero], [zero]
    for step in reversed(steps):
        lo.append(tuple(a + min(b, 0) for a, b in zip(lo[-1], step)))
        hi.append(tuple(a + max(b, 0) for a, b in zip(hi[-1], step)))
    lo.reverse()
    hi.reverse()
    counts = [{zero: 1}]
    for t, step in enumerate(steps):
        low, high = lo[t + 1], hi[t + 1]
        nxt: dict[tuple[int, ...], int] = {}
        for w, c in counts[-1].items():
            for key in (w, tuple(a + b for a, b in zip(w, step))):
                if all(lw <= -x <= hg for x, lw, hg in zip(key, low, high)):
                    nxt[key] = nxt.get(key, 0) + c
        counts.append(nxt)
    return steps, counts, zero


def _weight_zero_masks(g: LieSuperalgebra) -> list[int]:
    """Bitmasks, in increasing order, of the subsets S of the odd basis with
    wt(S) = 0.

    The weights come from the even basis elements h whose bracket with every
    odd basis vector e_j is a rational multiple lambda_j(h) e_j, read exactly
    from the structure constants; wt(S)(h) is the sum of lambda_j(h) over j in
    S.  With no such h every subset qualifies.  The subsets are counted
    first (`_weight_dp`), and a count above `WEIGHT_ZERO_BUDGET` raises
    `QuotientTooLarge` before any is listed; the listing then walks only
    the partial weights that can still return to zero.
    """
    steps, counts, zero = _weight_dp(g)
    total = counts[-1][zero]
    if total > WEIGHT_ZERO_BUDGET:
        raise QuotientTooLarge(total)
    out = []
    # (t, w, mask): extend mask by a subset of the first t vectors of weight w;
    # the higher bits are decided first and "without" pops first
    stack = [(len(steps), zero, 0)]
    while stack:
        t, need, mask = stack.pop()
        if t == 0:
            out.append(mask)
            continue
        prev = counts[t - 1]
        rest = tuple(a - b for a, b in zip(need, steps[t - 1]))
        if rest in prev:
            stack.append((t - 1, rest, mask | 1 << (t - 1)))
        if need in prev:
            stack.append((t - 1, need, mask))
    return out


def invariants(g: LieSuperalgebra, side: str) -> list[CoinvariantElement]:
    """Basis of the joint kernel of all basis actions: the invariant vectors
    of the chosen coinvariant module.

    A diagonally acting h scales x_S by wt(S)(h) on the left and by
    -wt(S)(h) on the right, so every invariant lies in the span of the
    weight-zero x_S.  Only those columns are computed, and their joint kernel
    is embedded back into the full subset basis.  Row (i, t) of the action,
    whose entry at S is N_T (2D)^{|t| - |S| - 1}, is scaled by
    (2D)^{top + 1 - |t|}, top the largest |S| in the support: its entries
    N_T (2D)^{top - |S|} are integers, and the kernel is unchanged.
    """
    support = _weight_zero_masks(g)
    base = 2 * g._den
    top = max((mask.bit_count() for mask in support), default=0)
    rows: dict[tuple[int, int], list[int]] = {}
    for p, mask in enumerate(support):
        scale = base ** (top - mask.bit_count())
        for i in range(g.dim):
            for t, n in _column(g, side, i, mask).items():
                row = rows.get((i, t))
                if row is None:
                    row = rows[(i, t)] = [0] * len(support)
                row[p] = n * scale
    out = []
    for k in kernel_of_rows(rows.values(), len(support)):
        coords = zero_vec(coinvariant_dim(g))
        for mask, c in zip(support, k):
            coords[mask] = c
        out.append(CoinvariantElement(g, side, coords))
    return out


# ---------------------------------------------------------------------------
# ghost element and the semisimplicity criterion
# ---------------------------------------------------------------------------

SEMISIMPLE = "Semisimple"
NOT_SEMISIMPLE = "NotSemisimple"
NO_INVARIANT = "NoInvariant"


@dataclass
class GhostElement:
    v: CoinvariantElement
    epsilon_value: Fraction
    invariant_dim: int


def _primitive(coords: list[Fraction]) -> list[Fraction]:
    ints = _integer_row(coords)
    lead = next((x for x in ints if x), 1)
    if lead < 0:
        ints = [-x for x in ints]
    return [Q(x) for x in ints]


def ghost_criterion(g: LieSuperalgebra) -> tuple[GhostElement, str]:
    """Compute the invariant of the right-sided coinvariant module and decide
    semisimplicity of the representation category by whether the counit
    vanishes on it.  The result carries the dimension of the invariant space.

    The verdict is scale-invariant; the reported element is normalized to
    empty-subset coefficient 1 when the counit is nonzero and to a primitive
    integer vector otherwise.
    """
    basis = invariants(g, RIGHT)
    if not basis:
        zero = CoinvariantElement(g, RIGHT, zero_vec(coinvariant_dim(g)))
        return GhostElement(zero, Q(0), 0), NO_INVARIANT
    w = next((b for b in basis if b.counit() != 0), basis[0])
    eps = w.counit()
    if eps != 0:
        v = w.scale(Q(1) / eps)
        return GhostElement(v, v.counit(), len(basis)), SEMISIMPLE
    v = CoinvariantElement(g, RIGHT, _primitive(w.coords))
    return GhostElement(v, Q(0), len(basis)), NOT_SEMISIMPLE


# ---------------------------------------------------------------------------
# the classical product invariant for osp(1|2n)
# ---------------------------------------------------------------------------

def double_factorial_odd(n: int) -> int:
    """(2n-1)!! = 1 * 3 * ... * (2n-1)."""
    out = 1
    for k in range(1, n + 1):
        out *= 2 * k - 1
    return out


def djokovic_element(n: int):
    """The element (1 + a_1 b_1)(3 + a_2 b_2)...((2n-1) + a_n b_n) in
    U(osp(1|2n)), with t_i = a_i b_i built from the symplectic basis."""
    from .families import build_osp1, osp_odd_indices
    g = build_osp1(n)
    a_idx, b_idx = osp_odd_indices(n)
    v = EnvelopingElement.unit(g)
    for i in range(n):
        t_i = EnvelopingElement.from_word(g, (a_idx[i], b_idx[i]))
        factor = EnvelopingElement.unit(g).scale(2 * i + 1) + t_i
        v = v * factor
    return g, v


@dataclass
class DjokovicReport:
    """Invariance report for the classical product element.

    The product lives naturally in the quotient by the right-multiplied
    ideal U g0 (the module named 'left' here, since it carries the left
    action); its antipode image lives in the quotient by g0 U.
    """

    n: int
    element: EnvelopingElement
    product_invariant: bool
    antipode_invariant: bool
    epsilon: Fraction
    epsilon_expected: int

    @property
    def ok(self) -> bool:
        return (self.product_invariant and self.antipode_invariant
                and self.epsilon == self.epsilon_expected)


def is_coinvariant_invariant(g: LieSuperalgebra, w: CoinvariantElement) -> bool:
    """True iff every basis element kills w in its module."""
    return all(
        module_action(g, g.basis_vector(i), w).is_zero() for i in range(g.dim)
    )


def verify_djokovic(n: int) -> DjokovicReport:
    """Build the classical product element, check it is invariant in the
    quotient U/(U g0) it classically lives in, push it through the antipode
    word by word, project it to the other quotient U/(g0 U) without rewriting
    it in U, re-check invariance there, and report its counit (2n-1)!!."""
    if not 1 <= n <= 5:
        raise ValueError("verify_djokovic is calibrated for 1 <= n <= 5")
    g, v = djokovic_element(n)
    vp = coinvariant_project(g, v, LEFT)
    product_ok = (not vp.is_zero()) and is_coinvariant_invariant(g, vp)
    sv = _antipode_words(g, v.terms)
    va = CoinvariantElement(g, RIGHT, _project_words(g, sv, RIGHT))
    antipode_ok = (not va.is_zero()) and is_coinvariant_invariant(g, va)
    return DjokovicReport(
        n=n,
        element=v,
        product_invariant=product_ok,
        antipode_invariant=antipode_ok,
        epsilon=v.counit(),
        epsilon_expected=double_factorial_odd(n),
    )
