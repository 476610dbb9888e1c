"""Line-oriented structured text formats.

Rationals serialize as "p/q" or "p".  Lines are whitespace-separated tokens;
blank lines and lines starting with '#' are ignored.

Algebra files::

    algebra NAME
    basis LABEL even|odd          # one line per basis element, in order
    bracket LI LJ LK RATIONAL     # structure constant c[i][j][k], all nonzero ones
    cartan LABEL ...              # optional; names at least one label
                                  # unless the algebra is purely odd; an
                                  # abelian, self-centralizing even span
    rep even|odd ...              # optional: representation space parities
    repmat LABEL                  # followed by rep-dim rows of rationals

Module files (relative to a given algebra)::

    module NAME
    parity even|odd ...
    action LABEL                  # followed by module-dim rows of rationals

Supercommutative tables with an odd derivation::

    algebra NAME
    basis LABEL even|odd
    unit RATIONAL ...             # coordinates of the unit
    mul LI LJ LK RATIONAL         # multiplication table entries
    derivation                    # followed by dim rows of rationals

Matrix rows are written column-action style: entry (r, c) is the coefficient
of basis vector r in the image of basis vector c.

Each entry is given once, in strict and lax mode alike: a repeated entry,
header, matrix block or basis label is refused, naming the line of the
first.

The three parsers share one token reader: each distinct rational token of
a file becomes a Fraction once per parse (a memo local to the parse, so
the accepted tokens and the "bad rational" errors are `Fraction`'s own),
and a zero matrix entry is only skipped.  Brackets and multiplications
become `core`'s sparse integer table, and `repmat` and `action` blocks
become a `SuperModule`'s sparse integer rows over one denominator; the
serializers write back from those tables, so no dense Fraction matrix is
built on either side.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import islice
from math import lcm

from .core import LieSuperalgebra, SuperkitError, _structure_table
from .linalg import Matrix, Q, _echelon
from .reps import SuperModule, validate_module
from .supercomm import SupercommAlgebra


class ParseError(SuperkitError):
    pass


# the nonzero (column, entry) pairs of a matrix row, with its width
Row = tuple[int, list[tuple[int, Fraction]]]


class _Reader:
    """The lines of one file as (line number, tokens), and its rationals:
    each distinct token goes through `Q` once, into a memo that lives as
    long as the parse.  A directive that opens a block takes its rows with
    `block`, from the same line iterator."""

    def __init__(self, text: str) -> None:
        self._lines = self._scan(text)
        self._memo: dict[str, Fraction] = {}

    @staticmethod
    def _scan(text: str):
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if line:
                yield lineno, line.split()

    def __iter__(self):
        return self._lines

    def block(self, n: int, read, unfinished: str) -> list:
        """The next n lines, each as read(tokens, line number); ParseError
        `unfinished` if the file ends first."""
        rows = [read(toks, lineno) for lineno, toks in islice(self._lines, n)]
        if len(rows) < n:
            raise ParseError(unfinished)
        return rows

    def rational(self, tok: str, lineno: int) -> Fraction:
        q = self._memo.get(tok)
        if q is None:
            try:
                q = self._memo[tok] = Q(tok)
            except (ValueError, ZeroDivisionError) as exc:
                raise ParseError(f"line {lineno}: bad rational {tok!r}") from exc
        return q

    def rationals(self, toks: list[str], lineno: int) -> list[Fraction]:
        return [self.rational(t, lineno) for t in toks]

    def row(self, toks: list[str], lineno: int) -> Row:
        """The width of a matrix row and its nonzero entries."""
        entries = []
        for c, tok in enumerate(toks):
            if tok != "0" and (q := self.rational(tok, lineno)):
                entries.append((c, q))
        return len(toks), entries


def _parity_token(tok: str, lineno: int) -> int:
    if tok == "even":
        return 0
    if tok == "odd":
        return 1
    raise ParseError(f"line {lineno}: parity must be 'even' or 'odd', got {tok!r}")


def _basis(toks: list[str], lineno: int, labels: dict[str, int], parity: list[int]) -> None:
    """Record the label and parity of a `basis` line in `labels` (label ->
    line) and `parity` (ParseError on a malformed line or a repeated label)."""
    if len(toks) != 3:
        raise ParseError(f"line {lineno}: basis needs LABEL and parity")
    if toks[1] in labels:
        raise ParseError(f"line {lineno}: duplicate basis labels: {toks[1]!r} "
                         f"repeats line {labels[toks[1]]}")
    labels[toks[1]] = lineno
    parity.append(_parity_token(toks[2], lineno))


def parse_algebra(text: str, strict: bool = True) -> tuple[LieSuperalgebra, str, list[str]]:
    """Parse an algebra file; returns (algebra, name, warnings).

    In strict mode a failed axiom check, a `rep` block whose matrices are
    linearly dependent (a representation that is not faithful) or that
    break the parity or representation law, or a `cartan` line whose span
    is not abelian and self-centralizing in the even part, raises
    ParseError; in lax mode these come back as warnings: the axiom
    violations of `validate`, then these refusals.

    The axioms are checked by `axiom_check`: through the `rep` when it is
    accepted, else by `validate`.
    """
    name = "algebra"
    labels: dict[str, int] = {}
    parity: list[int] = []
    brackets: list[tuple[str, str, str, Fraction, int]] = []
    cartan_labels: list[str] | None = None
    cartan_line = 0
    rep_parity: list[int] | None = None
    rep_mats: dict[str, tuple[int, list[Row]]] = {}
    seen: dict[tuple[str, ...], int] = {}
    reader = _Reader(text)

    for lineno, toks in reader:
        key = toks[0]
        if key == "algebra":
            name = " ".join(toks[1:]) or name
        elif key == "basis":
            _basis(toks, lineno, labels, parity)
        elif key == "bracket":
            if len(toks) != 5:
                raise ParseError(f"line {lineno}: bracket needs LI LJ LK RATIONAL")
            _once(seen, toks[:4], lineno)
            brackets.append((toks[1], toks[2], toks[3], reader.rational(toks[4], lineno), lineno))
        elif key == "cartan":
            _once(seen, toks[:1], lineno)
            cartan_labels = toks[1:]
            cartan_line = lineno
        elif key == "rep":
            _once(seen, toks[:1], lineno)
            rep_parity = [_parity_token(t, lineno) for t in toks[1:]]
        elif key == "repmat":
            if rep_parity is None:
                raise ParseError(f"line {lineno}: repmat before rep header")
            if len(toks) != 2:
                raise ParseError(f"line {lineno}: repmat needs a basis LABEL")
            _open_block(rep_mats, toks[1], lineno, "repmat", reader, len(rep_parity))
        else:
            raise ParseError(f"line {lineno}: unknown directive {key!r}")
    if not labels:
        raise ParseError("no basis elements declared")
    index = {lab: i for i, lab in enumerate(labels)}
    items = _resolve(brackets, index)
    cartan = None
    if cartan_labels is not None:
        if not cartan_labels and 0 in parity:
            # an empty Cartan of an algebra with an even part would be taken
            # as given and yield no roots; omit the line to have it searched
            raise ParseError(f"line {cartan_line}: cartan names no basis labels, "
                             "but the algebra has an even part")
        try:
            cartan = [index[lab] for lab in cartan_labels]
        except KeyError as exc:
            raise ParseError(f"cartan: unknown basis label {exc.args[0]!r}") from exc
    rep = None
    if rep_parity is not None:
        rep = _module(rep_parity, rep_mats, index, "file", "rep: missing repmat", "rep: matrix")
    names = list(labels)
    g = LieSuperalgebra._of_table(parity, *_structure_table(len(names), items), names,
                                  faithful_rep=rep, cartan=cartan)
    warnings, refusals = axiom_check(g)
    if strict and warnings:
        raise ParseError("axiom violations: " + "; ".join(warnings[:5]))
    if cartan is not None and (problem := _cartan_problem(g)):
        refusals.append(f"line {cartan_line}: cartan {problem}")
    if strict and refusals:
        raise ParseError(refusals[0])
    return g, name, warnings + refusals


def _resolve(entries: list[tuple[str, str, str, Fraction, int]],
             index: dict[str, int]) -> list[tuple[int, int, int, Fraction]]:
    """The (i, j, k, q) of the `bracket` or `mul` entries (LI, LJ, LK, q,
    line), by the basis `index` (ParseError on an unknown label)."""
    items = []
    for li, lj, lk, val, lineno in entries:
        try:
            items.append((index[li], index[lj], index[lk], val))
        except KeyError as exc:
            raise ParseError(f"line {lineno}: unknown basis label {exc.args[0]!r}") from exc
    return items


def axiom_check(g: LieSuperalgebra) -> tuple[list[str], list[str]]:
    """(violations, refusals) of g's axioms, through its `faithful_rep` first.

    The rep is checked first, by the acceptance test of
    `LieSuperalgebra._rep_refusal` (faithfulness, then `validate_module`),
    which certifies an accepted rep; a failure is a refusal, prefixed
    "rep: ".  `validate` runs only when there is no rep or it is refused:
    an accepted rep is an injective, parity-preserving rho: g -> gl(V)
    with rho [x, y] = [rho x, rho y], and gl(V) is a Lie superalgebra, so
    rho maps the wrong parity part of [e_i, e_j], [x, y] + (-1)^{|x||y|}
    [y, x] and the Jacobi expression of x, y, z to 0, and they are 0."""
    rep = g.faithful_rep
    refusal = g._rep_refusal() if rep is not None else None
    refusals = ["rep: " + refusal] if refusal else []
    return (g.validate() if rep is None or refusals else []), refusals


def _cartan_problem(g: LieSuperalgebra) -> str | None:
    """Why the span H of the `cartan` elements is not abelian and equal to its
    centralizer in the even part g0 (the kernel of x -> [x, H] on g0), or None."""
    h = sorted(set(g.cartan))
    if any(g.parity[i] for i in h):
        return "names an odd basis element"
    if any(g._table[i][j] for i in h for j in h):
        return "names elements that do not commute"
    even = g.even_indices
    centralizer = len(even) - _echelon(
        (r for j in h for r in g._bracket_rows(even, j, even)), len(even)).rank
    if centralizer != len(h):
        return (f"span has dimension {len(h)}, its centralizer in the even part "
                f"{centralizer}: it is not self-centralizing")
    return None


def serialize_algebra(g: LieSuperalgebra, name: str = "algebra") -> str:
    lines = [f"algebra {name}"]
    for i in range(g.dim):
        lines.append(f"basis {g.names[i]} {'odd' if g.parity[i] else 'even'}")
    den = g._den
    for i, block in enumerate(g._table):
        for j, row in enumerate(block):
            for k, c in row:
                lines.append(f"bracket {g.names[i]} {g.names[j]} {g.names[k]} {Q(c, den)}")
    if g.cartan is not None:
        lines.append("cartan " + " ".join(g.names[i] for i in g.cartan))
    rep = g.faithful_rep
    if rep is not None:
        lines.append("rep " + " ".join("odd" if p else "even" for p in rep.parity))
        _matrix_lines(lines, "repmat", g.names, rep)
    return "\n".join(lines) + "\n"


def _matrix_lines(lines: list[str], kind: str, labels, m: SuperModule) -> None:
    """Append the `kind` block of each label's action matrix in m, written
    from its integer rows: A / D at each nonzero entry, 0 elsewhere."""
    n, den = m.dim, m._den
    for label, rows in zip(labels, m._table):
        lines.append(f"{kind} {label}")
        for row in rows:
            out = ["0"] * n
            for c, a in row:
                out[c] = str(Q(a, den))
            lines.append(" ".join(out))


def parse_module(text: str, g: LieSuperalgebra, strict: bool = True) -> tuple[SuperModule, str, list[str]]:
    name = "module"
    parity: list[int] | None = None
    mats: dict[str, tuple[int, list[Row]]] = {}
    seen: dict[tuple[str, ...], int] = {}
    reader = _Reader(text)
    for lineno, toks in reader:
        key = toks[0]
        if key == "module":
            name = " ".join(toks[1:]) or name
        elif key == "parity":
            _once(seen, toks[:1], lineno)
            parity = [_parity_token(t, lineno) for t in toks[1:]]
        elif key == "action":
            if parity is None:
                raise ParseError(f"line {lineno}: action before parity header")
            if len(toks) != 2:
                raise ParseError(f"line {lineno}: action needs a basis LABEL")
            _open_block(mats, toks[1], lineno, "action", reader, len(parity))
        else:
            raise ParseError(f"line {lineno}: unknown directive {key!r}")
    if parity is None:
        raise ParseError("no parity header")
    m = _module(parity, mats, {lab: i for i, lab in enumerate(g.names)}, name,
                "missing action matrix", "action matrix")
    warnings = validate_module(g, m)
    if strict and warnings:
        raise ParseError("module violations: " + "; ".join(warnings[:5]))
    return m, name, warnings


def _once(seen: dict[tuple[str, ...], int], entry: list[str], lineno: int) -> None:
    """Record that `entry`, a directive and the labels that key it, is set
    at `lineno` (ParseError if an earlier line set it)."""
    key = tuple(entry)
    if key in seen:
        raise ParseError(f"line {lineno}: {' '.join(key)} repeats line {seen[key]}")
    seen[key] = lineno


def _open_block(blocks: dict[str, tuple[int, list[Row]]], label: str,
                lineno: int, kind: str, reader: _Reader, n: int) -> None:
    """Read the n rows of the matrix block for `label` opened at `lineno`
    (ParseError if `label` already has one, or the file ends inside it)."""
    if label in blocks:
        raise ParseError(f"line {lineno}: {kind} {label!r} repeats the block "
                         f"of line {blocks[label][0]}")
    blocks[label] = (lineno, reader.block(n, reader.row, "file ended inside a matrix block"))


def _module(parity: list[int], blocks: dict[str, tuple[int, list[Row]]],
            index: dict[str, int], name: str, missing: str, kind: str) -> SuperModule:
    """The module with each basis label's parsed matrix block, on integer
    rows over the least common denominator of its entries (ParseError if
    a block names no basis label, or a label's block is absent or not
    square)."""
    for lab, (lineno, _) in blocks.items():
        if lab not in index:
            raise ParseError(f"line {lineno}: unknown basis label {lab!r}")
    d = len(parity)
    for lab in index:
        if lab not in blocks:
            raise ParseError(f"{missing} for basis label {lab!r}")
        if any(width != d for width, _ in blocks[lab][1]):
            raise ParseError(f"{kind} for {lab!r} is not {d}x{d}")
    mats = [blocks[lab][1] for lab in index]
    den = lcm(*{q.denominator for rows in mats for _, row in rows for _, q in row})
    table = [[[(c, q.numerator * (den // q.denominator)) for c, q in row] for _, row in rows]
             for rows in mats]
    return SuperModule._of_table(parity, table, den, name)


def serialize_module(m: SuperModule, g: LieSuperalgebra, name: str = "module") -> str:
    lines = [f"module {name}"]
    lines.append("parity " + " ".join("odd" if p else "even" for p in m.parity))
    _matrix_lines(lines, "action", g.names, m)
    return "\n".join(lines) + "\n"


def parse_supercomm(text: str, strict: bool = True) -> tuple[SupercommAlgebra, Matrix | None, str]:
    """Parse a supercommutative table with an optional derivation block."""
    name = "algebra"
    labels: dict[str, int] = {}
    parity: list[int] = []
    unit: list[Fraction] | None = None
    muls: list[tuple[str, str, str, Fraction, int]] = []
    deriv_rows: list[list[Fraction]] | None = None
    seen: dict[tuple[str, ...], int] = {}
    reader = _Reader(text)
    for lineno, toks in reader:
        key = toks[0]
        if key == "algebra":
            name = " ".join(toks[1:]) or name
        elif key == "basis":
            _basis(toks, lineno, labels, parity)
        elif key == "unit":
            _once(seen, toks[:1], lineno)
            unit = reader.rationals(toks[1:], lineno)
        elif key == "mul":
            if len(toks) != 5:
                raise ParseError(f"line {lineno}: mul needs LI LJ LK RATIONAL")
            _once(seen, toks[:4], lineno)
            muls.append((toks[1], toks[2], toks[3], reader.rational(toks[4], lineno), lineno))
        elif key == "derivation":
            _once(seen, toks[:1], lineno)
            deriv_rows = reader.block(len(labels), reader.rationals,
                                      "file ended inside the derivation block")
        else:
            raise ParseError(f"line {lineno}: unknown directive {key!r}")
    if not labels:
        raise ParseError("no basis elements declared")
    if unit is None or len(unit) != len(labels):
        raise ParseError("unit coordinates missing or of wrong length")
    n = len(labels)
    items = _resolve(muls, {lab: i for i, lab in enumerate(labels)})
    algebra = SupercommAlgebra._of_table(parity, *_structure_table(n, items), unit, list(labels))
    from .supercomm import validate_algebra, validate_derivation
    issues = validate_algebra(algebra)
    deriv = None
    if deriv_rows is not None:
        if any(len(r) != n for r in deriv_rows):
            raise ParseError("derivation matrix rows have wrong length")
        deriv = Matrix(deriv_rows)
        issues += validate_derivation(algebra, deriv)
    if strict and issues:
        raise ParseError("table violations: " + "; ".join(issues[:5]))
    return algebra, deriv, name


def serialize_supercomm(a: SupercommAlgebra, deriv: Matrix | None = None,
                        name: str = "algebra") -> str:
    lines = [f"algebra {name}"]
    safe = [nm.replace(" ", "_") for nm in a.names]
    for i in range(a.dim):
        lines.append(f"basis {safe[i]} {'odd' if a.parity[i] else 'even'}")
    lines.append("unit " + " ".join(str(c) for c in a.unit))
    for i, block in enumerate(a._table):
        for j, row in enumerate(block):
            for k, c in row:
                lines.append(f"mul {safe[i]} {safe[j]} {safe[k]} {Q(c, a._den)}")
    if deriv is not None:
        lines.append("derivation")
        for row in deriv.data:
            lines.append(" ".join(str(c) for c in row))
    return "\n".join(lines) + "\n"
