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
header or matrix block is refused, naming the line of the first.
"""

from __future__ import annotations

from fractions import Fraction

from .core import LieSuperalgebra, SuperkitError, _structure_table
from .linalg import Matrix, Q, _echelon
from .reps import SuperModule, validate_module
from .supercomm import SupercommAlgebra


class ParseError(SuperkitError):
    pass


def _tokens(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        yield lineno, line.split()


def _rational(tok: str, lineno: int) -> Fraction:
    try:
        return Q(tok)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"line {lineno}: bad rational {tok!r}") from exc


def _parity_token(tok: str, lineno: int) -> int:
    if tok == "even":
        return 0
    if tok == "odd":
        return 1
    raise ParseError(f"line {lineno}: parity must be 'even' or 'odd', got {tok!r}")


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
    labels: list[str] = []
    parity: list[int] = []
    brackets: list[tuple[str, str, str, Fraction, int]] = []
    cartan_labels: list[str] | None = None
    cartan_line = 0
    rep_parity: list[int] | None = None
    rep_mats: dict[str, tuple[int, list[list[Fraction]]]] = {}
    pending_matrix: list[list[Fraction]] | None = None
    pending_rows_needed = 0
    seen: dict[tuple[str, ...], int] = {}

    for lineno, toks in _tokens(text):
        if pending_matrix is not None and pending_rows_needed > 0:
            pending_matrix.append([_rational(t, lineno) for t in toks])
            pending_rows_needed -= 1
            continue
        key = toks[0]
        if key == "algebra":
            name = " ".join(toks[1:]) or name
        elif key == "basis":
            if len(toks) != 3:
                raise ParseError(f"line {lineno}: basis needs LABEL and parity")
            labels.append(toks[1])
            parity.append(_parity_token(toks[2], lineno))
        elif key == "bracket":
            if len(toks) != 5:
                raise ParseError(f"line {lineno}: bracket needs LI LJ LK RATIONAL")
            _once(seen, toks[:4], lineno)
            brackets.append((toks[1], toks[2], toks[3], _rational(toks[4], lineno), lineno))
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
            pending_matrix = _open_block(rep_mats, toks[1], lineno, "repmat")
            pending_rows_needed = len(rep_parity)
        else:
            raise ParseError(f"line {lineno}: unknown directive {key!r}")
    if pending_rows_needed:
        raise ParseError("file ended inside a matrix block")
    if not labels:
        raise ParseError("no basis elements declared")
    index = {lab: i for i, lab in enumerate(labels)}
    if len(index) != len(labels):
        raise ParseError("duplicate basis labels")
    table: dict[tuple[int, int], dict[int, Fraction]] = {}
    for li, lj, lk, val, lineno in brackets:
        try:
            i, j, k = index[li], index[lj], index[lk]
        except KeyError as exc:
            raise ParseError(f"line {lineno}: unknown basis label {exc.args[0]!r}") from exc
        table.setdefault((i, j), {})[k] = val
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
        rep = _module(rep_parity, rep_mats, labels, "file", "rep: missing repmat", "rep: matrix")
    g = LieSuperalgebra(parity, table, labels, faithful_rep=rep, cartan=cartan)
    warnings, refusals = axiom_check(g)
    if strict and warnings:
        raise ParseError("axiom violations: " + "; ".join(warnings[:5]))
    if cartan is not None and (problem := _cartan_problem(g)):
        refusals.append(f"line {cartan_line}: cartan {problem}")
    if strict and refusals:
        raise ParseError(refusals[0])
    return g, name, warnings + refusals


def axiom_check(g: LieSuperalgebra) -> tuple[list[str], list[str]]:
    """(violations, refusals) of g's axioms, through its `faithful_rep` first.

    The rep is checked first (faithfulness, then `validate_module`); a
    failure is a refusal, prefixed "rep: ".  `validate` runs only when there
    is no rep or it is refused: an accepted rep is an injective,
    parity-preserving rho: g -> gl(V) with rho [x, y] = [rho x, rho y], and
    gl(V) is a Lie superalgebra, so rho maps the wrong parity part of
    [e_i, e_j], [x, y] + (-1)^{|x||y|} [y, x] and the Jacobi expression of
    x, y, z to 0, and they are 0."""
    rep = g.faithful_rep
    refusals = []
    if rep is not None and _echelon(
            ({r * rep.dim + c: a for r, row in enumerate(rows) for c, a in row}
             for rows in rep._table), rep.dim ** 2).rank < g.dim:
        refusals.append("rep: the representation is not faithful (its matrices are linearly dependent)")
    elif rep is not None and (law := validate_module(g, rep)):
        refusals.append("rep: " + law[0])
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
    for i in range(g.dim):
        for j in range(g.dim):
            for k, c in g.bracket_sparse(i, j):
                lines.append(f"bracket {g.names[i]} {g.names[j]} {g.names[k]} {c}")
    if g.cartan is not None:
        lines.append("cartan " + " ".join(g.names[i] for i in g.cartan))
    rep = g.faithful_rep
    if rep is not None:
        lines.append("rep " + " ".join("odd" if p else "even" for p in rep.parity))
        for i in range(g.dim):
            lines.append(f"repmat {g.names[i]}")
            for row in rep.action[i].data:
                lines.append(" ".join(str(c) for c in row))
    return "\n".join(lines) + "\n"


def parse_module(text: str, g: LieSuperalgebra, strict: bool = True) -> tuple[SuperModule, str, list[str]]:
    name = "module"
    parity: list[int] | None = None
    mats: dict[str, tuple[int, list[list[Fraction]]]] = {}
    pending: list[list[Fraction]] | None = None
    needed = 0
    seen: dict[tuple[str, ...], int] = {}
    for lineno, toks in _tokens(text):
        if pending is not None and needed > 0:
            pending.append([_rational(t, lineno) for t in toks])
            needed -= 1
            continue
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
            pending = _open_block(mats, toks[1], lineno, "action")
            needed = len(parity)
        else:
            raise ParseError(f"line {lineno}: unknown directive {key!r}")
    if needed:
        raise ParseError("file ended inside a matrix block")
    if parity is None:
        raise ParseError("no parity header")
    m = _module(parity, mats, g.names, name, "missing action matrix", "action matrix")
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


def _open_block(blocks: dict[str, tuple[int, list[list[Fraction]]]], label: str,
                lineno: int, kind: str) -> list[list[Fraction]]:
    """The rows of a new matrix block for `label` opened at `lineno`
    (ParseError if `label` already has one)."""
    if label in blocks:
        raise ParseError(f"line {lineno}: {kind} {label!r} repeats the block "
                         f"of line {blocks[label][0]}")
    blocks[label] = (lineno, [])
    return blocks[label][1]


def _module(parity: list[int], blocks: dict[str, tuple[int, list[list[Fraction]]]], labels,
            name: str, missing: str, kind: str) -> SuperModule:
    """The module with each label's parsed matrix block (ParseError if a
    block names no basis label, or a label's block is absent or not square)."""
    for lab, (lineno, _) in blocks.items():
        if lab not in labels:
            raise ParseError(f"line {lineno}: unknown basis label {lab!r}")
    d = len(parity)
    for lab in labels:
        if lab not in blocks:
            raise ParseError(f"{missing} for basis label {lab!r}")
        rows = blocks[lab][1]
        if len(rows) != d or any(len(r) != d for r in rows):
            raise ParseError(f"{kind} for {lab!r} is not {d}x{d}")
    return SuperModule(parity, [Matrix(blocks[lab][1]) for lab in labels], name)


def serialize_module(m: SuperModule, g: LieSuperalgebra, name: str = "module") -> str:
    lines = [f"module {name}"]
    lines.append("parity " + " ".join("odd" if p else "even" for p in m.parity))
    for i in range(g.dim):
        lines.append(f"action {g.names[i]}")
        for row in m.action[i].data:
            lines.append(" ".join(str(c) for c in row))
    return "\n".join(lines) + "\n"


def parse_supercomm(text: str, strict: bool = True) -> tuple[SupercommAlgebra, Matrix | None, str]:
    """Parse a supercommutative table with an optional derivation block."""
    name = "algebra"
    labels: list[str] = []
    parity: list[int] = []
    unit: list[Fraction] | None = None
    muls: list[tuple[str, str, str, Fraction, int]] = []
    deriv_rows: list[list[Fraction]] | None = None
    needed = 0
    seen: dict[tuple[str, ...], int] = {}
    for lineno, toks in _tokens(text):
        if deriv_rows is not None and needed > 0:
            deriv_rows.append([_rational(t, lineno) for t in toks])
            needed -= 1
            continue
        key = toks[0]
        if key == "algebra":
            name = " ".join(toks[1:]) or name
        elif key == "basis":
            if len(toks) != 3:
                raise ParseError(f"line {lineno}: basis needs LABEL and parity")
            labels.append(toks[1])
            parity.append(_parity_token(toks[2], lineno))
        elif key == "unit":
            _once(seen, toks[:1], lineno)
            unit = [_rational(t, lineno) for t in toks[1:]]
        elif key == "mul":
            if len(toks) != 5:
                raise ParseError(f"line {lineno}: mul needs LI LJ LK RATIONAL")
            _once(seen, toks[:4], lineno)
            muls.append((toks[1], toks[2], toks[3], _rational(toks[4], lineno), lineno))
        elif key == "derivation":
            _once(seen, toks[:1], lineno)
            deriv_rows = []
            needed = len(labels)
        else:
            raise ParseError(f"line {lineno}: unknown directive {key!r}")
    if needed:
        raise ParseError("file ended inside the derivation block")
    if not labels:
        raise ParseError("no basis elements declared")
    if unit is None or len(unit) != len(labels):
        raise ParseError("unit coordinates missing or of wrong length")
    index = {lab: i for i, lab in enumerate(labels)}
    if len(index) != len(labels):
        raise ParseError("duplicate basis labels")
    n = len(labels)
    items = []
    for li, lj, lk, val, lineno in muls:
        try:
            items.append((index[li], index[lj], index[lk], val))
        except KeyError as exc:
            raise ParseError(f"line {lineno}: unknown basis label {exc.args[0]!r}") from exc
    algebra = SupercommAlgebra._of_table(parity, *_structure_table(n, items), unit, labels)
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
