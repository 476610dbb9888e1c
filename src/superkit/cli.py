"""Command-line interface.

Verbs: check, classify, ghost, ds, witness-splitting, modcheck, verify-all.
Inputs come either from `--family SPEC` (gl:1:1, sl:2:1, osp1:2,
toy_odd_semisimple, product:osp1:1,osp1:2) or from `--algebra FILE` in the
structured text format of `fileformat`.  A file with axiom violations is
refused unless `--lax` is given (classify, ghost, ds, modcheck); `check`
always reports the violations instead, so it has no `--lax`.  All output is
human-readable by default and machine-readable with `--json`.  The
environment variable SUPERKIT_SEED, or `verify-all --seed`, seeds the
randomized suites of `verify-all`; the Cartan search behind `classify`
always uses a fixed seed.

Exit codes: 0 success / certified-none, 1 axiom or check failure, 2 parse
or input error, 3 a semisimple-square witness was found (classify), 4
inconclusive: a classification that cannot be certified (classify), or a
ghost quotient with more weight-zero subsets than
`enveloping.WEIGHT_ZERO_BUDGET` (ghost; the count is reported), 5 the
supplied odd element is outside the cone (ds).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from . import acceptance
from .core import LieSuperalgebra, NotSemisimpleStructure, SuperkitError
from .enveloping import QuotientTooLarge, ghost_criterion, verify_djokovic
from .families import parse_family_spec
from .fileformat import (
    ParseError,
    parse_algebra,
    parse_module,
    parse_supercomm,
)
from .linalg import Q, zero_vec
from .reps import (
    NotInG1ss,
    adjoint_module,
    ds_functor,
    ds_tensor_check,
    induced_trivial,
    trivial_module,
)
from .roots import ClassificationInconclusive, g1ss_structural_scan
from .supercomm import (
    NonSemisimpleSquare,
    Vanishing,
    catalog_pairs,
    splitting_witness,
    verify_no_splitting,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_PARSE = 2
EXIT_WITNESS = 3
EXIT_INCONCLUSIVE = 4
EXIT_NOT_IN_CONE = 5


def _default_seed() -> int:
    return int(os.environ.get("SUPERKIT_SEED", acceptance.DEFAULT_SEED))


def _load_algebra(args, lax: bool = False) -> tuple[LieSuperalgebra, list[str] | None]:
    """The algebra of --family or --algebra, with the file parser's warnings
    (its axiom violations and an unfaithful rep), or None for a family spec,
    which is not validated.  A file with violations is refused unless `lax`
    or --lax is given."""
    if getattr(args, "family", None):
        return parse_family_spec(args.family), None
    if getattr(args, "algebra", None):
        with open(args.algebra, "r", encoding="utf-8") as fh:
            text = fh.read()
        g, _, warnings = parse_algebra(text, strict=not (lax or getattr(args, "lax", False)))
        return g, warnings
    raise ParseError("provide --family SPEC or --algebra FILE")


def _emit(args, payload: dict, human: str) -> None:
    if args.json:
        print(json.dumps(payload, default=str))
    else:
        print(human)


def _parse_element(g: LieSuperalgebra, spec: str) -> list[Fraction]:
    """Either comma-separated coordinates or a signed sum of basis names
    like 'E12+E21' or 'a1-2*b1'."""
    spec = spec.strip()
    if "," in spec:
        parts = [p.strip() for p in spec.split(",")]
        if len(parts) != g.dim:
            raise ParseError(f"need {g.dim} coordinates, got {len(parts)}")
        return [Q(p) for p in parts]
    out = zero_vec(g.dim)
    term = ""
    terms = []
    for ch in spec:
        if ch in "+-" and term:
            terms.append(term)
            term = ch if ch == "-" else ""
        elif ch == "-" and not term:
            term = "-"
        elif not ch.isspace():
            term += ch
    if term:
        terms.append(term)
    for t in terms:
        sign = Q(1)
        if t.startswith("-"):
            sign, t = Q(-1), t[1:]
        if t.startswith("+"):
            t = t[1:]
        if "*" in t:
            coeff, name = t.split("*", 1)
            sign *= Q(coeff)
        else:
            name = t
        if name not in g.names:
            raise ParseError(f"unknown basis label {name!r}")
        out[g.names.index(name)] += sign
    return out


# ---------------------------------------------------------------------------
# verbs
# ---------------------------------------------------------------------------

def cmd_check(args) -> int:
    try:
        # check reports violations instead of refusing the file
        g, warnings = _load_algebra(args, lax=True)
    except (ParseError, ValueError, OSError) as exc:
        _emit(args, {"error": str(exc)}, f"parse error: {exc}")
        return EXIT_PARSE
    issues = g.validate() if warnings is None else warnings
    quasi = None
    center_dim = None
    if not issues:
        try:
            quasi = g.is_quasireductive()
        except SuperkitError:
            quasi = None
        center_dim = len(g.center())
    payload = {
        "dim": g.dim,
        "even_dim": len(g.even_indices),
        "odd_dim": len(g.odd_indices),
        "valid": not issues,
        "violations": issues,
        "quasireductive": quasi,
        "center_dim": center_dim,
    }
    human = (f"dim {payload['even_dim']}|{payload['odd_dim']}; "
             + ("valid; " if not issues else f"INVALID ({len(issues)} violations); ")
             + (f"quasireductive: {quasi}; center dim {center_dim}"
                if not issues else issues[0]))
    _emit(args, payload, human)
    return EXIT_OK if not issues else EXIT_CHECK_FAILED


def cmd_classify(args) -> int:
    try:
        g, _ = _load_algebra(args)
    except (ParseError, ValueError, OSError) as exc:
        _emit(args, {"error": str(exc)}, f"parse error: {exc}")
        return EXIT_PARSE
    try:
        report = g1ss_structural_scan(g)
    except (NotSemisimpleStructure, ClassificationInconclusive, SuperkitError) as exc:
        _emit(args, {"outcome": "inconclusive", "reason": str(exc)},
              f"Inconclusive: {exc}")
        return EXIT_INCONCLUSIVE
    witness = report.witness
    if witness is not None:
        payload = {"outcome": "witness", "coordinates": [str(c) for c in witness],
                   "element": g.describe(witness)}
        _emit(args, payload, f"Witness in the semisimple-square cone: {g.describe(witness)}\n"
                             f"coordinates: {' '.join(str(c) for c in witness)}")
        return EXIT_WITNESS
    payload = {"outcome": "no witness (cone is zero)", "factors": report.factors}
    human = "No nonzero semisimple-square element (certified).\n" + "\n".join(
        f"  factor: {f['factor']} (dim {f['dim']})" for f in report.factors
    )
    _emit(args, payload, human)
    return EXIT_OK


def cmd_ghost(args) -> int:
    if args.djokovic is not None:
        try:
            if args.family or args.algebra:
                raise ValueError("--djokovic takes no --family or --algebra")
            rep = verify_djokovic(args.djokovic)
        except ValueError as exc:
            _emit(args, {"error": str(exc)}, f"parse error: {exc}")
            return EXIT_PARSE
        payload = {
            "n": rep.n,
            "element": str(rep.element),
            "product_invariant": rep.product_invariant,
            "antipode_invariant": rep.antipode_invariant,
            "epsilon": str(rep.epsilon),
            "epsilon_expected": rep.epsilon_expected,
            "ok": rep.ok,
        }
        human = (f"v = {rep.element}\ninvariant in U/(U g0): {rep.product_invariant}; "
                 f"antipode image invariant in U/(g0 U): {rep.antipode_invariant}; "
                 f"counit = {rep.epsilon} (expected {rep.epsilon_expected})")
        _emit(args, payload, human)
        return EXIT_OK if rep.ok else EXIT_CHECK_FAILED
    try:
        g, _ = _load_algebra(args)
    except (ParseError, ValueError, OSError) as exc:
        _emit(args, {"error": str(exc)}, f"parse error: {exc}")
        return EXIT_PARSE
    try:
        ghost, verdict = ghost_criterion(g)
    except QuotientTooLarge as exc:
        _emit(args, {"outcome": "inconclusive", "reason": str(exc),
                     "weight_zero_subsets": exc.count}, f"Inconclusive: {exc}")
        return EXIT_INCONCLUSIVE
    payload = {
        "invariant_dim": ghost.invariant_dim,
        "ghost": str(ghost.v),
        "epsilon": str(ghost.epsilon_value),
        "verdict": verdict,
    }
    human = (f"invariant dimension: {ghost.invariant_dim}\nghost element: {ghost.v}\n"
             f"epsilon: {ghost.epsilon_value}\nverdict: {verdict}")
    _emit(args, payload, human)
    return EXIT_OK


def _resolve_module(args, g: LieSuperalgebra, spec: str):
    if spec == "induced":
        return induced_trivial(g)
    if spec == "defining":
        if g.faithful_rep is None:
            raise ParseError("algebra has no defining representation")
        return g.faithful_rep
    if spec == "adjoint":
        return adjoint_module(g)
    if spec == "trivial":
        return trivial_module(g)
    with open(spec, "r", encoding="utf-8") as fh:
        m, _, _ = parse_module(fh.read(), g, strict=not getattr(args, "lax", False))
    return m


def cmd_ds(args) -> int:
    try:
        g, _ = _load_algebra(args)
        if g.faithful_rep is None:
            raise ParseError("algebra has no faithful representation (rep block), "
                             "which the cone test needs")
        u = _parse_element(g, args.u)
        if not g.is_odd_element(u):
            raise ParseError("--u must be a purely odd element")
        m = _resolve_module(args, g, args.module)
        n = _resolve_module(args, g, args.tensor) if args.tensor else None
    except (ParseError, ValueError, OSError) as exc:
        _emit(args, {"error": str(exc)}, f"parse error: {exc}")
        return EXIT_PARSE
    try:
        if n is not None:
            report = ds_tensor_check(g, u, m, n)
            payload = {k: (list(v) if isinstance(v, tuple) else v)
                       for k, v in report.items()}
            human = (f"DS(M) = {report['ds_m'][0]}|{report['ds_m'][1]}, "
                     f"DS(N) = {report['ds_n'][0]}|{report['ds_n'][1]}, "
                     f"DS(M (x) N) = {report['ds_tensor'][0]}|{report['ds_tensor'][1]}, "
                     f"multiplicative: {report['ok']}")
            _emit(args, payload, human)
            return EXIT_OK if report["ok"] else EXIT_CHECK_FAILED
        result = ds_functor(g, u, m)
        payload = {"even_dim": result.even_dim, "odd_dim": result.odd_dim}
        _emit(args, payload, f"DS = {result.even_dim}|{result.odd_dim}")
        return EXIT_OK
    except NotInG1ss as exc:
        _emit(args, {"error": str(exc)}, f"not in the semisimple-square cone: {exc}")
        return EXIT_NOT_IN_CONE


def cmd_witness_splitting(args) -> int:
    try:
        if args.catalog:
            pairs = catalog_pairs()
            if args.catalog not in pairs:
                raise ParseError(
                    f"unknown catalog pair {args.catalog!r}; "
                    f"choose from {sorted(pairs)}"
                )
            a, d = pairs[args.catalog]
        else:
            with open(args.table, "r", encoding="utf-8") as fh:
                a, d, _ = parse_supercomm(fh.read())
            if d is None:
                raise ParseError("table file has no derivation block")
    except (ParseError, ValueError, OSError) as exc:
        _emit(args, {"error": str(exc)}, f"parse error: {exc}")
        return EXIT_PARSE
    try:
        f = splitting_witness(a, d)
    except (Vanishing, NonSemisimpleSquare) as exc:
        _emit(args, {"error": type(exc).__name__, "detail": str(exc)},
              f"{type(exc).__name__}: {exc}")
        return EXIT_CHECK_FAILED
    payload = {
        "witness": [str(c) for c in f],
        "element": a.describe(f),
        "unit_in_image": verify_no_splitting(a, d),
    }
    _emit(args, payload,
          f"f = {a.describe(f)} with u(f) = 1; unit in image of u: {payload['unit_in_image']}")
    return EXIT_OK


def cmd_modcheck(args) -> int:
    try:
        g, _ = _load_algebra(args)
        with open(args.module, "r", encoding="utf-8") as fh:
            m, _, issues = parse_module(fh.read(), g, strict=False)
    except (ParseError, ValueError, OSError) as exc:
        _emit(args, {"error": str(exc)}, f"parse error: {exc}")
        return EXIT_PARSE
    payload = {"dim": m.dim, "valid": not issues, "violations": issues}
    human = (f"module dim {m.even_dim}|{m.odd_dim}: "
             + ("valid" if not issues else f"INVALID: {issues[0]}"))
    _emit(args, payload, human)
    return EXIT_OK if not issues else EXIT_CHECK_FAILED


def cmd_verify_all(args) -> int:
    results = acceptance.run_all(name_filter=args.filter, seed=args.seed)
    if args.json:
        print(json.dumps([
            {"criterion": r.name, "passed": r.passed, "detail": r.detail,
             "elapsed_s": round(r.elapsed, 3)}
            for r in results
        ]))
    else:
        for r in results:
            mark = "PASS" if r.passed else "FAIL"
            print(f"{mark}  {r.name:28s} [{r.elapsed:6.2f}s]  {r.detail}")
    failed = [r for r in results if not r.passed]
    if failed:
        if not args.json:
            print(f"FAILED: {failed[0].name}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    return EXIT_OK


# ---------------------------------------------------------------------------

def _add_algebra_args(p: argparse.ArgumentParser, lax: bool = True) -> None:
    p.add_argument("--family", help="family spec, e.g. gl:1:1, osp1:2, "
                                    "product:osp1:1,osp1:2")
    p.add_argument("--algebra", help="algebra file")
    if lax:
        p.add_argument("--lax", action="store_true",
                       help="accept files with axiom violations (warnings only)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="superkit",
        description="exact computations with finite-dimensional Lie superalgebras",
    )
    parser.add_argument("--json", action="store_true", help="machine-readable output")
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("check", help="validate the super axioms and basic structure")
    _add_algebra_args(p, lax=False)

    p = sub.add_parser("classify", help="decide the semisimple-square cone structurally")
    _add_algebra_args(p)

    p = sub.add_parser("ghost", help="coinvariant invariant and the counit criterion")
    _add_algebra_args(p)
    p.add_argument("--djokovic", type=int, metavar="N",
                   help="verify the classical product element for osp(1|2N), "
                        "1 <= N <= 5")

    p = sub.add_parser("ds", help="Duflo-Serganova functor on a module")
    _add_algebra_args(p)
    p.add_argument("--u", required=True,
                   help="odd element: 'E12+E21', '2*a1-b1', or comma-separated "
                        "coordinates (use --u=... when the value starts with '-')")
    p.add_argument("--module", default="induced",
                   help="induced | defining | adjoint | trivial | module file")
    p.add_argument("--tensor", metavar="MODULE2",
                   help="second module: check tensor multiplicativity of DS dims")

    p = sub.add_parser("witness-splitting",
                       help="construct f with u(f) = 1 for an odd derivation")
    p.add_argument("--table", help="supercommutative table file with derivation")
    p.add_argument("--catalog", help="named built-in pair "
                                     "(exterior1, torus-exterior, two-odd, vanishing)")

    p = sub.add_parser("modcheck", help="validate a module file over an algebra")
    _add_algebra_args(p)
    p.add_argument("--module", required=True)

    p = sub.add_parser("verify-all", help="run the full acceptance suite")
    p.add_argument("--filter", help="only criteria whose name contains this substring")
    p.add_argument("--seed", type=int, default=None)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if hasattr(args, "seed") and args.seed is None:
        args.seed = _default_seed()
    handlers = {
        "check": cmd_check,
        "classify": cmd_classify,
        "ghost": cmd_ghost,
        "ds": cmd_ds,
        "witness-splitting": cmd_witness_splitting,
        "modcheck": cmd_modcheck,
        "verify-all": cmd_verify_all,
    }
    return handlers[args.verb](args)


if __name__ == "__main__":
    sys.exit(main())
