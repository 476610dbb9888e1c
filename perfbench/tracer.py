"""Span recorder for the traced benchmark run.

`Tracer.install` wraps the public functions and methods of the superkit
layers by rebinding each name wherever a superkit module holds it (the
defining module, modules that imported it, and the class for methods), so
the package's internal calls are recorded too.  Nothing in `src/` changes,
and `uninstall` puts every original back.

Each span is [name, start, end, parent index, op id, note]; `note` holds a
number some layers record from their arguments or result (matrix cells,
membership verdicts).  Spans stay in memory until `write`.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import inspect
import json
import sys
import time

LAYER_MODULES = ("linalg", "core", "enveloping", "roots", "reps",
                 "supercomm", "families", "fileformat", "cli")

# Leaf helpers called in the innermost loops: vector, polynomial and Matrix
# arithmetic and accessors.  They are data structures rather than layers, and
# wrapping them would make the traced run several times slower.
LEAVES = {
    "linalg.vec", "linalg.zero_vec", "linalg.vec_add", "linalg.vec_sub",
    "linalg.vec_scale", "linalg.dot", "linalg.is_zero_vec",
    "linalg.poly_trim", "linalg.poly_is_zero", "linalg.poly_add",
    "linalg.poly_mul", "linalg.poly_divmod", "linalg.poly_monic",
    "linalg.poly_gcd", "linalg.poly_lcm", "linalg.poly_derivative",
    "linalg.poly_eval",
    "core.LieSuperalgebra.structure_constant",
    "core.LieSuperalgebra.bracket_basis", "core.LieSuperalgebra.bracket_sparse",
    "core.LieSuperalgebra.basis_vector", "core.LieSuperalgebra.even_part",
    "core.LieSuperalgebra.odd_part", "core.LieSuperalgebra.is_even_element",
    "core.LieSuperalgebra.is_odd_element",
    "enveloping.EnvelopingElement.__init__", "enveloping.EnvelopingElement.unit",
    "enveloping.EnvelopingElement.from_lie", "enveloping.EnvelopingElement.scale",
    "enveloping.EnvelopingElement.is_zero", "enveloping.EnvelopingElement.counit",
    "reps.SuperModule.matrix_of",
    "supercomm.SupercommAlgebra.multiply", "supercomm.SupercommAlgebra.basis_vector",
    "supercomm.SupercommAlgebra.power_zero_index",
}
LEAF_CLASSES = {"linalg.Matrix", "enveloping.CoinvariantElement", "roots.RootDatum"}

ELIM = ("linalg.rref", "linalg.rank", "linalg.kernel_basis",
        "linalg.solve_linear", "linalg.in_span", "linalg.span_basis")


def _matrix_shape(args):
    m = args[0]
    return (m.rows, m.cols)


def _vectors_shape(args):
    vectors = args[0]
    return (len(vectors[0]) if len(vectors) else 0, len(vectors))


def _coinv_cached(args):
    g, side = args[0], args[1]
    return side in (getattr(g, "_coinv_cache", None) or {})


# name -> (before(args) -> value, after(value, result) -> note)
NOTES = {
    "core.LieSuperalgebra.in_g1ss": (None, lambda _, r: 1 if r else 0),
    "linalg.rref": (_matrix_shape, lambda s, _: s),
    "linalg.rank": (_matrix_shape, lambda s, _: s),
    "linalg.kernel_basis": (_matrix_shape, lambda s, _: s),
    "linalg.solve_linear": (_matrix_shape, lambda s, _: s),
    "linalg.in_span": (_vectors_shape, lambda s, _: s),
    "linalg.span_basis": (_vectors_shape, lambda s, _: s),
    "enveloping.coinvariant_action_matrices": (
        _coinv_cached, lambda cached, r: 0 if cached or not r else len(r) * r[0].cols),
    "enveloping.invariants": (lambda a: 1 << len(a[0].odd_indices), lambda d, _: d),
    "reps.is_semisimple_action": (lambda a: a[1], lambda d, _: d),
}

# metric prefix -> span names it covers
GROUPS = {
    "linalg.minimal_polynomial": ("linalg.minimal_polynomial",),
    "linalg.elim": ELIM,
    "linalg.SpanSolver": ("linalg.SpanSolver.__init__", "linalg.SpanSolver.coordinates"),
    "linalg.Echelon": ("linalg.Echelon.__init__", "linalg.Echelon.add",
                       "linalg.Echelon.reduce", "linalg.Echelon.contains"),
    "linalg.rational_roots": ("linalg.rational_roots",),
    "linalg.splits_semisimply_over_q": ("linalg.splits_semisimply_over_q",),
    "core.bracket": ("core.LieSuperalgebra.bracket",),
    "core.element_matrix": ("core.LieSuperalgebra.element_matrix",),
    "core.in_g1ss": ("core.LieSuperalgebra.in_g1ss",),
    "core.validate": ("core.LieSuperalgebra.validate",),
    "core.ideal_closure": ("core.LieSuperalgebra.ideal_closure",),
    "core.direct_sum_decompose": ("core.LieSuperalgebra.direct_sum_decompose",),
    "core.restricted_subalgebra": ("core.LieSuperalgebra.restricted_subalgebra",),
    "enveloping.coinvariant_action_matrices": ("enveloping.coinvariant_action_matrices",),
    "enveloping.mul": ("enveloping.EnvelopingElement.__mul__",
                       "enveloping.EnvelopingElement.antipode",
                       "enveloping.EnvelopingElement.from_word",
                       "enveloping.multiply", "enveloping.antipode"),
    "enveloping.coinvariant_project": ("enveloping.coinvariant_project",),
    "enveloping.module_action": ("enveloping.module_action",),
    "enveloping.invariants": ("enveloping.invariants",),
    "roots.find_cartan": ("roots.find_cartan",),
    "roots.root_decomposition": ("roots.root_decomposition",),
    "roots.classify_simple": ("roots.classify_simple",),
    "roots.g1ss_structural_scan": ("roots.g1ss_structural_scan",),
    "roots.classification_report": ("roots.classification_report",),
    "reps.is_semisimple_action": ("reps.is_semisimple_action",),
    "reps.ds_functor": ("reps.ds_functor",),
    "reps.validate_module": ("reps.validate_module",),
    "reps.constructions": ("reps.tensor", "reps.dual", "reps.direct_sum",
                           "reps.induced_trivial"),
    "supercomm.splitting_witness": ("supercomm.splitting_witness",),
    "families.parse_family_spec": ("families.parse_family_spec",),
    "fileformat.parse_algebra": ("fileformat.parse_algebra",),
    "cli.main": ("cli.main",),
}

# (metric name, unit, better) of every per-layer metric, in report order
PER_LAYER = []
for _prefix in GROUPS:
    if _prefix == "linalg.Echelon":
        PER_LAYER.append((f"{_prefix}.adds", "count", "lower"))
    elif _prefix not in ("core.element_matrix", "reps.constructions"):
        PER_LAYER.append((f"{_prefix}.calls", "count", "lower"))
    if _prefix != "enveloping.module_action":
        PER_LAYER.append((f"{_prefix}.self_s", "s", "lower"))
PER_LAYER += [
    ("linalg.elim.cells", "count", "lower"),
    ("linalg.elim.max_cols", "count", "lower"),
    ("core.in_g1ss.member_ratio", "ratio", "higher"),
    ("enveloping.coinvariant_action_matrices.columns", "count", "lower"),
    ("enveloping.invariants.quotient_dim_max", "dim", "lower"),
    ("roots.find_cartan.split_tests", "count", "lower"),
    ("reps.is_semisimple_action.module_dim_max", "dim", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
]


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = "setup"
        self._saved: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------------

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self.stack
        clock = time.perf_counter
        before, after = NOTES.get(name, (None, None))
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, tracer.op, None]
            spans.append(span)
            stack.append(idx)
            pre = before(args) if before is not None else None
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if after is not None:
                span[5] = after(pre, result)
            return result

        return wrapper

    @contextlib.contextmanager
    def span(self, name: str):
        """A span around a block of the benchmark's own code."""
        idx = len(self.spans)
        span = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1, self.op, None]
        self.spans.append(span)
        self.stack.append(idx)
        span[1] = time.perf_counter()
        try:
            yield
        finally:
            span[2] = time.perf_counter()
            self.stack.pop()

    # -- installing the wrappers ---------------------------------------------------

    def install(self) -> None:
        pkg_modules = [m for n, m in sys.modules.items()
                       if n == "superkit" or n.startswith("superkit.")]
        for short in LAYER_MODULES:
            mod = sys.modules[f"superkit.{short}"]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                name = f"{short}.{attr}"
                if inspect.isclass(obj):
                    if name not in LEAF_CLASSES:
                        self._install_methods(short, obj)
                elif callable(obj) and name not in LEAVES:
                    wrapped = self._wrap(name, obj)
                    for ns in pkg_modules:
                        for key, val in list(vars(ns).items()):
                            if val is obj:
                                self._saved.append((ns, key, val))
                                setattr(ns, key, wrapped)

    def _install_methods(self, short: str, cls) -> None:
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") and attr not in ("__init__", "__mul__"):
                continue
            if attr == "__init__" and dataclasses.is_dataclass(cls):
                continue
            name = f"{short}.{cls.__name__}.{attr}"
            if name in LEAVES:
                continue
            if isinstance(raw, (classmethod, staticmethod)):
                new = type(raw)(self._wrap(name, raw.__func__))
            elif inspect.isfunction(raw):
                new = self._wrap(name, raw)
            else:
                continue
            self._saved.append((cls, attr, raw))
            setattr(cls, attr, new)

    def uninstall(self) -> None:
        for ns, key, val in reversed(self._saved):
            setattr(ns, key, val)
        self._saved.clear()

    # -- analysis ----------------------------------------------------------------

    def rescale(self, clock) -> None:
        """Map every span's start and end through `clock`."""
        for s in self.spans:
            s[1], s[2] = clock(s[1]), clock(s[2])

    def self_times(self) -> list[float]:
        """Per span: duration minus the time its direct children cover."""
        spans = self.spans
        covered = [0.0] * len(spans)
        for s in spans:
            if s[3] >= 0:
                covered[s[3]] += s[2] - s[1]
        return [s[2] - s[1] - c for s, c in zip(spans, covered)]

    def layer_totals(self, ops=None) -> dict[str, float]:
        """Per-layer metrics summed over the spans of the given op ids (all
        spans when `ops` is None).  `calls` counts the outermost span of each
        nested run of spans from one layer."""
        group_of = {n: g for g, names in GROUPS.items() for n in names}
        spans = self.spans
        selfs = self.self_times()
        out: dict[str, float] = {}
        members = 0
        for idx, s in enumerate(spans):
            if ops is not None and s[4] not in ops:
                continue
            grp = group_of.get(s[0])
            if grp is None:
                continue
            out[f"{grp}.self_s"] = out.get(f"{grp}.self_s", 0.0) + selfs[idx]
            parent = s[3]
            outer = parent < 0 or group_of.get(spans[parent][0]) != grp
            if grp == "linalg.Echelon":
                if s[0] == "linalg.Echelon.add":
                    out["linalg.Echelon.adds"] = out.get("linalg.Echelon.adds", 0) + 1
                continue
            if outer:
                out[f"{grp}.calls"] = out.get(f"{grp}.calls", 0) + 1
            note = s[5]
            if note is None:
                continue
            if grp == "linalg.elim" and outer:
                rows, cols = note
                out["linalg.elim.cells"] = out.get("linalg.elim.cells", 0) + rows * cols
                out["linalg.elim.max_cols"] = max(out.get("linalg.elim.max_cols", 0), cols)
            elif grp == "core.in_g1ss":
                members += note
            elif grp == "enveloping.coinvariant_action_matrices":
                key = "enveloping.coinvariant_action_matrices.columns"
                out[key] = out.get(key, 0) + note
            elif grp == "enveloping.invariants":
                key = "enveloping.invariants.quotient_dim_max"
                out[key] = max(out.get(key, 0), note)
            elif grp == "reps.is_semisimple_action":
                key = "reps.is_semisimple_action.module_dim_max"
                out[key] = max(out.get(key, 0), note)
        calls = out.get("core.in_g1ss.calls", 0)
        out["core.in_g1ss.member_ratio"] = members / calls if calls else 0.0
        out["roots.find_cartan.split_tests"] = self._split_tests(ops)
        return out

    def _split_tests(self, ops) -> int:
        spans = self.spans
        count = 0
        for s in spans:
            if s[0] != "linalg.splits_semisimply_over_q":
                continue
            if ops is not None and s[4] not in ops:
                continue
            parent = s[3]
            while parent >= 0:
                if spans[parent][0] == "roots.find_cartan":
                    count += 1
                    break
                parent = spans[parent][3]
        return count

    def op_stats(self, names) -> dict:
        """{(op id, span name): [calls, total seconds]} for the given names."""
        out: dict = {}
        for s in self.spans:
            if s[0] in names:
                rec = out.setdefault((s[4], s[0]), [0, 0.0])
                rec[0] += 1
                rec[1] += s[2] - s[1]
        return out

    def write(self, path) -> None:
        """All spans as JSON lines [name, start, end, parent, op, self], in
        seconds from the first span; a span's id is its line number - 1."""
        t0 = self.spans[0][1] if self.spans else 0.0
        selfs = self.self_times()
        with open(path, "w", encoding="utf-8") as fh:
            for s, own in zip(self.spans, selfs):
                fh.write(json.dumps([s[0], round(s[1] - t0, 6), round(s[2] - t0, 6),
                                     s[3], s[4], round(own, 6)]) + "\n")
