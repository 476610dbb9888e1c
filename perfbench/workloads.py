"""The four benchmark workloads: seeded inputs, the timed operations and the
checks that certify each answer.

Every operation calls superkit through module attributes (`cli.main`,
`reps.tensor`, ...), never through names imported into this file, so the
traced run's rebinding catches the benchmark's calls as well as the
package's internal ones.

Why these workloads (see README.md for the layers each one exercises):

* cone -- bulk `in_g1ss` on fixed algebras: minimal polynomials of small
  faithful-rep matrices.  Never touches enveloping, roots or reps.
* ghost -- the CLI ghost verb on a fresh algebra per op: PBW rewriting and
  elimination on 2^(dim g1)-dimensional coinvariant quotients.
* classify -- the CLI check and classify verbs, from family specs and from
  files without a Cartan line: roots, decomposition, fileformat, cli.
* modules -- semisimplicity of modules, Duflo-Serganova tensor checks and
  splitting witnesses: reps and supercomm.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from fractions import Fraction

from superkit import acceptance, cli, enveloping, families, fileformat, reps, supercomm

import oracle

# The family builders memoize their algebras (and with them the per-algebra
# coinvariant cache).  A CLI user gets a fresh process, hence a fresh algebra,
# on every invocation, so the runner clears these before each op.  The bound
# methods are taken at import, before any tracing wrapper is installed.
_CACHE_CLEARS = [families.build_gl.cache_clear, families.build_sl.cache_clear,
                 families.build_osp1.cache_clear, families.build_toy.cache_clear]


def fresh_state() -> None:
    for clear in _CACHE_CLEARS:
        clear()


class Op:
    """One timed operation.  `run` is the timed call; `check` returns None
    or a failure message; `canon` renders the output for the digest."""

    __slots__ = ("key", "label", "run", "check", "canon")

    def __init__(self, key, label, run, check, canon=str):
        self.key, self.label, self.run, self.check, self.canon = key, label, run, check, canon


def _osp_only(spec: str) -> bool:
    """True for osp(1|2n) and products of them: the algebras whose cone is zero
    and whose representation category is semisimple."""
    inner = spec[len("product:"):] if spec.startswith("product:") else spec
    return all(part.startswith("osp1:") for part in inner.split(","))


def _run_cli(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(["--json"] + argv)
    return rc, buf.getvalue()


def _cli_canon(res) -> str:
    return f"{res[0]}\n{res[1]}"


# ---------------------------------------------------------------------------
# cone
# ---------------------------------------------------------------------------

CONE_SPECS = ("osp1:1", "osp1:2", "osp1:3", "product:osp1:1,osp1:1",
              "gl:1:1", "sl:2:1", "gl:2:2", "toy_odd_semisimple")
CONE_PER_SPEC = 250


def _cone_element(g, rng: random.Random, dense: bool) -> list[Fraction]:
    odd = g.odd_indices
    u = [Fraction(0)] * g.dim
    if dense:
        while not any(u):
            for i in odd:
                u[i] = Fraction(rng.randint(-4, 4))
    else:
        for i in rng.sample(odd, min(len(odd), rng.randint(1, 2))):
            u[i] = Fraction(rng.choice((-4, -3, -2, -1, 1, 2, 3, 4)))
    return u


def _cone_op(spec: str, g, u: list[Fraction]) -> Op:
    osp = _osp_only(spec)

    def check(res):
        expected = oracle.square_is_semisimple(g.faithful_rep.action, u)
        if osp and expected:
            return "oracle finds a nonzero cone element in an osp-type algebra"
        if res is not expected:
            return f"in_g1ss returned {res}, oracle says {expected}"
        return None

    return Op(f"{spec}|{','.join(map(str, u))}", f"in_g1ss {spec}",
              lambda: g.in_g1ss(u), check, lambda r: "1" if r else "0")


def build_cone(seed: int, tiny: bool) -> list[Op]:
    rng = random.Random(seed)
    specs = CONE_SPECS[::4] if tiny else CONE_SPECS
    per_spec = 4 if tiny else CONE_PER_SPEC
    ops = []
    for spec in specs:
        g = families.parse_family_spec(spec)
        issues = g.validate()
        if issues:
            raise RuntimeError(f"{spec} fails the axioms: {issues[0]}")
        g.bracket_sparse(0, 0)  # warm the lazy sparse table
        for k in range(per_spec):
            ops.append(_cone_op(spec, g, _cone_element(g, rng, dense=k % 2 == 0)))
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# ghost
# ---------------------------------------------------------------------------

GHOST_SPECS = ("osp1:1", "osp1:2", "osp1:3", "osp1:4", "gl:1:1", "gl:2:1",
               "sl:2:1", "sl:3:1", "toy_odd_semisimple", "product:osp1:1,osp1:2",
               "gl:2:2")
DJOKOVIC = (1, 2, 3)


def _ghost_family_op(spec: str) -> Op:
    expected = enveloping.SEMISIMPLE if _osp_only(spec) else enveloping.NOT_SEMISIMPLE

    def run():
        # Keep the algebra the CLI builds, so the check can test the ghost
        # against that algebra's already computed action matrices.
        built = []
        inner = cli.parse_family_spec

        def capture(s):
            g = inner(s)
            built.append(g)
            return g

        cli.parse_family_spec = capture
        try:
            rc, out = _run_cli(["ghost", "--family", spec])
        finally:
            cli.parse_family_spec = inner
        return rc, out, built[-1]

    def check(res):
        rc, out, g = res
        if rc != 0:
            return f"exit code {rc}"
        d = json.loads(out)
        if d["invariant_dim"] != 1:
            return f"invariant dimension {d['invariant_dim']}"
        if d["verdict"] != expected:
            return f"verdict {d['verdict']}, expected {expected}"
        if Fraction(d["epsilon"]) != (1 if expected == enveloping.SEMISIMPLE else 0):
            return f"counit {d['epsilon']}"
        coords = oracle.parse_coinvariant(d["ghost"], g.names, g.odd_indices)
        w = enveloping.CoinvariantElement(g, enveloping.RIGHT, coords)
        if w.is_zero() or not enveloping.is_coinvariant_invariant(g, w):
            return "ghost element is zero or not invariant"
        return None

    return Op(f"ghost --family {spec}", f"ghost {spec}", run, check, _cli_canon)


def _ghost_djokovic_op(n: int) -> Op:
    counit = 1
    for k in range(1, 2 * n, 2):
        counit *= k

    def check(res):
        rc, out = res
        d = json.loads(out)
        if rc != 0 or not d["ok"]:
            return f"exit code {rc}, ok {d['ok']}"
        if Fraction(d["epsilon"]) != counit or d["epsilon_expected"] != counit:
            return f"counit {d['epsilon']}, expected {counit}"
        return None

    return Op(f"ghost --djokovic {n}", f"ghost --djokovic {n}",
              lambda: _run_cli(["ghost", "--djokovic", str(n)]), check, _cli_canon)


def build_ghost(seed: int, tiny: bool) -> list[Op]:
    specs = ("osp1:1", "gl:1:1") if tiny else GHOST_SPECS
    ops = [_ghost_family_op(s) for s in specs]
    ops += [_ghost_djokovic_op(n) for n in (DJOKOVIC[:1] if tiny else DJOKOVIC)]
    random.Random(seed).shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# classify
# ---------------------------------------------------------------------------

# Expected factor list of a certified-zero cone; None means a witness (exit 3).
CLASSIFY_SPECS = {
    "osp1:1": ["Osp(1)"],
    "osp1:2": ["Osp(2)"],
    "osp1:3": ["Osp(3)"],
    "product:osp1:1,osp1:2": ["Osp(1)", "Osp(2)"],
    "product:osp1:1,osp1:1,osp1:1": ["Osp(1)", "Osp(1)", "Osp(1)"],
    "sl:2:1": None,
    "gl:2:2": None,
    "sl:3:1": None,
    "product:osp1:2,gl:1:1": None,
}
CLASSIFY_FILES = ("osp1:2", "osp1:3", "product:osp1:1,osp1:2")


def _check_op(spec: str, source: list[str]) -> Op:
    def check(res):
        rc, out = res
        d = json.loads(out)
        g = families.parse_family_spec(spec)
        if rc != 0 or not d["valid"] or d["dim"] != g.dim:
            return f"check: exit {rc}, valid {d['valid']}, dim {d['dim']}"
        return None

    argv = ["check"] + source
    return Op(f"check {spec} [{source[0]}]", f"check {source[0]} {spec}",
              lambda: _run_cli(argv), check, _cli_canon)


def _classify_op(spec: str, source: list[str]) -> Op:
    factors = CLASSIFY_SPECS[spec]

    def check(res):
        rc, out = res
        d = json.loads(out)
        if factors is not None:
            got = [f["factor"] for f in d.get("factors", [])]
            if rc != 0 or got != factors:
                return f"exit {rc}, factors {got}, expected {factors}"
            return None
        if rc != 3:
            return f"exit {rc}, expected a witness (3)"
        g = families.parse_family_spec(spec)
        w = [Fraction(c) for c in d["coordinates"]]
        if not any(w) or any(w[i] for i in g.even_indices):
            return "witness is zero or not odd"
        if not g.in_g1ss(w) or not oracle.square_is_semisimple(g.faithful_rep.action, w):
            return "witness is not in the cone"
        return None

    argv = ["classify"] + source
    return Op(f"classify {spec} [{source[0]}]", f"classify {source[0]} {spec}",
              lambda: _run_cli(argv), check, _cli_canon)


def build_classify(seed: int, tiny: bool, workdir: str) -> list[Op]:
    specs = ("osp1:1", "sl:2:1") if tiny else tuple(CLASSIFY_SPECS)
    files = ("osp1:2",) if tiny else CLASSIFY_FILES
    ops = []
    for spec in specs:
        ops += [_check_op(spec, ["--family", spec]), _classify_op(spec, ["--family", spec])]
    for spec in files:
        text = fileformat.serialize_algebra(families.parse_family_spec(spec))
        text = "".join(line for line in text.splitlines(keepends=True)
                       if not line.startswith("cartan "))
        path = os.path.join(workdir, spec.replace(":", "_").replace(",", "+") + ".alg")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        ops += [_check_op(spec, ["--algebra", path]), _classify_op(spec, ["--algebra", path])]
    random.Random(seed).shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# modules
# ---------------------------------------------------------------------------

INDUCED_SPECS = ("gl:1:1", "gl:2:1", "sl:2:1", "osp1:1", "osp1:2",
                 "product:osp1:1,gl:1:1", "toy_odd_semisimple")
# defining (x) dual(defining) is semisimple unless it contains gl(1|1)'s
# V (x) V*, where the identity has supertrace 0 and does not split off.
TENSOR_DUAL_SPECS = {"gl:2:1": True, "sl:2:1": True, "osp1:1": True,
                     "product:osp1:1,gl:1:1": False}
DS_PAIRS = 64


def _induced_op(spec: str) -> Op:
    expected = _osp_only(spec)  # the ghost verdict: Semisimple exactly for osp types

    def run():
        g = families.parse_family_spec(spec)
        return reps.is_module_semisimple(g, reps.induced_trivial(g))

    return Op(f"induced {spec}", f"induced {spec}", run,
              lambda r: None if r is expected else f"semisimple {r}, ghost says {expected}")


def _tensor_dual_op(spec: str) -> Op:
    expected = TENSOR_DUAL_SPECS[spec]

    def run():
        g = families.parse_family_spec(spec)
        v = g.faithful_rep
        return reps.is_module_semisimple(g, reps.tensor(v, reps.dual(v)))

    return Op(f"defining*dual {spec}", f"defining*dual {spec}", run,
              lambda r: None if r is expected else f"semisimple {r}, expected {expected}")


def _ds_op(key: str, label: str, g, u, m, n) -> Op:
    for mod in (m, n):
        issues = reps.validate_module(g, mod)
        if issues:
            raise RuntimeError(f"generated module is invalid: {issues[0]}")

    def canon(r):
        return json.dumps([r["ds_m"], r["ds_n"], r["ds_tensor"], r["ok"]])

    return Op(key, label, lambda: reps.ds_tensor_check(g, u, m, n),
              lambda r: None if r["ok"] else f"DS not multiplicative: {r}", canon)


def _splitting_op(name: str, a, d) -> Op:
    vanishing = name == "vanishing"

    def run():
        try:
            return supercomm.splitting_witness(a, d)
        except supercomm.Vanishing:
            return "Vanishing"

    def check(res):
        if vanishing:
            return None if res == "Vanishing" else "vanishing pair gave a witness"
        if res == "Vanishing" or d.matvec(res) != a.unit:
            return "u(f) != 1"
        return None

    return Op(f"splitting {name}", f"splitting {name}", run, check,
              lambda r: r if isinstance(r, str) else ",".join(map(str, r)))


def _stratified_pairs(make, rng: random.Random, count: int) -> list:
    """`count` random module pairs whose mix of tensor-product dimensions is
    the same for every seed: the quota per dimension comes from a fixed
    reference draw, and the seeded draw fills it.  The DS cost grows steeply
    with that dimension, so a free mix would move the timings from seed to
    seed.  After 10 * count draws any unfilled places take the next pairs
    drawn, which keeps set-up time bounded."""
    ref = random.Random(0)
    quota: dict[int, int] = {}
    for _ in range(count):
        key = make(ref).dim * make(ref).dim
        quota[key] = quota.get(key, 0) + 1
    pairs = []
    for _ in range(10 * count):
        if len(pairs) == count:
            return pairs
        m, n = make(rng), make(rng)
        if quota.get(m.dim * n.dim, 0) > 0:
            quota[m.dim * n.dim] -= 1
            pairs.append((m, n))
    while len(pairs) < count:
        pairs.append((make(rng), make(rng)))
    return pairs


def build_modules(seed: int, tiny: bool) -> list[Op]:
    rng = random.Random(seed)
    induced = ("gl:1:1", "osp1:1") if tiny else INDUCED_SPECS
    tensor_dual = ("osp1:1",) if tiny else tuple(TENSOR_DUAL_SPECS)
    pairs = 2 if tiny else DS_PAIRS
    ops = [_induced_op(s) for s in induced] + [_tensor_dual_op(s) for s in tensor_dual]
    g11, u11 = acceptance.gl11_u()
    toy = families.parse_family_spec("toy_odd_semisimple")
    toy_u = toy.basis_vector(1)
    for make, label, g, u in ((acceptance.random_gl11_module, "ds gl(1|1)", g11, u11),
                              (acceptance.random_toy_module, "ds toy", toy, toy_u)):
        for m, n in _stratified_pairs(make, rng, pairs):
            ops.append(_ds_op(f"{label} {m.parity} {m.action} {n.parity} {n.action}",
                              label, g, u, m, n))
    catalog = supercomm.catalog_pairs()
    names = ("exterior1", "vanishing") if tiny else tuple(catalog)
    ops += [_splitting_op(name, *catalog[name]) for name in names]
    ops.append(_splitting_op("coinvariant-dual gl(1|1)",
                             *supercomm.coinvariant_dual_pair(g11, u11)))
    rng.shuffle(ops)
    return ops


def build(workload: str, seed: int, workdir: str, tiny: bool = False) -> list[Op]:
    """The fixed batch of one workload for this seed."""
    if workload == "cone":
        return build_cone(seed, tiny)
    if workload == "ghost":
        return build_ghost(seed, tiny)
    if workload == "classify":
        return build_classify(seed, tiny, workdir)
    if workload == "modules":
        return build_modules(seed, tiny)
    raise ValueError(f"unknown workload {workload!r}")
