"""Batch verification driver: every acceptance check, runnable from the
command line (`superkit verify-all`) or from the pytest suite.

Each criterion is a function returning a detail string and raising
AssertionError on failure; the runner times it and collects results.
All comparisons are exact (the underlying arithmetic is rational), and each
criterion enforces its stated wall-clock budget.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from fractions import Fraction

from . import catalog
from .core import LieSuperalgebra
from .enveloping import (
    LEFT,
    NOT_SEMISIMPLE,
    RIGHT,
    SEMISIMPLE,
    EnvelopingElement,
    coinvariant_project,
    djokovic_element,
    double_factorial_odd,
    ghost_criterion,
    invariants,
    is_coinvariant_invariant,
    pbw_normal_form,
    verify_djokovic,
)
from .families import (
    build_gl,
    build_osp1,
    build_sl,
    build_toy,
    parse_family_spec,
)
from .linalg import (
    Echelon,
    Matrix,
    Q,
    Vec,
    is_squarefree,
    minimal_polynomial,
    solve_linear,
    zero_vec,
)
from .reps import (
    SuperModule,
    conjugate,
    direct_sum,
    ds_functor,
    ds_tensor_check,
    dual,
    induced_trivial,
    is_module_semisimple,
    tensor,
    trivial_module,
    validate_module,
)
from .roots import Osp, Witness, classify_simple, g1ss_structural_scan
from .supercomm import catalog_pairs, splitting_witness, verify_no_splitting, Vanishing

DEFAULT_SEED = 20230


@dataclass
class CriterionResult:
    name: str
    passed: bool
    detail: str
    elapsed: float


def _budget(elapsed: float, limit: float, what: str) -> None:
    assert elapsed < limit, f"{what}: took {elapsed:.2f}s, budget {limit}s"


# -- 1: construction soundness -------------------------------------------------

def crit_construction(seed: int) -> str:
    t0 = time.perf_counter()
    specs = catalog.specs(catalog.CONSTRUCTION)
    for spec in specs:
        issues = parse_family_spec(spec).validate()
        assert issues == [], f"{spec}: {issues[:3]}"
    elapsed = time.perf_counter() - t0
    _budget(elapsed, 1.0, "construction")
    return f"{len(specs)} algebras pass all super axioms exactly"


# -- 2: classification ----------------------------------------------------------

def crit_classification(seed: int) -> str:
    t0 = time.perf_counter()
    for n in (1, 2, 3):
        g = build_osp1(n)
        out = classify_simple(g)
        assert isinstance(out, Osp), f"osp(1|{2 * n}) -> {out}"
        assert out.n == n
        fam = build_osp1(n)
        phi = out.basis_map
        for i in range(g.dim):
            for j in range(g.dim):
                lhs = phi.matvec(g.bracket_basis(i, j))
                rhs = fam.bracket(phi.column(i), phi.column(j))
                assert lhs == rhs, f"basis map fails at ({i},{j}) for n={n}"
    s = build_sl(2, 1)
    out = classify_simple(s)
    assert isinstance(out, Witness), f"sl(2|1) -> {out}"
    assert any(c != 0 for c in out.u) and s.in_g1ss(out.u)
    g11 = build_gl(1, 1)
    w = g1ss_structural_scan(g11).witness
    assert w is not None and any(c != 0 for c in w) and g11.in_g1ss(w)
    elapsed = time.perf_counter() - t0
    _budget(elapsed, 5.0, "classification")
    return "osp(1|2n) classified with verified basis maps; witnesses for sl(2|1), gl(1|1)"


# -- 3: ghost criterion ----------------------------------------------------------

def crit_ghost(seed: int) -> str:
    t0 = time.perf_counter()
    for n in (1, 2, 3):
        g, v = djokovic_element(n)
        for side in (LEFT, RIGHT):
            inv = invariants(g, side)
            assert len(inv) == 1, f"osp(1|{2 * n}) {side} invariant dim {len(inv)}"
        # classical normalization: the product element spans the invariant
        # line on the quotient it lives in, with counit (2n-1)!!
        vp = coinvariant_project(g, v, LEFT)
        assert not vp.is_zero() and is_coinvariant_invariant(g, vp)
        assert vp.counit() == double_factorial_odd(n)
        ghost, verdict = ghost_criterion(g)
        assert verdict == SEMISIMPLE and ghost.epsilon_value != 0
    for name, g in (("gl(1|1)", build_gl(1, 1)),
                    ("toy_odd_semisimple", build_toy("toy_odd_semisimple"))):
        ghost, verdict = ghost_criterion(g)
        assert verdict == NOT_SEMISIMPLE, f"{name}: {verdict}"
        assert ghost.epsilon_value == 0
    elapsed = time.perf_counter() - t0
    _budget(elapsed, 30.0, "ghost criterion")
    return "invariant lines are 1-dimensional with counits 1, 3, 15; gl(1|1)/toy fail"


# -- 4: the classical product element ------------------------------------------

def crit_djokovic(seed: int) -> str:
    t0 = time.perf_counter()
    values = []
    for n in (1, 2, 3):
        rep = verify_djokovic(n)
        assert rep.product_invariant, f"n={n}: product not invariant"
        assert rep.antipode_invariant, f"n={n}: antipode image not invariant"
        assert rep.epsilon == rep.epsilon_expected == double_factorial_odd(n)
        values.append(int(rep.epsilon))
    elapsed = time.perf_counter() - t0
    _budget(elapsed, 30.0, "product element")
    return f"product invariant on both quotients; counits {values}"


# -- 5: cross-validation of the two criteria ------------------------------------

def crit_cross_validation(seed: int) -> str:
    entries = catalog.entries(catalog.CROSS_VALIDATION)
    for e in entries:
        g = parse_family_spec(e.spec)
        _, verdict = ghost_criterion(g)
        module_says = is_module_semisimple(g, induced_trivial(g))
        agree = (verdict == SEMISIMPLE) is module_says
        assert agree and (verdict, module_says) == (e.ghost, e.induced), (
            f"{e.spec}: ghost={verdict}, induced-module={module_says}, "
            f"expected {e.ghost}, {e.induced}"
        )
    return f"ghost verdict equals induced-module semisimplicity on {len(entries)} algebras"


# -- 6: the Duflo-Serganova functor ----------------------------------------------

def gl11_u() -> tuple[LieSuperalgebra, Vec]:
    g = build_gl(1, 1)
    u = zero_vec(g.dim)
    u[g.names.index("E12")] = Q(1)
    u[g.names.index("E21")] = Q(1)
    return g, u


def random_gl11_module(rng: random.Random) -> SuperModule:
    g = build_gl(1, 1)
    # each seed module is built only once the rng has picked it
    seeds = [lambda: g.faithful_rep, lambda: dual(g.faithful_rep),
             lambda: induced_trivial(g), lambda: _gl11_character(1),
             lambda: _gl11_character(-2), lambda: trivial_module(g)]
    m = rng.choice(seeds)()
    for _ in range(rng.randint(0, 2)):
        other = rng.choice(seeds)()
        if m.dim * other.dim <= 12 and rng.random() < 0.5:
            m = tensor(m, other)
        elif m.dim + other.dim <= 12:
            m = direct_sum(m, other)
    return _random_conjugate(m, rng)


def _gl11_character(p: int) -> SuperModule:
    vals = {"E11": p, "E22": -p}
    table = [[[(0, vals[nm])] if vals.get(nm) else []] for nm in build_gl(1, 1).names]
    return SuperModule._of_table((0,), table, 1, f"char({p})")


def random_toy_module(rng: random.Random) -> SuperModule:
    pieces = []
    for _ in range(rng.randint(1, 3)):
        lam = rng.randint(-2, 2)
        pieces.append(_toy_pair(lam))
    m = pieces[0]
    for p in pieces[1:]:
        m = direct_sum(m, p)
    return _random_conjugate(m, rng)


def _toy_pair(lam: int) -> SuperModule:
    # e even, f odd; u: e -> f, f -> lam e; h = u^2 = lam * id
    h = [[(0, lam)], [(1, lam)]] if lam else [[], []]
    u = [[(1, lam)] if lam else [], [(0, 1)]]
    return SuperModule._of_table((0, 1), [h, u], 1, f"pair({lam})")


def _random_conjugate(m: SuperModule, rng: random.Random) -> SuperModule:
    d = m.dim
    p = Matrix.identity(d)
    for _ in range(rng.randint(0, 3)):
        a, b = rng.randrange(d), rng.randrange(d)
        if a == b or m.parity[a] != m.parity[b]:
            continue
        # P (I + c e_ab): add c times column a to column b
        c = rng.randint(-2, 2)
        for row in p.data:
            row[b] += c * row[a]
    return conjugate(m, p)


def crit_ds_functor(seed: int) -> str:
    g, u = gl11_u()
    defining = g.faithful_rep
    induced = induced_trivial(g)
    assert ds_functor(g, u, defining).dims == (0, 0)
    assert ds_functor(g, u, induced).dims == (0, 0)
    zero = zero_vec(g.dim)
    assert ds_functor(g, zero, defining).dims == (defining.even_dim, defining.odd_dim)
    assert ds_functor(g, zero, induced).dims == (induced.even_dim, induced.odd_dim)
    rng = random.Random(seed)
    toy = build_toy("toy_odd_semisimple")
    toy_u = toy.basis_vector(1)
    checked = 0
    for _ in range(10):
        m, n = random_gl11_module(rng), random_gl11_module(rng)
        assert validate_module(g, m) == [] and validate_module(g, n) == []
        report = ds_tensor_check(g, u, m, n)
        assert report["ok"], f"gl(1|1) tensor multiplicativity failed: {report}"
        checked += 1
    for _ in range(10):
        m, n = random_toy_module(rng), random_toy_module(rng)
        assert validate_module(toy, m) == [] and validate_module(toy, n) == []
        report = ds_tensor_check(toy, toy_u, m, n)
        assert report["ok"], f"toy tensor multiplicativity failed: {report}"
        checked += 1
    return f"vanishing on defining/induced, identity at u = 0, multiplicative on {checked} random pairs"


# -- 7: splitting obstruction -----------------------------------------------------

def crit_splitting(seed: int) -> str:
    t0 = time.perf_counter()
    pairs = catalog_pairs()
    successes = 0
    for name, (a, d) in pairs.items():
        if name == "vanishing":
            try:
                splitting_witness(a, d)
                raise AssertionError("vanishing pair produced a witness")
            except Vanishing:
                pass
            continue
        f = splitting_witness(a, d)
        assert d.matvec(f) == a.unit, f"{name}: u(f) != 1"
        assert verify_no_splitting(a, d), f"{name}: unit not in the image of u"
        successes += 1
    elapsed = time.perf_counter() - t0
    _budget(elapsed, 1.0, "splitting obstruction")
    assert successes == 3
    return "u(f) = 1 exactly on 3 catalog pairs; vanishing case rejected"


# -- 8: property suites -------------------------------------------------------------

def _random_word(g: LieSuperalgebra, rng: random.Random, maxlen: int = 6) -> tuple[int, ...]:
    return tuple(rng.randrange(g.dim) for _ in range(rng.randint(0, maxlen)))


def _random_element(g: LieSuperalgebra, rng: random.Random) -> EnvelopingElement:
    out = EnvelopingElement(g, {})
    for _ in range(rng.randint(1, 3)):
        w = _random_word(g, rng, 4)
        out = out + EnvelopingElement.from_word(g, w, rng.randint(-3, 3))
    return out


def prop_pbw_confluence(seed: int, cases: int = 1000) -> int:
    rng = random.Random(seed)
    algebras = [build_osp1(1), build_gl(1, 1)]
    for t in range(cases):
        g = algebras[t % 2]
        w = _random_word(g, rng)
        left = pbw_normal_form(g, w, strategy="leftmost")
        right = pbw_normal_form(g, w, strategy="rightmost")
        assert left == right, f"confluence fails on word {w}"
    return cases

def prop_counit_multiplicative(seed: int, cases: int = 1000) -> int:
    rng = random.Random(seed)
    algebras = [build_osp1(1), build_gl(1, 1)]
    for t in range(cases):
        g = algebras[t % 2]
        x, y = _random_element(g, rng), _random_element(g, rng)
        assert (x * y).counit() == x.counit() * y.counit()
    return cases


def _random_unimodular(d: int, rng: random.Random) -> tuple[Matrix, Matrix]:
    p = Matrix.identity(d)
    pinv = Matrix.identity(d)
    for _ in range(rng.randint(1, 2 * d)):
        a, b = rng.randrange(d), rng.randrange(d)
        if a == b:
            continue
        c = rng.randint(-2, 2)
        shear = Matrix.identity(d)
        shear.data[a][b] = Q(c)
        shear_inv = Matrix.identity(d)
        shear_inv.data[a][b] = Q(-c)
        p = p.mul(shear)
        pinv = shear_inv.mul(pinv)
    return p, pinv


def prop_semisimple_vs_jordan(seed: int, cases: int = 50) -> int:
    rng = random.Random(seed)
    for _ in range(cases):
        blocks = []
        truth = True
        total = 0
        target = rng.randint(2, 5)
        while total < target:
            lam = rng.randint(-3, 3)
            size = rng.randint(1, 3)
            blocks.append((lam, size))
            total += size
            if size > 1:
                truth = False
        d = sum(s for _, s in blocks)
        j = Matrix.zeros(d, d)
        pos = 0
        for lam, size in blocks:
            for t in range(size):
                j.data[pos + t][pos + t] = Q(lam)
                if t + 1 < size:
                    j.data[pos + t][pos + t + 1] = Q(1)
            pos += size
        p, pinv = _random_unimodular(d, rng)
        m = p.mul(j).mul(pinv)
        assert is_squarefree(minimal_polynomial(m)) == truth
    return cases


def exhaustive_semisimple_oracle(g: LieSuperalgebra, m: SuperModule) -> bool:
    """Independent semisimplicity oracle for small modules: every cyclic
    submodule generated from a +-1/0 coordinate enumeration splits off
    (complement found by solving the equivariant-projection linear system)."""
    d = m.dim
    if d == 0:
        return True
    assert d <= 6, "oracle is exponential; keep it for small modules"
    vectors = []
    for code in range(1, 3 ** d):
        v = zero_vec(d)
        c = code
        for t in range(d):
            v[t] = Q([0, 1, -1][c % 3])
            c //= 3
        if any(x != 0 for x in v):
            vectors.append(v)
    for v in vectors:
        basis = _cyclic_closure(m, v)
        if not _has_equivariant_complement(m, basis):
            return False
    return True


def _cyclic_closure(m: SuperModule, v: Vec) -> list[Vec]:
    span = Echelon()
    basis = [v] if span.add(v) else []
    changed = True
    while changed:
        changed = False
        for a in m.action:
            for w in list(basis):
                img = a.matvec(w)
                if span.add(img):
                    basis.append(img)
                    changed = True
    return basis


def _has_equivariant_complement(m: SuperModule, nbasis: list[Vec]) -> bool:
    """Solvability of: pi = B X, pi A_i = A_i pi, pi n = n for n in the
    submodule; such a pi is automatically an equivariant projection onto it."""
    d = m.dim
    k = len(nbasis)
    if k == d:
        return True
    b = Matrix.from_columns(nbasis)
    rows: list[list[Fraction]] = []
    rhs: list[Fraction] = []

    def unknown(r: int, c: int) -> int:
        return r * d + c  # X is k x d

    for a in m.action:
        ab = a.mul(b)  # d x k
        for r in range(d):
            for c in range(d):
                row = [Q(0)] * (k * d)
                # (B X A)[r][c] = sum_t sum_s B[r][t] X[t][s] A[s][c]
                for t in range(k):
                    brt = b.data[r][t]
                    if brt == 0:
                        continue
                    for s in range(d):
                        if a.data[s][c] != 0:
                            row[unknown(t, s)] += brt * a.data[s][c]
                # (A B X)[r][c] = sum_t (AB)[r][t] X[t][c]
                for t in range(k):
                    if ab.data[r][t] != 0:
                        row[unknown(t, c)] -= ab.data[r][t]
                if any(x != 0 for x in row):
                    rows.append(row)
                    rhs.append(Q(0))
    for idx, n in enumerate(nbasis):
        for r in range(d):
            row = [Q(0)] * (k * d)
            for t in range(k):
                brt = b.data[r][t]
                if brt == 0:
                    continue
                for s in range(d):
                    if n[s] != 0:
                        row[unknown(t, s)] += brt * n[s]
            rows.append(row)
            rhs.append(n[r])
    return solve_linear(Matrix(rows), rhs) is not None


def small_catalog_modules() -> list[tuple[str, LieSuperalgebra, SuperModule]]:
    from .reps import adjoint_module
    g11 = build_gl(1, 1)
    g21 = build_gl(2, 1)
    s21 = build_sl(2, 1)
    o1 = build_osp1(1)
    toy = build_toy("toy_odd_semisimple")
    toyn = build_toy("toy_odd_nilpotent")
    out = [
        ("gl(1|1) trivial", g11, trivial_module(g11)),
        ("gl(1|1) defining", g11, g11.faithful_rep),
        ("gl(1|1) defining dual", g11, dual(g11.faithful_rep)),
        ("gl(1|1) induced", g11, induced_trivial(g11)),
        ("gl(1|1) adjoint", g11, adjoint_module(g11)),
        ("gl(2|1) defining", g21, g21.faithful_rep),
        ("sl(2|1) defining", s21, s21.faithful_rep),
        ("osp(1|2) defining", o1, o1.faithful_rep),
        ("osp(1|2) induced", o1, induced_trivial(o1)),
        ("toy faithful", toy, toy.faithful_rep),
        ("toy induced", toy, induced_trivial(toy)),
        ("toy adjoint", toy, adjoint_module(toy)),
        ("toy-nilpotent defining", toyn, toyn.faithful_rep),
        ("toy-nilpotent induced", toyn, induced_trivial(toyn)),
    ]
    return [(name, g, m) for name, g, m in out if m.dim <= 4]


def prop_radical_vs_oracle() -> int:
    count = 0
    for name, g, m in small_catalog_modules():
        fast = is_module_semisimple(g, m)
        slow = exhaustive_semisimple_oracle(g, m)
        assert fast == slow, f"{name}: radical test {fast} vs oracle {slow}"
        count += 1
    return count


def crit_property_suites(seed: int) -> str:
    n1 = prop_pbw_confluence(seed)
    n2 = prop_counit_multiplicative(seed + 1)
    n3 = prop_semisimple_vs_jordan(seed + 2)
    n4 = prop_radical_vs_oracle()
    return (f"confluence x{n1}, counit multiplicativity x{n2}, "
            f"semisimplicity vs Jordan x{n3}, radical vs oracle x{n4}; zero failures")


# -- runner ----------------------------------------------------------------------

CRITERIA = [
    ("construction-soundness", crit_construction),
    ("classification", crit_classification),
    ("ghost-criterion", crit_ghost),
    ("djokovic-element", crit_djokovic),
    ("criteria-cross-validation", crit_cross_validation),
    ("ds-functor", crit_ds_functor),
    ("splitting-obstruction", crit_splitting),
    ("property-suites", crit_property_suites),
]


def run_all(name_filter: str | None = None, seed: int = DEFAULT_SEED) -> list[CriterionResult]:
    results = []
    for name, fn in CRITERIA:
        if name_filter and name_filter not in name:
            continue
        t0 = time.perf_counter()
        try:
            detail = fn(seed)
            passed = True
        except AssertionError as exc:
            detail = str(exc) or "assertion failed"
            passed = False
        elapsed = time.perf_counter() - t0
        results.append(CriterionResult(name, passed, detail, elapsed))
    return results
