"""One integer action table per module, checked against the dense code it
replaced.

`SuperModule` keeps rho once, as sparse integer rows over a common
denominator, and `action` is a Fraction view of them.  The reference code
below is the former dense Fraction implementation, kept verbatim as an
oracle: `matrix_of` accumulated in one Fraction matrix, `direct_sum`,
`tensor` and `dual` filled `Matrix.zeros`, `validate_module` multiplied
dense matrices, and `in_g1ss` took the minimal polynomial of the dense
matrix of [u,u]/2.  The new code must give equal views, equal issue lists
in the same order, and equal cone verdicts.
"""

import random
from fractions import Fraction as Q

import pytest

from superkit import acceptance, catalog, core, linalg, reps
from superkit.core import EVEN, ODD, LieSuperalgebra, SuperkitError
from superkit.families import build_product, parse_family_spec
from superkit.linalg import Matrix, is_squarefree, minimal_polynomial, vec_scale
from superkit.reps import (
    NotInG1ss,
    SuperModule,
    adjoint_module,
    direct_sum,
    ds_functor,
    ds_tensor_check,
    dual,
    tensor,
    trivial_module,
    validate_module,
)

# -- the dense reference ---------------------------------------------------------

class DenseModule:
    """The former dataclass: parity and the list of Fraction matrices."""

    def __init__(self, parity, action):
        self.parity, self.action, self.dim = tuple(parity), action, len(parity)


def dense_matrix_of(m, x):
    out = Matrix.zeros(m.dim, m.dim)
    for i, c in enumerate(x):
        c = Q(c)
        if c:
            for orow, arow in zip(out.data, m.action[i].data):
                for k, a in enumerate(arow):
                    if a:
                        orow[k] += c * a
    return out


def dense_validate_module(g, m):
    issues = []
    for i in range(g.dim):
        mat = m.action[i]
        for r in range(m.dim):
            for c in range(m.dim):
                if mat.data[r][c] != 0 and m.parity[r] != (m.parity[c] + g.parity[i]) % 2:
                    issues.append(f"parity: action of e{i} at entry ({r},{c})")
    for i in range(g.dim):
        for j in range(g.dim):
            sign = -1 if g.parity[i] and g.parity[j] else 1
            lhs = dense_matrix_of(m, g.bracket_basis(i, j))
            rhs = m.action[i].mul(m.action[j]).sub(
                m.action[j].mul(m.action[i]).scale(sign))
            if lhs != rhs:
                issues.append(f"representation law: fails on pair ({i},{j})")
    return issues


def dense_direct_sum(m, n):
    dm, dn = m.dim, n.dim
    action = []
    for a, b in zip(m.action, n.action):
        big = Matrix.zeros(dm + dn, dm + dn)
        for r in range(dm):
            for c in range(dm):
                big.data[r][c] = a.data[r][c]
        for r in range(dn):
            for c in range(dn):
                big.data[dm + r][dm + c] = b.data[r][c]
        action.append(big)
    return DenseModule(parity=m.parity + n.parity, action=action)


def dense_tensor(m, n):
    dm, dn = m.dim, n.dim
    parity = tuple((m.parity[i] + n.parity[j]) % 2 for i in range(dm) for j in range(dn))
    action = []
    for idx in range(len(m.action)):
        a, b = m.action[idx], n.action[idx]
        xpar = _matrix_parity(a, m.parity) if not a.is_zero() else _matrix_parity(b, n.parity)
        big = Matrix.zeros(dm * dn, dm * dn)
        for i in range(dm):
            for ip in range(dm):
                if a.data[ip][i] == 0:
                    continue
                for j in range(dn):
                    big.data[ip * dn + j][i * dn + j] += a.data[ip][i]
        for i in range(dm):
            sign = Q(-1) if (xpar and m.parity[i]) else Q(1)
            for j in range(dn):
                for jp in range(dn):
                    if b.data[jp][j] == 0:
                        continue
                    big.data[i * dn + jp][i * dn + j] += sign * b.data[jp][j]
        action.append(big)
    return DenseModule(parity=parity, action=action)


def dense_dual(m):
    action = []
    for a in m.action:
        xpar = _matrix_parity(a, m.parity)
        big = Matrix.zeros(m.dim, m.dim)
        for k in range(m.dim):
            for j in range(m.dim):
                if a.data[j][k] == 0:
                    continue
                sign = Q(-1) if (xpar and m.parity[j]) else Q(1)
                big.data[k][j] += -sign * a.data[j][k]
        action.append(big)
    return DenseModule(parity=m.parity, action=action)


def _matrix_parity(a, parity):
    for r in range(a.rows):
        for c in range(a.cols):
            if a.data[r][c] != 0:
                return (parity[r] + parity[c]) % 2
    return EVEN


def dense_in_g1ss(g, u):
    return is_squarefree(minimal_polynomial(dense_matrix_of(g.faithful_rep, g.odd_square(u))))


# -- inputs -------------------------------------------------------------------------

def _seeded_modules(seed, count=12):
    """(algebra, module) pairs: random gl(1|1) and toy modules."""
    rng = random.Random(seed)
    g11 = parse_family_spec("gl:1:1")
    toy = parse_family_spec("toy_odd_semisimple")
    out = []
    for _ in range(count):
        out.append((g11, acceptance.random_gl11_module(rng)))
        out.append((toy, acceptance.random_toy_module(rng)))
    return out


def _corrupted(m, rng):
    """A copy of m with one entry changed, at a random place of a random
    action matrix (zero or not, parity-respecting or not)."""
    action = [a.copy() for a in m.action]
    i, r, c = rng.randrange(len(action)), rng.randrange(m.dim), rng.randrange(m.dim)
    action[i].data[r][c] += Q(rng.choice((-3, -1, 1, 2)), rng.choice((1, 2)))
    return SuperModule(parity=m.parity, action=action)


def _views_equal(new, old):
    """The new module's view equals the dense reference's matrices."""
    return (type(new) is SuperModule and new.parity == old.parity
            and new.action == old.action and repr(new.action) == repr(old.action))


# -- the view ---------------------------------------------------------------------

def test_action_view_round_trips_the_given_matrices():
    mats = [Matrix([[Q(1, 2), 0], [0, Q(-3, 4)]]), Matrix([[0, Q(5)], [Q(2, 3), 0]]),
            Matrix.zeros(2, 2)]
    m = SuperModule((EVEN, EVEN), mats, "x")
    assert m.action == mats
    assert repr(m.action) == repr(mats)
    assert m.action is m.action  # built once
    assert m._den == 12
    with pytest.raises(ValueError, match="dim x dim"):
        SuperModule((EVEN,), mats)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_matrix_of_matches_dense_accumulation(seed):
    rng = random.Random(seed)
    for g, m in _seeded_modules(seed, 6):
        for _ in range(5):
            x = [Q(rng.randint(-4, 4), rng.choice((1, 2, 3))) for _ in range(g.dim)]
            assert m.matrix_of(x) == dense_matrix_of(m, x)
            assert repr(m.matrix_of(x)) == repr(dense_matrix_of(m, x))


# -- constructions ------------------------------------------------------------------

@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_constructions_match_dense_fill_loops(seed):
    rng = random.Random(100 + seed)
    pairs = _seeded_modules(seed, 8)
    for g, m in pairs:
        others = [n for h, n in pairs if h is g]
        n = rng.choice(others)
        bad = _corrupted(m, rng)
        for a, b in ((m, n), (bad, n), (n, bad)):
            assert _views_equal(direct_sum(a, b), dense_direct_sum(a, b))
            if a.dim * b.dim <= 24:
                assert _views_equal(tensor(a, b), dense_tensor(a, b))
            assert _views_equal(dual(a), dense_dual(a))


def test_named_modules_match_their_dense_construction():
    for spec in catalog.specs(catalog.CONE):
        g = parse_family_spec(spec)
        adj = adjoint_module(g)
        assert adj.action == [Matrix.from_columns([g.bracket_basis(i, j) for j in range(g.dim)])
                              for i in range(g.dim)]
        assert adj.parity == g.parity and adj.name == "adjoint"
        triv = trivial_module(g)
        assert triv.action == [Matrix.zeros(1, 1)] * g.dim
        assert validate_module(g, adj) == [] == validate_module(g, triv)


# -- validation ---------------------------------------------------------------------

@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
def test_validate_module_matches_dense_reference(seed):
    rng = random.Random(200 + seed)
    seen_bad = 0
    for g, m in _seeded_modules(seed, 6):
        assert validate_module(g, m) == dense_validate_module(g, m) == []
        for _ in range(3):
            bad = _corrupted(m, rng)
            issues = validate_module(g, bad)
            assert issues == dense_validate_module(g, bad)
            seen_bad += bool(issues)
    assert seen_bad


@pytest.mark.parametrize("spec", ["gl:1:1", "osp1:1", "sl:2:1", "product:osp1:1,gl:1:1"])
def test_validate_module_matches_dense_reference_over_a_lopsided_table(spec):
    # one order of a bracket changed: the table is not super-antisymmetric,
    # so every ordered pair is computed, and the intact table's modules are
    # lawless over it
    from superkit.core import LieSuperalgebra
    rng = random.Random(7)
    g = parse_family_spec(spec)
    i, j = next((i, j) for i in range(g.dim) for j in range(i + 1, g.dim)
                if g.bracket_sparse(i, j))
    table = {(a, b): dict(g.bracket_sparse(a, b)) for a in range(g.dim) for b in range(g.dim)}
    k, c = g.bracket_sparse(i, j)[0]
    table[i, j][k] = 2 * c
    lopsided = LieSuperalgebra(g.parity, table, g.names)
    assert core._asymmetric_pairs(lopsided, -1)
    modules = [adjoint_module(g)] + ([g.faithful_rep] if g.faithful_rep else [])
    for m in modules + [_corrupted(m, rng) for m in modules for _ in range(3)]:
        issues = validate_module(lopsided, m)
        assert issues and issues == dense_validate_module(lopsided, m)


def test_validate_module_matches_dense_reference_on_parity_violations():
    g = parse_family_spec("gl:1:1")
    m = tensor(g.faithful_rep, dual(g.faithful_rep))
    for i in range(g.dim):
        for r in range(m.dim):
            for c in range(m.dim):
                action = [a.copy() for a in m.action]
                action[i].data[r][c] += 1
                bad = SuperModule(m.parity, action)
                assert validate_module(g, bad) == dense_validate_module(g, bad)


# -- the cone and the algebra-level consumers -----------------------------------------

@pytest.mark.parametrize("spec", catalog.specs(catalog.CONE))
def test_in_g1ss_matches_dense_minimal_polynomial(spec):
    g = parse_family_spec(spec)
    rng = random.Random(spec)
    odd = g.odd_indices
    assert g.in_g1ss([Q(0)] * g.dim) and dense_in_g1ss(g, [Q(0)] * g.dim)
    for k in range(40):
        u = [Q(0)] * g.dim
        for i in (odd if k % 2 else rng.sample(odd, min(len(odd), 2))):
            u[i] = Q(rng.randint(-4, 4), rng.choice((1, 1, 2)))
        assert g.in_g1ss(u) is dense_in_g1ss(g, u)
    for i in g.even_indices:
        x = g.basis_vector(i)
        assert g.is_semisimple_element(x) is is_squarefree(
            minimal_polynomial(dense_matrix_of(g.faithful_rep, x)))


@pytest.mark.parametrize("spec", catalog.specs(cost=catalog.TIER1))
def test_in_g1ss_matches_the_dense_route_on_fraction_coordinates(spec):
    """The integer cone test against the Fraction route it replaced: the
    dense matrix of [u,u]/2 formed with the Fraction bracket."""
    g = parse_family_spec(spec)
    rng = random.Random(spec)
    odd = g.odd_indices
    for k in range(16):
        u = [Q(0)] * g.dim
        for i in (odd if k % 2 else rng.sample(odd, min(len(odd), 2))):
            u[i] = Q(rng.randint(-4, 4), rng.randint(1, 6))
        half = vec_scale(Q(1, 2), g.bracket(u, u))
        assert g.odd_square(u) == half
        dense = is_squarefree(minimal_polynomial(dense_matrix_of(g.faithful_rep, half)))
        assert g.in_g1ss(u) is dense


def test_in_g1ss_refuses_bad_input():
    g = parse_family_spec("gl:1:1")
    even = g.basis_vector(g.even_indices[0])
    odd = g.basis_vector(g.odd_indices[0])
    for test in (g.in_g1ss, g.odd_square):
        with pytest.raises(ValueError, match="purely odd"):
            test([a + b for a, b in zip(even, odd)])
        # too short, and too long with a nonzero entry past the end
        for u in (odd[:-1], odd + [Q(1)]):
            with pytest.raises(ValueError, match="coordinate vectors must have length dim"):
                test(u)
    # a table whose odd square is odd (it breaks the grading)
    lax = LieSuperalgebra([EVEN, ODD], {(1, 1): {1: Q(1)}}, ["x", "u"])
    with pytest.raises(ValueError, match="even elements"):
        lax.in_g1ss([Q(0), Q(1)])
    bare = LieSuperalgebra([EVEN, ODD, ODD], {(1, 2): {0: Q(1)}, (2, 1): {0: Q(1)}},
                           ["x", "u", "v"])
    with pytest.raises(SuperkitError):
        bare.in_g1ss([Q(0), Q(1), Q(1)])


def test_in_g1ss_stays_off_the_fraction_path(monkeypatch):
    def forbidden(*args):
        raise AssertionError("the cone test went through Fractions")

    cases = []
    for spec in catalog.specs(catalog.CONE):
        g = parse_family_spec(spec)
        u = [Q(i % 3 - 1, 2) if p == ODD else Q(0) for i, p in enumerate(g.parity)]
        cases.append((g, u, g.in_g1ss(u)))
    monkeypatch.setattr(LieSuperalgebra, "bracket", forbidden)
    for module in (core, linalg, reps):
        monkeypatch.setattr(module, "fraction_vector", forbidden)
    for g, u, verdict in cases:
        assert g.in_g1ss(u) is verdict


def test_restricted_subalgebra_rep_is_the_restriction():
    for spec in ("osp1:2", "gl:2:2", "sl:2:1"):
        g = parse_family_spec(spec)
        rng = random.Random(spec)
        # a basis of all of g in scaled coordinates
        basis = [[Q(rng.choice((1, 2, 3)), 2) * c for c in g.basis_vector(i)]
                 for i in range(g.dim)]
        sub = g.restricted_subalgebra(basis)
        assert sub.faithful_rep.action == [dense_matrix_of(g.faithful_rep, v) for v in basis]


def test_product_rep_is_block_diagonal():
    factors = [parse_family_spec(s) for s in ("osp1:1", "gl:1:1", "toy_odd_semisimple")]
    p = build_product(factors)
    rep = p.faithful_rep
    assert rep.name == "defining"
    assert rep.parity == sum((f.faithful_rep.parity for f in factors), ())
    total = rep.dim
    expected, roff = [], 0
    for f in factors:
        for a in f.faithful_rep.action:
            big = Matrix.zeros(total, total)
            for r in range(a.rows):
                for c in range(a.cols):
                    big.data[roff + r][roff + c] = a.data[r][c]
            expected.append(big)
        roff += f.faithful_rep.dim
    assert rep.action == expected
    assert validate_module(p, rep) == []
    empty = build_product([]).faithful_rep
    assert empty.parity == (EVEN,) and empty.action == []


# -- the DS tensor check tests the cone once ------------------------------------------

def test_ds_tensor_check_tests_the_cone_once(monkeypatch):
    # u is squared once, and its square tested once
    g, u = acceptance.gl11_u()
    calls = {"_odd_square_rows": 0, "_in_cone": 0}
    for name in calls:
        def spy(self, *args, real=getattr(type(g), name), name=name):
            calls[name] += 1
            return real(self, *args)
        monkeypatch.setattr(type(g), name, spy)
    m, n = g.faithful_rep, dual(g.faithful_rep)
    report = ds_tensor_check(g, u, m, n)
    assert calls == {"_odd_square_rows": 1, "_in_cone": 1}
    assert report["ds_m"] == ds_functor(g, u, m).dims
    assert report["ds_tensor"] == ds_functor(g, u, tensor(m, n)).dims
    assert report["ok"]


def test_ds_tensor_check_rejects_before_any_other_work(monkeypatch):
    o = parse_family_spec("osp1:1")
    u = o.basis_vector(o.odd_indices[0])

    def forbidden(*args):
        raise AssertionError("work done before the cone test")

    monkeypatch.setattr(reps, "tensor", forbidden)
    monkeypatch.setattr(reps, "_ds_homology", forbidden)
    monkeypatch.setattr(SuperModule, "matrix_of", forbidden)
    with pytest.raises(NotInG1ss):
        ds_tensor_check(o, u, o.faithful_rep, o.faithful_rep)
