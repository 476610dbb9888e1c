"""Super modules, semisimplicity testing, and the Duflo-Serganova functor."""

import random
from math import gcd

import pytest
from fractions import Fraction as Q

from superkit.core import EVEN, ODD
from superkit.families import build_gl, build_osp1, build_sl, build_toy, parse_family_spec
from superkit.linalg import Matrix, zero_vec
from superkit.reps import (
    NotInG1ss,
    SuperModule,
    adjoint_module,
    conjugate,
    direct_sum,
    ds_functor,
    ds_tensor_check,
    dual,
    has_integral_weights,
    induced_trivial,
    is_module_semisimple,
    is_semisimple_action,
    tensor,
    trivial_module,
    validate_module,
)


def unit_vec(g, name):
    v = zero_vec(g.dim)
    v[g.names.index(name)] = Q(1)
    return v


def gl11_and_u():
    g = build_gl(1, 1)
    u = [a + b for a, b in zip(unit_vec(g, "E12"), unit_vec(g, "E21"))]
    return g, u


# -- validation --------------------------------------------------------------------

def test_validate_adjoint_and_defining():
    o = build_osp1(1)
    assert validate_module(o, adjoint_module(o)) == []
    g = build_gl(1, 1)
    assert validate_module(g, g.faithful_rep) == []


def test_validate_reports_corruption():
    g = build_gl(1, 1)
    rep = g.faithful_rep
    action = [m.copy() for m in rep.action]
    action[0].data[0][0] += 1
    bad = SuperModule(parity=rep.parity, action=action)
    issues = validate_module(g, bad)
    assert issues and any("pair" in s for s in issues)


def test_validate_reports_parity_violation():
    g = build_gl(1, 1)
    # odd generator acting without flipping parity
    action = [Matrix.zeros(2, 2) for _ in range(4)]
    action[1] = Matrix([[1, 0], [0, 0]])
    bad = SuperModule(parity=(EVEN, ODD), action=action)
    assert any("parity" in s for s in validate_module(g, bad))


# -- monoidal structure -----------------------------------------------------------------

def test_tensor_with_trivial_preserves_action():
    g, _ = gl11_and_u()
    m = g.faithful_rep
    t = tensor(m, trivial_module(g))
    assert t.parity == m.parity
    for a, b in zip(t.action, m.action):
        assert a == b
    assert validate_module(g, t) == []


def test_tensor_dims_and_validity():
    g, _ = gl11_and_u()
    m, n = g.faithful_rep, induced_trivial(g)
    t = tensor(m, n)
    assert t.dim == m.dim * n.dim
    assert validate_module(g, t) == []
    s = direct_sum(m, n)
    assert s.dim == m.dim + n.dim
    assert validate_module(g, s) == []


def test_dual_is_valid_and_double_dual_has_same_character():
    rng = random.Random(4)
    for g in (build_gl(1, 1), build_osp1(1)):
        m = g.faithful_rep
        d = dual(m)
        assert validate_module(g, d) == []
        dd = dual(d)
        for _ in range(10):
            x = zero_vec(g.dim)
            for i in g.even_indices:
                x[i] = Q(rng.randint(-3, 3))
            assert m.matrix_of(x).trace() == dd.matrix_of(x).trace()


# -- induced module -----------------------------------------------------------------------

def test_induced_trivial_purely_even():
    g = build_gl(2, 0)
    m = induced_trivial(g)
    assert m.dim == 1 and m.parity == (EVEN,)
    assert is_module_semisimple(g, m)


def test_induced_trivial_gl11():
    g = build_gl(1, 1)
    m = induced_trivial(g)
    assert m.dim == 4
    assert validate_module(g, m) == []
    assert not is_module_semisimple(g, m)


def test_induced_trivial_osp1_semisimple():
    o = build_osp1(1)
    m = induced_trivial(o)
    assert m.dim == 4
    assert validate_module(o, m) == []
    assert is_module_semisimple(o, m)


# -- semisimplicity ------------------------------------------------------------------------

def test_module_semisimplicity_examples():
    g, _ = gl11_and_u()
    assert is_module_semisimple(g, trivial_module(g))
    o = build_osp1(1)
    assert is_module_semisimple(o, adjoint_module(o))
    s = build_sl(2, 1)
    assert not is_module_semisimple(s, induced_trivial(s))


# -- integrality flag -------------------------------------------------------------------------

def test_integral_weights():
    g = build_gl(1, 1)
    assert has_integral_weights(g, g.faithful_rep)
    assert has_integral_weights(g, induced_trivial(g))
    half = SuperModule(parity=(EVEN,), action=[
        Matrix([[Q(1, 2)]]), Matrix([[0]]), Matrix([[0]]), Matrix([[Q(-1, 2)]])
    ])
    assert validate_module(g, half) == []
    assert not has_integral_weights(g, half)


# -- Duflo-Serganova ---------------------------------------------------------------------------

def test_ds_rejects_elements_outside_the_cone():
    o = build_osp1(1)
    u = unit_vec(o, "a1")
    with pytest.raises(NotInG1ss):
        ds_functor(o, u, o.faithful_rep)


def test_ds_zero_element_is_identity_on_dimensions():
    g, _ = gl11_and_u()
    for m in (g.faithful_rep, induced_trivial(g)):
        r = ds_functor(g, zero_vec(g.dim), m)
        assert r.dims == (m.even_dim, m.odd_dim)


def test_ds_kills_defining_and_induced_for_gl11():
    g, u = gl11_and_u()
    assert ds_functor(g, u, g.faithful_rep).dims == (0, 0)
    assert ds_functor(g, u, induced_trivial(g)).dims == (0, 0)


def test_ds_kills_induced_for_sl21():
    s = build_sl(2, 1)
    u = unit_vec(s, "E13")   # square zero, so in the cone
    assert ds_functor(s, u, induced_trivial(s)).dims == (0, 0)
    # the defining module k^(2|1) has one even homology class
    assert ds_functor(s, u, s.faithful_rep).dims == (1, 0)


def test_ds_additive_on_direct_sums():
    g, u = gl11_and_u()
    m, n = g.faithful_rep, induced_trivial(g)
    rm, rn = ds_functor(g, u, m), ds_functor(g, u, n)
    rs = ds_functor(g, u, direct_sum(m, n))
    assert rs.dims == (rm.dims[0] + rn.dims[0], rm.dims[1] + rn.dims[1])
    toy = build_toy("toy_odd_semisimple")
    tu = toy.basis_vector(1)
    p0 = SuperModule(parity=(EVEN, ODD), action=[Matrix.zeros(2, 2),
                                                 Matrix([[0, 0], [1, 0]])])
    assert validate_module(toy, p0) == []
    r0 = ds_functor(toy, tu, p0)
    assert r0.dims == (0, 0)
    rsum = ds_functor(toy, tu, direct_sum(p0, trivial_module(toy)))
    assert rsum.dims == (1, 0)


def test_ds_representatives_are_h_invariant_and_closed():
    toy = build_toy("toy_odd_semisimple")
    tu = toy.basis_vector(1)
    m = direct_sum(trivial_module(toy), toy.faithful_rep)
    r = ds_functor(toy, tu, m)
    h = toy.odd_square(tu)
    hmat, umat = m.matrix_of(h), m.matrix_of(tu)
    for v in r.homology_basis:
        assert all(c == 0 for c in hmat.matvec(v))
        assert all(c == 0 for c in umat.matvec(v))


def test_ds_square_of_u_matches_square_in_algebra():
    rng = random.Random(9)
    g = build_gl(1, 1)
    for m in (g.faithful_rep, induced_trivial(g), adjoint_module(g)):
        for _ in range(5):
            u = zero_vec(g.dim)
            for i in g.odd_indices:
                u[i] = Q(rng.randint(-2, 2))
            if all(c == 0 for c in u):
                continue
            umat = m.matrix_of(u)
            assert umat.mul(umat) == m.matrix_of(g.odd_square(u))


def test_ds_tensor_multiplicative_small():
    g, u = gl11_and_u()
    m = g.faithful_rep
    assert ds_tensor_check(g, u, m, m)["ok"]
    assert ds_tensor_check(g, u, m, trivial_module(g))["ok"]
    toy = build_toy("toy_odd_semisimple")
    tu = toy.basis_vector(1)
    assert ds_tensor_check(toy, tu, toy.faithful_rep, toy.faithful_rep)["ok"]


def test_conjugation_preserves_ds_dims():
    g, u = gl11_and_u()
    m = induced_trivial(g)
    p = Matrix.identity(4)
    p.data[0][1] = Q(2)   # parities of basis 0 and 1 differ? mask 0 even, 1 odd
    # use a parity-preserving shear instead: 1 and 2 are both odd components
    p = Matrix.identity(4)
    p.data[1][2] = Q(3)
    c = conjugate(m, p)
    assert validate_module(g, c) == []
    assert ds_functor(g, u, c).dims == ds_functor(g, u, m).dims


# -- semisimplicity against the dense reference ----------------------------------------------
#
# `_dense_is_semisimple_action` is the former implementation of
# `is_semisimple_action`, kept here as an oracle: it closes the full generator
# list under left multiplication with dense integer products and takes the rank
# of the full, non-symmetric Gram matrix.

def _dense_is_semisimple_action(mats, dim):
    if dim == 0:
        return True
    gens = [_dense_int_matrix(m) for m in mats]
    basis = []
    ech = _DenseIntEchelon()
    ident = [[1 if r == c else 0 for c in range(dim)] for r in range(dim)]
    queue = [ident] + [m for m in gens]
    while queue:
        cand = queue.pop()
        if ech.add([x for row in cand for x in row]):
            basis.append(cand)
            for gmat in gens:
                queue.append(_dense_int_mul(gmat, cand))
    n = len(basis)
    gram = [[_dense_trace_prod(basis[p], basis[q]) for q in range(n)] for p in range(n)]
    rank = _DenseIntEchelon()
    for row in gram:
        rank.add(row)
    return len(rank.pivots) == n


def _dense_int_matrix(m):
    den = 1
    for row in m.data:
        for e in row:
            den = den * e.denominator // gcd(den, e.denominator)
    return [[int(e * den) for e in row] for row in m.data]


def _dense_int_mul(a, b):
    bt = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def _dense_trace_prod(a, b):
    return sum(a[i][j] * b[j][i] for i in range(len(a)) for j in range(len(a)))


class _DenseIntEchelon:
    def __init__(self):
        self.pivots = {}

    def _normalize(self, row):
        g = 0
        for x in row:
            g = gcd(g, x)
            if g == 1:
                break
        if g > 1:
            row = [x // g for x in row]
        return row

    def reduce(self, row):
        row = list(row)
        for c in sorted(self.pivots):
            if row[c]:
                p = self.pivots[c]
                pc, rc = p[c], row[c]
                row = [x * pc - y * rc for x, y in zip(row, p)]
                row = self._normalize(row)
        return row

    def add(self, row):
        row = self.reduce(row)
        lead = next((c for c, x in enumerate(row) if x), None)
        if lead is None:
            return False
        if row[lead] < 0:
            row = [-x for x in row]
        self.pivots[lead] = self._normalize(row)
        return True


def _reference_modules():
    out = []
    for spec in ("gl:1:1", "sl:2:1", "gl:2:1", "osp1:1", "osp1:2",
                 "product:osp1:1,gl:1:1", "toy_odd_semisimple"):
        out.append((f"induced {spec}", induced_trivial(parse_family_spec(spec))))
    for spec in ("sl:2:1", "gl:2:1"):
        out.append((f"adjoint {spec}", adjoint_module(parse_family_spec(spec))))
    for spec in ("osp1:1", "sl:2:1", "gl:2:1"):
        v = parse_family_spec(spec).faithful_rep
        out.append((f"defining*dual {spec}", tensor(v, dual(v))))
    return out


def _generator_variants(mats, dim, rng):
    """Generator lists that generate the same algebra as `mats`."""
    zero = Matrix.zeros(dim, dim)
    interleaved = [z for m in mats for z in (zero, m)] + [zero]
    scaled = [m.scale(Q(rng.choice([-3, -1, 2, 5]), rng.choice([1, 2, 7]))) for m in mats]
    return {
        "reversed": list(reversed(mats)),
        "duplicated": list(mats) + list(mats),
        "zero-interleaved": interleaved,
        "scaled": scaled,
    }


def _random_parity_conjugate(m, rng):
    """A conjugate of m by a random diagonal matrix times three shears, each
    inside one parity block."""
    p = Matrix.identity(m.dim)
    for i in range(m.dim):
        p.data[i][i] = Q(rng.choice([-3, -1, 1, 2]), rng.choice([1, 5]))
    for _ in range(3):
        a = rng.randrange(m.dim)
        same = [b for b in range(m.dim) if b != a and m.parity[b] == m.parity[a]]
        if same:
            shear = Matrix.identity(m.dim)
            shear.data[a][rng.choice(same)] = Q(rng.choice([-2, -1, 1, 3]), rng.choice([1, 2]))
            p = p.mul(shear)
    return conjugate(m, p)


def test_semisimple_action_matches_dense_reference():
    rng = random.Random(11)
    verdicts = {}
    for name, m in _reference_modules():
        expected = _dense_is_semisimple_action(m.action, m.dim)
        verdicts[name] = expected
        assert is_semisimple_action(m.action, m.dim) is expected, name
        # each variant generates the same algebra, or a conjugate of it, so the
        # reference verdict carries over
        variants = _generator_variants(m.action, m.dim, rng)
        variants["conjugate"] = _random_parity_conjugate(m, rng).action
        for kind, mats in variants.items():
            assert is_semisimple_action(mats, m.dim) is expected, (name, kind)
    # the ghost verdict: the induced module is semisimple exactly for osp types
    assert [n for n, v in verdicts.items() if n.startswith("induced") and v] == [
        "induced osp1:1", "induced osp1:2"]


@pytest.mark.parametrize("mats, dim, expected", [
    ([], 0, True),
    ([], 1, True),
    ([Matrix([[Q(-3, 4)]])], 1, True),
    ([], 3, True),
    ([Matrix.zeros(3, 3), Matrix.zeros(3, 3)], 3, True),
    ([Matrix([[0, 1], [0, 0]])], 2, False),
    ([Matrix([[1, 0], [0, 0]]), Matrix.zeros(2, 2), Matrix([[0, 1], [0, 0]])], 2, False),
    ([Matrix([[0, 1], [0, 0]]), Matrix([[0, 0], [1, 0]])], 2, True),
])
def test_semisimple_action_edge_cases(mats, dim, expected):
    assert _dense_is_semisimple_action(mats, dim) is expected
    assert is_semisimple_action(mats, dim) is expected
