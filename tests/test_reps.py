"""Super modules, semisimplicity testing, and the Duflo-Serganova functor."""

import random
from math import gcd

import pytest
from fractions import Fraction as Q

from superkit.core import EVEN, ODD
from superkit.families import build_gl, build_osp1, build_sl, build_toy, parse_family_spec
from superkit import acceptance, catalog
from superkit.linalg import Matrix, inverse, kernel_basis, rank, zero_vec
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
from superkit.reps import _acting_algebra, _grading
from support import DenseIntEchelon, cartanless, odd_part_as_even_module, unit_vec


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


# -- modules over another algebra ---------------------------------------------------------

def _gl11_and_osp12():
    """gl(1|1), with 4 action matrices per module, and osp(1|2), with 5."""
    return build_gl(1, 1), build_osp1(1)


def test_validate_reports_a_module_over_another_algebra():
    g, o = _gl11_and_osp12()
    assert validate_module(o, g.faithful_rep) == [
        "the module has 4 action matrices, but g has dimension 5"]
    assert validate_module(g, o.faithful_rep) == [
        "the module has 5 action matrices, but g has dimension 4"]


def test_module_operations_refuse_a_module_over_another_algebra():
    g, o = _gl11_and_osp12()
    _, u = gl11_and_u()
    mine, other = g.faithful_rep, o.faithful_rep
    calls = [
        lambda: ds_functor(g, u, other),
        lambda: ds_tensor_check(g, u, other, mine),
        lambda: ds_tensor_check(g, u, mine, other),
        lambda: is_module_semisimple(g, other),
        lambda: has_integral_weights(g, other),
        lambda: is_module_semisimple(o, mine),
        lambda: has_integral_weights(o, mine),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="action matrices") as err:
            call()
        assert "4" in str(err.value) and "5" in str(err.value)
    # the same module over its own algebra, and with no algebra given
    assert ds_functor(g, u, mine).dims == (0, 0)
    assert ds_tensor_check(g, u, mine, mine)["ok"]
    assert is_module_semisimple(None, other) is True


@pytest.mark.parametrize("op", [tensor, direct_sum])
def test_constructions_refuse_modules_over_different_algebras(op):
    g, o = _gl11_and_osp12()
    for m, n in ((g.faithful_rep, o.faithful_rep), (o.faithful_rep, g.faithful_rep)):
        with pytest.raises(ValueError, match="^the modules have [45] and [45] action matrices$"):
            op(m, n)
    assert validate_module(g, op(g.faithful_rep, g.faithful_rep)) == []


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

def _integral_weight_answers(g):
    half = SuperModule(parity=(EVEN,), action=[
        Matrix([[Q(1, 2)]]), Matrix([[0]]), Matrix([[0]]), Matrix([[Q(-1, 2)]])
    ])
    assert validate_module(g, half) == []
    return [has_integral_weights(g, m) for m in (g.faithful_rep, induced_trivial(g), half)]


def test_integral_weights():
    assert _integral_weight_answers(build_gl(1, 1)) == [True, True, False]


def test_integral_weights_need_a_diagonalizable_cartan_action():
    # E11 and E22 act by opposite Jordan blocks of eigenvalue +-1 and the odd
    # part by zero: a module whose Cartan elements have integer eigenvalues
    # but do not act diagonalizably
    g = build_gl(1, 1)
    jordan = Matrix([[1, 1], [0, 1]])
    zero = Matrix.zeros(2, 2)
    m = SuperModule(parity=(EVEN, EVEN), action=[
        jordan if nm == "E11" else jordan.scale(-1) if nm == "E22" else zero
        for nm in g.names])
    assert validate_module(g, m) == []
    assert has_integral_weights(g, m) is False
    assert has_integral_weights(g, m, cartan=[unit_vec(g, "E11")]) is False


def test_integral_weights_refuse_a_cartan_row_of_the_wrong_length():
    g = build_gl(1, 1)
    for h in ([Q(1)], [Q(1), 0, 0, 0, 0], [0, 0, 0, 0, Q(7)]):
        with pytest.raises(ValueError, match="^coordinate vectors must have length dim$"):
            has_integral_weights(g, g.faithful_rep, cartan=[unit_vec(g, "E11"), h])


def test_integral_weights_without_a_cartan_line():
    # the Cartan subalgebra is then the one the search finds, as in classify
    g = cartanless("gl:1:1")
    assert g.cartan is None
    assert _integral_weight_answers(g) == _integral_weight_answers(build_gl(1, 1))
    for spec in ("sl:2:1", "osp1:2"):
        assert has_integral_weights(cartanless(spec), parse_family_spec(spec).faithful_rep)


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


def _check_ds_representatives(g, u, m):
    """The representatives `ds_functor` returns: even_dim even ones, then
    odd_dim odd ones, each killed by h and by u, and independent modulo
    u(ker h), which is checked by ranks in Fractions."""
    r = ds_functor(g, u, m)
    hmat, umat = m.matrix_of(g.odd_square(u)), m.matrix_of(u)
    reps = r.homology_basis
    assert len(reps) == r.even_dim + r.odd_dim
    for t, v in enumerate(reps):
        parity = EVEN if t < r.even_dim else ODD
        assert all(c == 0 or m.parity[i] == parity for i, c in enumerate(v))
        assert all(c == 0 for c in hmat.matvec(v))
        assert all(c == 0 for c in umat.matvec(v))
    boundaries = [umat.matvec(k) for k in kernel_basis(hmat)]
    assert rank(Matrix(boundaries + reps)) == rank(Matrix(boundaries)) + len(reps)


def test_ds_representatives_are_h_invariant_and_closed():
    toy = build_toy("toy_odd_semisimple")
    tu = toy.basis_vector(1)
    _check_ds_representatives(toy, tu, direct_sum(trivial_module(toy), toy.faithful_rep))
    rng = random.Random(31)
    for _ in range(12):
        _check_ds_representatives(toy, tu, acceptance.random_toy_module(rng))
    g, u = acceptance.gl11_u()
    square_zero = unit_vec(g, "E12")
    for _ in range(12):
        m = acceptance.random_gl11_module(rng)
        _check_ds_representatives(g, u, m)
        _check_ds_representatives(g, square_zero, m)


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


# -- conjugation against the dense formula ------------------------------------------
#
# `_dense_conjugate` is the former implementation of `conjugate`, kept here as
# an oracle: it multiplies the Fraction matrices P rho(x) P^-1.

def _dense_conjugate(m, p):
    return SuperModule(m.parity, [p.mul(a).mul(inverse(p)) for a in m.action])


def _conjugation_cases():
    rng = random.Random(4)
    gl11, toy = build_gl(1, 1), build_toy("toy_odd_semisimple")
    cases = [(f"gl(1|1) draw {k}", gl11, acceptance.random_gl11_module(rng)) for k in range(12)]
    cases += [(f"toy draw {k}", toy, acceptance.random_toy_module(rng)) for k in range(12)]
    for spec in ("gl:1:1", "osp1:2"):
        g = parse_family_spec(spec)
        cases.append((f"induced {spec}", g, induced_trivial(g)))
    g = parse_family_spec("product:osp1:1,gl:1:1")
    cases.append(("V x V* product:osp1:1,gl:1:1", g, tensor(g.faithful_rep, dual(g.faithful_rep))))
    return [pytest.param(k, g, m, id=name) for k, (name, g, m) in enumerate(cases)]


@pytest.mark.parametrize("seed, g, m", _conjugation_cases())
def test_conjugate_matches_the_dense_formula(seed, g, m):
    p = _random_parity_matrix(m, random.Random(seed))
    c, ref = conjugate(m, p), _dense_conjugate(m, p)
    assert (c.parity, c._den, c._table) == (ref.parity, ref._den, ref._table)
    assert validate_module(g, c) == []


def test_conjugate_refuses_a_parity_mixing_matrix():
    # basis 0 (mask 0) is even and basis 1 (mask 1) odd: P = I + 2 e_01
    # would carry odd vectors into even ones
    m = induced_trivial(build_gl(1, 1))
    p = Matrix.identity(m.dim)
    p.data[0][1] = Q(2)
    with pytest.raises(ValueError, match="parity"):
        conjugate(m, p)


@pytest.mark.parametrize("shape", ["wrong size", "not square", "singular"])
def test_conjugate_refuses_a_bad_matrix(shape):
    m = induced_trivial(build_gl(1, 1))
    p = {"wrong size": Matrix.identity(m.dim + 1),
         "not square": Matrix.zeros(m.dim, m.dim + 1),
         "singular": Matrix.identity(m.dim)}[shape]
    if shape == "singular":
        p.data[2][2] = Q(0)
    with pytest.raises(ValueError):
        conjugate(m, p)


# -- semisimplicity against the dense reference ----------------------------------------------
#
# `_dense_is_semisimple_action` is the former implementation of
# `is_semisimple_action`, kept here as an oracle: it closes the full generator
# list under left multiplication with dense integer products, with no grading
# (`_dense_algebra_basis`), and takes the rank of the full, non-symmetric Gram
# matrix.

def _dense_is_semisimple_action(mats, dim):
    return dim == 0 or _dense_trace_form_nondegenerate(_dense_algebra_basis(mats, dim))


def _dense_trace_form_nondegenerate(basis):
    n = len(basis)
    gram = [[_dense_trace_prod(basis[p], basis[q]) for q in range(n)] for p in range(n)]
    rank = DenseIntEchelon()
    for row in gram:
        rank.add(row)
    return len(rank.pivots) == n


def _dense_algebra_basis(mats, dim):
    """A basis of the algebra the matrices and the identity generate, as
    dense integer matrices."""
    gens = [_dense_int_matrix(m) for m in mats]
    basis = []
    ech = DenseIntEchelon()
    ident = [[1 if r == c else 0 for c in range(dim)] for r in range(dim)]
    queue = [ident] + [m for m in gens]
    while queue:
        cand = queue.pop()
        if ech.add([x for row in cand for x in row]):
            basis.append(cand)
            for gmat in gens:
                queue.append(_dense_int_mul(gmat, cand))
    return basis


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


def _reference_modules():
    out = []
    for spec in (e.spec for e in catalog.entries() if e.induced is not None):
        out.append((f"induced {spec}", induced_trivial(parse_family_spec(spec))))
    for spec in ("sl:2:1", "gl:2:1", "osp1:2"):
        out.append((f"adjoint {spec}", adjoint_module(parse_family_spec(spec))))
    for spec in ("osp1:1", "sl:2:1", "gl:2:1"):
        v = parse_family_spec(spec).faithful_rep
        out.append((f"defining*dual {spec}", tensor(v, dual(v))))
    for spec in ("osp1:2", "gl:2:2"):
        out.append((f"g1-as-g0 {spec}", odd_part_as_even_module(parse_family_spec(spec))))
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
    return conjugate(m, _random_parity_matrix(m, rng))


def _random_parity_matrix(m, rng):
    """The change of basis of `_random_parity_conjugate`."""
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
    return p


def _algebra_dim(m):
    """dim A from the graded closure: the sizes of its pieces."""
    return sum(len(part) for part in _acting_algebra(m)[0].values())


def test_semisimple_action_matches_dense_reference():
    rng = random.Random(11)
    verdicts = {}
    for name, m in _reference_modules():
        basis = _dense_algebra_basis(m.action, m.dim)
        expected = _dense_trace_form_nondegenerate(basis)
        verdicts[name] = expected
        assert is_module_semisimple(None, m) is expected, name
        assert is_semisimple_action(m.action, m.dim) is expected, name
        assert _algebra_dim(m) == len(basis), name
        # each variant generates the same algebra, or a conjugate of it, so the
        # reference verdict and dimension carry over
        variants = _generator_variants(m.action, m.dim, rng)
        variants["conjugate"] = _random_parity_conjugate(m, rng).action
        for kind, mats in variants.items():
            assert is_semisimple_action(mats, m.dim) is expected, (name, kind)
            assert _algebra_dim(SuperModule(m.parity, mats)) == len(basis), (name, kind)
    # the catalog's verdicts on the induced modules
    for e in catalog.entries():
        if e.induced is not None:
            assert verdicts[f"induced {e.spec}"] is e.induced, e.spec
    # the odd part is a semisimple module over the even part, as
    # `is_quasireductive` finds
    for spec in ("osp1:2", "gl:2:2"):
        assert verdicts[f"g1-as-g0 {spec}"] and parse_family_spec(spec).is_quasireductive()


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


# -- the grading of the acting algebra ---------------------------------------------------------

def _unit(dim, pairs):
    m = Matrix.zeros(dim, dim)
    for r, c in pairs:
        m.data[r][c] = Q(1)
    return m


def _matches_dense_reference(m):
    basis = _dense_algebra_basis(m.action, m.dim)
    assert _algebra_dim(m) == len(basis)
    verdict = is_module_semisimple(None, m)
    assert verdict is _dense_trace_form_nondegenerate(basis)
    return verdict


def _diag(*entries):
    return Matrix([[Q(x) if r == c else Q(0) for c in range(len(entries))]
                   for r, x in enumerate(entries)])


SHIFT, LOWER = _unit(3, [(0, 1), (1, 2)]), _unit(3, [(1, 0), (2, 1)])


@pytest.mark.parametrize("mats, labels, expected", [
    # diag(0, 0, 1) is not constant on the shift's entries (0, 1) and (1, 2);
    # diag(0, 1, 2) is, and grades the algebra on its own
    ([_diag(0, 1, 2), _diag(0, 0, 1), SHIFT], [(0,), (1,), (2,)], False),
    ([_diag(0, 1, 2), _diag(0, 0, 1), SHIFT, LOWER], [(0,), (1,), (2,)], True),
    # diag(0, 1) is not constant on E00 + E01: in one piece, E00 + E01 would
    # read as E00, already in span{I, diag(0, 1)}
    ([_diag(0, 1), _unit(2, [(0, 0), (0, 1)])], [(), ()], False),
])
def test_grading_drops_a_diagonal_that_breaks_homogeneity(mats, labels, expected):
    m = SuperModule((EVEN,) * len(labels), mats)
    assert _grading(m)[0] == labels
    assert _matches_dense_reference(m) is expected


@pytest.mark.parametrize("pairs, expected", [
    ([(0, 0), (0, 1)], True),    # an idempotent with an even and an odd entry
    ([(0, 1), (0, 2)], False),   # square-zero, one odd and one even entry
])
def test_grading_drops_parity_when_a_generator_mixes_parities(pairs, expected):
    m = SuperModule((EVEN, ODD, EVEN), [_unit(3, pairs), _unit(3, [(2, 2)])])
    labels, moduli = _grading(m)
    assert 2 not in moduli
    assert _matches_dense_reference(m) is expected


def test_grading_of_a_conjugate_keeps_only_parity():
    o = build_osp1(1)
    for m in (adjoint_module(o), induced_trivial(o)):
        c = _random_parity_conjugate(m, random.Random(5))
        # no diagonal coordinate survives the shears, the parity does
        assert _grading(c)[1] == (2,)
        assert set(_acting_algebra(c)[0]) == {(0,), (1,)}
        assert _matches_dense_reference(c) is True


def test_unpaired_piece_is_not_semisimple():
    # diag(1, 0) grades E01 in degree 1, and nothing has degree -1
    m = SuperModule((EVEN, EVEN), [_unit(2, [(0, 0)]), _unit(2, [(0, 1)])])
    pieces, moduli = _acting_algebra(m)
    assert moduli == (0,)
    assert {d: len(part) for d, part in pieces.items()} == {(0,): 2, (1,): 1}
    assert _matches_dense_reference(m) is False


@pytest.mark.parametrize("make", [lambda: induced_trivial(build_osp1(2)),
                                  lambda: tensor(build_sl(2, 1).faithful_rep,
                                                 dual(build_sl(2, 1).faithful_rep))],
                         ids=["induced osp1:2", "defining*dual sl:2:1"])
def test_the_closure_forms_no_product_of_an_unplaced_degree(make, monkeypatch):
    """A product whose degree d + e no position has is zero: it is skipped,
    and every product formed has the degree its factors' degrees sum to."""
    from superkit import reps
    m = make()
    labels, moduli = _grading(m)

    def degree(x):
        r, c = next((r, c) for r, row in x.items() for c in row)
        return tuple((a - b) % q if q else a - b for a, b, q in zip(labels[r], labels[c], moduli))

    placed = {tuple((a - b) % q if q else a - b for a, b, q in zip(x, y, moduli))
              for x in labels for y in labels}
    formed = []
    left_mul = reps._left_mul

    def spy(s, b):
        total = tuple((x + y) % q if q else x + y
                      for x, y, q in zip(degree(s), degree(b), moduli))
        x = left_mul(s, b)
        formed.append((total in placed, not x or degree(x) == total))
        return x

    monkeypatch.setattr(reps, "_left_mul", spy)
    pieces, _ = _acting_algebra(m)
    assert formed and all(ok and right for ok, right in formed)
    assert all(degree(x) == d for d, part in pieces.items() for x in part)
