"""Supercommutative algebras, odd derivations, and the splitting witness."""

import pytest
from fractions import Fraction as Q

from superkit.families import build_gl, build_sl, build_toy
from superkit.fileformat import parse_supercomm, serialize_supercomm
from superkit.linalg import (
    Matrix,
    in_span,
    rational_eigenspaces,
    solve_linear,
    vec_add,
    vec_scale,
    zero_vec,
)
from superkit.supercomm import (
    NonSemisimpleSquare,
    SupercommAlgebra,
    Vanishing,
    catalog_pairs,
    coinvariant_dual_pair,
    exterior_algebra,
    is_nonvanishing,
    poly_quotient_algebra,
    splitting_witness,
    tensor_algebra,
    validate_algebra,
    validate_derivation,
    verify_no_splitting,
)


def d_dxi():
    a = exterior_algebra(1, ["xi"])
    d = Matrix.zeros(2, 2)
    d.data[0][1] = Q(1)
    return a, d


# -- validation -------------------------------------------------------------------

def test_exterior_algebra_valid():
    for k in (1, 2, 3):
        assert validate_algebra(exterior_algebra(k)) == []


def test_tensor_with_torus_valid():
    a = tensor_algebra(poly_quotient_algebra([-1, 0, 1]), exterior_algebra(1))
    assert validate_algebra(a) == []


def test_poly_quotient_multiplication():
    a = poly_quotient_algebra([-1, 0, 1])   # k[x]/(x^2 - 1)
    x = a.basis_vector(1)
    assert a.multiply(x, x) == a.unit


def test_derivation_validation_and_corruption():
    a, d = d_dxi()
    assert validate_derivation(a, d) == []
    bad = d.copy()
    bad.data[0][1] = Q(2)
    bad.data[1][0] = Q(1)   # 1 -> xi is parity-reversing but breaks Leibniz
    issues = validate_derivation(a, bad)
    assert any("leibniz" in s for s in issues)


def test_derivation_parity_check():
    a, d = d_dxi()
    bad = Matrix([[1, 0], [0, 0]])
    assert any("parity" in s for s in validate_derivation(a, bad))


# -- nonvanishing -----------------------------------------------------------------------

def test_nonvanishing_examples():
    a, d = d_dxi()
    assert is_nonvanishing(a, d)
    assert not is_nonvanishing(a, Matrix.zeros(2, 2))
    van_a, van_d = catalog_pairs()["vanishing"]
    assert not is_nonvanishing(van_a, van_d)


# -- splitting witness -------------------------------------------------------------------

def test_witness_exterior_is_xi():
    a, d = d_dxi()
    f = splitting_witness(a, d)
    assert a.describe(f) == "xi"


def test_witness_torus_exterior_is_x_xi():
    a, d = catalog_pairs()["torus-exterior"]
    f = splitting_witness(a, d)
    assert d.matvec(f) == a.unit
    # u(x xi) = x^2 = 1
    idx = list(a.names).index("x*xi")
    expected = zero_vec(a.dim)
    expected[idx] = Q(1)
    assert f == expected


def test_witness_two_odd_pair():
    a, d = catalog_pairs()["two-odd"]
    f = splitting_witness(a, d)
    assert d.matvec(f) == a.unit
    assert all(Q(c) == 0 or a.parity[i] == 1 for i, c in enumerate(f))


def test_witness_vanishing_raises():
    a, d = catalog_pairs()["vanishing"]
    with pytest.raises(Vanishing):
        splitting_witness(a, d)


def nonsemisimple_square_pair():
    a = exterior_algebra(2, ["x1", "x2"])
    # u(x1) = 1 + x1 x2, u(x2) = 1 + x1 x2: h = u^2 is nilpotent nonzero
    d = Matrix.zeros(4, 4)
    d.data[0][1] = Q(1)
    d.data[3][1] = Q(1)
    d.data[0][2] = Q(1)
    d.data[3][2] = Q(1)
    d.data[2][3] = Q(1)
    d.data[1][3] = Q(-1)
    return a, d


def test_witness_nonsemisimple_square_raises():
    a, d = nonsemisimple_square_pair()
    assert validate_derivation(a, d) == []
    h = d.mul(d)
    assert not h.is_zero()
    with pytest.raises(NonSemisimpleSquare,
                       match=r"^u\^2 does not act semisimply with rational spectrum$"):
        splitting_witness(a, d)


def test_witness_computes_the_spectrum_of_u_squared_once(monkeypatch):
    # after the vanishing test, the one split test runs once, on u^2, and
    # gives its rational spectrum, or None when u^2 does not split
    from superkit import supercomm
    calls = []
    real = supercomm._split

    def spy(rows, d):
        calls.append(real(rows, d))
        return calls[-1]

    monkeypatch.setattr(supercomm, "_split", spy)
    for name, (a, d) in witness_cases().items():
        calls.clear()
        result = outcome(splitting_witness, a, d)
        eig = rational_eigenspaces(d.mul(d))
        split = sum(len(space) for _, space in eig) == a.dim
        expected = [[lam for lam, _ in eig] if split else None]
        assert calls == ([] if result[0] is Vanishing else expected), name


def eigenbasis_witness(a, u):
    """The former `splitting_witness`, an oracle: it tests vanishing with
    `is_nonvanishing`, splitting by the dimensions of the rational
    eigenspaces of h = u^2, and projects p to ker h through coordinates in
    an eigenbasis."""
    if not is_nonvanishing(a, u):
        raise Vanishing("the image of the derivation generates a proper ideal")
    h = u.mul(u)
    eig = rational_eigenspaces(h)
    if sum(len(space) for _, space in eig) != a.dim:
        raise NonSemisimpleSquare("u^2 does not act semisimply with rational spectrum")
    cols, pairs = [], []
    for gi in a.even_indices:
        for xi in a.odd_indices:
            cols.append(a.multiply(a.basis_vector(gi), u.column(xi)))
            pairs.append((gi, xi))
    sol = solve_linear(Matrix.from_columns(cols), a.unit)
    if sol is None:
        raise Vanishing("the unit is not a combination of even multiples of derivative images")
    p = zero_vec(a.dim)
    for c, (gi, xi) in zip(sol, pairs):
        p = vec_add(p, vec_scale(c, a.multiply(a.basis_vector(gi), a.basis_vector(xi))))
    basis = [v for _, space in eig for v in space]
    coords = solve_linear(Matrix.from_columns(basis), p)
    p0, t = zero_vec(a.dim), 0
    for lam, space in eig:
        for v in space:
            if lam == 0:
                p0 = vec_add(p0, vec_scale(coords[t], v))
            t += 1
    eta0 = vec_add(u.matvec(p0), vec_scale(Q(-1), a.unit))
    inv, term = list(a.unit), list(a.unit)
    while any(term):
        term = vec_scale(Q(-1), a.multiply(term, eta0))
        inv = vec_add(inv, term)
    return a.multiply(p0, inv)


def outcome(witness, a, u):
    try:
        return witness(a, u)
    except (Vanishing, NonSemisimpleSquare) as exc:
        return type(exc), str(exc)


def witness_cases():
    cases = dict(catalog_pairs())
    for name, g, u in (("gl:1:1", build_gl(1, 1), ["E12", "E21"]),
                       ("sl:2:1", build_sl(2, 1), ["E13"]),
                       ("gl:2:1", build_gl(2, 1), ["E13", "E31"])):
        v = zero_vec(g.dim)
        for nm in u:
            v[g.names.index(nm)] = Q(1)
        cases[f"dual {name}"] = coinvariant_dual_pair(g, v)
    toy = build_toy("toy_odd_semisimple")
    cases["dual toy_odd_semisimple"] = coinvariant_dual_pair(toy, toy.basis_vector(1))
    cases["nonsemisimple square"] = nonsemisimple_square_pair()
    # u = d/dx1 + x1 x2 d/dx2: u^2 is diagonal, 0 on 1, x1 and 1 on x2, x1 x2
    euler = Matrix.zeros(4, 4)
    euler.data[0][1] = euler.data[3][2] = euler.data[2][3] = Q(1)
    cases["diagonal square"] = (exterior_algebra(2, ["x1", "x2"]), euler)
    for name in ("two-odd", "diagonal square"):
        a, d = cases[name]
        cases[f"{name} / 2"] = (a, d.scale(Q(1, 2)))
    cases["zero derivation"] = (exterior_algebra(1, ["xi"]), Matrix.zeros(2, 2))
    cases["purely even"] = (poly_quotient_algebra([-1, 0, 1]), Matrix.zeros(2, 2))
    return cases


@pytest.mark.parametrize("name, case", witness_cases().items())
def test_witness_matches_the_eigenbasis_route(name, case):
    a, u = case
    assert outcome(splitting_witness, a, u) == outcome(eigenbasis_witness, a, u)


def test_square_commutes_with_derivation():
    for name, (a, d) in catalog_pairs().items():
        h = d.mul(d)
        assert h.mul(d) == d.mul(h)


def test_verify_no_splitting():
    a, d = d_dxi()
    assert verify_no_splitting(a, d)
    assert not verify_no_splitting(a, Matrix.zeros(2, 2))
    for name, (alg, der) in catalog_pairs().items():
        if name != "vanishing":
            assert verify_no_splitting(alg, der)


# -- the coinvariant-dual bridge -----------------------------------------------------------

def test_dual_coinvariant_derivations_and_no_splitting():
    cases = []
    g = build_gl(1, 1)
    u = zero_vec(g.dim)
    u[g.names.index("E12")] = Q(1)
    u[g.names.index("E21")] = Q(1)
    cases.append((g, u))
    s = build_sl(2, 1)
    u = zero_vec(s.dim)
    u[s.names.index("E13")] = Q(1)
    cases.append((s, u))
    toy = build_toy("toy_odd_semisimple")
    cases.append((toy, toy.basis_vector(1)))
    for g, u in cases:
        assert g.in_g1ss(u)
        a, d = coinvariant_dual_pair(g, u)
        assert validate_algebra(a) == []
        assert validate_derivation(a, d) == []
        # the unit is in the image: the trivial line does not split off
        assert in_span([d.column(j) for j in range(a.dim)], a.unit) is not None


# -- the integer table against the former dense Fraction code ----------------------

def dense_multiply(a, x, y):
    """The former `SupercommAlgebra.multiply`, an oracle: the dense product
    loop over the Fraction table."""
    out = zero_vec(a.dim)
    for i, xi in enumerate(x):
        if xi == 0:
            continue
        xi = Q(xi)
        for j, yj in enumerate(y):
            if yj == 0:
                continue
            c = xi * Q(yj)
            for k, q in enumerate(a.table[i][j]):
                if q:
                    out[k] += c * q
    return out


def dense_validate_algebra(a):
    """The former `validate_algebra`, an oracle: dense products of basis
    vectors, associativity over every triple."""
    issues = []
    n = a.dim
    for i in range(n):
        for j in range(n):
            for k, q in enumerate(a.table[i][j]):
                if q != 0 and a.parity[k] != (a.parity[i] + a.parity[j]) % 2:
                    issues.append(f"grading: e{i}*e{j} has component at e{k}")
    for i in range(n):
        for j in range(i, n):
            sign = Q(-1) if (a.parity[i] and a.parity[j]) else Q(1)
            if a.table[i][j] != [sign * c for c in a.table[j][i]]:
                issues.append(f"supercommutativity: fails on pair ({i},{j})")
    for i in range(n):
        for j in range(n):
            for k in range(n):
                lhs = dense_multiply(a, a.table[i][j], a.basis_vector(k))
                rhs = dense_multiply(a, a.basis_vector(i), a.table[j][k])
                if lhs != rhs:
                    issues.append(f"associativity: fails at triple ({i},{j},{k})")
    for i in range(n):
        e = a.basis_vector(i)
        if dense_multiply(a, a.unit, e) != e or dense_multiply(a, e, a.unit) != e:
            issues.append(f"unit law: fails on e{i}")
    return issues


def dense_validate_derivation(a, u):
    """The former `validate_derivation`, an oracle, on dense products."""
    issues = []
    n = a.dim
    for r in range(n):
        for c in range(n):
            if u.data[r][c] != 0 and a.parity[r] == a.parity[c]:
                issues.append(f"parity: derivation entry ({r},{c}) is not parity-reversing")
    for i in range(n):
        for j in range(n):
            lhs = u.matvec(a.table[i][j])
            sign = Q(-1) if a.parity[i] else Q(1)
            rhs = vec_add(dense_multiply(a, u.column(i), a.basis_vector(j)),
                          vec_scale(sign, dense_multiply(a, a.basis_vector(i), u.column(j))))
            if lhs != rhs:
                issues.append(f"leibniz: fails on pair ({i},{j})")
    return issues


def dual_of(spec, *names):
    g = {"gl:1:1": lambda: build_gl(1, 1), "sl:2:1": lambda: build_sl(2, 1),
         "gl:2:1": lambda: build_gl(2, 1)}[spec]()
    u = zero_vec(g.dim)
    for nm in names:
        u[g.names.index(nm)] = Q(1)
    return coinvariant_dual_pair(g, u)


def oracle_algebras():
    """name -> (algebra, derivation or None)."""
    out = {f"exterior {k}": (exterior_algebra(k), None) for k in (1, 2, 3, 4)}
    for modulus in ([-1, 0, 1], [0, 0, 1], [2, -3, 0, 1], [Q(1, 2), Q(-5, 3), 1]):
        out[f"poly {modulus}"] = (poly_quotient_algebra(modulus), None)
    out["poly x ext 2"] = (tensor_algebra(poly_quotient_algebra([Q(1, 2), Q(-5, 3), 1]),
                                          exterior_algebra(2)), None)
    out["ext 1 x poly x ext 1"] = (tensor_algebra(
        tensor_algebra(exterior_algebra(1), poly_quotient_algebra([Q(-1, 4), 0, 1])),
        exterior_algebra(1, ["eta"])), None)
    out.update(catalog_pairs())
    out["dual gl:1:1"] = dual_of("gl:1:1", "E12", "E21")
    out["dual sl:2:1"] = dual_of("sl:2:1", "E13")
    out["dual gl:2:1"] = dual_of("gl:2:1", "E13", "E31")
    return out


ORACLE = oracle_algebras()


def random_vector(rng, n):
    return [Q(rng.randint(-5, 5), rng.randint(1, 6)) if rng.random() < 0.6 else Q(0)
            for _ in range(n)]


@pytest.mark.parametrize("name", list(ORACLE))
def test_multiply_matches_the_dense_loop(name):
    import random
    a, _ = ORACLE[name]
    rng = random.Random(name)
    for _ in range(20):
        x, y = random_vector(rng, a.dim), random_vector(rng, a.dim)
        assert a.multiply(x, y) == dense_multiply(a, x, y)
    assert a.multiply(a.unit, a.unit) == a.unit


@pytest.mark.parametrize("name", list(ORACLE))
def test_validation_matches_the_dense_checks(name):
    import random
    a, d = ORACLE[name]
    assert validate_algebra(a) == dense_validate_algebra(a) == []
    rng = random.Random(name)
    # a seeded rational matrix breaks parity and Leibniz in many places
    for u in ([d] if d is not None else []) + [Matrix([random_vector(rng, a.dim)
                                                       for _ in range(a.dim)])]:
        assert validate_derivation(a, u) == dense_validate_derivation(a, u)
    if d is not None:
        assert validate_derivation(a, d) == []


@pytest.mark.parametrize("name, delta", [("two-odd", Q(1)), ("two-odd", Q(-1, 2)),
                                         ("exterior 3", Q(1)), ("two-odd", None),
                                         ("exterior 3", None), ("dual gl:1:1", Q(1)),
                                         ("dual gl:1:1", None)],
                         ids=["delta0", "delta1", "exterior3", "zeroed", "exterior3-zeroed",
                              "dual-gl11", "dual-gl11-zeroed"])
def test_every_table_corruption_matches_the_dense_check(name, delta):
    # delta None zeroes each nonzero entry: then e_i e_j may vanish while
    # e_i (e_j e_k) does not, a triple that skipping on e_i e_j alone misses;
    # on the coinvariant dual most e_i e_j vanish, so most columns are skipped
    a, _ = ORACLE[name]
    n = a.dim
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if delta is None and not a.table[i][j][k]:
                    continue
                table = [[list(v) for v in block] for block in a.table]
                table[i][j][k] += -table[i][j][k] if delta is None else delta
                bad = SupercommAlgebra(a.parity, table, a.unit, a.names)
                issues = validate_algebra(bad)
                assert issues == dense_validate_algebra(bad), (i, j, k)
                assert issues, (i, j, k)


@pytest.mark.parametrize("name", [name for name, (_, d) in ORACLE.items() if d is not None])
def test_span_tests_match_their_definitions(name):
    a, u = ORACLE[name]
    products = [a.multiply(a.basis_vector(k), u.column(j))
                for k in range(a.dim) for j in range(a.dim)]
    assert is_nonvanishing(a, u) == (in_span(products, a.unit) is not None)
    image = [u.column(j) for j in range(a.dim)]
    assert verify_no_splitting(a, u) == (in_span(image, a.unit) is not None)


@pytest.mark.parametrize("delta", [Q(1), Q(-1, 2)])
def test_every_derivation_corruption_matches_the_dense_check(delta):
    a, d = catalog_pairs()["two-odd"]
    for r in range(a.dim):
        for c in range(a.dim):
            bad = d.copy()
            bad.data[r][c] += delta
            # some stay derivations: x1 x2 may be added to u(x1)
            assert validate_derivation(a, bad) == dense_validate_derivation(a, bad), (r, c)


def test_public_constructor_keeps_the_table():
    for name, (a, _) in ORACLE.items():
        b = SupercommAlgebra(a.parity, a.table, a.unit, a.names)
        assert (b.parity, b.table, b.unit, b.names) == (a.parity, a.table, a.unit, a.names)
        assert b.dim == a.dim and b.even_indices == a.even_indices, name
    default = SupercommAlgebra([0], [[[1]]], [1])
    assert default.names == ("e0",) and default.unit == [Q(1)]


def test_no_package_path_builds_the_dense_table():
    a, d = dual_of("gl:2:1", "E13", "E31")
    a2, d2, _ = parse_supercomm(serialize_supercomm(a, d))
    for alg, der in ((a, d), (a2, d2)):
        assert validate_algebra(alg) == [] and validate_derivation(alg, der) == []
        splitting_witness(alg, der)
        is_nonvanishing(alg, der)
        verify_no_splitting(alg, der)
        serialize_supercomm(alg, der)
        assert alg._dense is None


# -- refused inputs -----------------------------------------------------------------

@pytest.mark.parametrize("names", [("E11",), ("E11", "E12")])
def test_dual_pair_refuses_an_element_that_is_not_odd(names):
    g = build_gl(1, 1)
    u = zero_vec(g.dim)
    for nm in names:
        u[g.names.index(nm)] = Q(1)
    with pytest.raises(ValueError, match="^odd_square requires a purely odd element$"):
        coinvariant_dual_pair(g, u)


@pytest.mark.parametrize("length", [3, 5])
def test_dual_pair_refuses_a_vector_of_the_wrong_length(length):
    g = build_gl(1, 1)
    u = [Q(0), Q(1), Q(1), Q(0), Q(0)][:length]
    with pytest.raises(ValueError, match="^coordinate vectors must have length dim$"):
        coinvariant_dual_pair(g, u)


@pytest.mark.parametrize("check", [validate_derivation, splitting_witness,
                                   is_nonvanishing, verify_no_splitting])
@pytest.mark.parametrize("rows, cols", [(3, 3), (5, 5), (4, 3), (3, 4)])
def test_derivation_of_the_wrong_shape_is_refused(check, rows, cols):
    a, d = catalog_pairs()["two-odd"]
    u = Matrix([[d.data[r][c] if r < 4 and c < 4 else Q(0) for c in range(cols)]
                for r in range(rows)])
    with pytest.raises(ValueError, match=r"^the derivation must be a 4x4 matrix$"):
        check(a, u)


def test_a_splitting_run_on_a_table_file_finds_the_unit(tmp_path, capsys):
    from superkit import cli
    g = build_gl(1, 1)
    u = [Q(0)] * g.dim
    for name in ("E12", "E21"):
        u[g.names.index(name)] = Q(1)
    path = tmp_path / "gl11-dual.tab"
    path.write_text(serialize_supercomm(*coinvariant_dual_pair(g, u), name="gl11-dual"))
    assert cli.main(["--json", "witness-splitting", "--table", str(path)]) == 0
    assert '"unit_in_image": true' in capsys.readouterr().out


def test_a_changed_derivation_is_converted_again():
    a, d = catalog_pairs()["two-odd"]
    assert validate_derivation(a, d) == []
    r, c = next((r, c) for r in range(a.dim) for c in range(a.dim) if d.data[r][c])
    d.data[r][c] += 1
    assert validate_derivation(a, d) == dense_validate_derivation(a, d) != []
    d.data[r][c] -= 1
    assert validate_derivation(a, d) == []
    assert verify_no_splitting(a, d) and d.matvec(splitting_witness(a, d)) == a.unit
