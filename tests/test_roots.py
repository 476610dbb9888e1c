"""Root decompositions, Cartan search, and the classification procedure."""

import random
import re

import pytest
from fractions import Fraction as Q

from superkit import catalog
from superkit.core import EVEN, ODD, LieSuperalgebra, SuperkitError
from superkit.families import (
    algebra_from_matrices,
    build_gl,
    build_osp1,
    build_product,
    build_sl,
    build_toy,
    parse_family_spec,
)
from superkit.linalg import Matrix, is_zero_vec, rank, solve_linear, span_basis, zero_vec
from superkit.reps import adjoint_module
from superkit.roots import (
    CartanSearchFailed,
    Inconclusive,
    NonSemisimpleCartanAction,
    Osp,
    Witness,
    classify_simple,
    find_cartan,
    g1ss_structural_scan,
    isotropic_combination,
    root_decomposition,
)
from support import (KNOWN_HANGS, REBASED_SPECS, cartanless, fresh, rebased, same_span,
                     shuffled_osp, unit_vec)


def strip_hints(g):
    table = {(i, j): {k: q for k, q in g.bracket_sparse(i, j)}
             for i in range(g.dim) for j in range(g.dim)}
    return LieSuperalgebra(g.parity, table, g.names, g.faithful_rep, None)


# -- root decomposition ------------------------------------------------------------

def test_root_decomposition_osp1():
    g = build_osp1(1)
    datum = root_decomposition(g, [unit_vec(g, "M11")])
    table = {(r.weight, r.parity): len(r.space) for r in datum.roots}
    assert table == {
        ((Q(2),), EVEN): 1,
        ((Q(-2),), EVEN): 1,
        ((Q(0),), EVEN): 1,
        ((Q(1),), ODD): 1,
        ((Q(-1),), ODD): 1,
    }
    # the zero-weight even space contains the Cartan
    zero_even = next(r for r in datum.roots if r.parity == EVEN and r.is_zero_weight)
    from superkit.linalg import in_span
    assert in_span(zero_even.space, unit_vec(g, "M11")) is not None


def test_root_decomposition_gl11():
    g = build_gl(1, 1)
    cartan = [unit_vec(g, "E11"), unit_vec(g, "E22")]
    datum = root_decomposition(g, cartan)
    odd = {r.weight: len(r.space) for r in datum.odd_roots()}
    assert odd == {(Q(1), Q(-1)): 1, (Q(-1), Q(1)): 1}
    zero_even = next(r for r in datum.roots if r.parity == EVEN and r.is_zero_weight)
    assert len(zero_even.space) == 2


def test_root_decomposition_partitions_dimension():
    for g, cartan in [
        (build_osp1(2), None),
        (build_sl(2, 1), None),
        (build_gl(2, 1), None),
    ]:
        cartan = [g.basis_vector(i) for i in g.cartan]
        datum = root_decomposition(g, cartan)
        assert sum(len(r.space) for r in datum.roots) == g.dim


def test_root_decomposition_abelian():
    g = LieSuperalgebra([EVEN, EVEN], {})
    datum = root_decomposition(g, [g.basis_vector(0), g.basis_vector(1)])
    assert len(datum.roots) == 1 and datum.roots[0].is_zero_weight


def test_root_decomposition_rejects_nilpotent_cartan():
    g = build_osp1(1)
    with pytest.raises(NonSemisimpleCartanAction):
        root_decomposition(g, [unit_vec(g, "B11")])


def test_root_decomposition_rejects_irrational_spectrum():
    g = build_osp1(1)
    # B11 - C11 acts with eigenvalues 0, +-2i on the even part
    x = [a - b for a, b in zip(unit_vec(g, "B11"), unit_vec(g, "C11"))]
    with pytest.raises(NonSemisimpleCartanAction):
        root_decomposition(g, [x])


def test_osp_odd_roots_are_multiplicity_free_with_long_doubles():
    for n in (1, 2, 3):
        g = build_osp1(n)
        cartan = [g.basis_vector(i) for i in g.cartan]
        datum = root_decomposition(g, cartan)
        even_norms = {
            r.weight: sum(w * w for w in r.weight)
            for r in datum.even_roots() if not r.is_zero_weight
        }
        longest = max(even_norms.values())
        for r in datum.odd_roots():
            assert len(r.space) == 1
            doubled = tuple(2 * w for w in r.weight)
            assert doubled in even_norms
            assert even_norms[doubled] == longest


# -- find_cartan ----------------------------------------------------------------------

def test_find_cartan_gl11():
    c = find_cartan(strip_hints(build_gl(1, 1)))
    assert len(c) == 2


def test_find_cartan_osp1_dimension():
    c = find_cartan(strip_hints(build_osp1(1)))
    assert len(c) == 1


def test_find_cartan_zero_algebra():
    g = LieSuperalgebra([], {})
    assert find_cartan(g) == []


def test_find_cartan_fails_on_nilpotent_even_part():
    # x even with [x, u] = v: no ad-semisimple regular even element exists
    table = {(0, 1): {2: Q(1)}, (1, 0): {2: Q(-1)}}
    g = LieSuperalgebra([EVEN, ODD, ODD], table, ["x", "u", "v"])
    with pytest.raises(CartanSearchFailed):
        find_cartan(g)


@pytest.mark.parametrize("spec", ["osp1:3", "gl:2:2", "product:osp1:1,osp1:2"])
def test_find_cartan_solves_no_dense_system(monkeypatch, spec):
    # the toral family is tested by one integer Echelon, never by a dense
    # Fraction solve
    from superkit import linalg
    g = cartanless(spec)
    expected = find_cartan(cartanless(spec))

    def refuse(*args, **kwargs):
        raise AssertionError("dense Fraction solve in the Cartan search")

    monkeypatch.setattr(linalg.Matrix, "from_columns", refuse)
    monkeypatch.setattr(linalg, "solve_linear", refuse)
    assert find_cartan(g) == expected


# -- the classification procedure --------------------------------------------------------

def assert_intertwines(g, out):
    """`out` is Osp(n) with an invertible basis map phi from g onto
    build_osp1(n) and phi [e_i, e_j] = [phi e_i, phi e_j] on every pair."""
    assert isinstance(out, Osp)
    fam = build_osp1(out.n)
    phi = out.basis_map
    assert (phi.rows, phi.cols) == (fam.dim, g.dim) and rank(phi) == g.dim
    for i in range(g.dim):
        for j in range(g.dim):
            assert phi.matvec(g.bracket_basis(i, j)) == fam.bracket(
                phi.column(i), phi.column(j))


def test_classify_osp_families():
    for n in (1, 2):
        g = build_osp1(n)
        out = classify_simple(g)
        assert isinstance(out, Osp) and out.n == n
        assert_intertwines(g, out)


def test_classify_sl21_returns_square_zero_witness():
    s = build_sl(2, 1)
    out = classify_simple(s)
    assert isinstance(out, Witness)
    assert not is_zero_vec(out.u)
    assert s.in_g1ss(out.u)
    assert is_zero_vec(s.odd_square(out.u))


@pytest.mark.parametrize("n,seed", [(1, 17), (1, 3), (2, 17), (2, 99), (3, 5)])
def test_classify_handles_shuffled_presentation(n, seed):
    # no Cartan hint: the deterministic search must cope with a permuted,
    # rescaled basis, and the returned map must intertwine exactly
    shuffled = shuffled_osp(n, seed)
    assert shuffled.validate() == []
    out = classify_simple(shuffled)
    assert isinstance(out, Osp) and out.n == n
    assert_intertwines(shuffled, out)


def test_classify_gl11_still_finds_witness():
    # precondition (simplicity) violated, but the odd-root walk exhibits a
    # certified witness anyway
    out = classify_simple(build_gl(1, 1))
    assert isinstance(out, Witness)
    assert build_gl(1, 1).in_g1ss(out.u)


# -- isotropic vectors ----------------------------------------------------------------------

def doubled_toy(sign):
    # h even; u1, u2 odd; [u1,u1] = 2h, [u2,u2] = sign*2h, [u1,u2] = 0
    table = {
        (1, 1): {0: Q(2)},
        (2, 2): {0: Q(2 * sign)},
    }
    return LieSuperalgebra([EVEN, ODD, ODD], table, ["h", "u1", "u2"])


def test_isotropic_combination_hyperbolic():
    g = doubled_toy(-1)   # s^2 - t^2 = 0 has the rational point (1, 1)
    assert g.validate() == []
    space = [g.basis_vector(1), g.basis_vector(2)]
    v = isotropic_combination(g, space)
    assert v is not None
    assert is_zero_vec(g.bracket(v, v))


def test_isotropic_combination_definite_has_no_rational_point():
    g = doubled_toy(1)    # s^2 + t^2 = 0 only at 0
    space = [g.basis_vector(1), g.basis_vector(2)]
    assert isotropic_combination(g, space) is None


# -- every refusal of the osp certificate -------------------------------------------

def chain_algebra(slopes, with_h=True):
    """One block C^{2|1} (v0, v2 even, v1 odd) per slope s, with u_b: v0 ->
    v1 -> v2 on block b and h = diag(0, s, 2s) on it: the span of h, the
    x_b = u_b^2 and the u_b, with Cartan h (or of the x_b and u_b, with
    Cartan x_0, without h).  Each u_b has weight s and a nilpotent square."""
    d = 3 * len(slopes)

    def mat(entries):
        m = Matrix.zeros(d, d)
        for r, c, a in entries:
            m.data[r][c] = Q(a)
        return m

    blocks = range(len(slopes))
    h = [mat([(3 * b + k, 3 * b + k, k * s) for b, s in enumerate(slopes) for k in (1, 2)])]
    squares = [mat([(3 * b + 2, 3 * b, 1)]) for b in blocks]
    us = [mat([(3 * b + 1, 3 * b, 1), (3 * b + 2, 3 * b + 1, 1)]) for b in blocks]
    evens = (h if with_h else []) + squares
    names = ["h"] * with_h + [f"x{b}" for b in blocks] + [f"u{b}" for b in blocks]
    return algebra_from_matrices(evens + us, [EVEN] * len(evens) + [ODD] * len(us),
                                 [EVEN, ODD, EVEN] * len(slopes), names, cartan=[0])


@pytest.mark.parametrize("make,reason", [
    (lambda: chain_algebra([1], with_h=False),
     "zero-weight odd vector whose square is not semisimple"),
    (lambda: chain_algebra([1, 1]),
     "higher-dimensional odd root space with no rational square-zero combination"),
    (lambda: chain_algebra([1]), "odd-dimensional odd part cannot be symplectic"),
    (lambda: build_product([build_gl(1, 0), build_osp1(1)]),
     "even part has dimension 4, expected 3"),
    (lambda: chain_algebra([1, -1]),
     "the squared bracket map on the odd part is not onto the even part"),
], ids=["zero-weight", "root-space-dim-2", "odd-dim", "even-dim", "not-onto"])
def test_classify_simple_refusals_on_valid_algebras(make, reason):
    g = make()
    assert g.validate() == []
    assert classify_simple(g) == Inconclusive(reason)


def odd_pair_algebra(actions, even_brackets=()):
    """Basis x1, y, x2 even and u1, u2 odd with [u1,u1] = x1, [u1,u2] = y,
    [u2,u2] = x2.  `actions` maps an even index to the 2x2 matrix of its
    bracket with the odd part (columns: images of u1, u2), and
    `even_brackets` lists ((a, b), {k: c}) for [e_a, e_b]; the other even
    brackets vanish.  Not a Lie superalgebra unless the actions and the even
    brackets fit together.  The adjoint module is the designated rep: the
    map check accepts it only on a Lie superalgebra with zero center."""
    table = {(3, 3): {0: Q(1)}, (3, 4): {1: Q(1)}, (4, 3): {1: Q(1)}, (4, 4): {2: Q(1)}}
    for x, m in actions.items():
        for c in range(2):
            col = {3 + r: Q(m[r][c]) for r in range(2) if m[r][c]}
            table[(x, 3 + c)] = col
            table[(3 + c, x)] = {k: -v for k, v in col.items()}
    for (a, b), col in even_brackets:
        table[(a, b)] = {k: Q(v) for k, v in col.items()}
        table[(b, a)] = {k: -Q(v) for k, v in col.items()}
    g = LieSuperalgebra([EVEN] * 3 + [ODD] * 2, table, ["x1", "y", "x2", "u1", "u2"])
    g.faithful_rep = adjoint_module(g)
    return g


# osp(1|2) in this presentation: beta(u1, u2) = 1, and x -> ad x on the odd
# part is w -> beta(u, w) v + beta(v, w) u for x = [u, v]; y acts diagonally
_OSP_ACTIONS = {0: [[0, 2], [0, 0]], 1: [[-1, 0], [0, 1]], 2: [[0, 0], [-2, 0]]}
_SL2 = [((0, 2), {1: 4}), ((1, 0), {0: -2}), ((1, 2), {2: 2})]


_NO_PAIRING = "the odd roots do not pair off by opposite weights with a nonzero form"
_LAWLESS = "the faithful representation is refused: representation law"


@pytest.mark.parametrize("actions,even_brackets,cartan,reason", [
    # [[u2, u2], u1] is 0 instead of -2 u2, so the identity fails at (u1, u2, u2)
    ({0: [[2, 0], [0, 0]], 1: [[0, 0], [0, 0]], 2: [[0, 0], [0, 2]]}, (), [Q(1, 2), 0, Q(-1, 2)],
     _NO_PAIRING),
    # the identity holds for the symmetric form beta(u_p, u_r) = delta_pr
    ({0: [[2, 0], [0, 0]], 1: [[0, 1], [1, 0]], 2: [[0, 0], [0, 2]]}, (), [Q(1, 2), 0, Q(-1, 2)],
     _NO_PAIRING),
    # y acts by diag(1, 2): the odd weights 1 and 2 have no opposites
    ({1: [[1, 0], [0, 2]]}, (), [0, 1, 0], _NO_PAIRING),
    # osp(1|2)'s actions but x1 acts by 0: [[u1, u1], u2] = 0, a zero beta
    ({**_OSP_ACTIONS, 0: [[0, 0], [0, 0]]}, _SL2, [0, 1, 0], _NO_PAIRING),
    # osp(1|2)'s odd brackets with an abelian even part: the exact check
    # refuses the table, as its adjoint module breaks the representation law
    (_OSP_ACTIONS, (), [0, 1, 0], _LAWLESS),
    (_OSP_ACTIONS, _SL2, [0, 1, 0], None),
], ids=["not-symplectic-type", "not-alternating", "no-opposite", "zero-beta",
        "not-intertwined", "osp(1|2)"])
def test_certify_osp_refusals_on_tables_that_break_jacobi(actions, even_brackets, cartan, reason):
    """On a valid table the pairing cannot fail (see `roots._certify_osp`);
    on tables that break the Jacobi identity the pairing or the exact check
    refuses, on the odd roots of the table's own root decomposition.  The
    exact check needs an accepted rep, so there it refuses with a
    SuperkitError."""
    from superkit.roots import _certify_osp
    g = odd_pair_algebra(actions, even_brackets)
    assert (g.validate() == []) == (reason is None)
    odd_roots = root_decomposition(g, [cartan + [0, 0]]).odd_roots()
    assert [len(r.space) for r in odd_roots] == [1, 1]
    if reason is None:
        assert_intertwines(g, _certify_osp(g, odd_roots))
    elif reason == _LAWLESS:
        with pytest.raises(SuperkitError, match="^" + re.escape(reason)):
            _certify_osp(g, odd_roots)
    else:
        assert _certify_osp(g, odd_roots) == Inconclusive(reason)



def test_certify_osp_refuses_swapped_partners(monkeypatch):
    """The pairing only builds the map: with two partners swapped the odd
    map is still a bijection, and the exact intertwining check refuses."""
    from superkit import roots
    pairing = roots._opposite_pairs

    def swapped(*args):
        (p, q, a), (r, s, b), *rest = pairing(*args)
        return [(p, s, a), (r, q, b), *rest]

    g = build_osp1(2)
    odd_roots = g._root_datum().odd_roots()
    assert isinstance(roots._certify_osp(g, odd_roots), Osp)
    monkeypatch.setattr(roots, "_opposite_pairs", swapped)
    assert roots._certify_osp(g, odd_roots) == Inconclusive(
        "basis map construction failed to intertwine brackets")


# -- the intertwining check: the odd rows, under the rep's certificate ---------------

def uncertified(g):
    """g with its table and rep, but no certificate of the rep."""
    return LieSuperalgebra._of_table(g.parity, g._table, g._den, g.names, g.faithful_rep,
                                     g.cartan)


def count_intertwining_pairs(monkeypatch):
    """The number of pairs each `roots._intertwines` call visits, in order."""
    from superkit import roots
    counts = []
    pairs = roots._intertwining_pairs

    def counting(g):
        counts.append(0)
        for pair in pairs(g):
            counts[-1] += 1
            yield pair

    monkeypatch.setattr(roots, "_intertwining_pairs", counting)
    return counts


@pytest.mark.parametrize("n", [1, 2, 3])
def test_a_certified_map_is_checked_on_the_pairs_touching_an_odd_row(monkeypatch, n):
    from superkit import reps
    from superkit.roots import _certify_osp
    counts = count_intertwining_pairs(monkeypatch)
    g = fresh(f"osp1:{n}")
    assert g._rep_certificate() is True
    out = classify_simple(g)
    odd, full = 2 * n, g.dim * (g.dim + 1) // 2
    # |odd| dim - C(|odd|, 2) pairs touch an odd row: O(n dim), not O(dim^2)
    assert counts == [odd * g.dim - odd * (odd - 1) // 2] and counts[0] < full
    # the factor of the scan inherits the certificate, so its check is as short
    assert g1ss_structural_scan(g).factors == [{"factor": f"Osp({n})", "dim": g.dim}]
    assert counts[1:] == counts[:1]
    # without the certificate the rep is checked once, and then the same
    # pairs are, to the same map
    calls = []
    real = reps.validate_module
    monkeypatch.setattr(reps, "validate_module", lambda g, m: calls.append(m) or real(g, m))
    h = uncertified(g)
    assert h._rep_certificate() is False
    assert _certify_osp(h, h._root_datum().odd_roots()) == out
    assert calls == [h.faithful_rep] and h._rep_certificate() is True
    assert counts[2:] == counts[:1]
    assert_intertwines(g, out)


@pytest.mark.parametrize("make", [
    lambda: fresh("osp1:1"), lambda: fresh("osp1:2"), lambda: shuffled_osp(2, 99),
], ids=["osp1:1", "osp1:2", "shuffled"])
def test_every_corrupted_basis_map_is_refused_on_both_paths(monkeypatch, make):
    # a certified g, and the same g whose rep is certified by the check itself
    from math import lcm
    from superkit import roots
    from superkit.families import osp1_defining
    g = make()
    g._lawful_rep()
    assert g._rep_certificate() is True
    paths = (g, uncertified(g))
    out = roots._certify_osp(g, g._root_datum().odd_roots())
    fam = osp1_defining(out.n)[0]
    # phi e_i = images[i] / lc, over one common denominator
    columns = [out.basis_map.column(i) for i in range(g.dim)]
    lc = lcm(*(x.denominator for col in columns for x in col))
    images = [{t: int(x * lc) for t, x in enumerate(col) if x} for col in columns]
    for h in paths:
        assert roots._intertwines(h, fam, [sorted(im.items()) for im in images], lc)
    # one coordinate of one column moved by 1
    for i in range(g.dim):
        for t in range(out.basis_map.rows):
            bad = [dict(im) for im in images]
            bad[i][t] = bad[i].get(t, 0) + lc
            bad[i] = {k: x for k, x in bad[i].items() if x}
            for h in paths:
                assert not roots._intertwines(h, fam, [sorted(im.items()) for im in bad], lc)
    # one pair's beta negated: the odd map is no longer a beta-isometry
    pairing = roots._opposite_pairs
    for k in range(out.n):
        def negated(*args, k=k):
            pairs = pairing(*args)
            p, r, beta = pairs[k]
            return pairs[:k] + [(p, r, -beta)] + pairs[k + 1:]

        monkeypatch.setattr(roots, "_opposite_pairs", negated)
        for h in paths:
            assert roots._certify_osp(h, h._root_datum().odd_roots()) == Inconclusive(
                "basis map construction failed to intertwine brackets")


def test_basis_maps_match_the_recorded_isomorphisms():
    """`classify_simple`'s basis maps, recorded in
    `tests/data/osp_basis_maps.json` as rows of Fractions, for family specs.
    A file of osp1:2, osp1:3 or osp1:4 without its `cartan` line (whose
    Cartan is searched for) must give its family's map: the search finds
    the family's Cartan.  The isomorphism is a certificate the CLI never
    prints; refactors of the classification must leave it unchanged."""
    import json
    from pathlib import Path
    golden = json.loads((Path(__file__).parent / "data" / "osp_basis_maps.json").read_text())
    assert len(golden) == 4
    for spec, expected in golden.items():
        algebras = [parse_family_spec(spec)]
        if spec in ("osp1:2", "osp1:3", "osp1:4"):
            algebras.append(cartanless(spec))
        for g in algebras:
            out = classify_simple(g)
            assert isinstance(out, Osp) and out.n == expected["n"]
            assert [" ".join(map(str, row)) for row in out.basis_map.data] == expected["basis_map"]


# -- rebased presentations -----------------------------------------------------------------

@pytest.mark.parametrize("spec,seed", [
    pytest.param(spec, seed, marks=[pytest.mark.skip(reason="known hang, ROADMAP 1(a)")]
                 if (spec, seed) in KNOWN_HANGS else [])
    for spec in REBASED_SPECS
    for seed in range(8)
])
def test_rebased_basis_keeps_the_verdict(spec, seed):
    """A width-1 rebasing gets the standard basis's verdict and factor list."""
    try:
        g = rebased(spec, seed, 1)
    except ValueError:
        pytest.skip("the rebased matrices are dependent")
    report, standard = g1ss_structural_scan(g), g1ss_structural_scan(parse_family_spec(spec))
    assert (report.witness is None, report.factors) == (standard.witness is None, standard.factors)


@pytest.mark.parametrize("seed", range(8))
def test_width_2_rebasings_of_osp_1_4_end_in_osp_2_or_a_refusal(seed):
    """Width-2 rebasings of osp(1|4) give the Cartan search's split test
    minimal polynomials of degree up to 13 with coefficients of up to a few
    hundred bits; each draw ends, either as Osp(2) or by refusing."""
    g = rebased("osp1:2", seed, 2)
    try:
        report = g1ss_structural_scan(g)
    except CartanSearchFailed:
        return
    assert (report.witness, report.factors) == (None, [{"factor": "Osp(2)", "dim": 14}])


def test_certificates_beyond_unit_betas_match_the_recorded_ones():
    """`classify_simple`'s basis maps on presentations whose betas are not
    +-1 (shuffled and width-1 rebased osp(1|4), osp(1|6)), and its witnesses
    on width-1 rebased sl(2|1) and gl(1|1), recorded in
    `tests/data/osp_certificates.json` as strings of Fractions."""
    import json
    from pathlib import Path
    golden = json.loads((Path(__file__).parent / "data" / "osp_certificates.json").read_text())
    assert len(golden) == 26
    build = {"shuffled_osp": shuffled_osp, "rebased": rebased}
    for case in golden:
        out = classify_simple(build[case["algebra"]](*case["args"]))
        if "witness" in case:
            assert isinstance(out, Witness) and [str(c) for c in out.u] == case["witness"]
        else:
            assert isinstance(out, Osp) and out.n == case["n"]
            assert [" ".join(map(str, row)) for row in out.basis_map.data] == case["basis_map"]


# -- structural scan ---------------------------------------------------------------------------

def test_scan_witnesses():
    g = build_gl(1, 1)
    w = g1ss_structural_scan(g).witness
    assert w is not None and g.in_g1ss(w) and not is_zero_vec(w)
    s = build_sl(2, 1)
    w = g1ss_structural_scan(s).witness
    assert w is not None and s.in_g1ss(w)
    toy = build_toy("toy_odd_semisimple")
    w = g1ss_structural_scan(toy).witness
    assert w is not None and toy.in_g1ss(w)


def test_scan_certifies_zero_cone_for_products():
    g = build_product([build_gl(1, 0), build_osp1(1), build_osp1(2)])
    assert g1ss_structural_scan(g).witness is None
    assert g1ss_structural_scan(build_osp1(1)).witness is None


def test_scan_finds_odd_central_direction():
    g = build_product([build_toy("toy_odd_nilpotent"), build_osp1(1)])
    w = g1ss_structural_scan(g).witness
    assert w is not None
    assert g.in_g1ss(w)


def test_scan_propagates_structure_errors():
    table = {(0, 1): {2: Q(1)}, (1, 0): {2: Q(-1)}}
    g = LieSuperalgebra([EVEN, ODD, ODD], table, ["x", "u", "v"])
    with pytest.raises(SuperkitError):
        g1ss_structural_scan(g)


def test_scan_agrees_with_random_sampling():
    """Sampling is a soundness spot-check of the structural decision, not the
    decision procedure: where the scan certifies the zero cone, 10,000 random
    odd samples find no member either; where it returns a witness, sampling
    finds members too."""
    rng = random.Random(5)
    catalog = [
        (build_osp1(1), True),
        (build_product([build_osp1(1), build_osp1(1)]), True),
        (build_gl(1, 1), False),
        (build_toy("toy_odd_semisimple"), False),
    ]
    for g, expect_none in catalog:
        scan = g1ss_structural_scan(g).witness
        assert (scan is None) == expect_none
        found = None
        for _ in range(10_000):
            u = zero_vec(g.dim)
            for i in g.odd_indices:
                u[i] = Q(rng.randint(-4, 4))
            if is_zero_vec(u):
                continue
            if g.in_g1ss(u):
                found = u
                break
        assert (found is None) == (scan is None)


def hyperbolic_toy():
    # h even; u1, u2 odd; [u1,u1] = 2h, [u2,u2] = -2h, with h nilpotent in a
    # faithful 2|2-dimensional representation: the basis vectors are not in
    # the cone, but u1 + u2 squares to zero.  Every weight is zero.
    from superkit.reps import SuperModule

    def mat(entries):
        m = Matrix.zeros(4, 4)
        for (r, c), a in entries.items():
            m.data[r][c] = a
        return m

    # on v0, v1 | w0, w1: F v0 = w0, F w1 = v1, H v0 = w1, H w0 = v1, so
    # FH + HF = 2X with X v0 = v1; h, u1, u2 act as X/2, (F+H)/2, (F-H)/2
    x = mat({(1, 0): Q(1, 2)})
    u1 = mat({(2, 0): Q(1, 2), (1, 3): Q(1, 2), (3, 0): Q(1, 2), (1, 2): Q(1, 2)})
    u2 = mat({(2, 0): Q(1, 2), (1, 3): Q(1, 2), (3, 0): Q(-1, 2), (1, 2): Q(-1, 2)})
    rep = SuperModule(parity=(EVEN, EVEN, ODD, ODD), action=[x, u1, u2])
    table = {(1, 1): {0: Q(2)}, (2, 2): {0: Q(-2)}}
    return LieSuperalgebra([EVEN, ODD, ODD], table, ["h", "u1", "u2"], faithful_rep=rep)


def test_classify_simple_tries_isotropic_combination_at_zero_weight():
    g = hyperbolic_toy()
    assert g.validate() == []
    odd = g._root_datum().odd_roots()
    assert len(odd) == 1 and odd[0].is_zero_weight and len(odd[0].space) == 2
    assert not any(g.in_g1ss(u) for u in odd[0].space)
    out = classify_simple(g)
    assert isinstance(out, Witness)
    assert not is_zero_vec(out.u) and is_zero_vec(g.odd_square(out.u))
    assert g.in_g1ss(out.u)


@pytest.mark.parametrize("make", [
    lambda: parse_family_spec("product:osp1:1,osp1:2"),
    lambda: parse_family_spec("product:gl:1:0,osp1:1,osp1:2"),
    lambda: parse_family_spec("product:osp1:1,osp1:1,osp1:1"),
    lambda: cartanless("product:osp1:1,osp1:2"),
], ids=["product", "product-with-center", "product-of-three", "product-without-cartan"])
def test_factors_inherit_the_odd_roots_of_a_fresh_decomposition(monkeypatch, make):
    from superkit import roots
    g = make()
    decompositions, subs, outcomes = [], [], []
    decompose, certify = LieSuperalgebra.direct_sum_decompose, roots._certify_osp

    def spy_decompose(self):
        decompositions.append(decompose(self))
        return decompositions[-1]

    def spy_certify(sub, odd_roots):
        subs.append(sub)
        outcomes.append(certify(sub, odd_roots))
        return outcomes[-1]

    monkeypatch.setattr(LieSuperalgebra, "direct_sum_decompose", spy_decompose)
    monkeypatch.setattr(roots, "_certify_osp", spy_certify)
    assert g1ss_structural_scan(g).witness is None
    (dec,) = decompositions
    assert [sub.dim for sub in subs] == [len(f) for f in dec.ideals]
    # each factor's basis map is an isomorphism onto its family
    for sub, out in zip(subs, outcomes):
        assert_intertwines(sub, out)
    # the oracle: project g's Cartan onto each factor by a fresh solve and
    # decompose the factor again
    full = Matrix.from_columns(dec.center + [v for f in dec.ideals for v in f])
    coords = [solve_linear(full, t) for t in g._root_datum().cartan]
    start = len(dec.center)
    for f, sub in zip(dec.ideals, subs):
        projected = span_basis([c[start:start + len(f)] for c in coords])
        start += len(f)
        fresh = root_decomposition(sub, projected).odd_roots()
        inherited = sub._root_datum().odd_roots()
        assert len(inherited) == len(fresh)
        for r in inherited:
            (match,) = [s for s in fresh if same_span(r.space, s.space)]
            assert len(r.space) == len(match.space)
            assert r.is_zero_weight == match.is_zero_weight
        # weight t is the eigenvalue of inherited Cartan element t
        cartan = sub._root_datum().cartan
        for r in sub._root_datum().roots:
            for u in r.space:
                for t, w in zip(cartan, r.weight):
                    assert sub.bracket(t, u) == [w * a for a in u]


# -- the decomposition's factor tables against g's own brackets --------------------

# every Tier-1 entry with an orthosymplectic factor
_WITH_OSP_FACTORS = [e.spec for e in catalog.entries(cost=catalog.TIER1)
                 if e.classify != catalog.WITNESS and any(f.startswith("Osp") for f in e.classify)]


@pytest.mark.parametrize("make", [
    *[lambda s=s: parse_family_spec(s) for s in _WITH_OSP_FACTORS],
    *[lambda s=s: cartanless(s) for s in _WITH_OSP_FACTORS],
    lambda: shuffled_osp(2, 99),
    lambda: rebased("osp1:2", 3, 1),
    lambda: rebased("product:osp1:1,osp1:1", 2, 1),
], ids=_WITH_OSP_FACTORS + [f"{s}-without-cartan" for s in _WITH_OSP_FACTORS]
   + ["shuffled", "rebased", "rebased-product"])
def test_factor_tables_equal_restricted_subalgebra(make):
    # each factor is restricted_subalgebra of its basis; the oracle is g
    # itself: each factor bracket, mapped back through the basis, is the
    # bracket in g of the basis vectors, and each basis vector acts in the
    # factor's rep as it does in g's
    g = make()
    dec = g.direct_sum_decompose()
    assert dec.subalgebras
    for basis, sub in zip(dec.ideals, dec.subalgebras):
        assert sub.dim == len(basis)
        full = Matrix.from_columns(basis)
        for a in range(sub.dim):
            for b in range(sub.dim):
                assert full.matvec(sub.bracket_basis(a, b)) == g.bracket(basis[a], basis[b])
        for t, v in enumerate(basis):
            assert sub.faithful_rep.action[t] == g.element_matrix(v)
        # the factor table read from the decomposition's own products is the
        # one the public routine solves for, pair by pair, on the same basis
        # (the rep rows are over the denominator the basis comes over, so
        # they are compared as Fractions)
        ref = g.restricted_subalgebra(basis)
        assert (sub._table, sub._den) == (ref._table, ref._den)
        assert sub.faithful_rep.action == ref.faithful_rep.action
        assert sub._rep_certificate() == ref._rep_certificate()


def test_restricted_subalgebra_matches_every_ordered_pair():
    # on a parity-preserving change of basis, the pairs b < a, which come
    # from a < b by super-antisymmetry, still give [v_a, v_b] in g
    g = build_osp1(2)
    rng = random.Random(5)
    basis = []
    while len(span_basis(basis)) < g.dim:
        basis = []
        for i in range(g.dim):
            v = g.basis_vector(i)
            same = [j for j in range(g.dim) if j != i and g.parity[j] == g.parity[i]]
            for j in rng.sample(same, 2):
                v[j] = Q(rng.randint(-2, 2))
            basis.append(v)
    sub = g.restricted_subalgebra(basis)
    assert sub.validate() == []
    full = Matrix.from_columns(basis)
    for a in range(g.dim):
        for b in range(g.dim):
            assert full.matvec(sub.bracket_basis(a, b)) == g.bracket(basis[a], basis[b])


# -- spectra on the integer adjoint rows ------------------------------------------

def _random_even(g, rng):
    ev = g.even_indices
    x = [Q(0)] * g.dim
    for i in rng.sample(ev, rng.randint(1, min(3, len(ev)))):
        x[i] = Q(rng.randint(-3, 3), rng.choice([1, 1, 2, 3]))
    return x


@pytest.mark.parametrize("make", [
    lambda: build_gl(2, 2), lambda: build_sl(3, 1), lambda: build_osp1(3),
    lambda: shuffled_osp(2, 99),
], ids=["gl:2:2", "sl:3:1", "osp1:3", "shuffled"])
def test_integer_spectra_match_the_matrix_functions(make):
    from superkit.linalg import (
        _diagonal,
        _eigenspace,
        _sparse_integer_rows,
        _split,
        fraction_vector,
        rational_eigenspaces,
        splits_semisimply_over_q,
    )
    from superkit.roots import _splits
    g = make()
    rng = random.Random(7)
    elements = [_random_even(g, rng) for _ in range(40)]
    # Cartan elements and their sums act diagonally on a root basis
    if g.cartan:
        elements += [g.basis_vector(i) for i in g.cartan]
        elements.append([sum(c) for c in zip(*(g.basis_vector(i) for i in g.cartan))])
    split = diagonal = 0
    for x in elements:
        # the integer rows of d ad(x), with d = L D for x = X / L
        (xs,), lx = _sparse_integer_rows((x,))
        rows, d = g._adjoint_module()._combine(xs), lx * g._den
        m = g.ad_matrix(x)
        splits, eig = splits_semisimply_over_q(m), rational_eigenspaces(m)
        lams = _split(rows, d)
        assert (lams is not None) == _splits(g, xs, d) == splits
        assert lams is None or lams == [lam for lam, _ in eig]
        assert [(lam, [fraction_vector(k.items(), g.dim, den) for k in ks])
                for lam, _ in eig for ks, den in [_eigenspace(rows, d, lam)]] == eig
        # on a diagonal M, `roots._split_space` reads the eigenspaces off the
        # diagonal: the unit vectors at the entries equal to lam
        diag = _diagonal(rows)
        if diag is not None:
            read_off = {}
            for i, a in enumerate(diag):
                read_off.setdefault(Q(a, d), []).append([Q(int(k == i)) for k in range(len(diag))])
            assert sorted(read_off.items()) == eig
        split += splits
        diagonal += diag is not None
    assert 0 < split < len(elements)
    assert diagonal >= (len(g.cartan) + 1 if g.cartan else 0)
