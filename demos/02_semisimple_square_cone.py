"""The cone of odd elements with semisimple square, and the classification.

An odd element u belongs to the cone when [u,u]/2 acts diagonalizably in the
designated faithful representation.  The cone is the obstruction to
semisimple representation theory: it vanishes exactly for products of a
reductive even center and orthosymplectic factors, and the structural scan
decides this without any sampling.
"""

from fractions import Fraction as Q

from superkit import (
    Osp,
    build_gl,
    build_osp1,
    build_product,
    build_sl,
    build_toy,
    classify_simple,
    g1ss_structural_scan,
)
from superkit.linalg import zero_vec

print("== membership samples ==")
g = build_gl(1, 1)
u = zero_vec(g.dim)
u[g.names.index("E12")] = Q(1)
u[g.names.index("E21")] = Q(1)
print(f"gl(1|1), u = E12 + E21: square = {g.describe(g.odd_square(u))}, "
      f"in cone: {g.in_g1ss(u)}")

o = build_osp1(1)
for coeffs in [(1, 0), (1, 1), (2, -3)]:
    u = zero_vec(o.dim)
    u[o.names.index("a1")] = Q(coeffs[0])
    u[o.names.index("b1")] = Q(coeffs[1])
    print(f"osp(1|2), u = {o.describe(u)}: square = {o.describe(o.odd_square(u))}, "
          f"in cone: {o.in_g1ss(u)}  (square is nilpotent)")

print()
print("== the classification procedure ==")
for n in (1, 2, 3):
    out = classify_simple(build_osp1(n))
    assert isinstance(out, Osp)
    print(f"osp(1|{2 * n}) classifies as Osp({out.n}); the basis map is an exact "
          f"bracket isomorphism {out.basis_map.rows}x{out.basis_map.cols}")

s = build_sl(2, 1)
out = classify_simple(s)
print(f"sl(2|1) yields a witness instead: {s.describe(out.u)} "
      f"(odd root vector with square zero)")

print()
print("== the structural scan certifies the zero cone ==")
prod = build_product([build_gl(1, 0), build_osp1(1), build_osp1(2)])
w = g1ss_structural_scan(prod).witness
print(f"torus x osp(1|2) x osp(1|4): witness = {w}  (None means certified zero)")

toy = build_toy("toy_odd_semisimple")
w = g1ss_structural_scan(toy).witness
print(f"toy with [u,u] = 2h: witness = {toy.describe(w)}")
