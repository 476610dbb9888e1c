"""Coinvariants of the enveloping algebra and the counit criterion.

Both quotients of U(g) by its even part live on the same 2^(dim g1) subset
basis.  Each carries at most a line of invariants; representation theory is
semisimple exactly when the counit is nonzero on it.  For osp(1|2n) that
invariant is the classical product (1 + t_1)(3 + t_2)...((2n-1) + t_n) with
t_i = a_i b_i, whose counit is the double factorial (2n-1)!!.
"""

from superkit import (
    LEFT,
    RIGHT,
    build_gl,
    build_osp1,
    build_toy,
    coinvariant_project,
    djokovic_element,
    ghost_criterion,
    invariants,
    verify_djokovic,
)

print("== invariant lines of the coinvariant modules ==")
for label, g in [
    ("osp(1|2)", build_osp1(1)),
    ("gl(1|1)", build_gl(1, 1)),
    ("toy", build_toy("toy_odd_semisimple")),
]:
    left = invariants(g, LEFT)
    right = invariants(g, RIGHT)
    print(f"{label:10s} dim U/(U g0)^inv = {len(left)}, dim U/(g0 U)^inv = {len(right)}")
    for v in right:
        print(f"           spanning invariant: {v}")

print()
print("== the ghost criterion ==")
for label, g in [
    ("osp(1|2)", build_osp1(1)),
    ("osp(1|4)", build_osp1(2)),
    ("gl(1|1)", build_gl(1, 1)),
    ("toy", build_toy("toy_odd_semisimple")),
]:
    ghost, verdict = ghost_criterion(g)
    print(f"{label:10s} epsilon = {ghost.epsilon_value}  ->  {verdict}")

print()
print("== the classical product element ==")
for n in (1, 2, 3):
    g, v = djokovic_element(n)
    rep = verify_djokovic(n)
    print(f"n = {n}: v = {v if n == 1 else '(expanded, ' + str(len(v.terms)) + ' monomials)'}")
    print(f"       invariant in U/(U g0): {rep.product_invariant}; "
          f"antipode image invariant in U/(g0 U): {rep.antipode_invariant}; "
          f"counit = {rep.epsilon} = (2n-1)!!")
    proj = coinvariant_project(g, v, LEFT)
    line = invariants(g, LEFT)[0]
    print(f"       spans the invariant line: "
          f"{line.scale(proj.counit() / line.counit()).coords == proj.coords}")
