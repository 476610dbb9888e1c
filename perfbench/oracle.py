"""Checks that share no code with superkit's linear algebra.

`square_is_semisimple` decides cone membership from scratch: in a
representation rho, [u, u]/2 acts as rho(u)^2, and a matrix A is semisimple
(diagonalizable over an algebraic closure) exactly when the squarefree part
of its characteristic polynomial vanishes at A.  Everything runs on integers
after clearing denominators, so it does not touch `superkit.linalg`.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm


def _int_square(rows: list[list[Fraction]]) -> list[list[int]]:
    """rho(u)^2 scaled to an integer matrix (scaling keeps semisimplicity)."""
    den = 1
    for row in rows:
        for x in row:
            den = lcm(den, x.denominator)
    a = [[int(x * den) for x in row] for row in rows]
    n = len(a)
    return [[sum(a[i][k] * a[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)]


def _charpoly(a: list[list[int]]) -> list[int]:
    """Integer coefficients, constant term first, by Faddeev-LeVerrier (the
    divisions by k are exact for an integer matrix)."""
    n = len(a)
    coeffs = [0] * (n + 1)
    coeffs[n] = 1
    m = [[0] * n for _ in range(n)]
    for k in range(1, n + 1):
        # M_k = A M_{k-1} + c_{n-k+1} I ; c_{n-k} = -tr(A M_k) / k
        m = [[sum(a[i][t] * m[t][j] for t in range(n)) for j in range(n)]
             for i in range(n)]
        for i in range(n):
            m[i][i] += coeffs[n - k + 1]
        tr = sum(sum(a[i][t] * m[t][i] for t in range(n)) for i in range(n))
        coeffs[n - k] = -tr // k
    return coeffs


def _trim(p: list[Fraction]) -> list[Fraction]:
    while len(p) > 1 and p[-1] == 0:
        p = p[:-1]
    return p


def _divmod(p: list[Fraction], q: list[Fraction]) -> tuple[list[Fraction], list[Fraction]]:
    p = list(p)
    quot = [Fraction(0)] * max(1, len(p) - len(q) + 1)
    while len(p) >= len(q) and any(p):
        c = p[-1] / q[-1]
        shift = len(p) - len(q)
        quot[shift] = c
        for i, qc in enumerate(q):
            p[shift + i] -= c * qc
        p = _trim(p[:-1]) if len(p) > 1 else p
    return quot, _trim(p)


def _gcd(p: list[Fraction], q: list[Fraction]) -> list[Fraction]:
    while any(q):
        p, q = q, _divmod(p, q)[1]
    return p


def square_is_semisimple(rep_action, u) -> bool:
    """True iff rho(u)^2 is semisimple, with rho given by the list of action
    matrices (objects with a `.data` row list) and u by its coordinates."""
    n = len(rep_action[0].data)
    rho = [[Fraction(0)] * n for _ in range(n)]
    for c, mat in zip(u, rep_action):
        if c:
            for i in range(n):
                for j in range(n):
                    rho[i][j] += c * mat.data[i][j]
    a = _int_square(rho)
    p = [Fraction(c) for c in _charpoly(a)]
    dp = [k * p[k] for k in range(1, len(p))]
    sqf = _divmod(p, _gcd(p, dp))[0]
    den = 1
    for c in sqf:
        den = lcm(den, c.denominator)
    ints = [int(c * den) for c in sqf]
    g = 0
    for c in ints:
        g = gcd(g, c)
    ints = [c // g for c in ints]
    # Horner: S = sqf(A) with integer coefficients
    s = [[0] * n for _ in range(n)]
    for c in reversed(ints):
        s = [[sum(s[i][t] * a[t][j] for t in range(n)) for j in range(n)]
             for i in range(n)]
        for i in range(n):
            s[i][i] += c
    return all(x == 0 for row in s for x in row)


def parse_coinvariant(text: str, names, odd) -> list[Fraction]:
    """Coordinates on the subset basis of a coinvariant vector printed by the
    CLI, e.g. '1 + 1/3*a1*b1 - 2/3*a2*b2'.  `odd` lists the odd basis indices;
    bit t of a subset mask stands for basis element odd[t]."""
    bit = {names[idx]: 1 << t for t, idx in enumerate(odd)}
    coords = [Fraction(0)] * (1 << len(odd))
    if text == "0":
        return coords
    tokens = text.split(" ")
    terms = [("+", tokens[0])] + list(zip(tokens[1::2], tokens[2::2]))
    for sign, term in terms:
        neg = sign == "-"
        if term.startswith("-"):
            neg, term = not neg, term[1:]
        pieces = term.split("*")
        try:
            coeff = Fraction(pieces[0])
            letters = pieces[1:]
        except ValueError:
            coeff, letters = Fraction(1), pieces
        mask = 0
        for name in letters:
            mask |= bit[name]
        coords[mask] += -coeff if neg else coeff
    return coords
