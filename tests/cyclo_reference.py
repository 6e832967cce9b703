"""Cyclotomic arithmetic on plain coefficient lists, for the tests' reference route.

A value of Z[zeta_N] is a list of its N coefficients at 1, zeta, ..., zeta^(N-1),
taken modulo x^N - 1 and not reduced modulo Phi_N; each total is reduced once, by
``Cyclotomic(N, coeffs)``.  ``fusionring`` adds or multiplies no two values, so the
reference runs none of the arithmetic it checks.  Not part of the package.
"""

from __future__ import annotations

from math import lcm

from fusionring.cyclotomic import Cyclotomic


def zeta_sum(n: int, *exponents: int) -> Cyclotomic:
    """zeta_n^e1 + zeta_n^e2 + ..., one term per exponent given."""
    coeffs = [0] * n
    for e in exponents:
        coeffs[e % n] += 1
    return Cyclotomic(n, coeffs)


def lifted(table) -> list[list[list[int]]]:
    """The table's values as coefficient lists in Z[zeta_N], for N the lcm of their conductors:
    zeta_M^e is zeta_N^(e*N/M), so each value is the number it denotes, at any conductor."""
    n = lcm(*(v.conductor for row in table.characters for v in row))

    def lift(v) -> list[int]:
        coeffs = [0] * n
        for e, x in enumerate(v.coeffs):
            coeffs[e * (n // v.conductor)] = x
        return coeffs

    return [[lift(v) for v in row] for row in table.characters]


def times(a, b) -> list[int]:
    """a * b modulo x^N - 1."""
    n = len(a)
    out = [0] * n
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[(i + j) % n] += x * y
    return out


def hermitian(n: int, terms) -> Cyclotomic:
    """The sum of w * a * conj(b) over the triples (w, a, b) in ``terms``, for a and b coefficient
    lists modulo x^n - 1, reduced once; conj sends zeta^j to zeta^-j."""
    total = [0] * n
    for w, a, b in terms:
        for e, x in enumerate(times(a, [b[-j] for j in range(n)])):
            total[e] += w * x
    return Cyclotomic(n, total)
