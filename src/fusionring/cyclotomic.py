"""Exact arithmetic in cyclotomic integer rings Z[zeta_N].

Values are integer coefficient vectors over powers of a primitive N-th
root of unity, normalized by polynomial reduction modulo the N-th
cyclotomic polynomial.  No floating point: equality, conjugation, and
the divisibility checks used by character-table inner products are all
decided over the integers.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable


def prime_factors(n: int) -> tuple[int, ...]:
    """The distinct primes dividing n, ascending."""
    primes, m, p = [], n, 2
    while p * p <= m:
        if m % p == 0:
            primes.append(p)
            while m % p == 0:
                m //= p
        p += 1
    if m > 1:
        primes.append(m)
    return tuple(primes)


@lru_cache(maxsize=None, typed=True)  # typed: True and 2.0 must not hit the entries of 1 and 2
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Coefficients (ascending) of the n-th cyclotomic polynomial.

    For n > 1, Phi_n is the product of (1 - x^d)^mu(n/d) over the divisors
    d of n.  Multiplying by 1 - x^d is one shifted subtraction, and dividing
    exactly by it is the recurrence q[i] = p[i] + q[i - d], so each factor
    costs time linear in the degree.
    """
    if type(n) is not int or n < 1:
        raise ValueError("n must be positive")
    if n == 1:
        return (-1, 1)
    # (d, mu(n/d)) for every d with n/d squarefree; mu is 0 at the others.
    factors = [(n, 1)]
    for p in prime_factors(n):
        factors += [(d // p, -mu) for d, mu in factors]
    coeffs = [1] + [0] * sum(d for d, mu in factors if mu > 0)
    top = 0
    for d, mu in factors:
        if mu > 0:
            top += d
            for i in range(top, d - 1, -1):
                coeffs[i] -= coeffs[i - d]
    for d, mu in factors:
        if mu < 0:
            for i in range(d, top + 1):
                coeffs[i] += coeffs[i - d]
            top -= d
    return tuple(coeffs[: top + 1])


def _small_modulus(n: int, bound: int) -> tuple[int, int]:
    """(w, |Phi_n(w)|) for the least w with (w - 1)^phi(n) > bound >= 1, so that |Phi_n(w)| > bound.

    Every root of Phi_n lies on the unit circle, at least w - 1 from w.  w - 2 is the integer phi(n)-th
    root of ``bound``, which Newton's method reaches from above, from 2^ceil(bits/phi(n)).
    """
    phi = cyclotomic_polynomial(n)
    k = len(phi) - 1
    r = 1 << -(-bound.bit_length() // k)
    while (y := ((k - 1) * r + bound // r ** (k - 1)) // k) < r:
        r = y
    return r + 2, abs(sum(c * (r + 2) ** i for i, c in enumerate(phi)))


@lru_cache(maxsize=None)
def _reducer(n: int) -> tuple[int, tuple[tuple[int, int], ...]]:
    """The degree of the n-th cyclotomic polynomial and its nonzero lower terms."""
    phi = cyclotomic_polynomial(n)
    degree = len(phi) - 1
    return degree, tuple((i, c) for i, c in enumerate(phi[:degree]) if c)


class Cyclotomic:
    """An element of Z[zeta_N], kept in reduced canonical form."""

    __slots__ = ("conductor", "coeffs")

    def __init__(self, conductor: int, coeffs: Iterable[int]):
        if type(conductor) is not int or conductor < 1:
            raise ValueError("conductor must be positive")
        self.conductor = conductor
        folded = [0] * conductor
        for i, c in enumerate(coeffs):
            if type(c) is not int:  # exactly int: 1.5, 0.0 and True are no coefficients
                raise ValueError(f"coefficient {c!r} is not an integer")
            if c:
                folded[i % conductor] += c
        # Remainder modulo the monic Phi_N, in place: clear the top coefficient
        # by subtracting coef * x^shift * Phi_N until the degree is below it.
        degree, lower = _reducer(conductor)
        for top in range(conductor - 1, degree - 1, -1):
            coef = folded[top]
            if coef:
                folded[top] = 0
                shift = top - degree
                for i, c in lower:
                    folded[shift + i] -= coef * c
        self.coeffs = tuple(folded)

    @classmethod
    def integer(cls, conductor: int, value: int) -> "Cyclotomic":
        return cls(conductor, [value])

    @classmethod
    def zeta_power(cls, conductor: int, k: int) -> "Cyclotomic":
        if type(conductor) is not int or conductor < 1:  # before it sizes the list
            raise ValueError("conductor must be positive")
        if type(k) is not int:
            raise ValueError(f"exponent {k!r} is not an integer")
        coeffs = [0] * conductor
        coeffs[k % conductor] = 1
        return cls(conductor, coeffs)

    def _compatible(self, other: object) -> bool:
        if isinstance(other, Cyclotomic) and self.conductor != other.conductor:
            raise ValueError("mixed conductors")
        return isinstance(other, Cyclotomic)

    def __add__(self, other: "Cyclotomic") -> "Cyclotomic":
        if self._compatible(other):
            return Cyclotomic(self.conductor, [a + b for a, b in zip(self.coeffs, other.coeffs)])
        return NotImplemented

    def __sub__(self, other: "Cyclotomic") -> "Cyclotomic":
        if self._compatible(other):
            return Cyclotomic(self.conductor, [a - b for a, b in zip(self.coeffs, other.coeffs)])
        return NotImplemented

    def __neg__(self) -> "Cyclotomic":
        return Cyclotomic(self.conductor, [-a for a in self.coeffs])

    def __mul__(self, other) -> "Cyclotomic":
        if isinstance(other, int):
            return Cyclotomic(self.conductor, [other * a for a in self.coeffs])
        if not self._compatible(other):
            return NotImplemented
        n = self.conductor
        out = [0] * n
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    if b:
                        out[(i + j) % n] += a * b
        return Cyclotomic(n, out)

    __rmul__ = __mul__

    def conj(self) -> "Cyclotomic":
        """Complex conjugation: zeta^i -> zeta^(N-i)."""
        return self.galois(-1)

    def galois(self, a: int) -> "Cyclotomic":
        """sigma_a: zeta^i -> zeta^(a*i), for a prime to N, which permutes the powers of zeta."""
        n, b = self.conductor, pow(a, -1, self.conductor)
        return Cyclotomic(n, [self.coeffs[b * e % n] for e in range(n)])

    def is_integer(self) -> bool:
        return not any(self.coeffs[1:])

    def integer_value(self) -> int:
        if not self.is_integer():
            raise ValueError(f"{self!r} is not a rational integer")
        return self.coeffs[0]

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            return self.is_integer() and self.coeffs[0] == other
        if not isinstance(other, Cyclotomic):
            return NotImplemented
        return self.conductor == other.conductor and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash((self.conductor, self.coeffs))

    def __repr__(self) -> str:
        terms = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                terms.append(str(c))
            else:
                z = "z" if i == 1 else f"z^{i}"
                if c == 1:
                    terms.append(z)
                elif c == -1:
                    terms.append(f"-{z}")
                else:
                    terms.append(f"{c}*{z}")
        if not terms:
            return "0"
        text = terms[0]
        for t in terms[1:]:
            text += f"+{t}" if not t.startswith("-") else t
        return text
