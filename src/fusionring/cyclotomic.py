"""Exact arithmetic in cyclotomic integer rings Z[zeta_N].

Values are integer coefficient vectors over powers of a primitive N-th
root of unity, normalized by polynomial reduction modulo the N-th
cyclotomic polynomial.  No floating point: equality, conjugation, and
the divisibility checks used by character-table inner products are all
decided over the integers.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Sequence


def _poly_trim(p: list[int]) -> list[int]:
    while p and p[-1] == 0:
        p.pop()
    return p


def _poly_mul(a: Sequence[int], b: Sequence[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] += x * y
    return _poly_trim(out)


def _poly_divmod_exact(num: Sequence[int], den: Sequence[int]) -> tuple[list[int], list[int]]:
    """Division by a monic integer polynomial; exact over Z."""
    num = list(num)
    q = [0] * max(len(num) - len(den) + 1, 0)
    while len(_poly_trim(num)) >= len(den):
        shift = len(num) - len(den)
        coef = num[-1]
        q[shift] += coef
        for i, d in enumerate(den):
            num[shift + i] -= coef * d
        num = _poly_trim(num)
    return _poly_trim(q), num


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Coefficients (ascending) of the n-th cyclotomic polynomial."""
    if n < 1:
        raise ValueError("n must be positive")
    if n == 1:
        return (-1, 1)
    num = [0] * n + [1]
    num[0] = -1  # x^n - 1
    den = [1]
    for d in range(1, n):
        if n % d == 0:
            den = _poly_mul(den, cyclotomic_polynomial(d))
    q, r = _poly_divmod_exact(num, den)
    if r:
        raise AssertionError("cyclotomic division left a remainder")
    return tuple(q)


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
        if conductor < 1:
            raise ValueError("conductor must be positive")
        self.conductor = conductor
        folded = [0] * conductor
        for i, c in enumerate(coeffs):
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
        coeffs = [0] * conductor
        coeffs[k % conductor] = 1
        return cls(conductor, coeffs)

    def _compatible(self, other: "Cyclotomic") -> None:
        if self.conductor != other.conductor:
            raise ValueError("mixed conductors")

    def __add__(self, other: "Cyclotomic") -> "Cyclotomic":
        self._compatible(other)
        return Cyclotomic(self.conductor, [a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __sub__(self, other: "Cyclotomic") -> "Cyclotomic":
        self._compatible(other)
        return Cyclotomic(self.conductor, [a - b for a, b in zip(self.coeffs, other.coeffs)])

    def __neg__(self) -> "Cyclotomic":
        return Cyclotomic(self.conductor, [-a for a in self.coeffs])

    def __mul__(self, other) -> "Cyclotomic":
        if isinstance(other, int):
            return Cyclotomic(self.conductor, [other * a for a in self.coeffs])
        self._compatible(other)
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
        n = self.conductor
        out = [0] * n
        for i, a in enumerate(self.coeffs):
            out[(n - i) % n] += a
        return Cyclotomic(n, out)

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
