"""Character tables with exact cyclotomic values, and the ring they generate.

Tables are the oracle route for building reference fusion rings: the
structure constants come out of the exact inner product
(1/|G|) * sum over classes of size * chi_i * chi_j * conj(chi_k), with the
division by |G| performed on an integer total and verified exact.  A table
whose rows are not orthonormal, or whose products do not decompose with
nonnegative integer multiplicities, is rejected loudly.

File format (``#`` comments, whitespace separated)::

    group <name> <order>
    conductor <N>
    class <size>             # one line per conjugacy class, identity first
    char <degree> <value>... # one value per class, polynomials in z = zeta_N
    dualpair <i> <j>         # 0-based character row indices; omitted = self-dual
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional, Sequence

from .cyclotomic import Cyclotomic
from .ring import BasisElement, FusionRing, FusionRingError, InvalidRing


class NotIntegral(FusionRingError):
    """An inner product did not reduce to a nonnegative rational integer."""


class OrthogonalityFailure(FusionRingError):
    """Character rows are not orthonormal under the exact inner product."""


@dataclass(frozen=True)
class CharacterTable:
    """An exact character table, validated once, when it is constructed."""

    name: str
    group_order: int
    class_sizes: tuple[int, ...]
    characters: tuple[tuple[Cyclotomic, ...], ...]
    conjugate_map: tuple[int, ...]

    def __post_init__(self) -> None:
        self.validate()

    @property
    def conductor(self) -> int:
        return self.characters[0][0].conductor

    @property
    def degrees(self) -> tuple[int, ...]:
        return tuple(row[0].integer_value() for row in self.characters)

    def validate(self) -> None:
        if sum(self.class_sizes) != self.group_order:
            raise OrthogonalityFailure(
                f"class sizes sum to {sum(self.class_sizes)}, group order is {self.group_order}"
            )
        n = len(self.characters)
        if len(self.conjugate_map) != n:
            raise InvalidRing("conjugate map length mismatch")
        for i, j in enumerate(self.conjugate_map):
            if self.conjugate_map[j] != i:
                raise InvalidRing("conjugate map is not an involution")
            for c in range(len(self.class_sizes)):
                if self.characters[i][c].conj() != self.characters[j][c]:
                    raise OrthogonalityFailure(
                        f"row {j} is not the complex conjugate of row {i} at class {c}"
                    )
        for row in self.characters:
            deg = row[0]
            if not deg.is_integer() or deg.integer_value() < 1:
                raise InvalidRing("character degree (value at the identity) must be a positive integer")
        for i in range(n):
            for j in range(n):
                try:
                    val = self._inner(self.characters[i], self.characters[j])
                except NotIntegral as exc:
                    raise OrthogonalityFailure(f"<chi{i}, chi{j}>: {exc}") from exc
                expect = 1 if i == j else 0
                if val != expect:
                    raise OrthogonalityFailure(
                        f"<chi{i}, chi{j}> = {val}, expected {expect}"
                    )

    def _inner(self, phi: Sequence[Cyclotomic], psi: Sequence[Cyclotomic]) -> int:
        total = Cyclotomic.integer(self.conductor, 0)
        for size, a, b in zip(self.class_sizes, phi, psi):
            total = total + size * (a * b.conj())
        if not total.is_integer():
            raise NotIntegral(f"inner product total {total!r} is not rational")
        value = total.integer_value()
        if value % self.group_order != 0:
            raise NotIntegral(
                f"inner product total {value} is not divisible by |G| = {self.group_order}"
            )
        return value // self.group_order


def char_table_ring(table: CharacterTable, labels: Optional[Sequence[str]] = None) -> FusionRing:
    """Fusion ring of a character table: N[i][j][k] = <chi_i chi_j, chi_k>.

    Every structure constant must reduce to a nonnegative rational integer.
    ``labels`` (one per character row) defaults to "1" for the trivial
    character and "chiK" for row K.
    """
    n = len(table.characters)
    classes = len(table.class_sizes)

    trivial = None
    one = Cyclotomic.integer(table.conductor, 1)
    for i, row in enumerate(table.characters):
        if all(v == one for v in row):
            trivial = i
            break
    if trivial is None:
        raise InvalidRing("table has no trivial character row")

    if labels is None:
        labels = tuple("1" if i == trivial else f"chi{i}" for i in range(n))
    else:
        labels = tuple(labels)
        if len(labels) != n or len(set(labels)) != n:
            raise InvalidRing("labels must be distinct, one per character row")

    products = {}
    for i in range(n):
        for j in range(n):
            prod = tuple(table.characters[i][c] * table.characters[j][c] for c in range(classes))
            row = {}
            for k in range(n):
                mult = table._inner(prod, table.characters[k])
                if mult < 0:
                    raise NotIntegral(f"<chi{i} chi{j}, chi{k}> = {mult} is negative")
                if mult:
                    row[labels[k]] = mult
            products[(labels[i], labels[j])] = row

    basis = [
        BasisElement(labels[i], table.degrees[i], labels[table.conjugate_map[i]])
        for i in range(n)
    ]
    return FusionRing(table.name, basis, labels[trivial], products)


# -- table file format -------------------------------------------------------

_TERM_RE = re.compile(
    r"^(?P<sign>[+-])?(?P<num>\d+)?(?:\*(?=z))?(?P<z>z(?:\^(?P<exp>\d+))?)?$"
)


def parse_value(text: str, conductor: int) -> Cyclotomic:
    """Parse a polynomial in z (= zeta_N), e.g. ``-1``, ``z^2``, ``1+2*z``."""
    s = text.replace(" ", "")
    if not s:
        raise ValueError("empty value")
    terms = re.findall(r"[+-]?[^+-]+", s)
    coeffs = [0] * conductor
    for term in terms:
        m = _TERM_RE.match(term)
        if not m or (m.group("num") is None and m.group("z") is None):
            raise ValueError(f"bad cyclotomic term {term!r} in {text!r}")
        coef = int(m.group("num")) if m.group("num") else 1
        if m.group("sign") == "-":
            coef = -coef
        if m.group("z") is None:
            coeffs[0] += coef
        else:
            exp = int(m.group("exp")) if m.group("exp") else 1
            coeffs[exp % conductor] += coef
    return Cyclotomic(conductor, coeffs)


def parse_character_table(text: str, name: Optional[str] = None) -> CharacterTable:
    """Parse the character table file format; raises ValueError on bad input."""
    group_name = None
    order = None
    conductor = None
    sizes: list[int] = []
    raw_chars: list[list[str]] = []
    pairs: list[tuple[int, int]] = []

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        kind = tokens[0]
        try:
            if kind == "group":
                group_name, order = tokens[1], int(tokens[2])
            elif kind == "conductor":
                conductor = int(tokens[1])
            elif kind == "class":
                sizes.append(int(tokens[1]))
            elif kind == "char":
                raw_chars.append(tokens[1:])
            elif kind == "dualpair":
                pairs.append((int(tokens[1]), int(tokens[2])))
            else:
                raise ValueError(f"unknown directive {kind!r}")
        except (IndexError, ValueError) as exc:
            raise ValueError(f"line {lineno}: {exc}") from exc

    if group_name is None or order is None:
        raise ValueError("missing group line")
    if conductor is None:
        raise ValueError("missing conductor line")
    if not sizes:
        raise ValueError("no class lines")

    characters = []
    for row_idx, tokens in enumerate(raw_chars):
        degree = int(tokens[0])
        values = tokens[1:]
        if len(values) != len(sizes):
            raise ValueError(
                f"char row {row_idx} has {len(values)} values for {len(sizes)} classes"
            )
        row = tuple(parse_value(v, conductor) for v in values)
        if row[0] != Cyclotomic.integer(conductor, degree):
            raise ValueError(f"char row {row_idx}: declared degree {degree} != value at identity")
        characters.append(row)

    conj = list(range(len(characters)))
    for i, j in pairs:
        conj[i], conj[j] = j, i

    return CharacterTable(
        name=name or group_name,
        group_order=order,
        class_sizes=tuple(sizes),
        characters=tuple(characters),
        conjugate_map=tuple(conj),
    )


def load_character_table(path) -> CharacterTable:
    from pathlib import Path

    p = Path(path)
    return parse_character_table(p.read_text(), name=None)
