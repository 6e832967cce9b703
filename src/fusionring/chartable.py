"""Character tables with exact cyclotomic values, and the ring they generate.

Tables are the oracle route for building reference fusion rings: the
structure constants come out of the exact inner product
(1/|G|) * sum over classes of size * chi_i * chi_j * conj(chi_k), with the
division by |G| performed on an integer total and verified exact.  A table
must be complete, one character row per conjugacy class.  A table whose rows
are not orthonormal, or whose products do not decompose with nonnegative
integer multiplicities, is rejected loudly.

The values lie in Z[zeta_K], K = N/s for s the gcd of N and every exponent
they use, and each total T is evaluated modulo M = |Phi_K(w)| at w = 2L + 2,
much as Dixon computes characters modulo a prime P = 1 (mod N) ("High speed
computation of group characters", Numer. Math. 10, 1967).  No conjugate of
T exceeds L in absolute value (:func:`_bound`), and every root of Phi_K is
at least w - 1 from w, so M >= (2L + 1)^phi(K).  Z[zeta_K] = Z[x]/(Phi_K)
maps onto Z/M by x -> w, with a kernel ideal of index M: if T's symmetric
residue t has |t| <= L, T - t lies in that ideal, so M divides its norm,
which is at most (2L)^phi(K) < M, so T = t.  An integer T has |T| <= L,
so any other residue, like a total not divisible by |G|, is a fault,
re-derived in :class:`Cyclotomic` arithmetic to word it.  So is every total
of a table that mixes conductors, or fails the group-table checks L rests on.

File format (``#`` comments, whitespace separated)::

    group <name> <order>
    conductor <N>
    class <size>             # one line per conjugacy class, identity first
    char <degree> <value>... # one row per class, one value per class,
                             # polynomials in z = zeta_N
    dualpair <i> <j>         # 0-based character row indices; omitted = self-dual

Integers (order, conductor, sizes, degrees, indices) follow the spec file's
rule: decimal digits only, so ``+2``, ``0_2`` and ``-1`` are rejected.
Every directive but ``char`` takes exactly the tokens shown.
"""

from __future__ import annotations

import re
from math import gcd, isqrt
from operator import mul
from typing import Optional, Sequence

from .cyclotomic import Cyclotomic, cyclotomic_polynomial
from .ring import BasisElement, FusionRing, FusionRingError, InvalidRing
from .specfmt import _decimal


class NotIntegral(FusionRingError):
    """An inner product did not reduce to a nonnegative rational integer."""


class OrthogonalityFailure(FusionRingError):
    """Character rows are not orthonormal under the exact inner product."""


class CharacterTable:
    """An exact character table, validated once, when it is constructed."""

    def __init__(
        self,
        name: str,
        group_order: int,
        class_sizes: tuple[int, ...],
        characters: tuple[tuple[Cyclotomic, ...], ...],
        conjugate_map: tuple[int, ...],
    ):
        self.name = name
        self.group_order = group_order
        self.class_sizes = class_sizes
        self.characters = characters
        self.conjugate_map = conjugate_map
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
        if any(size < 1 for size in self.class_sizes):
            raise OrthogonalityFailure("class sizes must be positive")
        n = len(self.characters)
        classes = len(self.class_sizes)
        if n == 0 or n != classes or any(len(row) != classes for row in self.characters):
            raise OrthogonalityFailure(
                f"table has {n} character rows for {classes} classes; "
                "it needs one row per class, with one value per class"
            )
        if len(self.conjugate_map) != n:
            raise InvalidRing("conjugate map length mismatch")
        # A pair's difference has no conjugate above 2L, so its residue decides it
        # exactly, as a total's does, unless M = 1.
        self._evaluation = evaluation = _Evaluation(self)
        for i, j in enumerate(self.conjugate_map):
            if self.conjugate_map[j] != i:
                raise InvalidRing("conjugate map is not an involution")
            for c, (a, b) in enumerate(zip(self.characters[i], self.characters[j])):
                if evaluation.modulus == 1 or evaluation.images[id(a)][1] != evaluation.images[id(b)][0]:
                    if a.conj() != b:
                        raise OrthogonalityFailure(
                            f"row {j} is not the complex conjugate of row {i} at class {c}"
                        )
        for row in self.characters:
            if not row[0].is_integer() or row[0].integer_value() < 1:
                raise InvalidRing("character degree (value at the identity) must be a positive integer")
        # <chi_j, chi_i> is the conjugate of <chi_i, chi_j>, so a pair fails
        # exactly when its mirror does, and the first failure has i <= j.
        for i in range(n):
            for j in range(i, n):
                try:
                    val = evaluation.inner(evaluation.rows[i], j, (i,))
                except NotIntegral as exc:
                    raise OrthogonalityFailure(f"<chi{i}, chi{j}>: {exc}") from exc
                expect = 1 if i == j else 0
                if val != expect:
                    raise OrthogonalityFailure(
                        f"<chi{i}, chi{j}> = {val}, expected {expect}"
                    )


def _bound(table: CharacterTable, terms: dict[int, list]) -> int:
    """L for a table that passes the checks of a group's table, else -1.

    A group's table has its identity class first, of size 1, class sizes
    summing to |G|, and column orthogonality: sum_i chi_i(c) conj(chi_i(c))
    = |G|/|c|.  Galois conjugation keeps that sum, so no conjugate of a value
    at class c exceeds sqrt(|G|/|c|), and none of a total exceeds L = sum over
    classes of |c| * (|G|/|c|)^(3/2), rounded up.  The checks bound |G| by the
    number of classes, as the sizes then solve 1 = sum of 1/(|G|/|c|) in
    integers (Landau, 1903); a table that fails them is decided value by
    value, since M, of phi(N) * log2(2L) bits, would grow with its digits.
    """
    n, sizes, order = table.conductor, table.class_sizes, table.group_order
    if sizes[0] != 1 or sum(sizes) != order:
        return -1
    bound = 0
    for c, size in enumerate(sizes):
        total = [0] * n  # |c| * sum_i chi_i(c) conj(chi_i(c)), unreduced
        for value in [terms[id(row[c])] for row in table.characters]:
            for e, x in value:
                for f, y in value:
                    total[(e - f) % n] += size * x * y
        if Cyclotomic(n, total) != order:
            return -1
        bound += size * (isqrt((order // size) ** 3 - 1) + 1)
    return bound


class _Evaluation:
    """A table's values in Z/M under zeta_N^s -> w, and its exact inner product.

    ``images[id(v)]`` is the pair of images of v and conj(v), one per value object, and
    ``rows[i][c]`` the image of chi_i at class c, shared with its value; ``weighted[k][c]`` is
    that of |c| * conj(chi_k(c)), ``bound`` is L and ``modulus`` is M = |Phi_K(w)| at w = 2L + 2,
    zeta_N^(+-e) mapping to w^(+-e/s), for K = N/s and s the gcd of N and every exponent of a value.
    A table that fails the checks of :func:`_bound`, or mixes conductors, has L = -1, so w = 0
    and M = |Phi_K(0)| = 1: no residue is trusted and every total is derived in :class:`Cyclotomic`.
    """

    def __init__(self, table: CharacterTable):
        # what it reads of the table, not the table, which keeps this evaluation: no reference cycle
        self.order, self.sizes, self.values = table.group_order, table.class_sizes, table.characters
        terms = {id(v): [(e, x) for e, x in enumerate(v.coeffs) if x] for row in self.values for v in row}
        n = table.conductor
        self.bound = -1 if any(v.conductor != n for row in self.values for v in row) else _bound(table, terms)
        s = gcd(n, *(e for t in terms.values() for e, _ in t))  # every value lies in Z[zeta_K], K = N/s
        m, w, n = 0, 2 * self.bound + 2, n // s
        for coefficient in reversed(cyclotomic_polynomial(n)):  # M = |Phi_K(w)|, by Horner
            m = m * w + coefficient
        self.modulus = m = abs(m)
        self.images = {k: [sum(x * pow(w, e // f % n, m) for e, x in t) % m for f in (s, -s)] for k, t in terms.items()}
        self.rows = [[self.images[id(v)][0] for v in row] for row in self.values]
        self.weighted = [[size * self.images[id(v)][1] % m for size, v in zip(self.sizes, row)] for row in self.values]

    def inner(self, images: Sequence[int], k: int, rows: tuple[int, ...]) -> int:
        """<chi_r1 ... chi_rm, chi_k> for ``rows`` = (r1, ..., rm), whose product has ``images``."""
        t = sum(map(mul, images, self.weighted[k])) % self.modulus
        if t > self.modulus // 2:
            t -= self.modulus
        if abs(t) <= self.bound and t % self.order == 0:
            return t // self.order
        return self._exact(rows, k)

    def _exact(self, rows: tuple[int, ...], k: int) -> int:
        """The inner product in :class:`Cyclotomic` arithmetic, which words a fault."""
        chars, total = self.values, Cyclotomic.integer(self.values[0][0].conductor, 0)
        for c, size in enumerate(self.sizes):
            term = chars[k][c].conj()
            for r in rows:
                term = term * chars[r][c]
            total = total + size * term
        if not total.is_integer():
            raise NotIntegral(f"inner product total {total!r} is not rational")
        value, order = total.integer_value(), self.order
        if value % order != 0:
            raise NotIntegral(
                f"inner product total {value} is not divisible by |G| = {order}"
            )
        return value // order


def char_table_ring(table: CharacterTable, labels: Optional[Sequence[str]] = None) -> FusionRing:
    """Fusion ring of a character table: N[i][j][k] = <chi_i chi_j, chi_k>.

    Every structure constant must reduce to a nonnegative rational integer,
    and each row must satisfy sum_k N[i][j][k] * d_k = d_i * d_j.
    ``labels`` (one per character row) defaults to "1" for the trivial
    character and "chiK" for row K.
    """
    n = len(table.characters)

    one = Cyclotomic.integer(table.conductor, 1)  # the table's own 1: all ones in another conductor is no trivial row
    trivial = next((i for i, row in enumerate(table.characters) if all(v == one for v in row)), None)
    if trivial is None:
        raise InvalidRing("table has no trivial character row")

    if labels is None:
        labels = tuple("1" if i == trivial else f"chi{i}" for i in range(n))
    else:
        labels = tuple(labels)
        if len(labels) != n or len(set(labels)) != n:
            raise InvalidRing("labels must be distinct, one per character row")

    # Characters commute, so row (j, i) is row (i, j), and the first failure
    # in row-major order has i <= j.
    evaluation = getattr(table, "_evaluation", None) or _Evaluation(table)  # None: built without validate
    modulus, images = evaluation.modulus, evaluation.rows
    degrees = table.degrees
    products: dict[tuple[str, str], dict[str, int]] = {}
    for i in range(n):
        for j in range(i, n):
            product = [a * b % modulus for a, b in zip(images[i], images[j])]
            row = {}
            degree = 0
            for k in range(n):
                mult = evaluation.inner(product, k, (i, j))
                if mult < 0:
                    raise NotIntegral(f"<chi{i} chi{j}, chi{k}> = {mult} is negative")
                if mult:
                    row[labels[k]] = mult
                    degree += mult * degrees[k]
            if degree != degrees[i] * degrees[j]:
                raise OrthogonalityFailure(
                    f"chi{i} chi{j} decomposes into degree {degree}, expected {degrees[i] * degrees[j]}"
                )
            products[labels[i], labels[j]] = products[labels[j], labels[i]] = row

    basis = [
        BasisElement(labels[i], degrees[i], labels[table.conjugate_map[i]])
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
    terms = re.split(r"(?<=.)(?=[+-])", s)  # before each sign but a leading one: a stray sign is a term of its own
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


def _positive(token: str, what: str) -> int:
    """The value of a positive decimal token, under the spec file's rule."""
    value = _decimal(token)
    if not value:
        raise ValueError(f"{what} must be a positive integer, got {token}")
    return value


# The largest conductor a table may declare.  Spawned `gen chartable` on a one-class table (2 CPUs, no
# bytecode cache) takes 0.08-0.14 s at N = 4620 and 5040 (medians of 5 runs in three rounds, as the host's
# load moved), about 1.3 ms of it in the evaluation, M included.  What a larger N costs is not yet measured.
CONDUCTOR_BOUND = 5040

# The fewest tokens of each directive, and what a shorter line lacks.
_DIRECTIVES = {"group": (3, "a name and an order"), "conductor": (2, "a number"), "class": (2, "a size"),
               "char": (2, "a degree and one value per class"), "dualpair": (3, "two row indices")}


def parse_character_table(text: str) -> CharacterTable:
    """Parse the character table file format; raises ValueError on bad input.

    Errors in a line name its number.  A table that parses but is not a
    complete orthonormal character table raises the errors of
    :meth:`CharacterTable.validate`.
    """
    group_name = None
    order = None
    conductor = None
    sizes: list[int] = []
    raw_chars: list[tuple[int, list[str]]] = []
    pairs: list[tuple[int, Optional[int], Optional[int]]] = []  # None: not decimal

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        kind = tokens[0]
        try:
            if kind not in _DIRECTIVES:
                raise ValueError(f"unknown directive {kind!r}")
            count, takes = _DIRECTIVES[kind]
            if len(tokens) < count:
                raise ValueError(f"{kind} needs {takes}")
            if len(tokens) > count and kind != "char":  # char's values are counted per class
                raise ValueError(f"{kind} takes only {takes}, got surplus token {tokens[count]!r}")
            if kind == "group":
                if group_name is not None:
                    raise ValueError("duplicate group line")
                group_name, order = tokens[1], _positive(tokens[2], "group order")
            elif kind == "conductor":
                if conductor is not None:
                    raise ValueError("duplicate conductor line")
                conductor = _positive(tokens[1], "conductor")
                if conductor > CONDUCTOR_BOUND:
                    raise ValueError(f"conductor {conductor} exceeds bound {CONDUCTOR_BOUND}")
            elif kind == "class":
                sizes.append(_positive(tokens[1], "class size"))
            elif kind == "char":
                raw_chars.append((lineno, tokens[1:]))
            else:
                pairs.append((lineno, _decimal(tokens[1]), _decimal(tokens[2])))
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from exc

    if group_name is None or order is None:
        raise ValueError("missing group line")
    if conductor is None:
        raise ValueError("missing conductor line")
    if not sizes:
        raise ValueError("no class lines")
    if not raw_chars:
        raise ValueError("no char lines")

    characters = []
    parsed: dict[str, Cyclotomic] = {}  # each distinct value token, parsed once
    for row_idx, (lineno, tokens) in enumerate(raw_chars):
        try:
            degree = _positive(tokens[0], f"char row {row_idx} degree")
            values = tokens[1:]
            if len(values) != len(sizes):
                raise ValueError(
                    f"char row {row_idx} has {len(values)} values for {len(sizes)} classes"
                )
            row = tuple(parsed[v] if v in parsed else parsed.setdefault(v, parse_value(v, conductor)) for v in values)
            if row[0] != degree:
                raise ValueError(f"char row {row_idx}: declared degree {degree} != value at identity")
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from exc
        characters.append(row)

    conj = list(range(len(characters)))
    paired: dict[int, int] = {}
    for lineno, i, j in pairs:
        if not all(k is not None and 0 <= k < len(conj) for k in (i, j)):
            raise ValueError(
                f"line {lineno}: dualpair index out of range for {len(conj)} character rows"
            )
        clash = next((k for k in (i, j) if k in paired), None)
        if clash is not None:
            raise ValueError(
                f"line {lineno}: row {clash} is already paired on line {paired[clash]}"
            )
        paired[i] = paired[j] = lineno
        conj[i], conj[j] = j, i

    return CharacterTable(
        name=group_name,
        group_order=order,
        class_sizes=tuple(sizes),
        characters=tuple(characters),
        conjugate_map=tuple(conj),
    )


def load_character_table(path) -> CharacterTable:
    with open(path, encoding="utf-8") as fh:
        return parse_character_table(fh.read())
