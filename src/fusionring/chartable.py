"""Character tables with exact cyclotomic values, and the ring they generate.

Tables are the oracle route for building reference fusion rings: the
structure constants come out of the exact inner product
(1/|G|) * sum over classes of size * chi_i * chi_j * conj(chi_k), with the
division by |G| performed on an integer total and verified exact.  A table
must be complete, one character row per conjugacy class.  A table whose rows
are not orthonormal, or whose products do not decompose with nonnegative
integer multiplicities, is rejected loudly.

Every route passes one gate, :class:`_Evaluation`: the constructor,
:meth:`CharacterTable.validate` and :func:`char_table_ring` on a table built
without validation.  It refuses a table with its first fault, in this order:
its shape, a group table's checks, which bound every total by L, Galois
stability, the conjugate map, the degrees and orthonormality.  Galois-stable:
values lie in Z[zeta_K], K = N/s for s the gcd of N and every exponent they
use, and for each generator a of (Z/K)^x, sigma_a: zeta_K -> zeta_K^a,
applied exactly to each distinct value, permutes the columns within their
class sizes, as sigma_a(chi(g)) = chi(g^b), b prime to |G|, does a group's.
Reindexing a total's sum over the classes shows it fixed by each sigma_a, so
totals are Galois-fixed integers bounded by L, decided modulo q = |Phi_K(w)|
for the least w with (w - 1)^phi(K) > 2L + 1: each root of Phi_K is at least
w - 1 from w, so q > 2L + 1, and zeta_K -> w maps Z[zeta_K] onto Z/q, much as
Dixon computes characters modulo a prime P = 1 (mod N) ("High speed
computation of group characters", Numer. Math. 10, 1967).

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

from .cyclotomic import Cyclotomic, _small_modulus
from .ring import GEN_RANK_BOUND, BasisElement, FusionRing, FusionRingError, InvalidRing, _check_rank
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
        self._evaluation = _Evaluation(self)  # the gate, which raises the table's first fault


class _Evaluation:
    """A table's values in Z/q under zeta_K -> w, and its exact inner product: the gate every table passes.

    A group's table has its identity class first, of size 1, class sizes summing to |G|, values of one
    conductor, and column norms sum_i |chi_i(c)|^2 = |G|/|c|.  So no value at class c exceeds sqrt(|G|/|c|)
    in absolute value, and no total exceeds L = sum over classes of |c| * (|G|/|c|)^(3/2), rounded up.
    ``labelled[i][c]`` numbers chi_i(c) among the distinct values, equal values alike, and ``conjugate[l]``
    labels value l's conjugate (-1 if the table holds none, which a Galois-stable table never does).
    ``rows[i][c]`` is the image of chi_i(c) and ``weighted[k][c]`` that of |c| * conj(chi_k(c)); ``bound``
    is L, ``modulus`` is q, and ``trivial`` is the first row whose every value is 1 (None if none is).
    The last check is orthonormality, so an evaluation exists only for a table that passed every check.
    """

    def __init__(self, table: CharacterTable):
        # what it reads of the table, not the table, which keeps this evaluation: no reference cycle
        self.order, sizes, chars, duals = table.group_order, table.class_sizes, table.characters, table.conjugate_map
        if any(size < 1 for size in sizes):
            raise OrthogonalityFailure("class sizes must be positive")
        if not chars or len(chars) != len(sizes) or any(len(row) != len(sizes) for row in chars):
            raise OrthogonalityFailure(
                f"table has {len(chars)} character rows for {len(sizes)} classes; "
                "it needs one row per class, with one value per class"
            )
        if len(duals) != len(chars):
            raise InvalidRing("conjugate map length mismatch")
        distinct = {id(v): v for row in chars for v in row}  # each value object once, however many hold it
        terms = {key: [(e, x) for e, x in enumerate(v.coeffs) if x] for key, v in distinct.items()}
        n, order = table.conductor, self.order
        if sum(sizes) != order:
            raise OrthogonalityFailure(f"class sizes sum to {sum(sizes)}, group order is {order}")
        if sizes[0] != 1:
            raise OrthogonalityFailure(f"class 0 has size {sizes[0]}; the identity class comes first, of size 1")
        for v in distinct.values():
            if v.conductor != n:
                raise OrthogonalityFailure(f"a value of conductor {v.conductor} in a table of conductor {n}")
        self.bound = 0
        for c, size in enumerate(sizes):
            total = [0] * n  # |c| * sum_i chi_i(c) conj(chi_i(c)), unreduced
            for value in [terms[id(row[c])] for row in chars]:
                for e, x in value:
                    for f, y in value:
                        total[(e - f) % n] += size * x * y
            if (norm := Cyclotomic(n, total)) != order:
                raise OrthogonalityFailure(f"class {c}: |c| * sum_i |chi_i(c)|^2 is {norm!r}, not |G| = {order}")
            self.bound += size * (isqrt((order // size) ** 3 - 1) + 1)
        s = gcd(n, *(e for t in terms.values() for e, _ in t))
        k, index = n // s, {}  # every value lies in Z[zeta_K], K = N/s, and is labelled there
        label = {key: index.setdefault(Cyclotomic(k, v.coeffs[::s]), len(index)) for key, v in distinct.items()}
        self.conjugate = conjugate = [index.get(v.galois(-1), -1) for v in index]
        self.labelled = labelled = [[label[id(v)] for v in row] for row in chars]
        columns = sorted(zip(zip(*labelled), sizes))
        units = {1}  # the subgroup of (Z/K)^x that the units checked so far generate
        for a in range(2, k):
            if gcd(a, k) == 1 and a not in units:
                sigma = [index.get(v.galois(a), -1) for v in index]
                if sorted((tuple(map(sigma.__getitem__, col)), size) for col, size in columns) != columns:
                    raise OrthogonalityFailure(
                        f"the Galois map zeta_{k} -> zeta_{k}^{a} does not permute the columns within their class sizes"
                    )
                power, grown = a, set(units)
                while power not in units:  # grown becomes the subgroup that units and a generate
                    grown |= {u * power % k for u in units}
                    power = power * a % k
                units = grown
        w, m = _small_modulus(k, 2 * self.bound + 1)  # q = |Phi_K(w)| > 2L + 1
        self.modulus = m
        residues = [sum(x * pow(w, e, m) for e, x in enumerate(v.coeffs)) % m for v in index]
        self.rows = [[residues[x] for x in row] for row in labelled]
        self.weighted = [[size * residues[conjugate[x]] % m for size, x in zip(sizes, row)] for row in labelled]
        for i, j in enumerate(duals):
            if duals[j] != i:
                raise InvalidRing("conjugate map is not an involution")
            for c, (a, b) in enumerate(zip(labelled[i], labelled[j])):
                if conjugate[a] != b:
                    raise OrthogonalityFailure(f"row {j} is not the complex conjugate of row {i} at class {c}")
        for row in chars:
            if not row[0].is_integer() or row[0].integer_value() < 1:
                raise InvalidRing("character degree (value at the identity) must be a positive integer")
        one = next((label for label, v in enumerate(index) if v == 1), None)  # the label of 1, if a value is 1
        self.trivial = next((i for i, row in enumerate(labelled) if set(row) == {one}), None)
        # <chi_j, chi_i> is the conjugate of <chi_i, chi_j>, so a pair fails
        # exactly when its mirror does, and the first failure has i <= j.
        for i in range(len(chars)):
            for j in range(i, len(chars)):
                try:
                    val = self.inner(self.rows[i], j)
                except NotIntegral as exc:
                    raise OrthogonalityFailure(f"<chi{i}, chi{j}>: {exc}") from exc
                expect = 1 if i == j else 0
                if val != expect:
                    raise OrthogonalityFailure(f"<chi{i}, chi{j}> = {val}, expected {expect}")

    def inner(self, images: Sequence[int], k: int) -> int:
        """<chi_r1 ... chi_rm, chi_k>, ``images`` the product of rows r1 ... rm: its total is its residue."""
        t = sum(map(mul, images, self.weighted[k])) % self.modulus
        if t > self.modulus // 2:
            t -= self.modulus
        if t % self.order:
            raise NotIntegral(f"inner product total {t} is not divisible by |G| = {self.order}")
        return t // self.order


def char_table_ring(table: CharacterTable, labels: Optional[Sequence[str]] = None) -> FusionRing:
    """Fusion ring of a character table: N[i][j][k] = <chi_i chi_j, chi_k>.

    Every structure constant must reduce to a nonnegative integer.  The gate's orthonormal rows make the
    columns orthogonal, so each row keeps sum_k N[i][j][k] * d_k = d_i * d_j unchecked.  ``labels`` (one
    per character row) defaults to "1" for the trivial character and "chiK" for row K.
    """
    evaluation = getattr(table, "_evaluation", None) or _Evaluation(table)  # None: built without validate
    n, trivial = len(table.characters), evaluation.trivial
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
    modulus, images = evaluation.modulus, evaluation.rows
    degrees = table.degrees
    products: dict[tuple[str, str], dict[str, int]] = {}
    for i in range(n):
        for j in range(i, n):
            product = [a * b % modulus for a, b in zip(images[i], images[j])]
            row = {}
            for k in range(n):
                mult = evaluation.inner(product, k)
                if mult < 0:
                    raise NotIntegral(f"<chi{i} chi{j}, chi{k}> = {mult} is negative")
                if mult:
                    row[labels[k]] = mult
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
# bytecode cache) takes 0.07-0.08 s at N = 4620 and 5040 (medians of 5 runs in three rounds), about 0.5-0.7 ms
# of it in the evaluation, q included.  What a larger N costs is not yet measured.
CONDUCTOR_BOUND = 5040

# The fewest tokens of each directive, and what a shorter line lacks.
_DIRECTIVES = {"group": (3, "a name and an order"), "conductor": (2, "a number"), "class": (2, "a size"),
               "char": (2, "a degree and one value per class"), "dualpair": (3, "two row indices")}


def parse_character_table(text: str) -> CharacterTable:
    """Parse the character table file format; raises ValueError on bad input.

    Errors in a line name its number.  A table of more than ``GEN_RANK_BOUND`` classes raises
    RankTooLarge.  A table that parses but is not a complete orthonormal character table raises
    the errors of :meth:`CharacterTable.validate`.
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
    _check_rank(len(sizes), GEN_RANK_BOUND)  # RankTooLarge before any value is parsed: the ring costs about n^4

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
