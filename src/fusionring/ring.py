"""Exact integer arithmetic for fusion rings.

A fusion ring here is a free abelian group on a finite ordered basis of
labelled elements, each carrying a positive integer degree and a dual
partner, together with nonnegative-integer structure constants
``N[a][b][c] = m(c, a*b)``.  Rings may be *partial*: the decomposition of a
product pair is either fully known or marked Unknown (``None``), never
guessed.  All coefficients are checked against the signed 64-bit range so
that an overflow is a loud error instead of silent nonsense.
"""

from __future__ import annotations

import re
from functools import cached_property
from typing import Iterable, Iterator, Mapping, NamedTuple, Optional, Sequence, Union

INT64_MAX = 2**63 - 1
INT64_MIN = -(2**63)

LABEL_RE = re.compile(r"[A-Za-z0-9_]+\Z")


class FusionRingError(Exception):
    """Base class for all errors raised by this package."""


class UnknownLabel(FusionRingError):
    """A label does not name a basis element of the ring."""


class OverflowDetected(FusionRingError):
    """A coefficient left the checked 64-bit range."""


class UnknownProduct(FusionRingError):
    """An operation needed a product the (partial) ring does not know."""


class InvalidRing(FusionRingError):
    """Ring construction data is structurally malformed.

    ``subject`` is the basis label or the product pair ``(a, b)`` at fault, for
    a dangling dual or a product row naming an unknown label; else None.
    """

    def __init__(self, message: str, subject: Union[str, tuple[str, str], None] = None):
        super().__init__(message)
        self.subject = subject


class NotClosed(FusionRingError):
    """A set expected to be a group under the product is not."""


class RankTooLarge(FusionRingError):
    """The basis rank exceeds a configured enumeration bound."""


class PreconditionUnmet(FusionRingError):
    """An operation's stated precondition does not hold for the input."""


class InvalidSetting(FusionRingError):
    """A run setting, such as a rank bound, is malformed or out of range."""


def _check_rank(rank: int, bound: int, what: str = "bound") -> None:
    """RankTooLarge when ``rank`` exceeds ``bound``; InvalidSetting, naming
    ``rank_bound``, unless ``bound`` is a positive ``int``."""
    if type(bound) is not int or bound < 1:
        raise InvalidSetting(f"rank_bound must be a positive integer, got {bound!r}")
    if rank > bound:
        raise RankTooLarge(f"rank {rank} exceeds {what} {bound}")


# The largest rank `gen cyclic` and `gen so3` build, and the most classes `gen chartable` reads.  Spawned on a
# 2-CPU box, at rank 128 `gen cyclic` took 0.26-0.32 s and 20 MB and `gen so3` 0.4-0.55 s and 32 MB; at 256 they
# took 1.2-1.4 s and 34 MB, and 2.4-3.6 s and 145-147 MB, most of it the so3 ring's 22 MB of spec text.  In-process,
# `char_table_ring` on a Z_n table, whose cost grows about as n^4, takes 0.37 s at n = 60 and 10.3 s at 120.
GEN_RANK_BOUND = 128


class BasisElement(NamedTuple):
    """One basis label with its degree and the label of its dual."""

    label: str
    degree: int
    dual_label: str


def format_terms(terms: Iterable[tuple[str, int]]) -> str:
    """``a + 2*b - c`` text of (label, coefficient) pairs; ``0`` when there are none."""
    text = " + ".join(lab if m == 1 else f"{m}*{lab}" for lab, m in terms)
    return text.replace("+ -", "- ") if text else "0"


ProductTable = Mapping[tuple[str, str], Mapping[str, int]]

_ELEMENT_METHODS = (
    "element", "unit_element", "basic_product", "multiply", "multiplicity", "dual", "degree", "decompose",
)


class FusionRing:
    """Immutable fusion ring on a canonically ordered basis.

    The basis is sorted by ``(degree, label)`` at construction; every report
    and iteration order downstream derives from that ordering, which keeps
    all outputs deterministic.  Construction validates *structure* (label
    syntax and uniqueness, dual involution, unit shape, coefficient ranges);
    the arithmetic identities a genuine fusion ring must satisfy are the
    axiom checker's job, so deliberately corrupt rings can be built for
    diagnosis.
    """

    def __init__(
        self,
        name: str,
        basis: Iterable[BasisElement],
        unit_label: str,
        products: ProductTable,
        truncation_bound: Optional[int] = None,
    ):
        # the name is one token of the spec's ring line, where '#' starts a comment
        if not isinstance(name, str) or name.split() != [name] or "#" in name:
            raise InvalidRing(f"ring name {name!r} must be one token without '#'")
        self.name = name
        basis = tuple(basis)
        try:
            elements = sorted(basis, key=lambda b: (b.degree, b.label))
            duplicated = len({b.label for b in elements}) != len(elements)
        except TypeError:  # a label or degree of another type, refused below with the elements before it
            elements, duplicated = basis, False
        if not elements:
            raise InvalidRing("basis is empty")
        if duplicated:
            raise InvalidRing("duplicate basis labels")
        labels = [b.label for b in elements]
        dimension = 0
        for b in elements:
            if not isinstance(b.label, str) or not LABEL_RE.match(b.label):
                raise InvalidRing(f"bad label {b.label!r}: must match [A-Za-z0-9_]+")
            if type(b.degree) is not int or b.degree < 1:  # exactly int, as multiplicities are
                raise InvalidRing(f"degree of {b.label} must be a positive integer")
            dimension += b.degree**2  # so every degree and subring dimension is in range too
            if dimension > INT64_MAX:
                raise InvalidRing(f"dimension exceeds checked 64-bit range at basis element {b.label!r}", b.label)
        self._elements: tuple[BasisElement, ...] = tuple(elements)
        self._index: dict[str, int] = {b.label: i for i, b in enumerate(elements)}

        dual = []
        for b in elements:
            j = self._index.get(b.dual_label) if isinstance(b.dual_label, str) else None
            if j is None:
                raise InvalidRing(f"dangling dual label {b.dual_label!r} on basis element {b.label!r}", b.label)
            dual.append(j)
        self._dual: tuple[int, ...] = tuple(dual)
        for i, j in enumerate(self._dual):
            if self._dual[j] != i:
                raise InvalidRing(f"dual map is not an involution at {labels[i]}")
            if self._elements[i].degree != self._elements[j].degree:
                raise InvalidRing(f"dual does not preserve degree at {labels[i]}")

        u = self._index.get(unit_label) if isinstance(unit_label, str) else None
        if u is None:
            raise InvalidRing(f"unit label {unit_label!r} not in basis")
        if self._elements[u].degree != 1:
            raise InvalidRing("unit must have degree 1")
        if self._dual[u] != u:
            raise InvalidRing("unit must be self-dual")
        self._unit = u

        if truncation_bound is not None and (type(truncation_bound) is not int or truncation_bound < 1):
            raise InvalidRing("truncation bound must be a positive integer")
        if truncation_bound is not None and truncation_bound % 2 == 0:  # the spec format's rule
            raise InvalidRing(f"truncation bound must be odd, got {truncation_bound}")
        self.truncation_bound = truncation_bound

        rank = len(elements)
        index = self._index
        rows: list[list[Optional[tuple[int, ...]]]] = [[None] * rank for _ in range(rank)]
        # Each distinct dense row is stored once: equal rows share one tuple.
        distinct: dict[tuple[int, ...], tuple[int, ...]] = {}
        # A one-term row object passed for several pairs (a group ring's
        # translates) is checked and made dense once, and held so that its id
        # stays its own.  A spec shares no row of more terms, so none is kept;
        # one passed for a pair and its mirror is taken from the mirror.
        made: dict[int, tuple[Mapping[str, int], tuple[int, ...]]] = {}
        for (a_lab, b_lab), row in products.items():
            seen = made.get(id(row))
            if a_lab in index and b_lab in index:
                a, b = index[a_lab], index[b_lab]
                if seen is None and rows[b][a] is not None and products[b_lab, a_lab] is row:
                    seen = (row, rows[b][a])
                if seen is not None:
                    rows[a][b] = seen[1]
                    continue
            for lab in (a_lab, b_lab, *row):
                if lab not in index:
                    raise InvalidRing(
                        f"product row ({a_lab},{b_lab}) references unknown label {lab!r}", (a_lab, b_lab)
                    )
            vec = [0] * rank
            for c_lab, mult in row.items():
                # exactly int: a bool equals 1 and would stand in for the equal rows it shares
                if type(mult) is not int or mult < 0:
                    raise InvalidRing(f"multiplicity of {c_lab} in ({a_lab},{b_lab}) must be a nonnegative integer")
                if mult > INT64_MAX:
                    raise OverflowDetected(f"coefficient {mult} exceeds checked 64-bit range")
                vec[index[c_lab]] = mult
            dense = tuple(vec)
            dense = distinct.setdefault(dense, dense)
            if len(row) == 1:
                made[id(row)] = (row, dense)
            rows[a][b] = dense

        # Unit rows are implied by the unit law; explicit ones must agree.
        for i in range(rank):
            implied = tuple(1 if k == i else 0 for k in range(rank))
            implied = distinct.setdefault(implied, implied)
            for a, b in ((u, i), (i, u)):
                if rows[a][b] is None:
                    rows[a][b] = implied
                elif rows[a][b] != implied:
                    raise InvalidRing(f"explicit unit row {(a, b)} contradicts the unit law")
        self._rows = rows
        # the lane measures of the kernel, over the distinct rows
        self._max_support = max(len(row) - row.count(0) for row in distinct)
        self._max_entry = max(map(max, distinct))

    # -- basis access -------------------------------------------------------

    @property
    def rank(self) -> int:
        return len(self._elements)

    @property
    def elements(self) -> tuple[BasisElement, ...]:
        return self._elements

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(b.label for b in self._elements)

    @property
    def unit_index(self) -> int:
        return self._unit

    def index(self, label: str) -> int:
        i = self._index.get(label)
        if i is None:
            raise UnknownLabel(f"no basis element labelled {label!r} in ring {self.name!r}")
        return i

    def label(self, index: int) -> str:
        return self._elements[index].label

    def degree_of(self, index: int) -> int:
        return self._elements[index].degree

    def dual_index(self, index: int) -> int:
        return self._dual[index]

    def grouplike_indices(self) -> tuple[int, ...]:
        return tuple(i for i, b in enumerate(self._elements) if b.degree == 1)

    def dimension(self) -> int:
        """Sum of squared degrees over the represented basis."""
        return sum(b.degree**2 for b in self._elements)

    # -- partiality ---------------------------------------------------------

    @cached_property
    def _kernel(self) -> "_RowKernel":
        """The Known rows in the forms the identity checks use; built on first use."""
        return _RowKernel(self._rows, self._max_support, self._max_entry)

    def product_row(self, i: int, j: int) -> Optional[tuple[int, ...]]:
        """Structure-constant row for basic pair (i, j); None when Unknown."""
        return self._rows[i][j]

    def known_pairs(self) -> Iterator[tuple[int, int]]:
        """The Known basic pairs in row-major order."""
        return ((i, j) for i, rows in enumerate(self._rows) for j, row in enumerate(rows) if row is not None)

    @property
    def is_partial(self) -> bool:
        return any(None in rows for rows in self._rows)

    @property
    def is_complete(self) -> bool:
        return not self.is_partial

    # -- rows and elements ------------------------------------------------

    def decompose_row(self, row: Sequence[int]) -> list[tuple[str, int]]:
        """Nonzero coordinates of a dense row, as (label, coefficient) in basis order."""
        return [(self._elements[c].label, m) for c, m in enumerate(row) if m]

    # -- equality / repr ----------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FusionRing):
            return NotImplemented
        return (
            self.name == other.name
            and self._elements == other._elements
            and self._unit == other._unit
            and self._rows == other._rows
            and self.truncation_bound == other.truncation_bound
        )

    def __hash__(self) -> int:
        return hash((self.name, self._elements, self._unit, self.truncation_bound))

    def __repr__(self) -> str:
        kind = "partial " if self.is_partial else ""
        return f"FusionRing({self.name!r}, rank={self.rank}, {kind}dim={self.dimension()})"


class _ElementMethod:
    # Stands on the class for one element method until its first read loads
    # `verify`, which no CLI op loads and which sets its methods in place of these.
    def __init__(self, name):
        self.name = name

    def __get__(self, ring, owner):
        from . import verify

        return getattr(owner if ring is None else ring, self.name)


for _name in _ELEMENT_METHODS:
    setattr(FusionRing, _name, _ElementMethod(_name))


class _RowKernel:
    """Rows indexed ``[i][j]`` in four forms, filled pair by pair with :meth:`place`.

    ``rows`` is a table of dense rows, ``support`` their nonzero coordinates
    ``((c, n), ...)`` in basis order, ``packed`` the integer
    ``sum(n << lane * c)`` and ``basic`` the index b when the row is the basis
    vector b, else -1.  All four are None at an Unknown pair.  A ring's kernel
    shares the ring's own table and is never placed into after it is built;
    the search fills an empty one as it goes.

    The lane rule: when no row has more than ``max_support`` nonzero entries
    and no entry exceeds ``max_entry``, a coordinate of a sum of
    ``m * packed[k][c]`` over one row's support is at most
    ``max_support * max_entry**2``.  ``lane`` is one bit wider than that, so
    no lane carries into the next and packed sums are equal exactly when the
    dense vectors are.  A row beyond either measure must not be placed.
    """

    def __init__(self, rows: list[list[Optional[tuple[int, ...]]]], max_support: int, max_entry: int):
        r = self.rank = len(rows)
        self.rows = rows
        self.lane = (max_support * max_entry**2).bit_length() + 1
        self.support: list[list[Optional[tuple[tuple[int, int], ...]]]] = [[None] * r for _ in range(r)]
        self.packed: list[list[Optional[int]]] = [[None] * r for _ in range(r)]
        self.basic: list[list[Optional[int]]] = [[None] * r for _ in range(r)]
        # Equal rows share their forms and equal (c, n) pairs one tuple.
        self._forms: dict[tuple[int, ...], tuple[tuple[tuple[int, int], ...], int, int]] = {}
        self._pairs: dict[tuple[int, int], tuple[int, int]] = {}
        for i, row_i in enumerate(rows):
            for j, row in enumerate(row_i):
                if row is not None:
                    self.place(i, j, row)

    def place(self, i: int, j: int, row: Optional[tuple[int, ...]]) -> None:
        """Set pair (i, j) to the dense ``row`` in all four forms; None makes it Unknown."""
        self.rows[i][j] = row
        if row is None:
            self.support[i][j] = self.packed[i][j] = self.basic[i][j] = None
            return
        forms = self._forms.get(row)
        if forms is None:
            pairs, lane = self._pairs, self.lane
            support = tuple(pairs.setdefault((c, n), (c, n)) for c, n in enumerate(row) if n)
            basic = support[0][0] if len(support) == 1 and support[0][1] == 1 else -1
            forms = self._forms[row] = (support, sum(n << lane * c for c, n in support), basic)
        self.support[i][j], self.packed[i][j], self.basic[i][j] = forms

    def unpack(self, value: int) -> list[int]:
        """The dense coordinates of a packed sum."""
        mask = (1 << self.lane) - 1
        return [(value >> self.lane * c) & mask for c in range(self.rank)]


def build_ring(
    name: str,
    basis: Sequence[tuple[str, int, str]],
    unit: str,
    products: ProductTable,
    truncation_bound: Optional[int] = None,
) -> FusionRing:
    """Convenience constructor from (label, degree, dual_label) triples."""
    return FusionRing(
        name,
        [BasisElement(lab, deg, dual) for lab, deg, dual in basis],
        unit,
        products,
        truncation_bound,
    )
