"""Sparse ring elements and the independent re-check of ladder certificates.

No CLI op loads this module.  When it loads, it sets the ring's element
methods (``element``, ``multiply``, ``decompose`` and the rest) on
``FusionRing``; the ops themselves read the dense rows only.
"""

from __future__ import annotations

from typing import Mapping, Optional

from .ring import _ELEMENT_METHODS, INT64_MAX, INT64_MIN, FusionRing, FusionRingError, OverflowDetected, format_terms


def _check64(value: int) -> int:
    if value > INT64_MAX or value < INT64_MIN:
        raise OverflowDetected(f"coefficient {value} exceeds checked 64-bit range")
    return value


class RingElement:
    """Sparse integer coordinate vector over a ring's basis.

    Supports the table-free abelian-group operations (``+``, ``-``, integer
    scaling); multiplication lives on :meth:`FusionRing.multiply` because it
    may be Unknown on partial rings.
    """

    __slots__ = ("ring", "_coords")

    def __init__(self, ring: FusionRing, coords: Mapping[int, int]):
        self.ring = ring
        self._coords = {i: _check64(v) for i, v in coords.items() if v != 0}

    def is_zero(self) -> bool:
        return not self._coords

    def is_nonnegative(self) -> bool:
        """True iff every coefficient is >= 0 (the positivity cone)."""
        return all(v >= 0 for v in self._coords.values())

    def is_basic(self) -> bool:
        """True iff the element is a single basis vector with coefficient 1."""
        return len(self._coords) == 1 and next(iter(self._coords.values())) == 1

    def basic_index(self) -> int:
        if not self.is_basic():
            raise ValueError("element is not basic")
        return next(iter(self._coords))

    def __add__(self, other: "RingElement") -> "RingElement":
        coords = dict(self._coords)
        for i, v in _own(self.ring, other)._coords.items():
            coords[i] = coords.get(i, 0) + v
        return RingElement(self.ring, coords)

    def __sub__(self, other: "RingElement") -> "RingElement":
        return self + (-other)

    def __neg__(self) -> "RingElement":
        return RingElement(self.ring, {i: -v for i, v in self._coords.items()})

    def __rmul__(self, scalar: int) -> "RingElement":
        if not isinstance(scalar, int):
            return NotImplemented
        return RingElement(self.ring, {i: scalar * v for i, v in self._coords.items()})

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RingElement):
            return NotImplemented
        return self.ring is other.ring and self._coords == other._coords

    def __hash__(self) -> int:
        return hash((id(self.ring), tuple(sorted(self._coords.items()))))

    def __repr__(self) -> str:
        return format_terms(self.ring.decompose(self))


def element(ring: FusionRing, label: str) -> RingElement:
    """Basis injection: the element with coefficient 1 at ``label``."""
    return RingElement(ring, {ring.index(label): 1})


def unit_element(ring: FusionRing) -> RingElement:
    return RingElement(ring, {ring._unit: 1})


def basic_product(ring: FusionRing, i: int, j: int) -> Optional[RingElement]:
    row = ring._rows[i][j]
    return None if row is None else RingElement(ring, {c: v for c, v in enumerate(row) if v})


def multiply(ring: FusionRing, a: RingElement, b: RingElement) -> Optional[RingElement]:
    """Bilinear product; None when any contributing basic pair is Unknown."""
    _own(ring, a)
    _own(ring, b)
    acc: dict[int, int] = {}
    for i, ci in a._coords.items():
        for j, cj in b._coords.items():
            row = ring._rows[i][j]
            if row is None:
                return None
            scale = ci * cj
            for c, n in enumerate(row):
                if n:
                    acc[c] = acc.get(c, 0) + scale * n
    return RingElement(ring, acc)


def multiplicity(ring: FusionRing, w: RingElement, z: RingElement) -> int:
    """Biadditive multiplicity pairing: sum of coordinatewise products."""
    small, large = sorted((_own(ring, w)._coords, _own(ring, z)._coords), key=len)
    return _check64(sum(v * large.get(i, 0) for i, v in small.items()))


def dual(ring: FusionRing, z: RingElement) -> RingElement:
    return RingElement(ring, {ring._dual[i]: v for i, v in _own(ring, z)._coords.items()})


def degree(ring: FusionRing, z: RingElement) -> int:
    return _check64(sum(v * ring._elements[i].degree for i, v in _own(ring, z)._coords.items()))


def decompose(ring: FusionRing, z: RingElement) -> list[tuple[str, int]]:
    """Nonzero coordinates in canonical basis order."""
    return [(ring._elements[i].label, v) for i, v in sorted(_own(ring, z)._coords.items()) if v]


def _own(ring: FusionRing, z: RingElement) -> RingElement:
    if z.ring is not ring:
        raise FusionRingError("element belongs to a different ring")
    return z


for _name in _ELEMENT_METHODS:
    setattr(FusionRing, _name, globals()[_name])


def verify_certificate(ring: FusionRing, cert: "LadderCertificate") -> bool:
    """Independent re-check of a certificate by direct multiply/decompose.

    A certificate of depth d must hold, in tuples, relations numbered 1..d
    in order, the basis labels x_1, ..., x_{2d+3} and x'_3, ..., x'_{2d+1},
    each x_{2k+1} and x'_{2k+1} of degree 2k+1, and the terminal
    ``TruncationReached(d)``.
    Each recorded x_{2n+1}*x3 is then recomputed and compared both to its
    recorded decomposition and to x_{2n-1} + x'_{2n+1} + x_{2n+3}.
    """
    from .ladder import TruncationReached
    depth, terminal = cert.depth_reached, cert.terminal_status
    degree_of = {b.label: b.degree for b in ring.elements}
    if (
        type(depth) is not int
        or not all(isinstance(f, tuple) for f in (cert.relations, cert.x_family, cert.xprime_family))
        or len(cert.relations) != depth
        or any(not isinstance(r, tuple) or len(r) != 2 or r[0] != n for n, r in enumerate(cert.relations, 1))
        or len(cert.x_family) != depth + 2
        or len(cert.xprime_family) != depth
        or not isinstance(terminal, TruncationReached)
        or terminal.depth != depth
        or not all(isinstance(label, str) for label in cert.x_family + cert.xprime_family)
        or any(degree_of.get(label) != 2 * k + 1 for k, label in enumerate(cert.x_family))
        or any(degree_of.get(label) != 2 * k + 3 for k, label in enumerate(cert.xprime_family))
    ):
        return False
    e_x3 = ring.element(cert.x_family[1])
    for n, recorded in cert.relations:
        product = ring.multiply(ring.element(cert.x_family[n]), e_x3)
        if product is None or tuple(ring.decompose(product)) != recorded:
            return False
        expected = (
            ring.element(cert.x_family[n - 1])
            + ring.element(cert.xprime_family[n - 1])
            + ring.element(cert.x_family[n + 1])
        )
        if product != expected:
            return False
    return True
