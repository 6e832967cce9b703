"""Identity checks for fusion rings.

Every check a valid ring must satisfy is evaluated over all applicable
basic pairs/triples whose products are Known; instances touching an
Unknown product are counted as skipped, never as passed.  Checks run in a
fixed order and never short-circuit, so a single corrupt constant shows
every downstream symptom.  The walks over the instances sit in
:mod:`fusionring._axiom_walks`; this module assembles their entries.
"""

from __future__ import annotations

from typing import NamedTuple

from ._axiom_walks import (
    FAIL,
    PASS,
    CheckEntry,
    _associativity,
    _frobenius,
    _grouplike_rule,
    _pair_laws,
    _Tally,
    _unit_law,
)
from .ring import FusionRing, UnknownProduct


class CheckReport(NamedTuple):
    """Itemized pass/fail record; every named check appears exactly once."""

    ring_name: str
    entries: tuple[CheckEntry, ...]

    @property
    def all_pass(self) -> bool:
        return all(e.status == PASS for e in self.entries)

    @property
    def has_failures(self) -> bool:
        return any(e.status == FAIL for e in self.entries)

    @property
    def total_skipped(self) -> int:
        return sum(e.skipped for e in self.entries)

    def entry(self, name: str) -> CheckEntry:
        for e in self.entries:
            if e.name == name:
                return e
        raise KeyError(name)

    def as_dict(self) -> dict:
        return {"ring": self.ring_name, "checks": [e.as_dict() for e in self.entries]}


def check_axioms(ring: FusionRing) -> CheckReport:
    """Run every ring identity; returns one entry per named check.

    Checks, in order: unit law; duality pairing m(1,ab)=[b=a*]; associativity;
    degree homomorphism; dual compatibility (ab)* = b*a*; Frobenius
    reciprocity m(x,ab)=m(a*,bx*)=m(a,xb*); grouplike rule m(g,ab)=[b=a*g].
    The duality pairing, degree homomorphism and dual compatibility are
    tallied together in one walk over the pairs (a, b).

    Associativity compares packed rows: each Known row is one integer,
    coordinate c in lane c, from the ring's row kernel; its lane rule (see
    :class:`fusionring.ring._RowKernel`) makes the packed sums for (ab)c and
    a(bc) equal exactly when the dense vectors are.  On a complete ring it
    compares whole blocks of such sums, one pair of buffers per b; a partial
    ring, or a ring whose blocks differ, is walked triple by triple.
    """
    pairing, degrees, duals = _pair_laws(ring)
    entries = (_unit_law(ring), pairing, _associativity(ring), degrees, duals, _frobenius(ring), _grouplike_rule(ring))
    return CheckReport(ring.name, entries)


def check_stabilizer_rule(ring: FusionRing, x_label: str) -> CheckReport:
    """Stabilizer law for one basic element x.

    Verifies m(g,xx*) is 0 or 1, that m(g,xx*)=1 exactly when gx=x, that the
    fixing grouplikes form a product-closed set containing the unit, and that
    their number is at most deg(x)^2.  Requires the product x*x* to be Known.
    """
    x = ring.index(x_label)
    xd = ring.dual_index(x)
    row = ring.product_row(x, xd)
    if row is None:
        raise UnknownProduct(f"product {x_label}*{ring.label(xd)} is Unknown")

    basic = ring._kernel.basic
    grouplikes = ring.grouplike_indices()
    mult_range = _Tally("stabilizer_multiplicity_range")
    fixes = _Tally("stabilizer_fixes_iff_multiplicity")
    for g in grouplikes:
        m = row[g]
        mult_range.check(
            m in (0, 1),
            lambda: (
                (ring.label(g), x_label),
                f"m({ring.label(g)},{x_label}{ring.label(xd)}) = {m}, expected 0 or 1",
            ),
        )
        gx = basic[g][x]
        if gx is None:
            fixes.skip()
            continue
        fixed = gx == x
        fixes.check(
            (m == 1) == fixed,
            lambda: (
                (ring.label(g), x_label),
                f"m({ring.label(g)},{x_label}{ring.label(xd)}) = {m} but "
                f"{ring.label(g)}*{x_label} {'=' if fixed else '!='} {x_label}",
            ),
        )

    stab = [g for g in grouplikes if row[g] == 1]
    closure = _Tally("stabilizer_subgroup")
    u = ring.unit_index
    closure.check(u in stab, lambda: ((x_label,), f"unit not in stabilizer of {x_label}"))
    for g in stab:
        for h in stab:
            gh = basic[g][h]
            if gh is None:
                closure.skip()
                continue
            closure.check(
                gh in stab,
                lambda: (
                    (ring.label(g), ring.label(h), x_label),
                    f"{ring.label(g)}*{ring.label(h)} leaves the stabilizer of {x_label}",
                ),
            )

    bound = _Tally("stabilizer_order_bound")
    limit = ring.degree_of(x) ** 2
    bound.check(
        len(stab) <= limit,
        lambda: ((x_label,), f"stabilizer of {x_label} has order {len(stab)} > deg^2 = {limit}"),
    )

    return CheckReport(
        ring.name,
        (mult_range.entry(), fixes.entry(), closure.entry(), bound.entry()),
    )


def stabilizer_labels(ring: FusionRing, x_label: str) -> tuple[str, ...]:
    """Grouplikes g with m(g, x x*) = 1, from the multiplicity side."""
    x = ring.index(x_label)
    row = ring.product_row(x, ring.dual_index(x))
    if row is None:
        raise UnknownProduct(f"product {x_label}*{ring.label(ring.dual_index(x))} is Unknown")
    return tuple(ring.label(g) for g in ring.grouplike_indices() if row[g] == 1)
