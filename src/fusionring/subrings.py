"""Standard subrings, grouplike groups, and the freeness divisibility obstruction.

A standard subring is spanned by a subset of the basis that contains the
unit and is closed under product supports; the dual-closed ones carry a
"Hopf dimension" (sum of squared degrees).  Nested dual-closed subrings
whose dimensions fail to divide are reported as realizability
obstructions: an abstract fusion ring may survive them, a comodule
category of a Hopf algebra cannot.
"""

from __future__ import annotations

from itertools import chain, combinations
from typing import Iterable, NamedTuple, Optional, Sequence, Union

from .ring import FusionRing, NotClosed, RankTooLarge, UnknownProduct


class StandardSubring(NamedTuple):
    members: tuple[str, ...]
    hopf_dimension: int
    closed_under_dual: bool

    def as_dict(self) -> dict:
        return {
            "members": list(self.members),
            "hopf_dimension": self.hopf_dimension,
            "closed_under_dual": self.closed_under_dual,
        }


class IncompleteClosure(NamedTuple):
    """Closure hit Unknown products that could leave the candidate set."""

    members: tuple[str, ...]
    pending: tuple[tuple[str, str], ...]


class GrouplikeGroup(NamedTuple):
    """Degree-1 elements with their multiplication table and element orders."""

    elements: tuple[str, ...]
    table: tuple[tuple[int, ...], ...]
    orders: tuple[int, ...]

    @property
    def order(self) -> int:
        return len(self.elements)

    def index(self, label: str) -> int:
        return self.elements.index(label)

    def product(self, a: str, b: str) -> str:
        return self.elements[self.table[self.index(a)][self.index(b)]]

    def as_dict(self) -> dict:
        return {
            "elements": list(self.elements),
            "orders": dict(zip(self.elements, self.orders)),
        }


def closure(ring: FusionRing, seed: Iterable[str]) -> Union[StandardSubring, IncompleteClosure]:
    """Smallest basis subset containing the seed and the unit, closed under
    product supports and duals.

    On partial rings the result is sound: if any member-pair product is
    Unknown the closure is Incomplete, except when the set is already the
    whole basis of an untruncated ring, where no product can escape.
    """
    support = ring._kernel.support
    members: set[int] = {ring.unit_index}
    members.update(ring.index(label) for label in seed)
    # Each member taken from the worklist is paired with itself and, in both
    # orders, with every member taken before it: each pair is read once.
    worklist = list(members)
    done: list[int] = []
    pending: list[tuple[int, int]] = []
    while worklist:
        a = worklist.pop()
        pairs = [(a, a)]
        for b in done:
            pairs += ((a, b), (b, a))
        done.append(a)
        for x, y in pairs:
            terms = support[x][y]
            if terms is None:
                pending.append((x, y))
                continue
            for c, _ in terms:
                if c not in members:
                    members.add(c)
                    worklist.append(c)
        dual = ring.dual_index(a)
        if dual not in members:
            members.add(dual)
            worklist.append(dual)

    labels = tuple(ring.label(i) for i in sorted(members))
    whole_basis = len(members) == ring.rank
    if pending and not (whole_basis and ring.truncation_bound is None):
        pending.sort()
        return IncompleteClosure(labels, tuple((ring.label(a), ring.label(b)) for a, b in pending))
    return StandardSubring(labels, sum(ring.degree_of(i) ** 2 for i in members), True)


def enumerate_standard_subrings(
    ring: FusionRing,
    *,
    allow_incomplete: bool = False,
    exhaustive: bool = False,
    rank_bound: int = 20,
) -> list[StandardSubring]:
    """All dual-closed standard subrings, sorted by dimension.

    Seeds every single generator and every pair, then dedups closures; the
    subring lattice of the desk-scale corpus is generated that way.  Pass
    ``exhaustive`` to close every subset instead (rank <= 12 only).  Partial
    rings require ``allow_incomplete``; closures that cannot be completed
    from Known products are then omitted rather than guessed.
    """
    if ring.rank > rank_bound:
        raise RankTooLarge(f"rank {ring.rank} exceeds enumeration bound {rank_bound}")
    if ring.is_partial and not allow_incomplete:
        raise UnknownProduct(
            "ring has Unknown products; pass allow_incomplete to omit unfinished closures"
        )

    labels = ring.labels
    if exhaustive:
        if ring.rank > 12:
            raise RankTooLarge("exhaustive subset enumeration is limited to rank <= 12")
        seeds: Iterable[tuple[str, ...]] = chain.from_iterable(
            combinations(labels, k) for k in range(len(labels) + 1)
        )
    else:
        seeds = chain([()], ((lab,) for lab in labels), combinations(labels, 2))

    found: dict[tuple[str, ...], StandardSubring] = {}
    for seed in seeds:
        result = closure(ring, seed)
        if isinstance(result, IncompleteClosure):
            continue
        found.setdefault(result.members, result)
    return sorted(found.values(), key=lambda s: (s.hopf_dimension, s.members))


def grouplike_group(ring: FusionRing) -> GrouplikeGroup:
    """The degree-1 basis elements as a group; NotClosed if they are not one."""
    indices = ring.grouplike_indices()
    return _group_on(ring, indices)


def stabilizer_group(ring: FusionRing, x_label: str) -> GrouplikeGroup:
    """Subgroup {g grouplike : g*x = x}; order is asserted <= deg(x)^2."""
    x = ring.index(x_label)
    basic = ring._kernel.basic
    fixing = []
    for g in ring.grouplike_indices():
        gx = basic[g][x]
        if gx is None:
            raise UnknownProduct(f"product {ring.label(g)}*{x_label} is Unknown")
        if gx == x:
            fixing.append(g)
    group = _group_on(ring, tuple(fixing))
    limit = ring.degree_of(x) ** 2
    if group.order > limit:
        raise NotClosed(
            f"stabilizer of {x_label} has order {group.order} > deg^2 = {limit}: invalid ring"
        )
    return group


def _group_on(ring: FusionRing, indices: tuple[int, ...]) -> GrouplikeGroup:
    """The group on ``indices`` (unit included), read from the kernel's basic
    targets; NotClosed if the products, duals or powers say it is not one."""
    if ring.unit_index not in indices:
        raise NotClosed("candidate grouplike set does not contain the unit")
    basic = ring._kernel.basic
    pos = {g: k for k, g in enumerate(indices)}
    table = []
    for g in indices:
        row = []
        for h in indices:
            gh = basic[g][h]
            if gh is None:
                raise UnknownProduct(
                    f"grouplike product {ring.label(g)}*{ring.label(h)} is Unknown"
                )
            if gh not in pos:
                raise NotClosed(
                    f"product {ring.label(g)}*{ring.label(h)} leaves the grouplike set"
                )
            row.append(pos[gh])
        table.append(tuple(row))
    for g in indices:
        gd = ring.dual_index(g)
        if gd not in pos or table[pos[g]][pos[gd]] != pos[ring.unit_index]:
            raise NotClosed(f"dual of {ring.label(g)} is not its inverse")

    unit_pos = pos[ring.unit_index]
    orders = []
    for k in range(len(indices)):
        power, n = k, 1
        while power != unit_pos:
            power = table[power][k]
            n += 1
            if n > len(indices):
                raise NotClosed("element order exceeds group size: not a group")
        orders.append(n)
    return GrouplikeGroup(
        tuple(ring.label(g) for g in indices), tuple(table), tuple(orders)
    )


def freeness_obstructions(
    ring: FusionRing,
    subrings: Optional[Sequence[StandardSubring]] = None,
) -> list[tuple[StandardSubring, StandardSubring]]:
    """Nested dual-closed subring pairs whose Hopf dimensions fail to divide.

    For every pair K2 < K1 (the whole ring included when complete) the
    dimension of K2 must divide that of K1 for the ring to come from a
    Hopf algebra; violating pairs are returned, smallest first.
    """
    if subrings is None:
        pool = enumerate_standard_subrings(ring, allow_incomplete=ring.is_partial)
    else:
        pool = [s for s in subrings if s.closed_under_dual]
    pool = list(pool)
    if ring.is_complete:
        whole = StandardSubring(ring.labels, ring.dimension(), True)
        if all(s.members != whole.members for s in pool):
            pool.append(whole)

    violations = []
    for small in pool:
        for big in pool:
            if small.members == big.members:
                continue
            if not set(small.members) <= set(big.members):
                continue
            if big.hopf_dimension % small.hopf_dimension != 0:
                violations.append((small, big))
    violations.sort(key=lambda p: (p[0].hopf_dimension, p[1].hopf_dimension, p[0].members))
    return violations
