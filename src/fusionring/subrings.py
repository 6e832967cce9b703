"""Standard subrings, grouplike groups, and the freeness divisibility obstruction.

A standard subring is spanned by a subset of the basis that contains the
unit and is closed under product supports; the dual-closed ones carry a
"Hopf dimension" (sum of squared degrees).  Nested dual-closed subrings
whose dimensions fail to divide are reported as realizability
obstructions: an abstract fusion ring may survive them, a comodule
category of a Hopf algebra cannot.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable, NamedTuple, Optional, Sequence, Union

from .ring import FusionRing, NotClosed, UnknownProduct, _check_rank


class StandardSubring(NamedTuple):
    members: tuple[str, ...]
    hopf_dimension: int
    closed_under_dual: bool

    def as_dict(self) -> dict:
        return {**self._asdict(), "members": list(self.members)}


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
    whole basis of an untruncated ring, where no product can escape.  The
    result depends only on the closed set, not on the seed.
    """
    support = ring._kernel.support
    members: set[int] = {ring.unit_index, *map(ring.index, seed)}
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
    if pending and not (len(members) == ring.rank and ring.truncation_bound is None):
        return IncompleteClosure(labels, tuple((ring.label(a), ring.label(b)) for a, b in sorted(pending)))
    return StandardSubring(labels, sum(ring.degree_of(i) ** 2 for i in members), True)


def enumerate_standard_subrings(ring: FusionRing, *, rank_bound: int = 20) -> list[StandardSubring]:
    """All dual-closed standard subrings generated by at most two basis
    elements, sorted by dimension.

    Closes each basis label once; the distinct closed sets are the atoms.
    Then closes the union of each pair of atoms where neither holds the
    other.  Closures that Unknown products leave incomplete are omitted
    rather than guessed, but their atoms still take part in the joins.  A
    ring of rank above ``rank_bound`` is RankTooLarge, and a ``rank_bound``
    that is not a positive integer is InvalidSetting.
    """
    _check_rank(ring.rank, rank_bound, "enumeration bound")
    # Each closed member set maps to its closure.  A union that is already
    # closed, as when one atom holds the other, is not closed again.
    atoms = (closure(ring, (label,)) for label in ring.labels)
    closed = {frozenset(s.members): s for s in atoms}
    for a, b in combinations(list(closed), 2):
        if a | b not in closed:
            join = closure(ring, a | b)
            closed[frozenset(join.members)] = join
    subrings = [s for s in closed.values() if isinstance(s, StandardSubring)]
    return sorted(subrings, key=lambda s: (s.hopf_dimension, s.members))


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
    targets; NotClosed if the products, duals or associativity say it is not
    one."""
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
    span = range(len(indices))
    for a in span:
        for b in span:
            ab, row_b = table[a][b], table[b]
            for c in span:
                if table[ab][c] != table[a][row_b[c]]:
                    la, lb, lc = (ring.label(indices[k]) for k in (a, b, c))
                    raise NotClosed(f"grouplike product is not associative at ({la}{lb}){lc}")

    # a group now, so every power cycle returns to the unit
    unit_pos = pos[ring.unit_index]
    orders = []
    for k in span:
        power, n = k, 1
        while power != unit_pos:
            power = table[power][k]
            n += 1
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
        pool = enumerate_standard_subrings(ring)
    else:
        pool = [s for s in subrings if s.closed_under_dual]
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
