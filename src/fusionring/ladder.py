"""Degree-3 structure analysis: case splits, the self-dual chain, the
inductive ladder of odd-degree elements, and a top-level verdict.

For a ring with a degree-3 basic element and no even degrees, the analysis
either finds a grouplike of order 2 or 3, certifies the two families
x_{2n+1}, x'_{2n+1} with x_{2n+1}*x3 = x_{2n-1} + x'_{2n+1} + x_{2n+3} up
to the data's truncation, or diagnoses which impossibility branch the
input data falls into.  Impossibility branches are re-derived on the
concrete data, never assumed: malformed inputs get caught, and the
terminal branch constructs its forced subrings and runs the divisibility
obstruction on them.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Union

from .ring import (
    FusionRing,
    FusionRingError,
    NotClosed,
    PreconditionUnmet,
    UnknownProduct,
)

# `axioms`, `subrings` and the failure-branch diagnoses are imported where
# they run: a ladder that reaches the truncation loads none of them.


def __getattr__(name: str):
    # `ladder.check_axioms` resolves to the axioms module's current function,
    # a tracer's wrapper included, though ladder imports it only to run it
    if name == "check_axioms":
        from .axioms import check_axioms

        return check_axioms
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class NotDegreeThree(FusionRingError):
    """The designated element does not have degree 3."""


# -- result variants ----------------------------------------------------------


class GrouplikeFound(NamedTuple):
    label: str
    order: int


class SquareSplit(NamedTuple):
    """x*x^* = 1 + (degree-3 basic) + (degree-5 basic)."""

    deg3_label: str
    deg5_label: str


class Obstruction(NamedTuple):
    description: str


CaseSplitResult = Union[GrouplikeFound, SquareSplit, Obstruction]


class SelfDual(NamedTuple):
    x3_label: str
    x5_label: str
    chain: tuple[str, ...] = ()

    @property
    def chain_length(self) -> int:
        return len(self.chain) - 1


class ChainFailure(NamedTuple):
    trace: tuple[str, ...]
    reason: str


ChainResult = Union[GrouplikeFound, SelfDual, ChainFailure]


class TruncationReached(NamedTuple):
    depth: int


class FailureBranch(NamedTuple):
    kind: str  # impossible_factorization | grouplike_order2 | freeness_violation | inconsistent_data
    diagnosis: str
    grouplike: Optional[str] = None
    order: Optional[int] = None
    violation: Optional[tuple[int, int]] = None
    verified: tuple[str, ...] = ()


class LadderCertificate(NamedTuple):
    """Verified families and relations, or a diagnosed failure branch.

    ``relations`` holds (n, decomposition of x_{2n+1}*x3) for each verified
    step; ``depth_reached`` is the number of such relations.
    """

    x_family: tuple[str, ...]
    xprime_family: tuple[str, ...]
    depth_reached: int
    relations: tuple[tuple[int, tuple[tuple[str, int], ...]], ...]
    terminal_status: Union[TruncationReached, FailureBranch]

    def as_dict(self) -> dict:
        if isinstance(self.terminal_status, TruncationReached):
            terminal = {"kind": "truncation_reached", "depth": self.terminal_status.depth}
        else:
            # the branch's fields, tuples as lists, None and an empty `verified` left out
            t = self.terminal_status
            items = ((k, list(v) if isinstance(v, tuple) else v) for k, v in t._asdict().items())
            terminal = {k: v for k, v in items if v not in (None, [])}
            terminal.update(kind="failure_branch", branch=t.kind)
        return {
            "x_family": list(self.x_family),
            "xprime_family": list(self.xprime_family),
            "depth_reached": self.depth_reached,
            "relations": [
                {"n": n, "product": [[lab, m] for lab, m in decomp]}
                for n, decomp in self.relations
            ],
            "terminal": terminal,
        }


# -- degree-3 case analyses ------------------------------------------------------


def _require_odd_degrees(ring: FusionRing) -> Optional[Obstruction]:
    evens = [b.label for b in ring.elements if b.degree % 2 == 0]
    if evens:
        return Obstruction(f"ring has even-degree basis elements: {', '.join(evens)}")
    return None


def degree3_case_split(ring: FusionRing, x3_label: str) -> CaseSplitResult:
    """Case split on the grouplike content of x3*x3^* - 1 (degree 8).

    Grouplike counts 1, 2, 3, 5, 8 force (with the unit) a group of order
    2, 3, 4, 6 or 9, hence an element of order 2 or 3; counts 4 and 6 are
    impossible without even-degree simples; count 0 forces a degree-3 and
    a degree-5 basic component.
    """
    x = ring.index(x3_label)
    if ring.degree_of(x) != 3:
        raise NotDegreeThree(f"{x3_label} has degree {ring.degree_of(x)}, expected 3")
    obstruction = _require_odd_degrees(ring)
    if obstruction:
        return obstruction

    xd = ring.dual_index(x)
    row = ring.product_row(x, xd)
    if row is None:
        raise UnknownProduct(f"product {x3_label}*{ring.label(xd)} is Unknown")
    xx = f"{x3_label} {ring.label(xd)}"
    unit = ring.unit_index
    if row[unit] != 1:
        return Obstruction(f"m(1, {xx}) = {row[unit]}, expected 1")
    remainder = [0 if c == unit else m for c, m in enumerate(row)]

    grouplikes = ring.grouplike_indices()
    count = sum(remainder[g] for g in grouplikes)

    if count == 0:
        parts = [(c, m) for c, m in enumerate(remainder) if m]
        degrees = sorted(ring.degree_of(c) for c, _ in parts)
        if len(parts) == 2 and all(m == 1 for _, m in parts) and degrees == [3, 5]:
            by_degree = sorted(parts, key=lambda p: ring.degree_of(p[0]))
            return SquareSplit(ring.label(by_degree[0][0]), ring.label(by_degree[1][0]))
        return Obstruction(
            f"{xx} - 1 has no grouplikes but is not "
            f"a degree-3 plus a degree-5 basic: {ring.decompose_row(remainder)}"
        )

    if count in (4, 6):
        return Obstruction(
            f"{count} grouplikes in the degree-8 remainder are impossible "
            "without even-degree simples"
        )
    if count not in (1, 2, 3, 5, 8):
        return Obstruction(
            f"{count} grouplikes in the degree-8 remainder are inconsistent "
            "with the degree accounting"
        )

    members = (unit, *(g for g in grouplikes if remainder[g] >= 1))
    if any(remainder[g] > 1 for g in grouplikes):
        return Obstruction(
            f"a grouplike appears with multiplicity > 1 in {xx}, violating the stabilizer rule"
        )
    from .subrings import _group_on

    try:
        group = _group_on(ring, members)
    except NotClosed as exc:
        return Obstruction(
            f"grouplikes of the remainder do not close under product to a group: {exc}"
        )
    # the group has order 2, 3, 4, 6 or 9, so Cauchy's theorem gives it an
    # element of order 2 or 3
    order, label = min(p for p in zip(group.orders, group.elements) if p[0] in (2, 3))
    return GrouplikeFound(label, order)


def selfdual_chain(ring: FusionRing, x3_label: str) -> ChainResult:
    """Iterate the case split x -> u until it stabilizes on a self-dual
    element with x^2 = 1 + x + x5, short-circuiting on any grouplike find.
    """
    visited = [x3_label]
    current = x3_label
    # each pass returns or visits a new degree-3 element, so the loop ends
    while True:
        result = degree3_case_split(ring, current)
        if isinstance(result, GrouplikeFound):
            return result
        if isinstance(result, Obstruction):
            return ChainFailure(tuple(visited), result.description)
        u, v = result.deg3_label, result.deg5_label
        if u == current:
            return SelfDual(current, v, chain=tuple(visited))
        if u in visited:
            return ChainFailure(tuple(visited + [u]), "chain revisited an element without stabilizing")
        visited.append(u)
        current = u


# -- the ladder ---------------------------------------------------------------


def _check_depth(max_depth: Optional[int]) -> None:
    if max_depth is not None and (type(max_depth) is not int or max_depth < 1):
        raise PreconditionUnmet(f"max_depth must be a positive integer, got {max_depth!r}")


def ladder_build(
    ring: FusionRing,
    x3_label: str,
    max_depth: Optional[int] = None,
) -> LadderCertificate:
    """Build and verify the families x_{2n+1}, x'_{2n+1} from a self-dual x3.

    Requires x3 self-dual with x3^2 = 1 + x3 + x5 (the stabilized outcome of
    the self-dual chain) and an odd-degree-only ring.  Stops at Unknown
    products (TruncationReached), at ``max_depth`` verified relations (a
    positive integer), or in a diagnosed failure branch re-derived from the
    data.
    """
    _check_depth(max_depth)
    x = ring.index(x3_label)
    if ring.degree_of(x) != 3:
        raise NotDegreeThree(f"{x3_label} has degree {ring.degree_of(x)}, expected 3")
    if _require_odd_degrees(ring):
        raise PreconditionUnmet("ring has even-degree basis elements")
    if ring.dual_index(x) != x:
        raise PreconditionUnmet(f"{x3_label} is not self-dual; run the self-dual chain first")

    square = ring.product_row(x, x)
    # Basis indices; labels are built for the certificate and messages only.
    xs = [ring.unit_index, x]
    primes: list[int] = []
    relations: list[tuple[int, tuple[tuple[str, int], ...]]] = []

    # the one place a terminal status is built: no branch is a truncation
    def certificate(branch: Optional[FailureBranch] = None) -> LadderCertificate:
        return LadderCertificate(
            tuple(map(ring.label, xs)), tuple(map(ring.label, primes)),
            len(relations), tuple(relations), branch or TruncationReached(len(relations)),
        )

    if square is None:
        return certificate()
    decomp = ring.decompose_row(square)
    support = [(c, m) for c, m in enumerate(square) if m]
    x5 = next((c for c, m in support if m == 1 and ring.degree_of(c) == 5), None)
    if len(support) != 3 or support[0] != (ring.unit_index, 1) or square[x] != 1 or x5 is None:
        raise PreconditionUnmet(f"{x3_label}^2 = {decomp} is not of the form 1 + {x3_label} + x5")
    xs.append(x5)
    primes.append(x)
    relations.append((1, tuple(decomp)))

    while max_depth is None or len(relations) < max_depth:
        n = len(xs) - 2  # top of the family is x_{2n+3}
        top, prev = xs[-1], xs[-2]
        product = ring.product_row(top, x)
        if product is None:
            return certificate()
        step = f"{ring.label(top)}*{x3_label}"
        if product[prev] != 1:
            return certificate(FailureBranch(
                "inconsistent_data",
                f"m({ring.label(prev)}, {step}) = {product[prev]}, expected 1 by reciprocity",
            ))
        remainder = [0 if c == prev else m for c, m in enumerate(product)]
        if not any(remainder):
            return certificate(FailureBranch(
                "inconsistent_data",
                f"{step} - {ring.label(prev)} is not a nonzero nonnegative element",
            ))
        y0 = next(c for c, m in enumerate(remainder) if m)  # the basis order is (degree, label)
        z0 = list(remainder)  # nonnegative, so basic exactly when it sums to 1
        z0[y0] -= 1
        top_degree = ring.degree_of(top)
        if ring.degree_of(y0) >= top_degree:
            if ring.degree_of(y0) > top_degree:
                return certificate(FailureBranch(
                    "inconsistent_data",
                    f"smallest non-{ring.label(prev)} component of {step} has degree "
                    f"{ring.degree_of(y0)} > {top_degree}, impossible by the degree count",
                ))
            if sum(z0) != 1 or ring.degree_of(z0.index(1)) != top_degree + 2:
                return certificate(FailureBranch(
                    "inconsistent_data",
                    f"{step} - {ring.label(prev)} - {ring.label(y0)} = "
                    f"{ring.decompose_row(z0)} is not a basic element of degree {top_degree + 2}",
                ))
            primes.append(y0)
            xs.append(z0.index(1))
            relations.append((n + 1, tuple(ring.decompose_row(product))))
            continue
        from ._ladder_diagnoses import _descending_diagnosis

        return certificate(_descending_diagnosis(ring, xs, z0, y0))
    return certificate()


# -- verdict ------------------------------------------------------------------


class Verdict(NamedTuple):
    kind: str  # grouplike | ladder | no_degree3 | truncated | obstruction
    grouplike: Optional[str] = None
    order: Optional[int] = None
    certificate: Optional[LadderCertificate] = None
    detail: Optional[str] = None
    dimension: Optional[int] = None
    divisible_by_3: Optional[bool] = None

    def as_dict(self) -> dict:
        d = {k: v for k, v in self._asdict().items() if v is not None}
        if self.certificate is not None:
            d["certificate"] = self.certificate.as_dict()
        return d


def dichotomy_verdict(ring: FusionRing, max_depth: Optional[int] = None) -> Verdict:
    """Top-level dichotomy for odd rings with a degree-3 element.

    Outcomes: a grouplike of order 2 or 3 (with the odd-dimension
    divisibility note when the ring is complete), a ladder certificate,
    ``no_degree3``, a truncation when the first-ranked diagnosis is an Unknown
    product, or an obstruction diagnosis.  Hard axiom failures abort.
    ``max_depth`` caps the ladder as in :func:`ladder_build`.
    """
    from .axioms import check_axioms

    _check_depth(max_depth)
    report = check_axioms(ring)
    if report.has_failures:
        first = next(e for e in report.entries if e.status == "fail")
        return Verdict(
            "obstruction",
            detail=f"axiom check failed: {first.name} ({first.witness.detail})",
        )

    degree3 = [b.label for b in ring.elements if b.degree == 3]
    if not degree3:
        return Verdict("no_degree3")

    # Diagnoses ranked: concrete impossibility branches beat chain failures,
    # which beat Unknown products (a truncation, not a finding); ties keep
    # canonical order.
    diagnoses: list[tuple[int, str]] = []
    attempted: set[str] = set()
    for label in degree3:
        try:
            chain = selfdual_chain(ring, label)
        except UnknownProduct as exc:
            diagnoses.append((2, f"{label}: {exc}"))
            continue
        if isinstance(chain, GrouplikeFound):
            return _grouplike(ring, chain.label, chain.order)
        if isinstance(chain, ChainFailure):
            diagnoses.append((1, f"{label}: {chain.reason}"))
            continue
        if chain.x3_label in attempted:
            continue
        attempted.add(chain.x3_label)
        # The chain left x3*x3^* = 1 + x3 + x5, and dual compatibility, which
        # passed, maps that row to itself, so x3 is self-dual: every
        # precondition of ladder_build holds.
        cert = ladder_build(ring, chain.x3_label, max_depth=max_depth)
        terminal = cert.terminal_status
        if isinstance(terminal, TruncationReached):
            return Verdict("ladder", certificate=cert)
        if terminal.kind == "grouplike_order2":
            return _grouplike(ring, terminal.grouplike, 2)
        diagnoses.append((0, f"{chain.x3_label}: {terminal.kind}: {terminal.diagnosis}"))

    # The first label either returns or adds a diagnosis.
    rank, detail = min(diagnoses, key=lambda d: d[0])
    return Verdict("truncated" if rank == 2 else "obstruction", detail=detail)


def _grouplike(ring: FusionRing, label: str, order: int) -> Verdict:
    if ring.is_complete and ring.truncation_bound is None:
        dim = ring.dimension()
        if dim % 2 == 1:
            return Verdict(
                "grouplike",
                grouplike=label,
                order=order,
                dimension=dim,
                divisible_by_3=(dim % 3 == 0),
            )
    return Verdict("grouplike", grouplike=label, order=order)
