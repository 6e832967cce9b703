"""The ladder's failure branches, diagnosed when a step descends.

When the smallest new component of x_{2n+3}*x3 has degree below 2n+3,
:func:`fusionring.ladder.ladder_build` imports this module and asks
:func:`_descending_diagnosis` which of the paper's branches the data falls
into: the impossible factorization, the grouplike of order 2, or the
freeness-terminal configuration.  A ladder that reaches its truncation
never loads it.
"""

from __future__ import annotations

from typing import Optional

from .ladder import FailureBranch
from .ring import FusionRing


def _descending_diagnosis(ring: FusionRing, xs: list[int], z0: list[int], y0: int) -> Optional[FailureBranch]:
    """Diagnose which impossibility branch fires when the smallest new
    component y0 of x_{2n+3}*x3 has degree below 2n+3.

    Walks the descending chain y0, y1, ... while products are Known,
    verifies y_{k-t} = y_k*x_{2t+1} at each stage, and classifies the end:
    the impossible factorization (k < n), the order-2 grouplike branch (k = n,
    z0 basic), or the terminal branch (k = n = 1, z0 a sum of three
    degree-3 elements) whose forced subrings feed the divisibility check.
    When the chain needs an Unknown product the data's shape decides
    between the terminal branch and plain truncation (None).
    """
    n = len(xs) - 2
    x, top = xs[1], xs[-1]
    x3_label = ring.label(x)

    # Walk the chain; y_{-1} is the current top of the family.
    ys = [y0]
    while True:
        cur = ys[-1]
        q = ring.product_row(cur, x)
        if q is None:
            return _shape_fallback(ring, xs, z0, y0, n)
        prev = ys[-2] if len(ys) >= 2 else top
        if q[prev] != 1:
            return FailureBranch(
                "inconsistent_data",
                f"m({ring.label(prev)}, {ring.label(cur)}*{x3_label}) != 1 in the descending chain",
            )
        if sum(q) == 1:
            break  # y_k * x3 = y_{k-1}
        y_next = next(c for c, m in enumerate(q) if m and c != prev)
        if ring.degree_of(y_next) >= ring.degree_of(cur):
            return FailureBranch(
                "inconsistent_data",
                f"descending chain does not descend: deg({ring.label(y_next)}) >= "
                f"deg({ring.label(cur)})",
            )
        ys.append(y_next)

    k = len(ys) - 1
    # Chain-step identities y_{k-t} = y_k * x_{2t+1} for t = 1..k; the
    # t = k+1 case is the factorization x_{2n+3} = y_k * x_{2k+3}.
    y_k = ys[-1]
    y_label = ring.label(y_k)
    verified: list[str] = []
    for t in range(1, k + 2):
        rhs = ring.product_row(y_k, xs[t])
        target = ys[k - t] if t <= k else top
        factors = f"{y_label}*{ring.label(xs[t])}"
        if rhs is None:
            verified.append(f"chain t={t}: skipped (Unknown product)")
            continue
        if rhs[target] == sum(rhs) == 1:
            verified.append(f"chain t={t}: {ring.label(target)} = {factors}")
        else:
            return FailureBranch(
                "impossible_factorization" if t == k + 1 else "inconsistent_data",
                f"identity {ring.label(target)} = {factors} fails on the data "
                f"({factors} = {ring.decompose_row(rhs)}): "
                "the descending configuration is not realizable",
                verified=tuple(verified),
            )

    if k < n:
        branch = FailureBranch(
            "impossible_factorization",
            f"the chain ends at k = {k} < n = {n}: "
            f"{ring.label(top)} = {y_label}*{ring.label(xs[k + 1])} cannot hold in a valid "
            "ring (its product with x3 has no room for the forced components)",
        )
    # k = n: the chain's n + 1 odd degrees fall strictly from below 2n + 3,
    # so the chain end y_n has degree 1, a grouplike g.
    elif sum(z0) == 1:
        branch = _order2_branch(ring, y_k)
    else:
        branch = _terminal_branch(ring, xs, z0, n)
    return branch and branch._replace(verified=tuple(verified))


def _order2_branch(ring: FusionRing, g: int) -> Optional[FailureBranch]:
    """The order-2 branch for the grouplike g with y0 = g*x_{2n+1}; None for an Unknown g*g.

    g is never the unit: unit rows are always Known, so both callers would
    have checked y0 = 1*x_{2n+1} = x_{2n+1}, the component of x_{2n+3}*x3
    that the ladder step excludes before choosing y0.
    """
    g_label = ring.label(g)
    g_sq = ring.product_row(g, g)
    if g_sq is None:
        return None
    if g_sq[ring.unit_index] == sum(g_sq) == 1:
        return FailureBranch(
            "grouplike_order2",
            f"z0 basic forces {g_label}^2 = 1: grouplike of order 2",
            grouplike=g_label,
            order=2,
        )
    return FailureBranch(
        "inconsistent_data",
        f"z0 is basic so {g_label} must square to 1, but {g_label}^2 = {ring.decompose_row(g_sq)}",
    )


def _terminal_branch(ring: FusionRing, xs: list[int], z0: list[int], n: int) -> Optional[FailureBranch]:
    """The forced subrings' divisibility check; None when a closure is incomplete."""
    parts = ring.decompose_row(z0)
    if n != 1 or sum(z0) != 3 or any(ring.degree_of(c) != 3 for c, m in enumerate(z0) if m):
        return FailureBranch(
            "inconsistent_data",
            f"non-basic z0 = {parts} with n = {n} violates the degree accounting "
            "(three degree-3 components at n = 1 are forced)",
        )
    from .subrings import IncompleteClosure, closure, freeness_obstructions

    sub_small = closure(ring, {ring.label(xs[2])})
    sub_big = closure(ring, {ring.label(xs[1])})
    if isinstance(sub_small, IncompleteClosure) or isinstance(sub_big, IncompleteClosure):
        return None
    violations = freeness_obstructions(ring, [sub_small, sub_big])
    if violations:
        small, big = violations[0]
        return FailureBranch(
            "freeness_violation",
            f"terminal configuration: the forced subring of dimension "
            f"{small.hopf_dimension} sits inside one of dimension {big.hopf_dimension}, "
            f"and {small.hopf_dimension} does not divide {big.hopf_dimension} — "
            "no realizable ring contains this data",
            violation=(small.hopf_dimension, big.hopf_dimension),
        )
    return FailureBranch(
        "inconsistent_data",
        "terminal configuration reached but the forced subrings show no "
        "divisibility violation",
    )


def _shape_fallback(ring: FusionRing, xs: list[int], z0: list[int], y0: int, n: int) -> Optional[FailureBranch]:
    """Chain products are Unknown; classify from the shape already computed."""
    if n != 1 or ring.degree_of(y0) != 3:
        return None
    if sum(z0) != 1:
        return _terminal_branch(ring, xs, z0, n)
    # Identify g with y0 = g*x3 from Known rows, if possible.
    for g in ring.grouplike_indices():
        if (gx := ring.product_row(g, xs[1])) is not None and gx[y0] == sum(gx) == 1:
            return _order2_branch(ring, g)
    return None
