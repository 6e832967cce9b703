"""Differential test of the packed-row axiom checker against a naive oracle.

The oracle below is the dense-tensor checker: every associativity instance
expands two dense rows coordinate by coordinate, the grouplike rule
compares ``RingElement`` translates, and every instance formats its witness
eagerly.  On randomly corrupted group rings, character rings and so3
truncations, with rows withheld and with multiplicities near 2**62, the
reports must be equal, witness text included, and so must the stdout of
``check`` and ``verdict`` in text and JSON.
"""

from __future__ import annotations

import contextlib
import io
import tempfile
from pathlib import Path
from typing import Iterator, Optional
from unittest import mock

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import fusionring as fr
from fusionring._axiom_walks import FAIL, PASS, SKIPPED, CheckEntry, Witness, _blocks_agree
from fusionring.axioms import CheckReport
from fusionring.cli import run
from fusionring.ring import INT64_MAX, FusionRing, UnknownProduct

from conftest import (
    abelian_group_ring,
    all_fixture_rings,
    chain_length_one_ring,
    corrupt_z5_ring,
    count4_corrupt_ring,
    factorization_branch_ring,
    order2_branch_ring,
    withhold_rows,
)


# -- the naive dense-tensor oracle ----------------------------------------------


class _Tally:
    """Accumulates instance outcomes for one named check."""

    def __init__(self, name: str):
        self.name = name
        self.passed = 0
        self.failed = 0
        self.skipped = 0
        self.witness: Optional[Witness] = None

    def ok(self) -> None:
        self.passed += 1

    def skip(self) -> None:
        self.skipped += 1

    def fail(self, instance: tuple[str, ...], detail: str) -> None:
        if self.witness is None:
            self.witness = Witness(instance, detail)
        self.failed += 1

    def check(self, condition: bool, instance: tuple[str, ...], detail: str) -> None:
        if condition:
            self.ok()
        else:
            self.fail(instance, detail)

    def entry(self) -> CheckEntry:
        if self.failed:
            status = FAIL
        elif self.skipped:
            status = SKIPPED
        else:
            status = PASS
        return CheckEntry(self.name, status, self.passed, self.failed, self.skipped, self.witness)


def naive_check_axioms(ring: FusionRing) -> CheckReport:
    """Run every ring identity; returns one entry per named check.

    Checks, in order: unit law; duality pairing m(1,ab)=[b=a*]; associativity;
    degree homomorphism; dual compatibility (ab)* = b*a*; Frobenius
    reciprocity m(x,ab)=m(a*,bx*)=m(a,xb*); grouplike rule m(g,ab)=[b=a*g].
    """
    entries = [
        _unit_law(ring),
        _duality_pairing(ring),
        _associativity(ring),
        _degree_homomorphism(ring),
        _dual_compatibility(ring),
        _frobenius(ring),
        _grouplike_rule(ring),
    ]
    return CheckReport(ring.name, tuple(entries))


def _pairs(ring: FusionRing) -> Iterator[tuple[int, int]]:
    r = ring.rank
    for a in range(r):
        for b in range(r):
            yield a, b


def _unit_law(ring: FusionRing) -> CheckEntry:
    t = _Tally("unit_law")
    u = ring.unit_index
    for i in range(ring.rank):
        for a, b in ((u, i), (i, u)):
            row = ring.product_row(a, b)
            if row is None:
                t.skip()
                continue
            expect = tuple(1 if c == i else 0 for c in range(ring.rank))
            t.check(
                row == expect,
                (ring.label(a), ring.label(b)),
                f"unit row {ring.label(a)}*{ring.label(b)} = {row}, expected delta at {ring.label(i)}",
            )
    return t.entry()


def _duality_pairing(ring: FusionRing) -> CheckEntry:
    t = _Tally("duality_pairing")
    u = ring.unit_index
    for a, b in _pairs(ring):
        row = ring.product_row(a, b)
        if row is None:
            t.skip()
            continue
        expect = 1 if b == ring.dual_index(a) else 0
        t.check(
            row[u] == expect,
            (ring.label(a), ring.label(b)),
            f"m(1, {ring.label(a)}*{ring.label(b)}) = {row[u]}, expected {expect}",
        )
    return t.entry()


def _associativity(ring: FusionRing) -> CheckEntry:
    t = _Tally("associativity")
    r = ring.rank

    def expand(outer, pick_row):
        # sum of m * pick_row(t) over the support of the outer row
        acc = [0] * r
        for k, m in enumerate(outer):
            if not m:
                continue
            row = pick_row(k)
            if row is None:
                return None
            for c, n in enumerate(row):
                if n:
                    acc[c] += m * n
        return acc

    for a in range(r):
        for b in range(r):
            ab = ring.product_row(a, b)
            for c in range(r):
                bc = ring.product_row(b, c)
                if ab is None or bc is None:
                    t.skip()
                    continue
                lhs = expand(ab, lambda k: ring.product_row(k, c))
                rhs = expand(bc, lambda k: ring.product_row(a, k))
                if lhs is None or rhs is None:
                    t.skip()
                    continue
                if lhs == rhs:
                    t.ok()
                else:
                    t.fail(
                        (ring.label(a), ring.label(b), ring.label(c)),
                        f"({ring.label(a)}{ring.label(b)}){ring.label(c)} = {_fmt(ring, lhs)} but "
                        f"{ring.label(a)}({ring.label(b)}{ring.label(c)}) = {_fmt(ring, rhs)}",
                    )
    return t.entry()


def _fmt(ring: FusionRing, vec) -> str:
    terms = [
        ring.label(c) if m == 1 else f"{m}*{ring.label(c)}"
        for c, m in enumerate(vec)
        if m
    ]
    return " + ".join(terms) if terms else "0"


def _degree_homomorphism(ring: FusionRing) -> CheckEntry:
    t = _Tally("degree_homomorphism")
    for a, b in _pairs(ring):
        row = ring.product_row(a, b)
        if row is None:
            t.skip()
            continue
        total = sum(n * ring.degree_of(c) for c, n in enumerate(row))
        expect = ring.degree_of(a) * ring.degree_of(b)
        t.check(
            total == expect,
            (ring.label(a), ring.label(b)),
            f"deg({ring.label(a)}*{ring.label(b)}) sums to {total}, expected {expect}",
        )
    return t.entry()


def _dual_compatibility(ring: FusionRing) -> CheckEntry:
    t = _Tally("dual_compatibility")
    for a, b in _pairs(ring):
        row = ring.product_row(a, b)
        mirror = ring.product_row(ring.dual_index(b), ring.dual_index(a))
        if row is None or mirror is None:
            t.skip()
            continue
        ok = all(row[c] == mirror[ring.dual_index(c)] for c in range(ring.rank))
        t.check(
            ok,
            (ring.label(a), ring.label(b)),
            f"({ring.label(a)}{ring.label(b)})* != {ring.label(ring.dual_index(b))}{ring.label(ring.dual_index(a))}",
        )
    return t.entry()


def _frobenius(ring: FusionRing) -> CheckEntry:
    t = _Tally("frobenius_reciprocity")
    r = ring.rank
    for y in range(r):
        for z in range(r):
            row_yz = ring.product_row(y, z)
            for x in range(r):
                row_zxd = ring.product_row(z, ring.dual_index(x))
                row_xzd = ring.product_row(x, ring.dual_index(z))
                if row_yz is None or row_zxd is None or row_xzd is None:
                    t.skip()
                    continue
                v1 = row_yz[x]
                v2 = row_zxd[ring.dual_index(y)]
                v3 = row_xzd[y]
                if v1 == v2 == v3:
                    t.ok()
                else:
                    t.fail(
                        (ring.label(y), ring.label(z), ring.label(x)),
                        f"m({ring.label(x)},{ring.label(y)}{ring.label(z)})={v1}, "
                        f"m({ring.label(y)}*,{ring.label(z)}{ring.label(x)}*)={v2}, "
                        f"m({ring.label(y)},{ring.label(x)}{ring.label(z)}*)={v3}",
                    )
    return t.entry()


def _grouplike_rule(ring: FusionRing) -> CheckEntry:
    t = _Tally("grouplike_rule")
    grouplikes = ring.grouplike_indices()
    for a, b in _pairs(ring):
        row = ring.product_row(a, b)
        for g in grouplikes:
            translate = ring.basic_product(ring.dual_index(a), g)
            if row is None or translate is None:
                t.skip()
                continue
            expect = 1 if translate == ring.element(ring.label(b)) else 0
            t.check(
                row[g] == expect,
                (ring.label(g), ring.label(a), ring.label(b)),
                f"m({ring.label(g)},{ring.label(a)}{ring.label(b)}) = {row[g]}, expected {expect}",
            )
    return t.entry()


def naive_check_stabilizer_rule(ring: FusionRing, x_label: str) -> CheckReport:
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

    grouplikes = ring.grouplike_indices()
    mult_range = _Tally("stabilizer_multiplicity_range")
    fixes = _Tally("stabilizer_fixes_iff_multiplicity")
    for g in grouplikes:
        m = row[g]
        mult_range.check(
            m in (0, 1),
            (ring.label(g), x_label),
            f"m({ring.label(g)},{x_label}{ring.label(xd)}) = {m}, expected 0 or 1",
        )
        gx = ring.basic_product(g, x)
        if gx is None:
            fixes.skip()
            continue
        fixed = gx == ring.element(x_label)
        fixes.check(
            (m == 1) == fixed,
            (ring.label(g), x_label),
            f"m({ring.label(g)},{x_label}{ring.label(xd)}) = {m} but "
            f"{ring.label(g)}*{x_label} {'=' if fixed else '!='} {x_label}",
        )

    stab = [g for g in grouplikes if row[g] == 1]
    closure = _Tally("stabilizer_subgroup")
    u = ring.unit_index
    closure.check(u in stab, (x_label,), f"unit not in stabilizer of {x_label}")
    for g in stab:
        for h in stab:
            gh = ring.basic_product(g, h)
            if gh is None:
                closure.skip()
                continue
            inside = gh.is_basic() and gh.basic_index() in stab
            closure.check(
                inside,
                (ring.label(g), ring.label(h), x_label),
                f"{ring.label(g)}*{ring.label(h)} leaves the stabilizer of {x_label}",
            )

    bound = _Tally("stabilizer_order_bound")
    limit = ring.degree_of(x) ** 2
    bound.check(
        len(stab) <= limit,
        (x_label,),
        f"stabilizer of {x_label} has order {len(stab)} > deg^2 = {limit}",
    )

    return CheckReport(
        ring.name,
        (mult_range.entry(), fixes.entry(), closure.entry(), bound.entry()),
    )


# -- generated rings -------------------------------------------------------------


BASES = tuple(all_fixture_rings()) + (
    fr.so3_truncated(3),
    fr.so3_truncated(13),
    fr.cyclic_group_ring(12),
)
HUGE = 2**62
MULTIPLICITIES = st.integers(0, 3) | st.integers(HUGE - 2, HUGE + 2) | st.just(INT64_MAX)


def _non_unit_rows(ring: FusionRing) -> dict[tuple[str, str], dict[str, int]]:
    u = ring.unit_index
    return {
        (ring.label(a), ring.label(b)): {ring.label(c): m for c, m in enumerate(ring.product_row(a, b)) if m}
        for a, b in ring.known_pairs()
        if u not in (a, b)
    }


@st.composite
def mutated_rings(draw) -> FusionRing:
    """A reference ring with rows withheld, constants overwritten and, so
    that the spec parser still accepts the ring, multiplicity moved between
    labels of equal degree."""
    base = draw(st.sampled_from(BASES))
    rows = _non_unit_rows(base)
    pairs = sorted(rows)
    labels = base.labels
    degree = {b.label: b.degree for b in base.elements}
    if pairs:
        for pair in draw(st.sets(st.sampled_from(pairs), max_size=max(1, len(pairs) // 4))):
            del rows[pair]
        for pair, label, value in draw(
            st.lists(st.tuples(st.sampled_from(pairs), st.sampled_from(labels), MULTIPLICITIES), max_size=3)
        ):
            if pair in rows:
                rows[pair][label] = value
        for pair, src, dst in draw(
            st.lists(st.tuples(st.sampled_from(pairs), st.sampled_from(labels), st.sampled_from(labels)), max_size=3)
        ):
            row = rows.get(pair)
            if row and row.get(src) and degree[src] == degree[dst] and row.get(dst, 0) < INT64_MAX:
                row[src] -= 1
                row[dst] = row.get(dst, 0) + 1
    rows = {pair: {lab: m for lab, m in row.items() if m} for pair, row in rows.items()}
    basis = [(b.label, b.degree, b.dual_label) for b in base.elements]
    return fr.build_ring(
        f"{base.name}_mut", basis, base.label(base.unit_index), rows, base.truncation_bound
    )


def _stabilizers(check, ring: FusionRing) -> list:
    out = []
    for label in ring.labels:
        try:
            out.append(check(ring, label).as_dict())
        except UnknownProduct as exc:
            out.append(str(exc))
    return out


def _assert_same_reports(ring: FusionRing) -> None:
    assert fr.check_axioms(ring).as_dict() == naive_check_axioms(ring).as_dict()
    assert _stabilizers(fr.check_stabilizer_rule, ring) == _stabilizers(naive_check_stabilizer_rule, ring)


def _cli_outputs(path: str) -> list[tuple[int, str, str]]:
    outputs = []
    for argv in (["check", path], ["verdict", path]):
        for fmt in ("text", "json"):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = run(["--format", fmt, *argv])
            outputs.append((code, out.getvalue(), err.getvalue()))
    return outputs


def _assert_same_cli(ring: FusionRing) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / "ring.spec")
        Path(path).write_text(fr.write_spec(ring))
        kernel = _cli_outputs(path)
        with mock.patch("fusionring.axioms.check_axioms", naive_check_axioms), mock.patch(
            "fusionring.axioms.check_stabilizer_rule", naive_check_stabilizer_rule
        ):
            naive = _cli_outputs(path)
    assert kernel == naive


FIXTURES = all_fixture_rings() + [
    corrupt_z5_ring(),
    count4_corrupt_ring(),
    order2_branch_ring(),
    factorization_branch_ring(),
    chain_length_one_ring(),
]


def test_fixture_reports_and_cli_match_the_oracle():
    for ring in FIXTURES:
        _assert_same_reports(ring)
        _assert_same_cli(ring)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(mutated_rings())
def test_generated_reports_match_the_oracle(ring):
    _assert_same_reports(ring)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(mutated_rings())
def test_generated_cli_stdout_matches_the_oracle(ring):
    _assert_same_cli(ring)


def test_lane_width_holds_multiplicities_near_two_to_the_62():
    # (x*x)*x has coordinate 2 * HUGE**2 at x, far beyond one 64-bit lane.
    ring = fr.build_ring("huge", [("1", 1, "1"), ("x", 1, "x")], "1", {("x", "x"): {"1": 1, "x": HUGE}})
    assert ring._kernel.lane == (2 * HUGE**2).bit_length() + 1
    report = fr.check_axioms(ring)
    assert report.as_dict() == naive_check_axioms(ring).as_dict()
    assert report.entry("associativity").status == PASS


# -- the block decision on complete rings ------------------------------------------


def _assert_block_decision_matches_the_oracle(ring: FusionRing) -> bool:
    """The helper decides associativity as the oracle does, and the reports
    are equal; returns the helper's answer."""
    naive = naive_check_axioms(ring)
    agree = _blocks_agree(ring._kernel)
    assert agree == (naive.entry("associativity").status == PASS), ring.name
    assert fr.check_axioms(ring).as_dict() == naive.as_dict()
    return agree


COMPLETE = (
    [ring for ring in FIXTURES if ring.is_complete]
    + [fr.cyclic_group_ring(n) for n in range(1, 61)]
    + [abelian_group_ring(2, 2, 2, 2), abelian_group_ring(2, 24), abelian_group_ring(2, 4, 6)]
)


def test_block_decision_on_complete_rings():
    for ring in COMPLETE:
        if ring.rank > 24:  # the dense oracle is too slow here, and group rings are associative
            assert _blocks_agree(ring._kernel), ring.name
        else:
            _assert_block_decision_matches_the_oracle(ring)


def _single_constant_corruptions(ring: FusionRing) -> Iterator[FusionRing]:
    """``ring`` with one structure constant off by one, or raised by HUGE so
    that each row takes several 64-bit words, at every non-unit pair."""
    basis = [(b.label, b.degree, b.dual_label) for b in ring.elements]
    unit, labels = ring.label(ring.unit_index), ring.labels
    for a, b in ring.known_pairs():
        if ring.unit_index in (a, b):
            continue
        for c in range(ring.rank):
            for step in (1, -1, HUGE):
                if ring.product_row(a, b)[c] + step < 0:
                    continue
                products = {
                    (labels[i], labels[j]): {labels[k]: m for k, m in enumerate(ring.product_row(i, j)) if m}
                    for i, j in ring.known_pairs()
                }
                row = products[(labels[a], labels[b])]
                row[labels[c]] = row.get(labels[c], 0) + step
                yield fr.build_ring(f"{ring.name}_{a}_{b}_{c}_{step}", basis, unit, products)


def test_block_decision_refuses_every_non_associative_corruption():
    # each corruption the oracle fails on associativity must be refused, so
    # a helper that always answers True fails here
    refused = 0
    for base in (fr.cyclic_group_ring(6), fr.s3_character_ring(), fr.a4_character_ring()):
        for ring in _single_constant_corruptions(base):
            refused += not _assert_block_decision_matches_the_oracle(ring)
    assert refused


def test_block_decision_on_a_rank_one_ring():
    ring = fr.cyclic_group_ring(1)
    assert _blocks_agree(ring._kernel)
    assert fr.check_axioms(ring).entry("associativity") == CheckEntry("associativity", PASS, 1, 0, 0)


def test_block_decision_spans_several_words_per_row():
    ring = fr.build_ring("huge", [("1", 1, "1"), ("x", 1, "x")], "1", {("x", "x"): {"1": 1, "x": HUGE}})
    assert -(-ring._kernel.lane * ring.rank // 64) > 1
    assert _assert_block_decision_matches_the_oracle(ring)


def test_partial_ring_keeps_the_per_triple_loop():
    ring = withhold_rows(fr.cyclic_group_ring(6), ("g", "g"))
    with mock.patch("fusionring._axiom_walks._blocks_agree", side_effect=AssertionError):
        entry = fr.check_axioms(ring).entry("associativity")
    assert entry.status == SKIPPED
    _assert_same_reports(ring)
