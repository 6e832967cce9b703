"""The instance walks behind :func:`fusionring.axioms.check_axioms`.

Each walk tallies one or more named checks over the basic pairs or
triples of a ring and returns their entries; :mod:`fusionring.axioms`
assembles them into a report.  They sit apart from it so that an op
compiles the walks and the report layer as two smaller modules.
"""

from __future__ import annotations

from typing import Callable, NamedTuple, Optional

from .ring import FusionRing, _RowKernel, format_terms

PASS = "pass"
FAIL = "fail"
SKIPPED = "skipped-unknown"


class Witness(NamedTuple):
    """First offending instance of a failed check, with both sides' values."""

    instance: tuple[str, ...]
    detail: str


class CheckEntry(NamedTuple):
    name: str
    status: str
    passed: int
    failed: int
    skipped: int
    witness: Optional[Witness] = None

    def as_dict(self) -> dict:
        d = {k: v for k, v in self._asdict().items() if v is not None}
        if self.witness is not None:
            d["witness"] = {**self.witness._asdict(), "instance": list(self.witness.instance)}
        return d


class _Tally:
    """Accumulates instance outcomes for one named check.

    A failure's instance and detail are built by a ``describe`` callable,
    called only for the first failure, which becomes the witness.
    """

    def __init__(self, name: str):
        self.name = name
        self.passed = 0
        self.failed = 0
        self.skipped = 0
        self.witness: Optional[Witness] = None

    def skip(self) -> None:
        self.skipped += 1

    def fail(self, describe: Callable[[], tuple[tuple[str, ...], str]]) -> None:
        if self.witness is None:
            self.witness = Witness(*describe())
        self.failed += 1

    def check(self, condition: bool, describe: Callable[[], tuple[tuple[str, ...], str]]) -> None:
        if condition:
            self.passed += 1
        else:
            self.fail(describe)

    def entry(self) -> CheckEntry:
        if self.failed:
            status = FAIL
        elif self.skipped:
            status = SKIPPED
        else:
            status = PASS
        return CheckEntry(self.name, status, self.passed, self.failed, self.skipped, self.witness)


def _unit_law(ring: FusionRing) -> CheckEntry:
    # FusionRing fills every unit row and refuses an explicit one that
    # contradicts the unit law, so its 2 * rank instances all hold.
    return CheckEntry("unit_law", PASS, 2 * ring.rank, 0, 0)


def _pair_laws(ring: FusionRing) -> tuple[CheckEntry, CheckEntry, CheckEntry]:
    """Duality pairing, degree homomorphism and dual compatibility, tallied
    in one row-major walk over the pairs (a, b).  All three skip an Unknown
    ab; dual compatibility also skips an Unknown b*a*."""
    pairing, degrees, duals = _Tally("duality_pairing"), _Tally("degree_homomorphism"), _Tally("dual_compatibility")
    kernel = ring._kernel
    u, dual, lane, packed = ring.unit_index, ring._dual, kernel.lane, kernel.packed
    degree = [e.degree for e in ring.elements]
    unknown = 0
    for a, (rows_a, support_a) in enumerate(zip(kernel.rows, kernel.support)):
        da, deg_a = dual[a], degree[a]
        for b, s in enumerate(support_a):
            if s is None:
                unknown += 1
                continue
            row = rows_a[b]
            expect = 1 if b == da else 0
            if row[u] == expect:
                pairing.passed += 1
            else:
                pairing.fail(lambda: (
                    (ring.label(a), ring.label(b)),
                    f"m(1, {ring.label(a)}*{ring.label(b)}) = {row[u]}, expected {expect}",
                ))
            total = sum(n * degree[c] for c, n in s)
            if total == deg_a * degree[b]:
                degrees.passed += 1
            else:
                degrees.fail(lambda: (
                    (ring.label(a), ring.label(b)),
                    f"deg({ring.label(a)}*{ring.label(b)}) sums to {total}, expected {deg_a * degree[b]}",
                ))
            mirror = packed[dual[b]][da]
            if mirror is None:
                duals.skip()
            elif sum(n << lane * dual[c] for c, n in s) == mirror:
                duals.passed += 1
            else:
                duals.fail(lambda: (
                    (ring.label(a), ring.label(b)),
                    f"({ring.label(a)}{ring.label(b)})* != {ring.label(dual[b])}{ring.label(da)}",
                ))
    for t in (pairing, degrees, duals):
        t.skipped += unknown
    return pairing.entry(), degrees.entry(), duals.entry()


def _blocks_agree(kernel: _RowKernel) -> bool:
    """Whether (ab)c == a(bc) for every triple of a ring with every row Known.

    Each packed row is written as ``words`` 64-bit little-endian words.  By
    the lane rule of :class:`fusionring.ring._RowKernel`, every lane of a sum
    of ``m * packed[k][c]`` over one row's support is below ``2**(lane-1)``,
    so such a sum is below ``2**(lane*r)``: it fits its slot and never
    carries into the next.  ``by_row[k]`` lays the rows (k, c) end to end
    over c and ``by_col[k]`` the rows (a, k) over a, so for each b one sum
    per a gives (ab)c laid out [a][c], and one sum per c gives a(bc) laid
    out [c][a].  Blocks are memoised by support, and strided slices of the
    two buffers compare the transposed layouts word by word.
    """
    packed, support, r = kernel.packed, kernel.support, kernel.rank
    words = -(-kernel.lane * r // 64)
    shift, size, stride = 64 * words, 8 * words * r, r * words
    span = range(r)
    by_row = [sum(p << shift * c for c, p in enumerate(row)) for row in packed]
    by_col = [sum(packed[a][k] << shift * a for a in span) for k in span]
    left_memo, right_memo = {}, {}

    def joined(memo: dict, lines: list[int], supports) -> memoryview:
        chunks = []
        for s in supports:
            chunk = memo.get(s)
            if chunk is None:
                chunk = memo[s] = sum(m * lines[k] for k, m in s).to_bytes(size, "little")
            chunks.append(chunk)
        return memoryview(b"".join(chunks)).cast("Q")

    # word j of (ab)c over c against word j of a(bc) over c, for each a
    cuts = [
        (slice(a * stride + j, (a + 1) * stride, words), slice(a * words + j, None, stride))
        for a in span
        for j in range(words)
    ]
    for b in span:
        left = joined(left_memo, by_row, [support[a][b] for a in span])
        right = joined(right_memo, by_col, support[b])
        for x, y in cuts:
            if left[x] != right[y]:
                return False
    return True


def _associativity(ring: FusionRing) -> CheckEntry:
    t = _Tally("associativity")
    kernel = ring._kernel
    support, packed = kernel.support, kernel.packed
    r = ring.rank
    if all(None not in row for row in packed) and _blocks_agree(kernel):
        t.passed = r**3
        return t.entry()
    span = range(r)
    # Bit k of unknown_left[c] is set when (k, c) is Unknown, of
    # unknown_right[a] when (a, k) is: an instance is skipped when the
    # support of ab meets the first or the support of bc the second.
    unknown_left = [sum(1 << k for k in span if packed[k][c] is None) for c in span]
    unknown_right = [sum(1 << k for k in span if packed[a][k] is None) for a in span]
    masks = [[0 if s is None else sum(1 << k for k, _ in s) for s in row] for row in support]
    columns = [[packed[k][c] for k in span] for c in span]
    passed = skipped = 0
    for a in span:
        row_a, missing_a = packed[a], unknown_right[a]
        for b in span:
            ab = support[a][b]
            if ab is None:
                skipped += r
                continue
            mask_ab, row_b, masks_b = masks[a][b], support[b], masks[b]
            for c in span:
                bc = row_b[c]
                if bc is None or mask_ab & unknown_left[c] or masks_b[c] & missing_a:
                    skipped += 1
                    continue
                column = columns[c]
                lhs = 0
                for k, m in ab:
                    lhs += m * column[k]
                rhs = 0
                for k, m in bc:
                    rhs += m * row_a[k]
                if lhs == rhs:
                    passed += 1
                    continue
                la, lb, lc = ring.label(a), ring.label(b), ring.label(c)
                t.fail(lambda: (
                    (la, lb, lc),
                    f"({la}{lb}){lc} = {format_terms(ring.decompose_row(kernel.unpack(lhs)))} but "
                    f"{la}({lb}{lc}) = {format_terms(ring.decompose_row(kernel.unpack(rhs)))}",
                ))
    t.passed += passed
    t.skipped += skipped
    return t.entry()


def _frobenius(ring: FusionRing) -> CheckEntry:
    """Counts instances z-major, comparing whole x-columns at once where
    every row is Known; the witness is the failing (y, z, x) that comes
    first in y-major order."""
    t = _Tally("frobenius_reciprocity")
    rows = ring._kernel.rows
    dual = ring._dual
    r = ring.rank
    span = range(r)
    passed = skipped = failed = 0
    first = None
    for z in span:
        zx = [rows[z][dual[x]] for x in span]  # row (z, x*) at x
        xz = [rows[x][dual[z]] for x in span]  # row (x, z*) at x
        known = None not in zx and None not in xz
        if known:
            zx_at, xz_at = list(zip(*zx)), list(zip(*xz))  # [coordinate][x]
        for y in span:
            yz = rows[y][z]
            if yz is None:
                skipped += r
                continue
            dy = dual[y]
            if known and yz == zx_at[dy] == xz_at[y]:
                passed += r
                continue
            for x in span:
                if zx[x] is None or xz[x] is None:
                    skipped += 1
                elif yz[x] == zx[x][dy] == xz[x][y]:
                    passed += 1
                else:
                    failed += 1
                    if first is None or (y, z, x) < first:
                        first = (y, z, x)
    t.passed, t.skipped, t.failed = passed, skipped, failed
    if first is not None:
        y, z, x = first
        ly, lz, lx = ring.label(y), ring.label(z), ring.label(x)
        t.witness = Witness(
            (ly, lz, lx),
            f"m({lx},{ly}{lz})={rows[y][z][x]}, "
            f"m({ly}*,{lz}{lx}*)={rows[z][dual[x]][dual[y]]}, "
            f"m({ly},{lx}{lz}*)={rows[x][dual[z]][y]}",
        )
    return t.entry()


def _grouplike_rule(ring: FusionRing) -> CheckEntry:
    """For each a, compares the g-columns of the rows (a, b) with the
    indicator of the translate a*g when every row is Known, and walks the
    instances (a, b, g) one by one otherwise or on a mismatch."""
    t = _Tally("grouplike_rule")
    kernel = ring._kernel
    grouplikes = ring.grouplike_indices()
    r = ring.rank
    span = range(r)
    indicator = {b: tuple(1 if k == b else 0 for k in span) for b in span}
    indicator[-1] = (0,) * r
    for a in span:
        rows_a = kernel.rows[a]
        translates = [kernel.basic[ring.dual_index(a)][g] for g in grouplikes]
        if None not in rows_a and None not in translates:
            columns = list(zip(*rows_a))  # [g][b]
            if all(columns[g] == indicator[tr] for g, tr in zip(grouplikes, translates)):
                t.passed += r * len(grouplikes)
                continue
        for b in span:
            row = rows_a[b]
            for g, tr in zip(grouplikes, translates):
                if row is None or tr is None:
                    t.skip()
                    continue
                expect = 1 if tr == b else 0
                t.check(
                    row[g] == expect,
                    lambda: (
                        (ring.label(g), ring.label(a), ring.label(b)),
                        f"m({ring.label(g)},{ring.label(a)}{ring.label(b)}) = {row[g]}, expected {expect}",
                    ),
                )
    return t.entry()
