"""Exhaustive enumeration of fusion rings with prescribed degrees.

Backtracking over structure-constant rows in canonical pair order, once per
conjugacy class of dual involutions, at the class's least member: a
relabelling within equal-degree blocks conjugates the dual, so a ring's
least relabelling has the least dual of its class.  A solution is kept when
no relabelling that fixes its dual makes its rows smaller (a lex-leader
rule, Crawford, Ginsberg, Luks & Roy, 1996), so each ring is emitted once,
as its least relabelling.  The pruning is the point: duality pairing pins
the unit coordinate, reciprocity mirrors pin coordinates against placed
rows, grouplike rows are forced to be single basic translates, row degree
sums bound the vectors, and associativity is checked on packed rows for
every triple with the new row as an outer pair.  Forward checking (Haralick
& Elliott, 1980) is exact: a placed row backs up at once when some unplaced
row that mirrors it has no candidate at all (``_candidates`` yields it no
first row).  Survivors still have to pass the full axiom checker before
they are emitted.  The rows live in one :class:`fusionring.ring._RowKernel`,
placed and cleared as the search goes.
"""

from __future__ import annotations

from itertools import permutations, product
from typing import Iterator, Optional, Sequence

from .ring import FusionRing, PreconditionUnmet, _check_rank, _RowKernel, build_ring

DEFAULT_RANK_BOUND = 6


def _block_permutations(rank: int, blocks: Sequence[Sequence[int]]) -> Iterator[list[int]]:
    """Every relabelling within ``blocks``, as ``src``: new index i was ``src[i]``."""
    for images in product(*(permutations(block) for block in blocks)):
        src = list(range(rank))
        for block, image in zip(blocks, images):
            for new, old in zip(block, image):
                src[new] = old
        yield src


class _Search:
    """One backtracking run for a fixed dual involution.

    Rows live in ``kernel``, a row kernel built empty with room for ``rank``
    entries of at most ``max_mult`` per row; the unit rows are placed first,
    and each candidate is placed and cleared with ``kernel.place``.
    """

    def __init__(self, degrees: tuple[int, ...], max_mult: int, dual: tuple[int, ...]):
        r = self.rank = len(degrees)
        self.deg = degrees
        self.max_mult = max_mult
        self.dual = dual
        self.pairs = [(a, b) for a in range(1, r) for b in range(1, r)]
        kernel = self.kernel = _RowKernel([[None] * r for _ in range(r)], r, max_mult)
        # basis[i]: the basis vector e_i, the unit rows and grouplike candidates
        self.basis = [tuple(int(c == i) for c in range(r)) for i in range(r)]
        for i in range(r):
            kernel.place(0, i, self.basis[i])
            kernel.place(i, 0, self.basis[i])
        # reads[a][b]: (c, kernel.rows[x], y, coord) when coordinate c of row
        # (a,b) mirrors coordinate coord of row (x,y); unit rows only repeat
        # the duality pin of coordinate 0, so they are left out.
        # readers[x][y]: the pairs (a,b) that read (x,y), as dict keys.
        self.reads: list[list[list[tuple]]] = [[[] for _ in range(r)] for _ in range(r)]
        self.readers: list[list[dict[tuple[int, int], None]]] = [[{} for _ in range(r)] for _ in range(r)]
        rows, readers = kernel.rows, self.readers
        for a, b in self.pairs:
            reads, da, db = self.reads[a][b], dual[a], dual[b]
            for c in range(r):
                dc = dual[c]
                for x, y, coord in (
                    (b, dc, da),  # m(x,yz) = m(y*, zx*)
                    (c, db, a),  # m(x,yz) = m(y, xz*)
                    (db, da, dc),  # (yz)* = z*y*
                ):
                    if x and y and (x != a or y != b):
                        reads.append((c, rows[x], y, coord))
                        readers[x][y][a, b] = None
        self.solutions: list[list[list[tuple[int, ...]]]] = []

    # -- candidate rows -------------------------------------------------------

    def _pinned(self, a: int, b: int) -> Optional[dict[int, int]]:
        """Coordinate pins for row (a,b) from duality and placed mirrors."""
        pins = {0: int(b == self.dual[a])}
        for c, rows_x, y, coord in self.reads[a][b]:
            row = rows_x[y]
            if row is not None and pins.setdefault(c, row[coord]) != row[coord]:
                return None
        return pins

    def _candidates(self, a: int, b: int) -> Iterator[tuple[int, ...]]:
        """The rows that fit the pins and degree sum of (a,b), made lazily."""
        pins = self._pinned(a, b)
        if pins is None:
            return
        deg, r, max_mult = self.deg, self.rank, self.max_mult
        vec = [0] * r
        target = left = deg[a] * deg[b]
        for c, v in pins.items():
            vec[c] = v
            left -= v * deg[c]
        if deg[a] == 1 or deg[b] == 1:
            # A grouplike translate of a basic element is basic.  e_c fits when its
            # pin is 1 or unset and the other pins are 0: left is (1 - vec[c]) * target.
            for c in range(r):
                if deg[c] == target and pins.get(c, 1) == 1 and left == (1 - vec[c]) * target:
                    yield self.basis[c]
            return
        free = [c for c in range(r) if c not in pins]
        # tail[i]: the most that free[i:] can add to the degree sum
        tail = [0] * (len(free) + 1)
        for i in range(len(free) - 1, -1, -1):
            tail[i] = tail[i + 1] + max_mult * deg[free[i]]

        def fill(i: int, left: int) -> Iterator[tuple[int, ...]]:
            if i == len(free):
                yield tuple(vec)
                return
            c, d = free[i], deg[free[i]]
            low = max(0, -(-(left - tail[i + 1]) // d))
            for v in range(low, min(max_mult, left // d) + 1):
                vec[c] = v
                yield from fill(i + 1, left - v * d)
            vec[c] = 0

        if 0 <= left <= tail[0]:
            yield from fill(0, left)

    # -- associativity and forward checking -----------------------------------

    def _triple_holds(self, p: int, q: int, s: int) -> bool:
        """(pq)s == p(qs) on packed rows when every needed row is placed;
        True if undecidable yet."""
        support, packed = self.kernel.support, self.kernel.packed
        pq, qs = support[p][q], support[q][s]
        if pq is None or qs is None:
            return True
        lhs = rhs = 0
        for t, m in pq:
            row = packed[t][s]
            if row is None:
                return True
            lhs += m * row
        packed_p = packed[p]
        for t, m in qs:
            row = packed_p[t]
            if row is None:
                return True
            rhs += m * row
        return lhs == rhs

    def _consistent_after(self, a: int, b: int) -> bool:
        """Row (a,b) was just placed.  The triples with (a,b) as an outer pair
        associate (inner-row completions are caught by the final axiom check
        on emitted solutions), and every unplaced row reading (a,b) has a first
        candidate: the forward check is exact, since pins only grow."""
        for x in range(1, self.rank):
            if not (self._triple_holds(a, b, x) and self._triple_holds(x, a, b)):
                return False
        rows, readers = self.kernel.rows, self.readers[a][b]
        return all(rows[x][y] is not None or next(self._candidates(x, y), None) is not None for x, y in readers)

    # -- driving --------------------------------------------------------------

    def run(self, pos: int = 0) -> None:
        """Every solution from pair ``pos`` on."""
        if pos == len(self.pairs):
            self.solutions.append([list(row) for row in self.kernel.rows])
            return
        a, b = self.pairs[pos]
        place = self.kernel.place
        # Made lazily while deeper rows come and go, yet the same as if made at
        # once: the pins are read at the first row, every deeper row is cleared
        # before the next is asked for, and (a,b) is not among its own reads.
        for cand in self._candidates(a, b):
            place(a, b, cand)  # replaces the previous candidate
            if self._consistent_after(a, b):
                self.run(pos + 1)
        place(a, b, None)


def _labels_for(degrees: tuple[int, ...]) -> tuple[str, ...]:
    labels = ["1"]
    counters: dict[int, int] = {}
    for d in degrees[1:]:
        counters[d] = counters.get(d, 0) + 1
        labels.append(f"d{d}n{counters[d]}")
    return tuple(labels)


def _is_least(rows: list[list[tuple[int, ...]]], pairs: list[tuple[int, int]], relabellings: list[list[int]]) -> bool:
    """No relabelling ``src`` makes ``rows`` smaller, read in ``pairs`` order;
    relabelled, row (a,b) is row (src[a],src[b]) read at coordinates ``src``."""
    for src in relabellings:
        for a, b in pairs:
            row = rows[src[a]][src[b]]
            vec = tuple([row[c] for c in src])
            if vec != rows[a][b]:
                if vec < rows[a][b]:
                    return False
                break
    return True


def enumerate_rings(
    degrees: Sequence[int],
    max_mult: int = 3,
    *,
    odd_only: bool = True,
    rank_bound: int = DEFAULT_RANK_BOUND,
) -> list[FusionRing]:
    """All fusion rings with the given basis degrees, up to block relabeling.

    ``degrees`` are positive integers including the unit's 1 (every 1 is a
    grouplike), and the positive integer ``max_mult`` caps each structure
    constant; PreconditionUnmet otherwise.  Emitted rings pass the full axiom
    checker.  Each dual class is searched at its least dual, and a solution
    is kept when no relabelling within equal-degree blocks that fixes that
    dual makes its rows smaller.  More than ``rank_bound`` degrees is
    RankTooLarge, and ``rank_bound`` must be a positive integer;
    InvalidSetting otherwise.  The dual classes run one after another in
    this process.
    """
    degrees = tuple(degrees)
    if not degrees or not all(type(d) is int and d >= 1 for d in degrees):
        raise PreconditionUnmet(f"degrees must be a nonempty list of positive integers, got {list(degrees)}")
    degrees = tuple(sorted(degrees))
    if degrees[0] != 1:
        raise PreconditionUnmet("degrees must include 1 for the unit")
    if odd_only and any(d % 2 == 0 for d in degrees):
        raise PreconditionUnmet(f"even degree in {degrees}: rejected under the odd-only constraint")
    _check_rank(len(degrees), rank_bound)
    if type(max_mult) is not int or max_mult < 1:
        raise PreconditionUnmet(f"max_mult must be a positive integer, got {max_mult!r}")

    rank = len(degrees)
    blocks_nonunit = [tuple(i for i in range(1, rank) if degrees[i] == d) for d in sorted(set(degrees[1:]))]

    # One backtracking run per conjugacy class of dual involutions under
    # relabelling within blocks (the unit is fixed), at the class's least
    # member: j transpositions in a block pair its last 2j indices, adjacent.
    # A relabelling p turns dual d into p d p^-1, so a ring's least relabelling
    # has this dual, and only the relabellings that fix it can be smaller.
    kept = []
    for counts in product(*(range(len(block) // 2 + 1) for block in blocks_nonunit)):
        dual = list(range(rank))
        for block, j in zip(blocks_nonunit, counts):
            paired = block[len(block) - 2 * j :]
            for x, y in zip(paired[0::2], paired[1::2]):
                dual[x], dual[y] = y, x
        fixing = [p for p in _block_permutations(rank, blocks_nonunit) if all(dual[s] == p[d] for s, d in zip(p, dual))]
        search = _Search(degrees, max_mult, tuple(dual))
        search.run()
        kept.extend((search.dual, rows) for rows in search.solutions if _is_least(rows, search.pairs, fixing))

    if not kept:
        return []
    from .axioms import check_axioms  # loaded only when a ring needs the final check

    labels = _labels_for(degrees)
    stem = "ring_" + "_".join(str(d) for d in degrees)
    rings = []
    for dual, rows in sorted(kept):
        basis = [(labels[i], degrees[i], labels[dual[i]]) for i in range(rank)]
        products = {
            (labels[a], labels[b]): {labels[c]: v for c, v in enumerate(vec) if v}
            for a, row in enumerate(rows)
            for b, vec in enumerate(row)
        }
        ring = build_ring(f"{stem}_{len(rings)}", basis, "1", products)
        if check_axioms(ring).all_pass:
            rings.append(ring)
    return rings
