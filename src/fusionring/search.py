"""Exhaustive enumeration of fusion rings with prescribed degrees.

Backtracking over structure-constant rows in canonical pair order.  The
pruning is the point: duality pairing pins the unit coordinate, reciprocity
mirrors pin coordinates against already-assigned rows, grouplike rows are
forced to be single basic translates, row degree sums bound the vectors,
and associativity is checked on every triple as soon as its rows exist.
Survivors still have to pass the full axiom checker before they are
emitted, deduplicated up to relabeling within equal-degree blocks.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from itertools import permutations, product
from typing import Iterator, Optional, Sequence

from .axioms import check_axioms
from .ring import FusionRing, InvalidSetting, PreconditionUnmet, RankTooLarge, build_ring

DEFAULT_RANK_BOUND = 6


def _worker_count(workers: Optional[int], tasks: int) -> int:
    """Pool size: the request (``workers``, else FUSIONRING_THREADS, else the
    CPU count), capped at one process per task and per CPU."""
    cpus = os.cpu_count() or 1
    if workers is None:
        env = os.environ.get("FUSIONRING_THREADS")
        if not env:
            return max(1, min(tasks, cpus))
        try:
            workers = int(env)
        except ValueError:
            workers = 0
        if workers < 1:
            raise InvalidSetting(f"FUSIONRING_THREADS must be a positive integer, got {env!r}")
    elif workers < 1:
        raise InvalidSetting(f"workers must be a positive integer, got {workers}")
    return max(1, min(workers, tasks, cpus))


def _involutions(items: Sequence[int]) -> Iterator[dict[int, int]]:
    """All involutions of ``items`` (fixed points and disjoint transpositions)."""
    if not items:
        yield {}
        return
    first, rest = items[0], list(items[1:])
    for sub in _involutions(rest):
        yield {first: first, **sub}
    for k, partner in enumerate(rest):
        remaining = rest[:k] + rest[k + 1 :]
        for sub in _involutions(remaining):
            yield {first: partner, partner: first, **sub}


def _block_permutations(blocks: Sequence[Sequence[int]]) -> Iterator[dict[int, int]]:
    per_block = [list(permutations(b)) for b in blocks]
    for combo in product(*per_block):
        perm: dict[int, int] = {}
        for block, image in zip(blocks, combo):
            perm.update(dict(zip(block, image)))
        yield perm


class _Search:
    """One backtracking run for a fixed dual involution."""

    def __init__(self, degrees: tuple[int, ...], max_mult: int, dual: tuple[int, ...]):
        self.deg = degrees
        self.rank = len(degrees)
        self.max_mult = max_mult
        self.dual = dual
        self.unit = 0
        self.pairs = [
            (a, b)
            for a in range(1, self.rank)
            for b in range(1, self.rank)
        ]
        self.rows: dict[tuple[int, int], tuple[int, ...]] = {}
        unit_row = lambda i: tuple(1 if c == i else 0 for c in range(self.rank))
        for i in range(self.rank):
            self.rows[(0, i)] = unit_row(i)
            self.rows[(i, 0)] = unit_row(i)
        self.solutions: list[dict[tuple[int, int], tuple[int, ...]]] = []

    # -- candidate rows -------------------------------------------------------

    def _pinned(self, a: int, b: int) -> Optional[dict[int, int]]:
        """Coordinate pins for row (a,b) from duality and assigned mirrors."""
        pins: dict[int, int] = {0: 1 if b == self.dual[a] else 0}
        for c in range(self.rank):
            for key, coord in (
                ((b, self.dual[c]), self.dual[a]),  # m(x,yz) = m(y*, zx*)
                ((c, self.dual[b]), a),             # m(x,yz) = m(y, xz*)
                ((self.dual[b], self.dual[a]), self.dual[c]),  # (yz)* = z*y*
            ):
                row = self.rows.get(key)
                if row is None or key == (a, b):
                    continue
                value = row[coord]
                if c in pins and pins[c] != value:
                    return None
                pins[c] = value
        return pins

    def _candidates(self, a: int, b: int) -> list[tuple[int, ...]]:
        pins = self._pinned(a, b)
        if pins is None:
            return []
        target = self.deg[a] * self.deg[b]
        if self.deg[a] == 1 or self.deg[b] == 1:
            # A grouplike translate of a basic element is basic.
            out = []
            for c in range(self.rank):
                if self.deg[c] != target:
                    continue
                vec = tuple(1 if k == c else 0 for k in range(self.rank))
                if all(vec[k] == v for k, v in pins.items()):
                    out.append(vec)
            return out

        vec = [0] * self.rank
        remaining = target
        for c, v in pins.items():
            vec[c] = v
            remaining -= v * self.deg[c]
        if remaining < 0:
            return []
        free = [c for c in range(self.rank) if c not in pins]
        out: list[tuple[int, ...]] = []

        def fill(pos: int, left: int) -> None:
            if pos == len(free):
                if left == 0:
                    out.append(tuple(vec))
                return
            c = free[pos]
            tail_capacity = sum(self.max_mult * self.deg[k] for k in free[pos + 1 :])
            for v in range(0, self.max_mult + 1):
                used = v * self.deg[c]
                if used > left:
                    break
                if left - used > tail_capacity:
                    continue
                vec[c] = v
                fill(pos + 1, left - used)
            vec[c] = 0

        fill(0, remaining)
        return out

    # -- associativity --------------------------------------------------------

    def _triple_holds(self, p: int, q: int, s: int) -> bool:
        """(pq)s == p(qs) when every needed row is assigned; True if undecidable yet."""
        pq = self.rows.get((p, q))
        qs = self.rows.get((q, s))
        if pq is None or qs is None:
            return True
        r = self.rank
        lhs = [0] * r
        for t, m in enumerate(pq):
            if not m:
                continue
            row = self.rows.get((t, s))
            if row is None:
                return True
            for c, n in enumerate(row):
                lhs[c] += m * n
        rhs = [0] * r
        for t, m in enumerate(qs):
            if not m:
                continue
            row = self.rows.get((p, t))
            if row is None:
                return True
            for c, n in enumerate(row):
                rhs[c] += m * n
        return lhs == rhs

    def _associative_around(self, a: int, b: int) -> bool:
        """Triples with (a,b) as an outer pair; inner-row completions are
        caught by the final axiom check on emitted solutions."""
        r = self.rank
        for s in range(r):
            if not self._triple_holds(a, b, s):
                return False
        for p in range(r):
            if not self._triple_holds(p, a, b):
                return False
        return True

    # -- driving --------------------------------------------------------------

    def run(self, first_candidate: Optional[tuple[int, ...]] = None) -> None:
        if not self.pairs:
            self.solutions.append(dict(self.rows))
            return
        if first_candidate is not None:
            a, b = self.pairs[0]
            if first_candidate not in self._candidates(a, b):
                return
            self.rows[(a, b)] = first_candidate
            if self._associative_around(a, b):
                self._assign(1)
            del self.rows[(a, b)]
        else:
            self._assign(0)

    def _assign(self, pos: int) -> None:
        if pos == len(self.pairs):
            self.solutions.append(dict(self.rows))
            return
        a, b = self.pairs[pos]
        if (a, b) in self.rows:  # mirror of an earlier row may coincide
            self._assign(pos + 1)
            return
        for cand in self._candidates(a, b):
            self.rows[(a, b)] = cand
            if self._associative_around(a, b):
                self._assign(pos + 1)
            del self.rows[(a, b)]


def _labels_for(degrees: tuple[int, ...]) -> tuple[str, ...]:
    labels = []
    counters: dict[int, int] = {}
    for k, d in enumerate(degrees):
        if k == 0:
            labels.append("1")
            continue
        counters[d] = counters.get(d, 0) + 1
        labels.append(f"d{d}n{counters[d]}")
    return tuple(labels)


def _canonical_key(
    degrees: tuple[int, ...],
    dual: tuple[int, ...],
    rows: dict[tuple[int, int], tuple[int, ...]],
    blocks: Sequence[Sequence[int]],
) -> tuple:
    best = None
    for perm in _block_permutations(blocks):
        perm[0] = 0
        p_dual = tuple(perm[dual[_inv(perm, i)]] for i in range(len(degrees)))
        p_rows = []
        for (a, b), vec in rows.items():
            new_vec = [0] * len(vec)
            for c, v in enumerate(vec):
                new_vec[perm[c]] = v
            p_rows.append(((perm[a], perm[b]), tuple(new_vec)))
        key = (p_dual, tuple(sorted(p_rows)))
        if best is None or key < best:
            best = key
    return best


def _inv(perm: dict[int, int], i: int) -> int:
    for k, v in perm.items():
        if v == i:
            return k
    raise KeyError(i)


def _search_task(args) -> list[tuple]:
    degrees, max_mult, dual, first_candidate, blocks = args
    search = _Search(degrees, max_mult, dual)
    search.run(first_candidate)
    keys = []
    for rows in search.solutions:
        keys.append(_canonical_key(degrees, dual, rows, blocks))
    return keys


def enumerate_rings(
    degrees: Sequence[int],
    max_mult: int = 3,
    *,
    odd_only: bool = True,
    rank_bound: int = DEFAULT_RANK_BOUND,
    workers: Optional[int] = None,
) -> list[FusionRing]:
    """All fusion rings with the given basis degrees, up to block relabeling.

    ``degrees`` must include the unit's 1 (every 1 is a grouplike);
    ``max_mult`` caps each structure constant.  Emitted rings all pass the
    full axiom checker.  Deduplication permutes labels within equal-degree
    blocks only, which is exact for these canonical labelings.  ``workers``
    (else FUSIONRING_THREADS) must be a positive integer; InvalidSetting
    otherwise.
    """
    degrees = tuple(sorted(int(d) for d in degrees))
    if not degrees:
        raise PreconditionUnmet("degrees must be nonempty")
    if any(d < 1 for d in degrees):
        raise PreconditionUnmet("degrees must be positive")
    if degrees[0] != 1:
        raise PreconditionUnmet("degrees must include 1 for the unit")
    if odd_only and any(d % 2 == 0 for d in degrees):
        raise PreconditionUnmet(f"even degree in {degrees}: rejected under the odd-only constraint")
    if len(degrees) > rank_bound:
        raise RankTooLarge(f"rank {len(degrees)} exceeds bound {rank_bound}")
    if max_mult < 1:
        raise PreconditionUnmet("max_mult must be >= 1")

    rank = len(degrees)
    by_degree: dict[int, list[int]] = {}
    for i in range(1, rank):
        by_degree.setdefault(degrees[i], []).append(i)
    blocks_nonunit = [tuple(v) for _, v in sorted(by_degree.items())]

    # Dual involutions act within equal-degree blocks; the unit is fixed.
    dual_choices: list[tuple[int, ...]] = []

    def build_duals(block_idx: int, acc: dict[int, int]) -> None:
        if block_idx == len(blocks_nonunit):
            dual = tuple(acc.get(i, i) for i in range(rank))
            dual_choices.append(dual)
            return
        for inv in _involutions(blocks_nonunit[block_idx]):
            acc2 = dict(acc)
            acc2.update(inv)
            build_duals(block_idx + 1, acc2)

    build_duals(0, {0: 0})

    # Partition work on the first undetermined row's candidate values.
    tasks = []
    for dual in dual_choices:
        probe = _Search(degrees, max_mult, dual)
        if not probe.pairs:
            tasks.append((degrees, max_mult, dual, None, blocks_nonunit))
            continue
        for cand in probe._candidates(*probe.pairs[0]):
            tasks.append((degrees, max_mult, dual, cand, blocks_nonunit))

    n_workers = _worker_count(workers, len(tasks))
    if n_workers > 1:
        with ProcessPoolExecutor(max_workers=n_workers) as pool:
            results = list(pool.map(_search_task, tasks))
    else:
        results = [_search_task(t) for t in tasks]

    seen: set[tuple] = set()
    keys = []
    for batch in results:
        for key in batch:
            if key not in seen:
                seen.add(key)
                keys.append(key)
    keys.sort()

    labels = _labels_for(degrees)
    stem = "ring_" + "_".join(str(d) for d in degrees)
    rings = []
    for dual, rows in keys:
        basis = [(labels[i], degrees[i], labels[dual[i]]) for i in range(rank)]
        products = {}
        for (a, b), vec in rows:
            products[(labels[a], labels[b])] = {
                labels[c]: v for c, v in enumerate(vec) if v
            }
        ring = build_ring(f"{stem}_{len(rings)}", basis, "1", products)
        if check_axioms(ring).all_pass:
            rings.append(ring)
    return rings
