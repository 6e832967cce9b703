"""Expected CLI outputs, computed without the fusionring package.

Every expectation here comes from the benchmark's own arithmetic: group
tables by modular addition, subgroup lattices by joining cyclic subgroups,
the odd SO(3) triangle rule, closed-form products for the cyclic and odd
dihedral character rings, and a sparse-tensor evaluation of the ring
identities.  Nothing in this module imports the library under test.
"""

from __future__ import annotations

import itertools
import re
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Optional

CHECK_NAMES = (
    "unit_law",
    "duality_pairing",
    "associativity",
    "degree_homomorphism",
    "dual_compatibility",
    "frobenius_reciprocity",
    "grouplike_rule",
)

Row = dict  # basis index -> positive multiplicity


@dataclass
class Table:
    """A ring on a basis sorted by (degree, label); rows hold Known products."""

    name: str
    labels: tuple[str, ...]
    degrees: tuple[int, ...]
    dual: tuple[int, ...]
    unit: int
    rows: dict[tuple[int, int], Row]
    partial: bool = False
    truncation: Optional[int] = None
    index: dict[str, int] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.index = {lab: i for i, lab in enumerate(self.labels)}

    @property
    def rank(self) -> int:
        return len(self.labels)

    def labelled_rows(self) -> dict[tuple[str, str], dict[str, int]]:
        """Non-unit Known rows keyed by labels (unit rows are implied)."""
        lab = self.labels
        return {
            (lab[a], lab[b]): {lab[c]: m for c, m in row.items()}
            for (a, b), row in self.rows.items()
            if self.unit not in (a, b)
        }

    def shape(self) -> tuple:
        """Everything a spec states, in a form that ignores line order."""
        basis = {lab: (self.degrees[i], self.labels[self.dual[i]]) for i, lab in enumerate(self.labels)}
        return (
            self.name,
            self.partial,
            self.truncation,
            basis,
            self.labels[self.unit],
            self.labelled_rows(),
        )


def make_table(
    name: str,
    basis: Iterable[tuple[str, int, str]],
    unit: str,
    rows: dict[tuple[str, str], dict[str, int]],
    *,
    partial: bool = False,
    truncation: Optional[int] = None,
) -> Table:
    """Build a Table from labelled data; unit rows are added by the unit law."""
    ordered = sorted(basis, key=lambda e: (e[1], e[0]))
    pos = {lab: i for i, (lab, _, _) in enumerate(ordered)}
    u = pos[unit]
    known: dict[tuple[int, int], Row] = {
        (pos[a], pos[b]): {pos[c]: m for c, m in row.items() if m} for (a, b), row in rows.items()
    }
    for i in range(len(ordered)):
        known[(u, i)] = {i: 1}
        known[(i, u)] = {i: 1}
    return Table(
        name,
        tuple(lab for lab, _, _ in ordered),
        tuple(deg for _, deg, _ in ordered),
        tuple(pos[d] for _, _, d in ordered),
        u,
        known,
        partial,
        truncation,
    )


# -- spec text (the ring spec format), written and read by the benchmark -------


def write_spec(t: Table, rng=None) -> str:
    """Spec text for ``t``; with ``rng`` the basis, rows and terms are shuffled."""
    shuffle = rng.shuffle if rng is not None else (lambda seq: None)
    head = [f"ring {t.name}"]
    if t.partial:
        head.append("partial true")
    if t.truncation is not None:
        head.append(f"truncation {t.truncation}")
    basis = [f"basis {t.labels[i]} {t.degrees[i]} {t.labels[t.dual[i]]}" for i in range(t.rank)]
    prods = []
    for (a, b), row in t.labelled_rows().items():
        terms = [f"{c} {m}" for c, m in row.items()]
        shuffle(terms)
        prods.append(f"prod {a} {b} : " + ", ".join(terms))
    shuffle(basis)
    shuffle(prods)
    return "\n".join(head + basis + [f"unit {t.labels[t.unit]}"] + prods) + "\n"


def parse_spec(text: str) -> Table:
    """Read the spec format; raises ValueError on anything malformed."""
    name, unit, partial, truncation = None, None, False, None
    basis: list[tuple[str, int, str]] = []
    rows: dict[tuple[str, str], dict[str, int]] = {}
    for raw in text.splitlines():
        tok = raw.split("#", 1)[0].replace(",", " ").split()
        if not tok:
            continue
        head = tok[0]
        if head == "ring":
            name = tok[1]
        elif head == "partial":
            partial = tok[1] == "true"
        elif head == "truncation":
            truncation = int(tok[1])
        elif head == "basis":
            basis.append((tok[1], int(tok[2]), tok[3]))
        elif head == "unit":
            unit = tok[1]
        elif head == "prod" and tok[3] == ":" and len(tok) % 2 == 0:
            rows[(tok[1], tok[2])] = {tok[k]: int(tok[k + 1]) for k in range(4, len(tok), 2)}
        else:
            raise ValueError(f"unreadable spec line {raw!r}")
    if name is None or unit is None or not basis:
        raise ValueError("spec lacks a ring, unit or basis line")
    return make_table(name, basis, unit, rows, partial=partial, truncation=truncation)


# -- reference rings -------------------------------------------------------------


def group_elements(moduli: tuple[int, ...]) -> list[tuple[int, ...]]:
    return list(itertools.product(*(range(m) for m in moduli)))


def group_add(moduli, x, y) -> tuple[int, ...]:
    return tuple((a + b) % m for a, b, m in zip(x, y, moduli))


def group_table(
    name: str,
    moduli: tuple[int, ...],
    labels: dict[tuple[int, ...], str],
    withheld: frozenset = frozenset(),
) -> Table:
    """Group ring of Z_m1 x ... x Z_mk; ``withheld`` pairs of elements stay Unknown."""
    elems = group_elements(moduli)
    zero = elems[0]
    neg = {x: tuple((-a) % m for a, m in zip(x, moduli)) for x in elems}
    basis = [(labels[x], 1, labels[neg[x]]) for x in elems]
    rows = {
        (labels[x], labels[y]): {labels[group_add(moduli, x, y)]: 1}
        for x in elems
        for y in elems
        if x != zero and y != zero and (x, y) not in withheld
    }
    return make_table(name, basis, labels[zero], rows, partial=bool(withheld))


def subgroup_lattice(moduli: tuple[int, ...]) -> set[frozenset]:
    """All subgroups, as joins of cyclic subgroups until nothing new appears."""

    def generated(gens: Iterable[tuple[int, ...]]) -> frozenset:
        gens = list(gens)
        members = {tuple(0 for _ in moduli)}
        frontier = list(members)
        while frontier:
            fresh = {group_add(moduli, x, g) for x in frontier for g in gens} - members
            members |= fresh
            frontier = list(fresh)
        return frozenset(members)

    found = {generated([x]) for x in group_elements(moduli)}
    frontier = set(found)
    while frontier:
        joins = {generated(a | b) for a in frontier for b in found} - found
        found |= joins
        frontier = joins
    return found


def so3_table(max_degree: int, labels: Optional[list[str]] = None) -> Table:
    """Odd triangle rule: x_{2a+1} x_{2b+1} = sum of x_{2c+1}, |a-b| <= c <= a+b."""
    half = max_degree // 2
    labels = labels or [f"x{2 * a + 1}" for a in range(half + 1)]
    basis = [(labels[a], 2 * a + 1, labels[a]) for a in range(half + 1)]
    rows = {
        (labels[a], labels[b]): {labels[c]: 1 for c in range(abs(a - b), a + b + 1)}
        for a in range(1, half + 1)
        for b in range(1, half + 1)
        if 2 * (a + b) + 1 <= max_degree
    }
    return make_table(
        f"so3_{max_degree}", basis, labels[0], rows, partial=True, truncation=max_degree
    )


def fragment_table() -> Table:
    """Rank-11 terminal configuration: grouplikes V = Z5, the five v*x3, and x5."""
    v = ["1", "g", "h1", "h2", "h3"]
    t = ["x3", "gx3", "h1x3", "h2x3", "h3x3"]
    basis = [(v[i], 1, v[-i % 5]) for i in range(5)]
    basis += [(t[i], 3, t[-i % 5]) for i in range(5)] + [("x5", 5, "x5")]
    rows = {(v[i], v[j]): {v[(i + j) % 5]: 1} for i in range(1, 5) for j in range(1, 5)}
    for g in v[1:]:
        rows[(g, "x5")] = rows[("x5", g)] = {"x5": 1}
    rows[("x3", "x3")] = {"1": 1, "x3": 1, "x5": 1}
    rows[("x5", "x3")] = {lab: 1 for lab in t}
    rows[("x5", "x5")] = {"x5": 4, **{g: 1 for g in v}}
    return make_table("fragment", basis, "1", rows, partial=True)


def cyclic_char_ring(n: int, row_label: dict[int, str]) -> Table:
    """Character ring of Z_n: chi_i chi_j = chi_{i+j mod n}; ``row_label[j]`` names chi_j."""
    basis = [(row_label[j], 1, row_label[-j % n]) for j in range(n)]
    rows = {
        (row_label[i], row_label[j]): {row_label[(i + j) % n]: 1}
        for i in range(1, n)
        for j in range(1, n)
    }
    return make_table(f"Z{n}", basis, row_label[0], rows)


def dihedral_char_ring(n: int, names: dict[str, str]) -> Table:
    """Character ring of D_n, n odd: trivial "t", sign "s", 2-dimensional "p1".."ph".

    s s = t, s p_j = p_j, p_i p_j = p_{i+j} + p_{|i-j|}, where p_0 = t + s and
    p_m = p_{n-m} for m > h = (n-1)/2.
    """
    h = (n - 1) // 2

    def psi(m: int) -> dict[str, int]:
        m = min(m, n - m)
        return {names["t"]: 1, names["s"]: 1} if m == 0 else {names[f"p{m}"]: 1}

    basis = [(names["t"], 1, names["t"]), (names["s"], 1, names["s"])]
    basis += [(names[f"p{j}"], 2, names[f"p{j}"]) for j in range(1, h + 1)]
    rows = {(names["s"], names["s"]): {names["t"]: 1}}
    for j in range(1, h + 1):
        rows[(names["s"], names[f"p{j}"])] = rows[(names[f"p{j}"], names["s"])] = {names[f"p{j}"]: 1}
        for i in range(1, h + 1):
            prod = Counter(psi(i + j))
            prod.update(psi(abs(i - j)))
            rows[(names[f"p{i}"], names[f"p{j}"])] = dict(prod)
    return make_table(f"D{n}", basis, names["t"], rows)


# -- identities --------------------------------------------------------------------


def _expand(outer: Row, pick) -> Optional[dict[int, int]]:
    acc: dict[int, int] = {}
    for k, m in outer.items():
        row = pick(k)
        if row is None:
            return None
        for c, n in row.items():
            acc[c] = acc.get(c, 0) + m * n
    return acc


def identity_counts(t: Table) -> list[tuple[str, str, int, int, int]]:
    """(name, status, passed, failed, skipped) per identity.

    An instance that needs an Unknown product is skipped, never passed.
    """
    r, u, dual, get = t.rank, t.unit, t.dual, t.rows.get
    grouplikes = [i for i in range(r) if t.degrees[i] == 1]
    tallies = {name: Counter() for name in CHECK_NAMES}

    def note(name: str, outcome: Optional[bool]) -> None:  # None: skipped
        tallies[name][outcome] += 1

    for i in range(r):
        for key in ((u, i), (i, u)):
            row = get(key)
            note("unit_law", None if row is None else row == {i: 1})
    for a in range(r):
        for b in range(r):
            ab = get((a, b))
            mirror = get((dual[b], dual[a]))
            if ab is None:
                for name in ("duality_pairing", "degree_homomorphism"):
                    note(name, None)
            else:
                note("duality_pairing", ab.get(u, 0) == (1 if b == dual[a] else 0))
                total = sum(m * t.degrees[c] for c, m in ab.items())
                note("degree_homomorphism", total == t.degrees[a] * t.degrees[b])
            if ab is None or mirror is None:
                note("dual_compatibility", None)
            else:
                note("dual_compatibility", {dual[c]: m for c, m in ab.items()} == mirror)
            for g in grouplikes:
                translate = get((dual[a], g))
                if ab is None or translate is None:
                    note("grouplike_rule", None)
                else:
                    note("grouplike_rule", ab.get(g, 0) == (1 if translate == {b: 1} else 0))
            for c in range(r):
                bc = get((b, c))
                if ab is None or bc is None:
                    note("associativity", None)
                    continue
                lhs = _expand(ab, lambda k: get((k, c)))
                rhs = _expand(bc, lambda k: get((a, k)))
                note("associativity", None if lhs is None or rhs is None else lhs == rhs)
    for y in range(r):
        for z in range(r):
            yz = get((y, z))
            for x in range(r):
                zx, xz = get((z, dual[x])), get((x, dual[z]))
                if yz is None or zx is None or xz is None:
                    note("frobenius_reciprocity", None)
                else:
                    note("frobenius_reciprocity", yz.get(x, 0) == zx.get(dual[y], 0) == xz.get(y, 0))
    out = []
    for name in CHECK_NAMES:
        c = tallies[name]
        status = "fail" if c[False] else ("skipped-unknown" if c[None] else "pass")
        out.append((name, status, c[True], c[False], c[None]))
    return out


def stabilizer_status(t: Table, x: int) -> str:
    """pass / fail / skipped-unknown for the stabilizer law at basis element x."""
    get = t.rows.get
    xx = get((x, t.dual[x]))
    if xx is None:
        return "skipped-unknown"
    grouplikes = [g for g in range(t.rank) if t.degrees[g] == 1]
    failed = skipped = False
    for g in grouplikes:
        m = xx.get(g, 0)
        failed |= m not in (0, 1)
        gx = get((g, x))
        if gx is None:
            skipped = True
        else:
            failed |= (m == 1) != (gx == {x: 1})
    stab = [g for g in grouplikes if xx.get(g, 0) == 1]
    failed |= t.unit not in stab or len(stab) > t.degrees[x] ** 2
    for g in stab:
        for h in stab:
            gh = get((g, h))
            if gh is None:
                skipped = True
            elif len(gh) != 1 or sum(gh.values()) != 1 or next(iter(gh)) not in stab:
                failed = True
    return "fail" if failed else ("skipped-unknown" if skipped else "pass")


def expected_check(t: Table) -> dict:
    axioms = identity_counts(t)
    stabilizers = [(t.labels[x], stabilizer_status(t, x)) for x in range(t.rank)]
    bad = any(s == "fail" for _, s, *_ in axioms) or any(s == "fail" for _, s in stabilizers)
    return {"exit_code": int(bad), "ring": t.name, "axioms": axioms, "stabilizers": stabilizers}


def observed_check(payload: dict) -> dict:
    return {
        "exit_code": payload["exit_code"],
        "ring": payload["ring"],
        "axioms": [
            (e["name"], e["status"], e["passed"], e["failed"], e["skipped"]) for e in payload["axioms"]
        ],
        "stabilizers": [(s["element"], s["status"]) for s in payload["stabilizers"]],
    }


# -- standard subrings -------------------------------------------------------------


def known_subrings(t: Table, candidates: Iterable[frozenset]) -> set[tuple[frozenset, int]]:
    """Candidate index sets that are standard subrings provable from Known rows.

    A set qualifies when it holds the unit, is dual-closed, and every product
    of two members is Known and supported inside it.  The whole basis of an
    untruncated ring always qualifies: no product can leave it.
    """
    whole = frozenset(range(t.rank))
    out = set()
    for members in set(candidates) | ({whole} if t.truncation is None else set()):
        closed = (
            members == whole and t.truncation is None
        ) or (
            t.unit in members
            and all(t.dual[i] in members for i in members)
            and all(
                (row := t.rows.get((a, b))) is not None and row.keys() <= members
                for a in members
                for b in members
            )
        )
        if closed:
            out.add((frozenset(t.labels[i] for i in members), sum(t.degrees[i] ** 2 for i in members)))
    return out


def all_subsets(rank: int) -> Iterable[frozenset]:
    return (
        frozenset(c) for k in range(rank + 1) for c in itertools.combinations(range(rank), k)
    )


def expected_subrings(subrings: set[tuple[frozenset, int]]) -> dict:
    violations = sorted(
        [small_dim, big_dim]
        for small, small_dim in subrings
        for big, big_dim in subrings
        if small < big and big_dim % small_dim
    )
    return {"exit_code": int(bool(violations)), "subrings": subrings, "violations": violations}


def observed_subrings(payload: dict) -> dict:
    return {
        "exit_code": payload["exit_code"],
        "subrings": {
            (frozenset(s["members"]), s["hopf_dimension"])
            for s in payload["subrings"]
            if s["closed_under_dual"]
        },
        "violations": sorted(payload["violations"]),
    }


# -- ladder and verdict on the SO(3) truncation ------------------------------------


def so3_certificate(max_degree: int, labels: list[str]) -> dict:
    """The ladder of x3 in so3_D: x_{2n+1} x3 = x_{2n-1} + x_{2n+1} + x_{2n+3}
    holds while 2n+3 <= D, so depth (D-3)/2; then truncation stops it."""
    depth = (max_degree - 3) // 2
    return {
        "depth_reached": depth,
        "relations": [
            {"n": n, "product": [[labels[n - 1], 1], [labels[n], 1], [labels[n + 1], 1]]}
            for n in range(1, depth + 1)
        ],
        "terminal": {"depth": depth, "kind": "truncation_reached"},
        "x_family": labels[: depth + 2],
        "xprime_family": labels[1 : depth + 1],
    }


# -- search --------------------------------------------------------------------------

HEADER_RE = re.compile(r"^# (\d+) ring\(s\) with degrees \[([\d, ]*)\]$")


def canonical_key(t: Table) -> tuple:
    """Smallest relabelled form over permutations within equal-degree blocks."""
    blocks = [
        [i for i in range(t.rank) if t.degrees[i] == d and i != t.unit]
        for d in sorted(set(t.degrees))
    ]
    best = None
    for images in itertools.product(*(itertools.permutations(b) for b in blocks)):
        perm = {t.unit: t.unit}
        for block, image in zip(blocks, images):
            perm.update(zip(block, image))
        dual = tuple(sorted((perm[i], perm[t.dual[i]]) for i in range(t.rank)))
        rows = tuple(
            sorted(((perm[a], perm[b]), tuple(sorted((perm[c], m) for c, m in row.items())))
                   for (a, b), row in t.rows.items())
        )
        key = (dual, rows)
        if best is None or key < best:
            best = key
    return best


def search_mismatch(text: str, degrees: list[int], max_mult: int, count: int) -> Optional[str]:
    """Why a ``search`` report is wrong, or None.  There must be ``count``
    rings; each must have the requested degrees, respect ``max_mult``, be
    complete, pass every identity, and differ from the others up to
    relabelling."""
    lines = text.split("\n")
    match = HEADER_RE.match(lines[0])
    if not match or sorted(int(d) for d in match.group(2).split(",")) != sorted(degrees):
        return f"bad search header {lines[0]!r}"
    blocks = [b for b in "\n".join(lines[1:]).split("\n\n") if b.strip()]
    if int(match.group(1)) != len(blocks):
        return f"header says {match.group(1)} rings, {len(blocks)} specs follow"
    if len(blocks) != count:
        return f"{len(blocks)} rings for {degrees} max_mult {max_mult}, expected {count}"
    keys = set()
    for block in blocks:
        t = parse_spec(block)
        if sorted(t.degrees) != sorted(degrees) or t.partial:
            return f"ring {t.name} has degrees {t.degrees}, partial {t.partial}"
        if len(t.rows) != t.rank ** 2:
            return f"ring {t.name} is missing product rows"
        if any(m > max_mult for row in t.rows.values() for m in row.values()):
            return f"ring {t.name} exceeds max_mult {max_mult}"
        bad = [e for e in identity_counts(t) if e[1] != "pass"]
        if bad:
            return f"ring {t.name} fails {bad[0]}"
        keys.add(canonical_key(t))
    if len(keys) != len(blocks):
        return "two emitted rings are isomorphic"
    return None
