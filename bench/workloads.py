"""Seeded inputs for the three workloads, each op paired with its oracle.

A workload is a list of CLI ops.  Its input files are written from the seed
alone, so one seed always gives byte-identical files and the same op list.
Sizes are fixed per slot and the seed picks among inputs of about equal
cost (group structure, labels, line order, row and class order, withheld
rows), so that the time of an op list moves with the program rather than
with the seed.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import oracle as orc

WORKLOADS = ("complete", "truncated", "search")

# (choices of Z_m1 x ... x Z_mk, all of one order; subcommands run on it).
# Where `subrings` runs, every choice has at most two generators: the seed
# program misses subrings that need three (see known_defect_ops).
COMPLETE_GROUPS = (
    (((8,), (2, 4)), ("check", "subrings")),
    (((12,), (2, 6)), ("check", "verdict", "subrings")),
    (((16,), (2, 8), (4, 4)), ("verdict", "subrings")),
    (((20,), (2, 10)), ("check", "subrings")),
    (((2, 2, 2, 2), (2, 2, 4)), ("check", "verdict")),
    (((36,), (2, 18), (3, 12), (6, 6)), ("check",)),
    (((48,), (2, 24), (4, 12), (2, 2, 12), (2, 4, 6)), ("verdict",)),
)
# (family, n) of character tables run through `gen chartable`.
COMPLETE_TABLES = (("cyclic", 12), ("dihedral", 21))

# (odd max degrees of an so3 truncation, one drawn; subcommands run on it).
# `verdict` checks the axioms first, so on so3_81 it would repeat `check`'s
# second of associativity; it runs on the smaller truncations instead.
SO3_SLOTS = (
    ((21, 23, 25, 27, 29), ("gen", "check", "verdict", "ladder")),
    ((39, 41, 43, 45), ("gen", "ladder")),
    ((61,), ("check", "verdict", "ladder")),
    ((81,), ("check", "ladder")),
)
PARTIAL_GROUPS = (((12,), (2, 6)), ((20,), (2, 10)))
WITHHELD_SHARE = (0.15, 0.30)

# Ring counts for (degrees, max_mult), with where each count comes from.
GROUPS = "number of groups of that order"
PINNED = "pinned in tests/test_search.py"
BOUNDED = "at most the count pinned in tests/test_search.py at max_mult 4"
NEAR_GROUP = "near-group equation d^2 = k + m*d has no root m <= max_mult"
AT_SEED = "recorded at seed"
SEARCH_COUNTS = {
    ((1, 1, 1, 1, 1, 1), 1): (2, GROUPS),
    ((1, 1, 1, 1, 1, 1), 2): (2, GROUPS),
    ((1, 3, 3, 3, 5, 5), 2): (0, BOUNDED),
    ((1, 3, 3, 5, 5, 5), 2): (0, AT_SEED),
    ((1, 1, 1, 3, 3, 3), 3): (2, AT_SEED),
    ((1, 1, 1, 3, 3, 3), 4): (2, AT_SEED),
    ((1, 3, 3, 3, 3), 2): (0, AT_SEED),
    ((1, 3, 3, 3, 5), 3): (0, AT_SEED),
    ((1, 1, 1, 1), 1): (2, PINNED),
    ((1, 1, 1, 3), 2): (1, PINNED),
    ((1, 1, 1, 1, 1), 2): (1, GROUPS),
    ((1, 1, 1, 1, 1), 3): (1, GROUPS),
    ((1, 1, 1, 1, 1, 3), 2): (0, NEAR_GROUP),
    ((1, 1, 1, 1, 1, 3), 3): (0, NEAR_GROUP),
    ((1, 1, 1, 1, 1, 5), 2): (0, NEAR_GROUP),
    ((1, 1, 1, 1, 1, 7), 2): (0, NEAR_GROUP),
    ((1, 1, 1, 1, 3, 3), 2): (0, AT_SEED),
    ((1, 1, 1, 1, 3, 3), 3): (0, AT_SEED),
    ((1, 1, 1, 3, 3), 2): (2, AT_SEED),
    ((1, 3, 3, 3, 5), 2): (0, AT_SEED),
    ((1, 3, 3, 5, 5), 3): (0, BOUNDED),
    ((1, 3, 3, 5, 5), 4): (0, PINNED),
    ((1, 1, 3, 3, 5, 5), 2): (0, AT_SEED),
    ((1, 1, 1, 5, 5, 5), 2): (0, AT_SEED),
}
# One draw per slot among lists of about equal cost at seed (0.2-2 s each):
# [1]*6 is dedup-heavy, the two rank-6 lists with no ring are prune-heavy.
SEARCH_SLOTS = (
    (((1, 1, 1, 1, 1, 1), 1), ((1, 1, 1, 1, 1, 1), 2)),
    (((1, 3, 3, 3, 5, 5), 2),),
    (((1, 3, 3, 5, 5, 5), 2),),
    (((1, 1, 1, 3, 3, 3), 3), ((1, 1, 1, 3, 3, 3), 4)),
    (((1, 3, 3, 3, 3), 2), ((1, 3, 3, 3, 5), 3)),
)
# The rest of the pool takes under 0.06 s a list; this many are drawn, so
# that the median op is one of them.
SEARCH_LIGHT_DRAWS = 7


@dataclass(frozen=True)
class Op:
    """One CLI invocation and the check of its exit code and stdout."""

    argv: tuple[str, ...]
    expect: Callable[[int, str], Optional[str]]


def _json_op(argv: list[str], expected: dict, observe: Callable[[dict], dict]) -> Op:
    def expect(code: int, stdout: str) -> Optional[str]:
        if code != expected["exit_code"]:
            return f"exit {code}, expected {expected['exit_code']}"
        got = observe(json.loads(stdout))
        for key, want in expected.items():
            have = got.get(key)
            if have == want:
                continue
            if isinstance(want, set) and isinstance(have, set):  # subrings as (members, dimension)
                missing = sorted((dim, sorted(members)) for members, dim in want - have)
                return f"{key}: {len(have)} reported, {len(want)} expected; missing {_short(missing)}"
            return f"{key}: got {_short(have)}, expected {_short(want)}"
        return None

    return Op(("--format", "json", *argv), expect)


def _pick(key: str) -> Callable[[dict], dict]:
    return lambda payload: {"exit_code": payload["exit_code"], key: payload.get(key)}


def _spec_op(argv: list[str], expected: orc.Table) -> Op:
    def expect(code: int, stdout: str) -> Optional[str]:
        if code != 0:
            return f"exit {code}"
        got = orc.parse_spec(stdout)
        return None if got.shape() == expected.shape() else f"generated ring differs from {expected.name}"

    return Op(tuple(argv), expect)


def _short(value) -> str:
    text = repr(value)
    return text if len(text) < 160 else text[:157] + "..."


def _labels(rng: random.Random, items: list) -> dict:
    """A seeded bijection from items to distinct spec labels."""
    prefix = rng.choice(("a", "e", "g", "u", "w", "el"))
    numbers = list(range(len(items)))
    rng.shuffle(numbers)
    return {item: f"{prefix}{k}" for item, k in zip(items, numbers)}


def _group_name(moduli: tuple[int, ...]) -> str:
    return "x".join(f"Z{m}" for m in moduli)


def _write(indir: Path, name: str, text: str) -> str:
    path = indir / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def _subring_op(path: str, table: orc.Table, candidates) -> Op:
    expected = orc.expected_subrings(orc.known_subrings(table, candidates))
    return _json_op(["subrings", path], expected, orc.observed_subrings)


def _lattice_indices(table: orc.Table, moduli, labels) -> list[frozenset]:
    return [
        frozenset(table.index[labels[x]] for x in h) for h in orc.subgroup_lattice(moduli)
    ]


def group_ops(moduli, commands, path: str, table: orc.Table, labels) -> list[Op]:
    ops = []
    for command in commands:
        if command == "check":
            ops.append(_json_op(["check", path], orc.expected_check(table), orc.observed_check))
        elif command == "verdict":
            # no degree-3 element in a group ring
            expected = {"exit_code": 0, "verdict": {"kind": "no_degree3"}}
            ops.append(_json_op(["verdict", path], expected, _pick("verdict")))
        else:
            ops.append(_subring_op(path, table, _lattice_indices(table, moduli, labels)))
    return ops


# -- character tables -----------------------------------------------------------------


def _zpow(e: int) -> str:
    return "1" if e == 0 else f"z^{e}"


def cyclic_table_file(n: int, rng: random.Random) -> tuple[str, orc.Table]:
    """Table file of Z_n with seeded row and class order, and its ring."""
    chars = list(range(n))
    rng.shuffle(chars)  # row r holds chi_{chars[r]}
    classes = [0] + rng.sample(range(1, n), n - 1)
    row_of = {j: r for r, j in enumerate(chars)}
    lines = [f"group Z{n} {n}", f"conductor {n}"] + ["class 1"] * n
    lines += ["char 1 " + " ".join(_zpow(j * k % n) for k in classes) for j in chars]
    lines += [
        f"dualpair {row_of[j]} {row_of[-j % n]}" for j in chars if row_of[j] < row_of[-j % n]
    ]
    names = {j: "1" if j == 0 else f"chi{row_of[j]}" for j in range(n)}
    return "\n".join(lines) + "\n", orc.cyclic_char_ring(n, names)


def dihedral_table_file(n: int, rng: random.Random) -> tuple[str, orc.Table]:
    """Table file of D_n (n odd) with seeded row and class order, and its ring."""
    h = (n - 1) // 2
    chars = ["t", "s"] + [f"p{j}" for j in range(1, h + 1)]
    rng.shuffle(chars)
    classes = rng.sample(list(range(1, h + 1)) + ["r"], h + 1)  # rotation k, or reflections

    def value(c: str, k) -> str:
        if c == "t":
            return "1"
        if c == "s":
            return "-1" if k == "r" else "1"
        if k == "r":
            return "0"
        j = int(c[1:])
        return f"{_zpow(j * k % n)}+{_zpow(-j * k % n)}"

    lines = [f"group D{n} {2 * n}", f"conductor {n}", "class 1"]
    lines += [f"class {n if k == 'r' else 2}" for k in classes]
    for c in chars:
        deg = 2 if c.startswith("p") else 1
        lines.append(f"char {deg} {deg} " + " ".join(value(c, k) for k in classes))
    names = {c: "1" if c == "t" else f"chi{r}" for r, c in enumerate(chars)}
    return "\n".join(lines) + "\n", orc.dihedral_char_ring(n, names)


# -- workloads -------------------------------------------------------------------------


def complete(rng: random.Random, indir: Path) -> list[Op]:
    ops = []
    for slot, (choices, commands) in enumerate(COMPLETE_GROUPS):
        moduli = rng.choice(choices)
        labels = _labels(rng, orc.group_elements(moduli))
        table = orc.group_table(_group_name(moduli), moduli, labels)
        path = _write(indir, f"group{slot}.spec", orc.write_spec(table, rng))
        ops += group_ops(moduli, commands, path, table, labels)
    for slot, (family, n) in enumerate(COMPLETE_TABLES):
        make = cyclic_table_file if family == "cyclic" else dihedral_table_file
        text, ring = make(n, rng)
        path = _write(indir, f"table{slot}.chartab", text)
        ops.append(_spec_op(["gen", "chartable", path], ring))
    return ops


def truncated(rng: random.Random, indir: Path) -> list[Op]:
    ops = []
    for slot, (degrees, commands) in enumerate(SO3_SLOTS):
        d = rng.choice(degrees)
        labels = list(_labels(rng, list(range(d // 2 + 1))).values())
        table = orc.so3_table(d, labels)
        path = _write(indir, f"so3_{slot}.spec", orc.write_spec(table, rng))
        cert = orc.so3_certificate(d, labels)
        for command in commands:
            if command == "gen":
                ops.append(_spec_op(["gen", "so3", str(d)], orc.so3_table(d)))
            elif command == "check":
                ops.append(_json_op(["check", path], orc.expected_check(table), orc.observed_check))
            elif command == "verdict":
                ops.append(_json_op(
                    ["verdict", path],
                    {"exit_code": 0, "verdict": {"kind": "ladder", "certificate": cert}},
                    _pick("verdict"),
                ))
            else:
                ops.append(_json_op(
                    ["ladder", path, "--x3", labels[1]],
                    {"exit_code": 0, "certificate": cert},
                    _pick("certificate"),
                ))

    frag = orc.fragment_table()
    path = _write(indir, "fragment.spec", orc.write_spec(frag, rng))
    ops.append(_subring_op(path, frag, orc.all_subsets(frag.rank)))
    # the nested closures of dimension 30 and 75 rule the fragment out
    ops.append(_json_op(
        ["verdict", path],
        {"exit_code": 1, "verdict": True},
        lambda p: {
            "exit_code": p["exit_code"],
            "verdict": p["verdict"]["kind"] == "obstruction"
            and {"30", "75"} <= set(re.findall(r"\d+", p["verdict"].get("detail", ""))),
        },
    ))

    for slot, choices in enumerate(PARTIAL_GROUPS):
        moduli = rng.choice(choices)
        elems = orc.group_elements(moduli)
        labels = _labels(rng, elems)
        # Rows of the generators stay Known, so closing them reaches the whole group.
        gens = {tuple(int(i == k) for i in range(len(moduli))) for k in range(len(moduli))}
        open_pairs = [(x, y) for x in elems[1:] if x not in gens for y in elems[1:]]
        share = rng.uniform(*WITHHELD_SHARE)
        withheld = frozenset(rng.sample(open_pairs, round(share * (len(elems) - 1) ** 2)))
        table = orc.group_table(_group_name(moduli), moduli, labels, withheld)
        path = _write(indir, f"partial{slot}.spec", orc.write_spec(table, rng))
        ops += group_ops(moduli, ("check", "subrings"), path, table, labels)
    return ops


def search(rng: random.Random, indir: Path) -> list[Op]:
    picks = [rng.choice(slot) for slot in SEARCH_SLOTS]
    light = sorted(set(SEARCH_COUNTS) - {key for slot in SEARCH_SLOTS for key in slot})
    picks += rng.sample(light, SEARCH_LIGHT_DRAWS)
    ops = []
    for degrees, max_mult in picks:
        count, _ = SEARCH_COUNTS[(degrees, max_mult)]
        argv = ["search", "--degrees", ",".join(map(str, degrees)), "--max-mult", str(max_mult), "--workers", "1"]

        def expect(code, stdout, degrees=degrees, max_mult=max_mult, count=count):
            if code != 0:
                return f"exit {code}"
            return orc.search_mismatch(stdout, list(degrees), max_mult, count)

        ops.append(Op(tuple(argv), expect))
    return ops


BUILDERS = {"complete": complete, "truncated": truncated, "search": search}


def build(workload: str, seed: int, indir: Path) -> list[Op]:
    """Write the workload's inputs for ``seed`` into ``indir``; return its ops
    in a seeded order."""
    indir.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"{workload}/{seed}")
    ops = BUILDERS[workload](rng, indir)
    rng.shuffle(ops)
    return ops


def known_defect_ops(indir: Path) -> list[Op]:
    """`subrings` on Z2^3 and Z2^4, which the seed program answers with 15 of
    16 and 51 of 67 subgroups: closures are seeded with at most two generators."""
    indir.mkdir(parents=True, exist_ok=True)
    rng = random.Random("known-defects")
    ops = []
    for moduli in ((2, 2, 2), (2, 2, 2, 2)):
        labels = _labels(rng, orc.group_elements(moduli))
        table = orc.group_table(_group_name(moduli), moduli, labels)
        path = _write(indir, f"defect_{_group_name(moduli)}.spec", orc.write_spec(table, rng))
        ops += group_ops(moduli, ("subrings",), path, table, labels)
    return ops
