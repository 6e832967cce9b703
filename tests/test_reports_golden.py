"""Golden CLI reports: check, verdict, ladder and subrings, in text and JSON,
on the fixture character rings, the fragment, so3_21, Z12, Z16, Z20, the
hand-built diagnostic rings of conftest, partial rings that reach each
Unknown-product exit of the degree-3 analysis, and Z20 with a fifth of its
rows withheld; and ``search`` on a few degree lists, which pins the order,
labels and names of the enumerated rings.

Each report's expected stdout, stderr and exit codes live in
``tests/golden/<name>.txt``.  Refactors must leave them byte-identical; a
deliberate report change regenerates them with
``PYTHONPATH=src python tests/test_reports_golden.py`` and says so.
"""

from __future__ import annotations

import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

import pytest

import fusionring as fr
from fusionring import cli

import conftest

GOLDEN = Path(__file__).parent / "golden"

RINGS = {
    "S3": fr.s3_character_ring,
    "A4": fr.a4_character_ring,
    "F21": fr.f21_character_ring,
    "Z3": lambda: fr.fixture_character_ring("z3"),
    "fragment": fr.fragment_ring,
    "so3_21": lambda: fr.so3_truncated(21),
    "Z12": lambda: fr.cyclic_group_ring(12),
    "order2": conftest.order2_branch_ring,
    "factorization_branch": conftest.factorization_branch_ring,
    "chain1": conftest.chain_length_one_ring,
    "count4": conftest.count4_corrupt_ring,
    "Z5corrupt": conftest.corrupt_z5_ring,
    # the ladder's inconsistent_data branch: a reciprocity multiplicity, an
    # order-3 grouplike at the chain's end
    "badrecip": conftest.bad_reciprocity_ring,
    "order3bad": conftest.order3_chain_end_ring,
    # Each partial ring below reaches an exit of the degree-3 analysis that
    # no ring above reaches.
    "so3_3": lambda: fr.so3_truncated(3),  # the case split meets an Unknown x3*x3
    "so3_5": lambda: fr.so3_truncated(5),  # the ladder truncates at depth 1
    # a grouplike product is Unknown
    "A4-s.s2": lambda: conftest.withhold_rows(fr.a4_character_ring(), ("s", "s2")),
    # the shape fallback takes the order-2 branch / finds no translate g*x3
    "order2-gx3.x3": lambda: conftest.withhold_rows(conftest.order2_branch_ring(), ("gx3", "x3")),
    "order2-g.x3": lambda: conftest.withhold_rows(conftest.order2_branch_ring(), ("g", "x3")),
    # the order-2 branch meets an Unknown g*g
    "order2-g.g": lambda: conftest.withhold_rows(conftest.order2_branch_ring(), ("g", "g")),
    # the terminal branch meets incomplete closures
    "fragment-g.g": lambda: conftest.withhold_rows(fr.fragment_ring(), ("g", "g")),
    # the shape fallback truncates
    "factorization_branch-g.x3": lambda: conftest.withhold_rows(
        conftest.factorization_branch_ring(), ("g", "x3")
    ),
    # Subring lattices at the benchmark's sizes, where many labels close to
    # the same subring; in the partial one some closures stay incomplete.
    "Z16": lambda: fr.cyclic_group_ring(16),
    "Z20": lambda: fr.cyclic_group_ring(20),
    "Z20-withheld": lambda: _withhold_share(fr.cyclic_group_ring(20), 0.2, seed=20),
}


def _withhold_share(ring: fr.FusionRing, share: float, seed: int) -> fr.FusionRing:
    """``ring`` with a seeded ``share`` of its non-unit rows withheld, keeping
    the rows of ``g``, so that closing ``g`` still reaches the whole group."""
    keep = {ring.unit_index, ring.index("g")}
    pairs = [
        (ring.label(i), ring.label(j))
        for i, j in ring.known_pairs()
        if i not in keep and j != ring.unit_index
    ]
    count = round(share * (ring.rank - 1) ** 2)
    return conftest.withhold_rows(ring, *random.Random(seed).sample(pairs, count))


# search reports: degree list and max_mult
SEARCHES = {
    "search_1_1_1_1_m1": ((1, 1, 1, 1), 1),
    "search_1_1_1_3_m2": ((1, 1, 1, 3), 2),
    "search_1_1_1_3_3_m2": ((1, 1, 1, 3, 3), 2),
    "search_1_1_1_1_1_1_m1": ((1, 1, 1, 1, 1, 1), 1),
    "search_1_1_1_3_3_3_m3": ((1, 1, 1, 3, 3, 3), 3),
    "search_1_3_3_3_5_5_m2": ((1, 3, 3, 3, 5, 5), 2),  # no ring
}


def _run(argv: list[str]) -> str:
    """One CLI run: the command line, exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.run(argv)
    return f"$ fusionring {' '.join(argv)}\n[exit {code}]\n{out.getvalue()}[stderr]\n{err.getvalue()}"


def report(ring: fr.FusionRing) -> str:
    """Every command's exit code, stdout and stderr on ``ring``, in order.

    The ring is handed to the commands in memory, so rings the spec format
    rejects (degree-sum corrupt ones) are reported too.
    """
    x3_labels = [b.label for b in ring.elements if b.degree == 3]
    commands = [["check"], ["verdict"], ["subrings"]]
    commands += [["ladder", "--x3", x3] for x3 in x3_labels or [ring.label(ring.unit_index)]]
    parts = []
    with mock.patch.object(cli, "_read_ring", lambda path: ring):
        for fmt in ("text", "json"):
            for command in commands:
                parts.append(_run(["--format", fmt, command[0], ring.name, *command[1:]]))
    return "".join(parts)


def search_report(degrees: tuple[int, ...], max_mult: int) -> str:
    """``search`` on one degree list, in text and JSON."""
    argv = ["search", "--degrees", ",".join(map(str, degrees)), "--max-mult", str(max_mult), "--workers", "1"]
    return "".join(_run(["--format", fmt, *argv]) for fmt in ("text", "json"))


REPORTS = {
    **{name: lambda make=make: report(make()) for name, make in RINGS.items()},
    **{name: lambda args=args: search_report(*args) for name, args in SEARCHES.items()},
}


@pytest.mark.parametrize("name", sorted(REPORTS))
def test_report_matches_golden(name):
    expected = (GOLDEN / f"{name}.txt").read_text(encoding="utf-8")
    assert REPORTS[name]() == expected


@pytest.mark.parametrize("name", sorted(RINGS))
def test_as_dict_is_plain_json(name):
    """Every result's ``as_dict()`` survives a JSON round trip unchanged: no
    tuple, NamedTuple or other non-JSON value leaks into a report."""
    ring = RINGS[name]()
    dicts = [fr.check_axioms(ring).as_dict(), fr.dichotomy_verdict(ring).as_dict()]
    dicts += [s.as_dict() for s in fr.enumerate_standard_subrings(ring)]
    for i, b in enumerate(ring.elements):
        if ring.product_row(i, ring.dual_index(i)) is not None:
            dicts.append(fr.check_stabilizer_rule(ring, b.label).as_dict())
        if b.degree == 3 and ring.dual_index(i) == i:
            try:
                dicts.append(fr.ladder_build(ring, b.label).as_dict())
            except fr.PreconditionUnmet:
                pass
    for d in dicts:
        assert json.loads(json.dumps(d)) == d


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, make in REPORTS.items():
        (GOLDEN / f"{name}.txt").write_text(make(), encoding="utf-8")
