"""Golden CLI reports: check, verdict, ladder and subrings, in text and JSON,
on the fixture character rings, the fragment, so3_21, Z12, the hand-built
diagnostic rings of conftest, and partial rings that reach each Unknown-product
exit of the degree-3 analysis.

Each ring's expected stdout, stderr and exit codes live in
``tests/golden/<ring>.txt``.  Refactors must leave them byte-identical; a
deliberate report change regenerates them with
``PYTHONPATH=src python tests/test_reports_golden.py`` and says so.
"""

from __future__ import annotations

import io
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
}


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
                argv = ["--format", fmt, command[0], ring.name, *command[1:]]
                out, err = io.StringIO(), io.StringIO()
                with redirect_stdout(out), redirect_stderr(err):
                    code = cli.run(argv)
                parts.append(
                    f"$ fusionring {' '.join(argv)}\n[exit {code}]\n"
                    f"{out.getvalue()}[stderr]\n{err.getvalue()}"
                )
    return "".join(parts)


@pytest.mark.parametrize("name", sorted(RINGS))
def test_report_matches_golden(name):
    expected = (GOLDEN / f"{name}.txt").read_text(encoding="utf-8")
    assert report(RINGS[name]()) == expected


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, make in RINGS.items():
        (GOLDEN / f"{name}.txt").write_text(report(make()), encoding="utf-8")
