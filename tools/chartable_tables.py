"""Write the files that ``tools/chartable_cmds.txt`` and ``tools/cli_cmds.txt`` name into a directory.

Usage::

    python3 tools/chartable_tables.py OUTDIR

It writes the four shipped fixtures; the cyclic 12/30/60 and dihedral
21/45/63 tables of ``bench/workloads.py``'s generators at seeds 1-3, and
their cyclic 120 table at seed 1; the
trivial group's table at conductors 4620 and 5040; the tables of 6 to 13
classes that :func:`crafted` builds; :func:`synonyms`' table, whose ring is
seed 1's Z12 ring; the Z3 fixture declared at conductors 9 and 12 by
:func:`widened`; :func:`badpair`'s and :func:`badtoken`'s tables, and
:func:`swapped`'s table at conductors 5 and 10, which ``gen chartable``
refuses; :func:`negative`'s and :func:`paley`'s tables, which pass
validation and which ``gen chartable`` refuses in its ring loop; the specs
``so3_21.spec``, ``cyclic_12.spec``, ``fragment.spec`` and ``f21.spec``, which
this checkout's ``src`` generates; and the group specs of :func:`group_specs`,
which ``bench/oracle.py`` writes.  Run ``tools/same_outputs.py`` from OUTDIR
on either command file, which names each file by its file name.
"""

from __future__ import annotations

import os
import random
import re
import shutil
import subprocess
import sys
from math import isqrt
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]


def squares(total: int, count: int, least: int) -> list[int] | None:
    """``count`` integers of at least ``least``, largest first, whose squares
    sum to ``total``, each the largest of its 41 candidates that the rest
    allows; None if there are none."""
    if count == 0:
        return [] if total == 0 else None
    if total < least * count:
        return None
    top = isqrt(total)
    for x in range(top, max(least, top - 40) - 1, -1):
        rest = squares(total - x * x, count - 1, least)
        if rest is not None:
            return [x] + rest
    return None


def crafted(classes: int) -> str:
    """A table that passes the checks of a group's table, of no group.

    The class ratios |G|/|c| are |G| (the identity) and the Sylvester
    numbers 2, 3, 7, 43, ..., whose reciprocals sum to 1 - 1/|G|; so the
    digits of |G| about double with each class (105 at 10 classes), near
    Landau's bound.  Below a trivial row,
    each column holds integers whose squares sum to |G|/|c| - 1, positive
    at the identity and with the sign of every other row flipped elsewhere.
    The table declares conductor 5040, the largest allowed; its rows are not
    orthonormal.
    """
    sylvester = [2]
    while len(sylvester) < classes:
        sylvester.append(sylvester[-1] * (sylvester[-1] - 1) + 1)
    order = sylvester[-1] - 1
    ratios = [order] + sylvester[:-1]
    columns = [squares(r - 1, classes - 1, 1 if c == 0 else 0) for c, r in enumerate(ratios)]
    lines = [f"group S{classes} {order}", "conductor 5040"] + [f"class {order // r}" for r in ratios]
    lines.append("char 1 " + " ".join(["1"] * classes))
    for i in range(classes - 1):
        sign = -1 if i % 2 else 1
        lines.append(f"char {columns[0][i]} {columns[0][i]} " + " ".join(str(sign * col[i]) for col in columns[1:]))
    return "\n".join(lines) + "\n"


def synonyms(text: str) -> str:
    """``text`` with each ``z^k`` written as ``z^(k+N)`` and each value ``1`` as
    ``z^0`` on every other ``char`` row, N being its conductor: equal values
    from distinct tokens, which a parsed table holds as distinct objects."""
    conductor = int(re.search(r"^conductor (\d+)$", text, re.M).group(1))
    lines = text.splitlines()
    rows = [k for k, line in enumerate(lines) if line.startswith("char")][1::2]
    for k in rows:
        tokens = lines[k].split()
        values = [re.sub(r"\^(\d+)", lambda m: f"^{int(m.group(1)) + conductor}", v) for v in tokens[2:]]
        lines[k] = " ".join(tokens[:2] + ["z^0" if v == "1" else v for v in values])
    return "\n".join(lines) + "\n"


def widened(text: str, conductor: int) -> str:
    """``text`` declared at ``conductor``, a multiple k of its own conductor N,
    with each ``z^e`` (or ``z``) written as ``z^(k*e)``: the same values, whose
    exponents all share the factor k."""
    k = conductor // int(re.search(r"^conductor (\d+)$", text, re.M).group(1))
    text = re.sub(r"^conductor \d+$", f"conductor {conductor}", text, flags=re.M)
    return re.sub(r"z(?:\^(\d+))?", lambda m: f"z^{k * int(m.group(1) or 1)}", text)


def badpair(text: str) -> str:
    """``text`` with the partners of its first two ``dualpair`` lines swapped,
    so that each of those lines names two rows that are not conjugate."""
    lines = text.splitlines()
    first, second = [k for k, line in enumerate(lines) if line.startswith("dualpair")][:2]
    (_, a, b), (_, c, d) = lines[first].split(), lines[second].split()
    lines[first], lines[second] = f"dualpair {a} {d}", f"dualpair {c} {b}"
    return "\n".join(lines) + "\n"


def badtoken(text: str) -> str:
    """``text`` with the last value of its last ``char`` row replaced by the
    malformed term ``z^^2``, which follows every repeated token of the table."""
    lines = text.splitlines()
    last = max(k for k, line in enumerate(lines) if line.startswith("char"))
    lines[last] = lines[last].rsplit(" ", 1)[0] + " z^^2"
    return "\n".join(lines) + "\n"


def swapped() -> str:
    """Z5's table with the values of rows 1 and 2 swapped at class 1, and those
    of their conjugate rows 4 and 3 to match: the rows still pair and each
    column still sums as a group's does (L = 60), but <chi0, chi1> has the
    total 1+z+z^2+2*z^3, which is not rational."""
    rows = [[k * c % 5 for c in range(5)] for k in range(5)]
    rows[1][1], rows[2][1], rows[4][1], rows[3][1] = rows[2][1], rows[1][1], rows[3][1], rows[4][1]
    lines = ["group Z5 5", "conductor 5"] + ["class 1"] * 5
    lines += ["char 1 " + " ".join(f"z^{e}" if e else "1" for e in row) for row in rows]
    return "\n".join(lines + ["dualpair 1 4", "dualpair 2 3"]) + "\n"


def negative() -> str:
    """An orthonormal table of integers of no group: |G| = 12, class sizes
    1, 2, 3 and 6.  It passes validation, but <chi1 chi1, chi1> =
    (1 - 16 + 3) / 12 = -1 is a negative multiplicity."""
    rows = [(1, 1, 1, 1), (1, -2, 1, 0), (1, 1, 1, -1), (3, 0, -1, 0)]
    lines = ["group G12 12", "conductor 1"] + [f"class {size}" for size in (1, 2, 3, 6)]
    return "\n".join(lines + [f"char {row[0]} " + " ".join(map(str, row)) for row in rows]) + "\n"


def paley() -> str:
    """The normalized Paley Hadamard matrix of order 12 as a table of 12
    classes of size 1 and conductor 1.  Its first row and column are all 1
    and H H^T = 12 I, so it passes validation, but it is no group's table:
    the product of rows 1 and 2 has the inner product total 4 with row 3,
    which |G| = 12 does not divide."""
    residues = {x * x % 11 for x in range(1, 11)}
    rows = [[1] * 12] + [[1] + [-1 if j == i or (j - i) % 11 in residues else 1 for j in range(11)] for i in range(11)]
    lines = ["group H12 12", "conductor 1"] + ["class 1"] * 12
    return "\n".join(lines + ["char 1 " + " ".join(map(str, row)) for row in rows]) + "\n"


# The spec files of tools/cli_cmds.txt that `gen` writes, and the argv of each.
SPECS = {
    "so3_21.spec": ("so3", "21"),
    "cyclic_12.spec": ("cyclic", "12"),
    "fragment.spec": ("fragment",),
    "f21.spec": ("chartable", str(REPO / "src" / "fusionring" / "fixtures" / "f21.chartab")),
}


def group_specs() -> dict[str, str]:
    """Each group spec's file name and text, from ``bench/oracle.py``: Z2^3,
    whose joins of two atoms are new subgroups and whose whole ring no two
    generators reach; Z2xZ10, whose ten subgroups all have two generators; and
    Z2xZ4 with the rows (0,1)^2 and (1,1)^2 withheld, whose two Z4 atoms are
    incomplete and join to the whole ring.  Elements are labelled by their
    coordinates, the unit ``1``."""
    sys.path.insert(0, str(REPO / "bench"))
    import oracle

    def table(moduli: tuple[int, ...], withheld: frozenset = frozenset()):
        labels = {x: "e" + "_".join(map(str, x)) if any(x) else "1" for x in oracle.group_elements(moduli)}
        return oracle.group_table("x".join(f"Z{m}" for m in moduli), moduli, labels, withheld)

    return {
        "z2_z2_z2.spec": oracle.write_spec(table((2, 2, 2))),
        "z2_z10.spec": oracle.write_spec(table((2, 10))),
        "z2_z4_withheld.spec": oracle.write_spec(table((2, 4), frozenset({((0, 1), (0, 1)), ((1, 1), (1, 1))}))),
    }


def tables() -> dict[str, str]:
    """Each table's file name and text."""
    sys.path.insert(0, str(REPO / "bench"))
    import workloads

    out = {}
    for seed in (1, 2, 3):
        for n in (12, 30, 60):
            out[f"z{n}_{seed}.chartab"] = workloads.cyclic_table_file(n, random.Random(seed))[0]
        for n in (21, 45, 63):
            out[f"d{n}_{seed}.chartab"] = workloads.dihedral_table_file(n, random.Random(seed))[0]
    for n in (4620, 5040):
        out[f"one{n}.chartab"] = f"group G 1\nconductor {n}\nclass 1\nchar 1 1\n"
    for k in range(6, 14):
        out[f"crafted{k}.chartab"] = crafted(k)
    out["z12_synonyms.chartab"] = synonyms(out["z12_1.chartab"])
    z3 = (REPO / "src" / "fusionring" / "fixtures" / "z3.chartab").read_text()
    for n in (9, 12):
        out[f"z3_at{n}.chartab"] = widened(z3, n)
    out["z12_badpair.chartab"] = badpair(out["z12_1.chartab"])
    out["d21_badtoken.chartab"] = badtoken(out["d21_1.chartab"])
    out["z5_swapped.chartab"] = swapped()
    out["z5_swapped_at10.chartab"] = widened(swapped(), 10)
    out["z120_1.chartab"] = workloads.cyclic_table_file(120, random.Random(1))[0]
    out["g12_negative.chartab"] = negative()
    out["h12_paley.chartab"] = paley()
    return out


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.split("\n\n")[1].strip(), file=sys.stderr)
        return 2
    outdir = Path(argv[0])
    outdir.mkdir(parents=True, exist_ok=True)
    for fixture in (REPO / "src" / "fusionring" / "fixtures").glob("*.chartab"):
        shutil.copy(fixture, outdir / fixture.name)
    for name, text in {**tables(), **group_specs()}.items():
        (outdir / name).write_text(text)
    env = {**os.environ, "PYTHONPATH": str(REPO / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    for name, args in SPECS.items():
        with open(outdir / name, "wb") as fh:
            subprocess.run([sys.executable, "-m", "fusionring", "gen", *args], env=env, stdout=fh, check=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
