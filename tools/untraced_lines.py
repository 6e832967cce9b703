"""List the lines of ``src/fusionring`` that the test suite never runs.

Usage: ``python3 tools/untraced_lines.py [pytest args...]``

Runs pytest on ``tests`` under a ``sys.settrace`` line tracer restricted to
the package and prints each module's never-run executable lines.  Exits 1
when pytest fails or a line outside ``EXEMPT`` never ran, else 0.  Processes
the tests spawn are not traced, so the tests run the entry points in-process
too.  The suite runs several times slower under the tracer (191 s against
29 s on a 2-CPU box), so it is not part of the suite.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PKG = ROOT / "src" / "fusionring"
# module -> stripped source lines allowed never to run (None: the whole file).
# The `TYPE_CHECKING` import is read by type checkers only.
EXEMPT = {
    "oracles.py": {"from .chartable import CharacterTable"},
}


def executable_lines(path: Path) -> set[int]:
    lines, stack = set(), [compile(path.read_text(), str(path), "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        stack.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def main(argv: list[str]) -> int:
    prefix = f"{PKG}/"
    ran: set[tuple[str, int]] = set()

    def trace(frame, event, arg):
        if not frame.f_code.co_filename.startswith(prefix):
            return None
        ran.add((frame.f_code.co_filename, frame.f_lineno))
        return trace

    sys.path.insert(0, str(ROOT / "src"))
    sys.settrace(trace)
    try:
        status = pytest.main(["-q", str(ROOT / "tests"), *argv])
    finally:
        sys.settrace(None)

    failing = 0
    for path in sorted(PKG.glob("*.py")):
        source = path.read_text().splitlines()
        missed = sorted(n for n in executable_lines(path) if (str(path), n) not in ran)
        if not missed:
            continue
        exempt = EXEMPT.get(path.name, set())
        unexempt = [n for n in missed if exempt is not None and source[n - 1].strip() not in exempt]
        failing += len(unexempt)
        print(f"{path.name}: {len(missed)} never run ({len(unexempt)} not exempt)")
        for n in missed:
            mark = "  " if n not in unexempt else "! "
            print(f"  {mark}{n:4d}  {source[n - 1].strip()}")
    print(f"{failing} never-run lines outside the exempt set; pytest exit {int(status)}")
    return 1 if failing or status != 0 else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
