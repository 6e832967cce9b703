"""Run one list of CLI commands in two checkouts and report each whose outputs differ.

Usage::

    python3 tools/same_outputs.py PARENT CHANGE CMDFILE

Each line of CMDFILE is one argv of the ``fusionring`` command line, split
like a shell line (``shlex``); ``#`` starts a comment, and a line left empty
is skipped.  Each argv runs once per checkout, in the current directory, as
``python3 -c "from fusionring.cli import main; main()" ARGV...`` with
``PYTHONPATH=<checkout>/src`` and ``PYTHONDONTWRITEBYTECODE=1``.  Every
command whose stdout, stderr or exit code differs is printed with the first
of those three that differs.  Exits 1 when any command differs, else 0.
"""

from __future__ import annotations

import os
import shlex
import subprocess
import sys
from pathlib import Path

MAIN = "from fusionring.cli import main; main()"
STREAMS = ("stdout", "stderr", "exit code")


def outputs(checkout: Path, argv: list[str]) -> tuple[bytes, bytes, int]:
    """The stdout, stderr and exit code of ``argv`` run against ``checkout``'s source."""
    env = {**os.environ, "PYTHONPATH": str(checkout.resolve() / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    done = subprocess.run([sys.executable, "-c", MAIN, *argv], env=env, capture_output=True)
    return done.stdout, done.stderr, done.returncode


def main(argv: list[str]) -> int:
    if len(argv) != 3:
        print(__doc__.split("\n\n")[1].strip(), file=sys.stderr)
        return 2
    parent, change, cmdfile = Path(argv[0]), Path(argv[1]), Path(argv[2])
    lines = cmdfile.read_text().splitlines()
    commands = [args for args in (shlex.split(line, comments=True) for line in lines) if args]
    differ = 0
    for args in commands:
        pairs = zip(STREAMS, outputs(parent, args), outputs(change, args))
        stream = next((name for name, a, b in pairs if a != b), None)
        if stream is not None:
            differ += 1
            print(f"{stream} differs: {shlex.join(args)}")
    print(f"same_outputs: {differ} of {len(commands)} commands differ", file=sys.stderr)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
