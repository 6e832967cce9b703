"""Peak memory of a spawned op, against a bare interpreter's.

A group ring of order n has n distinct rows among its n**2 pairs: the
builder passes one term dict per row to all n pairs that share it, and the
ring makes each dense and stores it once.  `gen cyclic 128` peaks about
4 MB above a bare interpreter.  A ring that kept a dense row per pair would
hold n**3 coefficients again and peak about 22 MB above it; a builder that
passed a term dict per pair, each of which the ring remembers, about 9 MB.

`gen so3 255` writes a 2.7 MB spec: its text is joined once and printed as
it is, and the op peaks about 14 MB above a bare interpreter, against about
19 MB when the text was copied once more for its last newline and twice
more on its way to stdout.

With `PYTHONDONTWRITEBYTECODE` set, every op compiles each module it loads,
and `compile()` holds a module's whole syntax tree at once.  A module whose
compile heap rises above the others raises the peak of every op that
compiles it: merged back into `axioms` (1.22 MiB), the axiom walks raise
each workload's peak op by 0.16-0.20 MB, and merged back into `ladder`
(1.35 MiB), the ladder's failure branches by 0.20-0.21 MB where the ladder
runs (medians of 5 rounds, CPython 3.11.7).  Lowering one module of a
near-equal group does not lower the peak: with `cli` at 0.53 MiB and `ring`
at 0.91, the bench's `truncated` peak stayed at 15.26 against 15.27 MB.
So no module may compile with a larger heap than `cli`, which every op
loads (1.15 MiB of traced heap).

A character table holds each distinct value once, and its evaluation maps
each distinct value into Z/q once: Z60's 3600 entries share 60 value objects,
60 labels and 60 residues.  With a residue pair per value object and the
modulus M = |Phi_60(2L + 2)|, `gen chartable` on Z60 peaked 0.84-0.97 MiB
above the same op on the Z3 fixture, which compiles the same modules;
mapping each entry on its own (a term list and two residues per entry)
made it 1.79-1.93 MiB (10 rounds each, half of them with cached bytecode,
CPython 3.11.7).
"""

import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

# Prints the process's peak resident set (VmHWM, in kB) to stderr at exit.
PEAK = (
    "import atexit, sys\n"
    "atexit.register(lambda: print(next(line.split()[1] for line in open('/proc/self/status')"
    " if line.startswith('VmHWM:')), file=sys.stderr))\n"
)


def peak_kb(code: str, *argv: str) -> int:
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run(
        [sys.executable, "-c", PEAK + code, *argv],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return int(done.stderr.split()[-1])


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads VmHWM from /proc")
def test_gen_cyclic_128_peaks_under_5_mb_above_a_bare_interpreter():
    bare = peak_kb("pass")
    gen = peak_kb("from fusionring.cli import main\nmain()", "gen", "cyclic", "128")
    assert (gen - bare) / 1024 < 5


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads VmHWM from /proc")
def test_gen_so3_255_peaks_under_16_mb_above_a_bare_interpreter():
    bare = peak_kb("pass")
    gen = peak_kb("from fusionring.cli import main\nmain()", "gen", "so3", "255")
    assert (gen - bare) / 1024 < 16


def cyclic_table(n: int) -> str:
    """Z_n's character table: chi_i takes zeta^(i*c) at class c."""
    lines = [f"group Z{n} {n}", f"conductor {n}"] + ["class 1"] * n
    lines += ["char 1 " + " ".join(f"z^{i * c % n}" if i * c % n else "1" for c in range(n)) for i in range(n)]
    lines += [f"dualpair {i} {n - i}" for i in range(1, (n + 1) // 2)]
    return "\n".join(lines) + "\n"


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads VmHWM from /proc")
def test_gen_chartable_z60_peaks_under_1_37_mib_above_the_z3_fixture(tmp_path):
    path = tmp_path / "z60.chartab"
    path.write_text(cyclic_table(60))
    main = "from fusionring.cli import main\nmain()"
    z3 = peak_kb(main, "gen", "chartable", str(SRC / "fusionring" / "fixtures" / "z3.chartab"))
    z60 = peak_kb(main, "gen", "chartable", str(path))
    assert (z60 - z3) / 1024 < 1.37  # halfway between 0.89 per value object and 1.85 per entry (medians)


def compile_peak(path: Path) -> int:
    """The traced heap peak of compiling ``path`` from its bytes, as an
    import without cached bytecode does; the least of three compiles."""
    source = path.read_bytes()
    peaks = []
    for _ in range(3):
        tracemalloc.start()
        try:
            compile(source, str(path), "exec")
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    return min(peaks)


@pytest.mark.skipif(tracemalloc.is_tracing(), reason="tracemalloc is already tracing this process")
def test_no_module_compiles_with_a_larger_heap_than_cli():
    peaks = {path.name: compile_peak(path) for path in sorted((SRC / "fusionring").glob("*.py"))}
    assert {name for name, peak in peaks.items() if peak > peaks["cli.py"]} == set()
