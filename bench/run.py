"""Benchmark of the fusionring CLI: three seeded workloads, timed outside-in.

    python3 bench/run.py --workload complete --seed 1 --seconds 32 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 32 --trace 1

Run from anywhere inside a checkout; the package is loaded from its ``src``.
With ``--trace 0`` every op runs in a fresh interpreter, one at a time, and
is timed from process start to exit; the times are taken at their best
over the passes and scaled by the host speed that a fixed reference task,
run between the ops, measures.  With ``--trace 1`` the same ops are
replayed in this process through ``fusionring.cli.run``, once plainly and
once with every module's public functions wrapped in spans.  Either way
each op's exit code and output are checked against the benchmark's own
oracle, and the last stdout line is one JSON result.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import platform
import re
import signal
import statistics
import subprocess
import sys
import threading
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Optional

import workloads
from spans import Tracer, self_times

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / "bench" / "work"
# The op process writes its own /proc status at exit: its VmHWM is the peak
# RSS of the program alone.  wait4's ru_maxrss would also count the pages
# the child shared with this process between fork and exec.
STATUS = WORK / "op.status"
LAUNCH = (
    f"import atexit, sys; sys.path.insert(0, {str(SRC)!r}); "
    f"atexit.register(lambda: open({str(STATUS)!r}, 'w').write(open('/proc/self/status').read())); "
    "from fusionring.cli import main; main()"
)

# About the seconds one pass over an op list takes at the seed program on a
# 2-vCPU Xeon VM: untraced per workload (fresh processes, setup and
# reference samples included), traced for any workload (in-process plain
# plus traced).  A run makes round(--seconds / this) passes, so a given
# --seconds gives the same sample count on every commit and the tail
# percentile stays comparable.
PASS_S = {"complete": 6.8, "truncated": 6.5, "search": 6.5}
TRACED_PASS_S = 10.0
OP_TIMEOUT_S = 30.0
OVERRUN = 1.75  # no new pass starts once a run could take this many times --seconds
SAMPLE_EVERY = 2  # before every second op a --version or a REFERENCE process, in turn, so they share the ops' time windows

# A fixed task of the benchmark's own in the shape of an op (a fresh
# interpreter, stdlib imports, dict-of-rows arithmetic) that no commit of
# the package can change.  Run between the ops, it measures how fast the
# shared host lets this run go; the end-to-end times are scaled by it.
REFERENCE = """\
import argparse, dataclasses, json, re, typing
from fractions import Fraction

n = 96
table = {(a, b): {(a + b) % n: 1, (a * b + 1) % n: 2} for a in range(n) for b in range(n)}
total = 0
for (a, b), row in table.items():
    for c, m in row.items():
        for d, k in table[c, (a * b) % n].items():
            total += m * k * d
print(total, Fraction(total, 7) + Fraction(1, 3))
"""
REFERENCE_S = 0.075  # REFERENCE's time, at or below its median, on a 2-vCPU Xeon (2.1 GHz) VM in a fast phase: host speed 1

END_TO_END = {
    "wall_s": "s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "cli.run.self_s": "s",
    "specfmt.parse_spec.self_s": "s",
    "specfmt.parse_spec.bytes": "bytes",
    "specfmt.write_spec.self_s": "s",
    "oracles.so3_truncated.self_s": "s",
    "ring.build_ring.self_s": "s",
    "ring.build_ring.calls": "count",
    "chartable.parse_character_table.self_s": "s",
    "chartable.validate.self_s": "s",
    "chartable.validate.calls": "count",
    "chartable.char_table_ring.self_s": "s",
    "cyclotomic.reductions": "count",
    "axioms.check_axioms.self_s": "s",
    "axioms.check_axioms.calls": "count",
    "axioms.instances": "count",
    "axioms.skipped_ratio": "ratio",
    "axioms.check_stabilizer_rule.self_s": "s",
    "axioms.check_stabilizer_rule.calls": "count",
    "subrings.enumerate_standard_subrings.self_s": "s",
    "subrings.closure.calls": "count",
    "subrings.useful_ratio": "ratio",
    "subrings.freeness_obstructions.self_s": "s",
    "ladder.dichotomy_verdict.self_s": "s",
    "ladder.selfdual_chain.self_s": "s",
    "ladder.ladder_build.self_s": "s",
    "ladder.ladder_build.depth": "count",
    "search.enumerate_rings.self_s": "s",
    "search.rings_out": "count",
    "trace.overhead_ratio": "ratio",
}


@dataclass
class Outcome:
    """One op execution: its wall time, peak memory and whether it was right."""

    argv: tuple[str, ...]
    wall_s: float
    rss_mb: float
    problem: Optional[str]


def judge(op: workloads.Op, code: Optional[int], stdout: str, stderr: str) -> Optional[str]:
    """Why the op failed (timeout, traceback, oracle mismatch), or None."""
    if code is None:
        return f"timed out after {OP_TIMEOUT_S:.0f} s"
    if "Traceback (most recent call last)" in stderr:
        return "traceback: " + stderr.strip().splitlines()[-1]
    try:
        return op.expect(code, stdout)
    except Exception as exc:  # any malformed output is a failed op, not a crash
        return f"unreadable output ({type(exc).__name__}: {exc})"


def peak_rss_mb(status: str) -> float:
    """VmHWM of a /proc/<pid>/status text in MB, 0 when it has none."""
    match = re.search(r"^VmHWM:\s*(\d+) kB", status, re.M)
    return int(match.group(1)) / 1024 if match else 0.0


def spawn(argv: tuple[str, ...], env: dict, code: str = LAUNCH) -> tuple[Optional[int], str, str, float, float]:
    """Run the CLI (or other ``code``) in a fresh interpreter: (exit code or
    None on timeout, stdout, stderr, wall seconds from start to exit, peak
    RSS in MB as the CLI reports it at exit, else 0)."""
    WORK.mkdir(parents=True, exist_ok=True)
    STATUS.unlink(missing_ok=True)
    with open(WORK / "op.out", "w+b") as out, open(WORK / "op.err", "w+b") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", code, *argv], stdout=out, stderr=err, cwd=ROOT, env=env)
        killed = threading.Event()

        def kill() -> None:
            killed.set()
            proc.kill()

        timer = threading.Timer(OP_TIMEOUT_S, kill)
        timer.start()
        try:
            _, status, _ = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        stdout, stderr = out.read().decode(errors="replace"), err.read().decode(errors="replace")
    rss = peak_rss_mb(STATUS.read_text()) if STATUS.exists() else 0.0
    return None if killed.is_set() else proc.returncode, stdout, stderr, wall, rss


class OpTimeout(BaseException):
    """Raised by SIGALRM in an in-process op that overran OP_TIMEOUT_S; a
    BaseException so that no ``except Exception`` in the library swallows it."""


def _alarm(signum, frame):
    raise OpTimeout


def in_process(argv: tuple[str, ...]) -> tuple[Optional[int], str, str]:
    """Run ``fusionring.cli.run(argv)`` here with stdout and stderr captured:
    (exit code or None on timeout, stdout, stderr)."""
    cli = sys.modules["fusionring.cli"]
    out, err = io.StringIO(), io.StringIO()
    previous = signal.signal(signal.SIGALRM, _alarm)
    with redirect_stdout(out), redirect_stderr(err):
        try:
            signal.setitimer(signal.ITIMER_REAL, OP_TIMEOUT_S)
            try:
                code = cli.run(list(argv))
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
        except OpTimeout:
            code = None
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # what a fresh process would die of: a failed op
            traceback.print_exc()
            code = 1
        finally:
            signal.signal(signal.SIGALRM, previous)
    return code, out.getvalue(), err.getvalue()


def tail_percentile(n: int) -> int:
    """Highest whole percentile whose nearest-rank sample has at least ten
    samples beyond it; 50 when ten or fewer samples leave none."""
    for p in range(99, 0, -1):
        if n - math.ceil(p * n / 100) >= 10:
            return p
    return 50


def percentile(values: list[float], p: int) -> float:
    ordered = sorted(values)
    return ordered[max(1, math.ceil(p * len(ordered) / 100)) - 1]


def pass_count(workload: str, trace: int, seconds: int) -> int:
    return max(1, round(seconds / (TRACED_PASS_S if trace else PASS_S[workload])))


def fastest_half(samples: list[float]) -> list[float]:
    """The samples at or below their median: the faster half, rounded up.
    Other tenants of a shared host only ever add time to a run, in bursts of
    a few seconds, so the slower samples are mostly the host's."""
    return sorted(samples)[: (len(samples) + 1) // 2]


def measure_end_to_end(ops, passes: int, budget_s: float) -> tuple[dict, list[Outcome], dict]:
    env = {k: v for k, v in os.environ.items() if k != "FUSIONRING_THREADS"}
    version = ("--version",)
    spawn(version, env)  # one-off first-start costs (file and bytecode caches) stay untimed

    def setup_sample() -> float:
        code, stdout, _, wall, _ = spawn(version, env)
        if code != 0 or not stdout.startswith("fusionring "):
            raise SystemExit(f"bench: `fusionring --version` failed (exit {code})")
        return wall

    expected = io.StringIO()
    with redirect_stdout(expected):
        exec(REFERENCE, {})

    def reference_sample() -> float:
        code, stdout, _, wall, _ = spawn((), env, REFERENCE)
        if code != 0 or stdout != expected.getvalue():
            raise SystemExit(f"bench: the reference task failed (exit {code})")
        return wall

    setups: list[float] = []
    references: list[float] = []
    outcomes: list[Outcome] = []
    began = time.perf_counter()
    for _ in range(passes):
        start = time.perf_counter()
        for op in ops:
            if len(outcomes) % SAMPLE_EVERY == 0:
                if len(outcomes) % (2 * SAMPLE_EVERY) == 0:
                    setups.append(setup_sample())
                else:
                    references.append(reference_sample())
            code, stdout, stderr, wall, rss = spawn(op.argv, env)
            outcomes.append(Outcome(op.argv, wall, rss, judge(op, code, stdout, stderr)))
        now = time.perf_counter()
        if now - began + (now - start) > budget_s:
            break
    walls = [o.wall_s for o in outcomes]
    per_op = [walls[k::len(ops)] for k in range(len(ops))]
    kept = [w for samples in per_op for w in fastest_half(samples)]
    p = tail_percentile(len(kept))
    measured = {
        # each op at its best over the passes, summed over the op list
        "wall_s": sum(min(samples) for samples in per_op),
        "op_p50_s": statistics.median(min(samples) for samples in per_op),
        "op_tail_s": percentile(kept, p),
        "setup_s": statistics.median(fastest_half(setups)),
    }
    # below 1 while the host is slower than it was when REFERENCE_S was taken
    speed = REFERENCE_S / statistics.median(fastest_half(references))
    metrics = {name: value * speed for name, value in measured.items()}
    metrics["peak_rss_mb"] = max(o.rss_mb for o in outcomes)
    notes = {
        "passes": len(walls) // len(ops),
        "op_tail_percentile": p,
        "op_samples": len(kept),
        "setup_samples": len(setups),
        "reference_samples": len(references),
        "host_speed": speed,
        "measured": measured,
    }
    return metrics, outcomes, notes


SELF_LAYERS = {name.removesuffix(".self_s") for name in PER_LAYER if name.endswith(".self_s")}


def layer_metrics(spans, counts: dict) -> dict:
    """Per-layer figures of one traced op list.

    The self time of a span without a declared ``self_s`` metric goes to its
    nearest declared ancestor, so every function's work counts somewhere:
    ``ladder.degree3_case_split`` inside ``ladder.selfdual_chain`` counts as
    the chain's, ``cli.build_parser`` as ``cli.run``'s.
    """
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    extra: dict[str, float] = {}
    enumerations = set()
    closures_in_enumeration = 0
    home: list[Optional[str]] = []  # parents come before their children
    for i, (span, own) in enumerate(zip(spans, self_times(spans))):
        if span.name in SELF_LAYERS:
            home.append(span.name)
        else:
            home.append(home[span.parent] if span.parent is not None else None)
        if home[i] is not None:
            self_s[home[i]] = self_s.get(home[i], 0.0) + own
        calls[span.name] = calls.get(span.name, 0) + 1
        for key, value in span.extra.items():
            extra[f"{span.name}.{key}"] = extra.get(f"{span.name}.{key}", 0) + value
        if span.name == "subrings.enumerate_standard_subrings":
            enumerations.add(i)
        elif span.name == "subrings.closure" and span.parent in enumerations:
            closures_in_enumeration += 1
    instances = extra.get("axioms.check_axioms.instances", 0)
    returned = extra.get("subrings.enumerate_standard_subrings.returned", 0)
    out = {}
    for name in PER_LAYER:
        layer, _, what = name.rpartition(".")
        if what == "self_s":
            out[name] = self_s.get(layer, 0.0)
        elif what == "calls":
            out[name] = calls.get(layer, 0)
    out.update({
        "specfmt.parse_spec.bytes": extra.get("specfmt.parse_spec.bytes", 0),
        "cyclotomic.reductions": counts.get("cyclotomic.reductions", 0),
        "axioms.instances": instances,
        "axioms.skipped_ratio": extra.get("axioms.check_axioms.skipped", 0) / instances if instances else 0.0,
        "subrings.useful_ratio": returned / closures_in_enumeration if closures_in_enumeration else 0.0,
        "ladder.ladder_build.depth": extra.get("ladder.ladder_build.depth", 0),
        "search.rings_out": extra.get("search.enumerate_rings.rings", 0),
    })
    return out


def measure_traced(ops, passes: int, budget_s: float, spans_path: Path) -> tuple[dict, list[Outcome], dict]:
    sys.path.insert(0, str(SRC))
    import fusionring.cli  # noqa: F401  (loaded from the checkout under test)

    outcomes: list[Outcome] = []
    per_pass: list[dict] = []
    ratios = []
    all_spans = []
    began = time.perf_counter()
    for _ in range(passes):
        start = time.perf_counter()
        plain = 0.0
        for op in ops:
            t0 = time.perf_counter()
            code, stdout, stderr = in_process(op.argv)
            plain += time.perf_counter() - t0
            outcomes.append(Outcome(op.argv, time.perf_counter() - t0, 0.0, judge(op, code, stdout, stderr)))
        tracer = Tracer()
        traced = 0.0
        with tracer:
            for k, op in enumerate(ops):
                tracer.op = k
                t0 = time.perf_counter()
                code, stdout, stderr = in_process(op.argv)
                traced += time.perf_counter() - t0
                outcomes.append(Outcome(op.argv, time.perf_counter() - t0, 0.0, judge(op, code, stdout, stderr)))
        ratios.append(traced / plain)
        per_pass.append(layer_metrics(tracer.spans, tracer.counts))
        all_spans.append([asdict(s) for s in tracer.spans])
        now = time.perf_counter()
        if now - began + (now - start) > budget_s:
            break
    metrics = {name: statistics.median(p[name] for p in per_pass) for name in PER_LAYER if name != "trace.overhead_ratio"}
    metrics["trace.overhead_ratio"] = statistics.median(ratios)
    spans_path.write_text(json.dumps(all_spans))
    repeats = {
        name: len({p[name] for p in per_pass}) == 1
        for name in PER_LAYER
        if not name.endswith(("self_s", "ratio"))
    }
    notes = {"passes": len(per_pass), "counts_repeat": all(repeats.values()), "spans_file": str(spans_path)}
    return metrics, outcomes, notes


def environment(workload: str, seed: int, ops) -> dict:
    commit = "unknown"
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = done.stdout.strip() or commit
    return {
        "commit": commit,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "os_cpu_count": os.cpu_count(),
        "workload": workload,
        "seed": seed,
        "ops_per_list": len(ops),
    }


def run_workload(workload: str, seed: int, seconds: int, trace: int) -> dict:
    ops = workloads.build(workload, seed, WORK / "in" / workload)
    passes = pass_count(workload, trace, seconds)
    budget_s = OVERRUN * seconds
    if trace:
        spans_path = WORK / f"spans-{workload}-seed{seed}.json"
        metrics, outcomes, notes = measure_traced(ops, passes, budget_s, spans_path)
        units = PER_LAYER
    else:
        metrics, outcomes, notes = measure_end_to_end(ops, passes, budget_s)
        units = END_TO_END
    failures = [o for o in outcomes if o.problem]
    record = {
        "environment": environment(workload, seed, ops),
        "notes": notes,
        "attempted": len(outcomes),
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
        "failures": [{"argv": list(o.argv), "problem": o.problem} for o in failures],
    }
    (WORK / f"result-{workload}-seed{seed}-trace{trace}.json").write_text(json.dumps(record, indent=2))
    print_report(record, trace)
    return record


def print_report(record: dict, trace: int) -> None:
    env, notes = record["environment"], record["notes"]
    print(f"workload {env['workload']}, seed {env['seed']}, tracing {'on' if trace else 'off'}")
    print(
        f"  commit {env['commit']}, python {env['python']}, nproc {env['nproc']}, "
        f"os.cpu_count {env['os_cpu_count']}, {env['ops_per_list']} ops per list, {notes['passes']} lists"
    )
    print(f"  ops attempted {record['attempted']}, failed {record['failed']} (failed_ratio {record['failed'] / record['attempted']:.4f})")
    if not trace:
        print(f"  host speed {notes['host_speed']:.3f} of the reference machine (REFERENCE, {notes['reference_samples']} samples); times below are scaled by it")
        print(f"  op_tail_s is p{notes['op_tail_percentile']} of {notes['op_samples']} op samples (each op's at or below its median)")
    else:
        print(f"  counts repeat across lists: {notes['counts_repeat']}; spans in {notes['spans_file']}")
    for name, m in record["metrics"].items():
        print(f"  {name:45s} {m['value']:>14.6g} {m['unit']}")
    for f in record["failures"][:10]:
        print(f"  FAILED {' '.join(f['argv'])}: {f['problem']}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*workloads.WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=32)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "fusionring" / "cli.py").is_file():
        print(f"bench: no fusionring package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    records = {w: run_workload(w, args.seed, args.seconds, args.trace) for w in names}
    if len(records) == 1:
        (record,) = records.values()
        metrics = record["metrics"]
    else:
        metrics = {f"{w}.{k}": v for w, r in records.items() for k, v in r["metrics"].items()}
    failed = sum(r["failed"] for r in records.values())
    result = {
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in records.values()),
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
