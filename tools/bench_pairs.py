"""Alternating pairs of bench runs at two checkouts, summarised per end-to-end metric.

Usage::

    python3 tools/bench_pairs.py PARENT CHANGE --workload complete truncated search \\
        --pairs 10 [--json OUT]

Pair k (k = 1..pairs) runs ``bench/run.py --workload W --seed k --seconds N
--trace 0`` in each checkout, N being the ``run_seconds`` of the parent's
``BENCHMARK.json``, the parent first when k is odd and the change first when
k is even, so neither side always meets the host's warmer or quieter moment.
For each metric in that file's ``end_to_end`` list it prints both medians,
the parent's interquartile range, the pairs the change wins (ties count for
neither side) and whether the change's median is worse than the parent's by
more than the metric's bound, a share of the parent's median.  A metric that
is not worse is unresolved when the parent's interquartile range is wider
than the bound, unless every change run beats every parent run.
``--json OUT`` also writes every run's values and the summaries to OUT.
Exits 1 when an op failed on either side or a metric is worse than its bound.

It refuses checkouts whose absolute paths differ in length, since the path
is part of every op's argv and so of its memory layout, and checkouts with
``__pycache__`` under ``src``, since cached bytecode skips the compile each
op pays on a host with ``PYTHONDONTWRITEBYTECODE=1``; the runs set that
variable too.  It reads ``bench/`` and ``BENCHMARK.json`` and writes to
neither; ``bench/run.py`` keeps its inputs and results in each checkout's
``bench/work``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path


def refusal(parent: Path, change: Path) -> str | None:
    """Why the two checkouts cannot be compared, or None."""
    parent, change = parent.resolve(), change.resolve()
    if len(str(parent)) != len(str(change)):
        return f"paths differ in length: {parent} ({len(str(parent))}) and {change} ({len(str(change))})"
    for checkout in (parent, change):
        if not (checkout / "bench" / "run.py").is_file():
            return f"{checkout} has no bench/run.py"
        cached = next((checkout / "src").rglob("__pycache__"), None)
        if cached is not None:
            return f"{checkout} holds cached bytecode at {cached}"
    return None


def parent_first(pair: int) -> bool:
    """Whether the parent runs first in pair ``pair`` (1-based)."""
    return pair % 2 == 1


def summary(parent: list[float], change: list[float], better: str, bound: float) -> dict:
    """Both medians, the parent's interquartile range, the change's wins over
    the pairs, whether its median is worse than the parent's by more than
    ``bound`` times the parent's median, and whether the parent's spread is
    too wide to tell, with some change run not beating every parent run."""
    lower = better == "lower"
    parent_median, change_median = statistics.median(parent), statistics.median(change)
    q1, _, q3 = statistics.quantiles(parent, n=4, method="inclusive") if len(parent) > 1 else (0, 0, 0)
    wins = sum((c < p) if lower else (c > p) for p, c in zip(parent, change))
    worse = change_median - parent_median if lower else parent_median - change_median
    beats_every_run = max(change) < min(parent) if lower else min(change) > max(parent)
    return {
        "parent_median": parent_median,
        "change_median": change_median,
        "parent_iqr": q3 - q1,
        "change_wins": wins,
        "pairs": len(parent),
        "worse_than_bound": worse > bound * abs(parent_median),
        "unresolved": q3 - q1 > bound * abs(parent_median) and not beats_every_run,
    }


def run_bench(checkout: Path, workload: str, seed: int, seconds: int) -> dict:
    """One untraced bench run: its result line, with any failure noted."""
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    done = subprocess.run(argv, cwd=checkout, env=env, capture_output=True, text=True)
    try:
        return json.loads(done.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):  # the run ended without its result line
        return {"correct": False, "failed": None, "metrics": {}, "error": done.stderr.strip()[-500:]}


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", nargs="+", required=True, help="workloads named in BENCHMARK.json")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--json", type=Path, help="also write the runs and summaries here")
    args = parser.parse_args(argv)
    reason = refusal(args.parent, args.change)
    if reason:
        print(f"bench_pairs: {reason}", file=sys.stderr)
        return 2
    benchmark = json.loads((args.parent / "BENCHMARK.json").read_text())
    unknown = set(args.workload) - {w["name"] for w in benchmark["workloads"]}
    if unknown:
        print(f"bench_pairs: unknown workloads {sorted(unknown)}", file=sys.stderr)
        return 2
    metrics, seconds = benchmark["end_to_end"], benchmark["run_seconds"]

    record, bad = {}, False
    for workload in args.workload:
        runs: dict[str, list[dict]] = {"parent": [], "change": []}
        for pair in range(1, args.pairs + 1):
            sides = ("parent", "change") if parent_first(pair) else ("change", "parent")
            for side in sides:
                result = run_bench(getattr(args, side), workload, pair, seconds)
                runs[side].append(result)
                print(f"{workload} pair {pair} {side}: failed {result['failed']}", file=sys.stderr, flush=True)
        failed = {side: sum(r["failed"] is None or r["failed"] > 0 for r in rs) for side, rs in runs.items()}
        summaries = {}
        print(f"workload {workload}: {args.pairs} pairs, runs with failures parent {failed['parent']}, "
              f"change {failed['change']}")
        for m in metrics:
            name = m["name"]
            values = {side: [r["metrics"][name]["value"] for r in rs if name in r["metrics"]] for side, rs in runs.items()}
            if len(values["parent"]) != args.pairs or len(values["change"]) != args.pairs:
                continue  # a run with no result line; counted among the failures
            s = summary(values["parent"], values["change"], m["better"], m["bound"])
            summaries[name] = {**values, **s, "bound": m["bound"]}
            bad = bad or s["worse_than_bound"]
            verdict = ("WORSE than its bound" if s["worse_than_bound"]
                       else "unresolved: parent IQR wider than its bound" if s["unresolved"] else "within its bound")
            print(f"  {name:12s} parent {s['parent_median']:.4g} (IQR {s['parent_iqr']:.3g})  "
                  f"change {s['change_median']:.4g}  change wins {s['change_wins']}/{s['pairs']}  "
                  f"{verdict} {m['bound']}")
        bad = bad or any(failed.values())
        record[workload] = {"failed_runs": failed, "metrics": summaries}
    if args.json:
        args.json.write_text(json.dumps(record, indent=1) + "\n")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
