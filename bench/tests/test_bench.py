"""The benchmark's own checks: seeded inputs, span arithmetic, the tail
rule, and the oracles against the seed program.

    python3 -m pytest bench/tests -q
"""

import json
import os
import random
from pathlib import Path

import pytest

import fusionring.cli  # noqa: F401  (run.in_process calls it)
import oracle as orc
import run
import workloads
from spans import Span, Tracer, self_times


def _inputs(root: Path, workload: str, seed: int):
    ops = workloads.build(workload, seed, root)
    files = {p.name: p.read_bytes() for p in sorted(root.iterdir())}
    argv = [tuple(a.replace(str(root), "<in>") for a in op.argv) for op in ops]
    return files, argv


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_identical_inputs(tmp_path, workload):
    first = _inputs(tmp_path / "a", workload, 7)
    assert first == _inputs(tmp_path / "b", workload, 7)
    assert first != _inputs(tmp_path / "c", workload, 8)


def test_self_time_subtracts_covered_child_time():
    spans = [
        Span("root", 0.0, 10.0, None, 0),
        Span("a", 1.0, 4.0, 0, 0),
        Span("a.inner", 2.0, 3.0, 1, 0),
        Span("b", 5.0, 6.0, 0, 0),
        Span("c", 5.5, 7.0, 0, 0),  # overlaps b: the union is counted once
    ]
    assert self_times(spans) == pytest.approx([10 - 3 - 2, 2, 1, 1, 1.5])


def test_undeclared_spans_give_self_time_to_their_nearest_declared_ancestor():
    spans = [
        Span("cli.run", 0.0, 10.0, None, 0),
        Span("cli.build_parser", 0.0, 1.0, 0, 0),
        Span("ladder.selfdual_chain", 2.0, 8.0, 0, 0),
        Span("ladder.degree3_case_split", 2.0, 7.0, 2, 0),
        Span("ladder.degree3_helper", 3.0, 4.0, 3, 0),
        Span("axioms.check_axioms", 5.0, 6.0, 3, 0),
    ]
    layers = run.layer_metrics(spans, {})
    assert layers["cli.run.self_s"] == pytest.approx(10 - 6)
    assert layers["ladder.selfdual_chain.self_s"] == pytest.approx(6 - 1)
    assert layers["axioms.check_axioms.self_s"] == pytest.approx(1)
    assert layers["axioms.check_axioms.calls"] == 1


def test_in_process_op_that_overruns_its_timeout_fails(monkeypatch):
    import fusionring.cli
    import time as clock

    monkeypatch.setattr(run, "OP_TIMEOUT_S", 0.2)
    monkeypatch.setattr(fusionring.cli, "run", lambda argv: clock.sleep(5))
    code, _, _ = run.in_process(("--version",))
    assert code is None
    assert run.judge(None, code, "", "").startswith("timed out")


def test_tracer_records_nesting_and_restores_functions():
    import fusionring
    import fusionring.axioms
    import fusionring.ladder

    original = fusionring.axioms.check_axioms
    ring = fusionring.so3_truncated(9)
    tracer = Tracer()
    with tracer:
        assert fusionring.ladder.check_axioms is fusionring.axioms.check_axioms is fusionring.check_axioms
        tracer.op = 3
        fusionring.dichotomy_verdict(ring)
    assert fusionring.ladder.check_axioms is original is fusionring.axioms.check_axioms
    names = [s.name for s in tracer.spans]
    assert names[0] == "ladder.dichotomy_verdict" and "axioms.check_axioms" in names
    check = tracer.spans[names.index("axioms.check_axioms")]
    assert check.parent == 0 and check.op == 3 and check.extra["instances"] > check.extra["skipped"] > 0


@pytest.mark.parametrize("n, p", [(60, 83), (48, 79), (100, 90), (11, 9), (10, 50)])
def test_tail_percentile_leaves_ten_samples_beyond(n, p):
    assert run.tail_percentile(n) == p
    if n > 10:
        beyond = lambda q: n - -(-q * n // 100)
        assert beyond(p) >= 10 and (p == 99 or beyond(p + 1) < 10)


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert run.percentile(values, 90) == 90
    assert run.percentile(values[::-1], 50) == 50


def test_fastest_half_keeps_the_samples_at_or_below_the_median():
    assert run.fastest_half([0.5, 0.2, 0.9, 0.3, 0.4]) == [0.2, 0.3, 0.4]
    assert run.fastest_half([0.5, 0.2, 0.9, 0.3]) == [0.2, 0.3]
    assert run.fastest_half([0.7]) == [0.7]


def test_peak_rss_is_read_from_vmhwm():
    assert run.peak_rss_mb("Name:\tpython3\nVmHWM:\t   20480 kB\nVmRSS:\t  512 kB\n") == 20
    assert run.peak_rss_mb("") == 0.0


def test_op_peak_rss_leaves_out_the_benchmark_process():
    ballast = bytearray(64 << 20)
    for i in range(0, len(ballast), 4096):
        ballast[i] = 1  # resident in this process, so in a forked child until it execs
    code, _, _, _, rss = run.spawn(("--version",), dict(os.environ))
    assert code == 0 and 0 < rss < 48


def test_reference_task_runs_without_the_package():
    assert "fusionring" not in run.REFERENCE
    code, stdout, _, wall, rss = run.spawn((), dict(os.environ), run.REFERENCE)
    assert code == 0 and stdout.strip() and wall > 0 and rss == 0.0


def test_every_workload_has_a_pass_time_and_runs_at_least_one_pass():
    for workload in workloads.WORKLOADS:
        assert run.pass_count(workload, 0, 1) == run.pass_count(workload, 1, 1) == 1
        assert run.pass_count(workload, 0, 30) >= 4


@pytest.mark.parametrize("moduli, count", [((12,), 6), ((2, 4), 8), ((2, 2, 2), 16), ((2, 2, 2, 2), 67)])
def test_subgroup_lattice_counts(moduli, count):
    assert len(orc.subgroup_lattice(moduli)) == count


def _judge_all(ops):
    return {" ".join(op.argv): run.judge(op, *run.in_process(op.argv)) for op in ops}


def test_group_ring_oracles_match_seed_program(tmp_path):
    rng = random.Random(1)
    ops = []
    for k, moduli in enumerate(((6,), (2, 4), (3, 3))):
        labels = workloads._labels(rng, orc.group_elements(moduli))
        table = orc.group_table(f"G{k}", moduli, labels)
        path = workloads._write(tmp_path, f"g{k}.spec", orc.write_spec(table, rng))
        ops += workloads.group_ops(moduli, ("check", "verdict", "subrings"), path, table, labels)
    assert set(_judge_all(ops).values()) == {None}


def test_character_table_oracles_match_seed_program(tmp_path):
    rng = random.Random(2)
    ops = []
    for n, make in ((8, workloads.cyclic_table_file), (9, workloads.dihedral_table_file), (15, workloads.dihedral_table_file)):
        text, ring = make(n, rng)
        path = workloads._write(tmp_path, f"t{n}.chartab", text)
        ops.append(workloads._spec_op(["gen", "chartable", path], ring))
    assert set(_judge_all(ops).values()) == {None}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_op_of_a_workload_matches_its_oracle(tmp_path, workload):
    outcomes = _judge_all(workloads.build(workload, 11, tmp_path))
    assert {argv: problem for argv, problem in outcomes.items() if problem} == {}


def test_oracle_flags_the_missing_three_generator_subrings(tmp_path):
    problems = list(_judge_all(workloads.known_defect_ops(tmp_path)).values())
    assert problems[0].startswith("subrings: 15 reported, 16 expected")
    assert problems[1].startswith("subrings: 51 reported, 67 expected")


def test_oracle_rejects_a_corrupted_ring():
    ring = orc.group_table("Z3", (3,), {(0,): "1", (1,): "g", (2,): "g2"})
    ring.rows[(1, 1)] = {1: 1}  # g*g = g breaks the group law
    statuses = {name: status for name, status, *_ in orc.identity_counts(ring)}
    assert statuses["associativity"] == statuses["grouplike_rule"] == "fail"


def test_benchmark_json_matches_the_runner():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert tuple(w["name"] for w in spec["workloads"]) == workloads.WORKLOADS
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
