"""The summary arithmetic and checkout checks of ``tools/bench_pairs.py``,
without spawning the bench."""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)


def test_summary_of_a_lower_is_better_metric():
    parent = [1.0, 2.0, 3.0, 4.0, 5.0]
    change = [0.5, 2.0, 3.5, 3.0, 4.0]  # lower in pairs 1, 4 and 5; a tie in pair 2
    s = bench_pairs.summary(parent, change, "lower", 0.25)
    assert s == {
        "parent_median": 3.0,
        "change_median": 3.0,
        "parent_iqr": 2.0,  # inclusive quartiles 2.0 and 4.0
        "change_wins": 3,
        "pairs": 5,
        "worse_than_bound": False,
        "unresolved": True,  # an IQR of 2.0 is wider than 0.25 * 3.0
    }


@pytest.mark.parametrize("better,change,unresolved", [
    # the parent's IQR of 2.0 is wider than the bound, 0.25 * 3.0
    ("lower", [0.5, 0.5, 0.5, 0.5, 0.9], False),  # every change run beats every parent run
    ("lower", [0.5, 0.5, 0.5, 0.5, 1.0], True),  # a tie with the parent's best run
    ("higher", [5.5, 6.0, 6.0, 6.0, 6.0], False),
    ("higher", [5.0, 6.0, 6.0, 6.0, 6.0], True),
])
def test_a_spread_wider_than_the_bound_is_unresolved_unless_every_run_beats(better, change, unresolved):
    s = bench_pairs.summary([1.0, 2.0, 3.0, 4.0, 5.0], change, better, 0.25)
    assert s["unresolved"] is unresolved


@pytest.mark.parametrize("better,change,worse", [
    # the bound is a share of the parent's median: 10 * 0.1 = 1
    ("lower", [11.0, 11.0, 11.0], False),
    ("lower", [11.5, 11.5, 11.5], True),
    ("higher", [9.0, 9.0, 9.0], False),
    ("higher", [8.5, 8.5, 8.5], True),
])
def test_worse_than_bound_is_measured_against_the_parents_median(better, change, worse):
    s = bench_pairs.summary([10.0, 10.0, 10.0], change, better, 0.1)
    assert s["worse_than_bound"] is worse
    assert (s["change_wins"], s["parent_iqr"], s["unresolved"]) == (0, 0, False)  # every change value is the worse one


def test_one_pair_has_no_spread():
    assert bench_pairs.summary([2.0], [1.0], "lower", 0.25)["parent_iqr"] == 0


def test_sides_alternate_which_goes_first():
    assert [bench_pairs.parent_first(k) for k in range(1, 5)] == [True, False, True, False]


def _checkout(path: Path) -> Path:
    (path / "bench").mkdir(parents=True)
    (path / "bench" / "run.py").write_text("")
    (path / "src" / "fusionring").mkdir(parents=True)
    return path


def test_checkouts_must_have_equal_path_lengths_and_no_cached_bytecode(tmp_path):
    a, b = _checkout(tmp_path / "a"), _checkout(tmp_path / "b")
    assert bench_pairs.refusal(a, b) is None
    assert "differ in length" in bench_pairs.refusal(a, _checkout(tmp_path / "longer"))
    (b / "src" / "fusionring" / "__pycache__").mkdir()
    assert "cached bytecode" in bench_pairs.refusal(a, b)
    assert "no bench/run.py" in bench_pairs.refusal(a, tmp_path / "c")
