"""CLI: subcommands, exit codes, JSON schema stability, determinism."""

import contextlib
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fusionring as fr
from fusionring.cli import run

from conftest import TERMINAL_WITHOUT_VIOLATION, Z4_WITHOUT_CHI2, factorization_branch_ring, withhold_rows


def run_cli(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_ring(tmp_path, ring, name="ring.spec"):
    path = tmp_path / name
    path.write_text(fr.write_spec(ring))
    return str(path)


def test_check_pass(tmp_path, capsys):
    path = write_ring(tmp_path, fr.cyclic_group_ring(5))
    code, out, _ = run_cli(capsys, "check", path)
    assert code == 0
    assert "OK" in out


def test_check_fail_exit_one(tmp_path, capsys):
    # corrupt rings cannot be expressed in the file format (degree sums are
    # validated at load), so corrupt the representable layer: associativity
    ring = fr.build_ring("bad", [
        ("1", 1, "1"), ("g", 1, "g2"), ("g2", 1, "g"),
    ], "1", {
        ("g", "g"): {"g2": 1}, ("g", "g2"): {"1": 1},
        ("g2", "g"): {"1": 1}, ("g2", "g2"): {"1": 1},  # wrong: should be g
    })
    path = write_ring(tmp_path, ring)
    code, out, _ = run_cli(capsys, "check", path)
    assert code == 1
    assert "FAIL" in out


def test_check_fail_shows_stabilizer_witnesses(tmp_path, capsys):
    # m(c, x x) = 2; a fixes x by multiplicity, but a*x = y; and a*a = c
    path = tmp_path / "stab.spec"
    path.write_text(
        "ring stab\npartial true\nbasis 1 1 1\nbasis a 1 a\nbasis b 1 b\nbasis c 1 c\nbasis d 1 d\n"
        "basis x 3 x\nbasis y 3 y\nunit 1\nprod a a : c 1\nprod a x : y 1\n"
        "prod x x : 1 1, a 1, b 1, c 2, d 1, x 1\n"
    )
    code, out, _ = run_cli(capsys, "check", str(path))
    assert code == 1
    assert (
        "  stabilizer[x]: fail\n"
        "    stabilizer_multiplicity_range: m(c,xx) = 2, expected 0 or 1\n"
        "    stabilizer_fixes_iff_multiplicity: m(a,xx) = 1 but a*x != x\n"
        "    stabilizer_subgroup: a*a leaves the stabilizer of x\n"
    ) in out


@pytest.mark.parametrize("command", ["check", "verdict", "ladder", "subrings", "search", "gen"])
def test_check_json_schema(tmp_path, capsys, command):
    # the fragment exits 0 from check and 1 from verdict, ladder and subrings
    path = write_ring(tmp_path, fr.fragment_ring())
    argv = {
        "check": [path],
        "verdict": [path],
        "ladder": [path, "--x3", "x3"],
        "subrings": [path],
        "search": ["--degrees", "1,1,1", "--max-mult", "2", "--workers", "1"],
        "gen": ["cyclic", "5"],
    }[command]
    code, out, _ = run_cli(capsys, "--format", "json", command, *argv)
    payload = json.loads(out)
    assert payload["schema"] == "fusionring-report/1"
    assert payload["command"] == command
    assert payload["exit_code"] == code


def test_verdict_f21(tmp_path, capsys):
    path = write_ring(tmp_path, fr.f21_character_ring())
    code, out, _ = run_cli(capsys, "verdict", path)
    assert code == 0
    assert "grouplike" in out
    assert "order 3" in out
    assert "21" in out and "divisible" in out


def test_verdict_so3_json(tmp_path, capsys):
    path = write_ring(tmp_path, fr.so3_truncated(21))
    code, out, _ = run_cli(capsys, "--format", "json", "verdict", path)
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"]["kind"] == "ladder"
    assert payload["verdict"]["certificate"]["depth_reached"] == 9


def test_verdict_fragment_exit_one(tmp_path, capsys):
    path = write_ring(tmp_path, fr.fragment_ring())
    code, out, _ = run_cli(capsys, "verdict", path)
    assert code == 1
    assert "obstruction" in out


def test_verdict_chain_failure_exit_one(tmp_path, capsys):
    path = tmp_path / "chainfail.spec"
    path.write_text(
        "ring chainfail\npartial true\nbasis 1 1 1\nbasis g 1 g\nbasis x3 3 x3\nbasis x5 5 x5\nunit 1\n"
        "prod g g : 1 1\nprod x3 x3 : 1 1, g 2, x3 2\n"
    )
    code, out, _ = run_cli(capsys, "verdict", str(path))
    assert code == 1
    assert out == (
        "ring chainfail: verdict obstruction\n"
        "  x3: a grouplike appears with multiplicity > 1 in x3 x3, violating the stabilizer rule\n"
    )


def test_ladder_so3(tmp_path, capsys):
    path = write_ring(tmp_path, fr.so3_truncated(21))
    code, out, _ = run_cli(capsys, "ladder", path, "--x3", "x3")
    assert code == 0
    assert "depth 9" in out
    assert "truncation reached" in out


def test_ladder_fragment_exit_one(tmp_path, capsys):
    path = write_ring(tmp_path, fr.fragment_ring())
    code, out, _ = run_cli(capsys, "ladder", path, "--x3", "x3")
    assert code == 1
    assert "freeness_violation" in out


def test_ladder_precondition_exit_one(tmp_path, capsys):
    path = write_ring(tmp_path, fr.f21_character_ring())
    code, out, err = run_cli(capsys, "ladder", path, "--x3", "x3")
    assert code == 1
    assert "not self-dual" in out + err


# m(x5, u3*x3) = 0: the descending chain from y0 = u3 breaks reciprocity
RECIPROCITY_FAILURE = (
    "ring recip\npartial true\nbasis 1 1 1\nbasis u3 3 u3\nbasis x3 3 x3\nbasis x5 5 x5\nbasis x9 9 x9\n"
    "unit 1\nprod x3 x3 : 1 1, x3 1, x5 1\nprod x5 x3 : u3 1, x3 1, x9 1\nprod u3 x3 : x3 3\n"
)


@pytest.mark.parametrize("command,spec,last", [
    pytest.param(
        "ladder", "ring evens\npartial true\nbasis 1 1 1\nbasis e2 2 e2\nbasis x3 3 x3\nunit 1\n",
        "ring evens: ladder error: ring has even-degree basis elements", id="even-degree",
    ),
    pytest.param(
        "ladder", RECIPROCITY_FAILURE,
        "  failure branch: inconsistent_data: m(x5, u3*x3) != 1 in the descending chain", id="chain-reciprocity",
    ),
    # with g*x5 withheld the factorization x7 = g*x5 is not refuted, but the
    # chain x7 -> u3 -> g still ends at k = 1 < n = 2
    pytest.param(
        "ladder", fr.write_spec(withhold_rows(factorization_branch_ring(), ("g", "x5"))),
        "  failure branch: impossible_factorization: the chain ends at k = 1 < n = 2: x7 = g*x5 cannot hold "
        "in a valid ring (its product with x3 has no room for the forced components)",
        id="chain-ends-early",
    ),
    pytest.param(
        "ladder", TERMINAL_WITHOUT_VIOLATION,
        "  failure branch: inconsistent_data: terminal configuration reached but the forced subrings show no "
        "divisibility violation",
        id="terminal-without-violation",
    ),
    pytest.param(
        "verdict", TERMINAL_WITHOUT_VIOLATION,
        "  x3: inconsistent_data: terminal configuration reached but the forced subrings show no "
        "divisibility violation",
        id="verdict-terminal-without-violation",
    ),
])
def test_ladder_failure_branches_exit_one(tmp_path, capsys, command, spec, last):
    path = tmp_path / "ring.spec"
    path.write_text(spec)
    extra = ["--x3", "x3"] if command == "ladder" else []
    code, out, err = run_cli(capsys, command, str(path), *extra)
    assert (code, err) == (1, "")
    assert out.splitlines()[-1] == last


@pytest.mark.parametrize("fmt", [[], ["--format", "json"]])
def test_ladder_unknown_label_is_an_input_error(tmp_path, capsys, fmt):
    path = write_ring(tmp_path, fr.so3_truncated(21))
    code, out, err = run_cli(capsys, *fmt, "ladder", path, "--x3", "nope")
    assert code == 2
    assert out == ""
    assert err == f"fusionring: {path}: no basis element labelled 'nope' in ring 'so3_21'\n"


def test_ladder_fragment_json(tmp_path, capsys):
    path = write_ring(tmp_path, fr.fragment_ring())
    code, out, _ = run_cli(capsys, "--format", "json", "ladder", path, "--x3", "x3")
    assert code == 1
    payload = json.loads(out)
    terminal = payload["certificate"]["terminal"]
    assert terminal["branch"] == "freeness_violation"
    assert terminal["violation"] == [30, 75]


def test_check_partial_ring_reports_skips(tmp_path, capsys):
    path = write_ring(tmp_path, fr.fragment_ring())
    code, out, _ = run_cli(capsys, "check", path)
    assert code == 0  # skips are not failures
    assert "skipped-unknown" in out
    assert "stabilizer[gx3]: skipped-unknown" in out


def test_subrings_fragment(tmp_path, capsys):
    path = write_ring(tmp_path, fr.fragment_ring())
    code, out, _ = run_cli(capsys, "subrings", path)
    assert code == 1
    assert "30 does not divide 75" in out


def test_subrings_clean_exit_zero(tmp_path, capsys):
    path = write_ring(tmp_path, fr.cyclic_group_ring(6))
    code, out, _ = run_cli(capsys, "subrings", path)
    assert code == 0
    assert "dimension 6" in out


def test_search_emits_parseable_specs(capsys):
    code, out, _ = run_cli(capsys, "--format", "json", "search", "--degrees", "1,1,1", "--max-mult", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == 1
    ring = fr.parse_spec(payload["rings"][0])
    assert fr.check_axioms(ring).all_pass


def test_gen_roundtrip_all_kinds(tmp_path, capsys):
    for args in (["gen", "cyclic", "6"], ["gen", "so3", "9"], ["gen", "fragment"]):
        code, out, _ = run_cli(capsys, *args)
        assert code == 0
        ring = fr.parse_spec(out)
        assert not fr.check_axioms(ring).has_failures


def test_gen_chartable(tmp_path, capsys):
    from importlib import resources

    table_path = tmp_path / "a4.chartab"
    table_path.write_text(
        resources.files("fusionring.fixtures").joinpath("a4.chartab").read_text()
    )
    code, out, _ = run_cli(capsys, "gen", "chartable", str(table_path))
    assert code == 0
    ring = fr.parse_spec(out)
    assert ring.dimension() == 12


# Rows (1, i) and (1, -i) are orthonormal and conjugate, but neither is trivial.
NO_TRIVIAL_ROW = "group fake 2\nconductor 4\nclass 1\nclass 1\nchar 1 1 z\nchar 1 1 z^3\ndualpair 0 1\n"
Z3_TABLE = (
    "group Z3 3\nconductor 3\nclass 1\nclass 1\nclass 1\n"
    "char 1 1 1 1\nchar 1 1 z z^2\nchar 1 1 z^2 z\ndualpair 1 2\n"
)


def _z3_with(old, new):
    return Z3_TABLE.replace(old, new, 1)


@pytest.mark.parametrize("text,message", [
    (NO_TRIVIAL_ROW, "table has no trivial character row"),
    (Z4_WITHOUT_CHI2, "table has 3 character rows for 4 classes"),
    # integers follow the spec file's decimal rule: no sign, no digit separator
    (_z3_with("Z3 3", "Z3 0_3"), "line 1: group order must be a positive integer, got 0_3"),
    (_z3_with("Z3 3", "Z3 +3"), "line 1: group order must be a positive integer, got +3"),
    (_z3_with("conductor 3", "conductor +3"), "line 2: conductor must be a positive integer, got +3"),
    (_z3_with("conductor 3", "conductor 0_3"), "line 2: conductor must be a positive integer, got 0_3"),
    (_z3_with("class 1", "class 0_1"), "line 3: class size must be a positive integer, got 0_1"),
    (_z3_with("class 1\nchar", "class +1\nchar"), "line 5: class size must be a positive integer, got +1"),
    (_z3_with("char 1 1 1 1", "char +1 1 1 1"), "line 6: char row 0 degree must be a positive integer, got +1"),
    (_z3_with("char 1 1 z z^2", "char 0_1 1 z z^2"), "line 7: char row 1 degree must be a positive integer"),
    (_z3_with("dualpair 1 2", "dualpair +1 2"), "line 9: dualpair index out of range for 3 character rows"),
    (_z3_with("dualpair 1 2", "dualpair 1 0_2"), "line 9: dualpair index out of range for 3 character rows"),
    # a conductor over the bound is refused before the cyclotomic polynomial is built
    ("group Z1 1\nconductor 99999999\nclass 1\nchar 1 1\n", "line 2: conductor 99999999 exceeds bound 5040"),
    # a directive of fixed arity names its first surplus token
    (_z3_with("Z3 3", "Z3 3 extra"), "line 1: group takes only a name and an order, got surplus token 'extra'"),
    (_z3_with("conductor 3", "conductor 3 7"), "line 2: conductor takes only a number, got surplus token '7'"),
    (_z3_with("class 1", "class 1 2"), "line 3: class takes only a size, got surplus token '2'"),
    (_z3_with("dualpair 1 2", "dualpair 1 2 0"), "line 9: dualpair takes only two row indices, got surplus token '0'"),
], ids=[
    "no-trivial-row", "incomplete", "order-0_3", "order-+3", "conductor-+3", "conductor-0_3", "class-0_1",
    "class-+1", "degree-+1", "degree-0_1", "dualpair-+1", "dualpair-0_2", "conductor-over-bound",
    "group-surplus", "conductor-surplus", "class-surplus", "dualpair-surplus",
])
def test_gen_chartable_bad_table_exit_two(tmp_path, capsys, text, message):
    path = tmp_path / "bad.chartab"
    path.write_text(text)
    code, out, err = run_cli(capsys, "gen", "chartable", str(path))
    assert (code, out) == (2, "")
    assert err.startswith(f"fusionring: {path}: {message}") and err.count("\n") == 1


def test_gen_chartable_not_integral_exit_two(tmp_path, capsys, monkeypatch):
    import fusionring.chartable as chartable

    def not_integral(table):
        raise fr.NotIntegral("inner product total 1 is not divisible by |G| = 3")

    monkeypatch.setattr(chartable, "char_table_ring", not_integral)
    path = tmp_path / "z3.chartab"
    path.write_text(Z3_TABLE)
    code, _, err = run_cli(capsys, "gen", "chartable", str(path))
    assert code == 2
    assert err == f"fusionring: {path}: inner product total 1 is not divisible by |G| = 3\n"


def test_gen_chartable_not_utf8_exit_two(tmp_path, capsys):
    path = tmp_path / "bad.chartab"
    path.write_bytes(Z3_TABLE.replace("Z3", "Z\xff3").encode("latin-1"))
    code, out, err = run_cli(capsys, "gen", "chartable", str(path))
    assert (code, out) == (2, "")
    assert err.startswith(f"fusionring: {path}: 'utf-8' codec can't decode ") and err.count("\n") == 1


def test_table_files_are_read_as_utf8(tmp_path):
    # under the C locale with UTF-8 mode off, the locale's encoding is ASCII
    path = tmp_path / "z3.chartab"
    path.write_bytes(("# χ: the characters of Z3\n" + Z3_TABLE).encode("utf-8"))
    child = (
        "import sys\n"
        "from fusionring import load_character_table\n"
        "from fusionring.oracles import fixture_character_table\n"
        "print(load_character_table(sys.argv[1]).name, fixture_character_table('z3').name)\n"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONCOERCECLOCALE": "0", "LC_ALL": "C", "PYTHONUTF8": "0"}
    done = subprocess.run(
        [sys.executable, "-c", child, str(path)], env=env, capture_output=True, text=True, timeout=60
    )
    assert (done.returncode, done.stdout, done.stderr) == (0, "Z3 Z3\n", "")


def test_gen_pipe_composition(tmp_path, capsys):
    # gen fragment | subrings /dev/stdin equivalent via a temp file
    code, out, _ = run_cli(capsys, "gen", "fragment")
    path = tmp_path / "frag.spec"
    path.write_text(out)
    code, out, _ = run_cli(capsys, "subrings", str(path))
    assert code == 1
    assert "30 does not divide 75" in out


def test_missing_file_exit_two(capsys):
    code, _, err = run_cli(capsys, "check", "/nonexistent/missing.ring")
    assert code == 2
    assert "missing.ring" in err


def test_malformed_file_exit_two(tmp_path, capsys):
    path = tmp_path / "bad.ring"
    path.write_text("ring t\nbasis a 3 zz\nunit a\n")
    code, _, err = run_cli(capsys, "check", str(path))
    assert code == 2
    assert "dangling" in err


@pytest.mark.parametrize(
    "argv,message",
    [
        (["check", "two\nlines.spec"], "cannot read two\\nlines.spec: No such file or directory"),
        (["gen", "chartable", "two\nlines.tab"], "cannot read two\\nlines.tab: No such file or directory"),
        (["gen", "cyclic", "-\n"], "unrecognized arguments: -\\n"),
    ],
)
def test_newline_in_argument_gives_one_stderr_line(capsys, argv, message):
    # found by test_fuzzed_command_lines_exit_cleanly: the argument was printed raw
    try:
        code = run(argv)
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    assert (code, out, err) == (2, "", f"fusionring: {message}\n")


@pytest.mark.parametrize("content", [
    b"ring t\nbasis a \xff a\nunit a\n",  # not UTF-8
    "ring t\nbasis a \u00b2 a\nunit a\n".encode(),  # superscript two as a degree
    "ring t\nbasis a 1 a\nunit a\ntruncation \u00b3\n".encode(),
    "ring t\npartial true\nbasis a 1 a\nbasis b 3 b\nunit a\nprod b b : a \u00b2\n".encode(),
    b"ring t\nbasis a 1 a\nbasis a 1 a\nunit a\n",
    b"ring t\nunit a\n",
    b"ring t\nbasis a 1 a\n",
    b"ring t\nbasis a! 1 a\nunit a\n",
    b"basis a 1 a\nunit a\n",
], ids=[
    "not-utf8", "superscript-degree", "superscript-truncation", "superscript-multiplicity",
    "duplicate-basis-label", "no-basis-line", "no-unit-line", "bad-basis-label", "no-ring-line",
])
def test_unreadable_spec_exit_two_one_line(tmp_path, capsys, content):
    path = tmp_path / "bad.spec"
    path.write_bytes(content)
    code, out, err = run_cli(capsys, "check", str(path))
    assert (code, out) == (2, "")
    assert err.startswith(f"fusionring: {path}: ") and err.count("\n") == 1


@pytest.mark.parametrize("module", ["fusionring", "fusionring.cli"])
def test_python_m_entry_points(module):
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}

    def spawn(*argv):
        return subprocess.run(
            [sys.executable, "-m", module, *argv], env=env, capture_output=True, text=True, timeout=60
        )

    version = spawn("--version")
    assert (version.returncode, version.stdout, version.stderr) == (0, f"fusionring {fr.__version__}\n", "")
    rejected = spawn("search", "--degrees", "1,1,1", "--max-mult", "0")
    assert (rejected.returncode, rejected.stdout) == (2, "")
    assert rejected.stderr.startswith("fusionring: ") and rejected.stderr.count("\n") == 1


def test_usage_error_exit_two(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["ladder"])  # missing required file and --x3
    assert exc.value.code == 2


def test_bad_flag_value_exit_two(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["--format", "yaml", "check", "x.ring"])
    assert exc.value.code == 2


def test_gen_unknown_kind_exit_two(capsys):
    code, _, err = run_cli(capsys, "gen", "nonsense")
    assert code == 2
    assert "nonsense" in err


def test_gen_fragment_extra_argument_exit_two(capsys):
    # like gen cyclic, so3 and chartable, a wrong argument count is an input error
    code, out, err = run_cli(capsys, "gen", "fragment", "extra")
    assert (code, out) == (2, "")
    assert err == "fusionring: gen fragment takes no argument\n"


@pytest.mark.parametrize("command", ["verdict", "ladder"])
@pytest.mark.parametrize("depth", ["0", "-2", "two"])
def test_non_positive_depth_exit_two(tmp_path, capsys, command, depth):
    path = write_ring(tmp_path, fr.so3_truncated(21))
    extra = ["--x3", "x3"] if command == "ladder" else []
    with pytest.raises(SystemExit) as exc:
        run([command, path, *extra, "--depth", depth])
    assert exc.value.code == 2
    assert "positive integer" in capsys.readouterr().err


@pytest.mark.parametrize("workers", ["0", "-1", "many"])
def test_non_positive_workers_exit_two(capsys, workers):
    with pytest.raises(SystemExit) as exc:
        run(["search", "--degrees", "1,1,1", "--workers", workers])
    assert exc.value.code == 2
    assert "positive integer" in capsys.readouterr().err


@pytest.mark.parametrize("degrees,max_mult", [
    pytest.param("1,1,1,3", "2", id="1113-m2"),
    pytest.param("1,1,1,3,3", "2", id="11133-m2"),
    pytest.param("1,1,1,1,1,1", "1", id="111111-m1"),
])
def test_workers_flag_changes_no_output(capsys, degrees, max_mult):
    # --workers is still validated, but the search runs in one process
    outputs = [
        run_cli(capsys, "search", "--degrees", degrees, "--max-mult", max_mult, "--workers", workers)
        for workers in ("1", "4")
    ]
    assert outputs[0] == outputs[1]
    assert outputs[0][0] == 0 and outputs[0][1].startswith("# ")


SEARCH_111 = ["search", "--degrees", "1,1,1", "--workers", "1"]


@pytest.mark.parametrize(
    "argv,words",
    [
        pytest.param([*SEARCH_111, "--max-mult", "0"], ("--max-mult", "positive integer"), id="--max-mult-0"),
        pytest.param([*SEARCH_111, "--max-mult", "-3"], ("--max-mult", "positive integer"), id="--max-mult--3"),
        pytest.param([*SEARCH_111, "--degrees", ",,"], ("--degrees", "positive integer"), id="--degrees-,,"),
        pytest.param([*SEARCH_111, "--degrees", "1,0"], ("--degrees", "positive integer"), id="--degrees-1,0"),
        # integers follow the spec file's decimal rule: no empty item, no digit separator
        pytest.param([*SEARCH_111, "--degrees", "1,,3"], ("--degrees", "positive integer"), id="--degrees-1,,3"),
        pytest.param([*SEARCH_111, "--degrees", "1,1_1"], ("--degrees", "positive integer"), id="--degrees-1,1_1"),
        pytest.param([*SEARCH_111, "--degrees", "1,3,"], ("--degrees", "positive integer"), id="--degrees-1,3,"),
        pytest.param([*SEARCH_111, "--max-mult", "1_0"], ("--max-mult", "positive integer"), id="--max-mult-1_0"),
        pytest.param(
            ["search", "--degrees", "1,1,1", "--workers", "1_0"], ("--workers", "positive integer"), id="--workers-1_0"
        ),
        pytest.param(
            ["verdict", "ring.spec", "--depth", "1_0"], ("--depth", "positive integer"), id="verdict--depth-1_0"
        ),
        pytest.param(["gen", "cyclic", "1_2"], ("gen cyclic", "'1_2'"), id="gen-cyclic-1_2"),
        pytest.param(["gen", "so3", "2_1"], ("gen so3", "'2_1'"), id="gen-so3-2_1"),
        pytest.param(["gen", "cyclic", "0"], ("gen cyclic", "n must be >= 1"), id="gen-cyclic-0"),
        pytest.param(["gen", "so3", "4"], ("gen so3", "odd integer >= 3"), id="gen-so3-4"),
        pytest.param(["gen", "cyclic"], ("gen cyclic needs an order",), id="gen-cyclic-no-order"),
        pytest.param(["gen", "chartable"], ("gen chartable needs a table file",), id="gen-chartable-no-file"),
        pytest.param(
            ["search", "--degrees", "1,1,1", "--workers", "0"], ("--workers", "positive integer"), id="--workers-0"
        ),
        pytest.param(
            ["verdict", "ring.spec", "--depth", "0"], ("--depth", "positive integer"), id="verdict--depth-0"
        ),
        pytest.param([], ("required", "command"), id="no-subcommand"),
    ],
)
def test_search_input_errors_exit_two(capsys, argv, words):
    # bad input, not a finding: argparse's rejections, like the search's own,
    # are one `fusionring: ` line on stderr with no usage block
    try:
        code = run(argv)
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    (line,) = err.splitlines()
    assert err == line + "\n" and line.startswith("fusionring: ")
    assert all(word in line for word in words)


def test_integers_with_surrounding_spaces_accepted(capsys):
    code, out, _ = run_cli(capsys, "search", "--degrees", " 1, 1 ,1", "--max-mult", " 2 ", "--workers", "1 ")
    assert (code, out.splitlines()[0]) == (0, "# 1 ring(s) with degrees [1, 1, 1]")
    code, out, _ = run_cli(capsys, "gen", "cyclic", " 3 ")
    assert code == 0 and out.startswith("ring Z3\n")


@pytest.mark.parametrize("command", ["subrings", "search"])
def test_rank_too_large_exit_two(tmp_path, capsys, command):
    # a rank bound is an input limit, not a finding
    if command == "subrings":
        argv = ["subrings", write_ring(tmp_path, fr.cyclic_group_ring(21))]
    else:
        argv = ["search", "--degrees", "1,1,1,1,1,1,1"]
    code, out, err = run_cli(capsys, "--format", "json", *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("fusionring: rank ") and err.count("\n") == 1


def test_gen_beyond_rank_bound_exit_two_at_once(monkeypatch, capsys):
    from fusionring import oracles
    from fusionring.cli import GEN_RANK_BOUND as bound

    small = oracles.cyclic_group_ring(2)
    built = []
    monkeypatch.setattr(oracles, "cyclic_group_ring", lambda n: built.append(n) or small)
    monkeypatch.setattr(oracles, "so3_truncated", lambda d: built.append(d) or small)
    # the bound is on the rank: N for gen cyclic N, (D + 1) / 2 for gen so3 D
    for argv in (["cyclic", "100000"], ["so3", "1000001"], ["cyclic", str(bound + 1)], ["so3", str(2 * bound + 1)]):
        code, out, err = run_cli(capsys, "gen", *argv)
        assert (code, out) == (2, ""), argv
        assert err.startswith("fusionring: rank ") and err.count("\n") == 1, argv
    assert built == []  # rejected before anything is built
    for argv in (["cyclic", str(bound)], ["so3", str(2 * bound - 1)]):
        assert run_cli(capsys, "gen", *argv)[0] == 0
    assert built == [bound, 2 * bound - 1]


def test_gen_chartable_beyond_rank_bound_exit_two_at_once(tmp_path, capsys, monkeypatch):
    # the bound is on the classes, checked before any value is parsed: Z_n's ring costs about n^4
    import fusionring.chartable as chartable
    from fusionring.cli import GEN_RANK_BOUND as bound

    def cyclic(n, rows):
        """Z_n's table at conductor n, with its first ``rows`` character rows."""
        chars = "".join("char 1 " + " ".join(f"z^{k * c % n}" for c in range(n)) + "\n" for k in range(rows))
        return f"group Z{n} {n}\nconductor {n}\n" + "class 1\n" * n + chars

    parse_value, parsed = chartable.parse_value, []
    monkeypatch.setattr(chartable, "parse_value", lambda *args: parsed.append(args) or parse_value(*args))
    path = tmp_path / "big.chartab"
    path.write_text(cyclic(bound + 1, bound + 1))
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "gen", "chartable", str(path))
    assert time.perf_counter() - start < 1.0
    assert (code, out, err) == (2, "", f"fusionring: {path}: rank {bound + 1} exceeds bound {bound}\n")
    assert parsed == []
    # at the bound the table is read on: one row of 128 classes is an incomplete table
    path.write_text(cyclic(bound, 1))
    code, out, err = run_cli(capsys, "gen", "chartable", str(path))
    assert (code, out) == (2, "")
    assert err == (
        f"fusionring: {path}: table has 1 character rows for {bound} classes; "
        "it needs one row per class, with one value per class\n"
    )
    assert len(parsed) == 1  # the trivial row's one distinct token


@pytest.mark.parametrize("command", ["subrings", "check", "verdict"])
def test_dimension_beyond_64_bits_exit_two(tmp_path, capsys, command):
    path = tmp_path / "big.spec"
    path.write_text("ring big\npartial true\nbasis 1 1 1\nbasis x 1180591620717411303424 x\nunit 1\n")
    code, out, err = run_cli(capsys, command, str(path))
    assert (code, out) == (2, "")
    assert err == f"fusionring: {path}: line 4: dimension exceeds checked 64-bit range at basis element 'x'\n"


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["--version"])
    assert exc.value.code == 0


def test_run_reads_sys_argv_by_default(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["fusionring", "gen", "cyclic", "3"])
    assert run() == 0
    assert capsys.readouterr().out.startswith("ring Z3\n")


def test_reports_byte_identical(tmp_path, capsys):
    path = write_ring(tmp_path, fr.f21_character_ring())
    _, out1, _ = run_cli(capsys, "--format", "json", "verdict", path)
    _, out2, _ = run_cli(capsys, "--format", "json", "verdict", path)
    assert out1 == out2


# -- fuzzing the command line --------------------------------------------------

# Short junk tokens: digits, signs, separators and a non-ASCII digit, so that
# some of them parse as numbers and some nearly do.
JUNK = st.text(alphabet="0123456789-+,. x_\u0663\n", max_size=6)


def _number(low, high):
    return st.integers(low, high).map(str)


@st.composite
def gen_argvs(draw):
    # numbers stay <= 64: gen cyclic N builds N^2 rows
    word = draw(st.sampled_from(["cyclic", "so3", "fragment", "chartable"]) | JUNK)
    args = draw(st.lists(_number(-3, 64) | JUNK, max_size=2))
    return ["gen", word, *args]


@st.composite
def search_argvs(draw):
    # rank <= 4 and --max-mult <= 2 keep every search small
    degrees = st.lists(st.integers(-1, 9), min_size=1, max_size=4).map(lambda d: ",".join(map(str, d)))
    degrees = draw(degrees | JUNK)
    argv = ["search", "--degrees", degrees, "--max-mult", draw(_number(-1, 2) | JUNK)]
    workers = draw(st.none() | _number(1, 64) | _number(-2, 0) | JUNK)
    return argv if workers is None else [*argv, "--workers", workers]


@st.composite
def depth_argvs(draw, path):
    command = draw(st.sampled_from([["verdict", path], ["ladder", path, "--x3", "x3"]]))
    return [*command, "--depth", draw(_number(-2, 64) | JUNK)]


@pytest.fixture(scope="module")
def so3_9_spec(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "so3_9.spec"
    path.write_text(fr.write_spec(fr.so3_truncated(9)))
    return str(path)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_fuzzed_command_lines_exit_cleanly(so3_9_spec, data):
    argv = data.draw(gen_argvs() | search_argvs() | depth_argvs(so3_9_spec))
    fmt = data.draw(st.none() | st.sampled_from(["text", "json"]) | JUNK)
    if fmt is not None:
        argv = ["--format", fmt, *argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = run(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2), argv
    if code == 2:
        assert err.getvalue().startswith("fusionring: "), argv
        assert err.getvalue().count("\n") == 1 and err.getvalue().endswith("\n"), argv
