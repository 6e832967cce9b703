"""The plain-argv reader of the command line against argparse.

``cli._read_plain`` builds the namespace of a plain argv without loading
argparse and leaves every other argv to ``cli.build_parser()``.  Wherever it
answers, it answers as argparse does: the same namespace, or for
``--version`` the same output and exit code.  Wherever argparse rejects an
argv, it answers None, so that the rejection stays argparse's own.
"""

import shlex
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fusionring import cli

GOLDEN = Path(__file__).parent / "golden"

COMMANDS = list(cli._COMMANDS)
FLAGS = sorted({*cli._MAIN_OPTIONS, *(flag for *_, options in cli._COMMANDS.values() for flag in options)})
# Option values and positionals: formats, labels, degree lists, the
# integers argparse's type refuses or accepts, and tokens beginning with "-".
VALUES = ["text", "json", "xml", "x3", "1,1,1", "3", "0", "-2", "1_0", " 2 ", "F", "", "-", "cyclic", "5"]
OTHERS = ["--", "-h", "--help", "--version"]


def outcome(parse, argv):
    """``vars()`` of what ``parse(argv)`` returns (None stays None), or the
    exit code, stdout and stderr it exits with."""
    out, err = StringIO(), StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            args = parse(argv)
        except SystemExit as exc:
            return exc.code, out.getvalue(), err.getvalue()
    return None if args is None else vars(args)


def agree(argv):
    """Assert the reader agrees with argparse on ``argv``; return what it read."""
    read = outcome(cli._read_plain, argv)
    parsed = outcome(cli.build_parser().parse_args, argv)
    if read is not None:
        assert read == parsed, argv
    if isinstance(parsed, tuple) and parsed[0] != 0:
        assert read is None, argv
    return read


@st.composite
def flags(draw):
    """An option of the table: exact, abbreviated, or with ``=value``."""
    flag = draw(st.sampled_from(FLAGS))
    form = draw(st.sampled_from(["exact", "exact", "abbreviated", "equals"]))
    if form == "abbreviated":
        return flag[: draw(st.integers(3, len(flag) - 1))]
    if form == "equals":
        return f"{flag}={draw(st.sampled_from(VALUES))}"
    return flag


@st.composite
def argvs(draw):
    """A plain argv of the table, a command before or after ``--format`` with
    its positionals and options in any order, some options duplicated; then
    up to two tokens inserted or removed."""
    command = draw(st.sampled_from(COMMANDS))
    _, _, positional, options = cli._COMMANDS[command]
    head = draw(st.lists(st.sampled_from(["text", "json"]).map(lambda f: ["--format", f]), max_size=2))
    count = draw(st.sampled_from([1, 1, 1, 2, 0] if positional else [0, 0, 0, 1]))
    parts = [[draw(st.sampled_from(["F", "cyclic", "5", "x3"]))] for _ in range(count)]
    chosen = draw(st.lists(st.sampled_from(sorted(options)), max_size=3)) if options else []
    if draw(st.integers(0, 4)):  # the required options are mostly given
        chosen += [flag for flag, keywords in options.items() if keywords["required"]]
    parts += [[flag, draw(st.sampled_from(VALUES))] for flag in chosen]
    tail = [t for part in draw(st.permutations(parts)) for t in part]
    argv = [*(t for part in head for t in part), command, *tail]
    noise = flags() | st.sampled_from([*VALUES, *COMMANDS, *OTHERS])
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
        k = draw(st.integers(0, len(argv)))
        if draw(st.booleans()) or k == len(argv):
            argv.insert(k, draw(noise))
        else:
            del argv[k]
    return argv


@settings(max_examples=400, deadline=None)
@given(argvs())
def test_reader_agrees_with_argparse_on_drawn_argvs(argv):
    agree(argv)


# Each argv shape the benchmark runs (bench/workloads.py): spec files by
# path, the so3 and chartable generators, and the search with every option.
BENCH = [
    ["--format", "json", "check", "/in/z12.spec"],
    ["--format", "json", "verdict", "/in/z12.spec"],
    ["--format", "json", "subrings", "/in/z12.spec"],
    ["--format", "json", "ladder", "/in/so3_21.spec", "--x3", "x3"],
    ["gen", "so3", "25"],
    ["gen", "chartable", "/in/d21_1.chartab"],
    ["search", "--degrees", "1,1,1,3,3", "--max-mult", "2", "--workers", "1"],
]
GOLDEN_ARGVS = sorted({
    tuple(shlex.split(line)[2:])
    for path in GOLDEN.glob("*.txt")
    for line in path.read_text().splitlines()
    if line.startswith("$ fusionring ")
})


@pytest.mark.parametrize("argv", [*BENCH, *map(list, GOLDEN_ARGVS)], ids=shlex.join)
def test_bench_and_golden_argvs_are_read_without_argparse(argv):
    assert agree(argv) is not None


def test_golden_files_hold_commands():
    assert len(GOLDEN_ARGVS) > 100


@pytest.mark.parametrize(
    "argv",
    [
        # each command after --format, with options in any order and repeated
        ["--format", "json", "--format", "text", "gen", "fragment"],
        ["ladder", "--x3", "x5", "F", "--depth", "2", "--x3", "x3", "--depth", "3"],
        ["verdict", "F", "--depth", " 2 "],
        ["search", "--workers", "4", "--degrees", "1,3", "--max-mult", "1", "--degrees", "1,1,1"],
        ["check", ""],
    ],
    ids=shlex.join,
)
def test_plain_argvs_are_read(argv):
    assert isinstance(agree(argv), dict)


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["--format"],
        ["--format", "xml", "check", "F"],
        ["--format=json", "gen", "cyclic", "5"],
        ["--form", "json", "gen", "so3", "7"],
        ["--version", "check", "F"],
        ["--format", "json", "--version"],
        ["-h"],
        ["check", "-h"],
        ["check"],
        ["check", "F", "G"],
        ["check", "-"],
        ["check", "--", "F"],
        ["check", "F", "--format", "json"],
        ["gen"],
        ["gen", "cyclic", "-2"],
        ["ladder", "F"],
        ["ladder", "F", "--x3"],
        ["ladder", "F", "--x3", "-x"],
        ["search", "--degrees=1,1,1"],
        ["search", "--deg", "1,1,1"],
        ["search", "--degrees", "1,1,1", "extra"],
        ["search", "--degrees", "1,1,1", "--max-mult", "0"],
        ["search", "--degrees", "1,1,1", "--max-mult", "-2"],
        ["search", "--degrees", "1,1,1", "--workers", "1_0"],
        ["verdict", "F", "--x3", "x3"],
        ["nothing", "F"],
    ],
    ids=lambda argv: shlex.join(argv) or "empty",
)
def test_other_argvs_are_left_to_argparse(argv):
    assert agree(argv) is None


def test_version_alone_is_printed_as_argparse_prints_it():
    assert agree(["--version"]) == (0, f"fusionring {cli.__version__}\n", "")
