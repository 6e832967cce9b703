"""``tools/same_outputs.py`` on a checkout against itself and against a
checkout whose ``main`` prints one more line, and the tables and specs that
``tools/chartable_tables.py`` writes."""

import importlib.util
import shutil
from pathlib import Path

import pytest

import fusionring as fr
from conftest import CRAFTED_10, bench_tables

REPO = Path(__file__).resolve().parents[1]


def _tool(name: str):
    spec = importlib.util.spec_from_file_location(name, REPO / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


same_outputs = _tool("same_outputs")


def _commands(tmp_path: Path) -> Path:
    cmdfile = tmp_path / "cmds.txt"
    cmdfile.write_text("# a comment line\ngen cyclic 3  # a trailing comment\n\ngen nothing\n")
    return cmdfile


def test_a_checkout_against_itself_differs_nowhere(tmp_path, capsys):
    assert same_outputs.main([str(REPO), str(REPO), str(_commands(tmp_path))]) == 0
    out, err = capsys.readouterr()
    assert out == "" and err == "same_outputs: 0 of 2 commands differ\n"


def test_an_extra_line_of_stdout_is_reported(tmp_path, capsys):
    fake = tmp_path / "fake"
    shutil.copytree(REPO / "src", fake / "src", ignore=shutil.ignore_patterns("__pycache__"))
    with open(fake / "src" / "fusionring" / "cli.py", "a") as fh:
        fh.write("\n_main = main\n\n\ndef main():\n    try:\n        _main()\n    finally:\n        print('extra')\n")
    assert same_outputs.main([str(REPO), str(fake), str(_commands(tmp_path))]) == 1
    out, err = capsys.readouterr()
    assert out == "stdout differs: gen cyclic 3\nstdout differs: gen nothing\n"
    assert err == "same_outputs: 2 of 2 commands differ\n"


def test_the_crafted_ten_class_table_is_the_tools():
    assert _tool("chartable_tables").crafted(10) == CRAFTED_10


def test_the_bad_token_table_is_refused_at_its_last_value():
    # every other token of the table, repeated ones included, parses first
    with pytest.raises(ValueError) as refused:
        fr.parse_character_table(bench_tables()["d21_badtoken.chartab"])
    assert str(refused.value) == "line 26: bad cyclotomic term 'z^^2' in 'z^^2'"


@pytest.fixture(scope="module")
def written(tmp_path_factory) -> Path:
    """A directory that ``tools/chartable_tables.py`` has written."""
    outdir = tmp_path_factory.mktemp("tables")
    assert _tool("chartable_tables").main([str(outdir)]) == 0
    return outdir


def test_the_tool_writes_the_specs_of_the_cli_commands(written):
    names = {path.name: fr.parse_spec(path.read_text()).name for path in written.glob("*.spec")}
    assert names == {
        "so3_21.spec": "so3_21", "cyclic_12.spec": "Z12", "fragment.spec": "fragment", "f21.spec": "F21",
        "z2_z2_z2.spec": "Z2xZ2xZ2", "z2_z10.spec": "Z2xZ10", "z2_z4_withheld.spec": "Z2xZ4",
    }
    lines = set((REPO / "tools" / "cli_cmds.txt").read_text().splitlines())
    for name in ("z2_z2_z2.spec", "z2_z10.spec", "z2_z4_withheld.spec", "f21.spec"):
        for cmd in ("subrings", "check", "verdict"):
            assert {f"{cmd} {name}", f"--format json {cmd} {name}"} <= lines


def test_the_withheld_group_spec_is_partial_and_its_atoms_join_to_the_whole_ring(written):
    ring = fr.parse_spec((written / "z2_z4_withheld.spec").read_text())
    assert not ring.is_complete
    assert isinstance(fr.closure(ring, {"e0_1"}), fr.IncompleteClosure)
    assert fr.enumerate_standard_subrings(ring)[-1].members == ring.labels


def test_the_tool_writes_every_table_of_the_chartable_commands(written):
    lines = (REPO / "tools" / "chartable_cmds.txt").read_text().splitlines()
    named = {line.split()[-1] for line in lines if line.strip() and not line.startswith("#")}
    assert {"crafted12.chartab", "crafted13.chartab", "z3_at9.chartab", "z3_at12.chartab"} <= named
    assert not {name for name in named if not (written / name).is_file()}


def test_the_tool_writes_the_tables_whose_total_is_not_rational(written):
    lines = (REPO / "tools" / "chartable_cmds.txt").read_text().splitlines()
    for name in ("z5_swapped.chartab", "z5_swapped_at10.chartab"):
        assert {f"gen chartable {name}", f"--format json gen chartable {name}"} <= set(lines)
        assert (written / name).is_file()
