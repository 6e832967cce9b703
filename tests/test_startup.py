"""Lazy loading: the modules each CLI op imports, and the package's public API.

Each op runs in a fresh interpreter, which then prints the op's exit code
and the modules it holds.  The ``fusionring``, ``concurrent`` and
``multiprocessing`` sets are pinned, and so is the absence of ``dataclasses``
from every op, of ``json`` where an op does not need it, and of ``argparse``
(with its ``gettext`` and ``locale``) from every op in its plain form; only
``--help`` and rejected arguments load argparse.  Module sets are
pinned, not timings: a module an op does not run costs every process its
import, and nothing else catches an eager import creeping back.
"""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fusionring as fr
import fusionring.axioms

SRC = Path(__file__).resolve().parents[1] / "src"
FIXTURES = SRC / "fusionring" / "fixtures"

CHILD = """\
import sys
from fusionring.cli import run
try:
    code = run(sys.argv[1:])
except SystemExit as exc:
    code = exc.code
print(code, *sorted(sys.modules))
"""

BASE = {"fusionring", "fusionring.cli", "fusionring.ring", "fusionring.specfmt"}
GEN = BASE | {"fusionring.oracles"}
CHARTABLE = BASE | {"fusionring.chartable", "fusionring.cyclotomic"}
LADDER = BASE | {"fusionring.ladder"}
AXIOMS = {"fusionring.axioms", "fusionring._axiom_walks"}


def spawn(*argv: str) -> tuple[str, set[str], list[str], str]:
    """The op's exit code, the modules it leaves loaded, and its stdout lines and stderr."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run(
        [sys.executable, "-c", CHILD, *argv], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    *out, last = done.stdout.splitlines()
    code, *modules = last.split()
    return code, set(modules), out, done.stderr


def loaded_after(*argv: str, watched=("fusionring", "concurrent", "multiprocessing")) -> set[str]:
    """The modules under the ``watched`` top-level names that the op leaves loaded."""
    code, modules, _, err = spawn(*argv)
    assert code == "0", err
    return {m for m in modules if m.split(".")[0] in watched}


@pytest.fixture(scope="module")
def specs(tmp_path_factory):
    """Spec paths by the placeholder an argv names them with."""
    folder = tmp_path_factory.mktemp("startup")
    paths = {"SPEC": folder / "so3_7.spec", "FRAGMENT": folder / "fragment.spec"}
    paths["SPEC"].write_text(fr.write_spec(fr.so3_truncated(7)))
    paths["FRAGMENT"].write_text(fr.write_spec(fr.fragment_ring()))
    return {k: str(v) for k, v in paths.items()}


@pytest.fixture(scope="module")
def so3_spec(specs):
    return specs["SPEC"]


def test_version_loads_only_cli_ring_specfmt():
    assert loaded_after("--version") == BASE


@pytest.mark.parametrize(
    "argv,expected",
    [
        (["check", "SPEC"], BASE | AXIOMS),
        (["subrings", "SPEC"], BASE | {"fusionring.subrings"}),
        # the verdict checks the axioms; the ladder reaches the truncation
        # with no descending step, so neither loads the failure-branch
        # diagnoses or `subrings`
        (["verdict", "SPEC"], LADDER | AXIOMS),
        (["ladder", "SPEC", "--x3", "x3"], LADDER),
        (["gen", "so3", "7"], GEN),
        (["gen", "cyclic", "5"], GEN),
        (["gen", "fragment"], GEN),
        (["gen", "chartable", str(FIXTURES / "z3.chartab")], CHARTABLE),
        # a search, with or without --workers, loads no worker-pool machinery
        (["search", "--degrees", "1,1,1", "--workers", "1"], BASE | AXIOMS | {"fusionring.search"}),
        (["search", "--degrees", "1,1,1"], BASE | AXIOMS | {"fusionring.search"}),
        # a search that keeps no ring has nothing for the axiom checker
        (["search", "--degrees", "1,3"], BASE | {"fusionring.search"}),
    ],
    ids=[
        "check", "subrings", "verdict", "ladder", "gen-so3", "gen-cyclic", "gen-fragment", "gen-chartable",
        "search-serial", "search-default", "search-no-ring",
    ],
)
def test_op_loads_only_its_modules(specs, argv, expected):
    assert loaded_after(*[specs.get(a, a) for a in argv]) == expected


def test_a_descending_ladder_step_loads_the_diagnoses(specs):
    # the fragment's ladder descends into the freeness-terminal branch, whose
    # forced subrings `subrings` closes; the so3_7 verdict and ladder above
    # reach the truncation and load neither
    code, modules, _, err = spawn("verdict", specs["FRAGMENT"])
    assert code == "1", err  # an obstruction
    expected = LADDER | AXIOMS | {"fusionring._ladder_diagnoses", "fusionring.subrings"}
    assert {m for m in modules if m.split(".")[0] == "fusionring"} == expected


OPS = {
    "version": ["--version"],
    "check": ["check", "SPEC"],
    "subrings": ["subrings", "SPEC"],
    "verdict": ["verdict", "SPEC"],
    "ladder": ["ladder", "SPEC", "--x3", "x3"],
    "search": ["search", "--degrees", "1,1,1", "--workers", "1"],
    "gen": ["gen", "so3", "7"],
    "gen-chartable": ["gen", "chartable", str(FIXTURES / "z3.chartab")],
}


@pytest.mark.parametrize("op", sorted(OPS))
def test_text_op_loads_neither_json_nor_dataclasses(so3_spec, op):
    argv = [so3_spec if a == "SPEC" else a for a in OPS[op]]
    assert loaded_after("--format", "text", *argv, watched=("dataclasses", "json")) == set()


# Each op in its plain form, as the bench and the README run it.
PLAIN = {
    "version": ["--version"],
    **{f"{op}-{fmt}": ["--format", fmt, *argv] for op, argv in OPS.items() if op != "version" for fmt in ("text", "json")},
}


@pytest.mark.parametrize("op", sorted(PLAIN))
def test_plain_op_loads_no_argparse(so3_spec, op):
    argv = [so3_spec if a == "SPEC" else a for a in PLAIN[op]]
    assert loaded_after(*argv, watched=("argparse", "gettext", "locale")) == set()


def test_help_and_rejected_arguments_load_argparse():
    code, modules, out, _ = spawn("--help")
    assert (code, out[0]) == ("0", "usage: fusionring [-h] [--version] [--format {text,json}]")
    assert "argparse" in modules
    code, modules, out, err = spawn("search", "--degrees", "1,1,1", "--max-mult", "0")
    assert (code, out) == ("2", [])
    assert err == "fusionring: argument --max-mult: expected a positive integer, got '0'\n"
    assert "argparse" in modules


def test_json_op_loads_json(so3_spec):
    assert "json" in loaded_after("--format", "json", "check", so3_spec, watched=("json",))


SEED_ALL = [
    "BasisElement", "CaseSplitResult", "ChainFailure", "ChainResult", "CharacterTable", "CheckReport",
    "Cyclotomic", "FailureBranch", "FusionRing", "FusionRingError", "GrouplikeFound", "GrouplikeGroup",
    "IncompleteClosure", "InvalidRing", "InvalidSetting", "LadderCertificate", "NotClosed", "NotDegreeThree",
    "NotIntegral", "Obstruction", "OrthogonalityFailure", "OverflowDetected", "PreconditionUnmet",
    "RankTooLarge", "RingElement", "RingSemanticError", "RingSyntaxError", "SelfDual", "SquareSplit",
    "StandardSubring", "TruncationReached", "UnknownLabel", "UnknownProduct", "Verdict", "a4_character_ring",
    "axioms", "build_ring", "char_table_ring", "chartable", "check_axioms", "check_stabilizer_rule",
    "closure", "cyclic_character_table", "cyclic_group_ring", "cyclotomic", "cyclotomic_polynomial",
    "degree3_case_split", "dichotomy_verdict", "enumerate_rings", "enumerate_standard_subrings",
    "f21_character_ring", "fixture_character_ring", "fixture_character_table", "fragment_ring",
    "freeness_obstructions", "grouplike_group", "ladder", "ladder_build", "load_character_table", "oracles",
    "parse_character_table", "parse_spec", "ring", "s3_character_ring", "search", "selfdual_chain",
    "so3_truncated", "specfmt", "stabilizer_group", "stabilizer_labels", "subrings", "verify",
    "verify_certificate", "write_spec",
]
SUBMODULES = {
    "axioms", "chartable", "cyclotomic", "ladder", "oracles", "ring", "search", "specfmt", "subrings", "verify",
}


def test_public_names_unchanged():
    assert len(SEED_ALL) == 74
    assert sorted(fr.__all__) == SEED_ALL


@pytest.mark.parametrize("name", SEED_ALL)
def test_public_name_resolves_to_its_home(name):
    obj = getattr(fr, name)
    if name in SUBMODULES:
        assert obj is sys.modules[f"fusionring.{name}"]
    else:
        homes = [m for m in SUBMODULES if getattr(importlib.import_module(f"fusionring.{m}"), name, None) is obj]
        assert homes, f"{name} is bound in no fusionring module"
    assert name in dir(fr)


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from fusionring import *", namespace)
    assert sorted(k for k in namespace if k != "__builtins__") == SEED_ALL


def test_unknown_name_raises_standard_attribute_error():
    with pytest.raises(AttributeError, match=r"^module 'fusionring' has no attribute 'no_such_name'$"):
        fr.no_such_name


def test_lookup_reads_through_to_the_home_module(monkeypatch):
    # a rebinding in the home module (a mock, a tracer) shows through the
    # package and is gone from it once undone: nothing is cached there
    original = fr.check_axioms
    assert "check_axioms" not in vars(fr)
    monkeypatch.setattr(fusionring.axioms, "check_axioms", len)
    assert fr.check_axioms is len
    monkeypatch.undo()
    assert fr.check_axioms is original
    assert "check_axioms" not in vars(fr)


def test_ladder_check_axioms_reads_through_to_axioms(monkeypatch):
    # ladder imports axioms where it runs, yet still answers for the name
    import fusionring.ladder

    assert fusionring.ladder.check_axioms is fusionring.axioms.check_axioms
    monkeypatch.setattr(fusionring.axioms, "check_axioms", len)
    assert fusionring.ladder.check_axioms is len
    assert "check_axioms" not in vars(fusionring.ladder)


ELEMENT_HOOK = """\
import sys
import fusionring as fr
ring = fr.cyclic_group_ring(3)
print("fusionring.verify" in sys.modules)
try:
    ring.no_such
except AttributeError as exc:
    print(exc)
print("fusionring.verify" in sys.modules)
g = ring.element("g")
print(ring.decompose(ring.multiply(g, g)), "fusionring.verify" in sys.modules)
"""


def test_element_methods_load_verify_on_first_use():
    # the element layer is bound from `verify` only when an element method is
    # read; any other missing attribute is refused without loading it
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run([sys.executable, "-c", ELEMENT_HOOK], env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == [
        "False",
        "'FusionRing' object has no attribute 'no_such'",
        "False",
        "[('g2', 1)] True",
    ]
    import fusionring.verify

    assert fr.RingElement is fusionring.verify.RingElement
    assert fr.verify_certificate is fusionring.verify.verify_certificate


def test_ring_refuses_other_attributes_in_the_standard_form():
    ring = fr.cyclic_group_ring(3)
    with pytest.raises(AttributeError, match=r"^'FusionRing' object has no attribute 'no_such'$") as caught:
        ring.no_such
    assert (caught.value.name, caught.value.obj) == ("no_such", ring)
