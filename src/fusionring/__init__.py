"""fusionring: exact arithmetic and structure analysis for fusion rings.

The public names below are loaded on first access (PEP 562), so importing
the package, or one module of it, loads only the modules actually used.
"""

import importlib

__version__ = "0.1.0"

# Exported names by home module.
_EXPORTS = {
    "ring": (
        "BasisElement", "FusionRing", "FusionRingError", "InvalidRing", "InvalidSetting", "NotClosed",
        "OverflowDetected", "PreconditionUnmet", "RankTooLarge", "UnknownLabel", "UnknownProduct", "build_ring",
    ),
    "axioms": ("CheckReport", "check_axioms", "check_stabilizer_rule", "stabilizer_labels"),
    "subrings": (
        "GrouplikeGroup", "IncompleteClosure", "StandardSubring", "closure", "enumerate_standard_subrings",
        "freeness_obstructions", "grouplike_group", "stabilizer_group",
    ),
    "ladder": (
        "CaseSplitResult", "ChainFailure", "ChainResult", "FailureBranch", "GrouplikeFound",
        "LadderCertificate", "NotDegreeThree", "Obstruction", "SelfDual", "SquareSplit",
        "TruncationReached", "Verdict", "degree3_case_split", "dichotomy_verdict", "ladder_build", "selfdual_chain",
    ),
    "search": ("enumerate_rings",),
    "cyclotomic": ("Cyclotomic", "cyclotomic_polynomial"),
    "chartable": (
        "CharacterTable", "NotIntegral", "OrthogonalityFailure", "char_table_ring", "load_character_table",
        "parse_character_table",
    ),
    "oracles": (
        "a4_character_ring", "cyclic_character_table", "cyclic_group_ring", "f21_character_ring",
        "fixture_character_ring", "fixture_character_table", "fragment_ring", "s3_character_ring",
        "so3_truncated",
    ),
    "specfmt": ("RingSemanticError", "RingSyntaxError", "parse_spec", "write_spec"),
    "verify": ("RingElement", "verify_certificate"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_EXPORTS, *_HOME])


def __getattr__(name: str):
    # Read through on every access, never stored here: a rebinding of the
    # home module's attribute (a mock, a tracer) shows through and is undone
    # with it.
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name in _HOME:
        return getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
