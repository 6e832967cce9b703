"""fusionring: exact arithmetic and structure analysis for fusion rings."""

__version__ = "0.1.0"

from .ring import (
    BasisElement,
    FusionRing,
    FusionRingError,
    InvalidRing,
    InvalidSetting,
    NotClosed,
    OverflowDetected,
    PreconditionUnmet,
    RankTooLarge,
    RingElement,
    UnknownLabel,
    UnknownProduct,
    build_ring,
)
from .axioms import CheckReport, check_axioms, check_stabilizer_rule, stabilizer_labels
from .subrings import (
    GrouplikeGroup,
    IncompleteClosure,
    StandardSubring,
    closure,
    enumerate_standard_subrings,
    freeness_obstructions,
    grouplike_group,
    stabilizer_group,
)
from .ladder import (
    CaseSplitResult,
    ChainFailure,
    ChainResult,
    FailureBranch,
    GrouplikeFound,
    LadderCertificate,
    NotDegreeThree,
    Obstruction,
    SelfDual,
    SquareSplit,
    TruncationReached,
    Verdict,
    degree3_case_split,
    dichotomy_verdict,
    ladder_build,
    selfdual_chain,
    verify_certificate,
)
from .search import enumerate_rings
from .cyclotomic import Cyclotomic, cyclotomic_polynomial
from .chartable import (
    CharacterTable,
    NotIntegral,
    OrthogonalityFailure,
    char_table_ring,
    load_character_table,
    parse_character_table,
)
from .oracles import (
    a4_character_ring,
    cyclic_character_table,
    cyclic_group_ring,
    f21_character_ring,
    fixture_character_ring,
    fixture_character_table,
    fragment_ring,
    s3_character_ring,
    so3_truncated,
)
from .specfmt import RingSemanticError, RingSyntaxError, parse_spec, write_spec

__all__ = [name for name in dir() if not name.startswith("_")]
