"""Symbolic combinatorics deciding distinction of twisted Steinberg
representations, with exact L-factor arithmetic and finite brute-force
oracles."""

from .characters import (
    ChiToken,
    SupportReport,
    SupportRule,
    orbit_supports,
)
from .cosets import (
    CaseTag,
    ClosureRelation,
    CosetMatrix,
    InvalidInputError,
    Partition,
    Permutation,
    anti_diagonal_matrix,
    block_involution,
    build_us_odd,
    closure_compare,
    coarsen,
    enumerate_coset_matrices,
    fine_layout,
    is_open,
)
from .engine import (
    VerdictStatus,
    cross_check,
    exponent_parity_formula,
    steinberg_decision,
)
from .lfactor import (
    RamificationTag,
    RationalFunc,
    TateChar,
    eval_nonvanishing_at_s0,
    gj_L_trivial,
    i2_ratio,
    tate_L,
    tate_L_quadratic_ext,
)

__version__ = "0.1.0"

__all__ = [
    "CaseTag",
    "Partition",
    "CosetMatrix",
    "Permutation",
    "ClosureRelation",
    "InvalidInputError",
    "enumerate_coset_matrices",
    "fine_layout",
    "block_involution",
    "build_us_odd",
    "coarsen",
    "closure_compare",
    "is_open",
    "anti_diagonal_matrix",
    "ChiToken",
    "SupportRule",
    "SupportReport",
    "orbit_supports",
    "VerdictStatus",
    "steinberg_decision",
    "exponent_parity_formula",
    "cross_check",
    "RationalFunc",
    "RamificationTag",
    "TateChar",
    "tate_L",
    "tate_L_quadratic_ext",
    "gj_L_trivial",
    "i2_ratio",
    "eval_nonvanishing_at_s0",
    "__version__",
]
