"""Independent brute-force oracles cross-checking the symbolic layer.

The rational quaternion model check is imported from ``.quaternion``
itself, so that importing the flag oracle does not load it."""

from .finite_field import QuadraticExtension
from .flags import (
    BudgetExceededError,
    Flag,
    FlagCache,
    count_flags,
    enumerate_flags,
    flag_profile,
    reduce_to_representative,
    representative_flag,
)

__all__ = [
    "QuadraticExtension",
    "BudgetExceededError",
    "Flag",
    "FlagCache",
    "count_flags",
    "enumerate_flags",
    "flag_profile",
    "reduce_to_representative",
    "representative_flag",
]
