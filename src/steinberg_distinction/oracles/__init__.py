"""Independent brute-force oracles cross-checking the symbolic layer."""

from .finite_field import QuadraticExtension
from .flags import (
    BudgetExceededError,
    Flag,
    FlagCache,
    count_flags,
    enumerate_flags,
    flag_profile,
    iter_flags,
    reduce_to_representative,
    representative_flag,
)
from .quaternion import QuaternionAlgebra, QuaternionElem, quaternion_model_check

__all__ = [
    "QuadraticExtension",
    "BudgetExceededError",
    "Flag",
    "FlagCache",
    "count_flags",
    "enumerate_flags",
    "flag_profile",
    "iter_flags",
    "reduce_to_representative",
    "representative_flag",
    "QuaternionAlgebra",
    "QuaternionElem",
    "quaternion_model_check",
]
