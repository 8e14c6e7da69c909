"""Character support on twisted Levi fixed groups.

The half modulus character of a fine parabolic is a power of the
positive norm character, one rational exponent per fine block; the
support test reads them as integers (``doubled_exponents``).  The
character equation against it on the fixed group of the twisted
diagonal Levi reduces to convention-invariant conditions: paired
exponents must cancel, fixed blocks must carry exponent zero, and a
fixed block obstructs the quadratic token outright because the half
modulus is positive-valued while the quadratic token takes negative
values on it.
"""

from __future__ import annotations

from enum import Enum

from .cosets import (
    CaseTag,
    CosetMatrix,
    FineLayout,
    Frozen,
    Partition,
    fine_layout,
)


class ChiToken(Enum):
    """Restriction of the inducing character to the base field: trivial
    or the quadratic class character of the extension."""

    TRIV = "triv"
    ETA = "eta"


class SupportRule(Enum):
    PAIR_SUM_NONZERO = "PAIR_SUM_NONZERO"
    FIXED_EXPONENT_NONZERO = "FIXED_EXPONENT_NONZERO"
    FIXED_SIGN_OBSTRUCTION = "FIXED_SIGN_OBSTRUCTION"


class SupportReport(Frozen):
    """Verdict of the per-orbit character equation."""

    __slots__ = ("s", "chi", "violations")

    def __init__(
        self, s: CosetMatrix, chi: ChiToken, violations: tuple[tuple[int, SupportRule], ...],
    ) -> None:
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "chi", chi)
        object.__setattr__(self, "violations", violations)

    @property
    def feasible(self) -> bool:
        """The orbit supports the character: no rule is violated."""
        return not self.violations

    def to_json(self) -> dict:
        return {
            "s": self.s.to_json(),
            "chi": self.chi.value,
            "feasible": self.feasible,
            "violations": [
                {"block": b, "rule": rule.value} for b, rule in self.violations
            ],
        }


def doubled_exponents(layout: FineLayout) -> tuple[int, ...]:
    """Half modulus exponents of the fine parabolic, doubled: one
    integer per block.

    Block b gets (sum of later sizes) - (sum of earlier sizes); its half
    modulus exponent is a positive multiple of half that, whatever the
    normalisation, so an exponent is zero, and two exponents cancel,
    exactly when their integers do.
    """
    n = layout.start_pos[-1] + layout.blocks[-1][2] - 1
    return tuple(
        n + 2 - 2 * start - k
        for start, (_, _, k) in zip(layout.start_pos, layout.blocks)
    )


def orbit_supports(s: CosetMatrix, chi: ChiToken) -> SupportReport:
    """Decide whether the orbit of ``s`` can support the character.

    Feasible iff every paired couple of blocks has cancelling half
    modulus exponents and every fixed block has exponent zero and the
    trivial token.  Paired blocks land in norms, where both tokens are
    trivial; a fixed block sees the base-field restriction through the
    reduced norm, so only ``eta`` leaves a sign there
    (FIXED_SIGN_OBSTRUCTION).  Block indices in violations are 1-based.
    The exponents are the integers of ``doubled_exponents``.  Block
    (i, j) is paired with block (j, i), which comes later in the
    row-major layout when i < j; a diagonal block is fixed.
    """
    layout = fine_layout(s)
    delta = doubled_exponents(layout)
    index = {(i, j): b for b, (i, j, _) in enumerate(layout.blocks)}
    violations: list[tuple[int, SupportRule]] = []
    for b, (i, j, _) in enumerate(layout.blocks):
        if i == j:
            if delta[b]:
                violations.append((b + 1, SupportRule.FIXED_EXPONENT_NONZERO))
            if chi is ChiToken.ETA:
                violations.append((b + 1, SupportRule.FIXED_SIGN_OBSTRUCTION))
        elif i < j and delta[b] + delta[index[(j, i)]]:
            violations.append((b + 1, SupportRule.PAIR_SUM_NONZERO))
    return SupportReport(s=s, chi=chi, violations=tuple(violations))


def minimal_partition(case: CaseTag, m: int) -> Partition:
    n = 2 * m if case is CaseTag.EVEN else m
    return Partition((1,) * n)
