"""Character support on twisted Levi fixed groups.

The half modulus character of a fine parabolic is a power of the
positive norm character, one rational exponent per fine block; the
support test reads each exponent as an integer, in one walk over each
row's nonzero cells (``orbit_supports``).  The character equation
against it on the fixed group of the twisted diagonal Levi reduces to
convention-invariant conditions: paired exponents must cancel, fixed
blocks must carry exponent zero, and a fixed block obstructs the
quadratic token outright because the half modulus is positive-valued
while the quadratic token takes negative values on it.
"""

from __future__ import annotations

from enum import Enum
from itertools import compress

from .cosets import CaseTag, CosetMatrix, Frozen, Partition


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


def orbit_supports(s: CosetMatrix, chi: ChiToken) -> SupportReport:
    """Decide whether the orbit of ``s`` can support the character.

    Feasible iff every paired couple of blocks has cancelling half
    modulus exponents and every fixed block has exponent zero and the
    trivial token.  Paired blocks land in norms, where both tokens are
    trivial; a fixed block sees the base-field restriction through the
    reduced norm, so only ``eta`` leaves a sign there
    (FIXED_SIGN_OBSTRUCTION).  Block indices in violations are 1-based.

    The blocks are the nonzero cells in row-major order, read in one
    walk over each row's nonzero cells; block (i, j) is paired with the
    later block (j, i) when i < j, and a diagonal block is fixed.  A block
    of size k at 1-based position a has a - 1 units before it and
    n + 1 - a - k after it, so its half modulus exponent, (kappa/2)(later
    sizes - earlier sizes) for a normalisation kappa > 0, is
    (kappa/2)(n + 2 - (2a + k)).  So the walk keeps 2a + k: an exponent is
    zero exactly when that is n + 2, and two cancel exactly when theirs
    sum to 2(n + 2), whatever kappa is."""
    # (row, column) -> 2 start + size, in row-major order
    cols, blocks, start = range(s.size), {}, 1
    for i, row in enumerate(s.entries):
        for j in compress(cols, row):
            k = row[j]
            blocks[i, j] = 2 * start + k
            start += k
    centre, pair, eta = start + 1, 2 * start + 2, chi is ChiToken.ETA  # start is n + 1
    violations: list[tuple[int, SupportRule]] = []
    for b, ((i, j), x) in enumerate(blocks.items(), 1):
        if i == j:
            if x != centre:
                violations.append((b, SupportRule.FIXED_EXPONENT_NONZERO))
            if eta:
                violations.append((b, SupportRule.FIXED_SIGN_OBSTRUCTION))
        elif i < j and x + blocks[j, i] != pair:
            violations.append((b, SupportRule.PAIR_SUM_NONZERO))
    return SupportReport(s=s, chi=chi, violations=tuple(violations))


def minimal_partition(case: CaseTag, m: int) -> Partition:
    n = 2 * m if case is CaseTag.EVEN else m
    return Partition((1,) * n)
