"""Exponent-and-sign character model on twisted Levi fixed groups.

A character of the fixed group of a twisted diagonal Levi is modelled
per fine block by a rational exponent (power of the positive norm
character) and a sign bit (quadratic component).  Feasibility of the
character equation against the half modulus character reduces to
convention-invariant conditions: paired exponents must cancel, fixed
blocks must carry exponent zero, and a fixed block obstructs the
quadratic token outright because the half modulus is positive-valued
while the quadratic token takes negative values on it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .cosets import (
    BlockInvolution,
    CaseTag,
    CosetMatrix,
    FineLayout,
    InvalidInputError,
    Partition,
    block_involution,
    enumerate_coset_matrices,
    fine_layout,
    validate_m_d,
)

__all__ = [
    "ChiToken",
    "ExponentCharacter",
    "SupportRule",
    "SupportReport",
    "delta_half_exponents",
    "restrict_mu_chi",
    "orbit_supports",
    "supporting_coset_matrices",
    "minimal_orbit_analysis",
    "minimal_partition",
]


class ChiToken(Enum):
    """Restriction of the inducing character to the base field: trivial
    or the quadratic class character of the extension."""

    TRIV = "triv"
    ETA = "eta"


@dataclass(frozen=True)
class ExponentCharacter:
    """Per-fine-block (exponent, sign bit) data."""

    per_block: tuple[tuple[Fraction, int], ...]

    def __post_init__(self) -> None:
        if any(bit not in (0, 1) for _, bit in self.per_block):
            raise InvalidInputError("sign bits must be 0 or 1")


class SupportRule(Enum):
    PAIR_SUM_NONZERO = "PAIR_SUM_NONZERO"
    FIXED_EXPONENT_NONZERO = "FIXED_EXPONENT_NONZERO"
    FIXED_SIGN_OBSTRUCTION = "FIXED_SIGN_OBSTRUCTION"


@dataclass(frozen=True)
class SupportReport:
    """Verdict of the per-orbit character equation."""

    s: CosetMatrix
    chi: ChiToken
    feasible: bool
    violations: tuple[tuple[int, SupportRule], ...]

    def __post_init__(self) -> None:
        if self.feasible != (not self.violations):
            raise InvalidInputError("feasible must mean no violations")

    def to_json(self) -> dict:
        return {
            "s": self.s.to_json(),
            "chi": self.chi.value,
            "feasible": self.feasible,
            "violations": [
                {"block": b, "rule": rule.value} for b, rule in self.violations
            ],
        }


def delta_half_exponents(layout: FineLayout, kappa: Fraction = Fraction(1)) -> ExponentCharacter:
    """Half modulus exponents of the fine parabolic, per block.

    Block b of size k_b gets (kappa/2) (sum of later sizes - sum of
    earlier sizes); the weighted total over blocks vanishes.
    """
    if kappa <= 0:
        raise InvalidInputError("kappa must be positive")
    sizes = layout.sub_partition.parts
    total = sum(sizes)
    prefix = 0
    out = []
    for k in sizes:
        suffix = total - prefix - k
        out.append((Fraction(kappa) * Fraction(suffix - prefix, 2), 0))
        prefix += k
    return ExponentCharacter(tuple(out))


def restrict_mu_chi(
    layout: FineLayout, invol: BlockInvolution, chi: ChiToken
) -> ExponentCharacter:
    """Restriction of the induced character to the twisted fixed Levi.

    Paired blocks land in norms, where both tokens are trivial; fixed
    blocks see the base-field restriction through the reduced norm, so
    only the quadratic token leaves a sign there.
    """
    if len(invol.pairing) != len(layout.blocks):
        raise InvalidInputError("layout and involution are inconsistent")
    out = []
    for b in range(len(layout.blocks)):
        if b in invol.fixed_blocks:
            out.append((Fraction(0), 1 if chi is ChiToken.ETA else 0))
        else:
            out.append((Fraction(0), 0))
    return ExponentCharacter(tuple(out))


def orbit_supports(
    s: CosetMatrix, chi: ChiToken, kappa: Fraction = Fraction(1)
) -> SupportReport:
    """Decide whether the orbit of ``s`` can support the character.

    Feasible iff every paired couple of blocks has cancelling half
    modulus exponents and every fixed block has exponent zero and the
    trivial token.  Block indices in violations are 1-based.
    """
    layout = fine_layout(s)
    invol = block_involution(s)
    delta = delta_half_exponents(layout, kappa)
    violations: list[tuple[int, SupportRule]] = []
    for b in range(len(layout.blocks)):
        eb = delta.per_block[b][0]
        if b in invol.fixed_blocks:
            if eb != 0:
                violations.append((b + 1, SupportRule.FIXED_EXPONENT_NONZERO))
            if chi is ChiToken.ETA:
                violations.append((b + 1, SupportRule.FIXED_SIGN_OBSTRUCTION))
        else:
            partner = invol.pairing[b]
            if b < partner and eb + delta.per_block[partner][0] != 0:
                violations.append((b + 1, SupportRule.PAIR_SUM_NONZERO))
    return SupportReport(
        s=s, chi=chi, feasible=not violations, violations=tuple(violations)
    )


def supporting_coset_matrices(
    partition: Partition, case: CaseTag, chi: ChiToken
) -> list[CosetMatrix]:
    """Coset matrices whose orbits support ``chi``, in canonical order.

    Equal to filtering ``enumerate_coset_matrices`` through
    ``orbit_supports``, which stays the brute-force oracle, but only the
    supporting matrices are generated.  Support holds iff the row-major
    fine layout mirrors itself: the block (i, j) of size k and its
    partner (j, i) satisfy start(i, j) + start(j, i) + k = n + 2 with
    1-based starts (a diagonal block is centred), and ``eta`` admits no
    diagonal block.  The upper triangle is filled row by row as in the
    enumeration, larger value first; when cell (i, j) is reached both
    starts are already fixed by the row sums and the placed entries, so
    the rule leaves one nonzero value for the cell.  Backtracking runs
    on an explicit stack of placed cells, not on recursion.
    """
    if not isinstance(partition, Partition):
        raise InvalidInputError("partition must be a Partition")
    t = len(partition)
    n = partition.total
    # ends[x] - remaining[x] positions precede the next free unit of row x
    ends = list(itertools.accumulate(partition.parts))
    remaining = list(partition.parts)
    entries = [[0] * t for _ in range(t)]
    step = 2 if case is CaseTag.EVEN else 1
    results: list[CosetMatrix] = []
    placed: list[tuple[int, int]] = []
    i = j = 0
    while True:
        if i < t and remaining[i] == 0:
            i = j = i + 1  # the rest of the row stays zero
            continue
        if i == t:
            results.append(
                CosetMatrix(case, partition, tuple(tuple(row) for row in entries))
            )
        elif j < t:
            k = n - (ends[i] - remaining[i]) - (ends[j] - remaining[j])
            # k only shrinks along the row, so k < 1 leaves row i unfillable
            if k >= 1:
                if k <= min(remaining[i], remaining[j]) and (
                    i != j or (chi is ChiToken.TRIV and k % step == 0)
                ):
                    entries[i][j] = entries[j][i] = k
                    remaining[i] -= k
                    if i != j:
                        remaining[j] -= k
                    placed.append((i, j))
                j += 1
                continue
        # complete or dead end: empty the last placed cell and move past it
        if not placed:
            return results
        i, j = placed.pop()
        k = entries[i][j]
        entries[i][j] = entries[j][i] = 0
        remaining[i] += k
        if i != j:
            remaining[j] += k
        j += 1


def minimal_partition(case: CaseTag, m: int) -> Partition:
    n = 2 * m if case is CaseTag.EVEN else m
    return Partition((1,) * n)


def minimal_orbit_analysis(
    case: CaseTag, m: int, d: int, chi: ChiToken
) -> list[CosetMatrix]:
    """Supporting orbits on the minimal partition (expected: at most the
    anti-diagonal one)."""
    validate_m_d(case, m, d)
    partition = minimal_partition(case, m)
    return [
        s
        for s in enumerate_coset_matrices(partition, case)
        if orbit_supports(s, chi).feasible
    ]
