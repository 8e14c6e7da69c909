"""Distinction decision procedure for twisted Steinberg representations.

The engine runs the combinatorial proof skeleton: the open orbit on the
minimal partition must support the character, and no next-to-minimal
parabolic may support it through the coarsening of the open orbit.  A
supporting next-to-minimal orbit other than that coarsening is outside
the reach of the combinatorics and is surfaced as INCONCLUSIVE rather
than guessed.

Only the supporting next-to-minimal orbits are looked at: they are
generated directly by ``characters.supporting_coset_matrices``, so the
cost no longer grows with the number of orbits.  Enumerating every
orbit with ``cosets.enumerate_coset_matrices`` and filtering it through
``characters.orbit_supports`` is the brute-force oracle the tests check
the engine against.
"""

from __future__ import annotations

from enum import Enum
from operator import attrgetter

from .characters import (
    ChiToken,
    SupportReport,
    minimal_partition,
    orbit_supports,
    supporting_coset_matrices,
)
from .cosets import (
    CaseTag,
    Frozen,
    InvalidInputError,
    anti_diagonal_matrix,
    coarsen,
    validate_m_d,
)

__all__ = [
    "VerdictStatus",
    "DistinctionVerdict",
    "steinberg_decision",
    "exponent_parity_formula",
    "cross_check",
]


class VerdictStatus(Enum):
    DISTINGUISHED = "DISTINGUISHED"
    NOT_DISTINGUISHED = "NOT_DISTINGUISHED"
    INCONCLUSIVE = "INCONCLUSIVE"


class DistinctionVerdict(Frozen):
    __slots__ = ("case", "m", "d", "chi", "status", "multiplicity", "trace")

    def __init__(
        self, case: CaseTag, m: int, d: int, chi: ChiToken, status: VerdictStatus,
        multiplicity: int, trace: tuple[SupportReport, ...],
    ) -> None:
        if status is VerdictStatus.DISTINGUISHED and multiplicity != 1:
            raise InvalidInputError("distinguished verdicts have multiplicity 1")
        if status is VerdictStatus.NOT_DISTINGUISHED and multiplicity != 0:
            raise InvalidInputError("negative verdicts have multiplicity 0")
        object.__setattr__(self, "case", case)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "chi", chi)
        object.__setattr__(self, "status", status)
        object.__setattr__(self, "multiplicity", multiplicity)
        object.__setattr__(self, "trace", trace)

    def to_json(self) -> dict:
        return {
            "case": self.case.value,
            "m": self.m,
            "d": self.d,
            "chi": self.chi.value,
            "status": self.status.value,
            "multiplicity": self.multiplicity,
            "trace": [
                {"partition": list(rep.s.partition.parts), "report": rep.to_json()}
                for rep in self.trace
            ],
        }


def steinberg_decision(case: CaseTag, m: int, d: int, chi: ChiToken) -> DistinctionVerdict:
    """Decide distinction of the twisted Steinberg representation.

    Steps: (1) the anti-diagonal orbit on the minimal partition must
    support the character, else NOT_DISTINGUISHED; (2) across every
    next-to-minimal partition, a supporting coarsening of the open orbit
    kills distinction (the invariant form restricts non-trivially to the
    corresponding induced space), while any other supporting orbit is
    INCONCLUSIVE; (3) otherwise DISTINGUISHED with multiplicity one.

    Step (2) visits the orbits ``supporting_coset_matrices`` generates,
    in canonical order, and the coarsening of the open orbit, sorted in
    only when they lack it (no set is built); each is reported through
    ``orbit_supports``, and a generated orbit it rejects raises
    RuntimeError.  The trace is the one the brute-force oracle gives:
    every supporting orbit and the coarsening, canonical per partition.
    """
    validate_m_d(case, m, d)
    n = 2 * m if case is CaseTag.EVEN else m
    minimal = minimal_partition(case, m)
    s0 = anti_diagonal_matrix(minimal, case)
    open_report = orbit_supports(s0, chi)
    trace = [open_report]
    if not open_report.feasible:
        return DistinctionVerdict(
            case, m, d, chi, VerdictStatus.NOT_DISTINGUISHED, 0, tuple(trace)
        )

    killed = False
    stray_support = False
    for k in range(1, n):
        coarse_open = coarsen(s0, k)
        orbits = supporting_coset_matrices(coarse_open.partition, case, chi)
        if coarse_open not in orbits:
            # one shape per partition: the rows compare as the flattening does
            orbits = sorted([coarse_open, *orbits], key=attrgetter("entries"), reverse=True)
        for s in orbits:
            report = orbit_supports(s, chi)
            trace.append(report)
            if s == coarse_open:
                killed = killed or report.feasible
            elif report.feasible:
                stray_support = True
            else:
                raise RuntimeError(
                    f"generated orbit {s.to_json()} does not support {chi.value}"
                )
    if killed:
        return DistinctionVerdict(
            case, m, d, chi, VerdictStatus.NOT_DISTINGUISHED, 0, tuple(trace)
        )
    if stray_support:
        return DistinctionVerdict(
            case, m, d, chi, VerdictStatus.INCONCLUSIVE, 0, tuple(trace)
        )
    return DistinctionVerdict(
        case, m, d, chi, VerdictStatus.DISTINGUISHED, 1, tuple(trace)
    )


def exponent_parity_formula(m: int, d: int) -> ChiToken:
    """Closed-form answer: the quadratic token iff m d - 1 is odd."""
    if m < 1 or d < 1:
        raise InvalidInputError("m and d must be positive")
    return ChiToken.ETA if (m * d - 1) % 2 else ChiToken.TRIV


def cross_check(
    case: CaseTag,
    m: int,
    d: int,
    decided: dict[tuple[CaseTag, int, ChiToken], VerdictStatus] | None = None,
) -> bool:
    """Engine verdicts agree with the closed-form parity for both tokens.

    d enters a verdict only through the parity check, so ``decided``
    maps (case, m, chi) to a status decided for another d of the case:
    a sweep passes one dict and decides each (case, m, chi) once.
    """
    validate_m_d(case, m, d)
    expected = exponent_parity_formula(m, d)
    if decided is None:
        decided = {}
    ok = True
    for chi in ChiToken:
        status = decided.get((case, m, chi))
        if status is None:
            status = steinberg_decision(case, m, d, chi).status
            decided[(case, m, chi)] = status
        if status is VerdictStatus.INCONCLUSIVE:
            import logging  # only here, so that importing the engine does not load it

            logging.getLogger(__name__).warning(
                "cross_check: INCONCLUSIVE verdict for case=%s m=%d d=%d chi=%s",
                case.value, m, d, chi.value,
            )
            ok = False
        elif chi is expected:
            ok = ok and status is VerdictStatus.DISTINGUISHED
        else:
            ok = ok and status is VerdictStatus.NOT_DISTINGUISHED
    return ok
