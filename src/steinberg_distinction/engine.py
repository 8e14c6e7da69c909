"""Distinction decision procedure for twisted Steinberg representations.

The engine runs the combinatorial proof skeleton at degree n (n = m in
the odd case, 2m in the even case): (1) the open orbit s0, the
anti-diagonal matrix on the minimal partition 1^n, must support the
character, else NOT_DISTINGUISHED; (2) a supporting orbit on a
next-to-minimal partition kills distinction; (3) otherwise DISTINGUISHED
with multiplicity one.

Step (2) needs no search, by the coarsening lemma.  Let lambda_k be 1^n
with positions k and k + 1 merged.  An orbit on lambda_k supports a
character only when k = n/2, the orbit is coarsen(s0, n/2) and the
character is ``triv``:

- A supporting orbit's row-major fine layout mirrors itself
  (``orbit_supports``): block (i, j) of size c and its partner (j, i)
  start at positions summing to n + 2 - c.  So a unit block at position
  x has its partner at n + 1 - x, and positions grow with the row index.
- Row k holds either one diagonal block of size 2 or two unit blocks, at
  positions k and k + 1 in column order; every other row holds one unit
  block.
- One block of size 2 is centred: 2k + 2 = n + 2, so k = n/2.  Every
  other block pairs x with n + 1 - x, so the matrix is coarsen(s0, n/2).
- Two unit blocks off the diagonal have their partners at n + 1 - k and
  n - k, so the partner of the first lies in a later row than the
  partner of the second.  That contradicts the column order.
- A diagonal unit block would need k = (n +- 1)/2, and the other
  block's partner then lands on the wrong side of row k.
- ``eta`` rejects the size-2 diagonal block of coarsen(s0, n/2), and
  ``triv`` accepts it: the block is centred, so its exponent is 0.

So the status is read from at most two support reports: s0's and, at
even n, coarsen(s0, n/2)'s.  With step (1) this is the parity rule: at
odd n the centre block of s0 kills ``eta``, and at even n the
coarsening kills ``triv``.  The trace is the one the brute-force
oracle gives: s0's report and, when s0 supports the character, the
report of coarsen(s0, k) for k = 1, ..., n - 1.  That oracle
(enumerating every orbit of each lambda_k with
``cosets.enumerate_coset_matrices`` and filtering it through
``orbit_supports``) and the generator of the supporting orbits are kept
with the tests, which check the lemma at every step for n <= 60.
"""

from __future__ import annotations

from collections.abc import Iterator
from enum import Enum

from .characters import (
    ChiToken,
    SupportReport,
    minimal_partition,
    orbit_supports,
)
from .cosets import (
    CaseTag,
    CosetMatrix,
    InvalidInputError,
    anti_diagonal_matrix,
    coarsen,
    validate_m_d,
)


class VerdictStatus(Enum):
    DISTINGUISHED = "DISTINGUISHED"
    NOT_DISTINGUISHED = "NOT_DISTINGUISHED"

    @property
    def multiplicity(self) -> int:
        """The dimension of the invariant forms: one when distinguished
        (step (3)), else none."""
        return 1 if self is VerdictStatus.DISTINGUISHED else 0


def steinberg_decision(
    case: CaseTag, m: int, chi: ChiToken
) -> tuple[VerdictStatus, Iterator[SupportReport]]:
    """Decide distinction of the twisted Steinberg representation: the
    status, read from at most two support reports by steps (1) to (3) of
    the module docstring, and a lazy iterator over the trace, s0's report
    and, when s0 supports the character, coarsen(s0, k)'s for
    k = 1, ..., n - 1.  The iterator computes each report as it is
    reached and yields the two deciding ones again; a caller that needs
    only the status leaves it unstarted.

    d reaches a verdict only through its parity, which the case carries;
    a caller with a d checks it with ``validate_m_d``.
    """
    if m < 1:
        raise InvalidInputError("m must be positive")
    s0 = anti_diagonal_matrix(minimal_partition(case, m), case)
    first = orbit_supports(s0, chi)
    if not first.feasible:
        return VerdictStatus.NOT_DISTINGUISHED, iter((first,))
    n = s0.size
    middle = orbit_supports(coarsen(s0, n // 2), chi) if n % 2 == 0 else None
    killed = middle is not None and middle.feasible
    status = VerdictStatus.NOT_DISTINGUISHED if killed else VerdictStatus.DISTINGUISHED
    return status, _trace(s0, chi, first, middle)


def _trace(
    s0: CosetMatrix, chi: ChiToken, first: SupportReport, middle: SupportReport | None
) -> Iterator[SupportReport]:
    yield first
    n = s0.size
    for k in range(1, n):
        yield middle if 2 * k == n else orbit_supports(coarsen(s0, k), chi)


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
    a sweep passes one dict and decides each (case, m, chi) once.  Only
    the status is decided; no trace is built.
    """
    validate_m_d(case, m, d)
    expected = exponent_parity_formula(m, d)
    if decided is None:
        decided = {}
    ok = True
    for chi in ChiToken:
        status = decided.get((case, m, chi))
        if status is None:
            status = decided[(case, m, chi)] = steinberg_decision(case, m, chi)[0]
        if chi is expected:
            ok = ok and status is VerdictStatus.DISTINGUISHED
        else:
            ok = ok and status is VerdictStatus.NOT_DISTINGUISHED
    return ok
