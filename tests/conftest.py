import itertools
from fractions import Fraction

import pytest

from steinberg_distinction.characters import ChiToken, SupportReport, SupportRule
from steinberg_distinction.cosets import Partition
from steinberg_distinction.oracles.flags import _representative, _representative_pieces


def compositions(n: int):
    """All ordered partitions of n."""
    for cuts in itertools.product([0, 1], repeat=n - 1):
        parts, cur = [], 1
        for c in cuts:
            if c:
                parts.append(cur)
                cur = 1
            else:
                cur += 1
        parts.append(cur)
        yield Partition(tuple(parts))


def swapped_line_tables(rank_rows):
    """``_rank_rows`` with the one entry r[1][1] of a line's table
    swapped between 0 and 1, the two line profiles, and other tables
    kept."""

    def swapped(field, bases):
        table = rank_rows(field, bases)
        return ((1 - table[0][0],),) if len(bases) == 1 and len(bases[0]) == 1 else table

    return swapped


def delta_half_exponents(layout, kappa=Fraction(1)):
    """Reference: the rational half modulus exponents, one per block.

    Block b of size k_b gets (kappa/2) (sum of later sizes - sum of
    earlier sizes); the weighted total over blocks vanishes.
    """
    sizes = [k for _, _, k in layout.blocks]
    total = sum(sizes)
    prefix = 0
    out = []
    for k in sizes:
        suffix = total - prefix - k
        out.append(Fraction(kappa) * Fraction(suffix - prefix, 2))
        prefix += k
    return tuple(out)


def reference_report(s, chi, invol, delta):
    """Reference: the support rule on the rational exponents ``delta``,
    with the pairing and the fixed blocks read off ``block_involution``."""
    violations = []
    for b, eb in enumerate(delta):
        if b in invol.fixed_blocks:
            if eb != 0:
                violations.append((b + 1, SupportRule.FIXED_EXPONENT_NONZERO))
            if chi is ChiToken.ETA:
                violations.append((b + 1, SupportRule.FIXED_SIGN_OBSTRUCTION))
        else:
            partner = invol.pairing[b]
            if b < partner and eb + delta[partner] != 0:
                violations.append((b + 1, SupportRule.PAIR_SUM_NONZERO))
    return SupportReport(s=s, chi=chi, violations=tuple(violations))


@pytest.fixture(autouse=True)
def cold_representatives():
    """Every test starts and ends with no representative memoised, so a
    count of built flags does not depend on the tests run before it, and
    a test that patches the builder leaves no wrong representative."""
    _representative.cache_clear()
    _representative_pieces.cache_clear()
    yield
    _representative.cache_clear()
    _representative_pieces.cache_clear()
