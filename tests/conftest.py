import itertools
from fractions import Fraction

from steinberg_distinction.characters import ChiToken, SupportReport, SupportRule
from steinberg_distinction.cosets import Partition


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


def delta_half_exponents(layout, kappa=Fraction(1)):
    """Reference: the rational half modulus exponents, one per block.

    Block b of size k_b gets (kappa/2) (sum of later sizes - sum of
    earlier sizes); the weighted total over blocks vanishes.
    """
    sizes = layout.sub_partition.parts
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
    return SupportReport(
        s=s, chi=chi, feasible=not violations, violations=tuple(violations)
    )
