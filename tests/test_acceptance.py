"""Acceptance suite: one test per criterion, each printing a single
pass/fail line.  All checks are exact; no floating point anywhere.
"""

import time
import warnings
from fractions import Fraction

from steinberg_distinction.characters import ChiToken, orbit_supports
from steinberg_distinction.cosets import (
    CaseTag,
    Partition,
    anti_diagonal_matrix,
    block_involution,
    coarsen,
    count_coset_matrices,
    enumerate_coset_matrices,
    fine_layout,
)
from steinberg_distinction.engine import (
    VerdictStatus,
    exponent_parity_formula,
    steinberg_decision,
)
from steinberg_distinction.lfactor import (
    RamificationTag,
    TateChar,
    eval_nonvanishing_at_s0,
    gj_L_trivial,
    i2_ratio,
    tate_L,
    tate_L_quadratic_ext,
)
from steinberg_distinction.oracles.finite_field import QuadraticExtension
from steinberg_distinction.oracles.flags import (
    count_flags,
    enumerate_flags,
    flag_profile,
    profile_histogram,
    reduce_to_representative,
    representative_flag,
)
from steinberg_distinction.oracles.quaternion import quaternion_model_check

from certificates import (
    build_ws_even,
    compose,
    extract_permutation_odd,
    gl_order,
    inverse,
    reversal,
    root_action,
    stabiliser_order,
)
from conftest import compositions, delta_half_exponents, reference_report
from reference_walk import walk_histogram


def report(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")


def test_criterion_1_theorem_sweep():
    start = time.monotonic()
    ok = True
    for m in range(1, 5):
        for d in range(1, 5):
            case = CaseTag.EVEN if d % 2 == 0 else CaseTag.ODD
            expected = exponent_parity_formula(m, d)
            for chi in ChiToken:
                status, _ = steinberg_decision(case, m, chi)
                if chi is expected:
                    ok = ok and status is VerdictStatus.DISTINGUISHED
                    ok = ok and status.multiplicity == 1
                else:
                    ok = ok and status is VerdictStatus.NOT_DISTINGUISHED
                    ok = ok and status.multiplicity == 0
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 10
    report(1, ok, f"verdict sweep m<=4 d<=4 matches parity, {elapsed:.2f}s")
    assert ok


def test_criterion_2_minimal_partition_support():
    ok = True
    for n in (2, 4, 6):
        partition = Partition((1,) * n)
        anti = anti_diagonal_matrix(partition, CaseTag.EVEN)
        for chi in ChiToken:
            supporting = [
                s
                for s in enumerate_coset_matrices(partition, CaseTag.EVEN)
                if orbit_supports(s, chi).feasible
            ]
            ok = ok and supporting == [anti]
    report(2, ok, "even minimal partitions n<=6: support set is exactly {anti-diagonal}")
    assert ok


def test_criterion_3_next_to_minimal_sweep():
    ok = True
    for n in (2, 4, 6):
        minimal = Partition((1,) * n)
        s0 = anti_diagonal_matrix(minimal, CaseTag.EVEN)
        mid = n // 2
        for k in range(1, n):
            coarse_open = coarsen(s0, k)
            feasible_eta = []
            feasible_triv = []
            for s in enumerate_coset_matrices(coarse_open.partition, CaseTag.EVEN):
                if orbit_supports(s, ChiToken.ETA).feasible:
                    feasible_eta.append(s)
                if orbit_supports(s, ChiToken.TRIV).feasible:
                    feasible_triv.append(s)
            ok = ok and feasible_eta == []
            if k == mid:
                ok = ok and feasible_triv == [coarse_open]
            else:
                ok = ok and feasible_triv == []
    report(3, ok, "even next-to-minimal sweeps: eta all infeasible, triv only middle merge")
    assert ok


def test_criterion_4_root_sign_preservation():
    ok = True
    checked = 0
    for n in range(1, 7):
        for partition in compositions(n):
            for s in enumerate_coset_matrices(partition, CaseTag.EVEN):
                rep = root_action(s)
                checked += 1
                ok = ok and rep.violations == ()
    report(4, ok, f"root signs preserved across fine blocks, {checked} even matrices, 0 violations")
    assert ok


def test_criterion_5_representative_consistency():
    ok = True
    diagnostics = 0
    for n in range(1, 7):
        for partition in compositions(n):
            for s in enumerate_coset_matrices(partition, CaseTag.EVEN):
                tau = block_involution(s).position_map
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    ws = build_ws_even(s)
                    diagnostics += len(caught)
                ok = ok and compose(ws, reversal(n), inverse(ws)) == tau
            for s in enumerate_coset_matrices(partition, CaseTag.ODD):
                ok = ok and extract_permutation_odd(s) == block_involution(s).position_map
    report(5, ok and diagnostics == 0, f"representatives match interval involutions (n<=6), {diagnostics} formula diagnostics")
    assert ok
    assert diagnostics == 0


def test_criterion_6_lfactor_certificate():
    ok = True
    for d in range(1, 6):
        for ram in RamificationTag:
            ratio = i2_ratio(d, ram)  # asserts the inductivity chain internally
            direct = tate_L(TateChar.TRIV_F, ram, Fraction(-d), 2 * d) / tate_L(
                TateChar.ETA, ram, Fraction(0), 2 * d
            )
            ok = ok and ratio == direct
            chain = gj_L_trivial(
                2, d, Fraction(1 - 2 * d, 2), 2 * d
            ) / tate_L_quadratic_ext(Fraction(0), 2 * d, ram)
            ok = ok and chain == ratio
            result = eval_nonvanishing_at_s0(ratio, [2, 3, 4, 5, 7, 9])
            ok = ok and result.nonvanishing
    report(6, ok, "i2 ratio equals inductivity chain d<=5, nonzero at s=0 for q in {2,3,4,5,7,9}")
    assert ok


def test_criterion_7_finite_field_oracle():
    start = time.monotonic()
    field = QuadraticExtension(3)
    ok = True
    todo = [partition for n in range(1, 4) for partition in compositions(n)]
    for partition in todo:
        flags = enumerate_flags(field, partition)
        hist: dict[tuple, int] = {}
        for flag in flags:
            key = flag_profile(flag, field).flat()
            hist[key] = hist.get(key, 0) + 1
            h = reduce_to_representative(flag, field)
            ok = ok and all(field.in_base(x) for row in h for x in row)
        expected = {s.flat() for s in enumerate_coset_matrices(partition, CaseTag.ODD)}
        ok = ok and set(hist) == expected
        if partition.parts == partition.parts[::-1]:
            anti = anti_diagonal_matrix(partition, CaseTag.ODD).flat()
            top = hist[anti]
            ok = ok and all(top > size for key, size in hist.items() if key != anti)
        for s in enumerate_coset_matrices(partition, CaseTag.ODD):
            ok = ok and flag_profile(representative_flag(s, field), field) == s
    # the minimal partitions of n = 4 and 5, far above the default
    # budget (746,200 and 5.5e9 flags), through the certificate and the
    # reference walk
    walked = []
    for partition in (Partition((1,) * 4), Partition((1,) * 5)):
        lap = time.monotonic()
        count = count_flags(partition, 9)
        hist = profile_histogram(field, partition)
        expected = {s.flat() for s in enumerate_coset_matrices(partition, CaseTag.ODD)}
        ok = ok and set(hist) == expected and sum(hist.values()) == count
        anti = anti_diagonal_matrix(partition, CaseTag.ODD).flat()
        ok = ok and all(hist[anti] > size for key, size in hist.items() if key != anti)
        ok = ok and walk_histogram(field, partition, budget=count) == hist
        walked.append(f"{len(hist)} orbits in {time.monotonic() - lap:.2f}s")
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 60
    report(
        7, ok,
        f"flag oracle n<=3 q=3 matches enumeration, reductions rational; 1^4 and 1^5 certified"
        f" and equal to the walk ({', '.join(walked)}), keys and sizes exact; {elapsed:.2f}s",
    )
    assert ok


def test_criterion_8_quaternion_model():
    pairs = [(-1, -1), (-1, 2), (-1, 3), (2, 3), (-2, -5)]
    results = [quaternion_model_check(a, b) for a, b in pairs]
    ok = all(r.ok for r in results)
    report(8, ok, "quaternion involution model verified for 5 parameter pairs")
    assert ok


def test_criterion_9_convention_invariance():
    # the rational rule at each weight kappa gives orbit_supports' whole
    # report, violations included, so no kappa changes a verdict
    ok = True
    kappas = [Fraction(1), Fraction(1, 2), Fraction(3)]
    for n in range(1, 7):
        for partition in compositions(n):
            for case in CaseTag:
                for s in enumerate_coset_matrices(partition, case):
                    layout, invol = fine_layout(s), block_involution(s)
                    for kappa in kappas:
                        delta = delta_half_exponents(layout, kappa)
                        for chi in ChiToken:
                            expected = reference_report(s, chi, invol, delta)
                            ok = ok and orbit_supports(s, chi) == expected
    report(9, ok, "support reports equal the rational rule for kappa in {1, 1/2, 3} across all s with n<=6")
    assert ok


def test_criterion_10_multiplicity_one_count():
    # Mackey gives dim Hom_H(Ind_{P_lambda}^G 1, 1) = |H\G/P_lambda| for
    # G = GL_n(F_{q^2}), H = GL_n(F_q), and the Steinberg character is
    # the alternating sum of the Ind_{P_lambda}^G 1 over the compositions
    # lambda of n, with sign (-1)^(n - len(lambda)); the double cosets of
    # lambda are its odd-case coset matrices, so their alternating count
    # is dim Hom_H(St, 1), which is 1.  One matrix lost or repeated in
    # any composition moves the sum.  In the even case G = GL_n(F_q),
    # n = 2m, and H = GL_m(F_{q^2}); the even coset matrices index the
    # double cosets, and the Steinberg representation of G has no
    # H-invariant form, so the sum is 0 for every even n.
    start = time.monotonic()

    def alternating_count(n, case):
        return sum(
            (-1) ** (n - len(partition.parts)) * count_coset_matrices(partition, case)
            for partition in compositions(n)
        )

    odd = [alternating_count(n, CaseTag.ODD) for n in range(1, 13)]
    even = [alternating_count(n, CaseTag.EVEN) for n in range(2, 13, 2)]
    elapsed = time.monotonic() - start
    ok = odd == [1] * 12 and even == [0] * 6
    report(
        10, ok,
        f"alternating coset matrix counts are 1 for every n<=12 (odd)"
        f" and 0 for every even n<=12 (even), {elapsed:.2f}s",
    )
    assert ok


def test_criterion_11_multiplicity_one_orbits():
    # criterion 10's alternating sum, with |H\G/P_lambda| the number of
    # H-orbits on the lambda-flags of F_9^n that the orbit-stabiliser
    # certificate finds at q = 3, not the coset matrix count
    start = time.monotonic()
    field = QuadraticExtension(3)
    sums = [
        sum(
            (-1) ** (n - len(partition.parts)) * len(profile_histogram(field, partition))
            for partition in compositions(n)
        )
        for n in range(1, 8)
    ]
    elapsed = time.monotonic() - start
    ok = sums == [1] * 7 and elapsed < 5
    report(11, ok, f"alternating certified orbit counts at q=3 are 1 for every n<=7, {elapsed:.2f}s")
    assert ok


def test_criterion_12_mass_formula():
    # orbit-stabiliser on the lambda-flags, H-orbits indexed by the coset
    # matrices: sum_s |H| / |Stab_H(F_s)| is the number of lambda-flags,
    # F_9^n-flags under GL_n(F_3) in the odd case and F_3^{2m}-flags
    # under GL_m(F_9) in the even case, with the stabiliser in closed
    # form.  A wrong matrix, not only a missing or repeated one, moves
    # the sum.
    start = time.monotonic()
    points = [(CaseTag.ODD, 3, n) for n in range(1, 9)]
    points += [(CaseTag.ODD, q, n) for q in (5, 7) for n in range(1, 7)]
    points += [(CaseTag.EVEN, 3, n) for n in range(2, 11, 2)]
    bad, checked = [], 0
    for case, q, n in points:
        group = gl_order(n, q) if case is CaseTag.ODD else gl_order(n // 2, q * q)
        for partition in compositions(n):
            matrices = enumerate_coset_matrices(partition, case)
            mass = sum(Fraction(group, stabiliser_order(s, q)) for s in matrices)
            checked += len(matrices)
            if mass != count_flags(partition, q * q if case is CaseTag.ODD else q):
                bad.append((case.value, q, partition.parts))
    elapsed = time.monotonic() - start
    ok = not bad
    report(
        12, ok,
        f"mass formula sum |H|/|Stab| = flag count over {checked} matrices: odd n<=8 q=3, n<=6 q=5,7;"
        f" even n<=10 q=3; {len(bad)} mismatches, {elapsed:.2f}s",
    )
    assert ok, bad
