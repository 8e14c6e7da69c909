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
    Permutation,
    anti_diagonal_matrix,
    block_involution,
    build_ws_even,
    coarsen,
    enumerate_coset_matrices,
    extract_permutation_odd,
    root_action,
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
from steinberg_distinction.oracles.finite_field import FieldSpec
from steinberg_distinction.oracles.flags import (
    DEFAULT_BUDGET,
    count_flags,
    enumerate_flags,
    flag_profile,
    reduce_to_representative,
    representative_flag,
)
from steinberg_distinction.oracles.quaternion import quaternion_model_check

from conftest import compositions


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
                verdict = steinberg_decision(case, m, d, chi)
                if verdict.status is VerdictStatus.INCONCLUSIVE:
                    ok = False
                elif chi is expected:
                    ok = ok and verdict.status is VerdictStatus.DISTINGUISHED
                    ok = ok and verdict.multiplicity == 1
                else:
                    ok = ok and verdict.status is VerdictStatus.NOT_DISTINGUISHED
                    ok = ok and verdict.multiplicity == 0
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
                ok = ok and ws * Permutation.reversal(n) * ws.inverse() == tau
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
    spec = FieldSpec(3)
    field = spec.extension()
    ok = True
    todo = [(n, partition) for n in range(1, 4) for partition in compositions(n)]
    n4_minimal = Partition((1, 1, 1, 1))
    if count_flags(4, n4_minimal, 9) <= DEFAULT_BUDGET:
        todo.append((4, n4_minimal))
    for n, partition in todo:
        flags = enumerate_flags(n, 3, partition)
        hist: dict[tuple, int] = {}
        for flag in flags:
            key = flag_profile(flag, spec).flat()
            hist[key] = hist.get(key, 0) + 1
            h = reduce_to_representative(flag, spec)
            ok = ok and all(field.in_base(x) for row in h for x in row)
        expected = {s.flat() for s in enumerate_coset_matrices(partition, CaseTag.ODD)}
        ok = ok and set(hist) == expected
        if partition.parts == partition.parts[::-1]:
            anti = anti_diagonal_matrix(partition, CaseTag.ODD).flat()
            top = hist[anti]
            ok = ok and all(top > size for key, size in hist.items() if key != anti)
        for s in enumerate_coset_matrices(partition, CaseTag.ODD):
            ok = ok and flag_profile(representative_flag(s, spec), spec) == s
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 60
    report(7, ok, f"flag oracle n<=3 q=3 matches enumeration, reductions rational, {elapsed:.2f}s")
    assert ok


def test_criterion_8_quaternion_model():
    pairs = [(-1, -1), (-1, 2), (-1, 3), (2, 3), (-2, -5)]
    results = [quaternion_model_check(a, b) for a, b in pairs]
    ok = all(r.ok for r in results)
    report(8, ok, "quaternion involution model verified for 5 parameter pairs")
    assert ok


def test_criterion_9_convention_invariance():
    ok = True
    kappas = [Fraction(1), Fraction(1, 2), Fraction(3)]
    for n in range(1, 7):
        for partition in compositions(n):
            for case in CaseTag:
                for s in enumerate_coset_matrices(partition, case):
                    for chi in ChiToken:
                        verdicts = {
                            orbit_supports(s, chi, kappa).feasible
                            for kappa in kappas
                        }
                        ok = ok and len(verdicts) == 1
    report(9, ok, "support verdicts identical for kappa in {1, 1/2, 3} across all s with n<=6")
    assert ok
