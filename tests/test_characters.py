from fractions import Fraction

import sys

import pytest

from steinberg_distinction.characters import (
    ChiToken,
    SupportRule,
    orbit_supports,
)
from steinberg_distinction.cosets import (
    CaseTag,
    CosetMatrix,
    InvalidInputError,
    Partition,
    anti_diagonal_matrix,
    block_involution,
    coarsen,
    enumerate_coset_matrices,
    fine_layout,
)

from certificates import doubled_exponents, minimal_orbit_analysis, supporting_coset_matrices
from conftest import compositions, delta_half_exponents, reference_report


def mat(case, entries):
    parts = Partition(tuple(sum(row) for row in entries))
    return CosetMatrix(case, parts, tuple(tuple(r) for r in entries))


class TestDeltaExponents:
    def test_two_singletons(self):
        layout = fine_layout(mat(CaseTag.ODD, [[1, 0], [0, 1]]))
        assert delta_half_exponents(layout) == (Fraction(1, 2), Fraction(-1, 2))
        assert doubled_exponents(layout) == (1, -1)

    def test_single_block(self):
        layout = fine_layout(mat(CaseTag.ODD, [[3]]))
        assert delta_half_exponents(layout) == (Fraction(0),)
        assert doubled_exponents(layout) == (0,)

    def test_sizes_1_1_2(self):
        layout = fine_layout(mat(CaseTag.ODD, [[1, 0, 0], [0, 1, 0], [0, 0, 2]]))
        assert delta_half_exponents(layout) == (Fraction(3, 2), Fraction(1, 2), Fraction(-1))
        assert doubled_exponents(layout) == (3, 1, -2)

    def test_weighted_sum_vanishes(self):
        for n in range(1, 7):
            for partition in compositions(n):
                for case in CaseTag:
                    for s in enumerate_coset_matrices(partition, case):
                        layout = fine_layout(s)
                        delta = doubled_exponents(layout)
                        assert delta == tuple(2 * e for e in delta_half_exponents(layout))
                        total = sum(
                            e * k for e, (_, _, k) in zip(delta, layout.blocks)
                        )
                        assert total == 0


@pytest.mark.parametrize("case", list(CaseTag), ids=lambda c: c.value)
def test_orbit_supports_matches_rational_reference(case):
    """The integer rule gives the rational reference's report, feasible
    flag and violations alike, for four weights kappa and for the doubled
    integer exponents, on every coset matrix with n <= 8: kappa changes
    no verdict, so it is no argument."""
    kappas = [Fraction(1), Fraction(1, 2), Fraction(3), Fraction(3, 7)]
    checked = 0
    for n in range(1, 9):
        for partition in compositions(n):
            for s in enumerate_coset_matrices(partition, case):
                # the reference rule, with the layout and involution built once
                layout, invol = fine_layout(s), block_involution(s)
                deltas = [doubled_exponents(layout)]
                deltas += [delta_half_exponents(layout, kappa) for kappa in kappas]
                for delta in deltas:
                    for chi in ChiToken:
                        expected = reference_report(s, chi, invol, delta)
                        assert orbit_supports(s, chi) == expected, s.to_json()
                        checked += 1
    assert checked == 10 * {CaseTag.ODD: 14256, CaseTag.EVEN: 2376}[case]


@pytest.mark.parametrize("case", list(CaseTag), ids=lambda c: c.value)
def test_orbit_supports_on_the_trace_matches_reference(case):
    """The matrices a decision trace reports, s0 on 1^n and each
    coarsen(s0, k), get the rational reference's report for both tokens
    at every n <= 60 of the case (even m <= 30): the engine's step (2)
    and its trace read these reports alone."""
    checked, step = 0, 2 if case is CaseTag.EVEN else 1
    for n in range(step, 61, step):
        s0 = anti_diagonal_matrix(Partition((1,) * n), case)
        for s in [s0] + [coarsen(s0, k) for k in range(1, n)]:
            invol = block_involution(s)
            delta = delta_half_exponents(fine_layout(s))
            for chi in ChiToken:
                expected = reference_report(s, chi, invol, delta)
                assert orbit_supports(s, chi) == expected, s.to_json()
                checked += 1
    # n matrices at each n: 1 + ... + 60 odd, 2 + 4 + ... + 60 even
    assert checked == 2 * {CaseTag.ODD: 1830, CaseTag.EVEN: 930}[case]


class TestOrbitSupports:
    def test_even_minimal_antidiagonal_both_tokens(self):
        s = anti_diagonal_matrix(Partition((1, 1, 1, 1)), CaseTag.EVEN)
        for chi in ChiToken:
            assert orbit_supports(s, chi).feasible

    def test_odd_m3_eta_sign_obstruction(self):
        s = anti_diagonal_matrix(Partition((1, 1, 1)), CaseTag.ODD)
        report = orbit_supports(s, ChiToken.ETA)
        assert not report.feasible
        assert (2, SupportRule.FIXED_SIGN_OBSTRUCTION) in report.violations

    def test_middle_merge_triv_feasible(self):
        s0 = anti_diagonal_matrix(Partition((1, 1, 1, 1)), CaseTag.ODD)
        merged = coarsen(s0, 2)
        assert orbit_supports(merged, ChiToken.TRIV).feasible

    def test_identity_fails_exponents(self):
        s = mat(CaseTag.ODD, [[1, 0], [0, 1]])
        report = orbit_supports(s, ChiToken.TRIV)
        assert not report.feasible
        assert all(rule is SupportRule.FIXED_EXPONENT_NONZERO for _, rule in report.violations)

    def test_feasible_is_no_violations(self):
        # on every coset matrix with n <= 6, for both tokens
        seen = set()
        for n in range(1, 7):
            for partition in compositions(n):
                for case in CaseTag:
                    for s in enumerate_coset_matrices(partition, case):
                        for chi in ChiToken:
                            report = orbit_supports(s, chi)
                            assert report.feasible is (not report.violations), s.to_json()
                            seen.add(report.feasible)
        assert seen == {True, False}

    def test_report_json(self):
        s = anti_diagonal_matrix(Partition((1, 1, 1)), CaseTag.ODD)
        data = orbit_supports(s, ChiToken.ETA).to_json()
        assert data["feasible"] is False
        assert data["violations"] == [
            {"block": 2, "rule": "FIXED_SIGN_OBSTRUCTION"}
        ]


class TestMinimalOrbitAnalysis:
    def test_even_m2_eta(self):
        partition = Partition((1, 1, 1, 1))
        out = minimal_orbit_analysis(CaseTag.EVEN, 2, 2, ChiToken.ETA)
        assert out == [anti_diagonal_matrix(partition, CaseTag.EVEN)]

    def test_odd_m2_triv(self):
        out = minimal_orbit_analysis(CaseTag.ODD, 2, 1, ChiToken.TRIV)
        assert out == [anti_diagonal_matrix(Partition((1, 1)), CaseTag.ODD)]

    def test_odd_m3_eta_empty(self):
        assert minimal_orbit_analysis(CaseTag.ODD, 3, 1, ChiToken.ETA) == []

    def test_supporting_set_within_antidiagonal(self):
        for case, ms in [(CaseTag.EVEN, (1, 2, 3)), (CaseTag.ODD, (1, 2, 3, 4, 5, 6))]:
            d = 2 if case is CaseTag.EVEN else 1
            for m in ms:
                partition = Partition((1,) * (2 * m if case is CaseTag.EVEN else m))
                anti = anti_diagonal_matrix(partition, case)
                for chi in ChiToken:
                    supporting = minimal_orbit_analysis(case, m, d, chi)
                    assert set(supporting) <= {anti}

    def test_parity_validation(self):
        with pytest.raises(InvalidInputError):
            minimal_orbit_analysis(CaseTag.EVEN, 1, 3, ChiToken.TRIV)
        with pytest.raises(InvalidInputError):
            minimal_orbit_analysis(CaseTag.ODD, 1, 2, ChiToken.TRIV)


class TestSupportingCosetMatrices:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_matches_enumerate_then_filter(self, n):
        for partition in compositions(n):
            for case in CaseTag:
                matrices = enumerate_coset_matrices(partition, case)
                for chi in ChiToken:
                    expected = [s for s in matrices if orbit_supports(s, chi).feasible]
                    got = supporting_coset_matrices(partition, case, chi)
                    assert got == expected, (partition.parts, case, chi)

    def test_centred_diagonal_block(self):
        partition = Partition((1, 2, 1))
        middle = mat(CaseTag.ODD, [[0, 0, 1], [0, 2, 0], [1, 0, 0]])
        assert supporting_coset_matrices(partition, CaseTag.ODD, ChiToken.TRIV) == [middle]
        assert supporting_coset_matrices(partition, CaseTag.ODD, ChiToken.ETA) == []

    def test_long_partition_without_recursion(self):
        # 11,325 upper-triangle cells, far beyond one stack frame per cell
        limit = sys.getrecursionlimit()
        partition = Partition((1,) * 150)
        anti = anti_diagonal_matrix(partition, CaseTag.ODD)
        assert supporting_coset_matrices(partition, CaseTag.ODD, ChiToken.TRIV) == [anti]
        assert sys.getrecursionlimit() == limit

    def test_rejects_non_partition(self):
        with pytest.raises(InvalidInputError):
            supporting_coset_matrices((1, 1), CaseTag.ODD, ChiToken.TRIV)
