from fractions import Fraction

import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from steinberg_distinction.characters import (
    ChiToken,
    SupportRule,
    delta_half_exponents,
    minimal_orbit_analysis,
    orbit_supports,
    supporting_coset_matrices,
)
from steinberg_distinction.cosets import (
    CaseTag,
    CosetMatrix,
    InvalidInputError,
    Partition,
    anti_diagonal_matrix,
    coarsen,
    enumerate_coset_matrices,
    fine_layout,
)

from conftest import compositions


def mat(case, entries):
    parts = Partition(tuple(sum(row) for row in entries))
    return CosetMatrix(case, parts, tuple(tuple(r) for r in entries))


class TestDeltaExponents:
    def test_two_singletons(self):
        s = mat(CaseTag.ODD, [[1, 0], [0, 1]])
        delta = delta_half_exponents(fine_layout(s))
        assert delta == (Fraction(1, 2), Fraction(-1, 2))

    def test_single_block(self):
        s = mat(CaseTag.ODD, [[3]])
        delta = delta_half_exponents(fine_layout(s))
        assert delta == (Fraction(0),)

    def test_sizes_1_1_2(self):
        s = mat(CaseTag.ODD, [[1, 0, 0], [0, 1, 0], [0, 0, 2]])
        delta = delta_half_exponents(fine_layout(s))
        assert delta == (Fraction(3, 2), Fraction(1, 2), Fraction(-1))

    def test_weighted_sum_vanishes(self):
        for n in range(1, 7):
            for partition in compositions(n):
                for case in CaseTag:
                    for s in enumerate_coset_matrices(partition, case):
                        layout = fine_layout(s)
                        delta = delta_half_exponents(layout)
                        total = sum(
                            e * k for e, (_, _, k) in zip(delta, layout.blocks)
                        )
                        assert total == 0

    def test_kappa_positive(self):
        s = mat(CaseTag.ODD, [[1, 0], [0, 1]])
        with pytest.raises(InvalidInputError):
            delta_half_exponents(fine_layout(s), Fraction(0))


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

    @given(st.sampled_from([Fraction(1), Fraction(1, 2), Fraction(3)]))
    @settings(max_examples=3, deadline=None)
    def test_kappa_invariance(self, kappa):
        for n in range(1, 7):
            for partition in compositions(n):
                for case in CaseTag:
                    for s in enumerate_coset_matrices(partition, case):
                        for chi in ChiToken:
                            base = orbit_supports(s, chi).feasible
                            assert orbit_supports(s, chi, kappa).feasible == base

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
