import logging
import sys

import pytest

from steinberg_distinction import engine
from steinberg_distinction.characters import ChiToken, SupportReport, orbit_supports
from steinberg_distinction.cosets import (
    CaseTag,
    CosetMatrix,
    InvalidInputError,
    Partition,
    anti_diagonal_matrix,
    coarsen,
    enumerate_coset_matrices,
)
from steinberg_distinction.engine import (
    VerdictStatus,
    cross_check,
    exponent_parity_formula,
    steinberg_decision,
)


class TestParityFormula:
    @pytest.mark.parametrize(
        "m,d,expected",
        [
            (1, 2, ChiToken.ETA),
            (3, 1, ChiToken.TRIV),
            (2, 3, ChiToken.ETA),
            (2, 1, ChiToken.ETA),
            (1, 1, ChiToken.TRIV),
        ],
    )
    def test_values(self, m, d, expected):
        assert exponent_parity_formula(m, d) is expected

    def test_validation(self):
        with pytest.raises(InvalidInputError):
            exponent_parity_formula(0, 1)


class TestDecision:
    def test_even_m1_eta_distinguished(self):
        verdict = steinberg_decision(CaseTag.EVEN, 1, 2, ChiToken.ETA)
        assert verdict.status is VerdictStatus.DISTINGUISHED
        assert verdict.multiplicity == 1

    def test_odd_m3_eta_not_distinguished(self):
        verdict = steinberg_decision(CaseTag.ODD, 3, 1, ChiToken.ETA)
        assert verdict.status is VerdictStatus.NOT_DISTINGUISHED
        assert verdict.multiplicity == 0
        # killed already on the minimal partition
        assert not verdict.trace[0].feasible

    def test_odd_m2_triv_killed_by_middle_merge(self):
        verdict = steinberg_decision(CaseTag.ODD, 2, 1, ChiToken.TRIV)
        assert verdict.status is VerdictStatus.NOT_DISTINGUISHED
        feasible_coarse = [report.s for report in verdict.trace[1:] if report.feasible]
        assert feasible_coarse
        assert all(s.partition == Partition((2,)) for s in feasible_coarse)

    def test_distinguished_trace_single_minimal_support(self):
        verdict = steinberg_decision(CaseTag.ODD, 2, 1, ChiToken.ETA)
        assert verdict.status is VerdictStatus.DISTINGUISHED
        minimal = Partition((1, 1))
        supports = [
            report.s
            for report in verdict.trace
            if report.s.partition == minimal and report.feasible
        ]
        assert supports == [anti_diagonal_matrix(minimal, CaseTag.ODD)]

    def test_parity_mismatch(self):
        with pytest.raises(InvalidInputError):
            steinberg_decision(CaseTag.EVEN, 2, 3, ChiToken.ETA)
        with pytest.raises(InvalidInputError):
            steinberg_decision(CaseTag.ODD, 2, 2, ChiToken.ETA)

    def test_json_schema(self):
        data = steinberg_decision(CaseTag.ODD, 2, 1, ChiToken.ETA).to_json()
        assert set(data) == {
            "case",
            "m",
            "d",
            "chi",
            "status",
            "multiplicity",
            "trace",
        }
        assert data["status"] == "DISTINGUISHED"
        assert data["multiplicity"] == 1


class TestCrossCheck:
    @pytest.mark.parametrize(
        "case,m,d",
        [(CaseTag.EVEN, 2, 2), (CaseTag.ODD, 3, 1), (CaseTag.ODD, 2, 3)],
    )
    def test_examples(self, case, m, d):
        assert cross_check(case, m, d)

    def test_full_grid(self):
        for m in range(1, 5):
            for d in range(1, 5):
                case = CaseTag.EVEN if d % 2 == 0 else CaseTag.ODD
                assert cross_check(case, m, d)

    def test_inconclusive_verdict_fails_with_one_warning(self, monkeypatch, caplog):
        # no verdict in reach is INCONCLUSIVE, so a stub decides eta;
        # triv comes decided from the dict, as in a sweep
        def inconclusive(case, m, d, chi):
            return engine.DistinctionVerdict(case, m, d, chi, VerdictStatus.INCONCLUSIVE, 0, ())

        monkeypatch.setattr(engine, "steinberg_decision", inconclusive)
        decided = {(CaseTag.ODD, 3, ChiToken.TRIV): VerdictStatus.DISTINGUISHED}
        assert cross_check(CaseTag.ODD, 3, 1, decided) is False
        assert decided[(CaseTag.ODD, 3, ChiToken.ETA)] is VerdictStatus.INCONCLUSIVE
        assert caplog.record_tuples == [(
            "steinberg_distinction.engine",
            logging.WARNING,
            "cross_check: INCONCLUSIVE verdict for case=odd m=3 d=1 chi=eta",
        )]


def reference_decision(case, m, chi):
    """The decision by enumerating every next-to-minimal orbit and
    filtering it through the support solver: the engine's oracle."""
    n = 2 * m if case is CaseTag.EVEN else m
    minimal = Partition((1,) * n)
    s0 = anti_diagonal_matrix(minimal, case)
    trace = [orbit_supports(s0, chi)]
    if not trace[0].feasible:
        return VerdictStatus.NOT_DISTINGUISHED, 0, tuple(trace)
    killed = stray_support = False
    for k in range(1, n):
        coarse_open = coarsen(s0, k)
        for s in enumerate_coset_matrices(coarse_open.partition, case):
            report = orbit_supports(s, chi)
            if s == coarse_open or report.feasible:
                trace.append(report)
            if report.feasible:
                killed = killed or s == coarse_open
                stray_support = stray_support or s != coarse_open
    if killed:
        return VerdictStatus.NOT_DISTINGUISHED, 0, tuple(trace)
    if stray_support:
        return VerdictStatus.INCONCLUSIVE, 0, tuple(trace)
    return VerdictStatus.DISTINGUISHED, 1, tuple(trace)


class TestAgainstReference:
    @pytest.mark.parametrize(
        "case,m,d",
        [(CaseTag.EVEN, m, 2) for m in range(1, 6)]
        + [(CaseTag.ODD, m, 1) for m in range(1, 10)],
    )
    @pytest.mark.parametrize("chi", list(ChiToken))
    def test_same_verdict_and_trace(self, case, m, d, chi):
        verdict = steinberg_decision(case, m, d, chi)
        expected = reference_decision(case, m, chi)
        assert (verdict.status, verdict.multiplicity, verdict.trace) == expected

    def test_generated_orbit_without_support_raises(self, monkeypatch):
        diagonal = CosetMatrix(
            CaseTag.ODD, Partition((2, 1, 1)), ((2, 0, 0), (0, 1, 0), (0, 0, 1))
        )
        monkeypatch.setattr(engine, "supporting_coset_matrices", lambda *_: [diagonal])
        with pytest.raises(RuntimeError):
            steinberg_decision(CaseTag.ODD, 4, 1, ChiToken.ETA)


class TestLargeM:
    @pytest.mark.parametrize("case,m,d", [(CaseTag.ODD, 40, 1), (CaseTag.EVEN, 20, 2)])
    def test_matches_parity_formula(self, case, m, d):
        limit = sys.getrecursionlimit()
        expected = exponent_parity_formula(m, d)
        for chi in ChiToken:
            verdict = steinberg_decision(case, m, d, chi)
            if chi is expected:
                assert verdict.status is VerdictStatus.DISTINGUISHED
            else:
                assert verdict.status is VerdictStatus.NOT_DISTINGUISHED
        assert sys.getrecursionlimit() == limit


def test_orbits_of_a_step_are_traced_in_canonical_order(monkeypatch):
    """With every orbit of each coarsening reported as supporting, the
    trace lists them in the canonical, descending order of
    ``enumerate_coset_matrices``, so the sort of each step is seen."""
    monkeypatch.setattr(
        engine, "supporting_coset_matrices", lambda partition, case, chi: enumerate_coset_matrices(partition, case)
    )
    monkeypatch.setattr(
        engine, "orbit_supports", lambda s, chi: SupportReport(s=s, chi=chi, feasible=True, violations=())
    )
    for case, m, d in ((CaseTag.ODD, 4, 1), (CaseTag.EVEN, 2, 2)):
        verdict = steinberg_decision(case, m, d, ChiToken.TRIV)
        s0 = verdict.trace[0].s
        steps = [enumerate_coset_matrices(coarsen(s0, k).partition, case) for k in range(1, s0.partition.total)]
        assert [report.s for report in verdict.trace] == [s0] + [s for step in steps for s in step]
        assert max(map(len, steps)) > 1
