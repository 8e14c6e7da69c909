import sys

import pytest

from steinberg_distinction import engine
from steinberg_distinction.characters import ChiToken, orbit_supports
from steinberg_distinction.cosets import (
    CaseTag,
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

from certificates import decision, supporting_coset_matrices


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
        status, _ = steinberg_decision(CaseTag.EVEN, 1, ChiToken.ETA)
        assert status is VerdictStatus.DISTINGUISHED
        assert status.multiplicity == 1

    def test_odd_m3_eta_not_distinguished(self):
        status, trace = decision(CaseTag.ODD, 3, ChiToken.ETA)
        assert status is VerdictStatus.NOT_DISTINGUISHED
        assert status.multiplicity == 0
        # killed already on the minimal partition
        assert len(trace) == 1 and not trace[0].feasible

    def test_odd_m2_triv_killed_by_middle_merge(self):
        status, trace = decision(CaseTag.ODD, 2, ChiToken.TRIV)
        assert status is VerdictStatus.NOT_DISTINGUISHED
        feasible_coarse = [report.s for report in trace[1:] if report.feasible]
        assert feasible_coarse
        assert all(s.partition == Partition((2,)) for s in feasible_coarse)

    def test_distinguished_trace_single_minimal_support(self):
        status, trace = decision(CaseTag.ODD, 2, ChiToken.ETA)
        assert status is VerdictStatus.DISTINGUISHED
        minimal = Partition((1, 1))
        supports = [
            report.s
            for report in trace
            if report.s.partition == minimal and report.feasible
        ]
        assert supports == [anti_diagonal_matrix(minimal, CaseTag.ODD)]

    @pytest.mark.parametrize("case", list(CaseTag), ids=lambda c: c.value)
    @pytest.mark.parametrize("m", [0, -1])
    def test_m_below_1_is_refused(self, case, m):
        for chi in ChiToken:
            with pytest.raises(InvalidInputError, match="^m must be positive$"):
                steinberg_decision(case, m, chi)


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

    def test_d_is_checked(self):
        # the decision takes no d; the callers that have one check it
        for case, m, d, message in [
            (CaseTag.EVEN, 2, 3, "even case requires even d"),
            (CaseTag.ODD, 2, 2, "odd case requires odd d"),
            (CaseTag.ODD, 2, 0, "m and d must be positive"),
            (CaseTag.EVEN, 0, 2, "m and d must be positive"),
        ]:
            with pytest.raises(InvalidInputError, match=f"^{message}$"):
                cross_check(case, m, d)

    def test_a_status_against_the_parity_fails_quietly(self, caplog):
        # triv comes decided from the dict, as in a sweep, and against
        # the parity; eta is decided by the engine and stored
        decided = {(CaseTag.ODD, 3, ChiToken.TRIV): VerdictStatus.NOT_DISTINGUISHED}
        assert cross_check(CaseTag.ODD, 3, 1, decided) is False
        assert decided[(CaseTag.ODD, 3, ChiToken.ETA)] is VerdictStatus.NOT_DISTINGUISHED
        assert cross_check(CaseTag.ODD, 3, 1) is True
        assert caplog.record_tuples == []


def reference_decision(case, m, chi):
    """The decision by enumerating every next-to-minimal orbit and
    filtering it through the support solver: the engine's oracle.  A
    supporting orbit other than the coarsening of the open orbit, which
    the coarsening lemma rules out, gives a status no verdict has."""
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
        return "INCONCLUSIVE", 0, tuple(trace)
    return VerdictStatus.DISTINGUISHED, 1, tuple(trace)


class TestAgainstReference:
    @pytest.mark.parametrize(
        "case,m",
        [(CaseTag.EVEN, m) for m in range(1, 6)] + [(CaseTag.ODD, m) for m in range(1, 10)],
    )
    @pytest.mark.parametrize("chi", list(ChiToken))
    def test_same_verdict_and_trace(self, case, m, chi):
        status, trace = decision(case, m, chi)
        expected = reference_decision(case, m, chi)
        assert (status, status.multiplicity, trace) == expected

    def test_no_report_is_computed_twice(self, monkeypatch):
        """A trace computes one report per entry, the two deciding ones
        included, and a status alone at most those two."""
        computed = []

        def counting(s, chi):
            computed.append(s)
            return orbit_supports(s, chi)

        monkeypatch.setattr(engine, "orbit_supports", counting)
        for case, m in [(CaseTag.ODD, 7), (CaseTag.ODD, 8), (CaseTag.EVEN, 4)]:
            for chi in ChiToken:
                computed.clear()
                status, trace = decision(case, m, chi)
                # each entry once, the two deciding ones first
                assert len(computed) == len(trace), (case, m, chi)
                assert set(computed) == {report.s for report in trace}, (case, m, chi)
                computed.clear()
                assert steinberg_decision(case, m, chi)[0] is status
                first = trace[0]
                n = first.s.size
                deciding = [first.s]
                if first.feasible and n % 2 == 0:
                    deciding.append(coarsen(first.s, n // 2))
                assert computed == deciding, (case, m, chi)


class TestLargeM:
    @pytest.mark.parametrize("case,m,d", [(CaseTag.ODD, 40, 1), (CaseTag.EVEN, 20, 2)])
    def test_matches_parity_formula(self, case, m, d):
        limit = sys.getrecursionlimit()
        expected = exponent_parity_formula(m, d)
        for chi in ChiToken:
            status, _ = decision(case, m, chi)
            if chi is expected:
                assert status is VerdictStatus.DISTINGUISHED
            else:
                assert status is VerdictStatus.NOT_DISTINGUISHED
        assert sys.getrecursionlimit() == limit


def test_trace_is_the_open_orbit_then_each_coarsening():
    """The trace reports s0 and, when s0 supports the character,
    coarsen(s0, k) for k = 1, ..., n - 1, in that order."""
    for case, m in ((CaseTag.ODD, 1), (CaseTag.ODD, 6), (CaseTag.ODD, 7), (CaseTag.EVEN, 3)):
        n = 2 * m if case is CaseTag.EVEN else m
        s0 = anti_diagonal_matrix(Partition((1,) * n), case)
        for chi in ChiToken:
            _, trace = decision(case, m, chi)
            want = [s0] + [coarsen(s0, k) for k in range(1, n)] if trace[0].feasible else [s0]
            assert [report.s for report in trace] == want, (case, m, chi)
            assert all(report.chi is chi for report in trace)


class TestCoarseningLemma:
    """At every step k of the decision for odd m <= 60 and even m <= 30,
    the only next-to-minimal orbit that supports a character is
    coarsen(s0, n/2), for ``triv``, at k = n/2; so the status read from
    two reports is the status of the whole trace."""

    @pytest.mark.parametrize("case", list(CaseTag))
    def test_only_the_middle_coarsening_supports(self, case):
        top = 30 if case is CaseTag.EVEN else 60
        for m in range(1, top + 1):
            n = 2 * m if case is CaseTag.EVEN else m
            s0 = anti_diagonal_matrix(Partition((1,) * n), case)
            for k in range(1, n):
                coarse = coarsen(s0, k)
                for chi in ChiToken:
                    want = [coarse] if 2 * k == n and chi is ChiToken.TRIV else []
                    assert supporting_coset_matrices(coarse.partition, case, chi) == want, (case, m, k, chi)

    @pytest.mark.parametrize("case", list(CaseTag))
    def test_status_is_read_off_the_whole_trace(self, case):
        top = 30 if case is CaseTag.EVEN else 60
        for m in range(1, top + 1):
            for chi in ChiToken:
                status, trace = decision(case, m, chi)
                killed = not trace[0].feasible or any(report.feasible for report in trace[1:])
                want = VerdictStatus.NOT_DISTINGUISHED if killed else VerdictStatus.DISTINGUISHED
                assert status is want, (case, m, chi)
