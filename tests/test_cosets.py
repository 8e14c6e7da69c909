import functools
import itertools
import math
import re
import warnings

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from steinberg_distinction import cosets
from steinberg_distinction.cosets import (
    CaseTag,
    ClosureRelation,
    CosetMatrix,
    InvalidInputError,
    Partition,
    Permutation,
    anti_diagonal_matrix,
    block_involution,
    build_us_odd,
    closure_compare,
    coarsen,
    count_coset_matrices,
    enumerate_coset_matrices,
    fine_layout,
    is_open,
    open_mask,
)

import certificates
from certificates import (
    build_ws_even,
    compose,
    extract_permutation_odd,
    identity,
    inverse,
    is_involution,
    reversal,
    root_action,
)
from conftest import compositions

partitions = st.lists(st.integers(1, 3), min_size=1, max_size=4).map(
    lambda parts: Partition(tuple(parts))
)


@st.composite
def candidate_matrices(draw):
    """(case, partition, entries) for t <= 4 with small entries: often a
    coset matrix, otherwise with any mix of faults (non-square, ragged,
    negative, asymmetric, wrong row sums, odd even-case diagonal)."""
    t = draw(st.integers(1, 4))
    cell = st.integers(-1, 3) if draw(st.booleans()) else st.integers(0, 3)
    rows = draw(st.lists(st.lists(cell, min_size=t, max_size=t), min_size=t, max_size=t))
    if draw(st.booleans()):
        rows = [[rows[min(i, j)][max(i, j)] for j in range(t)] for i in range(t)]
    if draw(st.booleans()):
        rows = [[x - x % 2 if i == j else x for j, x in enumerate(row)] for i, row in enumerate(rows)]
    sums = [max(1, sum(row)) for row in rows]
    if draw(st.booleans()):
        sums[draw(st.integers(0, t - 1))] += draw(st.integers(1, 2))
    shape = draw(st.sampled_from(["square", "square", "square", "long row", "short row", "extra row", "missing row"]))
    if shape == "long row":
        rows[draw(st.integers(0, t - 1))].append(draw(cell))
    elif shape == "short row":
        rows[draw(st.integers(0, t - 1))].pop()
    elif shape == "extra row":
        rows.append(draw(st.lists(cell, min_size=t, max_size=t)))
    elif shape == "missing row":
        rows.pop()
    case = draw(st.sampled_from(list(CaseTag)))
    return case, Partition(tuple(sums)), tuple(map(tuple, rows))


def reference_extract_permutation_odd(s):
    """The sympy-backed extraction: u times the inverse of its twist,
    simplified entry by entry and read as a permutation matrix."""
    u = build_us_odd(s)
    lam = sympy.Symbol("l")

    def to_sympy(x):
        table = {"0": 0, "1": 1, "l": x, "-l": -x}
        return sympy.Matrix([[table[e] for e in row] for row in u.entries])

    w = sympy.simplify(to_sympy(lam) * to_sympy(-lam).inv())
    images = [0] * s.n
    for col in range(s.n):
        hits = [row for row in range(s.n) if sympy.simplify(w[row, col]) != 0]
        assert len(hits) == 1 and sympy.simplify(w[hits[0], col] - 1) == 0
        images[col] = hits[0] + 1
    return Permutation(tuple(images))


def mat(case, entries):
    parts = Partition(tuple(sum(row) for row in entries))
    return CosetMatrix(case, parts, tuple(tuple(r) for r in entries))


class TestEnumeration:
    def test_order_1_1_odd(self):
        out = enumerate_coset_matrices(Partition((1, 1)), CaseTag.ODD)
        assert [s.entries for s in out] == [((1, 0), (0, 1)), ((0, 1), (1, 0))]

    def test_order_1_1_even(self):
        out = enumerate_coset_matrices(Partition((1, 1)), CaseTag.EVEN)
        assert [s.entries for s in out] == [((0, 1), (1, 0))]

    def test_count_2_2_odd(self):
        out = enumerate_coset_matrices(Partition((2, 2)), CaseTag.ODD)
        assert len(out) == 3
        assert {s.entries for s in out} == {
            ((2, 0), (0, 2)),
            ((1, 1), (1, 1)),
            ((0, 2), (2, 0)),
        }

    def test_empty_partition_rejected(self):
        with pytest.raises(InvalidInputError):
            Partition(())

    @pytest.mark.parametrize("text", ["1,,2", "1,2,", ",3", "", "1,x", "1 2", "1_0", "+1,+2", "\u0661"])
    def test_parse_refuses_empty_and_bad_parts(self, text):
        # an empty token is a bad part, not one to drop
        with pytest.raises(InvalidInputError, match=f"^bad partition {re.escape(repr(text))}$"):
            Partition.parse(text)

    def test_parse_allows_spaces_around_parts(self):
        assert Partition.parse(" 1, 2 ,3").parts == (1, 2, 3)

    @given(partitions, st.sampled_from(list(CaseTag)))
    @settings(max_examples=40, deadline=None)
    def test_no_duplicates_and_deterministic(self, partition, case):
        out = enumerate_coset_matrices(partition, case)
        assert len(set(out)) == len(out)
        assert out == enumerate_coset_matrices(partition, case)

    def test_invariants_rejected(self):
        with pytest.raises(InvalidInputError):
            mat(CaseTag.ODD, [[0, 1], [0, 1]])
        with pytest.raises(InvalidInputError):
            mat(CaseTag.EVEN, [[1, 0], [0, 1]])

    @given(candidate_matrices())
    @settings(max_examples=500, deadline=None)
    def test_validation_matches_reference_loop(self, candidate):
        # the whole-matrix checks accept exactly what the cell-by-cell
        # loop accepts, and a rejected matrix gets the loop's message
        case, partition, entries = candidate
        want = got = None
        try:
            certificates.reference_validate(case, partition, entries)
        except InvalidInputError as exc:
            want = str(exc)
        try:
            CosetMatrix(case, partition, entries)
        except InvalidInputError as exc:
            got = str(exc)
        assert got == want

    @pytest.mark.parametrize("case", list(CaseTag), ids=lambda c: c.value)
    def test_matches_reference_enumerator(self, case):
        # the same list, order included: every composition of n <= 8
        # (14,256 odd and 2,376 even matrices) and a few with larger parts
        partitions = [p for n in range(1, 9) for p in compositions(n)]
        partitions += [Partition(p) for p in ((4, 4, 4, 4), (5, 5), (3, 3, 3), (1, 2, 3, 4))]
        for partition in partitions:
            assert enumerate_coset_matrices(partition, case) == (
                certificates.reference_coset_matrices(partition, case)
            ), partition.parts

    @pytest.mark.parametrize("case", list(CaseTag), ids=lambda c: c.value)
    def test_count_matches_enumeration(self, case):
        for n in range(1, 8):
            for partition in compositions(n):
                assert count_coset_matrices(partition, case) == len(
                    enumerate_coset_matrices(partition, case)
                ), partition.parts

    @pytest.mark.parametrize("case", list(CaseTag), ids=lambda c: c.value)
    def test_count_gives_up_only_above_limit(self, case, monkeypatch):
        # the count is exact or None, and None only when the exact count
        # is above COUNT_LIMIT
        exact = {
            partition: count_coset_matrices(partition, case)
            for n in range(1, 9)
            for partition in compositions(n)
        }
        for limit in (0, 1, 5, 40):
            monkeypatch.setattr(cosets, "COUNT_LIMIT", limit)
            for partition, count in exact.items():
                got = count_coset_matrices(partition, case)
                assert got in (count, None), (partition.parts, limit)
                assert got is not None or count > limit, (partition.parts, limit)

    @pytest.mark.parametrize("case", list(CaseTag), ids=lambda c: c.value)
    def test_count_stops_by_its_two_rules(self, case, monkeypatch):
        # None exactly when the rows of equal parity have more than
        # COUNT_LIMIT ** 2 pairings, each its own matrix, or one pairing
        # of them, rows adjacent in size, gives more than COUNT_LIMIT
        # matrices through the amounts its pairs share, or the memo fills
        # rows entry by entry in more than COUNT_LIMIT ways per row
        step = 2 if case is CaseTag.EVEN else 1
        fills = 0

        def perfect(k):
            return 1 if k == 0 else (k - 1) * perfect(k - 2)

        def pairings(parts):
            # pairings of all but at most one row within each parity
            odd = sum(p % 2 for p in parts)
            return math.prod(
                perfect(k) if k % 2 == 0 else k * perfect(k - 1)
                for k in (odd, len(parts) - odd)
            )

        def shared(parts):
            # matrices on one pairing: a pair of rows of the same parity
            # shares any amount x <= its smaller part a with a - x a
            # multiple of the step, the rest on the diagonal
            total = 1
            for parity in (0, 1):
                rows = sorted(p for p in parts if p % 2 == parity)
                for a, b in zip(rows[0::2], rows[1::2]):
                    total *= sum(1 for x in range(a + 1) if (a - x) % step == 0)
            return total

        @functools.cache
        def count(owed):
            nonlocal fills
            if not owed:
                return 1
            first, rest = owed[0], owed[1:]
            total = 0
            for diag in range(0, first + 1, step):
                ranges = [range(min(first - diag, x) + 1) for x in rest]
                for paid in itertools.product(*ranges):
                    if sum(paid) == first - diag:
                        fills += 1
                        total += count(tuple(sorted(x - p for x, p in zip(rest, paid) if x > p)))
            return total

        for limit in (1, 3, 5, 40):
            monkeypatch.setattr(cosets, "COUNT_LIMIT", limit)
            for n in range(1, 9):
                for partition in compositions(n):
                    fills = 0
                    count.cache_clear()
                    exact = count(tuple(sorted(partition.parts)))
                    paired, spread = pairings(partition.parts), shared(partition.parts)
                    if step == 2 and partition.total % 2:
                        want = 0  # no matrix, known without counting
                    else:
                        assert max(paired, spread) <= exact
                        over = paired > limit**2 or spread > limit or fills > limit * len(partition)
                        want = None if over else exact
                    assert count_coset_matrices(partition, case) == want, (partition.parts, limit)

    def test_count_exact_above_limit(self):
        # many small parts take few steps: the involutions of 20 points,
        # and the fixed-point-free ones, count exactly
        assert count_coset_matrices(Partition((1,) * 20), CaseTag.ODD) == 23758664096
        assert count_coset_matrices(Partition((1,) * 20), CaseTag.EVEN) == 654729075

    def test_count_involutions(self):
        # the coset matrices of 1^n are the involutions of n points, and
        # in the even case the fixed-point-free ones
        odd = [count_coset_matrices(Partition((1,) * n), CaseTag.ODD) for n in range(1, 13)]
        assert odd == [1, 2, 4, 10, 26, 76, 232, 764, 2620, 9496, 35696, 140152]
        even = [count_coset_matrices(Partition((1,) * n), CaseTag.EVEN) for n in (2, 4, 12)]
        assert even == [1, 3, 10395]


class TestLayoutAndInvolution:
    def test_fine_layout_antidiagonal(self):
        s = mat(CaseTag.ODD, [[0, 1], [1, 0]])
        layout = fine_layout(s)
        assert layout.blocks == ((1, 2, 1), (2, 1, 1))
        assert layout.start_pos == (1, 2)

    def test_fine_layout_full(self):
        s = mat(CaseTag.ODD, [[1, 1], [1, 1]])
        layout = fine_layout(s)
        assert len(layout.blocks) == 4
        assert layout.start_pos == (1, 2, 3, 4)

    def test_fine_layout_single_diag(self):
        s = mat(CaseTag.ODD, [[2]])
        assert fine_layout(s).blocks == ((1, 1, 2),)

    def test_even_swap(self):
        s = mat(CaseTag.EVEN, [[0, 1], [1, 0]])
        assert block_involution(s).position_map == Permutation((2, 1))

    def test_odd_identity(self):
        s = mat(CaseTag.ODD, [[1, 0], [0, 1]])
        assert block_involution(s).position_map == Permutation((1, 2))

    def test_odd_2_2_antidiagonal(self):
        s = mat(CaseTag.ODD, [[0, 2], [2, 0]])
        assert block_involution(s).position_map == Permutation((3, 4, 1, 2))

    def test_permutation_helpers(self):
        a, b = Permutation((2, 1, 3)), Permutation((1, 3, 2))
        # a after b
        assert compose(a, b) == Permutation((2, 3, 1))
        assert compose(a, b, inverse(b)) == a
        assert compose(inverse(a), a) == identity(3)
        assert is_involution(reversal(4)) and not is_involution(compose(a, b))

    def test_position_map_is_involution(self):
        for n in range(1, 6):
            for partition in compositions(n):
                for case in CaseTag:
                    for s in enumerate_coset_matrices(partition, case):
                        assert is_involution(block_involution(s).position_map)


class TestRepresentatives:
    def test_ws_antidiagonal_is_identity(self):
        for n in (2, 4, 6):
            s = anti_diagonal_matrix(Partition((1,) * n), CaseTag.EVEN)
            assert build_ws_even(s) == identity(n)

    def test_ws_conjugation_identity_exhaustive(self):
        for n in range(1, 7):
            for partition in compositions(n):
                for s in enumerate_coset_matrices(partition, CaseTag.EVEN):
                    with warnings.catch_warnings():
                        warnings.simplefilter("error")
                        ws = build_ws_even(s)
                    w = reversal(n)
                    assert compose(ws, w, inverse(ws)) == block_involution(s).position_map

    def test_ws_wrong_layout_raises(self, monkeypatch):
        s = mat(CaseTag.EVEN, [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]])
        build_ws_even(s)
        true_segments = certificates._even_segments

        def swapped_first_half(s):
            segs = true_segments(s)
            return [segs[1], segs[0]] + segs[2:]

        monkeypatch.setattr(certificates, "_even_segments", swapped_first_half)
        with pytest.raises(RuntimeError, match="inconsistent"):
            build_ws_even(s)

    def test_us_identity(self):
        s = mat(CaseTag.ODD, [[1, 0], [0, 1]])
        assert build_us_odd(s).entries == (("1", "0"), ("0", "1"))

    def test_us_antidiagonal_2(self):
        s = mat(CaseTag.ODD, [[0, 1], [1, 0]])
        assert build_us_odd(s).entries == (("1", "-l"), ("1", "l"))

    def test_us_antidiagonal_3(self):
        s = anti_diagonal_matrix(Partition((1, 1, 1)), CaseTag.ODD)
        u = build_us_odd(s)
        assert u.entries[1] == ("0", "1", "0")
        assert extract_permutation_odd(s) == Permutation((3, 2, 1))

    def test_odd_extraction_matches_involution_exhaustive(self):
        for n in range(1, 7):
            for partition in compositions(n):
                for s in enumerate_coset_matrices(partition, CaseTag.ODD):
                    extracted = extract_permutation_odd(s)
                    assert extracted == block_involution(s).position_map
                    assert is_involution(extracted)

    def test_odd_extraction_matches_sympy_reference(self):
        for n in range(1, 7):
            for partition in compositions(n):
                for s in enumerate_coset_matrices(partition, CaseTag.ODD):
                    assert extract_permutation_odd(s) == reference_extract_permutation_odd(s)

    def test_case_mismatch(self):
        s = mat(CaseTag.ODD, [[0, 1], [1, 0]])
        with pytest.raises(InvalidInputError):
            build_ws_even(s)
        with pytest.raises(InvalidInputError):
            build_us_odd(mat(CaseTag.EVEN, [[0, 1], [1, 0]]))


class TestCoarsenAndEmbed:
    def test_merge_diag(self):
        s = mat(CaseTag.ODD, [[1, 0], [0, 1]])
        assert coarsen(s, 1).entries == ((2,),)

    def test_middle_merge_antidiagonal(self):
        s = anti_diagonal_matrix(Partition((1, 1, 1, 1)), CaseTag.ODD)
        merged = coarsen(s, 2)
        assert merged.partition == Partition((1, 2, 1))
        assert merged.entries[1][1] == 2

    def test_middle_merge_even(self):
        s = anti_diagonal_matrix(Partition((1, 1, 1, 1)), CaseTag.EVEN)
        merged = coarsen(s, 2)
        assert merged.case is CaseTag.EVEN
        assert merged.entries[1][1] == 2

    @given(partitions, st.data())
    @settings(max_examples=40, deadline=None)
    def test_coarsen_row_sums(self, partition, data):
        matrices = enumerate_coset_matrices(partition, CaseTag.ODD)
        s = data.draw(st.sampled_from(matrices))
        if len(partition) < 2:
            return
        k = data.draw(st.integers(1, len(partition) - 1))
        merged = coarsen(s, k)
        assert merged.partition.total == partition.total


class TestAgainstCellLoops:
    """`fine_layout` and `coarsen` against the cell-by-cell loops they
    replaced, on every coset matrix of every composition of n <= 7."""

    @pytest.mark.parametrize("case", list(CaseTag), ids=lambda c: c.value)
    @pytest.mark.parametrize("n", range(1, 8))
    def test_every_matrix_and_merge_index(self, n, case):
        checked = 0
        for partition in compositions(n):
            for s in enumerate_coset_matrices(partition, case):
                assert fine_layout(s) == certificates.reference_fine_layout(s), s
                for k in range(1, len(partition)):
                    assert coarsen(s, k) == certificates.reference_coarsen(s, k), (s, k)
                checked += 1
        # the even case has matrices only at an even total
        assert checked or (case is CaseTag.EVEN and n % 2)

    @pytest.mark.parametrize("k", [0, 3, -1])
    def test_out_of_range_merge_index(self, k):
        s = mat(CaseTag.ODD, [[0, 1, 0], [1, 0, 0], [0, 0, 1]])
        for merge in (coarsen, certificates.reference_coarsen):
            with pytest.raises(InvalidInputError, match="out of range"):
                merge(s, k)


class TestClosure:
    def test_open_antidiagonal_minimal(self):
        for n in range(1, 6):
            for case in CaseTag:
                partition = Partition((1,) * n)
                if case is CaseTag.EVEN and n % 2:
                    # no matrix satisfies the diagonal parity constraint
                    assert enumerate_coset_matrices(partition, case) == []
                    continue
                opens = [
                    s
                    for s in enumerate_coset_matrices(partition, case)
                    if is_open(s)
                ]
                assert opens == [anti_diagonal_matrix(partition, case)]

    def test_open_2_2_odd(self):
        s = mat(CaseTag.ODD, [[0, 2], [2, 0]])
        assert is_open(s)
        assert not is_open(mat(CaseTag.ODD, [[2, 0], [0, 2]]))

    def test_partial_order(self):
        for partition in compositions(4):
            matrices = enumerate_coset_matrices(partition, CaseTag.ODD)
            for a in matrices:
                assert closure_compare(a, a) is ClosureRelation.EQUAL
                for b in matrices:
                    ab = closure_compare(a, b)
                    ba = closure_compare(b, a)
                    flip = {
                        ClosureRelation.LESS: ClosureRelation.GREATER,
                        ClosureRelation.GREATER: ClosureRelation.LESS,
                        ClosureRelation.EQUAL: ClosureRelation.EQUAL,
                        ClosureRelation.INCOMPARABLE: ClosureRelation.INCOMPARABLE,
                    }
                    assert ba is flip[ab]
                    if ab is ClosureRelation.EQUAL:
                        assert a == b

    @pytest.mark.parametrize("case", list(CaseTag))
    @pytest.mark.parametrize("n", range(1, 8))
    def test_open_mask_matches_is_open(self, n, case):
        for partition in compositions(n):
            matrices = enumerate_coset_matrices(partition, case)
            assert open_mask(matrices) == [is_open(s) for s in matrices]

    def test_partition_mismatch(self):
        a = mat(CaseTag.ODD, [[1, 0], [0, 1]])
        b = mat(CaseTag.ODD, [[2]])
        with pytest.raises(InvalidInputError):
            closure_compare(a, b)


class TestRootAction:
    def test_minimal_partition_vacuous(self):
        s = anti_diagonal_matrix(Partition((1, 1)), CaseTag.EVEN)
        report = root_action(s)
        assert report.ok
        assert report.sign_table == ()

    def test_even_2_2_diagonal(self):
        s = mat(CaseTag.EVEN, [[2, 0], [0, 2]])
        assert root_action(s).ok

    def test_exhaustive_no_violations(self):
        for n in range(1, 7):
            for partition in compositions(n):
                for case in CaseTag:
                    for s in enumerate_coset_matrices(partition, case):
                        assert root_action(s).violations == ()

    def test_odd_case_no_internal_flips(self):
        for partition in compositions(5):
            for s in enumerate_coset_matrices(partition, CaseTag.ODD):
                report = root_action(s)
                assert report.fine_internal_flips == ()
