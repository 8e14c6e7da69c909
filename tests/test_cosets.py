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
    build_ws_even,
    closure_compare,
    coarsen,
    embed_I_in_J,
    enumerate_coset_matrices,
    extract_permutation_odd,
    fine_layout,
    is_open,
    open_mask,
    root_action,
)

from conftest import compositions

partitions = st.lists(st.integers(1, 3), min_size=1, max_size=4).map(
    lambda parts: Partition(tuple(parts))
)


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

    def test_json_roundtrip(self):
        s = mat(CaseTag.ODD, [[0, 2], [2, 0]])
        assert CosetMatrix.from_json(s.to_json()) == s


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

    def test_position_map_is_involution(self):
        for n in range(1, 6):
            for partition in compositions(n):
                for case in CaseTag:
                    for s in enumerate_coset_matrices(partition, case):
                        assert block_involution(s).position_map.is_involution()


class TestRepresentatives:
    def test_ws_antidiagonal_is_identity(self):
        for n in (2, 4, 6):
            s = anti_diagonal_matrix(Partition((1,) * n), CaseTag.EVEN)
            assert build_ws_even(s) == Permutation.identity(n)

    def test_ws_conjugation_identity_exhaustive(self):
        for n in range(1, 7):
            for partition in compositions(n):
                for s in enumerate_coset_matrices(partition, CaseTag.EVEN):
                    with warnings.catch_warnings():
                        warnings.simplefilter("error")
                        ws = build_ws_even(s)
                    w = Permutation.reversal(n)
                    assert ws * w * ws.inverse() == block_involution(s).position_map

    def test_ws_wrong_layout_raises(self, monkeypatch):
        s = mat(CaseTag.EVEN, [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]])
        build_ws_even(s)
        true_segments = cosets._even_segments

        def swapped_first_half(s):
            segs = true_segments(s)
            return [segs[1], segs[0]] + segs[2:]

        monkeypatch.setattr(cosets, "_even_segments", swapped_first_half)
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
                    assert extracted.is_involution()

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

    def test_embed(self):
        for partition in compositions(4):
            evens = enumerate_coset_matrices(partition, CaseTag.EVEN)
            odds = set(enumerate_coset_matrices(partition, CaseTag.ODD))
            images = [embed_I_in_J(s) for s in evens]
            assert len(set(images)) == len(images)
            assert all(img in odds for img in images)


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
