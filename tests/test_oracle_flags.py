import collections
import functools
import itertools
import json
import os
import random
import re
import time
import zlib

import pytest

from steinberg_distinction.cli import main
from steinberg_distinction.cosets import (
    CaseTag,
    InvalidInputError,
    Partition,
    anti_diagonal_matrix,
    enumerate_coset_matrices,
)
from steinberg_distinction.oracles.finite_field import (
    MAX_TABLE_ENTRIES,
    QuadraticExtension,
    pivot,
    require_small_odd_prime,
)
from steinberg_distinction.oracles import flags as flags_module
from steinberg_distinction.oracles.flags import (
    BudgetExceededError,
    CertificationError,
    Flag,
    FlagCache,
    _diagonal,
    _profile_from_rows,
    _representative,
    _representative_pieces,
    _rref_blocks,
    _rank,
    _rank_row,
    _stabiliser_dim,
    count_flags,
    enumerate_flags,
    flag_profile,
    gaussian_binomial,
    profile_histogram,
    reduce_to_representative,
    reduction_fault,
    representative_flag,
    translate,
)

import reference_walk
from certificates import flag_pair_dim, reference_representative_flag
from conftest import compositions, swapped_line_tables
from pair_extension import PairExtension, decode, decode_rows, encode
from reference_walk import _enumerate_rref, _walk, field_elements, walk_histogram

FIELD = QuadraticExtension(3)


def graded_pieces(flag, field):
    """The graded pieces of ``flag``, on the rank table the reduction reads."""
    return flags_module._pieces(flag, field, flags_module._rank_rows(field, flag.bases[:-1]))


# Every composition of n <= 3 at q = 3 and q = 5, plus the q = 7 points of
# the benchmark.
GRID = [
    (q, partition)
    for q in (3, 5)
    for n in range(1, 4)
    for partition in compositions(n)
] + [(7, Partition(parts)) for parts in [(2, 1), (1, 2), (1, 1)]]


# The points where the representative walk is compared with the counted
# stream: every composition of n <= 3 at q = 3, 5 and 7, and three n = 4
# points at q = 3.  It holds every point of GRID.
WALK_GRID = [
    (q, partition) for q in (3, 5, 7) for n in range(1, 4) for partition in compositions(n)
] + [(3, Partition(parts)) for parts in [(1, 1, 2), (2, 1, 1), (1, 2, 1)]]


# The flags on which graded_pieces is compared with three intersections
# per corner: every flag of each composition of n <= 3 at q = 3, and at
# q = 5 and 7 where the composition has at most 3,000 flags; the
# translate of each orbit's representative at every n = 4 composition at
# q = 3.
COMPLEMENT_POINTS = (
    [
        pytest.param(3, partition, False, id="-".join(map(str, partition.parts)))
        for n in range(1, 4)
        for partition in compositions(n)
    ]
    + [
        pytest.param(q, partition, False, id=f"q{q}-" + "-".join(map(str, partition.parts)))
        for q in (5, 7)
        for n in range(1, 4)
        for partition in compositions(n)
        if count_flags(partition, q * q) <= 3000
    ]
    + [
        pytest.param(3, partition, True, id="q3-" + "-".join(map(str, partition.parts)) + "-translates")
        for partition in compositions(4)
    ]
)


def grid_id(point):
    q, partition = point
    return f"q{q}-" + "-".join(map(str, partition.parts))


def reference_rref(field, rows):
    """Row reduction with one table lookup per element operation."""
    mat = [list(r) for r in rows]
    if not mat:
        return ()
    pivot_row = 0
    for col in range(len(mat[0])):
        sel = next(
            (r for r in range(pivot_row, len(mat)) if mat[r][col] != field.zero),
            None,
        )
        if sel is None:
            continue
        mat[pivot_row], mat[sel] = mat[sel], mat[pivot_row]
        inv = field.inv_table[mat[pivot_row][col]]
        mat[pivot_row] = [field.mul_table[inv][x] for x in mat[pivot_row]]
        for r in range(len(mat)):
            if r != pivot_row and mat[r][col] != field.zero:
                c = mat[r][col]
                mat[r] = [
                    field.sub_table[x][field.mul_table[c][y]]
                    for x, y in zip(mat[r], mat[pivot_row])
                ]
        pivot_row += 1
        if pivot_row == len(mat):
            break
    return tuple(
        tuple(row) for row in mat[:pivot_row] if any(x != field.zero for x in row)
    )


def zassenhaus_intersect(field, a, b):
    """The intersection of two row spans by Zassenhaus's reduction of
    (a, a) over (b, 0) alone, with no short cut for a side that spans
    F^n."""
    if not a or not b:
        return ()
    n = len(a[0])
    zero = (field.zero,) * n
    red = field.rref([row + row for row in a] + [row + zero for row in b])
    return tuple(row[n:] for row in red if not any(row[:n]))


def damaged_bases(field, basis, rng):
    """Variants of a reduced basis that are not reduced, by name."""
    rows = list(basis)
    n = len(rows[0])
    out = {"zero-row": tuple(rows + [(field.zero,) * n])}
    scale = rng.choice([x for x in field_elements(field) if x not in (field.zero, field.one)])
    k = rng.randrange(len(rows))
    out["pivot-scaled"] = tuple(
        vec_scale(field, scale, row) if r == k else row for r, row in enumerate(rows)
    )
    out["repeated-pivot"] = tuple(rows[: k + 1] + [rows[k]] + rows[k + 1 :])
    if len(rows) > 1:
        out["rows-swapped"] = tuple([rows[1], rows[0]] + rows[2:])
        # a nonzero entry in the pivot column of another row
        r, other = rng.sample(range(len(rows)), 2)
        col = rows[other].index(field.one)
        row = list(rows[r])
        row[col] = rng.choice(field_elements(field)[1:])
        out["pivot-column-entry"] = tuple(tuple(row) if i == r else x for i, x in enumerate(rows))
    return out


def reference_enumerate_flags(q, partition):
    """Chains of row-reduced subspaces kept when each contains the last
    step, tested by rank for every (chain, candidate) pair, over the
    pair-coded field."""
    field = PairExtension(q)
    prefix = list(itertools.accumulate(partition.parts))
    by_dim = {
        dim: list(_enumerate_rref(field, partition.total, dim)) for dim in sorted(set(prefix))
    }

    def contains(big, small):
        return all(field.in_span(v, big) for v in small)

    chains = [()]
    for dim in prefix:
        chains = [
            chain + (cand,)
            for chain in chains
            for cand in by_dim[dim]
            if not chain or contains(cand, chain[-1])
        ]
    return [Flag(partition, chain) for chain in chains]


def listing_key(bases):
    """The place of a pair-coded flag in ``enumerate_flags``'s order, read
    off its bases alone: level by level, the reduced basis of V_{i + 1} /
    V_i in the coordinates off the pivots of V_i, by its pivots and then
    its entries.  That basis is the rows of V_{i + 1} whose pivots are
    not V_i's, restricted to those coordinates, since the pivots of V_i
    are among those of V_{i + 1} and a reduced row is zero on every other
    pivot column."""

    def first(row):
        return next(c for c, x in enumerate(row) if x != (0, 0))

    key, taken = [], set()
    for basis in bases[:-1]:
        free = [c for c in range(len(basis[0])) if c not in taken]
        quotient = tuple(tuple(row[c] for c in free) for row in basis if first(row) not in taken)
        key.append((tuple(map(first, quotient)), quotient))
        taken = set(map(first, basis))
    return key


def reference_flag_profile(flag, field):
    """The profile from a basis of every intersection V_i meet theta V_j."""
    t = len(flag.partition)
    bases = ((),) + flag.bases
    theta = [tuple(field.vec_frob(v) for v in b) for b in bases]
    r = [[0] * (t + 1) for _ in range(t + 1)]
    for i in range(1, t + 1):
        for j in range(1, t + 1):
            r[i][j] = len(field.intersect(bases[i], theta[j]))
    return tuple(
        tuple(
            r[i][j] - r[i - 1][j] - r[i][j - 1] + r[i - 1][j - 1]
            for j in range(1, t + 1)
        )
        for i in range(1, t + 1)
    )


def rank_table(flag, field):
    """r[i][j] = dim(V_i meet theta V_j) for 1 <= i, j < t, each from one
    full rank of a basis of V_i + theta V_j."""
    t = len(flag.partition)
    dims = [0, *itertools.accumulate(flag.partition.parts)]
    bases = ((),) + flag.bases
    theta = [[field.vec_frob(v) for v in b] for b in bases]
    r = [[0] * (t + 1) for _ in range(t + 1)]
    for i in range(1, t):
        for j in range(1, t):
            r[i][j] = dims[i] + dims[j] - field.rank(list(bases[i]) + theta[j])
    return r


def rank_reference_flag_profile(flag, field):
    """The profile from one full rank per corner of the table."""
    t = len(flag.partition)
    r = rank_table(flag, field)
    dims = [0, *itertools.accumulate(flag.partition.parts)]
    for i in range(1, t + 1):
        r[i][t] = r[t][i] = dims[i]
    return tuple(
        tuple(
            r[i][j] - r[i - 1][j] - r[i][j - 1] + r[i - 1][j - 1]
            for j in range(1, t + 1)
        )
        for i in range(1, t + 1)
    )


def random_reduced_flag(field, n, rng):
    """A flag of a random composition of n from the rows of a random
    invertible matrix; entries come from the base field, from {0, 1, l}
    or from all of F_{q^2}, so that every kind of orbit turns up."""
    elements = field_elements(field)
    pool = rng.choice([
        [x for x in elements if field.in_base(x)],
        [field.zero, field.one, field.lam],
        elements,
    ])
    while True:
        mat = [tuple(rng.choice(pool) for _ in range(n)) for _ in range(n)]
        if field.rank(mat) == n:
            break
    cuts = sorted(rng.sample(range(1, n), rng.randint(0, n - 1)))
    partition = Partition(tuple(b - a for a, b in zip([0, *cuts], [*cuts, n])))
    dims = itertools.accumulate(partition.parts)
    return Flag(partition, tuple(field.rref(mat[:dim]) for dim in dims))


def vec_add(field, u, v):
    return tuple(field.add_table[x][y] for x, y in zip(u, v))


def vec_scale(field, c, v):
    return tuple(field.mul_table[c][x] for x in v)


def reference_fixed_subspace(field, basis):
    """Basis, with base-field entries, of the Frobenius-fixed points of a
    Frobenius-stable span: the reduction of v + theta v and
    l (v - theta v) over the rows v of the basis, both fixed by theta."""
    candidates = []
    for v in basis:
        fv = field.vec_frob(v)
        candidates.append(vec_add(field, v, fv))
        diff = tuple(field.sub_table[x][y] for x, y in zip(v, fv))
        candidates.append(vec_scale(field, field.lam, diff))
    fixed = field.rref(candidates)
    if len(fixed) != len(basis) or not all(field.in_base(x) for row in fixed for x in row):
        raise InvalidInputError("span is not Frobenius-stable")
    return fixed


def reference_extend_to_complement(field, inner, outer):
    """Vectors of ``outer`` completing ``inner``, one full rank per candidate."""
    current = list(inner)
    rank = field.rank(current)
    chosen = []
    for v in outer:
        if field.rank(current + [v]) > rank:
            current.append(v)
            rank += 1
            chosen.append(v)
    return tuple(chosen)


def rref_extend_to_complement(field, inner, outer):
    """Vectors of ``outer`` completing ``inner``, read off the pivot
    columns of the reduced matrix whose columns are ``inner`` and then
    ``outer``."""
    red = field.rref(list(zip(*inner, *outer)))
    return tuple(outer[p - len(inner)] for p in map(pivot, red) if p >= len(inner))


def reference_complements(flag, field):
    """The graded pieces from three intersections per corner (i, j)."""
    t = len(flag.partition)
    bases = ((),) + flag.bases
    theta = [tuple(field.vec_frob(v) for v in b) for b in bases]
    out = {}
    for i in range(1, t + 1):
        for j in range(i, t + 1):
            u = field.intersect(bases[i], theta[j])
            w = field.sum_spaces(
                field.intersect(bases[i], theta[j - 1]),
                field.intersect(bases[i - 1], theta[j]),
            )
            if i == j:
                u_fixed = reference_fixed_subspace(field, u) if u else ()
                w_fixed = reference_fixed_subspace(field, w) if w else ()
                out[(i, i)] = reference_extend_to_complement(field, w_fixed, u_fixed)
            else:
                comp = reference_extend_to_complement(field, w, u)
                out[(i, j)] = comp
                out[(j, i)] = tuple(field.vec_frob(v) for v in comp)
    return out


def random_matrices(q, rng):
    """300 random matrices over F_{q^2}, many of them rank-deficient."""
    elements = field_elements(QuadraticExtension(q))
    for _ in range(300):
        rows, cols = rng.randint(1, 4), rng.randint(1, 4)
        # pools of zero alone or zero and l give rank-deficient matrices
        pool = elements[: rng.choice((1, 2, len(elements)))]
        yield [tuple(rng.choice(pool) for _ in range(cols)) for _ in range(rows)]


def signed(data):
    """The cache-file text of a payload, with the checksum of its run
    recomputed: json.dumps of {"version", "crc32", "orbits"}, the
    checksum over json.dumps of every key after the first two."""
    run = {k: v for k, v in data.items() if k not in ("version", "crc32")}
    return json.dumps({
        "version": data["version"],
        "crc32": zlib.crc32(json.dumps(run).encode()),
        **run,
    })


def edit_cache(change, sign=True):
    """A cache-file mangler that applies ``change`` to the parsed payload
    and, unless ``sign`` is false, signs the result, so that the decoder
    and not the checksum has to reject it."""

    def mangle(text):
        data = json.loads(text)
        change(data)
        return signed(data) if sign else json.dumps(data)

    return mangle


def walked_flags(field, partition, budget):
    """The reference walk's flags, in its order, each with its rank table."""
    n = partition.total
    top = tuple(tuple(field.one if c == r else field.zero for c in range(n)) for r in range(n))
    for chain, table in _walk(field, partition, budget):
        yield Flag(partition, chain + (top,)), table


@functools.cache
def grid_stream(q, partition):
    """The walk's flags, each with the coset matrix of its rank table."""
    field = QuadraticExtension(q)
    count = count_flags(partition, q * q)
    return [
        (flag, _profile_from_rows(partition.parts, table))
        for flag, table in walked_flags(field, partition, count)
    ]


@functools.cache
def grid_histogram(q, partition):
    field = QuadraticExtension(q)
    return profile_histogram(field, partition)


def random_glnq(field: QuadraticExtension, n: int, rng: random.Random):
    """Random invertible matrix with base-field entries."""
    while True:
        m = [
            tuple(encode(field.p, (rng.randrange(field.p), 0)) for _ in range(n))
            for _ in range(n)
        ]
        try:
            field.matrix_inv(list(m))
            return list(m)
        except ZeroDivisionError:
            continue


def spanning_rows(field, n, rng):
    """n or n + 1 random rows over F_{q^2} that span F^n."""
    while True:
        rows = tuple(
            tuple(rng.choice(field_elements(field)) for _ in range(n))
            for _ in range(n + rng.randint(0, 1))
        )
        if field.rank(list(rows)) == n:
            return rows


def apply_matrix(field, h, flag):
    """The flag's image under h, the rows h v multiplied out over the
    pair-coded field."""
    q = field.p
    h_transposed = list(zip(*decode_rows(q, h)))
    bases = []
    for basis in flag.bases:
        imgs = PairExtension(q).matrix_mul(list(decode_rows(q, basis)), h_transposed)
        bases.append(field.rref([tuple(encode(q, x) for x in row) for row in imgs]))
    return type(flag)(flag.partition, tuple(bases))


class TestFieldArithmetic:
    def test_inverse(self):
        for x in field_elements(FIELD):
            if x == FIELD.zero:
                continue
            assert FIELD.mul_table[x][FIELD.inv_table[x]] == FIELD.one

    def test_frobenius_is_field_automorphism(self):
        frob, mul = FIELD.frob_table, FIELD.mul_table
        for x in field_elements(FIELD):
            for y in field_elements(FIELD):
                assert frob[mul[x][y]] == mul[frob[x]][frob[y]]

    def test_lambda_antifixed(self):
        assert FIELD.frob_table[FIELD.lam] == FIELD.neg_table[FIELD.lam]

    def test_field_built_once_per_prime(self):
        field = QuadraticExtension(5)
        assert QuadraticExtension(5) is field and field.p == 5
        assert QuadraticExtension(7) is not field
        # the tables are not rebuilt by a later request
        tables = field.mul_table
        assert QuadraticExtension(5).mul_table is tables

    @pytest.mark.parametrize("q", [3, 5, 7])
    def test_coding_is_an_order_preserving_bijection(self, q):
        field, ref = QuadraticExtension(q), PairExtension(q)
        assert [encode(q, x) for x in ref.elements()] == field_elements(field)
        assert [decode(q, x) for x in field_elements(field)] == ref.elements()
        assert sorted(map(tuple, ref.elements())) == ref.elements()
        assert [encode(q, x) for x in (ref.zero, ref.one, ref.lam)] == [
            field.zero, field.one, field.lam
        ]
        assert field.nonsquare == ref.nonsquare
        assert [x for x in field_elements(field) if field.in_base(x)] == [
            encode(q, ref.scalar(a)) for a in range(q)
        ]

    @pytest.mark.parametrize("q", [3, 5, 7])
    def test_tables_match_pair_formulas(self, q):
        field, ref = QuadraticExtension(q), PairExtension(q)
        for x in field_elements(field):
            px = decode(q, x)
            assert decode(q, field.neg_table[x]) == ref.neg(px)
            assert decode(q, field.frob_table[x]) == ref.frob(px)
            assert field.in_base(x) == ref.in_base(px)
            if x:
                assert decode(q, field.inv_table[x]) == ref.inv(px)
            else:
                assert field.inv_table[x] is None
            for y in field_elements(field):
                py = decode(q, y)
                assert decode(q, field.add_table[x][y]) == ref.add(px, py)
                assert decode(q, field.sub_table[x][y]) == ref.sub(px, py)
                assert decode(q, field.mul_table[x][y]) == ref.mul(px, py)

    def test_tables_at_31_match_pair_formulas_on_sampled_rows(self):
        q = 31
        field, ref = QuadraticExtension(q), PairExtension(q)
        tables = (field.add_table, field.sub_table, field.mul_table)
        assert all(type(t) is list and all(type(row) is list for row in t) for t in tables)
        assert all(len(t) == q * q and {len(row) for row in t} == {q * q} for t in tables)
        for x in field_elements(field):
            px = decode(q, x)
            assert decode(q, field.neg_table[x]) == ref.neg(px)
            assert decode(q, field.frob_table[x]) == ref.frob(px)
            if x:
                assert decode(q, field.inv_table[x]) == ref.inv(px)
        rng = random.Random(31)
        special = [field.zero, field.lam, field.one, q * q - 1]
        for x in special + rng.sample(field_elements(field), 40):
            px = decode(q, x)
            for y in field_elements(field):
                py = decode(q, y)
                assert decode(q, field.add_table[x][y]) == ref.add(px, py)
                assert decode(q, field.sub_table[x][y]) == ref.sub(px, py)
                assert decode(q, field.mul_table[x][y]) == ref.mul(px, py)

    def test_even_prime_rejected(self):
        with pytest.raises(InvalidInputError):
            QuadraticExtension(2)
        with pytest.raises(InvalidInputError):
            QuadraticExtension(9)
        # a field too large for its tables is refused from its size alone,
        # before the tables are built or p is trial-divided
        for q in (61, 2**61 - 1):
            start = time.monotonic()
            with pytest.raises(InvalidInputError, match=f"q = {q} is too large"):
                QuadraticExtension(q)
            assert time.monotonic() - start < 1
        # q = 31 is the largest prime whose tables fit
        assert 31**4 <= MAX_TABLE_ENTRIES < 37**4
        require_small_odd_prime(31)
        with pytest.raises(InvalidInputError, match="q = 37 is too large"):
            require_small_odd_prime(37)


class TestAgainstReference:
    def test_rref_matches_reference(self):
        rng = random.Random(20261018)
        for q in (3, 5, 7):
            field = QuadraticExtension(q)
            for mat in random_matrices(q, rng):
                assert field.rref(mat) == reference_rref(field, mat)

    def test_rref_matches_pair_reference(self):
        rng = random.Random(20261018)
        for q in (3, 5, 7):
            field, ref = QuadraticExtension(q), PairExtension(q)
            for mat in random_matrices(q, rng):
                assert decode_rows(q, field.rref(mat)) == ref.rref(list(decode_rows(q, mat)))

    def test_extend_to_complement_matches_reference(self):
        rng = random.Random(20261019)
        for q in (3, 5, 7):
            field = QuadraticExtension(q)
            mats = list(random_matrices(q, rng))
            for inner, outer in zip(mats, mats[1:]):
                if len(inner[0]) != len(outer[0]):
                    continue
                # the outer basis is reduced and holds the inner span
                inner = field.rref(inner)
                outer = field.sum_spaces(inner, outer)
                assert field.extend_to_complement(inner, outer) == (
                    reference_extend_to_complement(field, inner, outer)
                )

    def test_subspace_operations_match_pair_reference(self):
        rng = random.Random(20261020)
        for q in (3, 5, 7):
            field, ref = QuadraticExtension(q), PairExtension(q)
            mats = list(random_matrices(q, rng))
            for a, b in zip(mats, mats[1:]):
                pa, pb = decode_rows(q, a), decode_rows(q, b)
                if len(a[0]) == len(b[0]):
                    ra, rb = field.rref(a), field.rref(b)
                    pra, prb = ref.rref(list(pa)), ref.rref(list(pb))
                    assert decode_rows(q, field.intersect(ra, rb)) == ref.intersect(pra, prb)
                    total, ptotal = field.sum_spaces(ra, rb), ref.sum_spaces(pra, prb)
                    assert decode_rows(q, total) == ptotal
                    # the complement of a in a + b, a reduced basis holding a
                    assert decode_rows(q, field.extend_to_complement(ra, total)) == (
                        ref.extend_to_complement(pra, ptotal)
                    )
                    # the fixed points of the Frobenius-stable span a + theta a
                    stable = field.sum_spaces(ra, tuple(map(field.vec_frob, ra)))
                    pstable = ref.sum_spaces(pra, tuple(map(ref.vec_frob, pra)))
                    assert decode_rows(q, reference_fixed_subspace(field, stable)) == (
                        ref.fixed_subspace(pstable)
                    )
                if len(a) == len(a[0]):
                    try:
                        inverse = decode_rows(q, field.matrix_inv(a))
                    except ZeroDivisionError:
                        inverse = None
                    try:
                        expected = tuple(ref.matrix_inv(list(pa)))
                    except ZeroDivisionError:
                        expected = None
                    assert inverse == expected
                    # h with h a[c] = dst[c] for the columns a[c], against
                    # dst a^-1 with the vectors as columns
                    dst = (b * len(a))[: len(a)]
                    try:
                        solved = decode_rows(q, field.solve(a, dst))
                    except ZeroDivisionError:
                        solved = None
                    if expected is not None:
                        expected = tuple(ref.matrix_mul(
                            list(zip(*decode_rows(q, dst))), ref.matrix_inv(list(zip(*pa)))
                        ))
                    assert solved == expected
            # the line spanned by (1, l) is not Frobenius-stable
            line = ((field.one, field.lam),)
            with pytest.raises(InvalidInputError, match="not Frobenius-stable"):
                reference_fixed_subspace(field, line)
            with pytest.raises(ValueError, match="not Frobenius-stable"):
                ref.fixed_subspace(decode_rows(q, line))

    def test_stable_span_is_its_own_fixed_basis(self):
        """A span is Frobenius-stable exactly when its reduced basis has
        base-field entries, and that basis is then the reduced basis of
        its fixed points: the lemma behind the diagonal of
        ``graded_pieces``."""
        rng = random.Random(20261023)
        for q in (3, 5, 7):
            field = QuadraticExtension(q)
            for mat in random_matrices(q, rng):
                basis = field.rref(mat)
                stable = field.sum_spaces(basis, tuple(map(field.vec_frob, basis)))
                assert all(field.in_base(x) for row in stable for x in row)
                assert reference_fixed_subspace(field, stable) == stable
                in_base = all(field.in_base(x) for row in basis for x in row)
                assert in_base == (stable == basis)

    def test_intersection_with_the_whole_space(self):
        """A side that spans F^n, as the identity rows or as a random
        basis that is not reduced, meets the other side in all of it."""
        rng = random.Random(20261022)
        for q in (3, 5, 7):
            field, ref = QuadraticExtension(q), PairExtension(q)
            for mat in random_matrices(q, rng):
                n = len(mat[0])
                identity = tuple(
                    tuple(field.one if c == r else field.zero for c in range(n))
                    for r in range(n)
                )
                for whole in (identity, spanning_rows(field, n, rng)):
                    assert field.rank(list(whole)) == n
                    for other in (tuple(mat), field.rref(mat)):
                        expected = ref.intersect(decode_rows(q, whole), decode_rows(q, other))
                        for a, b in ((whole, other), (other, whole)):
                            meet = field.intersect(a, b)
                            assert meet == zassenhaus_intersect(field, a, b)
                            assert decode_rows(q, meet) == expected

    @pytest.mark.parametrize("point", GRID, ids=grid_id)
    def test_enumeration_matches_reference(self, point):
        """``enumerate_flags`` lists each flag of the filtered reference
        once, in the reference's flags sorted by ``listing_key``."""
        q, partition = point
        listed = enumerate_flags(QuadraticExtension(q), partition, budget=count_flags(partition, q * q))
        flags = [tuple(decode_rows(q, b) for b in f.bases) for f in listed]
        reference = [f.bases for f in reference_enumerate_flags(*point)]
        assert len(flags) == len(set(flags)) == len(reference)
        assert flags == sorted(reference, key=listing_key)

    @pytest.mark.parametrize("point", GRID, ids=grid_id)
    def test_profiles_match_reference(self, point):
        # the stream's profile, the profile of the flag alone, one rank
        # per corner and one intersection per corner all agree
        field = QuadraticExtension(point[0])
        for flag, profile in grid_stream(*point):
            assert flag_profile(flag, field) == profile
            assert profile.entries == rank_reference_flag_profile(flag, field)
            assert profile.entries == reference_flag_profile(flag, field)

    def test_rank_rows_match_reference_on_random_flags(self):
        rng = random.Random(20261021)
        for q in (3, 5):
            field = QuadraticExtension(q)
            for n in (4, 5):
                for _ in range(100):
                    flag = random_reduced_flag(field, n, rng)
                    r = rank_table(flag, field)
                    bases = flag.bases[:-1]
                    for i, basis in enumerate(bases, 1):
                        assert _rank_row(field, basis, bases[: i - 1]) == tuple(r[i][1 : i + 1])
                    assert flag_profile(flag, field).entries == rank_reference_flag_profile(flag, field)

    def test_diagonal_memo_matches_rank_table(self):
        """The rank rows, with the diagonal looked up by pattern, equal one
        full rank per corner, from an empty memo and from a warm one."""
        assert _diagonal.cache_info().maxsize is not None
        rng = random.Random(20261023)
        for q in (3, 5, 7):
            field = QuadraticExtension(q)
            flags = [random_reduced_flag(field, n, rng) for n in (2, 3, 4) for _ in range(40)]
            _diagonal.cache_clear()
            for warm in (False, True):
                for flag in flags:
                    r = rank_table(flag, field)
                    bases = flag.bases[:-1]
                    for i, basis in enumerate(bases, 1):
                        assert _rank_row(field, basis, bases[: i - 1]) == tuple(r[i][1 : i + 1])
                if not warm:
                    misses = _diagonal.cache_info().misses
            # the warm pass found every pattern in the memo
            assert _diagonal.cache_info().misses == misses

    def test_rank_of_two_rows_matches_rref(self):
        rng = random.Random(20261024)
        for q in (3, 5, 7):
            field = QuadraticExtension(q)
            elements = field_elements(field)
            for _ in range(300):
                n = rng.randint(1, 4)
                u = [rng.choice(elements) for _ in range(n)]
                if not any(u):
                    continue
                c = rng.choice(elements[1:])
                proportional = [field.mul_table[c][x] for x in u]
                other = [rng.choice(elements) for _ in range(n)]
                for v in (proportional, other):
                    if any(v):
                        assert _rank(field, [u, v]) == field.rank([u, v])

    def test_sparse_rank_matches_rref(self):
        """``rank`` eliminates on nonzero entries, with no ``rref``: it is
        the number of rows of the reduced form, on random sparse and dense
        matrices with dependent rows, given as lists or as the dicts of
        their nonzero entries, which it leaves as they were."""
        rng = random.Random(5)
        for q in (3, 5, 7):
            field = QuadraticExtension(q)
            for _ in range(500):
                width, density = rng.randint(1, 9), rng.choice([0.2, 0.5, 1.0])
                rows = [
                    [rng.randrange(q * q) if rng.random() < density else 0 for _ in range(width)]
                    for _ in range(rng.randint(0, 8))
                ]
                if len(rows) > 1:
                    c = rng.randrange(1, q * q)
                    rows.append([field.add_table[x][field.mul_table[c][y]] for x, y in zip(*rows[:2])])
                assert field.rank(rows) == len(reference_rref(field, rows))
                sparse = [{c: x for c, x in enumerate(row) if x} for row in rows]
                kept = [dict(row) for row in sparse]
                assert field.rank(sparse) == len(reference_rref(field, rows)) and sparse == kept

    @pytest.mark.parametrize("point", WALK_GRID, ids=grid_id)
    def test_histogram_counts_the_stream(self, point):
        """The certified orbit sizes are the counted rank tables of the
        walk over every flag."""
        q, partition = point
        count = count_flags(partition, q * q)
        tables = collections.Counter(table for _, table in _walk(QuadraticExtension(q), partition, count))
        counted = {_profile_from_rows(partition.parts, table).flat(): size for table, size in tables.items()}
        assert grid_histogram(*point) == counted

    @pytest.mark.parametrize("point", GRID, ids=grid_id)
    def test_orbit_sizes_sum_to_count(self, point):
        q, partition = point
        assert sum(grid_histogram(*point).values()) == count_flags(partition, q * q)

    @pytest.mark.parametrize(
        "point", [p for p in GRID if p[1].parts == p[1].parts[::-1]], ids=grid_id
    )
    def test_open_orbit_strictly_largest(self, point):
        hist = dict(grid_histogram(*point))
        top = hist.pop(anti_diagonal_matrix(point[1], CaseTag.ODD).flat())
        assert all(top > size for size in hist.values())


# Every composition of n <= 3 at q = 3, 5 and 7, and (1, 1, 2) at q = 3.
ENUMERATION_GRID = [
    (q, partition) for q in (3, 5, 7) for n in range(1, 4) for partition in compositions(n)
] + [(3, Partition((1, 1, 2)))]


class TestComplementOnTheOraclePairs:
    def test_matches_the_rref_route(self, capsys, monkeypatch):
        """Every (w, u) that the oracle completes at the benchmark's 10
        flag points and at (1^6), q = 3, gets the vectors that the pivot
        columns of the reduced matrix (w | u) pick."""
        met = []
        complement = QuadraticExtension.extend_to_complement

        def recording(field, inner, outer):
            met.append((field, inner, outer))
            return complement(field, inner, outer)

        monkeypatch.setattr(QuadraticExtension, "extend_to_complement", recording)
        points = [
            (2, 3, "1,1"), (2, 5, "1,1"), (2, 7, "1,1"), (3, 3, "1,1,1"), (3, 3, "2,1"),
            (3, 3, "1,2"), (3, 3, "3"), (3, 5, "2,1"), (3, 5, "1,2"), (3, 7, "2,1"),
            (6, 3, "1,1,1,1,1,1"),
        ]
        for n, q, parts in points:
            assert main(["oracle-flags", "--n", str(n), "--q", str(q), "--partition", parts]) == 0
        capsys.readouterr()
        # 34 pairs at the 10 points and 62 at (1^6), dim w from 1 to 5
        assert len(met) == 96
        assert {len(w) for _, w, _ in met} == {1, 2, 3, 4, 5}
        for field, inner, outer in met:
            assert complement(field, inner, outer) == rref_extend_to_complement(field, inner, outer)


class TestEnumerateFlags:
    @pytest.mark.parametrize("point", ENUMERATION_GRID, ids=grid_id)
    def test_enumerate_flags_is_the_walk(self, point):
        """``enumerate_flags`` lists the flags of the reference walk
        ``_walk`` in its order, and the profile of each is the coset
        matrix of the walk's rank table there."""
        q, partition = point
        field = QuadraticExtension(q)
        count = count_flags(partition, q * q)
        walked = list(walked_flags(field, partition, count))
        listed = enumerate_flags(field, partition, budget=count)
        assert listed == [flag for flag, _ in walked]
        # every profile, or those of 10 to 19 spread flags of a point with
        # more than 3,000
        step = 1 if count <= 3000 else count // 10
        for flag, (_, table) in itertools.islice(zip(listed, walked), 0, None, step):
            assert flag_profile(flag, field) == _profile_from_rows(partition.parts, table)


def times(field, v, g):
    """The row vector v times the matrix g."""
    add, mul = field.add_table, field.mul_table
    out = [field.zero] * len(g[0])
    for x, row in zip(v, g):
        if x:
            out = [add[a][mul[x][b]] for a, b in zip(out, row)]
    return tuple(out)


def record_tables(monkeypatch):
    """Make ``_rank_rows`` and ``is_reduced`` record the bases they are
    given, in two lists that are returned."""
    tables, checked = [], []
    real_rows, real_reduced = flags_module._rank_rows, QuadraticExtension.is_reduced

    def rows(field, bases):
        tables.append(bases)
        return real_rows(field, bases)

    def reduced(self, basis):
        checked.append(basis)
        return real_reduced(self, basis)

    monkeypatch.setattr(flags_module, "_rank_rows", rows)
    monkeypatch.setattr(QuadraticExtension, "is_reduced", reduced)
    return tables, checked


class TestRepresentativeWalk:
    """The reference walk of ``reference_walk.walk_histogram``."""

    @pytest.mark.parametrize(
        "q, n, k", [(3, 2, 1), (3, 3, 1), (3, 3, 2), (3, 4, 2), (5, 3, 1), (5, 3, 2), (7, 2, 1)]
    )
    def test_root_lemma(self, q, n, k):
        """In each pivot block of c free cells the bases fall into q^c
        classes of q^c by the imaginary parts of their entries, and the
        unipotent base-field matrix e_p -> e_p + sum_c d_pc e_c, d the
        real parts at the free cells, carries the member with real parts
        0 onto each member of its class, rank row and all."""
        field = QuadraticExtension(q)
        bases = list(_enumerate_rref(field, n, k))
        for pivots, cells in _rref_blocks(n, k):
            block = [b for b in bases if tuple(map(pivot, b)) == pivots]
            classes = collections.defaultdict(list)
            for basis in block:
                classes[tuple(basis[r][c] % q for r, c in cells)].append(basis)
            assert len(classes) == q ** len(cells)
            for members in classes.values():
                assert len(members) == q ** len(cells)
                (start,) = [b for b in members if all(b[r][c] < q for r, c in cells)]
                for member in members:
                    g = [[field.one if i == j else field.zero for j in range(n)] for i in range(n)]
                    for r, c in cells:
                        # the real part of the entry, as an element of F_q
                        g[pivots[r]][c] = member[r][c] // q * q
                    assert all(field.in_base(x) for row in g for x in row)
                    assert field.rank(g) == n
                    assert tuple(times(field, row, g) for row in start) == member
                    assert _rank_row(field, member, ()) == _rank_row(field, start, ())

    @pytest.mark.parametrize(
        "parts, certified",
        [((1, 1), {}), ((1, 1, 1), {(1, 2): 13}), ((1, 1, 1, 1), {(1, 3): 40, (1, 1, 2): 181})],
        ids=["1-1", "1-1-1", "1-1-1-1"],
    )
    def test_every_merged_partial_flag_is_certified(self, monkeypatch, parts, certified):
        """At q = 3 the root's 13 and 40 lines fall under two tables
        each, so every one is certified; at (1, 1, 1, 1) the 2 x 91
        extensions of the two representatives are certified, but for one
        alone under its table.  The last level is counted and (1, 1)
        needs no certificate."""
        reduced = collections.Counter()
        real = flags_module.reduce_to_representative

        def counting(flag, *args):
            reduced[flag.partition.parts] += 1
            return real(flag, *args)

        monkeypatch.setattr(flags_module, "reduce_to_representative", counting)
        partition = Partition(parts)
        walk_histogram(FIELD, partition, budget=count_flags(partition, 9))
        assert reduced == certified

    @pytest.mark.parametrize(
        "damage, fault",
        [
            ("profile", "flag has profile"),
            ("reduction", "the reduction has an entry outside F_q"),
            ("singular", "matrix is singular"),
        ],
        ids=["profile", "reduction", "singular"],
    )
    def test_failed_certification_raises(self, monkeypatch, damage, fault):
        """A merged partial flag whose own table gives another profile
        than its merge table fails before any reduction; so do a
        reduction with an entry outside F_q and one that raises."""
        if damage == "profile":
            monkeypatch.setattr(flags_module, "_rank_rows", swapped_line_tables(flags_module._rank_rows))
        elif damage == "reduction":
            monkeypatch.setattr(flags_module, "reduce_to_representative", lambda *args: [(FIELD.lam,)])
        else:
            def singular(*args):
                raise ZeroDivisionError("matrix is singular")

            monkeypatch.setattr(QuadraticExtension, "solve", singular)
        with pytest.raises(CertificationError, match=f"merged under table .*: {fault}"):
            walk_histogram(FIELD, Partition((1, 1, 1)))

    def test_a_certified_partial_flag_costs_two_tables(self, monkeypatch):
        """At (1, 1, 1), q = 3 the 13 root lines are certified as (1, 2)
        flags against the 2 representatives of their tables: one rank
        table and one reducedness check for the ``flag_profile`` check and
        one shared by the profile and the graded pieces inside the
        reduction, 28 in all, where the check of the profile, the profile
        inside the reduction and the graded pieces took three tables per
        line and built 41."""
        tables, checked = record_tables(monkeypatch)
        walk_histogram(FIELD, Partition((1, 1, 1)))
        assert len(tables) == 2 * 13 + 2
        # each line twice, and the two representatives, lines at the
        # root, once more
        assert sorted(collections.Counter(tables).values()) == [2] * 11 + [3] * 2
        assert checked == [basis for bases in tables for basis in bases]

    def test_orbit_sizes_must_sum_to_the_count(self, monkeypatch):
        monkeypatch.setattr(reference_walk, "count_flags", lambda partition, q2: 911)
        with pytest.raises(CertificationError, match="orbit sizes sum to 910, not to 911 flags"):
            walk_histogram(FIELD, Partition((1, 1, 1)))

    def test_budget_still_bounds_flags(self):
        partition = Partition((1, 1, 1, 1))
        with pytest.raises(BudgetExceededError, match="flag count 746200 exceeds budget 746199"):
            walk_histogram(FIELD, partition, budget=746_199)
        assert sum(walk_histogram(FIELD, partition, budget=746_200).values()) == 746_200


# The points where the certificate is compared with the reference walk,
# orbit by orbit: WALK_GRID and every composition of n = 4 and 5 at q = 3.
CERTIFICATE_GRID = WALK_GRID + [
    (3, partition)
    for n in (4, 5)
    for partition in compositions(n)
    if (3, partition) not in WALK_GRID
]


def another_listing(monkeypatch, listing):
    """Make the certificate see ``listing(matrices)`` in place of the
    coset matrices of a partition."""
    real = flags_module.enumerate_coset_matrices
    monkeypatch.setattr(flags_module, "enumerate_coset_matrices", lambda *args: listing(real(*args)))


class TestCertificate:
    """``profile_histogram``'s orbit-stabiliser certificate."""

    @pytest.mark.parametrize("point", CERTIFICATE_GRID, ids=grid_id)
    def test_certificate_is_the_walk(self, point):
        q, partition = point
        walked = walk_histogram(QuadraticExtension(q), partition, budget=count_flags(partition, q * q))
        assert grid_histogram(*point) == walked

    @pytest.mark.parametrize("q", [3, 5])
    def test_stabiliser_dim_is_n_of_s(self, q):
        """The measured dim A_s is N(s) on every representative of n <= 5."""
        field = QuadraticExtension(q)
        for n in range(1, 6):
            for partition in compositions(n):
                for s in enumerate_coset_matrices(partition, CaseTag.ODD):
                    flag = _representative(s, q)[1]
                    assert _stabiliser_dim(field, flag) == flag_pair_dim(s), s

    @pytest.mark.parametrize("parts", [(1, 1, 1), (1, 2, 1), (2, 2)], ids=["1-1-1", "1-2-1", "2-2"])
    def test_representative_of_another_profile_fails(self, monkeypatch, parts):
        partition = Partition(parts)
        matrices = enumerate_coset_matrices(partition, CaseTag.ODD)
        for first, second in zip(matrices, matrices[1:] + matrices[:1]):
            real = flags_module.representative_flag
            monkeypatch.setattr(
                flags_module, "representative_flag", lambda s, field: real(second if s == first else s, field)
            )
            _representative.cache_clear()
            message = f"representative of {list(first.flat())} has profile {list(second.flat())}"
            with pytest.raises(CertificationError, match=re.escape(message)):
                profile_histogram(FIELD, partition)
            monkeypatch.undo()

    @pytest.mark.parametrize("error", [1, -1])
    @pytest.mark.parametrize("parts", [(1, 1, 1), (1, 2, 1), (1, 1, 1, 1)], ids=["1-1-1", "1-2-1", "1-1-1-1"])
    def test_stabiliser_dim_off_by_one_fails(self, monkeypatch, parts, error):
        """A dimension one off for any one orbit moves its size by a
        factor q, so the sum or the integrality fails."""
        partition = Partition(parts)
        real = flags_module._stabiliser_dim
        for wrong in enumerate_coset_matrices(partition, CaseTag.ODD):
            target = _representative(wrong, 3)[1]
            monkeypatch.setattr(
                flags_module, "_stabiliser_dim", lambda field, flag: real(field, flag) + error * (flag is target)
            )
            with pytest.raises(CertificationError):
                profile_histogram(FIELD, partition)
            monkeypatch.undo()

    @pytest.mark.parametrize("parts", [(1, 1, 1), (1, 2, 1), (2, 2)], ids=["1-1-1", "1-2-1", "2-2"])
    def test_matrix_listed_twice_fails(self, monkeypatch, parts):
        """One matrix listed twice in place of another keeps the count of
        the list, as criterion 10 sees it, and fails the certificate."""
        partition = Partition(parts)
        size = len(enumerate_coset_matrices(partition, CaseTag.ODD))
        for kept, lost in itertools.permutations(range(size), 2):
            another_listing(monkeypatch, lambda out: [out[kept] if i == lost else s for i, s in enumerate(out)])
            with pytest.raises(CertificationError, match="is listed twice"):
                profile_histogram(FIELD, partition)
            monkeypatch.undo()

    @pytest.mark.parametrize("parts", [(1, 1, 1), (1, 2, 1), (2, 2)], ids=["1-1-1", "1-2-1", "2-2"])
    def test_matrix_dropped_fails(self, monkeypatch, parts):
        partition = Partition(parts)
        count = count_flags(partition, 9)
        for lost, s in enumerate(enumerate_coset_matrices(partition, CaseTag.ODD)):
            short = count - grid_histogram(3, partition)[s.flat()]
            another_listing(monkeypatch, lambda out: out[:lost] + out[lost + 1:])
            with pytest.raises(CertificationError, match=f"orbit sizes sum to {short}, not to {count} flags"):
                profile_histogram(FIELD, partition)
            monkeypatch.undo()

    def test_sizes_must_sum_to_the_count(self, monkeypatch):
        monkeypatch.setattr(flags_module, "count_flags", lambda partition, q2: 911)
        with pytest.raises(CertificationError, match="orbit sizes sum to 910, not to 911 flags"):
            profile_histogram(FIELD, Partition((1, 1, 1)))

    def test_certificate_visits_no_flag(self, monkeypatch):
        """Only the representatives are built and no flag is reduced, at
        (1, 1, 1, 1), q = 3, far above the default budget."""
        built = []
        real = flags_module.Flag.__init__
        monkeypatch.setattr(
            flags_module.Flag, "__init__",
            lambda flag, partition, bases: built.append(partition) or real(flag, partition, bases),
        )

        def refuse(*args, **kwargs):
            raise AssertionError("the certificate listed, moved or reduced a flag")

        for name in ("reduce_to_representative", "translate", "enumerate_flags"):
            monkeypatch.setattr(flags_module, name, refuse)
        partition = Partition((1, 1, 1, 1))
        assert sum(profile_histogram(FIELD, partition).values()) == 746_200
        assert built == [partition] * 10


class TestEnumeration:
    def test_counts(self):
        assert gaussian_binomial(2, 1, 9) == 10
        assert count_flags(Partition((1, 1)), 9) == 10
        assert count_flags(Partition((1, 1, 1)), 9) == 910

    @pytest.mark.parametrize("q2", [1, 0, -1])
    def test_field_size_below_2_refused(self, q2):
        # q2 = 1 divided by zero, 0 counted one flag and -1 none
        message = f"field size q2 = {q2} must be at least 2"
        with pytest.raises(InvalidInputError, match=message):
            count_flags(Partition((1, 1)), q2)
        with pytest.raises(InvalidInputError, match=message):
            gaussian_binomial(2, 1, q2)

    def test_n1(self):
        assert len(enumerate_flags(FIELD, Partition((1,)))) == 1

    def test_n2_full(self):
        flags = enumerate_flags(FIELD, Partition((1, 1)))
        assert len(flags) == 10

    def test_budget_refusal(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a flag was built above the budget")

        # refused before the first basis is built
        for name in ("_rref", "_extend"):
            monkeypatch.setattr(flags_module, name, refuse)
        with pytest.raises(BudgetExceededError, match="flag count 746200 exceeds budget 10000") as err:
            enumerate_flags(FIELD, Partition((1, 1, 1, 1)))
        assert err.value.estimate == 746200
        # the reference walks refuse before they walk
        with pytest.raises(BudgetExceededError) as err:
            walk_histogram(FIELD, Partition((1, 1, 1, 1)))
        assert err.value.estimate == 746200
        with pytest.raises(BudgetExceededError) as err:
            next(_walk(FIELD, Partition((1, 1, 1, 1)), 746_199))
        assert err.value.estimate == 746200

    @pytest.mark.parametrize("parts", [(2, 2), (1, 1, 2)], ids=["2-2", "1-1-2"])
    def test_n4_stream(self, parts):
        partition = Partition(parts)
        count = count_flags(partition, 9)
        hist = profile_histogram(FIELD, partition)
        assert set(hist) == {
            s.flat() for s in enumerate_coset_matrices(partition, CaseTag.ODD)
        }
        assert sum(hist.values()) == count
        if parts == parts[::-1]:
            top = hist.pop(anti_diagonal_matrix(partition, CaseTag.ODD).flat())
            assert all(top > size for size in hist.values())

    def test_cache_roundtrip(self, tmp_path):
        cache = FlagCache(str(tmp_path))
        partition = Partition((1, 1))
        histogram = grid_histogram(3, partition)
        cache.store(3, partition, histogram)
        assert cache.load(3, partition) == histogram
        # the key is q and the partition
        assert [p.name for p in tmp_path.iterdir()] == ["flags_v5_q3_1-1.json"]
        assert cache.load(5, partition) is None
        assert cache.load(3, Partition((2,))) is None

    # On the payload {"orbits": [[[0, 1, 1, 0], 6], [[1, 0, 0, 1], 4]]}:
    # an entry is a profile entry, a row a profile, the list the orbits.
    @pytest.mark.parametrize(
        "mangle",
        [
            lambda text: text[: len(text) // 2],
            lambda text: "\x00\xff garbage",
            lambda text: "",
            lambda text: json.dumps([1, 2]),
            edit_cache(lambda data: data.update(version=0)),
            edit_cache(lambda data: data["orbits"].clear()),
            edit_cache(lambda data: data["orbits"][0].__setitem__(1, 11)),
            edit_cache(lambda data: data["orbits"][0][0].__setitem__(0, "0")),
            edit_cache(lambda data: data["orbits"][0].__setitem__(0, 0)),
            edit_cache(lambda data: data["orbits"][0][0].append(0)),
            edit_cache(lambda data: data["orbits"][0].__setitem__(0, [[0, 1], [1, 0]])),
            edit_cache(lambda data: data["orbits"][0].pop()),
            # each of these compares equal to the entry it replaces
            edit_cache(lambda data: data["orbits"][0][0].__setitem__(0, False)),
            edit_cache(lambda data: data["orbits"][0][0].__setitem__(0, 0.0)),
            edit_cache(lambda data: data["orbits"][0][0].__setitem__(0, [0, 0])),
            edit_cache(lambda data: data["orbits"].append(data["orbits"][0])),
            edit_cache(lambda data: data.update(orbits={})),
            edit_cache(lambda data: data.update(extra=[])),
            edit_cache(lambda data: data["orbits"][0].append(1)),
            edit_cache(lambda data: data["orbits"][0][0].pop()),
            edit_cache(lambda data: data["orbits"][0].__setitem__(1, data["orbits"][0][1] + 1)),
            edit_cache(lambda data: data["orbits"].pop()),
            edit_cache(lambda data: data.update(orbits=[
                [data["orbits"][0][0], data["orbits"][0][1] + data["orbits"][1][1]],
                [data["orbits"][1][0], 0],
            ])),
            edit_cache(lambda data: data.update(orbits=[
                [data["orbits"][0][0], data["orbits"][0][1] + data["orbits"][1][1] + 1],
                [data["orbits"][1][0], -1],
            ])),
            edit_cache(lambda data: data["orbits"][1].__setitem__(0, data["orbits"][0][0])),
            edit_cache(lambda data: data["orbits"][0].__setitem__(1, float(data["orbits"][0][1]))),
            edit_cache(lambda data: data["orbits"][0][0].__setitem__(1, True)),
            # the version-4 layout, relabelled and signed
            edit_cache(lambda data: data.update(samples=[])),
        ],
        ids=[
            "truncated", "garbage", "empty", "not-object", "version",
            "short-list", "out-of-range", "string-entry",
            "scalar-entry", "long-row", "extra-row", "short-orbit",
            "bool-entry", "float-entry", "pair-entry", "long-list",
            "orbits-not-list", "extra-key", "long-orbit", "short-profile",
            "size-sum", "missing-orbit", "zero-size", "negative-size",
            "repeated-profile", "float-size", "bool-profile", "samples-key",
        ],
    )
    def test_cache_damage_is_a_miss(self, tmp_path, mangle):
        cache = FlagCache(str(tmp_path))
        partition = Partition((1, 1))
        histogram = grid_histogram(3, partition)
        # the bool edits replace the 0 and the 1 of profile [0, 1, 1, 0]
        assert sorted(histogram) == [(0, 1, 1, 0), (1, 0, 0, 1)]
        cache.store(3, partition, histogram)
        path = cache._path(3, partition)
        with open(path) as fh:
            text = fh.read()
        damaged = mangle(text)
        assert damaged != text
        with open(path, "w", encoding="latin-1") as fh:
            fh.write(damaged)
        assert cache.load(3, partition) is None

    @pytest.mark.parametrize(
        "change",
        [
            lambda data: data["orbits"].__setitem__(1, data["orbits"][0]),
            # the sizes trade places: a valid histogram, not this one
            lambda data: data.update(orbits=[
                [data["orbits"][0][0], data["orbits"][1][1]],
                [data["orbits"][1][0], data["orbits"][0][1]],
            ]),
            lambda data: data.update(crc32=data["crc32"] ^ 1),
            # one flag moved between the two orbits: the sizes still sum
            # to the count, so only the checksum tells
            lambda data: data.update(orbits=[
                [data["orbits"][0][0], data["orbits"][0][1] + 1],
                [data["orbits"][1][0], data["orbits"][1][1] - 1],
            ]),
        ],
        ids=["repeated-orbit", "swapped-sizes", "checksum", "orbit-size"],
    )
    def test_cache_edit_without_checksum_is_a_miss(self, tmp_path, change):
        cache = FlagCache(str(tmp_path))
        partition = Partition((1, 1))
        cache.store(3, partition, grid_histogram(3, partition))
        path = cache._path(3, partition)
        with open(path) as fh:
            text = fh.read()
        damaged = edit_cache(change, sign=False)(text)
        assert damaged != text
        with open(path, "w") as fh:
            fh.write(damaged)
        assert cache.load(3, partition) is None

    def test_cache_v1_file_is_a_miss(self, tmp_path):
        cache = FlagCache(str(tmp_path))
        partition = Partition((1, 1))
        flags = enumerate_flags(FIELD, partition)
        current = cache._path(3, partition)
        # the pair-coded layout of the first cache version
        text = json.dumps({
            "version": 1,
            "flags": [
                [[[list(decode(3, x)) for x in row] for row in basis] for basis in flag.bases]
                for flag in flags
            ],
        })
        (tmp_path / "flags_v1_n2_q3_1-1.json").write_text(text)
        assert cache.load(3, partition) is None
        # nor is it read under the current name
        with open(current, "w") as fh:
            fh.write(text)
        assert cache.load(3, partition) is None
        # nor is the unsigned second version, under either name
        text = json.dumps({"version": 2, "flags": [flag.bases for flag in flags]})
        (tmp_path / "flags_v2_n2_q3_1-1.json").write_text(text)
        with open(current, "w") as fh:
            fh.write(text)
        assert cache.load(3, partition) is None
        # nor the signed flag list of the third, under either name
        chains = [[[list(row) for row in basis] for basis in flag.bases] for flag in flags]
        text = json.dumps({
            "version": 3,
            "crc32": zlib.crc32(json.dumps(chains).encode()),
            "flags": chains,
        })
        (tmp_path / "flags_v3_n2_q3_1-1.json").write_text(text)
        assert cache.load(3, partition) is None
        with open(current, "w") as fh:
            fh.write(text)
        assert cache.load(3, partition) is None
        # nor the signed orbits and samples of the fourth, under either name
        orbits = [[list(key), size] for key, size in sorted(grid_histogram(3, partition).items())]
        text = signed({"version": 4, "crc32": 0, "orbits": orbits, "samples": chains})
        (tmp_path / "flags_v4_q3_1-1_s10.json").write_text(text)
        assert cache.load(3, partition) is None
        with open(current, "w") as fh:
            fh.write(text)
        assert cache.load(3, partition) is None

    def test_cache_file_is_json_dumps_of_payload(self, tmp_path):
        cache = FlagCache(str(tmp_path))
        partition = Partition((1, 2))
        histogram = grid_histogram(3, partition)
        cache.store(3, partition, histogram)
        run = {"orbits": [[list(key), size] for key, size in sorted(histogram.items())]}
        payload = {"version": 5, "crc32": zlib.crc32(json.dumps(run).encode()), **run}
        with open(cache._path(3, partition)) as fh:
            assert fh.read() == json.dumps(payload) == signed(payload)

    def test_cache_file_is_small(self, tmp_path):
        # the largest benchmark point: 2,451 flags, 2 orbits
        cache = FlagCache(str(tmp_path))
        partition = Partition((2, 1))
        cache.store(7, partition, grid_histogram(7, partition))
        assert cache.load(7, partition) == grid_histogram(7, partition)
        (path,) = tmp_path.iterdir()
        assert path.name == "flags_v5_q7_2-1.json"
        assert path.stat().st_size < 200

    def test_cache_missing_is_a_miss(self, tmp_path):
        assert FlagCache(str(tmp_path)).load(3, Partition((1, 1))) is None

    def test_cache_directory_that_is_a_file_is_refused(self, tmp_path):
        path = tmp_path / "file"
        path.write_text("")
        for directory in (path, path / "sub"):
            with pytest.raises(InvalidInputError, match="cannot make cache directory"):
                FlagCache(str(directory))
        assert path.read_text() == ""

    def test_cache_store_replaces_atomically(self, tmp_path, monkeypatch):
        cache = FlagCache(str(tmp_path))
        partition = Partition((1, 1))
        histogram = grid_histogram(3, partition)
        cache.store(3, partition, histogram)
        assert [p.name for p in tmp_path.iterdir()] == ["flags_v5_q3_1-1.json"]

        def fail(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr("steinberg_distinction.oracles.flags.os.replace", fail)
        with pytest.raises(OSError):
            cache.store(3, partition, {(0, 1, 1, 0): 10})
        # the old entry is intact and no temporary file is left behind
        assert [p.name for p in tmp_path.iterdir()] == ["flags_v5_q3_1-1.json"]
        assert cache.load(3, partition) == histogram

    @pytest.mark.parametrize("umask", [0o022, 0o077, 0o002], ids=["022", "077", "002"])
    def test_cache_entry_has_the_mode_of_a_new_file(self, tmp_path, umask):
        """An entry is as readable as a file opened for writing in the
        same directory, not 0600 as the temporary file was made."""
        partition = Partition((1, 1))
        old = os.umask(umask)
        try:
            FlagCache(str(tmp_path)).store(3, partition, grid_histogram(3, partition))
            with open(tmp_path / "plain.txt", "w"):
                pass
        finally:
            os.umask(old)
        mode = (tmp_path / "flags_v5_q3_1-1.json").stat().st_mode
        assert mode == (tmp_path / "plain.txt").stat().st_mode
        assert mode & 0o777 == 0o666 & ~umask
        # the store put the process umask back
        assert os.umask(old) == old


class TestProfiles:
    def test_standard_flag_identity_profile(self):
        flags = enumerate_flags(FIELD, Partition((1, 1, 1)))
        standard = next(
            f
            for f in flags
            if f.bases[0] == ((FIELD.one, FIELD.zero, FIELD.zero),)
            and all(
                all(FIELD.in_base(x) for v in b for x in v) for b in f.bases
            )
            and f.bases[1][1][2] == FIELD.zero
        )
        profile = flag_profile(standard, FIELD)
        assert profile.entries == ((1, 0, 0), (0, 1, 0), (0, 0, 1))

    @pytest.mark.parametrize(
        "damage", ["scaled-row", "row-added", "rows-swapped", "zero-row"]
    )
    def test_unreduced_flag_is_refused(self, damage):
        """A flag whose bases span the right spaces but are not reduced
        raises instead of getting a profile read off wrong pivots."""
        rng = random.Random(7)
        flags = enumerate_flags(FIELD, Partition((2, 1)))
        # a flag whose V_1 has two rows, both with nonzero free entries
        flag = next(f for f in flags if all(sum(map(bool, row)) > 1 for row in f.bases[0]))
        u, v = flag.bases[0]
        c = rng.choice([x for x in field_elements(FIELD) if x not in (FIELD.zero, FIELD.one)])
        rows = {
            "scaled-row": (vec_scale(FIELD, c, u), v),
            "row-added": (u, vec_add(FIELD, v, u)),
            "rows-swapped": (v, u),
            "zero-row": (u, tuple(FIELD.zero for _ in u)),
        }[damage]
        damaged = Flag(flag.partition, (rows,) + flag.bases[1:])
        if damage != "zero-row":
            # the same spaces, so the full-rank reference still reads them
            assert rank_reference_flag_profile(damaged, FIELD) == flag_profile(flag, FIELD).entries
        # the pieces and the reduction read the same table, so they
        # refuse the flag alike; the orbit check reports it as its fault
        for read in (flag_profile, graded_pieces, reduce_to_representative):
            with pytest.raises(InvalidInputError) as err:
                read(damaged, FIELD)
            assert str(err.value) == "flag bases must be row-reduced"
        assert reduction_fault(damaged, FIELD, flag_profile(flag, FIELD)) == "flag bases must be row-reduced"

    def test_reducedness_predicate_matches_rref(self):
        """``is_reduced`` reads reducedness off the definition; it must
        agree with a reduction on reduced bases and on damaged ones."""
        rng = random.Random(20261025)
        for q in (3, 5, 7):
            field = QuadraticExtension(q)
            bases = [field.rref(mat) for mat in random_matrices(q, rng)]
            bases += [b for n in (3, 4) for _ in range(20) for b in random_reduced_flag(field, n, rng).bases]
            for basis in filter(None, bases):
                assert field.is_reduced(basis) and field.rref(basis) == basis
                damaged = damaged_bases(field, basis, rng)
                for rows in damaged.values():
                    assert field.is_reduced(rows) == (field.rref(rows) == rows)
                    assert not field.is_reduced(rows)
            assert field.is_reduced(()) and field.rref(()) == ()

    def test_us_flag_antidiagonal_profile(self):
        s = anti_diagonal_matrix(Partition((1, 1)), CaseTag.ODD)
        rep = representative_flag(s, FIELD)
        assert flag_profile(rep, FIELD) == s

    def test_profile_sets_match_enumeration(self):
        for n in range(1, 4):
            for partition in compositions(n):
                flags = enumerate_flags(FIELD, partition)
                seen = {flag_profile(f, FIELD).flat() for f in flags}
                expected = {
                    s.flat()
                    for s in enumerate_coset_matrices(partition, CaseTag.ODD)
                }
                assert seen == expected, (n, partition.parts)

    def test_profile_constant_on_rational_orbits(self):
        rng = random.Random(20260823)
        flags = enumerate_flags(FIELD, Partition((1, 1, 1)))
        for flag in rng.sample(flags, 5):
            base_profile = flag_profile(flag, FIELD)
            for _ in range(20):
                h = random_glnq(FIELD, 3, rng)
                moved = apply_matrix(FIELD, h, flag)
                assert flag_profile(moved, FIELD) == base_profile

    def test_antidiagonal_orbit_strictly_largest(self):
        partition = Partition((1, 1, 1))
        flags = enumerate_flags(FIELD, partition)
        hist: dict[tuple, int] = {}
        for f in flags:
            key = flag_profile(f, FIELD).flat()
            hist[key] = hist.get(key, 0) + 1
        anti = anti_diagonal_matrix(partition, CaseTag.ODD).flat()
        top = hist.pop(anti)
        assert all(top > size for size in hist.values())


class TestRepresentativesAndReduction:
    def test_representative_roundtrip_exhaustive(self):
        for n in range(1, 4):
            for partition in compositions(n):
                for s in enumerate_coset_matrices(partition, CaseTag.ODD):
                    assert flag_profile(representative_flag(s, FIELD), FIELD) == s

    def test_representative_matches_inversion(self):
        """The flag read off s equals the one the inverse of the symbolic
        representative spans, on all 3,393 (s, q) pairs: every coset
        matrix with n <= 7 at q = 3 and n <= 5 at q = 5 and 7."""
        checked = 0
        for q, top in ((3, 7), (5, 5), (7, 5)):
            field = QuadraticExtension(q)
            for n in range(1, top + 1):
                for partition in compositions(n):
                    for s in enumerate_coset_matrices(partition, CaseTag.ODD):
                        expected = reference_representative_flag(s, field)
                        assert representative_flag(s, field) == expected, (q, s.entries)
                        checked += 1
        assert checked == 3393

    def test_reduction_every_full_flag_n2(self):
        self._check_all_reductions(Partition((1, 1)))

    def test_reduction_every_full_flag_n3(self):
        self._check_all_reductions(Partition((1, 1, 1)))

    @pytest.mark.parametrize("q, partition, translated", COMPLEMENT_POINTS)
    def test_reduction_matches_reference_complements(self, q, partition, translated, monkeypatch):
        field = QuadraticExtension(q)
        reps = [representative_flag(s, field) for s in enumerate_coset_matrices(partition, CaseTag.ODD)]
        if translated:
            flags = [translate(rep, field) for rep in reps]
        else:
            flags = enumerate_flags(field, partition, budget=count_flags(partition, q * q))
        for flag in flags + reps:
            assert graded_pieces(flag, field) == reference_complements(flag, field)
        # the memo starts cold and builds each representative once; warm,
        # it builds none and gives the same matrices
        fast = [reduce_to_representative(flag, field) for flag in flags]
        built = _representative.cache_info().misses
        assert built == len({flag_profile(flag, field) for flag in flags})
        assert fast == [reduce_to_representative(flag, field) for flag in flags]
        assert _representative.cache_info().misses == built
        # so do the reference pieces, on the flags and, from a cold memo,
        # on the representatives
        monkeypatch.setattr(
            flags_module, "_pieces", lambda flag, field, table: reference_complements(flag, field)
        )
        _representative.cache_clear()
        _representative_pieces.cache_clear()
        assert fast == [reduce_to_representative(flag, field) for flag in flags]

    def test_one_intersection_per_corner(self, monkeypatch):
        """``graded_pieces`` meets V_i with theta V_j, i <= j, only where
        the rank table leaves the corner open, 0 < r[i][j] < dim V_i, and
        there once; a corner of dimension 0 or dim V_i is read off.  It
        adds the two spaces below a corner only where the sum has the
        dimension of neither of them nor of the corner.  On about 200
        flags of each point of GRID and of (1,1,2), q = 3."""
        meets, sums = [], []
        original_meet, original_sum = QuadraticExtension.intersect, QuadraticExtension.sum_spaces

        def meet(self, a, b):
            meets.append((a, b))
            return original_meet(self, a, b)

        def add(self, a, b):
            sums.append(len(original_sum(self, a, b)))
            return original_sum(self, a, b)

        monkeypatch.setattr(QuadraticExtension, "intersect", meet)
        monkeypatch.setattr(QuadraticExtension, "sum_spaces", add)
        opened = added = 0
        for q, partition in GRID + [(3, Partition((1, 1, 2)))]:
            field = QuadraticExtension(q)
            t = len(partition)
            dims = [0, *itertools.accumulate(partition.parts)]
            count = count_flags(partition, q * q)
            for flag in enumerate_flags(field, partition, budget=count)[:: max(1, count // 200)]:
                r = rank_table(flag, field)
                for i in range(1, t + 1):
                    r[i][t] = r[t][i] = dims[i]
                bases = ((),) + flag.bases
                corners = [(i, j) for i in range(1, t + 1) for j in range(i, t + 1)]
                expected_meets = [
                    (bases[i], tuple(map(field.vec_frob, bases[j])))
                    for i, j in corners
                    if 0 < r[i][j] < dims[i]
                ]
                expected_sums = []
                for i, j in corners:
                    dim = r[i][j - 1] + r[i - 1][j] - r[i - 1][j - 1]
                    if dim not in (r[i][j], r[i][j - 1], r[i - 1][j]):
                        expected_sums.append(dim)
                meets.clear()
                sums.clear()
                graded_pieces(flag, field)
                assert meets == expected_meets, (q, partition.parts, flag.bases)
                assert sums == expected_sums, (q, partition.parts, flag.bases)
                opened += len(meets)
                added += len(sums)
        assert opened > 0 and added > 0

    def test_two_reductions_on_the_last_flag(self, monkeypatch):
        """The last (1,1,1) flag at q = 3, e_3 in (e_2, e_3), is
        Frobenius-stable, so the rank table settles every corner and
        every sum: its pieces cost the two complements of a line in a
        plane and of a plane in F^3, where three intersections per
        corner cost fourteen reductions."""
        calls = []
        original = QuadraticExtension.rref

        def counting(self, rows):
            calls.append(1)
            return original(self, rows)

        monkeypatch.setattr(QuadraticExtension, "rref", counting)
        flag = enumerate_flags(FIELD, Partition((1, 1, 1)))[909]
        assert flag.bases[:2] == (((0, 0, 3),), ((0, 3, 0), (0, 0, 3)))
        graded_pieces(flag, FIELD)
        assert len(calls) <= 2

    def test_unstable_diagonal_corner_raises(self, monkeypatch):
        """A diagonal corner whose reduced basis has an entry outside the
        base field is not Frobenius-stable; with ``intersect`` broken to
        return such a line, the pieces raise as the fixed-point reference
        does."""
        partition = Partition((1, 1, 1))
        flag = next(
            f for f in enumerate_flags(FIELD, partition) if rank_table(f, FIELD)[2][2] == 1
        )
        line = ((FIELD.one, FIELD.lam, FIELD.zero),)
        monkeypatch.setattr(QuadraticExtension, "intersect", lambda self, a, b: line)
        with pytest.raises(InvalidInputError, match="not Frobenius-stable"):
            graded_pieces(flag, FIELD)
        with pytest.raises(InvalidInputError, match="not Frobenius-stable"):
            reference_complements(flag, FIELD)

    def test_one_reduction_computes_one_table(self, monkeypatch):
        """A reduction reads the flag's profile and graded pieces off one
        rank table and checks each basis of V_1, ..., V_{t - 1} once; the
        representative, built on the first reduction onto it, costs one
        table more, once."""
        flag = enumerate_flags(FIELD, Partition((1, 1, 1)))[500]
        tables, checked = record_tables(monkeypatch)
        first = reduce_to_representative(flag, FIELD)
        assert tables[0] == flag.bases[:-1] and len(tables) == 2
        tables.clear()
        checked.clear()
        assert reduce_to_representative(flag, FIELD) == first
        assert tables == [flag.bases[:-1]]
        assert checked == list(flag.bases[:-1])

    def test_representatives_memoised_per_profile_and_q(self):
        """One profile has a representative at each q: reductions at
        q = 3, 5 and 3 again, each carrying every (1, 1) flag onto the
        representative of its field, share no pieces across fields."""
        partition = Partition((1, 1))
        for q in (3, 5, 3):
            field = QuadraticExtension(q)
            for flag in enumerate_flags(field, partition):
                h = reduce_to_representative(flag, field)
                rep = representative_flag(flag_profile(flag, field), field)
                assert all(field.in_base(x) for row in h for x in row)
                assert apply_matrix(field, h, flag).bases == rep.bases
        assert _representative.cache_info().currsize == 4

    def _check_all_reductions(self, partition):
        flags = enumerate_flags(FIELD, partition)
        for flag in flags:
            h = reduce_to_representative(flag, FIELD)
            assert all(FIELD.in_base(x) for row in h for x in row)
            rep = representative_flag(flag_profile(flag, FIELD), FIELD)
            moved = apply_matrix(FIELD, h, flag)
            assert moved.bases == rep.bases


# Every composition of n <= 6 at q = 3 and of n <= 4 at q = 5 and 7.
TRANSLATE_GRID = [
    (q, partition)
    for q, top in ((3, 6), (5, 4), (7, 4))
    for n in range(1, top + 1)
    for partition in compositions(n)
]


def shift_times_j(field, n):
    """g of ``translate``, as a matrix: g e_0 = e_1 and g e_j = e_j + e_{j+1}."""
    g = [[field.zero] * n for _ in range(n)]
    for j in range(n):
        g[(j + 1) % n][j] = field.one
        if j:
            g[j][j] = field.one
    return [tuple(row) for row in g]


class TestOrbitCheck:
    """``translate`` and the orbit check ``reduction_fault``."""

    @pytest.mark.parametrize("point", TRANSLATE_GRID, ids=grid_id)
    def test_translate_moves_every_representative(self, point):
        """g F_s is the image of F_s under an invertible base-field matrix,
        multiplied out over the pair-coded field; it has profile s, it is
        not F_s unless the partition has one part, and the reduction
        carries it back onto F_s."""
        q, partition = point
        field = QuadraticExtension(q)
        g = shift_times_j(field, partition.total)
        assert field.rank(g) == partition.total
        for s in enumerate_coset_matrices(partition, CaseTag.ODD):
            rep = representative_flag(s, field)
            moved = translate(rep, field)
            assert moved == apply_matrix(field, g, rep)
            assert flag_profile(moved, field) == s
            assert (moved != rep) == (len(partition) > 1)
            assert reduction_fault(moved, field, s) is None

    @pytest.mark.parametrize("parts", [(1, 1), (1, 1, 1), (2, 1), (1, 2, 1), (3,)], ids=["1-1", "1-1-1", "2-1", "1-2-1", "3"])
    def test_identity_reduction_is_a_fault(self, monkeypatch, parts):
        """A reduction that returns the identity has base-field entries,
        so only the second condition, h g V_i = V_i, sees that it leaves
        g F_s where it was: every orbit of a partition with two parts or
        more fails, and the one flag of a single part passes."""
        partition = Partition(parts)
        n = partition.total
        identity = [tuple(FIELD.one if c == r else FIELD.zero for c in range(n)) for r in range(n)]
        monkeypatch.setattr(flags_module, "reduce_to_representative", lambda flag, field: identity)
        for s in enumerate_coset_matrices(partition, CaseTag.ODD):
            rep = representative_flag(s, FIELD)
            fault = reduction_fault(translate(rep, FIELD), FIELD, s)
            if len(parts) > 1:
                assert fault == "the reduction does not carry the flag onto its representative"
            else:
                assert fault is None

    def test_another_target_is_a_fault(self):
        """The reduction of g F_s lands on F_s, so asked to reach the
        representative of another orbit it fails."""
        matrices = enumerate_coset_matrices(Partition((1, 1, 1)), CaseTag.ODD)
        for s, other in zip(matrices, matrices[1:] + matrices[:1]):
            moved = translate(representative_flag(s, FIELD), FIELD)
            fault = reduction_fault(moved, FIELD, other)
            assert fault == "the reduction does not carry the flag onto its representative"
