import functools
import itertools
import json
import random
import time
import zlib

import pytest

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
    require_small_odd_prime,
)
from steinberg_distinction.oracles import flags as flags_module
from steinberg_distinction.oracles.flags import (
    BudgetExceededError,
    Flag,
    FlagCache,
    _enumerate_rref,
    _rank_row,
    count_flags,
    enumerate_flags,
    flag_profile,
    gaussian_binomial,
    graded_pieces,
    iter_flags,
    reduce_to_representative,
    representative_flag,
)

from conftest import compositions
from pair_extension import PairExtension, decode, decode_rows, encode

FIELD = QuadraticExtension(3)

# Every composition of n <= 3 at q = 3 and q = 5, plus the q = 7 points of
# the benchmark.
GRID = [
    (q, partition)
    for q in (3, 5)
    for n in range(1, 4)
    for partition in compositions(n)
] + [(7, Partition(parts)) for parts in [(2, 1), (1, 2), (1, 1)]]


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
    elements = field.elements()
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
                u_fixed = field.fixed_subspace(u) if u else ()
                w_fixed = field.fixed_subspace(w) if w else ()
                out[(i, i)] = reference_extend_to_complement(field, w_fixed, u_fixed)
            else:
                comp = reference_extend_to_complement(field, w, u)
                out[(i, j)] = comp
                out[(j, i)] = tuple(field.vec_frob(v) for v in comp)
    return out


def random_matrices(q, rng):
    """300 random matrices over F_{q^2}, many of them rank-deficient."""
    elements = QuadraticExtension(q).elements()
    for _ in range(300):
        rows, cols = rng.randint(1, 4), rng.randint(1, 4)
        # pools of zero alone or zero and l give rank-deficient matrices
        pool = elements[: rng.choice((1, 2, len(elements)))]
        yield [tuple(rng.choice(pool) for _ in range(cols)) for _ in range(rows)]


def signed(data):
    """The cache-file text of a payload, with the checksum of its flags
    text recomputed: json.dumps of {"version", "crc32", "flags"}."""
    flags_text = json.dumps(data["flags"])
    return json.dumps({
        "version": data["version"],
        "crc32": zlib.crc32(flags_text.encode()),
        "flags": data["flags"],
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


def stream_histogram(stream):
    hist: dict[tuple, int] = {}
    for _, profile in stream:
        key = profile.flat()
        hist[key] = hist.get(key, 0) + 1
    return hist


@functools.cache
def grid_stream(q, partition):
    field = QuadraticExtension(q)
    return list(iter_flags(field, partition, budget=count_flags(partition, q * q)))


def grid_flags(q, partition):
    return [flag for flag, _ in grid_stream(q, partition)]


@functools.cache
def grid_histogram(q, partition):
    return stream_histogram(grid_stream(q, partition))


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
        for x in FIELD.elements():
            if x == FIELD.zero:
                continue
            assert FIELD.mul_table[x][FIELD.inv_table[x]] == FIELD.one

    def test_frobenius_is_field_automorphism(self):
        frob, mul = FIELD.frob_table, FIELD.mul_table
        for x in FIELD.elements():
            for y in FIELD.elements():
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
        assert [encode(q, x) for x in ref.elements()] == field.elements()
        assert [decode(q, x) for x in field.elements()] == ref.elements()
        assert sorted(map(tuple, ref.elements())) == ref.elements()
        assert [encode(q, x) for x in (ref.zero, ref.one, ref.lam)] == [
            field.zero, field.one, field.lam
        ]
        assert field.nonsquare == ref.nonsquare
        assert [x for x in field.elements() if field.in_base(x)] == [
            encode(q, ref.scalar(a)) for a in range(q)
        ]

    @pytest.mark.parametrize("q", [3, 5, 7])
    def test_tables_match_pair_formulas(self, q):
        field, ref = QuadraticExtension(q), PairExtension(q)
        for x in field.elements():
            px = decode(q, x)
            assert decode(q, field.neg_table[x]) == ref.neg(px)
            assert decode(q, field.frob_table[x]) == ref.frob(px)
            assert field.in_base(x) == ref.in_base(px)
            if x:
                assert decode(q, field.inv_table[x]) == ref.inv(px)
            else:
                assert field.inv_table[x] is None
            for y in field.elements():
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
                inner = field.rref(inner)
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
                    assert decode_rows(q, field.sum_spaces(ra, rb)) == ref.sum_spaces(pra, prb)
                    assert decode_rows(q, field.extend_to_complement(ra, b)) == (
                        ref.extend_to_complement(pra, pb)
                    )
                    # the fixed points of the Frobenius-stable span a + theta a
                    stable = field.sum_spaces(ra, tuple(map(field.vec_frob, ra)))
                    pstable = ref.sum_spaces(pra, tuple(map(ref.vec_frob, pra)))
                    assert decode_rows(q, field.fixed_subspace(stable)) == (
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
                field.fixed_subspace(line)
            with pytest.raises(ValueError, match="not Frobenius-stable"):
                ref.fixed_subspace(decode_rows(q, line))

    @pytest.mark.parametrize("point", GRID, ids=grid_id)
    def test_enumeration_matches_reference(self, point):
        q = point[0]
        flags = grid_flags(*point)
        assert [tuple(decode_rows(q, b) for b in f.bases) for f in flags] == [
            f.bases for f in reference_enumerate_flags(*point)
        ]

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

    def test_budget_refusal(self):
        with pytest.raises(BudgetExceededError) as err:
            enumerate_flags(FIELD, Partition((1, 1, 1, 1)))
        assert err.value.estimate == 746200
        # the stream refuses when it is asked for, not when first read
        with pytest.raises(BudgetExceededError):
            iter_flags(FIELD, Partition((1, 1, 1, 1)))

    @pytest.mark.parametrize("parts", [(2, 2), (1, 1, 2)], ids=["2-2", "1-1-2"])
    def test_n4_stream(self, parts):
        partition = Partition(parts)
        count = count_flags(partition, 9)
        hist = stream_histogram(iter_flags(FIELD, partition, budget=count))
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
        flags = enumerate_flags(FIELD, partition)
        cache.store(2, 3, partition, flags)
        assert cache.load(2, 3, partition) == flags

    @pytest.mark.parametrize(
        "mangle",
        [
            lambda text: text[: len(text) // 2],
            lambda text: "\x00\xff garbage",
            lambda text: "",
            lambda text: json.dumps([1, 2]),
            edit_cache(lambda data: data.update(version=0)),
            edit_cache(lambda data: data.update(flags="x" * 10)),
            edit_cache(lambda data: data["flags"].pop()),
            edit_cache(lambda data: data["flags"][0][0][0].__setitem__(0, 9)),
            edit_cache(lambda data: data["flags"][0][0][0].__setitem__(0, "3")),
            edit_cache(lambda data: data["flags"][0][0].__setitem__(0, 3)),
            edit_cache(lambda data: data["flags"][0][0][0].append(0)),
            edit_cache(lambda data: data["flags"][0][0].append([0, 3])),
            edit_cache(lambda data: data["flags"][0].pop()),
            # each of these compares equal to the entry it replaces
            edit_cache(lambda data: data["flags"][0][0][0].__setitem__(1, False)),
            edit_cache(lambda data: data["flags"][0][0][0].__setitem__(1, 0.0)),
            edit_cache(lambda data: data["flags"][0][0][0].__setitem__(1, [0, 0])),
        ],
        ids=[
            "truncated", "garbage", "empty", "not-object", "version",
            "flags-not-list", "short-list", "out-of-range", "string-entry",
            "scalar-entry", "long-row", "extra-row", "short-chain",
            "bool-entry", "float-entry", "pair-entry",
        ],
    )
    def test_cache_damage_is_a_miss(self, tmp_path, mangle):
        cache = FlagCache(str(tmp_path))
        partition = Partition((1, 1))
        cache.store(2, 3, partition, enumerate_flags(FIELD, partition))
        path = cache._path(2, 3, partition)
        with open(path) as fh:
            text = fh.read()
        damaged = mangle(text)
        assert damaged != text
        with open(path, "w", encoding="latin-1") as fh:
            fh.write(damaged)
        assert cache.load(2, 3, partition) is None

    @pytest.mark.parametrize(
        "change",
        [
            lambda data: data["flags"].__setitem__(1, data["flags"][0]),
            # the Frobenius-stable line [[3, 0]] of the first flag spelled
            # l (1, 0) = [[1, 0]]: the same line, not reduced, and its
            # imaginary part would make the rank rows read it as unstable
            lambda data: data["flags"][0][0].__setitem__(0, [1, 0]),
            lambda data: data.update(crc32=data["crc32"] ^ 1),
        ],
        ids=["repeated-flag", "unreduced-basis", "checksum"],
    )
    def test_cache_edit_without_checksum_is_a_miss(self, tmp_path, change):
        cache = FlagCache(str(tmp_path))
        partition = Partition((1, 1))
        flags = enumerate_flags(FIELD, partition)
        assert flags[0].bases[0] == ((3, 0),)
        cache.store(2, 3, partition, flags)
        path = cache._path(2, 3, partition)
        with open(path) as fh:
            text = fh.read()
        damaged = edit_cache(change, sign=False)(text)
        assert damaged != text
        with open(path, "w") as fh:
            fh.write(damaged)
        assert cache.load(2, 3, partition) is None

    def test_cache_v1_file_is_a_miss(self, tmp_path):
        cache = FlagCache(str(tmp_path))
        partition = Partition((1, 1))
        flags = enumerate_flags(FIELD, partition)
        # the pair-coded layout of the first cache version
        text = json.dumps({
            "version": 1,
            "flags": [
                [[[list(decode(3, x)) for x in row] for row in basis] for basis in flag.bases]
                for flag in flags
            ],
        })
        (tmp_path / "flags_v1_n2_q3_1-1.json").write_text(text)
        assert cache.load(2, 3, partition) is None
        # nor is it read under the current name
        with open(cache._path(2, 3, partition), "w") as fh:
            fh.write(text)
        assert cache.load(2, 3, partition) is None
        # nor is the unsigned second version, under either name
        text = json.dumps({"version": 2, "flags": [flag.bases for flag in flags]})
        (tmp_path / "flags_v2_n2_q3_1-1.json").write_text(text)
        with open(cache._path(2, 3, partition), "w") as fh:
            fh.write(text)
        assert cache.load(2, 3, partition) is None

    def test_cache_file_is_json_dumps_of_payload(self, tmp_path):
        cache = FlagCache(str(tmp_path))
        partition = Partition((1, 2))
        flags = enumerate_flags(FIELD, partition)
        cache.store(3, 3, partition, flags)
        chains = [
            [[list(row) for row in basis] for basis in flag.bases] for flag in flags
        ]
        payload = {
            "version": 3,
            "crc32": zlib.crc32(json.dumps(chains).encode()),
            "flags": chains,
        }
        with open(cache._path(3, 3, partition)) as fh:
            assert fh.read() == json.dumps(payload) == signed(payload)

    def test_cache_missing_is_a_miss(self, tmp_path):
        assert FlagCache(str(tmp_path)).load(2, 3, Partition((1, 1))) is None

    def test_cache_store_replaces_atomically(self, tmp_path, monkeypatch):
        cache = FlagCache(str(tmp_path))
        partition = Partition((1, 1))
        flags = enumerate_flags(FIELD, partition)
        cache.store(2, 3, partition, flags)
        assert [p.name for p in tmp_path.iterdir()] == ["flags_v3_n2_q3_1-1.json"]

        def fail(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr("steinberg_distinction.oracles.flags.os.replace", fail)
        with pytest.raises(OSError):
            cache.store(2, 3, partition, flags[:1])
        # the old entry is intact and no temporary file is left behind
        assert [p.name for p in tmp_path.iterdir()] == ["flags_v3_n2_q3_1-1.json"]
        assert cache.load(2, 3, partition) == flags


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
        c = rng.choice([x for x in FIELD.elements() if x not in (FIELD.zero, FIELD.one)])
        rows = {
            "scaled-row": (FIELD.vec_scale(c, u), v),
            "row-added": (u, FIELD.vec_add(v, u)),
            "rows-swapped": (v, u),
            "zero-row": (u, tuple(FIELD.zero for _ in u)),
        }[damage]
        damaged = Flag(flag.partition, (rows,) + flag.bases[1:])
        if damage != "zero-row":
            # the same spaces, so the full-rank reference still reads them
            assert rank_reference_flag_profile(damaged, FIELD) == flag_profile(flag, FIELD).entries
        with pytest.raises(InvalidInputError, match="zero row|row-reduced"):
            flag_profile(damaged, FIELD)

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

    def test_reduction_every_full_flag_n2(self):
        self._check_all_reductions(Partition((1, 1)))

    def test_reduction_every_full_flag_n3(self):
        self._check_all_reductions(Partition((1, 1, 1)))

    @pytest.mark.parametrize(
        "partition",
        [p for n in range(1, 4) for p in compositions(n)],
        ids=lambda p: "-".join(map(str, p.parts)),
    )
    def test_reduction_matches_reference_complements(self, partition, monkeypatch):
        flags = enumerate_flags(FIELD, partition)
        for flag in flags:
            assert graded_pieces(flag, FIELD) == reference_complements(flag, FIELD)
        fast = [reduce_to_representative(flag, FIELD) for flag in flags]
        # representatives built once and shared give the same matrices
        targets = {
            s: graded_pieces(representative_flag(s, FIELD), FIELD)
            for s in enumerate_coset_matrices(partition, CaseTag.ODD)
        }
        assert fast == [reduce_to_representative(flag, FIELD, targets) for flag in flags]
        monkeypatch.setattr(flags_module, "graded_pieces", reference_complements)
        assert fast == [reduce_to_representative(flag, FIELD) for flag in flags]

    def test_one_intersection_per_corner(self, monkeypatch):
        calls = []
        original = QuadraticExtension.intersect

        def counting(self, a, b):
            calls.append(1)
            return original(self, a, b)

        monkeypatch.setattr(QuadraticExtension, "intersect", counting)
        for n, t in ((1, 1), (2, 2), (3, 3)):
            flag = enumerate_flags(FIELD, Partition((1,) * n))[-1]
            calls.clear()
            graded_pieces(flag, FIELD)
            assert len(calls) == t * (t + 1) // 2

    def _check_all_reductions(self, partition):
        flags = enumerate_flags(FIELD, partition)
        for flag in flags:
            h = reduce_to_representative(flag, FIELD)
            assert all(FIELD.in_base(x) for row in h for x in row)
            rep = representative_flag(flag_profile(flag, FIELD), FIELD)
            moved = apply_matrix(FIELD, h, flag)
            assert moved.bases == rep.bases
