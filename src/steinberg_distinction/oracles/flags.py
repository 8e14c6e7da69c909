"""Finite-field flags and Galois-twist orbit invariants.

Desk-scale oracle for the odd (split) case: the profile of a flag in
F_{q^2}^n under the coordinate Frobenius twist is the coset matrix of
its orbit, and the constructive reduction maps any flag to the
canonical representative of its profile by a base-field matrix, built
from graded pieces that the rank table mostly settles.

``profile_histogram`` certifies the orbit sizes by orbit-stabiliser,
visiting one representative per orbit.  ``reduction_fault`` checks the
reduction orbit by orbit: the reduction of g F_s, the representative
F_s moved by the fixed base-field matrix g of ``translate``, must be a
base-field h with h g F_s = F_s.  The cache (version 5) holds a point's
orbit sizes and a CRC-32 of their text, so a file that is not exactly
what ``store`` wrote is a miss.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import os
import tempfile
import zlib
from collections.abc import Iterator
from fractions import Fraction

from ..cosets import (
    CaseTag,
    CosetMatrix,
    Frozen,
    InvalidInputError,
    Partition,
    enumerate_coset_matrices,
    fine_layout,
    int_text,
)
from .finite_field import QuadraticExtension, Vec, pivot

# graded piece S_{i,j} of a flag, keyed by (i, j)
GradedPieces = dict[tuple[int, int], tuple[Vec, ...]]

CACHE_VERSION = 5
DEFAULT_BUDGET = 10_000

# the rank table of a flag: row i - 1 holds r[i][1..i], i < t
Table = tuple[tuple[int, ...], ...]
# orbit sizes keyed by the flat coset matrix of the orbit
Histogram = dict[tuple[int, ...], int]


class BudgetExceededError(RuntimeError):
    """Enumeration refused; carries the size estimate."""

    def __init__(self, estimate: int, budget: int, what: str = "flag count"):
        super().__init__(f"{what} {int_text(estimate)} exceeds budget {budget}")
        self.estimate = estimate
        self.budget = budget


class CertificationError(RuntimeError):
    """The orbit sizes of ``profile_histogram`` are not certified."""


class Flag(Frozen):
    """Nested subspaces given by row-reduced bases."""

    __slots__ = ("partition", "bases")

    def __init__(self, partition: Partition, bases: tuple[tuple[Vec, ...], ...]) -> None:
        if [len(b) for b in bases] != list(itertools.accumulate(partition.parts)):
            raise InvalidInputError("basis dimensions must match partition prefixes")
        object.__setattr__(self, "partition", partition)
        object.__setattr__(self, "bases", bases)


def gaussian_binomial(n: int, k: int, q2: int) -> int:
    """The number of k-dimensional subspaces of an n-dimensional space
    over a field of q2 elements."""
    if q2 < 2:
        raise InvalidInputError(f"field size q2 = {q2} must be at least 2")
    if k < 0 or k > n:
        return 0
    num = den = 1
    for i in range(k):
        num *= q2 ** (n - i) - 1
        den *= q2 ** (i + 1) - 1
    return num // den


def count_flags(partition: Partition, q2: int) -> int:
    total = 1
    remaining = partition.total
    for part in partition.parts:
        total *= gaussian_binomial(remaining, part, q2)
        remaining -= part
    return total


def _rref_blocks(n: int, k: int) -> Iterator[tuple[tuple[int, ...], list[tuple[int, int]]]]:
    """The pivot columns of k-dimensional reduced bases of F^n in order,
    each with the free cells, row by row, that its bases fill."""
    for pivots in itertools.combinations(range(n), k):
        yield pivots, [(r, c) for r in range(k) for c in range(pivots[r] + 1, n) if c not in pivots]


def _rref(field: QuadraticExtension, n: int, pivots, cells, values) -> tuple[Vec, ...]:
    rows = [[field.zero] * n for _ in pivots]
    for r, p in enumerate(pivots):
        rows[r][p] = field.one
    for (r, c), v in zip(cells, values):
        rows[r][c] = v
    return tuple(map(tuple, rows))


def _extend(
    field: QuadraticExtension, n: int, basis: tuple[Vec, ...], quotient: tuple[Vec, ...]
) -> tuple[Vec, ...]:
    """The reduced basis of span(basis) + U, where ``quotient`` is the
    reduced basis of U in the coordinates off the pivots of ``basis``.

    Those coordinates span a complement of span(basis), so the quotient
    basis embeds into F^n already reduced against ``basis``, and clearing
    its pivot columns from the rows of ``basis`` leaves the union reduced.
    """
    mul, sub = field.mul_table, field.sub_table
    taken = {pivot(row) for row in basis}
    free = [c for c in range(n) if c not in taken]
    rows = []
    for row in quotient:
        full = [0] * n
        for c, x in zip(free, row):
            full[c] = x
        rows.append((free[pivot(row)], tuple(full)))
    added = list(rows)
    for vec in basis:
        p = pivot(vec)
        for c, full in added:
            a = vec[c]
            if a:
                scale = mul[a]
                vec = tuple([sub[x][scale[y]] for x, y in zip(vec, full)])
        rows.append((p, vec))
    rows.sort()
    return tuple(row for _, row in rows)


def enumerate_flags(
    field: QuadraticExtension,
    partition: Partition,
    budget: int = DEFAULT_BUDGET,
) -> list[Flag]:
    """Every flag of the given shape, depth first, refused with the count
    estimate before the first is built when it exceeds the budget.  Each
    V_{i + 1} is V_i + U for exactly one U among the reduced bases of the
    coordinates off the pivots of V_i, which span a complement of V_i; a
    level lists them by ``_rref_blocks`` and then by the free cells."""
    n, q2 = partition.total, field.p * field.p
    count = count_flags(partition, q2)
    if count > budget:
        raise BudgetExceededError(count, budget)
    chains, dim = [()], 0
    for part in partition.parts[:-1]:
        quotients = [
            _rref(field, n - dim, pivots, cells, values)
            for pivots, cells in _rref_blocks(n - dim, part)
            for values in itertools.product(range(q2), repeat=len(cells))
        ]
        chains = [(*c, _extend(field, n, c[-1] if c else (), u)) for c in chains for u in quotients]
        dim += part
    # the identity rows: V_t = F^n
    top = _rref(field, n, range(n), (), ())
    return [Flag(partition, (*chain, top)) for chain in chains]


def profile_histogram(field: QuadraticExtension, partition: Partition) -> Histogram:
    """The orbit sizes of the flags, keyed by the flat coset matrix of
    the orbit, from an orbit-stabiliser certificate that visits one
    representative per orbit.  For each coset matrix s, the
    representative F_s of ``_representative`` must have profile s, and
    its orbit under H = GL_n(F_q) has |H| / |A_s^x| flags, where
    A_s = {X in M_n(F_q) : X V_i <= V_i for every i}:

    - h in H fixes F_s exactly when h lies in A_s, and the inverse of an
      invertible X in A_s is a polynomial in X: the stabiliser is A_s^x.
      ``_stabiliser_dim`` measures dim A_s; N(s) is left to the tests.
    - rad A is nilpotent, so x is a unit of A exactly when it is one
      modulo rad A: |A^x| = |rad A| |(A / rad A)^x|.
    - Over F_{q^2}, A_s spans the algebra S of the X that keep F_s and
      theta F_s.  The graded pieces S_ab split both, so X in S maps S_ab
      into the sum of the S_cd with c <= a and d <= b, and S / rad S is
      the product of the End(S_ab).  theta fixes each S_aa and swaps S_ab
      with S_ba, so A_s / rad A_s is the theta-compatible Levi L_s =
      prod_a M_{s_aa}(F_q) x prod_{a<b} M_{s_ab}(F_{q^2}), of dimension
      sum_ab s_ab^2, and |A_s^x| = q^(dim A_s - sum_ab s_ab^2) |L_s^x|.

    The profile is H-invariant, so the profile classes partition the
    flags and the orbit of F_s lies in the class of s: if the sizes of
    distinct matrices sum to ``count_flags``, each class is one orbit and
    none is missing.  ``CertificationError`` otherwise, or when a size is
    not an integer.
    """
    q, histogram = field.p, {}
    group = _gl(partition.total, q)
    for s in enumerate_coset_matrices(partition, CaseTag.ODD):
        key, (profile, flag, _) = s.flat(), _representative(s, q)
        if profile != s:
            raise CertificationError(f"representative of {list(key)} has profile {list(profile.flat())}")
        if key in histogram:
            raise CertificationError(f"coset matrix {list(key)} is listed twice")
        e, t = s.entries, s.size
        levi = math.prod(_gl(e[a][b], q * q if a < b else q) for a in range(t) for b in range(a, t))
        size = group / (Fraction(q) ** (_stabiliser_dim(field, flag) - sum(x * x for x in key)) * levi)
        if size.denominator != 1:
            raise CertificationError(f"the orbit of {list(key)} would have {size} flags")
        histogram[key] = size.numerator
    count = count_flags(partition, q * q)
    if sum(histogram.values()) != count:
        raise CertificationError(f"orbit sizes sum to {sum(histogram.values())}, not to {count} flags")
    return histogram


def _gl(k: int, q: int) -> int:
    return math.prod(q**k - q**i for i in range(k))


def _stabiliser_dim(field: QuadraticExtension, flag: Flag) -> int:
    """dim {X in M_n(F_q) : X V_i <= V_i}: n^2 less the rank of w_c X v = 0
    and its Frobenius image, v in the reduced basis B of V_i, since u is in
    V_i when w_c u = 0 for w_c = e_c - sum_r B_r[c] e_{p_r}, c off pivots p_r.
    A condition is its nonzero entries, that of X[a][j] at a n + j."""
    n = flag.partition.total
    mul, neg, frob = field.mul_table, field.neg_table, field.frob_table
    rows = []
    for basis in flag.bases[:-1]:
        pivots = [pivot(row) for row in basis]
        for c in (c for c in range(n) if c not in pivots):
            w = [(c, field.one)] + [(p, neg[row[c]]) for p, row in zip(pivots, basis) if row[c]]
            for v in basis:
                condition = {a * n + j: mul[x][y] for a, x in w for j, y in enumerate(v) if y}
                image = {k: frob[x] for k, x in condition.items()}
                rows += [condition] if image == condition else [condition, image]
    return n * n - field.rank(rows)


def _rank_row(
    field: QuadraticExtension, basis: tuple[Vec, ...], lower: tuple[tuple[Vec, ...], ...]
) -> tuple[int, ...]:
    """dim(V meet theta W) for W each span of ``lower`` and then V itself,
    where V is the span of the reduced basis ``basis`` and W lies in V.

    dim(V meet theta W) = dim W - rank of theta W modulo V, and a row
    reduced against the pivots of V is zero on every pivot column, so
    one pass of eliminations against the pivot rows gives the residual.
    For W = V no elimination is needed: theta fixes the 0/1 pivot
    entries, so theta s - s, which is -2l times the imaginary part of s,
    is already the residual of theta s for every row s of V.  That rank
    depends only on the imaginary parts x % q of the entries, so it is
    looked up by that pattern in ``_diagonal``.
    """
    mul, sub, frob = field.mul_table, field.sub_table, field.frob_table
    pivots = [(pivot(row), row) for row in basis] if lower else []
    out = []
    for w_basis in lower:
        residuals = []
        for w in w_basis:
            v = [frob[x] for x in w]
            for p, row in pivots:
                c = v[p]
                if c:
                    scale = mul[c]
                    v = [sub[x][scale[y]] for x, y in zip(v, row)]
            if any(v):
                residuals.append(v)
        out.append(len(w_basis) - _rank(field, residuals))
    p = field.p
    out.append(_diagonal(p, len(basis), tuple([x % p for row in basis for x in row])))
    return tuple(out)


@functools.lru_cache(maxsize=4096)
def _diagonal(p: int, dim: int, pattern: tuple[int, ...]) -> int:
    """dim V - rank of the imaginary parts of V's reduced rows, given as
    the imaginary parts ``pattern`` of their entries, row after row.  A
    part b is the base-field element b q of F_{q^2}."""
    field = QuadraticExtension(p)
    n = len(pattern) // dim
    rows = [pattern[i : i + n] for i in range(0, len(pattern), n)]
    imaginary = [[b * p for b in row] for row in rows if any(row)]
    return dim - _rank(field, imaginary)


def _rank(field: QuadraticExtension, nonzero_rows: list[list[int]]) -> int:
    """Rank of nonzero rows, with no row reduction for two or fewer: two
    rows u, v have rank one exactly when v is u times v[c] / u[c], c the
    pivot of u."""
    if len(nonzero_rows) != 2:
        return field.rank(nonzero_rows) if len(nonzero_rows) > 2 else len(nonzero_rows)
    u, v = nonzero_rows
    c = pivot(u)
    scale = field.mul_table[field.mul_table[v[c]][field.inv_table[u[c]]]]
    return 1 if [scale[x] for x in u] == v else 2


def flag_profile(flag: Flag, field: QuadraticExtension) -> CosetMatrix:
    """Coset matrix of the flag's orbit under the base-field group, by
    inclusion-exclusion on its table r[i][j] = dim(V_i meet theta V_j)
    from ``_rank_rows``, which refuses bases that are not row-reduced."""
    return _profile_from_rows(flag.partition.parts, _rank_rows(field, flag.bases[:-1]))


def _rank_rows(field: QuadraticExtension, bases: tuple[tuple[Vec, ...], ...]) -> Table:
    """The rank table of the bases of V_1, ..., V_{t - 1}, V_t being F^n.
    Its ranks are read off the pivots, so a basis that is not row-reduced,
    as none built by this package is, raises ``InvalidInputError``, by
    ``QuadraticExtension.is_reduced`` once per basis, with no reduction."""
    if not all(map(field.is_reduced, bases)):
        raise InvalidInputError("flag bases must be row-reduced")
    return tuple(_rank_row(field, basis, bases[:i]) for i, basis in enumerate(bases))


def _square(parts: tuple[int, ...], rows: Table) -> list[list[int]]:
    """r[i][j] = dim(V_i meet theta V_j) for 0 <= i, j <= t = len(parts),
    from the rows r[i][1..i], i < t, of a rank table.  The table is
    symmetric, because the twist is an involution and carries V_i meet
    theta V_j onto theta V_i meet V_j, its row and column 0 are zero, and
    its last row and column are the dimensions, because
    V_t = theta V_t = F^n."""
    t = len(parts)
    dims = [0, *itertools.accumulate(parts)]
    r = [[0] * (t + 1) for _ in range(t + 1)]
    for i, row in enumerate(rows, 1):
        for j, x in enumerate(row, 1):
            r[i][j] = r[j][i] = x
    for i in range(1, t + 1):
        r[i][t] = r[t][i] = dims[i]
    return r


@functools.lru_cache(maxsize=1024)
def _profile_from_rows(parts: tuple[int, ...], rows: Table) -> CosetMatrix:
    """The validated coset matrix of a rank table, built once per
    distinct table: the representatives and sampled flags of a point
    repeat a few tables on every command, and an invalid one raises on
    every call, since a raise is not cached.  Entry (i, j) is
    r[i][j] - r[i - 1][j] - r[i][j - 1] + r[i - 1][j - 1] on the table
    of ``_square``.
    """
    t = len(parts)
    r = _square(parts, rows)
    entries = tuple([
        tuple([
            r[i][j] - r[i - 1][j] - r[i][j - 1] + r[i - 1][j - 1]
            for j in range(1, t + 1)
        ])
        for i in range(1, t + 1)
    ])
    return CosetMatrix(CaseTag.ODD, Partition(parts), entries)


def representative_flag(s: CosetMatrix, field: QuadraticExtension) -> Flag:
    """Canonical flag with the given profile: V_N spans the first N
    columns of the inverse of the odd-case representative, which is
    [[1, -l], [1, l]] on each position p of a block (i, j), i < j, and its
    partner q, the position of the same offset in block (j, i), and 1
    elsewhere on the diagonal.  Columns p and q of the inverse span e_p
    and e_q, and column p alone spans e_p - e_q / l, so V_N has the
    reduced basis e_c, c < N, save e_c - e_q / l where c pairs with q >= N."""
    if s.case is not CaseTag.ODD:
        raise InvalidInputError("representative flags exist in the odd case only")
    layout = fine_layout(s)
    start = dict(zip([(i, j) for i, j, _ in layout.blocks], layout.start_pos))
    partner = {  # 0-based positions
        a + x: start[j, i] + x for (i, j, k), a in zip(layout.blocks, layout.start_pos)
        if i < j for x in range(-1, k - 1)}
    coefficient = field.neg_table[field.inv_table[field.lam]]  # -1/l

    def row(c: int, dim: int) -> Vec:
        v = [field.zero] * s.n
        v[c] = field.one
        if c in partner and partner[c] >= dim:
            v[partner[c]] = coefficient
        return tuple(v)

    levels = itertools.accumulate(s.partition.parts)
    return Flag(s.partition, tuple(tuple(row(c, dim) for c in range(dim)) for dim in levels))


def _pieces(flag: Flag, field: QuadraticExtension, table: Table) -> GradedPieces:
    """The graded pieces S_{i,j} of the twist decomposition of ``flag``,
    given ``table``, the ``_rank_rows`` of its bases V_1, ..., V_{t - 1}.

    S_{i,j} completes w = meet[i][j - 1] + meet[i - 1][j] to the corner
    meet[i][j] = V_i meet theta V_j, as the vectors of the corner's
    reduced basis that ``extend_to_complement`` picks.  For i < j the
    Frobenius image of S_{i,j} is used at (j, i); the diagonal pieces
    are Frobenius-stable.  V_t is F^n.

    The rank table r[i][j] = dim meet[i][j] of ``_rank_rows`` settles
    most of this without a reduction, and every short cut gives the
    reduced basis that the reduction would, since that basis is unique:

    - a corner, i <= j, of dimension 0 is () and one of dimension
      dim V_i is V_i, so meet[i][t] = V_i; only the other corners need
      Zassenhaus, and theta carries meet[i][j] onto meet[j][i];
    - dim w = r[i][j - 1] + r[i - 1][j] - r[i - 1][j - 1], since the two
      summands meet in meet[i - 1][j - 1], and w lies in the corner; so
      w that has the dimension of the corner or of one summand is that
      space, with no ``sum_spaces``;
    - the complement of w = () is the whole corner, and that of w equal
      to the corner is ().

    The diagonal corner and its w are Frobenius-stable, and a span is
    stable exactly when its reduced basis B has base-field entries:
    theta B is the reduced basis of theta of the span, theta fixing the
    pivot entries 0 and 1.  Then B is also the reduced basis of the
    fixed points, so the pieces are chosen inside them, and a diagonal
    span with another entry raises ``InvalidInputError``.
    """
    parts = flag.partition.parts
    t, n = len(parts), flag.partition.total
    # V_t = F^n, as the identity rows
    bases = ((),) + flag.bases[:-1] + (_rref(field, n, range(n), (), ()),)
    r = _square(parts, table)
    frob = field.vec_frob
    meet: list[list[tuple[Vec, ...]]] = [[()] * (t + 1) for _ in range(t + 1)]
    for i in range(1, t + 1):
        for j in range(i, t + 1):
            if r[i][j] == len(bases[i]):
                meet[i][j] = bases[i]
            elif r[i][j]:
                meet[i][j] = field.intersect(bases[i], tuple(map(frob, bases[j])))
            if i < j:
                meet[j][i] = tuple(map(frob, meet[i][j]))
    out: GradedPieces = {}
    for i in range(1, t + 1):
        for j in range(i, t + 1):
            u = meet[i][j]
            dim_w = r[i][j - 1] + r[i - 1][j] - r[i - 1][j - 1]
            if dim_w == r[i][j]:
                w = u
            elif dim_w == r[i][j - 1]:
                w = meet[i][j - 1]
            elif dim_w == r[i - 1][j]:
                w = meet[i - 1][j]
            else:
                w = field.sum_spaces(meet[i][j - 1], meet[i - 1][j])
            # an entry outside F_q: the diagonal span is not stable
            if i == j and any(x % field.p for row in u + w for x in row):
                raise InvalidInputError("span is not Frobenius-stable")
            if not w:
                comp = u
            elif len(w) == len(u):
                comp = ()
            else:
                comp = field.extend_to_complement(w, u)
            out[(i, j)] = comp
            if i < j:
                out[(j, i)] = tuple(map(frob, comp))
    return out


@functools.lru_cache(maxsize=1024)
def _representative(profile: CosetMatrix, q: int) -> tuple[CosetMatrix, Flag, Table]:
    """The profile, canonical representative over F_{q^2} and rank table
    of ``profile``, once per (profile, q) in a process; not to be mutated."""
    field = QuadraticExtension(q)
    flag = representative_flag(profile, field)
    table = _rank_rows(field, flag.bases[:-1])
    return _profile_from_rows(profile.partition.parts, table), flag, table


@functools.lru_cache(maxsize=1024)
def _representative_pieces(profile: CosetMatrix, q: int) -> GradedPieces:
    """The graded pieces of ``_representative``, which only reductions need."""
    _, flag, table = _representative(profile, q)
    return _pieces(flag, QuadraticExtension(q), table)


def reduce_to_representative(flag: Flag, field: QuadraticExtension) -> list[Vec]:
    """Base-field matrix carrying the flag onto the canonical
    representative of its profile.

    The flag's rank table is computed once and gives both its profile
    and its graded pieces.  Sends each graded piece of the flag onto the
    matching piece of the representative; off-diagonal partners are
    mapped by the Frobenius transport of each other, so the assembled
    matrix commutes with the twist and therefore has base-field entries.
    """
    table = _rank_rows(field, flag.bases[:-1])
    own = _profile_from_rows(flag.partition.parts, table)
    dst = _representative_pieces(own, field.p)
    src = _pieces(flag, field, table)
    # every (i, j) of 1..t, in order
    keys = sorted(src)
    if [len(src[k]) for k in keys] != [len(dst.get(k, ())) for k in keys]:
        raise InvalidInputError("graded pieces of flag and representative differ")
    src_vecs = [v for k in keys for v in src[k]]
    if len(src_vecs) != flag.partition.total:
        raise InvalidInputError("graded pieces do not decompose the space")
    return field.solve(src_vecs, [v for k in keys for v in dst[k]])


def reduction_fault(flag: Flag, field: QuadraticExtension, profile: CosetMatrix) -> str | None:
    """The oracle's one orbit check: None when ``reduce_to_representative``
    gives a base-field matrix h that carries each V_i of the flag onto
    the V_i of the representative of ``profile``, the orbit the flag must
    lie in, else what went wrong; an input error or a singular system
    inside the reduction or the representative fails the check."""
    try:
        h = reduce_to_representative(flag, field)
        target = _representative(profile, field.p)[1]
        if not all(field.in_base(x) for row in h for x in row):
            return "the reduction has an entry outside F_q"
        # a singular h drops a dimension, which Flag refuses
        if _carry(field, h, flag) != target:
            return "the reduction does not carry the flag onto its representative"
    except (InvalidInputError, ZeroDivisionError) as exc:
        return str(exc)
    return None


def translate(flag: Flag, field: QuadraticExtension) -> Flag:
    """g F for the cyclic shift e_j -> e_{j + 1} (mod n) times the unipotent
    J = 1 + the superdiagonal of ones, so g e_0 = e_1 and g e_j = e_j +
    e_{j + 1}.  g moves every representative of two parts or more of the
    compositions of n <= 8 at q = 3, n <= 6 at q = 5 and n <= 5 at q = 7."""
    n, one, zero = flag.partition.total, field.one, field.zero
    # row i of the shift times J is row i - 1 of J
    g = [[one if j - (i - 1) % n in (0, 1) else zero for j in range(n)] for i in range(n)]
    return _carry(field, g, flag)


def _carry(field: QuadraticExtension, g: list[Vec], flag: Flag) -> Flag:
    """g F, each level reduced again, for g given by its rows: g v is the
    sum of v[j] times column j of g."""
    mul, add = field.mul_table, field.add_table
    columns = list(zip(*g))
    bases = []
    for basis in flag.bases:
        rows = []
        for v in basis:
            out = [field.zero] * len(v)
            for x, column in zip(v, columns):
                if x:
                    scale = mul[x]
                    out = [add[a][scale[b]] for a, b in zip(out, column)]
            rows.append(out)
        bases.append(field.rref(rows))
    return Flag(flag.partition, tuple(bases))


def sample_stride(count: int) -> int:
    """The oracle checks the orbits at 0, stride, 2 stride, ... of a
    partition's coset matrices: all of fewer than 20, else 10 to 19."""
    return max(1, count // 10)


class FlagCache:
    """On-disk cache of flag oracle orbit histograms keyed by (q, partition).

    A file is the text of json.dumps({"version": 5, "crc32": c, "orbits":
    [[profile, size], ...]}), c the CRC-32 of the UTF-8 bytes of
    json.dumps({"orbits": [...]}).  A file that is missing, unreadable,
    of another version, whose text does not match its checksum, or whose
    orbits are not distinct flat t x t int profiles with int sizes >= 1
    that sum to the flag count is a miss, so the caller recomputes and
    rewrites it; a hit is what ``store`` wrote, and its sizes are
    trusted.  Writes go to a temporary file that then replaces the
    entry, so a reader never sees a partial file, and the entry has the
    mode of any file the process creates.
    """

    def __init__(self, directory: str):
        self.directory = directory
        try:
            os.makedirs(directory, exist_ok=True)
        except OSError as exc:
            message = f"cannot make cache directory {directory}: {exc.strerror}"
            raise InvalidInputError(message) from None

    def _path(self, q: int, partition: Partition) -> str:
        parts = "-".join(str(p) for p in partition.parts)
        return os.path.join(self.directory, f"flags_v{CACHE_VERSION}_q{q}_{parts}.json")

    def load(self, q: int, partition: Partition) -> Histogram | None:
        head = f'{{"version": {CACHE_VERSION}, "crc32": '
        try:
            with open(self._path(q, partition), encoding="utf-8") as fh:
                text = fh.read()
            at = text.find(", ", len(head))
            if not text.startswith(head) or at < 0:
                return None
            body = "{" + text[at + 2:]
            if text[len(head):at] != str(zlib.crc32(body.encode())):
                return None
            data = json.loads(body)
        except (OSError, ValueError):
            # a missing or unreadable file, bytes that are not UTF-8, or
            # orbits that are not JSON
            return None
        orbits = data.get("orbits") if type(data) is dict and len(data) == 1 else None
        # types compared exactly: JSON true and 1.0 compare equal to 1
        if type(orbits) is not list or not all(
            type(o) is list and len(o) == 2 and type(o[1]) is int and o[1] > 0
            and type(o[0]) is list and len(o[0]) == len(partition) ** 2
            and all(type(x) is int for x in o[0])
            for o in orbits
        ):
            return None
        histogram = {tuple(profile): size for profile, size in orbits}
        if len(histogram) != len(orbits) or sum(histogram.values()) != count_flags(partition, q**2):
            return None
        return histogram

    def store(self, q: int, partition: Partition, histogram: Histogram) -> None:
        orbits = [[list(key), size] for key, size in sorted(histogram.items())]
        body = json.dumps({"orbits": orbits})
        crc = zlib.crc32(body.encode())
        fd, tmp = tempfile.mkstemp(dir=self.directory, prefix=".flags-", suffix=".tmp")
        # mkstemp makes the file 0600; an entry gets the mode that open
        # gives a new file, so others sharing the directory can read it
        umask = os.umask(0)
        os.umask(umask)
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                os.fchmod(fd, 0o666 & ~umask)
                fh.write(f'{{"version": {CACHE_VERSION}, "crc32": {crc}, ' + body[1:])
            os.replace(tmp, self._path(q, partition))
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
