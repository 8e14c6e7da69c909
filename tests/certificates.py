"""Certificates behind the acceptance criteria, kept with the tests.

No command runs these: they certify the coset combinatorics that the
decision procedure rests on.  ``compose``, ``inverse``, ``identity``,
``reversal`` and ``is_involution`` are the permutation arithmetic they
and the tests use.  ``build_ws_even`` and
``extract_permutation_odd`` give explicit representatives in the two
cases and check them against the position involution of
``cosets.block_involution``; ``root_action`` tabulates the signs of
Levi roots under that involution; ``minimal_orbit_analysis`` filters
every orbit on the minimal partition through ``orbit_supports``;
``flag_pair_dim`` and ``stabiliser_order`` give the stabiliser of a
representative flag in closed form, for the mass formula.
``reference_coset_matrices`` is the cell-by-cell enumerator that
``enumerate_coset_matrices`` and ``CosetMatrix``'s checks are held to;
``reference_fine_layout`` and ``reference_coarsen`` are the cell-by-cell
loops that ``fine_layout`` and ``coarsen`` are checked against, and
``reference_open_mask`` the dominance scan that ``open_mask``'s closed
form is checked against.  ``supporting_coset_matrices`` generates the
orbits of a partition that support a character; the tests run it at
every step of the decision to check the coarsening lemma the engine
rests on.  ``decision`` draws a decision's trace whole, and
``verdict_dict`` is the dict whose ``json.dumps`` text ``steinberg
--format json`` must write.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cache
from math import prod
from operator import le
from typing import Iterator

from steinberg_distinction.characters import (
    ChiToken,
    SupportReport,
    minimal_partition,
    orbit_supports,
)
from steinberg_distinction.cosets import (
    CaseTag,
    CosetMatrix,
    FineLayout,
    InvalidInputError,
    Partition,
    Permutation,
    _rank_table,
    block_involution,
    build_us_odd,
    enumerate_coset_matrices,
    fine_layout,
    validate_m_d,
)
from steinberg_distinction.engine import VerdictStatus, steinberg_decision
from steinberg_distinction.lfactor import RationalFunc


def reference_coset_matrices(partition: Partition, case: CaseTag) -> list[CosetMatrix]:
    """``enumerate_coset_matrices`` by brute force: each cell of the upper
    triangle takes every value up to what its row and column still owe,
    a row is kept only once it owes nothing, and the matrices are sorted
    into canonical order (descending lexicographic on ``flat()``)."""
    if case is CaseTag.EVEN and partition.total % 2:
        return []
    t = len(partition)
    results: list[CosetMatrix] = []
    entries = [[0] * t for _ in range(t)]
    remaining = list(partition.parts)

    def fill(i: int, j: int) -> Iterator[None]:
        if i == t:
            yield None
            return
        if j == t:
            if remaining[i] == 0:
                yield from fill(i + 1, i + 1)
            return
        if i == j:
            step = 2 if case is CaseTag.EVEN else 1
            top = remaining[i]
            for v in range(0, top + 1, step):
                entries[i][i] = v
                remaining[i] -= v
                yield from fill(i, j + 1)
                remaining[i] += v
            entries[i][i] = 0
        else:
            top = min(remaining[i], remaining[j])
            for v in range(top + 1):
                entries[i][j] = entries[j][i] = v
                remaining[i] -= v
                remaining[j] -= v
                yield from fill(i, j + 1)
                remaining[i] += v
                remaining[j] += v
            entries[i][j] = entries[j][i] = 0

    for _ in fill(0, 0):
        results.append(CosetMatrix(case, partition, tuple(tuple(row) for row in entries)))
    results.sort(key=lambda s: s.flat(), reverse=True)
    return results


def decision(
    case: CaseTag, m: int, chi: ChiToken
) -> tuple[VerdictStatus, tuple[SupportReport, ...]]:
    """``steinberg_decision`` with its trace drawn whole."""
    status, trace = steinberg_decision(case, m, chi)
    return status, tuple(trace)


def verdict_dict(
    case: CaseTag, m: int, d: int, chi: ChiToken, status: VerdictStatus, trace
) -> dict:
    """A decision as the dict whose ``json.dumps(..., indent=2)`` text
    ``steinberg --format json`` writes: each trace entry names its
    partition, then holds the report."""
    return {
        "case": case.value,
        "m": m,
        "d": d,
        "chi": chi.value,
        "status": status.value,
        "multiplicity": status.multiplicity,
        "trace": [
            {"partition": list(rep.s.partition.parts), "report": rep.to_json()}
            for rep in trace
        ],
    }


def reference_fine_layout(s: CosetMatrix) -> FineLayout:
    """``fine_layout`` cell by cell: the nonzero cells in row-major
    order, and their running start positions."""
    blocks = []
    for i in range(s.size):
        for j in range(s.size):
            if s.entries[i][j] > 0:
                blocks.append((i + 1, j + 1, s.entries[i][j]))
    starts = []
    pos = 1
    for _, _, k in blocks:
        starts.append(pos)
        pos += k
    return FineLayout(blocks=tuple(blocks), start_pos=tuple(starts))


def reference_coarsen(s: CosetMatrix, merge_index: int) -> CosetMatrix:
    """``coarsen`` cell by cell: a list per row, the merged row summed
    entry by entry."""
    t = s.size
    k = merge_index
    if not 1 <= k < t:
        raise InvalidInputError(f"merge index {k} out of range for size {t}")
    k -= 1
    rows = []
    for i in list(range(k)) + [None] + list(range(k + 2, t)):
        if i is None:
            row = [s.entries[k][j] + s.entries[k + 1][j] for j in range(t)]
        else:
            row = list(s.entries[i])
        merged = row[:k] + [row[k] + row[k + 1]] + row[k + 2 :]
        rows.append(tuple(merged))
    parts = s.partition.parts
    new_parts = parts[:k] + (parts[k] + parts[k + 1],) + parts[k + 2 :]
    return CosetMatrix(s.case, Partition(new_parts), tuple(rows))


def reference_open_mask(matrices: list[CosetMatrix]) -> list[bool]:
    """``open_mask`` by a dominance scan of the rank tables.

    A matrix lies strictly below another iff its rank table dominates
    the other's entrywise and differs, which strictly raises the sum of
    the table.  Visiting by ascending rank sum, every maximal matrix
    above a matrix comes before it, so a matrix is open iff no open
    matrix visited earlier lies above it."""
    ranks = list(map(_rank_table, matrices))
    opens = [False] * len(matrices)
    tops: list[tuple[int, ...]] = []
    for i in sorted(range(len(matrices)), key=lambda i: sum(ranks[i])):
        r = ranks[i]
        if not any(all(map(le, top, r)) for top in tops):
            opens[i] = True
            tops.append(r)
    return opens


def supporting_coset_matrices(
    partition: Partition, case: CaseTag, chi: ChiToken
) -> list[CosetMatrix]:
    """Coset matrices whose orbits support ``chi``, in canonical order.

    Equal to filtering ``enumerate_coset_matrices`` through
    ``orbit_supports``, which stays the brute-force oracle, but only the
    supporting matrices are generated.  Support holds iff the row-major
    fine layout mirrors itself: the block (i, j) of size k and its
    partner (j, i) satisfy start(i, j) + start(j, i) + k = n + 2 with
    1-based starts (a diagonal block is centred), and ``eta`` admits no
    diagonal block.  The upper triangle is filled row by row as in the
    enumeration, larger value first; when cell (i, j) is reached both
    starts are already fixed by the row sums and the placed entries, so
    the rule leaves one nonzero value for the cell.  Backtracking runs
    on an explicit stack of placed cells, not on recursion.
    """
    if not isinstance(partition, Partition):
        raise InvalidInputError("partition must be a Partition")
    t = len(partition)
    n = partition.total
    # ends[x] - remaining[x] positions precede the next free unit of row x
    ends = list(itertools.accumulate(partition.parts))
    remaining = list(partition.parts)
    entries = [[0] * t for _ in range(t)]
    step = 2 if case is CaseTag.EVEN else 1
    results: list[CosetMatrix] = []
    placed: list[tuple[int, int]] = []
    i = j = 0
    while True:
        if i < t and remaining[i] == 0:
            i = j = i + 1  # the rest of the row stays zero
            continue
        if i == t:
            results.append(
                CosetMatrix(case, partition, tuple(tuple(row) for row in entries))
            )
        elif j < t:
            k = n - (ends[i] - remaining[i]) - (ends[j] - remaining[j])
            # k only shrinks along the row, so k < 1 leaves row i unfillable
            if k >= 1:
                if k <= min(remaining[i], remaining[j]) and (
                    i != j or (chi is ChiToken.TRIV and k % step == 0)
                ):
                    entries[i][j] = entries[j][i] = k
                    remaining[i] -= k
                    if i != j:
                        remaining[j] -= k
                    placed.append((i, j))
                j += 1
                continue
        # complete or dead end: empty the last placed cell and move past it
        if not placed:
            return results
        i, j = placed.pop()
        k = entries[i][j]
        entries[i][j] = entries[j][i] = 0
        remaining[i] += k
        if i != j:
            remaining[j] += k
        j += 1


def compose(*perms: Permutation) -> Permutation:
    """The product of the permutations, the last applied first: compose(a,
    b)(p) = a(b(p))."""
    images = tuple(range(1, len(perms[0].images) + 1))
    for perm in reversed(perms):
        images = tuple(perm(p) for p in images)
    return Permutation(images)


def inverse(perm: Permutation) -> Permutation:
    inv = [0] * len(perm.images)
    for p, q in enumerate(perm.images, start=1):
        inv[q - 1] = p
    return Permutation(tuple(inv))


def is_involution(perm: Permutation) -> bool:
    return all(perm(perm(p)) == p for p in range(1, len(perm.images) + 1))


def identity(n: int) -> Permutation:
    return Permutation(tuple(range(1, n + 1)))


def reversal(n: int) -> Permutation:
    return Permutation(tuple(range(n, 0, -1)))


def _even_segments(s: CosetMatrix) -> list[tuple[str, int, int, int]]:
    """Palindromic block layout of the even-case representative.

    Returns segments (kind, i, j, length) in order; kinds are "D1"/"D2"
    for the two halves of a diagonal block and "U"/"L" for the strictly
    upper/lower blocks.  The second half is the mirror image of the
    first, so the order-reversing permutation maps segment to partner
    segment reversing each.
    """
    first: list[tuple[str, int, int, int]] = []
    t = s.size
    for i in range(1, t + 1):
        half = s.entries[i - 1][i - 1] // 2
        if half:
            first.append(("D1", i, i, half))
        for j in range(i + 1, t + 1):
            if s.entries[i - 1][j - 1]:
                first.append(("U", i, j, s.entries[i - 1][j - 1]))
    second = []
    for kind, i, j, k in reversed(first):
        if kind == "D1":
            second.append(("D2", i, i, k))
        else:
            second.append(("L", j, i, k))
    return first + second


def build_ws_even(s: CosetMatrix) -> Permutation:
    """Explicit even-case representative permutation.

    Maps the palindromic layout onto the row-major layout: the two
    halves of a diagonal block land on the two halves of its row-major
    interval, off-diagonal segments land on their row-major interval
    order-preservingly.  Checked against the interval involution through
    conjugation with the order reversal; a mismatch raises RuntimeError.
    """
    if s.case is not CaseTag.EVEN:
        raise InvalidInputError("build_ws_even requires an even-case matrix")
    layout = fine_layout(s)
    lex_start = {
        (i, j): layout.start_pos[b] for b, (i, j, _) in enumerate(layout.blocks)
    }
    images = []
    for kind, i, j, k in _even_segments(s):
        base = lex_start[(i, j)] + (k if kind == "D2" else 0)
        images.extend(range(base, base + k))
    ws = Permutation(tuple(images))
    tau = block_involution(s).position_map
    if compose(ws, reversal(s.n), inverse(ws)) != tau:
        raise RuntimeError(
            f"explicit even-case representative is inconsistent for {s.to_json()}"
        )
    return ws


def _inverse(a: list[list[RationalFunc]], zero: RationalFunc, one: RationalFunc) -> list[list[RationalFunc]]:
    """Gauss-Jordan inverse of a square matrix over Q(l); zero entries (no
    numerator) are skipped."""
    n = len(a)
    rows = [list(row) + [one if i == j else zero for j in range(n)] for i, row in enumerate(a)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if rows[r][col].num), None)
        if pivot is None:
            raise InvalidInputError("representative matrix is singular")
        rows[col], rows[pivot] = rows[pivot], rows[col]
        p = rows[col][col]
        if p != one:
            rows[col] = [x if not x.num else x / p for x in rows[col]]
        for r in range(n):
            f = rows[r][col]
            if r != col and f.num:
                rows[r] = [x if not y.num else x - f * y for x, y in zip(rows[r], rows[col])]
    return [row[n:] for row in rows]


def extract_permutation_odd(s: CosetMatrix) -> Permutation:
    """Involution read off from u_s applied to the twist of its inverse.

    Computed exactly over Q(l), with l the v of ``RationalFunc``: u times
    (twist of u) inverse, where the twist negates l, is a permutation
    matrix; its permutation is returned.
    """
    u = build_us_odd(s)
    zero, one = RationalFunc.from_expr([], [[1]]), RationalFunc.one()
    lam = RationalFunc.from_expr([[0, 1]], [[1]])
    neg = RationalFunc.from_expr([[0, -1]], [[1]])
    m = u.substitute(zero, one, lam, neg)
    inv = _inverse(u.substitute(zero, one, neg, lam), zero, one)
    n = s.n
    images = [0] * n
    for col in range(n):
        hits = []
        for row in range(n):
            w = zero
            for k in range(n):
                if m[row][k].num and inv[k][col].num:
                    w = w + m[row][k] * inv[k][col]
            if w.num:
                hits.append((row, w))
        if len(hits) != 1 or hits[0][1] != one:
            raise InvalidInputError(
                f"representative product is not a permutation matrix for {s.to_json()}"
            )
        # column col holds the image of basis vector col
        images[col] = hits[0][0] + 1
    return Permutation(tuple(images))


@dataclass(frozen=True)
class RootActionReport:
    """Sign table of the position involution on Levi-positive roots.

    A root is an ordered pair (p, q), p != q; it is positive when p < q.
    Levi roots live inside a coarse block.  The guarantee (zero
    ``violations``) applies to Levi roots joining two distinct fine
    blocks; roots internal to a single fine block can flip sign in the
    even case (diagonal and paired blocks are reversed there) and are
    reported separately.
    """

    s: CosetMatrix
    sign_table: tuple[tuple[tuple[int, int], tuple[int, int]], ...]
    violations: tuple[tuple[int, int], ...]
    fine_internal_flips: tuple[tuple[int, int], ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def root_action(s: CosetMatrix) -> RootActionReport:
    tau = block_involution(s).position_map
    layout = fine_layout(s)
    n = s.n
    coarse = [0] * (n + 1)
    pos = 1
    for b, part in enumerate(s.partition.parts):
        for _ in range(part):
            coarse[pos] = b
            pos += 1
    fine = [0] * (n + 1)
    for b, (start, (_, _, size)) in enumerate(zip(layout.start_pos, layout.blocks)):
        for p in range(start, start + size):
            fine[p] = b
    table = []
    violations = []
    internal_flips = []
    for p in range(1, n + 1):
        for q in range(1, n + 1):
            if p == q or coarse[p] != coarse[q]:
                continue
            img = (tau(p), tau(q))
            table.append(((p, q), img))
            preserves = (p < q) == (img[0] < img[1])
            if not preserves:
                if fine[p] == fine[q]:
                    internal_flips.append((p, q))
                else:
                    violations.append((p, q))
    return RootActionReport(
        s=s,
        sign_table=tuple(table),
        violations=tuple(violations),
        fine_internal_flips=tuple(internal_flips),
    )


def minimal_orbit_analysis(
    case: CaseTag, m: int, d: int, chi: ChiToken
) -> list[CosetMatrix]:
    """Supporting orbits on the minimal partition (expected: at most the
    anti-diagonal one)."""
    validate_m_d(case, m, d)
    partition = minimal_partition(case, m)
    return [
        s
        for s in enumerate_coset_matrices(partition, case)
        if orbit_supports(s, chi).feasible
    ]


def flag_pair_dim(s: CosetMatrix) -> int:
    """N(s), the sum of s_ab s_cd over the pairs of cells (a, b), (c, d)
    with c <= a and d <= b: the dimension of the endomorphisms that keep
    a flag and its twist in relative position s, each graded piece S_ab
    going into the sum of the S_cd below it."""
    cells = [(a, b, x) for a, row in enumerate(s.entries) for b, x in enumerate(row) if x]
    return sum(x * y for a, b, x in cells for c, d, y in cells if c <= a and d <= b)


@cache
def gl_order(k: int, q: int) -> int:
    """|GL_k(F_q)|."""
    return prod(q**k - q**i for i in range(k))


def stabiliser_order(s: CosetMatrix, q: int) -> int:
    """|Stab_H(F_s)| in closed form, from N(s) and the theta-compatible
    Levi of s.

    Odd case: H = GL_n(F_q) on the flags of F_{q^2}^n, and the order is
    q^(N(s) - sum s_ab^2) prod_a |GL_{s_aa}(F_q)| prod_{a<b}
    |GL_{s_ab}(F_{q^2})|.  Even case: H = GL_m(F_{q^2}) on the flags of
    F_q^{2m}, and it is q^((N(s) - sum s_ab^2) / 2) prod_a
    |GL_{s_aa / 2}(F_{q^2})| prod_{a<b} |GL_{s_ab}(F_q)|.
    """
    t, e = s.size, s.entries
    unipotent = flag_pair_dim(s) - sum(x * x for row in e for x in row)
    pairs = [(a, b) for a in range(t) for b in range(a + 1, t)]
    if s.case is CaseTag.ODD:
        levi = prod(gl_order(e[a][a], q) for a in range(t))
        return q**unipotent * levi * prod(gl_order(e[a][b], q * q) for a, b in pairs)
    half, odd = divmod(unipotent, 2)
    if odd:
        raise InvalidInputError(f"N(s) - sum s_ab^2 = {unipotent} is odd for {s.to_json()}")
    levi = prod(gl_order(e[a][a] // 2, q * q) for a in range(t))
    return q**half * levi * prod(gl_order(e[a][b], q) for a, b in pairs)
