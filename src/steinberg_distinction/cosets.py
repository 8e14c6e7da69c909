"""Double-coset combinatorics on twisted flag varieties.

Parabolic-by-fixed-subgroup double cosets are parametrized by symmetric
non-negative integer matrices with prescribed row sums; the even-index
case additionally forces even diagonal entries.  This module enumerates
the parameter matrices, constructs explicit representatives (a
permutation in the even case, a symbolic matrix with entries in
{0, 1, l, -l} in the odd case), the induced position involution, the
orbit-closure order by rank dominance, and the coarsening map that
forgets one step of a flag.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterator

from .lfactor import RationalFunc

__all__ = [
    "CaseTag",
    "Partition",
    "CosetMatrix",
    "FineLayout",
    "BlockInvolution",
    "Permutation",
    "SymbolicRepMatrix",
    "ClosureRelation",
    "RootActionReport",
    "InvalidInputError",
    "validate_m_d",
    "enumerate_coset_matrices",
    "fine_layout",
    "block_involution",
    "build_ws_even",
    "build_us_odd",
    "extract_permutation_odd",
    "coarsen",
    "embed_I_in_J",
    "closure_compare",
    "is_open",
    "open_mask",
    "anti_diagonal_matrix",
    "root_action",
]


class InvalidInputError(ValueError):
    """Raised when arguments violate a documented precondition."""


class CaseTag(Enum):
    """Which of the two index-parity regimes a coset matrix lives in."""

    EVEN = "even"
    ODD = "odd"


def validate_m_d(case: CaseTag, m: int, d: int) -> None:
    """Reject (m, d) outside the case: both positive, d of the case's parity."""
    if m < 1 or d < 1:
        raise InvalidInputError("m and d must be positive")
    if case is CaseTag.EVEN and d % 2:
        raise InvalidInputError("even case requires even d")
    if case is CaseTag.ODD and d % 2 == 0:
        raise InvalidInputError("odd case requires odd d")


@dataclass(frozen=True)
class Partition:
    """Ordered composition of a positive integer into positive parts."""

    parts: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.parts:
            raise InvalidInputError("partition must be nonempty")
        if any(p < 1 for p in self.parts):
            raise InvalidInputError("partition parts must be positive")

    @property
    def total(self) -> int:
        return sum(self.parts)

    def __len__(self) -> int:
        return len(self.parts)

    @classmethod
    def parse(cls, text: str) -> "Partition":
        try:
            parts = tuple(int(tok) for tok in text.split(",") if tok.strip())
        except ValueError as exc:
            raise InvalidInputError(f"bad partition {text!r}") from exc
        return cls(parts)


@dataclass(frozen=True)
class CosetMatrix:
    """Symmetric non-negative integer matrix with row sums the partition.

    Even case: diagonal entries are even (diagonal blocks carry a
    rational structure of half the size).
    """

    case: CaseTag
    partition: Partition
    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        t = len(self.partition)
        if len(self.entries) != t or any(len(r) != t for r in self.entries):
            raise InvalidInputError("entries must be a t x t matrix")
        if any(e < 0 for row in self.entries for e in row):
            raise InvalidInputError("entries must be non-negative")
        for i in range(t):
            for j in range(t):
                if self.entries[i][j] != self.entries[j][i]:
                    raise InvalidInputError("entries must be symmetric")
            if sum(self.entries[i]) != self.partition.parts[i]:
                raise InvalidInputError(
                    f"row {i} sums to {sum(self.entries[i])}, "
                    f"expected {self.partition.parts[i]}"
                )
            if self.case is CaseTag.EVEN and self.entries[i][i] % 2:
                raise InvalidInputError("diagonal entries must be even in the even case")

    @property
    def size(self) -> int:
        return len(self.partition)

    @property
    def n(self) -> int:
        return self.partition.total

    def flat(self) -> tuple[int, ...]:
        return tuple(e for row in self.entries for e in row)

    def to_json(self) -> dict:
        return {
            "case": self.case.value,
            "partition": list(self.partition.parts),
            "entries": [list(row) for row in self.entries],
        }

    @classmethod
    def from_json(cls, data: dict) -> "CosetMatrix":
        return cls(
            case=CaseTag(data["case"]),
            partition=Partition(tuple(data["partition"])),
            entries=tuple(tuple(row) for row in data["entries"]),
        )


@dataclass(frozen=True)
class FineLayout:
    """Row-major nonzero blocks of a coset matrix with their positions.

    ``blocks`` lists (row, col, size) with 1-based row/col; ``start_pos``
    gives, per block, the 1-based position of its first unit in 1..n.
    The block sizes form the refining sub-partition.
    """

    blocks: tuple[tuple[int, int, int], ...]
    start_pos: tuple[int, ...]
    sub_partition: Partition

    def interval(self, b: int) -> range:
        """Positions (1-based, inclusive start) covered by block ``b``."""
        start = self.start_pos[b]
        return range(start, start + self.blocks[b][2])


@dataclass(frozen=True)
class Permutation:
    """Bijection of {1, ..., n} given by its tuple of images."""

    images: tuple[int, ...]

    def __post_init__(self) -> None:
        n = len(self.images)
        if sorted(self.images) != list(range(1, n + 1)):
            raise InvalidInputError("images must be a bijection of 1..n")

    def __call__(self, p: int) -> int:
        return self.images[p - 1]

    def __mul__(self, other: "Permutation") -> "Permutation":
        # (self * other)(p) = self(other(p))
        return Permutation(tuple(self(other(p)) for p in range(1, len(self.images) + 1)))

    def inverse(self) -> "Permutation":
        inv = [0] * len(self.images)
        for p, q in enumerate(self.images, start=1):
            inv[q - 1] = p
        return Permutation(tuple(inv))

    def is_involution(self) -> bool:
        return all(self(self(p)) == p for p in range(1, len(self.images) + 1))

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(tuple(range(1, n + 1)))

    @classmethod
    def reversal(cls, n: int) -> "Permutation":
        return cls(tuple(range(n, 0, -1)))


@dataclass(frozen=True)
class BlockInvolution:
    """Pairing of the fine blocks together with the position involution.

    ``pairing[b]`` is the index of the partner block of block ``b``
    (blocks (i, j) and (j, i) are partners; diagonal blocks are fixed).
    ``position_map`` realizes the involution on positions 1..n: in the
    even case it reverses each fixed block and reverses across paired
    blocks; in the odd case it fixes diagonal blocks pointwise and swaps
    paired blocks preserving order.
    """

    pairing: tuple[int, ...]
    fixed_blocks: frozenset[int]
    position_map: Permutation


# Symbol codes for symbolic representative matrices.
SYM_ZERO = "0"
SYM_ONE = "1"
SYM_LAM = "l"
SYM_NEG_LAM = "-l"


@dataclass(frozen=True)
class SymbolicRepMatrix:
    """n x n matrix over the symbol set {0, 1, l, -l} (odd case)."""

    entries: tuple[tuple[str, ...], ...]

    def substitute(self, zero, one, lam, neg):
        """Instantiate over an arbitrary coefficient domain.

        ``zero``/``one``/``lam``/``neg`` are the images of the four
        symbols; returns a list-of-lists matrix.
        """
        table = {SYM_ZERO: zero, SYM_ONE: one, SYM_LAM: lam, SYM_NEG_LAM: neg}
        return [[table[e] for e in row] for row in self.entries]


def enumerate_coset_matrices(partition: Partition, case: CaseTag) -> list[CosetMatrix]:
    """All coset matrices for the partition, in canonical order.

    Canonical order is descending lexicographic on the row-major
    flattening, so the diagonal-heavy matrices come first and the
    anti-diagonal (open-orbit) matrix comes last.
    """
    if not isinstance(partition, Partition):
        raise InvalidInputError("partition must be a Partition")
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
        results.append(
            CosetMatrix(case, partition, tuple(tuple(row) for row in entries))
        )
    results.sort(key=lambda s: s.flat(), reverse=True)
    return results


def fine_layout(s: CosetMatrix) -> FineLayout:
    """Row-major nonzero blocks with 1-based prefix positions."""
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
    return FineLayout(
        blocks=tuple(blocks),
        start_pos=tuple(starts),
        sub_partition=Partition(tuple(k for _, _, k in blocks)),
    )


def block_involution(s: CosetMatrix) -> BlockInvolution:
    layout = fine_layout(s)
    index = {(i, j): b for b, (i, j, _) in enumerate(layout.blocks)}
    pairing = tuple(index[(j, i)] for i, j, _ in layout.blocks)
    fixed = frozenset(b for b, (i, j, _) in enumerate(layout.blocks) if i == j)
    n = s.n
    images = [0] * n
    for b, (i, j, k) in enumerate(layout.blocks):
        a = layout.start_pos[b]
        if i == j:
            for p in range(a, a + k):
                images[p - 1] = (2 * a + k - 1 - p) if s.case is CaseTag.EVEN else p
        elif i < j:
            bp = pairing[b]
            c = layout.start_pos[bp]
            for off in range(k):
                p = a + off
                if s.case is CaseTag.EVEN:
                    q = c + (k - 1 - off)
                else:
                    q = c + off
                images[p - 1] = q
                images[q - 1] = p
    return BlockInvolution(
        pairing=pairing, fixed_blocks=fixed, position_map=Permutation(tuple(images))
    )


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
    if ws * Permutation.reversal(s.n) * ws.inverse() != tau:
        raise RuntimeError(
            f"explicit even-case representative is inconsistent for {s.to_json()}"
        )
    return ws


def build_us_odd(s: CosetMatrix) -> SymbolicRepMatrix:
    """Odd-case symbolic representative.

    Identity on diagonal blocks; each paired couple of blocks carries
    the [[1, -l], [1, l]] pattern across its two intervals.
    """
    if s.case is not CaseTag.ODD:
        raise InvalidInputError("build_us_odd requires an odd-case matrix")
    layout = fine_layout(s)
    index = {(i, j): b for b, (i, j, _) in enumerate(layout.blocks)}
    n = s.n
    entries = [[SYM_ZERO] * n for _ in range(n)]
    for b, (i, j, k) in enumerate(layout.blocks):
        a = layout.start_pos[b]
        if i == j:
            for off in range(k):
                entries[a + off - 1][a + off - 1] = SYM_ONE
        elif i < j:
            c = layout.start_pos[index[(j, i)]]
            for off in range(k):
                p, q = a + off - 1, c + off - 1
                entries[p][p] = SYM_ONE
                entries[p][q] = SYM_NEG_LAM
                entries[q][p] = SYM_ONE
                entries[q][q] = SYM_LAM
    return SymbolicRepMatrix(tuple(tuple(row) for row in entries))


def _inverse(a: list[list[RationalFunc]], zero: RationalFunc, one: RationalFunc) -> list[list[RationalFunc]]:
    """Gauss-Jordan inverse of a square matrix over Q(l); zero entries are skipped."""
    n = len(a)
    rows = [list(row) + [one if i == j else zero for j in range(n)] for i, row in enumerate(a)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if not rows[r][col].is_zero()), None)
        if pivot is None:
            raise InvalidInputError("representative matrix is singular")
        rows[col], rows[pivot] = rows[pivot], rows[col]
        p = rows[col][col]
        if p != one:
            rows[col] = [x if x.is_zero() else x / p for x in rows[col]]
        for r in range(n):
            f = rows[r][col]
            if r != col and not f.is_zero():
                rows[r] = [x if y.is_zero() else x - f * y for x, y in zip(rows[r], rows[col])]
    return [row[n:] for row in rows]


def extract_permutation_odd(s: CosetMatrix) -> Permutation:
    """Involution read off from u_s applied to the twist of its inverse.

    Computed exactly over Q(l), with l the v of ``RationalFunc``: u times
    (twist of u) inverse, where the twist negates l, is a permutation
    matrix; its permutation is returned.
    """
    u = build_us_odd(s)
    zero, one = RationalFunc.from_expr({}, {(0, 0): 1}), RationalFunc.one()
    lam = RationalFunc.from_expr({(1, 0): 1}, {(0, 0): 1})
    neg = RationalFunc.from_expr({(1, 0): -1}, {(0, 0): 1})
    m = u.substitute(zero, one, lam, neg)
    inv = _inverse(u.substitute(zero, one, neg, lam), zero, one)
    n = s.n
    images = [0] * n
    for col in range(n):
        hits = []
        for row in range(n):
            w = zero
            for k in range(n):
                if not m[row][k].is_zero() and not inv[k][col].is_zero():
                    w = w + m[row][k] * inv[k][col]
            if not w.is_zero():
                hits.append((row, w))
        if len(hits) != 1 or hits[0][1] != one:
            raise InvalidInputError(
                f"representative product is not a permutation matrix for {s.to_json()}"
            )
        # column col holds the image of basis vector col
        images[col] = hits[0][0] + 1
    return Permutation(tuple(images))


def coarsen(s: CosetMatrix, merge_index: int) -> CosetMatrix:
    """Merge rows/columns ``merge_index`` and ``merge_index + 1`` (1-based).

    Realizes the forgetful map on flags dropping one subspace; parity of
    the diagonal survives in the even case since the merged diagonal
    entry is d_k + 2 off + d_{k+1}.
    """
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


def embed_I_in_J(s: CosetMatrix) -> CosetMatrix:
    """Retag an even-case matrix as an odd-case one (structural injection)."""
    if s.case is not CaseTag.EVEN:
        raise InvalidInputError("embed_I_in_J requires an even-case matrix")
    return CosetMatrix(CaseTag.ODD, s.partition, s.entries)


class ClosureRelation(Enum):
    LESS = "less"
    GREATER = "greater"
    EQUAL = "equal"
    INCOMPARABLE = "incomparable"


def _rank_matrix(s: CosetMatrix) -> tuple[tuple[int, ...], ...]:
    t = s.size
    r = [[0] * t for _ in range(t)]
    for i in range(t):
        for j in range(t):
            r[i][j] = (
                s.entries[i][j]
                + (r[i - 1][j] if i else 0)
                + (r[i][j - 1] if j else 0)
                - (r[i - 1][j - 1] if i and j else 0)
            )
    return tuple(tuple(row) for row in r)


def closure_compare(s: CosetMatrix, other: CosetMatrix) -> ClosureRelation:
    """Rank-dominance order: smaller means lying in the boundary.

    ``s <= other`` iff every upper-left partial sum of ``s`` is >= the
    corresponding partial sum of ``other``.
    """
    if s.partition != other.partition or s.case is not other.case:
        raise InvalidInputError("matrices must share partition and case")
    ra, rb = _rank_matrix(s), _rank_matrix(other)
    le = all(ra[i][j] >= rb[i][j] for i in range(s.size) for j in range(s.size))
    ge = all(ra[i][j] <= rb[i][j] for i in range(s.size) for j in range(s.size))
    if le and ge:
        return ClosureRelation.EQUAL
    if le:
        return ClosureRelation.LESS
    if ge:
        return ClosureRelation.GREATER
    return ClosureRelation.INCOMPARABLE


def is_open(s: CosetMatrix) -> bool:
    """True iff ``s`` is maximal for the closure order on its partition."""
    for other in enumerate_coset_matrices(s.partition, s.case):
        if closure_compare(s, other) is ClosureRelation.LESS:
            return False
    return True


def open_mask(matrices: list[CosetMatrix]) -> list[bool]:
    """``is_open`` of each of the coset matrices of one partition and case.

    ``matrices`` must be all of them, as ``enumerate_coset_matrices``
    returns them.  A matrix lies strictly below another iff its rank
    table dominates the other's entrywise and differs, which strictly
    raises the sum of the table.  Visiting by ascending rank sum, every
    maximal matrix above a matrix comes before it, so a matrix is open
    iff no open matrix visited earlier lies above it.
    """
    ranks = [tuple(x for row in _rank_matrix(s) for x in row) for s in matrices]
    opens = [False] * len(matrices)
    tops: list[tuple[int, ...]] = []
    for i in sorted(range(len(matrices)), key=lambda i: sum(ranks[i])):
        r = ranks[i]
        if not any(all(a <= b for a, b in zip(top, r)) for top in tops):
            opens[i] = True
            tops.append(r)
    return opens


def anti_diagonal_matrix(partition: Partition, case: CaseTag) -> CosetMatrix:
    """The anti-diagonal parameter on a constant partition (open orbit).

    Defined whenever part i equals part t+1-i; entries sit at (i, t+1-i).
    """
    t = len(partition)
    entries = [[0] * t for _ in range(t)]
    for i in range(t):
        j = t - 1 - i
        if partition.parts[i] != partition.parts[j]:
            raise InvalidInputError("partition is not symmetric")
        entries[i][j] = partition.parts[i]
    return CosetMatrix(case, partition, tuple(tuple(r) for r in entries))


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
    for b in range(len(layout.blocks)):
        for p in layout.interval(b):
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
