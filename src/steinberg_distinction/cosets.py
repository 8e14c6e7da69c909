"""Double-coset combinatorics on twisted flag varieties.

Parabolic-by-fixed-subgroup double cosets are parametrized by symmetric
non-negative integer matrices with prescribed row sums; the even-index
case additionally forces even diagonal entries.  This module enumerates
the parameter matrices, constructs the odd-case symbolic representative
(a matrix with entries in {0, 1, l, -l}), the induced position
involution, the orbit-closure order by rank dominance, and the
coarsening map that forgets one step of a flag.  The certificates
checked against the involution (the even-case representative
permutation, the odd-case extraction over Q(l) and the root-sign table)
are kept with the tests, in ``tests/certificates.py``.
"""

from __future__ import annotations

import itertools
import operator
from collections.abc import Iterator
from enum import Enum


class InvalidInputError(ValueError):
    """Raised when arguments violate a documented precondition."""


def int_text(x: int) -> str:
    """``str(x)`` for x >= 0, or "over 10^k" when its decimal text would
    pass the interpreter's limit on int-to-str conversion (4,300 digits
    by default), so that writing a size or a sum in a refusal cannot
    raise."""
    try:
        return str(x)
    except ValueError:
        # x >= 2^(bits - 1) > 10^k, as 0.30102 < log10(2)
        return f"over 10^{(x.bit_length() - 1) * 30102 // 100000}"


class Frozen:
    """Base of the package's immutable records.

    A record lists its fields in ``__slots__`` and sets them in its own
    ``__init__`` with ``object.__setattr__``.  Records are equal when
    they are of one class with equal fields, hash as the tuple of their
    fields and print as ``Name(field=value, ...)``.  What follows from
    the fields is a property, not a field.
    """

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        # attrgetter reads the fields in C: a tuple, or one field bare
        get = operator.attrgetter(*cls.__slots__)
        bare = len(cls.__slots__) == 1

        def __eq__(self, other):
            if other.__class__ is self.__class__:
                return get(self) == get(other)
            return NotImplemented

        def __hash__(self):
            return hash((get(self),) if bare else get(self))

        cls.__eq__, cls.__hash__ = __eq__, __hash__

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        # copy and pickle rebuild through __init__, which checks the fields
        return type(self), tuple(getattr(self, name) for name in self.__slots__)


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


class Partition(Frozen):
    """Ordered composition of a positive integer into positive parts."""

    __slots__ = ("parts",)

    def __init__(self, parts: tuple[int, ...]) -> None:
        if not parts:
            raise InvalidInputError("partition must be nonempty")
        if min(parts) < 1:
            raise InvalidInputError("partition parts must be positive")
        object.__setattr__(self, "parts", parts)

    @classmethod
    def _unchecked(cls, parts: tuple[int, ...]) -> "Partition":
        """The parts with no check, for a caller that checks them later
        with ``Partition(parts)`` or whose parts are positive by
        construction."""
        p = object.__new__(cls)
        object.__setattr__(p, "parts", parts)
        return p

    @property
    def total(self) -> int:
        return sum(self.parts)

    def __len__(self) -> int:
        return len(self.parts)

    @classmethod
    def parse(cls, text: str) -> "Partition":
        tokens = [tok.strip() for tok in text.split(",")]
        try:
            # ASCII digits only: int() also reads "1_0", "+1" and other scripts
            if not all(tok.isascii() and tok.isdigit() for tok in tokens):
                raise ValueError("a part that is not ASCII digits")
            parts = tuple(map(int, tokens))
        except ValueError as exc:
            raise InvalidInputError(f"bad partition {text!r}") from exc
        return cls(parts)


class CosetMatrix(Frozen):
    """Symmetric non-negative integer matrix with row sums the partition.

    Even case: diagonal entries are even (diagonal blocks carry a
    rational structure of half the size).
    """

    __slots__ = ("case", "partition", "entries")

    def __init__(
        self, case: CaseTag, partition: Partition, entries: tuple[tuple[int, ...], ...]
    ) -> None:
        object.__setattr__(self, "case", case)
        object.__setattr__(self, "partition", partition)
        object.__setattr__(self, "entries", entries)
        e = entries
        t = len(partition)
        if len(e) != t or any(len(r) != t for r in e):
            raise InvalidInputError("entries must be a t x t matrix")
        if any(x < 0 for row in e for x in row):
            raise InvalidInputError("entries must be non-negative")
        for i in range(t):
            for j in range(t):
                if e[i][j] != e[j][i]:
                    raise InvalidInputError("entries must be symmetric")
            if sum(e[i]) != partition.parts[i]:
                raise InvalidInputError(
                    f"row {i} sums to {sum(e[i])}, expected {partition.parts[i]}"
                )
            if case is CaseTag.EVEN and e[i][i] % 2:
                raise InvalidInputError("diagonal entries must be even in the even case")

    @classmethod
    def _trusted(
        cls, case: CaseTag, partition: Partition, entries: tuple[tuple[int, ...], ...]
    ) -> "CosetMatrix":
        """A matrix from a generator of this module, whose construction
        guarantees what ``__init__`` checks: no check is run."""
        s = object.__new__(cls)
        object.__setattr__(s, "case", case)
        object.__setattr__(s, "partition", partition)
        object.__setattr__(s, "entries", entries)
        return s

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


class FineLayout(Frozen):
    """Row-major nonzero blocks of a coset matrix with their positions.

    ``blocks`` lists (row, col, size) with 1-based row/col; ``start_pos``
    gives, per block, the 1-based position of its first unit in 1..n.
    The block sizes form the refining sub-partition.
    """

    __slots__ = ("blocks", "start_pos")

    def __init__(
        self, blocks: tuple[tuple[int, int, int], ...], start_pos: tuple[int, ...]
    ) -> None:
        object.__setattr__(self, "blocks", blocks)
        object.__setattr__(self, "start_pos", start_pos)


class Permutation(Frozen):
    """Bijection of {1, ..., n} given by its tuple of images."""

    __slots__ = ("images",)

    def __init__(self, images: tuple[int, ...]) -> None:
        if sorted(images) != list(range(1, len(images) + 1)):
            raise InvalidInputError("images must be a bijection of 1..n")
        object.__setattr__(self, "images", images)

    def __call__(self, p: int) -> int:
        return self.images[p - 1]


class BlockInvolution(Frozen):
    """Pairing of the fine blocks together with the position involution.

    ``pairing[b]`` is the index of the partner block of block ``b``
    (blocks (i, j) and (j, i) are partners; diagonal blocks are fixed).
    ``position_map`` realizes the involution on positions 1..n: in the
    even case it reverses each fixed block and reverses across paired
    blocks; in the odd case it fixes diagonal blocks pointwise and swaps
    paired blocks preserving order.
    """

    __slots__ = ("pairing", "fixed_blocks", "position_map")

    def __init__(
        self, pairing: tuple[int, ...], fixed_blocks: frozenset[int], position_map: Permutation
    ) -> None:
        object.__setattr__(self, "pairing", pairing)
        object.__setattr__(self, "fixed_blocks", fixed_blocks)
        object.__setattr__(self, "position_map", position_map)


# Symbol codes for symbolic representative matrices.
SYM_ZERO = "0"
SYM_ONE = "1"
SYM_LAM = "l"
SYM_NEG_LAM = "-l"


class SymbolicRepMatrix(Frozen):
    """n x n matrix over the symbol set {0, 1, l, -l} (odd case)."""

    __slots__ = ("entries",)

    def __init__(self, entries: tuple[tuple[str, ...], ...]) -> None:
        object.__setattr__(self, "entries", entries)


# `count_coset_matrices` gives up only on a count proven above this.
COUNT_LIMIT = 50_000


def _fillings(owed: tuple[int, ...], step: int) -> Iterator[tuple[int, ...]]:
    """Each way to fill the first row of rows owing ``owed`` (ascending),
    entry by entry: what the later rows still owe, ascending and without
    zeros.  The diagonal is a multiple of ``step``.  Depth first on an
    explicit stack that skips the later rows paid nothing, one diagonal
    value at a time, largest first, so that no list grows with the part
    sizes."""
    first, rest = owed[0], owed[1:]
    # room[j]: the most that rows j onward can take
    room = list(itertools.accumulate(reversed(rest), initial=0))[::-1]
    low = max(0, first - room[0])
    for diag in reversed(range(low + low % step, first + 1, step)):
        # (first later row not yet paid, amount still due, (row, payment)s)
        stack = [(0, first - diag, ())]
        while stack:
            i, due, paid = stack.pop()
            if not due:
                after = list(rest)
                for j, v in paid:
                    after[j] -= v
                yield tuple(sorted(filter(None, after)))
                continue
            for j in range(i, len(rest)):
                if room[j] < due:
                    break
                for v in range(max(1, due - room[j + 1]), min(due, rest[j]) + 1):
                    stack.append((j + 1, due - v, paid + ((j, v),)))


def count_coset_matrices(partition: Partition, case: CaseTag) -> int | None:
    """``len(enumerate_coset_matrices(partition, case))``, without
    building any matrix; ``None`` once the count is proven to be above
    ``COUNT_LIMIT``.

    Rows of equal parity, paired and sharing the smaller part (the rest
    on the diagonal, even where the parts are), give one matrix per
    pairing of all but at most one row of each parity: (2 ceil(k/2) - 1)!!
    for k rows.  Above ``COUNT_LIMIT ** 2`` pairings no row is filled.
    Nor is one when a single such pairing, of rows adjacent in size, gives
    more than ``COUNT_LIMIT`` matrices: each pair may share any amount up
    to its smaller part a that leaves the diagonal a multiple of the step,
    a // step + 1 choices per pair.

    Otherwise a dynamic programme over rows fills the first row (its
    diagonal, then what it owes each later row) and counts the rest from
    what the later rows still owe; relabelling the rows permutes a coset
    matrix, so the memo is keyed by the multiset of nonzero amounts
    owed, and filled depth first on an explicit stack.  Every amount
    owed can still be paid (in the even case once the total is even,
    which the diagonal keeps), so each filling lies on at least one
    matrix and a matrix on one filling per row: the count stops after
    ``COUNT_LIMIT`` fillings per row, whatever the part sizes.
    """
    step = 2 if case is CaseTag.EVEN else 1
    if step == 2 and partition.total % 2:
        return 0
    pairings = shared = 1
    for parts in (sorted(p for p in partition.parts if p % 2 == r) for r in (0, 1)):
        k = len(parts)
        for j in range(3, k + 1 + k % 2, 2):
            pairings *= j
            if pairings > COUNT_LIMIT**2:
                return None
        for a in parts[0 : k - 1 : 2]:
            shared *= a // step + 1
    if shared > COUNT_LIMIT:
        return None
    fills_left = COUNT_LIMIT * len(partition)
    memo = {(): 1}
    root = tuple(sorted(partition.parts))
    # [amounts owed, their fillings, count so far, filling waiting on the memo]
    stack = [[root, _fillings(root, step), 0, None]]
    while stack:
        frame = stack[-1]
        owed, fills, total, waiting = frame
        if waiting is not None:
            total += memo[waiting]
        for after in fills:
            fills_left -= 1
            if fills_left < 0:
                return None
            if after not in memo:
                frame[2:] = total, after
                stack.append([after, _fillings(after, step), 0, None])
                break
            total += memo[after]
        else:
            memo[owed] = total
            stack.pop()
    return memo[root]


def involution_count(n: int, limit: int) -> int:
    """I(n), the number of involutions of n points, once it is at most
    ``limit``; else some I(k), k <= n, above ``limit``, as the recurrence
    I(k) = I(k - 1) + (k - 1) I(k - 2) stops there.

    I(n) bounds the coset matrices of every partition of n, in either
    case.  Cut 1..n into blocks of the parts' sizes and lift s to the
    involution that fixes s_ii points of block i and pairs the next s_ij
    points of block i, i < j, with the next s_ij of block j (in the even
    case, pairs the s_ii points among themselves instead of fixing
    them).  Block i sends s_ij points into block j, so s is read back
    off its lift.
    """
    before, count = 1, 1  # I(0), I(1)
    for k in range(2, n + 1):
        if count > limit:
            break
        before, count = count, count + (k - 1) * before
    return count


def enumerate_coset_matrices(partition: Partition, case: CaseTag) -> list[CosetMatrix]:
    """All coset matrices for the partition, in canonical order.

    Canonical order is descending lexicographic on the row-major
    flattening, so the diagonal-heavy matrices come first and the
    anti-diagonal (open-orbit) matrix comes last.

    The upper triangle is filled row by row, left to right, each cell
    trying its values in descending order.  No cell takes less than the
    cells after it in its row can still make up, and the last cell of a
    row is forced to what the row still owes, which is then never above
    what its column owes.  So every branch of the search holds a matrix,
    and the search meets the matrices in canonical order, with no sort:
    the upper cells are filled in flattening order, and a lower cell
    (i, j), j < i, copies the upper cell (j, i) of the earlier row j.
    Where two matrices first differ in the flattening they differ at an
    upper cell c, and every cell before c, upper or lower, was fixed
    when the search reached c; there it took the larger value first.
    In the even case the last row's diagonal is forced to what all rows
    still owe together.  Each cell keeps the parity of that sum (a
    diagonal cell is even, an off-diagonal one is paid twice), so it is
    as even as the total.
    """
    if not isinstance(partition, Partition):
        raise InvalidInputError("partition must be a Partition")
    if case is CaseTag.EVEN and partition.total % 2:
        return []  # an even diagonal makes the total of the entries even
    t = len(partition)
    step = 2 if case is CaseTag.EVEN else 1
    results: list[CosetMatrix] = []
    entries = [[0] * t for _ in range(t)]
    owed = list(partition.parts)
    trusted = CosetMatrix._trusted

    def fill(i: int, j: int) -> None:
        # row i owes ``due`` to the cells (i, j), ..., (i, t - 1)
        due = owed[i]
        if j == t - 1:
            entries[i][j] = entries[j][i] = due
            if i == j:
                results.append(trusted(case, partition, tuple(map(tuple, entries))))
            else:
                owed[j] -= due
                fill(i + 1, i + 1)
                owed[j] += due
            return
        later = sum(owed[j + 1 :])
        if i == j:
            top = due - due % step
            for v in range(top, max(0, due - later) - 1, -step):
                entries[i][i] = v
                owed[i] = due - v
                fill(i, i + 1)
            owed[i] = due
        else:
            for v in range(min(due, owed[j]), max(0, due - later) - 1, -1):
                entries[i][j] = entries[j][i] = v
                owed[i] = due - v
                owed[j] -= v
                fill(i, j + 1)
                owed[j] += v
            owed[i] = due

    fill(0, 0)
    return results


def fine_layout(s: CosetMatrix) -> FineLayout:
    """Row-major nonzero blocks with 1-based prefix positions."""
    blocks = tuple(
        (i, j, k) for i, row in enumerate(s.entries, 1) for j, k in enumerate(row, 1) if k
    )
    sizes = tuple(filter(None, itertools.chain.from_iterable(s.entries)))
    return FineLayout(
        blocks=blocks, start_pos=tuple(itertools.accumulate(sizes[:-1], initial=1))
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
    e = s.entries
    merged = tuple(map(operator.add, e[k], e[k + 1]))
    parts = s.partition.parts
    # the merge of a coset matrix is one: row sums, symmetry and parity
    # hold, and a sum of two positive parts is positive
    return CosetMatrix._trusted(
        s.case,
        Partition._unchecked(parts[:k] + (parts[k] + parts[k + 1],) + parts[k + 2 :]),
        tuple([row[:k] + (row[k] + row[k + 1],) + row[k + 2 :] for row in (*e[:k], merged, *e[k + 2 :])]),
    )


class ClosureRelation(Enum):
    LESS = "less"
    GREATER = "greater"
    EQUAL = "equal"
    INCOMPARABLE = "incomparable"


def _rank_table(s: CosetMatrix) -> tuple[int, ...]:
    """The upper-left partial sums of ``s``, flattened row-major: row i
    of the table is the running sum along the sum of rows 0 to i."""
    columns = itertools.accumulate(s.entries, lambda a, b: tuple(map(operator.add, a, b)))
    return tuple(itertools.chain.from_iterable(map(itertools.accumulate, columns)))


def closure_compare(s: CosetMatrix, other: CosetMatrix) -> ClosureRelation:
    """Rank-dominance order: smaller means lying in the boundary.

    ``s <= other`` iff every upper-left partial sum of ``s`` is >= the
    corresponding partial sum of ``other``.
    """
    if s.partition != other.partition or s.case is not other.case:
        raise InvalidInputError("matrices must share partition and case")
    ra, rb = _rank_table(s), _rank_table(other)
    le = all(map(operator.ge, ra, rb))
    ge = all(map(operator.le, ra, rb))
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
    returns them.  Exactly one of them is open, and it has a closed form.
    Let N_i be the partial sums of the partition (N_0 = 0) and L[i][j] =
    max(0, N_i + N_j - n).  Every rank table R is at least L entrywise:
    R[i][j] >= 0, and R[i][j] is N_i less the mass of rows <= i in
    columns > j, which is at most n - N_j.  L is itself a rank table:
    its second differences s* are non-negative (max(0, x + y) is
    supermodular) and symmetric, have the parts as row sums, and in the
    even case (n even) have an even diagonal, as L[i][i] =
    max(0, 2 N_i - n) is then even.  A matrix is determined by its rank
    table, so every other matrix lies strictly below s*, the one open
    matrix.
    """
    if not matrices:
        return []
    parts = matrices[0].partition.parts
    n = sum(parts)
    sums = list(itertools.accumulate(parts, initial=0))
    table = [[a + b - n if a + b > n else 0 for b in sums] for a in sums]
    # s*[i][j] = L[i][j] - L[i][j - 1] - L[i - 1][j] + L[i - 1][j - 1]
    top = tuple(
        tuple(d - c - b + a for a, b, c, d in zip(above, above[1:], below, below[1:]))
        for above, below in zip(table, table[1:])
    )
    return [s.entries == top for s in matrices]


def anti_diagonal_matrix(partition: Partition, case: CaseTag) -> CosetMatrix:
    """The anti-diagonal parameter on a constant partition (open orbit).

    Defined whenever part i equals part t+1-i, and in the even case the
    middle part of an odd t is even; entries sit at (i, t+1-i).
    """
    t = len(partition)
    parts = partition.parts
    if parts != parts[::-1]:
        raise InvalidInputError("partition is not symmetric")
    if case is CaseTag.EVEN and t % 2 and parts[t // 2] % 2:
        raise InvalidInputError("diagonal entries must be even in the even case")
    entries = [[0] * t for _ in range(t)]
    for i in range(t):
        entries[i][t - 1 - i] = parts[i]
    return CosetMatrix._trusted(case, partition, tuple(map(tuple, entries)))
