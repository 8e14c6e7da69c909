"""Finite-field flag enumeration and Galois-twist orbit invariants.

Desk-scale oracle for the odd (split) case: flags in F_{q^2}^n are
enumerated through canonical row-reduced representatives, their
invariant profile under the coordinate Frobenius twist is the coset
matrix of their orbit, and the constructive reduction maps any flag to
the canonical representative of its profile by a base-field matrix.

``iter_flags`` streams every flag with its profile in one depth-first
pass that shares prefixes: the row r[i][j] = dim(V_i meet theta V_j),
j <= i, of the profile's rank table is computed once per node V_i,
from residuals against the pivots of V_i's reduced basis, so a leaf
pays one row and holds no list.  The diagonal entry r[i][i] depends
only on the imaginary parts of the basis, and is looked up in a
bounded memo keyed by them; a rank of two rows is a proportionality
test, so at n <= 3 a profile needs no row reduction.  ``flag_profile``
checks that the bases are reduced from the definition, not by reducing
them.  The on-disk cache (version 4) stores what a run's stream
produced, its orbit sizes and sampled flags, with a CRC-32 of their
text, so a file that is not exactly what ``store`` wrote is a miss.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import tempfile
import zlib
from dataclasses import dataclass
from typing import Iterator

from ..cosets import (
    CaseTag,
    CosetMatrix,
    InvalidInputError,
    Partition,
    build_us_odd,
)
from .finite_field import QuadraticExtension, Vec, pivot

__all__ = [
    "Flag",
    "BudgetExceededError",
    "gaussian_binomial",
    "count_flags",
    "iter_flags",
    "enumerate_flags",
    "flag_profile",
    "graded_pieces",
    "representative_flag",
    "reduce_to_representative",
    "sample_stride",
    "FlagCache",
]

# graded piece S_{i,j} of a flag, keyed by (i, j)
GradedPieces = dict[tuple[int, int], tuple[Vec, ...]]

CACHE_VERSION = 4
DEFAULT_BUDGET = 10_000


class BudgetExceededError(RuntimeError):
    """Enumeration refused; carries the size estimate."""

    def __init__(self, estimate: int, budget: int, what: str = "flag count"):
        super().__init__(f"{what} {estimate} exceeds budget {budget}")
        self.estimate = estimate
        self.budget = budget


@dataclass(frozen=True)
class Flag:
    """Nested subspaces given by row-reduced bases."""

    partition: Partition
    bases: tuple[tuple[Vec, ...], ...]

    def __post_init__(self) -> None:
        dims = [len(b) for b in self.bases]
        prefix = list(itertools.accumulate(self.partition.parts))
        if dims != prefix:
            raise InvalidInputError("basis dimensions must match partition prefixes")


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


def _enumerate_rref(field: QuadraticExtension, n: int, k: int) -> Iterator[tuple[Vec, ...]]:
    """All reduced row echelon bases of k-dimensional subspaces of F^n."""
    elements = field.elements()
    for pivots in itertools.combinations(range(n), k):
        free_cells = [
            (r, c)
            for r in range(k)
            for c in range(pivots[r] + 1, n)
            if c not in pivots
        ]
        for values in itertools.product(elements, repeat=len(free_cells)):
            rows = [[field.zero] * n for _ in range(k)]
            for r, p in enumerate(pivots):
                rows[r][p] = field.one
            for (r, c), v in zip(free_cells, values):
                rows[r][c] = v
            yield tuple(tuple(row) for row in rows)


def _extensions(
    field: QuadraticExtension,
    n: int,
    basis: tuple[Vec, ...],
    quotients: list[tuple[Vec, ...]],
) -> list[tuple[Vec, ...]]:
    """Reduced bases of every subspace containing span(basis), one per
    subspace of the quotient, in the order of ``_enumerate_rref``.

    ``quotients`` are the reduced bases of the quotient subspaces in the
    coordinates off the pivots of ``basis``; those coordinates span a
    complement, so each quotient basis embeds into F^n already reduced
    against ``basis``, and clearing its pivot columns from the rows of
    ``basis`` leaves the union reduced.
    """
    mul, sub = field.mul_table, field.sub_table
    old = [(pivot(row), row) for row in basis]
    taken = {p for p, _ in old}
    free = [c for c in range(n) if c not in taken]
    out = []
    for quotient in quotients:
        rows = []
        for row in quotient:
            full = [0] * n
            for c, x in zip(free, row):
                full[c] = x
            rows.append((free[pivot(row)], tuple(full)))
        added = list(rows)
        for p, vec in old:
            for c, full in added:
                a = vec[c]
                if a:
                    scale = mul[a]
                    vec = tuple([sub[x][scale[y]] for x, y in zip(vec, full)])
            rows.append((p, vec))
        rows.sort()
        out.append((tuple(p for p, _ in rows), tuple(row for _, row in rows)))
    # _enumerate_rref orders by pivot columns first, then by entries
    out.sort()
    return [rows for _, rows in out]


def iter_flags(
    field: QuadraticExtension,
    partition: Partition,
    budget: int = DEFAULT_BUDGET,
) -> Iterator[tuple[Flag, CosetMatrix]]:
    """Every flag of the given shape exactly once, with its profile.

    A depth-first walk over the chains of ``_enumerate_rref`` bases:
    each step is built from the previous one through the subspaces of
    the quotient, so no flag is produced twice and none is filtered
    out, and the order is by the first subspace, then the second, and
    so on.  A node V_i computes its row of the rank table once, for all
    its descendants; the last step V_t = F^n is the same for every flag
    and costs nothing.  Refuses with the count estimate, before
    yielding anything, when the flag variety exceeds the budget.
    """
    estimate = count_flags(partition, field.p * field.p)
    if estimate > budget:
        raise BudgetExceededError(estimate, budget)
    return _walk(field, partition, estimate)


def _walk(
    field: QuadraticExtension, partition: Partition, estimate: int
) -> Iterator[tuple[Flag, CosetMatrix]]:
    n = partition.total
    parts = partition.parts
    t = len(parts)
    top = tuple(
        tuple(field.one if c == r else field.zero for c in range(n)) for r in range(n)
    )
    if t == 1:
        yield Flag(partition, (top,)), _profile_from_rows(parts, ())
        return
    # quotients[d - 1]: the quotient subspaces that extend V_d to V_{d + 1}
    quotients = [
        list(_enumerate_rref(field, n - dim, part))
        for dim, part in zip(itertools.accumulate(parts), parts[1:-1])
    ]
    # stack[d] iterates the bases of V_{d + 1} below the path whose
    # bases and rank table rows are chains[d] and tables[d]
    stack: list[Iterator[tuple[Vec, ...]]] = [_enumerate_rref(field, n, parts[0])]
    chains: list[tuple[tuple[Vec, ...], ...]] = [()]
    tables: list[tuple[tuple[int, ...], ...]] = [()]
    count = 0
    while stack:
        basis = next(stack[-1], None)
        if basis is None:
            stack.pop()
            chains.pop()
            tables.pop()
            continue
        depth = len(stack)
        chain = chains[-1] + (basis,)
        table = tables[-1] + (_rank_row(field, basis, chains[-1]),)
        if depth < t - 1:
            stack.append(iter(_extensions(field, n, basis, quotients[depth - 1])))
            chains.append(chain)
            tables.append(table)
        else:
            count += 1
            yield Flag(partition, chain + (top,)), _profile_from_rows(parts, table)
    if count != estimate:
        raise InvalidInputError(f"enumeration produced {count} flags, expected {estimate}")


def enumerate_flags(
    field: QuadraticExtension,
    partition: Partition,
    budget: int = DEFAULT_BUDGET,
) -> list[Flag]:
    """The flags of ``iter_flags``, as a list."""
    return [flag for flag, _ in iter_flags(field, partition, budget)]


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
    """Coset matrix of the flag's orbit under the base-field group.

    The bases of the flag must be row-reduced, as every ``Flag`` built
    by this package is; ``InvalidInputError`` otherwise, since the ranks
    are read off the pivots.  That is checked from the definition by
    ``QuadraticExtension.is_reduced``, with no reduction.  Entry (i, j)
    counts the dimension jumps of the intersections with the Frobenius
    image of the flag, by inclusion-exclusion on the table
    r[i][j] = dim(V_i meet theta V_j), whose rows come from
    ``_rank_row``.
    """
    bases = flag.bases[:-1]
    if not all(map(field.is_reduced, bases)):
        raise InvalidInputError("flag bases must be row-reduced")
    rows = tuple(_rank_row(field, basis, bases[:i]) for i, basis in enumerate(bases))
    return _profile_from_rows(flag.partition.parts, rows)


@functools.lru_cache(maxsize=1024)
def _profile_from_rows(
    parts: tuple[int, ...], rows: tuple[tuple[int, ...], ...]
) -> CosetMatrix:
    """The validated coset matrix of a rank table, built once per
    distinct table: equal tables get the same verdict, so a repeated
    profile is not checked again.  An invalid one raises on every call,
    since a raise is not cached.  The key is made of plain tuples, whose
    hash is cheaper than a dataclass's.

    ``rows[i - 1]`` holds r[i][1..i] for i < t = len(parts).  The table
    is symmetric, because the twist is an involution and carries V_i
    meet theta V_j onto theta V_i meet V_j, and its last row and column
    are the dimensions, because V_t = theta V_t = F^n.
    """
    t = len(parts)
    dims = [0, *itertools.accumulate(parts)]
    r = [[0] * (t + 1) for _ in range(t + 1)]
    for i, row in enumerate(rows, 1):
        for j, x in enumerate(row, 1):
            r[i][j] = r[j][i] = x
    for i in range(1, t + 1):
        r[i][t] = r[t][i] = dims[i]
    entries = tuple([
        tuple([
            r[i][j] - r[i - 1][j] - r[i][j - 1] + r[i - 1][j - 1]
            for j in range(1, t + 1)
        ])
        for i in range(1, t + 1)
    ])
    return CosetMatrix(CaseTag.ODD, Partition(parts), entries)


def _us_matrix(s: CosetMatrix, field: QuadraticExtension) -> list[Vec]:
    sym = build_us_odd(s)
    return [
        tuple(row)
        for row in sym.substitute(
            field.zero, field.one, field.lam, field.neg_table[field.lam]
        )
    ]


def representative_flag(s: CosetMatrix, field: QuadraticExtension) -> Flag:
    """Canonical flag with the given profile, from the symbolic
    representative instantiated at the field's square root of a
    nonsquare."""
    if s.case is not CaseTag.ODD:
        raise InvalidInputError("representative flags exist in the odd case only")
    u_inv = field.matrix_inv(_us_matrix(s, field))
    n = s.n
    cols = [tuple(u_inv[r][c] for r in range(n)) for c in range(n)]
    bases = []
    prefix = 0
    for part in s.partition.parts:
        prefix += part
        bases.append(field.rref(cols[:prefix]))
    return Flag(s.partition, tuple(bases))


def graded_pieces(flag: Flag, field: QuadraticExtension) -> GradedPieces:
    """The graded pieces S_{i,j} of the twist decomposition.

    For i < j any complement works and its Frobenius image is used at
    (j, i); the diagonal pieces are chosen Frobenius-stable by working
    inside the fixed points.  Each corner meet[i][j] = V_i meet theta V_j
    is computed once, for i <= j: theta carries it onto meet[j][i], and
    the Frobenius image of a reduced basis is reduced.
    """
    t = len(flag.partition)
    bases = ((),) + flag.bases
    theta = [tuple(field.vec_frob(v) for v in b) for b in bases]
    meet: list[list[tuple[Vec, ...]]] = [[()] * (t + 1) for _ in range(t + 1)]
    for i in range(1, t + 1):
        for j in range(i, t + 1):
            meet[i][j] = field.intersect(bases[i], theta[j])
            if i < j:
                meet[j][i] = tuple(field.vec_frob(v) for v in meet[i][j])
    out: GradedPieces = {}
    for i in range(1, t + 1):
        for j in range(i, t + 1):
            u = meet[i][j]
            w = field.sum_spaces(meet[i][j - 1], meet[i - 1][j])
            if i == j:
                u_fixed = field.fixed_subspace(u) if u else ()
                w_fixed = field.fixed_subspace(w) if w else ()
                out[(i, i)] = field.extend_to_complement(w_fixed, u_fixed)
            else:
                comp = field.extend_to_complement(w, u)
                out[(i, j)] = comp
                out[(j, i)] = tuple(field.vec_frob(v) for v in comp)
    return out


def reduce_to_representative(
    flag: Flag,
    field: QuadraticExtension,
    targets: dict[CosetMatrix, GradedPieces] | None = None,
) -> list[Vec]:
    """Base-field matrix carrying the flag onto its canonical
    representative.

    Sends each graded piece of the flag onto the matching piece of the
    representative; off-diagonal partners are mapped by the Frobenius
    transport of each other, so the assembled matrix commutes with the
    twist and therefore has base-field entries.  ``targets`` maps
    profiles to the graded pieces of their representatives, so that a
    caller reducing many flags builds each representative once; the
    representative of a profile it lacks is built here.
    """
    profile = flag_profile(flag, field)
    dst = targets.get(profile) if targets else None
    if dst is None:
        dst = graded_pieces(representative_flag(profile, field), field)
    src = graded_pieces(flag, field)
    t = len(flag.partition)
    order = [(i, j) for i in range(1, t + 1) for j in range(1, t + 1)]
    src_vecs: list[Vec] = []
    dst_vecs: list[Vec] = []
    for key in order:
        a, b = src.get(key, ()), dst.get(key, ())
        if len(a) != len(b):
            raise InvalidInputError("graded pieces of flag and representative differ")
        src_vecs.extend(a)
        dst_vecs.extend(b)
    n = flag.partition.total
    if len(src_vecs) != n:
        raise InvalidInputError("graded pieces do not decompose the space")
    return field.solve(src_vecs, dst_vecs)


def sample_stride(count: int, samples: int) -> int:
    """The oracle reduces the flags at stream positions 0, stride,
    2 stride, ...: about ``samples`` of them, and at least one."""
    return max(1, count // samples)


# a cached run: the orbit sizes keyed by the flat profile, and the
# sampled flags in stream order
CachedRun = tuple[dict[tuple[int, ...], int], list[Flag]]


def _is_grid(value: object, rows: int, cols: int) -> bool:
    """Whether value is a list of ``rows`` lists of ``cols`` ints, by
    type: JSON true and 1.0 compare equal to 1."""
    return (
        type(value) is list
        and len(value) == rows
        and all(
            type(row) is list and len(row) == cols and all(type(x) is int for x in row)
            for row in value
        )
    )


def _checked_run(data: object, q: int, partition: Partition, samples: int) -> CachedRun | None:
    """The run a cache file's payload holds, or None unless its orbits
    are distinct flat t x t profiles with positive sizes that sum to
    the flag count, and its samples are one chain of bases per sampled
    position, of the partition's shape, with entries in F_{q^2}."""
    if type(data) is not dict or list(data) != ["orbits", "samples"]:
        return None
    orbits, chains = data["orbits"], data["samples"]
    n, t, dims = partition.total, len(partition), list(itertools.accumulate(partition.parts))
    count = count_flags(partition, q * q)
    if type(orbits) is not list or not all(
        type(o) is list and len(o) == 2 and _is_grid(o[:1], 1, t * t)
        and type(o[1]) is int and o[1] > 0
        for o in orbits
    ):
        return None
    histogram = {tuple(profile): size for profile, size in orbits}
    if len(histogram) != len(orbits) or sum(histogram.values()) != count:
        return None
    stride = sample_stride(count, samples)
    if type(chains) is not list or len(chains) != len(range(0, count, stride)) or not all(
        type(c) is list and len(c) == t and all(_is_grid(b, d, n) for b, d in zip(c, dims))
        for c in chains
    ):
        return None
    if not all(0 <= x < q * q for c in chains for b in c for row in b for x in row):
        return None
    return histogram, [Flag(partition, tuple(tuple(map(tuple, b)) for b in c)) for c in chains]


class FlagCache:
    """On-disk cache of flag oracle runs keyed by (q, partition, samples).

    A file holds what one run's stream produced, the orbit histogram as
    [profile, size] pairs and the flags sampled for reduction: the text
    of json.dumps({"version": 4, "crc32": c, "orbits": [...], "samples":
    [...]}), c the CRC-32 of the UTF-8 bytes of json.dumps({"orbits":
    [...], "samples": [...]}).  A file that is missing, unreadable, of
    another version, whose text does not match its checksum, or whose
    run is not JSON or of the wrong shape is a miss, so the caller
    recomputes and rewrites it.  The checksum makes a hit the exact run
    that ``store`` wrote: its orbit sizes are trusted, and its samples
    are row-reduced, as the profile needs.  Writes go to a temporary
    file that then replaces the entry, so a reader never sees a partial
    file.
    """

    def __init__(self, directory: str):
        self.directory = directory
        os.makedirs(directory, exist_ok=True)

    def _path(self, q: int, partition: Partition, samples: int) -> str:
        parts = "-".join(str(p) for p in partition.parts)
        key = f"flags_v{CACHE_VERSION}_q{q}_{parts}_s{samples}"
        return os.path.join(self.directory, key + ".json")

    def load(self, q: int, partition: Partition, samples: int) -> CachedRun | None:
        head = f'{{"version": {CACHE_VERSION}, "crc32": '
        try:
            with open(self._path(q, partition, samples), encoding="utf-8") as fh:
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
            # a run that is not JSON
            return None
        return _checked_run(data, q, partition, samples)

    def store(
        self,
        q: int,
        partition: Partition,
        samples: int,
        histogram: dict[tuple[int, ...], int],
        flags: list[Flag],
    ) -> None:
        body = json.dumps({
            "orbits": [[list(key), size] for key, size in sorted(histogram.items())],
            "samples": [flag.bases for flag in flags],
        })
        crc = zlib.crc32(body.encode())
        fd, tmp = tempfile.mkstemp(dir=self.directory, prefix=".flags-", suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.write(f'{{"version": {CACHE_VERSION}, "crc32": {crc}, ' + body[1:])
            os.replace(tmp, self._path(q, partition, samples))
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
