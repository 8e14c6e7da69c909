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
pays one row and holds no list.  The on-disk cache (version 3) stores a
CRC-32 of its flags text, so a file that is not exactly what ``store``
wrote is a miss.
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
    "FlagCache",
]

# graded piece S_{i,j} of a flag, keyed by (i, j)
GradedPieces = dict[tuple[int, int], tuple[Vec, ...]]

CACHE_VERSION = 3
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
    is already the residual of theta s for every row s of V.
    """
    mul, sub, frob = field.mul_table, field.sub_table, field.frob_table
    pivots = [(pivot(row), row) for row in basis]
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
    imaginary = [im for im in ([x % p * p for x in row] for row in basis) if any(im)]
    out.append(len(basis) - _rank(field, imaginary))
    return tuple(out)


def _rank(field: QuadraticExtension, nonzero_rows: list) -> int:
    """Rank of nonzero rows, with no row reduction for one or none."""
    return field.rank(nonzero_rows) if len(nonzero_rows) > 1 else len(nonzero_rows)


def flag_profile(flag: Flag, field: QuadraticExtension) -> CosetMatrix:
    """Coset matrix of the flag's orbit under the base-field group.

    The bases of the flag must be row-reduced, as every ``Flag`` built
    by this package is; ``InvalidInputError`` otherwise, since the ranks
    are read off the pivots.  Entry (i, j) counts the dimension jumps of
    the intersections with the Frobenius image of the flag, by
    inclusion-exclusion on the table r[i][j] = dim(V_i meet theta V_j),
    whose rows come from ``_rank_row``.
    """
    bases = flag.bases[:-1]
    if any(field.rref(basis) != basis for basis in bases):
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


def _decode(chains: object, n: int, q: int, partition: Partition) -> list[Flag] | None:
    """The flags of a cache file's flags list, or None unless it holds as
    many flags as the variety has, each a chain of lists of rows of n
    entries of F_{q^2}.  An entry must be an int in 0..q^2 - 1 by type:
    JSON true and 1.0 compare equal to 1, so a membership test would let
    them through.  Each entry of the list is set to None once its flag
    is built."""
    if not isinstance(chains, list) or len(chains) != count_flags(partition, q * q):
        return None
    dims = list(itertools.accumulate(partition.parts))
    rows = []
    for chain in chains:
        if type(chain) is not list or len(chain) != len(dims):
            return None
        for basis, dim in zip(chain, dims):
            if type(basis) is not list or len(basis) != dim:
                return None
            rows.extend(basis)
    if any(type(row) is not list or len(row) != n for row in rows):
        return None
    entries = list(itertools.chain.from_iterable(rows))
    if set(map(type, entries)) != {int} or min(entries) < 0 or max(entries) >= q * q:
        return None
    del rows, entries
    flags = []
    for index, chain in enumerate(chains):
        flags.append(Flag(partition, tuple(tuple(map(tuple, basis)) for basis in chain)))
        # each parsed chain goes once its flag is built, so the parsed
        # lists and the flags are never both held whole
        chains[index] = None
    return flags


def _verified_flags(text: str) -> object:
    """The parsed flags list of a cache file's text, or None unless the
    text has this version and its flags text matches its checksum.  The
    flags are parsed in place, so no second copy of the text is held."""
    head = f'{{"version": {CACHE_VERSION}, "crc32": '
    sep = ', "flags": '
    at = text.find(sep, len(head))
    if not text.startswith(head) or at < 0 or not text.endswith("}"):
        return None
    start = at + len(sep)
    if text[len(head):at] != str(zlib.crc32(text[start:-1].encode())):
        return None
    chains, end = json.JSONDecoder().raw_decode(text, start)
    return chains if end == len(text) - 1 else None


class FlagCache:
    """On-disk cache of flag enumerations keyed by (n, q, partition).

    A file is the text of json.dumps({"version": 3, "crc32": c, "flags":
    [...]}), where c is the CRC-32 of the UTF-8 bytes of the flags list's
    own text.  A file that is missing, unreadable, of another version,
    whose flags text does not match its checksum, or whose flags are
    not JSON or of the wrong shape is a miss, so the caller recomputes
    and rewrites it.  The checksum is what makes a hit the exact flags
    that ``store`` wrote, row-reduced and each once: the profile reads
    its ranks off the pivots of reduced bases.  Writes go to a temporary
    file in the same directory that then replaces the entry, so a
    reader never sees a partial file.
    """

    def __init__(self, directory: str):
        self.directory = directory
        os.makedirs(directory, exist_ok=True)

    def _path(self, n: int, q: int, partition: Partition) -> str:
        key = f"flags_v{CACHE_VERSION}_n{n}_q{q}_" + "-".join(
            str(p) for p in partition.parts
        )
        return os.path.join(self.directory, key + ".json")

    def load(self, n: int, q: int, partition: Partition) -> list[Flag] | None:
        try:
            with open(self._path(n, q, partition), encoding="utf-8") as fh:
                chains = _verified_flags(fh.read())
        except (OSError, ValueError):
            # a missing or unreadable file, bytes that are not UTF-8, or
            # flags text that is not JSON
            return None
        # the file's text is freed by now, before the flags are built
        return _decode(chains, n, q, partition)

    def store(self, n: int, q: int, partition: Partition, flags: list[Flag]) -> None:
        # The text of json.dumps of the payload, one json.dumps per flag:
        # json.dump would stream through the pure-Python encoder, and one
        # json.dumps call over the whole list holds every small piece of
        # the C encoder at once.
        flags_text = "[" + ", ".join(json.dumps(flag.bases) for flag in flags) + "]"
        crc = zlib.crc32(flags_text.encode())
        fd, tmp = tempfile.mkstemp(dir=self.directory, prefix=".flags-", suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.write(f'{{"version": {CACHE_VERSION}, "crc32": {crc}, "flags": ')
                fh.write(flags_text)
                fh.write("}")
            os.replace(tmp, self._path(n, q, partition))
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
