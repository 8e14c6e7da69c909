"""Finite-field flag enumeration and Galois-twist orbit invariants.

Desk-scale oracle for the odd (split) case: flags in F_{q^2}^n are
enumerated through canonical row-reduced representatives, their
invariant profile under the coordinate Frobenius twist is the coset
matrix of their orbit, and the constructive reduction maps any flag to
the canonical representative of its profile by a base-field matrix.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import tempfile
from dataclasses import dataclass
from typing import Iterator

from ..cosets import (
    CaseTag,
    CosetMatrix,
    InvalidInputError,
    Partition,
    build_us_odd,
)
from .finite_field import FieldSpec, QuadraticExtension, Vec

__all__ = [
    "Flag",
    "FlagProfile",
    "BudgetExceededError",
    "gaussian_binomial",
    "count_flags",
    "enumerate_flags",
    "flag_profile",
    "representative_flag",
    "reduce_to_representative",
    "FlagCache",
]

FlagProfile = CosetMatrix

CACHE_VERSION = 2
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


def gaussian_binomial(n: int, k: int, q: int) -> int:
    if k < 0 or k > n:
        return 0
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


def count_flags(n: int, partition: Partition, q2: int) -> int:
    total = 1
    remaining = n
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


def _pivot(row: Vec) -> int:
    return next(c for c, x in enumerate(row) if x)


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
    old = [(_pivot(row), row) for row in basis]
    taken = {p for p, _ in old}
    free = [c for c in range(n) if c not in taken]
    out = []
    for quotient in quotients:
        rows = []
        for row in quotient:
            full = [0] * n
            for c, x in zip(free, row):
                full[c] = x
            rows.append((free[_pivot(row)], tuple(full)))
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


def enumerate_flags(
    n: int,
    q: int,
    partition: Partition,
    budget: int = DEFAULT_BUDGET,
) -> list[Flag]:
    """Every flag of the given shape exactly once.

    Each step is built from the previous one through the subspaces of
    the quotient, so no flag is produced twice and none is filtered
    out.  The order is that of the chains of ``_enumerate_rref`` bases:
    by the first subspace, then the second, and so on.  Refuses with
    the count estimate when the flag variety exceeds the budget.
    """
    if partition.total != n:
        raise InvalidInputError("partition must sum to n")
    spec = FieldSpec(q)
    field = spec.extension()
    q2 = q * q
    estimate = count_flags(n, partition, q2)
    if estimate > budget:
        raise BudgetExceededError(estimate, budget)
    chains: list[tuple[tuple[Vec, ...], ...]] = [()]
    dim = 0
    for part in partition.parts:
        quotients = list(_enumerate_rref(field, n - dim, part))
        chains = [
            chain + (ext,)
            for chain in chains
            for ext in _extensions(field, n, chain[-1] if chain else (), quotients)
        ]
        dim += part
    flags = [Flag(partition, chain) for chain in chains]
    if len(flags) != estimate:
        raise InvalidInputError(
            f"enumeration produced {len(flags)} flags, expected {estimate}"
        )
    return flags


def flag_profile(flag: Flag, spec: FieldSpec) -> FlagProfile:
    """Coset matrix of the flag's orbit under the base-field group.

    Entry (i, j) counts the dimension jumps of the intersections with
    the Frobenius image of the flag, by inclusion-exclusion on the
    corner dimension table r[i][j] = dim(V_i meet theta V_j).  Each
    corner comes from one rank, dim V_i + dim V_j - rank(V_i + theta V_j);
    the last row and column need none, because V_t = theta V_t = F^n.
    The twist is an involution, so theta carries V_i meet theta V_j onto
    theta V_i meet V_j and the table is symmetric.
    """
    field = spec.extension()
    frob = field.frob_table
    t = len(flag.partition)
    dims = [0, *itertools.accumulate(flag.partition.parts)]
    theta = [[[frob[x] for x in v] for v in b] for b in flag.bases[:-1]]
    r = [[0] * (t + 1) for _ in range(t + 1)]
    for i in range(1, t + 1):
        r[i][t] = r[t][i] = dims[i]
    for i in range(1, t):
        for j in range(i, t):
            rank = field.rank(list(flag.bases[i - 1]) + theta[j - 1])
            r[i][j] = r[j][i] = dims[i] + dims[j] - rank
    entries = tuple([
        tuple([
            r[i][j] - r[i - 1][j] - r[i][j - 1] + r[i - 1][j - 1]
            for j in range(1, t + 1)
        ])
        for i in range(1, t + 1)
    ])
    return _odd_coset_matrix(flag.partition, entries)


@functools.lru_cache(maxsize=1024)
def _odd_coset_matrix(partition: Partition, entries: tuple[tuple[int, ...], ...]) -> CosetMatrix:
    """The validated coset matrix, built once per distinct profile: equal
    entries get the same verdict, so a repeated profile is not checked
    again.  An invalid one raises on every call, since a raise is not
    cached."""
    return CosetMatrix(CaseTag.ODD, partition, entries)


def _us_matrix(s: CosetMatrix, field: QuadraticExtension) -> list[Vec]:
    sym = build_us_odd(s)
    return [
        tuple(row)
        for row in sym.substitute(
            field.zero, field.one, field.lam, field.neg(field.lam)
        )
    ]


def representative_flag(s: CosetMatrix, spec: FieldSpec) -> Flag:
    """Canonical flag with the given profile, from the symbolic
    representative instantiated at the field's square root of a
    nonsquare."""
    if s.case is not CaseTag.ODD:
        raise InvalidInputError("representative flags exist in the odd case only")
    field = spec.extension()
    u_inv = field.matrix_inv(_us_matrix(s, field))
    n = s.n
    cols = [tuple(u_inv[r][c] for r in range(n)) for c in range(n)]
    bases = []
    prefix = 0
    for part in s.partition.parts:
        prefix += part
        bases.append(field.rref(cols[:prefix]))
    return Flag(s.partition, tuple(bases))


def _complements(flag: Flag, field: QuadraticExtension) -> dict[tuple[int, int], tuple[Vec, ...]]:
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
    out: dict[tuple[int, int], tuple[Vec, ...]] = {}
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


def reduce_to_representative(flag: Flag, spec: FieldSpec) -> list[Vec]:
    """Base-field matrix carrying the flag onto its canonical
    representative.

    Sends each graded piece of the flag onto the matching piece of the
    representative; off-diagonal partners are mapped by the Frobenius
    transport of each other, so the assembled matrix commutes with the
    twist and therefore has base-field entries.
    """
    field = spec.extension()
    profile = flag_profile(flag, spec)
    rep = representative_flag(profile, spec)
    src = _complements(flag, field)
    dst = _complements(rep, field)
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
    # columns are the basis vectors; h B = B'
    b_mat = [tuple(src_vecs[c][r] for c in range(n)) for r in range(n)]
    b2_mat = [tuple(dst_vecs[c][r] for c in range(n)) for r in range(n)]
    h = field.matrix_mul(b2_mat, field.matrix_inv(b_mat))
    return h


def _decode(data: object, n: int, q: int, partition: Partition) -> list[Flag] | None:
    """The flags of a cache payload, or None unless it has this version
    and holds as many flags as the variety has, each a chain of lists of
    rows of n entries of F_{q^2}.  An entry must be an int in 0..q^2 - 1
    by type: JSON true and 1.0 compare equal to 1, so a membership test
    would let them through."""
    if not isinstance(data, dict) or data.get("version") != CACHE_VERSION:
        return None
    chains = data.get("flags")
    if not isinstance(chains, list) or len(chains) != count_flags(n, partition, q * q):
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
    return [
        Flag(partition, tuple(tuple(map(tuple, basis)) for basis in chain))
        for chain in chains
    ]


class FlagCache:
    """On-disk cache of flag enumerations keyed by (n, q, partition).

    A file that is missing, unreadable, not JSON, of another version or
    of the wrong shape is a miss, so the caller recomputes and rewrites
    it.  Writes go to a temporary file in the same directory that then
    replaces the entry, so a reader never sees a partial file.
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
            with open(self._path(n, q, partition)) as fh:
                data = json.load(fh)
        except (OSError, ValueError):
            # a missing or unreadable file, or text that is not JSON
            return None
        return _decode(data, n, q, partition)

    def store(self, n: int, q: int, partition: Partition, flags: list[Flag]) -> None:
        # The text of json.dumps({"version": ..., "flags": [...]}), one
        # json.dumps per flag: json.dump would stream through the
        # pure-Python encoder, and one json.dumps call over the whole
        # list holds every small piece of the C encoder at once.
        flags_text = ", ".join(json.dumps(flag.bases) for flag in flags)
        text = f'{{"version": {CACHE_VERSION}, "flags": [{flags_text}]}}'
        fd, tmp = tempfile.mkstemp(dir=self.directory, prefix=".flags-", suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as fh:
                fh.write(text)
            os.replace(tmp, self._path(n, q, partition))
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
