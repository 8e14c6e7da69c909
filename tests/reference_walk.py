"""Two walks the tests keep as references for the flag oracle.

``_walk`` streams every flag with its rank table, depth first, each
node's children in the order of its quotient's reduced bases, so it
yields the flags in ``flags.enumerate_flags``'s order.
``walk_histogram`` finds the orbit sizes by walking orbit
representatives of partial flags, each merge certified by a reduction;
``flags.profile_histogram`` gets the same sizes from an orbit-stabiliser
certificate.
"""

from __future__ import annotations

import collections
import itertools
from typing import Iterator

from steinberg_distinction.cosets import InvalidInputError, Partition
from steinberg_distinction.oracles.finite_field import QuadraticExtension, Vec
from steinberg_distinction.oracles.flags import (
    DEFAULT_BUDGET,
    BudgetExceededError,
    CertificationError,
    Flag,
    Histogram,
    Table,
    _extend,
    _profile_from_rows,
    _rank_row,
    _rref,
    _rref_blocks,
    count_flags,
    flag_profile,
    reduction_fault,
)


def field_elements(field) -> list:
    """The elements of F_{q^2} in order: the codes 0, ..., q^2 - 1 of a
    ``QuadraticExtension``, or the coordinate pairs of the tests'
    ``PairExtension``."""
    if isinstance(field, QuadraticExtension):
        return list(range(field.p * field.p))
    return field.elements()


def _enumerate_rref(field: QuadraticExtension, n: int, k: int) -> Iterator[tuple[Vec, ...]]:
    """All reduced row echelon bases of k-dimensional subspaces of F^n,
    by pivot columns and then by the values of the free cells."""
    for pivots, cells in _rref_blocks(n, k):
        for values in itertools.product(field_elements(field), repeat=len(cells)):
            yield _rref(field, n, pivots, cells, values)


def _children(
    field: QuadraticExtension, n: int, basis: tuple[Vec, ...], part: int
) -> Iterator[tuple[Vec, ...]]:
    """The reduced bases of the subspaces V > span(basis) with
    dim V = len(basis) + part, one per subspace of the quotient in the
    coordinates off the pivots of ``basis``, in ``_enumerate_rref`` order."""
    for quotient in _enumerate_rref(field, n - len(basis), part):
        yield _extend(field, n, basis, quotient)


def _walk(
    field: QuadraticExtension, partition: Partition, budget: int
) -> Iterator[tuple[tuple[tuple[Vec, ...], ...], Table]]:
    """Every flag of the given shape once, as the bases of V_1, ...,
    V_{t - 1} and their rank table, refused with the count estimate
    before the first when the flag variety exceeds the budget.

    A depth-first walk over chains of reduced bases, each step built
    from the previous one through the subspaces of the quotient, so no
    flag comes twice and none is filtered out; the order is by V_1, then
    by V_2 / V_1, and so on, each in ``_enumerate_rref`` order.  A node V_i
    computes its row of the rank table once for all its descendants;
    V_t = F^n costs nothing.
    """
    estimate = count_flags(partition, field.p * field.p)
    if estimate > budget:
        raise BudgetExceededError(estimate, budget)
    n, parts = partition.total, partition.parts
    if len(parts) == 1:
        yield (), ()
        return
    # stack[d] iterates the bases of V_{d + 1} below the path whose
    # bases and rank table rows are chains[d] and tables[d]
    stack: list[Iterator[tuple[Vec, ...]]] = [_enumerate_rref(field, n, parts[0])]
    chains: list[tuple[tuple[Vec, ...], ...]] = [()]
    tables: list[Table] = [()]
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
        if depth < len(parts) - 1:
            stack.append(_children(field, n, basis, parts[depth]))
            chains.append(chain)
            tables.append(table)
        else:
            count += 1
            yield chain, table
    if count != estimate:
        raise InvalidInputError(f"enumeration produced {count} flags, expected {estimate}")


def walk_histogram(
    field: QuadraticExtension,
    partition: Partition,
    budget: int = DEFAULT_BUDGET,
) -> Histogram:
    """The orbit sizes of the flags, keyed by the flat coset matrix of
    the orbit, from a walk over orbit representatives instead of over
    every flag; refused like ``_walk`` when the flags exceed the budget.

    The root lemma.  Two reduced bases of one pivot block whose entries
    have the same imaginary parts differ by real parts d_rc in F_q at
    the free cells (r, c), and the unipotent base-field map
    e_{p_r} -> e_{p_r} + sum_c d_rc e_c, fixing the other unit vectors,
    carries the rows of one onto the rows of the other, because no free
    column c is a pivot.  So the q^c bases of a block of c free cells
    with one pattern of imaginary parts lie in one orbit of
    H = GL_n(F_q), and the walk starts from the q^c patterns, each as
    the basis with real parts 0 and multiplicity q^c.  It is the fact
    ``_diagonal``'s memo rests on.

    Deeper levels.  Each partial flag V_1 < ... < V_i has the same number
    of extensions, and h in H carries those of a partial flag onto those
    of its image with their rank tables, since h commutes with the
    twist.  So a level keeps one representative chain for each distinct
    partial rank table, with the summed multiplicity of the partial
    flags it stands for, extends only the representatives through
    ``_children``, and the last level is counted.

    Certification.  A merge of equal partial tables assumes that they
    are one H-orbit, which is the claim the oracle tests, so every
    partial flag of a merged table, the representative included, is
    checked as a flag of the coarse partition (n_1, ..., n_i, n - d_i):
    its ``flag_profile`` must be the coset matrix of the table, and
    ``reduce_to_representative`` must carry it onto the canonical
    representative by a base-field matrix.  The last level is counted,
    not extended, so its merges need no certificate.  The multiplicities
    must sum to the flag count.  ``CertificationError`` otherwise.
    """
    count = count_flags(partition, field.p * field.p)
    if count > budget:
        raise BudgetExceededError(count, budget)
    n, parts = partition.total, partition.parts
    if len(parts) == 1:
        return {_profile_from_rows(parts, ()).flat(): 1}
    # members[table]: the chains of bases of V_1, ..., V_i with that
    # partial table, the representative first; sizes[table]: the flags
    # they stand for
    members: dict[Table, list] = collections.defaultdict(list)
    sizes: collections.Counter = collections.Counter()
    for pivots, cells in _rref_blocks(n, parts[0]):
        for values in itertools.product(range(field.p), repeat=len(cells)):
            basis = _rref(field, n, pivots, cells, values)
            table = (_rank_row(field, basis, ()),)
            members[table].append((basis,))
            sizes[table] += field.p ** len(cells)
    for depth, part in enumerate(parts[1:-1], 1):
        _certify(field, Partition((*parts[:depth], n - sum(parts[:depth]))), members)
        below: dict[Table, list] = collections.defaultdict(list)
        below_sizes: collections.Counter = collections.Counter()
        for table, chains in members.items():
            chain = chains[0]
            for basis in _children(field, n, chain[-1], part):
                extended = table + (_rank_row(field, basis, chain),)
                below[extended].append(chain + (basis,))
                below_sizes[extended] += sizes[table]
        members, sizes = below, below_sizes
    if sum(sizes.values()) != count:
        raise CertificationError(f"orbit sizes sum to {sum(sizes.values())}, not to {count} flags")
    return {_profile_from_rows(parts, table).flat(): size for table, size in sizes.items()}


def _certify(field: QuadraticExtension, coarse: Partition, members: dict[Table, list]) -> None:
    """Check that the partial flags merged under each table of one level
    are one H-orbit: each, as a flag of the coarse partition, has the
    table's coset matrix as its ``flag_profile``, and ``reduction_fault``
    finds no fault in carrying it onto that matrix's representative."""
    # V_t = F^n, as the identity rows
    top = _rref(field, coarse.total, range(coarse.total), (), ())
    for table, chains in members.items():
        if len(chains) < 2:
            continue
        try:
            profile = _profile_from_rows(coarse.parts, table)
        except InvalidInputError as exc:
            raise CertificationError(f"merged under table {table}: {exc}") from None
        for chain in chains:
            flag = Flag(coarse, (*chain, top))
            own = flag_profile(flag, field)
            if own != profile:
                fault = f"flag has profile {list(own.flat())}, not {list(profile.flat())}"
            else:
                fault = reduction_fault(flag, field, profile)
            if fault:
                raise CertificationError(f"{chain} merged under table {table}: {fault}")
