"""Exact linear algebra over a quadratic extension of a prime field.

Elements of F_{q^2} = F_q(l), with l^2 a fixed nonsquare of F_q, are
the integers x = a q + b in 0..q^2 - 1 standing for a + b l.  The coding
keeps the lexicographic order of the coordinates (a, b), zero is the
integer 0 and one is the integer q.  Every field operation is a
lookup in a table built once per field; a field whose q^2 x q^2 tables
would exceed ``MAX_TABLE_ENTRIES`` (10^6 entries, so q <= 31) is
refused before anything is built.  The tables are assembled from
C-level slices and gathers over one shared list of the q^2 elements,
so building them costs no Python arithmetic per entry and no new int
object.  The arithmetic Frobenius x -> x^q fixes F_q and negates l, so
it sends a + b l to a - b l.

Subspaces are tuples of row-reduced rows.  The sum reduces both bases
together, the intersection is Zassenhaus's reduction of (a, a) over
(b, 0), and ``solve`` reads h with h src = dst off the reduction of
(src, dst).  A complement is read off the coordinates of the inner
vectors in the outer basis, reduced from the right, and ``rank``
eliminates on the nonzero entries.  ``is_reduced`` checks the
definition of a reduced basis instead of reducing it.
"""

from __future__ import annotations

import functools
import itertools
import operator

from ..cosets import InvalidInputError, int_text

Elt = int
Vec = tuple[Elt, ...]

MAX_TABLE_ENTRIES = 10**6


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    f = 2
    while f * f <= p:
        if p % f == 0:
            return False
        f += 1
    return True


def pivot(row: Vec) -> int:
    """Column of the first nonzero entry of a nonzero row."""
    return row.index(next(filter(None, row)))


def _powers_of_a_generator(p: int, ns: int) -> list[Elt]:
    """1, g, ..., g^(q^2 - 2) for the least generator g of F_{q^2}*, each
    power multiplied out with the pair formula
    (a + b l)(c + d l) = (a c + ns b d) + (a d + b c) l."""
    for g in range(1, p * p):
        c, d = divmod(g, p)
        powers = [p]
        a, b = (c, d)
        while (a, b) != (1, 0):
            powers.append(a * p + b)
            a, b = (a * c + ns * b * d) % p, (a * d + b * c) % p
        if len(powers) == p * p - 1:
            return powers
    raise AssertionError("F_{q^2}* is cyclic")


def require_small_odd_prime(p: int) -> None:
    """Raise ``InvalidInputError`` unless p is an odd prime whose field
    tables of p^4 entries stay within ``MAX_TABLE_ENTRIES``.  The size
    is checked first, so a large p is refused without trial division."""
    if p > 2 and p**4 > MAX_TABLE_ENTRIES:
        raise InvalidInputError(
            f"q = {p} is too large: its field tables would hold q^4 = {int_text(p**4)}"
            f" entries, more than {MAX_TABLE_ENTRIES}"
        )
    if not _is_prime(p) or p == 2:
        raise InvalidInputError("p must be an odd prime")


class QuadraticExtension:
    """F_{q^2} over the odd prime field F_p, with row reduction over it;
    prime powers are not needed at desk scale.

    ``QuadraticExtension(p)`` checks p with ``require_small_odd_prime``,
    builds the tables once per prime per process and returns that one
    instance on every later call.
    ``add_table[x][y]`` is x + y, and likewise ``sub_table``,
    ``mul_table``; ``neg_table[x]``, ``inv_table[x]`` (None at zero) and
    ``frob_table[x]`` act on one element.  The tables are plain lists
    of lists, which the inner loops index directly.
    """

    @staticmethod
    @functools.cache
    def __new__(cls, p: int) -> "QuadraticExtension":
        require_small_odd_prime(p)
        self = super().__new__(cls)
        self.p = p
        squares = {(x * x) % p for x in range(p)}
        self.nonsquare = ns = next(c for c in range(2, p) if c not in squares)
        self.zero: Elt = 0
        self.one: Elt = p
        self.lam: Elt = 1
        q2 = p * p
        # the rows share these int objects rather than hold q^4 new ones
        elems = list(range(q2))
        coords = [divmod(x, p) for x in elems]
        self.neg_table = [(-a) % p * p + (-b) % p for a, b in coords]
        self.frob_table = [a * p + (-b) % p for a, b in coords]
        # doubled[b] is the row of b l in add_table twice over; the row of
        # a q + b is that one rotated by a q places, so one slice of it
        doubled = [[elems[c // p * p + (b + c) % p] for c in range(q2)] * 2 for b in range(p)]
        self.add_table = [doubled[b][a * p : a * p + q2] for a, b in coords]
        # x - y = (x + 1 + l) + (q^2 - 1 - y), since q^2 - 1 - y codes
        # -y - 1 - l: row x is a row of add_table reversed
        self.sub_table = [
            self.add_table[(a + 1) % p * p + (b + 1) % p][::-1] for a, b in coords
        ]
        # with g a generator of F_{q^2}*, x^-1 = g^(-log x) and
        # x y = g^(log x + log y): row x != 0 is the powers of g from
        # log x on, gathered at the logs
        powers = [elems[x] for x in _powers_of_a_generator(p, ns)]
        log = [0] * q2
        for k, x in enumerate(powers):
            log[x] = k
        self.inv_table: list[Elt | None] = [None] + [powers[-log[x]] for x in elems[1:]]
        at_logs = operator.itemgetter(*log[1:])
        twice = powers * 2
        self.mul_table = [[0] * q2] + [
            [0, *at_logs(twice[log[x] : log[x] + q2 - 1])] for x in elems[1:]
        ]
        return self

    # -- elements ---------------------------------------------------------
    def in_base(self, x: Elt) -> bool:
        return x % self.p == 0

    # -- vectors and subspaces ---------------------------------------------
    def vec_frob(self, v: Vec) -> Vec:
        frob = self.frob_table
        return tuple([frob[x] for x in v])

    def rref(self, rows: list[Vec]) -> tuple[Vec, ...]:
        """Reduced row echelon form; zero rows dropped."""
        mat = [list(r) for r in rows]
        if not mat:
            return ()
        mul, sub, inv, one = self.mul_table, self.sub_table, self.inv_table, self.one
        nrows = len(mat)
        pivot_row = 0
        for col in range(len(mat[0])):
            for sel in range(pivot_row, nrows):
                if mat[sel][col]:
                    break
            else:
                continue
            prow = mat[sel]
            mat[sel] = mat[pivot_row]
            if prow[col] != one:
                scale = mul[inv[prow[col]]]
                prow = [scale[x] for x in prow]
            mat[pivot_row] = prow
            for r, row in enumerate(mat):
                c = row[col]
                if c and r != pivot_row:
                    scale = mul[c]
                    mat[r] = [sub[x][scale[y]] for x, y in zip(row, prow)]
            pivot_row += 1
            if pivot_row == nrows:
                break
        # every row above pivot_row holds a pivot, every row below is zero
        return tuple(tuple(row) for row in mat[:pivot_row])

    def rank(self, rows: list[Vec] | list[dict[int, Elt]]) -> int:
        """Elimination on nonzero entries: each row, dense or the dict of its
        nonzero entries by column, reduced against the rows kept, one per
        leading column, is kept if anything is left."""
        mul, sub, inv = self.mul_table, self.sub_table, self.inv_table
        kept: dict[int, dict[int, Elt]] = {}
        for row in rows:
            if type(row) is dict:
                left = dict(row)
            else:
                left = {c: row[c] for c in itertools.compress(range(len(row)), row)}
            while left and (lead := min(left)) in kept:
                scale = mul[mul[left[lead]][inv[kept[lead][lead]]]]
                for c, x in kept[lead].items():
                    left[c] = sub[left.get(c, 0)][scale[x]]
                left = {c: x for c, x in left.items() if x}
            if left:
                kept[lead] = left
        return len(kept)

    def is_reduced(self, rows: tuple[Vec, ...]) -> bool:
        """Whether ``rref(rows) == rows``, from the definition and with no
        reduction: every row is nonzero with leading entry one, the
        leading columns strictly increase, and every leading column is
        zero in the other rows.  Only the rows above need that check: a
        row below is zero up to its own, later, leading column."""
        last = -1
        for index, row in enumerate(rows):
            if not any(row):
                return False
            col = pivot(row)
            if col <= last or row[col] != self.one or any(r[col] for r in rows[:index]):
                return False
            last = col
        return True

    def sum_spaces(self, a: tuple[Vec, ...], b: tuple[Vec, ...]) -> tuple[Vec, ...]:
        return self.rref(list(a) + list(b))

    def intersect(self, a: tuple[Vec, ...], b: tuple[Vec, ...]) -> tuple[Vec, ...]:
        """Reduced basis of the intersection of two row spans.

        Zassenhaus: the rows (u, u) for u in ``a`` and (w, 0) for w in
        ``b`` span the pairs (u + w, u), and such a pair has left half zero
        exactly when u = -w lies in both spans.  So the rows of the
        reduced form whose left half is zero have reduced right halves
        spanning the intersection.
        """
        if not a or not b:
            return ()
        n = len(a[0])
        zero = (0,) * n
        red = self.rref([row + row for row in a] + [row + zero for row in b])
        return tuple(row[n:] for row in red if not any(row[:n]))

    def extend_to_complement(
        self, inner: tuple[Vec, ...], outer: tuple[Vec, ...]
    ) -> tuple[Vec, ...]:
        """Vectors of ``outer``, a reduced basis whose span holds
        ``inner``, completing ``inner`` to span ``outer``, each one
        outside the span of ``inner`` and the vectors chosen before it.

        Row i of ``inner`` is sum_j c_ij outer_j, with c_ij its entry at
        the pivot column of outer_j, and outer_j is left out exactly when
        some combination of the rows c ends at column j: nonzero there
        and zero after it.  The rows reduced from the right, each kept
        at a column where no kept row ends, end at those columns; a
        single row needs no reduction."""
        mul, sub, inv = self.mul_table, self.sub_table, self.inv_table
        cols = [pivot(u) for u in outer]
        kept: dict[int, list[Elt]] = {}
        for w in inner:
            row = [w[c] for c in cols]
            while any(row):
                end = max(itertools.compress(range(len(row)), row))
                if end not in kept:
                    kept[end] = row
                    break
                k = kept[end]
                scale = mul[mul[row[end]][inv[k[end]]]]
                row = [sub[x][scale[y]] for x, y in zip(row, k)]
        return tuple(u for j, u in enumerate(outer) if j not in kept)

    def solve(self, src: list[Vec], dst: list[Vec]) -> list[Vec]:
        """The matrix h with h src[c] = dst[c] for every c, the vectors
        taken as columns; ``src`` must be a basis of F^n.  Row reduction
        takes the rows (src[c], dst[c]) to rows (e_c, x_c), and x_c is
        column c of h."""
        n = len(src)
        red = self.rref([s + d for s, d in zip(src, dst)])
        if len(red) != n or any(red[i][i] != self.one for i in range(n)):
            raise ZeroDivisionError("matrix is singular")
        return [tuple(col) for col in zip(*(row[n:] for row in red))]

    def matrix_inv(self, m: list[Vec]) -> list[Vec]:
        """The inverse of a square matrix: h sends its columns to the
        unit vectors."""
        n = len(m)
        unit = [tuple(self.one if c == r else 0 for c in range(n)) for r in range(n)]
        return self.solve(list(zip(*m)), unit)
