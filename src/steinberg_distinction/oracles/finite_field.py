"""Exact linear algebra over a quadratic extension of a prime field.

Elements of F_{q^2} = F_q(l), with l^2 a fixed nonsquare of F_q, are
the integers x = a q + b in 0..q^2 - 1 standing for a + b l.  The coding
keeps the lexicographic order of the coordinates (a, b), zero is the
integer 0 and one is the integer q.  Every field operation is a
lookup in a table built once per field.  The arithmetic Frobenius
x -> x^q fixes F_q and negates l, so it sends a + b l to a - b l.
Subspaces are tuples of row-reduced rows; every operation is exact.
"""

from __future__ import annotations

import functools

from ..cosets import InvalidInputError

__all__ = ["QuadraticExtension", "Elt", "Vec"]

Elt = int
Vec = tuple[Elt, ...]


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    f = 2
    while f * f <= p:
        if p % f == 0:
            return False
        f += 1
    return True


class QuadraticExtension:
    """F_{q^2} over the odd prime field F_p, with row reduction over it;
    prime powers are not needed at desk scale.

    ``QuadraticExtension(p)`` builds the tables once per prime per
    process and returns that one instance on every later call.
    ``add_table[x][y]`` is x + y, and likewise ``sub_table``,
    ``mul_table``; ``neg_table[x]``, ``inv_table[x]`` (None at zero) and
    ``frob_table[x]`` act on one element.
    """

    @staticmethod
    @functools.cache
    def __new__(cls, p: int) -> "QuadraticExtension":
        if not _is_prime(p) or p == 2:
            raise InvalidInputError("p must be an odd prime")
        self = super().__new__(cls)
        self.p = p
        squares = {(x * x) % p for x in range(p)}
        self.nonsquare = ns = next(c for c in range(2, p) if c not in squares)
        self.zero: Elt = 0
        self.one: Elt = p
        self.lam: Elt = 1
        coords = [divmod(x, p) for x in range(p * p)]
        self.add_table = [
            [(a + c) % p * p + (b + d) % p for c, d in coords] for a, b in coords
        ]
        self.sub_table = [
            [(a - c) % p * p + (b - d) % p for c, d in coords] for a, b in coords
        ]
        self.mul_table = [
            [(a * c + ns * b * d) % p * p + (a * d + b * c) % p for c, d in coords]
            for a, b in coords
        ]
        self.neg_table = [(-a) % p * p + (-b) % p for a, b in coords]
        self.frob_table = [a * p + (-b) % p for a, b in coords]
        # x^-1 = frob(x) / N(x), the norm N(x) = a^2 - ns b^2 lying in F_q*
        self.inv_table: list[Elt | None] = [None]
        for x in range(1, p * p):
            a, b = coords[x]
            nrm_inv = pow((a * a - ns * b * b) % p, p - 2, p)
            self.inv_table.append(self.mul_table[self.frob_table[x]][nrm_inv * p])
        return self

    # -- element arithmetic -------------------------------------------------
    def scalar(self, a: int) -> Elt:
        return a % self.p * self.p

    def add(self, x: Elt, y: Elt) -> Elt:
        return self.add_table[x][y]

    def sub(self, x: Elt, y: Elt) -> Elt:
        return self.sub_table[x][y]

    def neg(self, x: Elt) -> Elt:
        return self.neg_table[x]

    def mul(self, x: Elt, y: Elt) -> Elt:
        return self.mul_table[x][y]

    def inv(self, x: Elt) -> Elt:
        if not x:
            raise ZeroDivisionError("inverse of zero")
        return self.inv_table[x]

    def frob(self, x: Elt) -> Elt:
        return self.frob_table[x]

    def in_base(self, x: Elt) -> bool:
        return x % self.p == 0

    def elements(self) -> list[Elt]:
        return list(range(self.p * self.p))

    # -- vectors and subspaces ---------------------------------------------
    def vec_frob(self, v: Vec) -> Vec:
        frob = self.frob_table
        return tuple([frob[x] for x in v])

    def vec_add(self, u: Vec, v: Vec) -> Vec:
        add = self.add_table
        return tuple([add[x][y] for x, y in zip(u, v)])

    def vec_scale(self, c: Elt, v: Vec) -> Vec:
        mul = self.mul_table[c]
        return tuple([mul[x] for x in v])

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

    def rank(self, rows: list[Vec]) -> int:
        return len(self.rref(rows))

    def in_span(self, v: Vec, basis: tuple[Vec, ...]) -> bool:
        return self.rank(list(basis) + [v]) == len(basis)

    def sum_spaces(self, a: tuple[Vec, ...], b: tuple[Vec, ...]) -> tuple[Vec, ...]:
        return self.rref(list(a) + list(b))

    def intersect(self, a: tuple[Vec, ...], b: tuple[Vec, ...]) -> tuple[Vec, ...]:
        """Basis of the intersection of two row spans."""
        if not a or not b:
            return ()
        # coefficient vectors (u, w) with u A = w B: left kernel of the
        # stacked matrix, solved by reducing its transpose's null space
        neg = self.neg_table
        stacked = list(a) + [tuple([neg[x] for x in row]) for row in b]
        null = self._nullspace_left(stacked)
        vecs = []
        for coeffs in null:
            v = (0,) * len(a[0])
            for c, row in zip(coeffs[: len(a)], a):
                v = self.vec_add(v, self.vec_scale(c, row))
            vecs.append(v)
        return self.rref(vecs)

    def _nullspace_left(self, rows: list[Vec]) -> list[Vec]:
        """Vectors c with sum_i c_i rows_i = 0."""
        k = len(rows)
        # transpose: solve M c = 0 with M ncols x k
        red = self.rref(list(zip(*rows)))
        pivots = [next(i for i, x in enumerate(row) if x) for row in red]
        free = [i for i in range(k) if i not in pivots]
        basis = []
        for f in free:
            c = [0] * k
            c[f] = self.one
            for row, piv in zip(red, pivots):
                c[piv] = self.neg_table[row[f]]
            basis.append(tuple(c))
        return basis

    def extend_to_complement(
        self, inner: tuple[Vec, ...], outer: tuple[Vec, ...]
    ) -> tuple[Vec, ...]:
        """Vectors of ``outer`` completing ``inner`` to span ``outer``.

        Each candidate is reduced against an echelon form of the span so
        far, which grows by one normalised row per chosen vector.  A row
        added later is zero at every earlier pivot, so clearing the
        pivots in insertion order leaves zero exactly on the span.
        """
        mul, sub, inv = self.mul_table, self.sub_table, self.inv_table
        echelon = [
            (next(c for c, x in enumerate(row) if x), row) for row in self.rref(list(inner))
        ]
        chosen = []
        for v in outer:
            w = v
            for piv, row in echelon:
                c = w[piv]
                if c:
                    scale = mul[c]
                    w = [sub[x][scale[y]] for x, y in zip(w, row)]
            piv = next((c for c, x in enumerate(w) if x), None)
            if piv is not None:
                scale = mul[inv[w[piv]]]
                echelon.append((piv, [scale[x] for x in w]))
                chosen.append(v)
        return tuple(chosen)

    def fixed_subspace(self, basis: tuple[Vec, ...]) -> tuple[Vec, ...]:
        """Basis (with base-field entries) of the Frobenius-fixed points
        of a Frobenius-stable span."""
        sub = self.sub_table
        candidates = []
        for v in basis:
            fv = self.vec_frob(v)
            candidates.append(self.vec_add(v, fv))
            candidates.append(self.vec_scale(self.lam, tuple([sub[x][y] for x, y in zip(v, fv)])))
        fixed = self.rref(candidates)
        if len(fixed) != len(basis) or not all(
            self.in_base(x) for row in fixed for x in row
        ):
            raise InvalidInputError("span is not Frobenius-stable")
        return fixed

    def matrix_mul(self, m: list[Vec], v: list[Vec]) -> list[Vec]:
        add, mul = self.add_table, self.mul_table
        cols = list(zip(*v))
        out = []
        for row in m:
            out_row = []
            for col in cols:
                acc = 0
                for x, y in zip(row, col):
                    acc = add[acc][mul[x][y]]
                out_row.append(acc)
            out.append(tuple(out_row))
        return out

    def matrix_inv(self, m: list[Vec]) -> list[Vec]:
        n = len(m)
        one = self.one
        aug = [tuple(m[i]) + tuple(one if j == i else 0 for j in range(n)) for i in range(n)]
        red = self.rref(aug)
        if len(red) != n or any(red[i][i] != one for i in range(n)):
            raise ZeroDivisionError("matrix is singular")
        return [tuple(row[n:]) for row in red]
