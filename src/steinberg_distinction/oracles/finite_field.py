"""Exact linear algebra over a quadratic extension of a prime field.

Elements of F_{q^2} = F_q(l), with l^2 a fixed nonsquare of F_q, are
pairs (a, b) standing for a + b l.  The arithmetic Frobenius x -> x^q
fixes F_q and negates l, so it acts coordinate-wise as (a, b) -> (a, -b).
Subspaces are tuples of row-reduced rows; every operation is exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from ..cosets import InvalidInputError

__all__ = ["FieldSpec", "QuadraticExtension", "Elt", "Vec"]

Elt = tuple[int, int]
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


@dataclass(frozen=True)
class FieldSpec:
    """Odd prime field F_p; prime powers are not needed at desk scale."""

    p: int

    def __post_init__(self) -> None:
        if not _is_prime(self.p) or self.p == 2:
            raise InvalidInputError("p must be an odd prime")

    def extension(self) -> "QuadraticExtension":
        """F_{q^2} over this field, built once per spec."""
        return self._extension

    @cached_property
    def _extension(self) -> "QuadraticExtension":
        return QuadraticExtension(self)


class QuadraticExtension:
    """F_{q^2} arithmetic plus row reduction over it."""

    def __init__(self, spec: FieldSpec):
        self.spec = spec
        self.p = spec.p
        squares = {(x * x) % self.p for x in range(self.p)}
        self.nonsquare = next(c for c in range(2, self.p) if c not in squares)
        self.zero: Elt = (0, 0)
        self.one: Elt = (1, 0)
        self.lam: Elt = (0, 1)

    # -- element arithmetic -------------------------------------------------
    def scalar(self, a: int) -> Elt:
        return (a % self.p, 0)

    def add(self, x: Elt, y: Elt) -> Elt:
        return ((x[0] + y[0]) % self.p, (x[1] + y[1]) % self.p)

    def sub(self, x: Elt, y: Elt) -> Elt:
        return ((x[0] - y[0]) % self.p, (x[1] - y[1]) % self.p)

    def neg(self, x: Elt) -> Elt:
        return ((-x[0]) % self.p, (-x[1]) % self.p)

    def mul(self, x: Elt, y: Elt) -> Elt:
        a, b = x
        c, d = y
        return (
            (a * c + self.nonsquare * b * d) % self.p,
            (a * d + b * c) % self.p,
        )

    def inv(self, x: Elt) -> Elt:
        a, b = x
        # norm a^2 - c b^2 lies in F_q*
        nrm = (a * a - self.nonsquare * b * b) % self.p
        if nrm == 0:
            raise ZeroDivisionError("inverse of zero")
        nrm_inv = pow(nrm, self.p - 2, self.p)
        return ((a * nrm_inv) % self.p, (-b * nrm_inv) % self.p)

    def frob(self, x: Elt) -> Elt:
        return (x[0], (-x[1]) % self.p)

    def in_base(self, x: Elt) -> bool:
        return x[1] == 0

    def elements(self) -> list[Elt]:
        return [(a, b) for a in range(self.p) for b in range(self.p)]

    # -- vectors and subspaces ---------------------------------------------
    def vec_frob(self, v: Vec) -> Vec:
        return tuple(self.frob(x) for x in v)

    def vec_add(self, u: Vec, v: Vec) -> Vec:
        return tuple(self.add(x, y) for x, y in zip(u, v))

    def vec_scale(self, c: Elt, v: Vec) -> Vec:
        return tuple(self.mul(c, x) for x in v)

    def rref(self, rows: list[Vec]) -> tuple[Vec, ...]:
        """Reduced row echelon form; zero rows dropped.

        The row operations spell out the products of ``mul`` and the
        differences of ``sub``, with the same results.
        """
        mat = [list(r) for r in rows]
        if not mat:
            return ()
        p, ns, zero = self.p, self.nonsquare, self.zero
        ncols = len(mat[0])
        pivot_row = 0
        for col in range(ncols):
            sel = next(
                (r for r in range(pivot_row, len(mat)) if mat[r][col] != zero),
                None,
            )
            if sel is None:
                continue
            mat[pivot_row], mat[sel] = mat[sel], mat[pivot_row]
            ia, ib = self.inv(mat[pivot_row][col])
            prow = mat[pivot_row] = [
                ((ia * a + ns * ib * b) % p, (ia * b + ib * a) % p)
                for a, b in mat[pivot_row]
            ]
            for r, row in enumerate(mat):
                if r != pivot_row and row[col] != zero:
                    ca, cb = row[col]
                    mat[r] = [
                        ((xa - ca * ya - ns * cb * yb) % p, (xb - ca * yb - cb * ya) % p)
                        for (xa, xb), (ya, yb) in zip(row, prow)
                    ]
            pivot_row += 1
            if pivot_row == len(mat):
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
        stacked = list(a) + [tuple(self.neg(x) for x in row) for row in b]
        null = self._nullspace_left(stacked)
        vecs = []
        for coeffs in null:
            v = tuple(self.zero for _ in a[0])
            for c, row in zip(coeffs[: len(a)], a):
                v = self.vec_add(v, self.vec_scale(c, row))
            vecs.append(v)
        return self.rref(vecs)

    def _nullspace_left(self, rows: list[Vec]) -> list[Vec]:
        """Vectors c with sum_i c_i rows_i = 0."""
        k = len(rows)
        ncols = len(rows[0])
        # transpose: solve M c = 0 with M ncols x k
        mat = [[rows[r][c] for r in range(k)] for c in range(ncols)]
        red = self.rref([tuple(row) for row in mat])
        pivots = []
        for row in red:
            pivots.append(next(i for i, x in enumerate(row) if x != self.zero))
        free = [i for i in range(k) if i not in pivots]
        basis = []
        for f in free:
            c = [self.zero] * k
            c[f] = self.one
            for row, piv in zip(red, pivots):
                c[piv] = self.neg(row[f])
            basis.append(tuple(c))
        return basis

    def extend_to_complement(
        self, inner: tuple[Vec, ...], outer: tuple[Vec, ...]
    ) -> tuple[Vec, ...]:
        """Vectors of ``outer`` completing ``inner`` to span ``outer``."""
        current = list(inner)
        rank = self.rank(current)
        chosen = []
        for v in outer:
            if self.rank(current + [v]) > rank:
                current.append(v)
                rank += 1
                chosen.append(v)
        return tuple(chosen)

    def fixed_subspace(self, basis: tuple[Vec, ...]) -> tuple[Vec, ...]:
        """Basis (with base-field entries) of the Frobenius-fixed points
        of a Frobenius-stable span."""
        candidates = []
        for v in basis:
            fv = self.vec_frob(v)
            candidates.append(self.vec_add(v, fv))
            candidates.append(self.vec_scale(self.lam, tuple(self.sub(x, y) for x, y in zip(v, fv))))
        fixed = self.rref(candidates)
        if len(fixed) != len(basis) or not all(
            self.in_base(x) for row in fixed for x in row
        ):
            raise InvalidInputError("span is not Frobenius-stable")
        return fixed

    def matrix_mul(self, m: list[Vec], v: list[Vec]) -> list[Vec]:
        n = len(m)
        k = len(v[0])
        out = []
        for i in range(n):
            row = []
            for j in range(k):
                acc = self.zero
                for l in range(len(v)):
                    acc = self.add(acc, self.mul(m[i][l], v[l][j]))
                row.append(acc)
            out.append(tuple(row))
        return out

    def matrix_inv(self, m: list[Vec]) -> list[Vec]:
        n = len(m)
        aug = [tuple(list(m[i]) + [self.one if j == i else self.zero for j in range(n)]) for i in range(n)]
        red = self.rref(aug)
        if len(red) != n or any(
            red[i][i] != self.one for i in range(n)
        ):
            raise ZeroDivisionError("matrix is singular")
        return [tuple(row[n:]) for row in red]
