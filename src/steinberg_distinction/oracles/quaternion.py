"""Exact rational quaternion model of the even-case involution.

A quaternion algebra with parameters (alpha, beta) contains the
quadratic field generated by its first generator; conjugation of that
field is induced by the inner automorphism at the second generator.
Writing endomorphisms of the algebra as 2x2 matrices over the field in
the basis (1, j) identifies the complexified algebra with the matrix
algebra, and the Galois involution with the twist-then-conjugate
involution; this module verifies those identities on an 8-element basis
with exact rational arithmetic.
"""

from __future__ import annotations

import math
from fractions import Fraction

from ..cosets import Frozen, InvalidInputError

EElt = tuple[Fraction, Fraction]  # a + b i
EMat = tuple[tuple[EElt, EElt], tuple[EElt, EElt]]


def _is_rational_square(x: Fraction) -> bool:
    """Exact: a reduced fraction is a square when its numerator and
    denominator are."""
    if x < 0:
        return False
    n, d = x.numerator, x.denominator
    return math.isqrt(n) ** 2 == n and math.isqrt(d) ** 2 == d


class QuaternionElem(Frozen):
    """Coordinates (x0, x1, x2, x3) in the basis (1, i, j, ij)."""

    __slots__ = ("coords",)

    def __init__(self, coords: tuple[Fraction, Fraction, Fraction, Fraction]) -> None:
        object.__setattr__(self, "coords", coords)

    @classmethod
    def of(cls, x0=0, x1=0, x2=0, x3=0) -> "QuaternionElem":
        return cls((Fraction(x0), Fraction(x1), Fraction(x2), Fraction(x3)))


class QuaternionAlgebra:
    """(alpha, beta) quaternion algebra over the rationals."""

    def __init__(self, alpha: Fraction, beta: Fraction):
        alpha, beta = Fraction(alpha), Fraction(beta)
        if alpha == 0 or beta == 0:
            raise InvalidInputError("alpha and beta must be nonzero")
        self.alpha = alpha
        self.beta = beta

    def mul(self, x: QuaternionElem, y: QuaternionElem) -> QuaternionElem:
        a, b = self.alpha, self.beta
        x0, x1, x2, x3 = x.coords
        y0, y1, y2, y3 = y.coords
        return QuaternionElem(
            (
                x0 * y0 + a * x1 * y1 + b * x2 * y2 - a * b * x3 * y3,
                x0 * y1 + x1 * y0 - b * x2 * y3 + b * x3 * y2,
                x0 * y2 + x2 * y0 + a * x1 * y3 - a * x3 * y1,
                x0 * y3 + x3 * y0 + x1 * y2 - x2 * y1,
            )
        )

    # -- the quadratic field E = Q(i) inside the algebra --------------------
    def e_mul(self, x: EElt, y: EElt) -> EElt:
        return (x[0] * y[0] + self.alpha * x[1] * y[1], x[0] * y[1] + x[1] * y[0])

    def e_conj(self, x: EElt) -> EElt:
        return (x[0], -x[1])

    def e_embed(self, x: EElt) -> QuaternionElem:
        return QuaternionElem((x[0], x[1], Fraction(0), Fraction(0)))

    def split_columns(self, x: QuaternionElem) -> tuple[EElt, EElt]:
        """Coordinates of x in the right-module basis (1, j): x = a + j b."""
        x0, x1, x2, x3 = x.coords
        return ((x0, x1), (x2, -x3))

    def phi(self, d: QuaternionElem, e: EElt) -> EMat:
        """Matrix of left-by-d, right-by-e in the basis (1, j)."""
        j = QuaternionElem.of(0, 0, 1, 0)
        e_q = self.e_embed(e)
        col1 = self.split_columns(self.mul(self.mul(d, QuaternionElem.of(1)), e_q))
        col2 = self.split_columns(self.mul(self.mul(d, j), e_q))
        return ((col1[0], col2[0]), (col1[1], col2[1]))

    # -- 2x2 matrix arithmetic over E ----------------------------------------
    def m_mul(self, x: EMat, y: EMat) -> EMat:
        out = []
        for r in range(2):
            row = []
            for c in range(2):
                acc = (Fraction(0), Fraction(0))
                for k in range(2):
                    prod = self.e_mul(x[r][k], y[k][c])
                    acc = (acc[0] + prod[0], acc[1] + prod[1])
                row.append(acc)
            out.append(tuple(row))
        return tuple(out)

    def m_theta(self, x: EMat) -> EMat:
        return tuple(tuple(self.e_conj(v) for v in row) for row in x)

    def s_eps(self) -> EMat:
        z = (Fraction(0), Fraction(0))
        one = (Fraction(1), Fraction(0))
        beta = (self.beta, Fraction(0))
        return ((z, beta), (one, z))

    def m_inv(self, x: EMat) -> EMat:
        (a, b), (c, d) = x
        det = (
            self.e_mul(a, d)[0] - self.e_mul(b, c)[0],
            self.e_mul(a, d)[1] - self.e_mul(b, c)[1],
        )
        nrm = det[0] * det[0] - self.alpha * det[1] * det[1]
        if nrm == 0:
            raise ZeroDivisionError("matrix is singular")
        det_inv = (det[0] / nrm, -det[1] / nrm)
        neg = lambda v: (-v[0], -v[1])
        adj = ((d, neg(b)), (neg(c), a))
        return tuple(
            tuple(self.e_mul(det_inv, v) for v in row) for row in adj
        )

    def sigma(self, x: EMat) -> EMat:
        """Twist composed with conjugation by the norm element."""
        s = self.s_eps()
        return self.m_theta(self.m_mul(self.m_mul(s, x), self.m_inv(s)))

    def sigma_other_order(self, x: EMat) -> EMat:
        s = self.s_eps()
        return self.m_mul(self.m_mul(s, self.m_theta(x)), self.m_inv(s))


class QuaternionCheckReport(Frozen):
    __slots__ = (
        "alpha", "beta", "homomorphism", "involution", "orders_agree",
        "fixes_first_factor", "semilinear", "error",
    )

    def __init__(
        self, alpha: Fraction, beta: Fraction, homomorphism: bool, involution: bool,
        orders_agree: bool, fixes_first_factor: bool, semilinear: bool, error: str | None = None,
    ) -> None:
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "homomorphism", homomorphism)
        object.__setattr__(self, "involution", involution)
        object.__setattr__(self, "orders_agree", orders_agree)
        object.__setattr__(self, "fixes_first_factor", fixes_first_factor)
        object.__setattr__(self, "semilinear", semilinear)
        object.__setattr__(self, "error", error)

    @property
    def ok(self) -> bool:
        """All five identities hold."""
        return (
            self.homomorphism and self.involution and self.orders_agree
            and self.fixes_first_factor and self.semilinear
        )

    def to_json(self) -> dict:
        return {
            "alpha": str(self.alpha),
            "beta": str(self.beta),
            "ok": self.ok,
            "checks": {
                "homomorphism": self.homomorphism,
                "involution": self.involution,
                "orders_agree": self.orders_agree,
                "fixes_first_factor": self.fixes_first_factor,
                "semilinear": self.semilinear,
            },
            "error": self.error,
        }


def quaternion_model_check(alpha, beta) -> QuaternionCheckReport:
    """Verify the involution identities on the 8-element tensor basis.

    Rejects a square first parameter, for which the quadratic field
    degenerates.
    """
    alpha, beta = Fraction(alpha), Fraction(beta)
    if _is_rational_square(alpha):
        return QuaternionCheckReport(
            alpha, beta, False, False, False, False, False,
            error="alpha is a rational square: the quadratic field degenerates",
        )
    alg = QuaternionAlgebra(alpha, beta)
    d_basis = [
        QuaternionElem.of(1),
        QuaternionElem.of(0, 1),
        QuaternionElem.of(0, 0, 1),
        QuaternionElem.of(0, 0, 0, 1),
    ]
    e_basis: list[EElt] = [(Fraction(1), Fraction(0)), (Fraction(0), Fraction(1))]

    hom = True
    for d1 in d_basis:
        for e1 in e_basis:
            for d2 in d_basis:
                for e2 in e_basis:
                    lhs = alg.m_mul(alg.phi(d1, e1), alg.phi(d2, e2))
                    rhs = alg.phi(alg.mul(d1, d2), alg.e_mul(e1, e2))
                    if lhs != rhs:
                        hom = False
    images = [alg.phi(d, e) for d in d_basis for e in e_basis]
    involution = all(alg.sigma(alg.sigma(x)) == x for x in images)
    orders = all(alg.sigma(x) == alg.sigma_other_order(x) for x in images)
    fixes = all(alg.sigma(alg.phi(d, e_basis[0])) == alg.phi(d, e_basis[0]) for d in d_basis)
    z = e_basis[1]
    z_mat = alg.phi(QuaternionElem.of(1), z)
    zbar_mat = alg.phi(QuaternionElem.of(1), alg.e_conj(z))
    semilinear = all(
        alg.sigma(alg.m_mul(x, z_mat)) == alg.m_mul(alg.sigma(x), zbar_mat)
        for x in images
    )
    return QuaternionCheckReport(alpha, beta, hom, involution, orders, fixes, semilinear)
