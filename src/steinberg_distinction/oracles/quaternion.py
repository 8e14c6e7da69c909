"""Exact rational quaternion model of the even-case involution.

A quaternion algebra with parameters (alpha, beta) contains the
quadratic field generated by its first generator; conjugation of that
field is induced by the inner automorphism at the second generator.
Writing endomorphisms of the algebra as 2x2 matrices over the field in
the basis (1, j) identifies the complexified algebra with the matrix
algebra, and the Galois involution with the twist-then-conjugate
involution; this module verifies those identities on an 8-element basis
with exact rational arithmetic.  The norm element's inverse is in closed
form.  A square alpha raises ``InvalidInputError``, so the JSON report's
``"error"`` is always null.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from ..cosets import Frozen, InvalidInputError

Quat = tuple[Fraction, Fraction, Fraction, Fraction]  # x0 + x1 i + x2 j + x3 ij
EElt = tuple[Fraction, Fraction]  # a + b i
EMat = tuple[tuple[EElt, EElt], tuple[EElt, EElt]]

ZERO, ONE = Fraction(0), Fraction(1)


def _is_rational_square(x: Fraction) -> bool:
    """Exact: a reduced fraction is a square when its numerator and
    denominator are."""
    if x < 0:
        return False
    n, d = x.numerator, x.denominator
    return math.isqrt(n) ** 2 == n and math.isqrt(d) ** 2 == d


class QuaternionAlgebra:
    """(alpha, beta) quaternion algebra over the rationals."""

    def __init__(self, alpha: Fraction, beta: Fraction):
        alpha, beta = Fraction(alpha), Fraction(beta)
        if alpha == 0 or beta == 0:
            raise InvalidInputError("alpha and beta must be nonzero")
        self.alpha = alpha
        self.beta = beta
        # the norm element s = [[0, beta], [1, 0]] and s^-1 = [[0, 1], [1/beta, 0]]
        z, one = (ZERO, ZERO), (ONE, ZERO)
        self.s = ((z, (beta, ZERO)), (one, z))
        self.s_inv = ((z, one), ((1 / beta, ZERO), z))

    def mul(self, x: Quat, y: Quat) -> Quat:
        a, b = self.alpha, self.beta
        x0, x1, x2, x3 = x
        y0, y1, y2, y3 = y
        return (
            x0 * y0 + a * x1 * y1 + b * x2 * y2 - a * b * x3 * y3,
            x0 * y1 + x1 * y0 - b * x2 * y3 + b * x3 * y2,
            x0 * y2 + x2 * y0 + a * x1 * y3 - a * x3 * y1,
            x0 * y3 + x3 * y0 + x1 * y2 - x2 * y1,
        )

    # -- the quadratic field E = Q(i) inside the algebra --------------------
    def e_mul(self, x: EElt, y: EElt) -> EElt:
        return (x[0] * y[0] + self.alpha * x[1] * y[1], x[0] * y[1] + x[1] * y[0])

    def e_conj(self, x: EElt) -> EElt:
        return (x[0], -x[1])

    def phi(self, d: Quat, e: EElt) -> EMat:
        """Matrix of left-by-d, right-by-e in the basis (1, j), whose
        columns read each image x = a + j b as a = (x0, x1), b = (x2, -x3)."""
        e_q = (e[0], e[1], ZERO, ZERO)
        x0, x1, x2, x3 = self.mul(d, e_q)
        y0, y1, y2, y3 = self.mul(self.mul(d, (ZERO, ZERO, ONE, ZERO)), e_q)
        return (((x0, x1), (y0, y1)), ((x2, -x3), (y2, -y3)))

    # -- 2x2 matrix arithmetic over E ----------------------------------------
    def m_mul(self, x: EMat, y: EMat) -> EMat:
        def entry(row: tuple[EElt, EElt], c: int) -> EElt:
            (p0, p1), (q0, q1) = self.e_mul(row[0], y[0][c]), self.e_mul(row[1], y[1][c])
            return (p0 + q0, p1 + q1)

        return tuple((entry(row, 0), entry(row, 1)) for row in x)

    def m_theta(self, x: EMat) -> EMat:
        return tuple(tuple(self.e_conj(v) for v in row) for row in x)

    def sigma(self, x: EMat) -> EMat:
        """Twist composed with conjugation by the norm element."""
        return self.m_theta(self.m_mul(self.m_mul(self.s, x), self.s_inv))

    def sigma_other_order(self, x: EMat) -> EMat:
        return self.m_mul(self.m_mul(self.s, self.m_theta(x)), self.s_inv)


class QuaternionCheckReport(Frozen):
    __slots__ = (
        "alpha", "beta", "homomorphism", "involution", "orders_agree",
        "fixes_first_factor", "semilinear",
    )

    def __init__(
        self, alpha: Fraction, beta: Fraction, homomorphism: bool, involution: bool,
        orders_agree: bool, fixes_first_factor: bool, semilinear: bool,
    ) -> None:
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "homomorphism", homomorphism)
        object.__setattr__(self, "involution", involution)
        object.__setattr__(self, "orders_agree", orders_agree)
        object.__setattr__(self, "fixes_first_factor", fixes_first_factor)
        object.__setattr__(self, "semilinear", semilinear)

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
            # a square alpha raises, so no report carries an error
            "error": None,
        }


def quaternion_model_check(alpha, beta) -> QuaternionCheckReport:
    """Verify the involution identities on the 8-element tensor basis.

    Raises ``InvalidInputError`` for a square first parameter, for which
    the quadratic field degenerates.
    """
    alpha, beta = Fraction(alpha), Fraction(beta)
    if _is_rational_square(alpha):
        raise InvalidInputError("alpha is a rational square: the quadratic field degenerates")
    alg = QuaternionAlgebra(alpha, beta)
    d_basis = [
        (ONE, ZERO, ZERO, ZERO),
        (ZERO, ONE, ZERO, ZERO),
        (ZERO, ZERO, ONE, ZERO),
        (ZERO, ZERO, ZERO, ONE),
    ]
    e_basis: list[EElt] = [(ONE, ZERO), (ZERO, ONE)]

    hom = all(
        alg.m_mul(alg.phi(d1, e1), alg.phi(d2, e2)) == alg.phi(alg.mul(d1, d2), alg.e_mul(e1, e2))
        for d1, e1, d2, e2 in itertools.product(d_basis, e_basis, repeat=2)
    )
    images = [alg.phi(d, e) for d in d_basis for e in e_basis]
    involution = all(alg.sigma(alg.sigma(x)) == x for x in images)
    orders = all(alg.sigma(x) == alg.sigma_other_order(x) for x in images)
    fixes = all(alg.sigma(alg.phi(d, e_basis[0])) == alg.phi(d, e_basis[0]) for d in d_basis)
    z = e_basis[1]
    z_mat = alg.phi(d_basis[0], z)
    zbar_mat = alg.phi(d_basis[0], alg.e_conj(z))
    semilinear = all(
        alg.sigma(alg.m_mul(x, z_mat)) == alg.m_mul(alg.sigma(x), zbar_mat)
        for x in images
    )
    return QuaternionCheckReport(alpha, beta, hom, involution, orders, fixes, semilinear)
