import random
from fractions import Fraction

import pytest

from steinberg_distinction.cosets import InvalidInputError
from steinberg_distinction.oracles.quaternion import (
    QuaternionAlgebra,
    QuaternionCheckReport,
    _is_rational_square,
    quaternion_model_check,
)

# beyond the 53-bit mantissa, where a float square root misses
BIG = 3**40 + 7
SQUARE = "alpha is a rational square: the quadratic field degenerates"
CHECKS = ("homomorphism", "involution", "orders_agree", "fixes_first_factor", "semilinear")
# the parameter pairs of acceptance criterion 8
PAIRS = [(-1, -1), (-1, 2), (-1, 3), (2, 3), (-2, -5)]
# 1 and 0 of E, and the identity matrix over E
ONE, ZERO = (Fraction(1), Fraction(0)), (Fraction(0), Fraction(0))
IDENTITY = ((ONE, ZERO), (ZERO, ONE))


def quat(x0=0, x1=0, x2=0, x3=0):
    return (Fraction(x0), Fraction(x1), Fraction(x2), Fraction(x3))


def conj(x):
    x0, x1, x2, x3 = x
    return (x0, -x1, -x2, -x3)


def norm(alg, x):
    """The reduced norm x0^2 - a x1^2 - b x2^2 + a b x3^2, in closed form."""
    x0, x1, x2, x3 = x
    a, b = alg.alpha, alg.beta
    return x0 * x0 - a * x1 * x1 - b * x2 * x2 + a * b * x3 * x3


class TestArithmetic:
    def test_hamilton_relations(self):
        alg = QuaternionAlgebra(Fraction(-1), Fraction(-1))
        i, j, k = quat(0, 1), quat(0, 0, 1), quat(0, 0, 0, 1)
        assert alg.mul(i, i) == quat(-1)
        assert alg.mul(j, j) == quat(-1)
        assert alg.mul(i, j) == k
        assert alg.mul(j, i) == quat(0, 0, 0, -1)

    def test_norm_multiplicative(self):
        rng = random.Random(7)
        alg = QuaternionAlgebra(Fraction(2), Fraction(3))
        for _ in range(30):
            x = quat(*(rng.randint(-3, 3) for _ in range(4)))
            y = quat(*(rng.randint(-3, 3) for _ in range(4)))
            assert alg.mul(x, conj(x)) == quat(norm(alg, x))
            assert norm(alg, alg.mul(x, y)) == norm(alg, x) * norm(alg, y)

    def test_zero_parameters_rejected(self):
        with pytest.raises(InvalidInputError):
            QuaternionAlgebra(Fraction(0), Fraction(1))

    @pytest.mark.parametrize("beta", [Fraction(3), Fraction(-1), Fraction(5, 3), Fraction(-2, 7)])
    def test_norm_element_inverse(self, beta):
        alg = QuaternionAlgebra(Fraction(-1), beta)
        assert alg.m_mul(alg.s, alg.s_inv) == IDENTITY
        assert alg.m_mul(alg.s_inv, alg.s) == IDENTITY


class TestModelCheck:
    @pytest.mark.parametrize("alpha,beta", PAIRS)
    def test_required_pairs(self, alpha, beta):
        report = quaternion_model_check(alpha, beta)
        assert report.ok, report.to_json()

    def test_random_nonsquare_pairs(self):
        rng = random.Random(20260823)
        done = 0
        while done < 5:
            alpha = Fraction(rng.randint(-9, 9))
            beta = Fraction(rng.randint(-9, 9))
            if beta == 0 or _is_rational_square(alpha):
                continue
            assert quaternion_model_check(alpha, beta).ok
            done += 1

    @pytest.mark.parametrize("alpha", [4, 1, Fraction(9, 4), 0])
    def test_square_alpha_rejected(self, alpha):
        with pytest.raises(InvalidInputError) as exc:
            quaternion_model_check(alpha, 1)
        assert str(exc.value) == SQUARE

    def test_ok_is_all_five_checks(self):
        report = quaternion_model_check(-1, 3)
        assert report.ok is True
        checks = list(report.to_json()["checks"].values())
        assert checks == [True] * 5
        for k in range(5):
            flags = [True] * 5
            flags[k] = False
            failed = QuaternionCheckReport(report.alpha, report.beta, *flags)
            assert failed.ok is False and failed.to_json()["ok"] is False

    def test_huge_square_alpha_rejected(self):
        with pytest.raises(InvalidInputError) as exc:
            quaternion_model_check(Fraction(BIG**2), 1)
        assert str(exc.value) == SQUARE

    def test_error_is_always_null(self):
        assert quaternion_model_check(-1, 3).to_json()["error"] is None

    def test_fractional_parameters(self):
        report = quaternion_model_check(Fraction(-1, 2), Fraction(5, 3))
        assert report.ok


def _mul_ij_sign_flipped(monkeypatch):
    mul = QuaternionAlgebra.mul

    def flipped(self, x, y):
        x0, x1, x2, x3 = mul(self, x, y)
        return (x0, x1, x2, -x3)

    monkeypatch.setattr(QuaternionAlgebra, "mul", flipped)


def _algebra_with(monkeypatch, **fields):
    """Every algebra built then has ``fields`` replaced, each a function
    of the algebra."""
    init = QuaternionAlgebra.__init__

    def patched(self, alpha, beta):
        init(self, alpha, beta)
        for name, make in fields.items():
            setattr(self, name, make(self))

    monkeypatch.setattr(QuaternionAlgebra, "__init__", patched)


class TestEachIdentityCanFail:
    """One mutation of the model per identity: each turns that identity,
    and exactly the ones listed, false at every pair of criterion 8."""

    @pytest.mark.parametrize(
        "mutate, failing",
        [
            # the sign of the ij coefficient of a product
            (_mul_ij_sign_flipped, {"homomorphism", "fixes_first_factor", "semilinear"}),
            # s^-1 replaced by the identity
            (
                lambda mp: _algebra_with(mp, s_inv=lambda alg: IDENTITY),
                {"involution", "fixes_first_factor"},
            ),
            # an entry of s outside Q: theta fixes rational entries, so no
            # rational s can make the two orders differ
            (
                lambda mp: _algebra_with(
                    mp, s=lambda alg: ((ZERO, (alg.beta, Fraction(1))), (ONE, ZERO))
                ),
                {"involution", "orders_agree", "fixes_first_factor"},
            ),
            # conjugation of E replaced by the identity
            (
                lambda mp: mp.setattr(QuaternionAlgebra, "e_conj", lambda self, x: x),
                {"fixes_first_factor"},
            ),
        ],
        ids=["mul-ij-sign", "s-inverse-identity", "s-entry-irrational", "conj-identity"],
    )
    @pytest.mark.parametrize("alpha,beta", PAIRS)
    def test_mutation_fails_its_checks(self, monkeypatch, mutate, failing, alpha, beta):
        mutate(monkeypatch)
        report = quaternion_model_check(alpha, beta)
        assert {name for name in CHECKS if not getattr(report, name)} == failing
        assert report.ok is False


class TestRationalSquare:
    @pytest.mark.parametrize(
        "x,square",
        [
            (Fraction(BIG**2), True),
            (Fraction(BIG**2 + 1), False),
            (Fraction(4, BIG**2), True),
            (Fraction(2, BIG**2), False),
            (Fraction(9, 4), True),
            (Fraction(0), True),
            (Fraction(-4), False),
        ],
    )
    def test_exact(self, x, square):
        assert _is_rational_square(x) is square
