import random
from fractions import Fraction

import pytest

from steinberg_distinction.cosets import InvalidInputError
from steinberg_distinction.oracles.quaternion import (
    QuaternionAlgebra,
    QuaternionCheckReport,
    QuaternionElem,
    _is_rational_square,
    quaternion_model_check,
)

# beyond the 53-bit mantissa, where a float square root misses
BIG = 3**40 + 7


def conj(x):
    x0, x1, x2, x3 = x.coords
    return QuaternionElem((x0, -x1, -x2, -x3))


def norm(alg, x):
    """The reduced norm x0^2 - a x1^2 - b x2^2 + a b x3^2, in closed form."""
    x0, x1, x2, x3 = x.coords
    a, b = alg.alpha, alg.beta
    return x0 * x0 - a * x1 * x1 - b * x2 * x2 + a * b * x3 * x3


class TestArithmetic:
    def test_hamilton_relations(self):
        alg = QuaternionAlgebra(Fraction(-1), Fraction(-1))
        i = QuaternionElem.of(0, 1)
        j = QuaternionElem.of(0, 0, 1)
        k = QuaternionElem.of(0, 0, 0, 1)
        assert alg.mul(i, i) == QuaternionElem.of(-1)
        assert alg.mul(j, j) == QuaternionElem.of(-1)
        assert alg.mul(i, j) == k
        assert alg.mul(j, i) == QuaternionElem.of(0, 0, 0, -1)

    def test_norm_multiplicative(self):
        rng = random.Random(7)
        alg = QuaternionAlgebra(Fraction(2), Fraction(3))
        for _ in range(30):
            x = QuaternionElem.of(*(rng.randint(-3, 3) for _ in range(4)))
            y = QuaternionElem.of(*(rng.randint(-3, 3) for _ in range(4)))
            assert alg.mul(x, conj(x)) == QuaternionElem.of(norm(alg, x))
            assert norm(alg, alg.mul(x, y)) == norm(alg, x) * norm(alg, y)

    def test_zero_parameters_rejected(self):
        with pytest.raises(InvalidInputError):
            QuaternionAlgebra(Fraction(0), Fraction(1))


class TestModelCheck:
    @pytest.mark.parametrize(
        "alpha,beta",
        [(-1, -1), (-1, 2), (-1, 3), (2, 3), (-2, -5)],
    )
    def test_required_pairs(self, alpha, beta):
        report = quaternion_model_check(alpha, beta)
        assert report.ok, report.to_json()

    def test_random_nonsquare_pairs(self):
        rng = random.Random(20260823)
        done = 0
        while done < 5:
            alpha = Fraction(rng.randint(-9, 9))
            beta = Fraction(rng.randint(-9, 9))
            if beta == 0 or alpha in (0,) or quaternion_model_check(alpha, beta).error:
                continue
            assert quaternion_model_check(alpha, beta).ok
            done += 1

    def test_square_alpha_rejected(self):
        for alpha in (4, 1, Fraction(9, 4)):
            report = quaternion_model_check(alpha, 1)
            assert not report.ok
            assert report.error is not None

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
        report = quaternion_model_check(Fraction(BIG**2), 1)
        assert not report.ok
        assert report.error is not None

    def test_fractional_parameters(self):
        report = quaternion_model_check(Fraction(-1, 2), Fraction(5, 3))
        assert report.ok


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
