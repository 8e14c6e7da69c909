import functools
import math
import operator
import time
from fractions import Fraction

import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from steinberg_distinction.lfactor import (
    MAX_RESIDUE_SIZE,
    LFactorError,
    QuadraticValue,
    RamificationTag,
    RationalFunc,
    SampleStatus,
    TateChar,
    eval_nonvanishing_at_s0,
    gj_L_trivial,
    i2_ratio,
    tate_L,
    tate_L_quadratic_ext,
)
from steinberg_distinction.lfactor import (
    _ZVT,
    _reduced,
    _split_square,
    _terms,
    _to_dense,
    _v_span,
)

# -- sympy-backed reference --------------------------------------------------
# The rational-function arithmetic as it was built on sympy expression
# trees, kept as the oracle for the integer-polynomial implementation.

V, T = sympy.symbols("v t", positive=True)


# A term is (coefficient, v exponent, t exponent), as in `to_json`.


def _ref_terms_to_expr(terms):
    return sympy.Add(
        *(sympy.Integer(c) * V**ev * T**et for c, ev, et in terms)
    ) if terms else sympy.Integer(0)


def _ref_poly_to_terms(expr):
    poly = sympy.Poly(sympy.expand(expr), V, T)
    terms = [(int(c), int(ev), int(et)) for (ev, et), c in poly.terms()]
    terms.sort(key=lambda term: (term[2], term[1]))
    return tuple(terms)


class RefRationalFunc:
    def __init__(self, num, den):
        self.num, self.den = num, den

    @classmethod
    def from_expr(cls, expr):
        expr = sympy.cancel(sympy.together(expr))
        num, den = sympy.fraction(expr)
        if den == 0 or sympy.expand(den) == 0:
            raise LFactorError("denominator vanishes")
        num = sympy.expand(num)
        den = sympy.expand(den)
        coeffs = [sympy.Rational(c) for c in sympy.Poly(num, V, T).coeffs()]
        coeffs += [sympy.Rational(c) for c in sympy.Poly(den, V, T).coeffs()]
        scale = math.lcm(*(int(c.q) for c in coeffs)) if coeffs else 1
        content = math.gcd(*(abs(int(c * scale)) for c in coeffs)) if coeffs else 1
        factor = sympy.Rational(scale, max(content, 1))
        num, den = sympy.expand(num * factor), sympy.expand(den * factor)
        nterms = _ref_poly_to_terms(num)
        dterms = _ref_poly_to_terms(den)
        if not dterms:
            raise LFactorError("denominator vanishes")
        if dterms[0][0] < 0:
            nterms = tuple((-c, ev, et) for c, ev, et in nterms)
            dterms = tuple((-c, ev, et) for c, ev, et in dterms)
        return cls(nterms, dterms)

    @classmethod
    def from_fraction(cls, num, den):
        return cls.from_expr(_ref_terms_to_expr(num) / _ref_terms_to_expr(den))

    def to_expr(self):
        return _ref_terms_to_expr(self.num) / _ref_terms_to_expr(self.den)

    def __add__(self, other):
        return RefRationalFunc.from_expr(self.to_expr() + other.to_expr())

    def __sub__(self, other):
        return RefRationalFunc.from_expr(self.to_expr() - other.to_expr())

    def __mul__(self, other):
        return RefRationalFunc.from_expr(self.to_expr() * other.to_expr())

    def __truediv__(self, other):
        if not other.num:
            raise LFactorError("division by zero")
        return RefRationalFunc.from_expr(self.to_expr() / other.to_expr())

    def subs_t1(self):
        den = sympy.expand(_ref_terms_to_expr(self.den).subs(T, 1))
        if den == 0:
            raise LFactorError("pole at t = 1")
        return RefRationalFunc.from_expr(_ref_terms_to_expr(self.num).subs(T, 1) / den)

    def eval_exact(self, q, t_value=1):
        subs = {V: sympy.sqrt(sympy.Integer(q)), T: t_value}
        den = sympy.simplify(_ref_terms_to_expr(self.den).subs(subs))
        if den == 0:
            return None
        num = sympy.simplify(_ref_terms_to_expr(self.num).subs(subs))
        return sympy.simplify(num / den)

    def render(self):
        num = _ref_render_poly(self.num)
        if self.den == ((1, 0, 0),):
            return num
        return f"({num})/({_ref_render_poly(self.den)})"

    def to_json(self):
        return {
            "num": [list(term) for term in self.num],
            "den": [list(term) for term in self.den],
        }


def _ref_render_poly(terms):
    if not terms:
        return "0"
    pieces = []
    for idx, (coeff, v_exp, t_exp) in enumerate(terms):
        factors = []
        if v_exp:
            factors.append("v" if v_exp == 1 else f"v^{v_exp}")
        if t_exp:
            factors.append("t" if t_exp == 1 else f"t^{t_exp}")
        mag = abs(coeff)
        if mag != 1 or not factors:
            factors.insert(0, str(mag))
        body = " ".join(factors)
        if idx == 0:
            pieces.append(body if coeff > 0 else f"-{body}")
        else:
            pieces.append(f"+ {body}" if coeff > 0 else f"- {body}")
    return " ".join(pieces)


def poly(terms):
    """The sum of the terms as `from_expr` takes it."""
    out = {}
    for c, ev, et in terms:
        out[ev, et] = out.get((ev, et), 0) + c
    return out


monomials = st.tuples(st.integers(-5, 5), st.integers(-4, 4), st.integers(0, 4))


def rf(terms):
    return RationalFunc.from_expr(poly(terms), {(0, 0): 1})


rationals = st.lists(monomials, min_size=1, max_size=3).map(rf)


class TestRationalFunc:
    def test_normal_form_idempotent(self):
        a = RationalFunc.from_expr({(0, 0): 1, (0, 1): 1}, {(0, 0): 2, (0, 1): 2})
        # cancels to 1/2
        assert a == RationalFunc.one() / RationalFunc.from_expr({(0, 0): 2}, {(0, 0): 1})

    @given(rationals, rationals, rationals)
    @settings(max_examples=40, deadline=None)
    def test_ring_laws(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c

    def test_render(self):
        assert i2_ratio(1, RamificationTag.UNRAMIFIED).render() == "(1 + t^2)/(1 - v^2 t^2)"

    def test_rows_are_dense(self):
        # rows of v-coefficients per power of t, lowest first, no
        # trailing zero at either level; zero is () over 1
        a = i2_ratio(1, RamificationTag.UNRAMIFIED)
        assert (a.num, a.den) == (((1,), (), (1,)), ((1,), (), (0, 0, -1)))
        assert RationalFunc.one() == RationalFunc(((1,),), ((1,),))
        zero = a - a
        assert (zero.num, zero.den) == ((), ((1,),))
        # a common power of v is divided out of the stored rows
        b = RationalFunc.from_expr({(3, 1): 2}, {(1, 0): 4, (2, 1): 6})
        assert (b.num, b.den) == (((), (0, 0, 1)), ((2,), (0, 3)))

    def test_negative_t_exp_rejected(self):
        with pytest.raises(LFactorError):
            RationalFunc.from_expr({(0, -1): 1}, {(0, 0): 1})


class TestTateFactors:
    def test_trivial_char(self):
        d = 2
        out = tate_L(TateChar.TRIV_F, RamificationTag.UNRAMIFIED, Fraction(-d), 2 * d)
        assert out.to_json()["den"] == [[1, 0, 0], [-1, 2 * d, 2 * d]]

    def test_eta_ramified_is_one(self):
        out = tate_L(TateChar.ETA, RamificationTag.RAMIFIED, Fraction(3, 2), 4)
        assert out == RationalFunc.one()

    def test_eta_unramified_sign(self):
        out = tate_L(TateChar.ETA, RamificationTag.UNRAMIFIED, Fraction(0), 2)
        assert out.to_json()["den"] == [[1, 0, 0], [1, 0, 2]]

    def test_non_half_integer_shift(self):
        with pytest.raises(LFactorError):
            tate_L(TateChar.TRIV_F, RamificationTag.UNRAMIFIED, Fraction(1, 3), 1)

    def test_factorization_identity(self):
        # the quadratic-extension factor splits as trivial times quadratic
        for ram in RamificationTag:
            for c in [Fraction(0), Fraction(-1), Fraction(1, 2), Fraction(-3, 2)]:
                for e in [1, 2, 4]:
                    lhs = tate_L_quadratic_ext(c, e, ram)
                    rhs = tate_L(
                        TateChar.TRIV_F, ram, c, e
                    ) * tate_L(TateChar.ETA, ram, c, e)
                    assert lhs == rhs, (ram, c, e)


class TestInductivity:
    def test_k1_d1_plain(self):
        assert gj_L_trivial(1, 1, Fraction(0), 1) == tate_L(
            TateChar.TRIV_F, RamificationTag.UNRAMIFIED, Fraction(0), 1
        )

    def test_k2_chain(self):
        for d in (1, 2, 3):
            lhs = gj_L_trivial(2, d, Fraction(1 - 2 * d, 2), 2 * d)
            rhs = tate_L(
                TateChar.TRIV_F, RamificationTag.UNRAMIFIED, Fraction(-d), 2 * d
            ) * tate_L(TateChar.TRIV_F, RamificationTag.UNRAMIFIED, Fraction(0), 2 * d)
            assert lhs == rhs

    def test_expansion_equals_the_fold_of_tate_factors(self):
        # the chain as it was built before the binomial expansion: one
        # multiplication per shifted Tate factor.  Each factor is also
        # checked against 1 / (1 - v^a t^s) built from a single dict, so
        # that a fault the expansion shares with tate_L cannot cancel.
        # s coefficient 0 makes a factor with v exponent 0 vanish, which
        # both sides must refuse with the same text.
        def outcome(build, *args):
            try:
                return build(*args)
            except LFactorError as exc:
                return str(exc)

        def one_dict_factor(shift, s_coeff):
            key = (int(-2 * shift), s_coeff)
            den = {(0, 0): 1}
            den[key] = den.get(key, 0) - 1
            return RationalFunc.from_expr({(0, 0): 1}, den)

        def fold(k, d, shift, s_coeff):
            factors = []
            for i in range(k):
                c_i = shift + Fraction(2 * i - (k - 1), 2) * d + Fraction(d - 1, 2)
                factor = tate_L(TateChar.TRIV_F, RamificationTag.UNRAMIFIED, c_i, s_coeff)
                assert factor == one_dict_factor(c_i, s_coeff), (c_i, s_coeff)
                factors.append(factor)
            return functools.reduce(operator.mul, factors, RationalFunc.one())

        refused = 0
        for k in range(1, 9):
            for d in range(1, 4):
                for two_shift in range(-4, 5):
                    for s_coeff in range(4):
                        point = (k, d, Fraction(two_shift, 2), s_coeff)
                        got = outcome(gj_L_trivial, *point)
                        assert got == outcome(fold, *point), point
                        refused += isinstance(got, str)
        assert refused > 0

    def test_v_span_closed_form(self):
        for b in range(-30, 31):
            for d in range(1, 5):
                for k in range(1, 20):
                    assert _v_span(b, d, k) == sum(abs(b - 2 * d * i) for i in range(k)), (b, d, k)

    def test_factor_size_is_bounded(self):
        # 27 x 339 dense coefficients are built quickly; 28 x 366 are
        # refused before any product is formed
        start = time.monotonic()
        gj_L_trivial(26, 1, Fraction(-1, 2), 1)
        assert time.monotonic() - start < 1
        with pytest.raises(LFactorError, match="10248 dense coefficients"):
            gj_L_trivial(27, 1, Fraction(-1, 2), 1)

    def test_numeric_spot_check(self):
        out = gj_L_trivial(2, 1, Fraction(-1, 2), 2)
        # at q = 4, s such that t = q^{-1} = 1/4
        value = out.eval_exact(4, t_value=Fraction(1, 4))
        expected = (1 / (1 - Fraction(1, 4) ** 2)) * (
            1 / (1 - 4 * Fraction(1, 4) ** 2)
        )
        assert value - expected == 0


class TestI2Ratio:
    def test_d1_unramified(self):
        assert i2_ratio(1, RamificationTag.UNRAMIFIED).render() == "(1 + t^2)/(1 - v^2 t^2)"

    def test_d1_ramified(self):
        assert i2_ratio(1, RamificationTag.RAMIFIED).render() == "(1)/(1 - v^2 t^2)"

    def test_chain_identity_d_up_to_5(self):
        for d in range(1, 6):
            for ram in RamificationTag:
                i2_ratio(d, ram)  # internal chain assertion must not raise


class TestNonvanishing:
    def test_d1_unramified_q9(self):
        report = eval_nonvanishing_at_s0(
            i2_ratio(1, RamificationTag.UNRAMIFIED), [9]
        )
        assert report.nonvanishing
        q, status, value = report.samples[0]
        assert status is SampleStatus.NONZERO
        assert Fraction(value) == Fraction(-1, 4)

    def test_ramified_symbolic(self):
        for d in range(1, 6):
            report = eval_nonvanishing_at_s0(
                i2_ratio(d, RamificationTag.RAMIFIED), [2, 3, 4, 5, 7, 9]
            )
            assert report.nonvanishing

    def test_constant_one(self):
        assert eval_nonvanishing_at_s0(RationalFunc.one(), [2, 9]).nonvanishing

    def test_no_samples_is_nonvanishing(self):
        pole = RationalFunc.from_expr({(0, 0): 1}, {(0, 0): 1, (0, 1): -1})
        report = eval_nonvanishing_at_s0(pole, [])
        assert report.samples == () and report.nonvanishing
        assert report.to_json()["nonvanishing"] is True

    def test_one_zero_sample_vanishes(self):
        # v^2 - 4 is q - 4: zero at q = 4 only
        rf = RationalFunc.from_expr({(2, 0): 1, (0, 0): -4}, {(0, 0): 1})
        report = eval_nonvanishing_at_s0(rf, [2, 4, 9])
        assert [status for _, status, _ in report.samples] == [
            SampleStatus.NONZERO, SampleStatus.ZERO, SampleStatus.NONZERO
        ]
        assert not report.nonvanishing

    def test_pole_detected(self):
        pole = RationalFunc.from_expr({(0, 0): 1}, {(0, 0): 1, (0, 1): -1})
        report = eval_nonvanishing_at_s0(pole, [3])
        assert not report.nonvanishing
        assert report.samples[0][1] is SampleStatus.POLE


# -- differential checks against the sympy reference -------------------------

Q_GRID = [2, 3, 4, 5, 6, 7, 8, 9, 12, 18, 27, 50, 72, 98]
T_GRID = [Fraction(1), Fraction(1, 2), Fraction(-1, 3), Fraction(1, 4)]


def _nonzero(terms):
    return any(poly(terms).values())


# (numerator terms, denominator terms) of random Laurent fractions
fractions_ = st.tuples(
    st.lists(monomials, max_size=3),
    st.lists(monomials, min_size=1, max_size=3).filter(_nonzero),
)


def both(pair):
    num, den = tuple(pair[0]), tuple(pair[1])
    return RationalFunc.from_expr(poly(num), poly(den)), RefRationalFunc.from_fraction(num, den)


# The sympy normal form spelled zero with a zero coefficient, so that it
# was not the empty numerator, it rendered as "-0" and division by it raised
# TypeError.  Zero is now the empty numerator over 1.
REF_ZERO = ((0, 0, 0),)


def assert_same(new, ref):
    if ref.num == REF_ZERO:
        assert (new.to_json(), new.render()) == ({"num": [], "den": [[1, 0, 0]]}, "0")
        assert new.num == ()
        return
    assert new.render() == ref.render()
    assert new.to_json() == ref.to_json()


def outcome(fn):
    try:
        return fn()
    except LFactorError:
        return LFactorError


def eval_str(value):
    return None if value is None else str(value)


class TestAgainstSympyReference:
    @given(fractions_, fractions_)
    @settings(max_examples=60, deadline=None)
    def test_arithmetic(self, x, y):
        (a, ra), (b, rb) = both(x), both(y)
        assert_same(a, ra)
        assert_same(b, rb)
        for op in ("__add__", "__sub__", "__mul__", "__truediv__"):
            if op == "__truediv__" and not b.num:
                with pytest.raises(LFactorError):
                    a / b
                continue
            new = outcome(lambda: getattr(a, op)(b))
            ref = outcome(lambda: getattr(ra, op)(rb))
            if ref is LFactorError:
                assert new is LFactorError, op
            else:
                assert_same(new, ref)

    @given(fractions_)
    @settings(max_examples=60, deadline=None)
    def test_subs_t1(self, x):
        a, ra = both(x)
        new, ref = outcome(a.subs_t1), outcome(ra.subs_t1)
        if ref is LFactorError:
            assert new is LFactorError
        else:
            assert_same(new, ref)

    @given(fractions_, st.sampled_from(Q_GRID), st.sampled_from(T_GRID))
    @settings(max_examples=80, deadline=None)
    def test_eval_exact_strings(self, x, q, t):
        a, ra = both(x)
        new = a.eval_exact(q, t_value=t)
        ref = ra.eval_exact(q, t_value=sympy.Rational(t.numerator, t.denominator))
        assert eval_str(new) == eval_str(ref)

    def test_eval_exact_strings_on_factors(self):
        factors = [
            i2_ratio(1, RamificationTag.UNRAMIFIED),
            i2_ratio(2, RamificationTag.RAMIFIED),
            gj_L_trivial(2, 1, Fraction(-1, 2), 1),
            tate_L(TateChar.ETA, RamificationTag.UNRAMIFIED, Fraction(1, 2), 1),
        ]
        for rf in factors:
            data = rf.to_json()
            ref = RefRationalFunc(*(tuple(map(tuple, data[key])) for key in ("num", "den")))
            for q in Q_GRID:
                for t in T_GRID:
                    expected = ref.eval_exact(q, sympy.Rational(t.numerator, t.denominator))
                    assert eval_str(rf.eval_exact(q, t)) == eval_str(expected), (rf.render(), q, t)


class TestExactValues:
    @pytest.mark.parametrize(
        "a, b, r, text",
        [
            (1, 1, 2, "1 + sqrt(2)"),
            (3, 1, 2, "sqrt(2) + 3"),
            (-1, 1, 2, "-1 + sqrt(2)"),
            (1, -1, 2, "1 - sqrt(2)"),
            (-1, -1, 2, "-sqrt(2) - 1"),
            (-3, -1, 2, "-3 - sqrt(2)"),
            (0, Fraction(-3, 4), 3, "-3*sqrt(3)/4"),
            (Fraction(1, 2), Fraction(1, 2), 2, "1/2 + sqrt(2)/2"),
        ],
    )
    def test_spelling(self, a, b, r, text):
        value = QuadraticValue(Fraction(a), Fraction(b), r)
        assert str(value) == text
        assert str(sympy.Rational(str(a)) + sympy.Rational(str(b)) * sympy.sqrt(r)) == text

    def test_square_q_is_rational(self):
        rf = gj_L_trivial(1, 1, Fraction(-1, 2), 1)  # 1/(1 - v t)
        assert rf.eval_exact(9, Fraction(1, 2)) == Fraction(-2)
        assert rf.eval_exact(8, Fraction(1, 2)) == QuadraticValue(Fraction(-1), Fraction(-1), 2)

    def test_nonpositive_q_rejected(self):
        with pytest.raises(LFactorError):
            RationalFunc.one().eval_exact(0)

    def test_residue_size_is_bounded(self):
        rf = gj_L_trivial(1, 1, Fraction(-1, 2), 1)  # 1/(1 - v t)
        # the largest prime allowed takes the longest trial division
        prime = sympy.prevprime(MAX_RESIDUE_SIZE)
        start = time.monotonic()
        assert rf.eval_exact(prime, 0) == 1
        assert rf.eval_exact(MAX_RESIDUE_SIZE, 0) == 1
        assert time.monotonic() - start < 1
        with pytest.raises(LFactorError, match=f"exceeds {MAX_RESIDUE_SIZE}"):
            rf.eval_exact(MAX_RESIDUE_SIZE + 1)


# -- the exact arithmetic before its short cuts -------------------------------
# `_reduced` and `_evaluate` as they were before a single-term side took
# its gcd in closed form and values were taken in integers, kept as the
# references of the fast paths.


def reduced_by_prs(num, den):
    """`_reduced` with the primitive pseudo-remainder sequence on every pair."""
    if not den:
        raise LFactorError("denominator vanishes")
    if not num:
        return RationalFunc(num=(), den=((1,),))
    g = _ZVT.gcd(num, den)
    if not _ZVT.is_unit(g):
        num, den = _ZVT.divexact(num, g), _ZVT.divexact(den, g)
    content = math.gcd(*(c for p in (num, den) for row in p for c in row))
    if next(c for row in den for c in row if c) < 0:
        content = -content
    return RationalFunc(
        num=tuple(tuple(c // content for c in row) for row in num),
        den=tuple(tuple(c // content for c in row) for row in den),
    )


def evaluate_in_fractions(rows, s, r, t):
    """(a, b) with the polynomial at v = s sqrt(r) equal to a + b sqrt(r)."""
    a = b = Fraction(0)
    for coeff, v_exp, t_exp in _terms(rows):
        c = coeff * Fraction(s) ** v_exp * Fraction(r) ** (v_exp // 2) * t**t_exp
        if v_exp % 2:
            b += c
        else:
            a += c
    return (a + b, Fraction(0)) if r == 1 else (a, b)


def eval_in_fractions(rf, q, t_value):
    """`eval_exact` on `evaluate_in_fractions`, without its size checks."""
    t = Fraction(t_value)
    s, r = _split_square(q)
    da, db = evaluate_in_fractions(rf.den, s, r, t)
    if not da and not db:
        return None
    na, nb = evaluate_in_fractions(rf.num, s, r, t)
    norm = da * da - db * db * r
    a = (na * da - nb * db * r) / norm
    b = (nb * da - na * db) / norm
    return QuadraticValue(a, b, r) if b else a


def dense(terms):
    """The terms, with exponents at least 0, as rows of Z[v][t]."""
    return _to_dense({key: c for key, c in poly(terms).items() if c}, 0)


def times(terms, term):
    c, a, b = term
    return [(c * c0, a + a0, b + b0) for c0, a0, b0 in terms]


nonneg_monomials = st.tuples(st.integers(-5, 5).filter(bool), st.integers(0, 4), st.integers(0, 4))


class TestTermGcd:
    """A side with a single term c v^a t^b has a term for gcd: the lowest
    power of t and of v over both sides, and the joint content."""

    @given(
        nonneg_monomials,
        st.lists(nonneg_monomials, min_size=1, max_size=4),
        nonneg_monomials,
        st.booleans(),
    )
    @settings(max_examples=200, deadline=None)
    def test_common_term_divided_out(self, term, other, common, term_over):
        one, many = times([term], common), times(other, common)
        assume(any(poly(many).values()))
        num, den = (dense(one), dense(many)) if term_over else (dense(many), dense(one))
        assert _reduced(num, den) == reduced_by_prs(num, den)

    @pytest.mark.parametrize(
        "num, den, want",
        [
            # the lowest t from the term over it, the lowest v from below
            (
                [(2, 4, 1)], [(6, 5, 3), (4, 2, 4)],
                (((0, 0, 1),), ((), (), (0, 0, 0, 3), (2,))),
            ),
            # the lowest t from below, the lowest v from the term
            (
                [(2, 1, 3)], [(4, 3, 1), (6, 5, 2)],
                (((), (), (1,)), ((0, 0, 2), (0, 0, 0, 0, 3))),
            ),
            # the same with the term below, once negative
            (
                [(6, 5, 3), (4, 2, 4)], [(2, 4, 1)],
                (((), (), (0, 0, 0, 3), (2,)), ((0, 0, 1),)),
            ),
            (
                [(4, 3, 1), (6, 5, 2)], [(-2, 1, 3)],
                (((0, 0, -2), (0, 0, 0, 0, -3)), ((), (), (1,))),
            ),
        ],
    )
    def test_lowest_powers_from_either_side(self, num, den, want):
        num, den = dense(num), dense(den)
        got = _reduced(num, den)
        assert (got.num, got.den) == want
        assert got == reduced_by_prs(num, den)

    def test_arguments_untouched(self):
        num, den = dense([(2, 4, 1)]), dense([(6, 5, 3), (4, 2, 4)])
        before = repr((num, den))
        _reduced(num, den)
        assert repr((num, den)) == before


# t = 0 and a negative t with a denominator; q = 1, squares (4, 9), and
# non-squares with a square factor s > 1 (12, 50, 72, 98 and 10^15)
EVAL_Q = [1, *Q_GRID, MAX_RESIDUE_SIZE]
EVAL_T = [*T_GRID, Fraction(0), Fraction(-2, 3)]


def assert_values_equal(rf):
    for q in EVAL_Q:
        for t in EVAL_T:
            got, want = rf.eval_exact(q, t), eval_in_fractions(rf, q, t)
            assert (type(got), got, str(got)) == (type(want), want, str(want)), (rf.render(), q, t)


class TestIntegerEvaluation:
    """`eval_exact` in integers equals the evaluation in Fractions."""

    def test_grid_covers_square_factors(self):
        splits = {q: _split_square(q) for q in EVAL_Q}
        assert {q for q, (s, r) in splits.items() if s > 1 and r > 1} >= {12, 50, 72, 98, MAX_RESIDUE_SIZE}
        assert {q for q, (s, r) in splits.items() if r == 1} == {1, 4, 9}

    @given(fractions_)
    @settings(max_examples=60, deadline=None)
    def test_random_fractions(self, x):
        num, den = x
        assert_values_equal(RationalFunc.from_expr(poly(num), poly(den)))

    def test_factors(self):
        for rf in [
            i2_ratio(1, RamificationTag.UNRAMIFIED),
            i2_ratio(3, RamificationTag.RAMIFIED),
            gj_L_trivial(2, 1, Fraction(-1, 2), 1),
            gj_L_trivial(6, 2, Fraction(-1, 2), 1),
            tate_L(TateChar.ETA, RamificationTag.UNRAMIFIED, Fraction(1, 2), 1),
            tate_L(TateChar.TRIV_F, RamificationTag.UNRAMIFIED, Fraction(-3, 2), 3),
        ]:
            assert_values_equal(rf)

    def test_zero_numerator(self):
        zero = RationalFunc.from_expr({}, {(0, 0): 1, (1, 2): 3})
        assert zero.num == ()
        assert_values_equal(zero)
        assert zero.eval_exact(2, Fraction(-2, 3)) == 0

    @pytest.mark.parametrize(
        "den, q, t",
        [
            ({(0, 0): 1, (1, 1): -1}, 4, Fraction(1, 2)),  # 1 - v t at v = 2
            ({(0, 0): 1, (2, 1): -1}, 2, Fraction(1, 2)),  # 1 - v^2 t at v^2 = 2
            ({(0, 0): 8, (2, 2): -9}, 2, Fraction(-2, 3)),  # 8 - 9 v^2 t^2 at t^2 = 4/9
            ({(3, 1): 1, (1, 0): -2}, 2, Fraction(1)),  # v^3 t - 2 v, all of it in sqrt(2)
            ({(0, 0): 1, (0, 1): -1}, 1, Fraction(1)),  # 1 - t at q = 1
            ({(1, 0): 1}, 1, Fraction(0)),  # v at t = 0: no pole
        ],
    )
    def test_poles(self, den, q, t):
        rf = RationalFunc.from_expr({(0, 0): 1, (3, 1): 1}, den)
        want = eval_in_fractions(rf, q, t)
        assert rf.eval_exact(q, t) == want
        assert (want is None) == (den != {(1, 0): 1})
        assert_values_equal(rf)
