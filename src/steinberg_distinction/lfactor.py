"""Exact rational-function arithmetic for local L-factors.

All arithmetic happens in one ring with v the square root of the
residue cardinality and t the inverse power q^(-s): half-integer shifts
of q coming from the inductivity chain become integer powers of v, and
the s-line becomes integer powers of t.  Numerator and denominator are
dense polynomials in Z[v][t], one row of v-coefficients per power of t,
and ``RationalFunc.from_expr`` brings any pair of them to one
deterministic reduced normal form: no negative powers of v, integer
coefficients with joint content 1, no common polynomial factor, and the
denominator's lowest (t, v) term positive.

Everything is exact integer arithmetic in plain Python.  When either
side is a single term, the gcd that ``from_expr`` divides out is a term
too, read off the lowest powers of t and v; otherwise a primitive
pseudo-remainder sequence over Z[v][t] finds it, with contents that are
gcds in Z[v], found the same way over Z.  No command reaches that
sequence: it stays for the tests and the benchmark tracer's
``lfactor.RationalFunc.arith`` span.  Tate and Godement-Jacquet factors
expand each denominator, a product of binomials 1 -/+ v^a t^s, once in
integers straight into its rows; the i2 ratio is built in closed form
and checked against the inductivity chain by cross-multiplication, with
no gcd.  Values exist only at s = 0, that is t = 1: at v = sqrt(q) they
are exact elements a + b sqrt(r) of Q(sqrt(q)), with r squarefree,
computed in integers by Horner's rule on the sum of the rows and divided
once at the end.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections.abc import Iterator
from enum import Enum
from fractions import Fraction

from .cosets import Frozen, int_text

# A polynomial in Z[v][t]: its rows of v-coefficients, one per power of
# t, both lowest degree first and with no trailing zero; () is zero.
Rows = tuple[tuple[int, ...], ...]


class LFactorError(ValueError):
    """Invalid L-factor parameters or a broken internal identity."""


class RamificationTag(Enum):
    UNRAMIFIED = "unramified"
    RAMIFIED = "ramified"


class TateChar(Enum):
    TRIV_F = "triv"
    ETA = "eta"


def _trim(a: list) -> list:
    while a and not a[-1]:
        a.pop()
    return a


class _Integers:
    """Z, the coefficient ring of Z[v].  Its divisions are exact where
    they are used: by a gcd, or checked by ``_Dense.divexact``."""

    zero = 0
    one = 1
    add = staticmethod(operator.add)
    sub = staticmethod(operator.sub)
    mul = staticmethod(operator.mul)
    gcd = staticmethod(math.gcd)
    divexact = staticmethod(operator.floordiv)

    @staticmethod
    def is_unit(a: int) -> bool:
        return a == 1 or a == -1


class _Dense:
    """Univariate polynomials over the GCD domain ``base``.

    A polynomial is a sequence of coefficients, lowest degree first,
    with no trailing zero; an empty one is zero.  Results are lists, and
    operations never mutate their arguments.
    """

    def __init__(self, base) -> None:
        self.base = base
        self.zero: list = []
        self.one = [base.one]

    def is_unit(self, a: list) -> bool:
        return len(a) == 1 and self.base.is_unit(a[0])

    def add(self, a: list, b: list) -> list:
        if len(a) < len(b):
            a, b = b, a
        add = self.base.add
        out = list(a)
        for i, c in enumerate(b):
            out[i] = add(out[i], c)
        return _trim(out)

    def sub(self, a: list, b: list) -> list:
        sub, zero = self.base.sub, self.base.zero
        out = list(a) + [zero] * (len(b) - len(a))
        for i, c in enumerate(b):
            out[i] = sub(out[i], c)
        return _trim(out)

    def mul(self, a: list, b: list) -> list:
        if not a or not b:
            return []
        add, mul = self.base.add, self.base.mul
        out = [self.base.zero] * (len(a) + len(b) - 1)
        a = [(i, x) for i, x in enumerate(a) if x]
        b = [(j, y) for j, y in enumerate(b) if y]
        if len(a) > len(b):
            a, b = b, a
        for i, x in a:
            for j, y in b:
                out[i + j] = add(out[i + j], mul(x, y))
        # over an integral domain the leading product is nonzero
        return out

    def divexact(self, a: list, b: list) -> list:
        """a / b; raises ArithmeticError unless b divides a."""
        base = self.base
        r = list(a)
        q = [base.zero] * (len(a) - len(b) + 1)
        lead, top = b[-1], len(b) - 1
        for k in range(len(a) - len(b), -1, -1):
            c = r[k + top]
            if c:
                c = q[k] = base.divexact(c, lead)
                for i, y in enumerate(b):
                    if y:
                        r[i + k] = base.sub(r[i + k], base.mul(c, y))
        if any(r):
            raise ArithmeticError("inexact polynomial division")
        return _trim(q)

    def content(self, a: list):
        """gcd of the coefficients of a nonzero polynomial, up to a unit."""
        base = self.base
        g = base.zero
        for c in a:
            if c:
                g = base.gcd(g, c)
                if base.is_unit(g):
                    break
        return g

    def _primitive(self, a: list) -> list:
        if not a:
            return a
        c = self.content(a)
        if c == self.base.one:
            return a
        return [self.base.divexact(x, c) if x else x for x in a]

    def _prem(self, a: list, b: list) -> list:
        """A nonzero base multiple of the remainder of a by b."""
        base = self.base
        lead, top = b[-1], len(b) - 1
        r = list(a)
        while len(r) > top:
            k = len(r) - 1 - top
            c = r[-1]
            r = [base.mul(lead, x) if x else x for x in r]
            for i, y in enumerate(b):
                if y:
                    r[i + k] = base.sub(r[i + k], base.mul(c, y))
            _trim(r)
        return r

    def gcd(self, a: list, b: list) -> list:
        """A gcd of a and b, up to a unit: the gcd of their contents
        times the last nonzero term of the primitive pseudo-remainder
        sequence of their primitive parts."""
        if not a:
            return b
        if not b:
            return a
        base = self.base
        ca, cb = self.content(a), self.content(b)
        c = base.gcd(ca, cb)
        a = [base.divexact(x, ca) if x else x for x in a]
        b = [base.divexact(x, cb) if x else x for x in b]
        if len(a) < len(b):
            a, b = b, a
        while len(b) > 1:
            a, b = b, self._primitive(self._prem(a, b))
        if b:  # a nonzero constant, so the primitive parts are coprime
            a = self.one
        return [base.mul(c, x) if x else x for x in a]


_ZV = _Dense(_Integers)
_ZVT = _Dense(_ZV)


def _terms(rows: Rows) -> Iterator[tuple[int, int, int]]:
    """(coefficient, v exponent, t exponent) of each nonzero term, by t
    exponent, then by v exponent."""
    for t_exp, row in enumerate(rows):
        for v_exp, c in enumerate(row):
            if c:
                yield c, v_exp, t_exp


# Residue sizes above this are refused: ``_split_square`` trial-divides
# up to the cube root of q, so at most 10**5 divisors here, about 0.03 s
# with Python 3.11 on a 2-core VM (2^61 - 1 would take 0.9 s).
MAX_RESIDUE_SIZE = 10**15

# Values whose numerator or denominator would have more digits than this
# are refused before they are computed, which keeps them below Python's
# default limit of 4300 digits for converting an integer to a string.
MAX_VALUE_DIGITS = 4000

# Factors whose denominator would have more dense coefficients than this
# are refused.  Their cost grows about as that count to the power 1.3:
# with Python 3.11 on a 2-core Xeon VM, gj k = 25, d = 1 (8,164) takes
# 0.003 s and k = 40 (32,841) 0.017 s.  Sparse factors, with a large d or
# s coefficient, are counted the same way, although they cost less.
MAX_FACTOR_SIZE = 10_000


def _split_square(q: int) -> tuple[int, int]:
    """(s, r) with q = s^2 r and r squarefree, for q >= 1."""
    s = r = 1
    f = 2
    while f * f * f <= q:
        while q % (f * f) == 0:
            q //= f * f
            s *= f
        if q % f == 0:
            q //= f
            r *= f
        f += 1
    # q now has no prime factor below f and is below f^3, so it is 1, a
    # prime, a product of two distinct primes or the square of a prime
    root = math.isqrt(q)
    if root > 1 and root * root == q:
        return s * root, r
    return s, r * q


def _at_t1(rows: Rows) -> list[int]:
    """The v-coefficients of the polynomial at t = 1: the sum of its rows."""
    return _trim([sum(col) for col in itertools.zip_longest(*rows, fillvalue=0)])


def _evaluate(rows: Rows, q: int, s: int, r: int) -> tuple[int, int]:
    """(a, b) with the polynomial at t = 1 and v = s sqrt(r) = sqrt(q)
    equal to a + b sqrt(r)."""
    row = _at_t1(rows)
    a = b = 0
    # Horner in q on the even and odd v-coefficients: v^(2k) = q^k and
    # v^(2k + 1) = q^k s sqrt(r)
    for c in reversed(row[0::2]):
        a = a * q + c
    for c in reversed(row[1::2]):
        b = b * q + c
    return (a + b * s, 0) if r == 1 else (a, b * s)


class QuadraticValue(Frozen):
    """The irrational number a + b sqrt(r): b is nonzero and r > 1 is squarefree."""

    __slots__ = ("a", "b", "r")

    def __init__(self, a: Fraction, b: Fraction, r: int) -> None:
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "r", r)

    def __str__(self) -> str:
        """The spelling sympy gives the same number."""
        mag = abs(self.b.numerator)
        root = f"sqrt({self.r})" if mag == 1 else f"{mag}*sqrt({self.r})"
        if self.b.denominator != 1:
            root += f"/{self.b.denominator}"
        if not self.a:
            return root if self.b > 0 else f"-{root}"
        terms = [(self.a < 0, str(abs(self.a))), (self.b < 0, root)]
        # same signs: the root leads iff it is the smaller term when
        # positive, the larger when negative
        if (self.a > 0) == (self.b > 0) and (self.b * self.b * self.r < self.a * self.a) == (self.a > 0):
            terms.reverse()
        (neg1, first), (neg2, second) = terms
        return f"{'-' if neg1 else ''}{first} {'-' if neg2 else '+'} {second}"


_ONE: Rows = ((1,),)


class RationalFunc(Frozen):
    """Reduced fraction of polynomials in v and t, kept as the dense
    rows of its numerator and denominator; zero is () over 1."""

    __slots__ = ("num", "den")

    def __init__(self, num: Rows, den: Rows) -> None:
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    @classmethod
    def from_expr(cls, num: list, den: list) -> "RationalFunc":
        """The normal form of num / den, given as dense polynomials in
        Z[v][t]: their gcd divided out, joint content 1, and the
        denominator's lowest (t, v) term positive."""
        if not den:
            raise LFactorError("denominator vanishes")
        if not num:
            return cls(num=(), den=_ONE)
        if _is_term(num) or _is_term(den):
            # the gcd is then a term too: the lowest power of t and of v in
            # either side, times the joint content divided out below
            low_t = min(_low(num), _low(den))
            low_v = min(_low(row) for p in (num, den) for row in p if row)
            if low_t or low_v:
                num = [row[low_v:] for row in num[low_t:]]
                den = [row[low_v:] for row in den[low_t:]]
        else:
            g = _ZVT.gcd(num, den)
            if not _ZVT.is_unit(g):
                num, den = _ZVT.divexact(num, g), _ZVT.divexact(den, g)
        content = math.gcd(*(c for p in (num, den) for row in p for c in row))
        if next(c for row in den for c in row if c) < 0:
            content = -content
        return cls(
            num=tuple(tuple(c // content for c in row) for row in num),
            den=tuple(tuple(c // content for c in row) for row in den),
        )

    @classmethod
    def one(cls) -> "RationalFunc":
        return cls(num=_ONE, den=_ONE)

    def __add__(self, other: "RationalFunc") -> "RationalFunc":
        return self._sum(other, _ZVT.add)

    def __sub__(self, other: "RationalFunc") -> "RationalFunc":
        return self._sum(other, _ZVT.sub)

    def _sum(self, other: "RationalFunc", op) -> "RationalFunc":
        num = op(_ZVT.mul(self.num, other.den), _ZVT.mul(other.num, self.den))
        return RationalFunc.from_expr(num, _ZVT.mul(self.den, other.den))

    def __mul__(self, other: "RationalFunc") -> "RationalFunc":
        return RationalFunc.from_expr(_ZVT.mul(self.num, other.num), _ZVT.mul(self.den, other.den))

    def __truediv__(self, other: "RationalFunc") -> "RationalFunc":
        if not other.num:
            raise LFactorError("division by zero")
        return RationalFunc.from_expr(_ZVT.mul(self.num, other.den), _ZVT.mul(self.den, other.num))

    def subs_t1(self) -> "RationalFunc":
        """Specialize t to 1 (the point s = 0)."""
        den = _at_t1(self.den)
        if not den:
            raise LFactorError("pole at t = 1")
        num = _at_t1(self.num)
        return RationalFunc.from_expr([num] if num else [], [den])

    def eval_exact(self, q: int) -> Fraction | QuadraticValue | None:
        """Exact value at v = sqrt(q) and t = 1; None signals a pole.
        ``q`` runs from 1 to ``MAX_RESIDUE_SIZE``, and a value of more
        than about ``MAX_VALUE_DIGITS`` digits is refused.

        The value is a Fraction when it is rational, which it always is
        for square q, and a QuadraticValue otherwise.
        """
        if q < 1:
            raise LFactorError(f"residue size {q} must be positive")
        if q > MAX_RESIDUE_SIZE:
            raise LFactorError(f"residue size {q} exceeds {MAX_RESIDUE_SIZE}")
        # the value's integers have about twice the bits of the largest
        # term; ceil(log2(x)) is (x - 1).bit_length(), and log10(2) 0.30103
        width = max(len(row) for p in (self.num, self.den) for row in p)
        digits = 2 * ((width - 1) * (q - 1).bit_length() // 2) * 30103 // 100_000
        if digits > MAX_VALUE_DIGITS:
            raise LFactorError(
                f"value at residue size {q} would have about {digits} digits,"
                f" more than {MAX_VALUE_DIGITS}"
            )
        s, r = _split_square(q)
        da, db = _evaluate(self.den, q, s, r)
        if not da and not db:
            return None
        na, nb = _evaluate(self.num, q, s, r)
        norm = da * da - db * db * r
        a = Fraction(na * da - nb * db * r, norm)
        b = nb * da - na * db
        return QuadraticValue(a, Fraction(b, norm), r) if b else a

    def render(self) -> str:
        num = _render_rows(self.num)
        if self.den == _ONE:
            return num
        return f"({num})/({_render_rows(self.den)})"

    def to_json(self) -> dict:
        return {
            "num": [list(term) for term in _terms(self.num)],
            "den": [list(term) for term in _terms(self.den)],
        }


def _is_term(p) -> bool:
    """Whether the nonzero dense polynomial p has a single nonzero term."""
    return not any(p[-1][:-1]) and not any(p[:-1])


def _low(p) -> int:
    """The lowest degree of a nonzero dense polynomial."""
    return next(i for i, c in enumerate(p) if c)


def _render_rows(rows: Rows) -> str:
    pieces = []
    for coeff, v_exp, t_exp in _terms(rows):
        factors = []
        if v_exp:
            factors.append("v" if v_exp == 1 else f"v^{v_exp}")
        if t_exp:
            factors.append("t" if t_exp == 1 else f"t^{t_exp}")
        mag = abs(coeff)
        if mag != 1 or not factors:
            factors.insert(0, str(mag))
        body = " ".join(factors)
        if not pieces:
            pieces.append(body if coeff > 0 else f"-{body}")
        else:
            pieces.append(f"+ {body}" if coeff > 0 else f"- {body}")
    return " ".join(pieces) or "0"


def _check_half_integer(c: Fraction) -> None:
    if (2 * c).denominator != 1:
        raise LFactorError(f"shift {c} is not a half-integer")


def _check_size(t_degree: int, v_span: int) -> None:
    """Refuse a factor whose dense denominator would be above ``MAX_FACTOR_SIZE``."""
    size = (t_degree + 1) * (v_span + 1)
    if size > MAX_FACTOR_SIZE:
        raise LFactorError(
            f"factor would have {int_text(size)} dense coefficients"
            f" (t-degree {int_text(t_degree)}, v-span {int_text(v_span)}),"
            f" more than {MAX_FACTOR_SIZE}"
        )


def _v_span(b: int, d: int, k: int) -> int:
    """The sum of |b - 2 d i| over i < k, for d >= 1, in closed form: the
    first p terms are non-negative, the rest negative."""
    p = min(k, max(0, b // (2 * d) + 1))
    return (2 * p - k) * b + d * (k * (k - 1) - 2 * p * (p - 1))


def _binomials(exps: list[int], sign: int, s_coeff: int) -> RationalFunc:
    """1 over the product of 1 + sign v^a t^s_coeff over the v exponents a
    in ``exps``, both sides times v^-low, low the sum of the negative a,
    so that no exponent is negative.  The product is expanded in
    integers: its coefficient of t^(j s_coeff) is sign^j times the j-th
    elementary symmetric polynomial of the v^a, each kept as a dict from
    v exponent minus low to coefficient, grown by one factor at a time
    and then written into its dense row."""
    low = sum(a for a in exps if a < 0)
    elementary: list[dict[int, int]] = [{-low: 1}]
    for a in exps:
        elementary.append({})
        for j in range(len(elementary) - 1, 0, -1):
            row = elementary[j]
            get = row.get
            for v, c in elementary[j - 1].items():
                v += a
                row[v] = get(v, 0) + c
    # s coefficient 0 sums every row into the first, where terms may cancel
    den: list[list[int]] = [[] for _ in range(len(exps) * s_coeff + 1)]
    for j, terms in enumerate(elementary):
        row = den[j * s_coeff]
        row.extend([0] * (max(terms) + 1 - len(row)))
        c_sign = sign**j
        for v, c in terms.items():
            row[v] += c_sign * c
    return RationalFunc.from_expr([[0] * -low + [1]], _trim([_trim(row) for row in den]))


def tate_L(
    char: TateChar,
    ram: RamificationTag,
    shift: Fraction,
    s_coeff: int,
) -> RationalFunc:
    """Tate L-factor of the base field at the point shift + s_coeff * s.

    Trivial character: 1 / (1 - q^-shift t^s_coeff); the quadratic
    character flips the sign when unramified and degenerates to 1 when
    ramified.
    """
    shift = Fraction(shift)
    _check_half_integer(shift)
    if s_coeff < 0:
        raise LFactorError("s coefficient must be non-negative")
    if char is TateChar.ETA and ram is RamificationTag.RAMIFIED:
        return RationalFunc.one()
    v_exp = int(-2 * shift)
    _check_size(s_coeff, abs(v_exp))
    sign = -1 if char is TateChar.TRIV_F else 1
    return _binomials([v_exp], sign, s_coeff)


def tate_L_quadratic_ext(
    shift: Fraction, s_coeff: int, ram: RamificationTag
) -> RationalFunc:
    """Tate L-factor of the trivial character of the quadratic extension.

    The extension's residue cardinality is q^2 when unramified and q
    when ramified, so all exponents double in the unramified case.
    """
    shift = Fraction(shift)
    _check_half_integer(shift)
    mult = 2 if ram is RamificationTag.UNRAMIFIED else 1
    return tate_L(TateChar.TRIV_F, ram, shift * mult, s_coeff * mult)


def gj_L_trivial(k: int, d: int, shift: Fraction, s_coeff: int) -> RationalFunc:
    """L-factor of the trivial representation of the k x k group over a
    division algebra of index d, via the inductivity chain.

    Factorizes into k shifted division-algebra factors, each of which is
    a base-field Tate factor shifted by (d - 1)/2; the product of their
    denominators is expanded once, in integers.
    """
    if k < 1 or d < 1:
        raise LFactorError("k and d must be positive")
    shift = Fraction(shift)
    _check_half_integer(shift)
    if s_coeff < 0:
        raise LFactorError("s coefficient must be non-negative")
    # factor i sits at shift + (2i - (k - 1)) d / 2 + (d - 1) / 2, so
    # its power of v is b - 2 d i
    b = int(-2 * shift) + (k - 1) * d - (d - 1)
    _check_size(k * s_coeff, _v_span(b, d, k))
    return _binomials([b - 2 * d * i for i in range(k)], -1, s_coeff)


def i2_ratio(d: int, ram: RamificationTag) -> RationalFunc:
    """Closed-form value of the rank-one open-orbit integral.

    Equals the trivial Tate factor at d(2s - 1) divided by the quadratic
    one at 2ds: (1 + t^2d) / (1 - v^2d t^2d) unramified and
    1 / (1 - v^2d t^2d) ramified, already in normal form.  A common
    factor would divide 1 + t^2d, so be free of v, and a factor of
    1 - t^2d v^2d free of v divides its v^0 coefficient, 1.  The full
    inductivity chain gj_L(2, d) / L_E is recomputed and must agree,
    checked by cross-multiplication; otherwise an internal error is
    raised.
    """
    if d < 1:
        raise LFactorError("d must be positive")
    # the trivial Tate factor's size: d >= 50 is refused here, and
    # d = 35 to 49 by the chain's gj factor
    _check_size(2 * d, 2 * d)
    gap = ((),) * (2 * d - 1)
    den = ((1,), *gap, (0,) * (2 * d) + (-1,))
    num = ((1,), *gap, (1,)) if ram is RamificationTag.UNRAMIFIED else _ONE
    gj = gj_L_trivial(2, d, Fraction(1 - 2 * d, 2), 2 * d)
    tq = tate_L_quadratic_ext(Fraction(0), 2 * d, ram)
    mul = _ZVT.mul
    if mul(mul(gj.num, tq.den), den) != mul(mul(gj.den, tq.num), num):
        raise LFactorError(
            f"inductivity chain disagrees with the closed form for d={d}, {ram.value}"
        )
    return RationalFunc(num=num, den=den)


class SampleStatus(Enum):
    NONZERO = "nonzero"
    ZERO = "zero"
    POLE = "pole"


class NonvanishingReport(Frozen):
    __slots__ = ("value_at_t1", "samples")

    def __init__(
        self, value_at_t1: RationalFunc | None,
        samples: tuple[tuple[int, SampleStatus, str], ...],
    ) -> None:
        object.__setattr__(self, "value_at_t1", value_at_t1)
        object.__setattr__(self, "samples", samples)

    @property
    def nonvanishing(self) -> bool:
        """Every sample is finite and nonzero."""
        return all(status is SampleStatus.NONZERO for _, status, _ in self.samples)

    def to_json(self) -> dict:
        return {
            "value_at_t1": self.value_at_t1.to_json() if self.value_at_t1 else None,
            "samples": [
                {"q": q, "status": st.value, "value": val}
                for q, st, val in self.samples
            ],
            "nonvanishing": self.nonvanishing,
        }


def eval_nonvanishing_at_s0(
    rf: RationalFunc, q_samples: list[int]
) -> NonvanishingReport:
    """Specialize at s = 0 (t = 1) and probe the given residue sizes.

    Poles are reported as such, distinct from zeros; the verdict is
    nonvanishing iff every sample is finite and nonzero.  A pole of the
    whole family at t = 1 leaves the symbolic value empty.
    """
    try:
        at_t1 = rf.subs_t1()
    except LFactorError:
        at_t1 = None
    samples = []
    for q in q_samples:
        value = rf.eval_exact(q)
        if value is None:
            samples.append((q, SampleStatus.POLE, "pole"))
        elif value == 0:
            samples.append((q, SampleStatus.ZERO, "0"))
        else:
            samples.append((q, SampleStatus.NONZERO, str(value)))
    return NonvanishingReport(value_at_t1=at_t1, samples=tuple(samples))
