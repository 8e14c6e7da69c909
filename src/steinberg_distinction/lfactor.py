"""Exact rational-function arithmetic for local L-factors.

All arithmetic happens in one Laurent ring with v the square root of
the residue cardinality and t the inverse power q^(-s): half-integer
shifts of q coming from the inductivity chain become integer powers of
v, and the s-line becomes integer powers of t.  Fractions are kept in a
deterministic reduced normal form: no negative powers of v, integer
coefficients with joint content 1, no common polynomial factor, and the
denominator's lowest (t, v) term positive.

Everything is exact integer arithmetic in plain Python.  A polynomial
enters as a dict {(v exponent, t exponent): coefficient}.  Reduction
runs on dense polynomials in Z[v][t] and divides out their exact gcd,
taken by a primitive pseudo-remainder sequence over Z[v][t] whose
contents are gcds in Z[v], found the same way over Z.  Values at
v = sqrt(q) are exact elements a + b sqrt(r) of Q(sqrt(q)), with
r squarefree.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

__all__ = [
    "Monomial",
    "Poly",
    "RationalFunc",
    "QuadraticValue",
    "RamificationTag",
    "TateChar",
    "LFactorError",
    "tate_L",
    "tate_L_quadratic_ext",
    "gj_L_trivial",
    "i2_ratio",
    "SampleStatus",
    "NonvanishingReport",
    "eval_nonvanishing_at_s0",
]

# {(v exponent, t exponent): coefficient}; v exponents may be negative.
Poly = dict[tuple[int, int], int]


class LFactorError(ValueError):
    """Invalid L-factor parameters or a broken internal identity."""


class RamificationTag(Enum):
    UNRAMIFIED = "unramified"
    RAMIFIED = "ramified"


class TateChar(Enum):
    TRIV_F = "triv"
    ETA = "eta"


@dataclass(frozen=True)
class Monomial:
    """Integer multiple of v^v_exp t^t_exp; t_exp is non-negative."""

    coeff: int
    v_exp: int
    t_exp: int

    def __post_init__(self) -> None:
        if self.t_exp < 0:
            raise LFactorError("t exponents must be non-negative")


def _trim(a: list) -> list:
    while a and not a[-1]:
        a.pop()
    return a


class _Integers:
    """Z, the coefficient ring of Z[v]."""

    zero = 0
    one = 1
    add = staticmethod(operator.add)
    sub = staticmethod(operator.sub)
    mul = staticmethod(operator.mul)
    gcd = staticmethod(math.gcd)

    @staticmethod
    def is_unit(a: int) -> bool:
        return a == 1 or a == -1

    @staticmethod
    def divexact(a: int, b: int) -> int:
        q, r = divmod(a, b)
        if r:
            raise ArithmeticError("inexact integer division")
        return q


class _Dense:
    """Univariate polynomials over the GCD domain ``base``.

    A polynomial is a list of coefficients, lowest degree first, with no
    trailing zero; [] is zero.  Operations never mutate their arguments.
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
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    if y:
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


def _to_dense(p: Poly, low: int) -> list[list[int]]:
    """p times v^-low as a polynomial in Z[v][t]: out[t][v]."""
    out: list[list[int]] = [[] for _ in range(1 + max(t for _, t in p))]
    for (v, t), c in p.items():
        if t < 0:
            raise LFactorError("t exponents must be non-negative")
        row = out[t]
        v -= low
        if len(row) <= v:
            row.extend([0] * (v + 1 - len(row)))
        row[v] = c
    return out


def _poly(terms: tuple[Monomial, ...], at_t1: bool = False) -> Poly:
    """The sum of the terms, with t set to 1 if ``at_t1``."""
    out: Poly = {}
    for m in terms:
        key = (m.v_exp, 0 if at_t1 else m.t_exp)
        out[key] = out.get(key, 0) + m.coeff
    return out


def _mul(a: Poly, b: Poly) -> Poly:
    out: Poly = {}
    for (av, at), ac in a.items():
        for (bv, bt), bc in b.items():
            key = (av + bv, at + bt)
            out[key] = out.get(key, 0) + ac * bc
    return out


def _add(a: Poly, b: Poly, sign: int = 1) -> Poly:
    out = dict(a)
    for key, c in b.items():
        out[key] = out.get(key, 0) + sign * c
    return out


# Residue sizes above this are refused: ``_split_square`` trial-divides
# up to the cube root of q, so at most 10**5 divisors here, about 0.03 s
# with Python 3.11 on a 2-core VM (2^61 - 1 would take 0.9 s).
MAX_RESIDUE_SIZE = 10**15


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


def _evaluate(terms: tuple[Monomial, ...], s: int, r: int, t: Fraction) -> tuple[Fraction, Fraction]:
    """(a, b) with the sum of the terms at v = s sqrt(r) equal to a + b sqrt(r)."""
    a = b = Fraction(0)
    for m in terms:
        c = m.coeff * Fraction(s) ** m.v_exp * Fraction(r) ** (m.v_exp // 2) * t**m.t_exp
        if m.v_exp % 2:
            b += c
        else:
            a += c
    return (a + b, Fraction(0)) if r == 1 else (a, b)


@dataclass(frozen=True)
class QuadraticValue:
    """The irrational number a + b sqrt(r): b is nonzero and r > 1 is squarefree."""

    a: Fraction
    b: Fraction
    r: int

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


_ONE = (Monomial(1, 0, 0),)


@dataclass(frozen=True)
class RationalFunc:
    """Reduced fraction of Laurent polynomials in v and t."""

    num: tuple[Monomial, ...]
    den: tuple[Monomial, ...]

    @classmethod
    def from_expr(cls, num: Poly, den: Poly) -> "RationalFunc":
        """The normal form of num / den."""
        num = {key: c for key, c in num.items() if c}
        den = {key: c for key, c in den.items() if c}
        if not den:
            raise LFactorError("denominator vanishes")
        if not num:
            return cls(num=(), den=_ONE)
        low = min(v for v, _ in (*num, *den))
        n, d = _to_dense(num, low), _to_dense(den, low)
        g = _ZVT.gcd(n, d)
        if not _ZVT.is_unit(g):
            n, d = _ZVT.divexact(n, g), _ZVT.divexact(d, g)
        content = math.gcd(*(c for p in (n, d) for row in p for c in row))
        lead = next(c for row in d for c in row if c)
        if lead < 0:
            content = -content
        nterms, dterms = (
            tuple(
                Monomial(c // content, v, t)
                for t, row in enumerate(p)
                for v, c in enumerate(row)
                if c
            )
            for p in (n, d)
        )
        return cls(num=nterms, den=dterms)

    @classmethod
    def one(cls) -> "RationalFunc":
        return cls.from_expr({(0, 0): 1}, {(0, 0): 1})

    @classmethod
    def from_fraction(
        cls, num: tuple[Monomial, ...], den: tuple[Monomial, ...]
    ) -> "RationalFunc":
        return cls.from_expr(_poly(num), _poly(den))

    def __add__(self, other: "RationalFunc") -> "RationalFunc":
        return self._sum(other, 1)

    def __sub__(self, other: "RationalFunc") -> "RationalFunc":
        return self._sum(other, -1)

    def _sum(self, other: "RationalFunc", sign: int) -> "RationalFunc":
        an, ad, bn, bd = _poly(self.num), _poly(self.den), _poly(other.num), _poly(other.den)
        return RationalFunc.from_expr(_add(_mul(an, bd), _mul(bn, ad), sign), _mul(ad, bd))

    def __mul__(self, other: "RationalFunc") -> "RationalFunc":
        return RationalFunc.from_expr(
            _mul(_poly(self.num), _poly(other.num)), _mul(_poly(self.den), _poly(other.den))
        )

    def __truediv__(self, other: "RationalFunc") -> "RationalFunc":
        if not other.num:
            raise LFactorError("division by zero")
        return RationalFunc.from_expr(
            _mul(_poly(self.num), _poly(other.den)), _mul(_poly(self.den), _poly(other.num))
        )

    def is_zero(self) -> bool:
        return not self.num

    def unit_equivalent(self, other: "RationalFunc") -> bool:
        """Equal up to a single-monomial unit."""
        if other.is_zero():
            return self.is_zero()
        q = self / other
        return len(q.num) == 1 and len(q.den) == 1

    def subs_t1(self) -> "RationalFunc":
        """Specialize t to 1 (the point s = 0)."""
        den = _poly(self.den, at_t1=True)
        if not any(den.values()):
            raise LFactorError("pole at t = 1")
        return RationalFunc.from_expr(_poly(self.num, at_t1=True), den)

    def eval_exact(self, q: int, t_value=1) -> Fraction | QuadraticValue | None:
        """Exact value at v = sqrt(q) and rational t; None signals a pole.
        ``q`` runs from 1 to ``MAX_RESIDUE_SIZE``.

        The value is a Fraction when it is rational, which it always is
        for square q, and a QuadraticValue otherwise.
        """
        if q < 1:
            raise LFactorError(f"residue size {q} must be positive")
        if q > MAX_RESIDUE_SIZE:
            raise LFactorError(f"residue size {q} exceeds {MAX_RESIDUE_SIZE}")
        s, r = _split_square(q)
        t = Fraction(t_value)
        da, db = _evaluate(self.den, s, r, t)
        if not da and not db:
            return None
        na, nb = _evaluate(self.num, s, r, t)
        norm = da * da - db * db * r
        a = (na * da - nb * db * r) / norm
        b = (nb * da - na * db) / norm
        return QuadraticValue(a, b, r) if b else a

    def render(self) -> str:
        num = _render_poly(self.num)
        if self.den == _ONE:
            return num
        return f"({num})/({_render_poly(self.den)})"

    def to_json(self) -> dict:
        return {
            "num": [[m.coeff, m.v_exp, m.t_exp] for m in self.num],
            "den": [[m.coeff, m.v_exp, m.t_exp] for m in self.den],
        }


def _render_poly(terms: tuple[Monomial, ...]) -> str:
    if not terms:
        return "0"
    pieces = []
    for idx, m in enumerate(terms):
        factors = []
        if m.v_exp:
            factors.append("v" if m.v_exp == 1 else f"v^{m.v_exp}")
        if m.t_exp:
            factors.append("t" if m.t_exp == 1 else f"t^{m.t_exp}")
        mag = abs(m.coeff)
        if mag != 1 or not factors:
            factors.insert(0, str(mag))
        body = " ".join(factors)
        if idx == 0:
            pieces.append(body if m.coeff > 0 else f"-{body}")
        else:
            pieces.append(f"+ {body}" if m.coeff > 0 else f"- {body}")
    return " ".join(pieces)


def _check_half_integer(c: Fraction) -> None:
    c = Fraction(c)
    if (2 * c).denominator != 1:
        raise LFactorError(f"shift {c} is not a half-integer")


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
    v_exp = int(-2 * shift)
    if char is TateChar.ETA and ram is RamificationTag.RAMIFIED:
        return RationalFunc.one()
    sign = -1 if char is TateChar.TRIV_F else 1
    den = (Monomial(1, 0, 0), Monomial(sign, v_exp, s_coeff))
    return RationalFunc.from_fraction((Monomial(1, 0, 0),), den)


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
    v_exp = int(-2 * shift) * mult
    den = (Monomial(1, 0, 0), Monomial(-1, v_exp, s_coeff * mult))
    return RationalFunc.from_fraction((Monomial(1, 0, 0),), den)


def gj_L_trivial(k: int, d: int, shift: Fraction, s_coeff: int) -> RationalFunc:
    """L-factor of the trivial representation of the k x k group over a
    division algebra of index d, via the inductivity chain.

    Factorizes into k shifted division-algebra factors, each of which is
    a base-field Tate factor shifted by (d - 1)/2.
    """
    if k < 1 or d < 1:
        raise LFactorError("k and d must be positive")
    shift = Fraction(shift)
    _check_half_integer(shift)
    result = RationalFunc.one()
    for i in range(k):
        c_i = shift + Fraction(2 * i - (k - 1), 2) * d + Fraction(d - 1, 2)
        result = result * tate_L(TateChar.TRIV_F, RamificationTag.UNRAMIFIED, c_i, s_coeff)
    return result


def i2_ratio(d: int, ram: RamificationTag) -> RationalFunc:
    """Closed-form value of the rank-one open-orbit integral.

    Equals the trivial Tate factor at d(2s - 1) divided by the quadratic
    one at 2ds; the full inductivity chain is recomputed and must agree,
    otherwise an internal error is raised.
    """
    if d < 1:
        raise LFactorError("d must be positive")
    ratio = tate_L(TateChar.TRIV_F, ram, Fraction(-d), 2 * d) / tate_L(
        TateChar.ETA, ram, Fraction(0), 2 * d
    )
    chain = gj_L_trivial(2, d, Fraction(1 - 2 * d, 2), 2 * d) / tate_L_quadratic_ext(
        Fraction(0), 2 * d, ram
    )
    if chain != ratio:
        raise LFactorError(
            f"inductivity chain disagrees with the closed form for d={d}, {ram.value}"
        )
    return ratio


class SampleStatus(Enum):
    NONZERO = "nonzero"
    ZERO = "zero"
    POLE = "pole"


@dataclass(frozen=True)
class NonvanishingReport:
    value_at_t1: RationalFunc | None
    samples: tuple[tuple[int, SampleStatus, str], ...]
    nonvanishing: bool

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
    ok = True
    for q in q_samples:
        value = rf.eval_exact(q, t_value=1)
        if value is None:
            samples.append((q, SampleStatus.POLE, "pole"))
            ok = False
        elif value == 0:
            samples.append((q, SampleStatus.ZERO, "0"))
            ok = False
        else:
            samples.append((q, SampleStatus.NONZERO, str(value)))
    return NonvanishingReport(
        value_at_t1=at_t1, samples=tuple(samples), nonvanishing=ok
    )
