"""Polynomial families in coefficient and factored form, with derivatives.

Three coefficient families are supported:

* algebraic, monic: x^n + a_1 x^(n-1) + ... + a_n
* trigonometric: a_0/2 + sum_k (a_k cos(kx) + b_k sin(kx))
* exponential: a_0/2 + sum_k (a_k cosh(kx) + b_k sinh(kx))

plus a factored form whose factors are (x - r), sin((x - r)/2) or
sinh((x - r)/2) raised to known multiplicities.  Every numeric rule that
depends on the family lives in one table, ``_RULES``.  The Newton ratio of a
factored form is the reciprocal of its logarithmic derivative
``sum_j m_j K(x - r_j)``, with K(d) = 1/d, cot(d/2)/2 or coth(d/2)/2;
:func:`log_derivative` is that kernel.  The solver's correction sums are
the same sums over the other estimates, all of them from one pairwise
pass (:func:`pairwise_log_derivatives`) that uses K's oddness.

The log-derivative sums, Horner and the coefficient sums take and return
Reals but run on their ``Decimal`` values, under one context at the most
digits any operand carries; cot, coth and the function pairs stay numeric's.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Context, Decimal
from enum import Enum
from typing import Callable, Sequence, Union

from .numeric import Real, _context, cos_sin, cosh_sinh, cot, coth, one, zero


class Family(str, Enum):
    ALGEBRAIC = "algebraic"
    TRIGONOMETRIC = "trigonometric"
    EXPONENTIAL = "exponential"


class UnsupportedFamilyError(ValueError):
    pass


class DuplicateRootError(ValueError):
    def __init__(self, root: Real, i: int, j: int):
        self.root = root
        self.indices = (i, j)
        super().__init__(f"duplicate root {root} at factor positions {i} and {j}")


class DerivativeZeroError(ArithmeticError):
    """p'(x) vanished where the Newton ratio needs it (p(x) != 0)."""

    def __init__(self, x: Real):
        self.x = x
        super().__init__(f"derivative is zero at x = {x} while the value is not")


class CoincidentPointError(ArithmeticError):
    """x equals point ``index`` of a log-derivative sum, where K has its pole.

    In :func:`pairwise_log_derivatives`, x is point ``at``.
    """

    def __init__(self, index: int, at: int | None = None):
        self.index = index
        self.at = at
        super().__init__(f"x coincides with point {index}")


@dataclass(frozen=True)
class _Rule:
    # Half-angle families have factors s((x - r)/2): multiplicities sum
    # to 2n and the kernel is halved.
    half_angle: bool
    # (ctx, d) -> the odd part of the kernel: d, cot(d/2) or coth(d/2)
    odd: Callable[[Context, Decimal], Decimal]
    # (ctx, m, odd(d)) -> m * K(d), before halving; odd in its last argument
    weigh: Callable[[Context, int, Decimal], Decimal]
    # t -> (c(t), s(t)) with c = s' and c' = sign * s; None for algebraic
    pair: Callable[[Real], tuple[Real, Real]] | None = None
    sign: int = 0


# The lambdas look cot and coth up in this module at call time, so
# rebinding those names (as perfbench's tracer does) reaches every call.
_RULES = {
    Family.ALGEBRAIC: _Rule(False, lambda ctx, d: d, Context.divide),
    Family.TRIGONOMETRIC: _Rule(True, lambda ctx, d: cot(Real(ctx.divide(d, 2), ctx.prec)).dec,
                                Context.multiply, cos_sin, -1),
    Family.EXPONENTIAL: _Rule(True, lambda ctx, d: coth(Real(ctx.divide(d, 2), ctx.prec)).dec,
                              Context.multiply, cosh_sinh, 1),
}


def mults_degree(family: Family, total: int) -> int | None:
    """Degree n of a ``family`` polynomial whose multiplicities sum to ``total``.

    Algebraic: n = total.  Half-angle families: the multiplicities sum to
    2n, so n = total/2, and an odd total fits no degree (None).
    """
    if not _RULES[family].half_angle:
        return total
    return None if total % 2 else total // 2


def check_mults_fit(p: Polynomial, mults: Sequence[int]) -> None:
    """ValueError unless multiplicities ``mults`` fit p's degree."""
    if mults_degree(p.family, sum(mults)) != p.degree:
        raise ValueError(
            f"multiplicities sum to {sum(mults)}, which does not fit a "
            f"{p.family.value} polynomial of degree {p.degree}"
        )


def log_derivative(
    family: Family,
    x: Real,
    points: Sequence[Real],
    mults: Sequence[int],
) -> Real:
    """sum_j m_j K(x - p_j) with the family kernel K.

    A point equal to x raises :class:`CoincidentPointError`.
    """
    rule = _RULES[family]
    ctx = _context(max(x.digits, *(p.digits for p in points)))
    total = Decimal(0)
    for j, (p, m) in enumerate(zip(points, mults)):
        d = ctx.subtract(x.dec, p.dec)
        if d.is_zero():
            raise CoincidentPointError(j)
        total = ctx.add(total, rule.weigh(ctx, m, rule.odd(ctx, d)))
    return Real(ctx.divide(total, 2) if rule.half_angle else total, ctx.prec)


def pairwise_log_derivatives(
    family: Family, points: Sequence[Real], mults: Sequence[int]
) -> list[Real]:
    """``log_derivative(family, p_i, ...)`` over the points other than p_i, for every i.

    K is odd, so each unordered pair {i, j} evaluates odd(p_i - p_j) once:
    it adds m_j K to sum i and subtracts m_i K from sum j.  Every sum
    takes its terms in ascending order of the other index, as
    :func:`log_derivative` does, so the results are the same bit for bit.
    A coincident pair raises :class:`CoincidentPointError` with ``at=i``.
    """
    rule = _RULES[family]
    ctx = _context(max(p.digits for p in points))
    sums = [Decimal(0)] * len(points)
    for i, (p, m) in enumerate(zip(points, mults)):
        for j in range(i + 1, len(points)):
            d = ctx.subtract(p.dec, points[j].dec)
            if d.is_zero():
                raise CoincidentPointError(j, at=i)
            k = rule.odd(ctx, d)
            sums[i] = ctx.add(sums[i], rule.weigh(ctx, mults[j], k))
            sums[j] = ctx.subtract(sums[j], rule.weigh(ctx, m, k))
    return [Real(ctx.divide(t, 2) if rule.half_angle else t, ctx.prec) for t in sums]


@dataclass(frozen=True)
class AlgebraicCoeffPoly:
    """Monic algebraic polynomial; coeffs are a_1..a_n (leading 1 implicit)."""

    coeffs: tuple[Real, ...]
    family = Family.ALGEBRAIC

    def __post_init__(self):
        if len(self.coeffs) < 1:
            raise ValueError("algebraic polynomial needs degree >= 1")

    @property
    def degree(self) -> int:
        return len(self.coeffs)


@dataclass(frozen=True)
class TrigExpCoeffPoly:
    """a0/2 + sum_k (a_k c(kx) + b_k s(kx)) with (c, s) = (cos, sin) or (cosh, sinh)."""

    family: Family
    a0: Real
    a: tuple[Real, ...]
    b: tuple[Real, ...]

    def __post_init__(self):
        if not _RULES[self.family].half_angle:
            raise UnsupportedFamilyError(f"{self.family.value} has no (a0, a, b) coefficient form")
        if len(self.a) < 1 or len(self.a) != len(self.b):
            raise ValueError(f"{self.family.value} polynomial needs equal-length a, b with degree >= 1")
        if self.a[-1].is_zero() and self.b[-1].is_zero():
            raise ValueError("leading coefficients a_n, b_n must not both be zero")

    @property
    def degree(self) -> int:
        return len(self.a)


@dataclass(frozen=True)
class FactoredPoly:
    """Product of family factors with known roots and multiplicities."""

    family: Family
    roots: tuple[Real, ...]
    mults: tuple[int, ...]

    def __post_init__(self):
        if len(self.roots) < 1 or len(self.roots) != len(self.mults):
            raise ValueError("factored polynomial needs matching roots and multiplicities")
        if any(m < 1 for m in self.mults):
            raise ValueError("multiplicities must be positive integers")
        for i in range(len(self.roots)):
            for j in range(i + 1, len(self.roots)):
                if self.roots[i] == self.roots[j]:
                    raise DuplicateRootError(self.roots[i], i, j)
        if mults_degree(self.family, sum(self.mults)) is None:
            raise ValueError(
                "trigonometric/exponential multiplicities must sum to an even number 2n"
            )

    @property
    def degree(self) -> int:
        return mults_degree(self.family, sum(self.mults))


Polynomial = Union[AlgebraicCoeffPoly, TrigExpCoeffPoly, FactoredPoly]


def family_of(p: Polynomial) -> Family:
    family = getattr(p, "family", None)
    if not isinstance(family, Family):
        raise UnsupportedFamilyError(f"not a polynomial: {type(p).__name__}")
    return family


def _eval_factored(p: FactoredPoly, x: Real) -> tuple[Real, Real]:
    # One pass of the product rule: (v, d) <- (v h, d h + v h'), h = g^m.
    pair = _RULES[p.family].pair
    value, derivative = one(x.digits), zero(x.digits)
    for r, m in zip(p.roots, p.mults):
        if pair is None:
            g, dg = x - r, one(x.digits)
        else:
            c, g = pair((x - r) / 2)
            dg = c / 2
        h, dh = g ** m, m * g ** (m - 1) * dg
        value, derivative = value * h, derivative * h + value * dh
    return value, derivative


def eval_with_derivative(p: Polynomial, x: Real) -> tuple[Real, Real]:
    """Return (p(x), p'(x))."""
    if isinstance(p, AlgebraicCoeffPoly):
        ctx = _context(max(x.digits, *(a.digits for a in p.coeffs)))
        value, derivative = Decimal(1), Decimal(0)
        for a in p.coeffs:
            derivative = ctx.add(ctx.multiply(derivative, x.dec), value)
            value = ctx.add(ctx.multiply(value, x.dec), a.dec)
        return Real(value, ctx.prec), Real(derivative, ctx.prec)
    if isinstance(p, TrigExpCoeffPoly):
        rule = _RULES[p.family]
        ctx = _context(max(x.digits, p.a0.digits, *(c.digits for c in p.a + p.b)))
        value, derivative = ctx.divide(p.a0.dec, 2), Decimal(0)
        for k, (a, b) in enumerate(zip(p.a, p.b), start=1):
            c, s = (t.dec for t in rule.pair(k * x))
            value = ctx.add(ctx.add(value, ctx.multiply(a.dec, c)), ctx.multiply(b.dec, s))
            slope = ctx.add(ctx.multiply(b.dec, c), ctx.multiply(ctx.multiply(rule.sign, a.dec), s))
            derivative = ctx.add(derivative, ctx.multiply(k, slope))
        return Real(value, ctx.prec), Real(derivative, ctx.prec)
    if isinstance(p, FactoredPoly):
        return _eval_factored(p, x)
    raise UnsupportedFamilyError(f"not a polynomial: {type(p).__name__}")


def newton_ratio(p: Polynomial, x: Real) -> Real:
    """p(x)/p'(x).

    At an exact root the ratio is zero regardless of the derivative (a
    root is a fixed point of the Newton map even when p' vanishes with
    p at a multiple root).  A zero derivative elsewhere is a genuine
    stationary point and raises :class:`DerivativeZeroError`.  A
    factored form takes the reciprocal of its logarithmic derivative.
    """
    if isinstance(p, FactoredPoly):
        try:
            value, derivative = one(x.digits), log_derivative(p.family, x, p.roots, p.mults)
        except CoincidentPointError:
            return zero(x.digits)
    else:
        value, derivative = eval_with_derivative(p, x)
    if value.is_zero():
        return zero(x.digits)
    if derivative.is_zero():
        raise DerivativeZeroError(x)
    return value / derivative


def expand_algebraic(f: FactoredPoly) -> AlgebraicCoeffPoly:
    """Multiply out an algebraic factored form into monic coefficients."""
    if f.family is not Family.ALGEBRAIC:
        raise UnsupportedFamilyError(
            f"cannot expand a {f.family.value} factored form into algebraic coefficients"
        )
    digits = max(r.digits for r in f.roots)
    coeffs = [one(digits)]
    for r, m in zip(f.roots, f.mults):
        for _ in range(m):
            nxt = [coeffs[0]]
            for i in range(1, len(coeffs)):
                nxt.append(coeffs[i] - r * coeffs[i - 1])
            nxt.append(-(r * coeffs[-1]))
            coeffs = nxt
    return AlgebraicCoeffPoly(tuple(coeffs[1:]))
