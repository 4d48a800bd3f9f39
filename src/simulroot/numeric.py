"""Configurable-precision real arithmetic and elementary functions.

Every scalar a public function takes or returns is a :class:`Real`: an
immutable decimal number that carries its working precision in decimal
digits.  Inner loops (the kernels here, the sums in ``polys``) run on the
``Decimal`` inside, under one cached ``decimal.Context`` per precision,
so no process-wide precision is ever mutated and values are safe to
share between threads.  A precision is a plain ``int``: ``Real`` rejects
one below ``MIN_DIGITS`` (30), the one place that floor is checked, and
``make_real`` parses at ``DEFAULT_DIGITS`` (64) unless told otherwise.

The elementary functions required by the iteration families (sin, cos,
cot, sinh, cosh, coth) are evaluated with ``DEFAULT_GUARD_DIGITS`` extra
digits, a constant, and rounded back to the argument's precision; near
a zero of sin or cos, where cancellation eats the guard, the evaluation
reruns with more digits (Ziv's strategy).  One argument-halving
kernel per family gives both functions of a pair: it sums the odd
Taylor series (sin or sinh) at x / 2^k, doubles back k times and takes
one square root.  sin/cos first reduce by 2*pi, with pi (Machin's
formula, cached per precision) carrying extra digits for large
arguments.  sinh/cosh use the context's exp only past coth's far-tail
cut-off.  cot and coth are quotients of a pair; cos_sin and cosh_sinh
return a whole pair from one kernel run.  ``polys`` takes every cot and
coth of its log-derivative sums, and a coefficient form's e^(ix) or e^x,
from such pairs, one per point, and calls a kernel at a term's own
argument only where the pairs cannot give it to full precision.  When a
point moves by a small step, ``polys`` turns its pair by the pair at
half the step, which one short loop over both Taylor series gives
without halving; the same loop gives the pair behind cot or coth at half
the difference of two points closer than 2e-10, where their pairs cancel.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from decimal import (
    ROUND_HALF_EVEN,
    Context,
    Decimal,
    DivisionByZero,
    InvalidOperation,
    Overflow,
)
from decimal import MAX_EMAX, MIN_EMIN
from functools import lru_cache, total_ordering
from math import frexp, isqrt
from typing import Sequence

MIN_DIGITS = 30
DEFAULT_DIGITS = 64
DEFAULT_GUARD_DIGITS = 10

_D0 = Decimal(0)
_D1 = Decimal(1)
_D2 = Decimal(2)


class ParseError(ValueError):
    """Malformed decimal numeral; ``position`` is the offending index."""

    def __init__(self, text: str, position: int, message: str):
        self.text = text
        self.position = position
        super().__init__(f"{message} at position {position} in {text!r}")


class PoleError(ArithmeticError):
    """cot/coth evaluated at a pole; carries the argument."""

    def __init__(self, fn: str, argument: "Real"):
        self.fn = fn
        self.argument = argument
        super().__init__(f"{fn} has a pole at {argument}")


class DomainError(ValueError):
    pass


class PhaseError(ValueError, ArithmeticError):
    """No digit of a value's phase (its residue mod 2*pi) is left."""


@lru_cache(maxsize=None)
def _context(prec: int) -> Context:
    # Contexts are cached per precision and never mutated after creation.
    return Context(
        prec=prec,
        rounding=ROUND_HALF_EVEN,
        Emin=MIN_EMIN,
        Emax=MAX_EMAX,
        traps=[InvalidOperation, DivisionByZero, Overflow],
    )


def in_words(quantity: str, exc: ArithmeticError) -> str:
    """``exc`` said of ``quantity``: a trapped decimal signal in words, any
    other error as its own text.  Every divisor is checked nonzero first,
    so a zero one underflowed."""
    if isinstance(exc, Overflow):
        return f"{quantity} overflows the decimal exponent range"
    if isinstance(exc, (DivisionByZero, InvalidOperation)):
        return f"{quantity} divides by a term that underflows to zero"
    return str(exc)


@total_ordering
@dataclass(frozen=True, eq=False)
class Real:
    """An arbitrary-precision real number with its working precision in decimal digits.

    Arithmetic between two Reals is correctly rounded at the maximum of
    their precisions.  Mixing with ``int`` is allowed (exact); mixing
    with ``float`` is rejected to keep all I/O decimal.
    """

    dec: Decimal
    digits: int

    def __post_init__(self):
        if self.digits < MIN_DIGITS:
            raise ValueError(f"digits must be >= {MIN_DIGITS}, got {self.digits}")

    # -- arithmetic ---------------------------------------------------

    def _binary(self, other, op: str, reflected: bool = False):
        if isinstance(other, Real):
            d = max(self.digits, other.digits)
            o = other.dec
        elif isinstance(other, int):
            d = self.digits
            o = Decimal(other)
        else:
            return NotImplemented
        a, b = (o, self.dec) if reflected else (self.dec, o)
        return Real(getattr(_context(d), op)(a, b), d)

    def __add__(self, other):
        return self._binary(other, "add")

    __radd__ = __add__

    def __sub__(self, other):
        return self._binary(other, "subtract")

    def __rsub__(self, other):
        return self._binary(other, "subtract", reflected=True)

    def __mul__(self, other):
        return self._binary(other, "multiply")

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self._binary(other, "divide")

    def __rtruediv__(self, other):
        return self._binary(other, "divide", reflected=True)

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent == 0:
            return Real(_D1, self.digits)
        return Real(_context(self.digits).power(self.dec, Decimal(exponent)), self.digits)

    def __neg__(self):
        return Real(self.dec.copy_negate(), self.digits)

    def __abs__(self):
        return Real(self.dec.copy_abs(), self.digits)

    # -- comparisons (by value, exact; total_ordering adds <=, >, >=) --

    @staticmethod
    def _cmp_operand(other):
        if isinstance(other, Real):
            return other.dec
        if isinstance(other, int):
            return Decimal(other)
        return None

    def __eq__(self, other):
        o = self._cmp_operand(other)
        return NotImplemented if o is None else self.dec == o

    def __lt__(self, other):
        o = self._cmp_operand(other)
        return NotImplemented if o is None else self.dec < o

    def __hash__(self):
        return hash(self.dec)

    # -- helpers -------------------------------------------------------

    def is_zero(self) -> bool:
        return self.dec.is_zero()

    def with_digits(self, digits: int) -> "Real":
        """Round this value to a different working precision."""
        return Real(_context(digits).plus(self.dec), digits)

    def __str__(self):
        return str(self.dec)

    def __repr__(self):
        return f"Real('{self.dec}', digits={self.digits})"


_NUMERAL = re.compile(r"[+-]?(\d+(\.\d*)?|\.\d+)([eE][+-]?\d+)?")


def _numeral_error_position(text: str) -> tuple[int, str]:
    if not text:
        return 0, "empty numeral"
    m = _NUMERAL.match(text)
    if m is None:
        return 0, f"unexpected character {text[0]!r}"
    if m.end() < len(text):
        return m.end(), f"unexpected character {text[m.end()]!r}"
    return len(text), "incomplete numeral"


def make_real(text: str, digits: int = DEFAULT_DIGITS) -> Real:
    """Parse a signed decimal numeral, correctly rounded to ``digits``; a
    ParseError when its magnitude lies past the decimal exponent range,
    above it or so far below that a nonzero numeral rounds to 0."""
    if not isinstance(text, str) or _NUMERAL.fullmatch(text) is None:
        pos, msg = _numeral_error_position(text if isinstance(text, str) else str(text))
        raise ParseError(str(text), pos, msg)
    try:
        exact = Decimal(text)
        # Real checks digits before a context of that precision is built.
        x = Real(exact, digits).with_digits(digits)
    except (Overflow, InvalidOperation) as exc:
        raise ParseError(text, len(text), "magnitude out of range") from exc
    if x.is_zero() and not exact.is_zero():
        raise ParseError(text, len(text), "magnitude out of range")
    return x


def zero(digits: int = DEFAULT_DIGITS) -> Real:
    return Real(_D0, digits)


def one(digits: int = DEFAULT_DIGITS) -> Real:
    return Real(_D1, digits)


def first_equal_pair(values: Sequence[Real]) -> tuple[int, int] | None:
    """The lexicographically first (i, j), i < j, with values[i] == values[j].

    One pass keyed on the Decimal (equal Decimals hash equal, -0 and 0
    too); the smallest i wins, not the first repeat seen: [a, b, b, a]
    gives (0, 3).
    """
    first: dict[Decimal, int] = {}
    found = None
    for j, x in enumerate(values):
        i = first.setdefault(x.dec, j)
        if i != j and (found is None or i < found[0]):
            found = (i, j)
    return found


def check_phase(x: Real, name: str) -> Real:
    """x itself, or a PhaseError naming it ``name`` once |x| >= 10^digits:
    x's last digit then lies above its units place, so no digit of x mod
    2*pi is left."""
    if x.dec.adjusted() >= x.digits:
        raise PhaseError(f"{name} has no digit of its phase left at {x.digits} digits")
    return x


def ten_power(exponent: int, digits: int = DEFAULT_DIGITS) -> Real:
    """Exact power of ten, e.g. the default step tolerance 10**(-digits+6)."""
    return Real(_D1.scaleb(exponent, _context(digits + 4)), digits)


# -- pi and series kernels --------------------------------------------


def _atan_inverse_int(k: int, ctx: Context) -> Decimal:
    # arctan(1/k) = sum (-1)^i / ((2i+1) k^(2i+1)), k >= 2
    eps = _D1.scaleb(-(ctx.prec + 2))
    power = ctx.divide(_D1, Decimal(k))
    k2 = Decimal(k * k)
    total = power
    i = 1
    while True:
        power = ctx.divide(power, k2)
        term = ctx.divide(power, Decimal(2 * i + 1))
        if i % 2:
            term = term.copy_negate()
        total = ctx.add(total, term)
        if term.copy_abs() <= eps:
            return total
        i += 1


@lru_cache(maxsize=None)
def _pi_decimal(prec: int) -> Decimal:
    # Machin: pi = 16 arctan(1/5) - 4 arctan(1/239)
    ctx = _context(prec + 10)
    val = ctx.subtract(
        ctx.multiply(Decimal(16), _atan_inverse_int(5, ctx)),
        ctx.multiply(Decimal(4), _atan_inverse_int(239, ctx)),
    )
    return _context(prec).plus(val)


def pi(digits: int = DEFAULT_DIGITS) -> Real:
    return Real(_pi_decimal(digits), digits)


def _reduce_two_pi(x: Decimal, prec: int) -> Decimal:
    # x minus the nearest multiple of 2*pi; fma keeps the cancellation exact.
    # Beyond |x| >= 10, pi carries x.adjusted() + 2 more digits, so that
    # n*2*pi is known to ~prec digits after the point (Ng 1992).
    extra = x.adjusted() + 2 if x.adjusted() > 0 else 0
    ctx = _context(prec + extra)
    two_pi = ctx.multiply(_D2, _pi_decimal(prec + extra))
    n = ctx.to_integral_value(ctx.divide(x, two_pi))
    if n.is_zero():
        return x
    return ctx.fma(n.copy_negate(), two_pi, x)


def _odd_series(t: Decimal, alternate: bool, ctx: Context) -> Decimal:
    # sin t (alternate) or sinh t: term_i = term_{i-1} (+/-t^2) / ((2i)(2i+1))
    stop = -(ctx.prec + 2)
    t2 = ctx.multiply(t, t)
    if alternate:
        t2 = t2.copy_negate()
    term = total = t
    i = 1
    while True:
        term = ctx.divide(ctx.multiply(term, t2), (2 * i) * (2 * i + 1))
        total = ctx.add(total, term)
        if term.adjusted() < stop:
            return total
        i += 1


def _small_pair_series(t: Decimal, alternate: bool, ctx: Context) -> tuple[Decimal, Decimal]:
    # (cos t, sin t) (alternate) or (cosh t, sinh t) for a nonzero |t| below
    # 1e-3 only: polys' turns, at half a step below 1e-3, and its near pair
    # terms, at u below 1e-10.  Both Taylor series in one loop and no halving:
    # even_i = even_(i-1) (+/-t^2) / ((2i - 1)(2i)) and odd_i = even_i t / (2i + 1).
    # The tails are summed apart from the leading 1 and t, so each result
    # takes one rounding of its own size (0.5 ulp) plus the tails' rounding,
    # a few 1e-6 of that at most.  odd_i < even_i |t|, so the stop on the
    # even terms stops the odd ones relative to t.
    stop = -(ctx.prec + 2)
    t2 = ctx.multiply(t, t)
    if alternate:
        t2 = t2.copy_negate()
    even, even_tail, odd_tail = _D1, _D0, _D0
    i = 1
    while True:
        even = ctx.divide(ctx.multiply(even, t2), (2 * i - 1) * (2 * i))
        even_tail = ctx.add(even_tail, even)
        odd_tail = ctx.add(odd_tail, ctx.divide(ctx.multiply(even, t), 2 * i + 1))
        if even.adjusted() < stop:
            return ctx.add(_D1, even_tail), ctx.add(t, odd_tail)
        i += 1


def _halving_steps(x: Decimal, prec: int) -> tuple[int, Context]:
    # k = k0 + the binary exponent of x, so that |x / 2^k| < 2^-k0, with
    # k0 ~ sqrt(prec)/1.5 balancing series terms against doublings.  The
    # doublings amplify rounding errors by up to 2^k, which the
    # 3k/10 + 3 extra digits absorb.
    k = max(1, isqrt(prec) * 2 // 3 + frexp(float(x))[1])
    return k, _context(prec + (3 * k) // 10 + 3)


def _cos_sin_lost(x: Decimal, c: Decimal, s: Decimal) -> int:
    # The digits that (c, s) = (cos x, sin x) lose to the kernel's absolute
    # error: near a zero of sin or cos other than x = 0, the reduction and
    # the doublings keep an absolute error, so a value loses as many digits
    # as its exponent lies below its scale (1 for cos, min(|x|, 1) for
    # sin).  It reads only exponents, so it is the same for x and -x.
    # Conditional expressions, not min and max: every pair term runs it.
    e = x.adjusted()
    lost, lost_cos = (e if e < 0 else 0) - s.adjusted(), -c.adjusted()
    return lost if lost > lost_cos else lost_cos


def _cos_sin_decimal(x: Decimal, prec: int) -> tuple[Decimal, Decimal]:
    # Ziv's strategy.  A pass absorbs half the guard digits and leaves the
    # other half for rounding; when it lost more (_cos_sin_lost), the pass
    # runs again with that many more digits, pi included.
    if x.is_zero():
        return _D1, x
    absorbed = DEFAULT_GUARD_DIGITS // 2
    while True:
        c, s = _cos_sin_pass(x, prec)
        lost = _cos_sin_lost(x, c, s)
        if lost <= absorbed:
            return c, s
        prec += lost
        absorbed += lost


def _cos_sin_pass(x: Decimal, prec: int) -> tuple[Decimal, Decimal]:
    # Argument halving (Brent 1976): sin a from its series at a = t / 2^k,
    # cos a = sqrt(1 - sin^2 a), then k doublings cos 2a = 1 - 2 sin^2 a,
    # sin 2a = 2 sin a cos a.  Every step is odd in sin and even in cos,
    # so sin(-x) = -sin(x) and cos(-x) = cos(x) exactly.
    t = _reduce_two_pi(x, prec) if x.copy_abs() > _pi_decimal(prec) else x
    if t.is_zero():
        return _D1, t
    k, ctx = _halving_steps(t, prec)
    s = _odd_series(ctx.divide(t, 1 << k), True, ctx)
    c = ctx.sqrt(ctx.subtract(1, ctx.multiply(s, s)))
    for _ in range(k):
        s, c = ctx.multiply(2, ctx.multiply(s, c)), ctx.fma(-2, ctx.multiply(s, s), 1)
    return c, s


def _far_tail(x: Decimal, prec: int) -> bool:
    # e^(-2|x|) is below half an ulp at prec digits once
    # |x| > (prec ln 10 + ln 4)/2, i.e. coth x = +/-1 exactly.
    return x.copy_abs() > (prec * 11513) // 10000 + 2


def _cosh_sinh_decimal(x: Decimal, prec: int) -> tuple[Decimal, Decimal]:
    if _far_tail(x, prec):
        # past coth's cut-off; e^|x|, so that a huge x of either sign overflows
        ctx = _context(prec)
        e = ctx.exp(x.copy_abs())
        einv = ctx.divide(_D1, e)
        sh = ctx.divide(ctx.subtract(e, einv), _D2).copy_sign(x)
        return ctx.divide(ctx.add(e, einv), _D2), sh
    if x.is_zero():
        return _D1, x
    # Argument halving on q = sinh^2, which has no cancellation to guard
    # against: q(a) from the sinh series at a = x / 2^k, k - 1 doublings
    # q(2a) = 4 q (1 + q) up to q = sinh^2(x/2), then cosh x = 1 + 2q and
    # sinh x = sign(x) sqrt(4q(1 + q)).  A doubling costs one
    # multiplication fewer than the (cosh, sinh) form, and q is even, so
    # sinh(-x) = -sinh(x) and cosh(-x) = cosh(x) exactly.
    k, ctx = _halving_steps(x, prec)
    s = _odd_series(ctx.divide(x, 1 << k), False, ctx)
    q = ctx.multiply(s, s)
    for _ in range(k - 1):
        q4 = ctx.multiply(4, q)
        q = ctx.fma(q4, q, q4)
    q4 = ctx.multiply(4, q)
    return ctx.fma(2, q, 1), ctx.sqrt(ctx.fma(q4, q, q4)).copy_sign(x)


def _working_prec(x: Real) -> int:
    return x.digits + DEFAULT_GUARD_DIGITS


def _rounded_pair(pair: tuple[Decimal, Decimal], digits: int) -> tuple[Real, Real]:
    ctx = _context(digits)
    return Real(ctx.plus(pair[0]), digits), Real(ctx.plus(pair[1]), digits)


def cos_sin(x: Real) -> tuple[Real, Real]:
    """(cos x, sin x) from one kernel run, each rounded to x's precision."""
    return _rounded_pair(_cos_sin_decimal(x.dec, _working_prec(x)), x.digits)


def cosh_sinh(x: Real) -> tuple[Real, Real]:
    """(cosh x, sinh x) from one kernel run, each rounded to x's precision."""
    return _rounded_pair(_cosh_sinh_decimal(x.dec, _working_prec(x)), x.digits)


def sin(x: Real) -> Real:
    return cos_sin(x)[1]


def cos(x: Real) -> Real:
    return cos_sin(x)[0]


def cot(x: Real) -> Real:
    prec = _working_prec(x)
    c, s = _cos_sin_decimal(x.dec, prec)
    if s.is_zero():
        raise PoleError("cot", x)
    return Real(_context(x.digits).plus(_context(prec).divide(c, s)), x.digits)


def sinh(x: Real) -> Real:
    return cosh_sinh(x)[1]


def cosh(x: Real) -> Real:
    return cosh_sinh(x)[0]


def coth(x: Real) -> Real:
    if x.is_zero():
        raise PoleError("coth", x)
    prec = _working_prec(x)
    # coth x = sign(x) (1 + 2 e^(-2|x|) + ...), and exp(x) would only
    # overflow or underflow here.
    if _far_tail(x.dec, prec):
        return Real(_D1.copy_sign(x.dec), x.digits)
    ch, sh = _cosh_sinh_decimal(x.dec, prec)
    return Real(_context(x.digits).plus(_context(prec).divide(ch, sh)), x.digits)


def ln(x: Real) -> Real:
    if x <= 0:
        raise DomainError(f"ln requires a positive argument, got {x}")
    # libmpdec's ln is correctly rounded, so it needs no guard digits.
    return Real(_context(x.digits).ln(x.dec), x.digits)


def format_fixed(x: Real, places: int) -> str:
    """Render with exactly ``places`` digits after the decimal point.

    A value whose integer part needs more digits than it carries
    (|x| >= 10^digits) prints as ``str(x)``, in scientific form; ``-0``
    prints as ``0``.
    """
    if places < 0:
        raise ValueError("places must be >= 0")
    if x.dec.adjusted() >= x.digits:
        return str(x)
    needed = max(x.dec.adjusted(), 0) + places + 4
    q = x.dec.quantize(_D1.scaleb(-places), context=_context(needed))
    return f"{q.copy_abs() if q.is_zero() else q:f}"
