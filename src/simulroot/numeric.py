"""Configurable-precision real arithmetic and elementary functions.

Every scalar a public function takes or returns is a :class:`Real`: an
immutable decimal number that carries its working precision in decimal
digits.  Inner loops run on the ``Decimal`` inside (the sums in
``polys``), under one cached ``decimal.Context`` per precision, or on
Python ints (the halving kernels here, and pi), so no process-wide
precision is ever mutated and values are safe to share between threads.
A precision is a plain ``int``: ``Real`` rejects one below
``MIN_DIGITS`` (30), the one place that floor is checked, and
``make_real`` parses at ``DEFAULT_DIGITS`` (64) unless told otherwise.

The elementary functions required by the iteration families (sin, cos,
cot, sinh, cosh, coth) are evaluated with ``DEFAULT_GUARD_DIGITS`` extra
digits, a constant.  Before its last rounding a value is within about
2e-10 * 10**lost of a unit in its last digit, where the trig pair lies
``lost`` digits below its scale (``_cos_sin_lost``; 0 for the hyperbolic
pair), and it is then rounded once to the argument's precision.  That
is faithful rounding, and correct rounding except that close to a tie:
a value that lies within that error of a tie may round to either side.
Near a zero of sin or cos, where cancellation eats more than half the
guard, the evaluation reruns with more digits (Ziv's strategy).  One
argument-halving kernel per family gives both functions of a pair, on
Python ints in binary fixed point at w fractional bits: one exact
conversion in, the odd Taylor series (sin or sinh) at x / 2^k, one
integer square root and k doublings, and one correctly rounded
``Decimal`` division per value out.  w holds the bits of 10**prec at the
working precision prec, k for the doublings, the bits that keep a small
argument's values relative, and ``_GUARD_BITS`` (4), so the fixed point
adds at most 2**(2 - 4), a quarter of a unit in the last digit at prec,
2.5e-11 of a unit at the argument's precision; the rest of the 2e-10 is
the reduction's and the roundings'.  Below 10**-((prec + 1)/2) the pair is
(1, x) to a twentieth of a unit, which bounds w by about twice the bits
of 10**prec for any argument.  sin/cos reduce an argument past pi by
2*pi first, with pi (Chudnovsky's series on ints, cached per precision)
carrying extra digits, one more than the argument has before its point;
one whose reduction would need more than decimal's ``MAX_PREC`` digits
raises :class:`PhaseError`.  sinh/cosh use the context's exp only past
coth's far-tail cut-off.  cot and coth are quotients of a pair; cos_sin
and cosh_sinh return a whole pair from one kernel run.  ``polys`` takes
every cot and coth of its log-derivative sums, and a coefficient form's
e^(ix) or e^x, from such pairs, one per point, and calls a kernel at a
term's own argument only where the pairs cannot give it to full
precision.  When a point moves by a small step, ``polys`` turns its pair
by the pair at half the step, which one short loop over both Taylor
series gives without halving; the same loop gives the pair behind cot or
coth at half the difference of two points closer than 2e-10, where their
pairs cancel.
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
from decimal import MAX_EMAX, MAX_PREC, MIN_EMIN
from functools import lru_cache, total_ordering
from math import isqrt
from typing import Sequence

MIN_DIGITS = 30
# The most digits a Real carries, a quarter of decimal's MAX_PREC: a phase
# kernel's context adds guard digits to them, its reruns near a zero of sin
# up to as many again, and its reduction by 2*pi the digits before the
# point, fewer than the Real's, so every context stays within MAX_PREC.
MAX_DIGITS = MAX_PREC // 4
DEFAULT_DIGITS = 64
DEFAULT_GUARD_DIGITS = 10
_GUARD_BITS = 4

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
        if self.digits > MAX_DIGITS:
            raise ValueError(f"digits must be <= {MAX_DIGITS}, got {self.digits}")

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


def _chudnovsky(a: int, b: int) -> tuple[int, int, int]:
    # (P, Q, T) of terms a..b-1 of Chudnovsky's series, by binary splitting:
    # T / Q = sum_i (-1)^i (6i)! (13591409 + 545140134 i) / ((3i)! i!^3 640320^(3i))
    if b - a == 1:
        if a == 0:
            p = q = 1
        else:  # the ratio of term a to term a - 1 is -p / q; 640320^3 / 24 = 10939058860032000
            p, q = (6 * a - 5) * (2 * a - 1) * (6 * a - 1), a ** 3 * 10939058860032000
        t = p * (13591409 + 545140134 * a)
        return p, q, -t if a & 1 else t
    m = (a + b) // 2
    p1, q1, t1 = _chudnovsky(a, m)
    p2, q2, t2 = _chudnovsky(m, b)
    return p1 * p2, q1 * q2, t1 * q2 + p1 * t2


@lru_cache(maxsize=None)
def _pi_decimal(prec: int) -> Decimal:
    # pi = 426880 sqrt(10005) Q / T (Chudnovsky 1988; each term adds 14.18
    # digits), on ints to prec + 12 digits, then rounded once to prec
    places = prec + 12
    _, q, t = _chudnovsky(0, places // 14 + 2)
    scale = 10 ** places
    v = q * 426880 * isqrt(10005 * scale * scale) // t
    return _context(prec).plus(Decimal(v).scaleb(-places, _context(MAX_PREC)))


def pi(digits: int = DEFAULT_DIGITS) -> Real:
    return Real(_pi_decimal(digits), digits)


def _reduce_two_pi(x: Decimal, prec: int) -> Decimal:
    # x minus the nearest multiple of 2*pi, for |x| > pi; fma keeps the
    # cancellation exact.  pi carries x.adjusted() + 2 more digits (one
    # more than x has before its point), so that n*2*pi is known to ~prec
    # digits after the point (Ng 1992).
    extra = x.adjusted() + 2
    if prec + extra > MAX_PREC:
        raise PhaseError(f"the phase of {x} needs more than {MAX_PREC} digits")
    ctx = _context(prec + extra)
    two_pi = ctx.multiply(_D2, _pi_decimal(prec + extra))
    n = ctx.to_integral_value(ctx.divide(x, two_pi))
    if n.is_zero():
        return x
    return ctx.fma(n.copy_negate(), two_pi, x)


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


def _halving(t: Decimal, prec: int, squared: bool) -> tuple[int, int, int, int, Decimal]:
    # (k, w, a, shift, one) for the argument-halving kernels: k halvings, w
    # fractional bits, a = |t| / 2^k at w bits, and one = Decimal(2^f), f the
    # bits that t was converted at and that the results convert back from,
    # shift = f - w >= 0.  k = k0 + e, e the binary exponent of t (2^(e-1) <= |t| < 2^e),
    # with k0 ~ sqrt(prec)/3 balancing series terms against doublings, so
    # that |a| < 2^-k0; 1 when t is smaller.  w holds the bits of 10^prec,
    # _GUARD_BITS, k for the doublings (each at most doubles the error), and
    # the bits that keep a small value relative: -e for sin below 1, and
    # 2(k - e) for q = sinh^2 a, which starts near a^2.  f is the same sum
    # with e bounded from t's decimal exponent, which the callers' cut-off
    # keeps above -prec/2 - 2, so f stays below about twice the bits of
    # 10^prec, whatever the argument.
    e10 = t.adjusted()
    low = e10 * 3321928 // 1000000 - 1  # <= e
    high = (e10 + 1) * 3321929 // 1000000 + 2  # >= e
    k0 = isqrt(prec) // 3
    bits = prec * 3322 // 1000 + _GUARD_BITS
    k = max(1, k0 + high)
    f = bits + k + (2 * (k - low) if squared else max(0, -low))
    one = Decimal(1 << f)
    fixed = int(_context(MAX_PREC).multiply(t.copy_abs(), one))  # exact, then floored
    e = fixed.bit_length() - f
    k = max(1, k0 + e)
    w = bits + k + (2 * (k - e) if squared else max(0, -e))
    return k, w, fixed >> (f - w + k), f - w, one


def _fixed_series(a: int, w: int, alternate: bool) -> int:
    # sin a (alternate) or sinh a at w fractional bits, for 0 <= a < 2^(w-1):
    # a (1 + sum_i (-+y)^i / (2i + 1)!), y = a^2, by rectangular splitting
    # (Smith 1989).  Term i goes into s[(i - 1) % 4] without its power of y,
    # so four terms cost one multiplication, by y^4, and s[r] takes
    # (-+y)^(r + 1) once at the end, in Horner's form.
    y = a * a >> w
    y4 = y * y >> w
    y4 = y4 * y4 >> w
    s0 = s1 = s2 = s3 = 0
    term = 1 << w
    i = 2
    while term:
        term //= i * (i + 1)
        s0 += term
        term //= (i + 2) * (i + 3)
        s1 += term
        term //= (i + 4) * (i + 5)
        s2 += term
        term //= (i + 6) * (i + 7)
        s3 += term
        term = term * y4 >> w
        i += 8
    if alternate:
        s0, s2 = -s0, -s2
    series = (((s3 * y >> w) + s2) * y >> w) + s1
    series = ((series * y >> w) + s0) * y >> w
    return a + (a * series >> w)


def _from_fixed(n: int, shift: int, one: Decimal, prec: int) -> Decimal:
    # n / 2^w, for one = Decimal(2^(w + shift)): one division,
    # correctly rounded to 3 digits past prec, so that this rounding adds a
    # thousandth of a unit at prec to the kernel's quarter
    return _context(prec + 3).divide(Decimal(n << shift), one)


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
    # Argument halving (Brent 1976) on ints at w fractional bits: sin a from
    # its series at a = |t| / 2^k, cos a = sqrt(1 - sin^2 a), then k
    # doublings cos 2a = 1 - 2 sin^2 a, sin 2a = 2 sin a cos a.  The pair is
    # computed at |t| and sin takes t's sign, so sin(-x) = -sin(x) and
    # cos(-x) = cos(x) exactly.
    t = _reduce_two_pi(x, prec) if x.copy_abs() > _pi_decimal(prec) else x
    if t.is_zero() or 2 * t.adjusted() < -prec - 2:
        # below 10^-((prec + 1)/2), (1, t) is within a twentieth of a unit
        return _D1, t
    k, w, s, shift, one = _halving(t, prec, False)
    s = _fixed_series(s, w, True)
    unit = 1 << w
    c = isqrt((unit << w) - s * s)
    for _ in range(k):
        s, c = s * c >> (w - 1), unit - (s * s >> (w - 1))
    return _from_fixed(c, shift, one, prec), _from_fixed(s, shift, one, prec).copy_sign(t)


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
    if x.is_zero() or 2 * x.adjusted() < -prec - 2:
        # below 10^-((prec + 1)/2), (1, x) is within a twentieth of a unit
        return _D1, x
    # Argument halving on q = sinh^2, which has no cancellation to guard
    # against: q(a) from the sinh series at a = |x| / 2^k, k - 1 doublings
    # q(2a) = 4 q (1 + q) up to q = sinh^2(x/2), then cosh x = 1 + 2q and
    # sinh x = sign(x) sqrt(4q(1 + q)), all on ints at w fractional bits.  A
    # doubling costs one multiplication fewer than the (cosh, sinh) form,
    # and q is even, so sinh(-x) = -sinh(x) and cosh(-x) = cosh(x) exactly.
    k, w, s, shift, one = _halving(x, prec, True)
    s = _fixed_series(s, w, False)
    q = s * s >> w
    for _ in range(k - 1):
        q4 = q << 2
        q = (q4 * q >> w) + q4
    unit = 1 << w
    ch, sh = unit + (q << 1), isqrt((q << 2) * (unit + q))
    return _from_fixed(ch, shift, one, prec), _from_fixed(sh, shift, one, prec).copy_sign(x)


def _working_prec(x: Real) -> int:
    return x.digits + DEFAULT_GUARD_DIGITS


def _rounded_pair(pair: tuple[Decimal, Decimal], digits: int) -> tuple[Real, Real]:
    ctx = _context(digits)
    return Real(ctx.plus(pair[0]), digits), Real(ctx.plus(pair[1]), digits)


def cos_sin(x: Real) -> tuple[Real, Real]:
    """(cos x, sin x) from one kernel run, each within about 2e-10 * 10**lost
    of a unit before its one rounding to x's precision (see the module)."""
    return _rounded_pair(_cos_sin_decimal(x.dec, _working_prec(x)), x.digits)


def cosh_sinh(x: Real) -> tuple[Real, Real]:
    """(cosh x, sinh x) from one kernel run, each within about 2e-10 of a
    unit before its one rounding to x's precision (see the module)."""
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
