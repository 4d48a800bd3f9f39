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

Every elementary function here (sin, cos, cot, sinh, cosh, coth, and ln
for ``solver.empirical_order``) is correctly rounded, half even, to its
argument's digits, by one rule (Ziv 1991; Muller, *Elementary
Functions*).  A kernel on Python ints in binary fixed point gives each
value as an integer interval (v, bound, w), |v - 2^w f(x)| <= bound, with
an exact bound that covers every rounding and every truncated series;
``_round_fixed`` rounds the two ends to the argument's digits from the
remainder of one integer division, and where they differ the interval
holds a rounding boundary, and ``_ziv`` runs the same kernel again at
more bits, as many as the straddle's distance to the boundary asks and
at least as many as the last rerun added.  f(x) is transcendental at
every rational x the functions take (Lindemann-Weierstrass), ln 1 = 0
aside, which ``ln`` returns as such, so it is never a tie and the loop
ends.  A first pass works ``_GUARD_BITS`` (20) bits past the argument's
digits, so it decides all but about one value in 10^4 (1 in 24000 at 64
and 84 digits, on seeded full-length arguments below 100), and near a
zero of sin or cos the straddle sizes its one rerun by the digits lost.
The one libmpdec transcendental left on any path is e^|x| past coth's
far tail (``_exp_tail`` says why), and its correctly rounded value
enters the same test.  Two shortcuts stand outside the rule: below
10^-(digits/2 + 6), (cos, sin) and (cosh, sinh) are (1, x) with x rounded
to its digits, correct wherever x carries no more digits than its
precision, as a Real made by ``make_real`` or by arithmetic does; and
past the far tail coth is an exact +/-1.

One argument-halving kernel per family gives both functions of a pair
(Brent 1976): one exact conversion in, the odd Taylor series (sin or
sinh) at x / 2^k by rectangular splitting, one integer square root and
k doublings.  w holds the bits of 10**digits, the guard, k for the
doublings and the bits that keep a small argument's values relative; a
kernel's bound is about 2^(k + 4) units of 2^-w for the trig pair and
under a relative 2^(4 - bits) for the hyperbolic one, and the errors
measured on seeded arguments against a reference at 3 * digits + 80
reach a fifth of the first and a tenth of the second.  sin/cos reduce an
argument past pi by 2*pi first, with pi (Chudnovsky's series on ints,
cached per precision) carrying extra digits, one more than the argument
has before its point, and the reduction's error enters the bound; one
whose reduction would need more than decimal's ``MAX_PREC`` digits
raises :class:`PhaseError`.  cot and coth are the quotients of a pair,
with the quotient's bound; below 2^-(bits/2) they are 1/x, from x's
coefficient.  cos_sin and cosh_sinh return a whole pair from one kernel
run.  ``polys`` takes every cot and
coth of its log-derivative sums, and a coefficient form's e^(ix) or
e^x, from such pairs, one per point, and calls a kernel at a term's own
argument only where the pairs cannot give it to full precision.  When a
point moves by a small step, ``polys`` turns its pair by the pair at
half the step, which one short loop over both Taylor series gives
without halving; the same loop gives the pair behind cot or coth at
half the difference of two points closer than 2e-10, where their pairs
cancel.

``ln``'s kernel (Brent 1976) writes x = y * 10^E * 2^k with y in [3/4,
3/2), takes r integer square roots of y and ln y = 2^(r+1) atanh(s) from
the series in s = (y_r - 1)/(y_r + 1); ln 2 and ln 10 come from three
Machin-like atanh series, cached per bit width on first use.  Its first
pass works at enough bits that the bound is about 2^-25 of a unit, more
for an argument near 1, whose log is small.
``ln`` equals libmpdec's own ln bit for bit, and ran 4 to 80 times
faster than it from 30 to 16384 digits.
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
from functools import lru_cache, partial, total_ordering
from math import isqrt
from typing import Callable, Sequence

MIN_DIGITS = 30
# The most digits a Real carries, a quarter of decimal's MAX_PREC: a kernel's
# Ziv reruns near a zero of sin or cos add the digits lost there, at most
# about the Real's own, and a rerun sized past that at most doubles them;
# its reduction by 2*pi adds the digits before the point, fewer than the
# Real's, so every context stays within MAX_PREC.
MAX_DIGITS = MAX_PREC // 4
DEFAULT_DIGITS = 64
_GUARD_BITS = 20

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
    """No digit of a value's phase is left (:func:`check_phase`)."""


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
    x's last digit then lies above its units place, so no digit is left of
    x mod 2*pi, a trigonometric phase, nor of an O(1) step or distance, on
    which an exponential one rests: a step from x rounds to 0."""
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


def _reduce_two_pi(x: Decimal, prec: int) -> tuple[Decimal, int | None]:
    # (t, b): t = x minus the nearest multiple n 2 pi of 2 pi, within 2^b of
    # its exact value, for |x| > pi; (x, None) for a smaller x.  fma keeps
    # the cancellation exact; pi carries x.adjusted() + 2 more digits (one
    # more than x has before its point), so that n 2 pi is known to ~prec
    # digits after the point (Ng 1992).  At p digits pi is within 0.51 units
    # of 10^(1 - p), and t, below 4, is rounded once: t is within (2|n| + 1)
    # 10^(1 - p), below 2^b.
    if x.copy_abs() <= _pi_decimal(prec):
        return x, None
    extra = x.adjusted() + 2
    if prec + extra > MAX_PREC:
        raise PhaseError(f"the phase of {x} needs more than {MAX_PREC} digits")
    ctx = _context(prec + extra)
    two_pi = ctx.multiply(_D2, _pi_decimal(prec + extra))
    n = ctx.to_integral_value(ctx.divide(x, two_pi))
    return (ctx.fma(n.copy_negate(), two_pi, x),
            (2 * abs(int(n)) + 1).bit_length() - (prec + extra - 1) * 3321 // 1000)


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


def _halving(t: Decimal, bits: int, squared: bool) -> tuple[int, int, int]:
    # (k, w, a) for the argument-halving kernels: k halvings, w fractional
    # bits and a = floor(|t| 2^(w - k)).  k = k0 + e, e the binary exponent
    # of t (2^(e-1) <= |t| < 2^e), with k0 ~ sqrt(bits/3)/3 balancing series
    # terms against doublings, so that a < 2^(w - k0); 1 when t is smaller.
    # w holds ``bits``, k for the doublings, and the bits that keep a small
    # value relative: -e for sin below 1, and 2(k - e) for q = sinh^2 a,
    # which starts near a^2.  t is converted exactly at f bits, the same sum
    # with e bounded from t's decimal exponent, and floored.
    low = t.adjusted() * 3321928 // 1000000 - 1  # <= e
    high = (t.adjusted() + 1) * 3321929 // 1000000 + 2  # >= e
    k0 = isqrt(bits // 3) // 3
    k = max(1, k0 + high)
    f = bits + k + (2 * (k - low) if squared else max(0, -low))
    fixed = int(_context(MAX_PREC).multiply(t.copy_abs(), _binary_unit(f)))
    e = fixed.bit_length() - f
    k = max(1, k0 + e)
    w = bits + k + (2 * (k - e) if squared else max(0, -e))
    return k, w, fixed >> (f - w + k)


def _fixed_series(a: int, w: int, alternate: bool) -> tuple[int, int]:
    # (sin a or sinh a, its bound) at w fractional bits, for 0 <= a < 2^(w-1):
    # a (1 + sum_i (-+y)^i / (2i + 1)!), y = a^2, by rectangular splitting
    # (Smith 1989).  Odd terms go into s0 and even ones into s1 without their
    # power of y, so two terms cost one multiplication, by y^2, and Horner's
    # form gives the sum -+y (s0 -+ y s1).  Each pass of the loop floors
    # three times and adds 4 to i, so the sum is within i units and the
    # value within 2 + i a 2^-w.
    y = a * a >> w
    y2 = y * y >> w
    s0 = s1 = 0
    term = 1 << w
    i = 2
    while term:
        term //= i * (i + 1)
        s0 += term
        term //= (i + 2) * (i + 3)
        s1 += term
        term = term * y2 >> w
        i += 4
    series = ((s1 * y >> w) - s0 if alternate else (s1 * y >> w) + s0) * y >> w
    return a + (a * series >> w), 2 + (i * a >> w)


def _cos_sin_fixed(x: Decimal, digits: int, extra: int) -> tuple[tuple[int, int, int], ...]:
    # ((c, bound, w), (s, bound, w)): cos x and sin x at w fractional bits,
    # for x other than 0, by argument halving (Brent 1976) on ints: sin a from
    # its series at a = |t| / 2^k, cos a = sqrt(1 - sin^2 a), then k doublings
    # sin 2a = 2 sin a cos a, cos 2a = (cos a - sin a)(cos a + sin a).  A
    # doubling is twice a rotation, so it doubles the error (c, s) has, and
    # adds under 3 units; the pair starts within 2 sigma + 1 units of
    # (cos, sin) at |t| / 2^k, sigma = 1 + the series' bound, so it ends
    # within (2 sigma + 6) 2^k, plus the reduction's error.  The pair is computed at |t| and sin
    # takes t's sign.
    bits = digits * 3322 // 1000 + _GUARD_BITS + extra
    t, b = _reduce_two_pi(x, bits * 302 // 1000 + 1)
    k, w, a = _halving(t, bits, False)
    s, bound = _fixed_series(a, w, True)
    c = isqrt((1 << 2 * w) - s * s)
    for _ in range(k):
        s, c = s * c >> (w - 1), (c - s) * (c + s) >> w
    bound = (2 * bound + 8 << k) + (0 if b is None else 1 << max(0, w + b))
    return (c, bound, w), (s if t > 0 else -s, bound, w)


def _far_tail(x: Decimal, digits: int) -> bool:
    # |x| > ((digits + 10) ln 10 + ln 4)/2, where e^(-2|x|) < 10^-(digits +
    # 10)/4: coth x, which rounds to +/-1 from about digits ln(10) / 2 on,
    # is +/-1 to ten more digits, and coth returns an exact +/-1
    return x.copy_abs() > ((digits + 10) * 11513) // 10000 + 2


def _cosh_sinh_fixed(x: Decimal, digits: int, extra: int) -> tuple[tuple[int, ...], ...]:
    # ((ch, bound, w), (sh, bound, w)): cosh x and sinh x at w fractional
    # bits, for x other than 0, by argument halving on q = sinh^2, which has
    # no cancellation to guard against: q(a) from the sinh series at a =
    # |x| / 2^k, k - 1 doublings q(2a) = 4 q (1 + q) up to q = sinh^2(x/2),
    # then cosh x = 1 + 2q and sinh x = sign(x) sqrt(4q(1 + q)).  A doubling
    # multiplies q's relative error by (1 + 2q)/(1 + q) < 2 and adds four
    # units, and w's 2(k - e) bits keep q's first relative error within
    # 2^(1 - k) (sigma + 2) 2^-bits, sigma the series' bound plus the
    # conversion's; so both values are within (sigma + 4) 2^-bits of
    # themselves, plus the square root's unit.  Past the far tail, from
    # e^|x| (_exp_tail).
    bits = digits * 3322 // 1000 + _GUARD_BITS + extra
    if _far_tail(x, digits):
        return _exp_tail(x, bits)
    k, w, a = _halving(x, bits, True)
    s, sigma = _fixed_series(a, w, False)
    q = s * s >> w
    for _ in range(k - 1):
        q = ((q * q >> w) + q) << 2
    ch, sigma = (1 << w) + (q << 1), sigma + 6
    sh = isqrt((q << 2) * (ch - q))
    return (ch, (ch * sigma >> bits) + 2, w), (sh if x > 0 else -sh, (sh * sigma >> bits) + 2, w)


def _exp_tail(x: Decimal, bits: int) -> tuple[tuple[int, ...], ...]:
    # ((ch, bound, w, e), (sh, bound, w, e)): cosh x and sinh x as 10^e times
    # values at w fractional bits, from E = e^|x| = V 10^e, V in [1, 10],
    # which libmpdec's exp gives correctly rounded to p digits.  This is the
    # one libmpdec transcendental left on any path: e^|x| here has more than
    # |x| log2(e) integer bits, unbounded in x, where libmpdec scales by its
    # exponent and raises decimal's Overflow once e^|x| leaves the exponent
    # range, which polys reads as "no phase".  cosh and sinh are (V +- 10^(-2e)
    # / V) 10^e / 2, with V within half a unit of 10^(1 - p) and the floors.
    p = bits * 302 // 1000 + 2
    big = _context(p).exp(x.copy_abs())
    e = big.adjusted()
    v = (int(big.scaleb(p - 1 - e, _context(p))) << bits) // 10 ** (p - 1)
    inv = 0 if 2 * e * 3321 // 1000 >= bits else (1 << 2 * bits) // (v * 10 ** (2 * e))
    return (v + inv, 4, bits + 1, e), (v - inv if x > 0 else inv - v, 4, bits + 1, e)


def _reciprocal(pair, x: Decimal, digits: int, extra: int) -> tuple[tuple[int, ...]]:
    # ((v, bound, w),) or ((v, bound, w, e),): cot x (pair = _cos_sin_fixed)
    # or coth x (_cosh_sinh_fixed), for x other than 0.  Below 2^-(bits/2),
    # 1/x = 10^-e / m, x = m 10^e, within x^2/3 < 2^-bits of itself, 2 units,
    # and its floor; elsewhere the quotient c/s of the pair, within (bc |s| +
    # |c| bs) / (|s| (|s| - bs)) and its floor, or no bound where |s| <= bs.
    bits = digits * 3322 // 1000 + _GUARD_BITS + extra
    if -2 * (x.adjusted() + 1) * 3321 // 1000 >= bits:
        e = x.as_tuple().exponent
        m = int(x.scaleb(-e, _context(MAX_PREC)))
        w = bits + m.bit_length()
        return (((1 << w) // m, 4, w, -e),)
    (c, bc, w), (s, bs, _) = pair(x, digits, extra)
    if abs(s) <= bs:
        return ((0, 1 << w, w),)
    bound = ((bc * abs(s) + abs(c) * bs) << w) // (abs(s) * (abs(s) - bs)) + 2
    return (((c << w) // s, bound, w),)


# n -> 10^n
_power_of_ten = lru_cache(maxsize=None)(partial(pow, 10))


def _round_fixed(digits: int, v: int, bound: int, w: int, e: int = 0) -> Decimal | int:
    # Ziv's test on y = v 10^e / 2^w, known within bound 10^e / 2^w: y
    # rounded half even to ``digits`` digits where every value within the
    # bound rounds the same, else the bits a rerun needs, sized from the
    # straddle's distance to the rounding boundary.  For 2^(l-1) <= |v| 2^-w
    # < 2^l, |y| has decimal exponent e + F or e + F + 1, F = floor((l - 1)
    # log10 2), with log10 2 = 5553023288523357132 / 2^64 to 20 digits; so
    # m, r = divmod(|v| 10^(digits - 1 - F), 2^w), in integers, gives m of
    # digits or digits + 1 digits, and one fold by 10 leaves digits.  Each
    # boundary lies half a unit from m, but a tenth of that below
    # 10^(digits - 1), where the unit shrinks; scaleb takes a carry to
    # 10^digits back to digits digits.
    a = abs(v)
    top = _power_of_ten(digits)
    f = ((a.bit_length() - w - 1) * 5553023288523357132 >> 64) - digits + 1
    if f < 0:
        scale = _power_of_ten(-f)
        n, d, bound = a * scale, 1 << w, bound * scale
        m = n >> w
        r = n - (m << w)
    else:
        d = _power_of_ten(f) << w
        m, r = divmod(a, d)
    if m >= top:
        m, j = divmod(m, 10)
        r, d, f = r + j * d, d * 10, f + 1
    if 2 * r + (m & 1) > d:  # half even: d is even
        m, r = m + 1, d - r
    if 2 * (r + bound) >= d or m * 10 == top and 20 * (bound - r) >= d:
        return (2 * bound // (d - 2 * r + 1)).bit_length() + _GUARD_BITS
    return Decimal(m if v > 0 else -m).scaleb(e + f, _context(digits))


def _ziv(digits: int, kernel: Callable[..., Sequence[tuple[int, ...]]], *args) -> list[Decimal]:
    # The values of the intervals kernel(*args, extra) returns, each
    # correctly rounded, half even, to ``digits`` digits (Ziv 1991): extra is
    # 0 first; while an interval holds a rounding boundary, the kernel runs
    # again with at least as many more bits as the last rerun added and as
    # the straddle asks.  None of these values is ever a tie, so the loop ends.
    extra = 0
    while True:
        out = [_round_fixed(digits, *interval) for interval in kernel(*args, extra)]
        if int not in map(type, out):
            return out
        extra += max(extra, *(value for value in out if type(value) is int))


def _pair(kernel, x: Real) -> tuple[Real, Real]:
    if x.dec.is_zero() or 2 * x.dec.adjusted() < -x.digits - 12:
        # below 10^-(digits/2 + 6), the pair is (1, x) within 10^-(digits +
        # 12) of a unit, and 1 stays an exact 1
        return Real(_D1, x.digits), Real(_context(x.digits).plus(x.dec), x.digits)
    c, s = _ziv(x.digits, kernel, x.dec, x.digits)
    return Real(c, x.digits), Real(s, x.digits)


def cos_sin(x: Real) -> tuple[Real, Real]:
    """(cos x, sin x) from one kernel run, each correctly rounded, half
    even, to x's precision (see the module)."""
    return _pair(_cos_sin_fixed, x)


def cosh_sinh(x: Real) -> tuple[Real, Real]:
    """(cosh x, sinh x) from one kernel run, each correctly rounded, half
    even, to x's precision (see the module)."""
    return _pair(_cosh_sinh_fixed, x)


def sin(x: Real) -> Real:
    return cos_sin(x)[1]


def cos(x: Real) -> Real:
    return cos_sin(x)[0]


def cot(x: Real) -> Real:
    """cot x correctly rounded, half even, to x's precision (see the module)."""
    if x.is_zero():
        raise PoleError("cot", x)
    return Real(_ziv(x.digits, _reciprocal, _cos_sin_fixed, x.dec, x.digits)[0], x.digits)


def sinh(x: Real) -> Real:
    return cosh_sinh(x)[1]


def cosh(x: Real) -> Real:
    return cosh_sinh(x)[0]


def coth(x: Real) -> Real:
    """coth x correctly rounded, half even, to x's precision (see the module)."""
    if x.is_zero():
        raise PoleError("coth", x)
    if _far_tail(x.dec, x.digits):
        return Real(_D1.copy_sign(x.dec), x.digits)
    return Real(_ziv(x.digits, _reciprocal, _cosh_sinh_fixed, x.dec, x.digits)[0], x.digits)


@lru_cache(maxsize=None)
def _binary_unit(w: int) -> Decimal:
    return Decimal(1 << w)


def _atanh_fixed(s: int, w: int) -> tuple[int, int]:
    # (v, J + 5), v = 2^w atanh(s 2^-w) for |s| < 0.2 2^w at w fractional
    # bits, from its series in s^2 by rectangular splitting, four terms per
    # multiplication, in J rounds.  The rounds and the tail are within
    # (0.63 J + 1.77) units of 2^-w, and J + 5 leaves 3.2 units more for
    # the error that s brings, which atanh grows by at most 1.05.
    z = s * s >> w
    z2 = z * z >> w
    z3 = z2 * z >> w
    z4 = z2 * z2 >> w
    s0 = s1 = s2 = s3 = 0
    power = 1 << w
    i = 1
    while power:
        s0 += power // i
        s1 += power // (i + 2)
        s2 += power // (i + 4)
        s3 += power // (i + 6)
        power = power * z4 >> w
        i += 8
    return s * (s0 + ((z * s1 + z2 * s2 + z3 * s3) >> w)) >> w, i // 8 + 5


@lru_cache(maxsize=None)
def _ln2_ln10(w: int) -> tuple[int, int]:
    # ln 2 and ln 10 at w fractional bits, each within 2 units, from three
    # atanh series shared by both: ln 2 = 14 acoth 31 + 10 acoth 49 +
    # 6 acoth 161 and ln 10 = 46 acoth 31 + 34 acoth 49 + 20 acoth 161,
    # acoth n = atanh(1/n).  Each series, on 1/n floored, is within J + 5
    # units at g = w.bit_length() + 8 more bits, which keep each constant
    # within 2 units.
    g = w.bit_length() + 8
    a, b, c = (_atanh_fixed((1 << (w + g)) // n, w + g)[0] for n in (31, 49, 161))
    return (14 * a + 10 * b + 6 * c) >> g, (46 * a + 34 * b + 20 * c) >> g


def _ln_fixed(x: Decimal, digits: int, extra: int = 0) -> tuple[int, int, int]:
    # (v, bound, w) with |v - 2^w ln x| <= bound, for a positive x other
    # than 1, at w fractional bits: those of 10^(digits + near)
    # less one, one per root, 32 more and ``extra`` (Ziv's reruns), so that
    # the bound is at most (J + 5) 2^-(30 + extra) of a unit in the last of
    # ``digits`` digits (Brent 1976).  x = y 10^E 2^k with y in [3/4, 3/2),
    # so that |ln x| >= 0.28 unless E = k = 0, where |ln x| >= |x - 1| / 1.5:
    # the digits that x lies within 1 (``near``) buy bits, and no reduction
    # cancels.  Then r integer square roots of y and ln y = 2^(r+1)
    # atanh(s), s = (y_r - 1) / (y_r + 1), |s| < 0.2 (:func:`_atanh_fixed`).
    # The bound, in units of 2^-w: the conversion of y and the roots, 1.34
    # * 2^(r+1); the division for s, 1.05 * 2^(r+1); the J rounds of the
    # series and its tail, (0.63 J + 1.77) * 2^(r+1), which sum to below
    # (J + 5) * 2^(r+1); and 2 for each ln 2 in k and each ln 10 in E.
    e = x.adjusted()
    gap = _context(digits).subtract(x, _D1) if -1 <= e <= 0 else _D1
    near = max(0, -gap.adjusted())
    exact = _context(MAX_PREC)
    m = x.scaleb(-e, exact)
    if m >= 5:
        e, m = e + 1, m.scaleb(-1, exact)
    roots = isqrt(digits) // 4
    w = (digits + near) * 3322 // 1000 + roots + 32 + extra
    unit = 1 << w
    y = int(exact.multiply(m, _binary_unit(w)))  # floor(m 2^w), m in [1/2, 5)
    k = y.bit_length() - 1 - w
    if y >> (w + k - 1) == 3:  # m / 2^k >= 3/2
        k += 1
    y = y >> k if k >= 0 else y << -k
    # fewer roots where y already lies near 1
    r = min(roots, max(0, roots + 2 - w + abs(y - unit).bit_length()))
    for _ in range(r):
        y = isqrt(y << w)
    v, bound = _atanh_fixed(((y - unit) << w) // (y + unit), w)
    v, bound = v << (r + 1), bound << (r + 1)
    if k or e:
        ln2, ln10 = _ln2_ln10(w)
        v += k * ln2 + e * ln10
        bound += 2 * (abs(k) + abs(e))
    return v, bound, w


def ln(x: Real) -> Real:
    """ln x correctly rounded, half even, to x's precision (see the module)."""
    if x <= 0:
        raise DomainError(f"ln requires a positive argument, got {x}")
    if x == 1:
        return Real(_D0, x.digits)
    return Real(_ziv(x.digits, lambda extra: (_ln_fixed(x.dec, x.digits, extra),))[0], x.digits)


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
    ctx = _context(max(x.dec.adjusted(), 0) + places + 4)
    q = x.dec.quantize(_D1.scaleb(-places, ctx), context=ctx)
    return f"{q.copy_abs() if q.is_zero() else q:f}"
