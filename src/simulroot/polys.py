"""Polynomial families in coefficient and factored form, with derivatives.

Three coefficient families are supported:

* algebraic, monic: x^n + a_1 x^(n-1) + ... + a_n
* trigonometric: a_0/2 + sum_k (a_k cos(kx) + b_k sin(kx))
* exponential: a_0/2 + sum_k (a_k cosh(kx) + b_k sinh(kx))

plus a factored form whose factors are (x - r), sin((x - r)/2) or
sinh((x - r)/2) raised to known multiplicities.  Every numeric rule that
depends on the family lives in one table, ``_RULES``.  The Newton ratio of a
factored form is the reciprocal of its logarithmic derivative
``sum_j m_j K(x - r_j)``, with K(d) = 1/d, cot(d/2)/2 or coth(d/2)/2,
one ``map`` and ``reduce`` over its roots (``_log_derivative``).  The
solver's correction sums are the same sums over the other estimates, all
of them from one pairwise pass (:func:`pairwise_log_derivatives`) that
uses K's oddness.

A half-angle form, factored or in coefficient form, runs no kernel per
term.  Each point gets its phase (:class:`Phase`), the pair (c, s) at
half the point, which knows its point, from the kernel once
(:func:`phases`), at ``PHASE_GUARD_DIGITS`` more digits than the sums;
the solver keeps a factored form's roots' phases for a whole solve, from
one kernel run at the estimates' digits rounded down to each level
(:func:`root_phases`), and the estimates' phases from sweep to sweep.
One rule, :func:`turned_phases`, gives every phase a solve uses, and
takes as an anchor only a phase that serves the sums' digits.  Every
pair derived from phases is one or two angle subtractions, each the
operations of :func:`_minus` in its order:

* a turn, by the pair at half the distance from an estimate to the
  nearer of its last position and its nearest root (:func:`turned_phases`);
* cot or coth at (a - b)/2, from the phases of a and b (:func:`_pair_term`);
* the move to u, the argument the kernel sees, round(round(a - b)/2),
  by the first-order pair (1, -delta) at -delta = v - u.

A turn calls :func:`_minus`; a pair term writes its subtraction and its
move out in its own frame, where a multiply-add by 1 is the add it
equals, since helper frames cost 14-20% of a 64-digit term.

A near pair, whose u = round(round(a - b)/2) lies below
10**-(PHASE_GUARD_DIGITS // 2) in magnitude, would cancel more than half
the guard digits in that subtraction; its term is instead the quotient
of the pair at u itself from numeric's short series
(``_small_pair_series``, the turns' series), at the phases' digits.

Every pair term is the quotient of its pair at u rounded once to the
sums' digits: within 0.5 + 1e-7 units of cot or coth at u (the error
account after ``PHASE_GUARD_DIGITS``), so correctly rounded unless that
value lies within 1e-7 of a unit of a tie.  A term whose composition
cancels more than half the guard digits, whose t rounds too coarsely for
its scale, whose move is in doubt, that saturates at +/-1, or whose
point has no phase (its kernel overflows) takes the kernel at u:
numeric's cot or coth.

The log-derivative sums and the Horner runs take and return Reals but
run on their ``Decimal`` values, under one context at the most digits
any operand carries; cot, coth and the function pairs stay numeric's.
A log-derivative sum is one ``reduce`` of the context's add over a ``map``
of its terms, the odd parts of a row of differences (``_odds``).  The
algebraic odd part is the difference itself, so an algebraic sum runs no
Python per term: m / (x - p) is a ``map`` of the context's subtract and
divide, and a coincident point shows as the division's
``DivisionByZero``.  A half-angle row checks its differences for a zero
once, then runs one ``map`` of a :func:`_pair_term` term over them.  A
factored form keeps its roots' Decimals (``FactoredPoly.root_decs``), so a
Newton ratio does not unpack them, and their set
(``FactoredPoly.root_set``), so a Newton ratio at a root runs no term.  A
Newton ratio runs at the digits of its point, on the form with its roots
or coefficients rounded to them (its ``at``, one view per number of
digits), whatever digits they carry; a coefficient form's sums in z are
exact in the rounded coefficients.

A coefficient form runs Horner in x, or in z = e^(ix) or e^x from x's
phase.  It cancels: near a root of multiplicity m its value is rounding
noise once the point lies within about 10^(-digits/m) of the root.
Horner therefore carries a running bound on its own rounding error in
the same loop (Higham, *Accuracy and Stability of Numerical Algorithms*,
Alg. 5.1), at a few digits rounded upward, and :func:`newton_ratio` says
whether |p(x)| lies within it.  A factored form's log-derivative sum can
cancel every digit too, near a critical point of p: (x - 1)(x + 1) at
x = 1E-70 and 64 digits sums the terms -1 and +1 to 0, where p'/p is
about -2E-70.  It carries no bound, so such a point stops the solve as
a :class:`DerivativeZeroError` step failure, never as a freeze.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, fields
from decimal import (
    MAX_EMAX,
    MAX_PREC,
    MIN_EMIN,
    ROUND_CEILING,
    Context,
    Decimal,
    DivisionByZero,
    InvalidOperation,
    Overflow,
)
from enum import Enum
from functools import cached_property, lru_cache, reduce
from itertools import repeat
from operator import attrgetter
from typing import Callable, Iterable, NamedTuple, Sequence, Union

from .numeric import (
    Real,
    _context,
    _small_pair_series,
    cos_sin,
    cosh_sinh,
    cot,
    coth,
    first_equal_pair,
    one,
    zero,
)

# Digits a phase carries beyond the sums it serves.  A pair term may lose
# half of them to cancellation; the other half bound its error before its
# one rounding.
PHASE_GUARD_DIGITS = 20

# One error account per composition of angle subtractions (:func:`_minus`,
# or a pair term's copy of its operations) follows, in units of
# 10**(1 - digits - PHASE_GUARD_DIGITS) times the scale that bounds a
# phase's |c| and |s|: 1 for trig, cosh at the half point for the
# hyperbolic pair.  A direct phase is within 0.5 + 1e-8 unit.
#
# A pair term (:func:`_pair_term`) is the quotient c/s of a pair at u, the
# kernel's argument, rounded once to the sums' digits.  Before that
# rounding c/s is within 1e-7 of a unit in the term's last digit of cot or
# coth at u.  On the phase path the phases' rounding, magnified by at most
# 10**(PHASE_GUARD_DIGITS // 2) of cancellation, gives a few 1e-9 of a
# unit, and the move to u adds at most 1e-9.  The worst seen on 6000
# seeded pairs at 64 and 256 digits was 7e-10, and 2.5e-9 on 12000 more
# whose phases were direct or turned 12 times.  A near pair's pair at u,
# from the short series, is within a few units of its last digit at the
# phases' digits, PHASE_GUARD_DIGITS below the term's own.  So a term is
# within 0.5 + 1e-7 units of cot or coth at u: faithfully rounded
# everywhere, and correctly rounded unless that value lies within 1e-7 of
# a unit of a tie.

# A turn (:func:`turned_phases`) moves a phase (c, s) at x/2 to (x -
# delta)/2 by the pair (C, S) at h = delta/2 from numeric's short series,
# all at TURN_GUARD_DIGITS more digits than a direct phase, where one
# rounding is at most 0.001 unit.  For |delta| < MAX_TURN_STEP a turn
#
# * multiplies the errors E already in c and s by at most 1 + eps: by
#   |C| + |S| <= 1 + |h| for trig, and by (C + |S|) e^|h| = e^|delta| for
#   the hyperbolic pair, whose scale may shrink by e^-|h|; eps <= 1.001e-3;
# * adds the rounding of c' and s' (0.0005 unit each), of C times |c| or
#   |s| <= scale (0.0005 unit) and, each times |h| < 5e-4, of S, of the
#   product s S or c S and of h itself: at most 0.0011 unit.
#
# So E_(k+1) <= (1 + eps) E_k + 0.0011, and by induction a phase after k
# <= TURN_LIMIT turns is within 0.5 + k * TURN_ERROR units: (1 + eps)(0.5 +
# k TURN_ERROR) + 0.0011 <= 0.5 + (k + 1) TURN_ERROR while eps * 0.8 <= 0.0019.
# At TURN_LIMIT that is 0.8 unit, inside the one unit that _pair_term's
# cancellation test and error account allow, so a pair term takes turned
# phases as it takes direct ones.
TURN_GUARD_DIGITS = 3
TURN_ERROR = Decimal("0.003")
TURN_LIMIT = 100
# A step of at least this takes the direct kernel.
MAX_TURN_STEP = Decimal("1e-3")

# A sum in z (:func:`eval_with_derivative`) and its bound.  Horner runs
# y_k = y_(k+1) z~ + g_k on the stored z~ with one fma per real part, two
# per complex one: fl(y_r z_r + fl(g_r - y_i z_i)), fl(y_r z_i + fl(g_i +
# y_i z_r)).  A rounded v~ is within u |v~| of v, so r_k = y~_k - y_k obeys
# |r_k| <= |z~| |r_(k+1)| + u t_k, t_k the sum of the magnitudes of step
# k's rounded parts: |r_0| <= u mu, mu = sum_k |z~|^k t_k (Higham, *Accuracy
# and Stability of Numerical Algorithms*, Alg. 5.1 and 3.6).  The
# exponential sum of two runs adds u |value|.  A phase at d digits is
# within 0.8 units of 10**(1 - d - PHASE_GUARD_DIGITS); from it, (c + i s)^2
# is within 3.8 units of e^(ix), (c + |s|)^2 within 4.7 relative units of
# e^|x| and its reciprocal 5.2.  With u_z = 10 units, whose slack covers
# (1 + 5.2 units)^k, z~ moves the exact sum by at most u_z nu, nu = sum_k
# k |g_k| |z~|^k.  e = u mu + u_z nu, both sums run upward beside y.

_HALF = Decimal("0.5")
_MINUS_HALF = Decimal("-0.5")

# Running error bounds are sums of magnitudes.  They need a few digits
# only, and rounding every operation upward keeps each computed sum
# above its exact value.
_BOUND = Context(
    prec=4,
    rounding=ROUND_CEILING,
    Emin=MIN_EMIN,
    Emax=MAX_EMAX,
    traps=[InvalidOperation, DivisionByZero, Overflow],
)
_EXACT = Context(prec=MAX_PREC, Emin=MIN_EMIN, Emax=MAX_EMAX)  # sums and halves, exact


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
    """p'(x), or a factored form's sum p'(x)/p(x), rounded to zero where the
    Newton ratio needs it: p(x) != 0.  p'(x) itself need not be 0."""

    def __init__(self, x: Real):
        self.x = x
        super().__init__(f"derivative rounds to zero at x = {x} while the value is not zero")


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
    # (ctx, d) -> the odd part of the kernel: d, cot(d/2) or coth(d/2)
    odd: Callable[[Context, Decimal], Decimal]
    # t -> (c(t), s(t)) with c = s' and c' = sign * s for the half-angle
    # families, whose factors s((x - r)/2) have multiplicities summing to
    # 2n and m K(d) = m odd(d) / 2; None for algebraic, where m K(d) = m / d.
    pair: Callable[[Real], tuple[Real, Real]] | None = None
    sign: int = 0


def _odds(rule: _Rule, ctx: Context, a: Decimal, pa: Phase | None,
          bs: Sequence[Decimal], pbs: Sequence[Phase | None]) -> Iterable[Decimal]:
    # odd(a - b) for each point b, in order.  The algebraic odd part is d
    # itself, so its odds are the differences, a lazy map at C level, and a
    # zero one is a coincident point: the division that weighs it raises
    # DivisionByZero.  A half-angle row raises that once, before any term
    # runs, and takes its odd parts from the phases of a and b where a has
    # one (:func:`_pair_term`), else from the direct kernel.
    ds = map(ctx.subtract, repeat(a), bs)
    if rule.pair is None:
        return ds
    ds = list(ds)
    if not all(ds):
        raise DivisionByZero
    if pa is None:
        return list(map(rule.odd, repeat(ctx), ds))
    return list(map(_pair_term(rule, ctx), ds, repeat(a), bs, repeat(pa), pbs))


# The lambdas look the kernels up in this module at call time, so
# rebinding their names (as perfbench's tracer does) reaches every call.
_RULES = {
    Family.ALGEBRAIC: _Rule(lambda ctx, d: d),
    Family.TRIGONOMETRIC: _Rule(lambda ctx, d: cot(Real(ctx.divide(d, 2), ctx.prec)).dec,
                                lambda t: cos_sin(t), -1),
    Family.EXPONENTIAL: _Rule(lambda ctx, d: coth(Real(ctx.divide(d, 2), ctx.prec)).dec,
                              lambda t: cosh_sinh(t), 1),
}


class Phase(NamedTuple):
    """(c, s) at x/2, the phase of the point x, for sums at ``digits``
    digits only.

    A direct phase (:func:`phases`) is rounded to ``digits +
    PHASE_GUARD_DIGITS`` and has ``turns`` 0.  One reached by ``turns``
    turns (:func:`turned_phases`), or rounded down from a direct phase
    for more digits (:func:`root_phases` with ``known``), carries
    ``TURN_GUARD_DIGITS`` more digits, and ``turns`` is its error bound:
    c and s are within 0.5 + turns * TURN_ERROR units of 10**(1 - digits
    - PHASE_GUARD_DIGITS) times 1 (trig) or cosh at the half point
    (hyperbolic).
    """

    x: Decimal
    c: Decimal
    s: Decimal
    digits: int
    turns: int = 0


def phases(family: Family, points: Sequence[Real], digits: int) -> list[Phase | None]:
    """The phase of every point, for sums at ``digits`` digits.

    None for the algebraic family, which has no phases, and for a point
    whose kernel overflows.
    """
    pair = _RULES[family].pair
    if pair is None:
        return [None] * len(points)
    prec = digits + PHASE_GUARD_DIGITS
    ctx = _context(prec)
    out: list[Phase | None] = []
    for p in points:
        try:
            c, s = pair(Real(ctx.divide(p.dec, 2), prec))
        except Overflow:
            out.append(None)
        else:
            out.append(Phase(p.dec, c.dec, s.dec, digits))
    return out


def turned_phases(
    family: Family,
    known: Sequence[Phase | None] | None,
    new: Sequence[Real],
    digits: int,
    roots: Sequence[Phase | None] = (),
) -> list[Phase | None]:
    """The phases of the points ``new`` for sums at ``digits`` digits, each
    from the nearest point whose phase is known.

    Only a phase that serves ``digits`` is known: one in ``known`` or
    ``roots`` made for other digits counts as None.  A new point's anchor
    is the nearer of two phases: its entry in ``known`` (in a solve, the
    phase of its last position), and the phase in ``roots`` (a factored
    form's :func:`root_phases`) nearest to it; its own at equal distance,
    the upper root midway between two.  A point equal to its anchor's
    point keeps that phase object, so a point on a root keeps the root's.
    One less than ``MAX_TURN_STEP`` from it has the phase turned by the
    difference; one without an anchor, whose anchor has ``TURN_LIMIT``
    turns, or that lies further, takes :func:`phases`, as every point does
    where ``known`` is None and ``roots`` empty.  All None for the
    algebraic family.
    """
    rule = _RULES[family]
    if rule.pair is None:
        return [None] * len(new)
    w = _context(digits + PHASE_GUARD_DIGITS + TURN_GUARD_DIGITS)
    anchors = sorted((ph for ph in roots if ph is not None and ph.digits == digits),
                     key=attrgetter("x"))
    xs = [ph.x for ph in anchors]
    out = [ph if ph and ph.digits == digits else None for ph in known or [None] * len(new)]
    redo = []
    for i, (b, ph) in enumerate(zip([x.dec for x in new], out)):
        if xs:
            # the nearer of the roots on either side of b, if nearer than ph
            j = bisect_left(xs, b)
            if j == len(xs) or (j and w.subtract(b, xs[j - 1]) < w.subtract(xs[j], b)):
                j -= 1
            if ph is None or w.subtract(b, xs[j]).copy_abs() < w.subtract(b, ph.x).copy_abs():
                ph = anchors[j]
        if ph is None:
            redo.append(i)
            continue
        step = w.subtract(ph.x, b)
        if step.is_zero():
            out[i] = ph
        elif ph.turns >= TURN_LIMIT or step.copy_abs() >= MAX_TURN_STEP:
            redo.append(i)
        else:
            try:
                turn = _small_pair_series(w.multiply(step, _HALF), rule.sign < 0, w)
                out[i] = Phase(b, *_minus(w, rule.sign, ph.c, ph.s, *turn), digits, ph.turns + 1)
            except Overflow:
                redo.append(i)
    for i, ph in zip(redo, phases(family, [new[i] for i in redo], digits)):
        out[i] = ph
    return out


def _minus(w: Context, sign: int, c1: Decimal, s1: Decimal, c2: Decimal,
           s2: Decimal) -> tuple[Decimal, Decimal]:
    """The pair at t1 - t2 under w, from (c1, s1) at t1 and (c2, s2) at t2:
    c1 c2 - sign s1 s2 and s1 c2 - c1 s2.  With the mirror (c2, -s2) it adds."""
    ss = w.multiply(s1, s2)
    return (w.fma(c1, c2, ss if sign < 0 else ss.copy_negate()),
            w.fma(s1, c2, w.multiply(c1, s2).copy_negate()))


@lru_cache(maxsize=None)
def _pair_term(rule: _Rule, ctx: Context) -> Callable[..., Decimal]:
    """term(d, a, b, pa, pb) = cot or coth at u = d/2 rounded to ctx, for d =
    a - b rounded to ctx, within 0.5 + 1e-7 units: the quotient of the pair
    at u, rounded once to ctx.  The pair comes from the short series where
    |u| < 10**-(PHASE_GUARD_DIGITS // 2), else from the phases pa and pb of
    a and b.  Where neither serves, the term is ``rule.odd(ctx, d)``, the
    kernel at u.

    One term per (rule, ctx), which looks the kernels up at call time, as
    the ``_RULES`` lambdas do.  It runs in one frame: its angle
    subtraction and its move to u are :func:`_minus`'s operations in its
    order, written out."""
    odd, trig, prec = rule.odd, rule.sign < 0, ctx.prec
    half_guard = PHASE_GUARD_DIGITS // 2
    w = _context(prec + PHASE_GUARD_DIGITS)
    limit = -w.prec
    halve, divide = ctx.multiply, ctx.divide
    add, subtract, multiply, fma = w.add, w.subtract, w.multiply, w.fma

    def term(d: Decimal, a: Decimal, b: Decimal, pa: Phase, pb: Phase | None) -> Decimal:
        u = halve(d, _HALF)
        if u.adjusted() < -half_guard:
            # A near pair, whose phases would cancel more than half the
            # guard.  u is the kernel's own argument, and its pair from the
            # series is good to a few units at w.
            try:
                return divide(*_small_pair_series(u, trig, w))
            except (Overflow, DivisionByZero):  # |u| past the exponent range
                return odd(ctx, d)
        if pb is None or not pa.digits == pb.digits == prec:
            return odd(ctx, d)
        t = subtract(a, b)
        # The pair at t/2 moves to u by the first-order pair (1, -delta),
        # delta = u - t/2; the move is in doubt where the dropped (c, s)
        # delta^2 / 2 could reach 0.1 ulp.
        delta = fma(t, _MINUS_HALF, u)
        moved = not delta.is_zero()
        if moved and 2 * (delta.adjusted() + 1) > limit:
            return odd(ctx, d)
        try:
            ss = multiply(pa.s, pb.s)
            c = fma(pa.c, pb.c, ss if trig else ss.copy_negate())
            s = fma(pa.s, pb.c, multiply(pa.c, pb.s).copy_negate())
            if moved:  # _minus with (1, -delta): -(s (-delta)) is s delta, exactly
                sd = multiply(s, delta)
                c, s = subtract(c, sd) if trig else add(c, sd), add(s, multiply(c, delta))
        except Overflow:
            return odd(ctx, d)
        if c.is_zero() or s.is_zero():
            return odd(ctx, d)
        # The phases are good to a unit in their last digit on the scale
        # of C_a C_b, which is 1 for trig; c and s keep that error.  (Every
        # term runs these tests: conditionals cost less than min and max.)
        low = c.adjusted() if c.adjusted() < s.adjusted() else s.adjusted()
        top = 0 if trig else pa.c.adjusted() + pb.c.adjusted()
        if not trig and top - low >= half_guard:  # C_a C_b may have a digit more
            top = multiply(pa.c, pb.c).adjusted()
        if (top if top > 0 else 0) - low > half_guard:
            return odd(ctx, d)
        k = divide(c, s)
        # The rounding of t enters K scaled by |K| + 1/|K|: it must stay
        # within half the guard digits.
        scale = k.adjusted()
        if (scale + 1 if scale >= 0 else -scale) + t.adjusted() + 1 > half_guard:
            return odd(ctx, d)
        # +/-1 is where coth saturates: the direct kernel decides its
        # exponent, and past the far tail it runs no kernel.
        return odd(ctx, d) if k.copy_abs() == 1 else k

    return term


def mults_degree(family: Family, total: int) -> int | None:
    """Degree n of a ``family`` polynomial whose multiplicities sum to ``total``.

    Algebraic: n = total.  Half-angle families: the multiplicities sum to
    2n, so n = total/2, and an odd total fits no degree (None).
    """
    if _RULES[family].pair is None:
        return total
    return None if total % 2 else total // 2


def check_mults_fit(p: Polynomial, mults: Sequence[int]) -> None:
    """ValueError unless multiplicities ``mults`` fit p's degree."""
    if mults_degree(p.family, sum(mults)) != p.degree:
        raise ValueError(
            f"multiplicities sum to {sum(mults)}, which does not fit a "
            f"{p.family.value} polynomial of degree {p.degree}"
        )


def _log_derivative(
    rule: _Rule,
    ctx: Context,
    x: Decimal,
    phase: Phase | None,
    points: Sequence[Decimal],
    point_phases: Sequence[Phase | None],
    mults: Sequence[int],
) -> Decimal:
    # sum_j m_j K(x - p_j), with K the family's kernel, from the phases of x
    # and of the points, on their Decimals: one map and reduce over the
    # family's odds.  A point equal to x raises CoincidentPointError.
    weigh = ctx.divide if rule.pair is None else ctx.multiply
    try:
        total = reduce(ctx.add, map(weigh, mults, _odds(rule, ctx, x, phase, points,
                                                        point_phases)), 0)
    except DivisionByZero:
        if x not in points:
            raise
        raise CoincidentPointError(points.index(x)) from None
    return total if rule.pair is None else ctx.divide(total, 2)


def pairwise_log_derivatives(
    family: Family,
    points: Sequence[Real],
    point_phases: Sequence[Phase | None],
    mults: Sequence[int],
) -> list[Real]:
    """sum_j m_j K(p_i - p_j) over the points other than p_i, for every i,
    from the points' :func:`phases`: the sum of a factored form's Newton
    ratio (``_log_derivative``) with the other points as roots.

    K is odd, so each unordered pair {i, j} evaluates odd(p_i - p_j) once:
    it adds m_j K to sum i and subtracts m_i K from sum j.  Row i takes
    the odds of p_i against every later point, adds their terms to sum i
    and subtracts them from the later sums.  Every sum takes its terms in
    ascending order of the other index, as ``_log_derivative`` does.
    An algebraic or kernel term is odd bit for bit.  A phase term
    (:func:`_pair_term`) is odd before its rounding only to within one unit
    in the phases' last digit (its angle subtraction on the swapped phases):
    10**-PHASE_GUARD_DIGITS of a unit in the term's, times the cancellation
    the term allows, at most 10**(PHASE_GUARD_DIGITS // 2).  So the results
    equal the per-point sums bit for bit unless a term's quotient lies
    that close to a rounding tie.  A coincident pair raises
    :class:`CoincidentPointError` with ``at=i``.
    """
    rule = _RULES[family]
    ctx = _context(max(p.digits for p in points))
    weigh = ctx.divide if rule.pair is None else ctx.multiply
    decs = [p.dec for p in points]
    sums = [Decimal(0)] * len(decs)
    for i, (a, m) in enumerate(zip(decs, mults)):
        rest = i + 1
        try:
            odds = list(_odds(rule, ctx, a, point_phases[i], decs[rest:], point_phases[rest:]))
            sums[i] = reduce(ctx.add, map(weigh, mults[rest:], odds), sums[i])
        except DivisionByZero:
            if a not in decs[rest:]:
                raise
            raise CoincidentPointError(decs.index(a, rest), at=i) from None
        sums[rest:] = map(ctx.subtract, sums[rest:], map(weigh, repeat(m), odds))
    return [Real(t if rule.pair is None else ctx.divide(t, 2), ctx.prec) for t in sums]


class _Form:
    """A polynomial form, whose ``at`` gives it at a level."""

    def at(self, digits: int):
        """This form with every Real field, itself or in a tuple, rounded to
        ``digits``, cached per digits: the form a sweep at ``digits`` digits
        runs on, whose cached properties (``root_decs``, ``root_set``,
        ``z_runs``) are made once per level.  It is the form itself only
        where every such Real already carries ``digits``: a coefficient
        form's Horner run takes its context from the most digits it meets,
        so a view carries the level's digits even where no value moves.
        The view skips the constructor's checks, so roots that round to one
        value stay two factors."""
        view = self._levels.get(digits)
        if view is None:
            def rounded(v):
                return v.with_digits(digits) if isinstance(v, Real) else v

            values = {f.name: getattr(self, f.name) for f in fields(self)}
            view = self
            if any(isinstance(r, Real) and r.digits != digits
                   for v in values.values() for r in (v if isinstance(v, tuple) else (v,))):
                view = object.__new__(type(self))
                for name, v in values.items():
                    object.__setattr__(view, name, tuple(map(rounded, v))
                                       if isinstance(v, tuple) else rounded(v))
            self._levels[digits] = view
        return view

    @cached_property
    def _levels(self) -> dict:
        # digits -> the form at them (:meth:`at`)
        return {}


@dataclass(frozen=True)
class AlgebraicCoeffPoly(_Form):
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
class TrigExpCoeffPoly(_Form):
    """a0/2 + sum_k (a_k c(kx) + b_k s(kx)) with (c, s) = (cos, sin) or (cosh, sinh)."""

    family: Family
    a0: Real
    a: tuple[Real, ...]
    b: tuple[Real, ...]

    def __post_init__(self):
        if _RULES[self.family].pair is None:
            raise UnsupportedFamilyError(f"{self.family.value} has no (a0, a, b) coefficient form")
        if len(self.a) < 1 or len(self.a) != len(self.b):
            raise ValueError(f"{self.family.value} polynomial needs equal-length a, b with degree >= 1")
        if self.a[-1].is_zero() and self.b[-1].is_zero():
            raise ValueError("leading coefficients a_n, b_n must not both be zero")

    @property
    def degree(self) -> int:
        return len(self.a)

    @cached_property
    def z_runs(self) -> tuple[tuple[tuple[Decimal, ...], ...], ...]:
        """The exact g_k in z of :func:`eval_with_derivative`, highest first,
        with k |g_k| rounded upward: trig a0/2, a_k - i b_k as (Re, Im) in
        e^(ix); exponential a0/2, (a_k + b_k)/2 in e^x, 0, (a_k - b_k)/2 in e^-x."""
        half = _EXACT.multiply(self.a0.dec, _HALF)
        a, b = [v.dec for v in self.a], [v.dec for v in self.b]
        if _RULES[self.family].sign < 0:
            runs = [[(half, Decimal(0))] + [(ak, bk.copy_negate()) for ak, bk in zip(a, b)]]
        else:
            runs = [[(g,)] + [(_EXACT.multiply(op(ak, bk), _HALF),) for ak, bk in zip(a, b)]
                    for g, op in ((half, _EXACT.add), (Decimal(0), _EXACT.subtract))]
        return tuple(tuple((*g, _BOUND.multiply(k, reduce(_BOUND.add, map(Decimal.copy_abs, g))))
                           for k, g in reversed(list(enumerate(run)))) for run in runs)


@dataclass(frozen=True)
class FactoredPoly(_Form):
    """Product of family factors with known roots and multiplicities."""

    family: Family
    roots: tuple[Real, ...]
    mults: tuple[int, ...]

    def __post_init__(self):
        if len(self.roots) < 1 or len(self.roots) != len(self.mults):
            raise ValueError("factored polynomial needs matching roots and multiplicities")
        if any(m < 1 for m in self.mults):
            raise ValueError("multiplicities must be positive integers")
        pair = first_equal_pair(self.roots)
        if pair is not None:
            raise DuplicateRootError(self.roots[pair[0]], *pair)
        if mults_degree(self.family, sum(self.mults)) is None:
            raise ValueError(
                "trigonometric/exponential multiplicities must sum to an even number 2n"
            )

    @property
    def degree(self) -> int:
        return mults_degree(self.family, sum(self.mults))

    @cached_property
    def root_decs(self) -> tuple[Decimal, ...]:
        """The roots' Decimals, which every Newton ratio's sum runs on."""
        return tuple(r.dec for r in self.roots)

    @cached_property
    def root_set(self) -> frozenset[Decimal]:
        """The roots' Decimals as a set: a Newton ratio finds x on a root in O(1)."""
        return frozenset(self.root_decs)


Polynomial = Union[AlgebraicCoeffPoly, TrigExpCoeffPoly, FactoredPoly]


def family_of(p: Polynomial) -> Family:
    family = getattr(p, "family", None)
    if not isinstance(family, Family):
        raise UnsupportedFamilyError(f"not a polynomial: {type(p).__name__}")
    return family


def eval_with_derivative(
    p: AlgebraicCoeffPoly | TrigExpCoeffPoly, x: Real, phase: Phase | None = None
) -> tuple[Real, Real, Real]:
    """(p(x), p'(x), e) for a coefficient form, with e a bound on the
    rounding error of the computed p(x).

    p(x) is the form's exact value at its stored coefficients and x.  A
    trigonometric or exponential form runs in z = e^(ix) or e^x
    (:attr:`TrigExpCoeffPoly.z_runs`) from x's :func:`phases` entry, or from
    the kernel where that is None or serves other digits (``Overflow`` if
    it overflows).  A direct and a turned phase may give values within e.

    e is Higham's running bound at the working unit roundoff u: 2u * mu,
    mu_k = |x| mu_(k-1) + |y_k| over the computed y_k; in z, see the
    comment on sums in z.  p'(x) has no bound.
    """
    if isinstance(p, AlgebraicCoeffPoly):
        ctx = _context(max(x.digits, *(a.digits for a in p.coeffs)))
        size = _BOUND.plus(x.dec.copy_abs())
        value, derivative, mu = Decimal(1), Decimal(0), _HALF
        for a in p.coeffs:
            derivative = ctx.add(ctx.multiply(derivative, x.dec), value)
            value = ctx.add(ctx.multiply(value, x.dec), a.dec)
            mu = _BOUND.fma(size, mu, value.copy_abs())
        bound = _BOUND.scaleb(mu, 1 - ctx.prec)  # 2u * mu, u = 10^(1 - prec) / 2
    elif isinstance(p, TrigExpCoeffPoly):
        ctx = _context(max(x.digits, p.a0.digits, *(c.digits for c in p.a + p.b)))
        if phase is None or phase.digits != x.digits:
            (phase,) = phases(p.family, [x], x.digits)
            if phase is None:
                raise Overflow(f"the phase of {x} overflows the decimal exponent range")
        w = _context(x.digits + PHASE_GUARD_DIGITS)
        u_z, c, s = _BOUND.scaleb(10, 1 - w.prec), phase.c, phase.s
        if _RULES[p.family].sign < 0:
            zr, zi = _minus(w, -1, c, s, c, s.copy_negate())
            value, (dr, di), mu, nu = _complex_run(ctx, zr, zi, _BOUND.add(1, u_z), p.z_runs[0])
            derivative = ctx.fma(zr, di, ctx.multiply(zi, dr)).copy_negate()  # Re(i z P'(z))
        else:
            big = w.multiply(t := w.add(c, s.copy_abs()), t)  # e^|x| = (c + |s|)^2
            z, zinv = (w.divide(1, big), big) if s.is_signed() else (big, w.divide(1, big))
            up, d_up, mu, nu = _real_run(ctx, z, p.z_runs[0])
            down, d_down, mu_down, nu_down = _real_run(ctx, zinv, p.z_runs[1])
            value = ctx.add(up, down)
            derivative = ctx.fma(z, d_up, ctx.multiply(zinv, d_down).copy_negate())
            mu, nu = _BOUND.add(_BOUND.add(mu, mu_down), value.copy_abs()), _BOUND.add(nu, nu_down)
        bound = _BOUND.fma(nu, u_z, _BOUND.scaleb(_BOUND.multiply(mu, _HALF), 1 - ctx.prec))
    else:
        raise UnsupportedFamilyError(f"not a coefficient form: {type(p).__name__}")
    return Real(value, ctx.prec), Real(derivative, ctx.prec), Real(bound, ctx.prec)


def _real_run(ctx: Context, z: Decimal, run: Sequence[tuple[Decimal, ...]]) -> tuple[Decimal, ...]:
    # (P(z), P'(z), mu, nu) on a run of (g_k, k |g_k|)
    fma, bound, size = ctx.fma, _BOUND.fma, _BOUND.plus(z)
    (y, nu), *rest = run
    d = mu = Decimal(0)
    for g, weight in rest:
        d, y = fma(d, z, y), fma(y, z, g)
        mu, nu = bound(size, mu, y.copy_abs()), bound(size, nu, weight)
    return y, d, mu, nu


def _complex_run(ctx: Context, zr: Decimal, zi: Decimal, size: Decimal, run: Sequence) -> tuple:
    # (Re P(z), P'(z), mu, nu) on a run of (Re g_k, Im g_k, k |g_k|), |z| <= size
    fma, bound, add, nzi = ctx.fma, _BOUND.fma, _BOUND.add, zi.copy_negate()
    (yr, yi, nu), *rest = run
    dr = di = mu = Decimal(0)
    for gr, gi, weight in rest:
        dr, di = fma(dr, zr, fma(di, nzi, yr)), fma(dr, zi, fma(di, zr, yi))
        inner_r, inner_i = fma(yi, nzi, gr), fma(yi, zr, gi)
        yr, yi = fma(yr, zr, inner_r), fma(yr, zi, inner_i)
        mu = bound(size, mu, reduce(add, map(Decimal.copy_abs, (inner_r, inner_i, yr, yi))))
        nu = bound(size, nu, weight)
    return yr, (dr, di), mu, nu


def root_phases(p: Polynomial, digits: int,
                known: Sequence[Phase | None] = ()) -> list[Phase | None]:
    """The :func:`phases` of the roots of ``p.at(digits)``, for the Newton
    ratios of estimates that carry ``digits`` digits; [] for coefficient
    forms and for the algebraic family, which has no phases.  They are the
    ``roots`` of :func:`turned_phases`: an estimate's phase may turn from
    its nearest root's, and an estimate on a root takes the root's phase
    as it is.

    Without ``known`` they come from the kernel.  ``known`` is p's
    root_phases at more digits, so that a solve runs the kernel for its
    roots once: each is rounded to ``TURN_GUARD_DIGITS`` more digits than
    a direct phase at ``digits``, within 0.051 units (a tenth of the
    direct phase's half unit, at least, and the rounding), so with
    ``turns`` 0, and a root that rounding to ``digits`` moved has that
    phase turned by the move."""
    if not isinstance(p, FactoredPoly) or _RULES[p.family].pair is None:
        return []
    w = _context(digits + PHASE_GUARD_DIGITS + TURN_GUARD_DIGITS)
    rounded = [None if ph is None else Phase(ph.x, w.plus(ph.c), w.plus(ph.s), digits)
               for ph in known]
    return turned_phases(p.family, rounded, p.at(digits).roots, digits)


def newton_ratio(
    p: Polynomial, x: Real, phase: Phase | None, roots: Sequence[Phase | None]
) -> tuple[Real | None, bool]:
    """(p(x)/p'(x), at_floor) from x's :func:`phases` and the :func:`root_phases` of p.

    The ratio is zero at an exact root, even a multiple one.  A factored
    form finds x on a root in ``FactoredPoly.root_set`` and runs no term
    there; elsewhere it takes the reciprocal of its logarithmic derivative.  A
    coefficient form evaluates p and p' by :func:`eval_with_derivative`
    with x's phase, on its coefficients rounded to x's digits (its ``at``
    view); ``phase`` is None for the algebraic family.  ``at_floor`` says
    that |p(x)| lies within the bound of :func:`eval_with_derivative`, so
    the value may be rounding noise; it is always False for a factored
    form.  Where p'(x) rounds to zero at the floor the ratio is None; off
    the floor that raises :class:`DerivativeZeroError`.
    """
    if isinstance(p, FactoredPoly):
        p = p.at(x.digits)
        if x.dec in p.root_set:
            return zero(x.digits), False
        ctx = _context(x.digits)
        total = _log_derivative(_RULES[p.family], ctx, x.dec, phase, p.root_decs, roots, p.mults)
        if total.is_zero():
            raise DerivativeZeroError(x)
        return Real(ctx.divide(1, total), ctx.prec), False
    value, derivative, bound = eval_with_derivative(p.at(x.digits), x, phase)
    at_floor = value.dec.copy_abs() <= bound.dec
    if value.is_zero():
        return zero(x.digits), at_floor
    if derivative.is_zero():
        if at_floor:
            return None, True
        raise DerivativeZeroError(x)
    return value / derivative, at_floor


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
