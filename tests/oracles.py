"""Independent reference computations used by the tests.

Everything here is rational arithmetic on ``fractions.Fraction``: exact
Taylor series with enough terms for the requested precision, series
rounded to a fixed fine grid for large arguments and high precision, and
an exact-rational replay of the algebraic iteration.  None of it touches
the package's decimal machinery, so these values are genuinely
independent of the code under test.

The exceptions are the sections on the ``polys`` loops and on the
solver's update: the inner loops of ``polys``, and one sweep of
``solve``, written as chains of ``Real`` operations, one operation per
step, with the distances a solve turns its phases by, read off its
trace.  The package runs the same operations on ``Decimal``, so the
tests hold the two equal bit for bit.  The ``polys`` section also holds
the product rule on ``Real``, a reference value and derivative of a
factored form, which the package never evaluates.  The last section
expands planted roots into coefficient forms, again in Fractions.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt
from operator import mul, truediv

from simulroot.numeric import (
    check_phase,
    cos_sin,
    cosh_sinh,
    cot,
    coth,
    make_real,
    one,
    ten_power,
    zero,
)
from simulroot.polys import FactoredPoly, Family, family_of, newton_ratio, phases, root_phases
from simulroot.solver import CollisionError, EstimateVector, StepFailure, correction_sum


def frac_sin(x: Fraction, digits: int = 80) -> Fraction:
    limit = Fraction(1, 10 ** (digits + 5))
    term = x
    total = x
    i = 1
    x2 = x * x
    while abs(term) > limit:
        term = -term * x2 / ((2 * i) * (2 * i + 1))
        total += term
        i += 1
    return total


def frac_cos(x: Fraction, digits: int = 80) -> Fraction:
    limit = Fraction(1, 10 ** (digits + 5))
    term = Fraction(1)
    total = Fraction(1)
    i = 1
    x2 = x * x
    while abs(term) > limit:
        term = -term * x2 / ((2 * i - 1) * (2 * i))
        total += term
        i += 1
    return total


def frac_sinh(x: Fraction, digits: int = 80) -> Fraction:
    limit = Fraction(1, 10 ** (digits + 5))
    term = x
    total = x
    i = 1
    x2 = x * x
    while abs(term) > limit:
        term = term * x2 / ((2 * i) * (2 * i + 1))
        total += term
        i += 1
    return total


def frac_cosh(x: Fraction, digits: int = 80) -> Fraction:
    limit = Fraction(1, 10 ** (digits + 5))
    term = Fraction(1)
    total = Fraction(1)
    i = 1
    x2 = x * x
    while abs(term) > limit:
        term = term * x2 / ((2 * i - 1) * (2 * i))
        total += term
        i += 1
    return total


def round_to_grid(x: Fraction, places: int) -> Fraction:
    """Round to the nearest multiple of 10^-places (ties upward)."""
    scale = 10 ** places
    scaled = x * scale
    whole = scaled.numerator // scaled.denominator
    if 2 * (scaled - whole) >= 1:
        whole += 1
    return Fraction(whole, scale)


def frac_to_str(x: Fraction, places: int) -> str:
    """Fixed-point decimal string with ``places`` digits after the point."""
    sign = "-" if x < 0 else ""
    scaled = round_to_grid(abs(x), places)
    units = scaled.numerator * 10 ** places // scaled.denominator
    text = str(units).rjust(places + 1, "0")
    return f"{sign}{text[:-places]}.{text[-places:]}" if places else sign + text


# -- exact replay of the algebraic iteration ---------------------------


def algebraic_newton_ratio(roots, mults, x: Fraction) -> Fraction:
    if x in roots:  # p(x)/p'(x) is 0 on a root, even a multiple one
        return Fraction(0)
    log_derivative = sum(Fraction(m) / (x - r) for m, r in zip(mults, roots))
    return 1 / log_derivative


def algebraic_chebyshev_step(roots, mults, estimates):
    out = []
    for i, xi in enumerate(estimates):
        ratio = algebraic_newton_ratio(roots, mults, xi)
        correction = sum(
            Fraction(mults[j]) / (xi - estimates[j])
            for j in range(len(estimates))
            if j != i
        )
        out.append(xi - mults[i] * ratio * (1 + ratio * correction))
    return out


def algebraic_newton_step(roots, mults, estimates):
    return [
        xi - mults[i] * algebraic_newton_ratio(roots, mults, xi)
        for i, xi in enumerate(estimates)
    ]


def algebraic_chebyshev_run(roots, mults, init, iterations, places: int | None = None):
    """All iterates of the exact rational run, including the start.

    With ``places``, each iterate is rounded to a 10^-places grid before
    the next step, which keeps the rationals small where the exact run's
    denominators would grow without bound (many roots, many sweeps).
    """
    snapshots = [list(init)]
    for _ in range(iterations):
        step = algebraic_chebyshev_step(roots, mults, snapshots[-1])
        snapshots.append(step if places is None else [round_to_grid(x, places) for x in step])
    return snapshots


# -- fixed-grid series: large arguments at high precision --------------


def grid_sin_cos(x: Fraction, places: int, sign: int = -1) -> tuple[Fraction, Fraction]:
    """(sin x, cos x), or (sinh x, cosh x) with ``sign=1``, on a 10^-places grid.

    Taylor series with x, x^2 and every term rounded to the grid as
    :func:`round_to_grid` does, so the values stay bounded integers
    where the exact series of :func:`frac_sin` grows its denominators
    without bound.  The absolute error is about (number of terms) *
    10^-places, relative to the largest term.
    """
    scale = 10 ** places

    def rnd(n: int, d: int) -> int:
        # n/d to the nearest integer, ties upward (as round_to_grid)
        return (2 * n + d) // (2 * d)

    xs = rnd(x.numerator * scale, x.denominator)
    x2 = rnd(xs * xs, scale)
    s_term = s_total = xs
    c_term = c_total = scale
    i = 1
    while s_term or c_term:
        s_term = rnd(rnd(sign * s_term * x2, scale), (2 * i) * (2 * i + 1))
        s_total += s_term
        c_term = rnd(rnd(sign * c_term * x2, scale), (2 * i - 1) * (2 * i))
        c_total += c_term
        i += 1
    return Fraction(s_total, scale), Fraction(c_total, scale)


def frac_cot(x: Fraction, digits: int = 80) -> Fraction:
    """cot x to ``digits`` significant digits, for any nonzero x (:func:`_grid_cot`)."""
    return _grid_cot(x, digits, -1)


def frac_coth(x: Fraction, digits: int = 80) -> Fraction:
    """coth x to ``digits`` significant digits, for any nonzero x (:func:`_grid_cot`)."""
    return _grid_cot(x, digits, 1)


def _grid_cot(x: Fraction, digits: int, sign: int) -> Fraction:
    """c / s for a pair (s, c) on a grid, within a relative 10^-digits of
    cot x (sign -1) or coth x (sign 1).

    A trig x past 3 is first reduced by the nearest multiple of 2 pi, to r;
    elsewhere r = x.  Both functions are odd, so the pair runs at |r|.  At
    y = |r| / 2^k < 2^-10, s is the Taylor series of sin y or sinh y on a
    10^-(places + k) grid and c = sqrt(1 + sign s^2); k doublings (s, c) ->
    (2 s c, c^2 + sign s^2) take the pair back to |r|, in far fewer terms
    than the series at |r|.  Every grid operation is within one unit.  A
    trig doubling at most triples the pair's absolute error, and a
    hyperbolic one doubles its relative error, so s and c are within 10^k
    (terms + 2) units, or a relative 2^k 10^-(places + k) 2^11 (terms + 2).
    Where the smaller of s and c is not 10^(digits + 4) times that bound,
    the grid is made finer and the pair rerun.
    """
    if not x:
        raise ZeroDivisionError("cot 0")
    places = digits + 10
    while True:
        r = reduce_two_pi(x, places + 2) if sign < 0 and abs(x) > 3 else x
        n, d = abs(r.numerator), r.denominator
        k = (n * 1024 // d).bit_length()
        scale = 10 ** (places + k)
        term = s = n * scale // (d << k)
        y2, i = s * s // scale, 1
        while term:
            term = sign * term * y2 // scale // ((2 * i) * (2 * i + 1))
            s, i = s + term, i + 1
        c = isqrt(scale * scale + sign * s * s)
        for _ in range(k):
            s, c = 2 * s * c // scale, (c * c + sign * s * s) // scale
        short = digits + k + 5 - len(str(min(abs(s), abs(c))))
        if short <= 0:
            return Fraction(c, s) if r > 0 else Fraction(-c, s)
        places += short + 5


def grid_pi(places: int) -> Fraction:
    """pi to about 10^-places by Gauss's formula
    pi = 48 atan(1/18) + 32 atan(1/57) - 20 atan(1/239), in integer fixed
    point (a different formula from the package's Machin series)."""
    scale = 10 ** (places + 5)

    def atan_inverse(k: int) -> int:
        total, power, i = 0, scale // k, 0
        while power:
            term = power // (2 * i + 1)
            total += -term if i % 2 else term
            power //= k * k
            i += 1
        return total

    return Fraction(48 * atan_inverse(18) + 32 * atan_inverse(57) - 20 * atan_inverse(239), scale)


def reduce_two_pi(x: Fraction, places: int) -> Fraction:
    """x minus the nearest multiple of 2*pi, to about 10^-places."""
    magnitude = len(str(abs(x.numerator) // x.denominator))
    two_pi = 2 * grid_pi(places + magnitude + 2)
    return x - round(x / two_pi) * two_pi


# -- half-angle sine iteration replay at fixed grid precision ----------


def trig_chebyshev_run(roots, mults, init, iterations, places: int = 50):
    """Replay the trigonometric iteration with rational grid arithmetic.

    Iterates are rounded to a 10^-places grid between steps, a different
    rounding discipline from the package's decimal contexts, which keeps
    this an independent cross-check down to ~10^-(places-3).
    """
    work = places + 15

    def half_cot(u: Fraction) -> Fraction:
        s, c = grid_sin_cos(u, work)
        return round_to_grid(c / s, work)

    snapshots = [list(init)]
    current = list(init)
    for _ in range(iterations):
        nxt = []
        for i, xi in enumerate(current):
            if xi in roots:  # the Newton ratio is 0 on a root
                nxt.append(xi)
                continue
            log_derivative = sum(
                Fraction(m) / 2 * half_cot((xi - r) / 2) for m, r in zip(mults, roots)
            )
            ratio = round_to_grid(1 / log_derivative, work)
            correction = sum(
                Fraction(mults[j]) / 2 * half_cot((xi - current[j]) / 2)
                for j in range(len(current))
                if j != i
            )
            value = xi - mults[i] * ratio * (1 + round_to_grid(ratio * correction, work))
            nxt.append(round_to_grid(value, places))
        current = nxt
        snapshots.append(current)
    return snapshots


# -- the polys loops on Real arithmetic --------------------------------

# family -> (odd part of the kernel, m * K before halving, (c, s) pair, c' = sign * s)
_REAL_RULES = {
    "algebraic": (lambda d: d, truediv, None, 0),
    "trigonometric": (lambda d: cot(d / 2), mul, cos_sin, -1),
    "exponential": (lambda d: coth(d / 2), mul, cosh_sinh, 1),
}


def real_log_derivative(family, x, points, mults):
    """sum_j m_j K(x - p_j); a coincident point raises ZeroDivisionError."""
    odd, weigh, _, _ = _REAL_RULES[family]
    total = zero(x.digits)
    for p, m in zip(points, mults):
        d = x - p
        if d.is_zero():
            raise ZeroDivisionError("x coincides with a point")
        total = total + weigh(m, odd(d))
    return total if family == "algebraic" else total / 2


def real_pairwise_log_derivatives(family, points, mults):
    odd, weigh, _, _ = _REAL_RULES[family]
    sums = [zero(p.digits) for p in points]
    for i, (p, m) in enumerate(zip(points, mults)):
        for j in range(i + 1, len(points)):
            k = odd(p - points[j])
            sums[i] = sums[i] + weigh(mults[j], k)
            sums[j] = sums[j] - weigh(m, k)
    return sums if family == "algebraic" else [total / 2 for total in sums]


def real_eval_factored(p, x):
    """(p(x), p'(x)) of a factored form by one pass of the product rule:
    (v, d) <- (v h, d h + v h') with h = g^m for each factor g."""
    _, _, pair, _ = _REAL_RULES[p.family]
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


def real_horner(coeffs, x):
    """(p(x), p'(x)) of the monic x^n + a_1 x^(n-1) + ... + a_n."""
    value, derivative = one(x.digits), zero(x.digits)
    for a in coeffs:
        derivative = derivative * x + value
        value = value * x + a
    return value, derivative


def real_trig_exp_sum(family, a0, a, b, x):
    """(p(x), p'(x)) of a0/2 + sum_k (a_k c(kx) + b_k s(kx))."""
    _, _, pair, sign = _REAL_RULES[family]
    value, derivative = a0 / 2, zero(x.digits)
    for k, (ak, bk) in enumerate(zip(a, b), start=1):
        c, s = pair(k * x)
        value = value + ak * c + bk * s
        derivative = derivative + k * (bk * c + sign * ak * s)
    return value, derivative


# -- one sweep of the solver's update on Real arithmetic ---------------


def real_sweep(p, estimates, profile, chebyshev, tolerance):
    """The first sweep of ``solve`` from ``estimates``, its update written
    as Real expressions: (new estimates, step sizes, frozen roots).

    The Newton ratios and the corrections come from the package's kernels
    (``newton_ratio`` and ``correction_sum``), which the sections above
    check; a step that fails raises ``StepFailure`` as the sweep does.
    It keeps the rule that every root takes its ratio, its correction
    from one full pass and its update, even where its estimate already
    sits on a root, which ``solve`` skips.
    """
    family = family_of(p)
    roots = root_phases(p, estimates.digits)
    own = phases(family, estimates.x, estimates.digits) if roots else [None] * estimates.m
    new = list(estimates.x)
    froze = set()
    corrections = None
    for i, (xi, mult) in enumerate(zip(estimates.x, profile.mults)):
        try:
            ratio, at_floor = newton_ratio(p, xi, own[i], roots)
            if ratio is None:
                froze.add(i)
                continue
            if chebyshev:
                corrections = corrections or correction_sum(family, estimates, profile, own)
                bracket = 1 + ratio * corrections[i]
            else:
                bracket = 1
            xn = xi - mult * ratio * bracket
            if at_floor and not abs(xn - xi) <= tolerance:
                froze.add(i)
                continue
            if family is Family.TRIGONOMETRIC:
                check_phase(xn, "the new estimate")
            new[i] = xn
        except ArithmeticError as exc:
            raise StepFailure(i, exc) from exc
    try:
        nxt = EstimateVector(tuple(new), estimates.k + 1)
    except CollisionError as exc:
        raise StepFailure(exc.indices[0], exc) from exc
    return nxt, tuple(abs(a - b) for a, b in zip(nxt.x, estimates.x)), frozenset(froze)


def exact_iteration(poly, profile, init, sweeps, digits):
    """The iterates of a factored form's iteration from ``init``, as
    Fractions, at 2 * digits + 20: Fractions on a grid (algebraic), the
    grid replay (trigonometric) and a chain of :func:`real_sweep` calls
    (exponential)."""
    places = 2 * digits + 20
    roots = [Fraction(r.dec) for r in poly.roots]
    start = [Fraction(x.dec) for x in init.x]
    if poly.family is Family.ALGEBRAIC:
        return algebraic_chebyshev_run(roots, profile.mults, start, sweeps, places)
    if poly.family is Family.TRIGONOMETRIC:
        return trig_chebyshev_run(roots, profile.mults, start, sweeps, places)
    fine = FactoredPoly(poly.family, tuple(make_real(str(r.dec), places) for r in poly.roots),
                        poly.mults)
    vec = EstimateVector(tuple(make_real(str(x.dec), places) for x in init.x))
    rows = [start]
    for _ in range(sweeps):
        vec, _, _ = real_sweep(fine, vec, profile, True, ten_power(6 - places, places))
        rows.append([Fraction(x.dec) for x in vec.x])
    return rows


def known_phase_gaps(p, snapshots, sweeps):
    """For each of a factored solve's first ``sweeps`` sweeps, each
    estimate's distance to the nearest point whose phase the sweep knows:
    a root of p at the sweep's level (the digits of the snapshot it makes),
    or from sweep 2 on the estimate's last position too, where the sweep
    before ran at the same level (a climb restarts the phases from the
    roots).  A sweep turns a phase by that distance, keeps it where it is
    0 and runs the phase kernel where it is MAX_TURN_STEP or more (while no
    root's phase overflows)."""
    gaps = []
    for sweep in range(sweeps):
        level = snapshots[sweep + 1].digits
        now = [x.with_digits(level).dec for x in snapshots[sweep].x]
        row = [min(abs(x - r.dec) for r in p.at(level).roots) for x in now]
        if sweep and snapshots[sweep].digits == level:
            last = [x.with_digits(level).dec for x in snapshots[sweep - 1].x]
            row = [min(gap, abs(x - y)) for gap, x, y in zip(row, now, last)]
        gaps.append(row)
    return gaps


# -- coefficient forms from planted roots -------------------------------


def _complex_mul(p, q):
    return (p[0] * q[0] - p[1] * q[1], p[0] * q[1] + p[1] * q[0])


def _complex_add(p, q):
    return (p[0] + q[0], p[1] + q[1])


def _laurent_product(factors, one, mul, add):
    """Product of Laurent polynomials, each a dict exponent -> coefficient."""
    out = {0: one}
    for factor in factors:
        nxt = {}
        for e, c in out.items():
            for f, d in factor.items():
                term = mul(c, d)
                nxt[e + f] = add(nxt[e + f], term) if e + f in nxt else term
        out = nxt
    return out


def planted_coefficients(family, roots, mults, places: int):
    """Coefficients of prod (x - r)^m, or of prod s((x - r)/2)^m with s = sin
    or sinh, as fixed-point decimal strings with ``places`` digits after the
    point: ``[a_1..a_n]`` (monic algebraic) or ``(a0, [a_k], [b_k])``.

    A half-angle factor is a Laurent polynomial in z = e^(ix/2) (trig, with
    complex coefficients as (re, im) pairs of Fractions) or y = e^(x/2)
    (exp), and the z^(2k) or y^(2k) coefficient c_k of the product gives
    a_0 = 2 c_0 and a_k, b_k.  The sines and cosines of r/2 come from the
    Fraction series, rounded to a grid 20 digits finer than ``places``.
    """
    roots = [Fraction(r) for r in roots]
    expand = [r for r, m in zip(roots, mults) for _ in range(m)]
    if family == "algebraic":
        c = _laurent_product([{1: 1, 0: -r} for r in expand], 1, mul, lambda p, q: p + q)
        n = len(expand)
        return [frac_to_str(c[n - k], places) for k in range(1, n + 1)]
    grid = places + 20
    n = len(expand) // 2
    if family == "exponential":
        # sinh((x - r)/2) = (e^(-r/2) y - e^(r/2) / y) / 2
        factors = []
        for r in expand:
            ch = round_to_grid(frac_cosh(r / 2, grid), grid)
            sh = round_to_grid(frac_sinh(r / 2, grid), grid)
            factors.append({1: (ch - sh) / 2, -1: -(ch + sh) / 2})
        c = _laurent_product(factors, 1, mul, lambda p, q: p + q)
        a0 = 2 * c[0]
        a = [c[2 * k] + c[-2 * k] for k in range(1, n + 1)]
        b = [c[2 * k] - c[-2 * k] for k in range(1, n + 1)]
    else:
        # sin((x - r)/2) = (conj(w) z - w / z) / (2i) with w = e^(ir/2)
        factors = []
        for r in expand:
            co = round_to_grid(frac_cos(r / 2, grid), grid)
            si = round_to_grid(frac_sin(r / 2, grid), grid)
            factors.append({1: (-si / 2, -co / 2), -1: (-si / 2, co / 2)})
        c = _laurent_product(factors, (1, 0), _complex_mul, _complex_add)
        # c_-k = conj(c_k), so a_k = 2 Re c_k and b_k = -2 Im c_k
        a0 = 2 * c[0][0]
        a = [2 * c[2 * k][0] for k in range(1, n + 1)]
        b = [-2 * c[2 * k][1] for k in range(1, n + 1)]
    return frac_to_str(a0, places), [frac_to_str(v, places) for v in a], [
        frac_to_str(v, places) for v in b
    ]
