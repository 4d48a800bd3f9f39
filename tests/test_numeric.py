import random
from decimal import MAX_PREC, Context, Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simulroot.numeric import (
    DEFAULT_GUARD_DIGITS,
    ParseError,
    PoleError,
    Real,
    cos,
    cos_sin,
    cosh,
    cosh_sinh,
    cot,
    coth,
    format_fixed,
    ln,
    make_real,
    pi,
    sin,
    sinh,
    ten_power,
)
from simulroot import numeric
from simulroot.numeric import _context, _cosh_sinh_decimal
from oracles import (
    frac_cos,
    frac_cosh,
    frac_cot,
    frac_coth,
    frac_sin,
    frac_sinh,
    grid_sin_cos,
    reduce_two_pi,
    round_to_grid,
)

PI_80 = "3.1415926535897932384626433832795028841971693993751058209749445923078164062862"


def as_fraction(x: Real) -> Fraction:
    return Fraction(x.dec)


def test_make_real_zero_and_small_integers():
    assert make_real("0") == 0
    assert make_real("-3") == -3
    assert make_real("-3").dec == Decimal("-3")


def test_make_real_tenth_matches_exact_rational():
    x = make_real("0.1")
    assert abs(as_fraction(x) - Fraction(1, 10)) <= Fraction(1, 10) * Fraction(1, 10**64)


def test_make_real_rounds_to_requested_digits():
    long = "1." + "7" * 80
    x = make_real(long, 32)
    assert len(x.dec.as_tuple().digits) <= 32


@pytest.mark.parametrize(
    "text,position",
    [("1.2.3", 3), ("", 0), ("abc", 0), ("--3", 0), ("1e", 1), ("3,5", 1)],
)
def test_make_real_rejects_malformed_numerals(text, position):
    with pytest.raises(ParseError) as excinfo:
        make_real(text)
    assert excinfo.value.position == position


@pytest.mark.parametrize(
    "text",
    [
        # exponents that no Decimal holds
        "1e999999999999999999999", "1e1000000000000000000", "1e-2000000000000000000",
        # a numeral that rounds up past the largest exponent
        "9." + "9" * 70 + "e999999999999999999",
        # nonzero numerals that round to 0 below the smallest subnormal
        "1e-1000000000000000070", "-1e-1000000000000000070",
    ],
)
def test_make_real_rejects_a_magnitude_out_of_range(text):
    with pytest.raises(ParseError, match="magnitude out of range") as excinfo:
        make_real(text)
    assert excinfo.value.position == len(text)


def test_digits_below_the_floor_are_rejected():
    with pytest.raises(ValueError, match="digits must be >= 30, got 29"):
        make_real("1", 29)
    with pytest.raises(ValueError, match="digits must be >= 30, got 0"):
        make_real("1", 0)


def test_digits_above_the_ceiling_are_rejected():
    # A kernel's context adds guard digits, Ziv reruns as many again and
    # the reduction the digits before the point: all within MAX_PREC.
    assert 3 * numeric.MAX_DIGITS + 100 <= MAX_PREC
    assert Real(Decimal(1), numeric.MAX_DIGITS).digits == numeric.MAX_DIGITS
    for digits in (numeric.MAX_DIGITS + 1, MAX_PREC + 1, 2**63, 10**21):
        with pytest.raises(ValueError) as excinfo:
            make_real("1", digits)
        assert str(excinfo.value) == f"digits must be <= {numeric.MAX_DIGITS}, got {digits}"


def test_string_round_trip_is_identity_within_precision():
    for text in ["-3", "0.1", "2.5", "1.025215703994304140", "-0.000123", "1E-58"]:
        assert str(make_real(text)) == text


def test_arithmetic_uses_max_precision():
    a = make_real("0.1")
    b = make_real("0.2", 96)
    assert (a + b).digits == 96
    assert (a * b).digits == 96
    assert (3 * a).digits == a.digits


def test_floats_are_rejected():
    with pytest.raises(TypeError):
        make_real("1") + 0.5


def test_division_by_zero_raises():
    with pytest.raises(ZeroDivisionError):
        make_real("1") / make_real("0")


def test_integer_powers():
    assert make_real("0.5") ** 9 == make_real("0.001953125")
    assert make_real("2") ** 0 == 1
    assert make_real("2") ** -2 == make_real("0.25")


def test_sin_zero_is_exact_zero():
    assert sin(make_real("0")).is_zero()


def test_cosh_zero_is_one():
    assert cosh(make_real("0")) == 1


def test_sinh_one_matches_series_oracle():
    mine = sinh(make_real("1"))
    assert str(mine).startswith("1.1752011936438014568")
    oracle = frac_sinh(Fraction(1), digits=80)
    assert abs(as_fraction(mine) - oracle) < Fraction(1, 10**62)


def test_cosh_at_half_matches_series_oracle():
    mine = cosh(make_real("0.5"))
    oracle = frac_cosh(Fraction(1, 2), digits=80)
    assert abs(as_fraction(mine) - oracle) < Fraction(1, 10**62)


def test_pi_against_reference_digits():
    assert str(pi(64)).startswith(PI_80[:60])


def test_cot_pole_carries_argument():
    with pytest.raises(PoleError) as excinfo:
        cot(make_real("0"))
    assert excinfo.value.argument == 0
    with pytest.raises(PoleError):
        coth(make_real("0"))


def test_ln_domain():
    with pytest.raises(ValueError):
        ln(make_real("0"))
    assert str(ln(make_real("2"))).startswith("0.693147180559945309417232121458")


@pytest.mark.parametrize("digits", [40, 64, 128, 256])
def test_ln_is_correctly_rounded(digits):
    # ln at the argument's own precision against a 2*digits+20 reference
    # rounded once to digits, on seeded arguments from 1e-300 to 1e300.
    rng = random.Random(digits)
    reference = _context(2 * digits + 20)
    for _ in range(60):
        mantissa = "".join(rng.choice("0123456789") for _ in range(digits))
        x = make_real(f"{rng.randint(1, 9)}.{mantissa}e{rng.randint(-300, 300)}", digits)
        expected = _context(digits).plus(reference.ln(x.dec))
        assert ln(x).dec == expected and ln(x).digits == digits, x


def test_first_equal_pair_is_the_first_pair_by_i_then_j():
    rng = random.Random(7)
    for _ in range(300):
        # Real(Decimal("-0")) keeps its sign, which make_real drops
        values = [Real(Decimal(rng.choice(["0", "-0", "1", "1.0", "2", "-2", "3"])), 64)
                  for _ in range(rng.randint(0, 7))]
        naive = next(((i, j) for i in range(len(values)) for j in range(i + 1, len(values))
                      if values[i] == values[j]), None)
        assert numeric.first_equal_pair(values) == naive, values


decimals_in_range = st.decimals(
    min_value=Decimal("-10"),
    max_value=Decimal("10"),
    allow_nan=False,
    allow_infinity=False,
    places=6,
)


@settings(max_examples=60, deadline=None)
@given(decimals_in_range)
def test_pythagorean_identity(d):
    x = make_real(str(d))
    s, c = sin(x), cos(x)
    assert abs(s * s + c * c - 1) <= ten_power(-62)


@settings(max_examples=60, deadline=None)
@given(decimals_in_range)
def test_hyperbolic_identity(d):
    x = make_real(str(d))
    sh, ch = sinh(x), cosh(x)
    # cosh^2 grows to ~1e8 on this range, so the identity is checked
    # relative to the magnitude of the terms involved.
    scale = ch * ch + 1
    assert abs(ch * ch - sh * sh - 1) <= ten_power(-62) * scale


@settings(max_examples=60, deadline=None)
@given(decimals_in_range)
def test_cot_times_sin_is_cos(d):
    x = make_real(str(d))
    s = sin(x)
    if abs(s) < make_real("0.01"):
        return  # too close to a pole for the quotient identity
    assert abs(cot(x) * s - cos(x)) <= ten_power(-62)
    if not x.is_zero():
        assert abs(coth(x) * sinh(x) - cosh(x)) <= ten_power(-62) * cosh(x)


@settings(max_examples=40, deadline=None)
@given(decimals_in_range, st.sampled_from(["sin", "cos", "sinh", "cosh"]))
def test_precision_bump_is_stable(d, fn):
    x64 = make_real(str(d))
    x96 = make_real(str(d), 96)
    v64 = getattr(numeric, fn)(x64)
    v96 = getattr(numeric, fn)(x96)
    scale = abs(v96) if not v96.is_zero() else make_real("1")
    assert abs(v64 - v96.with_digits(64)) <= ten_power(-60) * scale


def test_format_fixed():
    assert format_fixed(make_real("-3"), 18) == "-3.000000000000000000"
    assert format_fixed(make_real("1.0246"), 6) == "1.024600"
    assert format_fixed(make_real("0.15"), 18) == "0.150000000000000000"
    assert format_fixed(make_real("-1e-30"), 18) == "0.000000000000000000"
    assert format_fixed(make_real("12345"), 2) == "12345.00"


def test_ten_power_is_exact():
    assert ten_power(-58) == make_real("1e-58")
    assert ten_power(3) == 1000


def test_value_equality_ignores_representation():
    assert make_real("3") == make_real("3.0")
    assert hash(make_real("3")) == hash(make_real("3.00"))
    assert make_real("3", 40) == make_real("3")


# Digits produced by the earlier kernels (two full Taylor series per
# call, then one shared series loop).  The argument-halving kernels take
# different steps, but the rounded results must not move.
SERIES_PINS = [
    (sin, "0.7", "0.6442176872376910536726143513987201830658138445736896447439630881"),
    (cos, "0.7", "0.7648421872844884262558599901918649092682105503737033560729324583"),
    (sin, "-2.5", "-0.5984721441039564940518547021861622717035971715772235733026270326"),
    (cos, "-2.5", "-0.8011436155469337148335027904673516644285678487678201350745979917"),
    (sin, "100.25", "-0.2772828564548513033536720570194358868442559899385790390607974705"),
    (cos, "100.25", "0.9607883312760612034423445613620499861238010886101317061129058251"),
    (sinh, "0.3", "0.3045202934471426189584352670050952290980242326801797273773039616"),
    (sinh, "-0.45", "-0.4653420169341977590179281681904962356982548556967802400717314468"),
]


@pytest.mark.parametrize("fn,x,digits", SERIES_PINS)
def test_series_results_are_pinned(fn, x, digits):
    assert str(fn(make_real(x))) == digits


def _coth_by_exp(x: Real) -> Real:
    # cosh/sinh from the kernel: exp past coth's far-tail cut-off, argument
    # halving below it
    prec = x.digits + 10
    ch, sh = _cosh_sinh_decimal(x.dec, prec)
    return Real(_context(x.digits).plus(_context(prec).divide(ch, sh)), x.digits)


@pytest.mark.parametrize(
    "digits,points",
    [
        (64, ["40", "73", "-73.5", "86", "87.5", "88", "-88", "150"]),
        (256, ["290", "-290", "308.5", "-400", "600"]),
    ],
)
def test_coth_far_tail_matches_the_exp_formula(digits, points):
    # below ~digits*ln(10)/2 the result is not +/-1; the cut-off sits above that
    for text in points:
        x = make_real(text, digits)
        assert coth(x) == _coth_by_exp(x)


def test_coth_of_huge_arguments_is_exact_unit_without_overflow():
    assert coth(make_real("1e30")) == 1
    assert coth(make_real("-1e30")) == -1
    assert coth(make_real("1e30", 256)).digits == 256


# -- kernels against independent oracles -------------------------------


def _ulp(v: Real) -> Fraction:
    return Fraction(10) ** (v.dec.adjusted() - v.digits + 1)


def _common_points(digits: int) -> list[Real]:
    # seeded: tiny arguments 1e-40..1e-1 and uniform ones in [-pi, pi]
    rng = random.Random(digits)
    tiny = [
        f"{rng.choice('-+')}{rng.randint(1, 9)}.{rng.randint(0, 999999):06d}e-{e}"
        for e in (1, 3, 10, 20, 40)
    ]
    uniform = [repr(rng.uniform(-3.14159, 3.14159)) for _ in range(6)]
    return [make_real(text, digits) for text in tiny + uniform]


def _trig_points(digits: int) -> list[Real]:
    half_pi, whole_pi = pi(digits) / 2, pi(digits)
    near = [half_pi + sign * ten_power(-j, digits) for sign in (1, -1) for j in (4, 10, 12)]
    near += [whole_pi - ten_power(-j, digits) for j in (1, 10, 12)]
    near += [ten_power(-j, digits) - whole_pi for j in (4, 10)]
    # near zeros other than 0, where the reduction and the doublings cancel
    tiny = ten_power(-12, digits)
    near += [whole_pi + ten_power(-10, digits), whole_pi + tiny, -whole_pi - tiny]
    near += [3 * half_pi + tiny, 2 * whole_pi + tiny, 2 * whole_pi - tiny, 3 * whole_pi - tiny]
    near += [whole_pi - ten_power(-20, digits)]
    return _common_points(digits) + near


# Up to +/-700, and on both sides of coth's far-tail cut-off (87 at 64
# digits, 308 at 256).
_HYPERBOLIC = {
    64: ["-699.25", "411.5", "86", "-87.5", "88", "150"],
    256: ["-640.75", "290", "308.5", "-400"],
}


def _assert_within_one_ulp(fns, x, truths):
    for fn, truth in zip(fns, truths):
        value = fn(x)
        assert abs(Fraction(value.dec) - truth) <= _ulp(value), (fn.__name__, str(x))


@pytest.mark.parametrize("digits", [64, 256])
def test_trigonometric_kernels_within_one_ulp_of_the_oracle(digits):
    # The grid series at digits + 70 places is good to ~1e-(digits+67),
    # at least digits + 20 significant digits on every point here.
    for x in _trig_points(digits):
        s, c = grid_sin_cos(Fraction(x.dec), digits + 70)
        _assert_within_one_ulp((sin, cos, cot), x, (s, c, c / s))


@pytest.mark.parametrize("digits", [64, 256])
def test_hyperbolic_kernels_within_one_ulp_of_the_oracle(digits):
    points = _common_points(digits) + [make_real(t, digits) for t in _HYPERBOLIC[digits]]
    for x in points:
        sh, ch = grid_sin_cos(Fraction(x.dec), digits + 70, sign=1)
        _assert_within_one_ulp((sinh, cosh, coth), x, (sh, ch, ch / sh))


@pytest.mark.parametrize("text", ["1e6", "-3.75e10", "1e20", "1e30", "-2.5e33", "1e40"])
def test_large_arguments_reduce_with_enough_digits_of_pi(text):
    # With pi at working precision, sin(1e30) was off by 4.4e-45 at 64 digits.
    digits = 64
    x = make_real(text)
    places = digits + 25
    r = round_to_grid(reduce_two_pi(Fraction(x.dec), places), places)
    _assert_within_one_ulp((sin, cos), x, (frac_sin(r, digits + 20), frac_cos(r, digits + 20)))


def test_kernels_are_odd_and_even_bit_for_bit():
    # The pairwise correction pass relies on cot(-t) == -cot(t) exactly.
    for digits in (64, 256):
        for x in _trig_points(digits) + [make_real("-3.5e7", digits)]:
            assert str(cot(-x)) == str(-cot(x))
            assert str(sin(-x)) == str(-sin(x)) and str(cos(-x)) == str(cos(x))
        for x in _common_points(digits):
            assert str(coth(-x)) == str(-coth(x))
            assert str(sinh(-x)) == str(-sinh(x)) and str(cosh(-x)) == str(cosh(x))


# -- the fixed-point kernels against the oracles at 2 * digits + 20 ----
#
# numeric's module docstring: before its one rounding a value is within
# about 2e-10 * 10**lost of a unit in its last digit, lost being the digits
# the trig pair lies below its scale (0 for the hyperbolic pair).  The
# pairs are checked before that rounding, at the kernels' working
# precision, and every public value after it.


def _magnitude(v: Fraction) -> int:
    # the decimal exponent of v's leading digit
    return Context(prec=40).divide(Decimal(v.numerator), Decimal(v.denominator)).adjusted()


def _units(value: Decimal, exact: Fraction, digits: int) -> Fraction:
    # |value - exact| in units of exact's last digit at ``digits`` digits
    return abs(Fraction(value) - exact) / Fraction(10) ** (_magnitude(exact) - digits + 1)


def _kernel_points(digits: int) -> tuple[list[Real], list[Real]]:
    """Seeded (trig, hyperbolic) arguments: near k pi/2, where cancellation
    takes the rerun path; past pi up to 1e30; tiny ones, 1e-12 to 1e-60;
    and on both sides of coth's far-tail cut-off."""
    rng = random.Random(7 * digits)

    def numeral(exponent: int) -> Real:
        body = f"{rng.randint(1, 9)}.{rng.randrange(10 ** (digits - 1)):0{digits - 1}d}"
        return make_real(f"{rng.choice('-+')}{body}e{exponent}", digits)

    half_pi = pi(digits + 10) / 2
    near = [(k * half_pi + rng.choice((1, -1)) * ten_power(-rng.randint(3, 40), digits + 10))
            .with_digits(digits) for k in (1, 2, 3, 4, 5, -1, -2, -7)]
    far = [numeral(e) for e in (0, 1, 3, 9, 17, 29)]
    tiny = [numeral(-e) for e in (12, 20, 33, 47, 60)]
    moderate = [numeral(-1), numeral(0), make_real(repr(rng.uniform(-5, 5)), digits)]
    cut = (digits + DEFAULT_GUARD_DIGITS) * 11513 // 10000 + 2  # (prec ln 10 + ln 4) / 2
    tail = [make_real(str(cut + Decimal(offset)), digits)
            for offset in ("-0.5", "-1e-5", "1e-5", "0.5")]
    tail += [-tail[0], -tail[3]]
    return near + far[1:] + tiny + moderate, tiny + moderate + far[:2] + tail


def _kernel_breaches(digits: int) -> list[tuple[str, str, float]]:
    """Every (function, argument, units/bound) whose value misses the bound,
    before the rounding (pairs) or after it (public values)."""
    prec = digits + DEFAULT_GUARD_DIGITS
    oracle = 2 * digits + 20
    bound = Fraction(2, 10 ** 10)
    breaches = []

    def check(name, x, value, exact, lost, rounded):
        allowed = bound * 10 ** lost + (Fraction(1, 2) if rounded else 0)
        units = _units(value, exact, digits)
        if units > allowed:
            breaches.append((name, str(x), float(units / allowed)))

    trig, hyperbolic = _kernel_points(digits)
    for x in trig:
        places = oracle + 80
        r = reduce_two_pi(Fraction(x.dec), places + 5)
        s, c = grid_sin_cos(r, places)
        lost = max(min(x.dec.adjusted(), 0) - _magnitude(s), -_magnitude(c))
        kernel = numeric._cos_sin_decimal(x.dec, prec)
        check("cos (kernel)", x, kernel[0], c, lost, False)
        check("sin (kernel)", x, kernel[1], s, lost, False)
        public = cos_sin(x)
        check("cos", x, public[0].dec, c, lost, True)
        check("sin", x, public[1].dec, s, lost, True)
        check("cot", x, cot(x).dec, frac_cot(Fraction(x.dec), oracle), lost, True)
    for x in hyperbolic:
        sh, ch = grid_sin_cos(Fraction(x.dec), oracle + 80, sign=1)
        kernel = numeric._cosh_sinh_decimal(x.dec, prec)
        check("cosh (kernel)", x, kernel[0], ch, 0, False)
        check("sinh (kernel)", x, kernel[1], sh, 0, False)
        public = cosh_sinh(x)
        check("cosh", x, public[0].dec, ch, 0, True)
        check("sinh", x, public[1].dec, sh, 0, True)
        check("coth", x, coth(x).dec, frac_coth(Fraction(x.dec), oracle), 0, True)
    return breaches


@pytest.mark.parametrize("digits", [64, 256])
def test_kernels_keep_the_documented_bound(digits):
    assert _kernel_breaches(digits) == []


@pytest.mark.parametrize("digits", [64, 256])
def test_kernels_with_eight_fewer_guard_bits_break_the_bound(digits, monkeypatch):
    # the mutation the property must catch: the fixed point's guard cut by 8
    monkeypatch.setattr(numeric, "_GUARD_BITS", numeric._GUARD_BITS - 8)
    assert _kernel_breaches(digits) != []
