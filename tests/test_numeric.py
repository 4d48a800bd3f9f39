import ast
import math
import random
import time
from decimal import MAX_PREC, Context, Decimal
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simulroot.numeric import (
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
from simulroot.numeric import _context
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
from test_polys import correct_rounding

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


def _ln_corpus(digits: int) -> list[Decimal]:
    # seeded full-length mantissas with exponents up to +-5000, 1 +- 10^-k
    # for k up to 2 digits, powers of 10 and of 2, and 1 itself
    rng = random.Random(digits)
    big = digits > 256  # where libmpdec's ln, the reference, takes up to 0.4 s
    xs = []
    for _ in range(12 if big else 60):
        mantissa = "".join(rng.choice("0123456789") for _ in range(digits - 1))
        xs.append(Decimal(f"{rng.randint(1, 9)}.{mantissa}e{rng.randint(-5000, 5000)}"))
    exact = _context(MAX_PREC)
    for k in [*range(1, 2 * digits, digits // 2 if big else max(1, digits // 16)), 2 * digits]:
        step = Decimal(f"{rng.randint(1, 9)}e-{k}")
        xs += [exact.add(1, step), exact.subtract(1, step)]
    xs += [Decimal(10) ** e for e in (-5000, -300, -1, 1, 2, 300, 5000)]
    xs += [exact.power(Decimal(2), e) for e in (-200, -3, -2, -1, 1, 2, 3, 200)]
    return xs + [Decimal(1)]


def ln_kernel_runs(monkeypatch) -> list[tuple[Decimal, int]]:
    """(x, extra) of every ``_ln_fixed`` run that ``ln`` makes from now on:
    extra is 0 on a first pass and positive on a rerun after a straddle."""
    runs = []
    kernel = numeric._ln_fixed

    def recorded(x, digits, extra=0):
        runs.append((x, extra))
        return kernel(x, digits, extra)

    monkeypatch.setattr(numeric, "_ln_fixed", recorded)
    return runs


@pytest.mark.parametrize("digits", [30, 64, 128, 256, 1024])
def test_ln_is_libmpdec_ln_bit_for_bit(digits, monkeypatch):
    ctx = _context(digits)
    runs = ln_kernel_runs(monkeypatch)
    for x in _ln_corpus(digits):
        got, want = ln(Real(x, digits)).dec, ctx.ln(x)
        assert got.compare_total(want) == 0 and str(got) == str(want), x
    # only 1 + 10^-digits straddles, where the corpus holds it (see the tie
    # test), and 1 runs no kernel
    near_tie = _context(MAX_PREC).add(1, Decimal(1).scaleb(-digits))
    assert {x for x, extra in runs if extra} <= {near_tie}
    assert Decimal(1) not in {x for x, _ in runs}


@pytest.mark.parametrize("digits", [30, 64, 128, 256])
def test_the_fixed_point_ln_lies_within_its_bound(digits):
    # |v - 2^w ln x| <= bound against libmpdec's ln to 30 digits more than
    # 2^w has, so to 1e-25 units for |ln x| < 1e4
    exact = _context(MAX_PREC)
    for x in _ln_corpus(digits)[:-1]:
        v, bound, w = numeric._ln_fixed(x, digits)
        reference = _context(w * 302 // 1000 + 30).ln(x)
        error = exact.subtract(Decimal(v), exact.multiply(reference, Decimal(1 << w)))
        assert error.copy_abs() <= bound, x


@pytest.mark.parametrize("digits", [30, 64, 128, 256, 1024])
def test_ln_reruns_its_kernel_next_to_a_tie(digits, monkeypatch):
    # T a tie of `digits` digits near 10^15 and x = exp(T) rounded to them:
    # ln x = T + d, |d| <= 10^(1 - digits), within 10^-15 units of the tie,
    # where the first pass straddles and only a rerun rounds to the right
    # side.  ln(1 + 10^-digits) = 10^-digits - 10^-(2 digits) / 2 +
    # 10^-(3 digits) / 3 - ... lies 10^-digits / 3 units above a tie; at
    # 1024 digits libmpdec's ln takes 13 s there, so that case leaves it out.
    rng = random.Random(digits)
    ctx = _context(digits)
    big = digits > 256
    xs = [] if big else [_context(MAX_PREC).add(1, Decimal(1).scaleb(-digits))]
    for _ in range(3 if big else 8):
        mantissa = "".join(rng.choice("0123456789") for _ in range(digits - 1))
        xs.append(ctx.exp(Decimal(f"{rng.randint(1, 9)}.{mantissa}5e15")))
    runs = ln_kernel_runs(monkeypatch)
    for x in xs:
        got, want = ln(Real(x, digits)).dec, ctx.ln(x)
        assert got.compare_total(want) == 0 and str(got) == str(want), x
    assert len({x for x, extra in runs if extra}) >= 1


def test_ln_decides_a_straddle_next_to_one_in_fixed_point(monkeypatch):
    # ln(1 + 10^-1024) at 1024 digits lies 10^-1024/3 units above a tie: the
    # first pass straddles, and the reruns at more bits decide it in well
    # under a second.  The truth is the alternating series eps - eps^2/2 +
    # eps^3/3 - ..., summed in Fractions until the first term left out lies
    # below 10^-3 of a unit and below the sum's distance from a tie.
    digits = 1024
    eps = Fraction(1, 10 ** digits)
    x = Real(_context(MAX_PREC).add(1, Decimal(1).scaleb(-digits)), digits)
    runs = ln_kernel_runs(monkeypatch)
    start = time.perf_counter()
    got = ln(x)
    assert time.perf_counter() - start < 1
    assert runs[0] == (x.dec, 0) and len(runs) > 1
    total, n = Fraction(0), 1
    while True:
        total += (-1) ** (n + 1) * eps ** n / n
        n += 1
        unit, nearest, gap = correct_rounding(total, digits)
        if eps ** n / n < unit * min(gap, Fraction(1, 1000)):
            break
    assert Fraction(got.dec) == nearest and len(got.dec.as_tuple().digits) == digits


def test_no_libmpdec_transcendental_outside_the_exp_tail():
    # Every ln, exp and log10 of a Decimal or a Context in src/simulroot, by
    # module and top-level function; math's log10 of a float is not one.
    # The one left is e^|x| past coth's far tail (numeric._exp_tail's
    # comment says why).
    calls = []
    for path in sorted(Path(numeric.__file__).parent.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            for node in ast.walk(top):
                if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                        and node.func.attr in ("ln", "exp", "log10")
                        and not (isinstance(node.func.value, ast.Name)
                                 and node.func.value.id == "math")):
                    calls.append((path.stem, getattr(top, "name", None), node.func.attr))
    assert calls == [("numeric", "_exp_tail", "exp")]


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
    # cosh/sinh from the kernel entry: exp past coth's far-tail cut-off,
    # argument halving below it
    prec = x.digits + 10
    ch, sh = numeric._ziv(prec, numeric._cosh_sinh_fixed, x.dec, prec)
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


# -- the kernels against the oracles at 2 * digits + 20 ----------------
#
# numeric's module docstring: each kernel run gives integer intervals
# (v, bound, w), |v - 2^w f(x)| <= bound, and each public value is f(x)
# correctly rounded, half even, to x's digits.  Both are checked: every
# interval against the oracle, and every public value against the oracle
# rounded once.


def _magnitude(v: Fraction) -> int:
    # the decimal exponent of v's leading digit
    return Context(prec=40).divide(Decimal(v.numerator), Decimal(v.denominator)).adjusted()


def _kernel_points(digits: int) -> tuple[list[Real], list[Real]]:
    """Seeded (trig, hyperbolic) arguments: near k pi/2, where the first
    pass loses digits to cancellation and reruns; past pi up to 1e30; tiny
    ones, 1e-12 to 1e-60; and on both sides of coth's far-tail cut-off."""
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
    cut = next(h for h in range(2000) if numeric._far_tail(Decimal(h + 1), digits))
    tail = [make_real(str(cut + Decimal(offset)), digits)
            for offset in ("-0.5", "-1e-5", "1e-5", "0.5")]
    tail += [-tail[0], -tail[3]]
    return near + far[1:] + tiny + moderate, tiny + moderate + far[:2] + tail


# f, f', the inverse of f as a float, and the range of the ties
_INVERSES = {
    "sin": (sin, cos, math.asin, (1, 9)),
    "cos": (cos, lambda x: -sin(x), math.acos, (1, 9)),
    "cot": (cot, lambda x: -1 - cot(x) ** 2, lambda t: math.atan(1 / t), (2, 49)),
    "sinh": (sinh, cosh, math.asinh, (10, 89)),
    "cosh": (cosh, sinh, math.acosh, (20, 89)),
    "coth": (coth, lambda x: 1 - coth(x) ** 2, lambda t: math.atanh(1 / t), (11, 49)),
}


def _near_ties(digits: int) -> list[tuple[str, Real]]:
    """Seeded (name, x) with f(x) about 1e-13 units from a tie, built the way
    ln's tie cases are: T a tie of ``digits`` digits and x = f^-1(T), here by
    Newton's method at digits + 12 digits, all of which x keeps."""
    rng = random.Random(13 * digits)
    work = digits + 12
    out = []
    for name, (f, df, inverse, (low, high)) in _INVERSES.items():
        for _ in range(4):
            lead = rng.randint(low, high)
            tail = rng.randrange(10 ** (digits - 2))
            tie = Decimal(f"{lead // 10}.{lead % 10}{tail:0{digits - 2}d}5")
            x = make_real(repr(inverse(float(tie))), work)
            target = Real(tie, work)
            for _ in range(7):
                x = x - (f(x) - target) / df(x)
            out.append((name, Real(x.dec, digits)))
    return out


def _kernel_breaches(digits: int) -> list[tuple[str, str]]:
    """Every (function, argument) whose kernel interval misses the oracle, or
    whose public value is not the oracle rounded once, half even."""
    oracle = 2 * digits + 20
    breaches = []

    def check(name, x, value, exact, interval=None):
        unit, nearest, gap = correct_rounding(exact, digits)
        assert gap > Fraction(1, 10 ** 16), (name, str(x))  # the oracle decides
        if Fraction(value.dec) != nearest or value.digits != digits:
            breaches.append((name, str(x)))
        if interval is not None:
            v, bound, w, *e = interval
            scale = Fraction(10) ** (e[0] if e else 0) / 2 ** w
            if abs(v * scale - exact) > bound * scale + unit / 10 ** 12:
                breaches.append((name + " (kernel)", str(x)))

    def trig(x):
        places = oracle + 80
        s, c = grid_sin_cos(reduce_two_pi(Fraction(x.dec), places + 5), places)
        return c, s

    def hyperbolic(x):
        sh, ch = grid_sin_cos(Fraction(x.dec), oracle + 80, sign=1)
        return ch, sh

    def checks(x, exact, pair, quotient, kernel, oracle_quotient, names):
        # both values of the pair and their quotient, with the kernel's
        # intervals; past the far tail coth is no quotient
        for name, value, truth, interval in zip(names, pair(x), exact(x),
                                                kernel(x.dec, digits, 0)):
            check(name, x, value, truth, interval)
        interval = None if numeric._far_tail(x.dec, digits) else numeric._reciprocal(
            kernel, x.dec, digits, 0)[0]
        check(names[2], x, quotient(x), oracle_quotient(Fraction(x.dec), oracle), interval)

    trig_points, hyperbolic_points = _kernel_points(digits)
    for x in trig_points:
        checks(x, trig, cos_sin, cot, numeric._cos_sin_fixed, frac_cot, ("cos", "sin", "cot"))
    for x in hyperbolic_points:
        checks(x, hyperbolic, cosh_sinh, coth, numeric._cosh_sinh_fixed, frac_coth,
               ("cosh", "sinh", "coth"))
    for name, x in _near_ties(digits):
        c, s = (trig if name in ("sin", "cos", "cot") else hyperbolic)(x)
        exact = {"sin": s, "sinh": s, "cos": c, "cosh": c, "cot": c / s, "coth": c / s}[name]
        check(name, x, getattr(numeric, name)(x), exact)
    return breaches


@pytest.mark.parametrize("digits", [64, 256])
def test_kernels_keep_the_documented_bound(digits):
    assert _kernel_breaches(digits) == []


@pytest.mark.parametrize("digits", [64, 256])
def test_rounding_the_value_alone_breaks_the_bound(digits, monkeypatch):
    # the mutation the property must catch: Ziv's test with the interval's
    # bound dropped, so that every value is rounded from its centre alone
    round_fixed = numeric._round_fixed
    monkeypatch.setattr(numeric, "_round_fixed",
                        lambda digits, v, bound, *rest: round_fixed(digits, v, 0, *rest))
    assert _kernel_breaches(digits) != []


def test_fewer_guard_bits_cost_only_reruns(monkeypatch):
    # Under Ziv's test the guard sets how often a first pass straddles, not
    # what a value rounds to: with 4 guard bits instead of 20 every value
    # still equals the oracle rounded once, and more kernel runs rerun.
    def reruns():
        passes = []
        ziv = numeric._ziv

        def counted(digits, kernel, *args):
            runs = []
            out = ziv(digits, lambda *a: runs.append(a) or kernel(*a), *args)
            passes.append(len(runs))
            return out

        monkeypatch.setattr(numeric, "_ziv", counted)
        breaches = _kernel_breaches(64)
        monkeypatch.setattr(numeric, "_ziv", ziv)
        return breaches, sum(passes) - len(passes)

    breaches, guarded = reruns()
    monkeypatch.setattr(numeric, "_GUARD_BITS", 4)
    fewer, unguarded = reruns()
    assert breaches == fewer == [] and unguarded > guarded
