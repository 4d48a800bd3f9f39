import hashlib
import random
from collections import Counter
from decimal import Decimal, Inexact, Rounded, localcontext
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simulroot import cli, numeric, polys, solver
from simulroot.numeric import Real, make_real, one, ten_power, zero
from simulroot.polys import (
    AlgebraicCoeffPoly,
    CoincidentPointError,
    DerivativeZeroError,
    DuplicateRootError,
    FactoredPoly,
    Family,
    TrigExpCoeffPoly,
    eval_with_derivative,
    expand_algebraic,
    newton_ratio,
    pairwise_log_derivatives,
)
from oracles import (
    composed_pair_term,
    frac_cos,
    frac_cosh,
    frac_cot,
    frac_coth,
    frac_sin,
    frac_sinh,
    log_derivative,
    planted_coefficients,
    real_eval_factored,
    real_horner,
    real_log_derivative,
    real_pairwise_log_derivatives,
    real_trig_exp_sum,
)

R = make_real


def as_fraction(x: Real) -> Fraction:
    return Fraction(x.dec)


def factored(family, roots, mults):
    return FactoredPoly(Family(family), tuple(R(r) for r in roots), tuple(mults))


EXAMPLE_1 = factored("algebraic", ["-2", "1", "3"], [2, 1, 3])
EXAMPLE_2 = factored("trigonometric", ["1", "2", "2.5"], [3, 2, 1])
EXAMPLE_3 = factored("exponential", ["-2", "3"], [2, 2])


def ratio_at(p, x: Real) -> Real | None:
    """The Newton ratio at x, from the phases a solve gives x and p's roots."""
    roots = polys.root_phases(p, x.digits)
    phase = polys.phases(p.family, [x], x.digits)[0] if roots else None
    ratio, _ = newton_ratio(p, x, phase, roots)
    return ratio


def log_derivative_at(family, x: Real, points, mults) -> Real:
    """log_derivative with the phases of x and the points made for the call's digits."""
    digits = max(x.digits, *(p.digits for p in points))
    (phase,) = polys.phases(family, [x], digits)
    return log_derivative(family, x, phase, points, polys.phases(family, points, digits), mults)


def pairwise_at(family, points, mults) -> list[Real]:
    """pairwise_log_derivatives with the points' phases made for the call's digits."""
    point_phases = polys.phases(family, points, max(p.digits for p in points))
    return pairwise_log_derivatives(family, points, point_phases, mults)


def test_algebraic_fixture_value_at_zero():
    value, _, _ = eval_with_derivative(expand_algebraic(EXAMPLE_1), R("0"))
    assert value == 108  # (2)^2 * (-1) * (-3)^3, exact in decimal arithmetic


def test_algebraic_fixture_value_at_root():
    value, derivative, _ = eval_with_derivative(expand_algebraic(EXAMPLE_1), R("1"))
    assert value.is_zero()
    assert not derivative.is_zero()  # simple root


def test_value_and_derivative_vanish_at_multiple_root():
    value, derivative, _ = eval_with_derivative(expand_algebraic(EXAMPLE_1), R("-2"))
    assert value.is_zero() and derivative.is_zero()
    value, derivative = real_eval_factored(EXAMPLE_3, R("3"))
    assert value.is_zero() and derivative.is_zero()


def test_trig_fixture_value_at_zero():
    value, _ = real_eval_factored(EXAMPLE_2, R("0"))
    oracle = (
        frac_sin(Fraction(-1, 2)) ** 3
        * frac_sin(Fraction(-1)) ** 2
        * frac_sin(Fraction(-5, 4))
    )
    assert str(value).startswith("0.0740458902545146")
    assert abs(as_fraction(value) - oracle) < Fraction(1, 10**60)


def test_exp_fixture_value_at_zero():
    value, _ = real_eval_factored(EXAMPLE_3, R("0"))
    oracle = frac_sinh(Fraction(1)) ** 2 * frac_sinh(Fraction(-3, 2)) ** 2
    assert str(value).startswith("6.2616642232350367")
    assert abs(as_fraction(value) - oracle) < Fraction(1, 10**58)


def test_trig_coefficient_evaluation_matches_series_oracle():
    # 0.5/2 + 2 cos(x) - sin(x) + 0.25 cos(2x) + 3 sin(2x) at x = 0.7
    poly = TrigExpCoeffPoly(Family.TRIGONOMETRIC, R("0.5"), (R("2"), R("0.25")), (R("-1"), R("3")))
    x = Fraction(7, 10)
    value, derivative, _ = eval_with_derivative(poly, R("0.7"))
    expected_value = (
        Fraction(1, 4)
        + 2 * frac_cos(x)
        - frac_sin(x)
        + Fraction(1, 4) * frac_cos(2 * x)
        + 3 * frac_sin(2 * x)
    )
    expected_derivative = (
        -2 * frac_sin(x)
        - frac_cos(x)
        + 2 * (-Fraction(1, 4) * frac_sin(2 * x) + 3 * frac_cos(2 * x))
    )
    assert abs(as_fraction(value) - expected_value) < Fraction(1, 10**60)
    assert abs(as_fraction(derivative) - expected_derivative) < Fraction(1, 10**60)


def test_exp_coefficient_evaluation_matches_series_oracle():
    # frequencies scale with the term index: k-th term uses cosh(kx), sinh(kx)
    poly = TrigExpCoeffPoly(Family.EXPONENTIAL, R("-1"), (R("1"), R("0.5")), (R("0"), R("-2")))
    x = Fraction(3, 8)
    value, derivative, _ = eval_with_derivative(poly, R("0.375"))
    expected_value = (
        -Fraction(1, 2)
        + frac_cosh(x)
        + Fraction(1, 2) * frac_cosh(2 * x)
        - 2 * frac_sinh(2 * x)
    )
    expected_derivative = (
        frac_sinh(x) + 2 * (Fraction(1, 2) * frac_sinh(2 * x) - 2 * frac_cosh(2 * x))
    )
    assert abs(as_fraction(value) - expected_value) < Fraction(1, 10**60)
    assert abs(as_fraction(derivative) - expected_derivative) < Fraction(1, 10**60)


def test_newton_ratio_linear_monic():
    poly = AlgebraicCoeffPoly((R("-1"),))  # x - 1
    assert ratio_at(poly, R("3")) == 2


def test_newton_ratio_equals_reciprocal_log_derivative():
    ratio = ratio_at(EXAMPLE_1, R("-3"))
    assert abs(as_fraction(ratio) - Fraction(-4, 11)) < Fraction(1, 10**60)


def test_newton_ratio_cubed_factor():
    poly = factored("algebraic", ["2"], [3])
    assert ratio_at(poly, R("2.3")) == R("0.1")


def test_newton_ratio_is_zero_at_exact_roots():
    assert ratio_at(EXAMPLE_1, R("-2")).is_zero()  # multiple root: 0/0 case
    assert ratio_at(EXAMPLE_2, R("2.5")).is_zero()  # simple root


def test_newton_ratio_raises_at_stationary_point():
    poly = AlgebraicCoeffPoly((R("0"), R("-1")))  # x^2 - 1, stationary at 0
    with pytest.raises(DerivativeZeroError) as excinfo:
        ratio_at(poly, R("0"))
    assert excinfo.value.x == 0


def test_trig_newton_ratio_matches_fraction_oracle():
    # p'/p = sum_j m_j cot((x - r_j)/2) / 2 at x = 0.5, which is not a root
    x = Fraction(1, 2)
    roots = (Fraction(1), Fraction(2), Fraction(5, 2))
    log_derivative = sum(
        Fraction(m, 2) * frac_cot((x - r) / 2) for r, m in zip(roots, (3, 2, 1))
    )
    ratio = ratio_at(EXAMPLE_2, R("0.5"))
    assert abs(as_fraction(ratio) - 1 / log_derivative) < Fraction(1, 10**60)


def test_exp_newton_ratio_matches_fraction_oracle():
    # p'/p = sum_j m_j coth((x - r_j)/2) / 2 at x = 0, which is not a root
    log_derivative = frac_coth(Fraction(1)) + frac_coth(Fraction(-3, 2))
    ratio = ratio_at(EXAMPLE_3, R("0"))
    assert abs(as_fraction(ratio) - 1 / log_derivative) < Fraction(1, 10**60)


def test_factored_newton_ratio_raises_where_log_derivative_vanishes():
    # roots -1 and 1: the kernel terms at x = 0 cancel exactly
    for family in ("algebraic", "trigonometric"):
        with pytest.raises(DerivativeZeroError) as excinfo:
            ratio_at(factored(family, ["-1", "1"], [1, 1]), R("0"))
        assert excinfo.value.x == 0


def test_expand_single_linear_factor():
    expanded = expand_algebraic(factored("algebraic", ["1"], [1]))
    assert expanded.coeffs == (R("-1"),)


def test_expand_pure_power_of_x():
    expanded = expand_algebraic(factored("algebraic", ["0"], [4]))
    assert expanded.coeffs == (R("0"), R("0"), R("0"), R("0"))


def frac_convolve(roots, mults):
    coeffs = [Fraction(1)]
    for r, m in zip(roots, mults):
        for _ in range(m):
            coeffs = [Fraction(1)] + [
                coeffs[i] - r * coeffs[i - 1] for i in range(1, len(coeffs))
            ] + [-r * coeffs[-1]]
    return coeffs[1:]


def test_expand_degree_six_fixture_against_convolution_oracle():
    expanded = expand_algebraic(EXAMPLE_1)
    oracle = frac_convolve([Fraction(-2), Fraction(1), Fraction(3)], [2, 1, 3])
    assert expanded.degree == 6
    for mine, expected in zip(expanded.coeffs, oracle):
        assert as_fraction(mine) == expected  # integer coefficients, exact


def test_expand_rejects_other_families():
    with pytest.raises(ValueError):
        expand_algebraic(EXAMPLE_2)


def test_duplicate_roots_rejected():
    with pytest.raises(DuplicateRootError):
        factored("algebraic", ["1", "1.0"], [1, 1])


def test_a_duplicate_root_names_the_first_pair_in_order():
    # (1, 2) is the first repeat a scan meets; (0, 3) comes first by i
    with pytest.raises(DuplicateRootError) as excinfo:
        factored("algebraic", ["1", "2", "2.0", "1.00"], [1, 1, 1, 1])
    assert excinfo.value.indices == (0, 3)
    assert str(excinfo.value) == "duplicate root 1 at factor positions 0 and 3"


def test_odd_multiplicity_sum_rejected_for_half_angle_families():
    with pytest.raises(ValueError):
        factored("trigonometric", ["1"], [1])
    with pytest.raises(ValueError):
        factored("exponential", ["1", "2"], [2, 1])


def test_leading_trig_coefficients_must_not_vanish():
    with pytest.raises(ValueError):
        TrigExpCoeffPoly(Family.TRIGONOMETRIC, R("1"), (R("1"), R("0")), (R("0"), R("0")))


grid_roots = st.lists(
    st.integers(min_value=-6, max_value=6).map(lambda n: Fraction(n, 2)),
    min_size=2,
    max_size=3,
    unique=True,
).map(lambda roots: [f"{r.numerator / r.denominator:.1f}" for r in roots])
mult_lists = st.lists(st.integers(min_value=1, max_value=3), min_size=3, max_size=3)


@settings(max_examples=40, deadline=None)
@given(grid_roots, mult_lists, st.decimals(min_value="-4", max_value="4", places=3))
def test_factored_and_expanded_forms_agree(roots, mults, point):
    poly = factored("algebraic", roots, mults[: len(roots)])
    expanded = expand_algebraic(poly)
    x = R(str(point))
    v1, d1 = real_eval_factored(poly, x)
    v2, d2, _ = eval_with_derivative(expanded, x)
    scale = abs(v1) + abs(d1) + 1
    assert abs(v1 - v2) <= ten_power(-58) * scale
    assert abs(d1 - d2) <= ten_power(-58) * scale


@settings(max_examples=30, deadline=None)
@given(
    st.sampled_from(["algebraic", "trigonometric", "exponential"]),
    st.decimals(min_value="-2", max_value="2", places=3),
)
def test_central_difference_matches_derivative(family, point):
    mults = [2, 2] if family != "algebraic" else [2, 1]
    poly = factored(family, ["-1", "1.5"], mults)
    x = R(str(point))
    if any(x == r for r in poly.roots):
        return
    value, derivative = real_eval_factored(poly, x)
    h = ten_power(-21)  # digits/3 for the default 64
    plus, _ = real_eval_factored(poly, x + h)
    minus, _ = real_eval_factored(poly, x - h)
    central = (plus - minus) / (2 * h)
    scale = abs(derivative) + abs(value) + 1
    assert abs(central - derivative) <= ten_power(-17) * scale


@pytest.mark.parametrize("family", list(Family))
def test_coefficient_form_runs_one_kernel_without_a_phase(family, monkeypatch):
    # a half-angle sum takes z from x's phase: without one it runs the
    # kernel once for it, and given one it runs none; the algebraic family
    # has no phase
    runs = []
    for name in ("_cos_sin_fixed", "_cosh_sinh_fixed"):
        kernel = getattr(numeric, name)
        monkeypatch.setattr(numeric, name, lambda *a, kernel=kernel: runs.append(a) or kernel(*a))
    x = R("0.3")
    if family is Family.ALGEBRAIC:
        p = AlgebraicCoeffPoly((R("1"), R("-2")))
        expected = 0
    else:
        p = TrigExpCoeffPoly(family, R("1"), (R("0.5"), R("2")), (R("-1"), R("0.25")))
        expected = 1
    want = eval_with_derivative(p, x)
    assert len(runs) == expected
    (phase,) = polys.phases(family, [x], x.digits)
    runs.clear()
    got = eval_with_derivative(p, x, phase)
    assert len(runs) == 0
    assert all(same(g, w) for g, w in zip(got, want))


@pytest.mark.parametrize("family", list(Family))
@pytest.mark.parametrize("m", [2, 3, 7])
def test_pairwise_sums_equal_per_point_sums_bit_for_bit(family, m):
    rng = random.Random(m)
    points = [R(repr(rng.uniform(-3, 3))) for _ in range(m)]
    mults = [2] + [rng.randint(1, 3) for _ in range(m - 1)]
    point_phases = polys.phases(family, points, 64)
    sums = pairwise_log_derivatives(family, points, point_phases, mults)
    assert len(sums) == m
    for i, total in enumerate(sums):
        others = [j for j in range(m) if j != i]
        alone = log_derivative(
            family, points[i], point_phases[i], [points[j] for j in others],
            [point_phases[j] for j in others], [mults[j] for j in others]
        )
        assert total.dec.compare_total(alone.dec) == 0
        assert total.digits == alone.digits


def test_pairwise_sums_report_a_coincident_pair():
    with pytest.raises(CoincidentPointError) as excinfo:
        pairwise_at(Family.ALGEBRAIC, [R("1"), R("2"), R("1")], [1, 1, 1])
    assert (excinfo.value.at, excinfo.value.index) == (0, 2)


def full_numeral(rng: random.Random, digits: int) -> Real:
    # every digit significant, so every operation on it rounds
    fraction = rng.randrange(10 ** (digits - 1))
    return R(f"{rng.choice('+-')}{rng.randint(1, 3)}.{fraction:0{digits - 1}d}", digits)


def same(got: Real, want: Real) -> bool:
    """Equal bit for bit: the same coefficient, exponent and precision."""
    return got.dec.compare_total(want.dec) == 0 and got.digits == want.digits


# -- a Newton ratio on a root --------------------------------------------


def counting_odds(family, monkeypatch) -> list[int]:
    """Patch ``polys._odds`` so that each row of odds the family's rule
    runs appends its number of terms to the returned list."""
    odds, rule = polys._odds, polys._RULES[family]
    terms: list[int] = []

    def counted(*args):
        if args[0] is rule:
            terms.append(len(args[4]))
        return odds(*args)

    monkeypatch.setattr(polys, "_odds", counted)
    return terms


def test_a_newton_ratio_on_a_root_runs_no_term(monkeypatch):
    rng = random.Random(5)
    for family in Family:
        roots = [full_numeral(rng, 64) for _ in range(30)]
        p = FactoredPoly(family, tuple(roots), tuple(1 + j % 3 for j in range(30)))
        root_phases = polys.root_phases(p, 64)
        terms = counting_odds(family, monkeypatch)
        for j in (0, 17, 29):
            ratio, at_floor = newton_ratio(p, roots[j], polys.phases(family, [roots[j]], 64)[0],
                                           root_phases)
            assert same(ratio, zero(64)) and not at_floor
        assert terms == []
        x = full_numeral(rng, 64)
        newton_ratio(p, x, polys.phases(family, [x], 64)[0], root_phases)
        assert terms == [30]


@pytest.mark.parametrize("family", list(Family))
@pytest.mark.parametrize("digits", [64, 256])
def test_log_derivative_loops_match_the_real_arithmetic_reference(family, digits):
    rng = random.Random(digits)
    points = [full_numeral(rng, digits) for _ in range(6)]
    mults = [rng.randint(1, 3) for _ in points]
    assert 3 in mults
    for x in [full_numeral(rng, digits) for _ in range(3)]:
        want = real_log_derivative(family, x, points, mults)
        assert same(log_derivative_at(family, x, points, mults), want)
    sums = pairwise_at(family, points, mults)
    want = real_pairwise_log_derivatives(family, points, mults)
    assert len(sums) == len(want) == len(points)
    assert all(same(got, w) for got, w in zip(sums, want))


@pytest.mark.parametrize("family", list(Family))
@pytest.mark.parametrize("digits", [64, 256])
def test_coefficient_loops_match_the_real_arithmetic_reference(family, digits):
    rng = random.Random(digits + 1)
    xs = [full_numeral(rng, digits) for _ in range(3)]
    if family is Family.ALGEBRAIC:
        roots = tuple(full_numeral(rng, digits) for _ in range(4))
        p = expand_algebraic(FactoredPoly(family, roots, (1, 3, 2, 3)))
        xs.append(roots[1])  # a triple root: the sums cancel
    else:
        a0, *ab = (full_numeral(rng, digits) for _ in range(9))
        p = TrigExpCoeffPoly(family, a0, tuple(ab[:4]), tuple(ab[4:]))
    for x in xs:
        got = eval_with_derivative(p, x)
        if family is Family.ALGEBRAIC:
            want = real_horner(p.coeffs, x)
            assert same(got[0], want[0]) and same(got[1], want[1])
            continue
        # a sum in z rounds otherwise: p(x) lies within e of the replay at
        # 2 digits + 20, and p'(x), which has no bound, within a few units
        # of the scale of its terms, sum_k k (|a_k| + |b_k|) cosh(kx)
        wide = 2 * digits + 20
        value, derivative = real_trig_exp_sum(
            family, p.a0.with_digits(wide), [a.with_digits(wide) for a in p.a],
            [b.with_digits(wide) for b in p.b], x.with_digits(wide))
        assert abs(got[0] - value) <= got[2]
        cosh = numeric.cosh if family is Family.EXPONENTIAL else lambda t: one(digits)
        scale = sum(k * (abs(a) + abs(b)) * cosh(k * x)
                    for k, (a, b) in enumerate(zip(p.a, p.b), start=1))
        assert abs(got[1] - derivative) <= ten_power(2 - digits) * scale


def planted_form(family: Family, roots, mults, digits: int):
    """The coefficient form of the planted roots, its coefficients rounded to ``digits``."""
    coeffs = planted_coefficients(family.value, roots, mults, digits + 10)
    if family is Family.ALGEBRAIC:
        return AlgebraicCoeffPoly(tuple(R(a, digits) for a in coeffs))
    a0, a, b = coeffs
    return TrigExpCoeffPoly(
        family, R(a0, digits), tuple(R(v, digits) for v in a), tuple(R(v, digits) for v in b)
    )


def exact_value(p, x: Real) -> Real:
    """p(x) at p's stored coefficients, replayed at 2 * digits + 20 digits."""
    wide = 2 * x.digits + 20
    if isinstance(p, AlgebraicCoeffPoly):
        return real_horner([a.with_digits(wide) for a in p.coeffs], x.with_digits(wide))[0]
    a0, a, b = (
        [v.with_digits(wide) for v in part] for part in ((p.a0,), p.a, p.b)
    )
    return real_trig_exp_sum(p.family.value, a0[0], a, b, x.with_digits(wide))[0]


@pytest.mark.parametrize("family", list(Family))
@pytest.mark.parametrize("digits", [64, 256])
def test_the_running_error_bound_holds(family, digits):
    rng = random.Random(digits * 7 + len(family.value))
    for _ in range(3):
        roots = [f"{v / 4:.2f}" for v in rng.sample(range(-12, 13), 3)]
        mults = [rng.randint(1, 3) for _ in roots]
        if family is not Family.ALGEBRAIC and sum(mults) % 2:
            i = mults.index(min(mults))
            mults[i] += 1 if mults[i] < 3 else -1
        p = planted_form(family, roots, mults, digits)
        near = [
            R(r, digits) + sign * ten_power(-e, digits)
            for r, m in zip(roots, mults)
            for e in (3, digits // m - 2, digits // m + 5, digits - 5)
            for sign in (1, -1)
        ]
        far = [full_numeral(rng, digits) for _ in range(4)]
        far = [x for x in far if min(abs(x - R(r)) for r in roots) > R("0.1")]
        for x in near + [R(r, digits) for r in roots] + far:
            value, _, bound = eval_with_derivative(p, x)
            assert abs(value - exact_value(p, x)) <= bound, (roots, mults, x)
        for x in far:
            # away from the roots the value is far above its rounding noise
            value, _, bound = eval_with_derivative(p, x)
            assert abs(value) > 1000 * bound


@pytest.mark.parametrize("family", list(Family))
def test_mixed_precision_call_runs_at_the_most_digits(family):
    rng = random.Random(100)
    points = [full_numeral(rng, 100) for _ in range(4)]
    mults = [1, 2, 3, 2]
    x = full_numeral(rng, 64)
    got = log_derivative_at(family, x, points, mults)
    assert got.digits == 100
    assert same(got, real_log_derivative(family, x, points, mults))


# -- a form as given, at its point's digits ------------------------------


def short_coefficient_forms(digits: int) -> list:
    a, b, c, d = (R(v, digits) for v in ("-3", "2", "1", "0.5"))
    return [AlgebraicCoeffPoly((a, b)),
            TrigExpCoeffPoly(Family.TRIGONOMETRIC, c, (a,), (b,)),
            TrigExpCoeffPoly(Family.EXPONENTIAL, d, (a,), (b,))]


def test_a_coefficient_form_with_short_values_still_runs_at_the_level():
    # A Newton ratio runs at its point's digits, whatever digits the
    # coefficients carry: "-3" labelled with 256 digits gives the ratio of
    # "-3" labelled with 64.
    rng = random.Random(30)
    for p, at_64 in zip(short_coefficient_forms(256), short_coefficient_forms(64)):
        for _ in range(3):
            x = full_numeral(rng, 64)
            (phase,) = polys.phases(p.family, [x], 64)
            ratio, _ = newton_ratio(p, x, phase, [])
            assert ratio.digits == 64
            assert same(ratio, newton_ratio(at_64, x, phase, [])[0])


# -- the algebraic sums as map/reduce -------------------------------------


@pytest.mark.parametrize("digits", [64, 256])
@pytest.mark.parametrize("m", [1, 2, 9, 30])
def test_algebraic_sums_match_the_real_arithmetic_reference(m, digits):
    # The algebraic sums run as C-level map/reduce and the Newton ratio of a
    # factored form on its cached root Decimals; both equal the Real loops.
    rng = random.Random(1000 * m + digits)
    points = [full_numeral(rng, digits) for _ in range(m)]
    mults = [rng.randint(1, 3) for _ in points]
    p = FactoredPoly(Family.ALGEBRAIC, tuple(points), tuple(mults))
    assert polys.root_phases(p, digits) == []
    for x in [full_numeral(rng, digits) for _ in range(3)]:
        want = real_log_derivative("algebraic", x, points, mults)
        assert same(log_derivative(Family.ALGEBRAIC, x, None, points, [None] * m, mults), want)
        ratio, at_floor = newton_ratio(p, x, None, [])
        assert same(ratio, one(digits) / want) and not at_floor
    sums = pairwise_log_derivatives(Family.ALGEBRAIC, points, [None] * m, mults)
    want = real_pairwise_log_derivatives("algebraic", points, mults)
    assert len(sums) == len(want) == m
    assert all(same(got, w) for got, w in zip(sums, want))


def test_a_point_equal_to_a_root_gives_a_ratio_of_0():
    rng = random.Random(5)
    roots = [full_numeral(rng, 64) for _ in range(30)]
    p = FactoredPoly(Family.ALGEBRAIC, tuple(roots), tuple(1 + j % 3 for j in range(30)))
    for j in (0, 17, 29):
        ratio, at_floor = newton_ratio(p, roots[j], None, [])
        assert same(ratio, zero(64)) and not at_floor


def first_equal(points):
    """The first (i, j), i < j, with equal points in the order rows i and
    then j run: the coincident pair a term loop meets first."""
    for i, a in enumerate(points):
        for j in range(i + 1, len(points)):
            if a == points[j]:
                return i, j
    return None


@pytest.mark.parametrize("family", list(Family))
def test_a_coincident_point_is_reported_at_the_first_equal_index(family):
    rng = random.Random(11)
    points = [full_numeral(rng, 64) for _ in range(12)]
    points[9], points[11] = points[4], points[2]  # row 2 meets its copy before row 4
    mults = [rng.randint(1, 3) for _ in points]
    with pytest.raises(CoincidentPointError) as excinfo:
        pairwise_at(family, points, mults)
    assert (excinfo.value.at, excinfo.value.index) == first_equal(points) == (2, 11)
    for x, index in ((points[4], 4), (points[2], 2), (points[11], 2)):
        with pytest.raises(CoincidentPointError) as excinfo:
            log_derivative_at(family, x, points, mults)
        assert (excinfo.value.at, excinfo.value.index) == (None, index)


def test_an_exactly_zero_sum_is_a_step_failure(capsys):
    # 1/(0 - 1) + 1/(0 + 1) is exactly 0: no ratio, and no DivisionByZero
    # taken for a coincident point
    assert cli.main(["solve", "--expr", "(x-1)*(x+1)", "--init", "0,5"]) == 2
    err = capsys.readouterr().err
    assert "step failed for root index 0: derivative rounds to zero at x = 0" in err


def test_a_sum_that_rounds_to_zero_is_not_called_a_zero_derivative(capsys):
    # at x = 1e-70, 1/(x - 1) + 1/(x + 1) = 2e-70 / (x^2 - 1) rounds to 0 at
    # 64 digits, though p'(x) = 2e-70: the message says what happened
    assert cli.main(["solve", "--expr", "(x-1)*(x+1)", "--init", "1e-70,2"]) == 2
    err = capsys.readouterr().err
    assert "root index 0: derivative rounds to zero at x = 1E-70" in err
    assert "is zero" not in err


# -- the phase kernel ----------------------------------------------------

HALF_ANGLE = [Family.TRIGONOMETRIC, Family.EXPONENTIAL]


def turn_step(rng) -> Decimal:
    """A step a phase is turned by: 30% of them just below MAX_TURN_STEP,
    the rest 1e-5 to 1e-40, either sign."""
    exponent = -4 if rng.random() < 0.3 else -rng.randint(5, 40)
    return Decimal(repr(rng.uniform(1, 9.9))).scaleb(exponent) * rng.choice((1, -1))


def turned_along_paths(family, points, digits, rng, turns):
    """The phases of ``points`` after ``turns`` turns each, from direct
    phases at points a random path of turn steps away, with every phase
    on the way: [(path points, their phases)] from the start."""
    paths = [list(points)]
    for _ in range(turns):
        paths.append([x + R(str(turn_step(rng)), digits) for x in paths[-1]])
    paths.reverse()
    ph = polys.phases(family, paths[0], digits)
    out = [(paths[0], ph)]
    for new in paths[1:]:
        ph = polys.turned_phases(family, ph, new, digits)
        out.append((new, ph))
    return out


def pair_phases(family, digits, pairs, turns=0):
    """The phases of the points of ``pairs``, flattened: direct, or reached
    by ``turns`` turns each."""
    points = [p for pair in pairs for p in pair]
    if not turns:
        return polys.phases(family, points, digits)
    unique = list(dict.fromkeys(points))
    turned = turned_along_paths(family, unique, digits, random.Random(turns), turns)[-1][1]
    assert all(q.turns == turns for q in turned)
    by_point = dict(zip(unique, turned))
    return [by_point[p] for p in points]


def pair_terms(family, digits, pairs, monkeypatch, turns=0):
    """(phase-kernel term, direct-kernel term, exact term, fell back) for
    each pair (a, b).

    The direct kernel is the family's odd(round(a - b)), and a term falls
    back when the phase kernel calls it.  The exact term is cot or coth at
    the kernel's argument (:func:`exact_term`).  A term that fell back has
    no exact term (None), and one that did not has no direct term.  The
    points' phases are direct, or reached by ``turns`` turns each.
    """
    rule = polys._RULES[family]
    ctx = numeric._context(digits)
    ph = pair_phases(family, digits, pairs, turns)
    name = "cot" if family is Family.TRIGONOMETRIC else "coth"
    kernel = getattr(polys, name)
    calls = []
    monkeypatch.setattr(polys, name, lambda x: calls.append(x) or kernel(x))
    term = polys._pair_term(rule, ctx)
    out = []
    for i, (a, b) in enumerate(pairs):
        d = ctx.subtract(a.dec, b.dec)
        calls.clear()
        got = term(d, a.dec, b.dec, ph[2 * i], ph[2 * i + 1])
        fell_back = len(calls)
        if fell_back:
            out.append((got, rule.odd(ctx, d), None, fell_back))
        else:
            out.append((got, None, exact_term(family, ctx.divide(d, 2), digits), fell_back))
    return out


@lru_cache(maxsize=4096)  # a corpus runs again with turned phases
def exact_term(family, u: Decimal, digits: int) -> Fraction:
    """cot u or coth u from the oracle at 2 digits + 20 significant digits:
    the exact pair term at the kernel's argument u = round(round(a - b)/2)."""
    oracle = frac_cot if family is Family.TRIGONOMETRIC else frac_coth
    return oracle(Fraction(u), 2 * digits + 20)


# A pair term is within 0.5 + TIE_SLACK units of its exact value (the
# error account after polys.PHASE_GUARD_DIGITS).
TIE_SLACK = Fraction(1, 10**7)


def correct_rounding(exact: Fraction, digits: int) -> tuple[Fraction, Fraction, Fraction]:
    """(unit, nearest, gap): a unit in the last of ``digits`` significant
    digits of ``exact``, ``exact`` rounded to that unit (half even), and its
    distance from the nearest tie in units."""
    n, d = abs(exact.numerator), exact.denominator
    top = len(str(n)) - len(str(d))  # floor(log10 |exact|) is top or top - 1
    if n * 10 ** max(0, -top) < d * 10 ** max(0, top):
        top -= 1
    unit = Fraction(10) ** (top - digits + 1)
    scaled = exact / unit
    nearest = round(scaled)
    return unit, nearest * unit, Fraction(1, 2) - abs(scaled - nearest)


def breaches(results, digits: int) -> list[int]:
    """The indices of the terms that break the pair-term contract.

    A term that fell back must be the direct kernel's bit for bit.  Any
    other must lie within 0.5 + TIE_SLACK units of the exact term, and equal
    its correct rounding wherever the exact term lies more than TIE_SLACK
    of a unit from a tie.
    """
    out = []
    for i, (got, direct, exact, fell) in enumerate(results):
        if fell:
            kept = got.compare_total(direct) == 0
        else:
            unit, nearest, gap = correct_rounding(exact, digits)
            kept = (abs(Fraction(got) - exact) <= (Fraction(1, 2) + TIE_SLACK) * unit
                    and (gap <= TIE_SLACK or Fraction(got) == nearest))
        if not kept:
            out.append(i)
    return out


def near(rng, a: Real, exponent: int) -> Real:
    """A full-length numeral about 10^exponent from a, on either side."""
    gap = Decimal(repr(rng.uniform(1, 9))).scaleb(exponent)
    return R(str(a.dec + gap if rng.random() < 0.5 else a.dec - gap), a.digits)


def seeded_pairs(family, digits):
    """Every pair of 64 full-length points: 2016 pairs, 30% of the points
    1e-1 to 1e-40 from another one."""
    rng = random.Random(digits + len(family.value))
    points = [full_numeral(rng, digits) for _ in range(45)]
    points += [near(rng, points[i], -rng.randint(1, 40)) for i in range(19)]
    return [(a, b) for i, a in enumerate(points) for b in points[i + 1:]]


def near_pairs(digits):
    """(exponents, pairs): two full-length pairs 10^-e apart for each e
    from 5 to 60."""
    rng = random.Random(digits)
    exponents = [e for e in range(5, 61) for _ in range(2)]
    return exponents, [(a, near(rng, a, -e)) for a, e in
                       ((full_numeral(rng, digits), e) for e in exponents)]


@pytest.mark.parametrize("family", HALF_ANGLE)
@pytest.mark.parametrize("digits", [64, 256])
def test_phase_kernel_rounds_the_exact_term_on_seeded_pairs(family, digits, monkeypatch):
    pairs = seeded_pairs(family, digits)
    # the same with phases that were turned 12 times: within the bound of
    # turned_phases, every term still keeps the contract
    for turns in (0, 12):
        results = pair_terms(family, digits, pairs, monkeypatch, turns)
        assert len(results) == 2016 and breaches(results, digits) == [], turns
        assert sum(fell for *_, fell in results) < len(results) // 10, turns


@pytest.mark.parametrize("family", HALF_ANGLE)
def test_a_phase_term_one_unit_up_breaks_the_contract(family, monkeypatch):
    # a phase path that returned next_plus of its term would break the
    # contract on every term that took no kernel: one unit up from the
    # correct rounding of a term clear of a tie
    rng = random.Random(23)
    pairs = [(full_numeral(rng, 64), full_numeral(rng, 64)) for _ in range(40)]
    results = pair_terms(family, 64, pairs, monkeypatch)
    assert breaches(results, 64) == []
    ctx = numeric._context(64)
    phased = [i for i, (*_, fell) in enumerate(results) if not fell]
    assert len(phased) > 30
    up = [(ctx.next_plus(got) if not fell else got, *rest, fell)
          for got, *rest, fell in results]
    assert breaches(up, 64) == phased


@pytest.mark.parametrize("family", HALF_ANGLE)
@pytest.mark.parametrize("digits", [64, 256])
def test_near_pairs_fall_back_to_the_direct_kernel(family, digits, monkeypatch):
    # a term cancels about as many digits as the pair's separation has
    # leading zeros; once u = round(a - b)/2 lies below 10**-(half the guard
    # digits), its phases would cancel more than that, and it takes the
    # short series at u instead: every pair 1e-11 or less apart (u at most
    # 4.5e-11), and at 64 digits one of the two 1e-10 apart.  No term here
    # falls back to the direct kernel.
    exponents, pairs = near_pairs(digits)
    series = []
    original = polys._small_pair_series
    monkeypatch.setattr(polys, "_small_pair_series", lambda *a: series.append(a) or original(*a))
    results = pair_terms(family, digits, pairs, monkeypatch)
    assert breaches(results, digits) == []
    half_guard = polys.PHASE_GUARD_DIGITS // 2
    for e, (*_, fell) in zip(exponents, results):
        assert fell == 0, e
    assert len(series) == sum(e > half_guard for e in exponents) + (digits == 64) == 100 + (digits == 64)
    assert {w.prec for *_, w in series} == {digits + polys.PHASE_GUARD_DIGITS}


@pytest.mark.parametrize("family", HALF_ANGLE)
@pytest.mark.parametrize("digits", [64, 256])
def test_the_one_frame_term_equals_the_composed_term_bit_for_bit(family, digits, monkeypatch):
    # polys' term runs the angle subtraction and the move to u in its own
    # frame; on the seeded and the near pairs above, and on points of
    # mixed magnitudes, which take the kernel where the others never do,
    # with direct phases and with phases turned 12 times, it returns the
    # Decimal of the reference composed of _minus, the move and one
    # divide.  Every route is taken: the near pair's series, the phases
    # with and without a move, and the kernel.
    rule, ctx = polys._RULES[family], numeric._context(digits)
    w = numeric._context(digits + polys.PHASE_GUARD_DIGITS)
    term, reference = polys._pair_term(rule, ctx), composed_pair_term(rule, ctx)
    name = "cot" if family is Family.TRIGONOMETRIC else "coth"
    kernel, calls = getattr(polys, name), []
    monkeypatch.setattr(polys, name, lambda x: calls.append(x) or kernel(x))
    routes = Counter()
    corpora = [(pairs, turns) for pairs in (seeded_pairs(family, digits), near_pairs(digits)[1])
               for turns in (0, 12)] + [(mixed_pairs(digits), 0)]
    for pairs, turns in corpora:
        ph = pair_phases(family, digits, pairs, turns)
        for i, (a, b) in enumerate(pairs):
            if ph[2 * i] is None:  # a row from a point with no phase runs no term
                continue
            d = ctx.subtract(a.dec, b.dec)
            args = (d, a.dec, b.dec, ph[2 * i], ph[2 * i + 1])
            calls.clear()
            got = term(*args)
            assert got.compare_total(reference(*args)) == 0, (a, b, turns)
            u = ctx.multiply(d, Decimal("0.5"))
            if calls:
                routes["kernel"] += 1
            elif u.adjusted() < -(polys.PHASE_GUARD_DIGITS // 2):
                routes["near"] += 1
            elif w.fma(w.subtract(a.dec, b.dec), Decimal("-0.5"), u).is_zero():
                routes["no move"] += 1
            else:
                routes["move"] += 1
    assert set(routes) == {"kernel", "near", "no move", "move"}, routes


def test_a_cached_term_calls_the_kernels_bound_at_call_time(monkeypatch):
    # one term serves every row at its digits, and it looks cot, coth and
    # the short series up when it runs, as the _RULES lambdas do, so a
    # name rebound after the term was built (perfbench's tracer, the
    # counting tests) reaches every call
    ctx = numeric._context(64)
    terms = {family: polys._pair_term(polys._RULES[family], ctx) for family in HALF_ANGLE}
    calls = []
    for name in ("cot", "coth", "_small_pair_series"):
        original = getattr(polys, name)
        monkeypatch.setattr(polys, name, lambda *a, name=name, f=original: calls.append(name) or f(*a))
    a, b = R("0.5"), R("0.5" + "0" * 39 + "1")  # a near pair: the short series
    far = R("1e20000")  # no hyperbolic phase: the kernel
    for family, kernel in zip(HALF_ANGLE, ("cot", "coth")):
        term = polys._pair_term(polys._RULES[family], ctx)
        assert term is terms[family]
        calls.clear()
        term(ctx.subtract(a.dec, b.dec), a.dec, b.dec, *polys.phases(family, [a, b], 64))
        term(ctx.subtract(a.dec, far.dec), a.dec, far.dec, polys.phases(family, [a], 64)[0], None)
        assert calls == ["_small_pair_series", kernel], family


@pytest.mark.parametrize("family", HALF_ANGLE)
@pytest.mark.parametrize("digits", [64, 256])
def test_near_pairs_run_no_halving_kernel(family, digits, monkeypatch):
    # seeded pairs 1e-11 to 1e-60 apart around full-length points of
    # either sign: every term keeps the contract, and none runs numeric's
    # halving kernels
    rng = random.Random(11 * digits + len(family.value))
    pairs = [(a, near(rng, a, -rng.randint(11, 60)))
             for a in (full_numeral(rng, digits) for _ in range(60))]
    rule, ctx = polys._RULES[family], numeric._context(digits)
    point_phases = polys.phases(family, [p for pair in pairs for p in pair], digits)
    runs = []
    for name in ("_cos_sin_fixed", "_cosh_sinh_fixed"):
        kernel = getattr(numeric, name)
        monkeypatch.setattr(numeric, name, lambda *a, kernel=kernel: runs.append(a) or kernel(*a))
    term = polys._pair_term(rule, ctx)
    got = [term(ctx.subtract(a.dec, b.dec), a.dec, b.dec, *point_phases[2 * i:2 * i + 2])
           for i, (a, b) in enumerate(pairs)]
    assert runs == []
    exact = [exact_term(family, ctx.divide(ctx.subtract(a.dec, b.dec), 2), digits)
             for a, b in pairs]
    assert breaches([(g, None, e, 0) for g, e in zip(got, exact)], digits) == []


@pytest.mark.parametrize("family", HALF_ANGLE)
def test_a_near_pair_term_one_unit_up_breaks_the_contract(family, monkeypatch):
    # the short series' quotient is the other term that takes no kernel: a
    # near-pair path that returned next_plus of its term would break the
    # contract on every pair 1e-11 to 1e-60 apart
    rng = random.Random(29)
    pairs = [(a, near(rng, a, -rng.randint(11, 60)))
             for a in (full_numeral(rng, 64) for _ in range(40))]
    series = []
    original = polys._small_pair_series
    monkeypatch.setattr(polys, "_small_pair_series", lambda *a: series.append(a) or original(*a))
    results = pair_terms(family, 64, pairs, monkeypatch)
    assert len(series) == len(pairs) and breaches(results, 64) == []
    assert all(fell == 0 for *_, fell in results)
    ctx = numeric._context(64)
    up = [(ctx.next_plus(got), *rest) for got, *rest in results]
    assert breaches(up, 64) == list(range(len(pairs)))


@pytest.mark.parametrize("family", HALF_ANGLE)
@pytest.mark.parametrize("digits", [64, 256])
def test_a_near_pair_a_hair_from_a_tie_takes_only_the_short_series(family, digits, monkeypatch):
    # u = 2^k 10^-e, with 5^k of digits + 1 digits: 1/u = 5^k 10^(e - k)
    # ends in a 5 one digit past the precision, a tie, and cot u = 1/u -
    # u/3 - ... or coth u = 1/u + u/3 + ... lies within 1e-100 of a unit
    # of it.  The term is the short series' quotient at u rounded once,
    # with no kernel: within 0.5 + TIE_SLACK units of the exact term.
    k = next(k for k in range(1, 2000) if len(str(5 ** k)) == digits + 1)
    e = k + digits // 2 + 12
    u = Decimal(f"{2 ** k}E-{e}")
    series = []
    original = polys._small_pair_series
    monkeypatch.setattr(polys, "_small_pair_series", lambda *a: series.append(a) or original(*a))
    results = pair_terms(family, digits, [(R(f"{2 ** (k + 1)}E-{e}", digits), R("0", digits))],
                         monkeypatch)
    assert [fell for *_, fell in results] == [0]
    assert [t for t, *_ in series] == [u]
    # the oracle resolves the exact term to within TIE_SLACK of the tie,
    # where the contract asks for no more than faithful rounding
    assert correct_rounding(results[0][2], digits)[2] < TIE_SLACK
    assert breaches(results, digits) == []


@pytest.mark.parametrize("digits", [64, 256])
def test_phase_kernel_across_the_period_boundary(digits, monkeypatch):
    # a just below pi and b just above -pi: a - b is 2*pi less a little,
    # where cot((a - b)/2) has a pole
    rng = random.Random(digits)
    pi_ = numeric.pi(digits + 10).dec
    pairs = []
    for _ in range(40):
        a = R(str(pi_ - Decimal(repr(rng.random())).scaleb(-rng.randint(1, 30))), digits)
        b = R(str(-pi_ + Decimal(repr(rng.random())).scaleb(-rng.randint(1, 30))), digits)
        pairs += [(a, b), (b, a)]
    results = pair_terms(Family.TRIGONOMETRIC, digits, pairs, monkeypatch)
    assert breaches(results, digits) == []
    assert 0 < sum(fell for *_, fell in results) < len(results)


@pytest.mark.parametrize("digits", [64, 256])
def test_phase_kernel_past_the_far_tail(digits, monkeypatch):
    # coth((a - b)/2) rounds to +/-1 from about 1.15 digits on and is
    # exactly +/-1 past the far tail; the exponents must agree too
    rng = random.Random(digits)
    tail = next(h for h in range(1000) if numeric._far_tail(Decimal(h), digits))
    pairs = []
    for _ in range(40):
        b = full_numeral(rng, digits)
        half = Decimal(rng.randint(tail - 20 - digits // 8, tail + 20))
        a = R(str(b.dec + 2 * half + Decimal(repr(rng.random()))), digits)
        pairs += [(a, b), (b, a)]
    results = pair_terms(Family.EXPONENTIAL, digits, pairs, monkeypatch)
    assert breaches(results, digits) == []
    assert any(got.compare_total(Decimal(1)) == 0 for got, *_ in results)


def mixed_pairs(digits):
    """150 pairs of full-length points from 1e-40 to 1e30, either sign."""
    rng = random.Random(digits)

    def point():
        fraction = rng.randrange(10 ** (digits - 1))
        return R(f"{rng.choice('+-')}{rng.randint(1, 9)}.{fraction:0{digits - 1}d}"
                 f"e{rng.randint(-40, 30)}", digits)

    return [(point(), point()) for _ in range(150)]


@pytest.mark.parametrize("digits", [64, 256])
def test_phase_kernel_on_trig_points_of_mixed_magnitudes(digits, monkeypatch):
    # far apart, the rounding of a - b at the phases' digits moves the
    # term by many ulps
    pairs = mixed_pairs(digits)
    results = pair_terms(Family.TRIGONOMETRIC, digits, pairs, monkeypatch)
    assert breaches(results, digits) == []
    assert 0 < sum(fell for *_, fell in results) < len(results)


def test_a_term_near_a_tie_rounds_correctly_on_both_routes(monkeypatch):
    # (a - b)/2 lies near 3 pi/2, where cot is -9e-5 and the exact term
    # lies 1.25e-6 of a unit from a tie.  cot's error before its rounding,
    # 2.6e-6 of a unit when its reduction took pi at the working digits,
    # is 2.6e-7 with pi's two more.  So the pair term and cot both round
    # it correctly, to ...70343: halved in the sums, ...685172.
    family = Family.TRIGONOMETRIC
    points = [R("1.348052993467319852991785597720570864624504404276611412229988520"),
              R("-8.076905072982821151596144552117937787967003793848706050694845257")]
    results = pair_terms(family, 64, [tuple(points)], monkeypatch)
    (got, _, exact, fell), = results
    assert fell == 0 and breaches(results, 64) == []
    _, nearest, gap = correct_rounding(exact, 64)
    assert gap > TIE_SLACK and str(got).endswith("70343")
    ctx = numeric._context(64)
    halved = ctx.divide(ctx.divide(nearest.numerator, nearest.denominator), 2)
    sums = pairwise_log_derivatives(family, points, polys.phases(family, points, 64), [1, 1])
    kernel = pairwise_log_derivatives(family, points, [None, None], [1, 1])
    assert sums[0].dec == kernel[0].dec == halved and str(halved).endswith("685172")


@pytest.mark.parametrize("digits", [64, 256])
def test_pair_terms_near_the_zeros_of_cot_round_the_exact_term(digits, monkeypatch):
    # (a - b)/2 within 1e-4 of -3 pi/2, -pi/2, pi/2 and 3 pi/2, where cot
    # loses digits: past pi it reduces by 2 pi first
    rng = random.Random(digits + 3)
    wide = numeric._context(digits + 10)
    half_pi = wide.divide(numeric.pi(digits + 10).dec, 2)
    pairs = []
    for quarter in (-3, -1, 1, 3):
        for _ in range(25):
            a = full_numeral(rng, digits)
            gap = Decimal(repr(rng.uniform(-1, 1))).scaleb(-rng.randint(4, 12))
            b = R(str(wide.subtract(a.dec, 2 * wide.fma(quarter, half_pi, gap))), digits)
            pairs.append((a, b))
    results = pair_terms(Family.TRIGONOMETRIC, digits, pairs, monkeypatch)
    assert breaches(results, digits) == []


@pytest.mark.parametrize("family", HALF_ANGLE)
def test_a_callers_decimal_context_reaches_no_phase_sum(family):
    # every pair term and pair runs under the sums' own contexts: a thread
    # context of 3 digits that traps every inexact result changes none
    rng = random.Random(17)
    points = [full_numeral(rng, 64) for _ in range(6)]
    point_phases = polys.phases(family, points, 64)
    a0, *ab = (full_numeral(rng, 64) for _ in range(7))
    p = TrigExpCoeffPoly(family, a0, tuple(ab[:3]), tuple(ab[3:]))

    def sums():
        return (pairwise_log_derivatives(family, points, point_phases, [1, 2, 1, 3, 1, 2])
                + list(eval_with_derivative(p, points[0], point_phases[0])))

    want = sums()
    with localcontext() as hostile:
        hostile.prec = 3
        hostile.traps[Inexact] = hostile.traps[Rounded] = True
        got = sums()
    assert all(same(g, v) for g, v in zip(got, want))


def test_a_point_whose_phase_overflows_takes_the_direct_kernel():
    family = Family.EXPONENTIAL
    points = [R("1e20000"), R("-1e20000"), R("1"), R("-2.5")]
    mults = [2, 1, 1, 2]
    assert [p is None for p in polys.phases(family, points, 64)] == [True, True, False, False]
    got = pairwise_at(family, points, mults)
    want = real_pairwise_log_derivatives(family, points, mults)
    assert all(same(g, w) for g, w in zip(got, want))
    x = R("-3e20000")
    assert same(log_derivative_at(family, x, points, mults),
                real_log_derivative(family, x, points, mults))


@pytest.mark.parametrize("family", HALF_ANGLE)
def test_a_coincident_pair_is_reported_with_the_phase_kernel(family):
    with pytest.raises(CoincidentPointError) as excinfo:
        pairwise_at(family, [R("1"), R("2"), R("1")], [1, 1, 1])
    assert (excinfo.value.at, excinfo.value.index) == (0, 2)
    with pytest.raises(CoincidentPointError) as excinfo:
        log_derivative_at(family, R("2"), [R("1"), R("2")], [1, 1])
    assert (excinfo.value.at, excinfo.value.index) == (None, 1)


def test_a_pair_1e_40_apart_reaches_no_cot(monkeypatch):
    # u = 5e-41: the term takes the short series at u, once, at the phases'
    # digits, and cot never runs
    calls, series = [], []
    monkeypatch.setattr(polys, "cot", lambda x, f=polys.cot: calls.append(x) or f(x))
    original = polys._small_pair_series
    monkeypatch.setattr(polys, "_small_pair_series",
                        lambda *a: series.append(a[2].prec) or original(*a))
    a = full_numeral(random.Random(40), 64)
    b = R(str(a.dec + Decimal("1e-40")), 64)
    pairwise_at(Family.TRIGONOMETRIC, [a, b], [1, 1])
    assert (len(calls), series) == (0, [64 + polys.PHASE_GUARD_DIGITS])


# -- turned phases -------------------------------------------------------


def phase_error(family, x: Real, phase, digits) -> Decimal:
    """The larger error of the phase's c and s at x/2 against a rerun at
    2 digits + 20, in units of 10**(1 - digits - PHASE_GUARD_DIGITS) on the
    phase's scale: 1 for trig, cosh(x/2) for the hyperbolic pair."""
    prec = 2 * digits + 20
    ctx = numeric._context(prec)
    pair = numeric.cos_sin if family is Family.TRIGONOMETRIC else numeric.cosh_sinh
    c, s = (t.dec for t in pair(Real(ctx.divide(x.dec, 2), prec)))
    scale = Decimal(1) if family is Family.TRIGONOMETRIC else c
    unit = ctx.multiply(scale, Decimal(1).scaleb(1 - digits - polys.PHASE_GUARD_DIGITS))
    error = max(ctx.subtract(phase.c, c).copy_abs(), ctx.subtract(phase.s, s).copy_abs())
    return ctx.divide(error, unit)


@pytest.mark.parametrize("family", HALF_ANGLE)
@pytest.mark.parametrize("digits", [64, 256])
def test_turned_phases_stay_within_their_carried_bound(family, digits):
    # 60 turns of every point, with steps from just below MAX_TURN_STEP
    # to 1e-40, at points near 0, of order 1, near a zero of cos(x/2) and,
    # for the hyperbolic pair, where cosh(x/2) is 1e60 or past coth's far
    # tail; every phase on the way must lie within 0.5 + turns * TURN_ERROR
    # units, the direct phase's 0.5 with below 1e-8 of kernel error.  The
    # turns' own recurrence is sharper: a turn grows the error it inherits
    # by at most 1 + 1.001 MAX_TURN_STEP and adds at most TURN_ERROR.
    rng = random.Random(digits + len(family.value))
    points = [R("3e-30", digits), full_numeral(rng, digits), -full_numeral(rng, digits)]
    if family is Family.TRIGONOMETRIC:
        points += [numeric.pi(digits) + R("1e-20", digits), R("-1000.5", digits)]
    else:
        points += [R("276.5", digits), R(str(-12 * (digits + 30) // 5), digits)]
    ctx = numeric._context(2 * digits + 20)
    growth = 1 + Decimal("1.001") * polys.MAX_TURN_STEP
    for turns, (at, ph) in enumerate(turned_along_paths(family, points, digits, rng, 60)):
        assert [q.turns for q in ph] == [turns] * len(points)
        errors = [phase_error(family, x, q, digits) for x, q in zip(at, ph)]
        if turns == 0:
            direct = errors
            assert all(e > 0 for e in errors)
        bound = Decimal("0.50000001") + turns * polys.TURN_ERROR
        for x, error, start in zip(at, errors, direct):
            assert error <= bound, (turns, x, error)
            drift = ctx.fma(start, ctx.power(growth, turns), turns * polys.TURN_ERROR)
            assert error <= drift, (turns, x, error)


def test_an_unmoved_point_keeps_its_phase_object():
    family, x, old = Family.TRIGONOMETRIC, R("0.7"), R("0.7001")
    (direct,) = polys.phases(family, [x], 64)
    (turned,) = polys.turned_phases(family, polys.phases(family, [old], 64), [x], 64)
    for ph in (direct, turned):
        assert polys.turned_phases(family, [ph], [x], 64)[0] is ph
    assert turned.turns == 1


@pytest.mark.parametrize("family", HALF_ANGLE)
def test_a_point_turns_from_the_nearest_serving_phase_in_its_pool(family):
    # roots at -1, 0.5, 1, 1.001, 2 (no phase), 2.0013 (a phase for 65
    # digits), 3 (a phase for 63 digits) and 3.0013; the points 1e-4 from
    # their last positions, 2e-4 from a root, on a root, midway between two
    # roots, nearer a root that serves no phase than the next root, which
    # is nearer than their last positions, and 2e-4 from another point's
    # last position
    at = [R(v) for v in ("-1", "0.5", "1", "1.001", "2", "2.0013", "3", "3.0013")]
    roots = polys.phases(family, at, 64)
    roots[4] = None
    roots[5], roots[6] = (polys.phases(family, [at[i]], d)[0] for i, d in ((5, 65), (6, 63)))
    last = [R(v) for v in ("0.6", "0.52", "0.9995", "0.9", "1.999", "2.9", "-0.5")]
    new = [R(v) for v in ("0.6001", "0.5002", "1", "1.0005", "2.0004", "3.0004", "0.9002")]
    known = polys.phases(family, last, 64)

    def turned_from(anchor, x):
        return polys.turned_phases(family, [anchor], [x], 64)[0]

    got = polys.turned_phases(family, [*roots, *known], new, 64)
    assert got[0] == turned_from(known[0], new[0]) and got[0].turns == 1
    assert got[1] == turned_from(roots[1], new[1]) and got[1].turns == 1
    assert got[2] is roots[2]
    assert got[3] == turned_from(roots[3], new[3]) != turned_from(roots[2], new[3])
    assert got[4:6] == [turned_from(roots[5], new[4]), turned_from(roots[7], new[5])]
    assert got[6] == turned_from(known[3], new[6]) and got[6].turns == 1
    assert [ph.x for ph in got] == [x.dec for x in new]
    assert {ph.digits for ph in got} == {64}
    # without roots, as for a coefficient form, each turns from the nearest
    # last position, or takes the kernel a step of MAX_TURN_STEP or more away
    plain = polys.turned_phases(family, known, new, 64)
    assert plain[:6] == [turned_from(k, x) for k, x in zip(known, new[:6])]
    assert plain[6] == got[6]
    assert [ph.turns for ph in plain] == [1, 0, 1, 0, 0, 0, 1]


def counted_pair_kernels(monkeypatch) -> list:
    calls = []
    for name in ("cos_sin", "cosh_sinh"):
        kernel = getattr(polys, name)
        monkeypatch.setattr(polys, name, lambda t, kernel=kernel: calls.append(t) or kernel(t))
    return calls


@pytest.mark.parametrize("family", HALF_ANGLE)
def test_which_phases_take_the_direct_kernel(family, monkeypatch):
    # a phase at TURN_LIMIT, one made for fewer digits and a step of
    # MAX_TURN_STEP or more take the kernel; one turn short of the limit,
    # one made for more digits and a step just below the threshold turn
    calls = counted_pair_kernels(monkeypatch)
    old = [R(v) for v in ("0.5", "1", "1.5", "2.5", "-1", "-2", "3")]
    new = [old[0] - R("1e-9"), old[1] - R("1e-9"), old[2] - R("1e-9"),
           old[3] - R(str(polys.MAX_TURN_STEP)), old[4] + R("0.000999"), old[5] + R("1e-30"),
           old[6] - R("1e-9")]
    direct = polys.phases(family, old, 64)
    start = [direct[0]._replace(turns=polys.TURN_LIMIT),
             direct[1]._replace(turns=polys.TURN_LIMIT - 1),
             polys.phases(family, [old[2]], 63)[0], *direct[3:6],
             polys.phases(family, [old[6]], 65)[0]]
    calls.clear()
    got = polys.turned_phases(family, start, new, 64)
    assert len(calls) == 3
    assert [ph.turns for ph in got] == [0, polys.TURN_LIMIT, 0, 0, 1, 1, 1]
    assert {ph.digits for ph in got} == {64}
    redone = polys.phases(family, [new[i] for i in (0, 2, 3)], 64)
    assert [got[i] for i in (0, 2, 3)] == redone


def test_an_overflowing_point_stays_on_the_direct_path(monkeypatch):
    # a point whose phase overflows is no anchor: the points at and next to
    # it take the kernel and overflow again, and one far from every
    # serving phase takes the kernel
    calls = counted_pair_kernels(monkeypatch)
    family = Family.EXPONENTIAL
    old = [R("1e20000"), R("1e20000"), R("-1e20000"), R("1")]
    new = [old[0], R("0.9999999999e20000"), R("2"), R("1.0000001")]
    start = polys.phases(family, old, 64)
    assert [ph is None for ph in start] == [True, True, True, False]
    calls.clear()
    got = polys.turned_phases(family, start, new, 64)
    assert len(calls) == 3
    assert got[:2] == [None, None]
    assert got[2] == polys.phases(family, [R("2")], 64)[0] and got[3].turns == 1


def test_the_algebraic_family_has_no_phases_to_turn():
    new = [R("1.1"), R("2")]
    assert polys.turned_phases(Family.ALGEBRAIC, [None, None], new, 64) == [None, None]


@pytest.mark.parametrize("family", list(Family))
def test_without_old_phases_every_point_takes_the_kernel(family):
    # a coefficient form's first sweep, whose pool is empty
    points = [R("0.5"), R("-1.25"), R("3e-30")]
    assert (polys.turned_phases(family, [], points, 64)
            == polys.phases(family, points, 64))


@pytest.mark.parametrize("family", HALF_ANGLE)
def test_a_known_phase_for_fewer_digits_is_no_anchor_and_one_for_more_is(family, monkeypatch):
    # A phase made for d digits serves every sum at d digits or fewer.  At
    # x itself, a phase made for 63 digits serves no 64-digit sum: the
    # root's phase 1e-4 away, made for 256 digits, is x's anchor, and no
    # kernel runs.  A phase made at x for 256 digits is kept as it is.
    rng = random.Random(41 + len(family.value))
    first = full_numeral(rng, 256)
    p = FactoredPoly(family, (first, first + R("1.5", 256)), (1, 1))
    roots = polys.root_phases(p, 256)
    x = first.with_digits(64) + R("1e-4")
    (fewer,), (more,) = (polys.phases(family, [x], d) for d in (63, 256))
    (from_root,) = polys.turned_phases(family, roots[:1], [x], 64)
    calls = counted_pair_kernels(monkeypatch)
    (got,) = polys.turned_phases(family, [fewer, *roots], [x], 64)
    assert calls == []
    assert roots[0].turns == 0
    assert got == from_root and (got.digits, got.turns) == (64, roots[0].turns + 1)
    assert polys.turned_phases(family, [fewer, more, *roots], [x], 64)[0] is more
    (alone,) = polys.turned_phases(family, [fewer], [x], 64)
    assert len(calls) == 1
    assert alone == polys.phases(family, [x], 64)[0] and alone.digits == 64


# SHA-256 of every (c, s, digits, turns) that turned_phases returns along
# the seeded paths of test_turned_phases_are_pinned.  The error account
# above TURN_GUARD_DIGITS derives each turn's error from its exact
# operations, so a turn must stay bit for bit what it is.
TURNED_PHASES_SHA256 = {
    ("trigonometric", 64):
        "66b57e31cc901d1cdd408c23db6f194b8428b965f7f6342010b57dccd26936f4",
    ("trigonometric", 256):
        "10c03745e35b35e4c4501c99e72d18318f9234c51c6a6aa658141222734691b7",
    ("exponential", 64):
        "4ed8712255fdc1c4dd239be116a3580e47b0e87cda1b9c0d5b7887553b3f498f",
    ("exponential", 256):
        "25cbee31bfd3b69ff03815e2261feab77b31d309aa09dad9012e83f795e0aeb4",
}


@pytest.mark.parametrize("family", HALF_ANGLE)
@pytest.mark.parametrize("digits", [64, 256])
def test_turned_phases_are_pinned(family, digits):
    # 12 steps of five points, one of which steps past MAX_TURN_STEP once
    # and so reruns the kernel
    rng = random.Random(digits * 5 + len(family.value))
    paths = [[full_numeral(rng, digits) for _ in range(4)] + [R("3e-30", digits)]]
    for turn in range(12):
        steps = [turn_step(rng) for _ in paths[-1]]
        if turn == 5:
            steps[0] = 2 * polys.MAX_TURN_STEP
        paths.append([x + R(str(step), digits) for x, step in zip(paths[-1], steps)])
    ph = polys.phases(family, paths[0], digits)
    digest = hashlib.sha256()
    for new in paths[1:]:
        ph = polys.turned_phases(family, ph, new, digits)
        for q in ph:
            digest.update(f"{q.c}|{q.s}|{q.digits}|{q.turns}\n".encode())
    assert [q.turns for q in ph] == [6, 12, 12, 12, 12]
    assert digest.hexdigest() == TURNED_PHASES_SHA256[family.value, digits]


# -- phases a solve turns from its roots ---------------------------------


def anchored_solve_problems(family, digits, rng):
    """Seeded factored problems with four full-length roots near -2.5,
    -0.8, 0.9 and 2.6: the first estimate starts on its root, the second
    1e-4 from it and the rest 0.05 to 0.1 away, so that their phases turn
    from the roots in sweep 1 and from sweep 2 on respectively."""
    problems = []
    for mults in ((1, 2, 1, 2), (3, 1, 1, 1), (2, 2, 2, 2), (1, 1, 1, 1)):
        roots = [R(base, digits) + full_numeral(rng, digits) * R("0.01", digits)
                 for base in ("-2.5", "-0.8", "0.9", "2.6")]
        offsets = [R("0", digits), R("1e-4", digits)]
        offsets += [R(repr(rng.uniform(0.05, 0.1)), digits) for _ in roots[2:]]
        init = [r + rng.choice((1, -1)) * offset for r, offset in zip(roots, offsets)]
        problems.append((FactoredPoly(family, tuple(roots), mults), mults, init))
    return problems


def phase_bound_violations(family, digits, monkeypatch, turned=polys.turned_phases):
    """Every phase that ``solve`` hands a sweep of the seeded problems, at
    every level of the precision ladder, against a rerun at 2 * (the
    phase's digits) + 20: [(x, turns, error)] for each phase
    outside 0.5 + turns * TURN_ERROR units, with the phases of estimates
    on a root and the phases turned at all counted.  ``turned`` stands in
    for :func:`polys.turned_phases` in ``solve``."""
    handed = []
    advance = solver._advance

    def recorded(p, estimates, profile, chebyshev, roots, own, *rest):
        handed.append((p, estimates.x, own, roots))
        return advance(p, estimates, profile, chebyshev, roots, own, *rest)

    monkeypatch.setattr(solver, "_advance", recorded)
    monkeypatch.setattr(solver, "turned_phases", turned)
    rng = random.Random(digits * 7 + len(family.value))
    for p, mults, init in anchored_solve_problems(family, digits, rng):
        solver.solve(p, solver.MultiplicityProfile(mults), solver.EstimateVector(tuple(init)))
    violations, on_root, turned = [], 0, 0
    for p, xs, own, roots in handed:
        for x, ph in zip(xs, own):
            if x.dec in p.root_set:
                assert ph is roots[p.root_decs.index(x.dec)]
                on_root += 1
            turned += ph.turns > 0
            error = phase_error(family, x, ph, ph.digits)
            if error > Decimal("0.50000001") + ph.turns * polys.TURN_ERROR:
                violations.append((x, ph.turns, error))
    return violations, on_root, turned


@pytest.mark.parametrize("family", HALF_ANGLE)
@pytest.mark.parametrize("digits", [64, 256])
def test_phases_a_solve_turns_from_its_roots_stay_within_their_bound(family, digits,
                                                                     monkeypatch):
    # An estimate's phase turns from the nearest point of its pool, the
    # roots and the estimates' last positions; one on a root keeps that
    # root's phase, made for the top's digits, at every level.
    violations, on_root, turned = phase_bound_violations(family, digits, monkeypatch)
    assert violations == []
    assert on_root > 2 and turned > 8


def test_a_turn_by_the_negated_gap_breaks_the_phase_bound(monkeypatch):
    # The property above catches a turn from a pool phase taken as the
    # phase of another point: of the mirror point 2x - r, so that the
    # phase turns by r - x instead of x - r, or of a point 1e-9 off r.
    # Each point sees the pool so moved for itself; one on a point of the
    # pool keeps that point's serving phase, a root's first.
    def moved(where):
        def turned(family, known, new, digits):
            kept = {q.x: q for q in reversed(known) if q is not None and q.digits >= digits}
            out = []
            for x in new:
                wrong = [q and q._replace(x=where(x.dec, q.x)) for q in known]
                (ph,) = polys.turned_phases(family, wrong, [x], digits)
                out.append(kept.get(x.dec, ph))
            return out
        return turned

    exact = polys._EXACT
    mirrored = moved(lambda x, r: exact.subtract(exact.multiply(2, x), r))
    shifted = moved(lambda x, r: exact.add(r, Decimal("1e-9")))
    for turned in (mirrored, shifted):
        for family in HALF_ANGLE:
            violations, *_ = phase_bound_violations(family, 64, monkeypatch, turned)
            assert len(violations) > 4, family


# -- coefficient sums in z ---------------------------------------------


def multiple_angle_points(family, digits, rng) -> list[Real]:
    """Seeded full-length points: most of order 1 to 4, where k * x needs
    more digits than x has for most k; points near a zero of cos(kx) or
    sin(kx) (trig) and near +/-pi; points near 0; and, for the hyperbolic
    pair, points up to |x| = 20."""
    points = [full_numeral(rng, digits) for _ in range(48)]
    points += [R(f"{-x.dec if rng.random() < 0.5 else x.dec}e-{e}", digits)
               for x, e in ((full_numeral(rng, digits), e) for e in (3, 30))]
    if family is Family.TRIGONOMETRIC:
        wide = numeric._context(digits + 30)
        half_pi = wide.divide(numeric.pi(digits + 30).dec, 2)
        for quarter in range(1, 9):
            k = rng.randint(1, 8)
            gap = Decimal(rng.choice((1, -1))).scaleb(-rng.randint(1, 25))
            points.append(R(str(wide.divide(wide.fma(quarter, half_pi, gap), k)), digits))
        points += [R(str(wide.fma(2 * sign, half_pi, Decimal(rng.choice((1, -1))).scaleb(-e))),
                     digits) for sign, e in ((1, 2), (-1, 5))]
    else:
        points += [R(f"{rng.uniform(-20, 20):.15f}{rng.randrange(10 ** (digits - 17))}", digits)
                   for _ in range(8)]
    return points


def z_bound_ratios(family, digits) -> list[Decimal]:
    """|p~(x) - p(x)| / e against :func:`exact_value` for seeded forms of
    degrees 1 to 10 at :func:`multiple_angle_points`, each point with the
    next degree, and for planted forms at points near their multiple roots;
    each point evaluated from its direct phase and from one turned 12 times."""
    rng = random.Random(digits * 5 + len(family.value))
    forms = []
    for n in range(1, 11):
        a0, *ab = (full_numeral(rng, digits) for _ in range(2 * n + 1))
        forms.append(TrigExpCoeffPoly(family, a0, tuple(ab[:n]), tuple(ab[n:])))
    cases = [(forms[i % 10], x) for i, x in enumerate(multiple_angle_points(family, digits, rng))]
    for roots, mults in ((("-1.25", "0.5", "2"), (3, 2, 1)), (("-0.5", "1", "1.75"), (4, 3, 3))):
        p = planted_form(family, roots, mults, digits)
        cases += [(p, R(r, digits) + sign * ten_power(-e, digits))
                  for r, m in zip(roots, mults) if m > 1
                  for e in (3, digits // m - 2, digits // m + 5) for sign in (1, -1)]
    points = [x for _, x in cases]
    direct = polys.phases(family, points, digits)
    turned = turned_along_paths(family, points, digits, rng, 12)[-1][1]
    assert all(ph.turns == 12 for ph in turned)
    ratios = []
    for (p, x), *both in zip(cases, direct, turned):
        exact = exact_value(p, x)
        for phase in both:
            value, _, bound = eval_with_derivative(p, x, phase)
            ratios.append((abs(value - exact) / bound).dec)
    return ratios


@pytest.mark.parametrize("family", HALF_ANGLE)
@pytest.mark.parametrize("digits", [64, 256])
def test_the_z_bound_holds_and_is_within_a_hundredfold(family, digits):
    # Every error lies within e, and the worst comes within a hundredth of
    # it, so a bound of e/100 fails each family at each digit count.
    ratios = z_bound_ratios(family, digits)
    assert len(ratios) > 150
    assert max(ratios) <= 1
    assert max(ratios) >= Decimal("0.01"), max(ratios)
