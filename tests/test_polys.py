import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simulroot import numeric
from simulroot.numeric import Real, make_real, ten_power
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
    log_derivative,
    newton_ratio,
    pairwise_log_derivatives,
)
from oracles import (
    frac_cos,
    frac_cosh,
    frac_cot,
    frac_coth,
    frac_sin,
    frac_sinh,
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


def test_algebraic_fixture_value_at_zero():
    value, _ = eval_with_derivative(EXAMPLE_1, R("0"))
    assert value == 108  # (2)^2 * (-1) * (-3)^3, exact in decimal arithmetic


def test_algebraic_fixture_value_at_root():
    value, derivative = eval_with_derivative(EXAMPLE_1, R("1"))
    assert value.is_zero()
    assert not derivative.is_zero()  # simple root


def test_value_and_derivative_vanish_at_multiple_root():
    value, derivative = eval_with_derivative(EXAMPLE_1, R("-2"))
    assert value.is_zero() and derivative.is_zero()
    value, derivative = eval_with_derivative(EXAMPLE_3, R("3"))
    assert value.is_zero() and derivative.is_zero()


def test_trig_fixture_value_at_zero():
    value, _ = eval_with_derivative(EXAMPLE_2, R("0"))
    oracle = (
        frac_sin(Fraction(-1, 2)) ** 3
        * frac_sin(Fraction(-1)) ** 2
        * frac_sin(Fraction(-5, 4))
    )
    assert str(value).startswith("0.0740458902545146")
    assert abs(as_fraction(value) - oracle) < Fraction(1, 10**60)


def test_exp_fixture_value_at_zero():
    value, _ = eval_with_derivative(EXAMPLE_3, R("0"))
    oracle = frac_sinh(Fraction(1)) ** 2 * frac_sinh(Fraction(-3, 2)) ** 2
    assert str(value).startswith("6.2616642232350367")
    assert abs(as_fraction(value) - oracle) < Fraction(1, 10**58)


def test_trig_coefficient_evaluation_matches_series_oracle():
    # 0.5/2 + 2 cos(x) - sin(x) + 0.25 cos(2x) + 3 sin(2x) at x = 0.7
    poly = TrigExpCoeffPoly(Family.TRIGONOMETRIC, R("0.5"), (R("2"), R("0.25")), (R("-1"), R("3")))
    x = Fraction(7, 10)
    value, derivative = eval_with_derivative(poly, R("0.7"))
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
    value, derivative = eval_with_derivative(poly, R("0.375"))
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
    assert newton_ratio(poly, R("3")) == 2


def test_newton_ratio_equals_reciprocal_log_derivative():
    ratio = newton_ratio(EXAMPLE_1, R("-3"))
    assert abs(as_fraction(ratio) - Fraction(-4, 11)) < Fraction(1, 10**60)


def test_newton_ratio_cubed_factor():
    poly = factored("algebraic", ["2"], [3])
    assert newton_ratio(poly, R("2.3")) == R("0.1")


def test_newton_ratio_is_zero_at_exact_roots():
    assert newton_ratio(EXAMPLE_1, R("-2")).is_zero()  # multiple root: 0/0 case
    assert newton_ratio(EXAMPLE_2, R("2.5")).is_zero()  # simple root


def test_newton_ratio_raises_at_stationary_point():
    poly = AlgebraicCoeffPoly((R("0"), R("-1")))  # x^2 - 1, stationary at 0
    with pytest.raises(DerivativeZeroError) as excinfo:
        newton_ratio(poly, R("0"))
    assert excinfo.value.x == 0


def test_trig_newton_ratio_matches_fraction_oracle():
    # p'/p = sum_j m_j cot((x - r_j)/2) / 2 at x = 0.5, which is not a root
    x = Fraction(1, 2)
    roots = (Fraction(1), Fraction(2), Fraction(5, 2))
    log_derivative = sum(
        Fraction(m, 2) * frac_cot((x - r) / 2) for r, m in zip(roots, (3, 2, 1))
    )
    ratio = newton_ratio(EXAMPLE_2, R("0.5"))
    assert abs(as_fraction(ratio) - 1 / log_derivative) < Fraction(1, 10**60)


def test_exp_newton_ratio_matches_fraction_oracle():
    # p'/p = sum_j m_j coth((x - r_j)/2) / 2 at x = 0, which is not a root
    log_derivative = frac_coth(Fraction(1)) + frac_coth(Fraction(-3, 2))
    ratio = newton_ratio(EXAMPLE_3, R("0"))
    assert abs(as_fraction(ratio) - 1 / log_derivative) < Fraction(1, 10**60)


def test_factored_newton_ratio_raises_where_log_derivative_vanishes():
    # roots -1 and 1: the kernel terms at x = 0 cancel exactly
    for family in ("algebraic", "trigonometric"):
        with pytest.raises(DerivativeZeroError) as excinfo:
            newton_ratio(factored(family, ["-1", "1"], [1, 1]), R("0"))
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
    v1, d1 = eval_with_derivative(poly, x)
    v2, d2 = eval_with_derivative(expanded, x)
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
    value, derivative = eval_with_derivative(poly, x)
    h = ten_power(-21)  # digits/3 for the default 64
    plus, _ = eval_with_derivative(poly, x + h)
    minus, _ = eval_with_derivative(poly, x - h)
    central = (plus - minus) / (2 * h)
    scale = abs(derivative) + abs(value) + 1
    assert abs(central - derivative) <= ten_power(-17) * scale


@pytest.mark.parametrize("family", list(Family))
def test_coefficient_form_runs_one_kernel_per_term(family, monkeypatch):
    # each term k needs (c(kx), s(kx)) and gets both from one kernel run,
    # which sums one odd series
    runs = []
    series = numeric._odd_series
    monkeypatch.setattr(numeric, "_odd_series", lambda *a: runs.append(a) or series(*a))
    if family is Family.ALGEBRAIC:
        p = AlgebraicCoeffPoly((R("1"), R("-2")))
        expected = 0
    else:
        p = TrigExpCoeffPoly(family, R("1"), (R("0.5"), R("2")), (R("-1"), R("0.25")))
        expected = 2
    eval_with_derivative(p, R("0.3"))
    assert len(runs) == expected


@pytest.mark.parametrize("family", list(Family))
@pytest.mark.parametrize("m", [2, 3, 7])
def test_pairwise_sums_equal_per_point_sums_bit_for_bit(family, m):
    rng = random.Random(m)
    points = [R(repr(rng.uniform(-3, 3))) for _ in range(m)]
    mults = [2] + [rng.randint(1, 3) for _ in range(m - 1)]
    sums = pairwise_log_derivatives(family, points, mults)
    assert len(sums) == m
    for i, total in enumerate(sums):
        others = [j for j in range(m) if j != i]
        alone = log_derivative(
            family, points[i], [points[j] for j in others], [mults[j] for j in others]
        )
        assert total.dec.compare_total(alone.dec) == 0
        assert total.digits == alone.digits


def test_pairwise_sums_report_a_coincident_pair():
    with pytest.raises(CoincidentPointError) as excinfo:
        pairwise_log_derivatives(Family.ALGEBRAIC, [R("1"), R("2"), R("1")], [1, 1, 1])
    assert (excinfo.value.at, excinfo.value.index) == (0, 2)


def full_numeral(rng: random.Random, digits: int) -> Real:
    # every digit significant, so every operation on it rounds
    fraction = rng.randrange(10 ** (digits - 1))
    return R(f"{rng.choice('+-')}{rng.randint(1, 3)}.{fraction:0{digits - 1}d}", digits)


def same(got: Real, want: Real) -> bool:
    """Equal bit for bit: the same coefficient, exponent and precision."""
    return got.dec.compare_total(want.dec) == 0 and got.digits == want.digits


@pytest.mark.parametrize("family", list(Family))
@pytest.mark.parametrize("digits", [64, 256])
def test_log_derivative_loops_match_the_real_arithmetic_reference(family, digits):
    rng = random.Random(digits)
    points = [full_numeral(rng, digits) for _ in range(6)]
    mults = [rng.randint(1, 3) for _ in points]
    assert 3 in mults
    for x in [full_numeral(rng, digits) for _ in range(3)]:
        want = real_log_derivative(family, x, points, mults)
        assert same(log_derivative(family, x, points, mults), want)
    sums = pairwise_log_derivatives(family, points, mults)
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
        if family is Family.ALGEBRAIC:
            want = real_horner(p.coeffs, x)
        else:
            want = real_trig_exp_sum(family, p.a0, p.a, p.b, x)
        got = eval_with_derivative(p, x)
        assert same(got[0], want[0]) and same(got[1], want[1])


@pytest.mark.parametrize("family", list(Family))
def test_mixed_precision_call_runs_at_the_most_digits(family):
    rng = random.Random(100)
    points = [full_numeral(rng, 100) for _ in range(4)]
    mults = [1, 2, 3, 2]
    x = full_numeral(rng, 64)
    got = log_derivative(family, x, points, mults)
    assert got.digits == 100
    assert same(got, real_log_derivative(family, x, points, mults))
