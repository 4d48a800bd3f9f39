import math
import random
import time
from decimal import Decimal, Overflow
from fractions import Fraction
from functools import cached_property

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simulroot.numeric import PhaseError, Real, make_real, pi, ten_power
from simulroot.polys import (
    AlgebraicCoeffPoly,
    FactoredPoly,
    Family,
    TrigExpCoeffPoly,
    eval_with_derivative,
    expand_algebraic,
    phases,
)
from simulroot import polys, solver
from simulroot.ingest import parse_expression, render_trace
from simulroot.solver import (
    CollisionError,
    EstimateVector,
    InsufficientDataError,
    IterationTrace,
    Method,
    MultiplicityProfile,
    RootStatus,
    SolveConfig,
    SolveReport,
    StepFailure,
    StopReason,
    correction_sum,
    empirical_order,
    pre_floor_errors,
    solve,
    wrap_to_standard_period,
)
from oracles import (
    algebraic_chebyshev_step,
    algebraic_newton_step,
    exact_iteration,
    frac_cot,
    frac_coth,
    planted_coefficients,
    real_sweep,
)

R = make_real


def as_fraction(x: Real) -> Fraction:
    return Fraction(x.dec)


def factored(family, roots, mults):
    return FactoredPoly(Family(family), tuple(R(r) for r in roots), tuple(mults))


def estimates(*values):
    return EstimateVector(tuple(R(v) for v in values))


def sweep(poly, vec, profile, method=Method.CHEBYSHEV):
    """The estimates after one sweep of solve."""
    report = solve(poly, profile, vec, SolveConfig(max_iters=1, method=method))
    assert report.failure is None, report.failure
    return report.trace.snapshots[1]


def corrections(family, vec, profile):
    """Every correction sum, from the phases a sweep gives the estimates."""
    return correction_sum(family, vec, profile, phases(family, vec.x, vec.digits))


EXAMPLE_1 = factored("algebraic", ["-2", "1", "3"], [2, 1, 3])
EXAMPLE_2 = factored("trigonometric", ["1", "2", "2.5"], [3, 2, 1])
EXAMPLE_3 = factored("exponential", ["-2", "3"], [2, 2])

PROFILE_1 = MultiplicityProfile((2, 1, 3))
PROFILE_2 = MultiplicityProfile((3, 2, 1))
PROFILE_3 = MultiplicityProfile((2, 2))

# First iteration of each worked example, as published (verified digits).
TABLE_ROW_1 = {
    1: ("-2.074075484632669380", "1.025215703994304140", "3.060848242666424480"),
    2: ("1.024086327992702930", "2.102113721613658320", "2.719836743505084910"),
    3: ("-1.936759338912996590", "3.015817214722672100"),
}


def test_correction_sum_single_root_is_zero():
    profile = MultiplicityProfile((3,))
    vec = EstimateVector((R("1.5"),))
    assert corrections(Family.ALGEBRAIC, vec, profile)[0].is_zero()


def test_correction_sum_algebraic_fixture():
    vec = estimates("-3", "0.1", "4")
    total = corrections(Family.ALGEBRAIC, vec, PROFILE_1)[0]
    # 1/(-3.1) + 3/(-7) as an exact rational
    expected = Fraction(-163, 217)
    assert str(total).startswith("-0.7511520737")
    assert abs(as_fraction(total) - expected) < Fraction(1, 10**62)


def test_correction_sum_trigonometric_fixture():
    vec = estimates("0.2", "1.7", "3")
    total = corrections(Family.TRIGONOMETRIC, vec, PROFILE_2)[0]
    expected = (2 * frac_cot(Fraction(-3, 4)) + frac_cot(Fraction(-7, 5))) / 2
    assert abs(as_fraction(total) - expected) < Fraction(1, 10**60)


def test_correction_sum_exponential_fixture():
    vec = estimates("-1.5", "3.4")
    total = corrections(Family.EXPONENTIAL, vec, PROFILE_3)[0]
    expected = 2 * frac_coth(Fraction(-49, 20)) / 2
    assert abs(as_fraction(total) - expected) < Fraction(1, 10**60)


def test_correction_sum_collision_and_bounds():
    profile = MultiplicityProfile((1, 1))
    with pytest.raises(CollisionError):
        corrections(Family.ALGEBRAIC, EstimateVector((R("2"), R("2"))), profile)


def test_estimate_vector_rejects_duplicates():
    with pytest.raises(CollisionError) as excinfo:
        EstimateVector((R("1"), R("1.0")))
    assert excinfo.value.indices == (0, 1)


@pytest.mark.parametrize(
    "values,indices,message",
    [
        # the first pair by i, then j; not the first repeat a scan meets (1, 2)
        (("1", "2", "2", "1"), (0, 3), "estimates 0 and 3 coincide at 1"),
        (("1", "2", "1", "2"), (0, 2), "estimates 0 and 2 coincide at 1"),
        (("3", "2", "5", "2.0", "2", "3.00"), (0, 5), "estimates 0 and 5 coincide at 3"),
        (("4", "-0", "7", "0"), (1, 3), "estimates 1 and 3 coincide at 0"),
    ],
)
def test_a_collision_names_the_first_pair_in_order(values, indices, message):
    with pytest.raises(CollisionError) as excinfo:
        EstimateVector(tuple(R(v) for v in values))
    assert excinfo.value.indices == indices
    assert excinfo.value.value == R(values[indices[0]])
    assert str(excinfo.value) == message


@pytest.mark.parametrize(
    "poly,profile,init,table",
    [
        (EXAMPLE_1, PROFILE_1, ("-3", "0.1", "4"), TABLE_ROW_1[1]),
        (EXAMPLE_2, PROFILE_2, ("0.2", "1.7", "3"), TABLE_ROW_1[2]),
        (EXAMPLE_3, PROFILE_3, ("-1.5", "3.4"), TABLE_ROW_1[3]),
    ],
)
def test_step_matches_published_first_iteration(poly, profile, init, table):
    nxt = sweep(poly, estimates(*init), profile)
    assert nxt.k == 1
    for computed, printed in zip(nxt.x, table):
        assert abs(computed - R(printed)) <= ten_power(-17)


def test_step_single_root_algebraic_is_exact_in_one_iteration():
    poly = factored("algebraic", ["1.25"], [5])
    profile = MultiplicityProfile((5,))
    nxt = sweep(poly, EstimateVector((R("7"),)), profile)
    assert abs(nxt.x[0] - R("1.25")) <= ten_power(-58)


def test_newton_baseline_single_root_exact():
    poly = factored("algebraic", ["2"], [4])
    profile = MultiplicityProfile((4,))
    nxt = sweep(poly, EstimateVector((R("3.7"),)), profile, Method.NEWTON_BASELINE)
    assert abs(nxt.x[0] - R("2")) <= ten_power(-58)


def test_newton_baseline_matches_rational_oracle():
    roots = [Fraction(-2), Fraction(1), Fraction(3)]
    expected = algebraic_newton_step(roots, [2, 1, 3], [Fraction(-3), Fraction(1, 10), Fraction(4)])
    nxt = sweep(EXAMPLE_1, estimates("-3", "0.1", "4"), PROFILE_1, Method.NEWTON_BASELINE)
    for computed, exact in zip(nxt.x, expected):
        assert abs(as_fraction(computed) - exact) < Fraction(1, 10**60)


def test_chebyshev_step_matches_rational_oracle():
    roots = [Fraction(-2), Fraction(1), Fraction(3)]
    expected = algebraic_chebyshev_step(
        roots, [2, 1, 3], [Fraction(-3), Fraction(1, 10), Fraction(4)]
    )
    nxt = sweep(EXAMPLE_1, estimates("-3", "0.1", "4"), PROFILE_1)
    for computed, exact in zip(nxt.x, expected):
        assert abs(as_fraction(computed) - exact) < Fraction(1, 10**58)


@pytest.mark.parametrize(
    "poly,profile,roots",
    [
        (EXAMPLE_1, PROFILE_1, ("-2", "1", "3")),
        (EXAMPLE_2, PROFILE_2, ("1", "2", "2.5")),
        (EXAMPLE_3, PROFILE_3, ("-2", "3")),
    ],
)
def test_exact_roots_are_a_fixed_point(poly, profile, roots):
    vec = estimates(*roots)
    for method in Method:
        nxt = sweep(poly, vec, profile, method)
        assert all(a == b for a, b in zip(nxt.x, vec.x))


def test_baseline_estimates_already_exact_stay_put():
    nxt = sweep(EXAMPLE_3, estimates("-2", "3"), PROFILE_3, Method.NEWTON_BASELINE)
    assert nxt.x == estimates("-2", "3").x


@pytest.mark.parametrize(
    "poly,profile,init,iters,roots,",
    [
        (EXAMPLE_1, PROFILE_1, ("-3", "0.1", "4"), 4, ("-2", "1", "3")),
        (EXAMPLE_2, PROFILE_2, ("0.2", "1.7", "3"), 5, ("1", "2", "2.5")),
        (EXAMPLE_3, PROFILE_3, ("-1.5", "3.4"), 4, ("-2", "3")),
    ],
)
def test_solve_reaches_published_accuracy(poly, profile, init, iters, roots):
    report = solve(poly, profile, estimates(*init), SolveConfig(max_iters=iters))
    final = report.trace.final()
    for x, r in zip(final.x, roots):
        assert abs(x - R(r)) <= ten_power(-18)
    assert len(report.trace.snapshots) == iters + 1


def test_solve_converges_on_tolerance():
    poly = factored("algebraic", ["1"], [1])
    profile = MultiplicityProfile((1,))
    report = solve(poly, profile, EstimateVector((R("5"),)), SolveConfig(max_iters=10))
    assert report.converged
    assert report.stop_reason is StopReason.TOLERANCE
    assert abs(report.trace.final().x[0] - 1) <= ten_power(-58)


def test_solve_reports_step_failure():
    poly = AlgebraicCoeffPoly((R("0"), R("-1")))  # x^2 - 1, stationary point at 0
    profile = MultiplicityProfile((1, 1))
    report = solve(poly, profile, estimates("0", "5"), SolveConfig(max_iters=5))
    assert not report.converged
    assert report.stop_reason is StopReason.STEP_FAILURE
    assert "index 0" in report.failure


def test_solve_far_from_the_roots_returns_a_report():
    # coth of the 1e20 separation is +/-1 to working precision; no decimal
    # signal escapes, the run simply does not converge
    report = solve(EXAMPLE_3, PROFILE_3, estimates("-1e20", "1e20"), SolveConfig(max_iters=5))
    assert not report.converged


def test_solve_reports_arithmetic_errors_as_step_failures():
    # cosh(kx), sinh(kx) at |x| = 1e25 overflow / underflow the decimal context
    poly = TrigExpCoeffPoly(Family.EXPONENTIAL, R("-1"), (R("1"),), (R("0"),))
    profile = MultiplicityProfile((1, 1))
    report = solve(poly, profile, estimates("-1e25", "1e25"), SolveConfig(max_iters=5))
    assert report.stop_reason is StopReason.STEP_FAILURE
    assert report.failure == ("step failed for root index 0: "
                              "the step overflows the decimal exponent range")
    # eval_with_derivative raises it: the phase of 1e25 overflows
    with pytest.raises(Overflow):
        eval_with_derivative(poly, R("1e25"))
    # a cause that is no decimal signal keeps its own text
    cause = CollisionError(0, 1, R("2"))
    assert str(StepFailure(1, cause)) == f"step failed for root index 1: {cause}"


def test_solve_tracks_errors_when_roots_supplied():
    report = solve(
        EXAMPLE_1,
        PROFILE_1,
        estimates("-3", "0.1", "4"),
        SolveConfig(max_iters=4),
        true_roots=tuple(R(r) for r in ("-2", "1", "3")),
    )
    errors = report.trace.errors
    assert errors is not None and len(errors) == 5
    assert errors[0] == (R("1"), R("0.9"), R("1"))
    assert max(report.trace.max_errors()[1:]) < R("0.1")


def test_solve_raises_a_value_error_where_an_error_overflows():
    # |x1 - r1| lies past the decimal exponent range, as a wrong true root
    # far from a huge estimate makes it
    huge = "9e999999999999999999"
    poly = factored("algebraic", [f"-{huge}", "2"], [1, 1])
    init = EstimateVector((R("-9.1e999999999999999999"), R("2.5")))
    with pytest.raises(ValueError, match="^the error of x1 overflows the decimal exponent range$"):
        solve(poly, MultiplicityProfile((1, 1)), init, SolveConfig(max_iters=2),
              true_roots=(R(huge), R("2")))


def test_solve_validates_profile_against_polynomial():
    with pytest.raises(ValueError):
        solve(
            EXAMPLE_1,
            MultiplicityProfile((2, 1, 2)),
            estimates("-3", "0.1", "4"),
        )


def test_default_tolerance_follows_the_estimates_digits():
    # From 100-digit estimates the tolerance is 1e-94, so the step of
    # ~2e-60, which a 1e-58 tolerance would accept, is not the last one.
    roots = tuple(make_real(r, 100) for r in ("1", "2", "2.5"))
    poly = FactoredPoly(Family.TRIGONOMETRIC, roots, (3, 2, 1))
    init = EstimateVector(tuple(make_real(v, 100) for v in ("0.2", "1.7", "3")))
    report = solve(poly, PROFILE_2, init, SolveConfig())
    steps = [max(row) for row in report.trace.step_sizes]
    assert report.converged
    assert steps[-1] <= ten_power(-94, 100) < min(steps[:-1])
    assert steps[-2] < ten_power(-58)


@pytest.mark.parametrize(
    "poly,mults",
    [(EXAMPLE_1, (2, 1, 2)), (EXAMPLE_2, (3, 2, 2)), (EXAMPLE_3, (2, 1))],
)
def test_solve_rejects_multiplicities_that_do_not_fit_the_degree(poly, mults):
    init = EstimateVector(tuple(R(str(i)) for i in range(len(mults))))
    with pytest.raises(ValueError, match=f"sum to {sum(mults)}, which does not fit a"):
        solve(poly, MultiplicityProfile(mults), init)


@settings(max_examples=25, deadline=None)
@given(st.permutations([0, 1, 2]))
def test_step_is_equivariant_under_index_permutation(perm):
    vec = ("-3", "0.1", "4")
    base = sweep(EXAMPLE_1, estimates(*vec), PROFILE_1)
    permuted_profile = MultiplicityProfile(tuple(PROFILE_1.mults[p] for p in perm))
    permuted = sweep(
        EXAMPLE_1,
        estimates(*(vec[p] for p in perm)),
        permuted_profile,
    )
    for slot, p in enumerate(perm):
        assert abs(permuted.x[slot] - base.x[p]) <= ten_power(-60)


def test_empirical_order_synthetic_cubic_sequence():
    # e_k = c * q^(3^k) with c = q = 1/2: exactly representable powers of two
    errors = [R("1") / R(str(2 ** (1 + 3**k))) for k in range(3)]
    order = empirical_order(errors)
    assert abs(order - 3) <= ten_power(-40)


def test_empirical_order_published_error_triple():
    errors = [R("7.40754846e-2"), R("1.04622198e-4"), R("2.5695e-14")]
    order = empirical_order(errors)
    expected = math.log(2.5695e-14 / 1.04622198e-4) / math.log(1.04622198e-4 / 7.40754846e-2)
    assert abs(order - R(f"{expected:.12f}")) < R("1e-9")
    assert str(order).startswith("3.37")


def test_empirical_order_geometric_sequence_is_linear():
    errors = [R("1") / (R("2") ** k) for k in range(1, 6)]
    assert abs(empirical_order(errors) - 1) <= ten_power(-40)


def test_empirical_order_insufficient_data():
    with pytest.raises(InsufficientDataError):
        empirical_order([R("1"), R("0.5")])
    with pytest.raises(InsufficientDataError):
        empirical_order([R("1"), R("0.5"), R("0.5")])
    with pytest.raises(InsufficientDataError):
        empirical_order([R("1"), R("0"), R("0")])


def test_pre_floor_errors_strips_floor_and_stalls():
    errors = [R("1"), R("1e-3"), R("1e-9"), R("1e-27"), R("1e-60"), R("0")]
    assert pre_floor_errors(errors, 64) == [R("1"), R("1e-3"), R("1e-9"), R("1e-27")]
    stalled = [R("1"), R("0.5"), R("0.5"), R("0.25")]
    assert pre_floor_errors(stalled, 64) == [R("1"), R("0.5")]


def test_wrap_to_standard_period():
    three_half_pi = 3 * pi(64) / 2
    wrapped = wrap_to_standard_period(three_half_pi)
    assert abs(wrapped + pi(64) / 2) <= ten_power(-60)
    assert wrap_to_standard_period(R("1")) == 1
    at_pi = wrap_to_standard_period(pi(64))
    assert abs(at_pi + pi(64)) <= ten_power(-60)


def test_wrap_to_standard_period_needs_a_digit_of_phase():
    assert -pi(64) <= wrap_to_standard_period(R("9.999e63")) < pi(64)
    for x in ("1e64", "-1e64", "1e20000"):
        with pytest.raises(ValueError, match="no digit of its phase"):
            wrap_to_standard_period(R(x))


def test_solve_leaves_huge_algebraic_estimates_alone():
    poly = factored("algebraic", ["1", "-1"], [1, 1])
    init = EstimateVector((R("1e20000"), R("2")))
    report = solve(poly, MultiplicityProfile((1, 1)), init, SolveConfig(max_iters=2))
    assert report.stop_reason is StopReason.MAX_ITERS
    assert len(report.trace.snapshots) == 3


def test_a_huge_exponential_estimate_whose_step_leaves_no_units_digit_is_a_step_failure():
    # Its O(1) step rounds away at 1e20000: a zero step would meet the
    # tolerance and stop the solve with x1 off its root and root -1 unfound.
    poly = factored("exponential", ["1", "-1"], [1, 1])
    init = EstimateVector((R("1e20000"), R("2")))
    report = solve(poly, MultiplicityProfile((1, 1)), init)
    assert report.stop_reason is StopReason.STEP_FAILURE
    assert report.failure == ("step failed for root index 0: the new estimate has no digit "
                              "of its phase left at 64 digits")
    assert len(report.trace.snapshots) == 1


@pytest.mark.parametrize("periods", [1, -3])
def test_solve_rejects_trigonometric_estimates_whole_periods_apart(periods):
    poly = factored("trigonometric", ["1", "-1"], [1, 1])
    init = EstimateVector((R("1.1"), R("1.1") + periods * 2 * pi(64)))
    with pytest.raises(CollisionError) as excinfo:
        solve(poly, MultiplicityProfile((1, 1)), init)
    assert excinfo.value.indices == (0, 1)


def test_a_sweep_that_leaves_the_phase_behind_is_a_step_failure():
    # a0 = -1e30000 throws the first sweep to |x| ~ 1e59998, where sin(kx)
    # would cost seconds and mean nothing
    poly = TrigExpCoeffPoly(
        Family.TRIGONOMETRIC, R("-1e30000", 40), (R("0.05", 40), R("1e-40", 40)),
        (R("7.4", 40), R("2.5", 40)),
    )
    start = time.perf_counter()
    report = solve(poly, MultiplicityProfile((2, 2)),
                   EstimateVector((R("0.5", 40), R("1", 40))), SolveConfig(max_iters=2))
    assert time.perf_counter() - start < 1
    assert report.stop_reason is StopReason.STEP_FAILURE
    assert report.failure == (
        "step failed for root index 0: the new estimate has no digit of its phase left at 40 digits"
    )


# -- one sweep against the Real-arithmetic reference ----------------------


def planted(family, roots, mults, digits):
    """The coefficient form of the planted roots at ``digits`` digits."""
    coeffs = planted_coefficients(family, roots, mults, digits + 10)
    if family == "algebraic":
        return AlgebraicCoeffPoly(tuple(make_real(a, digits) for a in coeffs))
    a0, a, b = coeffs
    return TrigExpCoeffPoly(Family(family), make_real(a0, digits),
                            tuple(make_real(v, digits) for v in a),
                            tuple(make_real(v, digits) for v in b))


def seeded_factored(m, digits):
    """An algebraic factored form of m seeded roots, each started 0.01 off."""
    rng = random.Random(m)
    roots = [f"{j - m // 2}.{rng.randrange(10 ** 30):030d}" for j in range(m)]
    mults = tuple(rng.randint(1, 3) for _ in roots)
    poly = FactoredPoly(Family.ALGEBRAIC, tuple(make_real(r, digits) for r in roots), mults)
    init = [str(Decimal(r) + Decimal(rng.choice(("0.01", "-0.01")))) for r in roots]
    return poly, mults, init, digits


# (polynomial, multiplicities, initial estimates, digits, roots frozen by
# the sweep or None for a step failure)
SWEEPS = {
    "algebraic factored": (EXAMPLE_1, (2, 1, 3), ("-3", "0.1", "4"), 64, frozenset()),
    "algebraic factored, m = 30": (*seeded_factored(30, 256), frozenset()),
    "trigonometric factored": (EXAMPLE_2, (3, 2, 1), ("0.2", "1.7", "3"), 64, frozenset()),
    "exponential factored": (EXAMPLE_3, (2, 2), ("-1.5", "3.4"), 64, frozenset()),
    # x (x - 1) (x - 2)^3 with the triple root's estimate within its floor
    "algebraic coefficients, a root at its floor": (
        planted("algebraic", ["0", "1", "2"], [1, 1, 3], 64), (1, 1, 3),
        ("0.1", "1.1", "2.000000000000000000001"), 64, frozenset({2})),
    # (x - 1)^3, where p' rounds to 0 while p is within its floor
    "algebraic coefficients, p' 0 at the floor": (
        AlgebraicCoeffPoly((R("-3"), R("3"), R("-1"))), (3,),
        ("0.99999999999999999999999999999999",), 64, frozenset({0})),
    "trigonometric coefficients": (
        planted("trigonometric", ["-1", "0.5", "2"], [1, 3, 2], 64), (1, 3, 2),
        ("-1.02", "0.51", "2.03"), 64, frozenset()),
    "exponential coefficients": (
        planted("exponential", ["-1", "1"], [3, 1], 256), (3, 1), ("-1.01", "1.02"), 256,
        frozenset()),
    # the first sweep throws x_1 to |x| ~ 1e59998: no digit of its phase is left
    "trigonometric coefficients, the phase left behind": (
        TrigExpCoeffPoly(Family.TRIGONOMETRIC, R("-1e30000", 40),
                         (R("0.05", 40), R("1e-40", 40)), (R("7.4", 40), R("2.5", 40))),
        (2, 2), ("0.5", "1"), 40, None),
}


def at_the_top(monkeypatch):
    """Run every sweep at the estimates' digits, the top of the precision
    ladder, as a solve at 128 digits or fewer does."""
    monkeypatch.setattr(solver, "_level", lambda p, estimates, mults, steps, last, top: top,
                        raising=False)  # a solve without the ladder has no _level


@pytest.mark.parametrize("method", list(Method))
@pytest.mark.parametrize("case", sorted(SWEEPS))
def test_one_sweep_equals_the_real_arithmetic_reference(case, method, monkeypatch):
    at_the_top(monkeypatch)
    poly, mults, init, digits, frozen = SWEEPS[case]
    profile = MultiplicityProfile(mults)
    start = EstimateVector(tuple(make_real(v, digits) for v in init))
    report = solve(poly, profile, start, SolveConfig(max_iters=1, method=method))
    tolerance = ten_power(6 - digits, digits)
    chebyshev = method is Method.CHEBYSHEV
    if frozen is None:
        with pytest.raises(StepFailure) as excinfo:
            real_sweep(poly, start, profile, chebyshev, tolerance)
        assert report.stop_reason is StopReason.STEP_FAILURE
        assert report.failure == str(excinfo.value)
        return
    snapshot, steps, want_frozen = real_sweep(poly, start, profile, chebyshev, tolerance)
    assert report.failure is None and report.frozen == want_frozen == frozen
    (got_steps,) = report.trace.step_sizes
    for got, want in zip(report.trace.snapshots[1].x + got_steps, snapshot.x + steps):
        assert got.dec.compare_total(want.dec) == 0 and got.digits == want.digits


def on_root(root: str, digits: int) -> str:
    """The root written out to ``digits`` significant digits."""
    value = Decimal(root)
    return format(value, f".{digits - 1 - value.adjusted()}f")


def seeded_on_roots(m, digits):
    """seeded_factored with every third estimate on its root, written out
    or short by turns."""
    poly, mults, init, digits = seeded_factored(m, digits)
    init = list(init)
    for j in range(0, m, 3):
        root = str(poly.roots[j].dec)
        init[j] = on_root(root, digits) if j % 2 else root[:6]
    return poly, mults, tuple(init), digits


# Vectors with estimates on their roots, short (``1``) and written out to
# the working digits (``1.000…0``): either is settled, and keeps its
# numeral.
ON_ROOT_SWEEPS = {
    "algebraic factored": (EXAMPLE_1, (2, 1, 3), ("-2", "0.1", on_root("3", 64)), 64),
    "algebraic factored, every estimate settled": (
        EXAMPLE_1, (2, 1, 3), tuple(on_root(r, 64) for r in ("-2", "1", "3")), 64),
    "algebraic factored, m = 30": seeded_on_roots(30, 64),
    "trigonometric factored": (EXAMPLE_2, (3, 2, 1), ("1", on_root("2", 64), "3"), 64),
    "exponential factored": (EXAMPLE_3, (2, 2), (on_root("-2", 256), "3"), 256),
    "algebraic coefficients": (
        planted("algebraic", ["0", "1", "2"], [1, 1, 3], 64), (1, 1, 3),
        ("0", on_root("1", 64), "2"), 64),
    "trigonometric coefficients": (
        planted("trigonometric", ["-1", "0.5", "2"], [1, 3, 2], 64), (1, 3, 2),
        ("-1", on_root("0.5", 64), "2.03"), 64),
}


@pytest.mark.parametrize("method", list(Method))
@pytest.mark.parametrize("case", sorted(ON_ROOT_SWEEPS))
def test_a_sweep_from_estimates_on_their_roots_equals_the_full_correction_reference(
        case, method, monkeypatch):
    # the reference runs every root's ratio and a full correction pass
    at_the_top(monkeypatch)
    poly, mults, init, digits = ON_ROOT_SWEEPS[case]
    profile = MultiplicityProfile(mults)
    start = EstimateVector(tuple(make_real(v, digits) for v in init))
    report = solve(poly, profile, start, SolveConfig(max_iters=1, method=method))
    tolerance = ten_power(6 - digits, digits)
    snapshot, steps, frozen = real_sweep(poly, start, profile, method is Method.CHEBYSHEV,
                                         tolerance)
    assert report.failure is None and report.frozen == frozen
    (got_steps,) = report.trace.step_sizes
    assert ([(str(x.dec), x.digits) for x in report.trace.snapshots[1].x + got_steps]
            == [(str(x.dec), x.digits) for x in snapshot.x + steps])


def climbing_sweeps():
    poly, mults, init, _ = seeded_factored(30, 256)
    return {
        "algebraic factored, m = 30": (poly, mults, lambda digits: init),
        "exponential factored, an estimate on its root": (
            EXAMPLE_3, (2, 2), lambda digits: (on_root("-2", digits), "3.4")),
    }


# 256-digit factored solves, whose first sweep runs below 256 digits: each
# case's start written out for any number of digits
CLIMBING_SWEEPS = climbing_sweeps()


@pytest.mark.parametrize("method", list(Method))
@pytest.mark.parametrize("case", sorted(CLIMBING_SWEEPS))
def test_the_first_sweep_of_a_climbing_solve_equals_the_reference_at_its_level(case, method):
    # The sweep equals the reference sweep from the start written to the
    # digits the sweep ran at, an estimate on its root written out to all
    # of them.
    poly, mults, init = CLIMBING_SWEEPS[case]
    profile = MultiplicityProfile(mults)
    start = EstimateVector(tuple(make_real(v, 256) for v in init(256)))
    report = solve(poly, profile, start, SolveConfig(max_iters=1, method=method))
    level = report.trace.snapshots[1].digits
    assert level < 256
    start = EstimateVector(tuple(make_real(v, level) for v in init(level)))
    snapshot, steps, frozen = real_sweep(poly, start, profile, method is Method.CHEBYSHEV,
                                         ten_power(6 - level, level))
    assert report.failure is None and report.frozen == frozen == frozenset()
    (got_steps,) = report.trace.step_sizes
    assert ([(str(x.dec), x.digits) for x in report.trace.snapshots[1].x + got_steps]
            == [(str(x.dec), x.digits) for x in snapshot.x + steps])


@pytest.mark.parametrize("ratio_fails,update_fails,named", [(2, 0, 0), (0, 2, 0), (1, 1, 1)])
def test_a_sweep_reports_the_first_root_in_order_that_fails(ratio_fails, update_fails, named,
                                                            monkeypatch):
    # A sweep takes every Newton ratio before any update, yet the failure
    # it reports is the first in root order, whichever step it came from.
    init = estimates("0.2", "1.7", "3")
    newton_ratio = solver.newton_ratio

    def ratio(p, x, *args):
        if x is init.x[ratio_fails]:
            raise polys.DerivativeZeroError(x)
        return newton_ratio(p, x, *args)

    def check_phase(x, name):
        if name == "the new estimate":
            if len(updates) == update_fails:
                raise PhaseError("no digit of its phase left")
            updates.append(x)
        return x

    updates = []
    monkeypatch.setattr(solver, "newton_ratio", ratio)
    monkeypatch.setattr(solver, "check_phase", check_phase)
    report = solve(EXAMPLE_2, MultiplicityProfile((3, 2, 1)), init, SolveConfig(max_iters=1))
    assert report.stop_reason is StopReason.STEP_FAILURE
    assert report.failure.startswith(f"step failed for root index {named}: ")
    cause = "no digit" if update_fails < ratio_fails else "derivative rounds to zero"
    assert cause in report.failure


def test_an_algebraic_solve_makes_no_phases(monkeypatch):
    # neither the phase kernel nor a turn's short series runs
    calls = []
    for name in ("cos_sin", "cosh_sinh", "_small_pair_series"):
        monkeypatch.setattr(polys, name, lambda *a, name=name: calls.append(name))
    report = solve(EXAMPLE_1, PROFILE_1, estimates("-3", "0.1", "4"))
    assert report.converged and calls == []


# -- the attainable-accuracy floor ----------------------------------------


def test_multiple_roots_of_a_coefficient_form_freeze_at_their_floor():
    # roots 0..5 with multiplicities 1,2,3,1,2,3 at 256 digits: without
    # freezing the triple roots reach steps of ~1e-45, and the next sweep
    # throws them 3.0 off until max_iters
    mults = (1, 2, 3, 1, 2, 3)
    roots = tuple(make_real(str(r), 256) for r in range(6))
    poly = expand_algebraic(FactoredPoly(Family.ALGEBRAIC, roots, mults))
    init = EstimateVector(
        tuple(make_real(v, 256) for v in ("0.05", "1.04", "1.96", "3.03", "4.05", "4.96"))
    )
    report = solve(poly, MultiplicityProfile(mults), init)
    assert report.stop_reason is StopReason.ACCURACY_FLOOR and not report.converged
    assert len(report.trace.step_sizes) <= 10
    for x, r, m in zip(report.trace.final().x, roots, mults):
        # (1e10 * 10^-256)^(1/m), as perfbench's planted-root check
        assert abs(x - r) ** m <= ten_power(10 - 256, 256)
    assert {RootStatus.FROZEN} <= set(report.root_status) <= {
        RootStatus.FROZEN, RootStatus.CONVERGED}
    assert report.frozen >= {1, 2, 4, 5}
    # a frozen root keeps its estimate, so its last step is 0
    assert all(report.trace.step_sizes[-1][i].is_zero() for i in report.frozen)


CUBE = AlgebraicCoeffPoly((R("-3"), R("3"), R("-1")))  # (x - 1)^3


def test_a_derivative_that_rounds_to_zero_at_the_floor_freezes_the_root():
    x = R("1") - ten_power(-32)
    value, derivative, bound = eval_with_derivative(CUBE, x)
    assert derivative.is_zero() and not value.is_zero() and abs(value) <= bound
    report = solve(CUBE, MultiplicityProfile((3,)), EstimateVector((x,)))
    assert report.stop_reason is StopReason.ACCURACY_FLOOR
    assert report.root_status == (RootStatus.FROZEN,)
    assert report.trace.final().x == (x,) and len(report.trace.step_sizes) == 1


def test_a_derivative_zero_above_the_floor_is_still_a_step_failure():
    poly = AlgebraicCoeffPoly((R("0"), R("1")))  # x^2 + 1, stationary at 0
    value, derivative, bound = eval_with_derivative(poly, R("0"))
    assert derivative.is_zero() and abs(value) > bound
    report = solve(poly, MultiplicityProfile((1, 1)), estimates("0", "5"))
    assert report.stop_reason is StopReason.STEP_FAILURE
    assert "derivative rounds to zero" in report.failure and not report.frozen


def test_a_step_that_meets_the_tolerance_is_taken_at_the_floor():
    # at the exact triple root p = 0: the zero step is a converged one
    report = solve(CUBE, MultiplicityProfile((3,)), estimates("1"))
    assert report.stop_reason is StopReason.TOLERANCE and report.converged
    assert report.root_status == (RootStatus.CONVERGED,)
    # simple roots end within the tolerance, with |p| at its floor on the way
    roots = tuple(R(str(r)) for r in range(5))
    poly = expand_algebraic(FactoredPoly(Family.ALGEBRAIC, roots, (1,) * 5))
    report = solve(poly, MultiplicityProfile((1,) * 5), estimates("0.1", "1.1", "2.1", "2.9", "3.9"))
    assert report.stop_reason is StopReason.TOLERANCE and not report.frozen


def test_factored_forms_never_freeze():
    report = solve(EXAMPLE_1, PROFILE_1, estimates("-3", "0.1", "4"))
    assert report.stop_reason is StopReason.TOLERANCE and not report.frozen


@pytest.mark.parametrize(
    "stop,frozen,statuses",
    [
        (StopReason.TOLERANCE, frozenset(), ("converged", "converged")),
        (StopReason.ACCURACY_FLOOR, frozenset({1}), ("converged", "frozen")),
        (StopReason.MAX_ITERS, frozenset({0}), ("frozen", "unconverged")),
        (StopReason.STEP_FAILURE, frozenset(), ("unconverged", "unconverged")),
    ],
)
def test_root_status_follows_the_frozen_roots_and_the_stop(stop, frozen, statuses):
    trace = IterationTrace(snapshots=(estimates("1", "2"),), step_sizes=())
    report = SolveReport(trace=trace, stop_reason=stop, frozen=frozen)
    assert [status.value for status in report.root_status] == list(statuses)


# -- the precision ladder against the exact iteration ---------------------
#
# A factored solve may run its early sweeps at fewer digits than its
# estimates carry.  Each snapshot must then stay within 10^(10 - p_k) of
# the exact iteration, p_k the digits the snapshot carries (its guard
# digits are all a lower level may lose), and the final estimates must
# equal those of the solve that runs every sweep at the estimates' digits
# (``solver._level`` patched to return them), or lie within a unit in
# their last digit of the exact iteration (``oracles.exact_iteration``).


def ladder_problem(family, m, digits, long_roots):
    """A seeded factored problem: roots spread as the benchmark's are, to 6
    decimals or carrying all ``digits`` digits, multiplicities 1-3, each
    estimate a quarter of the paper's convergence radius off its root."""
    rng = random.Random(f"ladder:{family}:{m}:{digits}:{long_roots}")
    if family == "trigonometric":
        gap = 2 * math.pi / m
        points = [-math.pi + (i + 0.5 + rng.uniform(-0.2, 0.2)) * gap for i in range(m)]
    else:
        points = [i - (m - 1) / 2 + rng.uniform(-0.2, 0.2) for i in range(m)]
    roots = [f"{x:.6f}" + ("".join(rng.choice("0123456789") for _ in range(digits))
                           if long_roots else "") for x in points]
    mults = [1 + i % 3 for i in range(m)]
    rng.shuffle(mults)
    if family != "algebraic" and sum(mults) % 2:
        mults[mults.index(max(mults))] -= 1
    spread = sorted(points)
    gaps = [b - a for a, b in zip(spread, spread[1:])]
    if family == "trigonometric":
        gaps.append(2 * math.pi - (spread[-1] - spread[0]))
    offset = min(gaps) / (4 * sum(mults))
    init = [f"{x + rng.choice((-1, 1)) * offset:.9f}" for x in points]
    poly = FactoredPoly(Family(family), tuple(make_real(r, digits) for r in roots), tuple(mults))
    return poly, MultiplicityProfile(tuple(mults)), EstimateVector(
        tuple(make_real(x, digits) for x in init))


LADDER_CASES = [(family, m, digits, long_roots)
                for family in ("algebraic", "trigonometric", "exponential")
                for m in (3, 6, 10) for digits in (64, 256) for long_roots in (False, True)]


@pytest.mark.parametrize("family,m,digits,long_roots", LADDER_CASES)
def test_the_precision_ladder_tracks_the_exact_iteration(family, m, digits, long_roots,
                                                         monkeypatch):
    poly, profile, init = ladder_problem(family, m, digits, long_roots)
    report = solve(poly, profile, init)
    assert report.stop_reason is StopReason.TOLERANCE
    snapshots = report.trace.snapshots
    exact = exact_iteration(poly, profile, init, len(snapshots) - 1, digits)
    for snap, row in zip(snapshots, exact):
        for x, truth in zip(snap.x, row):
            scale = max(Fraction(1), abs(truth))
            assert abs(as_fraction(x) - truth) <= Fraction(10) ** (10 - snap.digits) * scale
    at_the_top(monkeypatch)
    full = solve(poly, profile, init)
    assert full.stop_reason is StopReason.TOLERANCE
    for x, y, truth in zip(report.trace.final().x, full.trace.final().x, exact[-1]):
        if x != y:
            ulp = Fraction(10) ** (x.dec.adjusted() - digits + 1)
            assert abs(as_fraction(x) - truth) <= ulp


NEAR_ONE = "1." + "0" * 99 + "1"  # 1 + 1e-100


@pytest.mark.parametrize("roots,init,level", [
    (("0", "3"), ("0.1", "2.9"), 64),
    (("0", "3"), ("1", NEAR_ONE), 256),
])
def test_a_level_at_which_two_estimates_meet_is_the_top(roots, init, level):
    # Sweep 1 of these 256-digit solves would run at 64 digits, where
    # estimates 1e-100 apart are one value: it runs at the top.
    poly = FactoredPoly(Family.ALGEBRAIC, tuple(make_real(r, 256) for r in roots), (1, 1))
    start = EstimateVector(tuple(make_real(x, 256) for x in init))
    report = solve(poly, MultiplicityProfile((1, 1)), start, SolveConfig(max_iters=1))
    assert [snap.digits for snap in report.trace.snapshots] == [256, level]


def test_roots_that_meet_at_a_level_leave_the_ladder_to_the_estimates():
    # Roots 1 and 1 + 1e-100 are one value at 64 digits, but no root is
    # rounded to a level, so sweep 1 runs there.  The estimates close in on
    # the pair, which acts as a double root, by 3/8 per sweep; once two
    # share all but 10 of the level's digits the solve climbs to the top,
    # which tells the roots apart.  At 64 digits throughout they would meet.
    poly = FactoredPoly(Family.ALGEBRAIC, (make_real("1", 256), make_real(NEAR_ONE, 256)), (1, 1))
    start = EstimateVector((make_real("0.9", 256), make_real("1.2", 256)))
    report = solve(poly, MultiplicityProfile((1, 1)), start, SolveConfig(max_iters=300))
    levels = [snap.digits for snap in report.trace.snapshots]
    assert levels[:2] == [256, 64] and levels[-1] == 256
    assert report.stop_reason is StopReason.TOLERANCE
    assert sorted(report.trace.final().x) == list(poly.roots)


def coefficient_ladder_problem(family, mults, digits, seed):
    """A seeded coefficient form of planted roots (:func:`planted`) spread
    and started as in :func:`ladder_problem`, with its planted roots."""
    rng = random.Random(f"coefficient ladder:{family}:{mults}:{digits}:{seed}")
    m = len(mults)
    if family == "trigonometric":
        low, gap = -math.pi, 2 * math.pi / m
    else:
        low, gap = -m / 2, 1.0
    points = [low + (i + 0.5 + rng.uniform(-0.2, 0.2)) * gap for i in range(m)]
    gaps = [b - a for a, b in zip(points, points[1:])]
    if family == "trigonometric":
        gaps.append(2 * math.pi - (points[-1] - points[0]))
    offset = min(gaps) / (4 * sum(mults))
    roots = [f"{x:.6f}" for x in points]
    init = [f"{x + rng.choice((-1, 1)) * offset:.9f}" for x in points]
    return (planted(family, roots, mults, digits), MultiplicityProfile(mults),
            EstimateVector(tuple(make_real(x, digits) for x in init)), roots)


# (family, multiplicities, digits, seed); in the last case the triple
# root reads its floor at 121 digits, far below the top, and is held there
COEFFICIENT_LADDER_CASES = [
    (family, mults, digits, 0)
    for family, simple, multiple in (("algebraic", (1, 1, 1, 1, 1), (1, 2, 3, 1)),
                                     ("trigonometric", (1, 1), (1, 3)),
                                     ("exponential", (1, 1, 1, 1), (3, 1)))
    for mults in (simple, multiple) for digits in (64, 256)
] + [("algebraic", (1, 2, 3, 1), 256, 48)]


@pytest.mark.parametrize("family,mults,digits,seed", COEFFICIENT_LADDER_CASES)
def test_the_precision_ladder_tracks_the_exact_iteration_on_a_coefficient_form(
        family, mults, digits, seed, monkeypatch):
    # The gate above, against the exact iteration on the stored
    # coefficients, with two changes that multiple roots need.  A root of
    # multiplicity m_i is known only to its cluster radius: rounding the
    # coefficients to p digits splits it into m_i roots about 10^(-p/m_i)
    # apart, and even the solve at the top strays from the exact iteration
    # by more than 10^(10 - p) there (10^-30.8 against 10^-54 for a
    # trigonometric triple root at 64 digits).  So its estimate is held to
    # (10^(10 - p_k))^(1/m_i).  And the other roots' corrections carry
    # that noise, times the square of their Newton ratios, into their own
    # paths, so with a multiple root each sweep is held to the exact sweep
    # from its own input, not to the exact path from the start.  A root
    # that a sweep leaves where it was (held or frozen at its floor, or
    # settled) is not compared: the exact sweep would run on into the
    # cluster, where a step that assumes m_i throws it off.  A final that
    # differs from the all-top solve's lies, for a simple root, within its
    # attainable accuracy (|p~(x)| + e)/|p~'(x)| (e the bound of
    # eval_with_derivative) and a unit in its last digit of the exact
    # iteration; a multiple or frozen root, within the benchmark's bound
    # (10^(10 - digits))^(1/m_i) of its planted root.
    poly, profile, init, roots = coefficient_ladder_problem(family, mults, digits, seed)
    report = solve(poly, profile, init)
    assert report.stop_reason in (StopReason.TOLERANCE, StopReason.ACCURACY_FLOOR)
    snapshots = report.trace.snapshots
    assert digits <= 128 or min(snap.digits for snap in snapshots) < digits
    simple = set(mults) == {1}

    def within(x, truth, m, p):
        scale = max(Fraction(1), abs(truth))
        return (abs(as_fraction(x) - truth) / scale) ** m <= Fraction(10) ** (10 - p)

    for before, after in zip(snapshots, snapshots[1:]):
        _, row = exact_iteration(poly, profile, before, 1, digits)
        assert all(within(x, truth, m, after.digits)
                   for x0, x, truth, m in zip(before.x, after.x, row, mults) if x != x0)
    at_the_top(monkeypatch)
    full = solve(poly, profile, init)
    assert full.stop_reason in (StopReason.TOLERANCE, StopReason.ACCURACY_FLOOR)
    sweeps = max(len(snapshots), len(full.trace.snapshots)) - 1
    exact = exact_iteration(poly, profile, init, sweeps, digits)
    if simple:
        for snap, row in zip(snapshots, exact):
            assert all(within(x, truth, 1, snap.digits) for x, truth in zip(snap.x, row))
    for i, (x, y, truth) in enumerate(zip(report.trace.final().x, full.trace.final().x,
                                          exact[-1])):
        if x == y:
            continue
        if mults[i] > 1 or i in report.frozen | full.frozen:
            error = abs(as_fraction(x) - Fraction(roots[i]))
            assert error ** mults[i] <= Fraction(10) ** (10 - digits)
        else:
            value, derivative, bound = map(as_fraction, eval_with_derivative(poly, x))
            ulp = Fraction(10) ** (x.dec.adjusted() - digits + 1)
            assert abs(as_fraction(x) - truth) <= (abs(value) + bound) / abs(derivative) + ulp


def test_roots_with_more_digits_than_the_estimates_take_every_term_from_phases(monkeypatch):
    # Six trig roots whose shifts carry 67 digits, parsed at 80 digits and
    # solved from 64-digit estimates 0.02 off: the solve runs at the
    # estimates' 64 digits on the roots as given, so every pair term comes
    # from the phases (no cot runs; with the roots' phases at 80 digits all
    # 162 terms took cot).  It takes as many sweeps as the same expression
    # parsed at 64 digits, whose roots are rounded, and ends on equal
    # estimates; the sweeps between may differ in their last digit.
    rng = random.Random(6)
    shifts = [c + "".join(rng.choice("0123456789") for _ in range(66))
              for c in ("-2.6", "-1.6", "-0.5", "0.5", "1.6", "2.6")]
    expr = "*".join(f"sin((x{'+' + s[1:] if s.startswith('-') else '-' + s})/2)" for s in shifts)
    init = EstimateVector(tuple(make_real(s, 30) + make_real("0.02", 30) for s in shifts))
    init = EstimateVector(tuple(x.with_digits(64) for x in init.x))
    calls = []
    cot = polys.cot
    monkeypatch.setattr(polys, "cot", lambda t: calls.append(t) or cot(t))
    report = solve(parse_expression(expr, 80), MultiplicityProfile((1,) * 6), init)
    assert report.converged and calls == []
    short = solve(parse_expression(expr, 64), MultiplicityProfile((1,) * 6), init)
    assert len(report.trace.snapshots) == len(short.trace.snapshots)
    assert report.trace.final().x == short.trace.final().x


def counted_property(monkeypatch, cls, name, made):
    """Replace the cached property ``name`` of ``cls`` by one that appends
    its name to ``made`` each time it is computed."""
    compute = vars(cls)[name].func

    def counted(self):
        made.append(name)
        return compute(self)

    prop = cached_property(counted)
    prop.__set_name__(cls, name)
    monkeypatch.setattr(cls, name, prop)


@pytest.mark.parametrize("form", ["factored", "coefficient"])
def test_a_climbing_solve_hands_every_newton_ratio_the_callers_form(form, monkeypatch):
    # No solve copies or rounds its form: a 256-digit solve that climbs
    # the ladder runs every Newton ratio on the form it was given, whose
    # cached Decimals it makes once, whatever the level.  The factored
    # form's roots carry all 256 digits, so rounding them would move them.
    if form == "factored":
        poly, profile, init = ladder_problem("trigonometric", 6, 256, True)
        names = ["root_decs", "root_set"]
    else:
        poly, profile, init, _ = coefficient_ladder_problem("trigonometric", (1, 1), 256, 0)
        names = ["z_runs"]
    made = []
    for name in names:
        counted_property(monkeypatch, type(poly), name, made)
    handed = []
    newton_ratio = solver.newton_ratio
    monkeypatch.setattr(solver, "newton_ratio", lambda p, *args: handed.append(p)
                        or newton_ratio(p, *args))
    report = solve(poly, profile, init)
    assert report.stop_reason is StopReason.TOLERANCE
    assert len({snap.digits for snap in report.trace.snapshots}) > 1
    assert handed and all(p is poly for p in handed)
    assert sorted(made) == names


@pytest.mark.parametrize("family", ["trigonometric", "exponential"])
def test_a_solve_does_not_depend_on_the_solves_before_it(family, monkeypatch):
    # The roots' phases are kept per solve: a 64-digit solve hands its
    # sweeps the kernel's phases at 64 digits, and writes the same trace,
    # whether or not a 256-digit solve ran on the same form first.
    poly, profile, init = ladder_problem(family, 6, 256, True)
    short = EstimateVector(tuple(x.with_digits(64) for x in init.x))
    fresh = FactoredPoly(poly.family, poly.roots, poly.mults)
    solve(poly, profile, init)
    handed = []
    turned = solver.turned_phases

    def recorded(family, known, new, digits):
        handed.append(known[:len(poly.roots)])
        return turned(family, known, new, digits)

    monkeypatch.setattr(solver, "turned_phases", recorded)
    report = solve(poly, profile, short)
    assert handed and all(roots == phases(poly.family, poly.roots, 64) for roots in handed)
    assert render_trace(report, "json") == render_trace(solve(fresh, profile, short), "json")


@pytest.mark.parametrize("family", ["trigonometric", "exponential"])
def test_a_climbing_solve_makes_its_root_phases_once_and_pools_them_at_every_level(
        family, monkeypatch):
    # A phase made for d digits serves every sum at d digits or fewer: a
    # 256-digit factored solve that climbs the ladder runs the phase kernel
    # for its roots once, at 256 digits, and every sweep's pool starts with
    # those same phase objects, whatever the sweep's level.
    poly, profile, init = ladder_problem(family, 6, 256, True)
    made = []
    kernel = polys.phases
    monkeypatch.setattr(polys, "phases", lambda family, points, digits: made.append(
        (points, digits)) or kernel(family, points, digits))
    pools, levels = [], []
    turned = solver.turned_phases

    def recorded(family, known, new, digits):
        pools.append(known[:len(poly.roots)])
        levels.append(digits)
        return turned(family, known, new, digits)

    monkeypatch.setattr(solver, "turned_phases", recorded)
    report = solve(poly, profile, init)
    assert report.stop_reason is StopReason.TOLERANCE
    assert len(set(levels)) > 1 and min(levels) < 256 == max(levels)
    assert [digits for points, digits in made if points is poly.roots] == [256]
    first = pools[0]
    assert first == kernel(poly.family, poly.roots, 256)
    assert all(a is b for pool in pools for a, b in zip(pool, first, strict=True))
