import collections
import contextlib
import hashlib
import io
import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simulroot import EstimateVector, FactoredPoly, MultiplicityProfile
from simulroot.cli import main
from simulroot.polys import Family
from simulroot.numeric import Real, make_real
from simulroot.theory import (
    UndefinedSeparationError,
    check_theorem1,
    check_theorem2,
    check_theorem3,
    error_bound,
    max_separation,
    min_separation,
)
from oracles import exact_iteration, frac_cosh, frac_sin, frac_sinh

R = make_real


def as_fraction(x: Real) -> Fraction:
    return Fraction(x.dec)


def reals(*values):
    return [R(v) for v in values]


def test_min_separation_fixture_roots():
    assert min_separation(reals("-2", "1", "3")) == 2
    assert min_separation(reals("0", "1")) == 1
    assert min_separation(reals("1", "2", "2.5")) == R("0.5")
    assert max_separation(reals("1", "2", "2.5")) == R("1.5")


def test_min_separation_needs_two_roots():
    with pytest.raises(UndefinedSeparationError):
        min_separation(reals("1"))


def test_theorem1_fixture_constants_pass():
    report = check_theorem1((2, 1, 3), R("2"), R("0.05"), R("0.5"))
    assert report.passed
    # exact decimal arithmetic: the alpha = 1 row reads 0.0125 < 2.66
    row = report.per_index[1]
    assert row.mult == 1
    assert row.checks[0].lhs == R("0.0125")
    assert row.checks[0].rhs == R("2.66")


def test_theorem1_boundary_c_equals_half_d_fails():
    report = check_theorem1((2, 1, 3), R("2"), R("1"), R("0.5"))
    assert not report.passed
    names = {c.name: c.passed for c in report.global_checks}
    assert names["d - 2c > 0"] is False


def test_theorem1_q_boundary_fails():
    report = check_theorem1((2, 1, 3), R("2"), R("0.05"), R("1"))
    assert not report.passed
    assert report.global_checks[0].passed is False


@settings(max_examples=30, deadline=None)
@given(
    st.decimals(min_value="1", max_value="4", places=2),
    st.lists(st.integers(min_value=1, max_value=4), min_size=2, max_size=4),
    st.integers(min_value=1, max_value=8),
)
def test_theorem1_passing_is_monotone_in_c(d_dec, mults, halvings):
    d = R(str(d_dec))
    n = sum(mults)
    c = d / R(str(40 * n))
    q = R("0.5")
    if not check_theorem1(mults, d, c, q).passed:
        return
    smaller = c / (2**halvings)
    assert check_theorem1(mults, d, smaller, q).passed


def frac_theorem2_sides(n, mult, c, a):
    rest = 2 * n - mult
    lhs = c * c * (
        mult * mult
        + Fraction(1, 4) * rest * rest / (a * a)
        + (c / 4) * Fraction(mult, 4) * rest
        + mult * (Fraction(rest, 2) / (a * a) + c / (6 * a) * rest)
    )
    root = mult * (1 - c * c / 8) + c / (2 * a) * rest
    return lhs, root * root


def test_theorem2_fixture_constants():
    report = check_theorem2(
        (3, 2, 1), R("0.5"), R("1.5"), R("0.05"), R("0.5"), R("1")
    )
    for check in report.global_checks:
        assert check.passed, check.name
    # A = min(|sin(0.5)|, |sin(0.2)|) = sin(0.2)
    a_oracle = frac_sin(Fraction(1, 5))
    c = Fraction(1, 20)
    for row in report.per_index:
        lhs, rhs = frac_theorem2_sides(3, row.mult, c, a_oracle)
        check = row.checks[0]
        assert abs(as_fraction(check.lhs) - lhs) < Fraction(1, 10**55)
        assert abs(as_fraction(check.rhs) - rhs) < Fraction(1, 10**55)
        assert check.passed == (lhs < rhs)
    assert report.passed


def test_theorem2_span_condition_fails():
    report = check_theorem2(
        (3, 2, 1), R("0.5"), R("4.3"), R("0.05"), R("0.5"), R("1")
    )
    assert not report.passed
    by_name = {c.name: c for c in report.global_checks}
    assert by_name["max separation < 2 pi - 2 xi"].passed is False
    assert by_name["2c < xi"].passed is True


def test_theorem2_small_c_limit_passes_main_inequality():
    report = check_theorem2(
        (3, 2, 1), R("0.5"), R("1.5"), R("0.000001"), R("0.5"), R("1")
    )
    for row in report.per_index:
        assert row.passed


def test_theorem3_small_c_global_clause():
    report = check_theorem3((2, 2), R("5"), R("0.1"), R("0.5"))
    clause = {c.name: c for c in report.global_checks}["c |sinh c| + cosh c < 12"]
    oracle = Fraction(1, 10) * frac_sinh(Fraction(1, 10)) + frac_cosh(Fraction(1, 10))
    assert clause.passed
    assert abs(as_fraction(clause.lhs) - oracle) < Fraction(1, 10**60)
    assert str(clause.lhs).startswith("1.01502")


def test_theorem3_degenerate_separation_reports_reason():
    report = check_theorem3((2, 2), R("0.1"), R("0.05"), R("0.5"))
    assert not report.passed
    assert report.per_index[0].checks[0].reason is not None
    assert "S" in report.per_index[0].checks[0].reason


def test_theorem3_fixture_constants_full_report():
    report = check_theorem3((2, 2), R("5"), R("0.05"), R("0.5"))
    assert report.passed
    s_oracle = frac_sinh(Fraction(49, 20))  # sinh((5 - 0.1)/2)
    c = Fraction(1, 20)
    sinh_c = frac_sinh(c)
    cosh_c = frac_cosh(c)
    for row in report.per_index:
        mult = row.mult
        lhs = (
            mult * mult
            + 2 / s_oracle * (mult * c + sinh_c / s_oracle**3) * sinh_c
            + 4 / s_oracle**2 * cosh_c
        )
        rhs = mult + s_oracle / cosh_c
        check = row.checks[0]
        assert abs(as_fraction(check.lhs) - lhs) < Fraction(1, 10**55)
        assert abs(as_fraction(check.rhs) - rhs) < Fraction(1, 10**55)


@pytest.mark.parametrize("mults", [(0, -1), (2, 0), ()])
def test_multiplicities_must_be_positive_integers(mults):
    for check in (
        lambda: check_theorem1(mults, R("2"), R("0.05"), R("0.5")),
        lambda: check_theorem2(mults, R("0.5"), R("1.5"), R("0.05"), R("0.5"), R("1")),
        lambda: check_theorem3(mults, R("5"), R("0.05"), R("0.5")),
    ):
        with pytest.raises(ValueError, match="non-empty tuple of positive integers"):
            check()


def test_an_odd_sum_fits_no_half_angle_degree():
    with pytest.raises(ValueError, match="sum to 5; the trigonometric degree needs an even sum"):
        check_theorem2((3, 2), R("0.5"), R("1.5"), R("0.05"), R("0.5"), R("1"))
    with pytest.raises(ValueError, match="sum to 3; the exponential degree needs an even sum"):
        check_theorem3((1, 2), R("5"), R("0.05"), R("0.5"))
    # the algebraic degree is the sum itself, odd or even
    assert check_theorem1((1, 2), R("2"), R("0.05"), R("0.5")).passed


def test_error_bound_first_step():
    assert error_bound(R("0.3"), R("0.25"), 0) == R("0.075")


def test_error_bound_two_steps_exact():
    assert error_bound(R("1"), R("0.5"), 2) == R("0.001953125")


def test_error_bound_approaches_c_near_one():
    c = R("2")
    bound = error_bound(c, R("0.9999999"), 0)
    assert bound < c
    assert c - bound < R("0.000001")


def test_error_bound_validates_inputs():
    with pytest.raises(ValueError):
        error_bound(R("0"), R("0.5"), 1)
    with pytest.raises(ValueError):
        error_bound(R("1"), R("1"), 1)
    with pytest.raises(ValueError):
        error_bound(R("1"), R("0.5"), -1)


def test_error_bound_monotone_and_underflows_to_zero():
    c, q = R("0.3"), R("0.5")
    previous = None
    for k in range(6):
        bound = error_bound(c, q, k)
        if previous is not None:
            assert bound < previous
        previous = bound
    assert error_bound(c, q, 50).is_zero()


@pytest.mark.parametrize(
    "d,c,quantity",
    [
        ("1e30", "1e20", "sinh(c)"),
        ("1e30", "1", "S = sinh((d - 2c)/2)"),
        ("2e18", "1", "the main inequality's left side for i=1"),
    ],
)
def test_theorem3_overflow_names_the_quantity(d, c, quantity):
    with pytest.raises(ValueError) as excinfo:
        check_theorem3((1, 1), R(d), R(c), R("0.5"))
    assert str(excinfo.value) == f"{quantity} overflows the decimal exponent range"


# -- the verify command's output, pinned over a seeded corpus --------------

HUGE = "9e999999999999999999"
D1 = ["--d", "1", "--max-sep", "2", "--mults", "1,1"]
# Each edge case is a verify call after "--theorem"; each runs plain and with --json.
VERIFY_EDGES = [
    # overflow on each side of a main inequality
    ["1", "--d", "1", "--mults", "1,1", "--c", "1e999999999999999990", "--q", "0.5"],
    ["1", "--d", "1e999999999999999990", "--mults", "1,1", "--c", "1", "--q", "0.5"],
    ["2", *D1, "--c", "1e10", "--q", "0.5", "--xi", "2e-499999999999999995"],
    ["3", "--d", "2e18", "--mults", "1,1", "--c", "1", "--q", "0.5"],
    # overflow in each named quantity
    ["1", "--d", "1", "--mults", "1,1", "--c", HUGE, "--q", "0.5"],
    ["2", *D1, "--c", HUGE, "--q", "0.5", "--xi", "1"],
    ["3", "--d", "1", "--mults", "1,1", "--c", HUGE, "--q", "0.5"],
    ["3", "--d", "1e30", "--mults", "1,1", "--c", "1e20", "--q", "0.5"],
    ["3", "--d", "1e30", "--mults", "1,1", "--c", "1", "--q", "0.5"],
    ["1", "--roots", f"-{HUGE},{HUGE}", "--mults", "1,1", "--c", "0.1", "--q", "0.5"],
    # the global checks come before S: this names c |sinh c| + cosh c
    ["3", "--d", "1e19", "--c", "2302585092994045684", "--q", "0.5", "--mults", "1,1"],
    # a divisor that underflows to zero
    ["2", *D1, "--c", "0.05", "--q", "0.5", "--xi", "1e-999999999999999990"],
    ["3", "--d", "3e-400000000000000000", "--mults", "1,1", "--c", "1e-400000000000000000",
     "--q", "0.5"],
    # A = 0 and S <= 0
    ["2", *D1, "--c", "0.5", "--q", "0.5", "--xi", "1"],
    ["2", *D1, "--c", "0.05", "--q", "0.5", "--xi", "0"],
    ["3", "--d", "0.1", "--mults", "2,2", "--c", "0.05", "--q", "0.5"],
    ["3", "--d", "0.1", "--mults", "2,2", "--c", "0.1", "--q", "0.5"],
    # xi/2 or d/2 - c with no digit of its phase left
    ["2", *D1, "--c", "0.05", "--q", "0.5", "--xi", "1e30000"],
    ["2", *D1, "--c", "1e999999999999999990", "--q", "0.5", "--xi", "1"],
    # --d with and without --max-sep (theorems 1 and 3 take none), and theorem 2 without --xi
    ["2", "--d", "1", "--mults", "1,1", "--c", "0.05", "--q", "0.5", "--xi", "1"],
    ["2", "--roots", "1,2,2.5", "--mults", "3,2,1", "--c", "0.05", "--q", "0.5"],
    ["1", "--d", "2", "--max-sep", "5", "--mults", "2,1,3", "--c", "0.05", "--q", "0.5"],
    ["3", "--d", "5", "--max-sep", "5", "--mults", "2,2", "--c", "0.05", "--q", "0.5"],
    # the README's examples at other precisions
    ["1", "--roots", "-2,1,3", "--mults", "2,1,3", "--c", "0.05", "--q", "0.5", "--digits", "30"],
    ["2", "--roots", "1,2,2.5", "--mults", "3,2,1", "--c", "0.05", "--q", "0.5", "--xi", "1",
     "--digits", "100"],
] + [
    # q at 0 and at 1 (theorems 1 and 3 reject the --xi)
    [t, "--roots", "-2,1,3", "--mults", "2,2,2", "--c", "0.05", "--q", q, "--xi", "1"]
    for t in "123" for q in ("0", "1")
]


def _fixed(x: float, places: int) -> str:
    text = f"{x:.{places}f}"
    return "0" if float(text) == 0 else text


def _drawn_verify_argv(rng: random.Random, theorem: int) -> list[str]:
    """A verify call drawn as the benchmark's CLI session draws one: 2-4
    roots a few units apart, multiplicities 1-3 (an even sum for theorems
    2 and 3), c in [1e-3, 0.5) and q, xi in (0.05, 0.95)."""
    k = rng.randint(2, 4)
    if theorem == 3:
        xs = [rng.uniform(-1, 1) + 5 * i for i in range(k)]
    else:
        xs = [rng.uniform(-0.2, 0.2) + i * (5.0 / k) for i in range(k)]
    mults = [rng.randint(1, 3) for _ in range(k)]
    if theorem != 1 and sum(mults) % 2:
        mults[0] += 1
    argv = ["verify", "--theorem", str(theorem), "--roots", ",".join(_fixed(x, 3) for x in xs),
            "--mults", ",".join(map(str, mults)), "--c", _fixed(10 ** rng.uniform(-3, -0.3), 4),
            "--q", _fixed(rng.uniform(0.05, 0.95), 3)]
    if theorem == 2:
        argv += ["--xi", _fixed(rng.uniform(0.05, 0.8), 3)]
    return argv


def verify_corpus() -> list[list[str]]:
    """300 drawn calls per theorem and the edge cases, each plain and with --json."""
    calls = []
    for theorem in (1, 2, 3):
        rng = random.Random(f"verify-corpus:{theorem}")
        calls += [_drawn_verify_argv(rng, theorem) for _ in range(300)]
    calls += [["verify", "--theorem", *edge] for edge in VERIFY_EDGES]
    return [argv + json_flag for argv in calls for json_flag in ([], ["--json"])]


# Retaken when theorems 1 and 3 began to reject --xi and --max-sep: the
# 12 calls that pass them (4 --xi q-sweep entries and 2 --max-sep
# entries, plain and with --json) now exit 1, and no other call changed.
VERIFY_CORPUS_SHA256 = "8b1f9cec1a44ce4b319caf1a09e27d4f98cc7c9ad8a813bc4c0e7519e07668bd"


def test_verify_output_over_the_seeded_corpus_is_pinned(monkeypatch):
    monkeypatch.delenv("SIMULROOT_DIGITS", raising=False)
    digest = hashlib.sha256()
    codes = collections.Counter()
    for argv in verify_corpus():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        codes[code] += 1
        digest.update(json.dumps([argv, code, out.getvalue(), err.getvalue()]).encode() + b"\n")
    assert sum(codes.values()) == 2 * (900 + len(VERIFY_EDGES))
    assert digest.hexdigest() == VERIFY_CORPUS_SHA256, (digest.hexdigest(), codes)


# Constants that `verify` accepts for theorems 2 and 3 (PASS, exit 0), and
# starts zeta + 0.999 c q signs within c q of the roots, from which the exact
# iteration leaves the envelope c q^(3^k): the printed hypotheses of these
# two theorems are not sufficient.  (theorem, family, roots, mults, c, q,
# xi, signs, the errors over the envelope as (sweep, root index, ratio).)
ENVELOPE_COUNTEREXAMPLES = [
    (2, Family.TRIGONOMETRIC, ("-2.321", "-0.472", "0.607"), (4, 3, 1), "0.19999999", "0.8",
     "0.4", (-1, 1, -1), [(1, 2, "2.95"), (2, 2, "246.09"), (3, 2, "20992.49")]),
    (3, Family.EXPONENTIAL, ("-7.989", "-3.346", "1.346"), (2, 1, 1), "0.474387", "0.5",
     None, (1, 1, -1), [(1, 2, "1.25"), (2, 2, "1.30"), (3, 2, "1.17")]),
]


@pytest.mark.parametrize("theorem,family,roots,mults,c,q,xi,signs,over", ENVELOPE_COUNTEREXAMPLES)
def test_verify_accepts_constants_whose_envelope_fails(theorem, family, roots, mults, c, q, xi,
                                                       signs, over):
    argv = ["verify", "--theorem", str(theorem), f"--roots={','.join(roots)}",
            "--mults", ",".join(map(str, mults)), "--c", c, "--q", q]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv + (["--xi", xi] if xi else [])) == 0
    assert out.getvalue().startswith(f"theorem {theorem}: PASS\n")
    digits, c, q = 64, R(c), R(q)
    zeta = [R(r) for r in roots]
    init = EstimateVector(tuple(z + R("0.999") * c * q * sign for z, sign in zip(zeta, signs)))
    rows = exact_iteration(FactoredPoly(family, tuple(zeta), mults), MultiplicityProfile(mults),
                           init, 3, digits)
    seen = []
    for k, row in enumerate(rows):
        envelope = as_fraction(error_bound(c, q, k))
        for i, (x, z) in enumerate(zip(row, zeta)):
            assert k or abs(x - as_fraction(z)) < envelope  # every start lies inside it
            if abs(x - as_fraction(z)) > envelope:
                seen.append((k, i, f"{float(abs(x - as_fraction(z)) / envelope):.2f}"))
    assert seen == over
