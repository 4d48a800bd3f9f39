"""The CLI's error contract as one property.

Whatever the arguments, problem files and traces hold, ``cli.main``
returns an exit code in {0, 1, 2, 3} and lets no exception escape.  Each
input is a well-formed one with hostile leaves mixed in: exponents at the
edge of the decimal range and past it, NaN and Infinity, empty arrays,
values of the wrong JSON type, duplicate estimates and estimates a
period 2*pi apart, estimates whose pair terms fall back to the direct
kernel, and the digits floor.  Coefficient forms of planted multiple roots, started near
them, reach the attainable-accuracy floor within the few sweeps allowed.  Runs stay small (at most 70 digits, at most 5
iterations), and the examples are derandomized so the test is a stable
gate.
"""

import contextlib
import io
import json
import time
from decimal import MAX_EMAX, MAX_PREC, MIN_EMIN, Context, Decimal, InvalidOperation, Overflow
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from oracles import frac_cot, frac_coth, grid_pi, grid_sin_cos, planted_coefficients
from simulroot import solver
from simulroot.cli import main
from simulroot.numeric import PhaseError, Real, cos_sin, cosh_sinh, cot, coth, make_real, pi

ONE_PERIOD_ON = str(make_real("1.1", 70) + 2 * pi(70))
ORDINARY = ("0", "1", "-2", "2.5", "3.4", "-1.5", "0.05", "0.5", "0.2", "1.1", "1e-40")
HOSTILE = (
    "1e999999999999999990", "-1e999999999999999990", "1e-999999999999999990",
    "1e999999999999999999999", "-1e1000000000000000000", "1e-2000000000000000000",
    "1e-1000000000000000070", "-1e-1000000000000000070",
    "1e30000", "-1e30000", "NaN", "Infinity", "-Infinity", "", ONE_PERIOD_ON,
)
# (family, two-factor expression)
PROBLEMS = (
    ("algebraic", "(x-1)*(x-2)"),
    ("algebraic", "(x+2)^2*(x-1)"),
    ("trigonometric", "sin((x-1)/2)*sin((x-1.1)/2)"),
    ("trigonometric", "sin((x-1)/2)^3*sin((x-2)/2)"),
    ("exponential", "sinh((x+2)/2)^2*sinh((x-3)/2)^2"),
)
DIGITS = (30, 40, 64, 70)
# Estimates whose pair terms take the direct kernel: within 1e-30 of
# +/-pi, where a pair straddles the period, and exponential ones whose
# phase is huge or overflows.
NEAR_PI = str(pi(70) - make_real("1e-31", 70))
EDGE_ESTIMATES = {
    "trigonometric": (NEAR_PI, "-" + NEAR_PI),
    "exponential": ("1e5", "-1e5", "-1e20000"),
}
METHODS = ("chebyshev", "newton_baseline")
# (family, roots, multiplicities) of coefficient forms with multiple roots
PLANTED = (
    ("algebraic", ("-1", "0.5", "2"), (1, 2, 3)),
    ("algebraic", ("0", "1.5"), (3, 2)),
    ("trigonometric", ("-1", "1"), (1, 3)),
    ("trigonometric", ("0.5", "2"), (2, 2)),
    ("exponential", ("-1", "1"), (3, 1)),
    ("exponential", ("0", "1.5", "3"), (2, 1, 1)),
)
PLANTED_COEFFICIENTS = {
    problem: planted_coefficients(*problem, max(DIGITS) + 20) for problem in PLANTED
}
# how far each start lies from its root
OFFSETS = ("0.05", "-0.02", "0.001", "-1e-6", "1e-12", "0")

numerals = st.sampled_from(ORDINARY * 3 + HOSTILE)
multiplicities = st.sampled_from((1, 2, 3) * 4 + (0, -1))
iterations = st.sampled_from((1, 2, 3, 4, 5) * 3 + (0,))
# a leaf of the wrong type for any key, or a hostile numeral
leaves = st.one_of(
    st.sampled_from(HOSTILE), st.integers(-2, 70), st.none(), st.booleans(), st.just([]),
    st.just({}), st.lists(numerals, max_size=3),
)


def pair_of(items):
    # two distinct entries, as the problems have two roots; or any up to three
    return st.one_of(st.lists(items, min_size=2, max_size=2, unique=True),
                     st.lists(items, max_size=3))


def csv(items):
    return items.map(lambda values: ",".join(map(str, values)))


def spoiled(documents):
    """The document itself, or with one key's value replaced by a leaf."""
    return documents.flatmap(lambda doc: st.one_of(
        st.just(doc), st.tuples(st.sampled_from(sorted(doc)), leaves).map(
            lambda kv: {**doc, kv[0]: kv[1]})))


def flags(**options):
    """Each optional flag present or not, in a fixed order."""
    return st.tuples(*(
        st.one_of(st.just([]), values.map(lambda v, name=name: [name, str(v)]))
        for name, values in options.items()
    )).map(lambda parts: [token for part in parts for token in part])


problem_files = spoiled(st.sampled_from(PROBLEMS).flatmap(lambda problem: st.fixed_dictionaries(
    {"family": st.just(problem[0]), "expr": st.just(problem[1]), "init": pair_of(numerals)},
    optional={
        "mults": pair_of(multiplicities),
        "digits": st.sampled_from(DIGITS),
        "max_iters": st.integers(1, 5),
        "tolerance": numerals,
        "method": st.sampled_from(METHODS),
    },
)))
coefficient_files = spoiled(st.sampled_from(["algebraic", "trigonometric", "exponential"]).flatmap(
    lambda family: st.fixed_dictionaries({
        "family": st.just(family),
        "coefficients": st.fixed_dictionaries(
            {"a": pair_of(numerals)} if family == "algebraic"
            else {"a0": numerals, "a": pair_of(numerals), "b": pair_of(numerals)}
        ),
        "mults": st.just([1, 1] if family == "algebraic" else [2, 2]),
        "init": pair_of(numerals),
    })
))


def planted_file(problem, offsets):
    family, roots, mults = problem
    coefficients = PLANTED_COEFFICIENTS[problem]
    if family != "algebraic":
        a0, a, b = coefficients
        coefficients = {"a0": a0, "a": a, "b": b}
    else:
        coefficients = {"a": coefficients}
    init = [str(make_real(r, 80) + make_real(o, 80)) for r, o in zip(roots, offsets)]
    return {"family": family, "coefficients": coefficients, "mults": list(mults), "init": init}


planted_files = spoiled(st.sampled_from(PLANTED).flatmap(lambda problem: st.tuples(
    st.just(problem), st.lists(st.sampled_from(OFFSETS), min_size=3, max_size=3),
    st.sampled_from(DIGITS),
).map(lambda t: {**planted_file(t[0], t[1]), "digits": t[2]})))
# estimates 10^-e of the true root 0, converging as e grows; a slow first
# step from 1 to 1 - 10^-e, whose order of about 10^e has more digits than
# the default decimal context keeps; or any numerals
snapshots = st.one_of(
    st.lists(st.integers(0, 69), min_size=1, max_size=5, unique=True).map(
        lambda es: [{"k": k, "x": [f"1e-{e}"]} for k, e in enumerate(sorted(es))]),
    st.tuples(st.integers(25, 60), st.integers(1, 69)).map(lambda t: [
        {"k": 0, "x": ["1"]}, {"k": 1, "x": ["0." + "9" * t[0]]}, {"k": 2, "x": [f"1e-{t[1]}"]}]),
    st.lists(st.fixed_dictionaries({"k": st.integers(0, 5), "x": st.lists(
        numerals, min_size=1, max_size=1)}), min_size=1, max_size=5),
)
traces = spoiled(st.fixed_dictionaries(
    {
        "digits": st.sampled_from(DIGITS),
        "snapshots": snapshots,
        "step_sizes": st.lists(st.lists(numerals, min_size=1, max_size=1), max_size=4),
    },
    optional={
        "errors": st.lists(st.lists(numerals, min_size=1, max_size=1), max_size=4),
        "converged": st.booleans(),
        "stop_reason": st.sampled_from(
            ["tolerance", "accuracy_floor", "max_iters", "step_failure"]),
        "root_status": st.lists(
            st.sampled_from(["converged", "frozen", "unconverged"]), min_size=1, max_size=1),
        "failure": st.none(),
    },
))

solve_flags = flags(**{
    "--digits": st.sampled_from(DIGITS), "--tolerance": numerals,
    "--method": st.sampled_from(METHODS), "--format": st.sampled_from(["table", "csv", "json"]),
})
solve_expr = st.tuples(
    st.sampled_from([expr for _, expr in PROBLEMS]), csv(pair_of(numerals)),
    flags(**{"--mults": csv(pair_of(multiplicities))}), iterations, solve_flags,
).map(lambda t: (["solve", "--expr", t[0], "--init", t[1], *t[2], "--max-iters", str(t[3]),
                  *t[4]], None))
solve_edge = st.sampled_from([p for p in PROBLEMS if p[0] in EDGE_ESTIMATES]).flatmap(
    lambda problem: st.tuples(
        st.just(problem[1]), csv(pair_of(st.sampled_from(EDGE_ESTIMATES[problem[0]] + ORDINARY))),
        iterations, solve_flags,
    )
).map(lambda t: (["solve", "--expr", t[0], "--init", t[1], "--max-iters", str(t[2]), *t[3]], None))
solve_file = st.tuples(
    st.one_of(problem_files, coefficient_files, planted_files), iterations, solve_flags
).map(
    lambda t: (["solve", "--input", "{path}", "--max-iters", str(t[1]), *t[2]], t[0])
)
verify = st.tuples(
    st.sampled_from(["1", "2", "3"]),
    st.one_of(csv(pair_of(numerals)).map(lambda v: ["--roots", v]),
              numerals.map(lambda v: ["--d", v])),
    csv(pair_of(multiplicities)), numerals, numerals,
    flags(**{"--max-sep": numerals, "--xi": numerals, "--digits": st.sampled_from(DIGITS)}),
).map(lambda t: (["verify", "--theorem", t[0], *t[1], "--mults", t[2], "--c", t[3],
                  "--q", t[4], *t[5]], None))
order = st.tuples(traces, st.one_of(st.just("0"), csv(pair_of(numerals)))).map(
    lambda t: (["order", "--input", "{path}", "--true-roots", t[1]], t[0])
)
# (argv, the document its "{path}" names)
cases = st.one_of(solve_expr, solve_edge, solve_file, verify, order)


def run_case(tmp_path, case) -> tuple[int, str, str]:
    """Write the case's document and run ``main`` on its argv: (code, stdout, stderr)."""
    argv, document = case
    path = tmp_path / "input.json"
    path.write_text(json.dumps(document))
    argv = [token.replace("{path}", str(path)) for token in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@settings(
    max_examples=300,
    deadline=2000,
    derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)
@given(cases)
def test_every_run_exits_with_a_contract_code(tmp_path, case):
    code, _, _ = run_case(tmp_path, case)
    assert code in {0, 1, 2, 3}


@pytest.mark.parametrize("digits", [64, 256])
def test_a_trig_solve_from_a_huge_estimate_reports_as_at_the_top_level(digits, tmp_path,
                                                                      monkeypatch):
    # An estimate of magnitude 10^(digits - 10) keeps every digit of its
    # phase: the ladder runs its sweeps at the estimates' digits from the
    # first, so the solve stops, and fails or not, as one whose every sweep
    # runs there, and writes the same trace.
    argv = ["solve", "--expr", "sin((x-1)/2)*sin((x-2)/2)", "--init", f"3.7e{digits - 10},1.4",
            "--digits", str(digits), "--format", "json"]
    code, out, err = run_case(tmp_path, (argv, None))
    trace = json.loads(out)
    assert (code, err) == (2, "")
    assert (trace["stop_reason"], trace["failure"], len(trace["snapshots"])) == ("max_iters", None, 51)
    monkeypatch.setattr(solver, "_level", lambda p, estimates, mults, steps, last, top: top)
    assert run_case(tmp_path, (argv, None)) == (code, out, err)


# -- the phase kernels at the hostile exponents ------------------------


def _within(value: Real, exact: Fraction) -> bool:
    # within half a unit and numeric's 2e-10 of a unit of exact's last digit
    magnitude = Context(prec=40).divide(Decimal(exact.numerator), Decimal(exact.denominator))
    unit = Fraction(10) ** (magnitude.adjusted() - value.digits + 1)
    return abs(Fraction(value.dec) - exact) <= (Fraction(1, 2) + Fraction(2, 10 ** 10)) * unit


@lru_cache(maxsize=None)
def _two_pi(places: int) -> Fraction:
    return 2 * grid_pi(places)


def _hostile_expected(x: Real):
    """The oracle's (cos_sin, cosh_sinh, cot, coth) at x, each a pair of
    Fractions, a Fraction, an exact Decimal, or the error class raised where
    no value exists: no context holds the digits that the phase of
    1e999999999999999990 needs (PhaseError), and a value past the exponent
    range overflows."""
    bounded = Context(prec=x.digits, Emin=MIN_EMIN, Emax=MAX_EMAX, traps=[Overflow])
    e = x.dec.adjusted()
    if e < -2 * x.digits:
        # sin x = sinh x = x, cos x = cosh x = 1 and cot x = coth x = 1/x,
        # each to well within a unit
        pair = (Decimal(1), bounded.plus(x.dec))
        try:
            reciprocal = bounded.divide(1, x.dec)
        except Overflow:
            reciprocal = Overflow
        return pair, pair, reciprocal, reciprocal
    unit = Decimal(1).copy_sign(x.dec)
    if e + x.digits > MAX_PREC - 20:
        # the reduction by 2 pi would need a context of about e + digits digits
        return PhaseError, Overflow, PhaseError, unit
    places = 2 * x.digits + 20
    exact = Fraction(x.dec)
    two_pi = _two_pi(places + max(e, 0) + 5)
    r = exact - round(exact / two_pi) * two_pi
    s, c = grid_sin_cos(r, places)
    if e > 18:  # e^|x| lies past 10^MAX_EMAX, and coth x is +/-1
        return (c, s), Overflow, c / s, unit
    sh, ch = grid_sin_cos(exact, places, sign=1)
    return (c, s), (ch, sh), frac_cot(exact, places), frac_coth(exact, places)


def _finite(text: str) -> bool:
    # a numeral that a Decimal holds as a finite value
    try:
        return Decimal(text).is_finite()
    except InvalidOperation:  # empty, or an exponent past what a Decimal holds
        return False


@pytest.mark.parametrize("digits", [64, 256])
@pytest.mark.parametrize("text", [t for t in HOSTILE if _finite(t)])
def test_phase_kernels_at_hostile_exponents_give_the_oracle_or_its_error(text, digits):
    # x held as given, not rounded to its digits; each call well under a second
    x = Real(Decimal(text), digits)
    for fn, expected in zip((cos_sin, cosh_sinh, cot, coth), _hostile_expected(x)):
        start = time.perf_counter()
        if isinstance(expected, type):
            with pytest.raises(expected):
                fn(x)
        else:
            got = fn(x)
            if isinstance(expected, Decimal):
                assert got.dec == expected, (fn.__name__, text)
            elif isinstance(expected, tuple) and isinstance(expected[0], Decimal):
                assert tuple(v.dec for v in got) == expected, (fn.__name__, text)
            elif isinstance(expected, tuple):
                assert all(_within(v, e) for v, e in zip(got, expected)), (fn.__name__, text)
            else:
                assert _within(got, expected), (fn.__name__, text)
        assert time.perf_counter() - start < 0.5, (fn.__name__, text)
