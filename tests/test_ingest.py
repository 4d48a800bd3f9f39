import hashlib
import json
import random
from decimal import MAX_PREC, Decimal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simulroot.fixtures import EXAMPLES
from simulroot.ingest import (
    ExpressionError,
    SchemaError,
    expression_problem,
    parse_expression,
    parse_problem,
    parse_trace,
    render_expression,
    render_theorem_report,
    render_trace,
)
from simulroot.numeric import MAX_DIGITS, make_real
from simulroot.polys import DuplicateRootError, Family
from simulroot.solver import (
    CollisionError,
    EstimateVector,
    IterationTrace,
    Method,
    MultiplicityProfile,
    RootStatus,
    SolveConfig,
    SolveReport,
    StopReason,
    solve,
)
from simulroot.theory import check_theorem1

R = make_real


def test_parse_algebraic_fixture_expression():
    poly = parse_expression("(x+2)^2*(x-1)*(x-3)^3")
    assert poly.family is Family.ALGEBRAIC
    assert poly.roots == (R("-2"), R("1"), R("3"))
    assert poly.mults == (2, 1, 3)


def test_parse_trigonometric_fixture_expression():
    poly = parse_expression("sin((x-1)/2)^3*sin((x-2)/2)^2*sin((x-2.5)/2)")
    assert poly.family is Family.TRIGONOMETRIC
    assert poly.roots == (R("1"), R("2"), R("2.5"))
    assert poly.mults == (3, 2, 1)


def test_parse_exponential_fixture_expression():
    poly = parse_expression("sinh((x+2)/2)^2*sinh((x-3)/2)^2")
    assert poly.family is Family.EXPONENTIAL
    assert poly.roots == (R("-2"), R("3"))
    assert poly.mults == (2, 2)


def test_parse_single_linear_factor():
    poly = parse_expression("(x-1)")
    assert poly.family is Family.ALGEBRAIC
    assert poly.roots == (R("1"),)
    assert poly.mults == (1,)


def test_parse_ignores_whitespace():
    poly = parse_expression("  ( x + 2 ) ^ 2 * ( x - 1 ) * (x-3)^3 ")
    assert poly.roots == (R("-2"), R("1"), R("3"))


@pytest.mark.parametrize(
    "text,position",
    [
        ("(x+2", 4),
        ("(y+2)", 1),
        ("(x*2)", 2),
        ("(x+2)^", 6),
        ("(x+2)^0", 6),
        ("sin((x-1)/3)", 10),
        ("(x+2)(x-1)", 5),
        ("", 0),
    ],
)
def test_parse_expression_syntax_errors_carry_position(text, position):
    with pytest.raises(ExpressionError) as excinfo:
        parse_expression(text)
    assert excinfo.value.position == position


def test_parse_expression_rejects_mixed_families():
    with pytest.raises(ExpressionError) as excinfo:
        parse_expression("(x-1)*sin((x-2)/2)")
    assert "mixed" in str(excinfo.value)


def test_parse_expression_rejects_duplicate_roots():
    with pytest.raises(DuplicateRootError):
        parse_expression("(x-1)*(x-1)")


def test_parse_expression_rejects_odd_half_angle_sum():
    with pytest.raises(ValueError):
        parse_expression("sin((x-1)/2)")


@pytest.mark.parametrize(
    "text",
    [
        "(x+2)^2*(x-1)*(x-3)^3",
        "sin((x-1)/2)^3*sin((x-2)/2)^2*sin((x-2.5)/2)",
        "sinh((x+2)/2)^2*sinh((x-3)/2)^2",
    ],
)
def test_render_expression_round_trips_fixtures(text):
    assert render_expression(parse_expression(text)) == text


root_strategy = st.lists(
    st.one_of(
        st.integers(min_value=-8, max_value=8),
        # decimals of exponent -12..+3, whose str() is 1E-7 or 1E+2
        st.builds("{}e{}".format, st.integers(-999, 999), st.integers(-12, 3)),
    ),
    min_size=2,
    max_size=4,
    unique_by=lambda r: Decimal(str(r)),
)


@settings(max_examples=40, deadline=None)
@given(
    root_strategy,
    st.lists(st.integers(min_value=1, max_value=4), min_size=4, max_size=4),
    st.sampled_from(["algebraic", "trigonometric", "exponential"]),
)
def test_expression_round_trip_identity(roots, mults, family_name):
    family = Family(family_name)
    mults = mults[: len(roots)]
    if family is not Family.ALGEBRAIC and sum(mults) % 2:
        mults[0] += 1
    from simulroot.polys import FactoredPoly

    poly = FactoredPoly(family, tuple(R(str(r)) for r in roots), tuple(mults))
    again = parse_expression(render_expression(poly))
    assert again.family is poly.family
    assert again.roots == poly.roots
    assert again.mults == poly.mults


def test_a_small_shift_prints_positionally_and_parses_back():
    poly = parse_expression("(x-0.0000001)")
    assert str(poly.roots[0]) == "1E-7"
    text = render_expression(poly)
    assert text == "(x-0.0000001)"
    assert parse_expression(text).roots == poly.roots


@pytest.mark.parametrize("example", sorted(EXAMPLES))
def test_every_truncated_fixture_expression_is_an_expression_error(example):
    text = EXAMPLES[example].expression
    for end in range(len(text)):
        if text[end] in "^*":
            continue  # text[:end] is a whole product of fewer factors
        with pytest.raises(ExpressionError) as excinfo:
            parse_expression(text[:end])
        assert 0 <= excinfo.value.position <= end


# The parser's answers on a seeded corpus: every prefix of the worked
# examples' expressions, 5000 mutations of 1-3 characters of them, and
# edge forms.  The hash was taken with the hand-written scanner that the
# table of factor shapes replaced.  It raised IndexError where the text
# ended right after an 'x', so those inputs (8 prefixes here) are left
# out; the truncation test above covers them.
PARSER_CORPUS_SHA256 = "b1849b56887a02d0b6b9a2343a30cd5387c1d14b842a0eee8b93684278202605"
CORPUS_ALPHABET = "()+-*/^.x0123456789sinhe \t"
EDGE_FORMS = (
    "(x+1.)", "(x+.)", "(x+.5)", "(x-1.5.5)", "(x-00012.3400)", "(x+0)", "(x+1e5)",
    "(x--1)", "(x - 1) ^ 02", "(x-1)^2^3", "(x+2)^0", "(x+2)^-1", "(x-1)**(x-2)",
    "(x-1)*", "*", "  ", "\t(x-1)\n", "(X-1)", "sin((x-1)/20)", "sin((x-1)/2 )^ 2",
    "sin h((x-1)/2)^2", "sinx", "SIN((x-1)/2)^2", "sinh ( ( x + 1 ) / 2 ) ^2",
    "(x-1)*sin((x-2)/2)", "sin((x-1)/2)*sinh((x-2)/2)", "sinh((x-1)/2)^2*(x-2)",
    "(x-1)*(x-1.0)", "sin((x-1)/2)", "(x-1)^99999999999999999999",
)


def parser_corpus() -> list[str]:
    rng = random.Random(16)
    expressions = [example.expression for _, example in sorted(EXAMPLES.items())]
    corpus = [text[:end] for text in expressions for end in range(len(text) + 1)]
    for _ in range(5000):
        text = list(rng.choice(expressions))
        for _ in range(rng.randint(1, 3)):
            edit = rng.randrange(3)
            if edit == 0:
                text[rng.randrange(len(text))] = rng.choice(CORPUS_ALPHABET)
            elif edit == 1:
                text.insert(rng.randrange(len(text) + 1), rng.choice(CORPUS_ALPHABET))
            else:
                del text[rng.randrange(len(text))]
        corpus.append("".join(text))
    return corpus + list(EDGE_FORMS)


def parser_outcome(text: str) -> str | None:
    try:
        poly = parse_expression(text)
    except ExpressionError as exc:
        if exc.position == len(text) and "after 'x'" in str(exc):
            return None
        return f"{exc.position}|{exc}"
    except ValueError as exc:  # a duplicate root, or an odd half-angle power sum
        return f"{type(exc).__name__}|{exc}"
    return f"{poly.family.value}|{','.join(map(str, poly.roots))}|{poly.mults}"


def test_the_parser_answers_a_seeded_corpus_as_pinned():
    digest = hashlib.sha256()
    for text in parser_corpus():
        outcome = parser_outcome(text)
        if outcome is not None:
            digest.update(f"{text!r}\t{outcome}\n".encode())
    assert digest.hexdigest() == PARSER_CORPUS_SHA256


EXAMPLE_PROBLEM = {
    "family": "algebraic",
    "expr": "(x+2)^2*(x-1)*(x-3)^3",
    "init": ["-3", "0.1", "4"],
    "digits": 64,
    "max_iters": 4,
    "method": "chebyshev",
}


def test_parse_problem_minimal_fixture():
    spec = parse_problem(json.dumps(EXAMPLE_PROBLEM).encode())
    assert spec.poly.family is Family.ALGEBRAIC
    assert spec.mults == (2, 1, 3)
    assert spec.init == (R("-3"), R("0.1"), R("4"))
    assert spec.init[0].digits == 64
    assert spec.config.max_iters == 4
    assert spec.config.method is Method.CHEBYSHEV
    profile = spec.profile()
    assert profile.mults == (2, 1, 3)


def test_parse_problem_multiplicity_sum_mismatch():
    bad = dict(EXAMPLE_PROBLEM, mults=[2, 1, 2])
    with pytest.raises(SchemaError) as excinfo:
        parse_problem(json.dumps(bad))
    assert "$.mults" in str(excinfo.value)
    assert "sum to 5" in str(excinfo.value)


def test_parse_problem_digits_minimum_and_override():
    with pytest.raises(SchemaError) as excinfo:
        parse_problem(json.dumps(dict(EXAMPLE_PROBLEM, digits=20)))
    assert "$.digits" in str(excinfo.value)
    spec = parse_problem(json.dumps(dict(EXAMPLE_PROBLEM, digits=20)), digits=40)
    assert spec.init[0].digits == 40
    with pytest.raises(SchemaError) as excinfo:
        parse_problem(json.dumps(EXAMPLE_PROBLEM), digits=29)
    assert "$.digits" in str(excinfo.value)


@pytest.mark.parametrize("digits", [MAX_PREC + 1, 2**63, 10**21])
def test_parse_problem_reports_digits_above_the_ceiling_at_their_path(digits):
    with pytest.raises(SchemaError) as excinfo:
        parse_problem(json.dumps(dict(EXAMPLE_PROBLEM, digits=digits)))
    assert excinfo.value.path == "$.digits"
    assert str(excinfo.value) == f"$.digits: digits must be <= {MAX_DIGITS}, got {digits}"


def test_parse_problem_duplicate_initial_estimates():
    bad = dict(EXAMPLE_PROBLEM, init=["-3", "-3", "4"])
    with pytest.raises(CollisionError):
        parse_problem(json.dumps(bad))


def test_parse_problem_rejects_numeric_estimates():
    bad = dict(EXAMPLE_PROBLEM, init=[-3, 0.1, 4])
    with pytest.raises(SchemaError) as excinfo:
        parse_problem(json.dumps(bad))
    assert "$.init[0]" in str(excinfo.value)


def test_parse_problem_requires_exactly_one_form():
    bad = dict(EXAMPLE_PROBLEM)
    bad["coefficients"] = {"a": ["1"]}
    with pytest.raises(SchemaError):
        parse_problem(json.dumps(bad))
    del bad["expr"], bad["coefficients"]
    with pytest.raises(SchemaError):
        parse_problem(json.dumps(bad))


def test_parse_problem_algebraic_coefficients():
    spec = parse_problem(
        json.dumps(
            {
                "family": "algebraic",
                "coefficients": {"a": ["-1"]},
                "mults": [1],
                "init": ["5"],
            }
        )
    )
    assert spec.poly.coeffs == (R("-1"),)
    assert spec.config.max_iters == 50  # default
    assert spec.init[0].digits == 64  # default


def test_parse_problem_trig_coefficients_need_a0_and_b():
    base = {
        "family": "trigonometric",
        "coefficients": {"a": ["0", "1"]},
        "mults": [2, 1, 1],
        "init": ["0.1", "1", "2"],
    }
    with pytest.raises(SchemaError) as excinfo:
        parse_problem(json.dumps(base))
    assert "a0" in str(excinfo.value)
    base["coefficients"] = {"a0": "0.5", "a": ["0", "1"], "b": ["1"]}
    with pytest.raises(SchemaError) as excinfo:
        parse_problem(json.dumps(base))
    assert "$.coefficients.b" in str(excinfo.value)


def test_parse_problem_family_expression_mismatch():
    bad = dict(EXAMPLE_PROBLEM, family="trigonometric")
    with pytest.raises(SchemaError) as excinfo:
        parse_problem(json.dumps(bad))
    assert "$.family" in str(excinfo.value)


def test_parse_problem_tolerance_and_method():
    spec = parse_problem(
        json.dumps(
            dict(
                EXAMPLE_PROBLEM,
                tolerance="1e-30",
                method="newton_baseline",
            )
        )
    )
    assert spec.config.step_tolerance == R("1e-30")
    assert spec.config.method is Method.NEWTON_BASELINE


def example_report(max_iters=4, with_errors=False):
    poly = parse_expression("(x+2)^2*(x-1)*(x-3)^3")
    profile = MultiplicityProfile((2, 1, 3))
    init = EstimateVector((R("-3"), R("0.1"), R("4")))
    true_roots = (R("-2"), R("1"), R("3")) if with_errors else None
    return solve(poly, profile, init, SolveConfig(max_iters=max_iters), true_roots=true_roots)


def test_render_trace_table_first_row_matches_reference_layout():
    report = example_report()
    out = render_trace(report, "table").decode()
    assert "-3.000000000000000000, 0.100000000000000000, 4.000000000000000000" in out
    assert out.splitlines()[0].split() == ["k", "x1,", "x2,", "x3"]


def test_render_trace_single_snapshot():
    vec = EstimateVector((R("1"), R("2")))
    trace = IterationTrace(snapshots=(vec,), step_sizes=())
    report = SolveReport(
        trace=trace, stop_reason=StopReason.MAX_ITERS
    )
    out = render_trace(report, "table").decode()
    assert len(out.strip().splitlines()) == 2  # header plus one row


def test_render_trace_csv_header_and_losslessness():
    report = example_report()
    out = render_trace(report, "csv").decode()
    lines = out.strip().splitlines()
    assert lines[0] == "k,x1,x2,x3"
    first = lines[1].split(",")
    assert first[0] == "0" and first[1] == "-3"
    # full-precision decimal strings round-trip exactly
    for text, value in zip(lines[2].split(",")[1:], report.trace.snapshots[1].x):
        assert R(text) == value


def test_render_trace_json_round_trip_is_byte_stable():
    report = example_report(with_errors=True)
    blob = render_trace(report, "json")
    parsed = parse_trace(blob)
    assert render_trace(parsed, "json") == blob
    assert parsed.converged == report.converged
    assert parsed.stop_reason == report.stop_reason
    for a, b in zip(parsed.trace.snapshots, report.trace.snapshots):
        assert a.k == b.k and a.x == b.x
    assert parsed.trace.errors == report.trace.errors


@pytest.mark.parametrize("poly_digits,init_digits", [(80, 64), (64, 80), (64, 256)])
def test_a_solve_climbs_to_its_estimates_precision_and_its_trace_round_trips(
    poly_digits, init_digits
):
    # A solve at 128 digits or fewer runs every sweep at the estimates'
    # digits, whatever the roots carry.  Above, the sweeps climb to them,
    # and each sweep's estimates and steps carry its level.  The JSON trace
    # keeps the estimates' digits and round-trips snapshots that carry fewer
    # (the early sweeps of the 256-digit solve).
    poly = parse_expression("(x+2)^2*(x-1)*(x-3)^3", poly_digits)
    init = EstimateVector(tuple(make_real(v, init_digits) for v in ("-3", "0.1", "4")))
    report = solve(poly, MultiplicityProfile(poly.mults), init)
    assert report.converged and len(report.trace.snapshots) > 2
    if init_digits <= 128:
        assert {x.digits for snap in report.trace.snapshots for x in snap.x} == {init_digits}
        assert {s.digits for row in report.trace.step_sizes for s in row} == {init_digits}
    else:
        levels = [snap.digits for snap in report.trace.snapshots[1:]]
        assert levels == sorted(levels) and levels[0] < levels[-1] == init_digits
        for snap, row in zip(report.trace.snapshots[1:], report.trace.step_sizes):
            assert {x.digits for x in snap.x + row} == {snap.digits}
    blob = render_trace(report, "json")
    assert json.loads(blob)["digits"] == init_digits
    assert render_trace(parse_trace(blob), "json") == blob


def test_render_trace_rejects_unknown_format():
    with pytest.raises(ValueError):
        render_trace(example_report(), "yaml")


def test_render_theorem_report_is_json():
    report = check_theorem1((2, 1, 3), R("2"), R("0.05"), R("0.5"))
    payload = json.loads(render_theorem_report(report))
    assert payload["theorem"] == 1
    assert payload["passed"] is True
    assert payload["per_index"][1]["checks"][0]["lhs"] == "0.0125"


ONE_SNAPSHOT = {"digits": 64, "snapshots": [{"k": 0, "x": ["1"]}], "step_sizes": []}


@pytest.mark.parametrize(
    "doc,path",
    [
        (5, "$"),
        ({**ONE_SNAPSHOT, "snapshots": 5}, "$.snapshots"),
        ({**ONE_SNAPSHOT, "snapshots": [5]}, "$.snapshots[0]"),
        ({**ONE_SNAPSHOT, "step_sizes": 5}, "$.step_sizes"),
        ({**ONE_SNAPSHOT, "errors": 3}, "$.errors"),
        ({**ONE_SNAPSHOT, "step_sizes": ["12"]}, "$.step_sizes[0]"),
        (
            {**ONE_SNAPSHOT, "snapshots": [{"k": 0, "x": ["1", "2"]}, {"k": 1, "x": ["1"]}]},
            "$.snapshots[1].x",
        ),
    ],
)
def test_parse_trace_rejects_values_of_the_wrong_type_with_a_path(doc, path):
    with pytest.raises(SchemaError) as excinfo:
        parse_trace(json.dumps(doc))
    assert excinfo.value.path == path


@pytest.mark.parametrize(
    "snapshots,path,message",
    [
        ([{"k": 0, "x": ["1", "1"]}], "$.snapshots[0].x", "estimates 0 and 1 coincide at 1"),
        (
            [{"k": 0, "x": ["1", "2", "3"]}, {"k": 1, "x": ["2", "-0", "0.0"]}],
            "$.snapshots[1].x",
            "estimates 1 and 2 coincide at 0",
        ),
    ],
)
def test_parse_trace_rejects_coinciding_estimates_with_a_path(snapshots, path, message):
    with pytest.raises(SchemaError) as excinfo:
        parse_trace(json.dumps({**ONE_SNAPSHOT, "snapshots": snapshots}))
    assert excinfo.value.path == path
    assert str(excinfo.value) == f"{path}: {message}"


@pytest.mark.parametrize(
    "stop_reason,converged",
    [("tolerance", False), ("max_iters", True), ("tolerance", 1), ("step_failure", "false")],
)
def test_parse_trace_rejects_a_converged_flag_that_contradicts_the_stop(stop_reason, converged):
    doc = {**ONE_SNAPSHOT, "stop_reason": stop_reason, "converged": converged}
    with pytest.raises(SchemaError) as excinfo:
        parse_trace(json.dumps(doc))
    assert excinfo.value.path == "$.converged"


@pytest.mark.parametrize("stop_reason", [[], "nope", 5])
def test_parse_trace_rejects_an_unknown_stop_reason_with_a_path(stop_reason):
    with pytest.raises(SchemaError) as excinfo:
        parse_trace(json.dumps({**ONE_SNAPSHOT, "stop_reason": stop_reason}))
    assert excinfo.value.path == "$.stop_reason"


def test_parse_trace_derives_converged_from_the_stop_reason():
    assert parse_trace(json.dumps({**ONE_SNAPSHOT, "stop_reason": "tolerance"})).converged
    assert not parse_trace(json.dumps(ONE_SNAPSHOT)).converged


TWO_ROOTS = {"digits": 64, "snapshots": [{"k": 0, "x": ["1", "2"]}], "step_sizes": []}


def test_parse_trace_reads_a_trace_without_root_status_as_no_root_frozen():
    report = parse_trace(json.dumps({**TWO_ROOTS, "stop_reason": "tolerance"}))
    assert not report.frozen
    assert report.root_status == (RootStatus.CONVERGED, RootStatus.CONVERGED)
    assert "root_status" not in json.loads(render_trace(report, "json"))


def test_parse_trace_reads_the_floor_stop_and_the_root_status():
    doc = {**TWO_ROOTS, "stop_reason": "accuracy_floor", "converged": False,
           "root_status": ["frozen", "converged"]}
    report = parse_trace(json.dumps(doc))
    assert report.stop_reason is StopReason.ACCURACY_FLOOR and not report.converged
    assert report.frozen == {0}
    assert json.loads(render_trace(report, "json"))["root_status"] == ["frozen", "converged"]


@pytest.mark.parametrize(
    "status,path",
    [
        (["frozen", 5], "$.root_status[1]"),
        (["frozen", "thawed"], "$.root_status[1]"),
        ([["frozen"], "converged"], "$.root_status[0]"),
        ("frozen", "$.root_status"),
        (["frozen"], "$.root_status"),
        # statuses the stop reason contradicts
        (["frozen", "unconverged"], "$.root_status[1]"),
        (["converged", "converged"], "$.stop_reason"),
    ],
)
def test_parse_trace_rejects_a_wrong_root_status_with_a_path(status, path):
    doc = {**TWO_ROOTS, "stop_reason": "accuracy_floor", "root_status": status}
    with pytest.raises(SchemaError) as excinfo:
        parse_trace(json.dumps(doc))
    assert excinfo.value.path == path


def test_parse_trace_rejects_a_tolerance_stop_with_a_frozen_root():
    doc = {**TWO_ROOTS, "stop_reason": "tolerance", "root_status": ["frozen", "converged"]}
    with pytest.raises(SchemaError) as excinfo:
        parse_trace(json.dumps(doc))
    assert excinfo.value.path == "$.stop_reason"


def test_a_problem_and_solve_reject_misfit_multiplicities_in_the_same_words():
    poly = parse_expression("(x+2)^2*(x-1)")
    with pytest.raises(ValueError) as from_solve:
        solve(poly, MultiplicityProfile((1, 1)), EstimateVector((R("-3"), R("0.1"))))
    with pytest.raises(SchemaError) as from_file:
        expression_problem("(x+2)^2*(x-1)", ["-3", "0.1"], [1, 1])
    assert str(from_file.value) == f"$.mults: {from_solve.value}"


def test_parse_problem_coefficient_form_needs_multiplicities_not_null():
    doc = {"family": "algebraic", "coefficients": {"a": ["0", "1"]}, "mults": None,
           "init": ["0", "1"]}
    with pytest.raises(SchemaError) as excinfo:
        parse_problem(json.dumps(doc))
    assert excinfo.value.path == "$.mults"
