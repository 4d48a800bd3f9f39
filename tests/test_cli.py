import itertools
import json
import os
import subprocess
import sys
import threading
import time
from decimal import (MAX_EMAX, MAX_PREC, MIN_EMIN, ROUND_FLOOR, ROUND_UP, Context, Decimal,
                     Inexact, Rounded, Subnormal, Underflow, localcontext)
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings

from simulroot import cli, solver
from simulroot.cli import main
from simulroot.fixtures import EXAMPLE_1, EXAMPLES, run_example
from simulroot.ingest import parse_expression, parse_trace, render_trace
from simulroot.numeric import MAX_DIGITS, Real, ln, make_real, pi
from simulroot.solver import (
    EstimateVector,
    IterationTrace,
    SolveReport,
    StopReason,
)
from simulroot.cli import _solve_exit_code
from test_error_contract import cases, run_case

R = make_real


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_solve_reproduces_first_table(capsys):
    code, out, _ = run(
        capsys,
        "solve",
        "--expr", "(x+2)^2*(x-1)*(x-3)^3",
        "--init", "-3,0.1,4",
        "--max-iters", "4",
        "--format", "table",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 6  # header + 5 rows
    assert "-3.000000000000000000, 0.100000000000000000, 4.000000000000000000" in lines[1]
    assert "-2.074075484632669383" in lines[2]
    assert "-2.000000000000000000, 1.000000000000000000, 3.000000000000000000" in lines[5]


def test_solve_linear_lands_in_one_step(capsys):
    code, out, _ = run(capsys, "solve", "--expr", "(x-1)", "--init", "5")
    assert code == 0
    rows = out.strip().splitlines()
    assert "1.000000000000000000" in rows[2]


def test_solve_duplicate_root_is_an_input_error(capsys):
    code, _, err = run(
        capsys, "solve", "--expr", "(x-1)*(x-1)", "--init", "0,5"
    )
    assert code == 1
    assert "duplicate root" in err


def test_solve_requires_exactly_one_input_route(capsys):
    code, _, err = run(capsys, "solve")
    assert code == 1
    assert "usage error" in err


def test_solve_json_round_trips_through_ingest(capsys, tmp_path):
    code, out, _ = run(
        capsys,
        "solve",
        "--expr", "(x+2)^2*(x-1)*(x-3)^3",
        "--init", "-3,0.1,4",
        "--max-iters", "4",
        "--format", "json",
    )
    assert code == 0
    report = parse_trace(out)
    assert render_trace(report, "json").decode() == out
    assert len(report.trace.snapshots) == 5


def test_solve_problem_file(capsys, tmp_path):
    problem = {
        "family": "exponential",
        "expr": "sinh((x+2)/2)^2*sinh((x-3)/2)^2",
        "init": ["-1.5", "3.4"],
        "digits": 64,
        "max_iters": 4,
    }
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(problem))
    code, out, _ = run(capsys, "solve", "--input", str(path))
    assert code == 0
    assert "-2.000000000000000000" in out.strip().splitlines()[-1]


@pytest.mark.parametrize("example", sorted(EXAMPLES))
def test_a_truncated_expression_exits_1_on_both_routes(capsys, tmp_path, example):
    text = EXAMPLES[example].expression
    family = parse_expression(text).family.value
    path = tmp_path / "problem.json"
    for end in range(len(text)):
        if text[end] in "^*":
            continue  # text[:end] is a whole product of fewer factors
        prefix = text[:end]
        code, _, err = run(capsys, "solve", "--expr", prefix, "--init", "1")
        assert code == 1 and "at position" in err, prefix
        path.write_text(json.dumps({"family": family, "expr": prefix, "init": ["1"]}))
        code, _, err = run(capsys, "solve", "--input", str(path))
        assert code == 1 and err.startswith("error: $.expr: "), prefix


def test_solve_exit_codes_from_stop_reasons():
    def report(stop, steps):
        vecs = tuple(
            EstimateVector((R(str(3 + i)),), k=i) for i in range(len(steps) + 1)
        )
        trace = IterationTrace(
            snapshots=vecs, step_sizes=tuple((R(s),) for s in steps)
        )
        return SolveReport(
            trace=trace,
            stop_reason=stop,
            failure="boom" if stop is StopReason.STEP_FAILURE else None,
        )

    assert _solve_exit_code(report(StopReason.TOLERANCE, ["0.1", "1e-60"])) == 0
    assert _solve_exit_code(report(StopReason.STEP_FAILURE, ["0.1"])) == 2
    # budget exhausted while still contracting: treated as success
    assert _solve_exit_code(report(StopReason.MAX_ITERS, ["0.5", "0.01"])) == 0
    # budget exhausted while stalled or growing: non-convergence
    assert _solve_exit_code(report(StopReason.MAX_ITERS, ["0.5", "0.5"])) == 2
    assert _solve_exit_code(report(StopReason.MAX_ITERS, ["0.5", "2"])) == 2
    # every root converged or froze: success, whatever the last steps did
    floor = report(StopReason.ACCURACY_FLOOR, ["0.5", "2"])
    assert _solve_exit_code(SolveReport(floor.trace, floor.stop_reason, frozen=frozenset({0}))) == 0


# x (x - 1)^2 (x - 2)^3: the double and triple roots freeze at their floor
FROZEN_PROBLEM = {
    "family": "algebraic",
    "coefficients": {"a": ["-8", "25", "-38", "28", "-8", "0"]},
    "mults": [1, 2, 3],
    "init": ["0.05", "1.04", "1.96"],
}


@pytest.mark.parametrize(
    "fmt,last", [("table", "status  converged, frozen, frozen"), ("csv", "status,converged,frozen,frozen")]
)
def test_solve_shows_each_root_status_once_a_root_froze(capsys, tmp_path, fmt, last):
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(FROZEN_PROBLEM))
    code, out, _ = run(capsys, "solve", "--input", str(path), "--format", fmt)
    assert code == 0
    assert out.splitlines()[-1] == last


def test_solve_json_records_the_floor_and_reads_back(capsys, tmp_path):
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(FROZEN_PROBLEM))
    code, out, _ = run(capsys, "solve", "--input", str(path), "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert (doc["stop_reason"], doc["converged"]) == ("accuracy_floor", False)
    assert doc["root_status"] == ["converged", "frozen", "frozen"]
    assert render_trace(parse_trace(out), "json").decode() == out


# The whole output of each report writer, byte for byte: the trace
# writers on worked example 1 (64 digits) and on FROZEN_PROBLEM, whose
# status row they add, and ``verify``'s text for each theorem.
EXAMPLE_1_TABLE_18 = (
    '   k  x1, x2, x3\n'
    '   0  -3.000000000000000000, 0.100000000000000000, 4.000000000000000000\n'
    '   1  -2.074075484632669383, 1.025215703994304145, 3.060848242666424485\n'
    '   2  -2.000104622198420048, 0.999992663820262272, 3.000018360022861370\n'
    '   3  -2.000000000000256952, 1.000000000000000236, 3.000000000000001703\n'
    '   4  -2.000000000000000000, 1.000000000000000000, 3.000000000000000000\n'
)
EXAMPLE_1_TABLE_19 = (
    '   k  x1, x2, x3\n'
    '   0  -3.0000000000000000000, 0.1000000000000000000, 4.0000000000000000000\n'
    '   1  -2.0740754846326693834, 1.0252157039943041447, 3.0608482426664244846\n'
    '   2  -2.0001046221984200485, 0.9999926638202622722, 3.0000183600228613696\n'
    '   3  -2.0000000000002569520, 1.0000000000000002360, 3.0000000000000017035\n'
    '   4  -2.0000000000000000000, 1.0000000000000000000, 3.0000000000000000000\n'
)
EXAMPLE_1_CSV = (
    'k,x1,x2,x3\n'
    '0,-3,0.1,4\n'
    '1,'
    '-2.074075484632669383402521232433255893666450851201584339414251438,'
    '1.025215703994304144720504807496507445735136463895583226800594731,'
    '3.060848242666424484606302788120969939151757333575515393697211879\n'
    '2,'
    '-2.000104622198420048456100600797811169922890744313261894945908923,'
    '0.9999926638202622722218134360871100219474466683068134996738147491,'
    '3.000018360022861369568714180087686700144825519046781464463715464\n'
    '3,'
    '-2.000000000000256951994917537197950876037794787227278751410842406,'
    '1.000000000000000235963937816039370800147562018725638474531297003,'
    '3.000000000000001703488360097716378825180964801747374228157902579\n'
    '4,'
    '-2.000000000000000000000000000000000000003702231833619224047329077,'
    '1.000000000000000000000000000000000000000000003117281839547051508,'
    '3.000000000000000000000000000000000000000000020271621496673858365\n'
)
FROZEN_TABLE = (
    '   k  x1, x2, x3\n'
    '   0  0.050000000000000000, 1.040000000000000000, 1.960000000000000000\n'
    '   1  0.002283854493478999, 1.000158122285165629, 1.999889204907892139\n'
    '   2  0.000000147586009547, 0.999999999979499013, 1.999999999995420727\n'
    '   3  0.000000000000000000, 1.000000000000000000, 2.000000000000000000\n'
    '   4  0.000000000000000000, 1.000000000000000000, 2.000000000000000000\n'
    '   5  0.000000000000000000, 1.000000000000000000, 2.000000000000000000\n'
    '   6  0.000000000000000000, 1.000000000000000000, 2.000000000000000000\n'
    'status  converged, frozen, frozen\n'
)
FROZEN_CSV = (
    'k,x1,x2,x3\n'
    '0,0.05,1.04,1.96\n'
    '1,'
    '0.00228385449347899903255578784771847149983776564375633043061705994,'
    '1.000158122285165629481704064800890419040158341866796747712139616,'
    '1.999889204907892138954231024214865376433344397315092373684882853\n'
    '2,'
    '1.47586009546875260049970028308227827846785493742700149032282E-7,'
    '0.9999999999794990127240437646448381672815244629578635431313167669,'
    '1.999999999995420726916800948590960664704242892103248592224472149\n'
    '3,'
    '3.93806503029757858059124494196982306404641539251040E-20,'
    '0.9999999999999999999999999999689797686458469273866644428426382521,'
    '1.999999999999999999999999999999742316518920611391714327341165858\n'
    '4,'
    '7.4814321081988312083122851E-58,'
    '0.9999999999999999999999999999999998790058933307543506317021387697,'
    '1.999999999999999999999999999999742316518920611391714327341165858\n'
    '5,'
    '-1E-121,'
    '0.9999999999999999999999999999999998790058933307543506317021387697,'
    '1.999999999999999999999999999999742316518920611391714327341165858\n'
    '6,'
    '0E-184,'
    '0.9999999999999999999999999999999998790058933307543506317021387697,'
    '1.999999999999999999999999999999742316518920611391714327341165858\n'
    'status,converged,frozen,frozen\n'
)
VERIFY_THEOREM_1 = (
    'theorem 1: PASS\n'
    '  [ok] 0 < q < 1: value 0.5\n'
    '  [ok] c > 0: 0.05 > 0\n'
    '  [ok] d - 2c > 0: 1.90 > 0\n'
    '  [ok] i=1 (mult 2) c^2 (n - m) < (m d - 2 n c)(d - 2c): 0.0100 < 6.4600\n'
    '  [ok] i=2 (mult 1) c^2 (n - m) < (m d - 2 n c)(d - 2c): 0.0125 < 2.6600\n'
    '  [ok] i=3 (mult 3) c^2 (n - m) < (m d - 2 n c)(d - 2c): 0.0075 < 10.2600\n'
)
VERIFY_THEOREM_2 = (
    'theorem 2: FAIL\n'
    '  [ok] 0 < q < 1: value 0.5\n'
    '  [ok] c > 0: 0.1 > 0\n'
    '  [ok] xi > 0: 1 > 0\n'
    '  [ok] 2c < xi: 0.2 < 1\n'
    '  [FAIL] d - 2c > 0: 0.0 > 0\n'
    '  [ok] max separation < 2 pi - 2 xi: 1 < 4.2831853071795865E+0\n'
    '  [FAIL] i=1 (mult 1) main inequality: A = 0 makes the 1/A terms undefined\n'
    '  [FAIL] i=2 (mult 1) main inequality: A = 0 makes the 1/A terms undefined\n'
    '  note: main inequality implemented verbatim as printed, including the (c/4)(m/4)(2n-m)'
    ' fragment and the + sign in the squared bracket; the printed form is suspected of'
    ' typesetting defects\n'
)
VERIFY_THEOREM_3 = (
    'theorem 3: FAIL\n'
    '  [FAIL] 0 < q < 1: value 1.5\n'
    '  [ok] c > 0: 0.1 > 0\n'
    '  [FAIL] d - 2c > 0: 0.0 > 0\n'
    '  [ok] c |sinh c| + cosh c < 12: 1.0150208430577880E+0 < 12\n'
    '  [FAIL] i=1 (mult 1) main inequality: S = sinh((d - 2c)/2) = 0.0'
    ' makes the 1/S terms undefined\n'
    '  [FAIL] i=2 (mult 1) main inequality: S = sinh((d - 2c)/2) = 0.0'
    ' makes the 1/S terms undefined\n'
    "  note: the ambiguous 'S cosh^-1 c' term is evaluated as S / cosh(c)\n"
)


@pytest.mark.parametrize("fmt,places,expected", [
    ("table", 18, EXAMPLE_1_TABLE_18), ("table", 19, EXAMPLE_1_TABLE_19), ("csv", 18, EXAMPLE_1_CSV),
])
def test_the_trace_writers_print_worked_example_1_as_pinned(fmt, places, expected):
    report = run_example(EXAMPLE_1, digits=64)
    assert render_trace(report, fmt, places=places).decode() == expected


@pytest.mark.parametrize("fmt,expected", [("table", FROZEN_TABLE), ("csv", FROZEN_CSV)])
def test_the_trace_writers_print_a_solve_with_frozen_roots_as_pinned(capsys, tmp_path, fmt,
                                                                     expected):
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(FROZEN_PROBLEM))
    assert run(capsys, "solve", "--input", str(path), "--format", fmt) == (0, expected, "")


@pytest.mark.parametrize("argv,code,expected", [
    (["1", "--roots", "-2,1,3", "--mults", "2,1,3", "--c", "0.05", "--q", "0.5"], 0,
     VERIFY_THEOREM_1),
    (["2", "--d", "0.2", "--max-sep", "1", "--mults", "1,1", "--c", "0.1", "--q", "0.5",
      "--xi", "1"], 3, VERIFY_THEOREM_2),
    (["3", "--d", "0.2", "--mults", "1,1", "--c", "0.1", "--q", "1.5"], 3, VERIFY_THEOREM_3),
])
def test_verify_prints_each_theorem_as_pinned(capsys, argv, code, expected):
    assert run(capsys, "verify", "--theorem", *argv) == (code, expected, "")


@pytest.mark.parametrize("hostile", [
    Context(prec=1, Emax=5, Emin=-5),
    Context(prec=3, rounding=ROUND_FLOOR, traps=[Inexact, Rounded, Subnormal, Underflow]),
    Context(prec=MAX_PREC, rounding=ROUND_UP, Emax=MAX_EMAX, Emin=MIN_EMIN, clamp=1),
])
def test_every_command_prints_the_same_under_any_thread_context(capsys, tmp_path, hostile):
    # Every decimal operation names its own context, so the thread's
    # context changes no output byte and lets no raw decimal signal out.
    trace = tmp_path / "trace.json"
    solve = ["solve", "--expr", "(x+2)^2*(x-1)*(x-3)^3", "--init", "-3,0.1,4", "--format"]
    commands = [solve + ["table"], solve + ["csv"], solve + ["json"],
                ["order", "--input", str(trace), "--true-roots", "-2,1,3"]]
    commands += [["verify", "--theorem", *argv] for argv in (
        ["1", "--roots", "-2,1,3", "--mults", "2,1,3", "--c", "0.05", "--q", "0.5"],
        ["2", "--d", "0.2", "--max-sep", "1", "--mults", "1,1", "--c", "0.1", "--q", "0.5",
         "--xi", "1"],
        ["3", "--d", "0.2", "--mults", "1,1", "--c", "0.1", "--q", "1.5"])]
    commands += [["reproduce", "--table", str(table)] for table in (1, 2, 3)]
    logs = [Real(Decimal(x), digits) for x, digits in (
        ("2", 30), ("1e-40", 64), ("0.99999999", 128), ("3.7e5000", 256))]

    def outputs():
        printed = []
        for argv in commands:
            printed.append(run(capsys, *argv))
            if argv[-1] == "json":
                trace.write_text(printed[-1][1])
        return printed, [str(ln(x)) for x in logs]

    want = outputs()
    assert [code for code, _, _ in want[0]][-3:] == [3, 3, 0]
    with localcontext(hostile):
        assert outputs() == want


def test_verify_theorem1_passes(capsys):
    code, out, _ = run(
        capsys,
        "verify",
        "--theorem", "1",
        "--roots", "-2,1,3",
        "--mults", "2,1,3",
        "--c", "0.05",
        "--q", "0.5",
    )
    assert code == 0
    assert "PASS" in out
    assert "0.0125 < 2.66" in out


def test_verify_boundary_c_fails(capsys):
    code, out, _ = run(
        capsys,
        "verify",
        "--theorem", "1",
        "--roots", "-2,1,3",
        "--mults", "2,1,3",
        "--c", "1",
        "--q", "0.5",
    )
    assert code == 3
    assert "FAIL" in out


def test_verify_theorem2_requires_xi(capsys):
    code, _, err = run(
        capsys,
        "verify",
        "--theorem", "2",
        "--roots", "1,2,2.5",
        "--mults", "3,2,1",
        "--c", "0.05",
        "--q", "0.5",
    )
    assert code == 1
    assert "--xi" in err


def test_verify_theorem3_overflow_exits_1_without_a_traceback(capsys):
    code, out, err = run(
        capsys,
        "verify",
        "--theorem", "3",
        "--d", "1e30",
        "--c", "1e20",
        "--q", "0.5",
        "--mults", "1,1",
    )
    assert code == 1
    assert out == ""
    assert err == "error: sinh(c) overflows the decimal exponent range\n"


def test_verify_theorem3_json_output(capsys):
    code, out, _ = run(
        capsys,
        "verify",
        "--theorem", "3",
        "--roots", "-2,3",
        "--mults", "2,2",
        "--c", "0.05",
        "--q", "0.5",
        "--json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["theorem"] == 3 and payload["passed"] is True


def test_order_on_reference_trace(capsys, tmp_path):
    # Build a trace file from the published table digits themselves.
    snapshots = tuple(
        EstimateVector(tuple(make_real(v, 64) for v in row), k=k)
        for k, row in enumerate(EXAMPLE_1.table)
    )
    steps = tuple(
        tuple(abs(a - b) for a, b in zip(nxt.x, prev.x))
        for prev, nxt in zip(snapshots, snapshots[1:])
    )
    report = SolveReport(
        trace=IterationTrace(snapshots=snapshots, step_sizes=steps),
        stop_reason=StopReason.MAX_ITERS,
    )
    path = tmp_path / "trace.json"
    path.write_bytes(render_trace(report, "json"))

    code, out, _ = run(
        capsys, "order", "--input", str(path), "--true-roots", "-2,1,3"
    )
    assert code == 0
    first = out.strip().splitlines()[0]
    assert first.startswith("x1: order 3.37")


def test_order_reads_a_trace_whose_snapshots_carry_fewer_digits(capsys, tmp_path, monkeypatch):
    # A 256-digit factored solve climbs from fewer digits: its JSON trace
    # keeps "digits": 256 while its early snapshots carry fewer.  The trace
    # round-trips byte for byte, and order reads from it the orders that it
    # reads from the trace of a solve whose every sweep runs at 256 digits.
    argv = ["solve", "--expr", EXAMPLE_1.expression, "--init", ",".join(EXAMPLE_1.init),
            "--digits", "256", "--format", "json"]
    orders = []
    for ladder in (True, False):
        if not ladder:
            monkeypatch.setattr(solver, "_level", lambda p, estimates, mults, steps, last, top: top)
        code, blob, _ = run(capsys, *argv)
        assert code == 0
        report = parse_trace(blob)
        assert render_trace(report, "json").decode() == blob
        digits = [len(x.dec.as_tuple().digits) for x in report.trace.snapshots[1].x]
        assert (max(digits) < 256) == ladder
        path = tmp_path / f"trace-{ladder}.json"
        path.write_text(blob)
        code, out, err = run(capsys, "order", "--input", str(path), "--true-roots", "-2,1,3")
        assert (code, err) == (0, "")
        orders.append([line.split(" from ")[0] for line in out.splitlines()])
    assert orders[0] == orders[1] == ["x1: order 3.000", "x2: order 2.895", "x3: order 2.894"]


@pytest.mark.parametrize("example", sorted(EXAMPLES))
def test_a_coarse_tolerance_stops_a_256_digit_solve_below_the_top_level(capsys, example,
                                                                        monkeypatch):
    # --tolerance 1e-17 at 256 digits: the ladder's sweeps below 256 digits
    # resolve steps of 1e-17, so the solve stops on the tolerance after the
    # sweeps a solve whose every sweep runs at 256 digits takes, and exits
    # 0 within that many --max-iters.  The last snapshot carries the digits
    # of the level it stopped at and agrees with the full solve's to them.
    case = EXAMPLES[example]
    argv = ["solve", "--expr", case.expression, "--init", ",".join(case.init),
            "--digits", "256", "--tolerance", "1e-17", "--format", "json"]
    monkeypatch.setattr(solver, "_level", lambda p, estimates, mults, steps, last, top: top)
    code, blob, _ = run(capsys, *argv)
    full = parse_trace(blob)
    monkeypatch.undo()
    sweeps = len(full.trace.snapshots) - 1
    code, blob, _ = run(capsys, *argv, "--max-iters", str(sweeps))
    report = parse_trace(blob)
    assert code == 0 and report.stop_reason is full.stop_reason is StopReason.TOLERANCE
    assert len(report.trace.snapshots) == sweeps + 1
    last = report.trace.final().x
    level = max(len(x.dec.as_tuple().digits) for x in last)
    assert level < 256
    for x, y in zip(last, full.trace.final().x):
        assert abs(x.dec - y.dec) <= Decimal(10) ** (10 - level) * max(1, abs(y.dec))


def test_order_prints_an_order_of_any_size(capsys, tmp_path):
    # errors 1, 1 - 1e-40, 0.5: the order ln(0.5)/ln(1 - 1e-40) is about
    # 7e39, more digits than the default decimal context keeps
    trace = tmp_path / "trace.json"
    trace.write_text(json.dumps({"digits": 64, "snapshots": [
        {"k": 0, "x": ["1"]}, {"k": 1, "x": ["0." + "9" * 40]}, {"k": 2, "x": ["0.5"]}],
        "step_sizes": [["1e-40"], ["0." + "4" + "9" * 39]]}))
    code, out, err = run(capsys, "order", "--input", str(trace), "--true-roots", "0")
    assert (code, err) == (0, "")
    assert out.startswith("x1: order 6931471805599453094172321214581765680753.655 from errors")


def test_order_insufficient_data_exits_2(capsys, tmp_path):
    vecs = (
        EstimateVector((R("0.5"),), k=0),
        EstimateVector((R("0.25"),), k=1),
    )
    report = SolveReport(
        trace=IterationTrace(snapshots=vecs, step_sizes=((R("0.25"),),)),
        stop_reason=StopReason.MAX_ITERS,
    )
    path = tmp_path / "short.json"
    path.write_bytes(render_trace(report, "json"))
    code, out, _ = run(capsys, "order", "--input", str(path), "--true-roots", "0")
    assert code == 2
    assert "insufficient data" in out


def test_reproduce_table3_matches(capsys):
    code, out, _ = run(capsys, "reproduce", "--table", "3")
    assert code == 0
    assert "all entries within 1e-14" in out


@pytest.mark.parametrize("table,cells", [(1, 1), (2, 1)])
def test_reproduce_tables_with_transcribed_slips(capsys, table, cells):
    # Tables 1 and 2 each contain one reference cell whose printed digits
    # disagree with exact recomputation; the diff reports exactly those.
    code, out, _ = run(capsys, "reproduce", "--table", str(table))
    assert code == 3
    assert out.count("MISMATCH") == cells
    assert "transcription slip" in out


def test_digits_env_override(capsys, monkeypatch):
    monkeypatch.setenv("SIMULROOT_DIGITS", "48")
    code, out, _ = run(capsys, "reproduce", "--table", "3")
    assert code == 0
    monkeypatch.setenv("SIMULROOT_DIGITS", "not-a-number")
    code, _, err = run(capsys, "reproduce", "--table", "3")
    assert code == 1
    assert "SIMULROOT_DIGITS" in err


def test_unknown_flag_exits_1(capsys):
    code, _, err = run(capsys, "solve", "--frobnicate")
    assert code == 1


@pytest.mark.parametrize("argv", [["-h"], ["solve", "-h"], ["order", "--help"]])
def test_help_returns_0_with_the_usage_on_stdout(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 0
    assert out.startswith("usage: simulroot") and err == ""


def test_solve_far_start_exits_2_without_a_traceback(capsys):
    code, _, err = run(capsys, "solve", "--expr", "sinh((x-1)/2)^2", "--init", "1e25")
    assert code == 2
    assert "Traceback" not in err


def test_solve_names_an_overflowing_step_in_words(capsys, tmp_path):
    # e^x at x = 1e30 overflows the decimal exponent range: the failure
    # says so, not as the raw decimal signal's class
    problem = {"family": "exponential", "digits": 64, "mults": [1, 1, 1, 1],
               "coefficients": {"a0": "-1", "a": ["1", "0.5"], "b": ["0", "0.25"]},
               "init": ["-1.1", "0.2", "0.9", "1e30"]}
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(problem))
    code, _, err = run(capsys, "solve", "--input", str(path))
    assert code == 2
    assert "<class" not in err
    assert "root index 3: the step overflows the decimal exponent range" in err


@pytest.mark.parametrize(
    "snapshot,path", [({"k": 0}, "$.snapshots[0].x"), ({"x": ["1"]}, "$.snapshots[0].k")]
)
def test_order_on_snapshot_missing_a_field_exits_1(capsys, tmp_path, snapshot, path):
    trace = tmp_path / "trace.json"
    trace.write_text(json.dumps({"digits": 64, "snapshots": [snapshot], "step_sizes": []}))
    code, _, err = run(capsys, "order", "--input", str(trace), "--true-roots", "1")
    assert code == 1
    assert path in err and "missing required field" in err


def test_solve_input_digits_override(capsys, tmp_path):
    problem = {
        "family": "algebraic",
        "expr": "(x+2)^2*(x-1)*(x-3)^3",
        "init": ["-3", "0.1", "4"],
        "digits": 64,
        "max_iters": 4,
    }
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(problem))
    code, out, _ = run(capsys, "solve", "--input", str(path), "--digits", "40", "--format", "json")
    assert code == 0
    assert json.loads(out)["digits"] == 40

    path.write_text("{not json")
    code, _, err = run(capsys, "solve", "--input", str(path), "--digits", "40")
    assert code == 1
    assert "$: invalid JSON" in err


def test_digits_below_minimum_exits_1(capsys):
    code, _, err = run(capsys, "reproduce", "--table", "3", "--digits", "20")
    assert code == 1
    assert "digits must be >= 30" in err


@pytest.mark.parametrize(
    "argv,message",
    [
        (["solve", "--expr", "(x-1)", "--init", "5"], "error: digits must be >= 30, got 20"),
        (
            ["verify", "--theorem", "1", "--roots", "-2,1,3", "--mults", "2,1,3",
             "--c", "0.05", "--q", "0.5"],
            "error: digits must be >= 30, got 20",
        ),
        (["solve", "--input", "{problem}"], "error: $.digits: digits must be >= 30, got 20"),
    ],
)
def test_digits_below_minimum_exits_1_on_every_route(capsys, tmp_path, argv, message):
    problem = tmp_path / "problem.json"
    problem.write_text(json.dumps({"family": "algebraic", "expr": "(x-1)", "init": ["5"]}))
    argv = [arg.format(problem=problem) for arg in argv]
    code, _, err = run(capsys, *argv, "--digits", "20")
    assert code == 1
    assert message in err


@pytest.mark.parametrize("digits", [MAX_PREC + 1, 2**63, 10**21])
@pytest.mark.parametrize("route", ["flag", "environment", "problem file"])
def test_digits_above_the_ceiling_exit_1_naming_it_on_every_route(capsys, monkeypatch, tmp_path,
                                                                  route, digits):
    # Each failed inside decimal before Real had a ceiling: an OverflowError
    # traceback from 2**63 up, decimal's own range text below.
    monkeypatch.delenv("SIMULROOT_DIGITS", raising=False)
    argv, where = ["solve", "--expr", "(x-1)", "--init", "3"], ""
    if route == "flag":
        argv += ["--digits", str(digits)]
    elif route == "environment":
        monkeypatch.setenv("SIMULROOT_DIGITS", str(digits))
    else:
        problem = tmp_path / "problem.json"
        problem.write_text(json.dumps({"family": "algebraic", "expr": "(x-1)", "init": ["3"],
                                       "digits": digits}))
        argv, where = ["solve", "--input", str(problem)], "$.digits: "
    message = f"error: {where}digits must be <= {MAX_DIGITS}, got {digits}\n"
    assert run(capsys, *argv) == (1, "", message)


def test_order_on_trace_below_minimum_digits_exits_1(capsys, tmp_path):
    trace = tmp_path / "trace.json"
    trace.write_text(json.dumps({"digits": 20, "snapshots": [{"k": 0, "x": ["1"]}],
                                 "step_sizes": []}))
    code, _, err = run(capsys, "order", "--input", str(trace), "--true-roots", "1")
    assert code == 1
    assert "$.digits: digits must be >= 30, got 20" in err


def test_solve_input_digits_from_environment(capsys, monkeypatch, tmp_path):
    # A problem file without "digits" takes SIMULROOT_DIGITS, as --expr does.
    path = tmp_path / "problem.json"
    path.write_text(json.dumps({"family": "algebraic", "expr": "(x-1)", "init": ["5"]}))
    argv = ["solve", "--input", str(path), "--format", "json"]
    monkeypatch.setenv("SIMULROOT_DIGITS", "40")
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert json.loads(out)["digits"] == 40
    code, out, _ = run(capsys, *argv, "--digits", "80")
    assert code == 0
    assert json.loads(out)["digits"] == 80
    monkeypatch.setenv("SIMULROOT_DIGITS", "not-a-number")
    code, _, err = run(capsys, *argv)
    assert code == 1
    assert "SIMULROOT_DIGITS" in err


def test_solve_expr_and_input_build_the_same_problem(capsys, tmp_path):
    overrides = ["--max-iters", "3", "--tolerance", "1e-20", "--method", "newton_baseline"]
    problem = {
        "family": "trigonometric",
        "expr": "sin((x-1)/2)^3*sin((x-2)/2)^2*sin((x-2.5)/2)",
        "init": ["0.2", "1.7", "3"],
        "digits": 40,
    }
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(problem))
    code, from_file, _ = run(capsys, "solve", "--input", str(path), "--format", "json", *overrides)
    assert code == 0
    code, from_expr, _ = run(
        capsys, "solve", "--expr", problem["expr"], "--init", "0.2,1.7,3",
        "--digits", "40", "--format", "json", *overrides,
    )
    assert code == 0
    assert from_expr == from_file
    assert len(json.loads(from_file)["snapshots"]) == 4


def test_order_on_a_trace_without_snapshots_exits_1(capsys, tmp_path):
    trace = tmp_path / "trace.json"
    trace.write_text(json.dumps({"digits": 64, "snapshots": [], "step_sizes": []}))
    code, _, err = run(capsys, "order", "--input", str(trace), "--true-roots", "1")
    assert code == 1
    assert "$.snapshots: expected a non-empty array" in err


PAST_RANGE = "1e999999999999999999999"


@pytest.mark.parametrize(
    "argv,document",
    [
        (["solve", "--expr", "(x-1)*(x-2)", "--init", f"0,{PAST_RANGE}"], None),
        (["solve", "--expr", "(x-1)*(x-2)", "--init", "0,3", "--tolerance", PAST_RANGE], None),
        (["solve", "--input", "{path}"],
         {"family": "algebraic", "expr": "(x-1)*(x-2)", "init": ["0", "3"],
          "tolerance": PAST_RANGE}),
        (["solve", "--input", "{path}"],
         {"family": "algebraic", "coefficients": {"a": ["-3", PAST_RANGE]}, "mults": [1, 1],
          "init": ["0", "3"]}),
        (["verify", "--theorem", "1", "--d", "1", "--mults", "1,1", "--c", PAST_RANGE,
          "--q", "0.5"], None),
        (["order", "--input", "{path}", "--true-roots", "0"],
         {"digits": 64, "snapshots": [{"k": 0, "x": [PAST_RANGE]}], "step_sizes": []}),
    ],
)
def test_an_exponent_past_the_decimal_range_exits_1_on_every_route(
    capsys, tmp_path, argv, document
):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(document))
    code, out, err = run(capsys, *(token.replace("{path}", str(path)) for token in argv))
    assert (code, out) == (1, "")
    assert f"magnitude out of range at position {len(PAST_RANGE)} in '{PAST_RANGE}'" in err


@pytest.mark.parametrize("c", ["1e-1000000000000000070", "-1e-1000000000000000070"])
def test_verify_rejects_a_nonzero_c_that_rounds_to_0(capsys, c):
    code, out, err = run(capsys, "verify", "--theorem", "1", "--d", "1", "--mults", "1,1",
                         "--c", c, "--q", "0.5")
    assert (code, out) == (1, "")
    assert f"magnitude out of range at position {len(c)} in '{c}'" in err


@pytest.mark.parametrize("theorem,extra", [("1", []), ("2", ["--xi", "1"]), ("3", [])])
def test_verify_rejects_max_sep_with_roots(capsys, theorem, extra):
    # the roots give their own maximum separation, so a given one would be
    # replaced without a word
    code, out, err = run(capsys, "verify", "--theorem", theorem, "--roots", "1,2,2.5",
                         "--mults", "3,2,1", "--c", "0.05", "--q", "0.5", *extra,
                         "--max-sep", "100")
    assert (code, out, err) == (
        1, "", "usage error: --max-sep goes with --d; --roots gives the maximum separation\n")


@pytest.mark.parametrize("theorem", ["1", "3"])
@pytest.mark.parametrize("extra,named", [
    (["--xi", "1"], "--xi"),
    (["--max-sep", "5"], "--max-sep"),
    (["--xi", "1", "--max-sep", "5"], "--xi or --max-sep"),
])
def test_verify_rejects_the_theorem_2_flags_for_theorems_1_and_3(capsys, theorem, extra, named):
    # neither theorem reads xi or the maximum separation, so a given one
    # would be dropped without a word
    code, out, err = run(capsys, "verify", "--theorem", theorem, "--d", "1", "--mults", "2,2",
                         "--c", "0.05", "--q", "0.5", *extra)
    assert (code, out, err) == (1, "", f"usage error: --theorem {theorem} does not take {named}\n")


@pytest.mark.parametrize(
    "argv,message",
    [
        (["1", "--roots", "0,1", "--mults", "0,-1"],
         "error: multiplicities must be a non-empty tuple of positive integers"),
        (["1", "--d", "1", "--mults", "2,0"],
         "error: multiplicities must be a non-empty tuple of positive integers"),
        (["1", "--roots", "0,1", "--mults", "1,1,1"],
         "usage error: expected 2 multiplicities, one per root, got 3"),
        (["3", "--roots", "0,1,2", "--mults", "2,2"],
         "usage error: expected 3 multiplicities, one per root, got 2"),
        (["2", "--roots", "0,1", "--mults", "1,2", "--xi", "1"],
         "error: multiplicities sum to 3; the trigonometric degree needs an even sum"),
        (["3", "--d", "1", "--mults", "1,1,3"],
         "error: multiplicities sum to 5; the exponential degree needs an even sum"),
    ],
)
def test_verify_rejects_multiplicities_that_fit_no_polynomial(capsys, argv, message):
    code, out, err = run(capsys, "verify", "--theorem", *argv, "--c", "0.1", "--q", "0.5")
    assert (code, out, err) == (1, "", message + "\n")


TRIG_PAIR = "sin((x-1)/2)*sin((x+1)/2)"


def test_solve_trigonometric_estimate_without_a_phase_exits_1(capsys):
    code, out, err = run(capsys, "solve", "--expr", TRIG_PAIR, "--init", "1e20000,2",
                         "--max-iters", "2")
    assert code == 1
    assert out == ""
    assert "no digit of its phase" in err


def test_solve_trigonometric_estimates_a_period_apart_exit_1(capsys):
    one_period_on = str(R("1.1") + 2 * pi(64))
    code, out, err = run(capsys, "solve", "--expr", TRIG_PAIR, "--init", f"1.1,{one_period_on}")
    assert code == 1
    assert out == ""
    assert "estimates 0 and 1 coincide" in err


def test_verify_theorem1_overflow_exits_1_naming_the_side(capsys):
    code, out, err = run(capsys, "verify", "--theorem", "1", "--d", "1", "--mults", "1,1",
                         "--c", "1e999999999999999990", "--q", "0.5")
    assert (code, out) == (1, "")
    assert err == (
        "error: the main inequality's left side for i=1 overflows the decimal exponent range\n"
    )


def test_verify_theorem2_underflowed_divisor_exits_1_naming_the_side(capsys):
    # A = sin(xi/2) is not 0, but A^2 underflows to 0
    code, out, err = run(capsys, "verify", "--theorem", "2", "--d", "1", "--max-sep", "2",
                         "--mults", "1,1", "--c", "0.05", "--q", "0.5",
                         "--xi", "1e-999999999999999990")
    assert (code, out) == (1, "")
    assert err == (
        "error: the main inequality's left side for i=1 divides by a term that "
        "underflows to zero\n"
    )


@pytest.mark.parametrize(
    "flag,value,quantity",
    [("--xi", "1e30000", "xi/2"), ("--c", "1e999999999999999990", "d/2 - c")],
)
def test_verify_theorem2_phase_without_a_digit_exits_1(capsys, flag, value, quantity):
    argv = {"--d": "1", "--max-sep": "2", "--mults": "1,1", "--c": "0.05", "--q": "0.5",
            "--xi": "1", flag: value}
    start = time.perf_counter()
    code, out, err = run(capsys, "verify", "--theorem", "2", *itertools.chain(*argv.items()))
    assert time.perf_counter() - start < 0.5
    assert (code, out) == (1, "")
    assert err == f"error: {quantity} has no digit of its phase left at 64 digits\n"


def test_solve_exit_code_does_not_depend_on_the_format(capsys):
    argv = ["solve", "--expr", "(x-1)*(x-2)", "--init", "1e999999999999999990,2",
            "--max-iters", "3"]
    codes = {fmt: run(capsys, *argv, "--format", fmt)[0] for fmt in ("table", "csv", "json")}
    assert codes == {"table": 0, "csv": 0, "json": 0}
    _, table, _ = run(capsys, *argv)
    assert table.splitlines()[1].split() == ["0", "1E+999999999999999990,", "2.000000000000000000"]


def test_negative_values_merge_with_any_flag(capsys):
    code, out, _ = run(capsys, "verify", "--theorem", "1", "--roots", "-2,1,3",
                       "--mults", "2,1,3", "--c", "0.05", "--q", "0.5", "--digits", "-40")
    assert (code, out) == (1, "")
    code, out, _ = run(capsys, "solve", "--expr", "(x+0.5)*(x-1)", "--init", "-.6,1.2",
                       "--tolerance", "-1e-5")
    assert (code, out) == (1, "")
    code, out, _ = run(capsys, "solve", "--expr", "(x+0.5)*(x-1)", "--init", "-.6,1.2",
                       "--tolerance", "1e-50")
    assert code == 0
    assert out.splitlines()[1].split() == ["0", "-0.600000000000000000,", "1.200000000000000000"]


def test_verify_takes_the_degree_from_the_multiplicities_only(capsys):
    code, _, err = run(capsys, "verify", "--theorem", "2", "--roots", "1,2", "--mults", "1,2",
                       "--c", "0.05", "--q", "0.5", "--xi", "1", "--n", "3")
    assert code == 1
    assert "unrecognized arguments: --n" in err


# -- one parser per process ---------------------------------------------

LINEAR = ["solve", "--expr", "(x-1)", "--init", "5", "--format", "json"]


def test_main_builds_one_parser_for_every_call(capsys, monkeypatch):
    built = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())
    cli._parser.cache_clear()
    assert run(capsys, *LINEAR)[0] == 0
    assert run(capsys, "-h")[0] == 0
    assert run(capsys, "solve", "--frobnicate")[0] == 1
    assert run(capsys, "reproduce", "--table", "3")[0] == 0
    assert len(built) == 1
    # build_parser itself still gives a new parser on every call
    assert build() is not build()


@pytest.mark.parametrize("file_digits,expected", [({"digits": 70}, 70), ({}, 64)])
def test_digits_of_one_call_do_not_carry_to_the_next(
    capsys, monkeypatch, tmp_path, file_digits, expected
):
    monkeypatch.delenv("SIMULROOT_DIGITS", raising=False)
    path = tmp_path / "problem.json"
    path.write_text(json.dumps({"family": "algebraic", "expr": "(x-1)", "init": ["5"],
                                **file_digits}))
    argv = ["solve", "--input", str(path), "--format", "json"]
    code, out, _ = run(capsys, *argv, "--digits", "40")
    assert code == 0 and json.loads(out)["digits"] == 40
    code, out, _ = run(capsys, *argv)
    assert code == 0 and json.loads(out)["digits"] == expected


def test_digits_from_the_environment_are_read_on_every_call(capsys, monkeypatch):
    monkeypatch.setenv("SIMULROOT_DIGITS", "40")
    assert json.loads(run(capsys, *LINEAR)[1])["digits"] == 40
    monkeypatch.setenv("SIMULROOT_DIGITS", "80")
    assert json.loads(run(capsys, *LINEAR)[1])["digits"] == 80
    monkeypatch.delenv("SIMULROOT_DIGITS")
    assert json.loads(run(capsys, *LINEAR)[1])["digits"] == 64


def test_help_then_a_usage_error_then_a_run_each_give_their_own_output(capsys):
    code, out, err = run(capsys, "-h")
    assert code == 0 and out.startswith("usage: simulroot") and err == ""
    code, out, err = run(capsys, "solve", "--frobnicate")
    assert code == 1 and out == ""
    assert err == "usage error: unrecognized arguments: --frobnicate\n"
    code, out, err = run(capsys, *LINEAR[:-1], "csv")
    assert (code, out.splitlines()[0], err) == (0, "k,x1", "")


@settings(
    max_examples=50,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)
@given(cases)
def test_the_shared_parser_answers_as_a_fresh_one(tmp_path, case):
    shared = run_case(tmp_path, case)
    with mock.patch.object(cli, "_parser", cli.build_parser):
        fresh = run_case(tmp_path, case)
    assert shared == fresh


def test_threads_parsing_at_once_each_get_their_own_namespace():
    # parse_args writes only to the namespace it returns, so threads that
    # share the parser cannot see each other's values.
    argvs = [
        ["solve", "--expr", "(x-1)", "--init", f"{k}", "--digits", f"{40 + k}"]
        for k in range(6)
    ] + [["reproduce", "--table", f"{1 + k % 3}"] for k in range(6)]
    expected = [vars(cli.build_parser().parse_args(argv)) for argv in argvs]
    failures = []

    def parse(offset):
        for n in range(300):
            k = (offset + n) % len(argvs)
            if vars(cli._parser().parse_args(argvs[k])) != expected[k]:
                failures.append(argvs[k])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=parse, args=(offset,)) for offset in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert failures == []


@pytest.mark.parametrize("module", ["simulroot", "simulroot.cli"])
def test_the_module_forms_run_the_command(module):
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parent.parent))

    def run(*argv):
        return subprocess.run([sys.executable, "-m", module, *argv], env=env,
                              capture_output=True, text=True, timeout=60)

    done = run("solve", "--expr", "(x-1)", "--init", "3")
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1].split() == ["2", "1.000000000000000000"]
    assert run("solve", "--no-such-flag").returncode == 1
