"""The interface the benchmark in perfbench/ calls.

perfbench/ is versioned with the benchmark, not with the package, so a
rename here would break it without any other test noticing.  These
tests pin what it reads: every name its tracer wraps, that those names
are the functions a solve runs, the calls and fields of its solve op
(perfbench/run.py, ``solve_op`` and the layer metrics), and that its CLI
op may call ``cli.main`` again and again in one process.
"""

import contextlib
import importlib
import importlib.util
import io
import json
import random
from decimal import Decimal
from pathlib import Path

import pytest

import simulroot
from simulroot import cli, numeric, polys
from simulroot.numeric import make_real

from oracles import known_phase_gaps, log_derivative

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _perfbench(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _traced() -> dict:
    return _perfbench("tracing").TRACED


@pytest.mark.parametrize("span,target", sorted(_traced().items()))
def test_every_traced_name_resolves_to_a_callable(span, target):
    module_name, attr = target
    assert callable(getattr(importlib.import_module(module_name), attr, None)), span


def test_solve_op_calls_resolve():
    problem = {
        "family": "trigonometric",
        "expr": "sin((x-1)/2)^3*sin((x-2)/2)^2*sin((x-2.5)/2)",
        "mults": [3, 2, 1],
        "init": ["0.2", "1.7", "3"],
        "digits": 64,
    }
    spec = simulroot.parse_problem(json.dumps(problem, sort_keys=True).encode())
    args = (spec.poly, spec.profile(), spec.initial_vector(), spec.solve_config())
    report = simulroot.solve(*args)
    assert report.converged and report.stop_reason.value == "tolerance"
    # the op checks the final estimates as decimal strings
    assert [round(float(str(x)), 12) for x in report.trace.final().x] == [1.0, 2.0, 2.5]
    assert len(report.trace.step_sizes) == len(report.trace.snapshots) - 1
    assert callable(getattr(importlib.import_module("simulroot.cli"), "main"))


def test_solve_op_reads_a_frozen_root_solve_as_not_converged():
    # The op counts `converged and not within` as a wrong result and reads
    # the stop reason by its string value, so a solve whose roots froze at
    # their attainable accuracy must report converged False.
    problem = {
        "family": "algebraic",
        "coefficients": {"a": ["-8", "25", "-38", "28", "-8", "0"]},  # x (x-1)^2 (x-2)^3
        "mults": [1, 2, 3],
        "init": ["0.05", "1.04", "1.96"],
        "digits": 64,
    }
    spec = simulroot.parse_problem(json.dumps(problem, sort_keys=True).encode())
    report = simulroot.solve(spec.poly, spec.profile(), spec.initial_vector(), spec.solve_config())
    assert report.converged is False
    assert isinstance(report.stop_reason.value, str)
    assert report.stop_reason.value == "accuracy_floor"
    errors = [abs(float(str(x)) - r) for x, r in zip(report.trace.final().x, (0, 1, 2))]
    assert max(errors) < 1e-9


@pytest.mark.parametrize("family,kernel", [("trigonometric", "cot"), ("exponential", "coth")])
def test_kernel_calls_go_through_the_names_the_tracer_rebinds(family, kernel, monkeypatch):
    # The tracer counts numeric's functions by rebinding them in every
    # module that holds them, so polys calls its kernels through its own
    # module names: the phase kernel once per point, and cot/coth only for
    # a pair term that falls back to the direct kernel.  A near pair, 1e-40
    # apart, takes the short series at half its difference instead.
    pair = {"cot": "cos_sin", "coth": "cosh_sinh"}[kernel]
    calls = {pair: [], kernel: []}
    for name, seen in calls.items():
        original = getattr(polys, name)
        monkeypatch.setattr(polys, name, lambda x, seen=seen, f=original: seen.append(x) or f(x))

    def counted(run):
        for seen in calls.values():
            seen.clear()
        run()
        return len(calls[pair]), len(calls[kernel])

    family = polys.Family(family)
    m = 5
    points = [make_real(str(j)) for j in range(m)]
    x = make_real("0.5")

    def per_point():
        (phase,) = polys.phases(family, [x], 64)
        log_derivative(family, x, phase, points, polys.phases(family, points, 64), [1] * m)

    def pairwise(points):
        point_phases = polys.phases(family, points, 64)
        polys.pairwise_log_derivatives(family, points, point_phases, [1] * len(points))

    assert counted(per_point) == (m + 1, 0)
    assert counted(lambda: pairwise(points)) == (m, 0)
    near = [make_real("1"), make_real("1." + "0" * 39 + "1")]
    assert counted(lambda: pairwise(near)) == (2, 0)


@pytest.mark.parametrize("expr,init,expected", [
    ("sin((x-1)/2)^3*sin((x-2)/2)^2*sin((x-2.5)/2)", ("0.2", "1.7", "3"), (3, 7, 6, 12, 7)),
    ("sinh((x+2)/2)^2*sinh((x-3)/2)^2", ("-1.5", "2.4"), (2, 6, 2, 6, 4)),
])
def test_the_phase_kernel_runs_only_where_a_phase_cannot_be_turned(expr, init, expected,
                                                                   monkeypatch):
    # cos_sin/cosh_sinh run through the rule's lambdas for p's m roots, the
    # m estimates of sweep 1 (none starts within MAX_TURN_STEP of a root)
    # and each later estimate with no known phase within MAX_TURN_STEP.
    # A later sweep turns each estimate's phase from the nearer of its last
    # position and its nearest root, and an estimate on its root keeps the
    # root's phase; the sweep that stops the solve turns none.  A kernel
    # run for every estimate in every sweep made m (k + 1) calls, 24 and 14
    # here against 12 and 6, and turning from the last position alone
    # made 9 and 4 later runs, 15 and 8 calls.  The short series serves the
    # turns, at TURN_GUARD_DIGITS more digits than a phase, and the near
    # terms, K(x_i - r_i) once x_i lies within 2e-10 of r_i, at a phase's
    # digits.
    calls = []
    for name in ("cos_sin", "cosh_sinh"):
        kernel = getattr(polys, name)
        monkeypatch.setattr(polys, name, lambda t, kernel=kernel: calls.append(t) or kernel(t))
    spec = simulroot.expression_problem(expr, init)
    series_calls = []
    series = polys._small_pair_series
    monkeypatch.setattr(polys, "_small_pair_series",
                        lambda *a: series_calls.append(a[2].prec) or series(*a))
    report = simulroot.solve(spec.poly, spec.profile(), spec.initial_vector(), spec.config)
    assert report.converged
    m, k = spec.profile().m, len(report.trace.step_sizes)
    first, *later = known_phase_gaps(spec.poly, report.trace.snapshots, k)
    assert min(first) >= polys.MAX_TURN_STEP
    gaps = [gap for row in later for gap in row]
    redos = sum(gap >= polys.MAX_TURN_STEP for gap in gaps)
    phase_prec = spec.init[0].digits + polys.PHASE_GUARD_DIGITS
    turns = series_calls.count(phase_prec + polys.TURN_GUARD_DIGITS)
    near = series_calls.count(phase_prec)
    assert turns + near == len(series_calls)
    assert (m, k, redos, len(calls), near) == expected
    assert len(calls) == 2 * m + redos < m * (k + 1)
    assert turns == sum(0 < gap < polys.MAX_TURN_STEP for gap in gaps)


@pytest.mark.parametrize("family,mults,digits,pair,odd,expected", [
    ("trigonometric", (1, 1), 256, "cos_sin", "cot", (2, 7, 4, 4, 0)),
    ("exponential", (1, 1, 1, 1), 64, "cosh_sinh", "coth", (4, 5, 1, 5, 0)),
])
def test_a_coefficient_form_runs_the_phase_kernel_only_where_a_phase_cannot_be_turned(
        family, mults, digits, pair, odd, expected, monkeypatch):
    # A benchmark coefficient-form solve: each Newton ratio derives
    # (c(kx), s(kx)), k = 1..n, from its estimate's phase, and the pair
    # terms of the correction pass come from the same phases.  The phase
    # kernel runs for the m estimates at each level the solve enters (sweep
    # 1 and each climb of the precision ladder, at the level's digits) and,
    # within a level, for each later step of at least MAX_TURN_STEP; the
    # kernel at x's own digits (a pair the phase cannot give) and cot/coth
    # (a pair term it cannot give) run only on fallbacks, none here.  Each
    # sweep ran n kernels per unfrozen estimate and m (m - 1)/2 cot/coth
    # before: 14 and 7 here against 12, and 40 and 30 against 9.
    calls = {pair: [], odd: []}
    for name, seen in calls.items():
        kernel = getattr(polys, name)
        monkeypatch.setattr(polys, name, lambda t, seen=seen, f=kernel: seen.append(t) or f(t))
    workloads = _perfbench("workloads")
    problem = workloads.coefficient_problem(random.Random(1), family, mults, digits)
    spec = simulroot.parse_problem(problem["json"])
    report = simulroot.solve(spec.poly, spec.profile(), spec.initial_vector(), spec.config)
    assert report.stop_reason.value in ("tolerance", "accuracy_floor")
    m, n, k = spec.profile().m, spec.poly.degree, len(report.trace.step_sizes)
    snaps = report.trace.snapshots
    levels = [snap.digits for snap in snaps[1:]]  # each sweep's
    # sweep j + 1 turns each phase by the step of sweep j, at one level
    redos = sum(abs(a.dec - b.dec) >= polys.MAX_TURN_STEP
                for j in range(1, k) if levels[j] == levels[j - 1]
                for a, b in zip(snaps[j - 1].x, snaps[j].x))
    phase_runs = sum(t.digits - polys.PHASE_GUARD_DIGITS in levels for t in calls[pair])
    fallbacks = sum(t.digits in levels for t in calls[pair])
    assert phase_runs + fallbacks == len(calls[pair])
    assert (m, k, len(set(levels)), redos, fallbacks) == expected
    assert phase_runs == m * len(set(levels)) + redos
    assert len(calls[odd]) == 0
    assert len(calls[pair]) < k * m * n


# The most sweeps a solve of each coefficient-form row took, over seeds 1
# and 7919, rounds 0-7, while every coefficient-form sweep ran at the
# estimates' digits; the 256-digit rows now climb the precision ladder.
COEFFICIENT_SWEEPS = {
    ("algebraic", (1, 1, 1, 1, 1), 256): 7,
    ("algebraic", (1, 2, 3, 1), 64): 5,
    ("algebraic", (1, 2, 3, 1), 256): 7,
    ("trigonometric", (1, 1), 256): 7,
    ("trigonometric", (1, 3), 64): 5,
    ("exponential", (1, 1, 1, 1), 64): 5,
    ("exponential", (3, 1), 64): 6,
}


@pytest.mark.parametrize("seed", [1, 7919])
def test_every_coefficient_form_row_ends_within_its_bound_in_few_sweeps(seed):
    # What op_tail_ms and ok_ratio read on coefficient_form: every final
    # estimate within the bound the generator planted, in at most one
    # sweep more than the row took at the top.
    workloads = _perfbench("workloads")
    assert set(COEFFICIENT_SWEEPS) == set(workloads.COEFFICIENT_STRATA)
    two_pi = workloads.two_pi(256)
    for round_index in (0, 1):
        problems = workloads.solve_round(seed, "coefficient_form", round_index)
        for row, problem in zip(workloads.COEFFICIENT_STRATA, problems):
            spec = simulroot.parse_problem(problem["json"])
            report = simulroot.solve(spec.poly, spec.profile(), spec.initial_vector(),
                                     spec.solve_config())
            assert report.stop_reason.value in ("tolerance", "accuracy_floor"), row
            assert len(report.trace.step_sizes) <= COEFFICIENT_SWEEPS[row] + 1, row
            for x, root, bound in zip(report.trace.final().x, problem["roots"],
                                      problem["bounds"]):
                error = workloads.root_error(problem["family"], x.dec, root, two_pi)
                assert error <= Decimal(bound), (row, root)


@pytest.mark.parametrize("workload,expected", [
    ("periodic_factored", (7964, 402, 1)),
    ("coefficient_form", (348, 0, 0)),
])
def test_pair_terms_take_their_routes_as_counted_on_seed_1(workload, expected, monkeypatch):
    # The pair terms of seed-1 rounds 0-3 (the Newton ratios of factored
    # forms and every correction pass), the near pairs among them, which
    # take the short series, and the cot/coth runs, which serve only a
    # term that falls back: the work the half-angle workloads measure.
    terms, near, kernels = [], [], []
    pair_term = polys._pair_term

    def counted_pair_term(rule, ctx):
        term = pair_term(rule, ctx)

        def counted(d, *args):
            terms.append(d)
            if ctx.multiply(d, Decimal("0.5")).adjusted() < -(polys.PHASE_GUARD_DIGITS // 2):
                near.append(d)
            return term(d, *args)

        return counted

    monkeypatch.setattr(polys, "_pair_term", counted_pair_term)
    for name in ("cot", "coth"):
        kernel = getattr(polys, name)
        monkeypatch.setattr(polys, name, lambda x, f=kernel: kernels.append(x) or f(x))
    workloads = _perfbench("workloads")
    for round_index in range(4):
        for problem in workloads.solve_round(1, workload, round_index):
            spec = simulroot.parse_problem(problem["json"])
            simulroot.solve(spec.poly, spec.profile(), spec.initial_vector(),
                            spec.solve_config())
    assert (len(terms), len(near), len(kernels)) == expected


def test_the_traced_names_count_the_work_of_a_solve():
    # The layer metrics count calls of the traced names, so each must be
    # the function a solve runs: a kernel that moved to another name
    # would leave its metrics reading 0 calls.
    coefficient_form = {
        "family": "algebraic",
        "coefficients": {"a": ["-7", "14", "-8"]},  # (x - 1)(x - 2)(x - 4)
        "mults": [1, 1, 1],
        "init": ["0.8", "2.3", "3.7"],
    }
    specs = [
        simulroot.expression_problem("(x+2)^2*(x-1)*(x-3)^3", ("-3", "0.1", "4")),
        simulroot.expression_problem(
            "sin((x-1)/2)^3*sin((x-2)/2)^2*sin((x-2.5)/2)", ("0.2", "1.7", "3")
        ),
        simulroot.parse_problem(json.dumps(coefficient_form).encode()),
    ]
    tracer = _perfbench("tracing").Tracer()
    tracer.install()
    try:
        for op, spec in enumerate(specs):
            span = tracer.begin_op(op, "solve")
            try:
                simulroot.solve(spec.poly, spec.profile(), spec.initial_vector(), spec.config)
            finally:
                tracer.end_op(span)
    finally:
        tracer.uninstall()

    def calls(name, op):
        return sum(tracer.op[i] == op for i in tracer.spans_named(name))

    for op in range(len(specs)):
        assert calls("solver.solve", op) == 1
        assert calls("polys.newton_ratio", op) >= 1, op
        assert calls("solver.correction_sum", op) >= 1, op
    assert calls("polys.eval_with_derivative", 2) >= 1


def test_cli_session_calls_are_independent_in_one_process(tmp_path):
    # The CLI op calls cli.main(argv) under redirected stdout, over and
    # over in one process; a round run twice must answer the same twice.
    workloads = _perfbench("workloads")
    pool = workloads.cli_pool(1)
    paths = []
    for i, problem in enumerate(pool):
        path = tmp_path / f"problem-{i}.json"
        path.write_bytes(problem["json"])
        paths.append(path.as_posix())
    ops = workloads.cli_round(1, 0, paths, pool, tmp_path.as_posix())
    assert len(ops) == 11

    def run_round():
        results = []
        for op in ops:
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(op["argv"])
            if "writes" in op:  # order reads the traces the round's json solves wrote
                Path(op["writes"]).write_text(out.getvalue())
            results.append((code, out.getvalue()))
        return results

    first, second = run_round(), run_round()
    assert [code for code, _ in first] == [op["expect"]["exit"] for op in ops]
    assert first == second


def test_the_order_logs_of_seed_1_take_no_fallback(tmp_path, monkeypatch):
    # Every ln that `order` takes over seed-1 rounds 0-3 of the CLI session
    # is decided by the first pass of Ziv's test on the fixed-point value:
    # no kernel run reruns at more bits.
    extras = []
    kernel = numeric._ln_fixed

    def counted(x, digits, extra=0):
        extras.append(extra)
        return kernel(x, digits, extra)

    monkeypatch.setattr(numeric, "_ln_fixed", counted)
    workloads = _perfbench("workloads")
    pool = workloads.cli_pool(1)
    paths = []
    for i, problem in enumerate(pool):
        path = tmp_path / f"problem-{i}.json"
        path.write_bytes(problem["json"])
        paths.append(path.as_posix())
    for round_index in range(4):
        for op in workloads.cli_round(1, round_index, paths, pool, tmp_path.as_posix()):
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                assert cli.main(op["argv"]) == op["expect"]["exit"], op["argv"]
            if "writes" in op:
                Path(op["writes"]).write_text(out.getvalue())
    assert (extras.count(0), len(extras) - extras.count(0)) == (48, 0)
