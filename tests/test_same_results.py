"""The same results: the traces of the benchmark's seeded solves, pinned.

A change that keeps the solver's results must leave every JSON trace of
these solves byte-identical: the snapshots, step sizes, stop reasons,
failure texts and frozen roots.  The hashes are those of seed 1, rounds
0 and 1, of the three solve workloads that perfbench/workloads.py
generates (which it does without importing simulroot); a change that
means to move a trace states why and pins the new hash.  The same solves
under the multiplicity-Newton baseline are pinned too: that method
evaluates the same Newton ratios, so a change to them shows there even
where no correction pass runs.  The coefficient-form solves are pinned
one family at a time (keys ``coefficient_form/<family>``), so a change to
one family's sums shows which family's traces it moves.
"""

import contextlib
import hashlib
import importlib.util
import io
import json
import random
from dataclasses import replace
from decimal import Decimal
from pathlib import Path

import pytest

from simulroot import cli, parse_expression, parse_problem, polys, render_trace, solve, solver
from simulroot.numeric import make_real
from simulroot.polys import FactoredPoly, Family
from simulroot.solver import EstimateVector, Method, MultiplicityProfile, SolveConfig

from oracles import known_phase_gaps

WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"

TRACE_SHA256 = {
    "algebraic_factored": "4dad5c019b847e7f54dcf80810aaa54178f078a94c2de36a509225e09fdf7cfc",
    "periodic_factored": "f6942e593478eccb8e3e76e6cb84085f7e60585d704e9fff8e0e882d42734381",
    "coefficient_form/algebraic":
        "248461c676155bd721b95a37ea15ef5739fb8c621e285e41250a295bfd1251c3",
    "coefficient_form/trigonometric":
        "654086512bce053fa4c2737c7f78a4849ca83ea41d0f17654b08a6b8f9b8f3f1",
    "coefficient_form/exponential":
        "0d05c6261ecd2139533af1a60dfd38697f5d3798723a1be931b558cb183c58b4",
}

NEWTON_BASELINE_TRACE_SHA256 = {
    "algebraic_factored": "10f753d99b7de97060aa538aae89db81d7de810aeea84fa58be9bbc617d8b561",
    "periodic_factored": "19ebfa40d5129f33e1ab72dc9b8bf45ed686efe9c95a047fb650b3b25fa1921c",
    "coefficient_form/algebraic":
        "7db7c5a224b1f039f8dd7d6110443fcd2f7cba14a6d01ebe823248582b8782cb",
    "coefficient_form/trigonometric":
        "f218a3e9430f542ad4f909e8355223d1e775da4eeeeed2d4889a4a75a0a4588b",
    "coefficient_form/exponential":
        "2a78ae17f765f9b239ac6d6bbacc1b4eda983e2d05cf5fccd297301574dad8f5",
}


def _workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _of_family(key: str, problems: list[bytes]) -> list[bytes]:
    """The problems that the pin ``key`` covers: all of them, or for
    ``<workload>/<family>`` those of that family, in their order."""
    _, _, family = key.partition("/")
    return [data for data in problems if not family or json.loads(data)["family"] == family]


def _trace_hash(key: str, method: Method) -> str:
    workload = key.partition("/")[0]
    problems = [p["json"] for r in (0, 1) for p in _workloads().solve_round(1, workload, r)]
    traces = hashlib.sha256()
    for data in _of_family(key, problems):
        spec = parse_problem(data)
        config = replace(spec.solve_config(), method=method)
        report = solve(spec.poly, spec.profile(), spec.initial_vector(), config)
        traces.update(render_trace(report, "json"))
    return traces.hexdigest()


@pytest.mark.parametrize("workload", sorted(TRACE_SHA256))
def test_the_seeded_benchmark_traces_are_unchanged(workload):
    assert _trace_hash(workload, Method.CHEBYSHEV) == TRACE_SHA256[workload]


@pytest.mark.parametrize("workload", sorted(NEWTON_BASELINE_TRACE_SHA256))
def test_the_seeded_newton_baseline_traces_are_unchanged(workload):
    assert (_trace_hash(workload, Method.NEWTON_BASELINE)
            == NEWTON_BASELINE_TRACE_SHA256[workload])


# -- `order` over the CLI session's problem pool ----------------------------

# sha256 of every `order` output (exit code and stdout) over the CLI
# session's pool, from the json traces of its Chebyshev and Newton-baseline
# solves, as the session calls them, taken with libmpdec's own ln.
ORDER_SHA256 = {
    1: "784962921078f85abc1df2d777b6683f78cd92feae8828cc553e34bd3a18c9cf",
    7919: "646ccb9205d58005fc74439705b6f099f9a52954dd44b6cba3950d1ba14491f8",
}


@pytest.mark.parametrize("seed", sorted(ORDER_SHA256))
def test_order_over_the_cli_session_pool_is_unchanged(seed, tmp_path):
    outputs = hashlib.sha256()
    for i, problem in enumerate(_workloads().cli_pool(seed)):
        path, trace = tmp_path / "problem.json", tmp_path / "trace.json"
        path.write_bytes(problem["json"])
        for method in ([], ["--method", "newton_baseline"]):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                assert cli.main(["solve", "--input", str(path), "--format", "json", *method]) == 0
            trace.write_text(out.getvalue())
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli.main(["order", "--input", str(trace),
                                 "--true-roots", ",".join(problem["roots"])])
            outputs.update(f"{i} {method} {code}\n{out.getvalue()}".encode())
    assert outputs.hexdigest() == ORDER_SHA256[seed]


# -- solves that start with estimates on their roots ----------------------
#
# An estimate exactly on its root gets a Newton ratio of 0.  The sweep
# still writes it back at the working precision: a short numeral such as
# ``1`` comes out as ``1.000…0``, which a sweep that skipped such a root
# would not print.  These solves start some estimates on their roots, as
# the root's own numeral, with its trailing zeros stripped, or padded to
# the working digits, and stop after 1 to 4 sweeps, so the early sweeps
# that do this rewriting weigh as much as the late ones.  Besides the
# seeded benchmark problems, a few problems have roots 1, 0.5, 0 and -2.

ON_ROOT_TRACE_SHA256 = {
    ("algebraic_factored", Method.CHEBYSHEV):
        "bf268b720b76092c76508be9c9dd80244c4b419034eee9cb5935e4a04b900b30",
    ("algebraic_factored", Method.NEWTON_BASELINE):
        "b03553fa1c01f42623535a573bb23c2305af56a61e4b3e9421e10e1a1a0d046d",
    ("periodic_factored", Method.CHEBYSHEV):
        "e9ce4a32e21b38124a32e1198b2cce21da0c850383ce0f2fb81d6c6cef04698e",
    ("periodic_factored", Method.NEWTON_BASELINE):
        "3f9a942798c36f8de6c9cc1c8d570262bd94804daf8b5bb76a18c40e921a057a",
    ("coefficient_form/algebraic", Method.CHEBYSHEV):
        "1b3ac34f85532c4d6beb191992efe735149b819153c354020e3c87a97b94bf30",
    ("coefficient_form/algebraic", Method.NEWTON_BASELINE):
        "9445085b1d0c32c460ae31cb96046b9c739bfc104116e9abaa69ef5e1dfcf325",
    ("coefficient_form/trigonometric", Method.CHEBYSHEV):
        "37b69231678b89726dc5cd67d6351fbb4aee705f118df09fff32b02da3b71f79",
    ("coefficient_form/trigonometric", Method.NEWTON_BASELINE):
        "350eb45006867b81c7e02b2ba9d80e1a3e513fad5057d88e1841b8b167034245",
    ("coefficient_form/exponential", Method.CHEBYSHEV):
        "450914551206b3fd1017426b095cd987c676be3304dee649716dd6f68c48f667",
    ("coefficient_form/exponential", Method.NEWTON_BASELINE):
        "fc16e9fd9d7bb8cf35bedf4f92ada22364d1cff776eaa0ec61e265c30d9ecc16",
}

SHORT_ROOTS = ("-2", "0", "0.5", "1")
SHORT_MULTS = (1, 2, 1, 2)


def _spelled(root: str, digits: int, how: int) -> str:
    value = Decimal(root)
    if how == 0:
        return root
    if how == 1:
        return format(value.normalize(), "f")
    # every one of ``digits`` significant digits written out
    return format(value, f".{max(digits - 1 - value.adjusted(), 0)}f")


def _on_root_problems(workload: str) -> list[bytes]:
    module = _workloads()
    problems = [p for r in (0, 1) for p in module.solve_round(1, workload, r)]
    families = {"algebraic_factored": ("algebraic",),
                "periodic_factored": ("trigonometric", "exponential"),
                "coefficient_form": ("algebraic", "trigonometric", "exponential")}[workload]
    for family in families:
        for digits in (64, 256):
            if workload == "coefficient_form":
                roots = list(SHORT_ROOTS)
                if family == "algebraic":
                    coefficients = {"a": module._expand_algebraic(roots, SHORT_MULTS)}
                else:
                    coefficients = module._expand_periodic(family, roots, SHORT_MULTS, digits + 30)
                payload = {"coefficients": coefficients}
            else:
                payload = {"expr": module.expression(family, list(SHORT_ROOTS), SHORT_MULTS)}
            problems.append(module._problem(family, list(SHORT_ROOTS), SHORT_MULTS,
                                            ["-1.9", "0.1", "0.6", "1.1"], digits, [], payload))
    out = []
    rng = random.Random(f"1:same-results-on-roots:{workload}")
    for k, problem in enumerate(problems):
        payload = json.loads(problem["json"])
        init = payload["init"]
        for i, root in enumerate(problem["roots"]):
            if rng.random() < 0.6:
                init[i] = _spelled(root, payload["digits"], rng.randrange(3))
        payload["max_iters"] = 1 + k % 4
        out.append(json.dumps(payload, sort_keys=True).encode())
    return out


def _on_root_hash(key: str, method: Method) -> str:
    traces = hashlib.sha256()
    # every problem draws from the rng before any is left out
    for data in _of_family(key, _on_root_problems(key.partition("/")[0])):
        spec = parse_problem(data)
        config = replace(spec.solve_config(), method=method)
        report = solve(spec.poly, spec.profile(), spec.initial_vector(), config)
        traces.update(render_trace(report, "json"))
    return traces.hexdigest()


@pytest.mark.parametrize("workload,method", sorted(ON_ROOT_TRACE_SHA256))
def test_solves_from_estimates_on_their_roots_are_unchanged(workload, method):
    assert _on_root_hash(workload, method) == ON_ROOT_TRACE_SHA256[workload, method]


# -- the work of the seeded solves ----------------------------------------


@pytest.mark.parametrize("workload", ["algebraic_factored", "periodic_factored"])
def test_the_last_sweep_of_a_seeded_factored_solve_runs_no_correction_pass(workload,
                                                                           monkeypatch):
    # The iteration converges cubically, so the last sweep finds every
    # estimate on its root: every root is settled and no pass runs.
    # Every earlier sweep moves some root and runs one.
    passes = []
    correction_sum = solver.correction_sum

    def counted(family, estimates, profile, estimate_phases):
        passes.append(estimates.k)
        return correction_sum(family, estimates, profile, estimate_phases)

    monkeypatch.setattr(solver, "correction_sum", counted)
    for round_index in (0, 1):
        for problem in _workloads().solve_round(1, workload, round_index):
            spec = parse_problem(problem["json"])
            passes.clear()
            report = solve(spec.poly, spec.profile(), spec.initial_vector(), spec.solve_config())
            sweeps = report.trace.step_sizes
            assert report.converged
            assert all(step.is_zero() for step in sweeps[-1])
            assert passes == list(range(len(sweeps) - 1))


def test_a_seeded_periodic_solve_runs_the_phase_kernel_for_its_roots_and_first_sweep(
        monkeypatch):
    # A sweep turns each estimate's phase from the nearest of the roots and
    # the estimates' last positions.  After sweep 1 every estimate but two
    # (the first of an exponential m = 3 solve at 256 digits, in each
    # round, about 2e-3 from its root after steps of 0.03 and 0.04) lies
    # within MAX_TURN_STEP of its root, so the phase kernel runs for the
    # roots, the estimates of sweep 1 and those two only.  Turning from the
    # last position alone reran it 90 times after sweep 1 over these rounds.
    calls = []
    for name in ("cos_sin", "cosh_sinh"):
        kernel = getattr(polys, name)
        monkeypatch.setattr(polys, name,
                            lambda t, kernel=kernel: calls.append(t) or kernel(t))
    roots = first_sweep = later = 0
    for round_index in (0, 1):
        for problem in _workloads().solve_round(1, "periodic_factored", round_index):
            spec = parse_problem(problem["json"])
            calls.clear()
            report = solve(spec.poly, spec.profile(), spec.initial_vector(), spec.solve_config())
            m, sweeps = spec.profile().m, len(report.trace.step_sizes)
            first, *rest = known_phase_gaps(spec.poly, report.trace.snapshots, sweeps)
            assert min(first) >= polys.MAX_TURN_STEP
            redos = sum(gap >= polys.MAX_TURN_STEP for row in rest for gap in row)
            assert len(calls) == 2 * m + redos
            roots, first_sweep, later = roots + m, first_sweep + m, later + redos
    assert (roots, first_sweep, later) == (88, 88, 2)


# -- solves whose phases come from the estimates' own positions -----------
#
# Factored half-angle solves whose estimates turn their phases from where
# they were, or take the phase kernel: starts 0.4 to 0.6 from their roots;
# a multiplicity off by one, so that an estimate keeps stepping 0.2 or
# more; trig estimates converging a whole period away from their root;
# roots parsed at 80 digits for 64-digit estimates, whose Newton ratios
# run on those roots as given; and exponential roots at 1e20000, whose phases
# overflow.  Each entry is (expression, or the roots and powers of a form
# the grammar cannot spell; the roots' digits; the multiplicities the
# solve assumes; the initial estimates; max_iters).  Estimates carry the
# roots' digits, or 64 where the roots carry 80.

LONG_SHIFTS = ("1.234567890123456789012345678901234567890123456789012345678901234567",
               "2.718281828459045235360287471352662497757247093699959574966967627724")

OFF_ROOT_PROBLEMS = {
    Family.TRIGONOMETRIC: [
        ("sin((x-1)/2)^2*sin((x-2.5)/2)*sin((x+2)/2)", 64, (2, 1, 1), ("0.4", "3.1", "-1.4"), 50),
        ("sin((x-1)/2)^2*sin((x-2.5)/2)*sin((x+2)/2)", 256, (2, 1, 1), ("0.4", "3.1", "-1.4"), 2),
        ("sin((x-1)/2)^3*sin((x-2.5)/2)", 64, (2, 2), ("0.7", "2.9"), 8),
        ("sin((x-1)/2)*sin((x-2)/2)^2*sin((x+1.5)/2)", 64, (1, 2, 1),
         ("7.333185307", "2.02", "-7.803185307"), 50),
        (f"sin((x-{LONG_SHIFTS[0]})/2)^2*sin((x+{LONG_SHIFTS[1]})/2)^2", 80, (2, 2),
         ("1.3", "-2.6"), 50),
    ],
    Family.EXPONENTIAL: [
        ("sinh((x-1)/2)^2*sinh((x-2.5)/2)*sinh((x+2)/2)", 64, (2, 1, 1),
         ("0.7", "2.8", "-1.7"), 50),
        ("sinh((x-1)/2)^2*sinh((x-2.5)/2)*sinh((x+2)/2)", 256, (2, 1, 1),
         ("0.4", "3.1", "-1.4"), 4),
        ("sinh((x-1)/2)^3*sinh((x+0.5)/2)", 64, (2, 2), ("0.7", "-0.2"), 8),
        (f"sinh((x-{LONG_SHIFTS[0]})/2)^2*sinh((x+{LONG_SHIFTS[1]})/2)^2", 80, (2, 2),
         ("1.3", "-2.6"), 50),
        ((("1e20000", 1), ("1", 1), ("-2", 2)), 64, (1, 1, 2), ("1e20000", "1.3", "-2.2"), 50),
        ((("1e20000", 1), ("1", 1), ("-2", 2)), 64, (1, 1, 2),
         ("1.0000000001e20000", "1.3", "-2.2"), 50),
    ],
}

OFF_ROOT_TRACE_SHA256 = {
    (Family.TRIGONOMETRIC, Method.CHEBYSHEV):
        "3ff29427506159dde595fca879968aa4dfe176cc2300ae112f7f86461cbea74d",
    (Family.TRIGONOMETRIC, Method.NEWTON_BASELINE):
        "b14501d7363d3d6191f70beb571109d7d8df4f4e93e9bc5fc65f8f56724811f3",
    (Family.EXPONENTIAL, Method.CHEBYSHEV):
        "a13b502949103aa78d050869fa064747b343a1bb03cf9c41179bc1903a922985",
    (Family.EXPONENTIAL, Method.NEWTON_BASELINE):
        "d94ec55e1a0a1d425983e5e407b8c84216660e3a92338b6beb01edf38db5afca",
}


def _off_root_poly(family: Family, form, digits: int) -> FactoredPoly:
    if isinstance(form, str):
        return parse_expression(form, digits)
    return FactoredPoly(family, tuple(make_real(r, digits) for r, _ in form),
                        tuple(power for _, power in form))


@pytest.mark.parametrize("family,method", sorted(OFF_ROOT_TRACE_SHA256))
def test_solves_from_estimates_off_their_roots_are_unchanged(family, method):
    traces = hashlib.sha256()
    for form, digits, mults, init, max_iters in OFF_ROOT_PROBLEMS[family]:
        p = _off_root_poly(family, form, digits)
        estimate_digits = 64 if digits == 80 else digits
        estimates = EstimateVector(tuple(make_real(x, estimate_digits) for x in init))
        config = SolveConfig(max_iters=max_iters, method=method)
        traces.update(render_trace(solve(p, MultiplicityProfile(mults), estimates, config), "json"))
    assert traces.hexdigest() == OFF_ROOT_TRACE_SHA256[family, method]
