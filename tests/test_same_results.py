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
one family's sums shows which family's traces it moves.  Beside each
trace hash a value hash (:class:`_Digests`) pins the same solves' values
alone, so a change that writes some numeral otherwise but keeps every
value moves the first and not the second.
"""

import contextlib
import hashlib
import importlib.util
import io
import json
import random
from dataclasses import replace
from decimal import MAX_EMAX, MAX_PREC, MIN_EMIN, Context, Decimal
from pathlib import Path

import pytest

from simulroot import cli, parse_expression, parse_problem, polys, render_trace, solve, solver
from simulroot.numeric import make_real
from simulroot.polys import FactoredPoly, Family
from simulroot.solver import EstimateVector, Method, MultiplicityProfile, SolveConfig

from oracles import known_phase_gaps

WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"

TRACE_SHA256 = {
    "algebraic_factored": "3e54cf3e0b3114946671c76b723970fa3b2f183972686748995b7fde98e7818e",
    "periodic_factored": "558c81fa798ba9480700c5e7a0604440052acf4138416e7eabdacee3318f729c",
    "coefficient_form/algebraic":
        "f87ea14e5c2e70a83193bd2d4717646866fed826a6944b4a4c4f7b621ddc3100",
    "coefficient_form/trigonometric":
        "654086512bce053fa4c2737c7f78a4849ca83ea41d0f17654b08a6b8f9b8f3f1",
    "coefficient_form/exponential":
        "0d05c6261ecd2139533af1a60dfd38697f5d3798723a1be931b558cb183c58b4",
}

NEWTON_BASELINE_TRACE_SHA256 = {
    "algebraic_factored": "2791f9c0de039f730418bd935960af54f9683c38f0a466ee55f568d44f9e2d0e",
    "periodic_factored": "e52fae140f95894993b42998630bed42a4bddc874e81103215f48e23824c9a42",
    "coefficient_form/algebraic":
        "7db7c5a224b1f039f8dd7d6110443fcd2f7cba14a6d01ebe823248582b8782cb",
    "coefficient_form/trigonometric":
        "f218a3e9430f542ad4f909e8355223d1e775da4eeeeed2d4889a4a75a0a4588b",
    "coefficient_form/exponential":
        "2a78ae17f765f9b239ac6d6bbacc1b4eda983e2d05cf5fccd297301574dad8f5",
}


# the same solves' values (:class:`_Digests`)
VALUE_SHA256 = {
    "algebraic_factored": "1b89570d253ad3fce82763f283bb9ffe5431db165fdc4cb9794cae867084f0af",
    "periodic_factored": "e794d09fa9d68ef929b1732bb0b15d6c43bf7bb62752d727c4ba9a23f8c5091c",
    "coefficient_form/algebraic":
        "0e185df9146d153436c5140406ccd6689ac3e3c0faa1efbfaea1472901bbd1c1",
    "coefficient_form/trigonometric":
        "46f825cacd3e65f9d8b3da94685af23c34cc1ecbb409b246d0c349f6f0b3edf3",
    "coefficient_form/exponential":
        "ed66ead2ce8b1b8b3994c187557ffa89fe64606680d7bca6d12ff84136e33871",
}

NEWTON_BASELINE_VALUE_SHA256 = {
    "algebraic_factored": "6ce2fc145f79bd3afed6626bfb19df5e62a9acfab8656d4ebcd3460ad5e45abe",
    "periodic_factored": "f3f884603707e5bf160216d408edc656c9bde72f38bb43272bff592e55384a65",
    "coefficient_form/algebraic":
        "f0fff84412b7163fd7338b06bd9195b0215be7c19fb1d5aa25bac3a3d5057241",
    "coefficient_form/trigonometric":
        "c00105dc9c09b3bf2d1c92bee06db25f80046d33528d997fc50c66143d8e4981",
    "coefficient_form/exponential":
        "a5cc1c8affa4d3c6c9faeb1e5dd459ad25752f1382936e6072b42682d8b28fb0",
}


def _workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# every value exact, whatever its exponent
_EXACT = Context(prec=MAX_PREC, Emin=MIN_EMIN, Emax=MAX_EMAX)


class _Digests:
    """sha256 of a run of reports' JSON traces, and of their values alone:
    the stop reason, the failure, each root's status and every snapshot and
    step, each number ``normalize``d, so that two numerals of one value
    (``1.5`` and ``1.500…0``) count as one.  A change that keeps the values
    but writes some numerals otherwise moves the first digest only."""

    def __init__(self):
        self.traces, self.values = hashlib.sha256(), hashlib.sha256()

    def update(self, report) -> None:
        self.traces.update(render_trace(report, "json"))
        rows = [[str(x.dec.normalize(_EXACT)) for x in row]
                for row in (*(vec.x for vec in report.trace.snapshots), *report.trace.step_sizes)]
        self.values.update(json.dumps([report.stop_reason.value, report.failure,
                                       [status.value for status in report.root_status],
                                       rows]).encode())

    def hexdigests(self) -> tuple[str, str]:
        return self.traces.hexdigest(), self.values.hexdigest()


def _of_family(key: str, problems: list[bytes]) -> list[bytes]:
    """The problems that the pin ``key`` covers: all of them, or for
    ``<workload>/<family>`` those of that family, in their order."""
    _, _, family = key.partition("/")
    return [data for data in problems if not family or json.loads(data)["family"] == family]


def _solve_all(problems: list[bytes], method: Method) -> tuple[str, str]:
    digests = _Digests()
    for data in problems:
        spec = parse_problem(data)
        config = replace(spec.solve_config(), method=method)
        digests.update(solve(spec.poly, spec.profile(), spec.initial_vector(), config))
    return digests.hexdigests()


def _trace_hashes(key: str, method: Method) -> tuple[str, str]:
    workload = key.partition("/")[0]
    problems = [p["json"] for r in (0, 1) for p in _workloads().solve_round(1, workload, r)]
    return _solve_all(_of_family(key, problems), method)


@pytest.mark.parametrize("workload", sorted(TRACE_SHA256))
def test_the_seeded_benchmark_traces_are_unchanged(workload):
    assert (_trace_hashes(workload, Method.CHEBYSHEV)
            == (TRACE_SHA256[workload], VALUE_SHA256[workload]))


@pytest.mark.parametrize("workload", sorted(NEWTON_BASELINE_TRACE_SHA256))
def test_the_seeded_newton_baseline_traces_are_unchanged(workload):
    assert (_trace_hashes(workload, Method.NEWTON_BASELINE)
            == (NEWTON_BASELINE_TRACE_SHA256[workload], NEWTON_BASELINE_VALUE_SHA256[workload]))


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
# An estimate exactly on its root gets a Newton ratio of 0, and the sweep
# leaves it as it is: a short numeral such as ``1`` stays ``1``, where an
# update would write it out as ``1.000…0``.  These solves start some
# estimates on their roots, as the root's own numeral, with its trailing
# zeros stripped, or padded to the working digits, and stop after 1 to 4
# sweeps, so the early sweeps, where such numerals still show, weigh as
# much as the late ones.  Besides the
# seeded benchmark problems, a few problems have roots 1, 0.5, 0 and -2.

ON_ROOT_TRACE_SHA256 = {
    ("algebraic_factored", Method.CHEBYSHEV):
        "6db106fc353e0b4fded497d7f00129421662a54be05891a59e6d4e6597415ffb",
    ("algebraic_factored", Method.NEWTON_BASELINE):
        "6d6b5ca60cfce94e37b06c3378eca478d2d558153485958afe5d937103dbd4ce",
    ("periodic_factored", Method.CHEBYSHEV):
        "1a32894af047da59ed61526b2f73d39a94343eb263ca5a05aaedb67f00a89b06",
    ("periodic_factored", Method.NEWTON_BASELINE):
        "291098a20854e9da529c0d9586dcabd7a146e4058a3fa108c5be03e4fba9ece9",
    ("coefficient_form/algebraic", Method.CHEBYSHEV):
        "ff3730358492116804974c27bb8798f96bfa8308ba3536fa7e22aa01c079accf",
    ("coefficient_form/algebraic", Method.NEWTON_BASELINE):
        "9445085b1d0c32c460ae31cb96046b9c739bfc104116e9abaa69ef5e1dfcf325",
    ("coefficient_form/trigonometric", Method.CHEBYSHEV):
        "37b69231678b89726dc5cd67d6351fbb4aee705f118df09fff32b02da3b71f79",
    ("coefficient_form/trigonometric", Method.NEWTON_BASELINE):
        "350eb45006867b81c7e02b2ba9d80e1a3e513fad5057d88e1841b8b167034245",
    ("coefficient_form/exponential", Method.CHEBYSHEV):
        "0b6d0f995b4a18b00b7a6216de5957e35d1aa78a2dc18fa334a8aa3ec1eb6264",
    ("coefficient_form/exponential", Method.NEWTON_BASELINE):
        "fc16e9fd9d7bb8cf35bedf4f92ada22364d1cff776eaa0ec61e265c30d9ecc16",
}

ON_ROOT_VALUE_SHA256 = {
    ("algebraic_factored", Method.CHEBYSHEV):
        "5a1993d0b6723e364a8800b027d724c62f139ccc686a6ac91c6dcdc0d9fd0fd9",
    ("algebraic_factored", Method.NEWTON_BASELINE):
        "ccecf274c9a520a226c6f72a7c63df7c18231d9ad653e6c9872fab1034eac8c2",
    ("periodic_factored", Method.CHEBYSHEV):
        "66c98896f3ffba1474dd46d8e300f3612c1f44c47715456d0ac3efd27ff46938",
    ("periodic_factored", Method.NEWTON_BASELINE):
        "6da5de35ccfb89d36bc9c6421d3e67eefc2c8330e9f3bf16bbe4f6460ec851b1",
    ("coefficient_form/algebraic", Method.CHEBYSHEV):
        "3238929c1cd24731930fa3705833403ce1d850c663ca8f9c3d5794bcb457bd6e",
    ("coefficient_form/algebraic", Method.NEWTON_BASELINE):
        "ba4a4be8c519952d47da85213304f4acaa5d20efa2fb44acd0fe367af9c889e2",
    ("coefficient_form/trigonometric", Method.CHEBYSHEV):
        "cd3bdf0f265c170c450efcdd5c3e2d2c274528fe5c907e16cec5a63674e5af30",
    ("coefficient_form/trigonometric", Method.NEWTON_BASELINE):
        "8c63966c89f9d74f8c38f0e8e4e08b4e4be2ae85097b26efdc006b0b31472c18",
    ("coefficient_form/exponential", Method.CHEBYSHEV):
        "8965812a930e053c15dcedf6bcadd1005cd9475ce0990392483c763b35f93b3b",
    ("coefficient_form/exponential", Method.NEWTON_BASELINE):
        "0fed83984bf8332f0b3085be3da8706285f9c6c0f5eade00658ed20703c212b2",
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


@pytest.mark.parametrize("workload,method", sorted(ON_ROOT_TRACE_SHA256))
def test_solves_from_estimates_on_their_roots_are_unchanged(workload, method):
    # every problem draws from the rng before any is left out
    problems = _of_family(workload, _on_root_problems(workload.partition("/")[0]))
    assert (_solve_all(problems, method)
            == (ON_ROOT_TRACE_SHA256[workload, method], ON_ROOT_VALUE_SHA256[workload, method]))


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
# overflow: an estimate on such a root is settled, and one 1e19990 from it
# steps to where no units digit is left, a step failure.  Each entry is (expression, or the roots and powers of a form
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
        "56b33d3038c146b24ffbb60d38940f3eb022fda4bb2fca16bf3338e16014959a",
    (Family.EXPONENTIAL, Method.NEWTON_BASELINE):
        "9bde30ddfd9d1b8ee2ff9010ff0430d57d153046354d0d6311cc1a453f8f3c42",
}


OFF_ROOT_VALUE_SHA256 = {
    (Family.TRIGONOMETRIC, Method.CHEBYSHEV):
        "2b1c83a6947a7b07695097667644855fd02921a583500affbb57e493141fbadb",
    (Family.TRIGONOMETRIC, Method.NEWTON_BASELINE):
        "7dfa8a96da962df9a632b9f0ba8a2f58c61c023d678f5f1829fc1c88d824ed4c",
    (Family.EXPONENTIAL, Method.CHEBYSHEV):
        "769764d4ffcedcbd11174dc5d705fe47cf258ac99e672d81c7cf692f020c2385",
    (Family.EXPONENTIAL, Method.NEWTON_BASELINE):
        "a40a7bc113135c19b7527cc8b86347f26a6942344e59710130714c13c6865e49",
}


def _off_root_poly(family: Family, form, digits: int) -> FactoredPoly:
    if isinstance(form, str):
        return parse_expression(form, digits)
    return FactoredPoly(family, tuple(make_real(r, digits) for r, _ in form),
                        tuple(power for _, power in form))


@pytest.mark.parametrize("family,method", sorted(OFF_ROOT_TRACE_SHA256))
def test_solves_from_estimates_off_their_roots_are_unchanged(family, method):
    digests = _Digests()
    for form, digits, mults, init, max_iters in OFF_ROOT_PROBLEMS[family]:
        p = _off_root_poly(family, form, digits)
        estimate_digits = 64 if digits == 80 else digits
        estimates = EstimateVector(tuple(make_real(x, estimate_digits) for x in init))
        config = SolveConfig(max_iters=max_iters, method=method)
        digests.update(solve(p, MultiplicityProfile(mults), estimates, config))
    assert (digests.hexdigests()
            == (OFF_ROOT_TRACE_SHA256[family, method], OFF_ROOT_VALUE_SHA256[family, method]))
