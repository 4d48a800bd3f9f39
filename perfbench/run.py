#!/usr/bin/env python3
"""simulroot benchmark: seeded solve workloads and a CLI session.

Usage (from the repository root)::

    python3 perfbench/run.py --workload algebraic_factored --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 0

One client runs a closed loop in this process: the next op starts when
the previous one returns.  An op is one ``simulroot.solve()`` call or
one ``simulroot.cli.main([...])`` call.  Ops run in whole rounds (one
problem per stratum, see workloads.py) until ``--seconds`` have passed,
so every run has the same mix of sizes.  Each result is checked against
the roots the generator planted or the CLI's known answer.  Times are
scaled by the machine slowdown that an interleaved probe measures (see
``probe``), and the unscaled values are printed too.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs half
the time untraced and half with every public simulroot function wrapped
(tracing.py), prints the per-layer metrics and writes the spans to
``.bench_out/spans-<workload>.json``.  The last line of output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.

Two kinds of failure are kept apart.  An op *misses* when it raises,
stops on ``step_failure`` or ends with an estimate outside its accuracy
bound; ``ok_ratio`` measures that.  With the current solver most
multiple-root coefficient-form solves miss, and say so: they report no
convergence.  An op is *failed* in the JSON line only when it raises or
gives a wrong answer: a solve that claims convergence off its planted
roots, or a CLI call whose exit code or verdict is not the known one.
Honest misses recur in every round, so counting them as failed would
make the failure count depend on how many rounds fit into the run.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from decimal import Context, Decimal
from pathlib import Path

import probe as P
import workloads as W
from tracing import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_SAMPLES = 11
PROBES_PER_OP = 5
# Probe samples this close to an op (seconds) measure the slowdown during it.
SLOWDOWN_WINDOW_S = 0.5

END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "ok_ratio": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def run_context() -> dict:
    import decimal

    try:
        import _decimal
        c_decimal = decimal.Decimal is _decimal.Decimal
    except ImportError:
        c_decimal = False
    cpu = platform.processor()
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "libmpdec": getattr(decimal, "__libmpdec_version__", None),
        "c_decimal": c_decimal,
    }


def measure_setup(workload: str) -> tuple[float, float]:
    """Median time a fresh interpreter takes to import simulroot, unscaled
    and scaled by the slowdown the probe measures around each import."""
    modules = "simulroot, simulroot.cli" if workload == "cli_session" else "simulroot"
    code = (
        f"import sys, time; sys.path[:0] = [{str(SRC)!r}, {str(Path(__file__).parent)!r}]; "
        "import probe; around = probe.sample(30); "
        f"t = time.perf_counter(); import {modules}; t = time.perf_counter() - t; "
        "print(t, probe.slowdown(around + probe.sample(30)))"
    )
    raw, scaled = [], []
    for i in range(SETUP_SAMPLES + 1):  # the first run also writes bytecode caches
        done = subprocess.run([sys.executable, "-I", "-c", code], capture_output=True,
                              text=True, timeout=60, check=True)
        if i:
            seconds, slowdown = map(float, done.stdout.split())
            raw.append(seconds)
            scaled.append(seconds / slowdown)
    return statistics.median(raw), statistics.median(scaled)


# -- ops ----------------------------------------------------------------

_TWO_PI: dict[int, Decimal] = {}


def _two_pi(digits: int) -> Decimal:
    if digits not in _TWO_PI:
        _TWO_PI[digits] = W.two_pi(digits)
    return _TWO_PI[digits]


def correct_digits(error: Decimal, digits: int) -> float:
    if error.is_zero():
        return float(digits)
    return min(float(digits), -float(error.log10(Context(prec=12))))


def check_estimates(problem: dict, estimates: list[str]) -> tuple[bool, float]:
    """(all within bound, correct digits of the worst estimate)."""
    two_pi = _two_pi(problem["digits"])
    errors = [W.root_error(problem["family"], Decimal(x), r, two_pi)
              for x, r in zip(estimates, problem["roots"])]
    within = len(errors) == len(problem["roots"]) and all(
        e <= Decimal(b) for e, b in zip(errors, problem["bounds"]))
    return within, correct_digits(max(errors), problem["digits"])


def solve_op(simulroot, problem: dict):
    spec = simulroot.parse_problem(problem["json"])
    args = (spec.poly, spec.profile(), spec.initial_vector(), spec.solve_config())

    def call():
        return simulroot.solve(*args)

    def check(report):
        """(missed, incorrect, correct digits)."""
        within, digits = check_estimates(problem, [str(x) for x in report.trace.final().x])
        missed = report.stop_reason.value == "step_failure" or not within
        return missed, report.converged and not within, digits

    return call, check


def cli_op(simulroot, op: dict, pool: list[dict]):
    argv, expect = op["argv"], op["expect"]

    def call():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = simulroot.cli.main(argv)
        return code, out.getvalue()

    def check(result):
        code, text = result
        digits = None
        ok = code == expect["exit"]
        lines = text.splitlines()
        if ok and op["kind"].startswith("solve_json"):
            Path(op["writes"]).write_text(text)
            trace = json.loads(text)
            ok, digits = check_estimates(pool[expect["problem"]], trace["snapshots"][-1]["x"])
        elif ok and op["kind"] == "solve_table":
            values = lines[-1].split(None, 1)[1].split(", ")
            problem = pool[expect["problem"]]
            ok = len(values) == len(problem["roots"]) and all(
                abs(Decimal(v) - Decimal(r)) <= Decimal("1e-17")
                for v, r in zip(values, problem["roots"]))
        elif ok and op["kind"].startswith("order"):
            orders = [Decimal(line.split()[2]) for line in lines if " order " in line]
            lo, hi = (Decimal(x) for x in expect["order"])
            ok = len(orders) == expect["m"] and all(lo < o < hi for o in orders)
        elif ok and op["kind"].startswith("verify"):
            ok = bool(lines) and lines[0].endswith(expect["verdict"])
        elif ok and op["kind"].startswith("reproduce"):
            found = [line[:17] for line in lines if line.startswith("MISMATCH")]
            ok = found == expect["mismatches"]
        # Every CLI op has a known answer, so a mismatch is a wrong result.
        return not ok, not ok, digits

    return call, check


class Session:
    """Prepares the ops of one workload round by round."""

    def __init__(self, simulroot, workload: str, seed: int):
        self.simulroot = simulroot
        self.workload = workload
        self.seed = seed
        if workload == "cli_session":
            self.pool = W.cli_pool(seed)
            OUT.joinpath("cli").mkdir(parents=True, exist_ok=True)
            self.paths = []
            for i, problem in enumerate(self.pool):
                path = OUT / "cli" / f"problem-{i}.json"
                path.write_bytes(problem["json"])
                self.paths.append(path.as_posix())

    def round(self, r: int):
        if self.workload == "cli_session":
            trace_dir = (OUT / "cli").as_posix()
            for op in W.cli_round(self.seed, r, self.paths, self.pool, trace_dir):
                yield (op["kind"], *cli_op(self.simulroot, op, self.pool))
        else:
            for problem in W.solve_round(self.seed, self.workload, r):
                kind = f"{problem['family']}.{len(problem['roots'])}.{problem['digits']}"
                yield (kind, *solve_op(self.simulroot, problem))


@dataclass(slots=True)
class Op:
    """One timed op.  Slotted, with one probe entry per op, so that the
    bookkeeping of a long run adds little to ``peak_rss_mb``: with a dict
    per op and every probe sample kept, the peak grew by ~1 KB per op and
    moved with how many ops fitted into the run."""

    kind: str
    start: float
    latency: float
    missed: bool
    incorrect: bool
    digits: float | None
    error: str | None

    @property
    def broken(self) -> bool:
        """Raised or gave a wrong answer: a failed op in the JSON line."""
        return self.incorrect or self.error is not None


def run_rounds(session: Session, seconds: float, probes: list[tuple[float, float]],
               tracer: Tracer | None = None) -> list[Op]:
    """Closed loop, one client, whole rounds until ``seconds`` have passed.

    The probe runs after every op, outside its timing, so ``probes``
    samples the machine's speed throughout the run: one (start, mean
    duration) entry per op.
    """
    records = []
    start = time.perf_counter()
    r = 0
    while r == 0 or time.perf_counter() - start < seconds:
        for kind, call, check in session.round(r):
            span = tracer.begin_op(len(records), kind) if tracer else None
            t0 = time.perf_counter()
            try:
                result, error = call(), None
            except Exception as exc:  # an escaping error is a failed op, not a crash
                result, error = None, f"{type(exc).__name__}: {exc}"
            t1 = time.perf_counter()
            if tracer:
                tracer.end_op(span)
            missed, incorrect, digits = True, False, None
            if error is None:
                try:
                    missed, incorrect, digits = check(result)
                except (ValueError, IndexError, KeyError, ArithmeticError) as exc:
                    # output the known answer cannot be read from is a wrong result
                    incorrect, error = True, f"unreadable result: {exc!r}"
            batch = P.sample(PROBES_PER_OP)
            probes.append((batch[0][0], sum(d for _, d in batch) / len(batch)))
            records.append(Op(sys.intern(kind), t0, t1 - t0, missed, incorrect, digits, error))
        r += 1
    return records


# -- metrics ------------------------------------------------------------


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """The highest percentile with at least ten samples beyond it: the
    11th-largest time, estimated as the mean of the 6th to 16th largest so
    that one stray sample does not move it.  Returns (value, percentile, n)."""
    ordered = sorted(latencies)
    n = len(ordered)
    k = max(n - 11, 0)
    window = ordered[max(k - 5, 0):k + 6]
    return statistics.mean(window), 100.0 * k / max(n - 1, 1), n


def scale_latencies(records: list[Op], probes: list[tuple[float, float]]) -> list[float]:
    """Each op's time divided by the slowdown the probe measured around it."""
    starts = [t for t, _ in probes]
    scaled = []
    for r in records:
        lo = bisect_left(starts, r.start - SLOWDOWN_WINDOW_S)
        hi = bisect_right(starts, r.start + r.latency + SLOWDOWN_WINDOW_S)
        scaled.append(r.latency / P.slowdown(probes[lo:hi] or probes))
    return scaled


def end_to_end(records: list[Op], probes: list[tuple[float, float]],
               setup: tuple[float, float]) -> tuple[dict, list[str]]:
    """End-to-end metrics; op and import times are scaled by the slowdown."""

    def timings(latencies):
        value, pct, n = tail(latencies)
        return {"ops_per_s": len(latencies) / sum(latencies),
                "op_p50_ms": statistics.median(latencies) * 1e3,
                "op_tail_ms": value * 1e3}, pct, n

    scaled, tail_pct, n = timings(scale_latencies(records, probes))
    raw, _, _ = timings([r.latency for r in records])
    metrics = {
        **scaled,
        "ok_ratio": sum(not r.missed for r in records) / len(records),
        "setup_s": setup[1],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    notes = [
        f"op_tail_ms is p{tail_pct:.1f} of {n} ops ({min(10, n - 1)} beyond it)",
        f"mean machine slowdown {P.slowdown(probes):.4f}; unscaled: "
        + ", ".join(f"{k} {v:.6g}" for k, v in raw.items()) + f", setup_s {setup[0]:.6g}",
    ]
    return metrics, notes


def per_layer(tracer: Tracer, records: list[Op], untraced_ops_per_s: float) -> dict:
    agg = tracer.aggregate()

    def row(name):
        return agg.get(name, {"calls": 0, "total": 0.0, "self": 0.0})

    def mean(name, scale):
        r = row(name)
        return r["total"] / r["calls"] * scale if r["calls"] else 0.0

    op_time = sum(r["total"] for name, r in agg.items() if name.startswith("op."))
    numeric = [f"numeric.{fn}" for fn in ("sin", "cos", "cot", "sinh", "cosh", "coth")]
    m = {}
    for name in numeric:
        m[f"{name}.calls"] = row(name)["calls"]
        m[f"{name}.us_per_call"] = mean(name, 1e6)
    m["numeric.elementary.self_share"] = sum(row(n)["self"] for n in numeric) / op_time

    ev = "polys.eval_with_derivative"
    m[f"{ev}.calls"] = row(ev)["calls"]
    m[f"{ev}.self_ms"] = row(ev)["self"] * 1e3
    m[f"{ev}.us_per_call"] = mean(ev, 1e6)
    m["polys.newton_ratio.calls"] = row("polys.newton_ratio")["calls"]
    m["polys.self_share"] = (row(ev)["self"] + row("polys.newton_ratio")["self"]) / op_time

    cs = "solver.correction_sum"
    m[f"{cs}.calls"] = row(cs)["calls"]
    m[f"{cs}.self_ms"] = row(cs)["self"] * 1e3
    m[f"{cs}.us_per_call"] = mean(cs, 1e6)
    m["solver.solve.self_share"] = row("solver.solve")["self"] / op_time
    reports = [(tracer.op[i], tracer.results[i]) for i in tracer.spans_named("solver.solve")
               if i in tracer.results]  # a solve that raised returned no report
    sweeps = [len(rep.trace.step_sizes) for _, rep in reports]
    total_sweeps = sum(sweeps)
    wasted = sum(s for (op, _), s in zip(reports, sweeps) if records[op].missed)
    m["solver.sweeps"] = total_sweeps
    m["solver.sweeps_per_solve"] = total_sweeps / len(reports) if reports else 0.0
    m["solver.sweep_ms"] = row("solver.solve")["total"] / total_sweeps * 1e3 if total_sweeps else 0.0
    m["solver.converged_ratio"] = (
        sum(rep.converged for _, rep in reports) / len(reports) if reports else 0.0)
    for stop in ("max_iters", "step_failure"):
        m[f"solver.stop.{stop}"] = sum(rep.stop_reason.value == stop for _, rep in reports)
    m["solver.wasted_sweep_ratio"] = wasted / total_sweeps if total_sweeps else 0.0
    digits = [r.digits for r in records if r.digits is not None]
    m["solver.min_correct_digits"] = min(digits) if digits else 0.0

    for fn in ("parse_problem", "parse_expression", "render_trace", "parse_trace"):
        m[f"ingest.{fn}.ms"] = mean(f"ingest.{fn}", 1e3)
    rendered = [len(tracer.results[i]) for i in tracer.spans_named("ingest.render_trace")]
    m["ingest.render_trace.bytes"] = statistics.mean(rendered) if rendered else 0.0
    for k in (1, 2, 3):
        m[f"theory.check_theorem{k}.ms"] = mean(f"theory.check_theorem{k}", 1e3)
    m["fixtures.run_example.ms"] = mean("fixtures.run_example", 1e3)
    m["fixtures.diff_against_table.ms"] = mean("fixtures.diff_against_table", 1e3)
    for cmd in ("solve", "verify", "order", "reproduce"):
        m[f"cli.main.{cmd}.ms"] = mean(f"cli.main.{cmd}", 1e3)
    m["cli.self_ms"] = sum(r["self"] for name, r in agg.items()
                           if name.startswith("cli.main.")) * 1e3

    traced_ops_per_s = len(records) / sum(r.latency for r in records)
    m["trace.ops"] = len(records)
    m["trace.untraced_ops_per_s"] = untraced_ops_per_s
    m["trace.traced_ops_per_s"] = traced_ops_per_s
    m["trace.overhead_ratio"] = untraced_ops_per_s / traced_ops_per_s
    return m


def unit_of(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    for suffix, unit in ((".calls", "count"), (".us_per_call", "us"), ("_share", "ratio"),
                         ("_ratio", "ratio"), ("ms", "ms"), (".bytes", "bytes"),
                         ("ops_per_s", "1/s"), ("_digits", "digits")):
        if name.endswith(suffix):
            return unit
    return "count"


def emit(records: list[Op], metrics: dict, notes: list[str]) -> None:
    for name, value in metrics.items():
        print(f"{name:40s} {value:.6g} {unit_of(name)}")
    for note in notes:
        print(note)
    failed = sum(r.broken for r in records)
    print(json.dumps({
        "correct": not any(r.incorrect for r in records),
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit_of(name)}
                    for name, value in metrics.items()},
    }))


def failure_notes(records: list[Op]) -> list[str]:
    notes = []
    for kind in sorted({r.kind for r in records}):
        rows = [r for r in records if r.kind == kind]
        bad = [r for r in rows if r.missed]
        if bad:
            errors = sorted({r.error for r in bad if r.error})
            notes.append(f"missed {len(bad)}/{len(rows)} {kind}"
                         + (f" ({'; '.join(errors)[:200]})" if errors else ""))
    return notes


def run_all(args) -> int:
    """Run every workload in its own process and print one table."""
    rows = {}
    for workload in W.WORKLOADS:
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=600)
        sys.stdout.write(f"== {workload}\n{done.stdout}")
        sys.stderr.write(done.stderr)
        if done.returncode:
            return done.returncode
        rows[workload] = json.loads(done.stdout.strip().splitlines()[-1])
    print("== summary")
    names = list(next(iter(rows.values()))["metrics"])
    print(f"{'metric':40s} " + " ".join(f"{w:>20s}" for w in rows))
    for name in names:
        unit = rows[W.WORKLOADS[0]]["metrics"][name]["unit"]
        values = " ".join(f"{rows[w]['metrics'][name]['value']:>20.6g}" for w in rows)
        print(f"{name + ' [' + unit + ']':40s} {values}")
    print(json.dumps({
        "correct": all(r["correct"] for r in rows.values()),
        "attempted": sum(r["attempted"] for r in rows.values()),
        "failed": sum(r["failed"] for r in rows.values()),
        "metrics": {f"{w}.{name}": value for w, r in rows.items()
                    for name, value in r["metrics"].items()},
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=W.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    context = run_context()
    if not context["c_decimal"]:
        print("refusing to run: decimal is the pure-Python fallback, which shifts "
              "every timing many-fold", file=sys.stderr)
        return 3
    if not (SRC / "simulroot" / "__init__.py").is_file():
        print(f"no simulroot sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)

    setup = measure_setup(args.workload)
    sys.path.insert(0, str(SRC))
    import simulroot
    import simulroot.cli  # noqa: F401  (bound as an attribute of simulroot)

    print("context " + json.dumps(context))
    session = Session(simulroot, args.workload, args.seed)
    probes: list[tuple[float, float]] = []
    if not args.trace:
        records = run_rounds(session, args.seconds, probes)
        metrics, notes = end_to_end(records, probes, setup)
        emit(records, metrics, notes + failure_notes(records))
        return 0

    untraced = run_rounds(session, args.seconds / 2, probes)
    untraced_ops_per_s = len(untraced) / sum(r.latency for r in untraced)
    tracer = Tracer()
    tracer.install()
    try:
        traced = run_rounds(session, args.seconds / 2, probes, tracer)
    finally:
        tracer.uninstall()
    OUT.mkdir(exist_ok=True)
    spans = OUT / f"spans-{args.workload}.json"
    tracer.dump(spans)
    metrics = per_layer(tracer, traced, untraced_ops_per_s)
    emit(untraced + traced, metrics, [f"spans written to {spans}"] + failure_notes(traced))
    return 0


if __name__ == "__main__":
    sys.exit(main())
