"""Command-line interface: solve, verify, order, reproduce.

Exit codes are a stable contract:

* 0 success
* 1 input or usage error
* 2 non-convergence / insufficient data
* 3 verification or reproduction failure

The working precision is resolved once, in this order: ``--digits``, the
environment variable ``SIMULROOT_DIGITS``, a problem file's own
``digits`` (``solve --input``), and 64 decimal digits.  ``verify`` needs
one multiplicity per ``--roots`` entry; the theorem checks take the
degree from the multiplicities.  Any flag's value may start with a
minus sign (``--init -3,0.1,4``).

``main`` may be called any number of times in one process.  It builds
its parser on first use and shares it with every later call; nothing
else is kept between calls (no results, files or solves, and
``SIMULROOT_DIGITS`` is read on each call).  Sharing is thread safe:
argparse's ``parse_args`` writes only to the namespace it returns, never
to the parser, and no default is mutable, so no call sees another's
values.  Two threads racing on the first call each build a parser, and
one of them is kept.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from dataclasses import replace
from functools import lru_cache
from pathlib import Path

from .fixtures import EXAMPLES, TABLE_TOLERANCE, diff_against_table, run_example
from .ingest import (
    expression_problem,
    parse_problem,
    parse_trace,
    render_theorem_report,
    render_trace,
)
from .numeric import DEFAULT_DIGITS, PoleError, format_fixed, make_real
from .solver import (
    InsufficientDataError,
    Method,
    SolveReport,
    StopReason,
    empirical_order,
    pre_floor_errors,
    solve,
)
from .theory import (
    check_theorem1,
    check_theorem2,
    check_theorem3,
    max_separation,
    min_separation,
)

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_NO_CONVERGENCE = 2
EXIT_VERIFICATION = 3

# Every parse, schema, collision and separation error is a ValueError.
_INPUT_ERRORS = (ValueError, PoleError, OSError)


class UsageError(Exception):
    pass


class _HelpShown(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad flags by default; the contract wants 1.
    def error(self, message):
        raise UsageError(message)

    # It also exits 0 once -h/--help has printed the help; main returns 0.
    def exit(self, status=0, message=None):
        raise _HelpShown()


def _resolve_digits(flag: int | None) -> int | None:
    """``--digits``, else ``SIMULROOT_DIGITS``, else None."""
    if flag is not None:
        return flag
    env = os.environ.get("SIMULROOT_DIGITS")
    if env is None:
        return None
    try:
        return int(env)
    except ValueError:
        raise UsageError(f"SIMULROOT_DIGITS must be an integer, got {env!r}")


def _csv_strings(text: str) -> list[str]:
    items = [part.strip() for part in text.split(",")]
    if any(not part for part in items):
        raise UsageError(f"empty entry in comma-separated list {text!r}")
    return items


def _csv_ints(text: str) -> list[int]:
    out = []
    for part in _csv_strings(text):
        try:
            out.append(int(part))
        except ValueError:
            raise UsageError(f"expected an integer in {text!r}, got {part!r}")
    return out


def build_parser() -> _Parser:
    parser = _Parser(prog="simulroot", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve a root-finding problem")
    p_solve.set_defaults(run=cmd_solve)
    p_solve.add_argument("--input", help="problem file (JSON)")
    p_solve.add_argument("--expr", help="factored expression, e.g. '(x+2)^2*(x-1)'")
    p_solve.add_argument("--init", help="comma-separated initial estimates")
    p_solve.add_argument("--mults", help="comma-separated multiplicities (default: factor powers)")
    p_solve.add_argument("--digits", type=int, default=None)
    p_solve.add_argument("--max-iters", type=int, default=None)
    p_solve.add_argument("--tolerance", default=None)
    p_solve.add_argument("--method", choices=[m.value for m in Method], default=None)
    p_solve.add_argument("--format", choices=["table", "csv", "json"], default="table")

    p_verify = sub.add_parser("verify", help="check a convergence guarantee's hypotheses")
    p_verify.set_defaults(run=cmd_verify)
    p_verify.add_argument("--theorem", type=int, choices=[1, 2, 3], required=True)
    p_verify.add_argument("--roots", help="comma-separated true roots")
    p_verify.add_argument("--d", help="minimum pairwise root distance (alternative to --roots)")
    p_verify.add_argument("--max-sep", help="maximum pairwise root distance (theorem 2, with --d)")
    p_verify.add_argument("--mults", required=True)
    p_verify.add_argument("--c", required=True)
    p_verify.add_argument("--q", required=True)
    p_verify.add_argument("--xi", help="separation angle (theorem 2)")
    p_verify.add_argument("--digits", type=int, default=None)
    p_verify.add_argument("--json", action="store_true", help="emit the report as JSON")

    p_order = sub.add_parser("order", help="estimate empirical convergence order")
    p_order.set_defaults(run=cmd_order)
    p_order.add_argument("--input", required=True, help="trace file (JSON from solve)")
    p_order.add_argument("--true-roots", required=True)

    p_rep = sub.add_parser("reproduce", help="re-run a built-in example against its reference table")
    p_rep.set_defaults(run=cmd_reproduce)
    p_rep.add_argument("--table", type=int, choices=[1, 2, 3], required=True)
    p_rep.add_argument("--digits", type=int, default=None)

    return parser


@lru_cache(maxsize=None)
def _parser() -> _Parser:
    # Built once per process; parse_args leaves it unchanged.
    return build_parser()


_BARE_FLAG = re.compile(r"--[^=]+")
_NEGATIVE_VALUE = re.compile(r"-[0-9.]")


def _normalize_argv(argv: list[str]) -> list[str]:
    # Merge "--flag -1,2" into "--flag=-1,2": argparse takes a token that
    # starts with a minus sign for a flag unless it is one plain number.
    out: list[str] = []
    for token in argv:
        if out and _BARE_FLAG.fullmatch(out[-1]) and _NEGATIVE_VALUE.match(token):
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


def _solve_exit_code(report: SolveReport) -> int:
    # Every root converged, or froze at the accuracy its form allows.
    if report.stop_reason in (StopReason.TOLERANCE, StopReason.ACCURACY_FLOOR):
        return EXIT_OK
    if report.stop_reason is StopReason.STEP_FAILURE:
        return EXIT_NO_CONVERGENCE
    # Budget exhausted: call the run converging if the last step shrank.
    steps = report.trace.step_sizes
    if len(steps) >= 2 and not max(steps[-1]) < max(steps[-2]):
        return EXIT_NO_CONVERGENCE
    return EXIT_OK


def cmd_solve(args) -> int:
    if (args.input is None) == (args.expr is None):
        raise UsageError("provide exactly one of --input or --expr")
    if args.input is not None:
        spec = parse_problem(Path(args.input).read_bytes(), digits=args.digits)
    elif args.init is None:
        raise UsageError("--expr requires --init")
    else:
        spec = expression_problem(
            args.expr,
            _csv_strings(args.init),
            _csv_ints(args.mults) if args.mults else None,
            args.digits,
        )
    init = spec.initial_vector()
    overrides = {}
    if args.max_iters is not None:
        overrides["max_iters"] = args.max_iters
    if args.tolerance is not None:
        overrides["step_tolerance"] = make_real(args.tolerance, init.digits)
    if args.method is not None:
        overrides["method"] = Method(args.method)
    config = replace(spec.config, **overrides)

    report = solve(spec.poly, spec.profile(), init, config)
    sys.stdout.write(render_trace(report, args.format).decode())
    if report.failure:
        print(f"step failure: {report.failure}", file=sys.stderr)
    return _solve_exit_code(report)


def _format_side(value) -> str:
    text = str(value)
    return text if len(text) <= 24 else f"{value.dec:.16E}"


def _print_theorem_report(report) -> None:
    print(f"theorem {report.theorem}: {'PASS' if report.passed else 'FAIL'}")
    rows = [("", check) for check in report.global_checks]
    rows += [(f"i={ic.index + 1} (mult {ic.mult}) ", check)
             for ic in report.per_index for check in ic.checks]
    for where, check in rows:
        if check.lhs is not None and check.rhs is not None:
            detail = f": {_format_side(check.lhs)} {check.relation} {_format_side(check.rhs)}"
        elif check.lhs is not None:
            detail = f": value {_format_side(check.lhs)}"
        else:
            detail = f": {check.reason}" if check.reason else ""
        print(f"  [{'ok' if check.passed else 'FAIL'}] {where}{check.name}{detail}")
    for note in report.notes:
        print(f"  note: {note}")


def cmd_verify(args) -> int:
    digits = args.digits
    mults = _csv_ints(args.mults)
    c = make_real(args.c, digits)
    q = make_real(args.q, digits)

    if (args.roots is None) == (args.d is None):
        raise UsageError("provide exactly one of --roots or --d")
    if args.roots is not None and args.max_sep is not None:
        raise UsageError("--max-sep goes with --d; --roots gives the maximum separation")
    if args.theorem != 2:
        given = [flag for flag, value in (("--xi", args.xi), ("--max-sep", args.max_sep))
                 if value is not None]
        if given:
            raise UsageError(f"--theorem {args.theorem} does not take {' or '.join(given)}")
    if args.roots is not None:
        roots = [make_real(s, digits) for s in _csv_strings(args.roots)]
        if len(roots) != len(mults):
            raise UsageError(
                f"expected {len(roots)} multiplicities, one per root, got {len(mults)}"
            )
        d = min_separation(roots)
        max_sep = max_separation(roots)
    else:
        d = make_real(args.d, digits)
        max_sep = make_real(args.max_sep, digits) if args.max_sep else None

    if args.theorem == 1:
        report = check_theorem1(mults, d, c, q)
    elif args.theorem == 2:
        if args.xi is None:
            raise UsageError("--theorem 2 requires --xi")
        if max_sep is None:
            raise UsageError("--theorem 2 requires --max-sep when --d is used")
        xi = make_real(args.xi, digits)
        report = check_theorem2(mults, d, max_sep, c, q, xi)
    else:
        report = check_theorem3(mults, d, c, q)

    if args.json:
        sys.stdout.write(render_theorem_report(report).decode())
    else:
        _print_theorem_report(report)
    return EXIT_OK if report.passed else EXIT_VERIFICATION


def cmd_order(args) -> int:
    report = parse_trace(Path(args.input).read_bytes())
    digits = report.trace.snapshots[0].digits
    true_roots = [make_real(s, digits) for s in _csv_strings(args.true_roots)]
    m = report.trace.snapshots[0].m
    if len(true_roots) != m:
        raise UsageError(f"expected {m} true roots, got {len(true_roots)}")

    any_order = False
    for i in range(m):
        errors = [abs(snap.x[i] - true_roots[i]) for snap in report.trace.snapshots]
        usable = pre_floor_errors(errors, digits)
        try:
            order = empirical_order(usable)
        except InsufficientDataError as exc:
            print(f"x{i+1}: insufficient data ({exc})")
            continue
        any_order = True
        triple = ", ".join(str(e) for e in usable[-3:])
        print(f"x{i+1}: order {format_fixed(order, 3)} from errors ({triple})")
    return EXIT_OK if any_order else EXIT_NO_CONVERGENCE


def cmd_reproduce(args) -> int:
    example = EXAMPLES[args.table]
    report = run_example(example, digits=args.digits)
    sys.stdout.write(render_trace(report, "table", places=19).decode())

    tolerance = make_real(TABLE_TOLERANCE, args.digits)
    diffs = diff_against_table(report, example)
    worst = max(diffs, key=lambda cell: cell.discrepancy)
    failures = [cell for cell in diffs if cell.discrepancy > tolerance]
    print(f"entries compared: {len(diffs)}")
    print(f"max |computed - reference| = {worst.discrepancy} (row {worst.row}, x{worst.col + 1})")
    for cell in failures:
        print(
            f"MISMATCH row {cell.row} x{cell.col + 1}: reference {cell.reference}, "
            f"computed {cell.computed}"
        )
        if cell.note:
            print(f"  note: {cell.note}")
    if failures:
        print(f"{len(failures)} of {len(diffs)} entries exceed {TABLE_TOLERANCE}")
        return EXIT_VERIFICATION
    print(f"all entries within {TABLE_TOLERANCE}")
    return EXIT_OK


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = _parser().parse_args(_normalize_argv(list(argv)))
        if "digits" in args:
            args.digits = _resolve_digits(args.digits)
            # only a problem file carries digits of its own
            if args.digits is None and getattr(args, "input", None) is None:
                args.digits = DEFAULT_DIGITS
        return args.run(args)
    except _HelpShown:
        return EXIT_OK
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except _INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


def app() -> None:
    sys.exit(main())


if __name__ == "__main__":
    app()
