"""Parsing of factored expressions and problem files; trace rendering.

The expression grammar covers exactly the factored shapes the worked
examples use::

    PRODUCT := FACTOR ('*' FACTOR)*
    FACTOR  := BASE ('^' INT)?
    BASE    := '(' 'x' SIGN NUM ')'
             | 'sin' '(' '(' 'x' SIGN NUM ')' '/' '2' ')'
             | 'sinh' '(' '(' 'x' SIGN NUM ')' '/' '2' ')'
    SIGN    := '+' | '-'
    NUM     := DIGITS ('.' DIGITS)? | '.' DIGITS
    INT     := DIGITS

The grammar lives in one table, ``_SHAPES``: each family's factor is
written there once, as its pieces, and both parsing and printing read
it.  Whitespace between pieces is insignificant and a power is at least
1.  NUM is digits with an optional fraction and no exponent, and a
printed shift is positional (``(x-0.0000001)``, never ``1E-7``), so
printed output parses back.  A malformed expression raises
ExpressionError, which names the position where it goes wrong; the CLI
reports it as an input error (exit 1).  All numeric file I/O is decimal
strings end to end, so parsing and printing at the same precision is
byte-identical.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, replace
from enum import Enum
from typing import Any, Sequence

from .numeric import DEFAULT_DIGITS, Real, format_fixed, make_real, zero
from .polys import (
    AlgebraicCoeffPoly,
    Family,
    FactoredPoly,
    Polynomial,
    TrigExpCoeffPoly,
    check_mults_fit,
)
from .solver import (
    CollisionError,
    EstimateVector,
    IterationTrace,
    Method,
    MultiplicityProfile,
    RootStatus,
    SolveConfig,
    SolveReport,
    StopReason,
)


class ExpressionError(ValueError):
    def __init__(self, text: str, position: int, message: str):
        self.text = text
        self.position = position
        super().__init__(f"{message} at position {position} in {text!r}")


class SchemaError(ValueError):
    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")


# Each family's factor as the pieces it is written with: a literal, or
# SIGN and NUM, the shift of x - r.  Parsing and printing both read this
# table.  Parsing tries the families in this order, so "sinh" comes
# before its prefix "sin".
_SIGN, _NUM = "SIGN", "NUM"
_SHAPES = {
    Family.EXPONENTIAL: ("sinh", "(", "(", "x", _SIGN, _NUM, ")", "/", "2", ")"),
    Family.TRIGONOMETRIC: ("sin", "(", "(", "x", _SIGN, _NUM, ")", "/", "2", ")"),
    Family.ALGEBRAIC: ("(", "x", _SIGN, _NUM, ")"),
}

# A piece's pattern and the message for each of its groups.  Every group
# matches empty where its piece is missing, so the first empty group
# names the error and its start the position.  NUM's second group is the
# fraction after a decimal point.
_FIELDS = {
    _SIGN: (r"(?P<sign>[+-]|)", "expected '+' or '-' after 'x'"),
    _NUM: (
        r"(?P<num>\d*\.(\d+|)|\d+|)",
        "expected a decimal numeral",
        "expected digits after decimal point",
    ),
}
_POWER = (r"(?:\^\s*(?P<power>\d+|))?", "expected an integer")


def _grammar(shape: tuple[str, ...]) -> tuple[str, tuple[str, ...]]:
    # A factor's pattern, each piece after whitespace, then the '*' that
    # may follow it; and the message of each group before the '*'.
    pieces = [_FIELDS.get(p) or (f"({re.escape(p)}|)", f"expected {p!r}") for p in shape]
    pieces.append(_POWER)
    pattern = "".join(r"\s*" + piece[0] for piece in pieces) + r"\s*(\*?)"
    return pattern, tuple(message for piece in pieces for message in piece[1:])


_GRAMMAR = {family: _grammar(shape) for family, shape in _SHAPES.items()}


def parse_expression(text: str, digits: int = DEFAULT_DIGITS) -> FactoredPoly:
    """Parse a factored product into a FactoredPoly (root r = -shift)."""
    factors, pos = [], 0
    while True:
        # The first family whose first piece comes next, else the algebraic
        # one, which then reports what is missing.
        rest = text[pos:].lstrip()
        family = next(
            (f for f, shape in _SHAPES.items() if rest.startswith(shape[0])), Family.ALGEBRAIC
        )
        pattern, messages = _GRAMMAR[family]
        m = re.compile(pattern).match(text, pos)  # compiled on first use, then cached by re
        *groups, times = m.groups()
        if "" in groups:
            group = groups.index("") + 1
            raise ExpressionError(text, m.start(group), messages[group - 1])
        power = int(m["power"] or 1)
        if power < 1:
            raise ExpressionError(text, m.start("power"), "factor power must be >= 1")
        root = m["num"] if m["sign"] == "-" else "-" + m["num"]
        factors.append((family, m.start(1), root, power))
        pos = m.end()
        if not times:
            if pos < len(text):
                raise ExpressionError(text, pos, "expected '*'")
            break
    family = factors[0][0]
    for other, position, _, _ in factors:
        if other is not family:
            raise ExpressionError(text, position, "mixed factor families in one product")
    return FactoredPoly(
        family=family,
        roots=tuple(make_real(root, digits) for _, _, root, _ in factors),
        mults=tuple(power for _, _, _, power in factors),
    )


def render_expression(f: FactoredPoly) -> str:
    """Canonical print, the shift in positional notation; parse_expression
    of the result round-trips."""
    parts = []
    for root, mult in zip(f.roots, f.mults):
        fields = {_SIGN: "+" if root < 0 else "-", _NUM: f"{root.dec.copy_abs():f}"}
        base = "".join(fields.get(piece, piece) for piece in _SHAPES[f.family])
        parts.append(base if mult == 1 else f"{base}^{mult}")
    return "*".join(parts)


@dataclass(frozen=True)
class ProblemSpec:
    """A polynomial, its known multiplicities, the initial estimates and how to iterate."""

    poly: Polynomial
    mults: tuple[int, ...]
    init: tuple[Real, ...]
    config: SolveConfig = SolveConfig()

    def profile(self) -> MultiplicityProfile:
        return MultiplicityProfile(self.mults)

    def initial_vector(self) -> EstimateVector:
        return EstimateVector(self.init, k=0)

    def solve_config(self) -> SolveConfig:
        return self.config


def _problem(
    poly: Polynomial, mults: Sequence[int] | None, init: Sequence[str], digits: int
) -> ProblemSpec:
    # Multiplicities default to a factored form's powers.
    if mults is None:
        mults = poly.mults
    elif isinstance(poly, FactoredPoly) and len(mults) != len(poly.mults):
        raise SchemaError(
            "$.mults",
            f"length {len(mults)} does not match the expression's {len(poly.mults)} factors",
        )
    for i, v in enumerate(mults):
        if v < 1:
            raise SchemaError(f"$.mults[{i}]", f"must be positive, got {v}")
    try:
        check_mults_fit(poly, mults)
    except ValueError as exc:
        raise SchemaError("$.mults", str(exc)) from exc
    if len(init) != len(mults):
        raise SchemaError("$.init", f"expected {len(mults)} initial estimates, got {len(init)}")
    estimates = tuple(make_real(s, digits) for s in init)
    EstimateVector(estimates, k=0)  # raises CollisionError on duplicates
    return ProblemSpec(poly, tuple(mults), estimates)


def expression_problem(
    expr: str,
    init: Sequence[str],
    mults: Sequence[int] | None = None,
    digits: int = DEFAULT_DIGITS,
) -> ProblemSpec:
    """The problem of a factored expression, checked as :func:`parse_problem` checks a file."""
    return _problem(parse_expression(expr, digits), mults, init, digits)


def _json_object(data: bytes | str) -> dict:
    if isinstance(data, bytes):
        data = data.decode("utf-8")
    try:
        # parse_float=str keeps any bare JSON reals exact instead of
        # rounding them through binary floats.
        raw = json.loads(data, parse_float=str)
    except json.JSONDecodeError as exc:
        raise SchemaError("$", f"invalid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise SchemaError("$", "expected a JSON object")
    return raw


def _get(obj: Any, key: str, path: str, required: bool = True, default=None):
    if not isinstance(obj, dict):
        raise SchemaError(path, "expected an object")
    if key not in obj:
        if required:
            raise SchemaError(f"{path}.{key}", "missing required field")
        return default
    return obj[key]


def _member(kind: type[Enum], value: Any, path: str):
    try:
        return kind(value)
    except ValueError:
        choices = [m.value for m in kind]
        raise SchemaError(path, f"expected one of {choices}, got {value!r}") from None


def _as_int(value: Any, path: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise SchemaError(path, f"expected an integer, got {value!r}")
    return value


def _as_decimal_string(value: Any, path: str) -> str:
    if not isinstance(value, str):
        raise SchemaError(path, f"expected a decimal string, got {value!r}")
    return value


def _digits(value: Any) -> int:
    digits = _as_int(value, "$.digits")
    try:
        zero(digits)  # Real rejects a precision below the floor
    except ValueError as exc:
        raise SchemaError("$.digits", str(exc)) from exc
    return digits


def _array(value: Any, path: str) -> list:
    if not isinstance(value, list) or not value:
        raise SchemaError(path, "expected a non-empty array")
    return value


def _string_list(value: Any, path: str) -> list[str]:
    return [_as_decimal_string(v, f"{path}[{i}]") for i, v in enumerate(_array(value, path))]


def _real_rows(value: Any, path: str, digits: int) -> tuple[tuple[Real, ...], ...]:
    if not isinstance(value, list):
        raise SchemaError(path, "expected an array")
    return tuple(
        tuple(make_real(s, digits) for s in _string_list(row, f"{path}[{k}]"))
        for k, row in enumerate(value)
    )


def _parse_coefficients(family: Family, obj: Any, path: str, digits: int) -> Polynomial:
    a = [make_real(s, digits) for s in _string_list(_get(obj, "a", path), f"{path}.a")]
    if family is Family.ALGEBRAIC:
        for forbidden in ("a0", "b"):
            if forbidden in obj:
                raise SchemaError(
                    f"{path}.{forbidden}", "not used by algebraic coefficients"
                )
        return AlgebraicCoeffPoly(tuple(a))
    a0 = make_real(_as_decimal_string(_get(obj, "a0", path), f"{path}.a0"), digits)
    b = [make_real(s, digits) for s in _string_list(_get(obj, "b", path), f"{path}.b")]
    if len(a) != len(b):
        raise SchemaError(f"{path}.b", f"length {len(b)} does not match a (length {len(a)})")
    return TrigExpCoeffPoly(family, a0, tuple(a), tuple(b))


def parse_problem(data: bytes | str, digits: int | None = None) -> ProblemSpec:
    """Parse and validate a problem file (JSON, numerics as decimal strings).

    ``digits``, when given, replaces the file's precision (``"digits"``,
    else ``DEFAULT_DIGITS``) before any numeral is parsed.
    """
    raw = _json_object(data)
    family = _member(Family, _get(raw, "family", "$"), "$.family")

    digits = _digits(raw.get("digits", DEFAULT_DIGITS) if digits is None else digits)

    has_expr = "expr" in raw
    has_coeffs = "coefficients" in raw
    if has_expr == has_coeffs:
        raise SchemaError("$", "exactly one of 'expr' or 'coefficients' must be present")

    mults_raw = _get(raw, "mults", "$", required=not has_expr, default=None)
    mults = None
    if mults_raw is not None or not has_expr:
        if not isinstance(mults_raw, list) or not mults_raw:
            raise SchemaError("$.mults", "expected a non-empty array of integers")
        mults = [_as_int(v, f"$.mults[{i}]") for i, v in enumerate(mults_raw)]

    if has_expr:
        expr = _get(raw, "expr", "$")
        if not isinstance(expr, str):
            raise SchemaError("$.expr", "expected a string")
        try:
            poly = parse_expression(expr, digits)
        except ExpressionError as exc:
            raise SchemaError("$.expr", str(exc)) from exc
        if poly.family is not family:
            raise SchemaError(
                "$.family",
                f"declared {family.value} but the expression is {poly.family.value}",
            )
    else:
        poly = _parse_coefficients(family, raw["coefficients"], "$.coefficients", digits)

    spec = _problem(poly, mults, _string_list(_get(raw, "init", "$"), "$.init"), digits)

    max_iters = _as_int(raw.get("max_iters", SolveConfig.max_iters), "$.max_iters")
    if max_iters < 1:
        raise SchemaError("$.max_iters", f"must be >= 1, got {max_iters}")

    tolerance = None
    if "tolerance" in raw:
        tolerance = make_real(_as_decimal_string(raw["tolerance"], "$.tolerance"), digits)
        if not tolerance > 0:
            raise SchemaError("$.tolerance", "must be positive")

    method = _member(Method, raw.get("method", SolveConfig.method.value), "$.method")

    return replace(spec, config=SolveConfig(max_iters, tolerance, method))


# -- trace rendering ----------------------------------------------------


def _report_to_dict(report: SolveReport, digits: int) -> dict:
    trace = report.trace
    return {
        "digits": digits,
        "converged": report.converged,
        "stop_reason": report.stop_reason.value,
        "failure": report.failure,
        **_status_entry(report),
        "snapshots": [
            {"k": snap.k, "x": [str(x) for x in snap.x]} for snap in trace.snapshots
        ],
        "step_sizes": [[str(s) for s in row] for row in trace.step_sizes],
        "errors": None
        if trace.errors is None
        else [[str(e) for e in row] for row in trace.errors],
    }


def _status_entry(report: SolveReport) -> dict:
    # Only a solve in which a root froze records each root's status; for
    # any other the stop reason alone gives it.
    if not report.frozen:
        return {}
    return {"root_status": [status.value for status in report.root_status]}


def render_trace(report: SolveReport, format: str = "table", places: int = 18) -> bytes:
    """Render a solve report; table mirrors the reference layout, csv and
    json are lossless decimal strings.  Where a root froze, every format
    also gives each root's status (a last ``status`` row in table and csv)."""
    trace = report.trace
    statuses = _status_entry(report).get("root_status")
    if format in ("table", "csv"):
        if format == "table":
            lead, sep, cell = "{:>4}  ", ", ", lambda x: format_fixed(x, places)
        else:
            lead, sep, cell = "{},", ",", str
        rows = [("k", [f"x{i+1}" for i in range(trace.snapshots[0].m)])]
        rows += [(snap.k, map(cell, snap.x)) for snap in trace.snapshots]
        if statuses:
            rows.append(("status", statuses))
        return "".join(lead.format(label) + sep.join(cells) + "\n" for label, cells in rows).encode()
    if format == "json":
        digits = trace.snapshots[0].digits
        return (json.dumps(_report_to_dict(report, digits), indent=2) + "\n").encode()
    raise ValueError(f"unknown trace format {format!r}; expected table, csv or json")


def parse_trace(data: bytes | str) -> SolveReport:
    """Re-parse the JSON produced by :func:`render_trace`."""
    raw = _json_object(data)
    digits = _digits(_get(raw, "digits", "$"))
    snapshots = []
    for i, snap in enumerate(_array(_get(raw, "snapshots", "$"), "$.snapshots")):
        path = f"$.snapshots[{i}]"
        xs = tuple(make_real(s, digits) for s in _string_list(_get(snap, "x", path), f"{path}.x"))
        if snapshots and len(xs) != snapshots[0].m:
            raise SchemaError(f"{path}.x", f"expected {snapshots[0].m} estimates, got {len(xs)}")
        k = _as_int(_get(snap, "k", path), f"{path}.k")
        try:
            snapshots.append(EstimateVector(xs, k=k))
        except CollisionError as exc:
            raise SchemaError(f"{path}.x", str(exc)) from exc
    step_sizes = _real_rows(_get(raw, "step_sizes", "$"), "$.step_sizes", digits)
    errors_raw = raw.get("errors")
    errors = None if errors_raw is None else _real_rows(errors_raw, "$.errors", digits)
    trace = IterationTrace(snapshots=tuple(snapshots), step_sizes=step_sizes, errors=errors)
    stop = _member(StopReason, raw.get("stop_reason", StopReason.MAX_ITERS.value), "$.stop_reason")
    statuses = _root_statuses(raw.get("root_status"), snapshots[0].m)
    frozen = frozenset(i for i, status in enumerate(statuses) if status is RootStatus.FROZEN)
    report = SolveReport(trace=trace, stop_reason=stop, failure=raw.get("failure"), frozen=frozen)
    if raw.get("converged", report.converged) is not report.converged:
        expected = json.dumps(report.converged)
        raise SchemaError("$.converged", f"expected {expected} for stop_reason {stop.value!r}")
    settled = (StopReason.TOLERANCE, StopReason.ACCURACY_FLOOR)
    if stop in settled and (stop is StopReason.ACCURACY_FLOOR) != bool(frozen):
        expected = settled[bool(frozen)].value
        raise SchemaError("$.stop_reason", f"expected {expected!r}: root_status has {len(frozen)} frozen")
    for i, (status, derived) in enumerate(zip(statuses, report.root_status)):
        if status is not None and status is not derived:
            raise SchemaError(
                f"$.root_status[{i}]", f"expected {derived.value!r} for stop_reason {stop.value!r}"
            )
    return report


def _root_statuses(value: Any, m: int) -> list[RootStatus | None]:
    # A trace without the key froze no root; None leaves each status to the stop reason.
    if value is None:
        return [None] * m
    if not isinstance(value, list) or len(value) != m:
        raise SchemaError("$.root_status", f"expected an array of {m} root statuses")
    return [_member(RootStatus, v, f"$.root_status[{i}]") for i, v in enumerate(value)]


def render_theorem_report(report) -> bytes:
    """Serialize a TheoremReport to JSON (sides as decimal strings)."""

    def check_dict(c):
        return {
            "name": c.name,
            "lhs": None if c.lhs is None else str(c.lhs),
            "rhs": None if c.rhs is None else str(c.rhs),
            "relation": c.relation,
            "passed": c.passed,
            "reason": c.reason,
        }

    payload = {
        "theorem": report.theorem,
        "passed": report.passed,
        "global_checks": [check_dict(c) for c in report.global_checks],
        "per_index": [
            {
                "index": ic.index,
                "mult": ic.mult,
                "passed": ic.passed,
                "checks": [check_dict(c) for c in ic.checks],
            }
            for ic in report.per_index
        ],
        "notes": list(report.notes),
    }
    return (json.dumps(payload, indent=2) + "\n").encode()
