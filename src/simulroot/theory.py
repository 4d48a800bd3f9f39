"""Computable hypothesis checks for the three convergence guarantees.

Each check evaluates the printed hypotheses of one convergence theorem
(one per polynomial family) for given separation constants and reports
every inequality's sides per root index.  Checks report failures, they
never raise: a failed hypothesis is a result, not an error.  The one
exception is a quantity too large for the decimal exponent range, which
is an input error (a ValueError naming the quantity).

The guaranteed error envelope is c * q^(3^k); :func:`error_bound`
evaluates it, underflowing to zero when the exponent exhausts the
representable range.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from decimal import Overflow
from typing import Callable, Sequence

from .numeric import Real, cosh, one, pi, sin, sinh, zero


class UndefinedSeparationError(ValueError):
    pass


@dataclass(frozen=True)
class ConditionCheck:
    """One inequality: ``lhs relation rhs``, with the evaluated sides."""

    name: str
    lhs: Real | None
    rhs: Real | None
    relation: str
    passed: bool
    reason: str | None = None


@dataclass(frozen=True)
class IndexChecks:
    index: int
    mult: int
    checks: tuple[ConditionCheck, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


@dataclass(frozen=True)
class SeparationParams:
    """Separation constants entering the hypothesis checks."""

    d: Real
    c: Real
    q: Real
    max_sep: Real | None = None  # trigonometric only
    xi: Real | None = None  # trigonometric only
    a_const: Real | None = None  # trigonometric, derived
    s_const: Real | None = None  # exponential, derived


@dataclass(frozen=True)
class TheoremReport:
    theorem: int
    global_checks: tuple[ConditionCheck, ...]
    per_index: tuple[IndexChecks, ...]
    notes: tuple[str, ...] = ()
    params: SeparationParams | None = None

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.global_checks) and all(
            ic.passed for ic in self.per_index
        )


def _pairwise_distances(roots: Sequence[Real]) -> list[Real]:
    if len(roots) < 2:
        raise UndefinedSeparationError(
            f"separation needs at least 2 roots, got {len(roots)}"
        )
    return [abs(a - b) for i, a in enumerate(roots) for b in roots[i + 1:]]


def min_separation(roots: Sequence[Real]) -> Real:
    """Minimum pairwise distance between the given roots."""
    return min(_pairwise_distances(roots))


def max_separation(roots: Sequence[Real]) -> Real:
    return max(_pairwise_distances(roots))


_RELATIONS = {"<": operator.lt, ">": operator.gt, "<=": operator.le, ">=": operator.ge}


def _check(name: str, lhs: Real, relation: str, rhs: Real) -> ConditionCheck:
    return ConditionCheck(
        name=name, lhs=lhs, rhs=rhs, relation=relation, passed=_RELATIONS[relation](lhs, rhs)
    )


def _main_inequality_undefined(index: int, mult: int, reason: str) -> IndexChecks:
    return IndexChecks(
        index=index,
        mult=mult,
        checks=(
            ConditionCheck(
                name="main inequality",
                lhs=None,
                rhs=None,
                relation="<",
                passed=False,
                reason=reason,
            ),
        ),
    )


def _q_in_unit_interval(q: Real) -> ConditionCheck:
    return ConditionCheck(
        name="0 < q < 1",
        lhs=q,
        rhs=None,
        relation="in (0, 1)",
        passed=bool(q > 0 and q < 1),
    )


def check_theorem1(
    n: int, mults: Sequence[int], d: Real, c: Real, q: Real
) -> TheoremReport:
    """Hypotheses for the algebraic family.

    Per root index i: c^2 (n - m_i) < (m_i d - 2 n c)(d - 2c), alongside
    0 < q < 1, c > 0 and d - 2c > 0.
    """
    globals_ = (
        _q_in_unit_interval(q),
        _check("c > 0", c, ">", zero(c.digits)),
        _check("d - 2c > 0", d - 2 * c, ">", zero(d.digits)),
    )
    per_index = []
    for i, mult in enumerate(mults):
        lhs = c * c * (n - mult)
        rhs = (mult * d - 2 * n * c) * (d - 2 * c)
        per_index.append(
            IndexChecks(
                index=i,
                mult=mult,
                checks=(_check("c^2 (n - m) < (m d - 2 n c)(d - 2c)", lhs, "<", rhs),),
            )
        )
    return TheoremReport(
        theorem=1,
        global_checks=globals_,
        per_index=tuple(per_index),
        params=SeparationParams(d=d, c=c, q=q),
    )


def check_theorem2(
    n: int,
    mults: Sequence[int],
    d: Real,
    max_sep: Real,
    c: Real,
    q: Real,
    xi: Real,
) -> TheoremReport:
    """Hypotheses for the trigonometric family, exactly as printed.

    A = min(|sin(xi/2)|, |sin(d/2 - c)|).  The main inequality is kept
    verbatim, including the suspicious (c/4)(m_i/4) fragment; see notes.
    """
    two_pi = 2 * pi(d.digits)
    globals_ = (
        _q_in_unit_interval(q),
        _check("c > 0", c, ">", zero(c.digits)),
        _check("xi > 0", xi, ">", zero(xi.digits)),
        _check("2c < xi", 2 * c, "<", xi),
        _check("d - 2c > 0", d - 2 * c, ">", zero(d.digits)),
        _check("max separation < 2 pi - 2 xi", max_sep, "<", two_pi - 2 * xi),
    )
    a_const = min(abs(sin(xi / 2)), abs(sin(d / 2 - c)))
    per_index = []
    for i, mult in enumerate(mults):
        if a_const.is_zero():
            per_index.append(
                _main_inequality_undefined(i, mult, "A = 0 makes the 1/A terms undefined")
            )
            continue
        rest = n * 2 - mult
        lhs = (c * c) * (
            mult * mult * one(c.digits)
            + (rest * rest) / (4 * a_const * a_const)
            + (c / 4) * (mult * one(c.digits) / 4) * rest
            + mult * (rest / (2 * a_const * a_const) + (c / (6 * a_const)) * rest)
        )
        root_rhs = mult * (1 - (c * c) / 8) + (c / (2 * a_const)) * rest
        rhs = root_rhs * root_rhs
        per_index.append(
            IndexChecks(index=i, mult=mult, checks=(_check("main inequality", lhs, "<", rhs),))
        )
    return TheoremReport(
        theorem=2,
        global_checks=globals_,
        per_index=tuple(per_index),
        notes=(
            "main inequality implemented verbatim as printed, including the "
            "(c/4)(m/4)(2n-m) fragment and the + sign in the squared bracket; "
            "the printed form is suspected of typesetting defects",
        ),
        params=SeparationParams(d=d, c=c, q=q, max_sep=max_sep, xi=xi, a_const=a_const),
    )


def _evaluate(quantity: str, compute: Callable[[], Real]) -> Real:
    try:
        return compute()
    except Overflow as exc:
        raise ValueError(f"{quantity} overflows the decimal exponent range") from exc


def check_theorem3(
    n: int, mults: Sequence[int], d: Real, c: Real, q: Real
) -> TheoremReport:
    """Hypotheses for the exponential family.

    S = sinh((d - 2c)/2).  The ambiguous "S cosh^-1 c" term is read as
    S / cosh(c): the inverse function is undefined for c < 1.
    """
    sinh_c = abs(_evaluate("sinh(c)", lambda: sinh(c)))
    cosh_c = _evaluate("cosh(c)", lambda: cosh(c))
    globals_ = (
        _q_in_unit_interval(q),
        _check("c > 0", c, ">", zero(c.digits)),
        _check("d - 2c > 0", d - 2 * c, ">", zero(d.digits)),
        _check(
            "c |sinh c| + cosh c < 12",
            _evaluate("c |sinh c| + cosh c", lambda: c * sinh_c + cosh_c),
            "<",
            12 * one(c.digits),
        ),
    )
    half_gap = (d - 2 * c) / 2
    s_const = _evaluate("S = sinh((d - 2c)/2)", lambda: sinh(half_gap))
    per_index = []
    for i, mult in enumerate(mults):
        if not s_const > 0:
            per_index.append(
                _main_inequality_undefined(
                    i, mult, f"S = sinh((d - 2c)/2) = {s_const} makes the 1/S terms undefined"
                )
            )
            continue
        lhs = _evaluate(
            f"the main inequality's left side for i={i + 1}",
            lambda: mult * mult * one(c.digits)
            + (n / s_const) * (mult * c + sinh_c / s_const ** 3) * sinh_c
            + (2 * n / (s_const * s_const)) * cosh_c,
        )
        rhs = mult + s_const / cosh_c
        per_index.append(
            IndexChecks(index=i, mult=mult, checks=(_check("main inequality", lhs, "<", rhs),))
        )
    return TheoremReport(
        theorem=3,
        global_checks=globals_,
        per_index=tuple(per_index),
        notes=("the ambiguous 'S cosh^-1 c' term is evaluated as S / cosh(c)",),
        params=SeparationParams(d=d, c=c, q=q, s_const=s_const),
    )


def error_bound(c: Real, q: Real, k: int) -> Real:
    """The guaranteed envelope c * q^(3^k); underflows to exact zero."""
    if not c > 0:
        raise ValueError(f"c must be positive, got {c}")
    if not (q > 0 and q < 1):
        raise ValueError(f"q must lie in (0, 1), got {q}")
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    return c * q ** (3 ** k)
