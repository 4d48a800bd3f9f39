"""Computable checks of the printed hypotheses of the three convergence
theorems.

Each check evaluates the printed hypotheses of one convergence theorem
(one per polynomial family) for given separation constants and reports
every inequality's sides per root index.  It tests the hypotheses as
printed, and for theorems 2 and 3 those are not sufficient: constants
that pass them can leave the error envelope, so a passing report for
those two theorems is no guarantee (``tests/test_theory.py`` pins one
case of each: theorem 2 with roots -2.321, -0.472, 0.607, mults 4, 3, 1,
c = 0.19999999, q = 0.8, xi = 0.4, whose root 3 is 0.302 off after one
sweep from within c q, against c q^3 = 0.102).  Each theorem's degree n
comes from the multiplicities, the one input that fixes it, and one
builder runs the per-root main inequality and assembles every report.  Checks
report failures, they never raise: a failed hypothesis is a result, not
an error.  The exceptions are input errors, each a ValueError:
multiplicities that fit no polynomial of the family (not all positive
integers, or an odd sum for a half-angle family), and a quantity, named
in the message, that leaves the decimal exponent range (it overflows, or
a divisor underflows to zero), or a sine argument with no digit of its
phase left.

The error envelope the theorems state is c * q^(3^k); :func:`error_bound`
evaluates it, underflowing to zero when the exponent exhausts the
representable range.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from decimal import DivisionByZero, InvalidOperation, Overflow
from typing import Callable, Sequence

from .numeric import Real, check_phase, cosh, in_words, one, pi, sin, sinh, zero
from .polys import Family, mults_degree
from .solver import MultiplicityProfile


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
class TheoremReport:
    theorem: int
    global_checks: tuple[ConditionCheck, ...]
    per_index: tuple[IndexChecks, ...]
    notes: tuple[str, ...] = ()

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
    return _evaluate(
        "a root separation",
        lambda: [abs(a - b) for i, a in enumerate(roots) for b in roots[i + 1:]],
    )


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


def _evaluate(quantity: str, compute: Callable[[], Real]) -> Real:
    try:
        return compute()
    except (Overflow, DivisionByZero, InvalidOperation) as exc:
        raise ValueError(in_words(quantity, exc)) from exc


def _degree(family: Family, mults: Sequence[int]) -> int:
    """Degree n of the ``family`` polynomial that ``mults`` fit; ValueError
    unless they are positive integers, with an even sum for a half-angle family."""
    MultiplicityProfile(tuple(mults))  # a non-empty tuple of positive integers
    total = sum(mults)
    n = mults_degree(family, total)
    if n is None:
        raise ValueError(
            f"multiplicities sum to {total}; the {family.value} degree needs an even sum"
        )
    return n


def _report(
    theorem: int,
    mults: Sequence[int],
    global_checks: tuple[ConditionCheck, ...],
    name: str,
    lhs: Callable[[int], Real],
    rhs: Callable[[int], Real],
    undefined: str | None = None,
    notes: tuple[str, ...] = (),
) -> TheoremReport:
    """The report of ``global_checks`` and, per root index i, the main
    inequality ``name``: ``lhs(m_i) < rhs(m_i)``, each side through
    :func:`_evaluate`, or a failed check with reason ``undefined`` when
    that is given."""
    per_index = []
    for i, mult in enumerate(mults):
        if undefined:
            check = ConditionCheck(name, None, None, "<", False, undefined)
        else:
            where = f"for i={i + 1}"
            check = _check(
                name,
                _evaluate(f"the main inequality's left side {where}", lambda: lhs(mult)),
                "<",
                _evaluate(f"the main inequality's right side {where}", lambda: rhs(mult)),
            )
        per_index.append(IndexChecks(i, mult, (check,)))
    return TheoremReport(theorem, global_checks, tuple(per_index), notes)


def _q_in_unit_interval(q: Real) -> ConditionCheck:
    return ConditionCheck(
        name="0 < q < 1",
        lhs=q,
        rhs=None,
        relation="in (0, 1)",
        passed=bool(q > 0 and q < 1),
    )


def check_theorem1(mults: Sequence[int], d: Real, c: Real, q: Real) -> TheoremReport:
    """Hypotheses for the algebraic family, of degree n = sum m_i.

    Per root index i: c^2 (n - m_i) < (m_i d - 2 n c)(d - 2c), alongside
    0 < q < 1, c > 0 and d - 2c > 0.
    """
    n = _degree(Family.ALGEBRAIC, mults)
    gap = _evaluate("d - 2c", lambda: d - 2 * c)
    globals_ = (
        _q_in_unit_interval(q),
        _check("c > 0", c, ">", zero(c.digits)),
        _check("d - 2c > 0", gap, ">", zero(d.digits)),
    )
    return _report(
        1, mults, globals_, "c^2 (n - m) < (m d - 2 n c)(d - 2c)",
        lambda mult: c * c * (n - mult), lambda mult: (mult * d - 2 * n * c) * gap,
    )


def check_theorem2(
    mults: Sequence[int], d: Real, max_sep: Real, c: Real, q: Real, xi: Real
) -> TheoremReport:
    """Hypotheses for the trigonometric family, of degree n = sum m_i / 2,
    exactly as printed.

    A = min(|sin(xi/2)|, |sin(d/2 - c)|).  The main inequality is kept
    verbatim, including the suspicious (c/4)(m_i/4) fragment; see notes.
    """
    n = _degree(Family.TRIGONOMETRIC, mults)
    gap = _evaluate("d - 2c", lambda: d - 2 * c)
    a_const = min(
        abs(sin(check_phase(xi / 2, "xi/2"))), abs(sin(check_phase(d / 2 - c, "d/2 - c")))
    )
    two_pi = 2 * pi(d.digits)
    globals_ = (
        _q_in_unit_interval(q),
        _check("c > 0", c, ">", zero(c.digits)),
        _check("xi > 0", xi, ">", zero(xi.digits)),
        _check("2c < xi", 2 * c, "<", xi),
        _check("d - 2c > 0", gap, ">", zero(d.digits)),
        _check("max separation < 2 pi - 2 xi", max_sep, "<", two_pi - 2 * xi),
    )

    def lhs(mult):
        rest = n * 2 - mult
        return (c * c) * (
            mult * mult * one(c.digits)
            + (rest * rest) / (4 * a_const * a_const)
            + (c / 4) * (mult * one(c.digits) / 4) * rest
            + mult * (rest / (2 * a_const * a_const) + (c / (6 * a_const)) * rest)
        )

    def rhs(mult):
        root_rhs = mult * (1 - (c * c) / 8) + (c / (2 * a_const)) * (n * 2 - mult)
        return root_rhs * root_rhs

    return _report(
        2, mults, globals_, "main inequality", lhs, rhs,
        "A = 0 makes the 1/A terms undefined" if a_const.is_zero() else None,
        ("main inequality implemented verbatim as printed, including the "
         "(c/4)(m/4)(2n-m) fragment and the + sign in the squared bracket; "
         "the printed form is suspected of typesetting defects",),
    )


def check_theorem3(mults: Sequence[int], d: Real, c: Real, q: Real) -> TheoremReport:
    """Hypotheses for the exponential family, of degree n = sum m_i / 2.

    S = sinh((d - 2c)/2).  The ambiguous "S cosh^-1 c" term is read as
    S / cosh(c): the inverse function is undefined for c < 1.
    """
    n = _degree(Family.EXPONENTIAL, mults)
    sinh_c = abs(_evaluate("sinh(c)", lambda: sinh(c)))
    cosh_c = _evaluate("cosh(c)", lambda: cosh(c))
    gap = _evaluate("d - 2c", lambda: d - 2 * c)
    globals_ = (
        _q_in_unit_interval(q),
        _check("c > 0", c, ">", zero(c.digits)),
        _check("d - 2c > 0", gap, ">", zero(d.digits)),
        _check(
            "c |sinh c| + cosh c < 12",
            _evaluate("c |sinh c| + cosh c", lambda: c * sinh_c + cosh_c),
            "<",
            12 * one(c.digits),
        ),
    )
    # S after the global checks, as printed: an overflow in both names the check.
    s_const = _evaluate("S = sinh((d - 2c)/2)", lambda: sinh(gap / 2))
    return _report(
        3, mults, globals_, "main inequality",
        lambda mult: mult * mult * one(c.digits)
        + (n / s_const) * (mult * c + sinh_c / s_const ** 3) * sinh_c
        + (2 * n / (s_const * s_const)) * cosh_c,
        lambda mult: mult + s_const / cosh_c,
        None if s_const > 0 else f"S = sinh((d - 2c)/2) = {s_const} makes the 1/S terms undefined",
        ("the ambiguous 'S cosh^-1 c' term is evaluated as S / cosh(c)",),
    )


def error_bound(c: Real, q: Real, k: int) -> Real:
    """The envelope c * q^(3^k) the theorems state; underflows to exact zero."""
    if not c > 0:
        raise ValueError(f"c must be positive, got {c}")
    if not (q > 0 and q < 1):
        raise ValueError(f"q must lie in (0, 1), got {q}")
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    return c * q ** (3 ** k)
