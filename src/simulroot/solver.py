"""Simultaneous root-finding iterations and convergence-order estimation.

The main iteration updates every estimate from the previous vector only
(total-step / Jacobi discipline):

    x_i <- x_i - m_i * N_i * (1 + N_i * C_i)

where N_i = p(x_i)/p'(x_i), m_i is the known multiplicity and C_i is the
logarithmic derivative of the product of the other roots' factors:
a rational sum for algebraic polynomials, a half cotangent sum for
trigonometric ones and a half hyperbolic-cotangent sum for exponential
ones.  The second-order baseline drops the bracket, i.e. multiplicity
Newton, and is kept around as a foil for order measurements.

A solve stops once every root has converged or is frozen.  A root
converges when its step meets the tolerance.  In coefficient form a root
of multiplicity m_i can be resolved only to about 10^(-digits/m_i), and
below that the computed p(x_i) is rounding noise that can throw the
estimate far off.  So a root whose |p(x_i)| lies within the running
bound of its rounding error at the estimates' digits freezes, as in
MPSolve (Bini & Fiorentino 2000), unless its step already meets the
tolerance: it keeps its estimate and gets no further Newton ratio, but
still enters the other roots' corrections.  A factored form's sum has no
such bound, so it never freezes: where its sum cancels every digit, near
a critical point of p, the Newton ratio raises
:class:`~simulroot.polys.DerivativeZeroError` and the solve stops on a
step failure.

A sweep calls :func:`~simulroot.polys.newton_ratio` once per unfrozen
estimate.  A root is settled when it is frozen, or when its ratio is 0
and its estimate already carries every digit of the sweep's precision:
its update x - 0E(b) then gives x back whatever the exponent b of its
bracket, so the sweep leaves it as it is.  (A shorter estimate on its
root, such as ``1``, still moves: the update writes it out as
``1.000...0``.  One that a climb to a higher level finds on its root is
written out to the level's digits, and so settled, at once.)  The sweep
then calls :func:`correction_sum` once if any root is not settled, and
not at all when every root is: the last sweep of a factored solve, whose
estimates have all landed on their roots, makes no correction pass.
MPSolve likewise stops updating settled approximations.  A failure is
reported for the first root, in root order, whose ratio, correction or
update fails.

Both calls return Reals.  The update, the at-floor step test and the
step sizes then run on the Decimals inside, every operation under one
context at the sweep's precision, its level, in the order that the Real
expression would use; the new estimates and their steps carry it.
Reals are made only for the new estimates and their steps.

The iteration converges cubically, so the early sweeps of a solve cannot
use every digit its estimates carry.  A solve above 128 digits therefore
climbs a ladder of precisions (Brent 1976; MPSolve's adaptive
precision): each sweep runs at the digits that show its estimates' next
errors, from the trace's last steps, as :func:`_level` states, and the top of
the ladder is the estimates' digits whatever digits the roots or the
coefficients carry.  The estimates are rounded to each level, and so
are a factored form's roots and their phases, or a coefficient form's
coefficients, in the form's one view per level (its ``at``); the level
never goes down.  Rounded to p digits, a coefficient form's root of
multiplicity m_i becomes a cluster about 10^(-p/m_i) wide, which the
rule keeps below the estimate's next error.  Below the top, a root whose |p(x_i)| lies within the bound of
its rounding error keeps its estimate for that sweep, and the next sweep
runs at the top: only there does a root freeze.  The default tolerance,
that of the estimates' digits, stops the solve only at the top; a
coarser one that a lower level's digits resolve may stop it there, with
estimates that carry that level's digits, but not in a sweep that held
a root.  A solve at 128 digits or fewer runs every sweep at the top.

A trigonometric or exponential solve gives every estimate its phase,
the pair (c, s) at half its value (:func:`~simulroot.polys.phases`), for
its Newton ratio and the pair sums, and a factored form's roots get
theirs from one kernel run per solve, at the estimates' digits, rounded
down to each level (:func:`~simulroot.polys.root_phases`).  Each sweep
makes one call, :func:`~simulroot.polys.turned_phases`, which turns an
estimate's phase from the nearest point whose phase it knows: the
estimate's last position, unless the level rose since, or its nearest
root.  The phase kernel runs only for an estimate with no such point
within ``MAX_TURN_STEP``, in a factored solve mostly those of sweep 1:
after it the cubic iteration leaves most estimates well within that of
their roots.  An estimate on its root keeps the root's phase.  Coefficient
forms have no root phases: they turn each phase by its estimate's last
step, and run the kernel for every estimate at each level they enter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import MAX_EMAX, MIN_EMIN, ROUND_HALF_EVEN, Context, Decimal
from enum import Enum
from typing import Sequence

from .numeric import Real, _context, check_phase, first_equal_pair, in_words, ln, pi, ten_power
from .polys import (
    FactoredPoly,
    Family,
    Phase,
    Polynomial,
    check_mults_fit,
    family_of,
    newton_ratio,
    pairwise_log_derivatives,
    root_phases,
    turned_phases,
)


# a number's leading digits, for its log10, whatever its exponent
_LOG = Context(prec=17, Emin=MIN_EMIN, Emax=MAX_EMAX)
# The lowest level of the precision ladder.  Up to about 64 digits a sweep
# costs little more than at 30 (the decimal module's cost per operation
# dominates), and a start at 30 leaves too little room between the digits
# a fast estimate's next error needs and those a slow one's rounding holds.
# A solve climbs only from more than twice this: at 128 digits a sweep at
# 64 saves at most a third of one at the top, less on a small problem than
# the climb costs (rounding, the rule, a phase restart per level).
_LADDER_FLOOR = 64


class Method(str, Enum):
    CHEBYSHEV = "chebyshev"
    NEWTON_BASELINE = "newton_baseline"


class StopReason(str, Enum):
    TOLERANCE = "tolerance"
    # every root converged or froze at its attainable accuracy, and one froze
    ACCURACY_FLOOR = "accuracy_floor"
    MAX_ITERS = "max_iters"
    STEP_FAILURE = "step_failure"


class RootStatus(str, Enum):
    CONVERGED = "converged"
    # stopped at its attainable accuracy: |p(x_i)| within its rounding-error bound
    FROZEN = "frozen"
    # the solve ran out of sweeps or failed before the root converged
    UNCONVERGED = "unconverged"


class CollisionError(ValueError):
    """Two estimates coincide at working precision."""

    def __init__(self, i: int, j: int, value: Real):
        self.indices = (i, j)
        self.value = value
        super().__init__(f"estimates {i} and {j} coincide at {value}")


class StepFailure(RuntimeError):
    def __init__(self, index: int, cause: Exception):
        self.index = index
        self.cause = cause
        super().__init__(f"step failed for root index {index}: {in_words('the step', cause)}")


class InsufficientDataError(ValueError):
    pass


@dataclass(frozen=True)
class MultiplicityProfile:
    """Known multiplicities m_1..m_m."""

    mults: tuple[int, ...]

    def __post_init__(self):
        if not self.mults or any(m < 1 for m in self.mults):
            raise ValueError("multiplicities must be a non-empty tuple of positive integers")

    @property
    def m(self) -> int:
        return len(self.mults)


@dataclass(frozen=True)
class EstimateVector:
    """Simultaneous approximations at one iteration."""

    x: tuple[Real, ...]
    k: int = 0

    def __post_init__(self):
        pair = first_equal_pair(self.x)
        if pair is not None:
            raise CollisionError(*pair, self.x[pair[0]])

    @property
    def m(self) -> int:
        return len(self.x)

    @property
    def digits(self) -> int:
        """The working precision: the most digits any estimate carries."""
        return max(x.digits for x in self.x)


@dataclass(frozen=True)
class SolveConfig:
    max_iters: int = 50
    # None -> 10^(6 - d), d the digits the initial estimates carry
    step_tolerance: Real | None = None
    method: Method = Method.CHEBYSHEV

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if self.step_tolerance is not None and not self.step_tolerance > 0:
            raise ValueError("step_tolerance must be positive")


@dataclass(frozen=True)
class IterationTrace:
    snapshots: tuple[EstimateVector, ...]
    step_sizes: tuple[tuple[Real, ...], ...]
    errors: tuple[tuple[Real, ...], ...] | None = None

    def final(self) -> EstimateVector:
        return self.snapshots[-1]

    def max_errors(self) -> tuple[Real, ...] | None:
        """Max-norm error per iteration, when true roots were supplied."""
        if self.errors is None:
            return None
        return tuple(max(row) for row in self.errors)


@dataclass(frozen=True)
class SolveReport:
    trace: IterationTrace
    stop_reason: StopReason
    failure: str | None = None
    # indices of the roots that froze at their attainable accuracy
    frozen: frozenset[int] = frozenset()

    @property
    def converged(self) -> bool:
        return self.stop_reason is StopReason.TOLERANCE

    @property
    def root_status(self) -> tuple[RootStatus, ...]:
        """Each root's status: frozen, else converged when the solve stopped
        on its tolerance or at the floor, else unconverged."""
        settled = self.stop_reason in (StopReason.TOLERANCE, StopReason.ACCURACY_FLOOR)
        rest = RootStatus.CONVERGED if settled else RootStatus.UNCONVERGED
        m = self.trace.snapshots[0].m
        return tuple(RootStatus.FROZEN if i in self.frozen else rest for i in range(m))


def correction_sum(
    family: Family,
    estimates: EstimateVector,
    profile: MultiplicityProfile,
    estimate_phases: Sequence[Phase | None],
) -> list[Real]:
    """Every Q_i'(x_i)/Q_i(x_i) over the other estimates' factors, in one
    pairwise pass over the estimates' :func:`phases`."""
    return pairwise_log_derivatives(family, estimates.x, estimate_phases, profile.mults)


def _advance(
    p: Polynomial,
    estimates: EstimateVector,
    profile: MultiplicityProfile,
    chebyshev: bool,
    roots: Sequence[Phase | None],
    own: Sequence[Phase | None],
    tolerance: Real,
    frozen: frozenset[int],
) -> tuple[EstimateVector, tuple[Real, ...], frozenset[int]]:
    # ``roots`` are p's root_phases, which a solve computes once, and
    # ``own`` the estimates' phases, which solve carries from sweep to
    # sweep (all None for the algebraic family).  Returns the new
    # estimates, each one's step |x_i' - x_i| and the roots this sweep
    # read at their floor, which keep their estimates.  Every operation
    # runs at the estimates' precision, with an int operand on the right.
    family = family_of(p)
    ctx = _context(estimates.digits)
    new = list(estimates.x)
    steps: list[Real | None] = [None] * len(new)
    floored = set()
    # the roots that are not settled, by index, with their Newton ratios
    moving: dict[int, tuple[Real, int, Real, bool]] = {}
    failure = None
    for i, (xi, mult) in enumerate(zip(estimates.x, profile.mults)):
        if i in frozen:
            continue
        try:
            ratio, at_floor = newton_ratio(p, xi, own[i], roots)
        except ArithmeticError as exc:
            # no later root can fail first; earlier ones may in their update
            failure = StepFailure(i, exc)
            break
        if ratio is None:  # p'(x_i) rounded to 0 at the floor
            floored.add(i)
        elif not (ratio.is_zero() and len(xi.dec.as_tuple().digits) == ctx.prec):  # not settled
            moving[i] = xi, mult, ratio, at_floor
    corrections = None
    if chebyshev and moving:
        try:
            corrections = correction_sum(family, estimates, profile, own)
        except ArithmeticError as exc:
            raise StepFailure(next(iter(moving)), exc) from exc
    for i, (xi, mult, ratio, at_floor) in moving.items():
        try:
            bracket = 1
            if corrections is not None:
                # 1 + ratio * C_i
                bracket = ctx.add(ctx.multiply(ratio.dec, corrections[i].dec), 1)
            # xi - mult * ratio * bracket
            xn = ctx.subtract(xi.dec, ctx.multiply(ctx.multiply(ratio.dec, mult), bracket))
            size = ctx.subtract(xn, xi.dec).copy_abs()  # abs(xn - xi)
            if at_floor and not size <= tolerance.dec:
                floored.add(i)
                continue
            new[i] = Real(xn, ctx.prec)
            if family is Family.TRIGONOMETRIC:
                check_phase(new[i], "the new estimate")
            steps[i] = Real(size, ctx.prec)
        except ArithmeticError as exc:
            raise StepFailure(i, exc) from exc
    if failure is not None:
        raise failure
    # an estimate that does not move (frozen, settled or at its floor)
    # steps by abs(xi - xi), a zero
    steps = [Real(ctx.subtract(x.dec, x.dec).copy_abs(), ctx.prec) if step is None else step
             for x, step in zip(estimates.x, steps)]
    try:
        return EstimateVector(tuple(new), estimates.k + 1), tuple(steps), frozenset(floored)
    except CollisionError as exc:
        raise StepFailure(exc.indices[0], exc) from exc


def solve(
    p: Polynomial,
    profile: MultiplicityProfile,
    init: EstimateVector,
    cfg: SolveConfig | None = None,
    true_roots: Sequence[Real] | None = None,
) -> SolveReport:
    """Iterate until every root has converged or is frozen.

    A root converges when its step falls below the tolerance.  The default
    tolerance is 10^(6 - d), where d is the largest number of digits the
    initial estimates carry.  Above 128 digits the sweeps climb from
    fewer digits p to d (:func:`_level`), and each snapshot carries the
    digits its sweep ran at.  A sweep at p < d digits stops the solve
    only where the tolerance is no finer than 10^(6 - p), which the
    default never is.  In coefficient form a root also freezes when, at d
    digits, |p(x_i)| lies within the rounding-error bound of its
    evaluation and its step would not meet the tolerance, or when p'(x_i)
    rounds to zero there: it keeps its estimate from then on.  Such a
    reading at p < d digits keeps the estimate for that sweep only, and
    the next sweep runs at d.  The stop is ``TOLERANCE``
    when no root froze and ``ACCURACY_FLOOR`` otherwise; the report names
    the frozen roots.  Step failures (estimate collisions, stationary
    points off the floor, poles and any other arithmetic error) abort the
    run and are reported, never thrown or patched around.  When
    ``true_roots`` is given the trace also records |x_i^[k] - x_i| per
    iteration.
    """
    cfg = cfg or SolveConfig()
    family = family_of(p)
    check_mults_fit(p, profile.mults)
    if init.m != profile.m:
        raise ValueError("initial vector and multiplicity profile disagree on m")
    if true_roots is not None and len(true_roots) != profile.m:
        raise ValueError("true_roots length must equal m")
    if family is Family.TRIGONOMETRIC:
        # Estimates 2*pi apart are one point of the circle: a collision.
        EstimateVector(tuple(wrap_to_standard_period(x) for x in init.x))

    top = init.digits
    tolerance = cfg.step_tolerance
    if tolerance is None:
        tolerance = _precision_floor(top)
    chebyshev = cfg.method is Method.CHEBYSHEV
    # the root phases' one kernel run, which every lower level rounds down
    roots = top_roots = root_phases(p, top)
    snapshots = [init]
    steps: list[tuple[Real, ...]] = []
    current = init
    # The estimates' phases serve every Newton ratio (the m terms of a
    # factored form, or z of a coefficient form) and the pair sums; the
    # algebraic family has none.
    own: list[Phase | None] | None = None
    frozen: frozenset[int] = frozenset()
    stop = StopReason.MAX_ITERS
    failure = None
    level, floored = 0, frozenset()
    for _ in range(cfg.max_iters):
        # a root read at its floor below the top sends the solve to the top
        rung = top if floored else _level(p, current, profile.mults, steps, level, top)
        if rung != level:
            # a climb: the estimates and the roots' phases go to the new
            # level (the top, where two estimates or roots meet below it)
            current = _at_level(p, current, rung, top)
            level = current.digits
            roots = top_roots if level == top else root_phases(p, level, top_roots)
        # Each estimate's phase turns from the nearer of its last position
        # and its nearest root with a phase for the level, here rather than
        # after a sweep, so the sweep that stops the solve turns none.  In
        # sweep 1, and after a climb, only a root can serve, and the kernel
        # runs for an estimate with none within MAX_TURN_STEP.
        own = turned_phases(family, own, current.x, level, roots)
        try:
            current, deltas, floored = _advance(p, current, profile, chebyshev, roots, own,
                                                tolerance, frozen)
        except StepFailure as exc:
            stop = StopReason.STEP_FAILURE
            failure = str(exc)
            break
        snapshots.append(current)
        steps.append(deltas)
        if level == top:  # the top's floor is a root's attainable accuracy
            frozen, floored = frozen | floored, frozenset()
        elif floored:  # held below the top: the next sweep runs at the top
            continue
        # A frozen root's step is 0.  A level below the top may stop the
        # solve only on a tolerance its own digits resolve, which the
        # default (the top's floor) is not; below the top a zero step
        # means "climb".
        if max(d.dec for d in deltas) <= tolerance.dec and (
                level == top or _precision_floor(level).dec <= tolerance.dec):
            stop = StopReason.ACCURACY_FLOOR if frozen else StopReason.TOLERANCE
            break

    errors = None if true_roots is None else tuple(
        tuple(abs(x - r) for x, r in zip(vec.x, true_roots)) for vec in snapshots)
    trace = IterationTrace(snapshots=tuple(snapshots), step_sizes=tuple(steps), errors=errors)
    return SolveReport(trace=trace, stop_reason=stop, failure=failure, frozen=frozen)


def _level(p: Polynomial, estimates: EstimateVector, mults: Sequence[int],
           steps: Sequence[Sequence[Real]], last: int, top: int) -> int:
    """The digits the next sweep runs at, its level on the precision ladder:
    from the ``last`` level, the ``top`` (the estimates' digits), the
    estimates' multiplicities ``mults`` and the log10 of the nonzero steps
    in the last three rows of the trace's ``steps``.  Below the top every
    row comes from a sweep below it, since the level never goes down.

    Digits are counted against the largest |x_i|, so that a large estimate
    keeps the digits of its phase; sweep 1 runs at 3s + 10, s the digits of
    the largest |x_i|.  Later, each estimate's steps show how many digits
    its error gains per sweep: gamma in the last sweep, which grows by the
    iteration's order rho, the ratio of its last two gains (3 until it has
    made three steps, and its first step counts as though the iteration
    were cubic from a start that far off).  With d the digits of its last
    step, its error now has about d + rho gamma digits, and the sweep's
    output d + rho gamma + rho^2 gamma.  The sweep runs at the most
    digits any output error has plus 10 guard digits, so that its
    snapshot shows every error, but at no more than the last level plus
    the least gain rho^2 gamma, less 3 for the constants: a sweep shrinks
    the rounding of its input by about its gain, so its snapshot stays
    within its guard digits of the exact iteration.

    A coefficient form rounds its coefficients to the level, which splits
    a root of multiplicity m_i into a cluster about 10^(-p/m_i) wide at p
    digits.  So each estimate's output digits count m_i times, which keeps
    the radius (10^10 10^-p)^(1/m_i) below its output error, and so does
    its gain in the cap: a sweep shrinks the last level's radius by its
    gain, as m_i times that many more digits would.  Sweep 1 runs at no
    fewer than 10 max m_i + 10 digits.  A factored form has exact roots,
    and every factor is 1.

    The level is at least ``_LADDER_FLOOR`` and the last level, at most
    the top, and the top wherever that is at most twice the floor.  Steps
    all zero give the top, as does a level at which two estimates, or two
    roots of p, would round to one value (:func:`_at_level`).
    """
    if last == top or top <= 2 * _LADDER_FLOOR:
        return top
    if isinstance(p, FactoredPoly):
        mults = [1] * estimates.m
    largest = max(x.dec.copy_abs() for x in estimates.x)
    size = _log10(largest) if largest else 0.0
    if not steps:
        want = max(3 * size, 10 * max(mults)) + 10
    else:
        deepest, least_gain = -math.inf, math.inf
        # each estimate's last steps, oldest first
        for m, history in zip(mults, zip(*steps[-3:])):
            if not history[-1].dec:  # a zero step: on its root at the last level
                continue
            d = [size - _log10(t.dec) for t in history if t.dec]
            gamma = d[-1] - (d[-2] if len(d) > 1 else d[-1] / 3)
            rho = 3.0
            if len(d) > 2:
                rho = min(max(gamma / (d[-2] - d[-3]), 1.0), 3.0) if d[-2] > d[-3] else 1.0
            deepest = max(deepest, m * (d[-1] + rho * gamma + rho * rho * gamma))
            least_gain = min(least_gain, m * rho * rho * gamma)
        if least_gain == math.inf:
            return top
        want = min(deepest + 10, last + least_gain - 3)
    return min(top, max(_LADDER_FLOOR, math.ceil(want), last))


def _log10(d: Decimal) -> float:
    # log10 d for d > 0, to float accuracy whatever d's exponent
    e = d.adjusted()
    return e + math.log10(float(d.scaleb(-e, _LOG)))


def _at_level(p: Polynomial, estimates: EstimateVector, level: int, top: int) -> EstimateVector:
    # Every estimate rounded to the level's digits; one on a root of p there
    # is written out to all of them, so that it is settled at once.  Where
    # two estimates, or two roots of p, would round to one value below the
    # top, every estimate goes to the top instead.
    if all(x.digits == level for x in estimates.x):
        return estimates
    ctx = _context(level)
    roots = p.at(level).root_set if isinstance(p, FactoredPoly) else ()
    if roots and len(roots) < len(p.at(top).root_set):
        return _at_level(p, estimates, top, top)
    out = []
    for x in estimates.x:
        y = ctx.plus(x.dec)
        if y in roots:
            y = ctx.quantize(y, Decimal((0, (1,), y.adjusted() + 1 - level)))
        out.append(Real(y, level))
    try:
        return EstimateVector(tuple(out), estimates.k)
    except CollisionError:
        if level == top:  # apart at the last level, so apart here
            raise
        return _at_level(p, estimates, top, top)


def _precision_floor(digits: int) -> Real:
    # 10^(6 - digits): below this, steps and errors at ``digits`` digits
    # are rounding noise.
    return ten_power(6 - digits, digits)


def empirical_order(errors: Sequence[Real]) -> Real:
    """log(e_{k+1}/e_k) / log(e_k/e_{k-1}) over the last three errors.

    Callers are expected to strip entries at the precision floor first
    (see :func:`pre_floor_errors`).
    """
    if len(errors) < 3:
        raise InsufficientDataError(f"need at least 3 error values, got {len(errors)}")
    for e in errors:
        if not e > 0:
            raise InsufficientDataError(f"errors must be strictly positive, got {e}")
    for prev, cur in zip(errors, errors[1:]):
        if not cur < prev:
            raise InsufficientDataError(
                f"errors must be strictly decreasing, got {prev} then {cur}"
            )
    e0, e1, e2 = errors[-3], errors[-2], errors[-1]
    return ln(e2 / e1) / ln(e1 / e0)


def pre_floor_errors(errors: Sequence[Real], digits: int) -> list[Real]:
    """Strictly decreasing prefix of positive errors above 10^(6 - digits)."""
    floor = _precision_floor(digits)
    out: list[Real] = []
    for e in errors:
        if not e > floor:
            break
        if out and not e < out[-1]:
            break
        out.append(e)
    return out


def wrap_to_standard_period(x: Real) -> Real:
    """Map a trigonometric root into [-pi, pi); ValueError once no digit of its phase is left."""
    check_phase(x, str(x))
    half_period = pi(x.digits)
    two_pi = 2 * half_period
    n = int((x / two_pi).dec.to_integral_value(rounding=ROUND_HALF_EVEN))
    wrapped = x - n * two_pi
    if wrapped >= half_period:
        wrapped = wrapped - two_pi
    elif wrapped < -half_period:
        wrapped = wrapped + two_pi
    return wrapped
