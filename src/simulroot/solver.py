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
bound of its rounding error freezes, as in MPSolve (Bini & Fiorentino
2000), unless its step already meets the tolerance: it keeps its
estimate and gets no further Newton ratio, but still enters the other
roots' corrections.  A factored form has no such floor and never
freezes.

A sweep calls :func:`~simulroot.polys.newton_ratio` once per unfrozen
estimate.  A root is settled when it is frozen, or when its ratio is 0
and its estimate already carries every digit of the sweep's precision:
its update x - 0E(b) then gives x back whatever the exponent b of its
bracket, so the sweep leaves it as it is.  (A shorter estimate on its
root, such as ``1``, still moves: the update writes it out as
``1.000...0``.)  The sweep then calls :func:`correction_sum` once if
any root is not settled, and not at all when every root is: the last
sweep of a factored solve, whose estimates have all landed on their
roots, makes no correction pass.  MPSolve
likewise stops updating settled approximations.  A failure is reported
for the first root, in root order, whose ratio, correction or update
fails.

Both calls return Reals.  The update, the at-floor step test and the
step sizes then run on the Decimals inside, every operation under one
context at the estimates' precision (the most digits an estimate
carries), in the order that the Real expression would use.  So a solve
runs at its estimates' precision whatever digits the polynomial's
coefficients carry, and the new estimates and their steps carry it too.
Reals are made only for the new estimates and their steps.

A trigonometric or exponential solve gives every estimate its phase,
the pair (c, s) at half its value (:func:`~simulroot.polys.phases`), for
its Newton ratio and the pair sums, and a factored form's roots get
theirs once per solve (:func:`~simulroot.polys.root_phases`).  Each sweep
turns an estimate's phase from the nearest point whose phase it knows:
the estimate's last position, or its nearest root whose phase serves the
estimates' digits (:func:`~simulroot.polys.phase_anchors`).  The phase
kernel runs only for an estimate with no such point within
``MAX_TURN_STEP``, in a factored solve mostly those of sweep 1: after it
the cubic iteration leaves most estimates well within that of their
roots.  An estimate on its root keeps the root's phase.  Coefficient
forms have no root phases and turn each phase by its estimate's last
step.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import ROUND_HALF_EVEN
from enum import Enum
from typing import Sequence

from .numeric import Real, _context, check_phase, first_equal_pair, in_words, ln, pi, ten_power
from .polys import (
    Family,
    Phase,
    Polynomial,
    check_mults_fit,
    family_of,
    newton_ratio,
    pairwise_log_derivatives,
    phase_anchors,
    root_phases,
    turned_phases,
)


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
    # estimates, each one's step |x_i' - x_i| and the roots frozen after
    # this sweep.  Every operation runs at the estimates' precision, with
    # an int operand on the right.
    family = family_of(p)
    ctx = _context(estimates.digits)
    new = list(estimates.x)
    # an estimate that does not move steps by abs(xi - xi), a zero
    steps = [Real(ctx.subtract(x.dec, x.dec).copy_abs(), ctx.prec) for x in estimates.x]
    froze = set(frozen)
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
            froze.add(i)
        elif not (ratio.is_zero() and xi.digits == ctx.prec
                  and len(xi.dec.as_tuple().digits) == ctx.prec):  # not settled
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
                froze.add(i)
                continue
            new[i] = Real(xn, ctx.prec)
            if family is Family.TRIGONOMETRIC:
                check_phase(new[i], "the new estimate")
            steps[i] = Real(size, ctx.prec)
        except ArithmeticError as exc:
            raise StepFailure(i, exc) from exc
    if failure is not None:
        raise failure
    try:
        return EstimateVector(tuple(new), estimates.k + 1), tuple(steps), frozenset(froze)
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
    initial estimates carry.  In coefficient form a root also freezes when
    |p(x_i)| lies within the rounding-error bound of its evaluation and
    its step would not meet the tolerance, or when p'(x_i) rounds to zero
    there: it keeps its estimate from then on.  The stop is ``TOLERANCE``
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

    tolerance = cfg.step_tolerance
    if tolerance is None:
        tolerance = _precision_floor(init.digits)
    chebyshev = cfg.method is Method.CHEBYSHEV
    roots = root_phases(p, init.digits)

    def error_row(vec: EstimateVector):
        return tuple(abs(x - r) for x, r in zip(vec.x, true_roots))

    snapshots = [init]
    steps: list[tuple[Real, ...]] = []
    errors = [error_row(init)] if true_roots is not None else None

    current = previous = init
    # The estimates' phases serve every Newton ratio (the m terms of a
    # factored form, or z of a coefficient form) and the pair sums; the
    # algebraic family has none.
    own: list[Phase | None] | None = None
    frozen: frozenset[int] = frozenset()
    stop = StopReason.MAX_ITERS
    failure = None
    for _ in range(cfg.max_iters):
        # Each estimate's phase turns from the nearer of its last position
        # and its nearest root with a phase, here rather than after a
        # sweep, so the sweep that stops the solve turns none.  In sweep 1
        # only a root can serve, and the kernel runs for an estimate with
        # none within MAX_TURN_STEP.
        anchors, anchor_phases = phase_anchors(p, roots, previous.x, current.x, own,
                                               current.digits)
        own = turned_phases(family, anchors, current.x, anchor_phases, current.digits)
        try:
            nxt, deltas, frozen = _advance(p, current, profile, chebyshev, roots, own, tolerance,
                                           frozen)
        except StepFailure as exc:
            stop = StopReason.STEP_FAILURE
            failure = str(exc)
            break
        snapshots.append(nxt)
        steps.append(deltas)
        if errors is not None:
            errors.append(error_row(nxt))
        previous, current = current, nxt
        # a frozen root's step is 0
        if max(d.dec for d in deltas) <= tolerance.dec:
            stop = StopReason.ACCURACY_FLOOR if frozen else StopReason.TOLERANCE
            break

    trace = IterationTrace(
        snapshots=tuple(snapshots),
        step_sizes=tuple(steps),
        errors=tuple(errors) if errors is not None else None,
    )
    return SolveReport(trace=trace, stop_reason=stop, failure=failure, frozen=frozen)


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
