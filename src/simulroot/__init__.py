"""Simultaneous determination of all roots of algebraic, trigonometric and
exponential polynomials with known multiplicities, using third-order
Chebyshev-type iterations in configurable-precision decimal arithmetic."""

from .numeric import (
    DEFAULT_DIGITS,
    ParseError,
    PoleError,
    Real,
    make_real,
    pi,
)
from .polys import (
    AlgebraicCoeffPoly,
    DerivativeZeroError,
    DuplicateRootError,
    FactoredPoly,
    Family,
    Polynomial,
    TrigExpCoeffPoly,
    UnsupportedFamilyError,
    expand_algebraic,
)
from .solver import (
    CollisionError,
    EstimateVector,
    InsufficientDataError,
    IterationTrace,
    Method,
    MultiplicityProfile,
    RootStatus,
    SolveConfig,
    SolveReport,
    StopReason,
    empirical_order,
    pre_floor_errors,
    solve,
    wrap_to_standard_period,
)
from .theory import (
    ConditionCheck,
    IndexChecks,
    TheoremReport,
    UndefinedSeparationError,
    check_theorem1,
    check_theorem2,
    check_theorem3,
    error_bound,
    max_separation,
    min_separation,
)
from .ingest import (
    ExpressionError,
    ProblemSpec,
    SchemaError,
    expression_problem,
    parse_expression,
    parse_problem,
    parse_trace,
    render_expression,
    render_theorem_report,
    render_trace,
)

__version__ = "0.1.0"
