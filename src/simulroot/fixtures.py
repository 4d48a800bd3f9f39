"""Built-in worked examples and their reference iteration tables.

The three examples below are the package's golden fixtures: a degree-6
algebraic polynomial, a degree-3 trigonometric polynomial and a degree-2
exponential polynomial, each with the published initial estimates and
iteration tables.  Table digits are embedded verbatim from the source,
including entries with inconsistent digit counts; per-cell provenance
notes flag the two cells whose printed digits disagree with exact
re-computation (see ``tests/test_reference_consistency.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .numeric import DEFAULT_DIGITS, Real, make_real
from .solver import SolveConfig, SolveReport, solve
from .ingest import expression_problem

# Every reference entry is within this of an exact re-run, except the two
# annotated transcription slips.
TABLE_TOLERANCE = "1e-14"


@dataclass(frozen=True)
class WorkedExample:
    name: str
    expression: str
    init: tuple[str, ...]
    # table[k][i] is the printed value of root i at iteration k, verbatim
    table: tuple[tuple[str, ...], ...]
    # (row, col) -> provenance note for anomalous printed digits
    cell_notes: dict = field(default_factory=dict)


EXAMPLE_1 = WorkedExample(
    name="algebraic degree 6",
    expression="(x+2)^2*(x-1)*(x-3)^3",
    init=("-3", "0.1", "4"),
    table=(
        ("-3.000000000000000000", "0.100000000000000000", "4.000000000000000000"),
        ("-2.074075484632669380", "1.025215703994304140", "3.060848242666424480"),
        ("-2.000104622198420050", "0.999992663820262272", "3.000018360022861370"),
        ("-2.0000000000000256950", "1.000000000000000240", "3.000000000000001700"),
        ("-2.0000000000000000000", "1.0000000000000000000", "3.0000000000000000000"),
    ),
    cell_notes={
        (3, 0): (
            "printed with 19 decimals and one extra zero; exact rational "
            "re-computation of the iteration gives -2.0000000000002569519949..., "
            "so the printed value is a transcription slip about 2.3e-13 off"
        ),
    },
)

EXAMPLE_2 = WorkedExample(
    name="trigonometric degree 3",
    expression="sin((x-1)/2)^3*sin((x-2)/2)^2*sin((x-2.5)/2)",
    init=("0.2", "1.7", "3"),
    table=(
        ("0.20000000000000000000", "1.70000000000000000000", "3.00000000000000000000"),
        ("1.024086327992702930", "2.102113721613658320", "2.719836743505084910"),
        ("0.999943864177073621", "1.994771659856962850", "2.539910728921209960"),
        ("0.999999999989823071", "1.999997954513862020", "2.501199355320121160"),
        ("1.00000000000000000000", "1.99999999999989780", "2.500000051660666960"),
        ("1.00000000000000000000", "2.00000000000000000000", "2.50000000000000000000"),
    ),
    cell_notes={
        (4, 1): (
            "printed with 17 decimals and one nine dropped; independent "
            "high-precision re-runs give 1.9999999999999897754955..., so the "
            "printed value is a transcription slip about 9.2e-14 off"
        ),
    },
)

EXAMPLE_3 = WorkedExample(
    name="exponential degree 2",
    expression="sinh((x+2)/2)^2*sinh((x-3)/2)^2",
    init=("-1.5", "3.4"),
    table=(
        ("-1.50000000000000000000", "3.40000000000000000000"),
        ("-1.936759338912996590", "3.015817214722672100"),
        ("-1.999910032597308230", "3.000001221431438670"),
        ("-1.999999999999752340", "3.000000000000000000"),
        ("-2.00000000000000000000", "3.000000000000000000"),
    ),
)

EXAMPLES = {1: EXAMPLE_1, 2: EXAMPLE_2, 3: EXAMPLE_3}


def run_example(example: WorkedExample, digits: int = DEFAULT_DIGITS) -> SolveReport:
    """Solve a worked example as published, one iteration per table row
    after the first, tracking the errors against the expression's roots."""
    spec = expression_problem(example.expression, example.init, digits=digits)
    solve_cfg = SolveConfig(max_iters=len(example.table) - 1)
    return solve(
        spec.poly, spec.profile(), spec.initial_vector(), solve_cfg, true_roots=spec.poly.roots
    )


@dataclass(frozen=True)
class CellDiff:
    row: int
    col: int
    reference: str
    computed: Real
    discrepancy: Real
    note: str | None = None


def diff_against_table(report: SolveReport, example: WorkedExample) -> list[CellDiff]:
    """Absolute discrepancy of every computed entry against the reference,
    read at the precision the report's estimates carry."""
    digits = report.trace.snapshots[0].digits
    diffs = []
    for k, row in enumerate(example.table):
        snap = report.trace.snapshots[k]
        for i, printed in enumerate(row):
            ref = make_real(printed, digits)
            diffs.append(
                CellDiff(
                    row=k,
                    col=i,
                    reference=printed,
                    computed=snap.x[i],
                    discrepancy=abs(snap.x[i] - ref),
                    note=example.cell_notes.get((k, i)),
                )
            )
    return diffs
