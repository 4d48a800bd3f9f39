"""Cross-examination of the two reference-table cells that fail to
reproduce.

Two cells of the embedded reference tables disagree with recomputation
by about 1e-13, far above the arithmetic noise of any route.  The tests
here replay the iterations with arithmetic that shares nothing with the
package (exact rational arithmetic for the algebraic example, rational
grid arithmetic for the trigonometric one) and pin down that:

* the engine agrees with the independent replays to far better than
  1e-14 at every cell, and
* exactly the two annotated cells of the reference tables are
  transcription slips (a digit inserted or dropped), not engine errors.

A last check bounds the engine's own rounding: every snapshot of the
three worked examples lies within 2 ulp of the iteration run at
2*digits+20 digits, or, once a sweep ran at p < digits digits (a factored
solve climbs a ladder of precisions), within 10^(10 - p) of it, p the
digits the snapshot carries.
"""

from fractions import Fraction

import pytest

from simulroot.fixtures import EXAMPLE_1, EXAMPLE_2, EXAMPLE_3, run_example
from simulroot.ingest import expression_problem
from simulroot.numeric import Real, make_real

from oracles import algebraic_chebyshev_run, exact_iteration, frac_to_str, trig_chebyshev_run

R = make_real


def as_fraction(x) -> Fraction:
    return Fraction(x.dec) if isinstance(x, Real) else Fraction(x)


def test_algebraic_reference_table_against_exact_rational_replay():
    exact = algebraic_chebyshev_run(
        [Fraction(-2), Fraction(1), Fraction(3)],
        [2, 1, 3],
        [Fraction(-3), Fraction(1, 10), Fraction(4)],
        iterations=4,
    )
    report = run_example(EXAMPLE_1)

    # The engine tracks the exact rational trajectory to working precision.
    for snap, exact_row in zip(report.trace.snapshots, exact):
        for computed, truth in zip(snap.x, exact_row):
            assert abs(as_fraction(computed) - truth) < Fraction(1, 10**55)

    # Every reference cell matches the exact trajectory except the
    # annotated one, which is off by ~2.3e-13.
    for (row, col), note in EXAMPLE_1.cell_notes.items():
        assert "transcription slip" in note
    for k, printed_row in enumerate(EXAMPLE_1.table):
        for i, printed in enumerate(printed_row):
            gap = abs(as_fraction(R(printed)) - exact[k][i])
            if (k, i) in EXAMPLE_1.cell_notes:
                assert gap > Fraction(1, 10**13)
            else:
                assert gap < Fraction(1, 10**14)

    # The exact value of the disputed cell, printed to 19 decimals.
    assert frac_to_str(exact[3][0], 19) == "-2.0000000000002569520"
    assert EXAMPLE_1.table[3][0] == "-2.0000000000000256950"


def test_trigonometric_reference_table_against_rational_grid_replay():
    replay = trig_chebyshev_run(
        [Fraction(1), Fraction(2), Fraction(5, 2)],
        [3, 2, 1],
        [Fraction(1, 5), Fraction(17, 10), Fraction(3)],
        iterations=5,
        places=50,
    )
    report = run_example(EXAMPLE_2)

    for snap, replay_row in zip(report.trace.snapshots, replay):
        for computed, independent in zip(snap.x, replay_row):
            assert abs(as_fraction(computed) - independent) < Fraction(1, 10**45)

    for k, printed_row in enumerate(EXAMPLE_2.table):
        for i, printed in enumerate(printed_row):
            gap = abs(as_fraction(R(printed)) - replay[k][i])
            if (k, i) in EXAMPLE_2.cell_notes:
                assert gap > Fraction(9, 10**14)
            else:
                assert gap < Fraction(1, 10**14)

    assert frac_to_str(replay[4][1], 19) == "1.9999999999999897755"
    assert EXAMPLE_2.table[4][1] == "1.99999999999989780"


@pytest.mark.parametrize("digits", [64, 256])
@pytest.mark.parametrize("example", [EXAMPLE_1, EXAMPLE_2, EXAMPLE_3], ids=["alg", "trig", "exp"])
def test_worked_examples_within_their_guard_digits_of_the_exact_iteration(example, digits):
    # The iteration at 2 * digits + 20: Fractions on a grid (algebraic), the
    # grid replay (trigonometric) and chained package sweeps (exponential).
    report = run_example(example, digits=digits)
    spec = expression_problem(example.expression, example.init, digits=digits)
    exact = exact_iteration(spec.poly, spec.profile(), spec.initial_vector(),
                            len(report.trace.snapshots) - 1, digits)
    laddered = False
    for snap, row in zip(report.trace.snapshots, exact):
        # within 2 ulp until a sweep ran below the estimates' digits, then
        # within the guard digits of the snapshot's own
        laddered = laddered or snap.digits < digits
        for computed, truth in zip(snap.x, row):
            gap = abs(as_fraction(computed) - truth)
            if laddered:
                assert gap <= Fraction(10) ** (10 - snap.digits) * max(Fraction(1), abs(truth))
            else:
                assert gap <= 2 * Fraction(10) ** (computed.dec.adjusted() - digits + 1)
