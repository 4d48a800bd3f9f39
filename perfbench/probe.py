"""A fixed stdlib computation that times the machine itself.

On a shared host a neighbour on the same core can slow every instruction
of this process by up to 2x, switching on and off within milliseconds,
and the share of time it does so drifts over seconds and minutes.  The
probe's mean time around an op measures that slowdown.  simulroot's own
small kernels slow by the same factor in the same time windows, so an
op's time divided by it is comparable between runs.  The probe uses no
simulroot code, so a change to simulroot does not move it.
"""

from __future__ import annotations

import time
from decimal import Context, Decimal

# Mean time of probe() on an idle Intel Xeon at 2.0 GHz (Python 3.11,
# libmpdec 2.5.1).  Scaled times read as if the probe had run this fast.
REFERENCE_S = 70e-6


def probe() -> None:
    ctx = Context(prec=100)
    x, acc = Decimal(1), Decimal(0)
    for k in range(3, 60):
        x = ctx.divide(ctx.multiply(x, 3), k)
        acc = ctx.add(acc, x)


def sample(count: int) -> list[tuple[float, float]]:
    """(start, duration) of ``count`` back-to-back probe runs."""
    out = []
    for _ in range(count):
        t0 = time.perf_counter()
        probe()
        out.append((t0, time.perf_counter() - t0))
    return out


def slowdown(samples) -> float:
    """Mean probe time over the reference time."""
    return sum(d for _, d in samples) / len(samples) / REFERENCE_S
