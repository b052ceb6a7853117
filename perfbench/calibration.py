"""Host-speed calibration for the benchmark's timings.

On a shared host the speed of a core drifts by up to ~45% over minutes
as other tenants come and go, which is wider than any useful regression
bound.  Each timing is therefore taken between two runs of a fixed
calibration loop in the same process and scaled by
``REFERENCE_S / (mean loop time)``: the result reads as seconds on a
host where the loop takes :data:`REFERENCE_S`.  The loop mixes what the
workloads spend their time on (interpreted Python with dict and integer
work, small numpy gathers and scatters, and blocked numpy reductions)
and calls nothing in ``repro``, so a change to the program moves the
timed pass but not the loop.

Measured on the 2-core x86-64 host the references were recorded on,
over 20-second windows, calibration halved the spread of per-window
medians (design-risk 0.156 to 0.080, simulate 0.133 to 0.070, as the
quartile distance over the median).
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

#: Seconds the loop takes on the reference host (its fast state).
REFERENCE_S = 0.14

_ROUNDS = 40


def loop_seconds() -> float:
    """Wall-clock seconds of one run of the calibration loop."""
    rng = np.random.default_rng(0)
    small = rng.random(1000)
    picks = rng.integers(0, 1000, 300)
    block = rng.random((64, 4000))
    columns = rng.integers(0, 4000, 4000)
    segments = np.arange(0, 4000, 8)
    start = perf_counter()
    for _ in range(_ROUNDS):
        table: dict[int, int] = {}
        total = 0
        for i in range(2000):
            total += i * 3
            table[i & 255] = total
            table.get(i)
        for _ in range(40):
            values = small[picks]
            np.nonzero(values > 0.5)
            out = np.zeros(1000)
            np.add.at(out, picks, values)
        mask = block[:, columns] > 0.5
        np.minimum.reduceat(np.where(mask, 1.0, 2.0), segments, axis=1)
    return perf_counter() - start


def scale(loop_s: float) -> float:
    """Factor that turns a timing taken at ``loop_s`` into reference
    seconds."""
    return REFERENCE_S / loop_s
