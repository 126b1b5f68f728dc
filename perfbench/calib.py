"""Machine-speed calibration of the time metrics.

On a shared host the speed of a core drifts.  A fixed workload on a 2-vCPU
VM took up to 1.6 times as long in one 20-s window as in another, in
process time as much as in wall time, and such regimes last about as long
as a run, so no median inside a run removes them.  The benchmark therefore
runs a fixed calibration chunk after each op and around each set-up probe,
outside every timed region, and reports its times scaled to a machine on
which one chunk takes ``REF_MS``:

    scaled time = measured time * REF_MS / (median chunk time of the run)

The chunk is a pure-Python integer loop.  Over fifteen 20-s windows of the
same ops it tracked the drift best of three candidates (a Python loop, a
small EM step and a batched EM step): correlation 0.93 with the mean op
time of `pair-ci` and 0.82 with that of `null-table`; scaling cut the
spread (IQR over median) of the window means from 0.15 to 0.07 and from
0.24 to 0.13.  The chunk calls nothing from mixwass, so a change to the
program cannot move it.  Run records keep the unscaled values and every
chunk time.
"""

from __future__ import annotations

from statistics import median
from time import perf_counter

REF_MS = 5.0
_STEPS = 60_000


def chunk() -> float:
    """Seconds taken by one fixed calibration chunk."""
    t0 = perf_counter()
    s = 0
    for i in range(_STEPS):
        s += i * i % 7
    return perf_counter() - t0


def factor(chunks: list[float]) -> float:
    """Multiplier that scales times measured alongside ``chunks`` to ``REF_MS``."""
    return REF_MS / (median(chunks) * 1e3)
