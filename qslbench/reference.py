"""A fixed computation that tells how fast the host runs at the moment.

On a shared 2-core host the same code runs up to 1.8x slower while a
neighbour is busy, in phases that last from seconds to minutes, so two
30-second runs of one commit can differ by that much.  The benchmark
times this computation between requests and reports each request's time
scaled by ``REFERENCE_S / (nearby reference time)``: the time the request
would take on a host that runs the reference in ``REFERENCE_S``.  The
computation mixes what qslkit spends its time on (small numpy array
operations, scalar float arithmetic in Python, float formatting) and
never calls qslkit, so a change to qslkit does not move it.
"""

from __future__ import annotations

import math
import time

import numpy as np

# Roughly what compute() takes on the 2-core host the bounds were set on.
REFERENCE_S = 0.002

_ENERGIES = np.linspace(0.0, 1.0, 8)
_WEIGHTS = np.full(8, 1.0 / 8.0)
_TIMES = np.linspace(0.0, 10.0, 200)


def compute() -> float:
    total = 0.0
    for i in range(24):
        phases = np.outer(_TIMES, _ENERGIES)
        magnitude = np.hypot(np.cos(phases) @ _WEIGHTS, np.sin(phases) @ _WEIGHTS)
        total += float(magnitude.min()) + float(np.dot(_WEIGHTS, _ENERGIES))
        for j in range(16):
            x = (j + 0.5) / 16.0
            ceiling = math.sqrt(x * (1.0 - x))
            total += ceiling if x < ceiling else math.fsum((x, -ceiling))
        total += len(",".join(f"{v:.17g}" for v in (total, i / 7.0, math.pi)))
    return total


def timed() -> float:
    start = time.perf_counter()
    compute()
    return time.perf_counter() - start


def scaled(latencies, sample_after, sample_s):
    """Latencies scaled to a host that runs compute() in REFERENCE_S.

    ``sample_after[k]`` requests had completed when reference sample k
    was taken (``sample_after[0] == 0``).  A request between samples k
    and k+1 is scaled by the median of the two samples before and the
    two after that gap, so one disturbed sample does not skew it.
    Wider windows tracked the host's speed phases less well.
    """
    latencies = np.asarray(latencies, dtype=np.float64)
    sample_s = np.asarray(sample_s, dtype=np.float64)
    smoothed = np.array(
        [
            np.median(sample_s[max(k - 1, 0) : k + 3])
            for k in range(len(sample_s))
        ]
    )
    gap = np.searchsorted(sample_after, np.arange(len(latencies)), side="right") - 1
    return latencies * (REFERENCE_S / smoothed[gap])
