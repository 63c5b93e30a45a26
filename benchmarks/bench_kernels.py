"""Compare the compiled kernels against the pure-numpy fallbacks.

Run as a script; pass --levels / --times to change the workload.  Set
QSLKIT_DISABLE_NUMBA=1 to confirm the fallback path alone.  The bracket
refiner has no compiled flavor, so only its numpy time is printed.
"""

import argparse
import time

import numpy as np

from qslkit import _kernels
from qslkit.states import sample_random_state


def best_of(func, *args, repeats=7):
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        func(*args)
        times.append(time.perf_counter() - start)
    return min(times)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--levels", type=int, default=8)
    parser.add_argument("--times", type=int, default=200_000)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    state = sample_random_state(args.levels, 1.0, args.seed)
    energies, populations = state.energies, state.populations
    grid = np.linspace(0.0, 100.0, args.times)

    pairs = [
        (
            "overlap_magnitudes",
            _kernels.overlap_magnitudes_numpy,
            getattr(_kernels, "overlap_magnitudes_numba", None),
            (energies, populations, grid),
        ),
        (
            "envelope_slack_scan",
            _kernels.envelope_slack_scan_numpy,
            getattr(_kernels, "envelope_slack_scan_numba", None),
            (energies, populations, 2.0, 3.0, 5.0, grid),
        ),
        (
            "refine_min_magnitudes",
            _kernels.refine_min_magnitudes,
            None,  # numpy only
            (energies, populations, np.array([1.0]), np.array([6.0]), 1e-12),
        ),
    ]

    print(f"levels={args.levels} time_samples={args.times} numba={_kernels.USING_NUMBA}")
    header = f"{'kernel':<22} {'numpy':>10} {'numba':>10} {'speedup':>8}"
    print(header)
    print("-" * len(header))
    for name, numpy_func, numba_func, call_args in pairs:
        numpy_s = best_of(numpy_func, *call_args)
        if numba_func is None:
            print(f"{name:<22} {numpy_s * 1e3:>8.2f}ms {'n/a':>10} {'n/a':>8}")
            continue
        numba_func(*call_args)  # JIT warm-up outside the timed region
        numba_s = best_of(numba_func, *call_args)
        print(
            f"{name:<22} {numpy_s * 1e3:>8.2f}ms {numba_s * 1e3:>8.2f}ms "
            f"{numpy_s / numba_s:>7.1f}x"
        )


if __name__ == "__main__":
    main()
