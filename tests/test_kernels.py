import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qslkit import _kernels
from qslkit.states import sample_random_state, validate_state
from qslkit.verify import find_orthogonalization_time

seeds = st.integers(min_value=0, max_value=2**31)


def _state_arrays(seed, level_count=5):
    state = sample_random_state(level_count, 1.0, seed)
    return state.energies, state.populations


@settings(max_examples=50)
@given(seeds)
def test_dispatch_matches_numpy_magnitudes(seed):
    energies, populations = _state_arrays(seed)
    times = np.linspace(0.0, 40.0, 300)
    a = _kernels.overlap_magnitudes_numpy(energies, populations, times)
    b = _kernels.overlap_magnitudes(energies, populations, times)
    assert np.max(np.abs(a - b)) < 1e-13


@settings(max_examples=25)
@given(seeds)
def test_dispatch_matches_numpy_slack_scan(seed):
    # arccos near magnitude 1 amplifies a one-ulp summation difference
    # to ~1e-8 of angle, so the paths agree only to that level
    energies, populations = _state_arrays(seed)
    times = np.linspace(0.0, 40.0, 300)
    a = _kernels.envelope_slack_scan_numpy(energies, populations, 2.0, 3.0, 5.0, times)
    b = _kernels.envelope_slack_scan(energies, populations, 2.0, 3.0, 5.0, times)
    assert a[0] == pytest.approx(b[0], abs=1e-7)


def test_magnitude_at_balanced_qubit():
    energies = np.array([0.0, 1.0])
    populations = np.array([0.5, 0.5])
    assert _kernels.magnitude_at(energies, populations, 0.0) == pytest.approx(1.0)
    assert _kernels.magnitude_at(energies, populations, math.pi) == pytest.approx(
        0.0, abs=1e-12
    )


# Families with a closed-form earliest zero of |f|; every weight is <= 1/2.
balanced_qubits = st.builds(
    lambda offset, gap: ([(offset, 0.5), (offset + gap, 0.5)], math.pi / gap),
    st.floats(-2.0, 2.0),
    st.floats(0.25, 4.0),
)
symmetric_trios = st.floats(0.26, 0.49).map(
    lambda a: (
        [(0.0, a), (1.0, 1.0 - 2.0 * a), (2.0, a)],
        math.acos((2.0 * a - 1.0) / (2.0 * a)),
    )
)
equal_weight_ladders = st.builds(
    lambda n, spacing: (
        [(k * spacing, 1.0 / n) for k in range(n)],
        2.0 * math.pi / (n * spacing),
    ),
    st.integers(2, 8),
    st.floats(0.25, 4.0),
)


@settings(max_examples=100)
@given(st.one_of(balanced_qubits, symmetric_trios, equal_weight_ladders))
def test_finder_lands_on_the_exact_zero(case):
    levels, expected = case
    t = find_orthogonalization_time(validate_state(levels))
    assert t is not None
    assert t == pytest.approx(expected, abs=1e-9)


@pytest.mark.parametrize(
    "levels, lo, hi",
    [
        ([(0.0, 0.7), (1.0, 0.3)], 2.5, 3.8),
        ([(0.0, 0.4), (0.3, 0.25), (1.0, 0.35)], 3.0, 4.2),
        ([(-0.5, 0.3), (0.1, 0.2), (0.4, 0.3), (1.5, 0.2)], 10.6, 11.1),
    ],
)
def test_refine_matches_a_dense_minimum_without_a_zero(levels, lo, hi):
    state = validate_state(levels)
    grid = np.linspace(lo, hi, 200_001)
    dense = _kernels.overlap_magnitudes(state.energies, state.populations, grid)
    assert dense.min() > 1e-3
    assert 0 < int(np.argmin(dense)) < grid.size - 1
    t, mag = _kernels.refine_min_magnitudes(
        state.energies, state.populations, np.array([lo]), np.array([hi]), 1e-12
    )
    assert lo <= t[0] <= hi
    assert mag[0] == pytest.approx(dense.min(), abs=1e-9)


@pytest.mark.parametrize(
    "levels, lo, hi",
    [
        ([(0.0, 0.6), (1.0, 0.4)], 2.5, 3.0),
        ([(0.0, 0.4), (0.3, 0.25), (1.0, 0.35)], 3.0, 3.5),
    ],
)
def test_refine_settles_an_edge_minimum_at_once(monkeypatch, levels, lo, hi):
    # |f| still falls at hi, as at the trailing sample of a finder scan.
    # Bisection alone needs ~40 steps to walk there; five must do.
    state = validate_state(levels)
    grid = np.linspace(lo, hi, 10_001)
    dense = _kernels.overlap_magnitudes(state.energies, state.populations, grid)
    assert int(np.argmin(dense)) == grid.size - 1
    monkeypatch.setattr(_kernels, "_REFINE_MAX_STEPS", 5)
    t, mag = _kernels.refine_min_magnitudes(
        state.energies, state.populations, np.array([lo]), np.array([hi]), 1e-12
    )
    assert t[0] == hi
    assert mag[0] == pytest.approx(dense[-1], abs=1e-15)


@settings(max_examples=50)
@given(st.integers(2, 8), seeds)
def test_prefilter_bound_holds_on_a_dense_grid(level_count, seed):
    state = sample_random_state(level_count, 1.0, seed)
    floor = 2.0 * float(state.populations.max()) - 1.0
    assume(floor > 1e-9)
    tau_bw = math.pi / (state.emax - state.e0)
    grid = np.linspace(0.0, 20.0 * tau_bw, 40_001)
    mags = _kernels.overlap_magnitudes(state.energies, state.populations, grid)
    assert mags.min() >= floor - 1e-12
    assert find_orthogonalization_time(state) is None


def test_env_flag_forces_the_numpy_path():
    code = (
        "from qslkit import _kernels\n"
        "import numpy as np\n"
        "assert not _kernels.USING_NUMBA\n"
        "e = np.array([0.0, 1.0]); w = np.array([0.5, 0.5])\n"
        "print(repr(_kernels.magnitude_at(e, w, 3.141592653589793)))\n"
    )
    env = dict(os.environ, QSLKIT_DISABLE_NUMBA="1")
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True
    )
    assert result.returncode == 0, result.stderr
    assert float(result.stdout.strip()) < 1e-12
