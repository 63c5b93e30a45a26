import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qslkit import _kernels
from qslkit.bounds import bound_set, envelope_angle_from_taus
from qslkit.states import energy_moments, overlap, sample_random_state, validate_state
from qslkit.verify import find_orthogonalization_time

seeds = st.integers(min_value=0, max_value=2**31)


def test_magnitude_at_balanced_qubit():
    energies = np.array([0.0, 1.0])
    populations = np.array([0.5, 0.5])
    times = np.linspace(0.0, math.pi, 3)
    for mags in (
        _kernels.overlap_magnitudes(energies, populations, times),
        np.abs(_kernels.grid_overlap(energies, populations, times[-1], len(times))),
    ):
        assert mags[0] == pytest.approx(1.0)
        assert mags[1] == pytest.approx(math.sqrt(0.5))
        assert mags[2] == pytest.approx(0.0, abs=1e-12)


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
        state.energies, state.populations, np.array([lo]), np.array([hi])
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
        state.energies, state.populations, np.array([lo]), np.array([hi])
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


grid_states = st.lists(
    st.tuples(st.floats(-4.0, 4.0), st.floats(0.01, 1.0)), min_size=1, max_size=8
).map(lambda rows: validate_state([(e, p / sum(q for _, q in rows)) for e, p in rows]))


@settings(max_examples=200)
@given(
    grid_states,
    st.sampled_from([2, 3, 401, 1000, 2000]),
    st.floats(1e-3, 150.0),
)
def test_grid_kernel_matches_the_direct_evaluator(state, n, end):
    times = np.linspace(0.0, end, n)
    direct = _kernels.overlap_magnitudes(state.energies, state.populations, times)
    grid = np.abs(_kernels.grid_overlap(state.energies, state.populations, end, n))
    assert grid.shape == (n,)
    # each phase E t carries a few roundings of relative size eps, and the
    # weights sum to one
    e_max = float(np.max(np.abs(state.energies)))
    tolerance = 16.0 * np.finfo(float).eps * (1.0 + e_max * times[-1])
    assert np.max(np.abs(grid - direct)) <= tolerance


@settings(max_examples=100)
@given(
    st.integers(1, 8),
    st.integers(1, 6),
    st.sampled_from([3, 4, 5, 401, 1000, 2001]),
    st.floats(0.0, 1.0),
    seeds,
)
def test_a_prefix_of_the_grid_kernel_has_the_bits_of_the_full_grid(
    level_count, rows, n, share, seed
):
    # b = 1 both as one state and as one stacked row, then stacked rows
    rng = np.random.default_rng(seed)
    energies = np.sort(rng.uniform(-2.0, 6.0, (rows, level_count)), axis=1)
    populations = rng.exponential(size=(rows, level_count))
    populations /= populations.sum(axis=1, keepdims=True)
    end = rng.uniform(5.0, 400.0, rows)
    stop = 1 + int(share * (n - 1))
    cases = [(energies, populations, end)]
    if rows == 1:
        cases.append((energies[0], populations[0], end[0]))
    for e, w, t_end in cases:
        full = _kernels.grid_overlap(e, w, t_end, n)
        prefix = _kernels.grid_overlap(e, w, t_end, n, stop)
        assert prefix.shape == full.shape[:-1] + (stop,)
        assert prefix.tobytes() == full[..., :stop].tobytes()


@settings(max_examples=50, deadline=None)
@given(st.integers(2, 8), seeds)
def test_magnitude_is_sigma_lipschitz_on_a_dense_grid(level_count, seed):
    state = sample_random_state(level_count, 1.0, seed)
    sigma = energy_moments(state).sigma
    grid = np.linspace(0.0, 20.0 * math.pi / (state.emax - state.e0), 200_001)
    mags = _kernels.overlap_magnitudes(state.energies, state.populations, grid)
    step = grid[1] - grid[0]
    # a balanced pair reaches the bound at its zeros, so leave room for
    # the rounding of each magnitude, a few eps * (1 + E t)
    rounding = 32.0 * np.finfo(float).eps * (1.0 + state.emax * grid[-1])
    assert np.max(np.abs(np.diff(mags))) <= sigma * step + rounding


@settings(max_examples=100)
@given(st.one_of(balanced_qubits, symmetric_trios, equal_weight_ladders))
def test_the_refine_prefilter_keeps_every_bracket_around_a_zero(case):
    # The finder refines the bracket [t_{k-1}, t_{k+1}] of a scan minimum
    # only if mags[k] < sigma * h + tol.  Every bracket that holds one of
    # the family's zeros must pass that test.
    levels, first_zero = case
    state = validate_state(levels)
    sigma = energy_moments(state).sigma
    t_max = 20.0 * math.pi / (state.emax - state.e0)
    times = np.linspace(0.0, t_max, 401)
    h = t_max / 400
    mags = np.abs(_kernels.grid_overlap(state.energies, state.populations, t_max, 401))
    # Qubits and ladders (equal weights, n levels) vanish at every multiple
    # j of the first zero with j not a multiple of n; trios (gaps of 1)
    # at +-first_zero modulo 2 pi.
    n = len(levels)
    if n == 3 and levels[0][1] != levels[1][1]:
        candidates = [
            2.0 * math.pi * m + sign * first_zero
            for m in range(int(t_max / (2.0 * math.pi)) + 2)
            for sign in (1.0, -1.0)
        ]
    else:
        candidates = [
            j * first_zero
            for j in range(1, int(t_max / first_zero) + 1)
            if j % n
        ]
    zeros = [z for z in candidates if 0.0 <= z <= t_max]
    assert zeros
    for z in zeros:
        assert overlap(state, z).magnitude < 1e-9
        k = np.flatnonzero(np.abs(times - z) <= h)
        assert k.size
        assert np.all(mags[k] < sigma * h + 1e-9)


def _full_grid_scan(state, taus, times):
    """One state's slack at every point of its whole grid, and np.argmin of it."""
    mags = np.abs(_kernels.grid_overlap(state.energies, state.populations, times[-1], len(times)))
    slack = envelope_angle_from_taus(times, *taus) - np.arccos(np.minimum(mags, 1.0))
    return slack, int(np.argmin(slack))


def test_stacked_envelope_scan_is_the_full_grid_scan_of_each_row():
    # Rows sorted by level count, as the sweep stacks them, each with its
    # taus and its grid's end:
    qubit = validate_state([(0.0, 0.7), (1.0, 0.3)])
    trio, quintet = sample_random_state(3, 1.0, 3), sample_random_state(5, 1.0, 5)

    def taus(state):
        b = bound_set(state, p_grid=())
        return b.tau_mt, b.tau_ml, b.tau_ml_dual

    def horizon(state):
        return 20.0 * math.pi / (state.emax - state.e0)

    rows = [
        # a balanced qubit with the taus of no state: its slack is -arccos|f|,
        # least at the zeros pi and 3 pi, with equal bits
        (validate_state([(0.0, 0.5), (1.0, 0.5)]), (math.inf,) * 3, 4.0 * math.pi),
        # the last tau before the first step: a reach of t = 0 alone
        (qubit, taus(qubit), 1e3 * max(taus(qubit))),
        # the first tau past the grid's end: a reach of the whole grid
        (trio, taus(trio), 0.5 * min(taus(trio))),
        (trio, taus(trio), horizon(trio)),
        (quintet, (taus(quintet)[0], math.nan, taus(quintet)[2]), horizon(quintet)),
        (quintet, taus(quintet), horizon(quintet)),
    ]
    n = 41
    slack, at = _full_grid_scan(rows[0][0], rows[0][1], np.linspace(0.0, 4.0 * math.pi, n))
    assert np.count_nonzero(slack == slack.min()) == 2 and at == 10
    # Each row stops at its own reach.
    times = np.array([np.linspace(0.0, t_max, n) for _, _, t_max in rows])
    tau_rows = np.array([row_taus for _, row_taus, _ in rows]).T
    reach = np.count_nonzero(~(times >= np.max(tau_rows, axis=0)[:, None]), axis=1)
    assert reach.min() == 1 and reach.max() == n and len(set(reach.tolist())) > 2
    blocks = {}
    for state, _, _ in rows:
        blocks.setdefault(state.level_count, []).append(state)
    got_slack, got_t = _kernels.envelope_slack_scan(
        [np.array([s.energies for s in group]) for group in blocks.values()],
        [np.array([s.populations for s in group]) for group in blocks.values()],
        *tau_rows,
        times[:, -1],
        n,
    )
    for r, (state, row_taus, _) in enumerate(rows):
        slack, at = _full_grid_scan(state, row_taus, times[r])
        assert got_slack[r].hex() == slack[at].hex(), r
        assert got_t[r].hex() == times[r, at].hex(), r


@pytest.mark.parametrize("n", [2, 3, 401, 1000])
@pytest.mark.parametrize("stacked", [True, False])
def test_grid_points_are_the_bits_of_linspace(n, stacked):
    ends = 10.0 ** np.random.default_rng(n).uniform(-3.0, 4.0, 50)
    k = np.arange(n)
    if stacked:
        # as the sweep passes them: (b,) ends, one grid a row
        got = _kernels.grid_points(ends[:, None], n, k)
        expected = np.linspace(0.0, ends, n).T
    else:
        got = np.array([_kernels.grid_points(end, n, k) for end in ends])
        expected = np.array([np.linspace(0.0, end, n) for end in ends])
    assert got.tobytes() == expected.tobytes()


@pytest.mark.parametrize("n", [2, 3, 401, 1000])
def test_grid_reach_counts_the_points_short_of_the_last_tau(n):
    rng = np.random.default_rng(n + 1)
    end = 10.0 ** rng.uniform(-3.0, 4.0, 40)
    times = np.linspace(0.0, end, n).T
    on = times[np.arange(len(end)), rng.integers(1, n, len(end))]
    step = times[:, 1]
    cases = {
        "on a point": on,
        "an ulp below a point": np.nextafter(on, 0.0),
        "an ulp above a point": np.nextafter(on, math.inf),
        "the end": end,
        "past the end": end * 1.5,
        "an ulp past the end": np.nextafter(end, math.inf),
        "below the first step": 0.5 * step,
        "an ulp below the first step": np.nextafter(step, 0.0),
        "nan": np.full(len(end), math.nan),
        "inf": np.full(len(end), math.inf),
    }
    for name, last in cases.items():
        expected = np.count_nonzero(~(times >= last[:, None]), axis=1)
        assert _kernels.grid_reach(end, n, last).tolist() == expected.tolist(), name
