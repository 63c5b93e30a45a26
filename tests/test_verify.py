import concurrent.futures
import dataclasses
import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats
from scipy.optimize import brentq

from qslkit import states as states_module
from qslkit import verify
from qslkit.cli import run_cli
from qslkit.bounds import (
    DEFAULT_P_GRID,
    DUAL_ML,
    HALF_PI,
    ML,
    bound_set,
    bounds_from_moments,
    classify_regime,
    envelope_angle,
    popoviciu,
)
from qslkit.states import (
    SpectralState,
    dual_rows,
    dual_state,
    energy_moments,
    make_qubit,
    moment_rows,
    sample_random_state,
    validate_state,
)
from qslkit.verify import (
    MAX_SCAN_POINTS,
    SweepConfig,
    a_of_q,
    falsification_sweep,
    find_orthogonalization_time,
    xi_comparison,
    xi_oracle,
)


def test_tangency_at_zero_mixing_matches_an_independent_root():
    # at q = 0 the tangency condition reduces to tan(x/2) = x
    x_star = brentq(lambda x: math.tan(x / 2.0) - x, 2.0, 2.6, xtol=1e-14)
    solution = a_of_q(0.0)
    assert solution.x_star == pytest.approx(x_star, abs=1e-10)
    assert solution.a == pytest.approx(math.sin(x_star), abs=1e-10)


def test_tangency_known_closed_point():
    q = 2.0 / math.pi
    solution = a_of_q(q)
    assert solution.a == pytest.approx(q, abs=1e-9)
    assert solution.x_star == pytest.approx(math.pi, abs=1e-9)


def test_tangency_rejects_negative_mixing():
    with pytest.raises(ValueError):
        a_of_q(-0.5)


def test_tangent_line_dominates_on_a_wide_grid():
    # a_of_q certifies domination by a > 0 and h''(x*) > 0 alone (see its
    # docstring); this is the grid check that proof replaced, with the
    # certificate's two quantities held well away from 0.
    xs = np.linspace(0.0, 4.0 * math.pi, 20001)
    sin_xs, rise = np.sin(xs), 1.0 - np.cos(xs)
    for q in [*np.linspace(0.0, 10.0, 401).tolist(), 1e-12, 50.0, 100.0]:
        solution = a_of_q(q)
        margin = solution.a * xs + q * sin_xs - rise
        assert margin.min() >= -1e-9, q
        assert solution.a > 0.636, q
        curvature = -(q * math.sin(solution.x_star) + math.cos(solution.x_star))
        assert curvature > 0.68, q


def test_xi_oracle_domain():
    # from the least normal float up to 1
    refused = r"^xi_oracle argument must lie in \[2\.2250738585072014e-308, 1\], got "
    for x in (0.0, 5e-324, 1.2, math.nan):
        with pytest.raises(ValueError, match=refused + re.escape(repr(x)) + "$"):
            xi_oracle(x)


def test_xi_oracle_keeps_its_digits_as_x_falls():
    # the limit of arccos(1 - a(0) (pi/2) x) / ((pi/2) sqrt(x)) as x -> 0
    limit = 2.0 * math.sqrt(a_of_q(0.0).a / math.pi)
    for x in (2.3e-308, 1e-300, 1e-17, 1e-12):
        assert abs(xi_oracle(x) - limit) <= 1e-12, x


def test_xi_oracle_brackets_the_linear_model():
    for x, tight, linear, delta in xi_comparison((0.05, 0.5, 1.0)):
        assert delta >= 0.0
        assert delta < 5e-4
    assert xi_oracle(1.0) == pytest.approx(1.0, abs=1e-12)


def test_tangency_slope_is_the_envelope_derivative():
    # a(q) = max_x (1 - cos x - q sin x) / x, so a'(q) = -sin(x*) / x*
    h = 1e-4
    for q in np.linspace(0.01, 9.0, 37).tolist():
        x_star = a_of_q(q).x_star
        central = (a_of_q(q + h).a - a_of_q(q - h).a) / (2.0 * h)
        assert abs(-math.sin(x_star) / x_star - central) <= 1e-7, q


def _a_table():
    grid = np.linspace(0.0, 10.0, 401)
    return grid, {q: a_of_q(q).a for q in grid.tolist()}


def _xi_slope(q, x):
    # N(q) of xi_oracle: the sign of the candidate's slope at q
    solution, k = verify.a_of_q(q), HALF_PI * x
    return k * (1.0 + q * q) * math.sin(solution.x_star) / solution.x_star - q * (
        1.0 - solution.a * k
    )


def test_the_premises_of_the_xi_maximum_proof_hold():
    # a(q) is convex, so the slope root xi_oracle brackets is the maximum
    grid, a = _a_table()
    a = np.array([a[q] for q in grid.tolist()])
    for step in range(1, 200):
        midpoint = a[step:-step]
        chord = 0.5 * (a[: -2 * step] + a[2 * step :])
        assert (midpoint <= chord + 1e-12).all(), step
    # the root lies inside [0, 10]
    for x in [*verify.XI_GRID, 2.2250738585072014e-308, 1e-12]:
        assert _xi_slope(0.0, x) > 0.0 > _xi_slope(10.0, x), x


@pytest.mark.parametrize(
    "x, refusal",
    [
        # a + 10 leaves a root at which C = -0.0021 at x = 0.06, and at
        # x = 0.5 a slope still positive at q = 10
        (0.06, r"^maximum of xi_oracle\(0\.06\) unproved: C\(q\*=.*\) = -0\.002\d* is below 0$"),
        (0.5, r"^q maximizer of xi_oracle\(0\.5\) hit the search range \[0, 10\.0\]$"),
    ],
)
def test_xi_oracle_refuses_a_maximum_it_cannot_prove(monkeypatch, x, refusal):
    real_a_of_q = a_of_q

    def raised(q):
        solution = real_a_of_q(q)
        return dataclasses.replace(solution, a=solution.a + 10.0)

    monkeypatch.setattr(verify, "a_of_q", raised)
    with pytest.raises(RuntimeError, match=refusal):
        xi_oracle(x)


_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
_INV_PHI2 = (3.0 - math.sqrt(5.0)) / 2.0


def _golden_max(func, lo, hi, tol=1e-10):
    # Reference maximizer: golden-section search on the candidate itself.
    h = hi - lo
    c = lo + _INV_PHI2 * h
    d = lo + _INV_PHI * h
    yc, yd = func(c), func(d)
    while h > tol:
        if yc > yd:
            hi, d, yd = d, c, yc
            h *= _INV_PHI
            c = lo + _INV_PHI2 * h
            yc = func(c)
        else:
            lo, c, yc = c, d, yd
            h *= _INV_PHI
            d = lo + _INV_PHI * h
            yd = func(d)
    return 0.5 * (lo + hi)


def test_xi_oracle_matches_a_golden_section_maximizer():
    grid, a = _a_table()

    def a_value(q):
        if q not in a:
            a[q] = a_of_q(q).a
        return a[q]

    for x in verify.XI_GRID:
        def candidate(q):
            return (1.0 - a_value(q) * HALF_PI * x) / math.sqrt(1.0 + q * q)

        best = int(np.argmax([candidate(q) for q in grid.tolist()]))
        q_star = _golden_max(
            candidate, float(grid[max(best - 1, 0)]), float(grid[min(best + 1, 400)])
        )
        f = min(max(candidate(q_star), 0.0), 1.0)
        reference = math.acos(f) / (HALF_PI * math.sqrt(x))
        assert abs(xi_oracle(x) - reference) <= 1e-12, x


def test_xi_comparison_solves_few_tangencies_and_keeps_no_state(monkeypatch):
    solves = []

    def counted(q):
        solves.append(q)
        return a_of_q(q)

    monkeypatch.setattr(verify, "a_of_q", counted)
    rows = xi_comparison()
    # the two ends of [0, 10] and a few regula falsi steps per x, with no
    # solve remembered from an earlier call
    first = len(solves)
    assert 2 * len(rows) < first <= 250
    # a second run pays the same solves and gives the same bits
    assert [[v.hex() for v in row] for row in xi_comparison()] == [
        [v.hex() for v in row] for row in rows
    ]
    assert len(solves) == 2 * first


def test_orthogonalization_of_the_balanced_qubit():
    t = find_orthogonalization_time(make_qubit(0.5, 1.0))
    assert t == pytest.approx(math.pi, abs=1e-9)


def test_unbalanced_qubit_never_orthogonalizes():
    assert find_orthogonalization_time(make_qubit(0.2, 1.0)) is None


def test_the_finder_returns_a_minimum_below_tol_not_the_first_crossing(capsys):
    # |f(t)|^2 = 0.58 + 0.42 cos(t) for populations (0.7, 0.3) on (0, 1):
    # |f| drops below 0.5 at t = arccos(-0.33 / 0.42) ~ 2.4746, but the
    # finder returns its earliest refined local minimum, |f(pi)| = 0.4.
    state = make_qubit(0.3, 1.0)
    crossing = math.acos(-0.33 / 0.42)
    assert crossing == pytest.approx(2.4746, abs=1e-4)
    assert states_module.overlap(state, crossing + 1e-6).magnitude < 0.5
    t = find_orthogonalization_time(state, tol=0.5)
    assert t == pytest.approx(math.pi, abs=1e-9)
    assert states_module.overlap(state, t).magnitude == pytest.approx(0.4, abs=1e-12)
    assert run_cli(["ortho", "--qubit-p1", "0.3", "--tol", "0.5"]) == 0
    assert '"t_perp": 3.1415926535897931,' in capsys.readouterr().out


def test_equal_weight_qutrit_orthogonalizes_at_the_known_time():
    third = 1.0 / 3.0
    state = validate_state([(0.0, third), (0.5, third), (1.0, third)])
    t = find_orthogonalization_time(state)
    assert t == pytest.approx(4.0 * math.pi / 3.0, abs=1e-9)


def test_stationary_state_returns_none():
    assert find_orthogonalization_time(validate_state([(0.4, 1.0)])) is None


def _one_row_slack(state, t_max, steps):
    """Least envelope slack of one state on np.linspace(0, t_max, steps),
    from the one-row envelope_slack_scan."""
    b = bound_set(state, p_grid=())
    taus = (np.array([tau]) for tau in (b.tau_mt, b.tau_ml, b.tau_ml_dual))
    slack, _ = verify._kernels.envelope_slack_scan(
        [state.energies[None]], [state.populations[None]], *taus, np.array([t_max]), steps
    )
    return float(slack[0])


def test_envelope_slack_of_the_balanced_qubit_is_nonnegative():
    assert _one_row_slack(make_qubit(0.5, 1.0), math.pi, 2000) >= -1e-12


def test_sweep_is_deterministic():
    config = SweepConfig(samples=60, seed=7)
    assert falsification_sweep(config) == falsification_sweep(config)


def test_sweep_is_partition_independent():
    serial = falsification_sweep(SweepConfig(samples=48, seed=3, workers=1))
    parallel = falsification_sweep(SweepConfig(samples=48, seed=3, workers=3))
    assert serial == parallel


def test_sweep_reports_its_inputs():
    report = falsification_sweep(SweepConfig(samples=40, seed=11))
    assert report.samples == 40
    assert report.seed == 11
    assert report.violations == ()
    assert report.worst_slack_rad >= -1e-3
    payload = report.to_dict()
    assert set(payload) == {
        "samples",
        "worst_slack_rad",
        "violations",
        "ortho_checks",
        "seed",
    }


def test_sweep_rejects_bad_config():
    with pytest.raises(ValueError):
        falsification_sweep(SweepConfig(samples=0))
    with pytest.raises(ValueError):
        falsification_sweep(SweepConfig(level_min=5, level_max=3))
    with pytest.raises(ValueError):
        falsification_sweep(SweepConfig(workers=0))
    for steps in (1, 0, MAX_SCAN_POINTS + 1):
        with pytest.raises(ValueError, match=r"\btime_steps\b"):
            falsification_sweep(SweepConfig(samples=1, time_steps=steps))


def test_sweep_starts_no_more_workers_than_samples(monkeypatch):
    started = []
    ranges = []

    class RecordingPool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            return False

        def map(self, func, *iterables):
            jobs = list(zip(*iterables))
            ranges.extend((lo, hi) for _, lo, hi in jobs)
            return itertools.starmap(func, jobs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    clamped = falsification_sweep(SweepConfig(samples=2, seed=4, workers=8))
    assert started == [2]
    assert ranges == [(0, 1), (1, 2)]
    assert clamped == falsification_sweep(SweepConfig(samples=2, seed=4))


def _row(stacked, r):
    """Entry r of every array field of a stacked dataclass, as floats."""

    def pick(value):
        if isinstance(value, tuple):
            return tuple(pick(v) for v in value)
        if isinstance(value, np.ndarray):
            return float(value[r])
        return value

    return type(stacked)(
        **{f.name: pick(getattr(stacked, f.name)) for f in dataclasses.fields(stacked)}
    )


def _sampled_states(config, lo, hi):
    """The sweep's states of indices [lo, hi), in index order, from the
    rows _sample_range returns: sorted by (level count, index), zeros past
    each state's levels."""
    index, levels, energies, populations = verify._sample_range(config, lo, hi)
    assert sorted(index.tolist()) == list(range(lo, hi))
    assert np.lexsort((index, levels)).tolist() == list(range(hi - lo))
    states = {}
    for i, count, e, w in zip(index.tolist(), levels.tolist(), energies, populations):
        assert not e[count:].any() and not w[count:].any()
        states[i] = SpectralState(energies=e[:count], populations=w[:count])
    return [states[i] for i in range(lo, hi)]


def _padded(states):
    """(level counts, energies, populations) of states, zero-padded rows."""
    levels = np.array([s.level_count for s in states])
    energies = np.zeros((len(states), levels.max()))
    populations = np.zeros((len(states), levels.max()))
    for r, s in enumerate(states):
        energies[r, : s.level_count] = s.energies
        populations[r, : s.level_count] = s.populations
    return levels, energies, populations


def _blocks_of(states):
    """(energies, populations) blocks of runs of states of one level count."""
    blocks = []
    for _, run in itertools.groupby(states, key=lambda s: s.level_count):
        run = list(run)
        blocks.append(
            (np.array([s.energies for s in run]), np.array([s.populations for s in run]))
        )
    return blocks


def test_stacked_bounds_match_the_single_state_bounds_bitwise():
    # 2400 sweep states of 1 to 8 levels, stacked by level count as the
    # sweep stacks them; repr round-trips every float exactly.
    config = SweepConfig(seed=21, level_min=1, level_max=8)
    by_level = {}
    for state in _sampled_states(config, 0, 2400):
        by_level.setdefault(state.level_count, []).append(state)
    checked = 0
    for states in by_level.values():
        energies = np.array([s.energies for s in states])
        populations = np.array([s.populations for s in states])
        moments = moment_rows(energies, populations, DEFAULT_P_GRID)
        bounds = bounds_from_moments(moments)
        dual_moments = moment_rows(*dual_rows(energies, populations))
        mirrored = bounds_from_moments(dual_moments)
        ceilings, saturated = popoviciu(moments)
        for r, state in enumerate(states):
            dual = dual_state(state)
            single = energy_moments(state, DEFAULT_P_GRID)
            assert repr(_row(moments, r)) == repr(single)
            assert repr(_row(bounds, r)) == repr(bound_set(state))
            assert repr(_row(dual_moments, r)) == repr(energy_moments(dual))
            assert repr(_row(mirrored, r)) == repr(bound_set(dual, p_grid=()))
            assert repr((float(ceilings[r]), bool(saturated[r]))) == repr(popoviciu(single))
            checked += 1
    assert checked == 2400


def _orthogonalizing_states(rng):
    """Balanced qubits, symmetric trios and equal-weight ladders."""
    for _ in range(60):
        offset, gap = rng.uniform(-2.0, 2.0), rng.uniform(0.25, 4.0)
        yield validate_state([(offset, 0.5), (offset + gap, 0.5)])
        a = rng.uniform(0.26, 0.49)
        yield validate_state([(0.0, a), (1.0, 1.0 - 2.0 * a), (2.0, a)])
        n, spacing = int(rng.integers(2, 9)), rng.uniform(0.25, 4.0)
        yield validate_state([(k * spacing, 1.0 / n) for k in range(n)])


def test_stacked_finder_rows_match_the_single_state_finder(monkeypatch):
    # One call on 401 points holds every level count: the states that
    # orthogonalize and 2000 sweep states that do not, on which the chord
    # certificate skips refinements.  The one-state finder never skips.
    states = list(_orthogonalizing_states(np.random.default_rng(8)))
    states += _sampled_states(SweepConfig(), 0, 2000)
    states.sort(key=lambda s: s.level_count)
    refine_calls = bracketed = 0
    real_refine, real_scan = verify._kernels.refine_min_magnitudes, verify._scan_brackets

    def counted_refine(*args):
        nonlocal refine_calls
        refine_calls += 1
        return real_refine(*args)

    def counted_scan(*args):
        nonlocal bracketed
        rows, k = real_scan(*args)
        bracketed += len(np.unique(rows))
        return rows, k

    monkeypatch.setattr(verify._kernels, "refine_min_magnitudes", counted_refine)
    monkeypatch.setattr(verify, "_scan_brackets", counted_scan)
    blocks = _blocks_of(states)
    zeros = verify._first_zeros(
        blocks,
        np.array([energy_moments(s).mean for s in states]),
        np.array([energy_moments(s).sigma for s in states]),
        np.array([20.0 * (math.pi / (s.emax - s.e0)) for s in states]),
        401,
        1e-9,
    )
    monkeypatch.undo()
    assert [e.shape[1] for e, _ in blocks] == list(range(2, 9))
    found = 0
    for state, t in zip(states, zeros):
        assert repr(t) == repr(find_orthogonalization_time(state))
        found += t is not None
    assert found == 180
    assert found <= refine_calls < bracketed


def _counted_first_zeros(monkeypatch):
    """Record (rows, points) of every verify._first_zeros call."""
    calls = []
    real = verify._first_zeros

    def counted(blocks, mean, sigma, t_max, n, tol):
        calls.append((len(t_max), n))
        return real(blocks, mean, sigma, t_max, n, tol)

    monkeypatch.setattr(verify, "_first_zeros", counted)
    return calls


# 20 tau_bw / (tau_bw / 20) rounds to 400.00000000000006 intervals here, so
# a scan sized per state from the rounded quotient would take 402 points.
_WITNESS_402 = validate_state([(0.0, 0.5), (0.9, 0.5)])


def test_the_default_finder_scans_401_points_for_every_state(monkeypatch):
    tau_bw = math.pi / 0.9
    assert verify._scan_points(tau_bw, 20.0 * tau_bw) == 402
    calls = _counted_first_zeros(monkeypatch)
    t = find_orthogonalization_time(_WITNESS_402)
    assert calls == [(1, 401)]
    assert t == pytest.approx(math.pi / 0.9, abs=1e-9)


@pytest.mark.parametrize("factor", [20.0, 3.0, 0.5])
def test_a_sweep_window_runs_the_finder_once_on_one_grid_size(monkeypatch, factor):
    # 31 states of every level count from 2 to 8, each with a zero within
    # 3 tau_bw, in one window: one _first_zeros call on ceil(20 factor) + 1
    # points holds them all.
    rng = np.random.default_rng(5)
    states = [_WITNESS_402, *itertools.islice(_orthogonalizing_states(rng), 30)]
    states.sort(key=lambda s: s.level_count)
    monkeypatch.setattr(
        verify, "_sample_range", lambda config, lo, hi: (np.arange(lo, hi), *_padded(states[lo:hi]))
    )
    calls = _counted_first_zeros(monkeypatch)
    report = falsification_sweep(
        SweepConfig(samples=len(states), level_min=2, level_max=8, t_max_factor=factor)
    )
    assert calls == [(len(states), math.ceil(20.0 * factor) + 1)]
    assert report.ortho_checks == (len(states) if factor >= 3.0 else 0)


def test_the_largest_horizon_factor_scans_the_largest_grid():
    most = (MAX_SCAN_POINTS - 1) / 20.0
    assert verify._factor_points(most) == MAX_SCAN_POINTS
    with pytest.raises(ValueError, match=r"^t_max_factor\b"):
        falsification_sweep(SweepConfig(t_max_factor=float(np.nextafter(most, math.inf))))


def test_the_ml_witnesses_orthogonalize_at_pi_over_delta():
    # (0, 1/2), (delta, 1/2 - eta), (k delta, eta) with k odd has
    # f(pi / delta) = eta (1 + exp(-i pi k)) = 0, its first zero on this
    # grid of (eta, k, delta); its mirror has the same |f|.
    for eta, k, delta in itertools.product((0.02, 0.05, 0.1, 0.2), (3, 5, 9), (0.5, 1.0, 3.0)):
        state = validate_state([(0.0, 0.5), (delta, 0.5 - eta), (k * delta, eta)])
        for witness, regime in ((state, ML), (dual_state(state), DUAL_ML)):
            assert classify_regime(energy_moments(witness)).regime == regime
            t = find_orthogonalization_time(witness)
            assert t == pytest.approx(math.pi / delta, abs=1e-9), (eta, k, delta)


def _states_with_known_zeros(rng, count):
    """Balanced qubits, symmetric trios and equal-weight ladders, each with
    every zero of |f| up to 20 tau_bw in closed form."""
    for _ in range(count):
        offset, gap = rng.uniform(-2.0, 2.0), rng.uniform(0.25, 4.0)
        state = validate_state([(offset, 0.5), (offset + gap, 0.5)])
        t_max = 20.0 * math.pi / gap
        yield state, [(2 * m + 1) * math.pi / gap for m in range(int(t_max * gap / math.pi) + 1)]
        a = rng.uniform(0.26, 0.49)
        state = validate_state([(0.0, a), (1.0, 1.0 - 2.0 * a), (2.0, a)])
        first = math.acos((2.0 * a - 1.0) / (2.0 * a))
        yield state, [2.0 * math.pi * m + sign * first for m in range(8) for sign in (1.0, -1.0)]
        n, spacing = int(rng.integers(2, 9)), rng.uniform(0.25, 4.0)
        state = validate_state([(k * spacing, 1.0 / n) for k in range(n)])
        first = 2.0 * math.pi / (n * spacing)
        yield state, [j * first for j in range(1, 20 * n) if j % n]


def test_chord_floors_hold_on_a_dense_grid_and_keep_every_zero():
    # The sweep skips a state's refinement when every bracket of its scan
    # has a chord floor >= tol.  No magnitude in a bracket, evaluated at
    # steps of 1e-4 h, may fall below its floor, and no bracket around a
    # known zero may reach tol.
    config = SweepConfig()
    cases = [(state, []) for state in _sampled_states(config, 0, 2000)]
    cases += list(_states_with_known_zeros(np.random.default_rng(11), 40))
    groups = {}
    for state, zeros in cases:
        if state.level_count > 1:
            tau_bw = math.pi / (state.emax - state.e0)
            n = verify._scan_points(tau_bw, 20.0 * tau_bw)
            groups.setdefault((state.level_count, n), []).append((state, zeros))
    checked = certified = kept_zeros = 0
    for (_, n), group in groups.items():
        energies = np.array([state.energies for state, _ in group])
        populations = np.array([state.populations for state, _ in group])
        moments = moment_rows(energies, populations)
        t_max = 20.0 * math.pi / moments.bandwidth
        times = np.linspace(0.0, t_max, n).T
        values = verify._kernels.grid_overlap(energies, populations, t_max, n)
        rows, k = verify._scan_brackets(
            np.abs(values), moments.sigma, t_max, config.ortho_tol
        )
        floors = verify._chord_floors(
            values,
            np.full(len(group), energies.shape[1]),
            np.abs(energies).max(axis=-1),
            moments.mean,
            moments.sigma,
            t_max,
            rows,
            k,
        )
        for r, k_r, floor in zip(rows.tolist(), k.tolist(), floors.tolist()):
            lo, hi = times[r, k_r - 1], times[r, min(k_r + 1, n - 1)]
            for z in group[r][1]:
                if lo <= z <= hi:
                    assert floor < config.ortho_tol, (group[r][0].levels, z)
                    kept_zeros += 1
            if floor <= 0.0:
                continue
            h = t_max[r] / (n - 1)
            dense = np.linspace(lo, hi, int(round((hi - lo) / (1e-4 * h))) + 1)
            mags = verify._kernels.overlap_magnitudes(
                energies[r], populations[r], dense
            )
            assert mags.min() >= floor, (group[r][0].levels, k_r)
            checked += 1
            certified += floor >= config.ortho_tol
    assert checked > 1000 and certified > 1000
    assert kept_zeros > 1000


# Envelope violations and single-level states both occur in this range.
_SPLIT_CONFIG = SweepConfig(seed=9, level_min=1, level_max=8, slack_tolerance=1e-6)
_SPLIT_SAMPLES = 40


@settings(max_examples=15, deadline=None)
@given(st.sets(st.integers(1, _SPLIT_SAMPLES - 1)).map(sorted))
@example(list(range(1, _SPLIT_SAMPLES)))
def test_sweep_range_does_not_depend_on_how_the_range_is_split(cuts):
    whole = verify._sweep_range(_SPLIT_CONFIG, 0, _SPLIT_SAMPLES)
    edges = [0, *cuts, _SPLIT_SAMPLES]
    parts = [verify._sweep_range(_SPLIT_CONFIG, lo, hi) for lo, hi in zip(edges, edges[1:])]
    joined = (
        min(worst for worst, _, _ in parts),
        [v for _, violations, _ in parts for v in violations],
        sum(ortho for _, _, ortho in parts),
    )
    assert repr(joined) == repr(whole)
    assert any(v.check == "envelope" for v in whole[1])


@pytest.mark.parametrize("chunk", [1, 7, 40])
def test_sweep_range_does_not_depend_on_its_chunk_size(monkeypatch, chunk):
    whole = verify._sweep_range(_SPLIT_CONFIG, 0, _SPLIT_SAMPLES)
    # max(1, _BATCH_POINTS // (2 level_max)) states a chunk
    monkeypatch.setattr(verify, "_BATCH_POINTS", 2 * _SPLIT_CONFIG.level_max * chunk)
    assert repr(verify._sweep_range(_SPLIT_CONFIG, 0, _SPLIT_SAMPLES)) == repr(whole)


@pytest.mark.parametrize(
    "config",
    [_SPLIT_CONFIG, SweepConfig(seed=4, level_min=1, level_max=6, ortho_tol=0.3)],
)
def test_sweep_range_does_not_depend_on_how_a_window_mixes_level_counts(
    monkeypatch, config
):
    # Windows of 1 state each, of 3 and of the whole range (40 states of
    # every level count from 1 up).  In the second range 26 states
    # orthogonalize, with 20 ortho_* violations, so joined finder scans
    # are refined too.
    joined_zeros = []
    real_first_zeros = verify._first_zeros

    def counted(blocks, mean, sigma, t_max, n, tol):
        zeros = real_first_zeros(blocks, mean, sigma, t_max, n, tol)
        if len(t_max) > 1:
            joined_zeros.append(sum(t is not None for t in zeros))
        return zeros

    monkeypatch.setattr(verify, "_first_zeros", counted)
    results = []
    for states in (1, 3, 65):
        monkeypatch.setattr(verify, "_BATCH_POINTS", states * config.time_steps)
        results.append(repr(verify._sweep_range(config, 0, _SPLIT_SAMPLES)))
    assert results[1] == results[0] and results[2] == results[0]
    _, levels, _, _ = verify._sample_range(config, 0, _SPLIT_SAMPLES)
    assert set(levels.tolist()) == set(range(1, config.level_max + 1))
    _, violations, ortho = verify._sweep_range(config, 0, _SPLIT_SAMPLES)
    ortho_violations = sum(v.check.startswith("ortho") for v in violations)
    if config == _SPLIT_CONFIG:
        assert (ortho, ortho_violations) == (0, 0)
    else:
        assert (ortho, ortho_violations) == (26, 20)
        assert max(joined_zeros) > 1


def _reference_state(config, index):
    """A sweep state as the (seed, index) contract defines it, in integer
    arithmetic: index i's S = ceil(level_max / 2) counter blocks of the
    Philox stream keyed by the seed, drawn alone, its populations the
    spacings (k_(j+1) - k_j) 2**-53 of its sorted cuts k_j 2**-53 between
    0 and 1."""
    blocks = math.ceil(config.level_max / 2)
    stream = np.random.Philox(np.random.SeedSequence(config.seed))
    stream.advance(index * blocks)
    words = [w >> 11 for w in stream.random_raw(4 * blocks).tolist()]
    levels = config.level_min + (words[0] * (config.level_max - config.level_min + 1) >> 53)
    energies = sorted(k * 2.0**-53 * config.emax for k in words[1 : levels + 1])
    cuts = [0, *sorted(words[config.level_max + 1 : config.level_max + levels]), 2**53]
    return validate_state(zip(energies, [(b - a) * 2.0**-53 for a, b in zip(cuts, cuts[1:])]))


@pytest.mark.parametrize(
    "config, lo",
    [
        (SweepConfig(level_min=1, level_max=1), 0),
        (SweepConfig(seed=2**70 + 5, level_min=1, level_max=12), 1000),
        (SweepConfig(seed=7, level_min=2, level_max=8, emax=3.0), 0),
        # past numpy's 128-element block of pairwise sums
        (SweepConfig(seed=12, level_min=120, level_max=300), 0),
        # most states have levels that merge, so validate_state takes them
        (SweepConfig(seed=3, level_min=1, level_max=12, emax=1e-11), 0),
        (SweepConfig(seed=6, level_min=1, level_max=1024), 0),
    ],
)
def test_sample_range_equals_the_per_index_contract(config, lo):
    states = _sampled_states(config, lo, lo + 3000)
    for index, state in enumerate(states, lo):
        want = _reference_state(config, index)
        assert state.energies.tobytes() == want.energies.tobytes(), index
        assert state.populations.tobytes() == want.populations.tobytes(), index
        assert math.fsum(state.populations) == 1.0, index
    assert repr(_sampled_states(config, lo + 17, lo + 18)[0]) == repr(states[17])


def test_sweep_states_are_uniform_in_energy_and_flat_on_the_simplex():
    # 10^5 sweep states of 1 to 6 levels, against 10^5 states of the same
    # level counts from sample_random_state: level counts uniform,
    # energies uniform on [0, emax], and the population of the lowest
    # level Beta(1, L - 1), as on a flat simplex.  Fixed seeds, so the
    # p-value bounds hold or fail for good.
    config = SweepConfig(seed=31, level_min=1, level_max=6, emax=2.0)
    _, levels, energies, populations = verify._sample_range(config, 0, 100_000)
    rng = np.random.default_rng(32)
    reference = [sample_random_state(count, config.emax, rng) for count in levels.tolist()]
    assert [s.level_count for s in reference] == levels.tolist()

    tally = np.bincount(levels, minlength=7)[1:]
    assert stats.chisquare(tally).pvalue > 1e-3
    assert np.all(np.abs(tally - 100_000 / 6) < 5.0 * math.sqrt(100_000 / 6))

    drawn = energies[np.arange(energies.shape[1]) < levels[:, None]]
    assert drawn.min() >= 0.0 and drawn.max() < config.emax
    assert stats.kstest(drawn, stats.uniform(0.0, config.emax).cdf).pvalue > 1e-3
    assert stats.ks_2samp(drawn, np.concatenate([s.energies for s in reference])).pvalue > 1e-3
    spread = config.emax / math.sqrt(12.0)
    assert abs(drawn.mean() - config.emax / 2.0) < 5.0 * spread / math.sqrt(drawn.size)
    assert abs(drawn.std() / spread - 1.0) < 0.01

    for count in range(2, 7):
        rows = levels == count
        lowest = populations[rows, 0]
        want = np.array([s.populations[0] for s in reference if s.level_count == count])
        assert stats.kstest(lowest, stats.beta(1, count - 1).cdf).pvalue > 1e-3, count
        assert stats.ks_2samp(lowest, want).pvalue > 1e-3, count
        # E[w^2] = 2 / (L (L + 1)) on the flat simplex; the rows sum to one
        squares = (populations[rows, :count] ** 2).mean(axis=0)
        assert np.allclose(squares, 2.0 / (count * (count + 1)), rtol=0.05), count
        assert np.allclose(populations[rows].sum(axis=1), 1.0, rtol=0.0, atol=1e-15)


@pytest.mark.parametrize(
    "config",
    [
        SweepConfig(seed=2**70 + 5, level_min=1, level_max=12),
        # 32 states a sweep chunk, so some ranges cross chunks
        SweepConfig(seed=6, level_min=1, level_max=1024),
    ],
)
def test_a_state_does_not_depend_on_the_range_it_is_drawn_in(config):
    whole = _sampled_states(config, 0, 100)
    for lo, hi in [(37, 100), (37, 38), (31, 62), (99, 100), (0, 1)]:
        for got, want in zip(_sampled_states(config, lo, hi), whole[lo:hi]):
            assert got.energies.tobytes() == want.energies.tobytes(), (lo, hi)
            assert got.populations.tobytes() == want.populations.tobytes(), (lo, hi)


def test_a_worker_that_starts_mid_chunk_sees_the_serial_states(monkeypatch):
    # Chunks of 32 from 0 in the serial sweep; the second worker's range
    # starts at 35, inside the serial sweep's second chunk.
    config = SweepConfig(samples=70, seed=8, level_min=1, level_max=8, slack_tolerance=1e-6)
    monkeypatch.setattr(verify, "_BATCH_POINTS", 2 * config.level_max * 32)
    serial = falsification_sweep(config)
    assert serial.violations
    assert falsification_sweep(dataclasses.replace(config, workers=2)) == serial


@pytest.mark.parametrize("seed", [-1, -(2**70), 1.5, 42.0, "42", True, None])
def test_sweep_refuses_a_bad_seed_before_sampling(monkeypatch, seed):
    def no_sampling(*args):
        raise AssertionError("a state was sampled")

    monkeypatch.setattr(verify, "_sample_range", no_sampling)
    with pytest.raises(ValueError, match=r"\bseed\b"):
        falsification_sweep(SweepConfig(samples=5, seed=seed))


def test_a_default_sweep_builds_no_seed_sequence_per_state(monkeypatch):
    calls = {"SeedSequence": 0, "Philox": 0, "PCG64": 0, "default_rng": 0, "validate_state": 0}

    def counted(name, real):
        def call(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        return call

    for name in ("SeedSequence", "Philox", "PCG64", "default_rng"):
        monkeypatch.setattr(np.random, name, counted(name, getattr(np.random, name)))
    for module in (verify, states_module):
        monkeypatch.setattr(module, "validate_state", counted("validate_state", validate_state))
    falsification_sweep(SweepConfig(samples=3000))
    # one seeding and one stream per chunk (4096 states at 8 levels); every
    # state is drawn into a block and canonicalized there
    assert calls == {
        "SeedSequence": 1, "Philox": 1, "PCG64": 0, "default_rng": 0, "validate_state": 0
    }


@pytest.mark.parametrize("ortho_tol, found", [(1e-9, False), (0.2, True)])
def test_the_lp_ladder_is_formed_only_where_a_zero_was_found(
    monkeypatch, ortho_tol, found
):
    ladder_rows = []
    real_moment_rows = verify.moment_rows

    def counted(energies, populations, p_list=()):
        if len(p_list):
            ladder_rows.append(len(energies))
        return real_moment_rows(energies, populations, p_list)

    monkeypatch.setattr(verify, "moment_rows", counted)
    report = falsification_sweep(SweepConfig(samples=3000, ortho_tol=ortho_tol))
    assert sum(ladder_rows) == report.ortho_checks
    assert (report.ortho_checks > 0) == found
    assert any(v.check == "ortho_vs_lp" for v in report.violations) == found


def test_one_row_envelope_scan_equals_a_full_grid_evaluation():
    # The scan stops after the last point short of its taus, yet its
    # minimum is the bits of the envelope minus arccos|f| at every point.
    for index, state in enumerate(_sampled_states(SweepConfig(), 0, 200)):
        t_max = 20.0 * bound_set(state, p_grid=()).tau_bw
        times = np.linspace(0.0, t_max, 1000)
        mags = np.abs(verify._kernels.grid_overlap(state.energies, state.populations, t_max, 1000))
        full = envelope_angle(state, times) - np.arccos(np.minimum(mags, 1.0))
        assert repr(_one_row_slack(state, t_max, 1000)) == repr(float(full.min())), index


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("t_max", [1e-321, 2e-323, 5e-324])
def test_envelope_scan_on_a_grid_whose_step_underflows(t_max):
    # t_max / 999 rounds to 0: np.linspace then spreads its points by
    # another formula, and a reach formed as last_tau / step would divide
    # by zero.  |f| is 1 on such a grid and the slack least at t = 0.
    state = validate_state([(0.0, 0.5), (1.0, 0.3), (2.0, 0.2)])
    assert _one_row_slack(state, t_max, 1000) == 0.0


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("t_max", [5e-324, 1e-323])
def test_the_finder_on_a_grid_whose_step_underflows(t_max):
    assert find_orthogonalization_time(validate_state([(0.0, 0.5), (1.0, 0.5)]), t_max) is None


def test_sweep_envelope_slack_is_the_one_row_scan_of_each_state():
    # A state's slack in a window of stacked rows is the one-row scan's.
    config = SweepConfig(level_min=1, level_max=8)
    states = sorted(_sampled_states(config, 0, 2000), key=lambda s: s.level_count)
    per_window = verify._BATCH_POINTS // config.time_steps
    checked = 0
    for first in range(0, len(states), per_window):
        window = states[first : first + per_window]
        t_max = [
            config.t_max_factor * (math.pi / (s.emax - s.e0)) if s.level_count > 1 else math.nan
            for s in window
        ]
        slack, _, _ = verify._check_window(config, *_padded(window), np.array(t_max), 401)
        for state, horizon, got in zip(window, t_max, slack):
            if state.level_count > 1:
                expected = _one_row_slack(state, horizon, config.time_steps)
                assert repr(got) == repr(expected), state.levels
                checked += 1
    assert checked == 1726


# Balanced qubits (0, 1/2), (E, 1/2): every tau of the family, L^p ones
# included, is pi / E, the first zero of |f| is t = pi / E, the spread
# sits on its Popoviciu ceiling E / 2 and the mirror is the state itself,
# so no check fails until one of the inputs the sweep reads is skewed.
# Per state: its band E and the skews applied to it.
_SKEWED_QUBITS = [
    (1.0, ()),
    (2.0, ("ceiling",)),
    (1.0, ("saturation",)),
    (4.0, ("qsl_low",)),
    (2.0, ("mirror",)),
    (1.0, ("envelope",)),
    (2.0, ("qsl_high",)),
    (1.0, ("lp_high",)),
    (2.0, ("ceiling", "saturation", "mirror", "envelope", "qsl_high", "lp_high")),
    (1.0, ("saturation", "qsl_low", "mirror", "envelope", "lp_high")),
]


def _expected_violations(gap, skews):
    """The checks a skewed balanced qubit fails, in report order."""
    t = math.pi / gap
    sigma = gap / 2.0
    ceiling = sigma / 2.0 if "ceiling" in skews else sigma
    qsl = {"qsl_low": 0.5, "qsl_high": 2.0}
    factor = next((qsl[s] for s in skews if s in qsl), 1.0)
    out = []
    if "ceiling" in skews:
        out.append(("popoviciu", None, ceiling - sigma))
    if "saturation" in skews:
        out.append(("popoviciu_saturation", None, sigma - ceiling))
    if factor < 1.0:
        out.append(("qsl_vs_bandwidth", None, factor * t - t))
    if "mirror" in skews:
        # gaps pi / (2 tau): the mirror's are doubled, the MT/ML ones of
        # both sides scaled by 1 / factor, the bandwidth ones not
        out.append(("duality_swap", None, max(gap / (2.0 * factor), gap / 2.0)))
    if "envelope" in skews:
        out.append(("envelope", 0.5, -0.25))
    if factor > 1.0:
        out.append(("ortho_vs_qsl", t, t - factor * t))
    if "lp_high" in skews:
        out += [("ortho_vs_lp", t, t - 4.0 * t)] * (2 * len(DEFAULT_P_GRID))
    return out


def test_every_check_of_the_sweep_reports_its_failures(monkeypatch):
    states = [make_qubit(0.5, gap) for gap, _ in _SKEWED_QUBITS]
    # The L^p ladder is formed only for the rows whose finder found a
    # zero, in index order (one level count, one window).
    found = np.flatnonzero([find_orthogonalization_time(s) is not None for s in states])

    def rows(skew, picked=slice(None)):
        return np.array([skew in skews for _, skews in _SKEWED_QUBITS])[picked]

    real_popoviciu = verify.popoviciu
    real_bounds = verify.bounds_from_moments
    real_dual_rows = verify.dual_rows

    def skewed_popoviciu(moments):
        ceiling, saturated = real_popoviciu(moments)
        return np.where(rows("ceiling"), ceiling / 2.0, ceiling), saturated ^ rows("saturation")

    def skewed_bounds(moments):
        picked = found if moments.lp else slice(None)
        b = real_bounds(moments)
        factor = np.where(
            rows("qsl_low", picked), 0.5, np.where(rows("qsl_high", picked), 2.0, 1.0)
        )
        lp = np.where(rows("lp_high", picked), 4.0, 1.0)
        mt, ml, dual = b.tau_mt * factor, b.tau_ml * factor, b.tau_ml_dual * factor
        return dataclasses.replace(
            b,
            tau_mt=mt,
            tau_ml=ml,
            tau_ml_dual=dual,
            tau_qsl=np.maximum(np.maximum(mt, ml), dual),
            tau_ml_p=tuple((p, tau * lp) for p, tau in b.tau_ml_p),
            tau_ml_dual_p=tuple((p, tau * lp) for p, tau in b.tau_ml_dual_p),
        )

    def skewed_dual_rows(energies, populations):
        mirrored, weights = real_dual_rows(energies, populations)
        return mirrored * np.where(rows("mirror"), 2.0, 1.0)[:, None], weights

    def skewed_envelope_scan(energies, populations, tau_mt, tau_ml, tau_ml_dual, end, n):
        assert len(end) == len(states)  # one window, in index order
        return np.where(rows("envelope"), -0.25, 0.0), np.full(len(states), 0.5)

    monkeypatch.setattr(
        verify, "_sample_range", lambda config, lo, hi: (np.arange(lo, hi), *_padded(states[lo:hi]))
    )
    monkeypatch.setattr(verify, "popoviciu", skewed_popoviciu)
    monkeypatch.setattr(verify, "bounds_from_moments", skewed_bounds)
    monkeypatch.setattr(verify, "dual_rows", skewed_dual_rows)
    monkeypatch.setattr(verify._kernels, "envelope_slack_scan", skewed_envelope_scan)
    report = falsification_sweep(
        SweepConfig(samples=len(states), level_min=2, level_max=2)
    )

    expected = [
        (check, state.levels, t, slack)
        for state, (gap, skews) in zip(states, _SKEWED_QUBITS)
        for check, t, slack in _expected_violations(gap, skews)
    ]
    got = [(v.check, v.state, v.t, v.slack) for v in report.violations]
    assert [g[:2] for g in got] == [e[:2] for e in expected]
    for (_, _, t, slack), (_, _, t_ref, slack_ref) in zip(got, expected):
        assert t == (None if t_ref is None else pytest.approx(t_ref, rel=1e-12))
        assert slack == pytest.approx(slack_ref, rel=1e-12, abs=1e-15)
    assert {check for check, *_ in got} == {
        "popoviciu",
        "popoviciu_saturation",
        "qsl_vs_bandwidth",
        "duality_swap",
        "envelope",
        "ortho_vs_qsl",
        "ortho_vs_lp",
    }
    assert report.ortho_checks == len(states)
