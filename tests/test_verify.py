import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from qslkit import verify
from qslkit.bounds import (
    DEFAULT_P_GRID,
    HALF_PI,
    bound_set,
    bounds_from_moments,
    envelope_angle,
    popoviciu,
)
from qslkit.states import (
    dual_rows,
    dual_state,
    energy_moments,
    make_qubit,
    moment_rows,
    validate_state,
)
from qslkit.verify import (
    MAX_SCAN_POINTS,
    SweepConfig,
    a_of_q,
    check_envelope,
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
    for q in (0.0, 0.3, 1.0, 5.0):
        solution = a_of_q(q)
        xs = np.linspace(0.0, 4.0 * math.pi, 2001)
        margin = solution.a * xs + q * np.sin(xs) - (1.0 - np.cos(xs))
        assert margin.min() > -1e-9


def test_xi_oracle_domain():
    with pytest.raises(ValueError):
        xi_oracle(0.0)
    with pytest.raises(ValueError):
        xi_oracle(1.2)


def test_xi_oracle_brackets_the_linear_model():
    for x, tight, linear, delta in xi_comparison((0.05, 0.5, 1.0)):
        assert delta >= 0.0
        assert delta < 5e-4
    assert xi_oracle(1.0) == pytest.approx(1.0, abs=1e-12)


def _a_table():
    grid = np.linspace(0.0, 10.0, 401)
    return grid, {q: a_of_q(q).a for q in grid.tolist()}


def test_xi_prune_ceiling_bounds_every_grid_candidate():
    grid, a = _a_table()
    for x in verify.XI_GRID:
        ceiling = verify._candidate_ceiling(grid, x)
        for q, bound in zip(grid.tolist(), ceiling.tolist()):
            candidate = (1.0 - a[q] * HALF_PI * x) / math.sqrt(1.0 + q * q)
            assert candidate <= bound, (x, q)


def test_xi_comparison_equals_a_full_grid_pass_bitwise():
    grid, a = _a_table()

    def a_value(q):
        if q not in a:
            a[q] = a_of_q(q).a
        return a[q]

    def full_grid_oracle(x):
        def candidate(q):
            return (1.0 - a_value(q) * HALF_PI * x) / math.sqrt(1.0 + q * q)

        values = [candidate(q) for q in grid]
        best = int(np.argmax(values))
        lo = grid[max(best - 1, 0)]
        hi = grid[min(best + 1, len(grid) - 1)]
        q_star = verify._golden_max(candidate, float(lo), float(hi))
        f = max(candidate(q_star), 0.0)
        return math.acos(min(f, 1.0)) / (HALF_PI * math.sqrt(x))

    verify._a_cache.clear()
    rows = xi_comparison()
    assert [row[1].hex() for row in rows] == [
        full_grid_oracle(x).hex() for x in verify.XI_GRID
    ]
    # the prune solves a(q) on 81 of the 401 grid values, not on all
    assert len(set(verify._a_cache) & set(grid.tolist())) == 81


def test_orthogonalization_of_the_balanced_qubit():
    t = find_orthogonalization_time(make_qubit(0.5, 1.0))
    assert t == pytest.approx(math.pi, abs=1e-9)


def test_unbalanced_qubit_never_orthogonalizes():
    assert find_orthogonalization_time(make_qubit(0.2, 1.0)) is None


def test_equal_weight_qutrit_orthogonalizes_at_the_known_time():
    third = 1.0 / 3.0
    state = validate_state([(0.0, third), (0.5, third), (1.0, third)])
    t = find_orthogonalization_time(state)
    assert t == pytest.approx(4.0 * math.pi / 3.0, abs=1e-9)


def test_stationary_state_returns_none():
    assert find_orthogonalization_time(validate_state([(0.4, 1.0)])) is None


def test_envelope_slack_of_the_balanced_qubit_is_nonnegative():
    slack = check_envelope(make_qubit(0.5, 1.0), t_max=math.pi, steps=2000)
    assert slack >= -1e-12


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

        def map(self, func, jobs):
            jobs = list(jobs)
            ranges.extend((lo, hi) for _, lo, hi in jobs)
            return map(func, jobs)

    monkeypatch.setattr(verify, "ProcessPoolExecutor", RecordingPool)
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


def test_stacked_bounds_match_the_single_state_bounds_bitwise():
    # 2400 sweep states of 1 to 8 levels, stacked by level count as the
    # sweep stacks them; repr round-trips every float exactly.
    config = SweepConfig(seed=21, level_min=1, level_max=8)
    by_level = {}
    for i in range(2400):
        state = verify._sample(config, i)
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


def test_stacked_finder_rows_match_the_single_state_finder():
    groups = {}
    for state in _orthogonalizing_states(np.random.default_rng(8)):
        tau_bw = math.pi / (state.emax - state.e0)
        t_max = 20.0 * tau_bw
        n = verify._scan_points(tau_bw, t_max)
        groups.setdefault((state.level_count, n), []).append((state, t_max))
    found = 0
    for (_, n), group in groups.items():
        states, t_max = zip(*group)
        zeros = verify._first_zeros(
            np.array([s.energies for s in states]),
            np.array([s.populations for s in states]),
            np.array([energy_moments(s).sigma for s in states]),
            np.linspace(0.0, np.array(t_max), n).T,
            1e-9,
        )
        for state, t in zip(states, zeros):
            assert repr(t) == repr(find_orthogonalization_time(state))
            found += t is not None
    assert found == 180


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
    cases = [(verify._sample(config, index), []) for index in range(2000)]
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
        values = verify._kernels.grid_overlap(energies, populations, times)
        rows, k = verify._scan_brackets(
            np.abs(values), moments.sigma, times, config.ortho_tol
        )
        floors = verify._chord_floors(
            values,
            np.full(len(group), energies.shape[1]),
            np.abs(energies).max(axis=-1),
            moments.mean,
            moments.sigma,
            times,
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
    monkeypatch.setattr(verify, "_CHUNK_STATES", chunk)
    assert repr(verify._sweep_range(_SPLIT_CONFIG, 0, _SPLIT_SAMPLES)) == repr(whole)


@pytest.mark.parametrize(
    "config",
    [_SPLIT_CONFIG, SweepConfig(seed=4, level_min=1, level_max=6, ortho_tol=0.3)],
)
def test_sweep_range_does_not_depend_on_how_a_window_mixes_level_counts(
    monkeypatch, config
):
    # Windows of 1 state each, of 3 and of the whole range (40 states of
    # every level count from 1 up).  In the second range 24 states
    # orthogonalize, with 29 ortho_* violations, so joined finder scans
    # are refined too.
    results = []
    for states in (1, 3, 65):
        monkeypatch.setattr(verify, "_BATCH_POINTS", states * config.time_steps)
        results.append(repr(verify._sweep_range(config, 0, _SPLIT_SAMPLES)))
    assert results[1] == results[0] and results[2] == results[0]


@pytest.mark.parametrize("t_min", [-1.0, -1e-300, math.nan, math.inf, -math.inf])
def test_check_envelope_refuses_an_unusable_t_min(t_min):
    with pytest.raises(ValueError, match=r"\bt_min\b"):
        check_envelope(make_qubit(0.3, 1.0), t_max=5.0, steps=100, t_min=t_min)


@pytest.mark.parametrize("t_min_share", [0.0, 1e-3, 0.3])
def test_check_envelope_equals_a_full_grid_evaluation(t_min_share):
    # From t = 0 the scan stops after the last point short of its taus;
    # from t > 0 it takes every point.  Either way its minimum is the
    # bits of the envelope minus arccos|f| at every point.
    for index in range(200):
        state = verify._sample(SweepConfig(), index)
        bounds = bound_set(state, p_grid=())
        t_max = 20.0 * bounds.tau_bw
        times = np.linspace(t_min_share * t_max, t_max, 1000)
        mags = np.abs(verify._kernels.grid_overlap(state.energies, state.populations, times))
        full = envelope_angle(state, times) - np.arccos(np.minimum(mags, 1.0))
        got = check_envelope(state, t_max, 1000, t_min_share * t_max)
        assert repr(got) == repr(float(full.min())), index


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

    def rows(skew):
        return np.array([skew in skews for _, skews in _SKEWED_QUBITS])

    real_popoviciu = verify.popoviciu
    real_bounds = verify.bounds_from_moments
    real_dual_rows = verify.dual_rows

    def skewed_popoviciu(moments):
        ceiling, saturated = real_popoviciu(moments)
        return np.where(rows("ceiling"), ceiling / 2.0, ceiling), saturated ^ rows("saturation")

    def skewed_bounds(moments):
        b = real_bounds(moments)
        factor = np.where(rows("qsl_low"), 0.5, np.where(rows("qsl_high"), 2.0, 1.0))
        lp = np.where(rows("lp_high"), 4.0, 1.0)
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

    def skewed_envelope_scan(energies, populations, tau_mt, tau_ml, tau_ml_dual, times):
        assert len(times) == len(states)  # one window, in index order
        return np.where(rows("envelope"), -0.25, 0.0), np.full(len(states), 0.5)

    monkeypatch.setattr(verify, "_sample", lambda config, index: states[index])
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
