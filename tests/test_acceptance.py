"""End-to-end gate: one test per advertised behavior, run with -v for a
line-per-criterion summary."""

import json
import math
import time

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from qslkit import _kernels
from qslkit.bounds import (
    bound_set,
    classify_regime,
    crossover_times,
    envelope_angle,
    popoviciu,
)
from qslkit.cli import run_cli
from qslkit.states import (
    dual_state,
    energy_moments,
    make_qubit,
    qutrit_from_moments,
    sample_random_state,
    validate_state,
)
from qslkit.verify import (
    a_of_q,
    find_orthogonalization_time,
    xi_comparison,
)

PI = math.pi


@pytest.fixture(scope="module")
def sweep_result(tmp_path_factory):
    """Full-size falsification run via the CLI, shared by criteria 5/6/10."""
    out = tmp_path_factory.mktemp("sweep") / "report.json"
    start = time.perf_counter()
    code = run_cli(["falsify", "-o", str(out)])
    seconds = time.perf_counter() - start
    report = json.loads(out.read_text())
    return report, code, seconds


def test_criterion_01_balanced_qubit_coincidence():
    state = make_qubit(0.5, 1.0)
    start = time.perf_counter()
    bounds = bound_set(state)
    t_perp = find_orthogonalization_time(state)
    elapsed = time.perf_counter() - start
    assert bounds.tau_mt == pytest.approx(PI, rel=1e-12)
    assert bounds.tau_ml == pytest.approx(PI, rel=1e-12)
    assert bounds.tau_ml_dual == pytest.approx(PI, rel=1e-12)
    assert t_perp == pytest.approx(PI, abs=1e-9)
    assert elapsed < 1.0


def test_criterion_02_scenario_qubit_moments():
    bottom = energy_moments(make_qubit(0.2, 1.0))
    assert bottom.mean == pytest.approx(0.2, abs=1e-12)
    assert bottom.sigma == pytest.approx(0.4, abs=1e-12)
    top = energy_moments(make_qubit(0.8, 1.0))
    assert top.mean == pytest.approx(0.8, abs=1e-12)
    assert top.sigma == pytest.approx(0.4, abs=1e-12)


def test_criterion_03_qutrit_inversion():
    cases = [
        ((1.0 / 6.0, 1.0 / 3.0), (7.0 / 9.0, 1.0 / 9.0, 1.0 / 9.0)),
        ((0.5, 1.0 / 3.0), (2.0 / 9.0, 5.0 / 9.0, 2.0 / 9.0)),
        ((5.0 / 6.0, 5.0 / 18.0), (7.0 / 162.0, 20.0 / 81.0, 115.0 / 162.0)),
    ]
    for (mean, sigma), weights in cases:
        state = qutrit_from_moments(mean, sigma, 0.5, 1.0)
        assert state.level_count == 3
        assert list(state.populations) == pytest.approx(list(weights), abs=1e-12)
        moments = energy_moments(state)
        assert moments.mean == pytest.approx(mean, abs=1e-12)
        assert moments.sigma == pytest.approx(sigma, abs=1e-12)


def test_criterion_04_regime_labels_for_the_six_scenarios():
    scenarios = [
        (make_qubit(0.5, 1.0), "BOUNDARY"),
        (make_qubit(0.2, 1.0), "ML"),
        (make_qubit(0.8, 1.0), "DUAL_ML"),
        (qutrit_from_moments(1.0 / 6.0, 1.0 / 3.0, 0.5, 1.0), "ML"),
        (qutrit_from_moments(0.5, 1.0 / 3.0, 0.5, 1.0), "MT"),
        (qutrit_from_moments(5.0 / 6.0, 5.0 / 18.0, 0.5, 1.0), "DUAL_ML"),
    ]
    for state, expected in scenarios:
        assert classify_regime(energy_moments(state)).regime == expected


def test_criterion_05_envelope_soundness_sweep(sweep_result):
    report, code, seconds = sweep_result
    assert report["samples"] == 10000
    assert report["worst_slack_rad"] >= -1e-3
    assert report["violations"] == []
    assert code == 0
    assert seconds < 60.0


def test_criterion_06_popoviciu_bound_and_saturation(sweep_result):
    report, _, _ = sweep_result
    assert not [
        v for v in report["violations"] if v["check"].startswith("popoviciu")
    ]
    # direct check of both directions on a fresh sample
    rng = np.random.default_rng(6)
    for _ in range(500):
        levels = int(rng.integers(2, 9))
        state = sample_random_state(levels, 1.0, int(rng.integers(0, 2**63 - 1)))
        moments = energy_moments(state)
        ceiling, saturated = popoviciu(moments)
        assert moments.sigma <= ceiling + 1e-12
        assert saturated == (state.level_count <= 2)
    # a third level below the pruning threshold keeps saturation intact
    nearly_two = validate_state([(0.0, 0.5), (0.5, 1e-16), (1.0, 0.5)])
    assert nearly_two.level_count == 2
    assert popoviciu(energy_moments(nearly_two))[1]


def _well_conditioned_state(rng, level_count):
    # jittered ladder: gaps and weights stay bounded away from zero, so
    # the duality comparison is dominated by the identity under test
    # rather than by cancellation in the gap arithmetic
    base = np.arange(level_count, dtype=float)
    energies = (base + 0.4 * rng.uniform(size=level_count)) / level_count
    weights = rng.exponential(1.0, level_count) + 0.25
    weights /= weights.sum()
    return validate_state(list(zip(energies, weights)))


def test_criterion_07_duality_swaps_bounds_and_preserves_overlap():
    rng = np.random.default_rng(7)
    for _ in range(1000):
        state = _well_conditioned_state(rng, int(rng.integers(2, 9)))
        mirrored = dual_state(state)
        bounds = bound_set(state, p_grid=())
        swapped = bound_set(mirrored, p_grid=())
        assert swapped.tau_ml == pytest.approx(bounds.tau_ml_dual, rel=1e-12)
        assert swapped.tau_ml_dual == pytest.approx(bounds.tau_ml, rel=1e-12)
        assert swapped.tau_mt == pytest.approx(bounds.tau_mt, rel=1e-12)
        assert swapped.tau_bw == pytest.approx(bounds.tau_bw, rel=1e-12)

        tau_bw = bounds.tau_bw
        times = rng.uniform(0.0, 20.0 * tau_bw, 100)
        mags = _kernels.overlap_magnitudes(state.energies, state.populations, times)
        mirrored_mags = _kernels.overlap_magnitudes(
            mirrored.energies, mirrored.populations, times
        )
        assert np.max(np.abs(mags - mirrored_mags)) <= 1e-12


def test_criterion_08_xi_oracle_agreement():
    grid = tuple(round(0.05 * k, 2) for k in range(1, 21))
    for x, tight, linear, delta in xi_comparison(grid):
        assert tight >= linear
        assert delta < 5e-4
    anchor = a_of_q(2.0 / PI)
    assert anchor.a == pytest.approx(2.0 / PI, abs=1e-9)
    assert anchor.x_star == pytest.approx(PI, abs=1e-9)


def _least_slack(state, t_min, t_max):
    """Least envelope angle minus arccos|f| on np.linspace(t_min, t_max, 4000)."""
    times = np.linspace(t_min, t_max, 4000)
    mags = _kernels.overlap_magnitudes(state.energies, state.populations, times)
    return float(np.min(envelope_angle(state, times) - np.arccos(np.minimum(mags, 1.0))))


def test_criterion_09_saturation_witnesses():
    bottom = make_qubit(0.2, 1.0)
    bounds = bound_set(bottom, p_grid=())
    tau_c, _ = crossover_times(bounds)
    assert tau_c is not None
    assert -1e-3 <= _least_slack(bottom, tau_c, bounds.tau_ml) <= 2e-3

    top = make_qubit(0.8, 1.0)
    dual_bounds = bound_set(top, p_grid=())
    _, tau_c_dual = crossover_times(dual_bounds)
    assert tau_c_dual is not None
    assert -1e-3 <= _least_slack(top, tau_c_dual, dual_bounds.tau_ml_dual) <= 2e-3


def test_criterion_10_qsl_floor_and_lp_limit(sweep_result):
    report, _, _ = sweep_result
    assert not [
        v for v in report["violations"] if v["check"] == "qsl_vs_bandwidth"
    ]
    rng = np.random.default_rng(10)
    for _ in range(300):
        state = sample_random_state(int(rng.integers(2, 9)), 1.0, int(rng.integers(0, 2**63 - 1)))
        b = bound_set(state, p_grid=())
        assert b.tau_qsl >= b.tau_bw * (1.0 - 1e-12)

    # two-level families change monotonically in p (the direction flips
    # with the heavier level), pinned at tau_ml for p=1
    p_grid = (1.0, 1.5, 2.0, 3.0, 4.0, 6.0, 10.0, 30.0, 100.0, 1000.0)
    for p1 in (0.1, 0.25, 0.5, 0.75, 0.9):
        b = bound_set(make_qubit(p1, 1.0), p_grid=p_grid)
        taus = [tau for _, tau in b.tau_ml_p]
        assert taus[0] == pytest.approx(b.tau_ml, rel=1e-12)
        diffs = np.diff(taus)
        assert np.all(diffs >= -1e-12) or np.all(diffs <= 1e-12)

    # rational spectra whose edge weights keep |ln(2 w)| / p below 1e-6
    limit_states = [
        make_qubit(0.5, 1.0),
        make_qubit(0.4, 1.0),
        make_qubit(0.625, 1.0),
        validate_state([(0.0, 0.4), (0.5, 0.2), (1.0, 0.4)]),
        validate_state([(0.0, 0.45), (0.5, 0.1), (1.0, 0.45)]),
    ]
    for state in limit_states:
        b = bound_set(state, p_grid=(1e6,))
        assert b.tau_ml_p[0][1] == pytest.approx(b.tau_bw, abs=1e-6)
        assert b.tau_ml_dual_p[0][1] == pytest.approx(b.tau_bw, abs=1e-6)


def _dense_first_zero(state, t_max, tol=1e-9):
    # independent oracle: fixed 1e-5-step scan, then bounded refinement
    step = 1e-5
    total = int(math.floor(t_max / step)) + 1
    chunk = 1_500_000
    for lo in range(0, total, chunk):
        ts = np.arange(lo, min(lo + chunk, total), dtype=np.float64) * step
        phases = np.outer(ts, state.energies)
        mags = np.hypot(
            np.cos(phases) @ state.populations,
            np.sin(phases) @ state.populations,
        )
        for i in np.flatnonzero(mags < 2e-5):
            t0 = ts[i]
            # refine the squared magnitude: it is smooth at a zero, while
            # the magnitude itself has a kink that stalls Brent steps
            result = minimize_scalar(
                lambda t: abs(
                    np.exp(-1j * t * state.energies) @ state.populations
                )
                ** 2,
                bounds=(max(t0 - 2.0 * step, 0.0), t0 + 2.0 * step),
                method="bounded",
                options={"xatol": 1e-12},
            )
            if math.sqrt(result.fun) < tol:
                return float(result.x)
    return None


def test_criterion_11_orthogonalization_finder_vs_dense_oracle():
    rng = np.random.default_rng(11)
    found = 0
    for index in range(100):
        if index % 2 == 0:
            # symmetric trio on (0, 1, 2): first zero known in closed form
            a = rng.uniform(0.26, 0.49)
            state = validate_state([(0.0, a), (1.0, 1.0 - 2.0 * a), (2.0, a)])
            expected = math.acos((2.0 * a - 1.0) / (2.0 * a))
        else:
            n = int(rng.integers(2, 5))
            m = int(rng.integers(1, n))
            scale = 2.0 / n
            weights = rng.exponential(1.0, 3) + 0.05
            weights /= weights.sum()
            state = validate_state(
                [(0.0, weights[0]), (m * scale, weights[1]), (2.0, weights[2])]
            )
            expected = None

        t_max = 20.0 * PI / 2.0
        t_finder = find_orthogonalization_time(state, t_max=t_max)
        t_oracle = _dense_first_zero(state, t_max)
        if t_oracle is None:
            assert t_finder is None
        else:
            found += 1
            assert t_finder is not None
            assert abs(t_finder - t_oracle) <= 1e-6
            if expected is not None:
                assert t_finder == pytest.approx(expected, abs=1e-9)
    assert found >= 50
