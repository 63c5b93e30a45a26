import math

import numpy as np
import pytest
from scipy.optimize import brentq

from qslkit.states import make_qubit, validate_state
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
