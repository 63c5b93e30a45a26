import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qslkit.bounds import (
    BOUNDARY,
    DUAL_ML,
    FORBIDDEN,
    ML,
    MT,
    _MAP_LABELS,
    bound_set,
    classify_point,
    classify_regime,
    crossover_times,
    envelope_angle,
    envelope_angle_from_taus,
    ml_angle_term,
    mt_angle_term,
    popoviciu,
    regime_codes,
    xi,
)
from qslkit.states import (
    energy_moments,
    make_qubit,
    sample_random_state,
    validate_state,
)

HALF_PI = math.pi / 2


def test_balanced_qubit_bounds_coincide():
    b = bound_set(make_qubit(0.5, 1.0))
    for tau in (b.tau_mt, b.tau_ml, b.tau_ml_dual, b.tau_bw, b.tau_qsl):
        assert tau == pytest.approx(math.pi, rel=1e-12)


def test_bottom_heavy_qubit_bounds():
    b = bound_set(make_qubit(0.2, 1.0))
    assert b.tau_mt == pytest.approx(math.pi / 0.8, rel=1e-12)
    assert b.tau_ml == pytest.approx(math.pi / 0.4, rel=1e-12)
    assert b.tau_ml_dual == pytest.approx(math.pi / 1.6, rel=1e-12)
    assert b.tau_bw == pytest.approx(math.pi, rel=1e-12)
    assert b.tau_qsl == b.tau_ml


def test_stationary_state_has_infinite_bounds():
    b = bound_set(validate_state([(0.3, 1.0)]))
    assert b.tau_mt == math.inf
    assert b.tau_ml == math.inf
    assert b.tau_ml_dual == math.inf
    assert b.tau_bw == math.inf
    assert b.tau_qsl == math.inf


def test_p_equal_one_rows_match_the_elementary_bounds():
    b = bound_set(make_qubit(0.2, 1.0), p_grid=(1.0, 2.0))
    rows = dict((p, tau) for p, tau in b.tau_ml_p)
    dual_rows = dict((p, tau) for p, tau in b.tau_ml_dual_p)
    assert rows[1.0] == pytest.approx(b.tau_ml, rel=1e-12)
    assert dual_rows[1.0] == pytest.approx(b.tau_ml_dual, rel=1e-12)


def test_xi_endpoints_and_domain():
    assert xi(0.0) == pytest.approx(1.0 - 0.0395, abs=1e-15)
    assert xi(1.0) == 1.0
    with pytest.raises(ValueError):
        xi(-0.01)
    with pytest.raises(ValueError):
        xi(1.01)
    values = xi(np.array([0.0, 0.5, 1.0]))
    assert values.shape == (3,)


def test_angle_terms_clamp_at_expiry():
    assert mt_angle_term(5.0, 2.0) == HALF_PI
    assert ml_angle_term(5.0, 2.0) == HALF_PI
    assert mt_angle_term(0.0, 2.0) == 0.0
    assert ml_angle_term(0.0, 2.0) == 0.0
    assert mt_angle_term(1.0, math.inf) == 0.0


def test_envelope_angle_is_the_smallest_term():
    taus = (2.0, 3.0, 4.0)
    t = 1.0
    expected = min(
        mt_angle_term(t, taus[0]),
        ml_angle_term(t, taus[1]),
        ml_angle_term(t, taus[2]),
    )
    assert envelope_angle_from_taus(t, *taus) == pytest.approx(expected, rel=1e-15)
    arr = envelope_angle_from_taus(np.array([0.0, 1.0, 10.0]), *taus)
    assert arr[0] == 0.0
    assert arr[2] == pytest.approx(HALF_PI, rel=1e-15)


def test_envelope_angle_of_state_never_exceeds_half_pi():
    state = make_qubit(0.3, 1.0)
    times = np.linspace(0.0, 50.0, 500)
    values = envelope_angle(state, times)
    assert np.all(values <= HALF_PI + 1e-15)
    assert np.all(np.diff(values) >= -1e-12)


def test_crossover_of_bottom_heavy_qubit():
    b = bound_set(make_qubit(0.2, 1.0))
    t_ml, t_dual = crossover_times(b)
    assert t_ml == pytest.approx(1.8466427569084543, rel=1e-9)
    # the dual curve expires before the MT line can catch it
    assert t_dual is None


def test_crossover_of_balanced_qubit_sits_at_the_common_bound():
    b = bound_set(make_qubit(0.5, 1.0))
    t_ml, t_dual = crossover_times(b)
    assert t_ml == pytest.approx(math.pi, rel=1e-12)
    assert t_dual == pytest.approx(math.pi, rel=1e-12)


def test_crossover_stays_inside_its_window():
    for p1 in (0.05, 0.1, 0.3, 0.45):
        b = bound_set(make_qubit(p1, 1.0))
        t_ml, _ = crossover_times(b)
        assert t_ml is not None
        assert 0.0 < t_ml <= b.tau_ml * (1.0 + 1e-12)


def test_popoviciu_saturation_on_two_levels():
    moments = energy_moments(make_qubit(0.2, 1.0))
    ceiling, saturated = popoviciu(moments)
    assert ceiling == pytest.approx(0.4, abs=1e-15)
    assert saturated


def test_popoviciu_strict_on_three_levels():
    state = validate_state([(0.0, 0.4), (0.5, 0.2), (1.0, 0.4)])
    moments = energy_moments(state)
    ceiling, saturated = popoviciu(moments)
    assert moments.sigma < ceiling
    assert not saturated


def test_regime_labels_for_qubits():
    assert classify_regime(energy_moments(make_qubit(0.5, 1.0))).regime == BOUNDARY
    assert classify_regime(energy_moments(make_qubit(0.2, 1.0))).regime == ML
    assert classify_regime(energy_moments(make_qubit(0.8, 1.0))).regime == DUAL_ML


def test_boundary_report_carries_tags_and_crossover():
    report = classify_regime(energy_moments(make_qubit(0.5, 1.0)))
    assert report.regime == BOUNDARY
    assert "gaps_equal" in report.boundary_tags
    assert report.crossover == pytest.approx(math.pi, rel=1e-12)


def test_mt_regime_has_no_crossover():
    state = validate_state([(0.0, 2.0 / 9.0), (0.5, 5.0 / 9.0), (1.0, 2.0 / 9.0)])
    report = classify_regime(energy_moments(state))
    assert report.regime == MT
    assert report.crossover is None


def test_classify_point_covers_the_square():
    assert classify_point(0.2, 0.45).regime == FORBIDDEN
    assert classify_point(0.2, 0.3).regime == ML
    assert classify_point(0.5, 0.3).regime == MT
    assert classify_point(0.8, 0.3).regime == DUAL_ML
    assert classify_point(0.5, 0.5).regime == BOUNDARY


def test_classify_point_rejects_mean_outside_band():
    with pytest.raises(ValueError):
        classify_point(1.2, 0.1)
    with pytest.raises(ValueError):
        classify_point(0.5, -0.1)


@pytest.mark.parametrize("name", ["mean", "sigma", "e0", "emax"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_bare_moments_must_be_finite(name, bad):
    point = dict(mean=0.5, sigma=0.1, e0=0.0, emax=1.0)
    point[name] = bad
    with pytest.raises(ValueError, match=rf"^{name} must be finite"):
        classify_point(**point)
    if name in ("mean", "sigma"):
        point[name] = np.array([bad, 0.5])
    with pytest.raises(ValueError, match=rf"^{name} must be finite"):
        regime_codes(**point)


def _nudge(x, ulps):
    """x moved by one ulp in the direction of ulps (-1, 0 or 1)."""
    return float(np.nextafter(x, math.copysign(math.inf, ulps))) if ulps else x


@settings(max_examples=400)
@given(
    st.floats(0.0, 1.0),
    st.sampled_from([(0.0, 1.0), (-3.0, -2.75), (2.5, 9.5), (-1e3, 1e3)]),
    st.sampled_from(["lower", "upper", "midpoint", "ceiling"]),
    st.sampled_from([-1, 0, 1]),
)
def test_regime_map_matches_classify_point_on_the_tie_lines(fraction, band, line, ulps):
    # sigma == mean - e0, sigma == emax - mean, mean at the band's middle
    # and sigma at the Popoviciu ceiling, each hit exactly or missed by an ulp
    e0, emax = band
    mean = e0 + fraction * (emax - e0)
    if line == "midpoint":
        mean = _nudge(0.5 * (e0 + emax), ulps)
        sigma = fraction * math.sqrt((mean - e0) * (emax - mean))
    else:
        sigma = {
            "lower": mean - e0,
            "upper": emax - mean,
            "ceiling": math.sqrt((mean - e0) * (emax - mean)),
        }[line]
        sigma = max(_nudge(sigma, ulps), 0.0)
    expected = classify_point(mean, sigma, e0, emax).regime
    assert _MAP_LABELS[regime_codes(mean, sigma, e0, emax)] == expected
    row = regime_codes(np.array([mean, mean]), np.array([sigma, 0.0]), e0, emax)
    assert _MAP_LABELS[row[0]] == expected


@pytest.mark.parametrize("offset", [-2e-13, -1e-13, 1e-13, 2e-13])
def test_regime_map_keeps_the_equal_gaps_tie(offset):
    # Above min(lower, upper) by more than the tie tolerance but still
    # within the ceiling's, only the lower == upper tie (1e-12 relative)
    # makes this point BOUNDARY rather than ML or DUAL_ML.
    mean = 0.5 + offset
    sigma = 0.5 * (1.0 + 0.9e-12)
    assert classify_point(mean, sigma).regime == BOUNDARY
    assert _MAP_LABELS[regime_codes(mean, sigma)] == BOUNDARY


def test_classify_regime_rejects_unreachable_moments():
    moments = energy_moments(make_qubit(0.2, 1.0))
    bad = type(moments)(
        mean=moments.mean,
        sigma=0.45,
        e0=moments.e0,
        emax=moments.emax,
        bandwidth=moments.bandwidth,
        lp=(),
    )
    with pytest.raises(ValueError):
        classify_regime(bad)


@settings(max_examples=100)
@given(
    st.integers(min_value=2, max_value=8),
    st.integers(min_value=0, max_value=2**31),
)
def test_qsl_dominates_bandwidth_bound(level_count, seed):
    state = sample_random_state(level_count, 1.0, seed)
    b = bound_set(state, p_grid=())
    assert b.tau_qsl >= b.tau_bw * (1.0 - 1e-12)


@settings(max_examples=100)
@given(
    st.integers(min_value=2, max_value=8),
    st.integers(min_value=0, max_value=2**31),
)
def test_popoviciu_holds_on_random_states(level_count, seed):
    state = sample_random_state(level_count, 1.0, seed)
    moments = energy_moments(state)
    ceiling, _ = popoviciu(moments)
    assert moments.sigma <= ceiling + 1e-12


def test_serialized_bounds_expose_the_lp_family():
    b = bound_set(make_qubit(0.2, 1.0), p_grid=(1.0, 2.0))
    payload = b.to_dict()
    assert payload["tau_ml_p"] == [[1.0, b.tau_ml_p[0][1]], [2.0, b.tau_ml_p[1][1]]]
    assert payload["tau_qsl"] == b.tau_qsl
