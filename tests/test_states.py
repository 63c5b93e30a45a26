import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qslkit.states import (
    dual_state,
    energy_moments,
    make_qubit,
    overlap,
    qutrit_from_moments,
    sample_random_state,
    state_from_json,
    state_to_json,
    validate_state,
)

level_lists = st.lists(
    st.tuples(
        st.floats(min_value=-10.0, max_value=10.0),
        st.floats(min_value=0.0, max_value=1.0),
    ),
    min_size=1,
    max_size=8,
).filter(lambda rows: sum(p for _, p in rows) > 1e-6)


def _normalized(rows):
    total = sum(p for _, p in rows)
    return [(e, p / total) for e, p in rows]


def test_validate_sorts_levels():
    state = validate_state([(1.0, 0.25), (0.0, 0.75)])
    assert list(state.energies) == [0.0, 1.0]
    assert list(state.populations) == [0.75, 0.25]


def test_validate_merges_coincident_levels():
    state = validate_state([(0.5, 0.25), (0.5, 0.25), (1.0, 0.5)])
    assert state.level_count == 2
    assert state.populations[0] == pytest.approx(0.5, abs=1e-15)


def test_validate_prunes_negligible_population():
    state = validate_state([(0.0, 1.0), (1.0, 1e-16)])
    assert state.level_count == 1


def test_validate_normalizes_small_deficit():
    state = validate_state([(0.0, 0.5), (1.0, 0.5 - 5e-10)])
    assert math.fsum(state.populations) == pytest.approx(1.0, abs=1e-15)


def test_validate_rejects_bad_input():
    with pytest.raises(ValueError):
        validate_state([])
    with pytest.raises(ValueError):
        validate_state([(0.0, -0.1), (1.0, 1.1)])
    with pytest.raises(ValueError):
        validate_state([(math.nan, 1.0)])
    with pytest.raises(ValueError):
        validate_state([(0.0, 0.7), (1.0, 0.7)])
    with pytest.raises(ValueError, match="bandwidth"):
        validate_state([(-1e308, 0.5), (1e308, 0.5)])
    # the bandwidth is finite, but the variance would overflow
    with pytest.raises(ValueError, match="bandwidth"):
        validate_state([(0.0, 0.5), (1e155, 0.5)])
    assert energy_moments(validate_state([(0.0, 0.5), (1e150, 0.5)])).sigma == 5e149


@given(level_lists)
def test_validated_states_are_canonical(rows):
    state = validate_state(_normalized(rows))
    assert np.all(np.diff(state.energies) > 0)
    assert np.all(state.populations > 0)
    assert math.fsum(state.populations) == pytest.approx(1.0, abs=1e-12)


def test_moments_of_bottom_heavy_qubit():
    moments = energy_moments(make_qubit(0.2, 1.0))
    assert moments.mean == pytest.approx(0.2, abs=1e-15)
    assert moments.sigma == pytest.approx(0.4, abs=1e-15)
    assert moments.bandwidth == 1.0


def test_lp_moments_interpolate_between_mean_gap_and_bandwidth():
    moments = energy_moments(make_qubit(0.2, 1.0), (1.0, 2.0, 1e6))
    rows = {p: (ep, ed) for p, ep, ed in moments.lp}
    assert rows[1.0][0] == pytest.approx(0.2, abs=1e-15)
    assert rows[1.0][1] == pytest.approx(0.8, abs=1e-15)
    # p -> infinity approaches the full bandwidth from below
    assert rows[1e6][0] == pytest.approx(1.0, abs=1e-5)
    assert rows[1e6][0] <= 1.0


def test_moments_reject_bad_orders():
    state = make_qubit(0.5, 1.0)
    with pytest.raises(ValueError):
        energy_moments(state, (0.5,))
    with pytest.raises(ValueError):
        energy_moments(state, (math.inf,))


def test_overlap_starts_at_unity():
    sample = overlap(make_qubit(0.3, 1.0), 0.0)
    assert sample.magnitude == pytest.approx(1.0, abs=1e-15)
    assert sample.angle == 0.0


def test_balanced_qubit_overlap_vanishes_at_pi():
    sample = overlap(make_qubit(0.5, 1.0), math.pi)
    assert sample.magnitude == pytest.approx(0.0, abs=1e-12)
    assert sample.angle == pytest.approx(math.pi / 2, abs=1e-9)


@given(level_lists, st.floats(min_value=0.0, max_value=100.0))
def test_overlap_magnitude_never_exceeds_one(rows, t):
    state = validate_state(_normalized(rows))
    assert overlap(state, t).magnitude <= 1.0 + 1e-12


@given(level_lists)
def test_dual_is_an_involution(rows):
    state = validate_state(_normalized(rows))
    back = dual_state(dual_state(state))
    scale = max(abs(state.e0), abs(state.emax), 1.0)
    assert np.allclose(back.energies, state.energies, rtol=0.0, atol=1e-13 * scale)
    assert np.array_equal(back.populations, state.populations)


@given(level_lists, st.floats(min_value=0.0, max_value=50.0))
def test_dual_preserves_overlap_magnitude(rows, t):
    state = validate_state(_normalized(rows))
    mirrored = dual_state(state)
    assert overlap(mirrored, t).magnitude == pytest.approx(
        overlap(state, t).magnitude, abs=1e-12
    )


def test_dual_swaps_gaps():
    moments = energy_moments(make_qubit(0.2, 1.0))
    mirrored = energy_moments(dual_state(make_qubit(0.2, 1.0)))
    assert mirrored.mean - mirrored.e0 == pytest.approx(
        moments.emax - moments.mean, abs=1e-15
    )
    assert mirrored.sigma == pytest.approx(moments.sigma, abs=1e-15)


def test_qubit_constructor_validates():
    with pytest.raises(ValueError):
        make_qubit(1.5, 1.0)
    with pytest.raises(ValueError):
        make_qubit(0.5, 0.0)


def test_qutrit_moment_inversion_round_trips():
    state = qutrit_from_moments(0.5, 1.0 / 3.0, 0.5, 1.0)
    moments = energy_moments(state)
    assert moments.mean == pytest.approx(0.5, abs=1e-14)
    assert moments.sigma == pytest.approx(1.0 / 3.0, abs=1e-14)


def test_qutrit_rejects_unreachable_moments():
    # sigma beyond the Popoviciu ceiling forces a negative weight
    with pytest.raises(ValueError):
        qutrit_from_moments(0.1, 0.45, 0.5, 1.0)
    with pytest.raises(ValueError):
        qutrit_from_moments(0.5, 0.3, 0.0, 1.0)


@settings(max_examples=25)
@given(st.integers(min_value=2, max_value=8), st.integers(min_value=0, max_value=2**31))
def test_random_states_are_reproducible(level_count, seed):
    a = sample_random_state(level_count, 1.0, seed)
    b = sample_random_state(level_count, 1.0, seed)
    assert np.array_equal(a.energies, b.energies)
    assert np.array_equal(a.populations, b.populations)
    assert a.level_count <= level_count


@given(level_lists)
@example(
    [(0.0, 0.8125), (0.0, 0.6072456621696048), (0.0, 0.125)]
    + [(1.0, 0.875)] * 3
    + [(2.0, 0.96875), (3.0, 0.0625)]
)
def test_state_json_round_trip_is_exact(rows):
    state = validate_state(_normalized(rows))
    back = state_from_json(state_to_json(state))
    assert np.array_equal(back.energies, state.energies)
    assert np.array_equal(back.populations, state.populations)


def test_state_json_rejects_malformed_documents():
    with pytest.raises(ValueError):
        state_from_json("{}")
    with pytest.raises(ValueError):
        state_from_json('{"levels": [{"energy": 0.0}]}')


def test_state_json_refuses_an_integer_too_large_for_a_float():
    text = '{"levels": [{"energy": 1' + "0" * 400 + ', "population": 1}]}'
    with pytest.raises(ValueError, match="not finite"):
        state_from_json(text)
    assert state_from_json('{"levels": [{"energy": 2, "population": 1}]}').e0 == 2.0
