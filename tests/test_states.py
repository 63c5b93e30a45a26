import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qslkit.states import (
    _lp_norm_rows,
    _moments,
    canonical_rows,
    dual_state,
    energy_moments,
    make_qubit,
    moment_rows,
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
    # a bandwidth of 0, but |e0| + |emax| overflows
    with pytest.raises(ValueError, match=r"\|e0\| \+ \|emax\| overflows$"):
        validate_state([(-1.7e308, 1.0)])
    # finite populations whose exact sum overflows: the sum is inf
    with pytest.raises(ValueError, match="got inf$"):
        validate_state([(0.0, 1e308), (1.0, 1e308)])
    # the bandwidth is finite, but the variance would overflow
    with pytest.raises(ValueError, match="bandwidth"):
        validate_state([(0.0, 0.5), (1e155, 0.5)])
    assert energy_moments(validate_state([(0.0, 0.5), (1e150, 0.5)])).sigma == 5e149


@given(
    st.lists(
        st.tuples(
            st.floats(min_value=-1e-100, max_value=1e-100)
            | st.floats(min_value=-10.0, max_value=10.0),
            st.floats(min_value=0.0, max_value=1.0),
        ),
        min_size=1,
        max_size=8,
    ).filter(lambda rows: sum(p for _, p in rows) > 1e-6)
)
@example([(0.0, 0.5), (1e-200, 0.5)])
@example([(0.0, 0.7), (5e-324, 0.3)])
def test_a_validated_bandwidth_is_zero_or_has_a_normal_square(rows):
    # Levels closer than MERGE_TOL * (1 + |E|) merge, so no state keeps a
    # nonzero bandwidth whose square underflows to a subnormal or to 0.
    state = validate_state(_normalized(rows))
    bandwidth = state.emax - state.e0
    assert bandwidth == 0.0 or bandwidth * bandwidth >= sys.float_info.min


@given(level_lists)
def test_validated_states_are_canonical(rows):
    state = validate_state(_normalized(rows))
    assert np.all(np.diff(state.energies) > 0)
    assert np.all(state.populations > 0)
    assert math.fsum(state.populations) == pytest.approx(1.0, abs=1e-12)


# A row whose populations, divided by their exact sum, need one round of
# validate_state's residual loop.
_RESIDUAL_ROW = (0.1909090909090909, 0.054545454545454536, 0.7545454545454544)


def test_validate_state_moves_the_rounding_residual_onto_the_largest_entry():
    # The row over its exact sum still misses one by an ulp.
    assert math.fsum(np.array(_RESIDUAL_ROW) / math.fsum(_RESIDUAL_ROW)) != 1.0
    state = validate_state(zip((0.0, 1.0, 2.0), _RESIDUAL_ROW))
    assert math.fsum(state.populations) == 1.0
    again = validate_state(state.levels)
    assert again.populations.tobytes() == state.populations.tobytes()


# Kinds of rows of a stacked table, each with populations whose exact sum
# is one (uniform spacings, as the sweep draws them): kept whole (one
# level, or several), merged, pruned, and refused for the square of the
# bandwidth or for |e0| + |emax|.
_ROW_KINDS = ("one", "whole", "merge", "prune", "overflow", "scale")


@st.composite
def _stacked_tables(draw):
    """(energies, populations, level_counts) of zero-padded rows of every kind."""
    width = draw(st.sampled_from([8, 300]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = draw(st.sampled_from([1.0, 1e-9, 1e150]))
    kinds = [kind for kind in _ROW_KINDS for _ in range(3)]
    kinds = [kinds[k] for k in rng.permutation(len(kinds))]
    energies = np.zeros((len(kinds), width))
    populations = np.zeros((len(kinds), width))
    counts = []
    for r, kind in enumerate(kinds):
        count = 1 if kind in ("one", "scale") else int(rng.integers(2, width + 1))
        e = np.sort(rng.uniform(-1.0, 1.0, count)) * scale
        cuts = np.sort(rng.integers(0, 2**53, count - 1, dtype=np.int64))
        if kind == "merge":
            k = int(rng.integers(1, count))
            e[k] = e[k - 1] + abs(e[k - 1]) * 1e-13
            e.sort()
        elif kind == "prune":
            # a spacing below PRUNE_THRESHOLD, at most 9 * 2**-53
            k = int(rng.integers(count - 1))
            cuts[k] = (cuts[k - 1] if k else 0) + draw(st.sampled_from([0, 1, 9]))
            cuts.sort()
        elif kind == "overflow":
            e[-1] = 1.5e154
        elif kind == "scale":
            e[0] = draw(st.sampled_from([-1.7e308, 1.7e308]))
        p = np.diff(cuts, prepend=0, append=2**53) * 2.0**-53
        assert math.fsum(p) == 1.0
        energies[r, :count] = e
        populations[r, :count] = p
        counts.append(count)
    return energies, populations, np.array(counts)


@settings(max_examples=40, deadline=None)
@given(_stacked_tables())
def test_canonical_rows_are_validate_state_bit_for_bit(tables):
    energies, populations, counts = tables
    kept = set(canonical_rows(energies, populations, counts).tolist())
    outcomes = set()
    for r, count in enumerate(counts.tolist()):
        try:
            want = validate_state(zip(energies[r, :count], populations[r, :count]))
        except ValueError:
            want = None
        if r in kept:
            assert want.energies.tobytes() == energies[r, :count].tobytes(), r
            assert want.populations.tobytes() == populations[r, :count].tobytes(), r
            outcomes.add("whole")
        else:
            # left to validate_state: it refuses the row or drops a level
            assert want is None or want.level_count < count, r
            outcomes.add("refused" if want is None else "fewer")
    assert outcomes == {"whole", "refused", "fewer"}


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


def _lp_one_order(deviations, weights, p):
    """The peak-scaled p-norm of every row, one order at a time."""
    peak = deviations.max(axis=1, initial=0.0)
    if p == 1.0:
        return np.vecdot(weights, deviations).tolist()
    ratio = deviations / np.where(peak == 0.0, 1.0, peak)[:, None]
    scaled = np.vecdot(weights, ratio**p)
    return [
        top * total ** (1.0 / p) if top != 0.0 else 0.0
        for top, total in zip(peak.tolist(), scaled.tolist())
    ]


lp_orders = st.lists(
    st.sampled_from([1.0, 2.0, 4.0, 10.0, 100.0])
    | st.floats(min_value=1.0, max_value=1e3, allow_nan=False),
    min_size=1,
    max_size=7,
)


@settings(max_examples=200)
@given(st.integers(1, 9), st.integers(1, 5), lp_orders, st.integers(0, 2**31))
def test_lp_ladder_matches_a_loop_over_orders_bit_for_bit(levels, count, orders, seed):
    states = [sample_random_state(levels, 3.0, seed + i) for i in range(count)]
    states = [s for s in states if s.level_count == states[0].level_count]
    energies = np.array([s.energies for s in states])
    populations = np.array([s.populations for s in states])
    orders = [float(p) for p in orders]
    rows = moment_rows(energies, populations, orders).lp
    assert [p for p, _, _ in rows] == orders
    for (p, ep, ep_dual) in rows:
        up = _lp_one_order(energies - energies[:, :1], populations, p)
        down = _lp_one_order(energies[:, -1:] - energies, populations, p)
        assert [x.hex() for x in ep.tolist()] == [x.hex() for x in up]
        assert [x.hex() for x in ep_dual.tolist()] == [x.hex() for x in down]
    for r, state in enumerate(states):
        single = energy_moments(state, orders).lp
        assert [(p, ep.hex(), ed.hex()) for p, ep, ed in single] == [
            (p, float(ep[r]).hex(), float(ed[r]).hex()) for p, ep, ed in rows
        ]


@pytest.mark.parametrize("levels", range(1, 9))
def test_moments_take_the_two_call_bits_from_one_stacked_call(levels):
    # _moments forms both ladders in one _lp_norm_rows call on the stacked
    # (2b, L) distances; each must keep the bits of its own call.
    states = [sample_random_state(levels, 3.0, 1000 * levels + i) for i in range(40)]
    states = [s for s in states if s.level_count == levels]
    energies = np.array([s.energies for s in states])
    populations = np.array([s.populations for s in states])
    orders = [1.0, 2.0, 3.5, 4.0, 10.0, 100.0]
    _, _, lp = _moments(energies, populations, orders)
    up = _lp_norm_rows(energies - energies[:, :1], populations, orders)
    down = _lp_norm_rows(energies[:, -1:] - energies, populations, orders)
    assert len(states) > 1
    for (p, ep, ep_dual), p_up, p_down in zip(lp, up, down):
        assert [x.hex() for x in ep] == [x.hex() for x in p_up]
        assert [x.hex() for x in ep_dual] == [x.hex() for x in p_down]


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
    # (sigma / emax) ** 2 would overflow
    for sigma, emax in ((1e308, 1.0), (1e160, 1e-5)):
        with pytest.raises(ValueError, match="sigma <= emax"):
            qutrit_from_moments(0.5 * emax, sigma, 0.5, emax)


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
