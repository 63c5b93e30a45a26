import dataclasses
import hashlib
import itertools
import json
import math

import numpy as np
import pytest

from qslkit.bounds import classify_point
from qslkit.cli import EXIT_OK, run_cli
from qslkit.figures import (
    FLOOR_TOLERANCE,
    MAX_RESOLUTION,
    TraceDataset,
    fig1_dataset,
    fig2_dataset,
    fig3_dataset,
    grid_to_csv,
    grid_to_json,
    trace_dataset,
    trace_to_csv,
    trace_to_json,
)
from qslkit.states import make_qubit, validate_state


def test_balanced_trace_window_ends_at_the_common_bound():
    dataset = trace_dataset(make_qubit(0.5, 1.0))
    assert dataset.metadata["regime"] == "BOUNDARY"
    assert dataset.metadata["t_end"] == pytest.approx(math.pi, rel=1e-12)
    assert dataset.times[0] == 0.0
    assert dataset.overlap_magnitude[0] == pytest.approx(1.0, abs=1e-12)
    assert dataset.overlap_magnitude[-1] == pytest.approx(0.0, abs=1e-9)


def test_trace_window_extends_past_the_largest_finite_bound():
    dataset = trace_dataset(make_qubit(0.2, 1.0))
    assert dataset.metadata["t_end"] == pytest.approx(
        1.05 * math.pi / 0.4, rel=1e-12
    )


def test_trace_floor_invariant_holds():
    dataset = trace_dataset(make_qubit(0.2, 1.0), steps=500)
    floor = np.maximum(
        dataset.mt_curve, np.maximum(dataset.ml_curve, dataset.ml_dual_curve)
    )
    assert np.min(dataset.overlap_magnitude - floor) >= -FLOOR_TOLERANCE


def test_trace_validate_rejects_a_sunken_curve():
    dataset = trace_dataset(make_qubit(0.2, 1.0), steps=100)
    broken = dataclasses.replace(
        dataset, overlap_magnitude=dataset.overlap_magnitude - 0.01
    )
    with pytest.raises(ValueError):
        broken.validate()


def test_trace_requires_a_window_for_stationary_states():
    with pytest.raises(ValueError):
        trace_dataset(validate_state([(0.5, 1.0)]))


def test_fig2_scenarios_cover_the_three_regimes():
    regimes = {
        name: fig2_dataset(name, steps=64).metadata["regime"]
        for name in ("a", "b", "c")
    }
    assert regimes == {"a": "BOUNDARY", "b": "ML", "c": "DUAL_ML"}
    assert fig2_dataset("b", steps=64).metadata["scenario"] == "2b"
    with pytest.raises(ValueError):
        fig2_dataset("d")


def test_fig3_scenarios_cover_the_three_regimes():
    regimes = {
        name: fig3_dataset(name, steps=64).metadata["regime"]
        for name in ("a", "b", "c")
    }
    assert regimes == {"a": "ML", "b": "MT", "c": "DUAL_ML"}


def test_fig3_weights_match_the_moment_inversion():
    dataset = fig3_dataset("b", steps=64)
    weights = [p for _, p in dataset.metadata["levels"]]
    assert weights == pytest.approx([2.0 / 9.0, 5.0 / 9.0, 2.0 / 9.0], abs=1e-12)


def test_trace_csv_layout():
    dataset = trace_dataset(make_qubit(0.5, 1.0), steps=10)
    text = trace_to_csv(dataset)
    lines = text.split("\n")
    assert lines[0] == "times,overlap_magnitude,mt_curve,ml_curve,ml_dual_curve"
    assert len(lines) == 12  # header + 10 rows + trailing newline
    assert lines[1].startswith("0,1,1,")
    assert text == trace_to_csv(dataset)


@pytest.mark.parametrize(
    "make, scenario, to_text, digest",
    [
        (fig2_dataset, "a", trace_to_csv, "e6ac9583bc8287c06dc87fdb1bb27355f203e5eb4064ed35025828f2db009044"),
        (fig2_dataset, "b", trace_to_csv, "4e1913ad2def08a36721f17f2f0acca1b2faca0cfe628df8c63191034e2b524f"),
        (fig2_dataset, "c", trace_to_csv, "ae69a01e91e5b9b8ab5c52c308c4376d8b5e84ca99e7ab534aefdef6837eef0b"),
        (fig3_dataset, "a", trace_to_csv, "6058d7a1656fed9b6e710e5ae15de075a780c746d13f40824aeee9c79a53a0ff"),
        (fig3_dataset, "b", trace_to_csv, "adc504c9127dab3ec812d12c5a3991eb5c556b368a84c1eab3e3fc2fd74fdc6c"),
        (fig3_dataset, "c", trace_to_csv, "ce8c010d921094bed0fad5df236c473ed826cf6baf872fa9004a40bf605b0c00"),
        (fig2_dataset, "b", trace_to_json, "bf84edf93a21773edcebb941758adf63b502c4c330bbf193abc3c8054ad83682"),
    ],
)
def test_trace_bytes_are_pinned(make, scenario, to_text, digest):
    assert _sha256(to_text(make(scenario))) == digest


def test_trace_csv_refuses_nan():
    times = np.linspace(0.0, 1.0, 4)
    ones = np.ones(4)
    dataset = TraceDataset(
        times=times,
        overlap_magnitude=ones,
        mt_curve=np.array([1.0, np.nan, 0.5, 0.25]),
        ml_curve=ones * 0.5,
        ml_dual_curve=ones * 0.5,
    )
    with pytest.raises(ValueError, match=r"mt_curve .* row 1: nan"):
        dataset.validate()
    with pytest.raises(ValueError, match="nan"):
        trace_to_csv(dataset)


def test_trace_json_parses_and_round_trips_floats():
    dataset = trace_dataset(make_qubit(0.5, 1.0), steps=10)
    payload = json.loads(trace_to_json(dataset))
    assert payload["metadata"]["regime"] == "BOUNDARY"
    assert payload["times"][0] == 0.0
    assert len(payload["overlap_magnitude"]) == 10


def test_regime_grid_counts_and_lookup():
    grid = fig1_dataset(resolution=40)
    counts = grid.counts()
    assert sum(counts.values()) == 1600
    # the unreachable region covers 1 - pi/8 of the unit square
    assert counts["FORBIDDEN"] / 1600 == pytest.approx(1.0 - math.pi / 8.0, abs=0.03)
    assert grid.label_at(0.2, 0.45) == "FORBIDDEN"
    assert grid.label_at(0.2, 0.3) == "ML"
    assert grid.label_at(0.5, 0.3) == "MT"
    assert grid.label_at(0.8, 0.3) == "DUAL_ML"
    with pytest.raises(ValueError):
        grid.label_at(1.5, 0.3)


def test_regime_grid_mirror_symmetry():
    grid = fig1_dataset(resolution=25)
    swap = {"ML": "DUAL_ML", "DUAL_ML": "ML"}
    for i in range(25):
        for j in range(25):
            label = grid.cells[i][j]
            mirrored = grid.cells[24 - i][j]
            assert swap.get(label, label) == mirrored


def test_grid_serializers_are_deterministic():
    grid = fig1_dataset(resolution=10)
    assert grid_to_csv(grid) == grid_to_csv(grid)
    payload = json.loads(grid_to_json(grid))
    assert payload["resolution"] == 10
    assert list(payload["counts"]) == ["MT", "ML", "DUAL_ML", "BOUNDARY", "FORBIDDEN"]
    lines = grid_to_csv(grid).split("\n")
    assert lines[0] == "mean_fraction,sigma_fraction,regime"
    assert len(lines) == 102  # header + 100 cells + trailing newline


def _sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_fig1_bytes_are_pinned():
    # The labels are discrete, so any change to these bytes is a change
    # of some cell's regime or of the layout, and must be explained.
    grid = fig1_dataset(resolution=400)
    assert _sha256(grid_to_csv(grid)) == (
        "f53b9714fb55d5db29ab3c9f69d81bae72dde888d7c3be52356a9e998169bffc"
    )
    assert _sha256(grid_to_json(grid)) == (
        "082f6ad4de8fa85e3179c2079af19bd59d186c06ca2b65030d775481dd31c8bb"
    )
    assert _sha256(grid_to_json(fig1_dataset(resolution=10))) == (
        "a52402c95ff9cd0504932beab04c99654512e39df02ea697ce54aadf714468f6"
    )


def test_fig1_cells_match_the_scalar_classifier():
    for resolution in range(2, 61):
        grid = fig1_dataset(resolution=resolution)
        expected = tuple(
            tuple(classify_point(float(e), float(de)).regime for de in grid.de_axis)
            for e in grid.e_axis
        )
        assert grid.cells == expected, resolution


def test_fig1_command_streams_the_bytes_of_grid_to_csv(tmp_path, capsys):
    path = tmp_path / "fig1.csv"
    for resolution in [*range(2, 61), 400]:
        expected = grid_to_csv(fig1_dataset(resolution=resolution))
        assert run_cli(["fig1", "--resolution", str(resolution)]) == EXIT_OK
        assert capsys.readouterr().out == expected, resolution
        argv = ["fig1", "--resolution", str(resolution), "-o", str(path)]
        assert run_cli(argv) == EXIT_OK
        assert path.read_bytes() == expected.encode("utf-8"), resolution


def test_regime_grid_derives_its_labels_from_its_codes():
    grid = fig1_dataset(resolution=40)
    cells = grid.cells
    assert grid.codes.shape == (40, 40)
    assert not grid.codes.flags.writeable
    for (i, e), (j, de) in itertools.product(
        enumerate(grid.e_axis), enumerate(grid.de_axis)
    ):
        assert grid.label_at(e, de) == cells[i][j]
    assert grid.counts() == {
        label: sum(row.count(label) for row in cells)
        for label in ("MT", "ML", "DUAL_ML", "BOUNDARY", "FORBIDDEN")
    }


def test_fig1_refuses_a_resolution_beyond_the_cap():
    for resolution in (1, MAX_RESOLUTION + 1):
        with pytest.raises(ValueError, match="resolution"):
            fig1_dataset(resolution=resolution)
