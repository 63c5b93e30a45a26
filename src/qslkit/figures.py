"""Reference datasets behind the library's standard plots.

Everything here is emitted as plain CSV or JSON; plotting is left to the
caller.  Trace datasets pair the exact overlap magnitude with the three
certified floors so a plot (or a test) can confirm the floors never
cross the curve.  The regime grid maps the reachable (mean, deviation)
square to the bound that governs each cell.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import _kernels
from ._jsonfmt import Verbatim, dumps, format_float, format_rows
from .bounds import (
    _MAP_LABELS,
    BOUNDARY,
    DUAL_ML,
    FORBIDDEN,
    ML,
    MT,
    bound_set,
    classify_regime,
    ml_angle_term,
    mt_angle_term,
    regime_codes,
)
from .states import (
    SpectralState,
    energy_moments,
    make_qubit,
    qutrit_from_moments,
)
from .verify import check_grid_size

_LABEL_ORDER = (MT, ML, DUAL_ML, BOUNDARY, FORBIDDEN)

# A trace may dip below the stated floors by at most the linear-model
# defect, (pi/2) * 5e-4 rad of angle; 1e-3 in magnitude covers it.
FLOOR_TOLERANCE = 1e-3

# Largest fig1 resolution: 2000**2 = 4e6 cells, 25 times the default
# 400**2 grid.  Memory grows with the cell count: at 1000 the CSV is
# 43 MB and building it peaks near 95 MB, so at 2000 it is about 175 MB
# with a peak near 400 MB.  A finer grid would need gigabytes, and no
# plot of the square can show it.
MAX_RESOLUTION = 2000


@dataclass(frozen=True)
class TraceDataset:
    """Overlap magnitude against its three certified floors."""

    times: np.ndarray
    overlap_magnitude: np.ndarray
    mt_curve: np.ndarray
    ml_curve: np.ndarray
    ml_dual_curve: np.ndarray
    metadata: dict = field(default_factory=dict)

    def validate(self) -> None:
        columns = {
            "times": self.times,
            "overlap_magnitude": self.overlap_magnitude,
            "mt_curve": self.mt_curve,
            "ml_curve": self.ml_curve,
            "ml_dual_curve": self.ml_dual_curve,
        }
        n = len(self.times)
        if n < 2 or any(len(a) != n for a in columns.values()):
            raise ValueError("trace arrays must share a length of at least 2")
        # A nan compares false, so the ordering and floor tests below
        # would let it by.
        for name, values in columns.items():
            finite = np.isfinite(values)
            if not finite.all():
                row = int(np.argmin(finite))
                raise ValueError(
                    f"trace column {name} is not finite at row {row}: {values[row]}"
                )
        if not np.all(np.diff(self.times) > 0.0):
            raise ValueError("times must be strictly increasing")
        floor = np.maximum(
            self.mt_curve, np.maximum(self.ml_curve, self.ml_dual_curve)
        )
        deficit = self.overlap_magnitude - floor
        worst = int(np.argmin(deficit))
        if deficit[worst] < -FLOOR_TOLERANCE:
            raise ValueError(
                "overlap magnitude falls below a certified floor by "
                f"{-deficit[worst]} at t={self.times[worst]}"
            )


def trace_dataset(
    state: SpectralState, t_end: Optional[float] = None, steps: int = 2000
) -> TraceDataset:
    """Sample the overlap and its floors on [0, t_end].

    When t_end is omitted the window ends at tau_qsl if every elementary
    time is finite and agrees (the boundary case), otherwise at 1.05
    times the largest finite one.  steps must lie in [2, MAX_SCAN_POINTS]
    and is checked before anything is computed.
    """
    check_grid_size("steps", steps)
    moments = energy_moments(state)
    bounds = bound_set(state, p_grid=())
    regime = classify_regime(moments, with_crossover=False).regime
    if t_end is None:
        finite = [
            tau
            for tau in (bounds.tau_mt, bounds.tau_ml, bounds.tau_ml_dual)
            if math.isfinite(tau)
        ]
        if not finite:
            raise ValueError(
                "every bound is infinite for this state; pass t_end"
            )
        if regime == BOUNDARY and len(finite) == 3:
            t_end = bounds.tau_qsl
        else:
            t_end = 1.05 * max(finite)
    if not (math.isfinite(t_end) and t_end > 0.0):
        raise ValueError(f"t_end must be positive and finite, got {t_end}")

    times = np.linspace(0.0, float(t_end), steps)
    mags = _kernels.overlap_magnitudes(state.energies, state.populations, times)
    dataset = TraceDataset(
        times=times,
        overlap_magnitude=mags,
        mt_curve=np.cos(mt_angle_term(times, bounds.tau_mt)),
        ml_curve=np.cos(ml_angle_term(times, bounds.tau_ml)),
        ml_dual_curve=np.cos(ml_angle_term(times, bounds.tau_ml_dual)),
        metadata={
            "regime": regime,
            "t_end": float(t_end),
            "steps": steps,
            "tau_mt": bounds.tau_mt,
            "tau_ml": bounds.tau_ml,
            "tau_ml_dual": bounds.tau_ml_dual,
            "tau_bw": bounds.tau_bw,
            "tau_qsl": bounds.tau_qsl,
            "levels": [list(pair) for pair in state.levels],
        },
    )
    dataset.validate()
    return dataset


_FIG2_P1 = {"a": 0.5, "b": 0.2, "c": 0.8}

_FIG3_MOMENTS = {
    "a": (1.0 / 6.0, 1.0 / 3.0),
    "b": (0.5, 1.0 / 3.0),
    "c": (5.0 / 6.0, 5.0 / 18.0),
}


def fig2_dataset(scenario: str, steps: int = 2000) -> TraceDataset:
    """Two-level traces: a balanced, b bottom-heavy, c top-heavy."""
    if scenario not in _FIG2_P1:
        raise ValueError(f"scenario must be one of a, b, c, got {scenario!r}")
    state = make_qubit(_FIG2_P1[scenario], 1.0)
    dataset = trace_dataset(state, steps=steps)
    dataset.metadata["scenario"] = f"2{scenario}"
    return dataset


def fig3_dataset(scenario: str, steps: int = 2000) -> TraceDataset:
    """Three-level traces spanning one scenario per non-trivial regime."""
    if scenario not in _FIG3_MOMENTS:
        raise ValueError(f"scenario must be one of a, b, c, got {scenario!r}")
    mean, sigma = _FIG3_MOMENTS[scenario]
    state = qutrit_from_moments(mean, sigma, 0.5, 1.0)
    dataset = trace_dataset(state, steps=steps)
    dataset.metadata["scenario"] = f"3{scenario}"
    return dataset


@dataclass(frozen=True)
class RegimeGrid:
    """Regime label per cell of the normalized (mean, deviation) square.

    codes[i, j] is the regime code (see bounds.regime_codes) of the cell at
    e_axis[i], de_axis[j]; cells spells the same grid out as labels.
    """

    e_axis: np.ndarray
    de_axis: np.ndarray
    codes: np.ndarray
    resolution: int

    @property
    def cells(self) -> tuple:
        return tuple(map(tuple, _MAP_LABELS[self.codes].tolist()))

    def label_at(self, e: float, de: float) -> str:
        if not (0.0 < e < 1.0 and 0.0 < de < 1.0):
            raise ValueError(f"point ({e}, {de}) is outside the open square")
        i = min(int(e * self.resolution), self.resolution - 1)
        j = min(int(de * self.resolution), self.resolution - 1)
        return _MAP_LABELS[self.codes[i, j]]

    def counts(self) -> dict:
        tally = np.bincount(self.codes.ravel(), minlength=len(_MAP_LABELS))
        counts = dict.fromkeys(_LABEL_ORDER, 0)
        for label, count in zip(_MAP_LABELS, tally.tolist()):
            counts[label] += count
        return counts


def fig1_dataset(resolution: int = 400) -> RegimeGrid:
    """Classify every cell center of the unit (mean, deviation) square.

    Energies are normalized to [0, 1], so a cell is reachable only when
    de <= sqrt(e * (1 - e)); the rest of the square is labeled FORBIDDEN.
    The whole grid is classified in one array pass (bounds.regime_codes),
    which labels each cell exactly as bounds.classify_point would, and the
    grid keeps those integer codes, not label strings.  That pass and the
    CSV built from it grow with resolution**2, so a resolution above
    MAX_RESOLUTION is refused before anything is allocated.
    """
    if resolution < 2:
        raise ValueError(f"resolution must be >= 2, got {resolution}")
    if resolution > MAX_RESOLUTION:
        raise ValueError(
            f"resolution must be <= MAX_RESOLUTION={MAX_RESOLUTION}, got {resolution}"
        )
    centers = (np.arange(resolution) + 0.5) / resolution
    codes = regime_codes(centers[:, None], centers[None, :])
    codes.setflags(write=False)
    return RegimeGrid(
        e_axis=centers,
        de_axis=centers.copy(),
        codes=codes,
        resolution=resolution,
    )


def trace_to_csv(dataset: TraceDataset) -> str:
    dataset.validate()
    table = np.column_stack(
        (
            dataset.times,
            dataset.overlap_magnitude,
            dataset.mt_curve,
            dataset.ml_curve,
            dataset.ml_dual_curve,
        )
    )
    return (
        "times,overlap_magnitude,mt_curve,ml_curve,ml_dual_curve\n"
        + format_rows(table)
    )


def trace_to_json(dataset: TraceDataset) -> str:
    dataset.validate()
    return dumps(
        {
            "metadata": dataset.metadata,
            "times": list(dataset.times),
            "overlap_magnitude": list(dataset.overlap_magnitude),
            "mt_curve": list(dataset.mt_curve),
            "ml_curve": list(dataset.ml_curve),
            "ml_dual_curve": list(dataset.ml_dual_curve),
        }
    )


def grid_csv_chunks(grid: RegimeGrid):
    """The fig1 CSV as text chunks: the header, then one chunk per mean.

    The text "de,label" of every (de, regime code) pair is formatted once;
    each chunk joins the pieces its row of codes picks, so only one row's
    lines are held as separate strings at a time.
    """
    yield "mean_fraction,sigma_fraction,regime\n"
    de_text = [format_float(de) for de in grid.de_axis]
    pieces = np.array(
        [[f"{de},{label}" for de in de_text] for label in _MAP_LABELS], dtype=object
    )
    columns = np.arange(grid.resolution)
    for e, codes in zip(grid.e_axis, grid.codes):
        prefix = format_float(e) + ","
        yield prefix + ("\n" + prefix).join(pieces[codes, columns].tolist()) + "\n"


def grid_to_csv(grid: RegimeGrid) -> str:
    return "".join(grid_csv_chunks(grid))


def grid_to_json(grid: RegimeGrid) -> str:
    counts = grid.counts()
    # The labels are fixed ASCII constants that need no escaping, so each
    # row is written in one join instead of label by label.
    rows = [Verbatim('["' + '", "'.join(row) + '"]') for row in grid.cells]
    return dumps(
        {
            "resolution": grid.resolution,
            "e_axis": list(grid.e_axis),
            "de_axis": list(grid.de_axis),
            "cells": rows,
            "counts": {label: counts[label] for label in _LABEL_ORDER},
        }
    )
