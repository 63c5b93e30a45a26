"""Spectral-population representation of pure states.

For two-time overlap questions a pure state enters only through its
energy distribution: with populations w_n on eigenvalues E_n,

    <psi_0|psi_t> = sum_n w_n exp(-i E_n t / hbar),

so eigenstate phases never matter and a table of (energy, population)
rows is a complete description.  Everything downstream (bounds, regime
maps, falsification sweeps) consumes the canonical form produced by
:func:`validate_state`: energies strictly increasing, duplicates merged,
negligible populations pruned, populations summing to one.

hbar = 1 throughout; energies are in inverse time units.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._jsonfmt import dumps as _json_dumps

# Canonicalization thresholds.  Merging uses a relative energy tolerance so
# that closely spaced levels at large energy scales behave like duplicates
# at small ones; pruning uses an absolute population floor well below any
# tolerance used in checks.
MERGE_TOL = 1e-12
PRUNE_THRESHOLD = 1e-15
SUM_TOL = 1e-9
_NORMALIZE_ROUNDS = 8


@dataclass(frozen=True)
class SpectralState:
    """Canonical (energy, population) table; build via validate_state."""

    energies: np.ndarray
    populations: np.ndarray

    @property
    def e0(self) -> float:
        return float(self.energies[0])

    @property
    def emax(self) -> float:
        return float(self.energies[-1])

    @property
    def level_count(self) -> int:
        return int(self.energies.shape[0])

    @property
    def levels(self) -> tuple:
        return tuple(
            (float(e), float(p)) for e, p in zip(self.energies, self.populations)
        )

    def to_dict(self) -> dict:
        return {
            "levels": [
                {"energy": float(e), "population": float(p)}
                for e, p in zip(self.energies, self.populations)
            ]
        }


@dataclass(frozen=True)
class EnergyMoments:
    """First and second moments plus the Lp ladder of a spectral state.

    lp holds (p, ep, ep_dual) rows: ep is the p-norm of (H - e0) in the
    population measure, ep_dual the p-norm of (emax - H).
    """

    mean: float
    sigma: float
    e0: float
    emax: float
    bandwidth: float
    lp: tuple = ()

    def to_dict(self) -> dict:
        return {
            "mean": self.mean,
            "sigma": self.sigma,
            "e0": self.e0,
            "emax": self.emax,
            "bandwidth": self.bandwidth,
            "lp": [[p, ep, ep_dual] for (p, ep, ep_dual) in self.lp],
        }


@dataclass(frozen=True)
class OverlapSample:
    """Two-time overlap at a single t."""

    t: float
    value: complex
    magnitude: float
    angle: float

    def to_dict(self) -> dict:
        return {
            "t": self.t,
            "re": self.value.real,
            "im": self.value.imag,
            "magnitude": self.magnitude,
            "angle": self.angle,
        }


def validate_state(levels) -> SpectralState:
    """Canonicalize a table of (energy, population) rows.

    Sorts by energy, merges levels closer than MERGE_TOL * (1 + |E|),
    renormalizes populations whose sum is within SUM_TOL of one, and
    prunes populations below PRUNE_THRESHOLD so the occupied support
    defines e0 and emax.

    Raises ValueError for non-finite energies, negative populations,
    population sums off by more than SUM_TOL, an empty table, or a
    bandwidth emax - e0 whose square overflows (every moment and bound
    downstream would then be inf or nan).
    """
    rows = [(float(e), float(p)) for e, p in levels]
    if not rows:
        raise ValueError("state has no levels")
    for e, p in rows:
        if not math.isfinite(e):
            raise ValueError(f"energy is not finite: {e}")
        if not math.isfinite(p) or p < 0.0:
            raise ValueError(f"population must be finite and >= 0, got {p}")

    rows.sort(key=lambda row: row[0])

    merged: list[list[float]] = []
    for e, p in rows:
        if merged and e - merged[-1][0] <= MERGE_TOL * (1.0 + abs(e)):
            anchor_e, anchor_p = merged[-1]
            total = anchor_p + p
            if total > 0.0:
                merged[-1][0] = (anchor_e * anchor_p + e * p) / total
            else:
                merged[-1][0] = 0.5 * (anchor_e + e)
            merged[-1][1] = total
        else:
            merged.append([e, p])

    total = math.fsum(p for _, p in merged)
    if abs(total - 1.0) > SUM_TOL:
        raise ValueError(
            f"populations must sum to 1 within {SUM_TOL:g}, got {total!r}"
        )
    kept = [(e, p / total) for e, p in merged if p / total >= PRUNE_THRESHOLD]
    if not kept:
        raise ValueError("state is empty after pruning negligible populations")

    bandwidth = kept[-1][0] - kept[0][0]
    if not math.isfinite(bandwidth * bandwidth):
        raise ValueError(
            f"state bandwidth emax - e0 = {bandwidth!r} is too large: "
            "its square overflows"
        )

    energies = np.array([e for e, _ in kept], dtype=np.float64)
    populations = np.array([p for _, p in kept], dtype=np.float64)
    # Move the rounding residual onto the largest population until the sum
    # is exactly one, so that validating a validated state divides by 1.0
    # and changes no bit.
    populations = populations / math.fsum(populations)
    for _ in range(_NORMALIZE_ROUNDS):
        total = math.fsum(populations)
        if total == 1.0:
            break
        populations[np.argmax(populations)] += 1.0 - total
    return SpectralState(energies=energies, populations=populations)


def _lp_norm_rows(deviations: np.ndarray, weights: np.ndarray, p_list) -> list:
    """Weighted p-norm of every row for each p of p_list, stable for large p
    via peak scaling: one list of Python floats per p.

    The last root stays a Python float pow: numpy's array power rounds
    differently from it on some values.
    """
    peak = deviations.max(axis=1, initial=0.0)
    ratio = deviations / np.where(peak == 0.0, 1.0, peak)[:, None]
    norms = []
    for p in p_list:
        if p == 1.0:
            norms.append(np.vecdot(weights, deviations).tolist())
            continue
        scaled = np.vecdot(weights, ratio**p)
        norms.append(
            [
                top * total ** (1.0 / p) if top != 0.0 else 0.0
                for top, total in zip(peak.tolist(), scaled.tolist())
            ]
        )
    return norms


def _moments(energies: np.ndarray, populations: np.ndarray, p_list):
    """Mean and sigma ((b,) arrays) and the Lp ladder (rows (p, ep, ep_dual)
    of lists) of stacked states; see moment_rows."""
    w = populations
    e = energies
    mean = np.vecdot(w, e)
    var = np.vecdot(w, (e - mean[:, None]) ** 2)
    sigma = np.sqrt(var, out=np.zeros(var.shape), where=var > 0.0)

    p_list = [float(p) for p in p_list]
    for p in p_list:
        if not math.isfinite(p) or p < 1.0:
            raise ValueError(f"lp order must be a finite real >= 1, got {p}")
    lp = ()
    if p_list:
        lp = zip(
            p_list,
            _lp_norm_rows(e - e[:, :1], w, p_list),
            _lp_norm_rows(e[:, -1:] - e, w, p_list),
        )
    return mean, sigma, lp


def moment_rows(energies: np.ndarray, populations: np.ndarray, p_list=()) -> EnergyMoments:
    """Mean, spread, band edges, and optional Lp ladder of stacked states.

    energies and populations are C-contiguous (b, L) arrays, one canonical
    state per row.  Every float field of the result is a (b,) array, and
    each lp row is (p, ep, ep_dual) with (b,) arrays.  p_list entries must
    be finite reals >= 1.  Row r carries the bits that energy_moments
    gives state r: np.vecdot takes the dot product np.dot takes on a
    contiguous row, whatever the row count.
    """
    mean, sigma, lp = _moments(energies, populations, p_list)
    e0 = energies[:, 0]
    emax = energies[:, -1]
    return EnergyMoments(
        mean=mean,
        sigma=sigma,
        e0=e0,
        emax=emax,
        bandwidth=emax - e0,
        lp=tuple((p, np.array(ep), np.array(ep_dual)) for p, ep, ep_dual in lp),
    )


def energy_moments(state: SpectralState, p_list=()) -> EnergyMoments:
    """Mean, spread, band edges, and optional Lp ladder of a state.

    p_list entries must be finite reals >= 1; each yields a row
    (p, ep, ep_dual) in the result's lp field.  The state goes through
    moment_rows' arithmetic as a single row.
    """
    mean, sigma, lp = _moments(state.energies[None], state.populations[None], p_list)
    e0, emax = state.e0, state.emax
    return EnergyMoments(
        mean=float(mean[0]),
        sigma=float(sigma[0]),
        e0=e0,
        emax=emax,
        bandwidth=emax - e0,
        lp=tuple((p, ep[0], ep_dual[0]) for p, ep, ep_dual in lp),
    )


def overlap(state: SpectralState, t: float) -> OverlapSample:
    """Two-time overlap sum_n w_n exp(-i E_n t) at time t."""
    phases = state.energies * float(t)
    re = float(np.dot(state.populations, np.cos(phases)))
    im = -float(np.dot(state.populations, np.sin(phases)))
    magnitude = math.hypot(re, im)
    angle = math.acos(min(magnitude, 1.0))
    return OverlapSample(t=float(t), value=complex(re, im), magnitude=magnitude, angle=angle)


def dual_rows(energies: np.ndarray, populations: np.ndarray):
    """Reflect stacked spectra, one state per (b, L) row, about the
    midpoints of their occupied bands: (energies, populations).

    Both results are C-contiguous, so moment_rows of them carries the
    bits each dual state gets alone.
    """
    pivot = energies[:, 0] + energies[:, -1]
    return pivot[:, None] - energies[:, ::-1], populations[:, ::-1].copy()


def dual_state(state: SpectralState) -> SpectralState:
    """Reflect the spectrum about the midpoint of its occupied band.

    Populations ride along unchanged, so the mean gap to the top and
    bottom edges swap while sigma, the bandwidth, and |overlap(t)| are
    preserved.  Applying the reflection twice returns the original state
    (up to one rounding of each energy).  This is dual_rows of the one
    state.
    """
    energies, populations = dual_rows(state.energies[None], state.populations[None])
    return SpectralState(energies=energies[0], populations=populations[0])


def make_qubit(p1: float, emax: float) -> SpectralState:
    """Two-level state with population p1 on the excited level at emax."""
    p1 = float(p1)
    emax = float(emax)
    if not 0.0 <= p1 <= 1.0:
        raise ValueError(f"p1 must lie in [0, 1], got {p1}")
    if not (math.isfinite(emax) and emax > 0.0):
        raise ValueError(f"emax must be a positive finite real, got {emax}")
    return validate_state([(0.0, 1.0 - p1), (emax, p1)])


def qutrit_from_moments(
    mean: float, sigma: float, eta: float, emax: float
) -> SpectralState:
    """Three-level state at energies (0, eta*emax, emax) matching (mean, sigma).

    Inverts the two moment equations for the level populations.  The pair
    is rejected when any implied population is negative, which is exactly
    the infeasibility condition for this level layout.
    """
    mean = float(mean)
    sigma = float(sigma)
    eta = float(eta)
    emax = float(emax)
    if not (math.isfinite(emax) and emax > 0.0):
        raise ValueError(f"emax must be a positive finite real, got {emax}")
    if not 0.0 < eta < 1.0:
        raise ValueError(f"eta must lie strictly inside (0, 1), got {eta}")
    if not (math.isfinite(mean) and math.isfinite(sigma)) or sigma < 0.0:
        raise ValueError(f"moments must be finite with sigma >= 0, got ({mean}, {sigma})")

    eps = mean / emax
    var = (sigma / emax) ** 2
    w1 = ((1.0 - eps) * eps - var) / ((1.0 - eta) * eta)
    w2 = ((eps - eta) * eps + var) / (1.0 - eta)
    w0 = 1.0 - w1 - w2

    weights = [(0.0, w0), (eta * emax, w1), (emax, w2)]
    feas_tol = 1e-12
    for energy, w in weights:
        if w < -feas_tol:
            raise ValueError(
                f"moments ({mean}, {sigma}) are infeasible for eta={eta}: "
                f"population at energy {energy} would be {w}"
            )
    return validate_state([(e, max(w, 0.0)) for e, w in weights])


def sample_random_state(level_count: int, emax: float, seed: int) -> SpectralState:
    """Random state: energies uniform on [0, emax], populations uniform
    on the simplex (normalized exponentials).  Deterministic per seed."""
    if level_count < 1:
        raise ValueError(f"level_count must be >= 1, got {level_count}")
    if not (math.isfinite(emax) and emax > 0.0):
        raise ValueError(f"emax must be a positive finite real, got {emax}")
    rng = np.random.default_rng(seed)
    energies = np.sort(rng.uniform(0.0, emax, size=level_count))
    raw = rng.exponential(1.0, size=level_count)
    populations = raw / raw.sum()
    return validate_state(zip(energies, populations))


def state_to_json(state: SpectralState) -> str:
    """Serialize to the on-disk state format (ascending energies)."""
    return _json_dumps(state.to_dict())


def state_from_json(text: str) -> SpectralState:
    import json

    try:
        # Integers parse as floats, so a huge one becomes inf (and is then
        # refused as not finite) instead of overflowing float() later.
        doc = json.loads(text, parse_int=float)
    except json.JSONDecodeError as exc:
        raise ValueError(f"state JSON is malformed: {exc}") from None
    if not isinstance(doc, dict) or "levels" not in doc:
        raise ValueError("state JSON must be an object with a 'levels' array")
    rows = doc["levels"]
    if not isinstance(rows, list):
        raise ValueError("state JSON field 'levels' must be an array")
    pairs = []
    for i, row in enumerate(rows):
        if not isinstance(row, dict) or "energy" not in row or "population" not in row:
            raise ValueError(
                f"state JSON level {i} must carry 'energy' and 'population'"
            )
        for field in ("energy", "population"):
            value = row[field]
            if not isinstance(value, float):
                raise ValueError(
                    f"state JSON level {i} field '{field}' must be a number, "
                    f"got {value!r}"
                )
        pairs.append((row["energy"], row["population"]))
    return validate_state(pairs)


def load_state(path) -> SpectralState:
    with open(path, "r", encoding="utf-8") as fh:
        return state_from_json(fh.read())


def save_state(state: SpectralState, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(state_to_json(state))
