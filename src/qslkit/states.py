"""Spectral-population representation of pure states.

For two-time overlap questions a pure state enters only through its
energy distribution: with populations w_n on eigenvalues E_n,

    <psi_0|psi_t> = sum_n w_n exp(-i E_n t / hbar),

so eigenstate phases never matter and a table of (energy, population)
rows is a complete description.  Everything downstream (bounds, regime
maps, falsification sweeps) consumes the canonical form produced by
:func:`validate_state`: energies strictly increasing, duplicates merged,
negligible populations pruned, populations summing to one.  Each of its
conditions is one helper for a float or an array (_would_merge,
_negligible, _square_overflows, _energy_scale_overflows), so
:func:`canonical_rows`, which picks the rows of the sweep's stacked tables
that are already canonical, applies the same definitions.

hbar = 1 throughout; energies are in inverse time units.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from operator import itemgetter

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


def _levels_document(levels) -> dict:
    """The state document {"levels": [{"energy", "population"}]} of (e, p) rows."""
    return {"levels": [{"energy": e, "population": p} for e, p in levels]}


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
        return _levels_document(self.levels)


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
        return asdict(self)


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


# The conditions of the canonical form, each written once for a float or
# an array: validate_state tests one table, canonical_rows stacked ones.
def _would_merge(lower, upper):
    """Ascending levels lower <= upper closer than MERGE_TOL * (1 + |upper|)."""
    return upper - lower <= MERGE_TOL * (1.0 + abs(upper))


def _negligible(population):
    return population < PRUNE_THRESHOLD


def _square_overflows(bandwidth):
    """A band width emax - e0 >= 0 whose square is inf."""
    return bandwidth * bandwidth == math.inf


def _energy_scale_overflows(e0, emax):
    """Band ends whose |e0| + |emax| is inf: the energy scale of the
    rounding allowances (bounds._gap_rounding) and the pivot e0 + emax of
    the dual state would overflow."""
    with np.errstate(over="ignore"):
        return abs(e0) + abs(emax) == math.inf


def _fsum(values) -> float:
    """math.fsum of values >= 0, or inf where their exact sum overflows."""
    try:
        return math.fsum(values)
    except OverflowError:
        return math.inf


def _normalized(populations):
    """Populations over their exact sum, the rounding residual then moved
    onto the largest entry until the exact sum is one (adding 0.0 to a
    table that is changes no bit), so that validating a validated state
    divides by 1.0 and changes no bit."""
    populations = populations / _fsum(populations.tolist())
    for _ in range(_NORMALIZE_ROUNDS):
        residual = 1.0 - _fsum(populations.tolist())
        if not residual:
            break
        populations[populations.argmax()] += residual
    return populations


def validate_state(levels) -> SpectralState:
    """Canonicalize a table of (energy, population) rows.

    Sorts by energy, merges levels closer than MERGE_TOL * (1 + |E|)
    (_would_merge), renormalizes populations whose sum is within SUM_TOL
    of one (_normalized), and prunes populations below
    PRUNE_THRESHOLD (_negligible) so the occupied support defines e0 and
    emax.  canonical_rows shares these helpers.

    Raises ValueError for non-finite energies, negative populations,
    population sums off by more than SUM_TOL, an empty table, or a
    bandwidth emax - e0 whose square overflows (_square_overflows: every
    moment and bound downstream would then be inf or nan), or energies
    whose |e0| + |emax| overflows (_energy_scale_overflows).
    """
    rows = [(float(e), float(p)) for e, p in levels]
    if not rows:
        raise ValueError("state has no levels")
    for e, p in rows:
        if not math.isfinite(e):
            raise ValueError(f"energy is not finite: {e}")
        if not math.isfinite(p) or p < 0.0:
            raise ValueError(f"population must be finite and >= 0, got {p}")

    rows.sort(key=itemgetter(0))

    merged: list[list[float]] = []
    for e, p in rows:
        if merged and _would_merge(merged[-1][0], e):
            anchor_e, anchor_p = merged[-1]
            total = anchor_p + p
            if total > 0.0:
                merged[-1][0] = (anchor_e * anchor_p + e * p) / total
            else:
                merged[-1][0] = 0.5 * (anchor_e + e)
            merged[-1][1] = total
        else:
            merged.append([e, p])

    total = _fsum(p for _, p in merged)
    if abs(total - 1.0) > SUM_TOL:
        raise ValueError(
            f"populations must sum to 1 within {SUM_TOL:g}, got {total!r}"
        )
    kept = [(e, share) for e, p in merged if not _negligible(share := p / total)]
    if not kept:
        raise ValueError("state is empty after pruning negligible populations")

    bandwidth = kept[-1][0] - kept[0][0]
    if _square_overflows(bandwidth):
        raise ValueError(
            f"state bandwidth emax - e0 = {bandwidth!r} is too large: "
            "its square overflows"
        )
    if _energy_scale_overflows(kept[0][0], kept[-1][0]):
        raise ValueError(
            f"state energies e0 = {kept[0][0]!r} and emax = {kept[-1][0]!r} are too "
            "large: |e0| + |emax| overflows"
        )

    energies = np.array([e for e, _ in kept], dtype=np.float64)
    populations = _normalized(np.array([p for _, p in kept], dtype=np.float64))
    return SpectralState(energies=energies, populations=populations)


def canonical_rows(energies, populations, level_counts):
    """The rows of stacked tables that validate_state keeps whole, in array passes.

    Row r of the (b, W) arrays is a table of level_counts[r] levels, finite
    ascending energies and populations whose exact sum is one, padded with
    zeros.  validate_state divides such a table by 1.0 and finds no
    residual, so it changes no bit of a row that it neither merges, prunes
    nor refuses.  Returns the indices of those rows.
    """
    levels = np.arange(populations.shape[1]) < level_counts[:, None]
    e0, emax = energies[:, 0], energies[np.arange(len(energies)), level_counts - 1]
    with np.errstate(over="ignore"):
        whole = ~(_square_overflows(emax - e0) | _energy_scale_overflows(e0, emax))
    whole &= ~(_would_merge(energies[:, :-1], energies[:, 1:]) & levels[:, 1:]).any(axis=1)
    whole &= ~(_negligible(populations) & levels).any(axis=1)
    return np.flatnonzero(whole)


def _lp_norm_rows(deviations: np.ndarray, weights: np.ndarray, p_list) -> list:
    """Weighted p-norm of every row for each p of p_list, stable for large p
    via peak scaling: one list of Python floats per p.

    Every order other than 1 and 2 is raised in one stacked power, whose
    elements take the pow calls a power per order takes.  p = 2 stays on
    numpy's scalar square, whose bits pow does not always give.  The last
    root stays a Python float pow: numpy's array power rounds differently
    from it on some values.
    """
    peak = deviations.max(axis=1, initial=0.0)
    ratio = deviations / np.where(peak == 0.0, 1.0, peak)[:, None]
    others = [p for p in dict.fromkeys(p_list) if p != 1.0 and p != 2.0]
    totals = {}
    if others:
        stacked = ratio ** np.array(others)[:, None, None]
        totals = dict(zip(others, np.vecdot(weights, stacked).tolist()))
    if 2.0 in p_list:
        totals[2.0] = np.vecdot(weights, ratio**2.0).tolist()
    peaks = peak.tolist()
    norms = []
    for p in p_list:
        if p == 1.0:
            norms.append(np.vecdot(weights, deviations).tolist())
            continue
        norms.append(
            [
                top * total ** (1.0 / p) if top != 0.0 else 0.0
                for top, total in zip(peaks, totals[p])
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
        # Distances from the bottom, then from the top, of each band in one
        # call: every row's norms are its own, whatever rows share the call.
        b = len(e)
        norms = _lp_norm_rows(
            np.concatenate((e - e[:, :1], e[:, -1:] - e)), np.concatenate((w, w)), p_list
        )
        lp = [(p, rows[:b], rows[b:]) for p, rows in zip(p_list, norms)]
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


def _check_distinct_levels(energies, fields: str) -> None:
    """Refuse generated levels (ascending) that validate_state would merge.

    fields names the inputs that placed the levels.  A merge would quietly
    hand back a state with fewer levels, down to a single one with sigma 0.
    """
    for lower, upper in zip(energies, energies[1:]):
        if _would_merge(lower, upper):
            raise ValueError(
                f"{fields} puts levels at {lower!r} and {upper!r}, closer than "
                f"MERGE_TOL * (1 + |E|) with MERGE_TOL={MERGE_TOL:g}: they would merge"
            )


def make_qubit(p1: float, emax: float) -> SpectralState:
    """Two-level state with population p1 on the excited level at emax."""
    p1 = float(p1)
    emax = float(emax)
    if not 0.0 <= p1 <= 1.0:
        raise ValueError(f"p1 must lie in [0, 1], got {p1}")
    if not (math.isfinite(emax) and emax > 0.0):
        raise ValueError(f"emax must be a positive finite real, got {emax}")
    _check_distinct_levels((0.0, emax), f"emax={emax!r}")
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
    # Every state on [0, emax] has sigma <= emax / 2; it keeps (sigma / emax) ** 2 finite.
    if not (math.isfinite(mean) and 0.0 <= sigma <= emax):
        raise ValueError(f"moments must be finite with 0 <= sigma <= emax, got ({mean}, {sigma})")
    _check_distinct_levels((0.0, eta * emax, emax), f"emax={emax!r} with eta={eta!r}")

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


def _check_sample_args(level_count: int, emax: float) -> None:
    """sample_random_state's refusals: a level count below one, and a band
    [0, emax] that is not finite, too narrow to hold two distinct levels,
    or so high that a state near its top has |e0| + |emax| overflowing."""
    if level_count < 1:
        raise ValueError(f"level_count must be >= 1, got {level_count}")
    if not (math.isfinite(emax) and emax > 0.0):
        raise ValueError(f"emax must be a positive finite real, got {emax}")
    _check_distinct_levels((0.0, emax), f"emax={emax!r}")
    if _energy_scale_overflows(emax, emax):
        raise ValueError(
            f"emax={emax!r} is too large: a state near the top of [0, emax] "
            "has |e0| + |emax| overflowing"
        )


def sample_random_state(level_count: int, emax: float, seed) -> SpectralState:
    """Random state: energies uniform on [0, emax], populations uniform
    on the simplex (normalized exponentials).  Deterministic per seed,
    which is anything np.random.default_rng takes; a Generator is drawn
    from as it stands.
    A band [0, emax] too narrow to hold two distinct levels is refused.
    A sweep draws its states from the same distribution by another
    construction, uniform spacings, from its own stream (see
    verify._sample_range)."""
    _check_sample_args(level_count, emax)
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
