"""Falsification harness: independent checks of every certified bound.

The production formulas in :mod:`qslkit.bounds` are closed-form; the
routines here attack them from the numerical side.  ``a_of_q`` rebuilds
the tangency construction behind the sqrt-type bound from its defining
equations, ``xi_oracle`` turns that construction into a tight correction
factor to compare against the linear model, and ``falsification_sweep``
hammers randomly sampled states with every inequality the library
promises.  Violations are data to report, not exceptions to raise.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from . import _kernels
from ._kernels import HALF_PI
from .bounds import (
    DEFAULT_P_GRID,
    bound_set,
    bounds_from_moments,
    popoviciu,
    xi,
)
from .states import (
    SpectralState,
    dual_state,
    energy_moments,
    sample_random_state,
)

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
_INV_PHI2 = (3.0 - math.sqrt(5.0)) / 2.0

# Largest time grid any scan builds: the finder's (50000 tau_bw of horizon
# at step tau_bw / 20), the sweep's envelope scan and a trace.  A direct
# overlap pass over it needs about 24 MB of temporaries per energy level.
MAX_SCAN_POINTS = 1_000_000

# Most worker processes a sweep starts.  Each holds a full interpreter
# and numpy, and a sweep only partitions its sample range among them, so
# more workers than cores buy nothing.
MAX_WORKERS = 64

# Default comparison grid for xi_oracle vs the linear model.
XI_GRID = tuple(round(0.05 * k, 2) for k in range(1, 21))

# Fixed grid on which a_of_q checks that its tangent line dominates
# 1 - cos(x).  It does not depend on q, so it is built once, read-only.
_DOMINATION_X = np.linspace(0.0, 4.0 * math.pi, 4001)
_DOMINATION_SIN = np.sin(_DOMINATION_X)
_DOMINATION_RISE = 1.0 - np.cos(_DOMINATION_X)
for _grid in (_DOMINATION_X, _DOMINATION_SIN, _DOMINATION_RISE):
    _grid.setflags(write=False)
del _grid


@dataclass(frozen=True)
class TangencySolution:
    """Tangent-line parameters (a, x_star) for one mixing weight q."""

    q: float
    a: float
    x_star: float
    residuals: tuple

    def to_dict(self) -> dict:
        return {
            "q": self.q,
            "a": self.a,
            "x_star": self.x_star,
            "residuals": list(self.residuals),
        }


def a_of_q(q: float) -> TangencySolution:
    """Smallest slope a such that a*x + q*sin(x) >= 1 - cos(x) for x >= 0.

    Solves the tangency system
        sin(x) = a + q cos(x)
        1 - cos(x) = a x + q sin(x)
    by bisecting for the touch point x_star in (pi/2, 2 pi).  The returned
    solution is re-verified: both residuals must sit below 1e-10 and the
    line must dominate 1 - cos(x) on the fixed grid
    np.linspace(0, 4 pi, 4001), whose sines and cosines are computed once,
    at import.
    """
    q = float(q)
    if q < 0.0 or not math.isfinite(q):
        raise ValueError(f"q must be a finite real >= 0, got {q}")

    def gap(x: float) -> float:
        s, c = math.sin(x), math.cos(x)
        return 1.0 - c - x * (s - q * c) - q * s

    lo = HALF_PI
    hi = 2.0 * math.pi - 1e-9
    g_lo, g_hi = gap(lo), gap(hi)
    if not (g_lo < 0.0 < g_hi):
        raise RuntimeError(
            f"tangency bracket failed for q={q}: gap({lo})={g_lo}, gap({hi})={g_hi}"
        )
    while hi - lo > 1e-13:
        mid = 0.5 * (lo + hi)
        if gap(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    x_star = 0.5 * (lo + hi)
    s, c = math.sin(x_star), math.cos(x_star)
    a = s - q * c

    r1 = abs(s - a - q * c)
    r2 = abs(1.0 - c - a * x_star - q * s)
    if max(r1, r2) > 1e-10:
        raise RuntimeError(
            f"tangency residuals too large for q={q}: {r1}, {r2}"
        )

    margin = a * _DOMINATION_X + q * _DOMINATION_SIN - _DOMINATION_RISE
    worst = float(margin.min())
    if worst < -1e-9:
        raise RuntimeError(
            f"tangent line fails to dominate for q={q}: min margin {worst}"
        )

    return TangencySolution(q=q, a=a, x_star=x_star, residuals=(r1, r2))


_a_cache: dict = {}


def _a_value(q: float) -> float:
    a = _a_cache.get(q)
    if a is None:
        a = a_of_q(q).a
        _a_cache[q] = a
    return a


def _golden_max(func, lo: float, hi: float, tol: float = 1e-10) -> float:
    h = hi - lo
    c = lo + _INV_PHI2 * h
    d = lo + _INV_PHI * h
    yc, yd = func(c), func(d)
    while h > tol:
        if yc > yd:
            hi, d, yd = d, c, yc
            h *= _INV_PHI
            c = lo + _INV_PHI2 * h
            yc = func(c)
        else:
            lo, c, yc = c, d, yd
            h *= _INV_PHI
            d = lo + _INV_PHI * h
            yd = func(d)
    return 0.5 * (lo + hi)


def xi_oracle(x: float) -> float:
    """Tight correction factor at normalized time x, from first principles.

    For each q the tangent-line inequality, minimized over the unknown
    overlap phase, forces
        t >= (1 - f * sqrt(1 + q^2)) / (a(q) * (mean - e0)),
    so at fixed t = x * tau_ml the overlap magnitude f cannot drop below
    (1 - a(q) * (pi/2) * x) / sqrt(1 + q^2) for any q.  Maximizing over q
    on [0, 10] (coarse grid plus golden refinement; the maximizer must
    stay interior) gives the least admissible magnitude, and the oracle
    value is arccos(f) / ((pi/2) sqrt(x)).
    """
    x = float(x)
    if not 0.0 < x <= 1.0:
        raise ValueError(f"xi_oracle argument must lie in (0, 1], got {x}")

    def candidate(q: float) -> float:
        return (1.0 - _a_value(q) * HALF_PI * x) / math.sqrt(1.0 + q * q)

    grid = np.linspace(0.0, 10.0, 401)
    values = [candidate(q) for q in grid]
    best = int(np.argmax(values))
    lo = grid[max(best - 1, 0)]
    hi = grid[min(best + 1, len(grid) - 1)]
    q_star = _golden_max(candidate, float(lo), float(hi))
    if q_star > 9.9:
        raise RuntimeError(
            f"q maximizer {q_star} hit the search range; widen the grid"
        )
    f = max(candidate(q_star), 0.0)
    return math.acos(min(f, 1.0)) / (HALF_PI * math.sqrt(x))


def xi_comparison(grid=XI_GRID):
    """Rows (x, oracle, linear, delta) over a grid of normalized times."""
    rows = []
    for x in grid:
        tight = xi_oracle(x)
        linear = xi(x)
        rows.append((float(x), tight, linear, tight - linear))
    return rows


def find_orthogonalization_time(
    state: SpectralState, t_max: Optional[float] = None, tol: float = 1e-9
) -> Optional[float]:
    """Earliest t in [0, t_max] with |overlap| < tol, or None.

    Returns None at once when 2 * max(w) - 1 > tol: the overlap never
    drops below w_max - sum of the other weights = 2 * w_max - 1.
    Otherwise scans a grid of step at most tau_bw / 20 (fine enough that
    no dip of the band-limited magnitude can slip between samples) and
    refines, in one vectorized Newton pass, every local minimum whose
    bracket can hold a zero; the earliest zero found wins.  t_max
    defaults to 20 * tau_bw; a horizon that needs more than
    MAX_SCAN_POINTS grid points is rejected before anything is allocated.
    """
    if not (math.isfinite(tol) and tol >= 0.0):
        raise ValueError(f"tol must be a finite real >= 0, got {tol}")
    if t_max is not None and not (math.isfinite(t_max) and t_max > 0.0):
        raise ValueError(f"t_max must be a finite real > 0, got {t_max}")
    bandwidth = state.emax - state.e0
    if bandwidth <= 0.0:
        return None
    tau_bw = math.pi / bandwidth
    if t_max is None:
        t_max = 20.0 * tau_bw

    step = tau_bw / 20.0
    intervals = t_max / step
    if not intervals <= MAX_SCAN_POINTS - 1:
        raise ValueError(
            f"t_max={t_max} needs more than MAX_SCAN_POINTS={MAX_SCAN_POINTS} "
            f"scan points at step tau_bw/20={step}"
        )
    if 2.0 * float(state.populations.max()) - 1.0 > tol:
        return None

    n = max(int(math.ceil(intervals)) + 1, 3)
    times = np.linspace(0.0, t_max, n)
    mags = _kernels.grid_overlap_magnitudes(state.energies, state.populations, times)

    candidates = np.flatnonzero(
        (mags[1:-1] <= mags[:-2]) & (mags[1:-1] <= mags[2:])
    ) + 1
    if mags[-1] <= mags[-2]:
        candidates = np.append(candidates, n - 1)

    # |f| is sigma-Lipschitz: with the mean phase taken out of f, its rate
    # is at most sum w |E - mean| <= sigma.  A bracket [t_{k-1}, t_{k+1}]
    # holding a t with |f(t)| < tol therefore has mags[k] < tol + sigma * h
    # at grid step h, so dropping every other bracket loses no zero.
    limit = energy_moments(state).sigma * (t_max / (n - 1)) + tol
    candidates = candidates[mags[candidates] < limit]
    if candidates.size == 0:
        return None
    t_min, mag_min = _kernels.refine_min_magnitudes(
        state.energies,
        state.populations,
        times[candidates - 1],
        times[np.minimum(candidates + 1, n - 1)],
        1e-12,
    )
    hits = np.flatnonzero(mag_min < tol)
    return float(t_min[hits[0]]) if hits.size else None


def check_grid_size(name: str, steps: int) -> None:
    """Refuse a time grid of fewer than 2 or more than MAX_SCAN_POINTS points."""
    if not 2 <= steps <= MAX_SCAN_POINTS:
        raise ValueError(
            f"{name} must lie in [2, MAX_SCAN_POINTS={MAX_SCAN_POINTS}], got {steps}"
        )


def check_envelope(
    state: SpectralState, t_max: float, steps: int = 1000, t_min: float = 0.0
) -> float:
    """Minimum of envelope_angle(t) - arccos|overlap(t)| over a time grid.

    Negative values beyond roughly (pi/2) * 5e-4 would falsify the
    envelope; smaller dips are the documented price of the linear xi
    model.
    """
    check_grid_size("steps", steps)
    b = bound_set(state, p_grid=())
    times = np.linspace(t_min, t_max, steps)
    slack, _ = _kernels.envelope_slack_scan(
        state.energies,
        state.populations,
        b.tau_mt,
        b.tau_ml,
        b.tau_ml_dual,
        times,
    )
    return float(slack)


@dataclass(frozen=True)
class SweepConfig:
    samples: int = 10000
    level_min: int = 2
    level_max: int = 8
    emax: float = 1.0
    seed: int = 42
    time_steps: int = 1000
    t_max_factor: float = 20.0
    slack_tolerance: float = 1e-3
    ortho_tol: float = 1e-9
    workers: int = 1


@dataclass(frozen=True)
class Violation:
    """One failed check, with the full state for replay."""

    check: str
    state: tuple
    t: Optional[float]
    slack: float

    def to_dict(self) -> dict:
        return {
            "check": self.check,
            "state": {
                "levels": [
                    {"energy": e, "population": p} for e, p in self.state
                ]
            },
            "t": self.t,
            "slack": self.slack,
        }


@dataclass(frozen=True)
class FalsificationReport:
    samples: int
    worst_slack_rad: float
    violations: tuple
    ortho_checks: int
    seed: int

    def to_dict(self) -> dict:
        return {
            "samples": self.samples,
            "worst_slack_rad": self.worst_slack_rad,
            "violations": [v.to_dict() for v in self.violations],
            "ortho_checks": self.ortho_checks,
            "seed": self.seed,
        }


def _taus_close(a: float, b: float, rel: float = 1e-12) -> bool:
    if a == b:
        return True
    if math.isinf(a) or math.isinf(b):
        return False
    return abs(a - b) <= rel * max(abs(a), abs(b))


def _gap_of(tau: float) -> float:
    return 0.0 if math.isinf(tau) else HALF_PI / tau


def _swapped_taus_close(tau_a: float, tau_b: float, scale: float) -> bool:
    """Duality comparison in gap space, where rounding is additive.

    tau = pi / (2 gap), and each gap is computed from energies that carry
    absolute error of order eps * |E|.  For a nearly degenerate state the
    gap can be tiny, so a purely relative test on tau fails on honest
    roundoff; the absolute term scaled by the energy magnitudes admits
    exactly that roundoff and nothing larger.
    """
    ga, gb = _gap_of(tau_a), _gap_of(tau_b)
    return abs(ga - gb) <= 1e-12 * max(ga, gb) + 1e-14 * scale


def _sweep_one(config: SweepConfig, index: int):
    """All checks for sample `index`; the sampling is a pure function of
    (seed, index) so any partition over workers sees identical states."""
    seq = np.random.SeedSequence([config.seed, index])
    rng = np.random.default_rng(seq)
    level_count = int(rng.integers(config.level_min, config.level_max + 1))
    state_seed = int(rng.integers(0, 2**63 - 1))
    state = sample_random_state(level_count, config.emax, state_seed)

    moments = energy_moments(state, DEFAULT_P_GRID)
    bounds = bounds_from_moments(moments)
    levels = state.levels
    violations = []

    max_sigma, saturated = popoviciu(moments)
    if moments.sigma > max_sigma + 1e-12:
        violations.append(
            Violation("popoviciu", levels, None, max_sigma - moments.sigma)
        )
    if saturated != (state.level_count <= 2):
        violations.append(
            Violation(
                "popoviciu_saturation", levels, None, moments.sigma - max_sigma
            )
        )

    if bounds.tau_qsl < bounds.tau_bw and not _taus_close(
        bounds.tau_qsl, bounds.tau_bw
    ):
        violations.append(
            Violation(
                "qsl_vs_bandwidth", levels, None, bounds.tau_qsl - bounds.tau_bw
            )
        )

    mirrored = bound_set(dual_state(state), p_grid=())
    scale = abs(moments.e0) + abs(moments.emax) + moments.bandwidth
    swap_pairs = (
        (mirrored.tau_ml, bounds.tau_ml_dual),
        (mirrored.tau_ml_dual, bounds.tau_ml),
        (mirrored.tau_mt, bounds.tau_mt),
        (mirrored.tau_bw, bounds.tau_bw),
    )
    if not all(_swapped_taus_close(a, b, scale) for a, b in swap_pairs):
        worst = max(abs(_gap_of(a) - _gap_of(b)) for a, b in swap_pairs)
        violations.append(Violation("duality_swap", levels, None, worst))

    worst_slack = math.inf
    ortho_found = 0
    if moments.bandwidth > 0.0:
        tau_bw = math.pi / moments.bandwidth
        t_max = config.t_max_factor * tau_bw
        times = np.linspace(0.0, t_max, config.time_steps)
        slack, t_at = _kernels.envelope_slack_scan(
            state.energies,
            state.populations,
            bounds.tau_mt,
            bounds.tau_ml,
            bounds.tau_ml_dual,
            times,
        )
        worst_slack = float(slack)
        if worst_slack < -config.slack_tolerance:
            violations.append(
                Violation("envelope", levels, float(t_at), worst_slack)
            )

        t_perp = find_orthogonalization_time(
            state, t_max=t_max, tol=config.ortho_tol
        )
        if t_perp is not None:
            ortho_found = 1
            if t_perp < bounds.tau_qsl - 1e-9:
                violations.append(
                    Violation(
                        "ortho_vs_qsl", levels, t_perp, t_perp - bounds.tau_qsl
                    )
                )
            for family in (bounds.tau_ml_p, bounds.tau_ml_dual_p):
                for _, tau in family:
                    if t_perp < tau - 1e-9:
                        violations.append(
                            Violation(
                                "ortho_vs_lp", levels, t_perp, t_perp - tau
                            )
                        )

    return worst_slack, violations, ortho_found


def _sweep_range(config: SweepConfig, start: int, stop: int):
    worst = math.inf
    violations = []
    ortho = 0
    for i in range(start, stop):
        slack_i, violations_i, ortho_i = _sweep_one(config, i)
        worst = min(worst, slack_i)
        violations.extend(violations_i)
        ortho += ortho_i
    return worst, violations, ortho


def falsification_sweep(config: SweepConfig = SweepConfig()) -> FalsificationReport:
    """Run every per-state check over `config.samples` random states.

    The sweep is deterministic for a fixed seed regardless of worker
    count; workers only partition the sample index range.
    """
    if config.samples < 1:
        raise ValueError(f"samples must be >= 1, got {config.samples}")
    if not 1 <= config.level_min <= config.level_max:
        raise ValueError(
            f"level range is invalid: {config.level_min}:{config.level_max}"
        )
    if not 1 <= config.workers <= MAX_WORKERS:
        raise ValueError(
            f"workers must lie in [1, MAX_WORKERS={MAX_WORKERS}], got {config.workers}"
        )
    check_grid_size("time_steps", config.time_steps)
    if not (math.isfinite(config.t_max_factor) and config.t_max_factor > 0.0):
        raise ValueError(
            f"t_max_factor must be a finite real > 0, got {config.t_max_factor}"
        )

    if config.workers == 1:
        worst, violations, ortho = _sweep_range(config, 0, config.samples)
    else:
        edges = np.linspace(0, config.samples, config.workers + 1).astype(int)
        serial = replace(config, workers=1)
        worst = math.inf
        violations = []
        ortho = 0
        with ProcessPoolExecutor(max_workers=config.workers) as pool:
            chunks = pool.map(
                _sweep_range_star,
                [(serial, int(lo), int(hi)) for lo, hi in zip(edges, edges[1:])],
            )
            for worst_i, violations_i, ortho_i in chunks:
                worst = min(worst, worst_i)
                violations.extend(violations_i)
                ortho += ortho_i

    return FalsificationReport(
        samples=config.samples,
        worst_slack_rad=worst,
        violations=tuple(violations),
        ortho_checks=ortho,
        seed=config.seed,
    )


def _sweep_range_star(args):
    return _sweep_range(*args)
