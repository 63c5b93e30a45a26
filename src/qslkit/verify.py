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

import bisect
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from . import _kernels
from .bounds import (
    DEFAULT_P_GRID,
    HALF_PI,
    _releq_array,
    bound_set,
    bounds_from_moments,
    popoviciu,
    xi,
)
from .states import (
    EnergyMoments,
    SpectralState,
    _moments,
    dual_rows,
    moment_rows,
    sample_random_state,
)

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
_INV_PHI2 = (3.0 - math.sqrt(5.0)) / 2.0

# Largest time grid any scan builds: the finder's (50000 tau_bw of horizon
# at step tau_bw / 20), the sweep's envelope scan and a trace.  A direct
# overlap pass over it needs about 24 MB of temporaries per energy level.
MAX_SCAN_POINTS = 1_000_000

# Most samples one sweep takes.  A billion states is days of checking on
# one core, so a larger count could never finish; it is refused instead
# of started.
MAX_SAMPLES = 10**9

# Most levels of one sweep state.  Scan memory grows with the level count,
# since _BATCH_POINTS bounds only states x time points: at this cap a
# default sweep (65-state windows) peaks near 156 MB of RSS, and a full
# 1024-state chunk at --time-steps 2 near 210 MB (2-core x86-64, numpy
# 2.4).  A larger maximum is refused before any state is sampled.
MAX_LEVELS = 1024

# Most worker processes a sweep starts.  Each holds a full interpreter
# and numpy, and a sweep only partitions its sample range among them, so
# more workers than cores buy nothing.
MAX_WORKERS = 64

# Rounding allowance of the finder's chord certificate, per level and per
# radian of phase max|E| t_max: the grid values, the chord distances and
# a refined magnitude each carry a few eps of both (see _chord_floors).
_CHORD_ROUNDING = 64.0 * np.finfo(np.float64).eps

# Least normal float: the floor of a chord's squared length (see
# _segment_distances).
_TINY = np.finfo(np.float64).tiny

# Most time-grid points one window of the sweep scans at once: 65 states
# at the default 1000 time steps.  Temporaries grow with it, and a grid
# of MAX_SCAN_POINTS still goes one state at a time.
_BATCH_POINTS = 1 << 16

# Most sweep states sampled and held at once.  A sweep checks its range
# one chunk of indices at a time and keeps only the worst slack, the
# orthogonalization count and the violations, so its memory does not
# grow with the sample count.
_CHUNK_STATES = 1024

# Default comparison grid for xi_oracle vs the linear model.
XI_GRID = tuple(round(0.05 * k, 2) for k in range(1, 21))

# Coarse grid of q on which xi_oracle looks for the maximizing q.
_XI_Q_GRID = np.linspace(0.0, 10.0, 401)
_XI_Q_GRID.setflags(write=False)

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
    sin, cos = math.sin, math.cos
    while hi - lo > 1e-13:
        mid = 0.5 * (lo + hi)
        # gap(mid) written out: the call cost a third of the ~46 steps.
        s, c = sin(mid), cos(mid)
        if 1.0 - c - mid * (s - q * c) - q * s < 0.0:
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

    # a x + q sin(x) - (1 - cos(x)), formed in place to skip two temporaries.
    margin = a * _DOMINATION_X
    margin += q * _DOMINATION_SIN
    margin -= _DOMINATION_RISE
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


def _candidate_ceiling(q, x):
    """Upper bound U(q) on xi_oracle's candidate at x that needs no a(q).

    The tangent line must dominate 1 - cos at x = 3 pi/2, where it reads
    a * (3 pi/2) - q >= 1, so a(q) >= (1 + q) / (3 pi/2).  a_of_q only
    certifies domination to within 1e-9, which the bound gives away, so
    (1 - a(q) * (pi/2) * x) / sqrt(1 + q^2) <= U(q).  q may be an array.
    """
    a_floor = (1.0 + q - 1e-9) / (3.0 * HALF_PI)
    return (1.0 - a_floor * HALF_PI * x) / np.sqrt(1.0 + q * q)


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

    The coarse grid is visited in descending order of the a-free ceiling
    _candidate_ceiling and left once the ceiling falls 1e-9 below the best
    candidate so far: no q left can reach the maximum, so a(q) is solved
    only where it can matter, and the argmax and every bit of the result
    are those of a full-grid pass.
    """
    x = float(x)
    if not 0.0 < x <= 1.0:
        raise ValueError(f"xi_oracle argument must lie in (0, 1], got {x}")

    def candidate(q: float) -> float:
        return (1.0 - _a_value(q) * HALF_PI * x) / math.sqrt(1.0 + q * q)

    grid = _XI_Q_GRID
    ceiling = _candidate_ceiling(grid, x)
    values = np.full(len(grid), -math.inf)
    top = -math.inf
    for k in np.argsort(-ceiling, kind="stable"):
        if ceiling[k] < top - 1e-9:
            break
        values[k] = candidate(grid[k])
        top = max(top, values[k])
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


def _check_finder_args(t_max: Optional[float], tol: float) -> None:
    if not (math.isfinite(tol) and tol >= 0.0):
        raise ValueError(f"tol must be a finite real >= 0, got {tol}")
    if t_max is not None and not (math.isfinite(t_max) and t_max > 0.0):
        raise ValueError(f"t_max must be a finite real > 0, got {t_max}")


def _scan_points(tau_bw: float, t_max: float) -> int:
    """Points of the finder's scan of [0, t_max], at step at most tau_bw / 20.

    A horizon that needs more than MAX_SCAN_POINTS is refused.
    """
    step = tau_bw / 20.0
    intervals = t_max / step
    if not intervals <= MAX_SCAN_POINTS - 1:
        raise ValueError(
            f"t_max={t_max} needs more than MAX_SCAN_POINTS={MAX_SCAN_POINTS} "
            f"scan points at step tau_bw/20={step}"
        )
    return max(int(math.ceil(intervals)) + 1, 3)


def _scan_brackets(mags, sigma, times, tol: float):
    """(rows, k) of every scan minimum whose bracket can hold a zero.

    mags (b, n) holds |f| of stacked states on their grids times[r] =
    np.linspace(0, t_max[r], n), and sigma (b,) their spreads.  The
    candidates are the interior local minima and, where |f| is still
    falling there, the last point; the bracket of k is [t_{k-1}, t_{k+1}],
    clipped to the grid.  |f| is sigma-Lipschitz: with the mean phase
    taken out of f, its rate is at most sum w |E - mean| <= sigma.  A
    bracket holding a t with |f(t)| < tol therefore has mags[k] < tol +
    sigma * h at grid step h, so dropping every other bracket loses no
    zero.  The pairs come in row-major order: each row's k ascend.
    """
    n = mags.shape[-1]
    held = np.empty(mags.shape, dtype=bool)
    held[:, 0] = False
    # no higher than the point before, then than the point after, if any
    np.less_equal(mags[:, 1:], mags[:, :-1], out=held[:, 1:])
    held[:, 1:-1] &= mags[:, 1:-1] <= mags[:, 2:]
    held &= mags < (sigma * (times[:, -1] / (n - 1)) + tol)[:, None]
    return np.nonzero(held)


def _segment_distances(a, b):
    """Distance from 0 to each segment [a, b] of the complex plane, for
    arrays a and b of one shape and |a| of order 1 at most."""
    d = b - a
    # The nearest point is a + s d, s clipped to [0, 1].  Bounding the
    # squared length below by the least normal float keeps the quotient
    # finite; it moves s only on a segment shorter than 1e-154.
    s = -(a * d.conj()).real / np.maximum(d.real**2 + d.imag**2, _TINY)
    return np.abs(a + np.minimum(np.maximum(s, 0.0), 1.0) * d)


def _chord_floors(values, levels, e_abs_max, mean, sigma, times, rows, k):
    """A floor under |f| on each bracket [t_{k-1}, t_{k+1}] of _scan_brackets.

    values (b, n) holds f of stacked states on their grids times (see
    _scan_brackets); levels (level counts), e_abs_max (max|E|), mean and
    sigma, all (b,), describe the states.  F(t) = exp(i mean t) f(t) has
    |F| = |f| and |F''| <= sum w (E - mean)^2 = sigma^2, so on a step of
    length h F stays within sigma^2 h^2 / 8 of its chord.  Turned by
    exp(-i mean t_j), the chord over [t_j, t_{j+1}] runs from f_j to
    exp(i mean h) f_{j+1}, so each row needs one rotation.  The floor is
    the least distance from 0 to the bracket's chords (one for the
    clipped last bracket), less sigma^2 h^2 / 8 and less
    _CHORD_ROUNDING * (L + max|E| t_max) for the
    rounding of the grid values, of the chords and of a refined
    magnitude.  So neither |f| nor overlap_magnitudes of any t in the
    bracket falls below it.
    """
    n = values.shape[-1]
    h = times[:, -1] / (n - 1)
    allowance = (sigma * h) ** 2 / 8.0 + _CHORD_ROUNDING * (
        levels + e_abs_max * times[:, -1]
    )
    turn = np.exp(1j * mean * h)[rows]
    centre = values[rows, k]
    dist = np.minimum(
        _segment_distances(values[rows, k - 1], turn * centre),
        np.where(
            k == n - 1,
            math.inf,
            _segment_distances(centre, turn * values[rows, np.minimum(k + 1, n - 1)]),
        ),
    )
    return dist - allowance[rows]


def _refine_rows(energies, populations, times, rows, k, tol: float) -> list:
    """Earliest t with |overlap| < tol of each row's brackets, or None.

    rows and k are brackets of _scan_brackets, in its order, and
    energies[r] and populations[r] hold row r's state.  Each row with
    brackets gets one refine_min_magnitudes call: the bits of a BLAS
    product change with its row count, so the brackets of different rows
    are never joined into one call.
    """
    n = times.shape[-1]
    zeros = [None] * len(times)
    rows = rows.tolist()
    last = 0
    while last < len(rows):
        first, last = last, bisect.bisect_right(rows, rows[last], last)
        r, ks = rows[first], k[first:last]
        t_min, mag_min = _kernels.refine_min_magnitudes(
            energies[r],
            populations[r],
            times[r, ks - 1],
            times[r, np.minimum(ks + 1, n - 1)],
            1e-12,
        )
        hits = np.flatnonzero(mag_min < tol)
        if hits.size:
            zeros[r] = float(t_min[hits[0]])
    return zeros


def _first_zeros(energies, populations, sigma, times, tol: float) -> list:
    """Earliest t of each row's grid with |overlap| < tol, or None.

    The rows are stacked states of one level count, energies and
    populations (b, L) with sigma (b,), each scanned on its own grid
    times[r] = np.linspace(0, t_max[r], n).  Every bracket _scan_brackets
    keeps is refined (see _refine_rows); no certificate is tried, since
    on one state it costs more than it could save.
    """
    mags = np.abs(_kernels.grid_overlap(energies, populations, times))
    rows, k = _scan_brackets(mags, sigma, times, tol)
    return _refine_rows(energies, populations, times, rows, k, tol)


def _never_orthogonal(populations, tol: float):
    """True where |overlap| provably stays above tol: it never drops below
    w_max - (sum of the other weights) = 2 * w_max - 1.  populations may
    be one state's or stacked rows, one entry per row."""
    return 2.0 * populations.max(axis=-1) - 1.0 > tol


def find_orthogonalization_time(
    state: SpectralState, t_max: Optional[float] = None, tol: float = 1e-9
) -> Optional[float]:
    """Earliest t in [0, t_max] with |overlap| < tol, or None.

    Returns None at once when 2 * max(w) - 1 > tol (see
    _never_orthogonal).  Otherwise scans a grid of step at most tau_bw / 20
    (fine enough that no dip of the band-limited magnitude can slip between
    samples) and refines, in one vectorized Newton pass, every local
    minimum whose bracket can hold a zero by the sigma-Lipschitz bound;
    the earliest zero found wins.  Unlike the sweep, it tries no chord
    certificate (see _chord_floors) before refining.
    t_max defaults to 20 * tau_bw; a horizon that needs more than
    MAX_SCAN_POINTS grid points is rejected before anything is allocated.
    """
    _check_finder_args(t_max, tol)
    bandwidth = state.emax - state.e0
    if bandwidth <= 0.0:
        return None
    tau_bw = math.pi / bandwidth
    if t_max is None:
        t_max = 20.0 * tau_bw
    n = _scan_points(tau_bw, t_max)
    if _never_orthogonal(state.populations, tol):
        return None
    energies, populations = state.energies[None], state.populations[None]
    # The spread alone, without the EnergyMoments record moment_rows builds:
    # its bits are moment_rows' sigma, at half the cost.
    _, sigma, _ = _moments(energies, populations, ())
    return _first_zeros(
        energies, populations, sigma, np.linspace(0.0, t_max, n)[None], tol
    )[0]


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
    model.  t_min must be a finite real >= 0.
    """
    if not (math.isfinite(t_min) and t_min >= 0.0):
        raise ValueError(f"t_min must be a finite real >= 0, got {t_min}")
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


def _sample(config: SweepConfig, index: int) -> SpectralState:
    """Sample `index` of a sweep: a pure function of (seed, index), so any
    partition over workers sees identical states."""
    seq = np.random.SeedSequence([config.seed, index])
    rng = np.random.default_rng(seq)
    level_count = int(rng.integers(config.level_min, config.level_max + 1))
    state_seed = int(rng.integers(0, 2**63 - 1))
    return sample_random_state(level_count, config.emax, state_seed)


def _join_moments(parts: list) -> EnergyMoments:
    """The rows of stacked moments (see moment_rows), one part after another."""
    if len(parts) == 1:
        return parts[0]
    lp = []
    for rows in zip(*(part.lp for part in parts)):
        orders, ep, ep_dual = zip(*rows)
        lp.append((orders[0], np.concatenate(ep), np.concatenate(ep_dual)))
    return EnergyMoments(
        **{
            name: np.concatenate([getattr(part, name) for part in parts])
            for name in ("mean", "sigma", "e0", "emax", "bandwidth")
        },
        lp=tuple(lp),
    )


def _check_window(
    config: SweepConfig, states: list, t_max: np.ndarray, scan_points: np.ndarray
):
    """Every check of a window of states sorted by level count, in array passes.

    Only what needs a rectangular (b, L) array runs once per level count:
    the moments of the states and of their mirrors and the two grid
    scans.  Everything else runs once on the window's joined rows.  Each
    state's checks see the bits they would see for that state alone (see
    moment_rows, bounds_from_moments and grid_overlap).
    Returns per state its worst envelope slack, how many of the states
    orthogonalized, and per state its violations in check order.
    t_max and scan_points hold each state's scan horizon and the finder's
    scan size (see _scan_points); a state of one level has neither.
    """
    levels = np.array([state.level_count for state in states])
    edges = [0, *(np.flatnonzero(np.diff(levels)) + 1).tolist(), len(states)]
    blocks = [
        (
            np.array([state.energies for state in states[lo:hi]]),
            np.array([state.populations for state in states[lo:hi]]),
        )
        for lo, hi in zip(edges, edges[1:])
    ]
    moments = _join_moments([moment_rows(e, w, DEFAULT_P_GRID) for e, w in blocks])
    bounds = bounds_from_moments(moments)
    mirrored = bounds_from_moments(
        _join_moments([moment_rows(*dual_rows(e, w)) for e, w in blocks])
    )
    max_sigma, saturated = popoviciu(moments)

    # Duality in gap space, where rounding is additive: tau = pi / (2 gap),
    # and each gap carries absolute error of order eps * |E|.  For a nearly
    # degenerate state the gap can be tiny, so a purely relative test on
    # tau fails on honest roundoff; the absolute term scaled by the energy
    # magnitudes admits exactly that roundoff and nothing larger.
    scale = np.abs(moments.e0) + np.abs(moments.emax) + moments.bandwidth
    gap_a = HALF_PI / np.array(
        [mirrored.tau_ml, mirrored.tau_ml_dual, mirrored.tau_mt, mirrored.tau_bw]
    )
    gap_b = HALF_PI / np.array([bounds.tau_ml_dual, bounds.tau_ml, bounds.tau_mt, bounds.tau_bw])
    swapped = np.abs(gap_a - gap_b)
    duality_fails = ~np.all(
        swapped <= 1e-12 * np.maximum(gap_a, gap_b) + 1e-14 * scale, axis=0
    )

    # A band of width 0 makes every tau infinite, so both taus are finite
    # wherever tau_qsl < tau_bw.
    below = np.flatnonzero(bounds.tau_qsl < bounds.tau_bw)
    qsl_fails = np.zeros(len(states), dtype=bool)
    qsl_fails[below] = ~_releq_array(bounds.tau_qsl[below], bounds.tau_bw[below])

    slack = np.full(len(states), math.inf)
    t_at = np.full(len(states), math.nan)
    t_perp = np.full(len(states), math.nan)
    # A canonical state of two or more levels has distinct energies, so a
    # bandwidth > 0; the states of one level lead the window.
    multi = [(e, w) for e, w in blocks if e.shape[1] > 1]
    if multi:
        scanned = slice(len(states) - sum(len(e) for e, _ in multi), len(states))
        slack[scanned], t_at[scanned] = _kernels.envelope_slack_scan(
            [e for e, _ in multi],
            [w for _, w in multi],
            bounds.tau_mt[scanned],
            bounds.tau_ml[scanned],
            bounds.tau_ml_dual[scanned],
            np.linspace(0.0, t_max[scanned], config.time_steps).T,
        )
    never = np.concatenate([_never_orthogonal(w, config.ortho_tol) for _, w in blocks])
    reachable = np.flatnonzero((levels > 1) & ~never)
    # Energies ascend, so max|E| sits at a band edge.
    e_abs_max = np.maximum(np.abs(moments.e0), np.abs(moments.emax))
    for n in set(scan_points[reachable].tolist()):
        rows = reachable[scan_points[reachable] == n]
        times = np.linspace(0.0, t_max[rows], n).T
        # One scan per level count, joined into one (len(rows), n) array.
        cuts = np.searchsorted(rows, edges).tolist()
        values = np.concatenate(
            [
                _kernels.grid_overlap(e[rows[a:b] - lo], w[rows[a:b] - lo], times[a:b])
                for (e, w), lo, a, b in zip(blocks, edges, cuts, cuts[1:])
                if a < b
            ]
        )
        held, k = _scan_brackets(np.abs(values), moments.sigma[rows], times, config.ortho_tol)
        # A row whose every bracket has a chord floor >= tol is not
        # refined: no refinement of it could find a zero.  A row that
        # is refined keeps all its brackets, so its refinement sees
        # the inputs, and gives the bits, of the single-state finder.
        chord_floors = _chord_floors(
            values,
            levels[rows],
            e_abs_max[rows],
            moments.mean[rows],
            moments.sigma[rows],
            times,
            held,
            k,
        )
        refined = np.zeros(len(rows), dtype=bool)
        refined[held[chord_floors < config.ortho_tol]] = True
        keep = refined[held]
        zeros = _refine_rows(
            [states[r].energies for r in rows],
            [states[r].populations for r in rows],
            times,
            held[keep],
            k[keep],
            config.ortho_tol,
        )
        t_perp[rows] = [math.nan if t is None else t for t in zeros]

    # The floors no first zero may beat: tau_qsl, then each L^p tau.
    lp_taus = [taus for _, taus in bounds.tau_ml_p + bounds.tau_ml_dual_p]
    floors = np.array([bounds.tau_qsl, *lp_taus])
    floor_names = ["ortho_vs_qsl"] + ["ortho_vs_lp"] * len(lp_taus)

    # (check, failed rows, t, margin) in report order.  A state of one
    # level has inf - inf margins; a margin is read only where it failed,
    # and t_perp is nan, which fails no comparison, where no zero was found.
    with np.errstate(invalid="ignore"):
        # The ceiling is the root of (mean - e0)(emax - mean), two gaps
        # with the duality test's absolute error 1e-14 * scale, so the
        # product may be off by slop and the root by slop / (ceiling +
        # sqrt(slop)): where one weight is tiny, far more than 1e-12 of
        # the ceiling.  One level gives 0 / 0, and nan fails no comparison.
        slop = 1e-14 * scale * moments.bandwidth
        ceiling_error = 1e-12 * max_sigma + slop / (max_sigma + np.sqrt(slop))
        checks = [
            (
                "popoviciu",
                moments.sigma > max_sigma + ceiling_error,
                None,
                max_sigma - moments.sigma,
            ),
            (
                "popoviciu_saturation",
                saturated != (levels <= 2),
                None,
                moments.sigma - max_sigma,
            ),
            ("qsl_vs_bandwidth", qsl_fails, None, bounds.tau_qsl - bounds.tau_bw),
            ("duality_swap", duality_fails, None, swapped.max(axis=0)),
            ("envelope", slack < -config.slack_tolerance, t_at, slack),
        ] + [
            (name, failed, t_perp, margin)
            for name, failed, margin in zip(
                floor_names, t_perp < floors - 1e-9, t_perp - floors
            )
        ]
    violations = [[] for _ in states]
    for r in np.flatnonzero(np.any([failed for _, failed, _, _ in checks], axis=0)):
        violations[r] = [
            Violation(
                name,
                states[r].levels,
                None if t is None else float(t[r]),
                float(margin[r]),
            )
            for name, failed, t, margin in checks
            if failed[r]
        ]
    return slack.tolist(), int(np.count_nonzero(~np.isnan(t_perp))), violations


def _sweep_range(config: SweepConfig, start: int, stop: int):
    """Samples [start, stop): the worst envelope slack, the violations in
    index order, and how many states orthogonalized.

    The range goes _CHUNK_STATES indices at a time.  States are sampled
    one index at a time, sorted by level count (stably), and checked in
    windows of at most _BATCH_POINTS points per scan, whatever their
    level counts.  A window changes no bit of any state's result, so
    neither does the split of the range into chunks, windows or workers.
    """
    worst = math.inf
    violations = []
    ortho = 0
    for lo in range(start, stop, _CHUNK_STATES):
        states = []
        t_max = []
        scan_points = []
        for index in range(lo, min(lo + _CHUNK_STATES, stop)):
            state = _sample(config, index)
            # The finder's refusals, state by state, so that the first
            # refused state raises as a state-by-state sweep would.
            bandwidth = state.emax - state.e0
            horizon, points = math.nan, 0
            if bandwidth > 0.0:
                tau_bw = math.pi / bandwidth
                horizon = config.t_max_factor * tau_bw
                _check_finder_args(horizon, config.ortho_tol)
                points = _scan_points(tau_bw, horizon)
            states.append(state)
            t_max.append(horizon)
            scan_points.append(points)

        order = sorted(range(len(states)), key=lambda k: states[k].level_count)
        per_window = max(1, _BATCH_POINTS // max(config.time_steps, *scan_points))
        slack = [math.inf] * len(states)
        flagged = [[] for _ in states]
        for first in range(0, len(order), per_window):
            window = order[first : first + per_window]
            slack_window, ortho_window, violations_window = _check_window(
                config,
                [states[k] for k in window],
                np.array([t_max[k] for k in window]),
                np.array([scan_points[k] for k in window]),
            )
            ortho += ortho_window
            for k, slack_k, violations_k in zip(window, slack_window, violations_window):
                slack[k], flagged[k] = slack_k, violations_k
        # in index order, as a state-by-state fold would take them
        worst = min(worst, *slack)
        violations.extend(v for violations_k in flagged for v in violations_k)
    return worst, violations, ortho


def falsification_sweep(config: SweepConfig = SweepConfig()) -> FalsificationReport:
    """Run every per-state check over `config.samples` random states.

    The sweep is deterministic for a fixed seed regardless of worker
    count; workers only partition the sample index range, and no more
    workers start than there are samples.  A config outside the documented
    ranges (levels up to MAX_LEVELS, tolerances finite and >= 0) is
    refused before any state is sampled.
    """
    if config.samples < 1:
        raise ValueError(f"samples must be >= 1, got {config.samples}")
    if config.samples > MAX_SAMPLES:
        raise ValueError(
            f"samples must be <= MAX_SAMPLES={MAX_SAMPLES}, got {config.samples}"
        )
    if not 1 <= config.level_min <= config.level_max <= MAX_LEVELS:
        raise ValueError(
            f"levels must satisfy 1 <= MIN <= MAX <= MAX_LEVELS={MAX_LEVELS}, "
            f"got {config.level_min}:{config.level_max}"
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
    for name in ("slack_tolerance", "ortho_tol"):
        value = getattr(config, name)
        if not (math.isfinite(value) and value >= 0.0):
            raise ValueError(f"{name} must be a finite real >= 0, got {value}")

    workers = min(config.workers, config.samples)
    if workers == 1:
        parts = [_sweep_range(config, 0, config.samples)]
    else:
        edges = np.linspace(0, config.samples, workers + 1).astype(int)
        serial = replace(config, workers=1)
        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = list(
                pool.map(
                    _sweep_range_star,
                    [(serial, int(lo), int(hi)) for lo, hi in zip(edges, edges[1:])],
                )
            )

    return FalsificationReport(
        samples=config.samples,
        worst_slack_rad=min(math.inf, *(worst for worst, _, _ in parts)),
        violations=tuple(v for _, violations, _ in parts for v in violations),
        ortho_checks=sum(ortho for _, _, ortho in parts),
        seed=config.seed,
    )


def _sweep_range_star(args):
    return _sweep_range(*args)
