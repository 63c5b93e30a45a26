"""Falsification harness: independent checks of every certified bound.

The production formulas in :mod:`qslkit.bounds` are closed-form; the
routines here attack them from the numerical side.  ``a_of_q`` rebuilds
the tangency construction behind the sqrt-type bound from its defining
equations, ``xi_oracle`` turns that construction into a tight correction
factor to compare against the linear model (its maximizing q is the one
root of a closed-form slope, bracketed on [0, 10]), and
``falsification_sweep`` hammers randomly sampled states with every
inequality the library promises.  Violations are data to report, not
exceptions to raise.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import asdict, dataclass, replace
from typing import Optional

import numpy as np

from . import _kernels
from .bounds import (
    DEFAULT_P_GRID,
    HALF_PI,
    _TINY,
    _ceiling_rounding,
    _gap_rounding,
    _releq_array,
    bound_set,
    bounds_from_moments,
    popoviciu,
    xi,
)
from .states import (
    EnergyMoments,
    SpectralState,
    _check_sample_args,
    _levels_document,
    _moments,
    canonical_rows,
    dual_rows,
    moment_rows,
    validate_state,
)

# Largest time grid any scan builds: the finder's (50000 tau_bw of horizon
# at step tau_bw / 20), the sweep's envelope scan and a trace.  A direct
# overlap pass over it needs about 24 MB of temporaries per energy level.
MAX_SCAN_POINTS = 1_000_000

# Most samples one sweep takes.  A billion states is days of checking on
# one core, so a larger count could never finish; it is refused instead
# of started.
MAX_SAMPLES = 10**9

# Most levels of one sweep state.  Scan memory grows with the level count,
# since _BATCH_POINTS bounds only states x time points and a chunk's
# words: at this cap a sweep goes 32 states a chunk, and --levels
# 1024:1024 peaks near 80 MB of RSS at the default 1000 time steps and
# near 77 MB at --time-steps 2 (2-core x86-64, numpy 2.4).  A larger
# maximum is refused before any state is sampled.
MAX_LEVELS = 1024

# Most worker processes a sweep starts.  Each holds a full interpreter
# and numpy, and a sweep only partitions its sample range among them, so
# more workers than cores buy nothing.
MAX_WORKERS = 64

# Rounding allowance of the finder's chord certificate, per level and per
# radian of phase max|E| t_max: the grid values, the chord distances and
# a refined magnitude each carry a few eps of both (see _chord_floors).
_CHORD_ROUNDING = 64.0 * np.finfo(np.float64).eps

# Most time-grid points one window of the sweep scans at once: 65 states
# at the default 1000 time steps.  Temporaries grow with it, and a grid
# of MAX_SCAN_POINTS still goes one state at a time.  It also sizes a
# sweep chunk: about as many sampled words (see _sweep_range).
_BATCH_POINTS = 1 << 16

# Default comparison grid for xi_oracle vs the linear model.
XI_GRID = tuple(round(0.05 * k, 2) for k in range(1, 21))


@dataclass(frozen=True)
class TangencySolution:
    """Tangent-line parameters (a, x_star) for one mixing weight q."""

    q: float
    a: float
    x_star: float
    residuals: tuple

    def to_dict(self) -> dict:
        return asdict(self)


def a_of_q(q: float) -> TangencySolution:
    """Smallest slope a such that a*x + q*sin(x) >= 1 - cos(x) for x >= 0.

    Solves the tangency system
        sin(x) = a + q cos(x)
        1 - cos(x) = a x + q sin(x)
    by bisecting for the touch point x_star in (pi/2, 2 pi); both residuals
    must sit below 1e-10.  Domination is proved, not sampled: with h(x) =
    a x + q sin(x) - (1 - cos(x)), h(x + 2 pi) = h(x) + 2 pi a, and h', a
    sinusoid plus a constant, leaves h one local minimum a period.  As h(0)
    = 0, h'(0) = a + q > 0 and h(2 pi) = 2 pi a, if a > 0 and h''(x_star) =
    -(q sin(x_star) + cos(x_star)) > 0 the touch point, h = h' = 0 to the
    residuals, is that minimum: h >= 0 on [0, inf).  A failed test raises.
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

    for condition, value in (("slope a", a), ("curvature h''(x_star)", -(q * s + c))):
        if not value > 0.0:
            raise RuntimeError(f"domination unproved for q={q}: {condition}={value} is not > 0")

    return TangencySolution(q=q, a=a, x_star=x_star, residuals=(r1, r2))


def xi_oracle(x: float) -> float:
    """Tight correction factor at normalized time x, from first principles.

    For each q the tangent-line inequality, minimized over the unknown
    overlap phase, forces
        t >= (1 - f * sqrt(1 + q^2)) / (a(q) * (mean - e0)),
    so at t = x * tau_ml the overlap magnitude f cannot drop below
    C(q) = (1 - a(q) k) / sqrt(1 + q^2), k = (pi/2) x.  f's floor is the
    largest C on q >= 0.  By the envelope theorem a'(q) = -sin(x*) / x* at
    a_of_q's touch point x*, so C' has the sign of
        N(q) = k (1 + q^2) sin(x*) / x* - q (1 - a k),
    whose root Illinois regula falsi brackets on [0, 10] to 1e-10; a slope
    not negative at q = 10 is refused.  The root is the maximum over all
    q >= 0: a(q) = sup_{x>0} (1 - cos x - q sin x) / x is a supremum of
    functions affine in q, so it is convex, h = 1 - k a is concave, and
    N(0) = k sin(x*) / x* > 0.  At a critical point q_c with C(q_c) >= 0,
    phi = h - C(q_c) sqrt(1 + q^2) is concave with phi(q_c) = phi'(q_c) = 0,
    so phi <= 0 and C <= C(q_c) everywhere.  A root with C below 0 by more
    than a_of_q's residual bound 1e-10 is refused, so an unproved maximum
    raises (at x = 1 the maximum is exactly 0, at q = 2/pi).  The value
    arccos(f) / ((pi/2) sqrt(x)) is formed from the gap g = 1 - f, free of
    cancellation, as 2 asin(sqrt(g / 2)), so it tends to 2 sqrt(a(0) / pi)
    as x falls to tiny, the least normal float.
    """
    x = float(x)
    if not _TINY <= x <= 1.0:
        raise ValueError(f"xi_oracle argument must lie in [{_TINY}, 1], got {x}")
    k = HALF_PI * x

    def slope(q: float):
        s = a_of_q(q)
        return k * (1.0 + q * q) * math.sin(s.x_star) / s.x_star - q * (1.0 - s.a * k), s

    lo, hi = 0.0, 10.0
    (n_lo, at), (n_hi, _) = slope(lo), slope(hi)
    if not n_hi < 0.0:
        raise RuntimeError(f"q maximizer of xi_oracle({x}) hit the search range [0, {hi}]")
    q_star = lo
    side = 0
    for _ in range(100):
        if n_lo <= 0.0 or hi - lo <= 1e-10:
            break
        q_star = (lo * n_hi - hi * n_lo) / (n_hi - n_lo)
        if not lo < q_star < hi:
            q_star = 0.5 * (lo + hi)
        n, at = slope(q_star)
        if n >= 0.0:
            lo, n_lo = q_star, n
            n_hi *= 0.5 if side > 0 else 1.0
            side = 1
        else:
            hi, n_hi = q_star, n
            n_lo *= 0.5 if side < 0 else 1.0
            side = -1
    else:
        raise RuntimeError(f"slope root of xi_oracle({x}) not bracketed to 1e-10")
    root = math.sqrt(1.0 + q_star * q_star)
    gap = (q_star * q_star / (root + 1.0) + at.a * k) / root
    if gap > 1.0 + 1e-10:
        raise RuntimeError(
            f"maximum of xi_oracle({x}) unproved: C(q*={q_star}) = {1.0 - gap} is below 0"
        )
    angle = 2.0 * math.asin(math.sqrt(0.5 * min(max(gap, 0.0), 1.0)))
    return angle / (HALF_PI * math.sqrt(x))


def xi_comparison(grid=XI_GRID):
    """Rows (x, oracle, linear, delta) over a grid of normalized times."""
    rows = []
    for x in grid:
        tight = xi_oracle(x)
        linear = xi(x)
        rows.append((float(x), tight, linear, tight - linear))
    return rows


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


def _factor_points(factor: float) -> int:
    """Points of the finder's scan of [0, factor * tau_bw] at step tau_bw / 20."""
    return max(math.ceil(20.0 * factor) + 1, 3)


def _scan_brackets(mags, sigma, t_max, tol: float):
    """(rows, k) of every scan minimum whose bracket can hold a zero.

    mags (b, n) holds |f| of stacked states on their grids
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
    held &= mags < (sigma * (t_max / (n - 1)) + tol)[:, None]
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


def _chord_floors(values, levels, e_abs_max, mean, sigma, t_max, rows, k):
    """A floor under |f| on each bracket [t_{k-1}, t_{k+1}] of _scan_brackets.

    values (b, n) holds f of stacked states on their grids (see
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
    h = t_max / (n - 1)
    allowance = (sigma * h) ** 2 / 8.0 + _CHORD_ROUNDING * (levels + e_abs_max * t_max)
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


def _refine_rows(blocks, cuts, t_max, n: int, rows, k, tol: float) -> list:
    """Earliest t with |overlap| < tol of each row's brackets, or None.

    rows and k are brackets of _scan_brackets, in its order, on the grids
    of t_max and n, and blocks[i] holds rows cuts[i] to cuts[i + 1] (see
    _first_zeros).  Each row with brackets gets one refine_min_magnitudes
    call: the bits of a BLAS product change with its row count, so the
    brackets of different rows are never joined into one call.
    """
    zeros = [None] * len(t_max)
    rows = rows.tolist()
    last = 0
    while last < len(rows):
        first, last = last, bisect.bisect_right(rows, rows[last], last)
        r, ks = rows[first], k[first:last]
        i = bisect.bisect_right(cuts, r) - 1
        energies, populations = blocks[i]
        lo, hi = _kernels.grid_points(0.0, t_max[r], n, np.minimum(ks + [[-1], [1]], n - 1))
        t_min, mag_min = _kernels.refine_min_magnitudes(
            energies[r - cuts[i]], populations[r - cuts[i]], lo, hi, 1e-12
        )
        hits = np.flatnonzero(mag_min < tol)
        if hits.size:
            zeros[r] = float(t_min[hits[0]])
    return zeros


def _first_zeros(blocks, mean, sigma, t_max, n: int, tol: float) -> list:
    """Earliest t of each row's grid with |overlap| < tol, or None.

    blocks holds (energies, populations) pairs of stacked states, one
    level count per block, whose rows, block after block, are the rows of
    mean, sigma and t_max (b,), on the grids np.linspace(0, t_max[r], n).
    The brackets of _scan_brackets are refined (see _refine_rows), but on
    more than one row a row whose every bracket has a chord floor >= tol
    (see _chord_floors) is skipped: no refinement of it could find a zero.
    A refined row keeps all its brackets: the bits of a one-row call.
    """
    cuts = [0, *itertools.accumulate(len(e) for e, _ in blocks)]
    grids = zip(blocks, cuts, cuts[1:])
    values = [_kernels.grid_overlap(e, w, 0.0, t_max[a:b], n) for (e, w), a, b in grids]
    # One block (every find_orthogonalization_time call) is scanned in place.
    values = values[0] if len(values) == 1 else np.concatenate(values)
    rows, k = _scan_brackets(np.abs(values), sigma, t_max, tol)
    # One row (every find_orthogonalization_time call) is refined as it
    # is: there the certificate costs more than it could save.
    if len(t_max) > 1:
        levels = np.repeat([e.shape[1] for e, _ in blocks], np.diff(cuts))
        # Energies ascend, so max|E| sits at a band edge.
        e_abs_max = np.abs(np.concatenate([e[:, [0, -1]] for e, _ in blocks])).max(axis=1)
        floors = _chord_floors(values, levels, e_abs_max, mean, sigma, t_max, rows, k)
        refined = np.zeros(len(t_max), dtype=bool)
        refined[rows[floors < tol]] = True
        rows, k = rows[refined[rows]], k[refined[rows]]
    return _refine_rows(blocks, cuts, t_max, n, rows, k, tol)


def _never_orthogonal(populations, tol: float):
    """True where |overlap| provably stays above tol: it never drops below
    w_max - (sum of the other weights) = 2 * w_max - 1.  populations may
    be one state's or stacked rows, one entry per row."""
    return 2.0 * populations.max(axis=-1) - 1.0 > tol


def find_orthogonalization_time(
    state: SpectralState, t_max: Optional[float] = None, tol: float = 1e-9
) -> Optional[float]:
    """Earliest local minimum of |overlap| on [0, t_max] below tol, or None.

    Returns None at once when 2 * max(w) - 1 > tol (see
    _never_orthogonal).  Otherwise scans a grid of step at most tau_bw / 20
    (fine enough that no dip of the band-limited magnitude can slip between
    samples) and refines, in one vectorized Newton pass, every local
    minimum whose bracket can hold a zero by the sigma-Lipschitz bound;
    the earliest refined minimum below tol wins, though |overlap| may fall
    below tol before it.  It is the one-row case of the sweep's
    finder (see _first_zeros), which runs the chord certificate only on
    scans of more than one row.
    t_max defaults to 20 * tau_bw, on 401 points (see _factor_points); a
    t_max that needs more than MAX_SCAN_POINTS grid points is rejected
    before anything is allocated.
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
        t_max, n = 20.0 * tau_bw, _factor_points(20.0)
    else:
        n = _scan_points(tau_bw, t_max)
    if _never_orthogonal(state.populations, tol):
        return None
    energies, populations = state.energies[None], state.populations[None]
    # The mean and spread alone, without the EnergyMoments record
    # moment_rows builds: their bits are moment_rows', at half the cost.
    mean, sigma, _ = _moments(energies, populations, ())
    return _first_zeros([(energies, populations)], mean, sigma, np.array([t_max]), n, tol)[0]


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
    model.  t_min must be a finite real >= 0 and t_max a finite real >
    t_min.
    """
    if not (math.isfinite(t_min) and t_min >= 0.0):
        raise ValueError(f"t_min must be a finite real >= 0, got {t_min}")
    if not (math.isfinite(t_max) and t_max > t_min):
        raise ValueError(f"t_max must be a finite real > t_min={t_min}, got {t_max}")
    check_grid_size("steps", steps)
    b = bound_set(state, p_grid=())
    blocks = [state.energies[None]], [state.populations[None]]
    rows = (np.array([x]) for x in (b.tau_mt, b.tau_ml, b.tau_ml_dual, t_min, t_max))
    return float(_kernels.envelope_slack_scan(*blocks, *rows, steps)[0][0])


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
            "state": _levels_document(self.state),
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


def _sample_range(config: SweepConfig, lo: int, hi: int) -> tuple:
    """Samples [lo, hi) of a sweep: (indices, level counts, energies,
    populations), one row per state, sorted by (level count, index), each
    state's canonical table in the first level-count entries of its rows
    of the (b, W) arrays and zeros after them.

    A sweep draws from one Philox stream keyed by np.random.SeedSequence(
    seed), in which index i owns the S = ceil(level_max / 2) counter
    blocks of 4 words from block i S on.  So each state is a pure function
    of (seed, index), and any partition into chunks or workers sees
    identical states.  A word w is read as u = (w >> 11) 2**-53 in [0, 1):
    word 0 gives the level count level_min + floor(u span) over the span
    of level_max - level_min + 1 counts (formed exactly, in integers), the
    next level_max words the energies u emax, uniform on [0, emax), and
    the next level_max - 1 the cuts of [0, 1].  A state of L levels reads
    the first L energies and L - 1 cuts, and its populations are the
    spacings of 0, its sorted cuts and 1: uniform spacings, a flat draw on
    the simplex (Devroye, Non-Uniform Random Variate Generation, 1986,
    ch. V).  Each spacing is a difference of multiples of 2**-53 in [0, 1],
    so it is exact, every row sums to exactly one, and no transcendental
    function enters a state.  The range is drawn in one call, so a caller
    keeps it short: a sweep chunk is about _BATCH_POINTS words.

    The draws of one level count are sorted and spaced in array passes.
    A row that validate_state would merge, prune or refuse (see
    canonical_rows) goes through validate_state itself, in index order,
    so the first refused index raises as validate_state would on that
    state alone; every other row is already canonical.
    """
    _check_sample_args(config.level_min, config.emax)
    width = config.level_max
    blocks = -(-width // 2)
    stream = np.random.Philox(np.random.SeedSequence(int(config.seed)))
    stream.advance(lo * blocks)
    span = np.uint64(width - config.level_min + 1)
    words = stream.random_raw((hi - lo) * 4 * blocks).reshape(-1, 4 * blocks)
    words >>= np.uint64(11)
    counts = config.level_min + (words[:, 0] * span >> np.uint64(53)).astype(np.int64)
    energies = words[:, 1 : width + 1] * 2.0**-53 * config.emax
    populations = np.empty((hi - lo, width))
    populations[:, : width - 1] = words[:, width + 1 : 2 * width] * 2.0**-53

    order = np.argsort(counts, kind="stable")
    for a, b in _runs(counts[order]):
        rows, levels = order[a:b], counts[order[a]]
        energies[rows, :levels] = np.sort(energies[rows, :levels], axis=1)
        cuts = np.sort(populations[rows, : levels - 1], axis=1)
        populations[rows, :levels] = np.diff(cuts, axis=1, prepend=0.0, append=1.0)
    padding = np.arange(width) >= counts[:, None]
    energies[padding] = 0.0
    populations[padding] = 0.0
    whole = canonical_rows(energies, populations, counts)
    for j in np.delete(np.arange(hi - lo), whole).tolist():
        state = validate_state(zip(energies[j, : counts[j]], populations[j, : counts[j]]))
        counts[j] = state.level_count
        energies[j], populations[j] = 0.0, 0.0
        energies[j, : counts[j]] = state.energies
        populations[j, : counts[j]] = state.populations
    order = np.argsort(counts, kind="stable")
    top = counts[order[-1]]
    return lo + order, counts[order], energies[order, :top], populations[order, :top]


def _runs(values) -> list:
    """(start, stop) of each run of equal entries of a 1-D array."""
    cuts = [0, *(np.flatnonzero(np.diff(values)) + 1).tolist(), len(values)]
    return list(zip(cuts, cuts[1:]))


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


def _rows_of(levels, energies, populations, rows) -> list:
    """(energies, populations) of the ascending rows `rows` of a window, one
    C-contiguous (b, L) pair per level count they hold (see _check_window)."""
    return [
        (energies[rows[a:b], : levels[rows[a]]], populations[rows[a:b], : levels[rows[a]]])
        for a, b in _runs(levels[rows])
    ]


def _check_window(config: SweepConfig, levels, energies, populations, t_max, points: int):
    """Every check of a window of states, in array passes.

    Row r of the (b, W) energies and populations holds a canonical state of
    levels[r] levels, padded; the rows are sorted by level count.  Only
    what needs a rectangular (b, L) array runs once per level count: the
    moments of the states and of their mirrors, the two grid scans and the
    L^p ladder of the rows with a zero, on the rows _rows_of picks.
    Everything else runs once on the window's rows.  Each state's checks
    see the bits they would see for that state alone (see moment_rows,
    bounds_from_moments and _first_zeros).  Returns per state its worst
    envelope slack, how many of the states orthogonalized, and per state
    its violations in check order.
    t_max holds each state's scan horizon (a state of one level has none)
    and points the finder's scan size of every state (see _factor_points).
    """
    blocks = _rows_of(levels, energies, populations, np.arange(len(levels)))
    moments = _join_moments([moment_rows(e, w) for e, w in blocks])
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
    gap_a = HALF_PI / np.array(
        [mirrored.tau_ml, mirrored.tau_ml_dual, mirrored.tau_mt, mirrored.tau_bw]
    )
    gap_b = HALF_PI / np.array([bounds.tau_ml_dual, bounds.tau_ml, bounds.tau_mt, bounds.tau_bw])
    swapped = np.abs(gap_a - gap_b)
    duality_fails = ~np.all(
        swapped <= 1e-12 * np.maximum(gap_a, gap_b) + _gap_rounding(moments), axis=0
    )

    # A band of width 0 makes every tau infinite, so both taus are finite
    # wherever tau_qsl < tau_bw.
    below = np.flatnonzero(bounds.tau_qsl < bounds.tau_bw)
    qsl_fails = np.zeros(len(levels), dtype=bool)
    qsl_fails[below] = ~_releq_array(bounds.tau_qsl[below], bounds.tau_bw[below])

    slack = np.full(len(levels), math.inf)
    t_at = np.full(len(levels), math.nan)
    t_perp = np.full(len(levels), math.nan)
    # A canonical state of two or more levels has distinct energies, so a
    # bandwidth > 0.
    scanned = np.flatnonzero(levels > 1)
    if scanned.size:
        # The rows sort by level count: states of one level fill block 0.
        slack[scanned], t_at[scanned] = _kernels.envelope_slack_scan(
            *zip(*blocks[int(levels[0] == 1) :]),
            bounds.tau_mt[scanned],
            bounds.tau_ml[scanned],
            bounds.tau_ml_dual[scanned],
            np.zeros(scanned.size), t_max[scanned], config.time_steps,
        )
    # Padding is 0 and a canonical population >= PRUNE_THRESHOLD: w_max holds.
    never = _never_orthogonal(populations, config.ortho_tol)
    reachable = np.flatnonzero((levels > 1) & ~never)
    if reachable.size:
        zeros = _first_zeros(
            _rows_of(levels, energies, populations, reachable),
            moments.mean[reachable],
            moments.sigma[reachable],
            t_max[reachable],
            points,
            config.ortho_tol,
        )
        t_perp[reachable] = [math.nan if t is None else t for t in zeros]

    # The floors no first zero may beat: tau_qsl, then each L^p tau.  A
    # floor is read only where a zero was found, so the L^p ladder is
    # formed for those rows alone (a row subset keeps its bits, see
    # moment_rows) and the other rows' L^p floors are nan.
    floors = np.full((1 + 2 * len(DEFAULT_P_GRID), len(levels)), math.nan)
    floors[0] = bounds.tau_qsl
    found = ~np.isnan(t_perp)
    hits = np.flatnonzero(found)
    if hits.size:
        ladder = bounds_from_moments(
            _join_moments(
                [
                    moment_rows(e, w, DEFAULT_P_GRID)
                    for e, w in _rows_of(levels, energies, populations, hits)
                ]
            )
        )
        floors[1:, hits] = [taus for _, taus in ladder.tau_ml_p + ladder.tau_ml_dual_p]
    floor_names = ["ortho_vs_qsl"] + ["ortho_vs_lp"] * (len(floors) - 1)

    # (check, failed rows, t, margin) in report order.  A state of one
    # level has inf - inf margins; a margin is read only where it failed,
    # and t_perp is nan, which fails no comparison, where no zero was found.
    with np.errstate(invalid="ignore"):
        ceiling_error = 1e-12 * max_sigma + _ceiling_rounding(moments, max_sigma)
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
    violations = [[] for _ in levels]
    for r in np.flatnonzero(np.any([failed for _, failed, _, _ in checks], axis=0)):
        state = tuple(zip(energies[r, : levels[r]].tolist(), populations[r, : levels[r]].tolist()))
        violations[r] = [
            Violation(
                name,
                state,
                None if t is None else float(t[r]),
                float(margin[r]),
            )
            for name, failed, t, margin in checks
            if failed[r]
        ]
    return slack.tolist(), int(np.count_nonzero(found)), violations


def _sweep_range(config: SweepConfig, start: int, stop: int):
    """Samples [start, stop): the worst envelope slack, the violations in
    index order, and how many states orthogonalized.

    The range goes one chunk of max(1, _BATCH_POINTS // (2 level_max))
    indices at a time, about _BATCH_POINTS sampled words and padded
    entries; only the worst slack, the orthogonalization count and the
    violations are kept, so memory does not grow with the sample count.
    Each state is a pure function of (seed, index), read from its own
    counter blocks of the sweep's Philox stream; a chunk's states are
    drawn from one generator, sorted by level count (see _sample_range),
    and checked in windows of at most _BATCH_POINTS points per scan,
    whatever their level counts.  A window changes no bit of any state's
    result, so neither does the split of the range into chunks, windows
    or workers.
    Every finder scan takes _factor_points(t_max_factor) points, 401 by default.
    """
    points = _factor_points(config.t_max_factor)
    steps = max(points, config.time_steps) - 1
    per_window = max(1, _BATCH_POINTS // (steps + 1))
    worst = math.inf
    violations = []
    ortho = 0
    chunk = max(1, _BATCH_POINTS // (2 * config.level_max))
    for lo in range(start, stop, chunk):
        index, levels, energies, populations = _sample_range(config, lo, min(lo + chunk, stop))
        bandwidth = energies[np.arange(len(levels)), levels - 1] - energies[:, 0]
        # Each banded state's horizon is finite (the factor is capped, and
        # canonical levels lie over 1e-12 apart).  The first in index order
        # whose step on the finer grid is subnormal, so every time of it sits
        # next to 0, is refused, as a state-by-state sweep would refuse it.
        banded = np.flatnonzero(bandwidth > 0.0)
        horizon = config.t_max_factor * (math.pi / bandwidth[banded])
        refused = horizon < _TINY * steps
        if refused.any():
            r = np.argmin(np.where(refused, index[banded], stop))
            raise ValueError(
                f"t_max={float(horizon[r])} needs a scan step of {float(horizon[r] / steps)}, "
                f"below the least normal float {float(_TINY)}"
            )
        t_max = np.full(len(levels), math.nan)
        t_max[banded] = horizon

        slack = np.empty(len(levels))
        flagged = []
        for first in range(0, len(levels), per_window):
            window = slice(first, first + per_window)
            slack[window], ortho_window, violations_window = _check_window(
                config,
                *(rows[window] for rows in (levels, energies, populations, t_max)),
                points,
            )
            ortho += ortho_window
            flagged += violations_window
        # in index order, as a state-by-state fold would take them
        order = np.argsort(index)
        worst = min(worst, *slack[order].tolist())
        violations.extend(v for r in order.tolist() for v in flagged[r])
    return worst, violations, ortho


def falsification_sweep(config: SweepConfig = SweepConfig()) -> FalsificationReport:
    """Run every per-state check over `config.samples` random states.

    The sweep is deterministic for a fixed seed regardless of worker
    count; workers only partition the sample index range, and no more
    workers start than there are samples.  A config outside the documented
    ranges (seed an integer >= 0, levels up to MAX_LEVELS, tolerances finite
    and >= 0, t_max_factor in (0, 49999.95]) is refused before sampling.
    """
    if isinstance(config.seed, bool) or not (
        isinstance(config.seed, (int, np.integer)) and config.seed >= 0
    ):
        raise ValueError(f"seed must be an integer >= 0, got {config.seed!r}")
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
    # before _factor_points' math.ceil, which raises OverflowError on inf
    most = (MAX_SCAN_POINTS - 1) / 20.0
    if not 0.0 < config.t_max_factor <= most:
        raise ValueError(
            f"t_max_factor must be a finite real in (0, {most}], got {config.t_max_factor}"
        )
    for name in ("slack_tolerance", "ortho_tol"):
        value = getattr(config, name)
        if not (math.isfinite(value) and value >= 0.0):
            raise ValueError(f"{name} must be a finite real >= 0, got {value}")

    workers = min(config.workers, config.samples)
    if workers == 1:
        parts = [_sweep_range(config, 0, config.samples)]
    else:
        edges = np.linspace(0, config.samples, workers + 1).astype(int).tolist()
        serial = replace(config, workers=1)
        # Imported here: the module pulls in multiprocessing, which a
        # single-process run never needs.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(_sweep_range, itertools.repeat(serial), edges[:-1], edges[1:]))

    return FalsificationReport(
        samples=config.samples,
        worst_slack_rad=min(math.inf, *(worst for worst, _, _ in parts)),
        violations=tuple(v for _, violations, _ in parts for v in violations),
        ortho_checks=sum(ortho for _, _, ortho in parts),
        seed=config.seed,
    )
