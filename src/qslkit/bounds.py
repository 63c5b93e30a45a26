"""Evolution-time bounds and regime classification for bounded spectra.

Three elementary times control how fast a state can move away from
itself: pi/(2*sigma) from the energy spread, pi/(2*(mean - e0)) from the
mean gap to the bottom of the occupied band, and pi/(2*(emax - mean))
from the mean gap to the top.  The largest of the three is the operative
limit, and which one wins partitions moment space into MT, ML, and
DUAL_ML regions separated by exact equalities.

The spread-based angle bound is linear in t; the two mean-gap bounds
grow like sqrt(t) dressed with the correction factor xi.  Where a
sqrt-type curve overtakes the linear one defines a crossover time.  Under
the linear xi model it is the smaller root of a quadratic in t/tau, taken
here in closed form (see _crossover_fixed_point).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np

from .states import (
    EnergyMoments,
    SpectralState,
    _energy_scale_overflows,
    _square_overflows,
    energy_moments,
)

HALF_PI = math.pi / 2.0

# Slope of the linear model for the correction factor in the extended
# mean-energy bound; see xi.
XI_SLOPE = 0.0395

MT = "MT"
ML = "ML"
DUAL_ML = "DUAL_ML"
BOUNDARY = "BOUNDARY"
FORBIDDEN = "FORBIDDEN"

DEFAULT_P_GRID = (1.0, 2.0, 4.0, 10.0, 100.0)

_REL_TOL = 1e-12

# Least normal float: the floor of a band's square (see _check_point), and
# in verify of a chord's squared length and of a sweep's scan step.
_TINY = np.finfo(np.float64).tiny


@dataclass(frozen=True)
class BoundSet:
    """The bound family of one state; infinite entries mean "no constraint"."""

    tau_mt: float
    tau_ml: float
    tau_ml_dual: float
    tau_bw: float
    tau_ml_p: tuple
    tau_ml_dual_p: tuple
    tau_qsl: float

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class RegimeReport:
    regime: str
    crossover: Optional[float]
    boundary_tags: tuple

    def to_dict(self) -> dict:
        return asdict(self)


def _tau_of(gap: float) -> float:
    return math.pi / (2.0 * gap) if gap > 0.0 else math.inf


def bounds_from_moments(moments: EnergyMoments) -> BoundSet:
    """Assemble the bound family from precomputed moments.

    Moments of one state give Python floats.  Stacked moments (see
    states.moment_rows) give a BoundSet whose float fields are arrays with
    one entry per row, and each tau_ml_p / tau_ml_dual_p row is (p, array);
    every entry takes the float operations it takes for its state alone.
    """
    scales = [2.0 ** (1.0 / p) for p, _, _ in moments.lp]
    denominators = np.array(
        [
            2.0 * moments.sigma,
            2.0 * (moments.mean - moments.e0),
            2.0 * (moments.emax - moments.mean),
            moments.bandwidth,
        ]
        + [scale * ep for scale, (_, ep, _) in zip(scales, moments.lp)]
        + [scale * ep_dual for scale, (_, _, ep_dual) in zip(scales, moments.lp)]
    )
    # pi / denominator, or inf ("no constraint") where it is not > 0
    taus = np.divide(
        math.pi,
        denominators,
        out=np.full(denominators.shape, math.inf),
        where=denominators > 0.0,
    )
    if taus.ndim == 1:
        taus = taus.tolist()
        tau_qsl = max(taus[:3])
    else:
        tau_qsl = taus[:3].max(axis=0)
    orders = [p for p, _, _ in moments.lp]
    return BoundSet(
        tau_mt=taus[0],
        tau_ml=taus[1],
        tau_ml_dual=taus[2],
        tau_bw=taus[3],
        tau_ml_p=tuple(zip(orders, taus[4 : 4 + len(orders)])),
        tau_ml_dual_p=tuple(zip(orders, taus[4 + len(orders) :])),
        tau_qsl=tau_qsl,
    )


def bound_set(state: SpectralState, p_grid=DEFAULT_P_GRID) -> BoundSet:
    return bounds_from_moments(energy_moments(state, p_grid))


def _xi_factor(x):
    """The linear xi model 1 - XI_SLOPE * (1 - x), for a float or an array."""
    return 1.0 - XI_SLOPE * (1.0 - x)


def xi(x):
    """Correction factor for the sqrt-type angle bounds, linear model.

    Defined on [0, 1] only.  The exact factor exceeds this model by a
    positive correction below 5e-4 that vanishes at x = 1; consumers of
    envelope slacks must budget for that gap (see verify.xi_oracle for
    the tight value).
    """
    x = np.asarray(x, dtype=np.float64)
    if np.any(x < 0.0) or np.any(x > 1.0):
        raise ValueError(f"xi argument must lie in [0, 1], got {x}")
    out = _xi_factor(x)
    return float(out) if out.ndim == 0 else out


def mt_angle_term(t, tau_mt):
    """Spread-limited angle, clamped to the quarter turn it can certify."""
    x = np.minimum(np.asarray(t, dtype=np.float64) / tau_mt, 1.0)
    out = HALF_PI * x
    return float(out) if out.ndim == 0 else out


def ml_angle_term(t, tau):
    """Mean-gap-limited angle for one band edge, clamped past t = tau."""
    x = np.minimum(np.asarray(t, dtype=np.float64) / tau, 1.0)
    out = HALF_PI * _xi_factor(x) * np.sqrt(x)
    return float(out) if out.ndim == 0 else out


def envelope_angle_from_taus(t, tau_mt, tau_ml, tau_ml_dual):
    out = np.minimum(mt_angle_term(t, tau_mt), ml_angle_term(t, tau_ml))
    out = np.minimum(out, ml_angle_term(t, tau_ml_dual))
    return float(out) if np.ndim(out) == 0 else out


def envelope_angle(state: SpectralState, t):
    """Largest angle from the start state certified reachable by time t.

    The minimum of the three clamped terms; never exceeds pi/2.  Accepts
    a scalar t or an array of times.
    """
    b = bound_set(state, p_grid=())
    return envelope_angle_from_taus(t, b.tau_mt, b.tau_ml, b.tau_ml_dual)


def _crossover_fixed_point(tau_mt: float, tau: float) -> Optional[float]:
    """Fixed point t = xi(t/tau)^2 * tau_mt^2 / tau, if it lies in (0, tau].

    With u = t/tau, b = (tau_mt/tau)^2, c = 1 - XI_SLOPE and s = XI_SLOPE it
    solves b s^2 u^2 + (2bcs - 1) u + b c^2 = 0, whose smaller root is taken
    as u = 2bc^2 / (1 - 2bcs + sqrt(1 - 4bcs)), a form that does not cancel.
    Since c + s = 1 the root is 1 at b = 1 and lies in (0, 1] for b <= 1;
    b is a product, so an overflow gives inf and no root.
    """
    if not (math.isfinite(tau_mt) and math.isfinite(tau)):
        return None
    r = tau_mt / tau
    b = r * r
    c = 1.0 - XI_SLOPE
    bcs = b * c * XI_SLOPE
    discriminant = 1.0 - 4.0 * bcs
    if discriminant < 0.0:
        return None
    # t = tau * u, formed as tau_mt * (u / r) so that it takes r's rounding once
    t = tau_mt * (2.0 * r * c * c / (1.0 - 2.0 * bcs + math.sqrt(discriminant)))
    if 0.0 < t <= tau * (1.0 + _REL_TOL):
        return min(t, tau)
    return None


def crossover_times(bounds: BoundSet):
    """Crossover of each sqrt-type curve with the linear one.

    Returns (t_ml, t_ml_dual); an entry is None when that curve never
    dips below the linear bound before its own expiry at tau.
    """
    return (
        _crossover_fixed_point(bounds.tau_mt, bounds.tau_ml),
        _crossover_fixed_point(bounds.tau_mt, bounds.tau_ml_dual),
    )


def _releq(a: float, b: float) -> bool:
    return abs(a - b) <= _REL_TOL * max(abs(a), abs(b))


def _releq_array(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """_releq elementwise, with the same float operations."""
    return np.abs(a - b) <= _REL_TOL * np.maximum(np.abs(a), np.abs(b))


def _gap_rounding(moments: EnergyMoments):
    """Absolute rounding allowance of an energy gap such as mean - e0."""
    return 1e-14 * (np.abs(moments.e0) + np.abs(moments.emax) + moments.bandwidth)


def _ceiling_rounding(moments: EnergyMoments, max_sigma):
    """How far rounding may move the spread ceiling max_sigma of moments.

    The ceiling is the root of (mean - e0)(emax - mean), two gaps each off
    by up to _gap_rounding, so the product may be off by slop and the root
    by slop / (ceiling + sqrt(slop)): where one weight is tiny, far more
    than 1e-12 of the ceiling.  One level gives 0 / 0, and nan fails no
    comparison.
    """
    gap_rounding = _gap_rounding(moments)
    with np.errstate(over="ignore", invalid="ignore"):
        slop = gap_rounding * moments.bandwidth
        return np.divide(slop, max_sigma + np.sqrt(slop))


def popoviciu(moments: EnergyMoments):
    """Spread ceiling sqrt((mean - e0) * (emax - mean)) and saturation flag.

    Saturation (within 1e-9 relative, or within the rounding of the
    ceiling, see _ceiling_rounding) happens exactly when the occupied
    support has at most two levels: a qubit with a tiny weight meets its
    ceiling only to that rounding, more than 1e-9 of it.  Stacked moments
    (see states.moment_rows) give one array entry of each per row.
    """
    lower = moments.mean - moments.e0
    upper = moments.emax - moments.mean
    max_sigma = np.sqrt(np.maximum(lower * upper, 0.0))
    off = np.abs(moments.sigma - max_sigma)
    rounding = _ceiling_rounding(moments, max_sigma)
    saturated = (off <= 1e-9 * np.maximum(moments.sigma, max_sigma)) | (off <= rounding)
    if np.ndim(max_sigma) == 0:
        return float(max_sigma), bool(saturated)
    return max_sigma, saturated


def classify_regime(moments: EnergyMoments) -> RegimeReport:
    """Assign MT / ML / DUAL_ML, with ties (1e-12 relative) as BOUNDARY.

    A report other than MT always carries the crossover of the binding
    sqrt-type curve with the linear one, None where they do not cross by
    that curve's tau.  Raises ValueError for moments no state can realize:
    mean outside the band or sigma above the Popoviciu ceiling.
    """
    lower = moments.mean - moments.e0
    upper = moments.emax - moments.mean
    if lower < 0.0 or upper < 0.0:
        raise ValueError(
            f"mean {moments.mean} lies outside the band [{moments.e0}, {moments.emax}]"
        )
    max_sigma, _ = popoviciu(moments)
    if moments.sigma > max_sigma and not _releq(moments.sigma, max_sigma):
        raise ValueError(
            f"sigma {moments.sigma} exceeds the spread ceiling {max_sigma} "
            f"for mean {moments.mean}"
        )

    tags = []
    if _releq(moments.sigma, lower):
        tags.append("sigma_equals_lower_gap")
    if _releq(moments.sigma, upper):
        tags.append("sigma_equals_upper_gap")
    if _releq(lower, upper):
        tags.append("gaps_equal")

    gap = min(lower, upper)
    if _releq(moments.sigma, gap):
        regime = BOUNDARY
    elif moments.sigma < gap:
        regime = MT
    elif _releq(lower, upper):
        regime = BOUNDARY
    elif lower < upper:
        regime = ML
    else:
        regime = DUAL_ML

    crossover = None
    if regime != MT:
        # gap is lower for ML (lower < upper) and upper for DUAL_ML
        crossover = _crossover_fixed_point(_tau_of(moments.sigma), _tau_of(gap))

    return RegimeReport(
        regime=regime, crossover=crossover, boundary_tags=tuple(sorted(tags))
    )


def _check_point(mean, sigma, e0, emax) -> None:
    """Reject bare moments (scalars or arrays) that name no point of the band."""
    for name, value in (("mean", mean), ("sigma", sigma), ("e0", e0), ("emax", emax)):
        if not np.all(np.isfinite(value)):
            raise ValueError(f"{name} must be finite, got {value}")
    if not np.all((e0 <= mean) & (mean <= emax)):
        raise ValueError(f"mean {mean} lies outside the band [{e0}, {emax}]")
    if np.any(sigma < 0.0):
        raise ValueError(f"sigma must be >= 0, got {sigma}")
    width = emax - e0
    # as validate_state refuses it: (mean - e0)(emax - mean) could overflow
    if np.any(_square_overflows(width)):
        raise ValueError(f"bandwidth emax - e0 = {width!r} is too large: its square overflows")
    # or, on a band of width > 0, round to a subnormal or to 0
    if np.any((width > 0.0) & (width * width < _TINY)):
        raise ValueError(f"bandwidth emax - e0 = {width!r} is too small: its square underflows")
    if np.any(_energy_scale_overflows(e0, emax)):
        raise ValueError(
            f"energies e0 = {e0!r} and emax = {emax!r} are too large: |e0| + |emax| overflows"
        )


def classify_point(mean: float, sigma: float, e0: float = 0.0, emax: float = 1.0) -> RegimeReport:
    """Classify bare moments, mapping unreachable spreads to FORBIDDEN.

    Unlike classify_regime this never sees a state, so a sigma above the
    Popoviciu ceiling is an answer (no state lives there), not an error.
    A mean outside [e0, emax], a negative sigma or a value that is not
    finite is still a caller mistake.  As from classify_regime, a report
    other than MT or FORBIDDEN always carries its crossover.
    """
    _check_point(mean, sigma, e0, emax)
    moments = EnergyMoments(
        mean=mean, sigma=sigma, e0=e0, emax=emax, bandwidth=emax - e0, lp=()
    )
    ceiling, _ = popoviciu(moments)
    if sigma > ceiling and not _releq(sigma, ceiling):
        return RegimeReport(regime=FORBIDDEN, crossover=None, boundary_tags=())
    return classify_regime(moments)


# Indexed by the position of the first condition regime_codes finds true.
_MAP_LABELS = np.array([FORBIDDEN, BOUNDARY, MT, BOUNDARY, ML, DUAL_ML], dtype=object)


def regime_codes(mean, sigma, e0: float = 0.0, emax: float = 1.0) -> np.ndarray:
    """Regime code of every point: an int8 index into _MAP_LABELS.

    mean and sigma broadcast against each other, and the codes have their
    broadcast shape.  Each point goes through the float operations of
    classify_point and classify_regime, in their order, so ties on the
    boundary lines get the same label and the first condition holding wins.
    """
    mean = np.asarray(mean, dtype=np.float64)
    sigma = np.asarray(sigma, dtype=np.float64)
    _check_point(mean, sigma, e0, emax)
    lower = mean - e0
    upper = emax - mean
    ceiling = np.sqrt(lower * upper)
    gap = np.minimum(lower, upper)
    codes = np.full(np.broadcast_shapes(mean.shape, sigma.shape), 5, dtype=np.int8)
    np.copyto(codes, 4, where=lower < upper)
    np.copyto(codes, 3, where=_releq_array(lower, upper))
    np.copyto(codes, 2, where=sigma < gap)
    np.copyto(codes, 1, where=_releq_array(sigma, gap))
    np.copyto(codes, 0, where=(sigma > ceiling) & ~_releq_array(sigma, ceiling))
    return codes
