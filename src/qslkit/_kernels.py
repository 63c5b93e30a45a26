"""Hot numeric loops, compiled with numba when available.

The overlap kernels (``magnitude_at``, ``overlap_magnitudes``,
``envelope_slack_scan``) exist in two interchangeable flavors: a
scalar-loop version wrapped with ``@njit`` and a vectorized pure-numpy
version.  The active flavor is chosen once at import time; set
``QSLKIT_DISABLE_NUMBA=1`` to force the numpy path (the same fallback is
used when numba is not installed).  ``benchmarks/bench_kernels.py`` times
the two side by side.

``refine_min_magnitudes`` is numpy only.  It advances every bracket of a
state in one vectorized Newton step, so a call costs a few small array
operations, and there is no compiled flavor to keep in step with it.
"""

from __future__ import annotations

import math
import os

import numpy as np

HALF_PI = math.pi / 2.0

# Slope of the linear model for the correction factor in the extended
# mean-energy bound; see bounds.xi for the user-facing function.
XI_SLOPE = 0.0395

# Cap on refinement steps; bisection alone shrinks a bracket by 2**-100
# in that many.
_REFINE_MAX_STEPS = 100

_env_flag = os.environ.get("QSLKIT_DISABLE_NUMBA", "0").strip().lower()
NUMBA_DISABLED = _env_flag in ("1", "true", "yes", "on")

try:
    from numba import njit

    HAVE_NUMBA = True
except ImportError:  # pragma: no cover - exercised via the env flag instead
    HAVE_NUMBA = False

    def njit(*args, **kwargs):
        def wrap(func):
            return func

        if args and callable(args[0]):
            return args[0]
        return wrap

USING_NUMBA = HAVE_NUMBA and not NUMBA_DISABLED


# ---------------------------------------------------------------------------
# scalar-loop implementations (numba-compilable)


def _magnitude_at_loop(energies, populations, t):
    re = 0.0
    im = 0.0
    for j in range(energies.shape[0]):
        phase = energies[j] * t
        re += populations[j] * math.cos(phase)
        im -= populations[j] * math.sin(phase)
    return math.sqrt(re * re + im * im)


def _make_magnitudes_loop(mag_at):
    def impl(energies, populations, times):
        out = np.empty(times.shape[0])
        for i in range(times.shape[0]):
            out[i] = mag_at(energies, populations, times[i])
        return out

    return impl


def _envelope_angle_scalar(t, tau_mt, tau_ml, tau_dual):
    env = HALF_PI
    x = t / tau_mt
    if x < 1.0:
        env = HALF_PI * x
    x = t / tau_ml
    if x < 1.0:
        term = HALF_PI * (1.0 - XI_SLOPE * (1.0 - x)) * math.sqrt(x)
        if term < env:
            env = term
    x = t / tau_dual
    if x < 1.0:
        term = HALF_PI * (1.0 - XI_SLOPE * (1.0 - x)) * math.sqrt(x)
        if term < env:
            env = term
    return env


def _make_slack_scan_loop(mag_at, env_at):
    def impl(energies, populations, tau_mt, tau_ml, tau_dual, times):
        worst = math.inf
        worst_t = 0.0
        for i in range(times.shape[0]):
            t = times[i]
            mag = mag_at(energies, populations, t)
            if mag > 1.0:
                mag = 1.0
            slack = env_at(t, tau_mt, tau_ml, tau_dual) - math.acos(mag)
            if slack < worst:
                worst = slack
                worst_t = t
        return worst, worst_t

    return impl


# ---------------------------------------------------------------------------
# pure-numpy implementations


def magnitude_at_numpy(energies, populations, t):
    phases = energies * t
    re = float(np.dot(populations, np.cos(phases)))
    im = -float(np.dot(populations, np.sin(phases)))
    return math.sqrt(re * re + im * im)


def overlap_magnitudes_numpy(energies, populations, times):
    phases = np.asarray(times)[:, None] * energies[None, :]
    re = np.cos(phases) @ populations
    im = -(np.sin(phases) @ populations)
    return np.hypot(re, im)


def _envelope_angles_numpy(times, tau_mt, tau_ml, tau_dual):
    env = np.full(times.shape, HALF_PI)
    x = times / tau_mt
    np.minimum(env, HALF_PI * np.where(x < 1.0, x, 1.0), out=env)
    for tau in (tau_ml, tau_dual):
        x = np.minimum(times / tau, 1.0)
        term = HALF_PI * (1.0 - XI_SLOPE * (1.0 - x)) * np.sqrt(x)
        np.minimum(env, term, out=env)
    return env


def envelope_slack_scan_numpy(energies, populations, tau_mt, tau_ml, tau_dual, times):
    times = np.asarray(times)
    mags = np.minimum(overlap_magnitudes_numpy(energies, populations, times), 1.0)
    slack = _envelope_angles_numpy(times, tau_mt, tau_ml, tau_dual) - np.arccos(mags)
    i = int(np.argmin(slack))
    return float(slack[i]), float(times[i])


def refine_min_magnitudes(energies, populations, lo, hi, tol):
    """Local minima of |overlap| inside the brackets [lo[k], hi[k]], all at once.

    Runs safeguarded Newton on g = |f|^2, f(t) = sum_j w_j exp(-i E_j t),
    whose first two derivatives are closed form in the weights w, w E and
    w E^2.  Each step first shrinks its bracket to the side where g'
    points downhill, then takes the Newton step, or bisects instead when
    that step leaves the closed bracket or g'' <= 0.  On the first step,
    a bracket still going downhill steps to its upper end instead of
    bisecting: if g' < 0 there too, that end is the minimum and the
    bracket collapses onto it on the next step.  The loop ends when every
    bracket's step is at most tol, after taking that last step.  Returns
    the arrays (t, |f(t)|).
    """
    lo = np.asarray(lo, dtype=np.float64)
    hi = np.asarray(hi, dtype=np.float64)
    weighted = populations * energies
    weights = np.stack((populations, weighted, weighted * energies), axis=1)
    t = 0.5 * (lo + hi)
    for step in range(_REFINE_MAX_STEPS):
        phases = t[:, None] * energies[None, :]
        cw = np.cos(phases) @ weights
        sw = np.sin(phases) @ weights
        # with C = cw0, S = sw0 and f = C - iS:
        # g'/2 = C C' + S S',  g''/2 = C'^2 + S'^2 + C C'' + S S''
        g1 = sw[:, 0] * cw[:, 1] - cw[:, 0] * sw[:, 1]
        g2 = cw[:, 1] ** 2 + sw[:, 1] ** 2 - cw[:, 0] * cw[:, 2] - sw[:, 0] * sw[:, 2]
        downhill = g1 < 0.0
        lo = np.where(downhill, t, lo)
        hi = np.where(g1 > 0.0, t, hi)
        with np.errstate(divide="ignore", invalid="ignore"):
            newton = t - g1 / g2
        accept = (g2 > 0.0) & (newton >= lo) & (newton <= hi)
        fallback = 0.5 * (lo + hi)
        if step == 0:
            # Bisection alone would walk a bracket whose minimum is hi to
            # that edge over ~40 steps, re-evaluating every other bracket
            # on each one.
            fallback = np.where(downhill, hi, fallback)
        t_next = np.where(accept, newton, fallback)
        converged = np.all(np.abs(t_next - t) <= tol)
        t = t_next
        if converged:
            break
    return t, overlap_magnitudes_numpy(energies, populations, t)


# ---------------------------------------------------------------------------
# compiled flavors and dispatch

if HAVE_NUMBA:
    magnitude_at_numba = njit(cache=True)(_magnitude_at_loop)
    overlap_magnitudes_numba = njit(cache=True)(
        _make_magnitudes_loop(magnitude_at_numba)
    )
    _envelope_angle_numba = njit(cache=True)(_envelope_angle_scalar)
    envelope_slack_scan_numba = njit(cache=True)(
        _make_slack_scan_loop(magnitude_at_numba, _envelope_angle_numba)
    )

if USING_NUMBA:
    magnitude_at = magnitude_at_numba
    overlap_magnitudes = overlap_magnitudes_numba
    envelope_slack_scan = envelope_slack_scan_numba
else:
    magnitude_at = magnitude_at_numpy
    overlap_magnitudes = overlap_magnitudes_numpy
    envelope_slack_scan = envelope_slack_scan_numpy


def warmup():
    """Trigger JIT compilation so timed code does not pay for it."""
    e = np.array([0.0, 1.0])
    p = np.array([0.5, 0.5])
    ts = np.linspace(0.0, 1.0, 4)
    overlap_magnitudes(e, p, ts)
    envelope_slack_scan(e, p, math.pi, math.pi, math.pi, ts)
    refine_min_magnitudes(e, p, np.array([2.5]), np.array([3.8]), 1e-12)
    magnitude_at(e, p, 0.5)
