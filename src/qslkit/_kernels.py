"""Numeric kernels for the overlap f(t) = sum_j w_j exp(-i E_j t), numpy only.

``overlap_magnitudes`` evaluates |f| at arbitrary times, with one cos and
one sin per (time, level) pair.  ``grid_overlap_magnitudes`` evaluates it
on an evenly spaced grid with O(sqrt(n) L) trig calls instead of O(n L),
for one state or for stacked rows of states with one level count; the
envelope scan and the orthogonalization finder's scan use it.
``refine_min_magnitudes`` advances every bracket of a state in one
vectorized Newton step, so a call costs a few small array operations.
"""

from __future__ import annotations

import math

import numpy as np

from .bounds import envelope_angle_from_taus

# Cap on refinement steps; bisection alone shrinks a bracket by 2**-100
# in that many.
_REFINE_MAX_STEPS = 100


def overlap_magnitudes(energies, populations, times):
    phases = np.asarray(times)[:, None] * energies[None, :]
    re = np.cos(phases) @ populations
    im = -(np.sin(phases) @ populations)
    return np.hypot(re, im)


def grid_overlap_magnitudes(energies, populations, times):
    """|f| on an evenly spaced grid t_k = t0 + k h, by a block-phasor product.

    times must come from np.linspace (at least two points): only
    times[0], times[-1] and len(times) are read.  With B = ceil(sqrt(n))
    and k = q B + r,

        f(t_k) = sum_j [w_j exp(-i E_j (t0 + q B h))] exp(-i E_j r h),

    so cos and sin are taken once of the B fine phases E r h and once of
    the coarse phases E (t0 + q B h), with the weights folded into the
    coarse factors, and one complex (Q x L) @ (L x B) product applies
    cos(a + b) = cos a cos b - sin a sin b and the matching sin rule to
    every grid point.  Both phases carry the rounding of a direct phase
    E t_k, so the result matches overlap_magnitudes to a few eps * E t.

    Stacked rows work too: energies and populations (b, L) with times
    (b, n), one grid per row, give (b, n).  Each row takes the same float
    operations, and the same (Q x L) @ (L x B) product, as it would alone,
    so its magnitudes carry the same bits.
    """
    times = np.asarray(times)
    n = times.shape[-1]
    t0 = times[..., 0, None]
    h = (times[..., -1, None] - t0) / (n - 1)
    block = math.isqrt(n - 1) + 1
    fine = np.exp(-1j * ((np.arange(block) * h)[..., None] * energies[..., None, :]))
    coarse = np.exp(
        -1j * ((np.arange(0, n, block) * h + t0)[..., None] * energies[..., None, :])
    )
    mags = np.abs((coarse * populations[..., None, :]) @ fine.swapaxes(-1, -2))
    return mags.reshape(mags.shape[:-2] + (-1,))[..., :n]


def envelope_slack_scan(energies, populations, tau_mt, tau_ml, tau_dual, times):
    """Least envelope angle minus arccos|f| over times, and where it falls.

    times must come from np.linspace; see grid_overlap_magnitudes.  One
    state gives two 0-d arrays; stacked rows ((b, L) states, (b,) taus,
    (b, n) times) give two (b,) arrays, one entry per row.
    """
    times = np.asarray(times)
    mags = np.minimum(grid_overlap_magnitudes(energies, populations, times), 1.0)
    taus = [np.asarray(tau)[..., None] for tau in (tau_mt, tau_ml, tau_dual)]
    slack = envelope_angle_from_taus(times, *taus) - np.arccos(mags)
    at = np.argmin(slack, axis=-1)[..., None]
    return (
        np.take_along_axis(slack, at, -1)[..., 0],
        np.take_along_axis(times, at, -1)[..., 0],
    )


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
    # Filled in place: on a few brackets np.stack costs more than a step.
    weights = np.empty((len(energies), 3))
    weights[:, 0] = populations
    weights[:, 1] = weighted
    weights[:, 2] = weighted * energies
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
        convex = g2 > 0.0
        # Where g'' <= 0 the Newton step is never taken, so it is not formed.
        newton = t - np.divide(g1, g2, out=np.zeros(len(g1)), where=convex)
        accept = convex & (newton >= lo) & (newton <= hi)
        fallback = 0.5 * (lo + hi)
        if step == 0:
            # Bisection alone would walk a bracket whose minimum is hi to
            # that edge over ~40 steps, re-evaluating every other bracket
            # on each one.
            fallback = np.where(downhill, hi, fallback)
        t_next = np.where(accept, newton, fallback)
        converged = (np.abs(t_next - t) <= tol).all()
        t = t_next
        if converged:
            break
    return t, overlap_magnitudes(energies, populations, t)
