"""Numeric kernels for the overlap f(t) = sum_j w_j exp(-i E_j t), numpy only.

``overlap_magnitudes`` evaluates |f| at arbitrary times, with one cos and
one sin per (time, level) pair.  ``grid_overlap`` evaluates f itself on
an evenly spaced grid with O(sqrt(n) L) trig calls instead of O(n L),
for one state or for stacked rows of states with one level count.
``envelope_slack_scan`` takes |f| from it on blocks of stacked rows, one
level count per block; one state is a block of one row.  It scans each
row only up to that row's own reach, all rows in one flat ragged vector.
``refine_min_magnitudes`` advances every bracket of a state in one
vectorized Newton step, so a call costs a few small array operations.
"""

from __future__ import annotations

import math

import numpy as np

from .bounds import envelope_angle_from_taus

# A refinement stops once no bracket's step exceeds _REFINE_STEP_TOL, or
# after _REFINE_MAX_STEPS steps: bisection alone shrinks a bracket by
# 2**-100 in that many.
_REFINE_STEP_TOL = 1e-12
_REFINE_MAX_STEPS = 100


def overlap_magnitudes(energies, populations, times):
    phases = np.asarray(times)[:, None] * energies[None, :]
    re = np.cos(phases) @ populations
    im = -(np.sin(phases) @ populations)
    return np.hypot(re, im)


def grid_points(end, n, k):
    """Points k of np.linspace(0, end, n) by its arithmetic, bit for bit
    where its step is not 0: k (end / (n - 1)), end at n - 1."""
    return np.where(k == n - 1, end, k * (end / (n - 1)))


def grid_overlap(energies, populations, end, n, stop=None):
    """f on the evenly spaced grid t_k = k h, by a block-phasor product.

    The grid is np.linspace(0, end, n), n >= 2, given by its end, with
    the step h = end / (n - 1) as linspace forms it (see grid_points).
    With B = ceil(sqrt(n)) and k = q B + r,

        f(t_k) = sum_j [w_j exp(-i E_j q B h)] exp(-i E_j r h),

    so cos and sin are taken once of the B fine phases E r h and once of
    the coarse phases E q B h, with the weights folded into the coarse
    factors, and one complex (Q x L) @ (L x B) product applies
    cos(a + b) = cos a cos b - sin a sin b and the matching sin rule to
    every grid point.  Both phases carry the rounding of a direct phase
    E t_k, so np.abs of the result matches overlap_magnitudes to a few
    eps * E t.

    Stacked rows work too: energies and populations (b, L) with (b,)
    end, one grid per row, give (b, n).  Each row takes the same
    float operations, and the same (Q x L) @ (L x B) product, as it would
    alone, so its values, and the magnitudes np.abs takes of them, carry
    the same bits.

    With stop, only the first stop points of every grid are returned,
    and only the coarse rows that hold them are formed.  At least two
    are kept: a one-row product takes another BLAS path, with other bits.
    """
    h = np.asarray(end)[..., None] / (n - 1)
    block = math.isqrt(n - 1) + 1
    last = n if stop is None else min(n, max(stop, block + 1))
    fine = np.exp(-1j * ((np.arange(block) * h)[..., None] * energies[..., None, :]))
    coarse = np.exp(-1j * ((np.arange(0, last, block) * h)[..., None] * energies[..., None, :]))
    values = (coarse * populations[..., None, :]) @ fine.swapaxes(-1, -2)
    return values.reshape(values.shape[:-2] + (-1,))[..., : n if stop is None else stop]


def grid_reach(end, n, last):
    """np.count_nonzero(~(times >= last)) of each grid times = np.linspace(0,
    end, n), last > 0 or nan, without the times: a grid ascends, so it is
    ceil(last / h), give or take a rounding that the points on either side
    settle.  The quotient is formed only where it is at most about n - 1."""
    h = end / (n - 1)
    quotient = np.divide(last, h, out=np.full(np.shape(h), np.inf), where=(h > 0.0) & (last <= end))
    reach = np.fmin(np.ceil(quotient), n).astype(np.int64)
    reach -= (reach > 0) & (grid_points(end, n, reach - 1) >= last)
    reach += (reach < n) & ~(grid_points(end, n, reach) >= last)
    return reach


def envelope_slack_scan(energies, populations, tau_mt, tau_ml, tau_dual, end, n):
    """Least envelope angle minus arccos|f| over time grids, and where it falls.

    energies and populations are lists of (b_i, L_i) blocks of stacked
    states, one level count per block, whose rows, block after block,
    are the rows of the (b,) taus, each > 0 or nan, and of the grids
    np.linspace(0, end[r], n) with (b,) end (see grid_overlap).  Returns
    two (b,) arrays, one entry per row.

    Each envelope term is exactly pi/2 once t >= its tau: x = 1, and
    _xi_factor(1) = sqrt(1) = 1.  So a point past all of its row's taus
    has the slack pi/2 - arccos|f| >= 0, while the slack at t = 0 is
    0 - arccos|f(0)| <= 0, and the first minimum wins.  Each row is
    therefore scanned only up to its own reach (see grid_reach).  The
    reached points of all rows, formed only there (see grid_points), are
    scanned as one flat vector, and each row's first minimum is found in
    its own segment of it, with np.argmin's ties and nan.
    """
    taus = [np.asarray(tau) for tau in (tau_mt, tau_ml, tau_dual)]
    # Written so that a nan tau leaves every point short of it.
    last = np.maximum(np.maximum(taus[0], taus[1]), taus[2])
    reach = grid_reach(end, n, last)
    row = np.repeat(np.arange(len(reach)), reach)
    edges = np.concatenate(([0], np.cumsum(reach)))
    k = np.arange(edges[-1]) - edges[row]
    cuts = np.cumsum([0, *map(len, energies)])
    values = []
    for block, weights, a, b in zip(energies, populations, cuts, cuts[1:]):
        stop = int(reach[a:b].max())
        grid = grid_overlap(block, weights, end[a:b], n, stop)
        points = slice(edges[a], edges[b])
        values.append(grid.ravel().take((row[points] - a) * stop + k[points]))
    mags = np.abs(np.concatenate(values))
    np.minimum(mags, 1.0, out=mags)
    times = grid_points(end[row], n, k)
    slack = envelope_angle_from_taus(times, *(tau[row] for tau in taus))
    slack -= np.arccos(mags, out=mags)
    least = np.minimum.reduceat(slack, edges[:-1])
    # np.minimum keeps a nan, which then equals no entry: a nan is its own hit.
    hits = np.flatnonzero((slack == least[row]) | np.isnan(slack))
    at = hits[np.searchsorted(hits, edges[:-1])]
    return slack[at], times[at]


def refine_min_magnitudes(energies, populations, lo, hi):
    """Local minima of |overlap| inside the brackets [lo[k], hi[k]], all at once.

    Runs safeguarded Newton on g = |f|^2, f(t) = sum_j w_j exp(-i E_j t),
    whose first two derivatives are closed form in the weights w, w E and
    w E^2.  Each step first shrinks its bracket to the side where g'
    points downhill, then takes the Newton step, or bisects instead when
    that step leaves the closed bracket or g'' <= 0.  On the first step,
    a bracket still going downhill steps to its upper end instead of
    bisecting: if g' < 0 there too, that end is the minimum and the
    bracket collapses onto it on the next step.  The loop ends when every
    bracket's step is at most _REFINE_STEP_TOL, after taking that last
    step.  Returns the arrays (t, |f(t)|).
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
        converged = (np.abs(t_next - t) <= _REFINE_STEP_TOL).all()
        t = t_next
        if converged:
            break
    return t, overlap_magnitudes(energies, populations, t)
