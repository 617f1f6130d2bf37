"""Measurement-scan kernels.

Minimising the average post-measurement entropy over measurement directions
is the hot loop of the package: a dense hemisphere grid followed by
coordinate-descent refinement, evaluated once per state and many thousand
times in Monte Carlo sweeps.  ``min_entropy_scan`` takes its grid from a
cache filled on first use per shape, evaluates it with
``avg_entropy_numpy`` and refines the best node with ``_refine_python``,
which evaluates the four coordinate neighbours of each step in one call.
``avg_entropy_numpy`` works through long direction arrays in fixed blocks
of rows: the temporaries stay small enough to be reused from the heap
instead of being mapped afresh, and the small matrix products stay on one
BLAS thread, which on a 65k-row product would otherwise spin a second
core for no gain in wall time.  When R ignores the measured qubit's y
axis the search reduces exactly to the x-z great circle, scanned in numpy
by ``min_entropy_circle_scan``.

A direction n on the unit sphere stands for the projective measurement with
elements (1 +- n.sigma)/2 on qubit B.  Given the Pauli coefficient matrix R,
outcome probabilities and steered Bloch vectors of qubit A follow from

    p(+-) = (1 +- b.n)/2,      p(+-) y(+-) = (a +- T n)/2,

where b = R[0, 1:], a = R[1:, 0] and T = R[1:, 1:].  Antipodal directions
give the same measurement, so scanning one hemisphere suffices.
"""

import numpy as np

__all__ = [
    "P_FLOOR",
    "grid_directions",
    "avg_entropy_numpy",
    "min_entropy_scan",
    "min_entropy_circle_scan",
]

P_FLOOR = 1e-14  # outcome probabilities at or below this contribute no entropy
_CIRCLE_LEVELS = 8  # step halvings probed per call in the circle descent
# Directions per block in avg_entropy_numpy.  A block's temporaries
# (~0.3 MB) plus the 0.5 MB result of a 181 x 360 grid stay below glibc's
# heap trim threshold, so warm calls reuse heap pages instead of faulting
# them in again; at 4096 rows they do not, and a call takes over 200 faults.
_BLOCK_ROWS = 2048
_GRIDS = {}  # (n_polar, n_azimuth) -> read-only grid_directions output


def grid_directions(n_polar, n_azimuth):
    """Hemisphere grid (theta, phi, n) with polar in [0, pi/2] inclusive."""
    theta = np.linspace(0.0, 0.5 * np.pi, n_polar)
    phi = np.arange(n_azimuth) * (2.0 * np.pi / n_azimuth)
    tt, pp = np.meshgrid(theta, phi, indexing="ij")
    tt = tt.ravel()
    pp = pp.ravel()
    return tt, pp, _directions(tt, pp)


def _directions(theta, phi):
    """Unit vectors (sin t cos p, sin t sin p, cos t), one row per angle pair."""
    st = np.sin(theta)
    return np.column_stack((st * np.cos(phi), st * np.sin(phi), np.cos(theta)))


def _cached_grid(n_polar, n_azimuth):
    """``grid_directions(n_polar, n_azimuth)``, built once per shape, read-only."""
    key = (n_polar, n_azimuth)
    grid = _GRIDS.get(key)
    if grid is None:
        grid = grid_directions(n_polar, n_azimuth)
        for arr in grid:
            arr.flags.writeable = False
        grid = _GRIDS.setdefault(key, grid)  # one copy even if threads race
    return grid


def _entropy_of_norms(x):
    """Binary entropy h(x) in bits of each Bloch-vector norm x in [0, 1]."""
    hp = 0.5 * (1.0 + x)
    hq = 1.0 - hp
    h = -hp * np.log2(hp)
    nz = hq > 0.0
    h[nz] -= hq[nz] * np.log2(hq[nz])
    return h


def avg_entropy_numpy(r, ns):
    """Average post-measurement entropy for each direction row of ``ns``.

    Rows are evaluated in blocks of ``_BLOCK_ROWS``, so a long call returns
    bitwise the values of its block-sized slices.
    """
    ns = np.atleast_2d(np.asarray(ns, dtype=np.float64))
    out = np.empty(len(ns))
    for start in range(0, len(ns), _BLOCK_ROWS):
        stop = start + _BLOCK_ROWS
        out[start:stop] = _avg_entropy_block(r, ns[start:stop])
    return out


def _avg_entropy_block(r, ns):
    a = r[1:, 0]
    t_n = ns @ r[1:, 1:].T
    bn = ns @ r[0, 1:]
    out = np.zeros(len(ns))
    for sign in (1.0, -1.0):
        p = 0.5 * (1.0 + sign * bn)
        w = 0.5 * (a + sign * t_n)
        ok = p > P_FLOOR
        x = np.minimum(np.linalg.norm(w[ok], axis=1) / p[ok], 1.0)
        out[ok] += p[ok] * _entropy_of_norms(x)
    return out


def _refine_python(objective, theta, phi, step, tol):
    """Coordinate descent with step halving from (theta, phi).

    ``objective(thetas, phis)`` maps equal-length angle arrays to values.
    Each step evaluates the four neighbours theta +- step and phi +- step
    in one call and moves to the best of them if it improves on the
    current value, else halves the step, until the step drops below
    ``tol``.  Returns ``(best, theta, phi)``.
    """
    best = float(objective(np.array([theta]), np.array([phi]))[0])
    d_theta = np.array([1.0, -1.0, 0.0, 0.0])
    d_phi = np.array([0.0, 0.0, 1.0, -1.0])
    for _ in range(100000):
        if step < tol:
            break
        thetas = theta + step * d_theta
        phis = phi + step * d_phi
        vals = objective(thetas, phis)
        k = int(np.argmin(vals))
        if vals[k] < best:
            best = float(vals[k])
            theta, phi = float(thetas[k]), float(phis[k])
        else:
            step *= 0.5
    return best, theta, phi


def min_entropy_scan(r, n_polar, n_azimuth, refine_tol=1e-6):
    """Minimum average post-measurement entropy over the direction sphere.

    Scans an (n_polar x n_azimuth) hemisphere grid, then refines from the
    best node by coordinate descent with step halving until the step drops
    below ``refine_tol`` radians.  The result is never above the best grid
    node.  Returns ``(value, theta, phi)``.

    The grid comes from a cache filled on the first call per shape and is
    evaluated in blocks of rows (see ``avg_entropy_numpy``); each descent
    step evaluates its four candidates in one call.  A warm call on the
    181 x 360 default grid takes ~15 ms on one core of a 2-core x86-64 VM
    (Python 3.11, numpy 2.4, OpenBLAS 0.3.31): ~12.5 ms of grid
    evaluation and ~2.5 ms of descent in ~28 evaluation calls.
    """
    r = np.ascontiguousarray(r, dtype=np.float64)
    if r.shape != (4, 4):
        raise ValueError(f"expected a 4x4 coefficient matrix, got {r.shape}")
    if n_polar < 2 or n_azimuth < 1:
        raise ValueError("grid must have at least 2 polar and 1 azimuth nodes")
    tt, pp, ns = _cached_grid(n_polar, n_azimuth)
    vals = avg_entropy_numpy(r, ns)
    k = int(np.argmin(vals))

    def objective(thetas, phis):
        return avg_entropy_numpy(r, _directions(thetas, phis))

    step = max(0.5 * np.pi / max(n_polar - 1, 1), 2.0 * np.pi / n_azimuth)
    best, theta, phi = _refine_python(objective, tt[k], pp[k], step, refine_tol)
    return min(best, float(vals[k])), theta, phi


def _circle_directions(xi):
    return np.column_stack((np.sin(xi), np.zeros_like(xi), np.cos(xi)))


def min_entropy_circle_scan(r, n_polar, refine_tol=1e-6):
    """Minimum average post-measurement entropy over the x-z great circle.

    Directions are n(xi) = (sin xi, 0, cos xi) with xi in [0, pi), since
    antipodal directions give the same measurement.  The scan visits the
    2 (n_polar - 1) nodes of an (n_polar x n_azimuth) hemisphere grid that
    lie on this circle (azimuth 0 and, through the origin, azimuth pi), so
    the azimuth count does not enter.  The best node is refined by
    step-halving descent until the step drops below ``refine_tol``
    radians; each numpy call probes xi +- step / 2**j for the next
    several halvings j at once.  The result is never above the best
    node.  Returns ``(value, xi)`` with xi folded into [-pi/2, pi/2), so
    that n3 >= 0 as on the hemisphere grid.

    This is the global minimum over the whole sphere only when column 2
    of ``r`` vanishes (the measured qubit's y axis does not enter);
    callers check that.
    """
    r = np.ascontiguousarray(r, dtype=np.float64)
    if r.shape != (4, 4):
        raise ValueError(f"expected a 4x4 coefficient matrix, got {r.shape}")
    if n_polar < 2:
        raise ValueError("grid must have at least 2 polar nodes")
    d_xi = 0.5 * np.pi / (n_polar - 1)
    nodes = np.arange(2 * (n_polar - 1)) * d_xi
    vals = avg_entropy_numpy(r, _circle_directions(nodes))
    k = int(np.argmin(vals))
    best, xi = float(vals[k]), float(nodes[k])
    scales = 0.5 ** np.arange(_CIRCLE_LEVELS)
    offsets = np.concatenate((scales, -scales))
    step = d_xi
    while step >= refine_tol:
        cand = xi + step * offsets
        vals = avg_entropy_numpy(r, _circle_directions(cand))
        k = int(np.argmin(vals))
        if vals[k] < best:
            best, xi = float(vals[k]), float(cand[k])
            step *= abs(offsets[k])  # carry on from the scale that improved
        else:
            step *= 0.5**_CIRCLE_LEVELS
    return best, (xi + 0.5 * np.pi) % np.pi - 0.5 * np.pi
