"""Measurement-scan kernels.

Minimising the average post-measurement entropy over measurement directions
is the hot loop of the package: the best node of a hemisphere grid
followed by a descent from it, once per state and many thousand times in
Monte Carlo sweeps.  ``min_entropy_scan`` takes its grid from a cache
filled on first use per shape and finds the best node coarse to fine:
``avg_entropy_numpy`` evaluates every 4th row and column, then the dense
nodes around the coarse pass's lowest local minima (``_scan_tables`` and
``_fine_nodes``, also cached per shape), about 4,500 of the default grid's
65,160 nodes.  ``_sphere_descent`` refines that node by Newton steps on
the sphere, reading the gradient and Hessian off a 9-point stencil in the
tangent plane, one point and its stencil per call, ~4 calls per state;
the chord search of ``conjectures.min_chord_entropy`` takes the same
descent.  The circle scan keeps ``_refine_python``, the step-halving
descent over one angle, which descends from one starting angle per state,
each with its own value, point and step.  ``avg_entropy_numpy``
works through long direction arrays in fixed blocks of rows, so that the
temporaries stay small enough to be reused from the heap instead of being
mapped afresh.

When R ignores the measured qubit's y axis the search reduces exactly to
the x-z great circle, scanned by ``min_entropy_circle_scan`` for one R or
an (N, 4, 4) stack in blocks of states: no call of ``_avg_entropy`` it
makes evaluates more than ``_CIRCLE_PAIRS`` (state, angle) pairs, so the
node pass takes 16 states at a time on the default grid and the descent
360, each block of the descent moving all its states together.

Both scans evaluate the entropy with ``_avg_entropy``, the entropy sum
over ``_outcomes``, the one forward map from R and n to p+- and |y+-|.  It
sums b.n, T n and |w+-| element by element from each state's own entries,
with no matrix product.  So a direction's value is bitwise the same alone,
in any block of rows, in any stack of states and in either scan.  The
mixture family's constrained maximiser and gap survey read the same map.

A direction n on the unit sphere stands for the projective measurement with
elements (1 +- n.sigma)/2 on qubit B.  Given the Pauli coefficient matrix R,
outcome probabilities and steered Bloch vectors of qubit A follow from

    p(+-) = (1 +- b.n)/2,      p(+-) y(+-) = (a +- T n)/2,

where b = R[0, 1:], a = R[1:, 0] and T = R[1:, 1:].  Antipodal directions
give the same measurement, so scanning one hemisphere suffices.
"""

import functools
import math

import numpy as np

__all__ = [
    "P_FLOOR",
    "grid_directions",
    "avg_entropy_numpy",
    "min_entropy_scan",
    "min_entropy_circle_scan",
]

P_FLOOR = 1e-14  # outcome probabilities at or below this contribute no entropy
_LEVELS = 8  # step halvings probed per call in the descent
# descent probe offsets along the angle, in steps: + then -, largest first
_OFFSETS = np.outer((1.0, -1.0), 0.5 ** np.arange(_LEVELS)).ravel()
_SCALES = np.abs(_OFFSETS)
_SIGNS = np.array([1.0, -1.0]).reshape(2, 1, 1)  # outcomes + and - along a leading axis
# (state, angle) pairs one _avg_entropy call of the circle scan may evaluate:
# 16 states at the default grid's 360 circle nodes, or 360 states at the
# descent's 16 probes.  A call's temporaries, (2, 5760) doubles each, keep a
# 1k-sample survey's peak RSS where 16-state chunks kept it (41.2 MB in a
# perfbench survey run); at 16 * 1000 pairs, one descent over the 1,000
# states, it reads ~2.1 MB more
_CIRCLE_PAIRS = 16 * 360
# Directions per block in avg_entropy_numpy.  A block's temporaries
# (~0.4 MB) plus the 0.5 MB result of a 181 x 360 grid stay below glibc's
# heap trim threshold, so warm calls reuse heap pages instead of faulting
# them in again; at 4096 rows they do not, and a call takes over 200 faults.
_BLOCK_ROWS = 2048
# the sphere descent's stencil in units of its scale: the centre, +-u, +-v and
# the four diagonals of the tangent plane
_STENCIL = np.array(
    [(0, 0), (1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (1, -1), (-1, 1), (-1, -1)],
    dtype=np.float64,
)
_FLOOR = 1e-5  # the descent's stencil scale, and the least step scale
_REACH = 4.0  # longest descent step, in lengths of the last accepted one
_SHRINK = 16.0  # stencil scale divisor once the descent's step is below the tolerance
_GRIDS = {}  # (n_polar, n_azimuth) -> read-only grid_directions output
_STRIDE = 4  # coarse pass of the hemisphere scan: every 4th polar row and azimuth column
_BASINS = 8  # coarse local minima whose surroundings the fine pass evaluates
_SCANS = {}  # (n_polar, n_azimuth) -> _scan_tables output


def grid_directions(n_polar, n_azimuth):
    """Hemisphere grid (theta, phi, n) with polar in [0, pi/2] inclusive."""
    theta = np.linspace(0.0, 0.5 * np.pi, n_polar)
    phi = np.arange(n_azimuth) * (2.0 * np.pi / n_azimuth)
    tt, pp = np.meshgrid(theta, phi, indexing="ij")
    tt = tt.ravel()
    pp = pp.ravel()
    return tt, pp, _directions(tt, pp)


def _directions(theta, phi):
    """Unit vectors (sin t cos p, sin t sin p, cos t) along a last axis of 3."""
    st = np.sin(theta)
    return np.stack((st * np.cos(phi), st * np.sin(phi), np.cos(theta)), axis=-1)


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


def _scan_tables(n_polar, n_azimuth):
    """``(stride, nodes, neighbours)`` of the coarse pass over a grid shape, built once.

    The stride is ``_STRIDE`` when it divides n_polar - 1 and half the
    azimuths, else 1, which makes every node coarse.  ``nodes`` holds the
    dense grid indices of the coarse nodes, ascending: the pole row counts
    as one node, index 0, followed by every stride-th azimuth of every
    stride-th polar row.  Column k of ``neighbours``, (8, len(nodes) - 1),
    lists as positions in ``nodes`` the 8 neighbours of coarse node k + 1:
    the row above the first coarse row is the pole, and the row below the
    equator is the row above it, turned by half the azimuths (antipodes
    are one measurement).
    """
    key = (n_polar, n_azimuth)
    tables = _SCANS.get(key)
    if tables is None:
        coarse = (n_polar - 1) % _STRIDE == 0 and n_azimuth % (2 * _STRIDE) == 0
        stride = _STRIDE if coarse else 1
        rows, cols = (n_polar - 1) // stride, n_azimuth // stride
        a, b = np.divmod(np.arange(rows * cols), cols)
        a += 1  # coarse rows 1..rows below the pole
        da, db = (np.delete(d.ravel(), 4)[:, np.newaxis] for d in np.mgrid[-1:2, -1:2])
        na, nb = a + da, b + db
        below = na > rows
        na = np.where(below, 2 * rows - na, na)
        nb = np.where(below, nb + cols // 2, nb) % cols
        neighbours = np.where(na == 0, 0, 1 + (na - 1) * cols + nb)
        nodes = np.concatenate(([0], stride * (n_azimuth * a + b)))
        tables = _SCANS.setdefault(key, (stride, nodes, neighbours))
    return tables


def _fine_nodes(values, stride, nodes, neighbours, n_polar, n_azimuth):
    """Dense grid indices around the ``_BASINS`` lowest coarse local minima.

    ``values`` are the values at ``nodes`` (see ``_scan_tables``).  A node
    is a local minimum when its (value, dense index) is below every
    neighbour's, so a flat plateau has one.  Around a minimum off the pole
    the fine pass takes the (2 stride + 1)^2 dense nodes within stride rows
    and columns, reflected at the equator; around the pole, every node of
    the rows down to the first coarse row.  Indices may repeat.
    """
    v = values[1:]
    around = values[neighbours]
    least = around.min(axis=0)
    lowest = v < least
    # ties with the lowest neighbour go by position; >= since a node of a
    # narrow grid can be among its own neighbours
    tied = np.flatnonzero(v == least)
    lowest[tied] = ((around[:, tied] > v[tied]) | (neighbours[:, tied] >= tied + 1)).all(axis=0)
    minima = np.flatnonzero(lowest) + 1
    if values[0] <= values[1 : 1 + n_azimuth // stride].min():
        minima = np.concatenate(([0], minima))
    minima = minima[np.lexsort((minima, values[minima]))[:_BASINS]]
    row, col = np.divmod(nodes[minima[minima > 0]], n_azimuth)
    span = np.arange(-stride, stride + 1)
    rows = row[:, np.newaxis, np.newaxis] + span[:, np.newaxis]
    cols = col[:, np.newaxis, np.newaxis] + span
    below = rows > n_polar - 1
    rows = np.where(below, 2 * (n_polar - 1) - rows, rows)
    cols = np.where(below, cols + n_azimuth // 2, cols) % n_azimuth
    window = (n_azimuth * rows + cols).ravel()
    if (minima == 0).any():  # the pole: the cap down to the first coarse row
        window = np.concatenate((np.arange(n_azimuth, (stride + 1) * n_azimuth), window))
    return window


def _entropy_of_norms(x):
    """Binary entropy h(x) in bits of each Bloch-vector norm x in [0, 1]."""
    hp = 0.5 * (1.0 + x)
    hq = 1.0 - hp
    # 0.0 - ...: a pure state's h(1) is +0.0, where -hp * log2(hp) gives -0.0
    return 0.0 - hp * np.log2(hp) - hq * np.log2(np.where(hq > 0.0, hq, 1.0))


def _project(r, terms):
    """b.n (row 0) and T n (rows 1-3) per state, (N, 4, m); arguments as for ``_outcomes``."""
    return functools.reduce(
        np.add, (r[:, :, k, np.newaxis] * n_k[..., np.newaxis, :] for k, n_k in terms)
    )


def _outcomes(r, terms):
    """Outcome probabilities p+- and steered norms |y+-| at n = sum_k n_k e_k, per state.

    ``r`` is an (N, 4, 4) stack.  ``terms`` pairs each axis k (1, 2 or 3)
    of the measured qubit with the components n_k of the directions: (m,)
    values shared by all states or (N, m), one row per state; an axis left
    out has n_k = 0.  Returns ``(p, x)``, each (2, N, m) with outcome + then
    - along the leading axis; x = |w+-| / p+- is clamped at 1, since |y|
    carries a round-off error of order eps / p.  An outcome with p <=
    P_FLOOR has no Bloch vector, and its x means nothing.  b.n, T n and
    |w+-| are summed term by term from each state's own entries, with no
    matrix product, so a result does not depend on which other states or
    directions share the call.
    """
    rn = _project(r, terms)
    p = 0.5 * (1.0 + _SIGNS * rn[:, 0])
    w_sq = 0.0
    for i in (1, 2, 3):  # |w+-|^2, one component of w = (a +- T n)/2 at a time
        w = 0.5 * (r[:, i, 0, np.newaxis] + _SIGNS * rn[:, i])
        w_sq = w_sq + w * w
    return p, np.minimum(np.sqrt(w_sq) / np.where(p > P_FLOOR, p, 1.0), 1.0)


def _avg_entropy(r, terms):
    """Average entropy sum_+- p h(|y|) at the directions of ``terms``, (N, m) values.

    Arguments as for ``_outcomes``; outcomes with p <= P_FLOOR contribute 0.
    """
    p, x = _outcomes(r, terms)
    h = np.where(p > P_FLOOR, p * _entropy_of_norms(x), 0.0)
    return h[0] + h[1]


def avg_entropy_numpy(r, ns):
    """Average post-measurement entropy for each direction row of ``ns``.

    Rows are evaluated by ``_avg_entropy`` in blocks of ``_BLOCK_ROWS``, so
    a direction's value is bitwise the same whatever rows share the call.
    """
    stack = np.asarray(r, dtype=np.float64)[np.newaxis]
    ns = np.atleast_2d(np.asarray(ns, dtype=np.float64))
    out = np.empty(len(ns))
    for start in range(0, len(ns), _BLOCK_ROWS):
        block = ns[start : start + _BLOCK_ROWS]
        out[start : start + _BLOCK_ROWS] = _avg_entropy(stack, enumerate(block.T, 1))[0]
    return out


def _refine_python(objective, start, value, step, tol):
    """Step-halving descent over one angle, one starting angle per state.

    ``start`` is an (S,) array with one starting angle per state and
    ``value`` the S objective values there.  ``objective(rows, angles)``
    maps the indices of the states still descending and their
    (len(rows), m) probe angles to (len(rows), m) values.  Each state
    descends on its own, with its own step s (``step`` at first): each
    objective call probes +- s / 2**j for j < _LEVELS.  A move to the best
    probe, if it improves, sets the step to the scale that improved; else
    the step shrinks by 2**-_LEVELS.  A state stops once its step is below
    ``tol`` (> 0).  Returns ``(values, points)``, (S,) each, never above
    the start; a state's result does not depend on the other rows as long
    as the objective's values do not.
    """
    if not tol > 0.0:
        raise ValueError(f"refine tolerance must be positive, got {tol!r}")
    out_point = np.array(start, dtype=np.float64, ndmin=1)
    out_value = np.array(value, dtype=np.float64, ndmin=1)
    # the states still descending: their indices, points, values and steps
    rows, point, value = np.arange(len(out_point)), out_point.copy(), out_value.copy()
    steps = np.full(point.shape, float(step))
    while len(rows):
        cand = point[:, np.newaxis] + _OFFSETS * steps[:, np.newaxis]
        vals = objective(rows, cand)
        at = np.arange(len(rows))
        k = vals.argmin(axis=1)
        best = vals[at, k]
        moved = best < value
        steps = np.where(moved, steps * _SCALES[k], steps * 0.5**_LEVELS)
        value = np.where(moved, best, value)
        point = np.where(moved, cand[at, k], point)
        done = steps < tol
        if done.any():
            out_value[rows[done]], out_point[rows[done]] = value[done], point[done]
            rows, point, value, steps = rows[~done], point[~done], value[~done], steps[~done]
    return out_value, out_point


def _sphere_descent(values_at, start, value, step, tol):
    """Newton descent over unit directions from ``start``, one direction at a time.

    ``values_at`` maps an (m, 3) array of unit directions to m values;
    ``start`` is a unit direction n0 and ``value`` the objective there.
    The descent works in the tangent frame at n0, n(u, v) = (n0 + u e1 +
    v e2) / |.|, and each call of ``values_at`` evaluates one point with
    its 9-point stencil: the point, +-s along each tangent axis and the 4
    diagonals, s = ``_FLOOR`` unless shrunk (below).  Central differences
    give the gradient and Hessian there.  The step is the Newton step when
    the 2x2 Hessian is positive definite, else a steepest-descent step of
    length h, capped at ``_REACH`` h; h starts at ``step`` and becomes the
    length of each accepted step, kept within [``_FLOOR``, ``step``].  The
    next call probes the step's point with its stencil: a lower point is
    accepted, one that is not quarters the step, probed again from the same
    model.

    Once the step is below ``tol`` (> 0), the descent ends only if s is
    below ``tol`` too and no stencil point is lower: it moves to a lower
    stencil point if there is one, else probes the stencil again with s
    and h ``_SHRINK`` times smaller.  So it does not stop short at a cusp,
    where the difference model breaks down.  Returns ``(value,
    direction)``: the lowest value found, never above ``value``, and the
    direction where ``values_at`` gave it (``start`` itself if nothing was
    lower).
    """
    if not tol > 0.0:
        raise ValueError(f"refine tolerance must be positive, got {tol!r}")
    n0 = np.asarray(start, dtype=np.float64)
    x, y, z = n0.tolist()
    sign = math.copysign(1.0, z)  # Duff et al.'s branch-free orthonormal frame at n0
    a = -1.0 / (sign + z)
    b = x * y * a
    e1 = np.array((1.0 + sign * x * x * a, sign * b, -sign * x))
    e2 = np.array((b, sign + y * y * a, -y))

    def probe(u, v, scale):  # the directions and values of a point's stencil
        uv = (u, v) + scale * _STENCIL
        ns = n0 + uv[:, :1] * e1 + uv[:, 1:] * e2
        ns /= np.linalg.norm(ns, axis=1)[:, np.newaxis]
        return ns, values_at(ns).tolist()

    best, best_n = float(value), n0
    u = v = 0.0
    h, scale = float(step), _FLOOR
    _, vals = probe(u, v, scale)  # the model: stencil values at (u, v), scale apart
    while True:
        f0, s2 = vals[0], scale * scale
        gu, gv = (vals[1] - vals[2]) / (2.0 * scale), (vals[3] - vals[4]) / (2.0 * scale)
        huu, hvv = (vals[1] - 2.0 * f0 + vals[2]) / s2, (vals[3] - 2.0 * f0 + vals[4]) / s2
        huv = (vals[5] - vals[6] - vals[7] + vals[8]) / (4.0 * s2)
        det = huu * hvv - huv * huv
        if huu > 0.0 and det > 0.0:
            du, dv = (huv * gv - hvv * gu) / det, (huv * gu - huu * gv) / det
        else:
            norm = math.hypot(gu, gv)
            du, dv = (-h * gu / norm, -h * gv / norm) if norm > 0.0 else (0.0, 0.0)
        length = math.hypot(du, dv)
        if length > _REACH * h:
            du, dv, length = du * (_REACH * h / length), dv * (_REACH * h / length), _REACH * h
        while length >= tol:
            ns, tvals = probe(u + du, v + dv, _FLOOR)
            if tvals[0] < best:
                h, scale = min(max(length, _FLOOR), step), _FLOOR
                break
            du, dv, length = 0.25 * du, 0.25 * dv, 0.25 * length
        else:
            k = vals.index(min(vals))
            if not vals[k] < best:
                if scale < tol:
                    return best, best_n
                scale = h = scale / _SHRINK
                _, vals = probe(u, v, scale)
                continue
            du, dv = scale * _STENCIL[k]  # the lower stencil point, with its stencil
            h = scale
            ns, tvals = probe(u + du, v + dv, scale)
        u, v, best, best_n, vals = u + du, v + dv, tvals[0], ns[0], tvals


def min_entropy_scan(r, n_polar, n_azimuth, refine_tol=1e-6):
    """Minimum average post-measurement entropy over the direction sphere.

    Finds the best node of an (n_polar x n_azimuth) hemisphere grid, then
    refines from it by ``_sphere_descent``, Newton steps on the sphere,
    until the step drops below ``refine_tol`` radians (> 0).  The result is
    never above that node.  Returns ``(value, theta, phi)``: the value at
    the final direction, and that direction's angles, taken on the upper
    hemisphere (antipodes are one measurement).

    The grid comes from a cache filled on the first call per shape.  When
    ``_STRIDE`` divides n_polar - 1 and half the azimuths, as on the
    181 x 360 default grid, the best node is found coarse to fine (see
    ``_scan_tables`` and ``_fine_nodes``): a coarse pass evaluates every
    4th row and column (4,051 of 65,160 nodes, the pole once), a fine pass
    the nodes around its 8 lowest local minima, 81 per minimum (the pole's
    cap of 1,440 when the pole is one), and the descent starts from the
    lowest node evaluated, ties going to the smallest grid index as in an
    argmin over the whole grid.  Values are bitwise the dense grid's (see
    ``avg_entropy_numpy``), so this is the whole grid's best node unless
    that node lies away from every kept minimum: on the zero plateau of a
    pure state, or in a valley narrower than the coarse spacing, which
    the coarse pass does not see (3 of 4,000 mixed states, from Ginibre,
    X, Bell-diagonal and X + eps Ginibre draws).  On other shapes the
    stride is 1 and every node is evaluated.

    A warm call on the default grid takes ~0.7 ms on one core of a 2-core
    x86-64 VM (Python 3.11, numpy 2.4): ~0.45 ms to find the node among
    ~4,500 evaluated and ~0.2 ms of descent in ~4 calls of 9 directions
    (the step-halving (theta, phi) descent took ~0.8 ms in ~12 calls of
    32, and up to ~2 s near the pole).
    """
    r = np.ascontiguousarray(r, dtype=np.float64)
    if r.shape != (4, 4):
        raise ValueError(f"expected a 4x4 coefficient matrix, got {r.shape}")
    if n_polar < 2 or n_azimuth < 1:
        raise ValueError("grid must have at least 2 polar and 1 azimuth nodes")
    _, _, ns = _cached_grid(n_polar, n_azimuth)
    stride, nodes, neighbours = _scan_tables(n_polar, n_azimuth)
    coarse = avg_entropy_numpy(r, np.take(ns, nodes, axis=0))
    fine = _fine_nodes(coarse, stride, nodes, neighbours, n_polar, n_azimuth)
    index = np.concatenate((nodes, fine))
    vals = np.concatenate((coarse, avg_entropy_numpy(r, np.take(ns, fine, axis=0))))
    value = vals.min()
    k = int(index[vals == value].min())
    step = max(0.5 * np.pi / max(n_polar - 1, 1), 2.0 * np.pi / n_azimuth)
    best, n = _sphere_descent(lambda ds: avg_entropy_numpy(r, ds), ns[k], value, step, refine_tol)
    x, y, z = n if n[2] >= 0.0 else -n
    return float(best), math.atan2(math.hypot(x, y), z), math.atan2(y, x)


def min_entropy_circle_scan(r, n_polar, refine_tol=1e-6):
    """Minimum average post-measurement entropy over the x-z great circle.

    ``r`` is one 4x4 coefficient matrix or an (N, 4, 4) stack of them.
    Directions are n(xi) = (sin xi, 0, cos xi) with xi in [0, pi), since
    antipodal directions give the same measurement.  The scan visits the
    2 (n_polar - 1) nodes of an (n_polar x n_azimuth) hemisphere grid that
    lie on this circle (azimuth 0 and, through the origin, azimuth pi), so
    the azimuth count does not enter.  The nodes are evaluated for
    ``_CIRCLE_PAIRS // nodes`` states at a time (16 on the default grid,
    at least one); ``_refine_python`` then refines the best nodes of
    ``_CIRCLE_PAIRS // len(_OFFSETS)`` = 360 states at a time over xi, each
    state with its own step, until the step drops below ``refine_tol``
    radians (> 0), probing xi +- step / 2**j for eight halvings j per
    call.  A result is never above its best node.  Returns ``(value, xi)``
    for one matrix and ``(values, xis)`` arrays for a stack, xi being the
    descent's own angle, near [0, pi) but not folded into it: the value is
    the one at n(xi), bitwise.

    Values come from ``_avg_entropy`` with the two terms sin xi and cos xi,
    and each state descends on its own, so a state's result is bitwise the
    same alone, in any stack and in any block of one.

    This is the global minimum over the whole sphere only when column 2
    of ``r`` vanishes (the measured qubit's y axis does not enter);
    callers check that.
    """
    r = np.asarray(r, dtype=np.float64)
    if r.shape[-2:] != (4, 4) or r.ndim not in (2, 3):
        raise ValueError(f"expected a 4x4 coefficient matrix or a stack of them, got {r.shape}")
    if n_polar < 2:
        raise ValueError("grid must have at least 2 polar nodes")
    stack = r.reshape(-1, 4, 4)
    d_xi = 0.5 * np.pi / (n_polar - 1)
    nodes = np.arange(2 * (n_polar - 1)) * d_xi

    def on_circle(states, xi):  # values at n = (sin xi, 0, cos xi)
        return _avg_entropy(states, ((1, np.sin(xi)), (3, np.cos(xi))))

    count = len(stack)
    start, start_value = np.empty(count), np.empty(count)
    rows = max(1, _CIRCLE_PAIRS // len(nodes))
    for i in range(0, count, rows):
        vals = on_circle(stack[i : i + rows], nodes)
        k = vals.argmin(axis=1)
        start[i : i + rows], start_value[i : i + rows] = nodes[k], vals[np.arange(len(k)), k]
    best, xi = np.empty(count), np.empty(count)
    rows = _CIRCLE_PAIRS // len(_OFFSETS)
    for i in range(0, count, rows):
        block = slice(i, i + rows)
        states = stack[block]
        best[block], xi[block] = _refine_python(
            lambda live, angles, states=states: on_circle(states[live], angles),
            start[block],
            start_value[block],
            d_xi,
            refine_tol,
        )
    if r.ndim == 2:
        return float(best[0]), float(xi[0])
    return best, xi
