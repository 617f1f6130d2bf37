"""Steering ellipsoid of a two-qubit state.

Local measurements on qubit B steer qubit A to Bloch vectors that fill an
ellipsoid inside the unit ball.  Write a = R[1:, 0] and b = R[0, 1:] for
the Bloch vectors of A and B, T = R[1:, 1:] for the correlation block and
g = 1 - |b|^2.  Jevtic, Pusey, Jennings and Rudolph (PRL 113, 020402,
2014) give the ellipsoid's centre c = (a - T b) / g and its matrix

    Q = (T - a b^T) (I + b b^T / g) (T - a b^T)^T / g,

whose eigenvalues are the squared semi-axes, for every state whose B
marginal is mixed.  Where R is singular the ellipsoid collapses to a
filled ellipse, a segment or a point; where B's marginal is pure the state
is a product and A is steered only to its own Bloch vector.  X-shaped
states admit closed forms for the semi-axes, centre and in-plane rotation
angle, :func:`x_frame_geometry`.
"""

from dataclasses import dataclass

import numpy as np

from .discord import InternalInvariantError
from .qstate import pauli_expansion

__all__ = [
    "SteeringEllipsoid",
    "steering_ellipsoid",
    "contains",
    "surface_points",
    "x_frame_geometry",
]

_PURE_TOL = 1e-12  # g = 1 - |b|^2 at or below this: B's marginal is pure
_FACTOR_TOL = 1e-9  # axis lengths below this count as collapsed

# indexed by the number of live semi-axes
DEGENERACY_CLASSES = ("point", "segment", "ellipse", "full")


@dataclass(frozen=True, eq=False)
class SteeringEllipsoid:
    """Geometry of the steered set of qubit A.

    ``semi_axes`` are sorted in descending order; the columns of
    ``rotation`` are the matching principal directions (right-handed).
    ``orientation`` is the azimuth of the first principal direction that
    lies near the y1-y2 plane, in [0, pi); for X-shaped states with
    distinct in-plane axes it equals (mu + nu)/2 mod pi.  ``degeneracy``
    counts the semi-axes above 1e-9: "full" (three), "ellipse" (two),
    "segment" (one) or "point" (none).  Collapsed axes are stored as
    exact zeros.
    """

    center: np.ndarray
    semi_axes: np.ndarray
    orientation: float
    rotation: np.ndarray
    degeneracy: str

    def __post_init__(self):
        c = np.array(self.center, dtype=np.float64).reshape(3)
        s = np.array(self.semi_axes, dtype=np.float64).reshape(3)
        r = np.array(self.rotation, dtype=np.float64).reshape(3, 3)
        if self.degeneracy not in DEGENERACY_CLASSES:
            raise InternalInvariantError(f"unknown degeneracy class {self.degeneracy!r}")
        for arr in (c, s, r):
            arr.flags.writeable = False
        object.__setattr__(self, "center", c)
        object.__setattr__(self, "semi_axes", s)
        object.__setattr__(self, "rotation", r)


def _orientation_angle(rotation):
    # azimuth of the first in-plane principal direction, in [0, pi)
    for k in range(3):
        e = rotation[:, k]
        if abs(e[2]) < 0.5:
            ang = np.arctan2(-e[1], e[0]) % np.pi
            return float(ang)
    return 0.0


def _canonical_frame(axes, dirs):
    """Deterministic principal directions for descending ``axes``:
    identity-leaning, sign-fixed, right-handed."""
    dirs = np.array(dirs, dtype=np.float64)
    # within groups of (nearly) equal axes, re-span towards the identity
    i = 0
    while i < 3:
        j = i + 1
        while j < 3 and abs(axes[j] - axes[i]) <= 1e-9 * max(1.0, axes[i]):
            j += 1
        if j - i > 1:
            sub = dirs[:, i:j]
            proj = sub @ sub.T
            basis = []
            for k in range(3):
                v = proj @ np.eye(3)[:, k]
                for b in basis:
                    v = v - (b @ v) * b
                norm = np.linalg.norm(v)
                if norm > 1e-8:
                    basis.append(v / norm)
                if len(basis) == j - i:
                    break
            if len(basis) == j - i:
                dirs[:, i:j] = np.column_stack(basis)
        i = j
    for k in range(3):
        m = int(np.argmax(np.abs(dirs[:, k])))
        if dirs[m, k] < 0.0:
            dirs[:, k] = -dirs[:, k]
    if np.linalg.det(dirs) < 0.0:
        dirs[:, 2] = -dirs[:, 2]
    return dirs


def x_frame_geometry(params):
    """Closed form of :func:`steering_ellipsoid` for an X-shaped state.

    Returns (l1, l2, l3, Y3, phi): l1 >= l2 lie in the y1-y2 plane rotated by phi = (mu + nu)/2 about y3,
    l3 is the vertical semi-axis and (0, 0, Y3) the centre.  Valid for
    degenerate parameters as well, where collapsed axes come out as 0.
    """
    p = params
    pq = (p.a + p.c) * (p.b + p.d)
    if pq <= 0.0:
        # one marginal of B is pure, the state is a product: a single point
        r3 = p.a + p.b - p.c - p.d
        return 0.0, 0.0, 0.0, r3, 0.5 * (p.mu + p.nu)
    root = np.sqrt(pq)
    l1 = (p.u + p.v) / root
    l2 = abs(p.u - p.v) / root
    l3 = abs(p.a * p.d - p.b * p.c) / pq
    y3 = (p.a * p.b - p.c * p.d) / pq
    return float(l1), float(l2), float(l3), float(y3), 0.5 * (p.mu + p.nu)


def _factor_svd(r):
    """Centre, semi-axes and principal directions of each R in an (N, 4, 4) stack.

    The semi-axes (descending, those up to 1e-9 exactly 0) and directions
    are the singular values and left singular vectors of M = (T - a b^T) S
    / sqrt(g), with S = I + b b^T / (sqrt(g) (1 + sqrt(g))) the square root
    of I + b b^T / g, so that M M^T = Q.  Singular values carry an absolute
    error of about eps times the largest axis (eps / g as B's marginal
    nears purity), where square roots of Q's eigenvalues would leave
    collapsed axes near 1e-8.  A pure B marginal (g <= 1e-12) is a point.
    """
    a, b, t = r[:, 1:, 0], r[:, 0, 1:], r[:, 1:, 1:]
    g = 1.0 - np.sum(b * b, axis=-1)
    pure = g <= _PURE_TOL
    g = np.where(pure, 1.0, g)[:, np.newaxis]
    root = np.sqrt(g)[..., np.newaxis]
    center = np.where(pure[:, np.newaxis], a, (a - (t @ b[..., np.newaxis])[..., 0]) / g)
    shear = np.eye(3) + b[:, :, np.newaxis] * b[:, np.newaxis] / (root * (1.0 + root))
    m = (t - a[:, :, np.newaxis] * b[:, np.newaxis]) @ shear / root
    dirs, axes, _ = np.linalg.svd(np.where(pure[:, np.newaxis, np.newaxis], 0.0, m))
    return center, np.where(axes <= _FACTOR_TOL, 0.0, axes), dirs


def steering_ellipsoid(state):
    """Steering ellipsoid of any two-qubit state, from the SVD of the
    Jevtic-Pusey-Jennings-Rudolph factor M (``_factor_svd``)."""
    center, axes, dirs = (x[0] for x in _factor_svd(pauli_expansion(state).entries[np.newaxis]))
    dirs = _canonical_frame(axes, dirs)
    return SteeringEllipsoid(
        center=center,
        semi_axes=axes,
        orientation=_orientation_angle(dirs),
        rotation=dirs,
        degeneracy=DEGENERACY_CLASSES[np.count_nonzero(axes)],
    )


def contains(ellipsoid, y, tol=1e-9):
    """Signed membership test against the convex hull of the steered set.

    Returns ``(inside, margin)``: margin is positive inside, close to zero
    on the boundary, negative outside.  Along collapsed axes the margin is
    the negated off-set distance.  ``inside`` means margin >= -tol.
    """
    y = np.asarray(y, dtype=np.float64).reshape(3)
    d = ellipsoid.rotation.T @ (y - ellipsoid.center)
    q = 0.0
    off = 0.0
    live = False
    for comp, axis in zip(d, ellipsoid.semi_axes):
        if axis > 0.0:
            q += (comp / axis) ** 2
            live = True
        else:
            off = max(off, abs(comp))
    if off > tol or not live:
        margin = -max(off, 0.0)
    else:
        margin = 1.0 - q
    return bool(margin >= -tol), float(margin)


def surface_points(ellipsoid, count, rng):
    """Uniform-in-angle sample of boundary points (rows)."""
    u = rng.normal(size=(count, 3))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    pts = u * ellipsoid.semi_axes
    return pts @ ellipsoid.rotation.T + ellipsoid.center
