"""Classical correlation and quantum discord of two-qubit states.

A two-outcome rank-1 projective measurement on qubit B with direction n
(elements (1 +- n.sigma)/2) leaves qubit A in one of two postmeasurement
states with

    p_k y_k = x_k R^T,  x_pm = (1/2, +-n/2),

so p_pm = (1 +- n.b)/2 and p_pm y_pm = (r_A +- T n)/2 where b is Bob's
Bloch vector, r_A Alice's and T the 3x3 correlation block of R.  The
classical correlation is C = S(rho^A) - min over n of the average entropy
sum_k p_k h(|y_k|), and the discord is Q = I - C.

Every report comes from one stacked core on R (``_core``, ``_assemble``),
the only place that picks how a state's minimum is found.  For X-shaped
states the minimum is one of two closed-form candidates:

* quasi-eigendecomposition, n along z, value
  S_GH = (a+c) h(|a-c|/(a+c)) + (b+d) h(|b-d|/(b+d));
* equi-entropy decomposition, n in the x-y plane at azimuth set by the
  coherence phases, value S_EF = h(sqrt(4(u+v)^2 + r3^2)).

Any other state whose R ignores Bob's y axis (column 2 vanishes, as for
the mixture family and product states) has its exact minimum on the x-z
great circle, a one-dimensional scan (``_circle_minimum``).  Everything
else goes through a hemisphere grid search with coordinate descent
refinement (the oracle in ``brute_force_min_entropy``).
"""

from dataclasses import dataclass

import numpy as np

from ._kernels import (
    P_FLOOR,
    _avg_entropy,
    _directions,
    _entropy_of_norms,
    _project,
    min_entropy_circle_scan,
    min_entropy_scan,
)
from .qstate import (
    _OFF_X,
    X_STRUCTURE_TOL,
    CorrelationMatrix,
    _density_matrix,
    _x_matrix,
    binary_entropy,
    pauli_expansion,
    swap_parties,
    von_neumann_entropy,
)

__all__ = [
    "DEFAULT_GRID",
    "TIE_TOL",
    "UnsupportedStructureError",
    "InternalInvariantError",
    "ProjectiveMeasurement",
    "EnsembleMember",
    "CorrelationReport",
    "post_measurement_ensemble",
    "avg_entropy",
    "x_state_min_entropy",
    "bell_diagonal_min_entropy",
    "brute_force_min_entropy",
    "correlation_report",
]

DEFAULT_GRID = (181, 360)  # (polar, azimuth) nodes over the hemisphere
TIE_TOL = 1e-12  # |S_GH - S_EF| ties are reported as quasi_eigen
# round-off the correlation invariants allow: I, C, Q >= 0 and I = C + Q; a
# value out of range by less is pulled back in, by more is a fault
_SLACK = 1e-9
CIRCLE_TOL = 1e-12  # max |R[:, 2]| at or below this: Bob's y axis does not enter
# rows per stacked circle-scan call, run one after the other.  A chunk's scan
# temporaries, (2, 16, 360) doubles each, keep a 1k-sample survey's peak RSS
# at the one-state loop's; 24 states add ~0.6 MB, 32 ~1.4 MB and 128 ~6 MB,
# for 10-20% less CPU per state at 24 or 32
_CIRCLE_CHUNK = 16

BRANCH_QUASI_EIGEN = "quasi_eigen"
BRANCH_EQUI_ENTROPY = "equi_entropy"
BRANCH_NUMERIC = "numeric"


class UnsupportedStructureError(ValueError):
    """Analytic method requested for a state without X structure."""


class InternalInvariantError(ValueError):
    """A result broke an invariant the computation guarantees: a fault, not bad input.

    The CLI reports it as an internal error (exit 5).  It stays a
    ValueError, so library code that catches ValueError still catches it.
    """


@dataclass(frozen=True, eq=False)
class ProjectiveMeasurement:
    """Two-outcome measurement on qubit B with elements (1 +- n.sigma)/2."""

    direction: np.ndarray

    def __post_init__(self):
        n = np.array(self.direction, dtype=np.float64).reshape(3)
        norm = np.linalg.norm(n)
        if abs(norm - 1.0) > 1e-12:
            raise InternalInvariantError(
                f"measurement direction must be unit length, got |n| = {norm!r}"
            )
        n.flags.writeable = False
        object.__setattr__(self, "direction", n)


@dataclass(frozen=True, eq=False)
class EnsembleMember:
    """One outcome of a measurement on B: probability and steered Bloch vector.

    ``zero_probability`` marks outcomes with p <= 1e-14, whose Bloch vector
    is undefined; such members contribute 0 to the average entropy.
    """

    probability: float
    bloch: np.ndarray
    zero_probability: bool = False

    def __post_init__(self):
        p = float(self.probability)
        if not -1e-12 <= p <= 1.0 + 1e-12:
            raise InternalInvariantError(f"outcome probability {p!r} outside [0, 1]")
        y = np.array(self.bloch, dtype=np.float64).reshape(3)
        if np.linalg.norm(y) > 1.0 + 1e-9:
            raise InternalInvariantError(
                f"postmeasurement Bloch vector {y!r} leaves the unit ball"
            )
        y.flags.writeable = False
        object.__setattr__(self, "probability", p)
        object.__setattr__(self, "bloch", y)


@dataclass(frozen=True, eq=False)
class CorrelationReport:
    """Correlation split I = C + Q and the measurement achieving it.

    ``branch`` is quasi_eigen or equi_entropy for the X-state closed form
    and numeric for the oracle.  The optimum is certified only within the
    class of two-outcome rank-1 projective measurements.
    """

    mutual_info: float
    classical: float
    discord: float
    min_avg_entropy: float
    optimal_measurement: ProjectiveMeasurement
    optimal_ensemble: tuple
    branch: str

    def __post_init__(self):
        if self.branch not in (BRANCH_QUASI_EIGEN, BRANCH_EQUI_ENTROPY, BRANCH_NUMERIC):
            raise InternalInvariantError(f"unknown branch label {self.branch!r}")
        if abs(self.mutual_info - self.classical - self.discord) > _SLACK:
            raise InternalInvariantError("I = C + Q violated beyond 1e-9")
        if self.classical < -_SLACK or self.discord < -_SLACK:
            raise InternalInvariantError(
                f"negative correlation: C = {self.classical!r}, Q = {self.discord!r}"
            )


def _entries(r):
    if isinstance(r, CorrelationMatrix):
        return r.entries
    return np.asarray(r, dtype=np.float64)


def _onto_unit_ball(y, p):
    """Pull steered Bloch vectors that leave the unit ball by round-off back
    onto the sphere: y (..., 3) at outcome probabilities p (...).

    p y is known to a few machine epsilons absolute, so |y| carries an
    error of order eps / p: surface points of a rare outcome can land just
    outside, which the scan kernels absorb by clamping |y| at 1.  Vectors
    farther out are returned as they are, for ``EnsembleMember`` to reject.
    """
    norm = np.sqrt(np.sum(y * y, axis=-1, keepdims=True))
    band = 1.0 + 1e-9 + 16.0 * np.finfo(np.float64).eps / p[..., np.newaxis]
    return y / np.where((1.0 < norm) & (norm <= band), norm, 1.0)


def _ensembles(r, n):
    """Ensembles of an (N, 4, 4) stack of R along its (N, 3) directions, from ``_project``."""
    rn = _project(r, ((1, n[:, :1]), (2, n[:, 1:2]), (3, n[:, 2:])))[..., 0]
    signs = np.array([1.0, -1.0])
    p = 0.5 * (1.0 + signs * rn[:, :1])
    w = 0.5 * (r[:, np.newaxis, 1:, 0] + signs[:, np.newaxis] * rn[:, np.newaxis, 1:])
    live = p > P_FLOOR  # other outcomes have no Bloch vector: p = 0, y = 0
    q = np.where(live, p, 1.0)
    y = np.where(live[..., np.newaxis], _onto_unit_ball(w / q[..., np.newaxis], q), 0.0)
    p = np.where(live, np.minimum(p, 1.0), 0.0)
    return [
        tuple(map(EnsembleMember, probabilities, blochs, dead))
        for probabilities, blochs, dead in zip(p.tolist(), y, (~live).tolist())
    ]


def post_measurement_ensemble(r, m):
    """Both ensemble members induced on A by measuring B along m.direction."""
    return _ensembles(_entries(r)[np.newaxis], m.direction[np.newaxis])[0]


def avg_entropy(ensemble):
    """Average postmeasurement entropy sum_k p_k h(|y_k|) in bits."""
    total = sum(member.probability for member in ensemble)
    if abs(total - 1.0) > 1e-12:
        raise ValueError(f"ensemble probabilities sum to {total!r}, not 1")
    s = 0.0
    for member in ensemble:
        if member.zero_probability or member.probability <= P_FLOOR:
            continue
        s += member.probability * binary_entropy(np.linalg.norm(member.bloch))
    return float(s)


def _x_candidates(r):
    """S_GH, S_EF and the equi-entropy direction of each X-shaped R in an (N, 4, 4) stack.

    The oracle's evaluator gives S_GH at e_z and S_EF at (sin theta, cos
    theta, 0), theta = (pi + mu - nu)/2, mu and nu being the phases of
    rho_03 and rho_12 read from T (0 up to 1e-15, as in extract_x_params).
    """
    t = r[:, 1:3, 1:3]
    outer = 0.25 * ((t[:, 0, 0] - t[:, 1, 1]) - 1j * (t[:, 0, 1] + t[:, 1, 0]))
    inner = 0.25 * ((t[:, 0, 0] + t[:, 1, 1]) + 1j * (t[:, 0, 1] - t[:, 1, 0]))
    mu, nu = (np.where(np.abs(z) > 1e-15, np.angle(z), 0.0) for z in (outer, inner))
    theta = 0.5 * (np.pi + mu - nu)
    n = np.stack((np.sin(theta), np.cos(theta), np.zeros_like(theta)), axis=-1)
    s_gh = _avg_entropy(r, ((3, np.ones(1)),))[:, 0]
    s_ef = _avg_entropy(r, ((1, n[:, :1]), (2, n[:, 1:2])))[:, 0]
    return s_gh, s_ef, n


def _x_minimum(r):
    """Values, directions and branches of X rows: the better candidate, ties to quasi_eigen."""
    s_gh, s_ef, n_equi = _x_candidates(r)
    quasi = s_gh - s_ef <= TIE_TOL
    return (
        np.where(quasi, s_gh, s_ef),
        np.where(quasi[:, np.newaxis], [0.0, 0.0, 1.0], n_equi),
        np.where(quasi, BRANCH_QUASI_EIGEN, BRANCH_EQUI_ENTROPY),
    )


def x_state_min_entropy(params):
    """Minimal average entropy of an X state and the winning branch.

    Returns ``(value, branch)`` with branch quasi_eigen or equi_entropy;
    ties within 1e-12 go to quasi_eigen.  The two-candidate rule extends
    to degenerate (singular-R) X states by continuity in the parameters.
    """
    value, _, branch = _x_minimum(pauli_expansion(_x_matrix(params)).entries[np.newaxis])
    return float(value[0]), str(branch[0])


def bell_diagonal_min_entropy(t):
    """min{h(|t1|), h(|t2|), h(|t3|)} for a Bell-diagonal state."""
    return min(binary_entropy(abs(t.t1)), binary_entropy(abs(t.t2)), binary_entropy(abs(t.t3)))


def brute_force_min_entropy(r, grid=DEFAULT_GRID, refine_tol=1e-6):
    """Grid-and-descent minimization of the average entropy over directions.

    Finds the best node of a (polar, azimuth) grid of the upper hemisphere
    (antipodal directions give the same measurement) coarse to fine, and
    refines it by Newton steps on the sphere until the step drops below
    ``refine_tol`` radians (``_kernels.min_entropy_scan``; the x-z circle
    scan keeps the step-halving coordinate descent).  Returns
    ``(value, ProjectiveMeasurement)``; the value is never above any node
    the scan evaluated.  On the default grid that start node is the whole
    grid's best on all but 3 of 4,000 measured mixed states, which lie in
    valleys narrower than the coarse spacing; pure states' zero plateau
    may start elsewhere at the same value.  Works for singular R as well:
    only the forward map from directions to ensembles is evaluated.
    """
    entries = _entries(r)
    n_polar, n_azimuth = grid
    value, theta, phi = min_entropy_scan(entries, n_polar, n_azimuth, refine_tol)
    n = _directions(theta, phi)
    n /= np.linalg.norm(n)
    return float(value), ProjectiveMeasurement(n)


def _direction_key(direction):
    key = direction.replace("-", "_")
    if key not in ("b_to_a", "a_to_b"):
        raise ValueError(f"direction must be b-to-a or a-to-b, got {direction!r}")
    return key


def _entropies(r, rho):
    """I(A:B) and S(rho_A) = h(|R[1:, 0]|) of each R in an (N, 4, 4) stack;
    S(rho_AB)'s stacked eigvalsh of ``rho`` is the positivity check.

    Subadditivity gives I >= 0, but on a product state h(|a|) + h(|b|) and
    S(rho_AB) come by routes whose rounding does not cancel: an I within
    ``_SLACK`` below 0 reads +0.0.
    """
    norms = np.linalg.norm(np.stack((r[:, 1:, 0], r[:, 0, 1:])), axis=-1)
    s_a, s_b = _entropy_of_norms(np.minimum(norms, 1.0))
    info = s_a + s_b - von_neumann_entropy(rho)
    return np.where((info <= 0.0) & (info >= -_SLACK), 0.0, info), s_a


def _split(info, s_a, values):
    """C = S(rho_A) - min average entropy and Q = I - C, per state.

    0 <= C <= I holds exactly, so a C out of that range by at most
    ``_SLACK`` is round-off and is pulled back in (to +0.0 or to I),
    keeping Q >= 0 and I = C + Q; one farther out is left for
    ``CorrelationReport`` to reject.
    """
    classical = s_a - values
    classical = np.where((classical <= 0.0) & (classical >= -_SLACK), 0.0, classical)
    classical = np.where((classical > info) & (classical <= info + _SLACK), info, classical)
    return classical, info - classical


def _circle_minimum(r, n_polar, refine_tol=1e-6):
    """Exact ``(values, directions)`` minima of an (N, 4, 4) stack of R whose
    column 2 vanishes; directions (sin xi, 0, cos xi), (N, 3).

    When Bob's y axis does not enter R, p_pm and T n do not depend on n2.
    A direction with n2 != 0 therefore yields the same ensemble as an
    unsharp measurement along (n1, 0, n3)/|.|, which by concavity of h
    cannot beat the sharp one: the minimum over the sphere lies on the x-z
    great circle.  ``min_entropy_circle_scan`` visits the hemisphere grid's
    nodes on that circle, so only ``n_polar`` sets its resolution.  Rows go
    to it in chunks of ``_CIRCLE_CHUNK``, one after the other; the scan
    sums each row's values element by element, so a row's result is
    bitwise the same whatever the chunking.  The caller checks the column.
    """
    done = [
        min_entropy_circle_scan(r[i : i + _CIRCLE_CHUNK], n_polar, refine_tol)
        for i in range(0, len(r), _CIRCLE_CHUNK)
    ]
    value = np.concatenate([v for v, _ in done])
    xi = np.concatenate([x for _, x in done])
    # n and -n give the same value bitwise: flip to n3 >= 0, as on the
    # hemisphere grid, keeping n2 at +0.0
    cos = np.cos(xi)
    sign = np.where(cos < 0.0, -1.0, 1.0)
    n1, n3 = sign * np.sin(xi), sign * cos
    return value, np.stack((n1, np.zeros_like(n1), n3), axis=-1)


def _minimum(r, rho, method="auto", grid=DEFAULT_GRID, refine_tol=1e-6):
    """``(values, directions, branches)`` of an (N, 4, 4) stack of R and its
    density matrices ``rho``: the minimal average entropy, its direction and
    how it was found.

    Rows are routed here only, three ways:

    * X rows (the test of ``extract_x_params`` on ``rho``) to the closed forms;
    * other rows whose column 2 vanishes within ``CIRCLE_TOL`` to the
      exact x-z circle (``_circle_minimum``, in chunks);
    * the rest one by one to the 2-D oracle on ``grid``.

    ``method`` numeric sends every row to the 2-D oracle, and analytic
    raises UnsupportedStructureError unless every row is X.  Both oracles
    refine to ``refine_tol`` radians and label their rows numeric.  A row's
    results do not depend on the rest of the stack.
    """
    off_x = np.abs(rho[:, _OFF_X[0], _OFF_X[1]]).max(axis=1)
    exact = method != "numeric"
    x = exact & (off_x <= X_STRUCTURE_TOL)
    if method == "analytic" and not x.all():
        raise UnsupportedStructureError(
            "analytic closed form requires an X-shaped density matrix"
        )
    circle = exact & ~x & (np.abs(r[:, :, 2]).max(axis=1) <= CIRCLE_TOL)
    values, directions = np.empty(len(r)), np.empty((len(r), 3))
    branches = np.full(len(r), BRANCH_NUMERIC, dtype=object)
    if x.any():
        values[x], directions[x], branches[x] = _x_minimum(r[x])
    if circle.any():
        values[circle], directions[circle] = _circle_minimum(r[circle], grid[0], refine_tol)
    for k in np.flatnonzero(~(x | circle)):
        values[k], measurement = brute_force_min_entropy(r[k], grid, refine_tol)
        directions[k] = measurement.direction
    return values, directions, branches


def _core(r, method="auto", grid=DEFAULT_GRID, refine_tol=1e-6):
    """``(info, s_a, values, directions, branches)`` of an (N, 4, 4) stack of R:
    ``_entropies`` and ``_minimum`` (arguments as there) on one stack of
    density matrices."""
    rho = _density_matrix(r)
    return (*_entropies(r, rho), *_minimum(r, rho, method, grid, refine_tol))


def _assemble(r, info, s_a, values, directions, branches):
    """One CorrelationReport per R of an (N, 4, 4) stack from ``_core``'s arrays."""
    classical, discord = _split(info, s_a, values)
    rows = zip(
        info.tolist(), classical.tolist(), discord.tolist(), values.tolist(), directions, branches
    )
    return tuple(
        CorrelationReport(
            mutual_info=i,
            classical=c,
            discord=q,
            min_avg_entropy=v,
            optimal_measurement=ProjectiveMeasurement(n),
            optimal_ensemble=ensemble,
            branch=str(branch),
        )
        for (i, c, q, v, n, branch), ensemble in zip(rows, _ensembles(r, directions))
    )


def correlation_report(rho, direction="b_to_a", method="auto", grid=DEFAULT_GRID):
    """Mutual information, classical correlation and discord of a state.

    ``direction`` b-to-a measures B to learn about A (C_left);  a-to-b
    swaps the roles.  ``method`` auto uses the X closed form when the
    eight non-X entries vanish within 1e-12, the exact x-z circle scan
    when R ignores the measured qubit's y axis, and the grid oracle
    otherwise; analytic insists on the closed form and raises
    :class:`UnsupportedStructureError` for non-X states; numeric always
    runs the grid oracle on the given grid.  It is the stacked core's
    one-row call.
    """
    if method not in ("auto", "analytic", "numeric"):
        raise ValueError(f"method must be auto, analytic or numeric, got {method!r}")
    work = rho if _direction_key(direction) == "b_to_a" else swap_parties(rho)
    r = pauli_expansion(work).entries[np.newaxis]
    return _assemble(r, *_core(r, method, grid))[0]
