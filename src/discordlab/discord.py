"""Classical correlation and quantum discord of two-qubit states.

A two-outcome rank-1 projective measurement on qubit B with direction n
(elements (1 +- n.sigma)/2) leaves qubit A in one of two postmeasurement
states with

    p_k y_k = x_k R^T,  x_pm = (1/2, +-n/2),

so p_pm = (1 +- n.b)/2 and p_pm y_pm = (r_A +- T n)/2 where b is Bob's
Bloch vector, r_A Alice's and T the 3x3 correlation block of R.  The
classical correlation is C = S(rho^A) - min over n of the average entropy
sum_k p_k h(|y_k|), and the discord is Q = I - C.

For X-shaped states the minimum is one of two closed-form candidates:

* quasi-eigendecomposition, n along z, value
  S_GH = (a+c) h(|a-c|/(a+c)) + (b+d) h(|b-d|/(b+d));
* equi-entropy decomposition, n in the x-y plane at azimuth set by the
  coherence phases, value S_EF = h(sqrt(4(u+v)^2 + r3^2)).

Everything else goes through a hemisphere grid search with coordinate
descent refinement (the oracle in ``brute_force_min_entropy``).
"""

from dataclasses import dataclass

import numpy as np

from ._kernels import P_FLOOR, _directions, min_entropy_scan
from .qstate import (
    CorrelationMatrix,
    binary_entropy,
    extract_x_params,
    mutual_information,
    partial_trace,
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
        if abs(self.mutual_info - self.classical - self.discord) > 1e-9:
            raise InternalInvariantError("I = C + Q violated beyond 1e-9")
        if self.classical < -1e-9 or self.discord < -1e-9:
            raise InternalInvariantError(
                f"negative correlation: C = {self.classical!r}, Q = {self.discord!r}"
            )


def _entries(r):
    if isinstance(r, CorrelationMatrix):
        return r.entries
    return np.asarray(r, dtype=np.float64)


def _onto_unit_ball(y, p):
    """Pull a steered Bloch vector that leaves the unit ball by round-off back
    onto the sphere.

    p y is known to a few machine epsilons absolute, so |y| carries an
    error of order eps / p: surface points of a rare outcome can land just
    outside, which the scan kernels absorb by clamping |y| at 1.  Vectors
    farther out are returned as they are, for ``EnsembleMember`` to reject.
    """
    norm = np.linalg.norm(y)
    if 1.0 < norm <= 1.0 + 1e-9 + 16.0 * np.finfo(np.float64).eps / p:
        return y / norm
    return y


def post_measurement_ensemble(r, m):
    """Both ensemble members induced on A by measuring B along m.direction."""
    entries = _entries(r)
    n = m.direction
    b = entries[0, 1:]
    a = entries[1:, 0]
    t_n = entries[1:, 1:] @ n
    members = []
    for sign in (1.0, -1.0):
        p = 0.5 * (1.0 + sign * (b @ n))
        w = 0.5 * (a + sign * t_n)
        if p <= P_FLOOR:
            members.append(EnsembleMember(0.0, np.zeros(3), zero_probability=True))
            continue
        members.append(EnsembleMember(min(p, 1.0), _onto_unit_ball(w / p, p)))
    return tuple(members)


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


def _quasi_eigen_value(params):
    # vertical chord through the apexes; empty-weight terms contribute 0
    p = params.a + params.c
    q = params.b + params.d
    s = 0.0
    if p > P_FLOOR:
        s += p * binary_entropy(abs(params.a - params.c) / p)
    if q > P_FLOOR:
        s += q * binary_entropy(abs(params.b - params.d) / q)
    return s


def _equi_entropy_value(params):
    r3 = params.a + params.b - params.c - params.d
    reach = 2.0 * (params.u + params.v)
    return binary_entropy(np.sqrt(reach * reach + r3 * r3))


def _equi_entropy_direction(params):
    # azimuthal angle maximizing the steered in-plane radius
    theta = 0.5 * (np.pi + params.mu - params.nu)
    return np.array([np.sin(theta), np.cos(theta), 0.0])


def x_state_min_entropy(params):
    """Minimal average entropy of an X state and the winning branch.

    Returns ``(value, branch)`` with branch quasi_eigen or equi_entropy;
    ties within 1e-12 go to quasi_eigen.  The two-candidate rule extends
    to degenerate (singular-R) X states by continuity in the parameters.
    """
    s_gh = _quasi_eigen_value(params)
    s_ef = _equi_entropy_value(params)
    if s_gh - s_ef <= TIE_TOL:
        return s_gh, BRANCH_QUASI_EIGEN
    return s_ef, BRANCH_EQUI_ENTROPY


def bell_diagonal_min_entropy(t):
    """min{h(|t1|), h(|t2|), h(|t3|)} for a Bell-diagonal state."""
    return min(binary_entropy(abs(t.t1)), binary_entropy(abs(t.t2)), binary_entropy(abs(t.t3)))


def brute_force_min_entropy(r, grid=DEFAULT_GRID, refine_tol=1e-6):
    """Grid-and-descent minimization of the average entropy over directions.

    Scans a (polar, azimuth) grid of the upper hemisphere (antipodal
    directions give the same measurement) and refines the best node by
    coordinate descent until the step drops below ``refine_tol`` radians.
    Returns ``(value, ProjectiveMeasurement)``; the value never exceeds
    any grid node.  Works for singular R as well: only the forward map
    from directions to ensembles is evaluated.
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


def correlation_report(rho, direction="b_to_a", method="auto", grid=DEFAULT_GRID):
    """Mutual information, classical correlation and discord of a state.

    ``direction`` b-to-a measures B to learn about A (C_left);  a-to-b
    swaps the roles.  ``method`` auto uses the X closed form when the
    eight non-X entries vanish within 1e-12 and the oracle otherwise;
    analytic insists on the closed form and raises
    :class:`UnsupportedStructureError` for non-X states; numeric always
    runs the oracle on the given grid.
    """
    if method not in ("auto", "analytic", "numeric"):
        raise ValueError(f"method must be auto, analytic or numeric, got {method!r}")
    work = rho if _direction_key(direction) == "b_to_a" else swap_parties(rho)
    r = pauli_expansion(work)
    info = mutual_information(work)
    s_a = von_neumann_entropy(partial_trace(work, keep="A"))

    params = extract_x_params(work) if method != "numeric" else None
    if method == "analytic" and params is None:
        raise UnsupportedStructureError(
            "analytic closed form requires an X-shaped density matrix"
        )
    if params is not None:
        value, branch = x_state_min_entropy(params)
        if branch == BRANCH_QUASI_EIGEN:
            measurement = ProjectiveMeasurement(np.array([0.0, 0.0, 1.0]))
        else:
            measurement = ProjectiveMeasurement(_equi_entropy_direction(params))
    else:
        value, measurement = brute_force_min_entropy(r, grid=grid)
        branch = BRANCH_NUMERIC

    ensemble = post_measurement_ensemble(r, measurement)
    classical = s_a - value
    return CorrelationReport(
        mutual_info=info,
        classical=classical,
        discord=info - classical,
        min_avg_entropy=float(value),
        optimal_measurement=measurement,
        optimal_ensemble=ensemble,
        branch=branch,
    )
