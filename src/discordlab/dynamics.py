"""Decoherence dynamics of two-qubit correlations.

A local channel acts on the Pauli coefficient matrix R as R -> Lambda_A R
Lambda_B^T, with each qubit's 4x4 Pauli transfer matrix Lambda.  Phase
damping, Lambda = diag(1, gamma, gamma, 1) with gamma = exp(-rate * t), on
both qubits leaves the diagonal of an X state untouched while the
coherences scale as u -> gamma^2 u, v -> gamma^2 v.  Geometrically the
steering ellipsoid keeps its vertical axis, its center and Alice's local
state, while the in-plane axes shrink by gamma^2.  The equi-entropy
candidate S_EF therefore grows with time and the quasi-eigen candidate
S_GH stays put: the optimal branch can switch once, from equi_entropy to
quasi_eigen, at a critical time t_bar where the classical correlation
develops a kink and stays constant afterwards.  Amplitude damping and
Pauli channels are provided as well; they preserve the X form but carry
no constancy claim.  A trajectory goes through the correlation core as
one stack of R(t).
"""

import re
from dataclasses import dataclass

import numpy as np

from .discord import (
    DEFAULT_GRID,
    TIE_TOL,
    _check_rows,
    _core,
    _split,
    _x_candidates,
)
from .qstate import (
    BellDiagonalParams,
    XStateParams,
    _x_matrix,
    binary_entropy,
    extract_x_params,
    pauli_expansion,
    reconstruct_state,
)
from .steering import _factor_svd

__all__ = [
    "PhaseDampingChannel",
    "Trajectory",
    "apply_channel",
    "apply_named_channel",
    "critical_time",
    "evolve_trajectory",
]

_PAULI_NAME = re.compile(r"^pauli\(\s*([^,\s]+)\s*,\s*([^,\s]+)\s*,\s*([^,\s)]+)\s*\)$")


@dataclass(frozen=True, eq=False)
class PhaseDampingChannel:
    """Single-qubit phase damping with parameter gamma = exp(-rate * t)."""

    gamma: float
    rate: float = 1.0

    def __post_init__(self):
        if not 0.0 <= self.gamma <= 1.0:
            raise ValueError(f"gamma must lie in [0, 1], got {self.gamma!r}")
        if self.rate < 0.0:
            raise ValueError(f"damping rate must be nonnegative, got {self.rate!r}")
        k1, k2 = self.kraus
        closure = k1.conj().T @ k1 + k2.conj().T @ k2
        if np.abs(closure - np.eye(2)).max() > 1e-12:
            raise ValueError("Kraus pair is not trace preserving")

    @property
    def kraus(self):
        g = self.gamma
        k1 = np.array([[g, 0.0], [0.0, 1.0]], dtype=np.complex128)
        k2 = np.array([[np.sqrt(max(1.0 - g * g, 0.0)), 0.0], [0.0, 0.0]], dtype=np.complex128)
        return k1, k2

    @classmethod
    def at_time(cls, t, rate):
        return cls(gamma=float(np.exp(-rate * t)), rate=rate)


@dataclass(frozen=True, eq=False)
class Trajectory:
    """I, C, Q (read-only arrays) and branch labels along a strictly increasing
    time grid, each step checked as ``CorrelationReport`` checks its row.

    ``semi_axes`` holds, per step, the steering ellipsoid's semi-axes in
    descending order, as :func:`steering.steering_ellipsoid` gives them.
    ``critical_time`` is the phase-damping branch-switch time t_bar, or
    None when the state starts on the quasi-eigen branch or never
    switches; it is reported even when it falls outside the grid.
    """

    times: np.ndarray
    gammas: np.ndarray
    mutual_info: np.ndarray
    classical: np.ndarray
    discord: np.ndarray
    branches: tuple
    semi_axes: np.ndarray
    critical_time: object

    def __post_init__(self):
        if np.any(np.diff(self.times) <= 0.0):
            raise ValueError("time points must be strictly increasing")
        for name in ("times", "gammas", "mutual_info", "classical", "discord", "semi_axes"):
            arr = np.array(getattr(self, name), dtype=np.float64)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "branches", tuple(self.branches))
        _check_rows(self.mutual_info, self.classical, self.discord, self.branches)


def _transfer(name, strength):
    """4x4 Pauli transfer matrix of a named single-qubit channel.

    The channel maps a Bloch vector r to the last three entries of
    Lambda (1, r); row 0 is (1, 0, 0, 0), so the trace is kept.
    """
    if name == "phase_damping":
        g = float(strength)
        if not 0.0 <= g <= 1.0:
            raise ValueError(f"gamma must lie in [0, 1], got {g!r}")
        return np.diag([1.0, g, g, 1.0])
    if name == "amplitude_damping":
        p = float(strength)
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"amplitude damping strength must lie in [0, 1], got {p!r}")
        s = np.sqrt(1.0 - p)
        return np.array([[1, 0, 0, 0], [0, s, 0, 0], [0, 0, s, 0], [p, 0, 0, 1 - p]], float)
    match = _PAULI_NAME.match(name.replace(" ", ""))
    if match:
        base = np.array([float(g) for g in match.groups()])
        # a non-finite entry fails the range test unscaled: 0 * inf would be NaN
        probs = float(strength) * base if np.isfinite(base).all() else base
        if not ((probs >= -1e-15).all() and probs.sum() <= 1.0 + 1e-12):
            raise ValueError(f"Pauli probabilities {probs!r} invalid at strength {strength!r}")
        probs = np.clip(probs, 0.0, 1.0)
        p0 = max(1.0 - probs.sum(), 0.0)
        px, py, pz = probs
        return np.diag([1.0, p0 + px - py - pz, p0 - px + py - pz, p0 - px - py + pz])
    raise ValueError(
        f"unknown channel {name!r}; expected phase_damping, amplitude_damping "
        "or pauli(px,py,pz)"
    )


def _check_blocks(lam):
    # an X state's R lives on the {1, sigma_z} and {sigma_x, sigma_y}
    # blocks; a map that keeps the two blocks apart keeps the X shape
    if lam[..., [[0], [3]], [1, 2]].any() or lam[..., [[1], [2]], [0, 3]].any():
        raise RuntimeError("channel map mixes {1, sigma_z} with {sigma_x, sigma_y}")


def apply_channel(rho, ch, both_parties=True):
    """Phase damping applied to both qubits, or to qubit B alone."""
    return apply_named_channel(rho, "phase_damping", ch.gamma, both_parties)


def apply_named_channel(rho, name, strength, both_parties=True):
    """Apply a named single-qubit channel to both qubits (or to B alone).

    Channels: phase_damping (strength = gamma), amplitude_damping
    (strength = decay probability p), pauli(px,py,pz) (strength scales
    the three flip probabilities).  The channel's transfer matrix Lambda
    maps R to Lambda R Lambda^T (R Lambda^T for B alone).  All three keep
    the X shape; a Lambda that mixes {1, sigma_z} with {sigma_x, sigma_y}
    raises RuntimeError.
    """
    lam = _transfer(name, strength)
    _check_blocks(lam)
    r = pauli_expansion(rho).entries @ lam.T  # channel on the measured qubit B
    return reconstruct_state(lam @ r if both_parties else r)


def _as_x_params(params):
    if isinstance(params, BellDiagonalParams):
        return params.to_x_params()
    if isinstance(params, XStateParams):
        return params
    raise TypeError(f"expected X-state or Bell-diagonal parameters, got {type(params)!r}")


def critical_time(params, rate):
    """Branch-switch time t_bar under two-sided phase damping, or None.

    Solves S_EF(gamma(t)) = S_GH by bisection, where only the coherences
    decay: S_EF(gamma) = h(sqrt(4 gamma^4 (u+v)^2 + r3^2)) grows
    monotonically with t while S_GH is constant.  Returns None when the
    state already starts on the quasi-eigen branch or the two candidates
    never cross at finite time.  For Bell-diagonal states the result
    agrees with the closed form ln(max(|t1|,|t2|)/|t3|) / (2 rate).
    """
    if rate <= 0.0:
        raise ValueError(f"damping rate must be positive, got {rate!r}")
    p = _as_x_params(params)
    s_gh, s_ef, _ = _x_candidates(pauli_expansion(_x_matrix(p)).entries[np.newaxis])
    s_gh = float(s_gh[0])
    if s_gh - s_ef[0] <= TIE_TOL:
        return None  # quasi_eigen from the start
    r3 = p.a + p.b - p.c - p.d
    reach = 2.0 * (p.u + p.v)

    def gap(t):
        g2 = np.exp(-2.0 * rate * t)
        return binary_entropy(np.hypot(g2 * reach, r3)) - s_gh

    if binary_entropy(abs(r3)) <= s_gh + TIE_TOL:
        return None  # S_EF approaches S_GH only asymptotically
    t_hi = 1.0 / rate
    while gap(t_hi) < 0.0:
        t_hi *= 2.0
        if t_hi > 1e9 / rate:
            return None
    t_lo = 0.0
    for _ in range(200):
        mid = 0.5 * (t_lo + t_hi)
        if gap(mid) < 0.0:
            t_lo = mid
        else:
            t_hi = mid
        if t_hi - t_lo <= 1e-12 * max(t_hi, 1.0):
            break
    return 0.5 * (t_lo + t_hi)


def evolve_trajectory(rho0, rate, t_max, steps, channel="phase_damping", grid=DEFAULT_GRID):
    """Correlation trajectory of ``rho0`` under a named two-sided channel.

    Each step's transfer matrix Lambda, at the accumulated strength for
    gamma(t) = exp(-rate * t), gives R(t) = Lambda R0 Lambda^T, and all
    steps go through one call of the stacked core, which also checks
    positivity and routes each row as for any stack of R; no report is
    built.  The critical time is attached for phase damping on X states.
    """
    if steps < 2:
        raise ValueError(f"need at least 2 time steps, got {steps!r}")
    if not (np.isfinite(rate) and rate >= 0.0):
        raise ValueError(f"damping rate must be finite and nonnegative, got {rate!r}")
    if not (np.isfinite(t_max) and t_max > 0.0):
        raise ValueError(f"t_max must be finite and positive, got {t_max!r}")
    times = np.linspace(0.0, float(t_max), int(steps))
    if np.any(np.diff(times) <= 0.0):
        raise ValueError(f"t_max = {t_max!r} over steps = {steps!r} gives repeated time points")
    gammas = np.exp(-rate * times)
    # phase damping is parameterized by the surviving coherence fraction,
    # the others by the accumulated decay probability
    strengths = gammas if channel == "phase_damping" else 1.0 - gammas
    lam = np.stack([_transfer(channel, strength) for strength in strengths])
    _check_blocks(lam)
    r = lam @ (pauli_expansion(rho0).entries @ lam.transpose(0, 2, 1))
    info, s_a, values, _, branches = _core(r, "auto", grid)
    classical, discord = _split(info, s_a, values)

    t_bar = None
    params = extract_x_params(rho0)
    if channel == "phase_damping" and params is not None and rate > 0.0:
        t_bar = critical_time(params, rate)
    return Trajectory(
        times=times,
        gammas=gammas,
        mutual_info=info,
        classical=classical,
        discord=discord,
        branches=branches,
        semi_axes=_factor_svd(r)[1],
        critical_time=t_bar,
    )
