"""Shared samplers and fixtures.

Every test seeds its own generator (or uses the ``rng`` fixture) so the
suite is order-independent and reproducible.
"""

import numpy as np
import pytest

from discordlab.dynamics import PhaseDampingChannel
from discordlab.qstate import BellDiagonalParams, TwoQubitState, XStateParams


def pytest_configure(config):
    # database=None keeps hypothesis from storing examples, but it still
    # caches the constants of local modules when it collects a property
    # test: keep that cache in pytest's own cache directory
    try:
        from hypothesis.configuration import set_hypothesis_home_dir
    except ImportError:
        return
    if hasattr(config, "cache"):
        set_hypothesis_home_dir(config.cache.mkdir("hypothesis"))


@pytest.fixture
def rng():
    return np.random.default_rng(20250814)


def ginibre_state(rng, rank=4):
    """Random full-rank density matrix, G G^dag / tr."""
    g = rng.normal(size=(4, rank)) + 1j * rng.normal(size=(4, rank))
    m = g @ g.conj().T
    return TwoQubitState(m / m.trace().real)


def haar_unitary(rng, dim=2):
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_x_params(rng):
    """Valid X-state parameters: Dirichlet diagonal, coherences below the
    positivity ceiling, phases uniform."""
    a, b, c, d = rng.dirichlet(np.ones(4))
    return XStateParams(
        a=a,
        b=b,
        c=c,
        d=d,
        u=rng.uniform() * np.sqrt(a * d),
        v=rng.uniform() * np.sqrt(b * c),
        mu=rng.uniform(0.0, 2.0 * np.pi),
        nu=rng.uniform(0.0, 2.0 * np.pi),
    )


def random_bell_diagonal(rng):
    while True:
        t1, t2, t3 = rng.uniform(-1.0, 1.0, size=3)
        if 1.0 + t3 >= abs(t1 - t2) and 1.0 - t3 >= abs(t1 + t2):
            return BellDiagonalParams(t1=t1, t2=t2, t3=t3)


def random_direction(rng):
    n = rng.normal(size=3)
    return n / np.linalg.norm(n)


def kraus_operators(name, strength):
    """Kraus operators of the named single-qubit channels of ``dynamics``,
    written out independently of the transfer matrices the library uses."""
    if name == "phase_damping":
        return PhaseDampingChannel(gamma=strength).kraus
    if name == "amplitude_damping":
        return (
            np.array([[1.0, 0.0], [0.0, np.sqrt(1.0 - strength)]]),
            np.array([[0.0, np.sqrt(strength)], [0.0, 0.0]]),
        )
    px, py, pz = strength * np.array([float(g) for g in name[6:-1].split(",")])
    weights = (1.0 - px - py - pz, px, py, pz)
    paulis = (
        np.eye(2),
        np.array([[0.0, 1.0], [1.0, 0.0]]),
        np.array([[0.0, -1.0j], [1.0j, 0.0]]),
        np.diag([1.0, -1.0]),
    )
    return tuple(np.sqrt(w) * op for w, op in zip(weights, paulis))


def kraus_sum(matrix, kraus, both_parties):
    """sum_k K rho K^dag over K_i x K_j (both qubits) or 1 x K_j (qubit B)."""
    left = kraus if both_parties else (np.eye(2),)
    ops = [np.kron(ka, kb) for ka in left for kb in kraus]
    return sum(op @ matrix @ op.conj().T for op in ops)
