import numpy as np
import pytest
from conftest import ginibre_state, random_direction

from discordlab import _kernels
from discordlab.discord import avg_entropy, post_measurement_ensemble, ProjectiveMeasurement
from discordlab.qstate import pauli_expansion


def test_grid_directions_unit_norm():
    tt, pp, ns = _kernels.grid_directions(7, 12)
    assert ns.shape == (7 * 12, 3)
    assert tt.shape == pp.shape == (7 * 12,)
    np.testing.assert_allclose(np.linalg.norm(ns, axis=1), 1.0, atol=1e-14)
    # polar angles cover the upper hemisphere only
    assert tt.min() == 0.0
    assert tt.max() == pytest.approx(np.pi / 2)


def test_avg_entropy_numpy_matches_ensemble_route(rng):
    for _ in range(15):
        r = pauli_expansion(ginibre_state(rng)).entries
        n = random_direction(rng)
        direct = avg_entropy(
            post_measurement_ensemble(r, ProjectiveMeasurement(n))
        )
        vectorized = _kernels.avg_entropy_numpy(r, n[np.newaxis, :])[0]
        assert vectorized == pytest.approx(direct, abs=1e-12)


def test_scan_never_above_grid_nodes(rng):
    r = pauli_expansion(ginibre_state(rng)).entries
    _, _, ns = _kernels.grid_directions(31, 60)
    grid_best = _kernels.avg_entropy_numpy(r, ns).min()
    value, _, _ = _kernels.min_entropy_scan(r, 31, 60)
    assert value <= grid_best + 1e-15


def test_min_entropy_scan_antipodal_invariance(rng):
    # flipping the measured qubit's axes leaves the optimum unchanged
    r = pauli_expansion(ginibre_state(rng)).entries
    flipped = r * np.array([1.0, -1.0, -1.0, -1.0])  # columns 1..3 negated
    v1, _, _ = _kernels.min_entropy_scan(r, 61, 120)
    v2, _, _ = _kernels.min_entropy_scan(flipped, 61, 120)
    assert v2 == pytest.approx(v1, abs=1e-9)


def test_circle_scan_visits_grid_nodes_on_circle(rng):
    r = pauli_expansion(ginibre_state(rng)).entries.copy()
    r[:, 2] = 0.0  # Bob's y axis out of play, as for the mixture family
    _, pp, ns = _kernels.grid_directions(7, 12)
    on_circle = np.isclose(pp, 0.0) | np.isclose(pp, np.pi)
    # 2 x 7 rows: the pole twice and the equator as an antipodal pair, so
    # 2 (7 - 1) distinct measurements
    assert on_circle.sum() == 2 * 7
    node_best = _kernels.avg_entropy_numpy(r, ns[on_circle]).min()
    value, xi = _kernels.min_entropy_circle_scan(r, 7)
    assert value <= node_best + 1e-15
    n = np.array([[np.sin(xi), 0.0, np.cos(xi)]])
    assert _kernels.avg_entropy_numpy(r, n)[0] == pytest.approx(value, abs=1e-15)
    with pytest.raises(ValueError, match="4x4"):
        _kernels.min_entropy_circle_scan(np.eye(3), 7)
    with pytest.raises(ValueError, match="grid"):
        _kernels.min_entropy_circle_scan(np.eye(4), 1)


def test_min_entropy_scan_validation():
    with pytest.raises(ValueError, match="4x4"):
        _kernels.min_entropy_scan(np.eye(3), 31, 60)
    with pytest.raises(ValueError, match="grid"):
        _kernels.min_entropy_scan(np.eye(4), 1, 60)


def test_refine_descends_from_start():
    # a convex toy objective: descent must reach the minimum at (1, 2)
    def objective(theta, phi):
        return (theta - 1.0) ** 2 + (phi - 2.0) ** 2

    best, theta, phi = _kernels._refine_python(objective, 0.0, 0.0, 0.5, 1e-9)
    assert best == pytest.approx(0.0, abs=1e-12)
    assert theta == pytest.approx(1.0, abs=1e-6)
    assert phi == pytest.approx(2.0, abs=1e-6)

