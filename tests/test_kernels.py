import platform
import resource
import sys

import numpy as np
import pytest
from conftest import ginibre_state, random_direction

from discordlab import _kernels, conjectures
from discordlab.discord import (
    DEFAULT_GRID,
    ProjectiveMeasurement,
    avg_entropy,
    post_measurement_ensemble,
)
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
    for tol in (0.0, -1e-6, np.nan):
        with pytest.raises(ValueError, match="tolerance"):
            _kernels.min_entropy_circle_scan(r, 7, tol)


def test_min_entropy_scan_validation():
    with pytest.raises(ValueError, match="4x4"):
        _kernels.min_entropy_scan(np.eye(3), 31, 60)
    with pytest.raises(ValueError, match="grid"):
        _kernels.min_entropy_scan(np.eye(4), 1, 60)
    for tol in (0.0, -1e-6, np.nan):
        with pytest.raises(ValueError, match="tolerance"):
            _kernels.min_entropy_scan(np.eye(4), 7, 12, tol)


@pytest.mark.parametrize("target", [(1.0,), (1.0, 2.0)], ids=["1-D", "2-D"])
def test_refine_descends_from_start(target):
    # a convex toy objective: descent must reach its minimum at ``target``
    def objective(angles):
        return ((angles - target) ** 2).sum(axis=1)

    start = np.zeros(len(target))
    best, point = _kernels._refine_python(objective, start, np.dot(target, target), 0.5, 1e-9)
    assert best == pytest.approx(0.0, abs=1e-12)
    np.testing.assert_allclose(point, target, rtol=0.0, atol=1e-6)



def test_avg_entropy_numpy_blocks_rows(rng):
    r = pauli_expansion(ginibre_state(rng)).entries
    block = _kernels._BLOCK_ROWS
    ns = rng.normal(size=(2 * block + 7, 3))
    ns /= np.linalg.norm(ns, axis=1)[:, np.newaxis]
    whole = _kernels.avg_entropy_numpy(r, ns)
    # a long call gives bitwise the values of its block-sized slices ...
    sliced = np.concatenate(
        [_kernels.avg_entropy_numpy(r, ns[i : i + block]) for i in range(0, len(ns), block)]
    )
    assert whole.tobytes() == sliced.tobytes()
    # ... and those of single rows up to rounding
    rows = np.array([_kernels.avg_entropy_numpy(r, n[np.newaxis, :])[0] for n in ns])
    np.testing.assert_allclose(whole, rows, rtol=0.0, atol=1e-15)


def test_grid_cache_builds_each_shape_once(monkeypatch, rng):
    monkeypatch.setattr(_kernels, "_GRIDS", {})
    built = []
    build = _kernels.grid_directions

    def counting(n_polar, n_azimuth):
        built.append((n_polar, n_azimuth))
        return build(n_polar, n_azimuth)

    monkeypatch.setattr(_kernels, "grid_directions", counting)
    r = pauli_expansion(ginibre_state(rng)).entries
    for _ in range(3):
        _kernels.min_entropy_scan(r, 7, 12)
    _kernels.min_entropy_scan(r, 9, 12)
    conjectures.min_chord_entropy(((0.0, 0.0, 0.1), (0.5, 0.4, 0.3)), (0.1, 0.0, 0.1), 7, 12)
    assert built == [(7, 12), (9, 12)]

    cached = _kernels._cached_grid(7, 12)
    for arr in cached:
        assert not arr.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        cached[2][0, 0] = 1.0
    # the public builder still hands out fresh, writable arrays
    fresh = build(7, 12)
    for new, old in zip(fresh, cached):
        assert new.flags.writeable and new is not old
        np.testing.assert_array_equal(new, old)


@pytest.mark.skipif(
    not sys.platform.startswith("linux") or platform.libc_ver()[0] != "glibc",
    reason="the bound assumes glibc's malloc",
)
def test_warm_oracle_calls_reuse_memory(rng):
    # a 65k-row temporary allocated afresh on every call costs ~3,000 minor
    # page faults per call; blocked evaluation keeps them on the heap.  The
    # bound assumes glibc's default mmap and trim thresholds (a preloaded
    # allocator or MALLOC_*_THRESHOLD_ settings change what is measured), and
    # ru_minflt also counts faults taken by the BLAS threads of this process.
    r = pauli_expansion(ginibre_state(rng)).entries
    for _ in range(2):
        _kernels.min_entropy_scan(r, *DEFAULT_GRID)
    calls = 5
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(calls):
        _kernels.min_entropy_scan(r, *DEFAULT_GRID)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    assert faults / calls < 200
