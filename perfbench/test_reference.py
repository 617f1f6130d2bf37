"""Checks of the benchmark's own reference, against closed forms.

    python3 -m pytest perfbench/test_reference.py
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest

import reference as ref
import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent


def _quasi_eigen_value(a, b, c, d, **_):
    return (a + c) * ref.h((a - c) / (a + c)) + (b + d) * ref.h((b - d) / (b + d))


def test_bell_diagonal_minimum_is_h_of_largest_correlation():
    rng = np.random.default_rng(5)
    for _ in range(20):
        t = workloads._draw_bell(rng)
        value, _ = ref.min_avg_entropy(ref.bell_diagonal_state(*t))
        assert value == pytest.approx(ref.h(max(abs(x) for x in t)), abs=1e-12)


def test_evaluator_along_z_is_the_quasi_eigen_value():
    rng = np.random.default_rng(6)
    for _ in range(20):
        body = workloads._draw_x(rng)
        value = ref.avg_entropy(ref.x_state(**body), [0.0, 0.0, 1.0])[0]
        assert value == pytest.approx(_quasi_eigen_value(**body), abs=1e-13)


def test_diagonal_x_state_minimum_is_the_quasi_eigen_value():
    # without coherences the state is classical and measuring z leaves C = I
    rng = np.random.default_rng(7)
    for _ in range(20):
        body = dict(workloads._draw_x(rng), u=0.0, v=0.0)
        value, _ = ref.min_avg_entropy(ref.x_state(**body))
        assert value == pytest.approx(_quasi_eigen_value(**body), abs=1e-12)


def test_x_state_minimum_never_exceeds_two_chord_value():
    rng = np.random.default_rng(8)
    for _ in range(20):
        rho = ref.x_state(**workloads._draw_x(rng))
        assert ref.min_avg_entropy(rho)[0] <= ref.min_two_chord(rho) + 1e-12


def test_fault_state_has_a_tilted_optimum():
    rho = ref.x_state(**workloads.FAULT_SPEC)
    value, n = ref.min_avg_entropy(rho)
    assert ref.min_two_chord(rho) - value == pytest.approx(7.21e-4, abs=5e-6)
    n = n if n[2] > 0 else -n
    assert n == pytest.approx([-0.474, 0.452, 0.756], abs=2e-3) or n == pytest.approx(
        [0.474, -0.452, 0.756], abs=2e-3
    )


def test_antipodal_directions_give_the_same_value():
    rng = np.random.default_rng(9)
    rho = ref.x_state(**workloads._draw_x(rng))
    ns = rng.normal(size=(10, 3))
    ns /= np.linalg.norm(ns, axis=1, keepdims=True)
    assert ref.avg_entropy(rho, ns) == pytest.approx(ref.avg_entropy(rho, -ns), abs=1e-14)


@pytest.mark.parametrize("channel", ["phase_damping", "amplitude_damping", "pauli(0.5,0.3,0.2)"])
def test_transfer_matrices_match_kraus_operators(channel):
    strength = 0.37
    sx, sy, sz = ref.SIGMA[1:]
    if channel == "phase_damping":
        kraus = [np.diag([strength, 1.0]), np.diag([math.sqrt(1 - strength**2), 0.0])]
    elif channel == "amplitude_damping":
        kraus = [np.diag([1.0, math.sqrt(1 - strength)]),
                 np.array([[0.0, math.sqrt(strength)], [0.0, 0.0]])]
    else:
        probs = strength * np.array([0.5, 0.3, 0.2])
        kraus = [math.sqrt(1 - probs.sum()) * np.eye(2)] + [
            math.sqrt(p) * s for p, s in zip(probs, (sx, sy, sz))]
    rho = ref.x_state(**workloads._draw_x(np.random.default_rng(10)))
    ops = [np.kron(ka, kb) for ka in kraus for kb in kraus]
    want = sum(op @ rho @ op.conj().T for op in ops)
    assert ref.apply_channel_both(rho, channel, strength) == pytest.approx(want, abs=1e-14)


def test_benchmark_file_lists_the_metrics_the_runs_print():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    assert {m["name"] for m in spec["per_layer"]} == set(spans.SOURCES)
    assert [m["name"] for m in spec["end_to_end"]] == [
        "setup_s", "states_per_s", "op_p50_ms", "cpu_ms_per_state", "peak_rss_mb"]
