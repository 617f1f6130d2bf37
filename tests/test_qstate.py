import math

import numpy as np
import pytest
from conftest import ginibre_state, random_x_params

from discordlab.qstate import (
    BellDiagonalParams,
    InvalidStateError,
    TwoQubitState,
    XStateParams,
    binary_entropy,
    bloch_vector,
    extract_x_params,
    make_bell_diagonal,
    make_x_state,
    mutual_information,
    partial_trace,
    pauli_expansion,
    reconstruct_state,
    swap_parties,
    von_neumann_entropy,
)

BELL_PHI_PLUS = 0.5 * np.array(
    [[1, 0, 0, 1], [0, 0, 0, 0], [0, 0, 0, 0], [1, 0, 0, 1]], dtype=complex
)


def test_binary_entropy_frozen_values():
    assert binary_entropy(0.0) == 1.0
    assert binary_entropy(1.0) == 0.0
    assert binary_entropy(0.5) == 0.8112781244591328
    assert binary_entropy(1.0 / 3.0) == 0.9182958340544896
    assert binary_entropy(0.4) == 0.8812908992306927


def test_binary_entropy_sign_and_clamping():
    assert binary_entropy(-0.3) == binary_entropy(0.3)
    # rounding overshoot beyond the unit ball is clamped, not an error
    assert binary_entropy(1.0 + 1e-12) == 0.0


def test_binary_entropy_is_never_negative_zero():
    # at the last double below 1, -p log2(p) - q log2(q) rounds to -0.0
    assert math.copysign(1.0, binary_entropy(1 - 2**-53)) == 1.0


def test_two_qubit_state_validation():
    with pytest.raises(InvalidStateError, match="4x4"):
        TwoQubitState(np.eye(3))
    bad = np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex)
    bad[0, 3] = 0.3  # no conjugate partner
    with pytest.raises(InvalidStateError, match=r"\(0, 3\)"):
        TwoQubitState(bad)
    with pytest.raises(InvalidStateError, match="trace"):
        TwoQubitState(np.eye(4))
    indefinite = np.diag([0.8, 0.5, -0.2, -0.1]).astype(complex)
    with pytest.raises(InvalidStateError, match="negative eigenvalue"):
        TwoQubitState(indefinite)


def test_two_qubit_state_is_frozen(rng):
    state = ginibre_state(rng)
    with pytest.raises(ValueError):
        state.matrix[0, 0] = 2.0


def test_x_state_params_validation():
    with pytest.raises(InvalidStateError, match="nonnegative"):
        XStateParams(a=-0.1, b=0.5, c=0.3, d=0.3, u=0.0, v=0.0)
    with pytest.raises(InvalidStateError, match="sum"):
        XStateParams(a=0.3, b=0.3, c=0.3, d=0.3, u=0.0, v=0.0)
    with pytest.raises(InvalidStateError, match="u, v"):
        XStateParams(a=0.4, b=0.1, c=0.2, d=0.3, u=-0.1, v=0.0)
    with pytest.raises(InvalidStateError, match=r"u\^2"):
        XStateParams(a=0.4, b=0.1, c=0.2, d=0.3, u=0.5, v=0.0)
    with pytest.raises(InvalidStateError, match=r"v\^2"):
        XStateParams(a=0.4, b=0.1, c=0.2, d=0.3, u=0.0, v=0.4)


def test_bell_diagonal_params_validation():
    BellDiagonalParams(1.0, -1.0, 1.0)  # |Phi+> is on the boundary
    with pytest.raises(InvalidStateError, match=r"1 \+ t3"):
        BellDiagonalParams(0.9, -0.9, -0.9)
    with pytest.raises(InvalidStateError, match=r"1 - t3"):
        BellDiagonalParams(0.8, 0.1, 0.2)


def test_bell_diagonal_to_x_params_matches_matrix(rng):
    for _ in range(20):
        t = rng.uniform(-1.0, 1.0, size=3)
        try:
            params = BellDiagonalParams(*t)
        except InvalidStateError:
            continue
        direct = make_bell_diagonal(params).matrix
        via_x = make_x_state(params.to_x_params()).matrix
        np.testing.assert_allclose(via_x, direct, atol=1e-14)


def test_make_bell_diagonal_phi_plus():
    state = make_bell_diagonal(BellDiagonalParams(1.0, -1.0, 1.0))
    np.testing.assert_allclose(state.matrix, BELL_PHI_PLUS, atol=1e-14)


def test_make_x_state_structure():
    m = make_x_state(
        XStateParams(a=0.4, b=0.1, c=0.2, d=0.3, u=0.1, v=0.05, mu=0.3, nu=-0.7)
    ).matrix
    np.testing.assert_allclose(np.diag(m).real, [0.4, 0.1, 0.2, 0.3])
    assert m[0, 3] == pytest.approx(0.1 * np.exp(0.3j))
    assert m[1, 2] == pytest.approx(0.05 * np.exp(-0.7j))
    assert m[0, 1] == 0.0 and m[2, 3] == 0.0


def test_pauli_expansion_round_trip(rng):
    for _ in range(25):
        state = ginibre_state(rng)
        r = pauli_expansion(state)
        back = reconstruct_state(r)
        np.testing.assert_allclose(back.matrix, state.matrix, atol=1e-12)


def test_correlation_matrix_blochs(rng):
    state = ginibre_state(rng)
    r = pauli_expansion(state)
    np.testing.assert_allclose(
        r.alice_bloch, bloch_vector(partial_trace(state, "A")), atol=1e-12
    )
    np.testing.assert_allclose(
        r.bob_bloch, bloch_vector(partial_trace(state, "B")), atol=1e-12
    )


def test_partial_trace_product_state():
    rho_a = np.array([[0.7, 0.2j], [-0.2j, 0.3]])
    rho_b = np.array([[0.6, 0.1], [0.1, 0.4]])
    state = np.kron(rho_a, rho_b)
    np.testing.assert_allclose(partial_trace(state, "A"), rho_a, atol=1e-14)
    np.testing.assert_allclose(partial_trace(state, "B"), rho_b, atol=1e-14)
    with pytest.raises(ValueError, match="keep"):
        partial_trace(state, "C")


def test_partial_trace_preserves_trace(rng):
    state = ginibre_state(rng)
    for keep in ("A", "B"):
        assert np.trace(partial_trace(state, keep)).real == pytest.approx(1.0)


def test_von_neumann_entropy_known_states():
    assert von_neumann_entropy(np.diag([1.0, 0.0])) == 0.0
    assert von_neumann_entropy(0.25 * np.eye(4)) == pytest.approx(2.0)
    assert von_neumann_entropy(BELL_PHI_PLUS) == pytest.approx(0.0, abs=1e-12)
    assert von_neumann_entropy(partial_trace(BELL_PHI_PLUS, "A")) == pytest.approx(1.0)
    with pytest.raises(InvalidStateError, match="negative"):
        von_neumann_entropy(np.diag([1.5, -0.5]))


def test_von_neumann_entropy_matches_binary_entropy(rng):
    # for a single qubit the entropy is h of the Bloch norm
    for _ in range(10):
        state = ginibre_state(rng)
        rho = partial_trace(state, "A")
        assert von_neumann_entropy(rho) == pytest.approx(
            binary_entropy(np.linalg.norm(bloch_vector(rho))), abs=1e-12
        )


def test_mutual_information_extremes():
    product = np.kron(np.diag([0.8, 0.2]), np.diag([0.6, 0.4]))
    assert mutual_information(product) == pytest.approx(0.0, abs=1e-12)
    assert mutual_information(BELL_PHI_PLUS) == pytest.approx(2.0, abs=1e-12)


def test_swap_parties(rng):
    state = ginibre_state(rng)
    swapped = swap_parties(state)
    np.testing.assert_allclose(
        partial_trace(swapped, "A"), partial_trace(state, "B"), atol=1e-14
    )
    np.testing.assert_allclose(
        swap_parties(swapped).matrix, state.matrix, atol=1e-14
    )
    # R of the swapped state is R transposed
    np.testing.assert_allclose(
        pauli_expansion(swapped).entries, pauli_expansion(state).entries.T, atol=1e-12
    )


def test_extract_x_params_round_trip(rng):
    for _ in range(20):
        params = random_x_params(rng)
        got = extract_x_params(make_x_state(params))
        assert got is not None
        for name in ("a", "b", "c", "d", "u", "v"):
            assert getattr(got, name) == pytest.approx(getattr(params, name), abs=1e-12)
        if params.u > 1e-12:
            assert np.exp(1j * got.mu) == pytest.approx(np.exp(1j * params.mu))
        if params.v > 1e-12:
            assert np.exp(1j * got.nu) == pytest.approx(np.exp(1j * params.nu))


def test_extract_x_params_rejects_non_x(rng):
    state = ginibre_state(rng)
    assert extract_x_params(state) is None
