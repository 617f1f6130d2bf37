import numpy as np
import pytest
from conftest import (
    ginibre_state,
    haar_unitary,
    random_bell_diagonal,
    random_direction,
    random_x_params,
)

from discordlab import discord
from discordlab.conjectures import MixtureParams, make_mixture_state, sample_mixture_params
from discordlab.discord import (
    BRANCH_EQUI_ENTROPY,
    BRANCH_NUMERIC,
    BRANCH_QUASI_EIGEN,
    TIE_TOL,
    CorrelationReport,
    EnsembleMember,
    InternalInvariantError,
    ProjectiveMeasurement,
    UnsupportedStructureError,
    _x_candidates,
    _x_minimum,
    avg_entropy,
    bell_diagonal_min_entropy,
    brute_force_min_entropy,
    correlation_report,
    post_measurement_ensemble,
    x_state_min_entropy,
)
from discordlab.qstate import (
    BellDiagonalParams,
    TwoQubitState,
    XStateParams,
    binary_entropy,
    extract_x_params,
    make_bell_diagonal,
    make_x_state,
    pauli_expansion,
    reconstruct_state,
    swap_parties,
)

WORKED = XStateParams(a=0.4, b=0.1, c=0.2, d=0.3, u=0.1, v=0.1)


def test_projective_measurement_requires_unit_direction():
    ProjectiveMeasurement(np.array([0.0, 0.0, 1.0]))
    with pytest.raises(ValueError, match="unit"):
        ProjectiveMeasurement(np.array([0.0, 0.0, 2.0]))


def test_ensemble_member_validation():
    with pytest.raises(ValueError, match="probability"):
        EnsembleMember(1.5, np.zeros(3))
    with pytest.raises(ValueError, match="unit ball"):
        EnsembleMember(0.5, np.array([1.0, 1.0, 0.0]))


def test_ensemble_rejects_vectors_outside_the_ball():
    # the round-off allowance scales with eps / p; real overshoots still raise
    z = ProjectiveMeasurement(np.array([0.0, 0.0, 1.0]))
    long_t = np.diag([1.0, 1.01, 1.01, 1.01])  # |y+-| = 1.01 at p = 1/2
    with pytest.raises(ValueError, match="unit ball"):
        post_measurement_ensemble(long_t, z)
    rare = np.zeros((4, 4))
    rare[0, 0] = 1.0
    rare[0, 3] = 1.0 - 2e-8  # p- = 1e-8
    rare[3, 3] = 2.02e-8  # |y-| = 1.01
    with pytest.raises(ValueError, match="unit ball"):
        post_measurement_ensemble(rare, z)


def test_decomposition_identity(rng):
    # sum_k p_k y_k recovers Alice's Bloch vector for any measurement
    for _ in range(20):
        r = pauli_expansion(ginibre_state(rng))
        members = post_measurement_ensemble(
            r, ProjectiveMeasurement(random_direction(rng))
        )
        total = sum(m.probability for m in members)
        recombined = sum(m.probability * m.bloch for m in members)
        assert total == pytest.approx(1.0, abs=1e-14)
        np.testing.assert_allclose(recombined, r.alice_bloch, atol=1e-12)


def test_antipodal_directions_swap_members(rng):
    r = pauli_expansion(ginibre_state(rng))
    n = random_direction(rng)
    fwd = post_measurement_ensemble(r, ProjectiveMeasurement(n))
    rev = post_measurement_ensemble(r, ProjectiveMeasurement(-n))
    assert fwd[0].probability == pytest.approx(rev[1].probability, abs=1e-14)
    np.testing.assert_allclose(fwd[0].bloch, rev[1].bloch, atol=1e-12)


def test_zero_probability_outcome():
    # measuring along z on |00><00| gives a deterministic outcome
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0] = 1.0
    r = pauli_expansion(TwoQubitState(rho))
    plus, minus = post_measurement_ensemble(
        r, ProjectiveMeasurement(np.array([0.0, 0.0, 1.0]))
    )
    assert plus.probability == pytest.approx(1.0)
    assert minus.zero_probability
    assert avg_entropy((plus, minus)) == pytest.approx(0.0, abs=1e-12)


def test_avg_entropy_checks_normalization():
    member = EnsembleMember(0.4, np.zeros(3))
    with pytest.raises(ValueError, match="sum"):
        avg_entropy((member, member))


def test_x_state_min_entropy_worked_example():
    value, branch = x_state_min_entropy(WORKED)
    assert value == 0.8754887502163469
    assert branch == BRANCH_QUASI_EIGEN


def test_x_state_min_entropy_tie_goes_to_quasi_eigen():
    # maximally mixed: both candidates hit h(0) = 1
    params = XStateParams(a=0.25, b=0.25, c=0.25, d=0.25, u=0.0, v=0.0)
    value, branch = x_state_min_entropy(params)
    assert value == pytest.approx(1.0)
    assert branch == BRANCH_QUASI_EIGEN


def test_x_closed_form_matches_oracle(rng):
    for _ in range(60):
        params = random_x_params(rng)
        value, _ = x_state_min_entropy(params)
        oracle, _ = brute_force_min_entropy(pauli_expansion(make_x_state(params)))
        assert value == pytest.approx(oracle, abs=1e-9)


def test_x_closed_form_on_degenerate_states(rng):
    # singular-R states follow the same two-candidate rule by continuity
    cases = [
        XStateParams(a=4 / 9, b=2 / 9, c=2 / 9, d=1 / 9, u=0.15, v=0.05),
        WORKED,
        XStateParams(a=0.25, b=0.25, c=0.25, d=0.25, u=0.1, v=0.1),
    ]
    for params in cases:
        value, _ = x_state_min_entropy(params)
        oracle, _ = brute_force_min_entropy(pauli_expansion(make_x_state(params)))
        assert value == pytest.approx(oracle, abs=1e-9)


def _parameter_closed_forms(p):
    """S_GH, S_EF and the equi-entropy direction written out in the X parameters."""
    s_gh = 0.0
    for weight, split in ((p.a + p.c, p.a - p.c), (p.b + p.d, p.b - p.d)):
        if weight > 1e-14:
            s_gh += weight * binary_entropy(abs(split) / weight)
    reach, r3 = 2.0 * (p.u + p.v), p.a + p.b - p.c - p.d
    s_ef = binary_entropy(np.sqrt(reach * reach + r3 * r3))
    theta = 0.5 * (np.pi + p.mu - p.nu)
    return s_gh, s_ef, np.array([np.sin(theta), np.cos(theta), 0.0])


def test_x_closed_forms_on_r_match_parameter_formulas():
    # seed 424242's X states, the singular-R states of
    # test_x_closed_form_on_degenerate_states and the maximally mixed tie
    rng = np.random.default_rng(424242)
    cases = [random_x_params(rng) for _ in range(2000)] + [
        XStateParams(a=4 / 9, b=2 / 9, c=2 / 9, d=1 / 9, u=0.15, v=0.05),
        WORKED,
        XStateParams(a=0.25, b=0.25, c=0.25, d=0.25, u=0.1, v=0.1),
        XStateParams(a=0.25, b=0.25, c=0.25, d=0.25, u=0.0, v=0.0),
    ]
    r = np.array([pauli_expansion(make_x_state(p)).entries for p in cases])
    s_gh, s_ef, n_equi = _x_candidates(r)
    _, _, branches = _x_minimum(r)
    for k, params in enumerate(cases):
        want_gh, want_ef, want_n = _parameter_closed_forms(params)
        assert abs(s_gh[k] - want_gh) <= 1e-14, k
        assert abs(s_ef[k] - want_ef) <= 1e-14, k
        assert branches[k] == (
            BRANCH_QUASI_EIGEN if want_gh - want_ef <= TIE_TOL else BRANCH_EQUI_ENTROPY
        )
        flip = min(np.abs(n_equi[k] - want_n).max(), np.abs(n_equi[k] + want_n).max())
        assert flip <= 1e-12, k


def test_bell_diagonal_min_entropy_matches_oracle(rng):
    for _ in range(40):
        t = random_bell_diagonal(rng)
        closed = bell_diagonal_min_entropy(t)
        oracle, _ = brute_force_min_entropy(pauli_expansion(make_bell_diagonal(t)))
        assert closed == pytest.approx(oracle, abs=1e-9)


def test_brute_force_returns_unit_measurement(rng):
    value, measurement = brute_force_min_entropy(pauli_expansion(ginibre_state(rng)))
    assert np.linalg.norm(measurement.direction) == pytest.approx(1.0)
    assert 0.0 <= value <= 1.0


def test_correlation_report_x_state_branches():
    report = correlation_report(make_x_state(WORKED))
    assert report.branch == BRANCH_QUASI_EIGEN
    assert report.min_avg_entropy == 0.8754887502163469
    np.testing.assert_allclose(report.optimal_measurement.direction, [0.0, 0.0, 1.0])

    # equal-weight candidate wins when the coherences dominate
    report = correlation_report(make_bell_diagonal(BellDiagonalParams(0.5, 0.2, 0.1)))
    assert report.branch == BRANCH_EQUI_ENTROPY
    assert report.min_avg_entropy == pytest.approx(binary_entropy(0.5), abs=1e-15)
    np.testing.assert_allclose(
        report.optimal_measurement.direction, [1.0, 0.0, 0.0], atol=1e-12
    )


def test_correlation_report_werner_like_frozen():
    report = correlation_report(make_bell_diagonal(BellDiagonalParams(0.5, -0.5, 0.5)))
    assert report.mutual_info == pytest.approx(0.45120505930460153, abs=1e-12)
    assert report.classical == pytest.approx(0.18872187554086717, abs=1e-12)
    assert report.discord == pytest.approx(0.26248318376373436, abs=1e-12)
    assert report.branch == BRANCH_QUASI_EIGEN


def test_correlation_report_methods(rng):
    state = make_x_state(random_x_params(rng))
    auto = correlation_report(state, method="auto")
    numeric = correlation_report(state, method="numeric")
    analytic = correlation_report(state, method="analytic")
    assert auto.branch in (BRANCH_QUASI_EIGEN, BRANCH_EQUI_ENTROPY)
    assert numeric.branch == BRANCH_NUMERIC
    assert analytic.min_avg_entropy == auto.min_avg_entropy
    assert numeric.min_avg_entropy == pytest.approx(auto.min_avg_entropy, abs=1e-6)

    with pytest.raises(UnsupportedStructureError):
        correlation_report(ginibre_state(rng), method="analytic")
    with pytest.raises(ValueError, match="method"):
        correlation_report(state, method="magic")
    with pytest.raises(ValueError, match="direction"):
        correlation_report(state, direction="sideways")


def y_free_states(kind):
    """Valid non-X states whose R ignores Bob's y axis (column 2 is zero)."""
    if kind == "mixture":
        params = [MixtureParams(lam=0.3, alpha=0.7, beta=1.1), *sample_mixture_params(4, 17)]
    elif kind == "product":  # pure product (lambda = 0), or |0><0| on A (alpha = 0)
        params = [MixtureParams(lam=0.0, alpha=0.4, beta=1.2),
                  MixtureParams(lam=0.6, alpha=0.0, beta=0.9)]
    else:  # Ginibre states through a Pauli channel on B that erases sigma_y
        rng = np.random.default_rng(17)
        erase_y = np.array([1.0, 0.6, 0.0, 0.4])
        return [reconstruct_state(pauli_expansion(ginibre_state(rng)).entries * erase_y)
                for _ in range(4)]
    return [make_mixture_state(p) for p in params]


@pytest.mark.parametrize("kind", ["mixture", "product", "y_erased"])
def test_core_routes_y_free_states_to_the_circle(monkeypatch, kind):
    # the exact minimum lies on the x-z circle, so the 2-D oracle is not
    # called unless method numeric asks for it
    calls = []
    scan = discord.min_entropy_scan
    monkeypatch.setattr(
        discord, "min_entropy_scan", lambda *args: calls.append(args) or scan(*args)
    )
    for state in y_free_states(kind):
        assert extract_x_params(state) is None
        report = correlation_report(state)
        assert len(calls) == 0
        assert report.branch == BRANCH_NUMERIC
        assert report.optimal_measurement.direction[1] == 0.0
        oracle, _ = brute_force_min_entropy(pauli_expansion(state), refine_tol=1e-9)
        assert report.min_avg_entropy == pytest.approx(oracle, abs=1e-12)
        calls.clear()
        correlation_report(state, method="numeric")
        assert len(calls) == 1
        calls.clear()


def test_direction_swap_consistency(rng):
    state = ginibre_state(rng)
    forward = correlation_report(state, direction="a-to-b")
    swapped = correlation_report(swap_parties(state), direction="b-to-a")
    assert forward.classical == pytest.approx(swapped.classical, abs=1e-9)
    assert forward.discord == pytest.approx(swapped.discord, abs=1e-9)
    # underscores are accepted as well
    again = correlation_report(state, direction="a_to_b")
    assert again.classical == forward.classical


def test_report_invariants(rng):
    for state in (ginibre_state(rng), make_x_state(random_x_params(rng))):
        for direction in ("b-to-a", "a-to-b"):
            report = correlation_report(state, direction=direction)
            assert report.mutual_info == pytest.approx(
                report.classical + report.discord, abs=1e-9
            )
            assert report.classical >= -1e-9
            assert report.discord >= -1e-9


def test_correlation_report_validation():
    with pytest.raises(InternalInvariantError, match="branch"):
        CorrelationReport(
            mutual_info=1.0,
            classical=0.5,
            discord=0.5,
            min_avg_entropy=0.1,
            optimal_measurement=ProjectiveMeasurement(np.array([0.0, 0.0, 1.0])),
            optimal_ensemble=(),
            branch="mystery",
        )
    with pytest.raises(ValueError, match=r"I = C \+ Q"):
        CorrelationReport(
            mutual_info=1.0,
            classical=0.2,
            discord=0.5,
            min_avg_entropy=0.1,
            optimal_measurement=ProjectiveMeasurement(np.array([0.0, 0.0, 1.0])),
            optimal_ensemble=(),
            branch="numeric",
        )
    # NaN passes every comparison, so it needs a rule of its own
    with pytest.raises(InternalInvariantError, match="non-finite correlation"):
        CorrelationReport(
            mutual_info=np.nan,
            classical=np.nan,
            discord=np.nan,
            min_avg_entropy=np.nan,
            optimal_measurement=ProjectiveMeasurement(np.array([0.0, 0.0, 1.0])),
            optimal_ensemble=(),
            branch="numeric",
        )


def test_local_unitary_invariance(rng):
    base = ginibre_state(rng)
    ref = correlation_report(base)
    for _ in range(10):
        u = np.kron(haar_unitary(rng), haar_unitary(rng))
        rotated = TwoQubitState(u @ base.matrix @ u.conj().T)
        report = correlation_report(rotated)
        assert report.classical == pytest.approx(ref.classical, abs=1e-9)
        assert report.discord == pytest.approx(ref.discord, abs=1e-9)
