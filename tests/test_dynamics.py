import numpy as np
import pytest
from conftest import ginibre_state, kraus_operators, kraus_sum, random_x_params

from discordlab.discord import (
    BRANCH_EQUI_ENTROPY,
    BRANCH_QUASI_EIGEN,
    correlation_report,
)
from discordlab.dynamics import (
    PhaseDampingChannel,
    Trajectory,
    apply_channel,
    apply_named_channel,
    critical_time,
    evolve_trajectory,
)
from discordlab.qstate import (
    BellDiagonalParams,
    TwoQubitState,
    XStateParams,
    extract_x_params,
    make_bell_diagonal,
    make_x_state,
)

# the sign of t2 keeps 1 - t3 >= |t1 + t2| while leaving every |t_i| as in
# the sudden-transition benchmark triple
BENCHMARK = BellDiagonalParams(0.8, -0.1, 0.2)


def test_phase_damping_validation():
    with pytest.raises(ValueError, match="gamma"):
        PhaseDampingChannel(gamma=1.2)
    with pytest.raises(ValueError, match="rate"):
        PhaseDampingChannel(gamma=0.5, rate=-1.0)
    ch = PhaseDampingChannel.at_time(0.5, rate=2.0)
    assert ch.gamma == pytest.approx(np.exp(-1.0))


def test_phase_damping_scales_coherences(rng):
    params = random_x_params(rng)
    state = make_x_state(params)
    gamma = 0.7
    out = apply_channel(state, PhaseDampingChannel(gamma=gamma), both_parties=True)
    after = extract_x_params(out)
    assert after is not None
    # two-sided damping: diagonal untouched, coherences scaled by gamma^2
    for name in ("a", "b", "c", "d"):
        assert getattr(after, name) == pytest.approx(getattr(params, name), abs=1e-12)
    assert after.u == pytest.approx(gamma**2 * params.u, abs=1e-12)
    assert after.v == pytest.approx(gamma**2 * params.v, abs=1e-12)

    one_sided = extract_x_params(
        apply_channel(state, PhaseDampingChannel(gamma=gamma), both_parties=False)
    )
    assert one_sided.u == pytest.approx(gamma * params.u, abs=1e-12)


def test_phase_damping_semigroup(rng):
    state = ginibre_state(rng)
    g1, g2 = 0.8, 0.65
    two_steps = apply_channel(
        apply_channel(state, PhaseDampingChannel(gamma=g1)),
        PhaseDampingChannel(gamma=g2),
    )
    one_step = apply_channel(state, PhaseDampingChannel(gamma=g1 * g2))
    np.testing.assert_allclose(two_steps.matrix, one_step.matrix, atol=1e-12)


def test_named_channels_identity_limits(rng):
    state = make_x_state(random_x_params(rng))
    for name, strength in (
        ("phase_damping", 1.0),
        ("amplitude_damping", 0.0),
        ("pauli(0.1, 0.1, 0.1)", 0.0),
    ):
        out = apply_named_channel(state, name, strength)
        np.testing.assert_allclose(out.matrix, state.matrix, atol=1e-12)


def test_named_channels_preserve_x_shape(rng):
    state = make_x_state(random_x_params(rng))
    for name, strength in (
        ("phase_damping", 0.6),
        ("amplitude_damping", 0.3),
        ("pauli(0.2,0.3,0.1)", 0.5),
    ):
        out = apply_named_channel(state, name, strength)
        assert extract_x_params(out) is not None
        assert out.matrix.trace().real == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize(
    "name, strength",
    [
        ("phase_damping", 0.6),
        ("amplitude_damping", 0.3),
        ("pauli(0.2,0.3,0.1)", 0.5),
        ("pauli(0.5,0.3,0.2)", 0.9),
    ],
)
@pytest.mark.parametrize("both_parties", [True, False])
def test_named_channels_match_kraus_sums(rng, name, strength, both_parties):
    kraus = kraus_operators(name, strength)
    for _ in range(20):
        state = ginibre_state(rng)
        out = apply_named_channel(state, name, strength, both_parties=both_parties)
        expected = kraus_sum(state.matrix, kraus, both_parties)
        np.testing.assert_allclose(out.matrix, expected, rtol=0.0, atol=1e-14)


def test_named_channel_errors():
    state = make_bell_diagonal(BENCHMARK)
    with pytest.raises(ValueError, match="unknown channel"):
        apply_named_channel(state, "depolarizing", 0.1)
    with pytest.raises(ValueError, match="amplitude damping"):
        apply_named_channel(state, "amplitude_damping", 1.5)
    with pytest.raises(ValueError, match="Pauli"):
        apply_named_channel(state, "pauli(1,1,1)", 0.9)


def test_critical_time_benchmark():
    # gamma(t)^2 |t1| = |t3| crosses at ln(4)/2 for |t1| = 0.8, |t3| = 0.2
    t_bar = critical_time(BENCHMARK, rate=1.0)
    assert t_bar == pytest.approx(np.log(4.0) / 2.0, abs=1e-9)
    # rate rescales the crossing inversely
    assert critical_time(BENCHMARK, rate=2.0) == pytest.approx(t_bar / 2.0, abs=1e-9)


def test_critical_time_none_cases():
    # quasi-eigen from the start: no switch
    assert critical_time(BellDiagonalParams(0.2, -0.1, 0.8), rate=1.0) is None
    # t3 = 0: the candidates only meet asymptotically
    assert critical_time(BellDiagonalParams(0.5, 0.2, 0.0), rate=1.0) is None
    with pytest.raises(ValueError, match="rate"):
        critical_time(BENCHMARK, rate=0.0)
    with pytest.raises(TypeError):
        critical_time("not params", rate=1.0)


def test_critical_time_accepts_x_params(rng):
    params = BENCHMARK.to_x_params()
    assert critical_time(params, rate=1.0) == pytest.approx(
        critical_time(BENCHMARK, rate=1.0), abs=1e-12
    )


def test_evolve_trajectory_branch_switch():
    trajectory = evolve_trajectory(
        make_bell_diagonal(BENCHMARK), rate=1.0, t_max=1.4, steps=15
    )
    t_bar = trajectory.critical_time
    assert t_bar == pytest.approx(np.log(4.0) / 2.0, abs=1e-9)
    np.testing.assert_allclose(trajectory.gammas, np.exp(-trajectory.times), atol=1e-14)
    for t, report in zip(trajectory.times, trajectory.reports):
        expected = BRANCH_EQUI_ENTROPY if t < t_bar - 1e-9 else BRANCH_QUASI_EIGEN
        assert report.branch == expected


def test_evolve_trajectory_quasi_start_constant_classical():
    trajectory = evolve_trajectory(
        make_bell_diagonal(BellDiagonalParams(0.2, -0.1, 0.8)),
        rate=1.0,
        t_max=2.0,
        steps=9,
    )
    assert trajectory.critical_time is None
    classical = [report.classical for report in trajectory.reports]
    assert max(classical) - min(classical) < 1e-12


def test_evolve_trajectory_non_phase_channel_has_no_critical_time():
    trajectory = evolve_trajectory(
        make_bell_diagonal(BENCHMARK),
        rate=1.0,
        t_max=1.0,
        steps=5,
        channel="amplitude_damping",
    )
    assert trajectory.critical_time is None
    assert len(trajectory.reports) == 5


def test_evolve_trajectory_validation():
    state = make_bell_diagonal(BENCHMARK)
    with pytest.raises(ValueError, match="steps"):
        evolve_trajectory(state, rate=1.0, t_max=1.0, steps=1)
    for rate in (-1.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="rate"):
            evolve_trajectory(state, rate=rate, t_max=1.0, steps=5)
    for t_max in (-1.0, 0.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="t_max"):
            evolve_trajectory(state, rate=1.0, t_max=t_max, steps=5)
    with pytest.raises(ValueError, match="unknown channel"):
        evolve_trajectory(state, rate=1.0, t_max=1.0, steps=5, channel="nope")


def test_trajectory_requires_increasing_times():
    with pytest.raises(ValueError, match="increasing"):
        Trajectory(
            times=np.array([0.0, 0.0]),
            gammas=np.array([1.0, 1.0]),
            reports=(None, None),
            semi_axes=np.zeros((2, 3)),
            critical_time=None,
        )


STACKED_CASES = {
    "x": lambda: make_x_state(random_x_params(np.random.default_rng(5))),
    "bell-diagonal": lambda: make_bell_diagonal(BENCHMARK),
    "ginibre": lambda: ginibre_state(np.random.default_rng(6)),
}


@pytest.mark.parametrize("channel", ["phase_damping", "amplitude_damping", "pauli(0.5,0.3,0.2)"])
@pytest.mark.parametrize("kind", list(STACKED_CASES))
def test_stacked_trajectory_matches_per_step_reports(kind, channel):
    # the per-step route, one validated state and one report per step, is
    # the reference for the one-stack trajectory
    rho0 = STACKED_CASES[kind]()
    rate, grid = 1.3, (31, 60)
    trajectory = evolve_trajectory(rho0, rate=rate, t_max=2.0, steps=21, channel=channel,
                                   grid=grid)
    for t, report in zip(trajectory.times, trajectory.reports):
        decay = np.exp(-rate * t)
        strength = decay if channel == "phase_damping" else 1.0 - decay
        step = correlation_report(apply_named_channel(rho0, channel, strength), grid=grid)
        assert report.branch == step.branch
        for field in ("mutual_info", "classical", "discord"):
            assert abs(getattr(report, field) - getattr(step, field)) <= 1e-12, (t, field)
    params = extract_x_params(rho0)
    expected = None
    if channel == "phase_damping" and params is not None:
        expected = critical_time(params, rate)
    assert trajectory.critical_time == expected


def test_trajectory_validates_no_state_per_step(monkeypatch):
    rho0 = make_x_state(random_x_params(np.random.default_rng(5)))
    calls = []
    validate = TwoQubitState.__post_init__
    monkeypatch.setattr(
        TwoQubitState, "__post_init__", lambda state: calls.append(state) or validate(state)
    )
    trajectory = evolve_trajectory(rho0, rate=1.0, t_max=2.0, steps=21)
    assert len(trajectory.reports) == 21
    assert calls == []
