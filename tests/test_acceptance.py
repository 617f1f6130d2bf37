"""End-to-end checks of the shipped numerical claims.

Every test asserts a published number or behavior at its stated tolerance
and prints one summary line (visible with -s); runtime budgets are
asserted where the claim includes one.  These are deliberately
independent re-derivations: closed forms are checked against the grid
oracle, the critical time against a bisection done here, and the sweep
symmetry against a local-unitary reflection computed by a separate route.
"""

import json
import time

import numpy as np
import pytest
from conftest import (
    ginibre_state,
    haar_unitary,
    random_bell_diagonal,
    random_direction,
    random_x_params,
)

from discordlab import conjectures
from discordlab.cli import dump_state, parse_and_dispatch
from discordlab.conjectures import (
    mixture_ensemble,
    offaxis_reference_state,
    sample_mixture_params,
)
from discordlab.discord import (
    ProjectiveMeasurement,
    bell_diagonal_min_entropy,
    brute_force_min_entropy,
    correlation_report,
    post_measurement_ensemble,
    x_state_min_entropy,
)
from discordlab.dynamics import PhaseDampingChannel, apply_channel, evolve_trajectory
from discordlab.qstate import (
    BellDiagonalParams,
    TwoQubitState,
    make_bell_diagonal,
    make_x_state,
    pauli_expansion,
)
from discordlab.steering import contains, steering_ellipsoid

# the nominal sudden-transition triple has |t1| + |t2| > 1 - t3; flipping
# the sign of t2 restores positivity and changes none of the quantities
# under test, which depend only on the magnitudes
SUDDEN = BellDiagonalParams(0.8, -0.1, 0.2)
QUASI_START = BellDiagonalParams(0.2, -0.1, 0.8)


def test_reference_state_correlations(tmp_path, monkeypatch):
    monkeypatch.delenv("DISCORDLAB_THREADS", raising=False)
    spec = json.dumps(dump_state(offaxis_reference_state()))
    out = tmp_path / "reference.json"
    start = time.perf_counter()
    code = parse_and_dispatch(["compute", "--state", spec, "--out", str(out)])
    elapsed = time.perf_counter() - start
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["min_avg_entropy"] == pytest.approx(0.2804, abs=5e-4)
    assert payload["classical"] == pytest.approx(0.0118, abs=5e-4)
    assert payload["discord"] == pytest.approx(0.0338, abs=5e-4)
    assert elapsed < 2.0
    print(
        f"PASS reference state: S_min={payload['min_avg_entropy']} "
        f"C={payload['classical']} Q={payload['discord']} ({elapsed:.2f} s)"
    )


# Expected failure, kept at the stated tolerance on purpose.  The
# two-chord value is not the global optimum for every X state: in a thin
# band around the branch tie S_GH = S_EF the optimal measurement tilts
# away from both the polar axis and the equator, and the two-chord value
# overshoots by up to ~1e-3.  Roughly one state per thousand from a
# full-support sampler lands in that band, so the 1e-5 bound cannot hold
# at this sample size for any honestly chosen seed.  Verified for this
# seed by recomputing the worst sample from raw projectors: the tilted
# optimum (n_z ~ 0.76) beats min(S_GH, S_EF) by 7.2e-4 while both closed
# branches match their defining chords to 1e-15.  strict=True makes the
# suite fail loudly if this ever starts passing, which would mean the
# sampler or the oracle lost sight of the band.
@pytest.mark.xfail(
    strict=True,
    reason="two-chord closed form misses tilted optima near the branch tie "
    "(~0.1% of random X states, overshoot up to ~1e-3)",
)
def test_x_closed_form_matches_oracle_at_scale():
    rng = np.random.default_rng(424242)
    start = time.perf_counter()
    gaps = []
    worst_params = None
    for _ in range(1000):
        params = random_x_params(rng)
        closed, _ = x_state_min_entropy(params)
        oracle, _ = brute_force_min_entropy(pauli_expansion(make_x_state(params)))
        gaps.append(abs(closed - oracle))
        if gaps[-1] == max(gaps):
            worst_params = params
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    worst = max(gaps)
    within = sum(gap <= 1e-5 for gap in gaps)
    print(
        f"X closed form vs oracle: 1000 states, {within} within 1e-5, "
        f"max diff {worst:.3e} at {worst_params} ({elapsed:.1f} s)"
    )
    assert worst <= 1e-5


def test_bell_diagonal_formula_at_scale():
    rng = np.random.default_rng(87)
    worst = 0.0
    for _ in range(1000):
        t = random_bell_diagonal(rng)
        closed = bell_diagonal_min_entropy(t)
        oracle, _ = brute_force_min_entropy(pauli_expansion(make_bell_diagonal(t)))
        worst = max(worst, abs(closed - oracle))
    assert worst <= 1e-5
    print(f"PASS Bell-diagonal formula: 1000 states, max diff {worst:.3e}")


def test_equi_entropy_gap_survey_full():
    desk_start = time.perf_counter()
    conjectures.test_equi_entropy_conjecture(samples=1000, seed=20250814)
    desk_elapsed = time.perf_counter() - desk_start
    assert desk_elapsed < 30.0

    start = time.perf_counter()
    run = conjectures.test_equi_entropy_conjecture(samples=150000, seed=20250814)
    elapsed = time.perf_counter() - start
    gaps = np.array([sample.gap for sample in run.samples])
    fraction = float(np.mean(gaps <= 1e-5))
    for sample in run.samples:
        if sample.gap > 1e-5:  # counterexample record
            p = sample.params
            n = sample.optimal_measurement.direction
            print(
                f"counterexample: gap={sample.gap!r} lambda={p.lam!r} "
                f"alpha={p.alpha!r} beta={p.beta!r} n={n.tolist()!r}"
            )
    assert fraction >= 0.999, f"only {fraction:.5f} of gaps are <= 1e-5"
    assert elapsed < 1800.0
    print(
        f"PASS equi-entropy gap survey: 150000 samples, max gap {run.max_gap:.3e}, "
        f"fraction<=1e-5 {fraction:.5f} ({elapsed:.0f} s; desk check {desk_elapsed:.1f} s)"
    )


def test_sudden_transition_trajectory():
    trajectory = evolve_trajectory(
        make_bell_diagonal(SUDDEN), rate=1.0, t_max=1.5, steps=151
    )
    t_bar = trajectory.critical_time

    # independent bisection of the branch crossing gamma(t)^2 |t1| = |t3|
    lo, hi = 0.0, 1.5
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if np.exp(-2.0 * mid) * 0.8 > 0.2:
            lo = mid
        else:
            hi = mid
    crossing = 0.5 * (lo + hi)
    assert abs(crossing - np.log(4.0) / 2.0) < 1e-12
    assert t_bar == pytest.approx(np.log(4.0) / 2.0, abs=1e-6)
    assert t_bar == pytest.approx(crossing, abs=1e-6)

    after = [c for t, c in zip(trajectory.times, trajectory.classical) if t > t_bar]
    assert len(after) >= 10
    spread = max(after) - min(after)
    assert spread <= 1e-8

    quasi = evolve_trajectory(
        make_bell_diagonal(QUASI_START), rate=1.0, t_max=1.5, steps=31
    )
    assert quasi.critical_time is None
    classical = quasi.classical.tolist()
    quasi_spread = max(classical) - min(classical)
    assert quasi_spread <= 1e-8
    print(
        f"PASS sudden transition: t_bar={t_bar!r} vs ln(4)/2, C spread after "
        f"{spread:.2e}, quasi-eigen run spread {quasi_spread:.2e}"
    )


def _suite_decomposition_identity():
    rng = np.random.default_rng(11)
    for _ in range(50):
        r = pauli_expansion(ginibre_state(rng))
        members = post_measurement_ensemble(
            r, ProjectiveMeasurement(random_direction(rng))
        )
        recombined = sum(m.probability * m.bloch for m in members)
        assert np.abs(recombined - r.alice_bloch).max() <= 1e-12


def _suite_surface_membership():
    rng = np.random.default_rng(12)
    checked = 0
    while checked < 25:
        state = ginibre_state(rng)
        if abs(pauli_expansion(state).det) < 1e-3:
            continue
        checked += 1
        ellipsoid = steering_ellipsoid(state)
        for member in correlation_report(state).optimal_ensemble:
            if member.zero_probability or member.probability < 1e-6:
                continue
            _, margin = contains(ellipsoid, member.bloch)
            assert abs(margin) <= 1e-6


def _suite_correlation_split():
    rng = np.random.default_rng(13)
    states = [ginibre_state(rng) for _ in range(10)]
    states += [make_x_state(random_x_params(rng)) for _ in range(10)]
    states += [make_bell_diagonal(random_bell_diagonal(rng)) for _ in range(5)]
    for state in states:
        for direction in ("b-to-a", "a-to-b"):
            report = correlation_report(state, direction=direction)
            assert report.mutual_info == pytest.approx(
                report.classical + report.discord, abs=1e-9
            )
            assert report.classical >= -1e-9
            assert report.discord >= -1e-9


def _suite_local_unitary_invariance():
    rng = np.random.default_rng(14)
    base = ginibre_state(rng)
    reference = correlation_report(base)
    for _ in range(100):
        u = np.kron(haar_unitary(rng), haar_unitary(rng))
        rotated = TwoQubitState(u @ base.matrix @ u.conj().T)
        report = correlation_report(rotated)
        assert report.classical == pytest.approx(reference.classical, abs=1e-6)
        assert report.discord == pytest.approx(reference.discord, abs=1e-6)


def _suite_phase_damping_semigroup():
    rng = np.random.default_rng(15)
    for _ in range(10):
        state = ginibre_state(rng)
        g1, g2 = rng.uniform(0.1, 1.0, size=2)
        composed = apply_channel(
            apply_channel(state, PhaseDampingChannel(gamma=g1)),
            PhaseDampingChannel(gamma=g2),
        )
        direct = apply_channel(state, PhaseDampingChannel(gamma=g1 * g2))
        assert np.abs(composed.matrix - direct.matrix).max() <= 1e-12


def _suite_line_identity():
    rng = np.random.default_rng(16)
    for p in sample_mixture_params(20, 16):
        for _ in range(5):
            m = ProjectiveMeasurement(random_direction(rng))
            for member in mixture_ensemble(p, m):
                if member.zero_probability or member.probability < 1e-6:
                    continue
                residual = member.bloch[0] * np.sin(p.alpha) + (
                    member.bloch[2] - 1.0
                ) * np.cos(p.alpha)
                assert abs(residual) <= 1e-10


@pytest.mark.parametrize(
    "suite",
    [
        _suite_decomposition_identity,
        _suite_surface_membership,
        _suite_correlation_split,
        _suite_local_unitary_invariance,
        _suite_phase_damping_semigroup,
        _suite_line_identity,
    ],
    ids=[
        "decomposition-identity",
        "surface-membership",
        "correlation-split",
        "local-unitary-invariance",
        "phase-damping-semigroup",
        "line-identity",
    ],
)
def test_property_suite(suite):
    start = time.perf_counter()
    suite()
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    print(f"PASS property suite {suite.__name__}: {elapsed:.2f} s")


def _load_surface(path, points):
    rows = [
        line.split(",")
        for line in path.read_text().splitlines()
        if line and not line.startswith("#")
    ][1:]
    assert len(rows) == points * points
    data = np.array([[float(cell) for cell in row] for row in rows])
    return data.reshape(points, points, 5)  # [alpha, beta, (a, b, I, C, Q)]


def test_sweep_symmetry(tmp_path):
    points = 37  # 36 intervals: pi/6 and all mirror partners are grid nodes
    surfaces = {}
    for lam in (0.5, 0.7):
        out = tmp_path / f"surface_{lam}.csv"
        code = parse_and_dispatch(
            ["sweep", "mixture", "--lambda", str(lam), "--out", str(out)]
        )
        assert code == 0
        surfaces[lam] = _load_surface(out, points)

    # lam = 0.5: C and Q are symmetric under the beta -> pi - beta
    # reflection across the whole surface.  The two halves come from
    # different code paths (constrained maximizer vs oracle), so this is
    # also a cross-validation of the closed-form route.
    symmetric = surfaces[0.5]
    worst = 0.0
    for channel in (3, 4):  # C, Q columns
        grid = symmetric[:, :, channel]
        worst = max(worst, float(np.abs(grid - grid[:, ::-1]).max()))
    assert worst <= 1e-6

    # lam = 0.7: within beta in [0, pi/2] the alpha = pi/6 cut is visibly
    # lopsided around its midpoint beta = pi/4
    lopsided = surfaces[0.7]
    alpha_idx = 12  # alpha = pi/6
    half = slice(0, 19)  # beta in [0, pi/2]
    asymmetry = {}
    for name, channel in (("C", 3), ("Q", 4)):
        cut = lopsided[alpha_idx, half, channel]
        asymmetry[name] = float(np.abs(cut - cut[::-1]).max())
        assert asymmetry[name] > 1e-3
    print(
        f"PASS sweep symmetry: lam=0.5 reflection residual {worst:.2e}; "
        f"lam=0.7 alpha=pi/6 asymmetry C={asymmetry['C']:.3f} Q={asymmetry['Q']:.3f}"
    )
