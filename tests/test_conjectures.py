from types import SimpleNamespace

import numpy as np
import pytest
from conftest import ginibre_state, random_direction

from discordlab import _kernels, conjectures, discord
from discordlab.conjectures import (
    ConjectureViolationError,
    GeneralRParams,
    MixtureParams,
    class_one_min_entropy,
    classify_optimal_line,
    general_r_geometry,
    general_r_matrix,
    make_general_r_state,
    make_mixture_state,
    min_chord_entropy,
    mixture_bloch_a,
    mixture_correlations_via_conjecture,
    mixture_ensemble,
    offaxis_reference_state,
    sample_general_r_params,
    sample_mixture_params,
    sweep_mixture,
)
from discordlab.discord import (
    BRANCH_EQUI_ENTROPY,
    DEFAULT_GRID,
    ProjectiveMeasurement,
    brute_force_min_entropy,
    post_measurement_ensemble,
)
from discordlab.qstate import (
    TwoQubitState,
    bloch_vector,
    partial_trace,
    pauli_expansion,
    von_neumann_entropy,
)
from discordlab.steering import steering_ellipsoid


def reference_template():
    r = pauli_expansion(offaxis_reference_state()).entries
    return GeneralRParams(
        r1=r[1, 0], r3=r[3, 0], s1=r[0, 1], s3=r[0, 3],
        t13=r[1, 3], t22=r[2, 2], t31=r[3, 1],
    )


def test_mixture_params_validation():
    with pytest.raises(ValueError, match="weight"):
        MixtureParams(lam=1.2, alpha=0.1, beta=0.1)
    with pytest.raises(ValueError, match="alpha"):
        MixtureParams(lam=0.5, alpha=2.0, beta=0.1)
    with pytest.raises(ValueError, match="beta"):
        MixtureParams(lam=0.5, alpha=0.1, beta=-0.1)


def test_make_mixture_state_matches_construction():
    p = MixtureParams(lam=0.3, alpha=0.7, beta=1.1)
    psi = np.array([np.cos(p.alpha), np.sin(p.alpha)])
    phi = np.array([np.cos(p.beta), np.sin(p.beta)])
    pure = np.kron(psi, phi)
    expected = 0.3 * np.diag([1.0, 0.0, 0.0, 0.0]) + 0.7 * np.outer(pure, pure)
    np.testing.assert_allclose(make_mixture_state(p).matrix, expected, atol=1e-14)


def test_mixture_r_is_singular_with_vanishing_y2_row():
    p = MixtureParams(lam=0.3, alpha=0.7, beta=1.1)
    r = pauli_expansion(make_mixture_state(p)).entries
    np.testing.assert_allclose(r[2, :], 0.0, atol=1e-12)
    np.testing.assert_allclose(r[:, 2], 0.0, atol=1e-12)
    assert abs(np.linalg.det(r)) < 1e-12


def test_mixture_bloch_a_matches_partial_trace(rng):
    for p in sample_mixture_params(10, 4):
        np.testing.assert_allclose(
            mixture_bloch_a(p),
            bloch_vector(partial_trace(make_mixture_state(p), "A")),
            atol=1e-12,
        )


def test_mixture_ensemble_matches_generic_route(rng):
    for p in sample_mixture_params(8, 12):
        r = pauli_expansion(make_mixture_state(p))
        for _ in range(4):
            m = ProjectiveMeasurement(random_direction(rng))
            fast = mixture_ensemble(p, m)
            generic = post_measurement_ensemble(r, m)
            for a, b in zip(fast, generic):
                assert a.probability == pytest.approx(b.probability, abs=1e-12)
                if not a.zero_probability:
                    np.testing.assert_allclose(a.bloch, b.bloch, atol=1e-10)


def test_mixture_ensemble_frozen_case():
    # lam = 1/2, alpha = beta = pi/4, measurement along z
    p = MixtureParams(lam=0.5, alpha=np.pi / 4, beta=np.pi / 4)
    plus, minus = mixture_ensemble(p, ProjectiveMeasurement(np.array([0.0, 0.0, 1.0])))
    assert plus.probability == pytest.approx(0.75, abs=1e-15)
    np.testing.assert_allclose(plus.bloch, [1.0 / 3.0, 0.0, 2.0 / 3.0], atol=1e-15)
    np.testing.assert_allclose(minus.bloch, [1.0, 0.0, 0.0], atol=1e-12)


def test_line_l_identity(rng):
    # every steered point satisfies y1 sin(a) + (y3 - 1) cos(a) = 0
    for p in sample_mixture_params(10, 21):
        for _ in range(4):
            m = ProjectiveMeasurement(random_direction(rng))
            for member in mixture_ensemble(p, m):
                if member.zero_probability or member.probability < 1e-6:
                    continue
                residual = member.bloch[0] * np.sin(p.alpha) + (
                    member.bloch[2] - 1.0
                ) * np.cos(p.alpha)
                assert abs(residual) < 1e-10


def test_sample_mixture_params_reproducible():
    first = sample_mixture_params(5, 42)
    again = sample_mixture_params(5, 42)
    prefix = sample_mixture_params(3, 42)
    for a, b in zip(first, again):
        assert (a.lam, a.alpha, a.beta) == (b.lam, b.alpha, b.beta)
    # one stream per sample index: a shorter run is a prefix of a longer one
    for a, b in zip(prefix, first):
        assert (a.lam, a.alpha, a.beta) == (b.lam, b.alpha, b.beta)


def test_gap_survey_small_run():
    run = conjectures.test_equi_entropy_conjecture(samples=25, seed=7)
    assert len(run.samples) == 25
    assert run.max_gap <= 1e-5
    assert run.fraction_tiny >= 0.9
    again = conjectures.test_equi_entropy_conjecture(samples=25, seed=7)
    assert again.max_gap == run.max_gap


def test_survey_chunking_does_not_change_results(monkeypatch):
    # samples go to the stacked circle oracle in chunks; a row's bits do not
    # depend on which chunk it lands in
    default = conjectures.test_equi_entropy_conjecture(samples=100, seed=5)
    monkeypatch.setattr(discord, "_CIRCLE_CHUNK", 7)
    rechunked = conjectures.test_equi_entropy_conjecture(samples=100, seed=5)
    for a, b in zip(default.samples, rechunked.samples):
        assert a.gap == b.gap
        assert a.min_entropy == b.min_entropy
        n_a, n_b = a.optimal_measurement.direction, b.optimal_measurement.direction
        assert n_a.tobytes() == n_b.tobytes()


def test_mixture_r_matches_pauli_expansion():
    # the survey's closed-form R against the generic route through the state
    drawn = sample_mixture_params(1000, 5)
    lam, alpha, beta = np.array([(p.lam, p.alpha, p.beta) for p in drawn]).T
    closed = conjectures._mixture_r(lam, alpha, beta)
    generic = np.array([pauli_expansion(make_mixture_state(p)).entries for p in drawn])
    np.testing.assert_allclose(closed, generic, rtol=0.0, atol=1e-15)
    assert not closed[:, 2, :].any() and not closed[:, :, 2].any()


def test_survey_gaps_match_ensemble_route():
    # gaps from the closed-form outcomes against the generic ensemble at the
    # same measurement; |y| carries a round-off error of order eps / p
    run = conjectures.test_equi_entropy_conjecture(samples=200, seed=5)
    for sample in run.samples:
        r = pauli_expansion(make_mixture_state(sample.params))
        plus, minus = post_measurement_ensemble(r, sample.optimal_measurement)
        if plus.zero_probability or minus.zero_probability:
            assert sample.gap == 0.0
            continue
        gap = abs(np.linalg.norm(plus.bloch) - np.linalg.norm(minus.bloch))
        p_min = min(plus.probability, minus.probability)
        assert sample.gap == pytest.approx(gap, abs=1e-12 + 64 * np.finfo(float).eps / p_min)


def test_circle_oracle_direction_gives_its_value():
    # n and -n are one measurement: the oracle flips the descent's direction
    # to n3 >= 0, with n2 = +0.0, and the value there is the returned one,
    # bitwise (no angle is folded after the descent)
    drawn = sample_mixture_params(200, 5)
    r = conjectures._mixture_r(*np.array([(p.lam, p.alpha, p.beta) for p in drawn]).T)
    values, ns = discord._circle_minimum(r, 181, 1e-9)
    assert (ns[:, 2] >= 0.0).all() and not np.signbit(ns[:, 1]).any()
    direct = [_kernels.avg_entropy_numpy(one, n[np.newaxis])[0] for one, n in zip(r, ns)]
    assert values.tobytes() == np.array(direct).tobytes()


def test_circle_oracle_matches_grid_oracle():
    # the survey's exact x-z circle oracle against the independent 2-D grid
    # oracle; samples 435 and 510 have a rare outcome with p ~ 1e-8 and a
    # gap above 1e-5
    run = conjectures.test_equi_entropy_conjecture(samples=511, seed=20250814)
    for sample in run.samples[:200] + (run.samples[435], run.samples[510]):
        p = sample.params
        assert sample.optimal_measurement.direction[1] == 0.0
        oracle, _ = brute_force_min_entropy(
            pauli_expansion(make_mixture_state(p)), grid=DEFAULT_GRID, refine_tol=1e-9
        )
        assert sample.min_entropy == pytest.approx(oracle, abs=1e-12)


@pytest.mark.parametrize(
    "route",
    [
        lambda: conjectures.test_equi_entropy_conjecture(samples=3, seed=7),
        lambda: mixture_correlations_via_conjecture(
            MixtureParams(lam=0.3, alpha=0.7, beta=1.1)
        ),
        # beta in {0, pi}: the beta = 0 cells stay mixtures, so the failing
        # cells are the mirror cells (alpha, pi)
        lambda: sweep_mixture(0.3, 2),
    ],
    ids=["gap_sample", "guard", "sweep_mirror"],
)
def test_gap_sample_requires_vanishing_y_column(monkeypatch, rng, route):
    # the circle oracle is exact only when Bob's y axis does not enter R
    bad = ginibre_state(rng).matrix

    def where_tilted(beta, broken, intact):  # scalar or stacked parameters
        return np.where(np.reshape(beta, np.shape(beta) + (1, 1)) > 0.0, broken, intact)

    # every route builds R in closed form rather than from the state
    bad_r = pauli_expansion(TwoQubitState(bad)).entries
    mixture_r = conjectures._mixture_r
    monkeypatch.setattr(
        conjectures,
        "_mixture_r",
        lambda lam, alpha, beta: where_tilted(beta, bad_r, mixture_r(lam, alpha, beta)),
    )
    with pytest.raises(RuntimeError, match=r"R\[:, 2\]"):
        route()


def test_ensemble_at_near_zero_outcome_probability():
    # sample 103 of seed 9 measured along z: p- ~ 7.9e-8, where round-off of
    # order eps / p- puts the generic route's |y-| at 1 + 2e-9
    p = sample_mixture_params(200, 9)[103]
    m = ProjectiveMeasurement(np.array([0.0, 0.0, 1.0]))
    generic = post_measurement_ensemble(pauli_expansion(make_mixture_state(p)), m)
    closed = mixture_ensemble(p, m)
    assert generic[1].probability == pytest.approx(7.9e-8, rel=0.01)
    for a, b in zip(generic, closed):
        assert a.probability == pytest.approx(b.probability, abs=1e-12)
        assert np.linalg.norm(a.bloch) <= 1.0 + 1e-12
        np.testing.assert_allclose(a.bloch, b.bloch, atol=1e-8)


def test_gap_survey_validation():
    with pytest.raises(ValueError, match="sample"):
        conjectures.test_equi_entropy_conjecture(samples=0, seed=1)
    with pytest.raises(ValueError, match="tolerance"):
        conjectures.test_equi_entropy_conjecture(samples=1, seed=1, refine_tol=0)


def test_mixture_correlations_frozen_case():
    report = mixture_correlations_via_conjecture(
        MixtureParams(lam=0.3, alpha=0.7, beta=1.1)
    )
    assert report.branch == BRANCH_EQUI_ENTROPY
    assert report.mutual_info == pytest.approx(0.39962780069481485, abs=1e-12)
    assert report.classical == pytest.approx(0.3260772313718931, abs=1e-9)
    assert report.discord == pytest.approx(0.07355056932292175, abs=1e-9)
    assert report.min_avg_entropy == pytest.approx(0.1315872426496837, abs=1e-9)
    # the optimal ensemble has equal Bloch norms by construction
    y_plus, y_minus = report.optimal_ensemble
    assert np.linalg.norm(y_plus.bloch) == pytest.approx(
        np.linalg.norm(y_minus.bloch), abs=1e-9
    )


def test_mixture_correlations_classical_extreme():
    # lam = 1/2, alpha = beta = pi/2: an even mixture of |00> and |11>
    report = mixture_correlations_via_conjecture(
        MixtureParams(lam=0.5, alpha=np.pi / 2, beta=np.pi / 2)
    )
    assert report.mutual_info == pytest.approx(1.0, abs=1e-12)
    assert report.classical == pytest.approx(1.0, abs=1e-9)
    assert report.discord == pytest.approx(0.0, abs=1e-9)


def test_mixture_correlations_agree_with_oracle(rng):
    for p in sample_mixture_params(6, 31):
        report = mixture_correlations_via_conjecture(p)
        oracle, _ = brute_force_min_entropy(pauli_expansion(make_mixture_state(p)))
        assert report.min_avg_entropy == pytest.approx(oracle, abs=1e-6)


def test_conjecture_violation_error_payload():
    p = MixtureParams(lam=0.5, alpha=0.2, beta=0.3)
    m = ProjectiveMeasurement(np.array([0.0, 0.0, 1.0]))
    err = ConjectureViolationError("boom", params=p, constrained=0.5, unconstrained=0.4, measurement=m)
    assert err.params is p
    assert err.constrained == 0.5
    assert err.unconstrained == 0.4
    assert err.measurement is m


# samples on which a 4,097-node scan of |y+| - |y-| misses two roots that
# lie closer together than its spacing, so that the scan-based maximiser
# read up to 0.66 bits above the circle oracle and its guard raised
_NARROW_DIP_SAMPLES = (
    (5, 219), (5, 349), (17, 463), (17, 564), (20250814, 2492), (9, 867), (101, 1975)
)


def _narrow_dip_params():
    return [sample_mixture_params(i + 1, seed)[i] for seed, i in _NARROW_DIP_SAMPLES]


def _stacked_r(drawn):
    return conjectures._mixture_r(*np.array([(p.lam, p.alpha, p.beta) for p in drawn]).T)


def _maximiser_states():
    # seed 17 plus the constrained cells of a 6-point sweep at three weights,
    # product states (alpha = 0 or beta = 0) among them
    drawn = sample_mixture_params(300, 17)
    for lam in (0.3, 0.5, 0.7):
        for alpha in np.linspace(0.0, np.pi / 2, 6):
            for beta in np.linspace(0.0, np.pi, 6)[:3]:
                drawn.append(MixtureParams(lam=lam, alpha=alpha, beta=beta))
    return drawn


def test_cubic_form_is_the_outcome_map_identity(rng):
    # G = 4 (p-^2 |w+|^2 - p+^2 |w-|^2) on the x-z circle, for any R: the
    # mixture family's and Ginibre states', whose y column does not vanish
    ginibre = [pauli_expansion(ginibre_state(rng)).entries for _ in range(50)]
    r = np.concatenate((_stacked_r(sample_mixture_params(150, 3)), ginibre))
    xi = np.linspace(0.0, np.pi, 101)
    p, x = _kernels._outcomes(r, ((1, np.sin(xi)), (3, np.cos(xi))))
    expected = 4.0 * ((p[1] * p[0] * x[0]) ** 2 - (p[0] * p[1] * x[1]) ** 2)
    g = conjectures._cubic_form(r)
    np.testing.assert_allclose(conjectures._form_at(g, xi), expected, rtol=0.0, atol=1e-14)


def _scan_and_bisect(r, nodes=10_000):
    # least average entropy over the equi-norm angles that a scan of |y+| -
    # |y-| on nodes + 1 points of [0, pi] and a bisection of every sign change
    # find, per state; a scan can miss roots, so this bounds the maximiser above
    xi = np.linspace(0.0, np.pi, nodes + 1)

    def delta(states, angles):  # |y+| - |y-| at (len(states), m) angles
        _, norm = _kernels._outcomes(r[states], ((1, np.sin(angles)), (3, np.cos(angles))))
        return norm[0] - norm[1]

    owner, lo, hi = [], [], []
    for k in range(len(r)):
        d = np.sign(delta([k], xi[np.newaxis])[0])
        i = np.flatnonzero(d[:-1] * d[1:] <= 0.0)  # exact zeros count as roots
        owner += [k] * len(i)
        lo.append(xi[i])
        hi.append(xi[i + 1])
    owner, lo, hi = np.array(owner), np.concatenate(lo), np.concatenate(hi)
    sign_lo = np.sign(delta(owner, lo[:, np.newaxis])[:, 0])
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        sign_mid = np.sign(delta(owner, mid[:, np.newaxis])[:, 0])
        left = sign_mid != sign_lo  # a root in [lo, mid]
        hi = np.where(left, mid, hi)
        lo, sign_lo = np.where(left, lo, mid), np.where(left, sign_lo, sign_mid)
    mid = 0.5 * (lo + hi)[:, np.newaxis]
    values = _kernels._avg_entropy(r[owner], ((1, np.sin(mid)), (3, np.cos(mid))))[:, 0]
    best = np.full(len(r), np.inf)
    np.minimum.at(best, owner, values)
    return best


def test_constrained_optimum_never_above_scan_and_bisect():
    # every root the scan finds is a root of the cubic, and the maximiser
    # takes the best of all of them
    drawn = _maximiser_states() + _narrow_dip_params()
    r = _stacked_r(drawn)
    values, xis = conjectures._constrained_optimum(r)
    flat = np.isnan(values)
    assert flat.any() and not np.isnan(xis[~flat]).any()
    assert ((xis[~flat] >= 0.0) & (xis[~flat] < np.pi)).all()
    reference = _scan_and_bisect(r[~flat])
    assert (values[~flat] <= reference + 1e-12).all()


def test_guard_holds_on_narrow_dips():
    # the samples where a node scan missed a pair of close roots; and no
    # maximiser value above the exact circle oracle over 3,000 more samples
    for p in _narrow_dip_params():
        mixture_correlations_via_conjecture(p)
    for seed in (5, 17, 20250814):
        r = _stacked_r(sample_mixture_params(1000, seed))
        values, _ = conjectures._constrained_optimum(r)
        oracle, _ = discord._circle_minimum(r, 181, 1e-12)
        assert not (values > oracle + 1e-6).any()


def test_sweep_discord_is_not_negative():
    # on product cells (alpha = 0 or beta = 0) every angle is an equi-norm
    # root; a rare outcome's |y+| overshoots |a| by ~eps / p, which once took
    # C above I by up to 3e-10, so these cells take the circle's minimum
    for lam in (0.1, 0.3, 0.5, 0.7, 0.9):
        for row in sweep_mixture(lam, 9):
            assert row[4] >= -1e-12, (lam, row)


def test_sweep_mirror_cells_match_grid_oracle():
    # the mirror half's circle oracle against the independent 2-D grid oracle
    rows = sweep_mixture(0.3, 5)
    mirror = [row for row in rows if row[1] > np.pi / 2 + 1e-12]
    assert len(mirror) == 10
    for alpha, beta, _, classical, _ in mirror:
        # MixtureParams stops at beta = pi/2; the mirror cells lie beyond it
        state = make_mixture_state(SimpleNamespace(lam=0.3, alpha=alpha, beta=beta))
        oracle, _ = brute_force_min_entropy(pauli_expansion(state))
        s_a = von_neumann_entropy(partial_trace(state, "A"))
        assert classical == pytest.approx(s_a - oracle, abs=1e-9)


def test_sweep_mixture_layout_and_mirror():
    rows = sweep_mixture(0.5, 5)
    assert len(rows) == 25
    alphas = sorted({row[0] for row in rows})
    betas = sorted({row[1] for row in rows})
    np.testing.assert_allclose(alphas, np.linspace(0.0, np.pi / 2, 5), atol=1e-14)
    np.testing.assert_allclose(betas, np.linspace(0.0, np.pi, 5), atol=1e-14)
    # row-major alpha-then-beta ordering
    assert rows[0][:2] == (0.0, 0.0)
    assert rows[1][1] == pytest.approx(np.pi / 4)
    by_cell = {(row[0], row[1]): row[2:] for row in rows}
    # beta -> pi - beta is a local unitary on B: C and Q reflect exactly.
    # left half comes from the constrained maximizer, right half from the
    # oracle, so agreement cross-validates the two routes.
    for a in alphas:
        for b in betas:
            mirrored = by_cell[(a, np.pi - b)]
            direct = by_cell[(a, b)]
            for i in (1, 2):  # C and Q
                assert direct[i] == pytest.approx(mirrored[i], abs=1e-6)
    # the classical extreme sits at alpha = beta = pi/2
    i_val, c_val, q_val = by_cell[(np.pi / 2, np.pi / 2)]
    assert i_val == pytest.approx(1.0, abs=1e-9)
    assert c_val == pytest.approx(1.0, abs=1e-6)
    assert q_val == pytest.approx(0.0, abs=1e-6)


def test_general_r_params_validation():
    with pytest.raises(ValueError, match="s1"):
        GeneralRParams(r1=0.1, r3=0.2, s1=0.0, s3=0.1, t13=0.3, t22=0.2, t31=0.1)
    p = GeneralRParams(r1=0.1, r3=0.2, s1=0.5, s3=0.1, t13=0.3, t22=0.2, t31=0.1)
    assert p.t11 == pytest.approx((p.r1 - p.s3 * p.t13) / p.s1)
    assert p.t33 == pytest.approx(
        (p.r1 * p.r3 * p.s1 - p.r1 * p.t31 + p.s3 * p.t13 * p.t31) / (p.s1 * p.t13)
    )


def test_general_r_matrix_layout():
    p = GeneralRParams(r1=0.1, r3=0.2, s1=0.5, s3=0.1, t13=0.3, t22=0.2, t31=0.1)
    r = general_r_matrix(p).entries
    np.testing.assert_allclose(r[0], [1.0, p.s1, 0.0, p.s3], atol=1e-15)
    np.testing.assert_allclose(r[1], [p.r1, p.t11, 0.0, p.t13], atol=1e-15)
    np.testing.assert_allclose(r[2], [0.0, 0.0, p.t22, 0.0], atol=1e-15)
    np.testing.assert_allclose(r[3], [p.r3, p.t31, 0.0, p.t33], atol=1e-15)


def test_sample_general_r_params_reproducible_and_valid():
    drawn = sample_general_r_params(6, 5)
    again = sample_general_r_params(6, 5)
    assert len(drawn) == 6
    for a, b in zip(drawn, again):
        assert a.r1 == b.r1 and a.t31 == b.t31
    for p in drawn:
        state = make_general_r_state(p)  # validates positivity
        assert abs(pauli_expansion(state).det) > 1e-10


def _first_valid_template_one_draw_at_a_time(rng):
    # the sampler's former loop: seven uniforms per draw, one eigvalsh each
    while True:
        r1, r3, s1, s3, t13, t22, t31 = rng.uniform(-1.0, 1.0, size=7)
        if abs(s1) < 1e-3 or abs(t13) < 1e-3:
            continue
        params = GeneralRParams(r1=r1, r3=r3, s1=s1, s3=s3, t13=t13, t22=t22, t31=t31)
        try:
            state = make_general_r_state(params)
        except ValueError:
            continue
        if abs(pauli_expansion(state).det) > 1e-10:
            return params


def test_general_r_sampling_matches_one_draw_at_a_time():
    # blocks of draws checked by one stacked eigvalsh accept the same draw
    drawn = sample_general_r_params(40, 11)
    children = np.random.SeedSequence(11).spawn(40)
    for p, child in zip(drawn, children):
        q = _first_valid_template_one_draw_at_a_time(np.random.default_rng(child))
        assert (p.r1, p.r3, p.s1, p.s3, p.t13, p.t22, p.t31) == (
            q.r1, q.r3, q.s1, q.s3, q.t13, q.t22, q.t31
        )


def test_general_r_sampling_builds_no_state(monkeypatch):
    built = []
    post_init = TwoQubitState.__post_init__

    def counting(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(TwoQubitState, "__post_init__", counting)
    drawn = sample_general_r_params(4, 11)
    assert len(drawn) == 4
    assert built == []  # every check runs on the stacked template R


def test_general_r_geometry_matches_steering_ellipsoid():
    for p in sample_general_r_params(6, 5):
        l1, l2, l3, y3 = general_r_geometry(p)
        ellipsoid = steering_ellipsoid(make_general_r_state(p))
        assert ellipsoid.degeneracy == "full"
        np.testing.assert_allclose(
            sorted((l1, l2, l3), reverse=True), ellipsoid.semi_axes, atol=1e-8
        )
        np.testing.assert_allclose(ellipsoid.center, [0.0, 0.0, y3], atol=1e-8)


def test_reference_state_geometry():
    state = offaxis_reference_state()
    assert state.matrix.trace().real == pytest.approx(1.0, abs=1e-12)
    ellipsoid = steering_ellipsoid(state)
    assert ellipsoid.degeneracy == "full"
    np.testing.assert_allclose(ellipsoid.center, [0.0, 0.0, 0.5], atol=1e-12)
    np.testing.assert_allclose(
        ellipsoid.semi_axes, [np.sqrt(0.5), np.sqrt(0.5), 0.5], atol=1e-12
    )
    r = pauli_expansion(state)
    np.testing.assert_allclose(
        r.alice_bloch, [49.0 / (50.0 * np.sqrt(2.0)), 0.0, 0.57], atol=1e-12
    )


def test_reference_template_fit_and_closed_form():
    p = reference_template()
    r = pauli_expansion(offaxis_reference_state()).entries
    # the derived entries t11 and t33 close the template exactly
    assert p.t11 == pytest.approx(r[1, 1], abs=1e-12)
    assert p.t33 == pytest.approx(r[3, 3], abs=1e-12)
    assert class_one_min_entropy(p) == 0.2803578449700331


def test_reference_state_is_class_one():
    item = classify_optimal_line(reference_template())
    assert item.label == "I"
    assert item.gap <= 1e-6
    assert item.chord_y3 <= 1e-6
    assert item.s_min_a == pytest.approx(0.2803578449700331, abs=1e-6)
    # the apex value at the projected point differs: the dichotomy is real
    assert item.s_min_atilde > item.s_min_a + 0.1


def test_classify_produces_both_classes():
    labels = {classify_optimal_line(p).label for p in sample_general_r_params(30, 5)}
    assert labels == {"I", "II"}


def test_class_one_closed_form_matches_oracle():
    for p in sample_general_r_params(12, 11):
        item = classify_optimal_line(p)
        if item.label != "I":
            continue
        assert class_one_min_entropy(p) == pytest.approx(item.s_min_a, abs=2e-6)


def test_min_chord_entropy_sliding_invariance():
    # Class I value is unchanged as the probe point slides along the
    # optimal horizontal chord
    ellipsoid = steering_ellipsoid(offaxis_reference_state())
    values = [
        min_chord_entropy((ellipsoid.center, ellipsoid.semi_axes), [y1, 0.0, 0.57])
        for y1 in (-0.6, -0.3, 0.0, 0.35, 49.0 / (50.0 * np.sqrt(2.0)))
    ]
    assert max(values) - min(values) < 1e-9
    assert values[0] == pytest.approx(0.2803578449700331, abs=1e-6)


def test_min_chord_entropy_validation():
    ellipsoid = steering_ellipsoid(offaxis_reference_state())
    with pytest.raises(ValueError, match="outside"):
        min_chord_entropy((ellipsoid.center, ellipsoid.semi_axes), [0.9, 0.0, 0.57])
    from discordlab.qstate import XStateParams, make_x_state

    flat = steering_ellipsoid(
        make_x_state(XStateParams(a=0.25, b=0.25, c=0.25, d=0.25, u=0.1, v=0.1))
    )
    with pytest.raises(ValueError, match="nondegenerate"):
        min_chord_entropy(flat, [0.0, 0.0, 0.0])


def test_min_chord_entropy_matches_measurement_oracle(rng):
    # measurements on B steer A onto the chords of its ellipsoid through
    # A's Bloch vector, so the chord minimum is the measurement minimum
    states = [offaxis_reference_state()] + [ginibre_state(rng) for _ in range(5)]
    for state in states:
        chord = min_chord_entropy(
            steering_ellipsoid(state), bloch_vector(partial_trace(state, "A"))
        )
        oracle, _ = brute_force_min_entropy(pauli_expansion(state))
        assert chord == pytest.approx(oracle, abs=1e-8)


def test_min_chord_entropy_descends_a_thin_ellipsoid(monkeypatch, rng):
    # the third Ginibre state above: semi-axes 0.578, 0.232 and 0.0066, a
    # valley oblique to both grid angles that a (theta, phi) crawl took
    # ~2,200 calls to follow
    state = [ginibre_state(rng) for _ in range(3)][-1]
    ellipsoid = steering_ellipsoid(state)
    assert ellipsoid.semi_axes.min() < 0.01
    descend = conjectures._sphere_descent
    calls = []

    def counting(values_at, *args):
        def counted(ns):
            calls.append(len(ns))
            return values_at(ns)

        return descend(counted, *args)

    monkeypatch.setattr(conjectures, "_sphere_descent", counting)
    chord = min_chord_entropy(ellipsoid, bloch_vector(partial_trace(state, "A")))
    assert len(calls) <= 40
    oracle, _ = brute_force_min_entropy(pauli_expansion(state), refine_tol=1e-9)
    assert chord == pytest.approx(oracle, abs=1e-12)
