import numpy as np
import pytest
from conftest import ginibre_state, random_direction, random_x_params

from discordlab.discord import ProjectiveMeasurement, post_measurement_ensemble
from discordlab.qstate import (
    BellDiagonalParams,
    TwoQubitState,
    XStateParams,
    bloch_vector,
    make_bell_diagonal,
    make_x_state,
    partial_trace,
    pauli_expansion,
)
from discordlab.steering import (
    contains,
    steering_ellipsoid,
    surface_points,
    x_frame_geometry,
)

WORKED = XStateParams(a=0.4, b=0.1, c=0.2, d=0.3, u=0.1, v=0.1)

# one X state per degenerate class, with the class steering_ellipsoid gives it
DEGENERATE_X = [
    # ad = bc with unequal coherences: horizontal filled ellipse
    (XStateParams(a=4 / 9, b=2 / 9, c=2 / 9, d=1 / 9, u=0.15, v=0.05), "ellipse"),
    # equal coherences with ad != bc: ellipse spanning the vertical axis
    (WORKED, "ellipse"),
    # equal coherences and ad = bc: in-plane segment
    (XStateParams(a=0.25, b=0.25, c=0.25, d=0.25, u=0.1, v=0.1), "segment"),
    # no coherence, ad != bc: the vertical segment between the two apexes
    (XStateParams(a=0.4, b=0.1, c=0.2, d=0.3, u=0.0, v=0.0), "segment"),
    # product state
    (XStateParams(a=0.25, b=0.25, c=0.25, d=0.25, u=0.0, v=0.0), "point"),
]


def nonsingular_x_params(rng):
    while True:
        params = random_x_params(rng)
        if abs(pauli_expansion(make_x_state(params)).det) > 1e-6:
            return params


def test_x_frame_geometry_worked_example():
    l1, l2, l3, y3, phi = x_frame_geometry(WORKED)
    assert l1 == pytest.approx(0.2 / np.sqrt(0.24), abs=1e-15)
    assert l2 == 0.0
    assert l3 == pytest.approx(0.1 / 0.24, abs=1e-15)
    assert y3 == pytest.approx(-0.02 / 0.24, abs=1e-15)
    assert phi == 0.0


def test_bell_diagonal_ellipsoid_is_origin_centered():
    ellipsoid = steering_ellipsoid(make_bell_diagonal(BellDiagonalParams(0.5, -0.5, 0.5)))
    np.testing.assert_allclose(ellipsoid.center, 0.0, atol=1e-12)
    np.testing.assert_allclose(ellipsoid.semi_axes, [0.5, 0.5, 0.5], atol=1e-12)
    assert ellipsoid.degeneracy == "full"


def test_steering_ellipsoid_matches_x_closed_form(rng):
    params = [random_x_params(rng) for _ in range(2000)]
    params += [p for p, _ in DEGENERATE_X]
    for p in params:
        ellipsoid = steering_ellipsoid(make_x_state(p))
        l1, l2, l3, y3, _ = x_frame_geometry(p)
        np.testing.assert_allclose(
            ellipsoid.semi_axes, sorted((l1, l2, l3), reverse=True), rtol=0.0, atol=1e-12
        )
        np.testing.assert_allclose(ellipsoid.center, [0.0, 0.0, y3], rtol=0.0, atol=1e-12)


def test_surface_points_solve_the_paper_quadric(rng):
    # the paper's quadric Q = R^{-T} eta R^{-1}, kept here as a reference
    # for states whose R is well away from singular
    eta = np.diag([1.0, -1.0, -1.0, -1.0])
    states = [ginibre_state(rng) for _ in range(40)]
    states += [make_x_state(random_x_params(rng)) for _ in range(200)]
    checked = 0
    for state in states:
        r = pauli_expansion(state)
        if abs(r.det) < 1e-3:
            continue
        checked += 1
        rinv = np.linalg.inv(r.entries)
        quadric = rinv.T @ eta @ rinv
        points = surface_points(steering_ellipsoid(state), 20, rng)
        homogeneous = np.column_stack([np.ones(len(points)), points])
        values = np.einsum("ki,ij,kj->k", homogeneous, quadric, homogeneous)
        assert np.abs(values).max() <= 1e-9
    assert checked >= 20


def test_orientation_agrees_mod_pi(rng):
    for _ in range(10):
        params = nonsingular_x_params(rng)
        l1, l2, _, _, phi = x_frame_geometry(params)
        if l1 - l2 < 1e-3:
            continue  # in-plane orientation ill-conditioned near circular sections
        numeric = steering_ellipsoid(make_x_state(params))
        diff = (numeric.orientation - phi) % np.pi
        assert min(diff, np.pi - diff) == pytest.approx(0.0, abs=1e-7)


def test_rotation_is_orthogonal_right_handed(rng):
    ellipsoid = steering_ellipsoid(ginibre_state(rng))
    rot = ellipsoid.rotation
    np.testing.assert_allclose(rot.T @ rot, np.eye(3), atol=1e-12)
    assert np.linalg.det(rot) == pytest.approx(1.0, abs=1e-12)
    assert ellipsoid.semi_axes[0] >= ellipsoid.semi_axes[1] >= ellipsoid.semi_axes[2]


@pytest.mark.parametrize("params, expected", DEGENERATE_X)
def test_degenerate_classes(params, expected):
    assert abs(pauli_expansion(make_x_state(params)).det) <= 1e-10
    assert steering_ellipsoid(make_x_state(params)).degeneracy == expected


def test_degenerate_point_center():
    params = XStateParams(a=0.25, b=0.25, c=0.25, d=0.25, u=0.0, v=0.0)
    ellipsoid = steering_ellipsoid(make_x_state(params))
    np.testing.assert_allclose(ellipsoid.center, [0.0, 0.0, 0.0], atol=1e-14)
    np.testing.assert_allclose(ellipsoid.semi_axes, 0.0, atol=1e-14)


def test_product_state_steers_a_single_point(rng):
    # a generic product state has singular R and no X structure; whatever B
    # measures, A stays at its own Bloch vector, with B's marginal pure or mixed
    psi = rng.normal(size=2) + 1j * rng.normal(size=2)
    psi /= np.linalg.norm(psi)
    rho_a = 0.8 * np.outer(psi, psi.conj()) + 0.1 * np.eye(2)
    phi = rng.normal(size=2) + 1j * rng.normal(size=2)
    phi /= np.linalg.norm(phi)
    pure_b = np.outer(phi, phi.conj())
    for rho_b in (pure_b, 0.7 * pure_b + 0.15 * np.eye(2)):
        state = TwoQubitState(np.kron(rho_a, rho_b))
        ellipsoid = steering_ellipsoid(state)
        assert ellipsoid.degeneracy == "point"
        assert np.all(ellipsoid.semi_axes == 0.0)
        np.testing.assert_allclose(
            ellipsoid.center, bloch_vector(partial_trace(state, "A")), rtol=0.0, atol=1e-12
        )


def test_steered_points_lie_on_surface(rng):
    hits = 0
    while hits < 10:
        state = ginibre_state(rng)
        r = pauli_expansion(state)
        if abs(r.det) < 1e-3:
            continue
        hits += 1
        ellipsoid = steering_ellipsoid(state)
        for _ in range(5):
            n = random_direction(rng)
            for member in post_measurement_ensemble(r, ProjectiveMeasurement(n)):
                if member.zero_probability or member.probability < 1e-3:
                    continue
                inside, margin = contains(ellipsoid, member.bloch)
                assert inside
                assert abs(margin) < 1e-8


def test_contains_interior_and_exterior():
    ellipsoid = steering_ellipsoid(make_bell_diagonal(BellDiagonalParams(0.5, -0.5, 0.5)))
    inside, margin = contains(ellipsoid, [0.0, 0.0, 0.1])
    assert inside and margin > 0.0
    outside, margin = contains(ellipsoid, [0.0, 0.0, 0.9])
    assert not outside and margin < 0.0


def test_contains_collapsed_axis_offsets():
    segment = steering_ellipsoid(
        make_x_state(XStateParams(a=0.25, b=0.25, c=0.25, d=0.25, u=0.1, v=0.1))
    )
    on_line, margin = contains(segment, [0.1, 0.0, 0.0])
    assert on_line and margin >= 0.0
    off_line, margin = contains(segment, [0.1, 0.2, 0.0])
    assert not off_line
    assert margin == pytest.approx(-0.2, abs=1e-9)


def test_surface_points_on_boundary(rng):
    ellipsoid = steering_ellipsoid(ginibre_state(rng))
    for point in surface_points(ellipsoid, 30, rng):
        _, margin = contains(ellipsoid, point)
        assert abs(margin) < 1e-9
