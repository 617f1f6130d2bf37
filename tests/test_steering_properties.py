"""Property test: steered outcomes lie on the ellipsoid, near-singular R included.

States are rho = (1 - eps) * mixture + eps * Ginibre.  At eps = 0 the
rank-2 mixture family has singular R and steers A onto a segment; small
eps opens it into a thin full ellipsoid.
"""

import numpy as np
import pytest

from discordlab.conjectures import MixtureParams, make_mixture_state
from discordlab.discord import ProjectiveMeasurement, post_measurement_ensemble
from discordlab.qstate import TwoQubitState, pauli_expansion
from discordlab.steering import contains, steering_ellipsoid, surface_points

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

angles = st.floats(0.05, np.pi / 2 - 0.05)
# eps = 0 exactly, or log-uniform down to 1e-6 so near-singular R is drawn often
mixing = st.one_of(st.just(0.0), st.floats(-6.0, 0.0).map(lambda k: 10.0**k))

_directions = np.random.default_rng(7).normal(size=(48, 3))
DIRECTIONS = [
    *np.eye(3),
    *(_directions / np.linalg.norm(_directions, axis=1, keepdims=True)),
]


@st.composite
def mixed_states(draw):
    params = MixtureParams(lam=draw(st.floats(0.05, 0.95)), alpha=draw(angles), beta=draw(angles))
    eps = draw(mixing)
    g = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=32, max_size=32)))
    g = g[:16].reshape(4, 4) + 1j * g[16:].reshape(4, 4)
    m = g @ g.conj().T + 1e-3 * np.eye(4)
    ginibre = m / m.trace().real
    return eps, TwoQubitState((1.0 - eps) * make_mixture_state(params).matrix + eps * ginibre)


@hypothesis.settings(database=None, derandomize=True, deadline=None, max_examples=300)
@hypothesis.given(drawn=mixed_states())
def test_projective_outcomes_lie_on_the_ellipsoid(drawn):
    eps, state = drawn
    ellipsoid = steering_ellipsoid(state)
    if eps == 0.0:
        assert ellipsoid.degeneracy == "segment"
    r = pauli_expansion(state)
    for n in DIRECTIONS:
        for member in post_measurement_ensemble(r, ProjectiveMeasurement(n)):
            if member.zero_probability or member.probability < 1e-3:
                continue
            inside, margin = contains(ellipsoid, member.bloch, tol=1e-7)
            assert inside, margin
            if ellipsoid.degeneracy == "full":
                assert abs(margin) <= 1e-6
    points = surface_points(ellipsoid, 20, np.random.default_rng(0))
    assert np.linalg.norm(points, axis=1).max() <= 1.0 + 1e-12
