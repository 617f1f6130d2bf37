"""Property test: the channels' transfer-matrix maps against Kraus sums."""

import numpy as np
import pytest
from conftest import kraus_operators, kraus_sum

from discordlab.dynamics import apply_named_channel
from discordlab.qstate import TwoQubitState, XStateParams, extract_x_params, make_x_state

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

unit = st.floats(0.0, 1.0)
phase = st.floats(0.0, 2.0 * np.pi)


@st.composite
def x_states(draw):
    w = np.array(draw(st.lists(st.floats(0.01, 1.0), min_size=4, max_size=4)))
    a, b, c, d = w / w.sum()
    return make_x_state(XStateParams(
        a=a, b=b, c=c, d=d,
        u=draw(unit) * np.sqrt(a * d), v=draw(unit) * np.sqrt(b * c),
        mu=draw(phase), nu=draw(phase),
    ))


@st.composite
def full_rank_states(draw):
    g = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=32, max_size=32)))
    g = g[:16].reshape(4, 4) + 1j * g[16:].reshape(4, 4)
    m = g @ g.conj().T + 1e-3 * np.eye(4)
    return TwoQubitState(m / m.trace().real)


channels = st.sampled_from(
    ["phase_damping", "amplitude_damping", "pauli(0.2,0.3,0.1)", "pauli(0.5,0.3,0.2)",
     "pauli(1,0,0)"]
)


@hypothesis.settings(database=None, derandomize=True, deadline=None, max_examples=150)
@hypothesis.given(state=st.one_of(x_states(), full_rank_states()), name=channels, strength=unit,
       both_parties=st.booleans())
def test_channel_maps_agree_with_kraus_sums(state, name, strength, both_parties):
    out = apply_named_channel(state, name, strength, both_parties=both_parties)
    expected = kraus_sum(state.matrix, kraus_operators(name, strength), both_parties)
    np.testing.assert_allclose(out.matrix, expected, rtol=0.0, atol=1e-14)
    assert abs(out.matrix.trace() - 1.0) < 1e-12
    TwoQubitState(expected)  # the Kraus image validates as a state too
    if extract_x_params(state) is not None:
        assert extract_x_params(out) is not None
