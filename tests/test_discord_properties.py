"""Property test: a row's report from the stacked core does not depend on its stack.

The correlation core (``discord._core`` and ``discord._assemble``) takes an
(N, 4, 4) stack of R.  Each row's report must be bitwise the same alone
and in any order of any stack.  Rows are X states at the branch tie,
Bell-diagonal states, Ginibre states and mixture states with an outcome
probability near 1e-7 at the optimum.
"""

import numpy as np
import pytest

from discordlab.conjectures import _mixture_r
from discordlab.discord import _assemble, _core
from discordlab.qstate import (
    BellDiagonalParams,
    TwoQubitState,
    XStateParams,
    binary_entropy,
    make_bell_diagonal,
    make_x_state,
    pauli_expansion,
)

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

GRID = (31, 60)  # the oracle's grid for non-X rows, coarse to keep the test short
unit = st.floats(0.0, 1.0)
phase = st.floats(0.0, 2.0 * np.pi)


def _inverse_entropy(s):
    """The Bloch-vector norm x in [0, 1] with h(x) = s, by bisection (h decreases)."""
    lo, hi = 0.0, 1.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if binary_entropy(mid) > s else (lo, mid)
    return 0.5 * (lo + hi)


@st.composite
def tied_x_states(draw):
    # coherences chosen so that S_EF = h(sqrt(4 (u+v)^2 + r3^2)) equals S_GH
    w = np.array(draw(st.lists(st.floats(0.05, 1.0), min_size=4, max_size=4)))
    a, b, c, d = w / w.sum()
    s_gh = (a + c) * binary_entropy(abs(a - c) / (a + c)) + (b + d) * binary_entropy(
        abs(b - d) / (b + d)
    )
    r3 = a + b - c - d
    half_reach = 0.5 * np.sqrt(max(_inverse_entropy(s_gh) ** 2 - r3 * r3, 0.0))
    lo, hi = max(half_reach - np.sqrt(b * c), 0.0), min(half_reach, np.sqrt(a * d))
    hypothesis.assume(lo <= hi)
    u = lo + draw(unit) * (hi - lo)
    v = min(half_reach - u, np.sqrt(b * c))
    params = XStateParams(a=a, b=b, c=c, d=d, u=u, v=v, mu=draw(phase), nu=draw(phase))
    return pauli_expansion(make_x_state(params)).entries


@st.composite
def bell_diagonal_states(draw):
    # a convex combination of the four Bell states' (t1, t2, t3)
    w = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=4, max_size=4)))
    hypothesis.assume(w.sum() > 0.0)
    corners = np.array([[1.0, -1.0, 1.0], [-1.0, 1.0, 1.0], [1.0, 1.0, -1.0], [-1.0, -1.0, -1.0]])
    t1, t2, t3 = np.clip(w @ corners / w.sum(), -1.0, 1.0)
    return pauli_expansion(make_bell_diagonal(BellDiagonalParams(t1, t2, t3))).entries


@st.composite
def ginibre_states(draw):
    g = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=32, max_size=32)))
    g = g[:16].reshape(4, 4) + 1j * g[16:].reshape(4, 4)
    m = g @ g.conj().T + 1e-3 * np.eye(4)
    return pauli_expansion(TwoQubitState(m / m.trace().real)).entries


@st.composite
def rare_outcome_mixtures(draw):
    # 1 - |b| = 2 lam (1 - lam) sin^2 beta: B is nearly pure, and the
    # optimum's rare outcome has a probability near 1e-7
    lam = draw(st.floats(0.05, 0.95))
    rare = 10.0 ** draw(st.floats(-7.5, -6.5))
    beta = np.arcsin(np.sqrt(rare / (2.0 * lam * (1.0 - lam))))
    return _mixture_r(lam, draw(st.floats(0.05, 1.5)), beta)


rows = st.one_of(
    tied_x_states(), bell_diagonal_states(), ginibre_states(), rare_outcome_mixtures()
)


def _fields(report):
    """Every number of a report as bytes, and its labels."""
    numbers = [report.mutual_info, report.classical, report.discord, report.min_avg_entropy]
    members = [
        (np.float64(m.probability).tobytes(), m.bloch.tobytes(), m.zero_probability)
        for m in report.optimal_ensemble
    ]
    return (
        np.array(numbers).tobytes(),
        report.optimal_measurement.direction.tobytes(),
        members,
        report.branch,
    )


def _reports(r):
    return [_fields(report) for report in _assemble(r, *_core(r, grid=GRID))]


@hypothesis.settings(database=None, derandomize=True, deadline=None, max_examples=60)
@hypothesis.given(stack=st.lists(rows, min_size=1, max_size=4), data=st.data())
def test_report_is_the_same_alone_and_in_any_stack_order(stack, data):
    r = np.array(stack)
    order = data.draw(st.permutations(range(len(r))))
    together = _reports(r)
    assert _reports(r[order]) == [together[k] for k in order]
    for k in range(len(r)):
        assert _reports(r[k : k + 1]) == [together[k]]
