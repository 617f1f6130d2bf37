"""Property test: the constrained maximiser against the exact circle oracle."""

import numpy as np
import pytest

from discordlab import _kernels, conjectures
from discordlab.conjectures import MixtureParams, mixture_correlations_via_conjecture

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


def near(lo, hi, specials):
    # the range, its special values and points just beside them
    beside = [v + d for v in specials for d in (-1e-9, -1e-6, 1e-6, 1e-9)]
    exact = [v for v in (*specials, *beside) if lo <= v <= hi]
    return st.one_of(st.sampled_from(exact), st.floats(lo, hi))


weights = near(0.0, 1.0, (0.0, 0.5, 1.0))
angles = near(0.0, np.pi / 2, (0.0, np.pi / 4, np.pi / 2))


@hypothesis.settings(database=None, derandomize=True, deadline=None, max_examples=300)
@hypothesis.given(lam=weights, alpha=angles, beta=angles)
def test_constrained_optimum_brackets_the_circle_oracle(lam, alpha, beta):
    # never below the exact minimum, never above it by the guard's bound,
    # and the returned angle is an equi-norm one
    r = conjectures._mixture_r(np.array([lam]), np.array([alpha]), np.array([beta]))
    (value,), (xi,) = conjectures._constrained_optimum(r)
    oracle, _ = conjectures._circle_oracle(r, 181, 1e-12)
    if not np.isnan(value):  # NaN: every angle equi-norm, the oracle's minimum is taken
        assert oracle[0] - 1e-12 <= value <= oracle[0] + 1e-4
        p, x = _kernels._outcomes(r, ((1, np.array([np.sin(xi)])), (3, np.array([np.cos(xi)]))))
        assert abs(4.0 * ((p[1] * p[0] * x[0]) ** 2 - (p[0] * p[1] * x[1]) ** 2)[0, 0]) <= 1e-12
    report = mixture_correlations_via_conjecture(MixtureParams(lam=lam, alpha=alpha, beta=beta))
    assert report.min_avg_entropy >= oracle[0] - 1e-12
