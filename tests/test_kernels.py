import platform
import resource
import sys

import numpy as np
import pytest
from conftest import ginibre_state, random_bell_diagonal, random_direction, random_x_params

from discordlab import _kernels, conjectures
from discordlab.discord import (
    DEFAULT_GRID,
    ProjectiveMeasurement,
    avg_entropy,
    post_measurement_ensemble,
)
from discordlab.qstate import TwoQubitState, make_bell_diagonal, make_x_state, pauli_expansion


def test_grid_directions_unit_norm():
    tt, pp, ns = _kernels.grid_directions(7, 12)
    assert ns.shape == (7 * 12, 3)
    assert tt.shape == pp.shape == (7 * 12,)
    np.testing.assert_allclose(np.linalg.norm(ns, axis=1), 1.0, atol=1e-14)
    # polar angles cover the upper hemisphere only
    assert tt.min() == 0.0
    assert tt.max() == pytest.approx(np.pi / 2)


def _assert_outcomes_match_ensemble(r, n):
    # the outcome map's p+- and clamped |y+-| against the scalar ensemble
    # route; |y| carries a round-off error of order eps / p
    members = post_measurement_ensemble(r, ProjectiveMeasurement(n))
    prob, norm = _kernels._outcomes(r[np.newaxis], enumerate(n[:, np.newaxis], 1))
    for member, p, x in zip(members, prob[:, 0, 0], norm[:, 0, 0]):
        assert member.probability == pytest.approx(p, abs=1e-12)
        if not member.zero_probability:
            tol = 1e-12 + 64 * np.finfo(float).eps / p
            assert x == pytest.approx(min(np.linalg.norm(member.bloch), 1.0), abs=tol)


def test_avg_entropy_numpy_matches_ensemble_route(rng):
    for _ in range(15):
        r = pauli_expansion(ginibre_state(rng)).entries
        n = random_direction(rng)
        direct = avg_entropy(
            post_measurement_ensemble(r, ProjectiveMeasurement(n))
        )
        vectorized = _kernels.avg_entropy_numpy(r, n[np.newaxis, :])[0]
        assert vectorized == pytest.approx(direct, abs=1e-12)
        _assert_outcomes_match_ensemble(r, n)
    # sample 103 of seed 9 measured along z: a rare outcome, p- ~ 7.9e-8
    p = conjectures.sample_mixture_params(200, 9)[103]
    r = pauli_expansion(conjectures.make_mixture_state(p)).entries
    n = np.array([0.0, 0.0, 1.0])
    prob, _ = _kernels._outcomes(r[np.newaxis], enumerate(n[:, np.newaxis], 1))
    assert prob[1, 0, 0] == pytest.approx(7.9e-8, rel=0.01)
    _assert_outcomes_match_ensemble(r, n)


def test_scan_never_above_grid_nodes(rng):
    r = pauli_expansion(ginibre_state(rng)).entries
    _, _, ns = _kernels.grid_directions(31, 60)
    grid_best = _kernels.avg_entropy_numpy(r, ns).min()
    value, _, _ = _kernels.min_entropy_scan(r, 31, 60)
    assert value <= grid_best + 1e-15


def _scan_states(rng, count):
    """Ginibre ranks 2-4, random X, Bell-diagonal and X + eps Ginibre, in turn."""
    out = []
    for k in range(count):
        kind = k % 6
        if kind < 3:
            state = ginibre_state(rng, rank=2 + kind)
        elif kind == 3:
            state = make_x_state(random_x_params(rng))
        elif kind == 4:
            state = make_bell_diagonal(random_bell_diagonal(rng))
        else:
            eps = 10.0 ** rng.uniform(-6.0, -1.0)
            x = make_x_state(random_x_params(rng)).matrix
            state = TwoQubitState((1.0 - eps) * x + eps * ginibre_state(rng).matrix)
        out.append(pauli_expansion(state).entries)
    return out


def _record_start(monkeypatch):
    # stands in for the descent: records where it would start and returns there
    starts = []

    def descend(_values_at, start, value, _step, _tol):
        starts.append((np.array(start, dtype=float), float(value)))
        return starts[-1][1], starts[-1][0]

    monkeypatch.setattr(_kernels, "_sphere_descent", descend)
    return starts


def test_scan_starts_from_full_grid_best_node(monkeypatch, rng):
    # the coarse-to-fine scan evaluates ~4,500 of the default grid's 65,160
    # nodes, yet starts the descent from the node np.argmin picks over them all
    _, _, ns = _kernels._cached_grid(*DEFAULT_GRID)
    states = _scan_states(rng, 240)
    starts = _record_start(monkeypatch)
    for i, r in enumerate(states):
        full = _kernels.avg_entropy_numpy(r, ns)
        k = int(np.argmin(full))
        _kernels.min_entropy_scan(r, *DEFAULT_GRID)
        point, value = starts[-1]
        assert (point.tobytes(), value) == (ns[k].tobytes(), full[k]), i


def test_scan_rank_one_plateau_never_above_grid_minimum(rng):
    # a pure state leaves A pure whatever is measured: the values are a
    # plateau of zeros and round-off, with up to hundreds of coarse minima
    ns = _kernels._cached_grid(*DEFAULT_GRID)[2]
    for _ in range(12):
        r = pauli_expansion(ginibre_state(rng, rank=1)).entries
        value, _, _ = _kernels.min_entropy_scan(r, *DEFAULT_GRID)
        assert value <= _kernels.avg_entropy_numpy(r, ns).min()


def _record_rows(monkeypatch):
    rows = []
    evaluate = _kernels.avg_entropy_numpy

    def recording(r, ns):
        rows.append(np.atleast_2d(ns).copy())
        return evaluate(r, ns)

    monkeypatch.setattr(_kernels, "avg_entropy_numpy", recording)
    return rows


def test_scan_evaluates_a_fraction_of_the_default_grid(monkeypatch, rng):
    # every call counts, the descent's included; a full scan passes 65,160+
    rows = _record_rows(monkeypatch)
    for _ in range(6):
        r = pauli_expansion(ginibre_state(rng)).entries
        rows.clear()
        _kernels.min_entropy_scan(r, *DEFAULT_GRID)
        assert sum(map(len, rows)) <= 8000


def test_scan_evaluates_every_node_of_other_shapes(monkeypatch, rng):
    # 31 x 60: the stride does not divide 30 polar steps, so every node is
    # coarse; the pole row's 60 nodes are one direction, evaluated once
    _, _, ns = _kernels.grid_directions(31, 60)
    rows = _record_rows(monkeypatch)
    r = pauli_expansion(ginibre_state(rng)).entries
    _kernels.min_entropy_scan(r, 31, 60)
    evaluated = np.concatenate(rows)
    seen = (ns[:, np.newaxis] == evaluated[np.newaxis]).all(axis=2).any(axis=1)
    assert len(ns) == 1860 and seen.all()


# R of three X + eps Ginibre states, drawn as _scan_states draws them from
# seed 2024, whose optimum lies within ~5e-4 rad of e_z: a (theta, phi)
# step-halving descent took 15,000-28,000 calls on each
POLE_STATES = [
    # draw 7: theta* = 6.1e-05 rad
    [
        [1.0000000000000002, -3.984661488984012e-06, -1.2292484835904719e-05, 0.13638579649752125],
        [1.854050613553021e-06, -0.13477054176682862, 0.1374522707913812, 1.9451471731417333e-05],
        [3.6210290237509516e-05, 0.17641475337172083, 0.18985493954701071, -2.6626975221452637e-06],
        [0.32284499842176984, 1.9869111242397745e-05, 2.3207354999890253e-05, 0.7996644100218399],
    ],
    # draw 251: theta* = 6.2e-05 rad
    [
        [1.0, 2.5371678062481564e-06, 9.026674833011009e-07, -0.3508026057575745],
        [-7.608740424790681e-07, 0.17955651481133392, 0.41580038604860126, -5.931556318426743e-07],
        [2.0724197074151455e-06, -0.027149740939937467, 0.06779687791069744, -6.915487888873977e-07],
        [0.004924886519832999, -2.0151600725948723e-06, 2.9529264156885937e-06, -0.4458003547914783],
    ],
    # draw 756: theta* = 4.8e-04 rad
    [
        [1.0, -8.385892067877871e-05, 5.719178877716313e-05, -0.37138686666258347],
        [-0.00026439681863044904, -0.22915827484815657, 0.31252107157228076, 0.00025083753401134525],
        [-0.00025764905954217115, 0.35273773473475906, 0.2754312789535174, 0.00021187764605199735],
        [-0.527812296406635, 8.458231974909658e-06, -0.00014772836362576038, 0.6470214126672583],
    ],
]


def test_scan_near_the_pole_takes_few_calls(monkeypatch):
    # every avg_entropy_numpy call counts, the grid's two included
    ns = _kernels._cached_grid(*DEFAULT_GRID)[2]
    rows = _record_rows(monkeypatch)
    for r in map(np.array, POLE_STATES):
        rows.clear()
        value, theta, _ = _kernels.min_entropy_scan(r, *DEFAULT_GRID)
        assert len(rows) <= 60
        assert theta < 5e-4
        assert value <= _kernels.avg_entropy_numpy(r, ns).min()


def _unit(v):
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v)


def _recorded(objective):
    # the objective of unit directions, recording each call's directions and values
    calls = []

    def values_at(ns):
        values = objective(ns)
        calls.append((ns.copy(), values.copy()))
        return values

    return values_at, calls


def _turned(n, tangent, angle):
    """n moved by ``angle`` along the great circle through the unit ``tangent``."""
    return _unit(n * np.cos(angle) + _unit(tangent - (tangent @ n) * n) * np.sin(angle))


M = _unit([0.3, -0.5, 0.8])
P = _unit(np.cross(M, [1.0, 2.0, 0.5]))
Q = np.cross(M, P)


@pytest.mark.parametrize("turn", [0.4, 1.3, 2.2])
def test_sphere_descent_newton_on_a_thin_bowl(turn):
    # curvatures 2e4 and 2 along the great circles through M: condition 1e4,
    # axes oblique to any frame the descent picks; a start about half a grid
    # spacing away
    def bowl(ns):  # summed row by row, so a row's value does not depend on the call
        return 1e4 * ((ns - M) * P).sum(axis=-1) ** 2 + ((ns - M) * Q).sum(axis=-1) ** 2

    values_at, calls = _recorded(bowl)
    start = _turned(M, np.cos(turn) * P + np.sin(turn) * Q, 0.006)
    # 1e-12 above the minimum is 1e-8 rad off along the steep axis
    value, n = _kernels._sphere_descent(values_at, start, bowl(start), 0.0175, 1e-7)
    assert value < 1e-12
    assert len(calls) <= 10
    assert value == bowl(n[np.newaxis])[0]


def test_sphere_descent_on_a_kink():
    # a cone: |n - M| has no derivative at its minimum
    def cone(ns):
        return np.linalg.norm(ns - M, axis=-1)

    tol = 1e-6
    for turn in np.linspace(0.0, np.pi, 7):
        start = _turned(M, np.cos(turn) * P + np.sin(turn) * Q, 0.01)
        value, n = _kernels._sphere_descent(cone, start, cone(start), 0.0175, tol)
        assert value <= cone(start)
        assert np.linalg.norm(n - M) <= tol


def test_sphere_descent_on_a_constant_returns_its_start():
    values_at, calls = _recorded(lambda ns: np.full(len(ns), 0.25))
    start = _unit([0.2, 0.1, -0.9])
    value, n = _kernels._sphere_descent(values_at, start, 0.25, 0.0175, 1e-6)
    assert value == 0.25 and n.tobytes() == start.tobytes()
    assert len(calls) <= 3


def test_sphere_descent_rejects_a_nonpositive_tolerance():
    for tol in (0.0, -1e-6, np.nan):
        with pytest.raises(ValueError, match="tolerance"):
            _kernels._sphere_descent(lambda ns: ns[:, 0], M, M[0], 0.01, tol)


def test_sphere_descent_stops_on_a_certificate():
    # the descent ends where it probed a stencil finer than tol and no point
    # of it was lower; on a cone the difference model is wrong at every scale
    def cone(ns):
        return np.linalg.norm(ns - M, axis=-1)

    tol = 1e-6
    for turn in (0.3, 1.9):
        values_at, calls = _recorded(cone)
        start = _turned(M, np.cos(turn) * P + np.sin(turn) * Q, 0.01)
        value, n = _kernels._sphere_descent(values_at, start, cone(start), 0.0175, tol)
        certified = [
            (ns, values) for ns, values in calls
            if ns[0].tobytes() == n.tobytes() and np.linalg.norm(ns[1] - ns[0]) < tol
        ]
        assert certified
        assert all(values.min() >= value for _, values in certified)


def test_min_entropy_scan_antipodal_invariance(rng):
    # flipping the measured qubit's axes leaves the optimum unchanged
    r = pauli_expansion(ginibre_state(rng)).entries
    flipped = r * np.array([1.0, -1.0, -1.0, -1.0])  # columns 1..3 negated
    v1, _, _ = _kernels.min_entropy_scan(r, 61, 120)
    v2, _, _ = _kernels.min_entropy_scan(flipped, 61, 120)
    assert v2 == pytest.approx(v1, abs=1e-9)


def test_circle_scan_visits_grid_nodes_on_circle(rng):
    r = pauli_expansion(ginibre_state(rng)).entries.copy()
    r[:, 2] = 0.0  # Bob's y axis out of play, as for the mixture family
    _, pp, ns = _kernels.grid_directions(7, 12)
    on_circle = np.isclose(pp, 0.0) | np.isclose(pp, np.pi)
    # 2 x 7 rows: the pole twice and the equator as an antipodal pair, so
    # 2 (7 - 1) distinct measurements
    assert on_circle.sum() == 2 * 7
    node_best = _kernels.avg_entropy_numpy(r, ns[on_circle]).min()
    value, xi = _kernels.min_entropy_circle_scan(r, 7)
    assert value <= node_best + 1e-15
    n = np.array([[np.sin(xi), 0.0, np.cos(xi)]])
    assert _kernels.avg_entropy_numpy(r, n)[0] == pytest.approx(value, abs=1e-15)
    with pytest.raises(ValueError, match="4x4"):
        _kernels.min_entropy_circle_scan(np.eye(3), 7)
    with pytest.raises(ValueError, match="grid"):
        _kernels.min_entropy_circle_scan(np.eye(4), 1)
    for tol in (0.0, -1e-6, np.nan):
        with pytest.raises(ValueError, match="tolerance"):
            _kernels.min_entropy_circle_scan(r, 7, tol)


def test_min_entropy_scan_validation():
    with pytest.raises(ValueError, match="4x4"):
        _kernels.min_entropy_scan(np.eye(3), 31, 60)
    with pytest.raises(ValueError, match="grid"):
        _kernels.min_entropy_scan(np.eye(4), 1, 60)
    for tol in (0.0, -1e-6, np.nan):
        with pytest.raises(ValueError, match="tolerance"):
            _kernels.min_entropy_scan(np.eye(4), 7, 12, tol)


@pytest.mark.parametrize("target", [1.0], ids=["1-D"])
def test_refine_descends_from_start(target):
    # a convex toy objective: descent must reach its minimum at ``target``
    def objective(_rows, angles):
        return (angles - target) ** 2

    best, point = _kernels._refine_python(objective, np.zeros(1), target**2, 0.5, 1e-9)
    assert best[0] == pytest.approx(0.0, abs=1e-12)
    assert point[0] == pytest.approx(target, rel=0.0, abs=1e-6)


def test_refine_rows_descend_independently(rng):
    # each row keeps its own point, value and step: a stacked call gives
    # every row bitwise what a one-row call gives, though rows stop at
    # different iterations
    targets = rng.uniform(-1.0, 1.0, size=9)
    targets[3] = 0.0  # already at its minimum: stops after the first shrinks

    def objective(rows, angles):
        return (angles - targets[rows, np.newaxis]) ** 2

    starts = np.zeros_like(targets)
    start_values = targets**2
    best, point = _kernels._refine_python(objective, starts, start_values, 0.5, 1e-9)
    for i in range(len(targets)):
        one_best, one_point = _kernels._refine_python(
            lambda _rows, angles: objective(np.array([i]), angles),
            starts[i], start_values[i], 0.5, 1e-9,
        )
        assert best[i] == one_best[0]
        assert point[i].tobytes() == one_point[0].tobytes()
    np.testing.assert_allclose(point, targets, rtol=0.0, atol=1e-6)


def _zero_y_column(r):
    r = r.copy()
    r[..., 2] = 0.0
    return r


def test_circle_scan_stack_rows_match_single_calls(rng):
    # a stacked call returns, row by row, bitwise the one-state results, under
    # any chunking of the stack: values are summed state by state
    mixtures = [
        pauli_expansion(conjectures.make_mixture_state(p)).entries
        for p in conjectures.sample_mixture_params(150, 5)
    ]
    generic = [_zero_y_column(pauli_expansion(ginibre_state(rng)).entries) for _ in range(50)]
    stack = np.array(mixtures + generic)
    single = np.array([_kernels.min_entropy_circle_scan(r, 181, 1e-9) for r in stack])
    for size in (len(stack), 32, 7, 1):
        parts = [
            _kernels.min_entropy_circle_scan(stack[i : i + size], 181, 1e-9)
            for i in range(0, len(stack), size)
        ]
        values = np.concatenate([part[0] for part in parts])
        xis = np.concatenate([part[1] for part in parts])
        assert values.tobytes() == single[:, 0].tobytes()
        assert xis.tobytes() == single[:, 1].tobytes()
    # bitwise the values of avg_entropy_numpy at the returned directions: xi
    # is the descent's own angle, not folded after it
    ns = np.column_stack((np.sin(single[:, 1]), np.zeros(len(stack)), np.cos(single[:, 1])))
    direct = [_kernels.avg_entropy_numpy(r, n[np.newaxis])[0] for r, n in zip(stack, ns)]
    assert single[:, 0].tobytes() == np.array(direct).tobytes()
    with pytest.raises(ValueError, match="4x4"):
        _kernels.min_entropy_circle_scan(np.zeros((2, 3, 3)), 7)
    with pytest.raises(ValueError, match="4x4"):
        _kernels.min_entropy_circle_scan(np.zeros((2, 2, 4, 4)), 7)



def test_avg_entropy_numpy_blocks_rows(rng):
    r = pauli_expansion(ginibre_state(rng)).entries
    block = _kernels._BLOCK_ROWS
    ns = rng.normal(size=(2 * block + 7, 3))
    ns /= np.linalg.norm(ns, axis=1)[:, np.newaxis]
    whole = _kernels.avg_entropy_numpy(r, ns)
    # a long call gives bitwise the values of its block-sized slices ...
    sliced = np.concatenate(
        [_kernels.avg_entropy_numpy(r, ns[i : i + block]) for i in range(0, len(ns), block)]
    )
    assert whole.tobytes() == sliced.tobytes()
    # ... and those of single rows
    rows = np.array([_kernels.avg_entropy_numpy(r, n[np.newaxis, :])[0] for n in ns])
    assert whole.tobytes() == rows.tobytes()


def test_direction_value_is_independent_of_call_shape(rng):
    # one element-wise evaluator for both scans: a direction's value is bitwise
    # the same in a 1-row call, in any slice of rows, inside the whole default
    # grid, as one row of a stack of states and on the x-z circle
    stack = np.array([pauli_expansion(ginibre_state(rng)).entries for _ in range(4)])
    tt, pp, ns = _kernels._cached_grid(*DEFAULT_GRID)
    assert len(ns) == 65160
    span = 3 * _kernels._BLOCK_ROWS - 5
    picks = rng.choice(len(ns), size=(len(stack), 10), replace=False)
    whole = np.array([_kernels.avg_entropy_numpy(r, ns) for r in stack])
    for r, values, own in zip(stack, whole, picks):
        rows = np.array([_kernels.avg_entropy_numpy(r, ns[i : i + 1])[0] for i in own])
        assert rows.tobytes() == values[own].tobytes()
        start = int(rng.integers(len(ns) - span))  # not aligned to a block
        part = _kernels.avg_entropy_numpy(r, ns[start : start + span])
        assert part.tobytes() == values[start : start + span].tobytes()
    # all states at shared directions, then each state at its own
    shared = _kernels._avg_entropy(stack, enumerate(ns[picks[0]].T, 1))
    assert shared.tobytes() == whole[:, picks[0]].tobytes()
    own = _kernels._avg_entropy(stack, enumerate(np.moveaxis(ns[picks], -1, 0), 1))
    assert own.tobytes() == np.take_along_axis(whole, picks, axis=1).tobytes()
    # grid nodes at azimuth 0 have n2 = 0: the circle scan's two terms
    circle = pp == 0.0
    xi = tt[circle]
    on_circle = _kernels._avg_entropy(stack, ((1, np.sin(xi)), (3, np.cos(xi))))
    assert on_circle.tobytes() == whole[:, circle].tobytes()


def test_grid_cache_builds_each_shape_once(monkeypatch, rng):
    monkeypatch.setattr(_kernels, "_GRIDS", {})
    built = []
    build = _kernels.grid_directions

    def counting(n_polar, n_azimuth):
        built.append((n_polar, n_azimuth))
        return build(n_polar, n_azimuth)

    monkeypatch.setattr(_kernels, "grid_directions", counting)
    r = pauli_expansion(ginibre_state(rng)).entries
    for _ in range(3):
        _kernels.min_entropy_scan(r, 7, 12)
    _kernels.min_entropy_scan(r, 9, 12)
    conjectures.min_chord_entropy(((0.0, 0.0, 0.1), (0.5, 0.4, 0.3)), (0.1, 0.0, 0.1), 7, 12)
    assert built == [(7, 12), (9, 12)]

    cached = _kernels._cached_grid(7, 12)
    for arr in cached:
        assert not arr.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        cached[2][0, 0] = 1.0
    # the public builder still hands out fresh, writable arrays
    fresh = build(7, 12)
    for new, old in zip(fresh, cached):
        assert new.flags.writeable and new is not old
        np.testing.assert_array_equal(new, old)


@pytest.mark.skipif(
    not sys.platform.startswith("linux") or platform.libc_ver()[0] != "glibc",
    reason="the bound assumes glibc's malloc",
)
def test_warm_oracle_calls_reuse_memory(rng):
    # a 65k-row temporary allocated afresh on every call costs ~3,000 minor
    # page faults per call; blocked evaluation keeps them on the heap.  The
    # bound assumes glibc's default mmap and trim thresholds (a preloaded
    # allocator or MALLOC_*_THRESHOLD_ settings change what is measured).
    r = pauli_expansion(ginibre_state(rng)).entries
    for _ in range(2):
        _kernels.min_entropy_scan(r, *DEFAULT_GRID)
    calls = 5
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(calls):
        _kernels.min_entropy_scan(r, *DEFAULT_GRID)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    assert faults / calls < 200
