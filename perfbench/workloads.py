"""The four workloads: seeded CLI calls and the checks of their outputs.

Each workload builds one round of CLI calls from ``--seed``; a run
repeats that round until its time is up.  The program sees only the
argument lists, state specs included.  Every check compares an output
against ``reference`` or against a property the method must have.

A check returns two lists of messages: problems, which make the run
wrong, and faults.  A fault is the missed tilted optimum of the X-state
two-chord rule (see ``FAULT_SPEC``): the call is then counted as failed
rather than wrong.
"""

import csv
import io
import json
import math

import numpy as np

import reference as ref

COMPUTE_CALLS = 8  # Ginibre states per round, half of them a-to-b
SWEEP_LAMBDAS = 2  # sweep calls per round
# 6 x 6 cells: half the beta columns (beta <= 2pi/5) take the constrained
# path and half the oracle, as 19 of 37 do in the CLI's 37-point default
SWEEP_POINTS = 6
SWEEP_THREADS = 2
SWEEP_CHECKED_CELLS = 4  # cells per call checked against the reference minimum
SURVEY_CALLS = 2
SURVEY_SAMPLES = 1000  # the 1k-sample survey users run
SURVEY_CHECKED_ROWS = 8  # rows per call checked against the reference minimum
TRAJECTORY_SLOTS = (
    4 * [("xstate", "phase_damping")]
    + 4 * [("bell_diagonal", "phase_damping")]
    + 2 * [("xstate", "amplitude_damping")]
    + 2 * [("bell_diagonal", "pauli(0.5,0.3,0.2)")]
)
TRAJECTORY_STEPS = 21
TRAJECTORY_T_MAX = 2.0
CHECKED_STEPS = (0, 10, 20)
TWO_CHORD_SLACK = 1e-6  # seeded X states keep two-chord values this close to the minimum
MAX_DRAWS = 200

# X state 389 of tests/conftest.random_x_params under seed 424242: the
# two-chord rule picks the equi_entropy chord, 7.21e-4 bits above the
# optimum along the tilted direction (-0.474, 0.452, 0.756).
FAULT_SPEC = {
    "a": 0.022947554840,
    "b": 0.055174440426,
    "c": 0.811566625029,
    "d": 0.110311379705,
    "u": 0.005500401878,
    "v": 0.138857224140,
    "mu": 6.052901731828,
    "nu": 4.528849475858,
}
FAULT = "two-chord rule misses the tilted X-state optimum"


class Op:
    """One CLI call: its argv, the states it computes and what checks need."""

    def __init__(self, argv, states, **meta):
        self.argv = argv
        self.states = states
        self.meta = meta


def half_digit(value):
    """Half a unit in the ninth significant digit: JSON output precision."""
    value = abs(value)
    return 0.0 if value == 0.0 else 0.5 * 10.0 ** (math.floor(math.log10(value)) - 8)


def _close(problems, label, got, want, tol):
    if not abs(got - want) <= tol:
        problems.append(f"{label}: got {got!r}, expected {want!r} within {tol:.1e}")


def _csv(text):
    comments = {}
    lines = []
    for line in text.splitlines():
        if line.startswith("# ") and "=" in line:
            key, _, value = line[2:].partition("=")
            comments[key] = value
        elif not line.startswith("#"):
            lines.append(line)
    return comments, list(csv.DictReader(io.StringIO("\n".join(lines))))


def _spec(kind, body):
    return json.dumps({kind: body})


# --- compute --------------------------------------------------------------

def compute_round(rng):
    ops = []
    for k in range(COMPUTE_CALLS):
        g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        rho = g @ g.conj().T
        rho /= rho.trace().real
        body = [[[float(z.real), float(z.imag)] for z in row] for row in rho]
        direction = "a-to-b" if k % 2 else "b-to-a"
        rho = np.array([[complex(*z) for z in row] for row in body])
        ops.append(Op(["compute", "--state", _spec("matrix", body), "--direction", direction],
                      1, rho=rho, direction=direction))
    return ops


def check_compute(op, out, err):
    problems = []
    payload = json.loads(out)
    rho = op.meta["rho"] if op.meta["direction"] == "b-to-a" else ref.swap(op.meta["rho"])
    info, c, q, s = (payload[k] for k in ("mutual_info", "classical", "discord", "min_avg_entropy"))
    _close(problems, "I", info, ref.mutual_information(rho), half_digit(info) + 1e-12)
    _close(problems, "I - C - Q", info - c - q, 0.0,
           half_digit(info) + half_digit(c) + half_digit(q) + 1e-12)
    n = np.array(payload["optimal_measurement"], dtype=np.float64)
    at_n = float(ref.avg_entropy(rho, n / np.linalg.norm(n))[0])
    _close(problems, "min_avg_entropy at its direction", s, at_n, 1e-10 + half_digit(s))
    _close(problems, "min_avg_entropy", s, ref.min_avg_entropy(rho)[0], 1e-6)
    return problems, []


# --- sweep ----------------------------------------------------------------

def sweep_round(rng):
    ops = []
    cells = SWEEP_POINTS * SWEEP_POINTS
    for _ in range(SWEEP_LAMBDAS):
        lam = float(rng.uniform(0.05, 0.95))
        checked = sorted(int(i) for i in rng.choice(cells, SWEEP_CHECKED_CELLS, replace=False))
        ops.append(Op(
            ["sweep", "mixture", "--lambda", repr(lam), "--grid-points", str(SWEEP_POINTS),
             "--threads", str(SWEEP_THREADS)],
            cells, lam=lam, checked=checked))
    return ops


def check_sweep(op, out, err):
    problems = []
    _, rows = _csv(out)
    lam = op.meta["lam"]
    if len(rows) != SWEEP_POINTS * SWEEP_POINTS:
        return [f"{len(rows)} rows, expected {SWEEP_POINTS * SWEEP_POINTS}"], []
    grid = [[rows[i * SWEEP_POINTS + j] for j in range(SWEEP_POINTS)] for i in range(SWEEP_POINTS)]
    for k, row in enumerate(rows):
        alpha, beta, info, c, q = (float(row[key]) for key in ("alpha", "beta", "I", "C", "Q"))
        rho = ref.mixture_state(lam, alpha, beta)
        _close(problems, f"cell {k} I", info, ref.mutual_information(rho), 1e-9)
        _close(problems, f"cell {k} I - C - Q", info - c - q, 0.0, 1e-12)
        if k in op.meta["checked"]:
            _close(problems, f"cell {k} C", c,
                   ref.classical_correlation(rho, ref.min_avg_entropy(rho)[0]), 1e-6)
    # beta and pi - beta: one half comes from the constrained maximiser, the
    # mirror half from the oracle; (1 x Z) maps one state onto the other
    for line in grid:
        for j in range(SWEEP_POINTS // 2):
            near, far = line[j], line[SWEEP_POINTS - 1 - j]
            _close(problems, f"beta mirror {near['beta']}", float(near["beta"]) + float(far["beta"]),
                   math.pi, 1e-12)
            for key in ("C", "Q"):
                _close(problems, f"{key} mirror at alpha={near['alpha']} beta={near['beta']}",
                       float(near[key]), float(far[key]), 1e-6)
    return problems, []


# --- survey ---------------------------------------------------------------

def survey_round(rng):
    ops = []
    for _ in range(SURVEY_CALLS):
        seed = int(rng.integers(2**31))
        checked = sorted(int(i) for i in rng.choice(SURVEY_SAMPLES, SURVEY_CHECKED_ROWS,
                                                    replace=False))
        ops.append(Op(
            ["conjecture", "mixture", "--samples", str(SURVEY_SAMPLES), "--seed", str(seed),
             "--fail-above", "1"],
            SURVEY_SAMPLES, checked=checked))
    return ops


def check_survey(op, out, err):
    problems = []
    comments, rows = _csv(out)
    if len(rows) != SURVEY_SAMPLES:
        return [f"{len(rows)} rows, expected {SURVEY_SAMPLES}"], []
    gaps = []
    for k, row in enumerate(rows):
        lam, alpha, beta, n1, n2, n3, gap, s = (float(row[key]) for key in (
            "lambda", "alpha", "beta", "n1", "n2", "n3", "gap", "min_entropy"))
        gaps.append(gap)
        if n2 != 0.0 or n3 < 0.0:
            problems.append(f"row {k}: direction ({n1}, {n2}, {n3}) is off the x-z half circle")
        rho = ref.mixture_state(lam, alpha, beta)
        n = np.array([n1, n2, n3]) / math.sqrt(n1 * n1 + n2 * n2 + n3 * n3)
        _close(problems, f"row {k} min_entropy at its direction", s,
               float(ref.avg_entropy(rho, n)[0]), 1e-10)
        p_plus, p_minus, y_plus, y_minus = ref.outcome_norms(rho, n)
        p_min = min(p_plus, p_minus)
        if p_min > 1e-14:  # |y| carries a round-off error of order eps / p
            _close(problems, f"row {k} gap", gap, abs(y_plus - y_minus),
                   1e-9 + 64 * np.finfo(float).eps / p_min)
        else:
            _close(problems, f"row {k} gap", gap, 0.0, 0.0)
        if k in op.meta["checked"]:
            _close(problems, f"row {k} min_entropy", s, ref.min_avg_entropy(rho)[0], 1e-8)
    if float(comments.get("max_gap", "nan")) != max(gaps):
        problems.append(f"max_gap header {comments.get('max_gap')} != {max(gaps)!r}")
    fraction = sum(gap <= 1e-6 for gap in gaps) / len(gaps)
    if float(comments.get("fraction_gap_le_1e-6", "nan")) != fraction:
        problems.append(f"fraction header {comments.get('fraction_gap_le_1e-6')} != {fraction!r}")
    return problems, []


# --- trajectory -----------------------------------------------------------

def _strength(channel, rate, t):
    return math.exp(-rate * t) if channel == "phase_damping" else 1.0 - math.exp(-rate * t)


def _draw_x(rng):
    a, b, c, d = rng.dirichlet(np.ones(4))
    return {
        "a": float(a), "b": float(b), "c": float(c), "d": float(d),
        "u": float(rng.uniform() * math.sqrt(a * d)),
        "v": float(rng.uniform() * math.sqrt(b * c)),
        "mu": float(rng.uniform(0.0, 2.0 * math.pi)),
        "nu": float(rng.uniform(0.0, 2.0 * math.pi)),
    }


def _draw_bell(rng):
    while True:
        t1, t2, t3 = (float(x) for x in rng.uniform(-1.0, 1.0, size=3))
        if 1.0 + t3 >= abs(t1 - t2) and 1.0 - t3 >= abs(t1 + t2):
            return [t1, t2, t3]


def _trajectory_op(kind, body, channel, rate):
    rho0 = ref.x_state(**body) if kind == "xstate" else ref.bell_diagonal_state(*body)
    times = np.linspace(0.0, TRAJECTORY_T_MAX, TRAJECTORY_STEPS)
    checked = {}
    for step in CHECKED_STEPS:
        rho = ref.apply_channel_both(rho0, channel, _strength(channel, rate, times[step]))
        checked[step] = (rho, ref.min_avg_entropy(rho)[0])
    argv = ["dynamics", "--state", _spec(kind, body), "--rate", repr(rate),
            "--t-max", repr(TRAJECTORY_T_MAX), "--steps", str(TRAJECTORY_STEPS),
            "--channel", channel]
    return Op(argv, TRAJECTORY_STEPS, kind=kind, body=body, channel=channel, rate=rate,
              times=times, checked=checked)


def trajectory_round(rng):
    """Seeded X and Bell-diagonal trajectories plus the fixed fault call.

    The two-chord rule fails on about one random X state in a thousand.
    Seeded draws on which it fails at a checked step are redrawn, so that
    the failed share is the same on every seed; the fault is kept in view
    by ``FAULT_SPEC``, which fails on every run.
    """
    ops = []
    redraws = 0
    for kind, channel in TRAJECTORY_SLOTS:
        for _ in range(MAX_DRAWS):
            body = _draw_x(rng) if kind == "xstate" else _draw_bell(rng)
            op = _trajectory_op(kind, body, channel, float(rng.uniform(0.5, 2.0)))
            if all(ref.min_two_chord(rho) <= s_min + TWO_CHORD_SLACK
                   for rho, s_min in op.meta["checked"].values()):
                break
            redraws += 1
        else:
            raise RuntimeError(f"no {kind} draw kept the two-chord rule in {MAX_DRAWS} tries")
        ops.append(op)
    ops.append(_trajectory_op("xstate", FAULT_SPEC, "phase_damping", 1.0))
    return ops, redraws


def check_trajectory(op, out, err):
    problems, faults = [], []
    comments, rows = _csv(out)
    if len(rows) != TRAJECTORY_STEPS:
        return [f"{len(rows)} rows, expected {TRAJECTORY_STEPS}"], []
    meta = op.meta
    rate, channel = meta["rate"], meta["channel"]
    t_bar = None if comments["t_bar"] == "none" else float(comments["t_bar"])
    for k, row in enumerate(rows):
        t, gamma, info, c, q = (float(row[key]) for key in ("t", "gamma", "I", "C", "Q"))
        _close(problems, f"step {k} t", t, meta["times"][k], 1e-12)
        _close(problems, f"step {k} gamma", gamma, math.exp(-rate * meta["times"][k]), 1e-12)
        _close(problems, f"step {k} I - C - Q", info - c - q, 0.0, 1e-12)
        if k in meta["checked"]:
            rho, s_min = meta["checked"][k]
            _close(problems, f"step {k} I", info, ref.mutual_information(rho), 1e-9)
            want = ref.classical_correlation(rho, s_min)
            if c < want - 1e-5:
                faults.append(f"step {k}: C = {c!r} is {want - c:.3e} below the optimum {want!r}")
            elif c > want + 1e-5:
                problems.append(f"step {k}: C = {c!r} exceeds the optimum {want!r}")
    if channel != "phase_damping":
        if t_bar is not None:
            problems.append(f"t_bar={t_bar!r} reported for {channel}")
        return problems, faults
    if meta["kind"] == "bell_diagonal":
        t1, t2, t3 = (abs(x) for x in meta["body"])
        for k, row in enumerate(rows):
            g2 = math.exp(-2.0 * rate * meta["times"][k])
            _close(problems, f"step {k} Bell-diagonal C", float(row["C"]),
                   1.0 - ref.h(max(g2 * t1, g2 * t2, t3)), 1e-10)
        want = math.log(max(t1, t2) / t3) / (2.0 * rate) if max(t1, t2) > t3 > 0.0 else None
        if (want is None) != (t_bar is None) or (
                want is not None and abs(t_bar - want) > 1e-9 * max(want, 1.0)):
            problems.append(f"t_bar={t_bar!r}, closed form gives {want!r}")
    if t_bar is not None:
        after = [float(row["C"]) for row in rows if float(row["t"]) > t_bar]
        if after and max(after) - min(after) > 1e-8:
            problems.append(f"C varies by {max(after) - min(after):.3e} after t_bar={t_bar!r}")
    return problems, faults


WORKLOADS = {
    "compute": (lambda rng: (compute_round(rng), 0), check_compute),
    "sweep": (lambda rng: (sweep_round(rng), 0), check_sweep),
    "survey": (lambda rng: (survey_round(rng), 0), check_survey),
    "trajectory": (trajectory_round, check_trajectory),
}
