import json
import re
import threading

import numpy as np
import pytest
from conftest import ginibre_state

from discordlab import __version__, cli, conjectures, discord, dynamics, steering
from discordlab.cli import (
    StateLoadError,
    dump_state,
    load_state,
    parse_and_dispatch,
)
from discordlab.qstate import TwoQubitState, extract_x_params, pauli_expansion
from discordlab.steering import steering_ellipsoid

X_SPEC = '{"xstate": {"a": 0.4, "b": 0.1, "c": 0.2, "d": 0.3, "u": 0.1, "v": 0.1}}'
BD_SPEC = '{"bell_diagonal": [0.8, -0.1, 0.2]}'
MIX_SPEC = '{"mixture": {"lambda": 0.3, "alpha": 0.7, "beta": 1.1}}'
PURE_X_SPEC = '{"xstate": {"a": 1, "b": 0, "c": 0, "d": 0, "u": 0, "v": 0}}'


def run(capsys, argv):
    code = parse_and_dispatch(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---- state loading ------------------------------------------------------


def test_load_state_inline_schemas():
    x = load_state(X_SPEC)
    assert extract_x_params(x).a == pytest.approx(0.4)
    bd = load_state(BD_SPEC)
    assert pauli_expansion(bd).entries[1, 1] == pytest.approx(0.8)
    mix = load_state(MIX_SPEC)
    assert mix.matrix[0, 0].real == pytest.approx(0.3 + 0.7 * np.cos(0.7) ** 2 * np.cos(1.1) ** 2)


def test_load_state_from_file(tmp_path):
    path = tmp_path / "state.json"
    path.write_text(X_SPEC, encoding="utf-8")
    state = load_state(str(path))
    assert extract_x_params(state) is not None
    with pytest.raises(StateLoadError, match="cannot read"):
        load_state(str(tmp_path / "missing.json"))


def test_load_state_schema_errors():
    with pytest.raises(StateLoadError, match="not valid JSON"):
        load_state("{broken")
    with pytest.raises(StateLoadError, match="exactly one"):
        load_state('{"xstate": {}, "mixture": {}}')
    with pytest.raises(StateLoadError, match="exactly one"):
        load_state('{"something": 1}')
    with pytest.raises(StateLoadError, match="missing"):
        load_state('{"xstate": {"a": 0.5, "b": 0.5}}')
    with pytest.raises(StateLoadError, match="unknown keys"):
        load_state(
            '{"xstate": {"a": 0.4, "b": 0.1, "c": 0.2, "d": 0.3, "u": 0, "v": 0, "w": 1}}'
        )
    with pytest.raises(StateLoadError, match=r"\(0, 1\)"):
        load_state('{"matrix": [[[1,0],5,[0,0],[0,0]],[],[],[]]}')
    with pytest.raises(StateLoadError, match="t1, t2, t3"):
        load_state('{"bell_diagonal": [0.1, 0.2]}')
    with pytest.raises(StateLoadError, match="exactly keys"):
        load_state('{"mixture": {"lambda": 0.5, "alpha": 0.1}}')


def test_dump_load_round_trip(rng):
    state = ginibre_state(rng)
    reloaded = load_state(json.dumps(dump_state(state)))
    # bit-identical: JSON floats round-trip exactly through repr
    assert np.array_equal(reloaded.matrix, state.matrix)


# ---- exit codes ----------------------------------------------------------


def test_exit_zero_and_json_payload(capsys):
    code, out, _ = run(capsys, ["compute", "--state", X_SPEC])
    assert code == 0
    payload = json.loads(out)
    assert payload["provenance"]["version"] == __version__
    assert payload["provenance"]["command"].startswith("compute --state")
    assert payload["provenance"]["seed"] is None
    assert payload["branch"] == "quasi_eigen"
    # nine significant digits in the payload floats
    assert payload["min_avg_entropy"] == 0.87548875


def test_exit_two_on_flag_errors(capsys):
    assert run(capsys, ["compute", "--state", X_SPEC, "--grid", "1x2"])[0] == 2
    assert run(capsys, ["compute", "--state", X_SPEC, "--bogus"])[0] == 2
    assert run(capsys, ["compute"])[0] == 2
    assert run(capsys, ["nonsense"])[0] == 2
    # a sweep needs two grid points per axis; numpy's own error used to
    # surface for -3, and 0 wrote a header-only CSV with exit 0
    for points in ("0", "-3"):
        argv = ["sweep", "mixture", "--lambda", "0.3", "--grid-points", points]
        code, out, err = run(capsys, argv)
        assert (code, out) == (2, "")
        assert "--grid-points" in err and "at least 2" in err
    # a sample count below 1 is a flag error for both families: general-r
    # used to raise OverflowError for -3 and write a header-only CSV for 0
    for family in ("mixture", "general-r"):
        for count in ("0", "-3"):
            argv = ["conjecture", family, "--samples", count, "--seed", "1"]
            code, out, err = run(capsys, argv)
            assert (code, out) == (2, "")
            assert "--samples" in err and "at least 1" in err
    # a NaN tolerance used to label every sample Class II
    for flag in ("--chord-tol", "--gap-tol"):
        for tol in ("nan", "inf", "-1e-6"):
            argv = ["conjecture", "general-r", "--samples", "1", "--seed", "1", f"{flag}={tol}"]
            code, out, err = run(capsys, argv)
            assert (code, out) == (2, "")
            assert flag in err and "finite tolerance" in err


def test_exit_two_on_threads_below_one(capsys, monkeypatch):
    code, _, err = run(capsys, ["compute", "--state", X_SPEC, "--threads", "0"])
    assert code == 2
    assert "threads" in err
    # the environment default gets the same check as the flag
    monkeypatch.setenv("DISCORDLAB_THREADS", "0")
    code, _, err = run(capsys, ["conjecture", "mixture", "--samples", "1"])
    assert code == 2
    assert err == "error: DISCORDLAB_THREADS must be >= 1, got 0\n"


def test_exit_three_on_state_errors(capsys):
    bad_matrix = (
        '{"matrix": [[[1,0],[0,0],[0,0],[0.5,0]],'
        "[[0,0],[0,0],[0,0],[0,0]],"
        "[[0,0],[0,0],[0,0],[0,0]],"
        "[[0,0],[0,0],[0,0],[0,0]]]}"
    )
    code, _, err = run(capsys, ["compute", "--state", bad_matrix])
    assert code == 3
    assert "(0, 3)" in err  # offending entry indices reach the user
    # analytic method on a state without X structure
    code, _, err = run(
        capsys, ["compute", "--state", MIX_SPEC, "--method", "analytic"]
    )
    assert code == 3
    assert "X-shaped" in err
    # unphysical parameters
    code, _, err = run(capsys, ["compute", "--state", '{"bell_diagonal": [0.8, 0.1, 0.2]}'])
    assert code == 3
    assert "positivity" in err
    # a field that is not a JSON number, or a mixture parameter out of
    # range, is a state error naming the field, not a crash or a flag error
    for spec, field in (
        ('{"xstate": {"a": "0.25", "b": 0.25, "c": 0.25, "d": 0.25, "u": 0, "v": 0}}', "'a'"),
        ('{"xstate": {"a": true, "b": 0, "c": 0, "d": 0, "u": 0, "v": 0}}', "'a'"),
        ('{"bell_diagonal": [null, 0, 0]}', "'t1'"),
        ('{"mixture": {"lambda": 0.3, "alpha": "x", "beta": 1.1}}', "'alpha'"),
        ('{"mixture": {"lambda": 0.3, "alpha": NaN, "beta": 1.1}}', "alpha"),
        ('{"mixture": {"lambda": 0.3, "alpha": 5, "beta": 1.1}}', "alpha"),
        ('{"foo": 1}', "exactly one of"),
    ):
        code, _, err = run(capsys, ["compute", "--state", spec])
        assert code == 3, spec
        assert err.startswith("error: ") and field in err
    # the same range check on a flag stays a flag error
    code, _, err = run(capsys, ["sweep", "mixture", "--lambda", "2", "--grid-points", "2"])
    assert code == 2
    assert "mixing weight" in err


NAN_MATRIX = (
    '{"matrix": [[[NaN,0],[0,0],[0,0],[0,0]],'
    "[[0,0],[0.5,0],[0,0],[0,0]],"
    "[[0,0],[0,0],[0.5,0],[0,0]],"
    "[[0,0],[0,0],[0,0],[0,0]]]}"
)


@pytest.mark.parametrize("command", ["compute", "ellipsoid"])
@pytest.mark.parametrize(
    "spec",
    [
        NAN_MATRIX,
        NAN_MATRIX.replace("[[0,0],[0.5,0]", "[[0,0],[0.5,Infinity]", 1),
        '{"xstate": {"a": NaN, "b": 0.1, "c": 0.2, "d": 0.3, "u": 0.1, "v": 0.1}}',
        '{"bell_diagonal": [0.8, NaN, 0.2]}',
    ],
    ids=["matrix-nan", "matrix-infinity", "xstate", "bell_diagonal"],
)
def test_exit_three_on_non_finite_states(capsys, command, spec):
    # JSON NaN and Infinity parse as floats; the state must reject them
    code, out, err = run(capsys, [command, "--state", spec])
    assert code == 3
    assert out == ""
    assert err == "error: matrix has a non-finite (NaN or infinite) entry\n"


def test_exit_four_on_conjecture_threshold(capsys):
    code, out, err = run(
        capsys,
        [
            "conjecture", "mixture", "--samples", "8", "--seed", "3",
            "--fail-above", "1e-15",
        ],
    )
    assert code == 4
    assert "conjecture violation" in err
    assert "lambda=" in err  # the counterexample is reported
    assert out.startswith("# discordlab")  # the CSV is still emitted


def test_version_flag(capsys):
    assert run(capsys, ["--version"])[0] == 0


def test_successive_calls_do_not_share_flags(capsys, monkeypatch):
    # the parser is built once per process; no call's flags may reach the next
    code, out, _ = run(capsys, ["compute", "--state", X_SPEC, "--method", "numeric"])
    assert code == 0
    assert json.loads(out)["branch"] == "numeric"
    code, out, _ = run(capsys, ["compute", "--state", X_SPEC])
    assert code == 0
    assert json.loads(out)["branch"] in ("quasi_eigen", "equi_entropy")

    monkeypatch.delenv("DISCORDLAB_THREADS", raising=False)
    seen = []
    monkeypatch.setitem(
        cli._HANDLERS,
        "conjecture-mixture",
        lambda config: seen.append((config.seed, config.threads)) or 0,
    )
    mixture = ["conjecture", "mixture", "--samples", "1"]
    assert parse_and_dispatch(["--seed", "7", "--threads", "2", *mixture]) == 0
    assert parse_and_dispatch([*mixture, "--seed", "8", "--threads", "3"]) == 0
    assert parse_and_dispatch(mixture) == 0
    assert seen == [(7, 2), (8, 3), (None, 1)]


# ---- compute -------------------------------------------------------------


def test_compute_verify_block(capsys):
    code, out, _ = run(capsys, ["compute", "--state", X_SPEC, "--verify"])
    assert code == 0
    verify = json.loads(out)["verify"]
    assert verify["difference"] <= 1e-5
    assert verify["analytic"] == pytest.approx(verify["numeric"], abs=1e-5)


@pytest.mark.parametrize("method", ["auto", "numeric"])
def test_compute_verify_runs_the_oracle_once(capsys, monkeypatch, method):
    # --verify reuses the report's own side and computes only the other
    calls = []
    scan = discord.min_entropy_scan
    monkeypatch.setattr(
        discord, "min_entropy_scan", lambda *a: calls.append(a) or scan(*a)
    )
    argv = ["compute", "--state", X_SPEC, "--method", method, "--verify"]
    code, out, _ = run(capsys, argv)
    assert code == 0
    assert json.loads(out)["verify"]["difference"] <= 1e-5
    assert len(calls) == 1


def test_compute_verify_non_x_reports_numeric_only(capsys):
    code, out, _ = run(capsys, ["compute", "--state", MIX_SPEC, "--verify"])
    assert code == 0
    verify = json.loads(out)["verify"]
    assert verify["analytic"] is None


def test_compute_directions_differ(capsys):
    _, out_ba, _ = run(capsys, ["compute", "--state", MIX_SPEC])
    _, out_ab, _ = run(capsys, ["compute", "--state", MIX_SPEC, "--direction", "a-to-b"])
    ba, ab = json.loads(out_ba), json.loads(out_ab)
    assert ba["mutual_info"] == ab["mutual_info"]
    assert ba["classical"] != ab["classical"]


def test_compute_out_file(capsys, tmp_path):
    path = tmp_path / "report.json"
    code, out, _ = run(capsys, ["compute", "--state", X_SPEC, "--out", str(path)])
    assert code == 0
    assert out == ""
    assert json.loads(path.read_text())["branch"] == "quasi_eigen"


@pytest.mark.parametrize(
    "argv",
    [
        ["dynamics", "--state", PURE_X_SPEC, "--rate", "1", "--t-max", "1", "--steps", "3"],
        ["compute", "--state", PURE_X_SPEC],
        ["compute", "--state", '{"mixture": {"lambda": 0.3, "alpha": 0, "beta": 1.1}}'],
        ["sweep", "mixture", "--lambda", "0.3", "--grid-points", "5"],
    ],
    ids=["dynamics", "compute_x", "compute_mixture", "sweep"],
)
def test_outputs_print_no_negative_zero(capsys, argv):
    # h(1) of a pure state is +0.0, so exact zeros print unsigned
    code, out, err = run(capsys, argv)
    assert code == 0, err
    assert re.findall(r"(?<![\w.])-0\.0(?!\d)", out) == []


def _ginibre_qubit(rng):
    g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    m = g @ g.conj().T
    return m / m.trace().real


@pytest.mark.parametrize("direction", ["b-to-a", "a-to-b"])
def test_compute_product_states_print_no_negative_correlations(capsys, monkeypatch, direction):
    # I = C = Q = 0 on a product state; I comes from two routes whose
    # rounding does not cancel, so it is clamped at +0.0 and C kept in [0, I]
    rng = np.random.default_rng(23)
    rho_a, rho_b = _ginibre_qubit(rng), _ginibre_qubit(rng)
    ginibre_product = dump_state(TwoQubitState(np.kron(rho_a, rho_b)))
    specs = {
        "beta-zero": '{"mixture": {"lambda": 0.3, "alpha": 0, "beta": 1.1}}',
        "lambda-zero": '{"mixture": {"lambda": 0, "alpha": 0.7, "beta": 1.1}}',
        "ginibre-qubits": json.dumps(ginibre_product),
    }
    calls = []
    scan = discord.min_entropy_scan
    monkeypatch.setattr(discord, "min_entropy_scan", lambda *a: calls.append(a) or scan(*a))
    for label, spec in specs.items():
        calls.clear()
        code, out, err = run(capsys, ["compute", "--state", spec, "--direction", direction])
        assert code == 0, err
        payload = json.loads(out)
        info, c, q = (payload[k] for k in ("mutual_info", "classical", "discord"))
        assert 0.0 <= c <= info <= 1e-12 and 0.0 <= q <= 1e-12, (label, info, c, q)
        assert abs(info - c - q) <= 1e-15, label
        assert re.findall(r"(?<![\w.])-0\.0(?!\d)", out) == [], label
        # the Bloch vectors' y components keep R off the x-z circle
        assert len(calls) == (label == "ginibre-qubits"), label


# ---- ellipsoid -----------------------------------------------------------


def test_ellipsoid_payload(capsys):
    code, out, _ = run(capsys, ["ellipsoid", "--state", '{"bell_diagonal": [0.5, -0.5, 0.5]}'])
    assert code == 0
    payload = json.loads(out)
    assert payload["degeneracy"] == "full"
    assert payload["semi_axes"] == [0.5, 0.5, 0.5]
    assert payload["center"] == [0.0, 0.0, 0.0]
    assert payload["det_R"] == pytest.approx(-0.125)


def test_ellipsoid_degenerate_x_state(capsys):
    code, out, _ = run(capsys, ["ellipsoid", "--state", X_SPEC])
    assert code == 0
    assert json.loads(out)["degeneracy"] == "ellipse"


def test_ellipsoid_mixture_state_is_a_segment(capsys):
    # R is singular and the state is not X-shaped: B's measurements steer A
    # along the line y3 + y1 tan(alpha) = 1
    alpha = 0.5
    spec = json.dumps({"mixture": {"lambda": 0.3, "alpha": alpha, "beta": 0.7}})
    code, out, _ = run(capsys, ["ellipsoid", "--state", spec])
    assert code == 0
    assert json.loads(out)["degeneracy"] == "segment"
    ellipsoid = steering_ellipsoid(load_state(spec))
    y1, _, y3 = ellipsoid.center
    assert abs(y3 + y1 * np.tan(alpha) - 1.0) <= 1e-12
    axis = ellipsoid.rotation[:, 0] * np.sign(ellipsoid.rotation[0, 0])
    np.testing.assert_allclose(axis, [np.cos(alpha), 0.0, -np.sin(alpha)], rtol=0.0, atol=1e-12)


@pytest.mark.parametrize(
    "mixture",
    [{"lambda": 0.0, "alpha": 0.5, "beta": 0.7}, {"lambda": 0.3, "alpha": 0.5, "beta": 0.0}],
    ids=["lambda-zero", "beta-zero"],
)
def test_ellipsoid_product_state_is_a_point(capsys, mixture):
    # a product state with B's marginal pure steers A only to its own Bloch vector
    spec = json.dumps({"mixture": mixture})
    code, out, _ = run(capsys, ["ellipsoid", "--state", spec])
    assert code == 0
    payload = json.loads(out)
    assert payload["degeneracy"] == "point"
    assert payload["semi_axes"] == [0.0, 0.0, 0.0]
    params = conjectures.MixtureParams(
        lam=mixture["lambda"], alpha=mixture["alpha"], beta=mixture["beta"]
    )
    np.testing.assert_allclose(
        payload["center"], conjectures.mixture_bloch_a(params), rtol=0.0, atol=1e-9
    )


# ---- dynamics ------------------------------------------------------------


def test_dynamics_csv(capsys):
    code, out, err = run(
        capsys,
        ["dynamics", "--state", BD_SPEC, "--rate", "1", "--t-max", "1.4", "--steps", "8"],
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == f"# discordlab {__version__}"
    assert lines[1].startswith("# command: dynamics")
    assert lines[2] == "# seed: none"
    assert lines[3].startswith("# t_bar=0.693147180559")
    assert lines[4] == "t,gamma,I,C,Q,branch,l1,l2,l3"
    assert len(lines) == 5 + 8
    # summary goes to stderr when the CSV is on stdout
    assert "t_bar=" in err
    first = lines[5].split(",")
    assert float(first[0]) == 0.0
    assert float(first[1]) == 1.0
    assert first[5] == "equi_entropy"
    last = lines[-1].split(",")
    assert last[5] == "quasi_eigen"


@pytest.mark.parametrize("spec", [X_SPEC, BD_SPEC, "matrix"], ids=["x", "bell-diagonal", "matrix"])
def test_dynamics_axes_are_the_ellipsoid_semi_axes(capsys, rng, spec):
    # l1 >= l2 >= l3 mean the same for every state: ellipsoid's semi-axes
    if spec == "matrix":
        spec = json.dumps(dump_state(ginibre_state(rng)))
    argv = ["dynamics", "--state", spec, "--rate", "1", "--t-max", "1", "--steps", "3"]
    code, out, err = run(capsys, argv)
    assert code == 0, err
    rows = [line.split(",") for line in out.splitlines() if not line.startswith("#")]
    axes = np.array([float(value) for value in rows[1][6:9]])
    expected = steering_ellipsoid(load_state(spec)).semi_axes
    np.testing.assert_allclose(axes, expected, rtol=0.0, atol=1e-15)


def test_dynamics_non_x_state_through_singular_r(capsys, rng):
    # full amplitude damping drives R singular on a state that is not X-shaped
    spec = json.dumps(dump_state(ginibre_state(rng)))
    argv = ["dynamics", "--state", spec, "--channel", "amplitude_damping", "--rate", "1",
            "--t-max", "40", "--steps", "3"]
    code, out, err = run(capsys, argv)
    assert code == 0, err
    rows = [line.split(",") for line in out.splitlines() if not line.startswith("#")]
    assert rows[0] == ["t", "gamma", "I", "C", "Q", "branch", "l1", "l2", "l3"]
    assert len(rows) == 1 + 3


@pytest.mark.parametrize(
    "flags, named",
    [
        (["--rate", "1", "--t-max", "-1"], "t_max"),
        (["--rate", "1", "--t-max", "0"], "t_max"),
        (["--rate", "1", "--t-max", "nan", "--channel", "pauli(0.5,0.3,0.2)"], "t_max"),
        (["--rate", "nan", "--t-max", "1"], "rate"),
        (["--rate", "inf", "--t-max", "1"], "rate"),
        (["--rate", "1", "--t-max", "5e-324"], "t_max"),
        (["--rate", "1", "--t-max", "1", "--channel", "pauli(nan,0,0)"], "Pauli"),
        (["--rate", "1", "--t-max", "1", "--channel", "pauli(inf,0,0)"], "Pauli"),
    ],
)
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_dynamics_rejects_bad_time_flags(capsys, flags, named):
    code, out, err = run(capsys, ["dynamics", "--state", BD_SPEC, "--steps", "3", *flags])
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and named in err
    assert "RuntimeWarning" not in err


# ---- monte-carlo subcommands ----------------------------------------------


def test_conjecture_mixture_csv_and_determinism(capsys, tmp_path):
    argv = ["conjecture", "mixture", "--samples", "6", "--seed", "5"]
    code, out1, err1 = run(capsys, argv)
    assert code == 0
    lines = out1.splitlines()
    assert lines[2] == "# seed: 5"
    assert lines[3].startswith("# max_gap=")
    assert lines[4].startswith("# fraction_gap_le_1e-6=")
    assert lines[5] == "lambda,alpha,beta,n1,n2,n3,gap,min_entropy"
    assert len(lines) == 6 + 6
    assert "max_gap=" in err1
    # byte-identical rerun
    code, out2, _ = run(capsys, argv)
    assert out1 == out2
    # worker count changes only the provenance line, never the data
    code, out3, _ = run(capsys, argv + ["--threads", "2"])
    data = lambda text: [l for l in text.splitlines() if not l.startswith("#")]
    assert data(out3) == data(out1)
    # --out writes the same bytes with LF endings
    path = tmp_path / "gaps.csv"
    code, _, _ = run(capsys, argv + ["--out", str(path)])
    raw = path.read_bytes()
    assert b"\r" not in raw
    assert data(raw.decode()) == data(out1)


def test_conjecture_mixture_env_threads(capsys, monkeypatch):
    monkeypatch.setenv("DISCORDLAB_THREADS", "2")
    argv = ["conjecture", "mixture", "--samples", "4", "--seed", "9"]
    code, out_env, _ = run(capsys, argv)
    assert code == 0
    monkeypatch.delenv("DISCORDLAB_THREADS")
    code, out_serial, _ = run(capsys, argv)
    assert out_env == out_serial  # ordering is by input index


def test_conjecture_general_r_csv(capsys):
    code, out, err = run(
        capsys, ["conjecture", "general-r", "--samples", "5", "--seed", "5"]
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[3].startswith("# class_I=")
    assert lines[4].startswith("# class_II=")
    assert lines[5] == "r1,r3,s1,s3,t11,t13,t22,t31,t33,class,gap,chord_y3,S_min_A,S_min_Atilde"
    assert len(lines) == 6 + 5
    for line in lines[6:]:
        assert line.split(",")[9] in ("I", "II")
    assert "class_I=" in err


def test_conjecture_general_r_threads_do_not_change_output(capsys):
    argv = ["conjecture", "general-r", "--samples", "4", "--seed", "5"]
    code, serial, _ = run(capsys, argv + ["--threads", "1"])
    assert code == 0
    code, threaded, _ = run(capsys, argv + ["--threads", "2"])
    assert code == 0
    # only the provenance line that echoes the command differs
    assert serial.replace("--threads 1", "--threads 2") == threaded


def test_sweep_mixture_csv(capsys):
    code, out, _ = run(
        capsys, ["sweep", "mixture", "--lambda", "0.5", "--grid-points", "4"]
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[3] == "# lambda=0.5"
    assert lines[4] == "alpha,beta,I,C,Q"
    assert len(lines) == 5 + 16
    betas = {float(line.split(",")[1]) for line in lines[5:]}
    assert max(betas) == pytest.approx(np.pi)  # full beta range by default


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep", "mixture", "--lambda", "0.3", "--grid-points", "6"],
        ["conjecture", "mixture", "--samples", "20", "--seed", "5"],
    ],
    ids=["sweep", "survey"],
)
def test_stacked_commands_start_no_thread(capsys, monkeypatch, argv):
    # the sweep and the gap survey run their stacks on the calling thread,
    # whatever --threads says
    code, serial, _ = run(capsys, argv + ["--threads", "1"])
    assert code == 0

    def refuse(_thread):
        raise RuntimeError("a thread was started")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    code, threaded, _ = run(capsys, argv + ["--threads", "2"])
    assert code == 0
    assert serial.replace("--threads 1", "--threads 2") == threaded


def test_sweep_mixture_threads_do_not_change_output(capsys):
    argv = ["sweep", "mixture", "--lambda", "0.3", "--grid-points", "6"]
    code, serial, _ = run(capsys, argv + ["--threads", "1"])
    assert code == 0
    code, threaded, _ = run(capsys, argv + ["--threads", "2"])
    assert code == 0
    # only the provenance line that echoes the command differs
    assert serial.replace("--threads 1", "--threads 2") == threaded


def test_exit_five_on_internal_error(capsys, monkeypatch, rng):
    # a non-mixture R breaks the circle oracle's invariant: an internal
    # fault, reported on stderr rather than as a traceback or a flag error
    bad = pauli_expansion(ginibre_state(rng)).entries
    monkeypatch.setattr(
        conjectures, "_mixture_r", lambda lam, a, b: np.broadcast_to(bad, np.shape(lam) + (4, 4))
    )
    argv = ["sweep", "mixture", "--lambda", "0.3", "--grid-points", "2"]
    code, _, err = run(capsys, argv)
    assert code == 5
    assert err.startswith("internal error: ")
    assert "R[:, 2]" in err


def test_exit_five_on_broken_ensemble_invariant(capsys, monkeypatch):
    # a steered Bloch vector outside the unit ball is a fault in the
    # computation, not a flag error: exit 5, though it is still a ValueError
    monkeypatch.setattr(discord, "_onto_unit_ball", lambda y, p: y + 2.0)
    code, out, err = run(capsys, ["compute", "--state", X_SPEC])
    assert code == 5
    assert out == ""
    assert err.startswith("internal error: ")
    assert "unit ball" in err
    with pytest.raises(ValueError, match="unit ball"):
        discord.EnsembleMember(0.5, np.array([0.0, 0.0, 1.5]))


@pytest.mark.parametrize(
    "argv",
    [
        ["compute", "--state", X_SPEC],
        ["dynamics", "--state", X_SPEC, "--rate", "1", "--t-max", "1", "--steps", "3"],
    ],
    ids=["compute", "dynamics"],
)
def test_exit_five_on_unknown_branch(capsys, monkeypatch, argv):
    # a branch label the library never makes is a fault, not a flag error,
    # whether a report or a trajectory's arrays carry it
    monkeypatch.setattr(
        discord,
        "_x_minimum",
        lambda r: (np.full(len(r), 0.5), np.tile([0.0, 0.0, 1.0], (len(r), 1)), ["mystery"]),
    )
    code, out, err = run(capsys, argv)
    assert code == 5
    assert out == ""
    assert err.startswith("internal error: ") and "unknown branch" in err


def test_exit_five_on_negative_correlation_in_sweep_mirror_half(capsys, monkeypatch):
    # the mirror cells (beta > pi/2) take the core's minimum directly; one
    # 0.5 bits too high there gives C < 0, which must fail as a report would
    core = conjectures._core

    def raised(r, *args):
        info, s_a, values, ns, branches = core(r, *args)
        mirror = np.arange(len(r)) % 4 >= 2  # beta = 2 pi/3 and pi on the 4-point grid
        return info, s_a, np.where(mirror, values + 0.5, values), ns, branches

    monkeypatch.setattr(conjectures, "_core", raised)
    code, out, err = run(capsys, ["sweep", "mixture", "--lambda", "0.3", "--grid-points", "4"])
    assert (code, out) == (5, "")
    assert err.startswith("internal error: ") and "negative correlation" in err


def test_exit_five_on_unknown_degeneracy(capsys, monkeypatch):
    # a degeneracy class the library never makes is a fault, not a flag error
    ellipsoid = steering.SteeringEllipsoid
    monkeypatch.setattr(
        steering,
        "SteeringEllipsoid",
        lambda **fields: ellipsoid(**{**fields, "degeneracy": "mystery"}),
    )
    code, out, err = run(capsys, ["ellipsoid", "--state", X_SPEC])
    assert code == 5
    assert out == ""
    assert err.startswith("internal error: ") and "unknown degeneracy" in err


def test_exit_five_on_channel_map_breaking_x_shape(capsys, monkeypatch):
    # a transfer matrix that mixes {1, sigma_z} with {sigma_x, sigma_y}
    # would turn an X state into a non-X one: rejected before it is applied
    lam = np.eye(4)
    lam[1, 3] = 0.1
    monkeypatch.setattr(dynamics, "_transfer", lambda name, strength: lam)
    with pytest.raises(RuntimeError, match="mixes"):
        dynamics.apply_named_channel(load_state(BD_SPEC), "phase_damping", 0.5)
    argv = ["dynamics", "--state", BD_SPEC, "--rate", "1", "--t-max", "1", "--steps", "3"]
    code, out, err = run(capsys, argv)
    assert code == 5
    assert out == ""
    assert err.startswith("internal error: ")
