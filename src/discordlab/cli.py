"""Command-line front end.

Subcommands map one-to-one onto the library layers: ``compute``
(correlations of a single state), ``ellipsoid`` (steering geometry),
``dynamics`` (channel trajectories), ``conjecture mixture`` /
``conjecture general-r`` (Monte-Carlo scans) and ``sweep mixture``
(correlation surfaces on an angle grid).

Output discipline: every artifact starts with a provenance header
(version, command line, seed) and is byte-identical across reruns with
the same flags.  JSON carries floats at nine significant digits; CSV
uses ``repr`` floats, '#' comments, '.' decimals and LF endings.

Exit codes: 0 success, 2 flag errors, 3 state-validation errors,
4 conjecture violations or ``--verify`` disagreement, 5 internal errors.
"""

import argparse
import functools
import json
import os
import sys

import numpy as np

from . import __version__
from .conjectures import (
    ConjectureViolationError,
    MixtureParams,
    _parallel_map,
    classify_optimal_line,
    make_mixture_state,
    sample_general_r_params,
    sweep_mixture,
)
from .conjectures import test_equi_entropy_conjecture as _run_gap_survey
from .discord import (
    BRANCH_NUMERIC,
    DEFAULT_GRID,
    InternalInvariantError,
    UnsupportedStructureError,
    correlation_report,
)
from .dynamics import evolve_trajectory
from .qstate import (
    BellDiagonalParams,
    InvalidStateError,
    TwoQubitState,
    XStateParams,
    make_bell_diagonal,
    make_x_state,
    pauli_expansion,
)
from .steering import steering_ellipsoid

__all__ = [
    "StateLoadError",
    "load_state",
    "dump_state",
    "parse_and_dispatch",
    "main",
]

_STATE_KEYS = ("matrix", "xstate", "bell_diagonal", "mixture")
VERIFY_TOL = 1e-5


class StateLoadError(ValueError):
    """State file or inline spec does not match the input schema."""


def _parse_grid(text):
    try:
        polar, _, azimuth = text.partition("x")
        grid = (int(polar), int(azimuth))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"grid must look like 181x360, got {text!r}"
        ) from None
    if grid[0] < 2 or grid[1] < 4:
        raise argparse.ArgumentTypeError(f"grid {text!r} is too coarse")
    return grid


def _checked(convert, valid, rule):
    """An argparse type: ``convert(text)``, an error stating ``rule`` unless ``valid``."""

    def parse(text):
        value = convert(text)  # a ValueError reads "invalid <convert's name> value"
        if not valid(value):
            raise argparse.ArgumentTypeError(f"{rule}, got {value!r}")
        return value

    parse.__name__ = convert.__name__
    return parse


_grid_points = _checked(int, lambda points: points >= 2, "need at least 2 points per axis")
_sample_count = _checked(int, lambda count: count >= 1, "need at least 1 sample")
_tolerance = _checked(float, lambda tol: 0.0 <= tol < np.inf, "need a finite tolerance >= 0")
# inf never fails; NaN would switch the gate off, since no gap compares above it
_gap_bound = _checked(float, lambda bound: not np.isnan(bound), "need a bound that is not NaN")


def _is_number(value):
    """True for a JSON number (NaN and Infinity included), not for a bool."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _numeric_fields(kind, fields):
    """``fields`` (name -> value), after checking that every value is a number."""
    for name, value in fields.items():
        if not _is_number(value):
            raise StateLoadError(f"{kind} field {name!r} must be a number, got {value!r}")
    return fields


def _complex_entry(value, row, col):
    if (
        not isinstance(value, (list, tuple))
        or len(value) != 2
        or not all(_is_number(part) for part in value)
    ):
        raise StateLoadError(
            f"matrix entry ({row}, {col}) must be a [re, im] pair, got {value!r}"
        )
    return complex(value[0], value[1])


def load_state(source):
    """Parse a state file (or inline JSON when the string starts with '{').

    Exactly one of the schema keys must be present: "matrix" (4x4 of
    [re, im] pairs), "xstate" (a, b, c, d, u, v and optional mu, nu),
    "bell_diagonal" ([t1, t2, t3]) or "mixture" (lambda, alpha, beta).
    Every field must be a JSON number, not a bool.  Schema errors and
    out-of-range mixture parameters raise ``StateLoadError``.
    """
    text = source if source.lstrip().startswith("{") else None
    if text is None:
        try:
            with open(source, "r", encoding="utf-8") as handle:
                text = handle.read()
        except OSError as exc:
            raise StateLoadError(f"cannot read state file {source!r}: {exc}") from exc
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise StateLoadError(f"state spec is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise StateLoadError("state spec must be a JSON object")
    present = [key for key in _STATE_KEYS if key in payload]
    if len(present) != 1:
        raise StateLoadError(
            f"state spec needs exactly one of {_STATE_KEYS}, found {present or 'none'}"
        )
    key = present[0]
    body = payload[key]
    if key == "matrix":
        if not isinstance(body, list) or len(body) != 4:
            raise StateLoadError("matrix must be a 4x4 array of [re, im] pairs")
        m = np.zeros((4, 4), dtype=np.complex128)
        for i, row in enumerate(body):
            if not isinstance(row, list) or len(row) != 4:
                raise StateLoadError(f"matrix row {i} must have four entries")
            for j, entry in enumerate(row):
                m[i, j] = _complex_entry(entry, i, j)
        return TwoQubitState(m)
    if key == "xstate":
        if not isinstance(body, dict):
            raise StateLoadError("xstate spec must be an object")
        required = {"a", "b", "c", "d", "u", "v"}
        missing = required - body.keys()
        if missing:
            raise StateLoadError(f"xstate spec is missing {sorted(missing)}")
        unknown = body.keys() - required - {"mu", "nu"}
        if unknown:
            raise StateLoadError(f"xstate spec has unknown keys {sorted(unknown)}")
        return make_x_state(XStateParams(**_numeric_fields(key, body)))
    if key == "bell_diagonal":
        if not isinstance(body, list) or len(body) != 3:
            raise StateLoadError("bell_diagonal spec must be [t1, t2, t3]")
        fields = _numeric_fields(key, dict(zip(("t1", "t2", "t3"), body)))
        return make_bell_diagonal(BellDiagonalParams(**fields))
    if not isinstance(body, dict):
        raise StateLoadError("mixture spec must be an object")
    required = {"lambda", "alpha", "beta"}
    if body.keys() != required:
        raise StateLoadError(f"mixture spec needs exactly keys {sorted(required)}")
    fields = _numeric_fields(key, body)
    try:  # out-of-range parameters describe no state of the family
        params = MixtureParams(lam=fields["lambda"], alpha=fields["alpha"], beta=fields["beta"])
    except ValueError as exc:
        raise StateLoadError(f"mixture spec: {exc}") from exc
    return make_mixture_state(params)


def dump_state(state):
    """Canonical JSON-ready form; load_state inverts it bit-exactly."""
    return {
        "matrix": [
            [[entry.real, entry.imag] for entry in row] for row in state.matrix
        ]
    }


def _sig9(value):
    return float(f"{float(value):.9g}")


def _jsonable(obj):
    if isinstance(obj, dict):
        return {key: _jsonable(val) for key, val in obj.items()}
    if isinstance(obj, (list, tuple, np.ndarray)):
        return [_jsonable(val) for val in obj]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (float, np.floating)):
        return _sig9(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    return obj


def _provenance(args):
    return {
        "version": __version__,
        "command": " ".join(args.argv),
        "seed": args.seed,
    }


def _emit(text, out):
    if out is None:
        sys.stdout.write(text)
        return
    with open(out, "w", encoding="utf-8", newline="") as handle:
        handle.write(text)


def _summary(line, args):
    # keep stdout clean CSV when no --out was given
    print(line, file=sys.stdout if args.out is not None else sys.stderr)


def _emit_json(payload, args):
    body = {"provenance": _provenance(args)}
    body.update(_jsonable(payload))
    _emit(json.dumps(body, indent=2) + "\n", args.out)


def _csv_text(args, columns, rows, comments=()):
    seed = "none" if args.seed is None else str(args.seed)
    lines = [
        f"# discordlab {__version__}",
        f"# command: {' '.join(args.argv)}",
        f"# seed: {seed}",
    ]
    lines.extend(f"# {comment}" for comment in comments)
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(_csv_cell(value) for value in row))
    return "\n".join(lines) + "\n"


def _csv_cell(value):
    if not isinstance(value, bool) and isinstance(value, (int, float, np.floating)):
        return repr(float(value))
    return str(value)


def _report_payload(report):
    return {
        "mutual_info": report.mutual_info,
        "classical": report.classical,
        "discord": report.discord,
        "min_avg_entropy": report.min_avg_entropy,
        "branch": report.branch,
        "optimal_measurement": report.optimal_measurement.direction,
        "optimal_ensemble": [
            {
                "probability": member.probability,
                "bloch": member.bloch,
                "zero_probability": member.zero_probability,
            }
            for member in report.optimal_ensemble
        ],
    }


def _cmd_compute(args):
    state = load_state(args.state)
    report = correlation_report(
        state, direction=args.direction, method=args.method, grid=args.grid
    )
    payload = {"direction": args.direction.replace("-", "_"), "method": args.method}
    payload.update(_report_payload(report))
    status = 0
    if args.verify:
        # the report already holds one side; only the other is computed
        if report.branch == BRANCH_NUMERIC:
            numeric = report.min_avg_entropy
            try:
                analytic = correlation_report(
                    state, direction=args.direction, method="analytic"
                ).min_avg_entropy
            except UnsupportedStructureError:
                analytic = None
        else:
            analytic = report.min_avg_entropy
            numeric = correlation_report(
                state, direction=args.direction, method="numeric", grid=args.grid
            ).min_avg_entropy
        payload["verify"] = {"analytic": analytic, "numeric": numeric}
        if analytic is not None:
            difference = abs(analytic - numeric)
            payload["verify"]["difference"] = difference
            if difference > VERIFY_TOL:
                print(
                    f"verify failed: analytic and numeric differ by {difference:.3e}",
                    file=sys.stderr,
                )
                status = 4
    _emit_json(payload, args)
    return status


def _cmd_ellipsoid(args):
    state = load_state(args.state)
    ellipsoid = steering_ellipsoid(state)
    payload = {
        "center": ellipsoid.center,
        "semi_axes": ellipsoid.semi_axes,
        "rotation": ellipsoid.rotation,
        "degeneracy": ellipsoid.degeneracy,
        "det_R": pauli_expansion(state).det,
    }
    _emit_json(payload, args)
    return 0


def _cmd_dynamics(args):
    state = load_state(args.state)
    traj = evolve_trajectory(
        state,
        rate=args.rate,
        t_max=args.t_max,
        steps=args.steps,
        channel=args.channel,
        grid=args.grid,
    )
    t_bar = traj.critical_time
    t_bar_text = "none" if t_bar is None else repr(float(t_bar))
    columns = (traj.times, traj.gammas, traj.mutual_info, traj.classical, traj.discord)
    rows = [(*row, *axes) for *row, axes in zip(*columns, traj.branches, traj.semi_axes)]
    text = _csv_text(
        args,
        ("t", "gamma", "I", "C", "Q", "branch", "l1", "l2", "l3"),
        rows,
        comments=(f"t_bar={t_bar_text}",),
    )
    _emit(text, args.out)
    _summary(f"t_bar={t_bar_text}", args)
    return 0


def _cmd_conjecture_mixture(args):
    run = _run_gap_survey(samples=args.samples, seed=args.seed, grid=args.grid)
    rows = []
    for sample in run.samples:
        n = sample.optimal_measurement.direction
        rows.append(
            (
                sample.params.lam,
                sample.params.alpha,
                sample.params.beta,
                n[0],
                n[1],
                n[2],
                sample.gap,
                sample.min_entropy,
            )
        )
    text = _csv_text(
        args,
        ("lambda", "alpha", "beta", "n1", "n2", "n3", "gap", "min_entropy"),
        rows,
        comments=(
            f"max_gap={run.max_gap!r}",
            f"fraction_gap_le_1e-6={run.fraction_tiny!r}",
        ),
    )
    _emit(text, args.out)
    _summary(f"max_gap={run.max_gap!r} fraction_le_1e-6={run.fraction_tiny!r}", args)
    if run.max_gap > args.fail_above:
        worst = max(run.samples, key=lambda s: s.gap)
        print(
            "conjecture violation: gap "
            f"{worst.gap!r} at lambda={worst.params.lam!r} "
            f"alpha={worst.params.alpha!r} beta={worst.params.beta!r}",
            file=sys.stderr,
        )
        return 4
    return 0


def _cmd_conjecture_general_r(args):
    params_list = sample_general_r_params(args.samples, args.seed)
    classified = _parallel_map(
        lambda p: classify_optimal_line(
            p, grid=args.grid, chord_tol=args.chord_tol, gap_tol=args.gap_tol
        ),
        params_list,
        args.threads,
    )
    rows = []
    for item in classified:
        p = item.params
        rows.append(
            (
                p.r1,
                p.r3,
                p.s1,
                p.s3,
                p.t11,
                p.t13,
                p.t22,
                p.t31,
                p.t33,
                item.label,
                item.gap,
                item.chord_y3,
                item.s_min_a,
                item.s_min_atilde,
            )
        )
    count_one = sum(1 for item in classified if item.label == "I")
    text = _csv_text(
        args,
        (
            "r1",
            "r3",
            "s1",
            "s3",
            "t11",
            "t13",
            "t22",
            "t31",
            "t33",
            "class",
            "gap",
            "chord_y3",
            "S_min_A",
            "S_min_Atilde",
        ),
        rows,
        comments=(f"class_I={count_one}", f"class_II={len(classified) - count_one}"),
    )
    _emit(text, args.out)
    _summary(f"class_I={count_one} class_II={len(classified) - count_one}", args)
    return 0


def _cmd_sweep_mixture(args):
    rows = sweep_mixture(args.lam, args.grid_points, oracle_grid=args.oracle_grid)
    text = _csv_text(
        args,
        ("alpha", "beta", "I", "C", "Q"),
        rows,
        comments=(f"lambda={args.lam!r}",),
    )
    _emit(text, args.out)
    return 0


_HANDLERS = {
    "compute": _cmd_compute,
    "ellipsoid": _cmd_ellipsoid,
    "dynamics": _cmd_dynamics,
    "conjecture-mixture": _cmd_conjecture_mixture,
    "conjecture-general-r": _cmd_conjecture_general_r,
    "sweep-mixture": _cmd_sweep_mixture,
}


@functools.cache
def _build_parser():
    # Built on the first call and reused: parsing leaves the parser as it
    # was.  SUPPRESS keeps a subcommand's copy of the flag from clobbering
    # a value parsed by the root parser (argparse shares one namespace).
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--seed", type=int, default=argparse.SUPPRESS, help="RNG seed")
    shared.add_argument(
        "--threads",
        type=int,
        default=argparse.SUPPRESS,
        help="worker threads for `conjecture general-r` (default: DISCORDLAB_THREADS or 1)",
    )

    parser = argparse.ArgumentParser(
        prog="discordlab",
        description="Classical correlation and quantum discord via steering geometry.",
        parents=[shared],
    )
    parser.add_argument(
        "--version", action="version", version=f"discordlab {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    compute = sub.add_parser(
        "compute", parents=[shared], help="correlations of a single state"
    )
    compute.add_argument("--state", required=True, help="state file or inline JSON")
    compute.add_argument(
        "--direction", choices=("b-to-a", "a-to-b"), default="b-to-a"
    )
    compute.add_argument(
        "--method", choices=("auto", "analytic", "numeric"), default="auto"
    )
    compute.add_argument("--grid", type=_parse_grid, default=DEFAULT_GRID)
    compute.add_argument("--verify", action="store_true")
    compute.add_argument("--out", default=None)

    ellipsoid = sub.add_parser(
        "ellipsoid", parents=[shared], help="steering ellipsoid geometry"
    )
    ellipsoid.add_argument("--state", required=True)
    ellipsoid.add_argument("--out", default=None)

    dynamics = sub.add_parser(
        "dynamics", parents=[shared], help="correlations along a channel trajectory"
    )
    dynamics.add_argument("--state", required=True)
    dynamics.add_argument("--rate", type=float, required=True)
    dynamics.add_argument("--t-max", type=float, required=True)
    dynamics.add_argument("--steps", type=int, required=True)
    dynamics.add_argument("--channel", default="phase_damping")
    dynamics.add_argument("--grid", type=_parse_grid, default=DEFAULT_GRID)
    dynamics.add_argument("--out", default=None)

    conjecture = sub.add_parser(name="conjecture", help="Monte-Carlo conjecture scans")
    conj_sub = conjecture.add_subparsers(dest="family", required=True)

    # the mixture family's oracle scans the x-z circle, which has no azimuth
    polar_only = "only the polar count is read: it sets the x-z circle scan's nodes"
    mixture = conj_sub.add_parser("mixture", parents=[shared])
    mixture.add_argument("--samples", type=_sample_count, required=True)
    mixture.add_argument("--grid", type=_parse_grid, default=DEFAULT_GRID, help=polar_only)
    mixture.add_argument(
        "--fail-above",
        type=_gap_bound,
        default=1e-4,
        help="exit 4 when any gap exceeds this",
    )
    mixture.add_argument("--out", default=None)

    general_r = conj_sub.add_parser("general-r", parents=[shared])
    general_r.add_argument("--samples", type=_sample_count, required=True)
    general_r.add_argument("--grid", type=_parse_grid, default=DEFAULT_GRID)
    general_r.add_argument("--chord-tol", type=_tolerance, default=1e-6)
    general_r.add_argument("--gap-tol", type=_tolerance, default=1e-6)
    general_r.add_argument("--out", default=None)

    sweep = sub.add_parser(name="sweep", help="correlation surfaces on angle grids")
    sweep_sub = sweep.add_subparsers(dest="family", required=True)
    sweep_mix = sweep_sub.add_parser("mixture", parents=[shared])
    sweep_mix.add_argument("--lambda", dest="lam", type=float, required=True)
    # default 37: pi/6 and the beta mirror pairs land exactly on grid nodes
    sweep_mix.add_argument(
        "--grid-points", "--grid", dest="grid_points", type=_grid_points, default=37
    )
    sweep_mix.add_argument(
        "--oracle-grid", type=_parse_grid, default=DEFAULT_GRID, help=polar_only
    )
    sweep_mix.add_argument("--out", default=None)

    return parser


def _resolve_threads(value):
    source = "--threads"
    if value is None:
        env = os.environ.get("DISCORDLAB_THREADS", "").strip()
        if not env:
            return 1
        source = "DISCORDLAB_THREADS"
        try:
            value = int(env)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"DISCORDLAB_THREADS must be an integer, got {env!r}"
            ) from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"{source} must be >= 1, got {value!r}")
    return value


def parse_and_dispatch(argv):
    """Run one CLI invocation; returns the process exit status."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        args.threads = _resolve_threads(getattr(args, "threads", None))
    except SystemExit as exc:
        return int(exc.code or 0)
    except argparse.ArgumentTypeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.command in ("conjecture", "sweep"):
        args.command = f"{args.command}-{args.family}"
    args.argv = argv
    args.seed = getattr(args, "seed", None)
    try:
        return _HANDLERS[args.command](args)
    except ConjectureViolationError as exc:
        print(f"conjecture violation: {exc}", file=sys.stderr)
        return 4
    except (RuntimeError, InternalInvariantError) as exc:  # a fault, not bad input
        print(f"internal error: {exc}", file=sys.stderr)
        return 5
    except (StateLoadError, InvalidStateError, UnsupportedStructureError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main():
    sys.exit(parse_and_dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
