"""Layer benchmark of the 2-D oracle: hemisphere scans on a parent commit and on the working tree.

    python3 benchmarks/descent.py --parent HEAD --out BENCH_24_descent.json

Run from the repository root.  ``--parent`` is the commit to compare
against, as for ``compare.py``, whose extraction this script shares: the
parent's committed files come from ``git archive`` and the working tree's
committable files are copied, each into a fresh temporary directory.

The working tree's discordlab builds one fixed set of coefficient
matrices R: the perfbench ``compute`` states of seeds 201-210 (8 Ginibre
states per seed, half of them a-to-b, for which R is the swapped state's),
then ``MIXED`` states drawn in turn from Ginibre ranks 1-4, random X,
Bell-diagonal and X + eps Ginibre with eps = 10**U(-6, -1), from numpy
seed 11 and the samplers of ``tests/conftest.py``.  Each side then runs
``_kernels.min_entropy_scan`` on the default grid over every R, in a
subprocess of its own against its own ``src/``, after one untimed scan
that builds the grid caches.  Every scan is timed, and its calls of
``avg_entropy_numpy`` counted by a wrapper; a default-grid scan makes two
of them for its grid (the coarse and the fine pass) on both sides, so the
rest are the descent's calls.

The output JSON holds, per side and per state set, scan ms and descent
calls (p50, p99, max), and the value change from the parent: the number
of states more than 1e-12 above and below it, and the largest change
either way.  It records the machine as ``compare.py`` does.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from compare import ROOT, copy_worktree, extract, git, machine

COMPUTE_SEEDS = range(201, 211)
MIXED = 4200  # 600 states of each of the 7 kinds
MIXED_SEED = 11
GRID_CALLS = 2  # avg_entropy_numpy calls of a default-grid scan before its descent
GAP = 1e-12  # value changes counted as above or below the parent

WORKER = """
import sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import descent
descent.measure(sys.argv[3])
"""


def compute_states():
    """R of the perfbench ``compute`` states of ``COMPUTE_SEEDS``, in call order."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads
    from discordlab.qstate import TwoQubitState, pauli_expansion, swap_parties

    index = sorted(workloads.WORKLOADS).index("compute")
    out = []
    for seed in COMPUTE_SEEDS:
        for op in workloads.compute_round(np.random.default_rng([seed, index])):
            state = TwoQubitState(op.meta["rho"])
            if op.meta["direction"] == "a-to-b":
                state = swap_parties(state)
            out.append(pauli_expansion(state).entries)
    return out


def mixed_states():
    """R of ``MIXED`` states: Ginibre ranks 1-4, X, Bell-diagonal, X + eps Ginibre, in turn."""
    sys.path.insert(0, str(ROOT / "tests"))
    from conftest import ginibre_state, random_bell_diagonal, random_x_params

    from discordlab.qstate import TwoQubitState, make_bell_diagonal, make_x_state, pauli_expansion

    rng = np.random.default_rng(MIXED_SEED)
    out = []
    for k in range(MIXED):
        kind = k % 7
        if kind < 4:
            state = ginibre_state(rng, rank=1 + kind)
        elif kind == 4:
            state = make_x_state(random_x_params(rng))
        elif kind == 5:
            state = make_bell_diagonal(random_bell_diagonal(rng))
        else:
            eps = 10.0 ** rng.uniform(-6.0, -1.0)
            x = make_x_state(random_x_params(rng)).matrix
            state = TwoQubitState((1.0 - eps) * x + eps * ginibre_state(rng).matrix)
        out.append(pauli_expansion(state).entries)
    return out


def measure(states_file):
    """Scan every R of ``states_file`` (.npy); print value, ms and entropy calls per state."""
    from discordlab import _kernels
    from discordlab.discord import DEFAULT_GRID

    evaluate = _kernels.avg_entropy_numpy
    calls = [0]

    def counting(r, ns):
        calls[0] += 1
        return evaluate(r, ns)

    _kernels.avg_entropy_numpy = counting
    stack = np.load(states_file)
    _kernels.min_entropy_scan(stack[0], *DEFAULT_GRID)
    rows = []
    for r in stack:
        calls[0] = 0
        start = time.perf_counter()
        value, _, _ = _kernels.min_entropy_scan(r, *DEFAULT_GRID)
        rows.append((value, 1e3 * (time.perf_counter() - start), calls[0]))
    print(json.dumps(rows))


def run_side(tree, states_file):
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, "-c", WORKER, str(tree / "src"), str(ROOT / "benchmarks"),
         str(states_file)],
        env=env, capture_output=True, text=True, check=True,
    )
    return np.array(json.loads(done.stdout.splitlines()[-1]))


def spread(values):
    p50, p99, top = np.percentile(values, [50, 99, 100])
    return {"p50": float(p50), "p99": float(p99), "max": float(top)}


def summarise(sides):
    out = {}
    for side, rows in sides.items():
        out[side] = {
            "scan_ms": spread(rows[:, 1]),
            "descent_calls": spread(rows[:, 2] - GRID_CALLS),
        }
    change = sides["change"][:, 0] - sides["parent"][:, 0]
    out["value_change"] = {
        "above": int((change > GAP).sum()),
        "below": int((change < -GAP).sum()),
        "largest_above": float(change.max()),
        "largest_below": float(change.min()),
    }
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git revision to compare against")
    parser.add_argument("--out", required=True, help="JSON file to write")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    sets = {"compute": compute_states(), "mixed": mixed_states()}
    parent_rev = git("rev-parse", args.parent)
    report = {
        "parent": parent_rev,
        "change": {"head": git("rev-parse", "HEAD"), "dirty": bool(git("status", "--porcelain"))},
        "command": " ".join(["python3", "benchmarks/descent.py", *sys.argv[1:]]),
        "grid": "181 x 360, refine_tol 1e-6 (min_entropy_scan defaults via DEFAULT_GRID)",
        "states": {
            "compute": f"perfbench compute states of seeds {COMPUTE_SEEDS.start}-"
                       f"{COMPUTE_SEEDS.stop - 1}, {len(sets['compute'])} in all",
            "mixed": f"{MIXED} states, Ginibre ranks 1-4, X, Bell-diagonal and X + eps "
                     f"Ginibre in turn, numpy seed {MIXED_SEED}",
        },
        "machine": machine(),
        "sets": {},
    }
    scratch = Path(tempfile.mkdtemp(prefix="discordlab-descent-"))
    try:
        trees = {side: scratch / side for side in ("parent", "change")}
        for tree in trees.values():
            tree.mkdir()
        extract(parent_rev, trees["parent"])
        copy_worktree(trees["change"])
        for name, states in sets.items():
            states_file = scratch / f"{name}.npy"
            np.save(states_file, np.array(states))
            sides = {side: run_side(tree, states_file) for side, tree in trees.items()}
            report["sets"][name] = summarise(sides)
            print(name, json.dumps(report["sets"][name]), file=sys.stderr, flush=True)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
