"""Before-and-after benchmark: perfbench runs on a parent commit and on the working tree.

    python3 benchmarks/compare.py --parent HEAD~1 --out bench.json \
        compute=10 sweep=3 survey=3 trajectory=3

Run from the repository root.  ``--parent`` is the commit to compare
against: ``HEAD`` while the change is uncommitted, ``HEAD~1`` or a hash
once it is committed.  Both sides run from fresh temporary directories,
deleted at the end, so that neither has the checkout's caches or build
leftovers: the parent's committed files are extracted with ``git
archive``, and the working tree's committable files (tracked or not
ignored, as ``git ls-files --cached --others --exclude-standard`` lists
them, less deleted ones) are copied.  For each ``workload=pairs``
argument the script makes that many pairs of ``perfbench/run.py`` runs,
one on the parent and one on the working tree, at BENCHMARK.json's
``run_seconds`` and ``--trace 0``.  Pair k uses seed ``FIRST_SEED + k``
on both sides, and the side that runs first alternates from pair to
pair, so that a drift in host speed falls on both sides alike.  Each side runs its own ``perfbench/`` against its
own ``src/``.

The output JSON holds every run's result, each side's median and
quartiles per end-to-end metric, the number of pairs the working tree won
on it (by the metric's ``better`` direction), and the machine: CPU count,
Python, numpy and OpenBLAS versions.  After each workload one verdict line
per end-to-end metric goes to stderr: both medians, their ratio, the pairs
won, and ``BEYOND BOUND`` where the working tree's median is worse than the
parent's by more than the metric's bound.
"""

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
FIRST_SEED = 201


def git(*args):
    return subprocess.run(
        ["git", *args], cwd=ROOT, capture_output=True, text=True, check=True
    ).stdout.strip()


def extract(rev, dest):
    """The committed files of ``rev`` under ``dest``."""
    archive = subprocess.run(
        ["git", "archive", "--format=tar", rev], cwd=ROOT, capture_output=True, check=True
    ).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def copy_worktree(dest):
    """The working tree's committable files, edits included, under ``dest``."""
    listed = git("ls-files", "-z", "--cached", "--others", "--exclude-standard")
    for name in listed.split("\0"):
        source = ROOT / name
        if name and source.is_file():  # a deleted tracked file is still listed
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, dest / name)


def machine():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "platform": platform.platform(),
    }


def run_once(tree, workload, seed, seconds):
    """One perfbench run in ``tree``; returns its result JSON plus timing."""
    command = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    start = time.monotonic()
    done = subprocess.run(command, cwd=tree, env=env, capture_output=True, text=True)
    if done.returncode != 0:
        raise RuntimeError(
            f"{' '.join(command)} in {tree} exited {done.returncode}:\n{done.stderr}"
        )
    result = json.loads(done.stdout.strip().splitlines()[-1])
    result["elapsed_s"] = round(time.monotonic() - start, 2)
    result["stderr"] = done.stderr.strip().splitlines()[:20]
    return result


def quartiles(values):
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return {"median": float(median), "q1": float(q1), "q3": float(q3)}


def summarise(runs, end_to_end):
    out = {}
    for metric in end_to_end:
        name, lower = metric["name"], metric["better"] == "lower"
        sides = {
            side: [run["metrics"][name]["value"] for run in runs if run["side"] == side]
            for side in ("parent", "change")
        }
        wins = sum(
            (new < old) if lower else (new > old)
            for old, new in zip(sides["parent"], sides["change"])
        )
        entry = {side: quartiles(values) for side, values in sides.items()}
        entry.update(
            unit=metric["unit"],
            better=metric["better"],
            bound=metric["bound"],
            change_over_parent=entry["change"]["median"] / entry["parent"]["median"],
            pairs=len(sides["change"]),
            change_wins=int(wins),
        )
        out[name] = entry
    return out


def verdicts(workload, summary):
    """One line per end-to-end metric of ``summarise``'s output."""
    lines = []
    for name, entry in summary.items():
        old, new = entry["parent"]["median"], entry["change"]["median"]
        worse = (new - old if entry["better"] == "lower" else old - new) / old
        lines.append(
            f"{workload} {name}: parent {old:.4g} {entry['unit']}, change {new:.4g}, "
            f"change/parent {entry['change_over_parent']:.3f}, "
            f"won {entry['change_wins']}/{entry['pairs']}"
            + (f", BEYOND BOUND {entry['bound']:g}" if worse > entry["bound"] else "")
        )
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git revision to compare against")
    parser.add_argument("--out", required=True, help="JSON file to write, e.g. BENCH_6.json")
    parser.add_argument("pairs", nargs="+", metavar="WORKLOAD=PAIRS")
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    known = {w["name"] for w in bench["workloads"]}
    plan = []
    for item in args.pairs:
        name, _, count = item.partition("=")
        if name not in known or not count.isdigit() or int(count) < 1:
            parser.error(f"expected WORKLOAD=PAIRS, a workload of BENCHMARK.json; got {item!r}")
        plan.append((name, int(count)))

    parent_rev = git("rev-parse", args.parent)
    report = {
        "parent": parent_rev,
        "change": {"head": git("rev-parse", "HEAD"), "dirty": bool(git("status", "--porcelain"))},
        "command": " ".join(["python3", "benchmarks/compare.py", *sys.argv[1:]]),
        "seconds": seconds,
        "first_seed": FIRST_SEED,
        "machine": machine(),
        "workloads": {},
    }
    trees = {side: Path(tempfile.mkdtemp(prefix=f"discordlab-{side}-"))
             for side in ("parent", "change")}
    try:
        extract(parent_rev, trees["parent"])
        copy_worktree(trees["change"])
        for name, count in plan:
            runs = []
            for k in range(count):
                seed = FIRST_SEED + k
                order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
                for side in order:
                    result = run_once(trees[side], name, seed, seconds)
                    runs.append({"pair": k, "seed": seed, "side": side,
                                 "ran_first": side == order[0], **result})
                    values = ", ".join(
                        f"{metric} {entry['value']:.4g}"
                        for metric, entry in result["metrics"].items()
                    )
                    print(f"{name} pair {k} seed {seed} {side}: {values}",
                          file=sys.stderr, flush=True)
            summary = summarise(runs, bench["end_to_end"])
            report["workloads"][name] = {
                "runs": runs,
                "correct": all(run["correct"] for run in runs),
                "failed_share": {
                    side: [run["failed"] / run["attempted"] for run in runs if run["side"] == side]
                    for side in ("parent", "change")
                },
                "summary": summary,
            }
            for line in verdicts(name, summary):
                print(line, file=sys.stderr, flush=True)
            Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    finally:
        for tree in trees.values():
            shutil.rmtree(tree, ignore_errors=True)
    Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
