"""Benchmark of the discordlab CLI: one closed loop of in-process calls.

    python3 perfbench/run.py --workload compute --seed 1 --seconds 10 --trace 0

Run from the repository root.  One caller issues the workload's round of
``cli.parse_and_dispatch`` calls, waiting for each, until ``--seconds``
have passed at a round boundary; then every output of the first round
is checked against ``reference`` and every later round must repeat it
byte for byte.  The last stdout line is the JSON result.  With
``--trace 0`` it carries the end-to-end metrics; with ``--trace 1`` the
layers' functions run inside spans (see ``spans``) and it carries the
per-layer metrics.  Result and span files go to perfbench/results/.
See README.md for the workloads and metrics.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RESULTS = Path(__file__).resolve().parent / "results"
SETUP_RUNS = 11  # fresh interpreters timed per run; the median is reported
TAIL_MIN_CALLS = 40  # p90 is reported only with at least this many calls


def measure_setup():
    """Median seconds from starting an interpreter to having discordlab.cli imported."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    probe = "import discordlab.cli, time; print(time.monotonic())"
    times = []
    for k in range(SETUP_RUNS + 1):
        start = time.monotonic()
        done = subprocess.run([sys.executable, "-c", probe], env=env, cwd=ROOT,
                              capture_output=True, text=True, check=True)
        if k:  # the first start also writes bytecode caches
            times.append(float(done.stdout) - start)
    return statistics.median(times)


def call(cli, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        status = cli.parse_and_dispatch(argv)
        elapsed = time.perf_counter() - start
    return status, elapsed, out.getvalue(), err.getvalue()


def run_rounds(cli, ops, seconds):
    """Repeat the round of ops for ``seconds``; returns timings and first outputs."""
    firsts, digests, latencies, round_times = [], [], [], []
    rounds = 0
    cpu0, start = time.process_time(), time.perf_counter()
    while True:
        round_start = (time.perf_counter(), time.process_time())
        for k, op in enumerate(ops):
            status, elapsed, out, err = call(cli, op.argv)
            latencies.append(elapsed)
            digest = hashlib.sha1(f"{status}\0{out}".encode()).digest()
            if rounds == 0:
                firsts.append((status, out, err))
                digests.append(digest)
            elif digest != digests[k]:
                firsts[k] += (f"round {rounds} output differs from round 0",)
        rounds += 1
        round_times.append((time.perf_counter() - round_start[0], time.process_time() - round_start[1]))
        if time.perf_counter() - start >= seconds:
            break
    wall, cpu = time.perf_counter() - start, time.process_time() - cpu0
    return rounds, wall, cpu, latencies, firsts, round_times


def check(check_op, ops, firsts):
    """Problems per op of the first round: (wrong, faulted) lists of messages."""
    wrong, faulted = [], []
    for k, (op, (status, out, err, *drift)) in enumerate(zip(ops, firsts)):
        label = f"op {k} ({' '.join(op.argv[:2])})"
        if status != 0:
            wrong.append(f"{label}: exit {status}: {err.strip()[:300]}")
            continue
        problems, faults = check_op(op, out, err)
        wrong.extend(f"{label}: {p}" for p in [*drift, *problems])
        if faults:
            faulted.append((k, op, faults))
    return wrong, faulted


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "discordlab" / "cli.py").is_file():
        print(f"error: no discordlab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    setup_s = None if args.trace else measure_setup()
    from discordlab import cli

    make_round, check_op = workloads.WORKLOADS[args.workload]
    rng = np.random.default_rng([abs(args.seed), sorted(workloads.WORKLOADS).index(args.workload)])
    ops, redraws = make_round(rng)
    call(cli, ops[0].argv)  # warm-up: first-call costs inside numpy and BLAS

    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        spans.install(tracer)
    rounds, wall, cpu, latencies, firsts, round_times = run_rounds(cli, ops, args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    states = rounds * sum(op.states for op in ops)

    wrong, faulted = check(check_op, ops, firsts)
    for message in wrong:
        print(f"WRONG {message}", file=sys.stderr)
    for k, op, faults in faulted:
        print(f"FAILED op {k} [{workloads.FAULT}]: {' '.join(op.argv)}", file=sys.stderr)
        for fault in faults:
            print(f"    {fault}", file=sys.stderr)

    latencies_ms = 1e3 * np.array(latencies)
    if tracer is None:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "states_per_s": {"value": states / wall, "unit": "1/s"},
            "op_p50_ms": {"value": float(np.median(latencies_ms)), "unit": "ms"},
            "cpu_ms_per_state": {"value": 1e3 * cpu / states, "unit": "ms"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    else:
        per_layer = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
        metrics = tracer.metrics(states, per_layer)
    result = {
        "correct": not wrong,
        "attempted": rounds * len(ops),
        "failed": rounds * len(faulted),
        "metrics": metrics,
    }
    p90 = float(np.percentile(latencies_ms, 90)) if len(latencies) >= TAIL_MIN_CALLS else None
    RESULTS.mkdir(exist_ok=True)
    stem = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "rounds": rounds, "calls_per_round": len(ops), "calls": len(latencies),
        "states": states, "wall_s": wall, "cpu_s": cpu, "op_p90_ms": p90,
        "seeded_redraws": redraws, "round_times": round_times, "wrong": wrong,
        "failed_ops": [" ".join(op.argv) for _, op, _ in faulted], "result": result,
    }
    stem.with_suffix(".json").write_text(json.dumps(detail, indent=1) + "\n")
    if tracer is not None:
        tracer.write(stem.with_name(stem.name + "-spans.jsonl"))
    print(f"{args.workload} seed {args.seed}: {len(latencies)} calls in {rounds} rounds, "
          f"{states} states in {wall:.2f} s, p50 {np.median(latencies_ms):.3f} ms, "
          f"p90 {'n/a' if p90 is None else f'{p90:.3f} ms'}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
