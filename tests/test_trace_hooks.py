"""The benchmark's traced run wraps discordlab functions by name.

``perfbench/spans.py`` replaces the layers' functions with span-recording
wrappers.  A renamed or bypassed function would leave its span empty and
only show up as missing per-layer metrics, so this test runs a traced
``compute``, ``conjecture mixture``, ``dynamics``, a two-thread
``conjecture general-r`` (the one caller of the wrapped worker map) and a
two-thread ``sweep mixture``, and checks that the kernel spans were
recorded, and that the trajectory, its critical time and the sweep were.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = """
import contextlib, io, json, sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import numpy as np
import spans
tracer = spans.Tracer()
spans.install(tracer)
from discordlab import cli
from discordlab.qstate import TwoQubitState
rng = np.random.default_rng(3)
g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
m = g @ g.conj().T
spec = json.dumps(cli.dump_state(TwoQubitState(m / m.trace().real)))
xspec = '{"xstate": {"a": 0.4, "b": 0.1, "c": 0.2, "d": 0.3, "u": 0.1, "v": 0.05}}'
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    codes = [
        cli.parse_and_dispatch(["compute", "--state", spec]),
        cli.parse_and_dispatch(["conjecture", "mixture", "--samples", "3", "--seed", "1"]),
        cli.parse_and_dispatch(["dynamics", "--state", xspec, "--rate", "1", "--t-max", "1",
                                "--steps", "3"]),
        cli.parse_and_dispatch(["conjecture", "general-r", "--samples", "2", "--seed", "5",
                                "--threads", "2"]),
        cli.parse_and_dispatch(["sweep", "mixture", "--lambda", "0.3", "--grid-points", "3",
                                "--threads", "2"]),
    ]
print(json.dumps({"codes": codes, "spans": sorted(set(tracer.names))}))
"""


def test_benchmark_spans_reach_the_kernels():
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(ROOT / "src"), str(ROOT / "perfbench")],
        capture_output=True,
        text=True,
        check=True,
        cwd=ROOT,
    )
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["codes"] == [0, 0, 0, 0, 0]
    expected = {
        "kernels.oracle",
        "kernels.grid_build",
        "kernels.grid_eval",
        "kernels.refine",
        "kernels.circle_scan",
        "dynamics.trajectory",
        "dynamics.critical_time",
        "conjectures.sweep",
    }
    assert expected <= set(result["spans"])
