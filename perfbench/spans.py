"""Spans and counters around discordlab's layers, installed from outside.

``install`` replaces the public functions behind the ``per_layer``
metrics of BENCHMARK.json (plus a few private helpers that carry the
work split) with wrappers, in every ``discordlab`` module that holds them
under any name, so callers pick the wrapper up through their usual
module lookup.
Each wrapper records one span: name, start, end, parent span and the id
of the CLI call (trace) it belongs to.  Spans stay in memory until
``write`` saves them.  A span's self time is its duration minus the part
of it that its child spans cover.
"""

import functools
import json
import sys
import threading
import time
from array import array
from collections import Counter, defaultdict

# per-layer metric -> (kind, span or counter key); BENCHMARK.json gives
# each metric's unit and direction.  "ms" and "count" metrics are per state.
SOURCES = {
    "cli.self_ms": ("ms", "cli"),
    "cli.load_state_ms": ("ms", "cli.load_state"),
    "qstate.validate_ms": ("ms", "qstate.validate"),
    "qstate.validate_calls": ("count", "qstate.validate"),
    "qstate.entropy_ms": ("ms", "qstate.entropy"),
    "qstate.extract_x_ms": ("ms", "qstate.extract_x"),
    "qstate.extract_x_calls": ("count", "qstate.extract_x"),
    "qstate.pauli_ms": ("ms", "qstate.pauli"),
    "kernels.oracle_calls": ("count", "kernels.oracle"),
    "kernels.grid_build_ms": ("ms", "kernels.grid_build"),
    "kernels.grid_eval_ms": ("ms", "kernels.grid_eval"),
    "kernels.refine_ms": ("ms", "kernels.refine"),
    "kernels.entropy_calls": ("count", "kernels.entropy_calls"),
    "kernels.directions_evaluated": ("count", "kernels.directions"),
    "kernels.circle_scan_ms": ("ms", "kernels.circle_scan"),
    "kernels.circle_scan_calls": ("count", "kernels.circle_scan"),
    "discord.report_self_ms": ("ms", "discord.report"),
    "discord.closed_form_reports": ("count", "discord.closed_form"),
    "discord.numeric_reports": ("count", "discord.numeric"),
    "discord.ensemble_ms": ("ms", "discord.ensemble"),
    "discord.zero_probability_members": ("count", "discord.zero_probability"),
    "dynamics.channel_ms": ("ms", "dynamics.channel"),
    "dynamics.channel_calls": ("count", "dynamics.channel"),
    "dynamics.critical_time_ms": ("ms", "dynamics.critical_time"),
    "steering.geometry_ms": ("ms", "steering.geometry"),
    "steering.geometry_calls": ("count", "steering.geometry"),
    "conjectures.sample_ms": ("ms", "conjectures.sample"),
    "conjectures.survey_self_ms": ("ms", "conjectures.survey"),
    "conjectures.constrained_ms": ("ms", "conjectures.constrained"),
    "conjectures.guard_oracle_calls": ("count", "conjectures.guard_oracle"),
    "conjectures.busy_over_wall": ("ratio", "conjectures.cell_cpu"),
}


class Tracer:
    def __init__(self):
        self._lock = threading.Lock()
        self._local = threading.local()
        self._next_trace = 0
        self.names = []
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.trace = array("q")
        self.counts = Counter()

    def _stack(self):
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def current(self):
        """(span index, trace id) of the innermost open span in this thread."""
        stack = self._stack()
        return stack[-1] if stack else getattr(self._local, "root", (-1, -1))

    def open_names(self):
        return [self.names[idx] for idx, _ in self._stack()]

    def open(self, name, new_trace=False):
        parent, trace = self.current()
        with self._lock:
            if new_trace:
                trace = self._next_trace
                self._next_trace += 1
            idx = len(self.names)
            self.names.append(name)
            self.parent.append(parent)
            self.trace.append(trace)
            self.end.append(0.0)
            self.start.append(time.perf_counter())
        self._stack().append((idx, trace))
        return idx

    def close(self, idx):
        self.end[idx] = time.perf_counter()
        self._stack().pop()

    def count(self, key, amount=1):
        with self._lock:
            self.counts[key] += amount

    def wrap(self, fn, name, before=None, after=None, new_trace=False):
        """``fn`` inside a span; ``before(args)`` and ``after(result)`` count."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            idx = self.open(name, new_trace)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if after is not None:
                after(result)
            return result

        return wrapper

    def adopt(self, fn, root, name):
        """``fn`` run in a worker thread as a child span of ``root``.

        Also counts, under ``name + "_cpu"``, the CPU seconds the worker
        thread itself spent in ``fn``: time waiting for the interpreter
        lock, or spent by BLAS helper threads, is not in it.
        """

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._local.root = root
            cpu = time.thread_time()
            idx = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(idx)
                self.count(name + "_cpu", time.thread_time() - cpu)
                del self._local.root

        return wrapper

    def totals(self):
        """Summed self time and summed duration per span name, in seconds."""
        children = defaultdict(list)
        for idx, parent in enumerate(self.parent):
            if parent >= 0:
                children[parent].append(idx)
        self_time = Counter()
        duration = Counter()
        for idx, name in enumerate(self.names):
            length = self.end[idx] - self.start[idx]
            duration[name] += length
            covered = 0.0
            reach = -1.0
            for kid in sorted(children.get(idx, ()), key=self.start.__getitem__):
                lo, hi = max(self.start[kid], reach), self.end[kid]
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            self_time[name] += length - covered
        return self_time, duration

    def metrics(self, states, per_layer):
        """Values of the ``per_layer`` entries of BENCHMARK.json, with their units."""
        self_time, duration = self.totals()
        out = {}
        for entry in per_layer:
            metric, unit = entry["name"], entry["unit"]
            kind, key = SOURCES[metric]
            if kind == "ms":
                value = 1e3 * self_time[key] / states
            elif kind == "count":
                value = self.counts[key] / states
            else:  # worker CPU time in sweep cells over the sweeps' wall time
                wall = duration["conjectures.sweep"]
                value = self.counts[key] / wall if wall > 0.0 else 0.0
            out[metric] = {"value": value, "unit": unit}
        return out

    def write(self, path):
        """One JSON object per line: a header with the span names, then spans."""
        ids = {name: k for k, name in enumerate(dict.fromkeys(self.names))}
        t0 = self.start[0] if self.names else 0.0
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps({"names": list(ids), "columns": [
                "name", "start_s", "end_s", "parent", "trace"]}) + "\n")
            for idx, name in enumerate(self.names):
                handle.write(
                    f"[{ids[name]},{self.start[idx] - t0:.7f},{self.end[idx] - t0:.7f},"
                    f"{self.parent[idx]},{self.trace[idx]}]\n"
                )


def _replace(original, wrapper):
    """Point every discordlab module attribute that holds ``original`` at ``wrapper``."""
    for name, module in list(sys.modules.items()):
        if name == "discordlab" or name.startswith("discordlab."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)


def install(tracer):
    """Wrap the layers' functions in spans and counters recorded by ``tracer``."""
    from discordlab import _kernels, cli, conjectures, discord, dynamics, qstate, steering

    def span(module, attr, name, **hooks):
        original = getattr(module, attr)
        _replace(original, tracer.wrap(original, name, **hooks))

    def counted(key):
        return lambda _args: tracer.count(key)

    span(cli, "parse_and_dispatch", "cli", new_trace=True)
    span(cli, "load_state", "cli.load_state")

    post_init = qstate.TwoQubitState.__post_init__
    qstate.TwoQubitState.__post_init__ = tracer.wrap(
        post_init, "qstate.validate", before=counted("qstate.validate")
    )
    span(qstate, "von_neumann_entropy", "qstate.entropy")
    span(qstate, "mutual_information", "qstate.entropy")
    span(qstate, "extract_x_params", "qstate.extract_x", before=counted("qstate.extract_x"))
    span(qstate, "pauli_expansion", "qstate.pauli")

    def oracle_call(_args):
        tracer.count("kernels.oracle")
        if tracer.open_names()[-1:] == ["conjectures.constrained"]:
            tracer.count("conjectures.guard_oracle")

    span(_kernels, "min_entropy_scan", "kernels.oracle", before=oracle_call)
    span(_kernels, "grid_directions", "kernels.grid_build")
    span(_kernels, "_refine_python", "kernels.refine")
    span(_kernels, "min_entropy_circle_scan", "kernels.circle_scan",
         before=counted("kernels.circle_scan"))

    avg_entropy = _kernels.avg_entropy_numpy
    grid_eval = tracer.wrap(avg_entropy, "kernels.grid_eval")

    @functools.wraps(avg_entropy)
    def entropy_eval(r, ns):
        # evaluations of the 2-D oracle only; the circle scan counts separately
        names = tracer.open_names()
        if "kernels.oracle" not in names:
            return avg_entropy(r, ns)
        tracer.count("kernels.entropy_calls")
        tracer.count("kernels.directions", len(ns) if getattr(ns, "ndim", 1) == 2 else 1)
        return (grid_eval if names[-1] == "kernels.oracle" else avg_entropy)(r, ns)

    _replace(avg_entropy, entropy_eval)

    def report_kind(report):
        tracer.count("discord.numeric" if report.branch == "numeric" else "discord.closed_form")

    def zero_members(members):
        zeros = sum(member.zero_probability for member in members)
        if zeros:
            tracer.count("discord.zero_probability", zeros)

    span(discord, "correlation_report", "discord.report", after=report_kind)
    span(discord, "post_measurement_ensemble", "discord.ensemble", after=zero_members)

    span(dynamics, "evolve_trajectory", "dynamics.trajectory")
    span(dynamics, "apply_named_channel", "dynamics.channel", before=counted("dynamics.channel"))
    span(dynamics, "critical_time", "dynamics.critical_time")

    span(steering, "x_frame_geometry", "steering.geometry", before=counted("steering.geometry"))

    span(conjectures, "sample_mixture_params", "conjectures.sample")
    span(conjectures, "test_equi_entropy_conjecture", "conjectures.survey")
    span(conjectures, "mixture_correlations_via_conjecture", "conjectures.constrained")
    span(conjectures, "sweep_mixture", "conjectures.sweep")

    parallel_map = conjectures._parallel_map

    @functools.wraps(parallel_map)
    def traced_map(fn, items, threads):
        # sweep cells become child spans of the sweep, in whichever thread runs them
        if tracer.open_names()[-1:] != ["conjectures.sweep"]:
            return parallel_map(fn, items, threads)
        return parallel_map(tracer.adopt(fn, tracer.current(), "conjectures.cell"), items, threads)

    _replace(parallel_map, traced_map)
