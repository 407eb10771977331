"""In-memory span tracer for the traced benchmark run.

The tracer replaces the layers' public functions at the names their
callers look up (`cli.run_ensemble`, `engine.gates_from_increments`,
`linalg.matexp_antihermitian`, ...) with wrappers that record one span
per call: id, parent id, name, start, end, thread and, for batched calls,
the number of matrices in the batch. Spans stay in a list until the
process writes them out. Nothing under `src/` changes; the untimed
(end-to-end) runs never install the tracer.

A span opened on an engine worker thread has no open span of its own
thread; its parent is the span open on the main thread at that moment,
which is the `run_ensemble` that started the pool.
"""
from __future__ import annotations

import functools
import importlib
import itertools
import math
import threading
import time
from collections import defaultdict

# (module, attribute, span name, index of the batched array argument or None)
HOOKS = (
    ("qnoise.cli", "run_ensemble", "engine.run_ensemble", None),
    ("qnoise.engine", "build_plan", "noisegate.build_plan", None),
    # Private, but it is the unit of work of an engine thread; without it
    # the engine's own time on worker threads would be invisible.
    ("qnoise.engine", "_run_chunk", "engine.chunk", None),
    ("qnoise.engine", "gates_from_increments", "noisegate.gates_from_increments", 1),
    ("qnoise.linalg", "matexp_antihermitian", "linalg.matexp_antihermitian", 0),
    ("qnoise.linalg", "partial_trace_ancilla", "linalg.partial_trace_ancilla", None),
    ("qnoise.oracle", "evolve_exact", "oracle.evolve_exact", None),
    ("qnoise.oracle", "step_sa", "oracle.step_sa", None),
    ("qnoise.bounds", "bound_report", "bounds.bound_report", None),
)


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[tuple] = []   # (id, parent, name, start, end, thread, n)
        self.missing: list[str] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_ident = threading.main_thread().ident
        self._main_stack: list[int] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            is_main = threading.get_ident() == self._main_ident
            stack = self._local.stack = self._main_stack if is_main else []
        return stack

    def call(self, name: str, fn, args, kwargs, n: int = 1):
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            main = self._main_stack
            parent = main[-1] if main else None
        span_id = next(self._ids)
        stack.append(span_id)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((span_id, parent, name, start, end, threading.get_ident(), n))

    def wrap(self, fn, name: str, batch_arg: int | None = None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            n = 1
            if batch_arg is not None:
                shape = getattr(args[batch_arg], "shape", ())
                n = math.prod(shape[:-2])
            return self.call(name, fn, args, kwargs, n)

        return wrapper

    def install(self) -> None:
        for module_name, attr, name, batch_arg in HOOKS:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            setattr(module, attr, self.wrap(fn, name, batch_arg))
        cli = importlib.import_module("qnoise.cli")
        build = getattr(cli, "expected_channel", None)
        if build is None:
            self.missing.append("qnoise.cli.expected_channel")
            return

        # The channel is built once per dt and returned as a closure;
        # building and applying it are separate spans.
        @functools.wraps(build)
        def expected_channel(*args, **kwargs):
            channel = self.call("noisegate.expected_channel", build, args, kwargs)
            return self.wrap(channel, "noisegate.channel_apply")

        cli.expected_channel = expected_channel

    def export(self) -> list[dict]:
        keys = ("id", "parent", "name", "start", "end", "thread", "n")
        return [dict(zip(keys, s), run=self.run_id) for s in self.spans]


def _covered(lo: float, hi: float, intervals: list[tuple[float, float]]) -> float:
    """Length of [lo, hi] covered by the union of the intervals."""
    total, reach = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer busy time, self time and call counts of one iteration.

    Times are summed over threads, so on the 2-thread workloads a layer
    can report more seconds than the iteration's wall time. Self time is
    a span's duration minus the part of it that its child spans cover.
    """
    children = defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]].append((s["start"], s["end"]))
    by_name = defaultdict(list)
    for s in spans:
        by_name[s["name"]].append(s)

    def busy(name):
        return sum(s["end"] - s["start"] for s in by_name[name])

    def self_time(name):
        return sum(s["end"] - s["start"] - _covered(s["start"], s["end"], children[s["id"]])
                   for s in by_name[name])

    def calls(name):
        return len(by_name[name])

    return {
        "linalg.matexp_s": busy("linalg.matexp_antihermitian"),
        "linalg.partial_trace_s": busy("linalg.partial_trace_ancilla"),
        "noisegate.build_plan_s": busy("noisegate.build_plan"),
        "noisegate.build_plan_calls": calls("noisegate.build_plan"),
        "noisegate.gates_s": busy("noisegate.gates_from_increments"),
        "noisegate.sk_contract_s": self_time("noisegate.gates_from_increments"),
        "noisegate.expected_channel_build_s": busy("noisegate.expected_channel"),
        "noisegate.channel_apply_s": busy("noisegate.channel_apply"),
        "noisegate.channel_applies": calls("noisegate.channel_apply"),
        "engine.run_ensemble_s": busy("engine.run_ensemble"),
        "engine.run_ensemble_calls": calls("engine.run_ensemble"),
        "engine.self_s": self_time("engine.run_ensemble") + self_time("engine.chunk"),
        "oracle.evolve_exact_s": busy("oracle.evolve_exact"),
        "oracle.evolve_exact_calls": calls("oracle.evolve_exact"),
        "oracle.step_sa_s": busy("oracle.step_sa"),
        "bounds.report_s": busy("bounds.bound_report"),
        "cli.self_s": self_time("cli.main"),
    }


def traced_counts(spans: list[dict]) -> dict[str, int]:
    """Matrices the traced calls actually processed, for comparison with
    the counts computed from the inputs."""
    def total(name):
        return sum(s["n"] for s in spans if s["name"] == name)

    return {
        "linalg.matexp_matrices": total("linalg.matexp_antihermitian"),
        "noisegate.gates_built": total("noisegate.gates_from_increments"),
    }
