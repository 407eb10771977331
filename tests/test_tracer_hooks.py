"""Every function the benchmark tracer wraps still exists under its name.

perfbench/spans.py replaces functions at the names their callers look up
(`HOOKS`, plus `qnoise.cli.expected_channel`). After a rename the tracer
only counts the name in `trace.hooks_missing`, and the layer reads zero.
The module is loaded by path and nothing is installed.
"""
import importlib
import types
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    """The tracer module, executed from source so that no bytecode is written."""
    module = types.ModuleType("perfbench_spans")
    exec(compile(SPANS.read_text(), str(SPANS), "exec"), module.__dict__)
    return module


def test_every_tracer_hook_resolves():
    hooks = [(module, attr) for module, attr, _, _ in load_spans().HOOKS]
    hooks.append(("qnoise.cli", "expected_channel"))
    missing = [f"{module}.{attr}" for module, attr in hooks
               if not callable(getattr(importlib.import_module(module), attr, None))]
    assert missing == []
