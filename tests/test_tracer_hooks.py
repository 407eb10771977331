"""Every function the benchmark tracer wraps, and every qnoise name the
benchmark imports, still exists under its name, and the wrapped functions
still run where the tracer counts them.

perfbench/spans.py replaces functions at the names their callers look up
(`HOOKS`, plus `qnoise.cli.expected_channel`). After a rename the tracer
only counts the name in `trace.hooks_missing`, and the layer reads zero.
A renamed import fails the benchmark run itself. The modules are loaded
by path or parsed, and nothing is installed; the traced CLI run undoes the
tracer's wrappers when it ends.
"""
import ast
import importlib
import json
import types
from pathlib import Path

import pytest

from qnoise import cli

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


@pytest.mark.parametrize("threads", ["1", "2"])
def test_traced_chunks_run_inside_run_ensemble(tmp_path, monkeypatch, threads):
    spans = load_spans()
    # Re-set every hooked name to itself, so that teardown undoes the tracer's wrappers.
    for module, attr, _, _ in spans.HOOKS:
        mod = importlib.import_module(module)
        monkeypatch.setattr(mod, attr, getattr(mod, attr))
    monkeypatch.setattr(cli, "expected_channel", cli.expected_channel)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"model": {"preset": "single-spin"}, "run": {
        "dt": 1e-6, "n_steps": 2, "n_realizations": 3, "chunk_size": 1,
        "observables": [{"pauli": "Z"}]}}))
    tracer = spans.Tracer("test")
    tracer.install()
    assert cli.main(["simulate", str(config), "--threads", threads,
                     "--out-dir", str(tmp_path)]) == 0
    assert tracer.missing == []
    recorded = tracer.export()
    [ensemble] = [s["id"] for s in recorded if s["name"] == "engine.run_ensemble"]
    assert [s["parent"] for s in recorded if s["name"] == "engine.chunk"] == [ensemble] * 3


def perfbench_references():
    """Every `qnoise...` module and name that perfbench/*.py imports, and every attribute it
    reads from a name bound to `qnoise.cli`, as (module, attr or None)."""
    refs = set()
    for path in sorted(SPANS.parent.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        cli_names = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("qnoise"):
                for alias in node.names:
                    refs.add((node.module, alias.name))
                    if f"{node.module}.{alias.name}" == "qnoise.cli":
                        cli_names.add(alias.asname or alias.name)
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.startswith("qnoise"):
                        refs.add((alias.name, None))
                        if alias.name == "qnoise.cli" and alias.asname:
                            cli_names.add(alias.asname)
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
                    and isinstance(node.value, ast.Name) and node.value.id in cli_names):
                refs.add(("qnoise.cli", node.attr))
    return refs


def resolves(module, attr):
    mod = importlib.import_module(module)
    if attr is None or hasattr(mod, attr):
        return True
    try:   # `from qnoise import cli` names a submodule
        importlib.import_module(f"{module}.{attr}")
        return True
    except ModuleNotFoundError:
        return False


def test_every_perfbench_import_resolves():
    refs = perfbench_references()
    assert {("qnoise.cli", "PRESETS"), ("qnoise.cli", "main"), ("qnoise.engine", "RunConfig"),
            ("qnoise.engine", "run_ensemble"), ("qnoise.model", "PauliString"),
            ("qnoise.oracle", "evolve_exact")} <= refs
    missing = [f"{module}.{attr}" for module, attr in sorted(refs, key=str)
               if not resolves(module, attr)]
    assert missing == []
