"""Every function the benchmark tracer wraps, and every qnoise name the
benchmark imports, still exists under its name.

perfbench/spans.py replaces functions at the names their callers look up
(`HOOKS`, plus `qnoise.cli.expected_channel`). After a rename the tracer
only counts the name in `trace.hooks_missing`, and the layer reads zero.
A renamed import fails the benchmark run itself. The modules are loaded
by path or parsed, and nothing is installed.
"""
import ast
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
