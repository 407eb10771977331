"""Each preset is shorthand for an inline model document: built from its terms, it
equals what `config.load_model` builds from the document, field by field and byte
for byte, and so do their derived supports.  presets.py imports no config."""
import ast
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from qnoise import presets
from qnoise.config import load_model

PRESETS_PY = Path(__file__).resolve().parents[1] / "src" / "qnoise" / "presets.py"
RAISE = [[[0, 0], [0, 0]], [[1, 0], [0, 0]]]   # sigma+ = |1><0|, as [re, im] pairs
LOWER = [[[0, 0], [1, 0]], [[0, 0], [0, 0]]]   # sigma- = |0><1|


def single_spin_document(omega=presets.SINGLE_SPIN_OMEGA, gamma=presets.SINGLE_SPIN_GAMMA):
    return {
        "n": 1,
        "hamiltonian": [{"pauli": "X", "coeff": omega / 2.0, "label": "drive"}],
        "lindblad": [{"matrix": RAISE, "rate": gamma, "label": "raise"},
                     {"matrix": LOWER, "rate": gamma, "label": "lower"},
                     {"pauli": "Z", "rate": gamma, "label": "dephase"}],
    }


def two_molecule_document():
    (e0, e1), j = presets.TWO_MOLECULE_E, presets.TWO_MOLECULE_J
    return {
        "n": 2,
        "hamiltonian": [
            {"pauli": "ZI", "coeff": -e0 / 2.0, "label": "E0"},
            {"pauli": "IZ", "coeff": -e1 / 2.0, "label": "E1"},
            {"pauli": "XX", "coeff": j / 2.0, "label": "JXX"},
            {"pauli": "YY", "coeff": j / 2.0, "label": "JYY"},
        ],
        "lindblad": [{"pauli": letters, "rate": rate, "label": letters}
                     for letters, rate in presets.TWO_MOLECULE_RATES.items()],
    }


def assert_same_term(got, want):
    assert type(got) is type(want)
    for field in fields(want):
        a, b = getattr(got, field.name), getattr(want, field.name)
        if isinstance(b, np.ndarray):
            assert a.dtype == b.dtype and a.shape == b.shape, field.name
            assert a.tobytes() == b.tobytes(), field.name
        else:
            assert type(a) is type(b) and a == b, (field.name, a, b)


@pytest.mark.parametrize("build,document", [
    (presets.single_spin_model, single_spin_document),
    (lambda: presets.single_spin_model(gamma=1e4), lambda: single_spin_document(gamma=1e4)),
    (presets.two_molecule_model, two_molecule_document),
], ids=["single-spin", "single-spin-strong", "two-molecule"])
def test_preset_matches_its_document(build, document):
    got, want = build(), load_model(document())
    assert got.n == want.n
    assert got.supports == want.supports
    for kind in ("hamiltonian_terms", "lindblad_terms"):
        assert len(getattr(got, kind)) == len(getattr(want, kind)), kind
        for a, b in zip(getattr(got, kind), getattr(want, kind)):
            assert_same_term(a, b)


def imported_modules(path):
    """The absolute name of every module that a qnoise source file imports, at any depth."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:   # relative to the qnoise package
                base = f"qnoise.{base}".rstrip(".")
            names.add(base)
            # `from . import config` and `from qnoise import config` name a submodule.
            names.update(f"{base}.{alias.name}" for alias in node.names)
    return names


def test_presets_do_not_import_config():
    # config imports PRESETS, so a config import in presets.py is a cycle.
    assert "qnoise.config" not in imported_modules(PRESETS_PY)
