"""The presets, built as model documents by `config.load_model`, equal the
hand-assembled models they replaced, field by field and byte for byte."""
from dataclasses import fields

import numpy as np
import pytest

from qnoise import presets
from qnoise.model import (
    HamiltonianTerm,
    LindbladModel,
    LindbladTerm,
    PauliString,
    SIGMA_MINUS,
    SIGMA_PLUS,
)


def hand_single_spin(omega=presets.SINGLE_SPIN_OMEGA, gamma=presets.SINGLE_SPIN_GAMMA):
    x, z = PauliString("X").matrix(), PauliString("Z").matrix()
    return LindbladModel(
        n=1,
        hamiltonian_terms=(HamiltonianTerm(omega / 2.0, x, label="drive"),),
        lindblad_terms=(
            LindbladTerm(gamma, SIGMA_PLUS, support=(0,), label="raise"),
            LindbladTerm(gamma, SIGMA_MINUS, support=(0,), label="lower"),
            LindbladTerm(gamma, z, support=(0,), label="dephase"),
        ),
    )


def hand_two_molecule():
    e, j = presets.TWO_MOLECULE_E, presets.TWO_MOLECULE_J
    h_terms = (
        HamiltonianTerm(-e[0] / 2.0, PauliString("ZI").matrix(), label="E0"),
        HamiltonianTerm(-e[1] / 2.0, PauliString("IZ").matrix(), label="E1"),
        HamiltonianTerm(j / 2.0, PauliString("XX").matrix(), label="JXX"),
        HamiltonianTerm(j / 2.0, PauliString("YY").matrix(), label="JYY"),
    )
    l_terms = []
    for letters, rate in presets.TWO_MOLECULE_RATES.items():
        ps = PauliString(letters)
        l_terms.append(LindbladTerm(rate, ps.matrix(), support=ps.support or (0,), label=letters))
    return LindbladModel(2, h_terms, tuple(l_terms))


def assert_same_term(got, want):
    assert type(got) is type(want)
    for field in fields(want):
        a, b = getattr(got, field.name), getattr(want, field.name)
        if isinstance(b, np.ndarray):
            assert a.dtype == b.dtype and a.shape == b.shape, field.name
            assert a.tobytes() == b.tobytes(), field.name
        else:
            assert type(a) is type(b) and a == b, (field.name, a, b)


@pytest.mark.parametrize("build,reference", [
    (presets.single_spin_model, hand_single_spin),
    (lambda: presets.single_spin_model(gamma=1e4), lambda: hand_single_spin(gamma=1e4)),
    (presets.two_molecule_model, hand_two_molecule),
], ids=["single-spin", "single-spin-strong", "two-molecule"])
def test_preset_matches_hand_built_model(build, reference):
    got, want = build(), reference()
    assert got.n == want.n
    for kind in ("hamiltonian_terms", "lindblad_terms"):
        assert len(getattr(got, kind)) == len(getattr(want, kind)), kind
        for a, b in zip(getattr(got, kind), getattr(want, kind)):
            assert_same_term(a, b)
