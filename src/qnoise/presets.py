"""Built-in example models: a driven dissipative spin and a two-molecule chain."""
from __future__ import annotations

import numpy as np

from .model import (
    HamiltonianTerm,
    LindbladModel,
    LindbladTerm,
    PauliString,
    SIGMA_MINUS,
    SIGMA_PLUS,
)

# Driven single spin: H = (Omega/2) X with Omega = pi/6 Mrad/s, three
# dissipation channels (raising, lowering, dephasing) at a common rate
# gamma = 0.1 kHz.
SINGLE_SPIN_OMEGA = np.pi / 6 * 1e6     # rad/s
SINGLE_SPIN_GAMMA = 100.0               # 1/s
SINGLE_SPIN_DT = 1e-6                   # s  (gamma*dt = 1e-4)
SINGLE_SPIN_T = 30e-6                   # s


def single_spin_model(
    omega: float = SINGLE_SPIN_OMEGA, gamma: float = SINGLE_SPIN_GAMMA
) -> LindbladModel:
    x = PauliString("X").matrix()
    z = PauliString("Z").matrix()
    return LindbladModel(
        n=1,
        hamiltonian_terms=(
            HamiltonianTerm(omega / 2.0, x, locality=1, label="drive"),
        ),
        lindblad_terms=(
            LindbladTerm(gamma, SIGMA_PLUS, locality=1, support=(0,), label="raise"),
            LindbladTerm(gamma, SIGMA_MINUS, locality=1, support=(0,), label="lower"),
            LindbladTerm(gamma, z, locality=1, support=(0,), label="dephase"),
        ),
    )


# Excitation transfer between two coupled two-level molecules.
# H = -(E0/2) Z0 - (E1/2) Z1 + (J/2)(X0 X1 + Y0 Y1), dimensionless units
# (energies in units of an implicit reference frequency, times in its inverse).
TWO_MOLECULE_E = (773.5, 770.3)
TWO_MOLECULE_J = 3.2
TWO_MOLECULE_DT = 5e-2
TWO_MOLECULE_N_STEPS = 40

# Dissipator: one Lindblad channel per two-qubit Pauli string, rates below.
TWO_MOLECULE_RATES = {
    "IX": 0.005,
    "IY": 0.034,
    "IZ": 0.300,
    "XI": 0.250,
    "YI": 0.096,
    "ZI": 0.280,
    "XX": 0.044,
    "XY": 0.099,
    "XZ": 0.040,
    "YX": 0.030,
    "YY": 0.060,
    "YZ": 0.084,
    "ZX": 0.000,
    "ZY": 0.000,
    "ZZ": 0.099,
}


def two_molecule_model() -> LindbladModel:
    h_terms = (
        HamiltonianTerm(
            -TWO_MOLECULE_E[0] / 2.0, PauliString("ZI").matrix(), locality=1, label="E0"
        ),
        HamiltonianTerm(
            -TWO_MOLECULE_E[1] / 2.0, PauliString("IZ").matrix(), locality=1, label="E1"
        ),
        HamiltonianTerm(
            TWO_MOLECULE_J / 2.0, PauliString("XX").matrix(), locality=2, label="JXX"
        ),
        HamiltonianTerm(
            TWO_MOLECULE_J / 2.0, PauliString("YY").matrix(), locality=2, label="JYY"
        ),
    )
    l_terms = []
    for letters, rate in TWO_MOLECULE_RATES.items():
        ps = PauliString(letters)
        l_terms.append(
            LindbladTerm(
                rate,
                ps.matrix(),
                locality=max(ps.weight, 1),
                support=ps.support or (0,),
                label=letters,
            )
        )
    return LindbladModel(2, h_terms, tuple(l_terms))


# The models a config names with `model.preset`.
PRESETS = {
    "single-spin": single_spin_model,
    "two-molecule": two_molecule_model,
}
