"""Built-in example models, a driven dissipative spin and a two-molecule chain,
written as inline model documents that `config.load_model` builds."""
from __future__ import annotations

import numpy as np

from .model import LindbladModel, SIGMA_MINUS, SIGMA_PLUS


def _config():
    from . import config   # imported on first use: config imports PRESETS from here
    return config


# Driven single spin: H = (Omega/2) X with Omega = pi/6 Mrad/s, three
# dissipation channels (raising, lowering, dephasing) at a common rate
# gamma = 0.1 kHz.
SINGLE_SPIN_OMEGA = np.pi / 6 * 1e6     # rad/s
SINGLE_SPIN_GAMMA = 100.0               # 1/s
SINGLE_SPIN_DT = 1e-6                   # s  (gamma*dt = 1e-4)


def single_spin_model(
    omega: float = SINGLE_SPIN_OMEGA, gamma: float = SINGLE_SPIN_GAMMA
) -> LindbladModel:
    config = _config()

    def jump(op: np.ndarray, label: str) -> dict:
        return {"matrix": config.matrix_to_json(op), "support": [0], "rate": gamma, "label": label}

    return config.load_model({
        "n": 1,
        "hamiltonian": [{"pauli": "X", "coeff": omega / 2.0, "label": "drive"}],
        "lindblad": [jump(SIGMA_PLUS, "raise"), jump(SIGMA_MINUS, "lower"),
                     {"pauli": "Z", "rate": gamma, "label": "dephase"}],
    })


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
    (e0, e1), j = TWO_MOLECULE_E, TWO_MOLECULE_J
    return _config().load_model({
        "n": 2,
        "hamiltonian": [
            {"pauli": "ZI", "coeff": -e0 / 2.0, "label": "E0"},
            {"pauli": "IZ", "coeff": -e1 / 2.0, "label": "E1"},
            {"pauli": "XX", "coeff": j / 2.0, "label": "JXX"},
            {"pauli": "YY", "coeff": j / 2.0, "label": "JYY"},
        ],
        "lindblad": [{"pauli": letters, "rate": rate, "label": letters}
                     for letters, rate in TWO_MOLECULE_RATES.items()],
    })


# The models a config names with `model.preset`.
PRESETS = {
    "single-spin": single_spin_model,
    "two-molecule": two_molecule_model,
}
