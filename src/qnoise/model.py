"""Lindblad problem description: Hamiltonian terms, dissipator terms, locality.

Units: model files carry SI pairs (seconds for times, rad/s for
frequencies, 1/s for rates).  Internally hbar = 1, so only the
dimensionless products omega*dt and gamma*dt matter; dimensionless
models simply use rate/frequency values with an implied unit time scale.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linalg

PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}

SIGMA_PLUS = np.array([[0, 0], [1, 0]], dtype=complex)   # |1><0|
SIGMA_MINUS = np.array([[0, 1], [0, 0]], dtype=complex)  # |0><1|


@dataclass(frozen=True)
class PauliString:
    """Tensor product of single-qubit Paulis, e.g. 'XY' on two qubits."""

    letters: str

    def __post_init__(self):
        if not self.letters or any(c not in PAULI for c in self.letters):
            raise ValueError(f"invalid Pauli string {self.letters!r}")

    @property
    def n(self) -> int:
        return len(self.letters)

    @property
    def weight(self) -> int:
        return sum(1 for c in self.letters if c != "I")

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(i for i, c in enumerate(self.letters) if c != "I")

    def matrix(self) -> np.ndarray:
        m = np.array([[1.0]], dtype=complex)
        for c in self.letters:
            m = np.kron(m, PAULI[c])
        return m


@dataclass(frozen=True)
class HamiltonianTerm:
    coefficient: float          # rad/s
    operator: np.ndarray        # dimensionless Hermitian operator
    locality: int
    label: str = ""

    def __post_init__(self):
        if not linalg.is_hermitian(self.operator, 1e-12):
            raise ValueError(f"Hamiltonian term {self.label!r} is not Hermitian")

    def matrix(self) -> np.ndarray:
        return self.coefficient * self.operator


@dataclass(frozen=True)
class LindbladTerm:
    rate: float                 # 1/s
    operator: np.ndarray
    locality: int
    support: tuple[int, ...] = ()
    label: str = ""

    def __post_init__(self):
        if self.rate < 0:
            raise ValueError(f"Lindblad term {self.label!r} has negative rate {self.rate}")


@dataclass(frozen=True)
class LindbladModel:
    n: int
    hamiltonian_terms: tuple[HamiltonianTerm, ...]
    lindblad_terms: tuple[LindbladTerm, ...]
    # hbar is fixed to 1; frequencies are absorbed into coefficients.

    def __post_init__(self):
        d = self.dim
        for t in self.hamiltonian_terms:
            if t.operator.shape != (d, d):
                raise ValueError(f"Hamiltonian term {t.label!r} has wrong dimension")
        for t in self.lindblad_terms:
            if t.operator.shape != (d, d):
                raise ValueError(f"Lindblad term {t.label!r} has wrong dimension")

    @property
    def dim(self) -> int:
        return 2 ** self.n

    def dissipator_supports(self) -> set[tuple[int, ...]]:
        """Distinct qubit supports among the dissipator terms."""
        supports = set()
        for t in self.lindblad_terms:
            supports.add(t.support if t.support else tuple(range(self.n)))
        return supports

    @property
    def k_local(self) -> int:
        """Number of distinct m-qubit supports among dissipator terms (K)."""
        return len(self.dissipator_supports())

    @property
    def max_locality(self) -> int:
        """Largest dissipator locality m."""
        if not self.lindblad_terms:
            return 0
        return max(t.locality for t in self.lindblad_terms)


def total_hamiltonian(model: LindbladModel) -> np.ndarray:
    h = np.zeros((model.dim, model.dim), dtype=complex)
    for t in model.hamiltonian_terms:
        h += t.matrix()
    return h


def dissipator(model: LindbladModel, rho: np.ndarray) -> np.ndarray:
    """Action of the dissipator sum_k gamma_k (L rho L^dag - 1/2 {L^dag L, rho})."""
    out = np.zeros_like(rho, dtype=complex)
    for t in model.lindblad_terms:
        if t.rate == 0.0:
            continue
        L = t.operator
        LdL = L.conj().T @ L
        out += t.rate * (L @ rho @ L.conj().T - 0.5 * (LdL @ rho + rho @ LdL))
    return out


def liouvillian(model: LindbladModel) -> np.ndarray:
    """Superoperator matrix acting on column-vectorized density matrices."""
    d = model.dim
    eye = np.eye(d, dtype=complex)
    h = total_hamiltonian(model)
    gen = -1j * (np.kron(eye, h) - np.kron(h.T, eye))
    for t in model.lindblad_terms:
        if t.rate == 0.0:
            continue
        L = t.operator
        LdL = L.conj().T @ L
        gen += t.rate * (
            np.kron(L.conj(), L)
            - 0.5 * np.kron(eye, LdL)
            - 0.5 * np.kron(LdL.T, eye)
        )
    return gen


def k_local_count(n: int, m: int) -> int:
    """Number of m-qubit supports among n qubits, C(n, m)."""
    if not 1 <= m <= n:
        raise ValueError(f"need 1 <= m <= n, got m={m}, n={n}")
    return math.comb(n, m)
