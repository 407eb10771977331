"""Lindblad problem description: Hamiltonian terms, and dissipator terms whose
qubit supports alone give the bounds' support count K and locality m.

Units: model files carry SI pairs (seconds for times, rad/s for
frequencies, 1/s for rates).  Internally hbar = 1, so only the
dimensionless products omega*dt and gamma*dt matter; dimensionless
models simply use rate/frequency values with an implied unit time scale.
"""
from __future__ import annotations

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

# How far a dissipator may differ from tr_q(op)/2 x I_q on a qubit q outside its declared
# support, in units of max(1, its largest entry).
SUPPORT_TOL = 1e-12


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
    def support(self) -> tuple[int, ...]:
        return tuple(i for i, c in enumerate(self.letters) if c != "I")

    def matrix(self) -> np.ndarray:
        m = np.array([[1.0]], dtype=complex)
        for c in self.letters:
            m = np.kron(m, PAULI[c])
        return m


def _check_label(kind: str, label) -> None:
    if not isinstance(label, str):
        raise TypeError(f"{kind} term label {label!r} is not a str")


@dataclass(frozen=True)
class HamiltonianTerm:
    coefficient: float          # rad/s
    operator: np.ndarray        # dimensionless Hermitian operator
    label: str = ""

    def __post_init__(self):
        _check_label("Hamiltonian", self.label)
        if not linalg.is_hermitian(self.operator, 1e-12):
            raise ValueError(f"Hamiltonian term {self.label!r} is not Hermitian")

    def matrix(self) -> np.ndarray:
        return self.coefficient * self.operator


@dataclass(frozen=True)
class LindbladTerm:
    rate: float                 # 1/s
    operator: np.ndarray
    support: tuple[int, ...] = ()   # qubits the operator acts on; () means all n
    label: str = ""

    def __post_init__(self):
        s = self.support
        if not isinstance(s, tuple) or len(set(s)) != len(s) or not all(
                isinstance(q, (int, np.integer)) and q >= 0 for q in s):
            raise ValueError(f"Lindblad term {self.label!r} has support {s!r}, "
                             f"not distinct qubit indices")
        _check_label("Lindblad", self.label)
        if self.rate < 0:
            raise ValueError(f"Lindblad term {self.label!r} has negative rate {self.rate}")

    def check_support(self, n: int) -> None:
        """Raise a ValueError naming the term unless its support holds every qubit < n that
        the operator acts on: on each other qubit q it must equal tr_q(op)/2 x I_q."""
        if any(q >= n for q in self.support):
            raise ValueError(f"Lindblad term {self.label!r} has support {self.support!r}, "
                             f"not qubit indices < {n}")
        tol = SUPPORT_TOL * max(1.0, np.max(np.abs(self.operator)))
        for q in [q for q in range(n) if q not in (self.support or range(n))]:
            t = self.operator.reshape(2**q, 2, 2 ** (n - q - 1), 2**q, 2, 2 ** (n - q - 1))
            traced = np.einsum("aibcid->abcd", t) / 2
            if np.max(np.abs(t - np.einsum("abcd,ij->aibcjd", traced, np.eye(2)))) > tol:
                raise ValueError(f"Lindblad term {self.label!r} acts on qubit {q}, "
                                 f"outside its support {self.support!r}")


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
            t.check_support(self.n)

    @property
    def dim(self) -> int:
        return 2 ** self.n

    @property
    def k_local(self) -> int:
        """Number of distinct qubit sets among dissipator supports (K); no support means all."""
        return len({tuple(sorted(t.support or range(self.n))) for t in self.lindblad_terms})

    @property
    def max_locality(self) -> int:
        """Largest dissipator locality m: the size of the largest support."""
        return max((len(t.support or range(self.n)) for t in self.lindblad_terms), default=0)


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

