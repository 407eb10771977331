"""Lindblad problem description: Hamiltonian terms, and dissipator terms whose
qubit supports, derived from their operators by `support` (empty for a zero rate
or an operator proportional to I), alone give the bounds' K and m.  This module
alone decides which dissipators act: the gate plan, the bounds and sweep-dt read
`LindbladModel.acting_rates`, while `dissipator` and `liouvillian` sum every term, the
latter through `linalg.dissipator_superop` like the expected channel, the former in action
form as the reference both are checked against.  Term operators are read-only copies, so
what a model caches from them (supports, rates, Liouvillian) cannot go stale.

Units: model files carry SI pairs (seconds for times, rad/s for
frequencies, 1/s for rates).  Internally hbar = 1, so only the
dimensionless products omega*dt and gamma*dt matter; dimensionless
models simply use rate/frequency values with an implied unit time scale.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

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

# How far an operator may differ from tr_q(op)/2 x I_q on a qubit q outside its support,
# in units of max(1, its largest entry).
SUPPORT_TOL = 1e-12


def support(op: np.ndarray, n: int) -> tuple[int, ...]:
    """The qubits an n-qubit operator acts on: q is in the support iff op differs from
    tr_q(op)/2 x I_q.  An operator proportional to I, or zero, has the empty support."""
    tol = SUPPORT_TOL * max(1.0, np.max(np.abs(op)))

    def acts_on(q: int) -> bool:
        t = op.reshape(2**q, 2, 2 ** (n - q - 1), 2**q, 2, 2 ** (n - q - 1))
        traced = np.einsum("aibcid->abcd", t) / 2
        return np.max(np.abs(t - np.einsum("abcd,ij->aibcjd", traced, np.eye(2)))) > tol

    return tuple(q for q in range(n) if acts_on(q))


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

    def matrix(self) -> np.ndarray:
        m = np.array([[1.0]], dtype=complex)
        for c in self.letters:
            m = np.kron(m, PAULI[c])
        return m


def _check_term(kind: str, term) -> None:
    """Check the term's label, and store a read-only copy of its operator."""
    if not isinstance(term.label, str):
        raise TypeError(f"{kind} term label {term.label!r} is not a str")
    op = np.array(term.operator)
    op.setflags(write=False)
    object.__setattr__(term, "operator", op)


@dataclass(frozen=True)
class HamiltonianTerm:
    coefficient: float          # rad/s
    operator: np.ndarray        # dimensionless Hermitian operator
    label: str = ""

    def __post_init__(self):
        _check_term("Hamiltonian", self)
        if not linalg.is_hermitian(self.operator, 1e-12):
            raise ValueError(f"Hamiltonian term {self.label!r} is not Hermitian")

    def matrix(self) -> np.ndarray:
        return self.coefficient * self.operator


@dataclass(frozen=True)
class LindbladTerm:
    rate: float                 # 1/s
    operator: np.ndarray
    label: str = ""

    def __post_init__(self):
        _check_term("Lindblad", self)
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

    @cached_property
    def supports(self) -> tuple[tuple[int, ...], ...]:
        """Each dissipator's support, `support(operator, n)`, in term order.  A zero-rate
        term, whose dissipator is zero like an identity operator's, has the empty support."""
        return tuple(support(t.operator, self.n) if t.rate else () for t in self.lindblad_terms)

    @cached_property
    def acting_rates(self) -> tuple[float, ...]:
        """Each dissipator's rate where it acts and 0 where its support is empty, in term
        order: a term at rate 0 here gets no gate, no noise and no flips, and no bound."""
        return tuple(t.rate if s else 0.0 for t, s in zip(self.lindblad_terms, self.supports))

    @cached_property
    def _liouvillian(self) -> np.ndarray:
        h, eye = total_hamiltonian(self), np.eye(self.dim)
        ops = [np.sqrt(t.rate) * t.operator for t in self.lindblad_terms]
        gen = -1j * (np.kron(eye, h) - np.kron(h.T, eye))
        gen += linalg.dissipator_superop(np.reshape(ops, (-1, *h.shape)))
        gen.setflags(write=False)
        return gen

    @property
    def k_local(self) -> int:
        """Number of distinct non-empty dissipator supports (K)."""
        return len(set(self.supports) - {()})

    @property
    def max_locality(self) -> int:
        """Largest dissipator locality m: the size of the largest support."""
        return max(map(len, self.supports), default=0)


def total_hamiltonian(model: LindbladModel) -> np.ndarray:
    h = np.zeros((model.dim, model.dim), dtype=complex)
    for t in model.hamiltonian_terms:
        h += t.matrix()
    return h


def dissipator(model: LindbladModel, rho: np.ndarray) -> np.ndarray:
    """Action of the dissipator sum_k gamma_k (L rho L^dag - 1/2 {L^dag L, rho})."""
    out = np.zeros_like(rho, dtype=complex)
    for t in model.lindblad_terms:
        L = t.operator
        LdL = L.conj().T @ L
        out += t.rate * (L @ rho @ L.conj().T - 0.5 * (LdL @ rho + rho @ LdL))
    return out


def liouvillian(model: LindbladModel) -> np.ndarray:
    """Superoperator matrix acting on column-vectorized density matrices, built on first
    use and cached on the model as a read-only array."""
    return model._liouvillian

