"""Dense complex linear algebra primitives for few-qubit simulations.

All functions operate on plain ``numpy`` complex arrays in row-major
layout.  Target sizes are density matrices up to ~128x128 and vectorized
superoperators up to ~4096x4096, so everything is dense.
"""
from __future__ import annotations

import numpy as np


def _atol(a: np.ndarray, tol: float) -> float:
    scale = np.max(np.abs(a)) if a.size else 0.0
    return tol * max(1.0, scale)


def is_hermitian(a: np.ndarray, tol: float = 1e-10) -> bool:
    a = np.asarray(a)
    return a.shape[0] == a.shape[1] and np.max(np.abs(a - a.conj().T)) <= _atol(a, tol)


def matexp_antihermitian(a: np.ndarray) -> np.ndarray:
    """Batched exp(kron(a, s+) - kron(a^dag, s-)) for blocks a of shape (..., d, d).

    The ancilla sits in the last tensor slot (index sys*2 + anc) and
    s+ = |1><0|, so in ancilla blocks the anti-Hermitian exponent is
    [[0, -a^dag], [a, 0]].  One d x d SVD a = W S V^dag per matrix gives
    [[V cos(S) V^dag, -V sin(S) W^dag], [W sin(S) V^dag, W cos(S) W^dag]],
    unitary to machine precision.
    """
    a = np.asarray(a, dtype=complex)
    w, s, vh = np.linalg.svd(a)
    v = vh.conj().swapaxes(-1, -2)
    wh = w.conj().swapaxes(-1, -2)
    cos = np.cos(s)[..., None, :]
    sin = np.sin(s)[..., None, :]
    d = a.shape[-1]
    out = np.empty(a.shape[:-2] + (2 * d, 2 * d), dtype=complex)
    out[..., 0::2, 0::2] = (v * cos) @ vh
    out[..., 0::2, 1::2] = -(v * sin) @ wh
    out[..., 1::2, 0::2] = (w * sin) @ vh
    out[..., 1::2, 1::2] = (w * cos) @ wh
    return out


def partial_trace_ancilla(rho_full: np.ndarray, system_dim: int) -> np.ndarray:
    """Trace out a 2-dimensional ancilla sitting in the last tensor slot."""
    rho_full = np.asarray(rho_full, dtype=complex)
    if rho_full.shape[-1] != 2 * system_dim or rho_full.shape[-2] != 2 * system_dim:
        raise ValueError(
            f"expected a {2 * system_dim}x{2 * system_dim} matrix, got {rho_full.shape}"
        )
    batch = rho_full.shape[:-2]
    r = rho_full.reshape(batch + (system_dim, 2, system_dim, 2))
    return np.einsum("...iaja->...ij", r)


def trace_distance(rho: np.ndarray, sigma: np.ndarray) -> float:
    """Half the trace norm of rho - sigma (assumes Hermitian inputs)."""
    rho = np.asarray(rho)
    sigma = np.asarray(sigma)
    if rho.shape != sigma.shape:
        raise ValueError(f"dimension mismatch: {rho.shape} vs {sigma.shape}")
    diff = rho - sigma
    diff = 0.5 * (diff + diff.conj().T)
    return float(0.5 * np.sum(np.abs(np.linalg.eigvalsh(diff))))


def vec(rho: np.ndarray) -> np.ndarray:
    """Column-stacking vectorization."""
    return np.asarray(rho, dtype=complex).reshape(-1, order="F")


def unvec(v: np.ndarray, dim: int) -> np.ndarray:
    return np.asarray(v, dtype=complex).reshape(dim, dim, order="F")


# A physical density matrix's tolerances.  The eigenvalue floor is slightly
# negative on purpose: Monte-Carlo averages produce tiny negative eigenvalues.
HERM_TOL, TRACE_TOL, EIG_FLOOR = 1e-10, 1e-9, -1e-8


def assert_density_matrix(rho: np.ndarray) -> None:
    """Raise ValueError unless rho is a physical density matrix."""
    rho = np.asarray(rho)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise ValueError(f"density matrix must be square, got shape {rho.shape}")
    herm_dev = np.max(np.abs(rho - rho.conj().T))
    if herm_dev > _atol(rho, HERM_TOL):
        raise ValueError(f"not Hermitian: max deviation {herm_dev:.3e}")
    tr_dev = abs(np.trace(rho) - 1.0)
    if tr_dev > TRACE_TOL:
        raise ValueError(f"trace deviates from 1 by {tr_dev:.3e}")
    min_eig = float(np.min(np.linalg.eigvalsh(0.5 * (rho + rho.conj().T))))
    if min_eig < EIG_FLOOR:
        raise ValueError(f"minimum eigenvalue {min_eig:.3e} below floor {EIG_FLOOR:.1e}")

