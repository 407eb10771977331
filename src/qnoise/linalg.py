"""Dense complex linear algebra primitives for few-qubit simulations.

All functions take plain, dense ``numpy`` complex arrays in row-major layout: density
matrices up to ~128x128 and superoperators up to ~4096x4096.  Superoperators act on
`vec`, which stacks columns; `dissipator_superop` is the one dissipator superoperator.
"""
from __future__ import annotations

import math

import numpy as np


def _atol(a: np.ndarray, tol: float) -> float:
    scale = np.max(np.abs(a)) if a.size else 0.0
    return tol * max(1.0, scale)


def is_hermitian(a: np.ndarray, tol: float = 1e-10) -> bool:
    a = np.asarray(a)
    return a.shape[0] == a.shape[1] and np.max(np.abs(a - a.conj().T)) <= _atol(a, tol)


def taylor_degree(norm: float) -> int:
    """Least n with norm^(n+1)/(n+1)! <= 2^-53: where the Taylor series of exp(a) may stop
    when |a| <= norm <= 1 (Al-Mohy & Higham, SIAM J. Sci. Comput. 33, 2011)."""
    return next(n for n in range(40) if norm ** (n + 1) / math.factorial(n + 1) <= 2.0**-53)


def expm(a: np.ndarray) -> np.ndarray:
    """Matrix exponential by scaling and squaring: exp(a) = exp(a/2^s)^(2^s) for the least
    s with |a/2^s|_1 <= 1, the Taylor series of exp(a/2^s) cut by `taylor_degree` and
    summed by Horner's rule (Moler & Van Loan, SIAM Rev. 45, 2003).  Zero maps to I
    exactly, and a diagonal input gives an exactly diagonal output."""
    a = np.array(a, dtype=complex)
    norm = float(np.linalg.norm(a, 1))
    if not math.isfinite(norm):
        raise ValueError("expm needs a finite matrix")
    squarings = math.ceil(math.log2(norm)) if norm > 1 else 0
    a /= 2.0**squarings
    eye = np.eye(len(a), dtype=a.dtype)
    x = eye
    for j in range(taylor_degree(norm / 2.0**squarings), 0, -1):
        x = a @ x
        x /= j
        x += eye
    for _ in range(squarings):
        x = x @ x
    return x


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


def dissipator_superop(ops: np.ndarray, phases: np.ndarray | None = None) -> np.ndarray:
    """sum_p conj(B_p) x B_p - (I x G + G^T x I)/2 for G = sum_p B_p^dag B_p and a (..., d, d)
    stack B_p: rho -> sum_p B_p rho B_p^dag - {G, rho}/2 on `vec`(rho), since vec(B rho B^dag)
    = (conj(B) x B) vec(rho) (Havel, J. Math. Phys. 44, 534, 2003).

    Given a (..., d, d) stack `phases`, the pieces are every elementwise product
    phases[r] * ops[k], never formed: their jump tensor is the elementwise product of the
    two stacks' Gram matrices."""
    d = np.shape(ops)[-1]
    flat = np.asarray(ops, dtype=complex).reshape(-1, d * d)
    # jumps[a, b, c, e] = sum_p conj(B_p[a, b]) B_p[c, e]; G is its trace over a = c.
    jumps = flat.conj().T @ flat
    if phases is not None:
        flat = np.asarray(phases, dtype=complex).reshape(-1, d * d)
        jumps *= flat.conj().T @ flat
    jumps = jumps.reshape(d, d, d, d)
    g, eye = np.einsum("abae->be", jumps), np.eye(d)
    superop = jumps.transpose(0, 2, 1, 3).reshape(d * d, d * d)
    return superop - 0.5 * (np.kron(eye, g) + np.kron(g.T, eye))


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

