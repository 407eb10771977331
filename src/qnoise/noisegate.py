"""Stochastic gate construction on the (system x ancilla) space.

One time step of the open dynamics is realized by the random unitary

    N(dt) = U(dt) * prod_k exp(sqrt(gamma_k) S_k(dt)),

where S_k = sum_r J_k(s_r) dW_r integrates the coupling
J_k(s) = kron(L_k(s), sigma+) - kron(L_k(s)^dag, sigma-) against a Wiener
path on an M-node left-endpoint grid s_r = r*dt/M.  The ancilla is the
last tensor factor, so a full index decomposes as sys*2 + anc.

Everything is assembled from one table of d x d interaction-picture
operators L_k(s_r) = U(s_r)^dag L_k U(s_r) (`NoiseGatePlan.l_nodes`),
filled in one batched pass from one eigendecomposition of H (of each
Hamiltonian term under Trotterization).  With SIGMA_PLUS = |1><0| the
ancilla blocks of sqrt(gamma_k) S_k are [[0, -A^dag], [A, 0]], where
A = sqrt(gamma_k) sum_r L_k(s_r) dW_r is formed for a whole batch of
increments by one real GEMM against the table, and the SVD
A = W Sigma V^dag gives the exponential (`linalg.matexp_antihermitian`)

    [[V cos(Sigma) V^dag, -V sin(Sigma) W^dag],
     [W sin(Sigma) V^dag,  W cos(Sigma) W^dag]].

`expected_channel` evaluates the noise-average of the gate conjugation
(after tracing the ancilla) deterministically from the same table.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import linalg
from .model import LindbladModel, total_hamiltonian

TROTTER_MODES = ("exact", "order-1", "order-2")


def closed_propagator(model: LindbladModel, t, trotter: str = "exact") -> np.ndarray:
    """Closed-system propagator U(t) on the system space, batched over an array of times.

    `exact` exponentiates the full Hamiltonian; `order-1` and `order-2`
    are first-order and symmetric Trotter-Suzuki products over the
    Hamiltonian terms.  Each exponent is diagonalized once for all times.
    """
    if trotter not in TROTTER_MODES:
        raise ValueError(f"unknown trotter mode {trotter!r}, expected one of {TROTTER_MODES}")
    times = np.asarray(t, dtype=float)

    def evolution(h: np.ndarray, scale: float = 1.0) -> np.ndarray:
        w, v = np.linalg.eigh(h)
        phases = np.exp(-1j * scale * np.multiply.outer(times, w))
        return (v * phases[..., None, :]) @ v.conj().T

    if trotter == "exact" or not model.hamiltonian_terms:
        return evolution(total_hamiltonian(model))
    terms = [term.matrix() for term in model.hamiltonian_terms]
    if trotter == "order-1":
        factors = [evolution(h) for h in terms]
    else:  # order-2: symmetric product of half-steps
        halves = [evolution(h, 0.5) for h in terms]
        factors = halves + halves[::-1]
    u = factors[0]
    for f in factors[1:]:
        u = f @ u
    return u


def _interaction_table(model: LindbladModel, props: np.ndarray) -> np.ndarray:
    """L_k(s) = U(s)^dag L_k U(s) for every channel k and propagator U(s), shape (K, T, d, d)."""
    d = model.dim
    ops = np.array([t.operator for t in model.lindblad_terms], dtype=complex).reshape(-1, d, d)
    return props.conj().swapaxes(-1, -2)[None] @ ops[:, None] @ props[None]


def coupling_operator(L_s: np.ndarray) -> np.ndarray:
    """J(s) = kron(L(s), sigma+) - kron(L(s)^dag, sigma-) for a stack (..., d, d) of L(s)."""
    L_s = np.asarray(L_s, dtype=complex)
    d = L_s.shape[-1]
    j = np.zeros(L_s.shape[:-2] + (2 * d, 2 * d), dtype=complex)
    j[..., 1::2, 0::2] = L_s
    j[..., 0::2, 1::2] = -L_s.conj().swapaxes(-1, -2)
    return j


@dataclass(frozen=True)
class NoiseGatePlan:
    """Per-step precomputation shared by all trajectories.

    l_nodes[k, r] is the d x d operator L_k(s_r) at the nodes
    s_r = r*dt/M, r = 0..M.  The sampler and the expected channel both
    use the left endpoints r = 0..M-1.
    """

    dt: float
    trotter: str
    m_nodes: int                       # M
    nodes: np.ndarray                  # (M+1,) times in [0, dt]
    rates: np.ndarray                  # (K,) gamma_k
    l_nodes: np.ndarray                # (K, M+1, d, d)
    u_full: np.ndarray                 # kron(U(dt), I_2), shape (2d, 2d)
    system_dim: int

    @property
    def n_channels(self) -> int:
        return len(self.rates)


def build_plan(
    model: LindbladModel, dt: float, trotter: str = "exact", M: int = 8
) -> NoiseGatePlan:
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    if M < 1:
        raise ValueError(f"M must be >= 1, got {M}")
    nodes = np.linspace(0.0, dt, M + 1)
    props = closed_propagator(model, nodes, trotter)
    return NoiseGatePlan(
        dt=dt,
        trotter=trotter,
        m_nodes=M,
        nodes=nodes,
        rates=np.array([t.rate for t in model.lindblad_terms]),
        l_nodes=_interaction_table(model, props),
        u_full=linalg.kron(props[-1], np.eye(2)),
        system_dim=model.dim,
    )


def sample_increments(plan: NoiseGatePlan, rng: np.random.Generator, size=()) -> np.ndarray:
    """Wiener increments dW_r ~ Normal(0, dt/M), shape size + (K, M)."""
    shape = tuple(size) + (plan.n_channels, plan.m_nodes)
    return rng.normal(0.0, np.sqrt(plan.dt / plan.m_nodes), size=shape)


def gates_from_increments(plan: NoiseGatePlan, increments: np.ndarray) -> np.ndarray:
    """Batched gate assembly from pre-drawn increments.

    increments has shape (..., K, M); the result is a (..., 2d, 2d)
    stack of unitaries U(dt) * prod_k exp(sqrt(gamma_k) S_k), with the
    product taken in ascending channel index.
    """
    increments = np.asarray(increments, dtype=float)
    batch = increments.shape[:-2]
    d, M = plan.system_dim, plan.m_nodes
    gate = np.broadcast_to(plan.u_full, batch + (2 * d, 2 * d)).copy()
    for k in np.flatnonzero(plan.rates):
        # Real GEMM: (..., M) increments against the table viewed as (M, 2d^2) reals.
        table = plan.l_nodes[k, :M].reshape(M, d * d).view(np.float64)
        a = (increments[..., k, :] @ table).view(complex).reshape(batch + (d, d))
        gate = gate @ linalg.matexp_antihermitian(np.sqrt(plan.rates[k]) * a)
    return gate


def expected_channel(
    model: LindbladModel, dt: float, trotter: str = "exact", M: int = 8
) -> Callable[[np.ndarray], np.ndarray]:
    """Deterministic noise-average of the gate: rho -> U(rho + int D(s) rho ds) U^dag.

    The integral uses the same M-node left-endpoint grid as the sampler,
    so the channel is exactly the mean of the sampled conjugations to
    O((gamma dt)^2).  Over the active (channel, node) pieces
    B_p = sqrt(gamma_k dt/M) L_k(s_r) it applies
    rho + sum_p B_p rho B_p^dag - (G rho + rho G)/2, G = sum_p B_p^dag B_p,
    with the jump sum precontracted over p into one d^2 x d^2 matrix.
    """
    plan = build_plan(model, dt, trotter, M)
    d = model.dim
    active = np.flatnonzero(plan.rates)
    pieces = plan.l_nodes[active, :M]                # advanced indexing: a copy
    pieces *= np.sqrt(plan.rates[active] * dt / M)[:, None, None, None]
    flat = pieces.reshape(-1, d * d)                 # rows p, columns (i, j)
    # jumps[a, b, c, e] = sum_p conj(B_p[a, b]) B_p[c, e]; G is its trace over a = c.
    jumps = (flat.conj().T @ flat).reshape(d, d, d, d)
    g = np.einsum("abae->be", jumps)
    u = plan.u_full[0::2, 0::2]

    def channel(rho: np.ndarray) -> np.ndarray:
        rho = np.asarray(rho, dtype=complex)
        acc = rho + np.tensordot(jumps, rho, axes=([3, 1], [0, 1])).T
        acc -= 0.5 * (g @ rho + rho @ g)
        return u @ acc @ u.conj().T

    return channel
