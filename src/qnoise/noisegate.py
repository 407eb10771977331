"""Stochastic gate construction on the (system x ancilla) space.

One time step of the open dynamics is realized by the random unitary

    N(dt) = U(dt) * prod_k exp(sqrt(gamma_k) S_k(dt)),

where S_k = sum_r J_k(s_r) dW_r integrates the coupling
J_k(s) = kron(L_k(s), sigma+) - kron(L_k(s)^dag, sigma-) against a Wiener
path on an M-node left-endpoint grid s_r = r*dt/M.  The ancilla is the
last tensor factor, so a full index decomposes as sys*2 + anc.

The gates are assembled from one table of d x d interaction-picture
operators L_k(s_r) = U(s_r)^dag L_k U(s_r), r = 0..M-1, for the K channels that act
(`NoiseGatePlan.l_nodes`, shape (K, M, d, d)), filled by two batched products
over the M nodes, U(s_r)^dag [L_0 ... L_{K-1}] and then that times U(s_r), from
one eigendecomposition of H (of each Hamiltonian term under
Trotterization).  With SIGMA_PLUS = |1><0| the
ancilla blocks of sqrt(gamma_k) S_k are [[0, -A^dag], [A, 0]], where
A = sqrt(gamma_k) sum_r L_k(s_r) dW_r = sqrt(gamma_k) T_k^T dW for T_k the
table of channel k viewed as (M, 2d^2) reals.  So A is exactly
Normal(0, gamma_k (dt/M) T_k^T T_k) (Wiener integrals of deterministic
integrands; Kloeden & Platen 1992), and the sampler draws that law, not the
path: A = z F_k for r standard normals z and the factor F_k = sqrt(gamma_k dt/M) D Q^T
of the thin SVD T_k = P D Q^T, cut to its first r rows (`NoiseGatePlan.factors`).
r is the largest numerical rank over the channels, the rows above RANK_CUT times the
channel's largest singular value.  It stays small whatever M is: L_k(s) is a sum of
e^{i w s} L_k^w over the Bohr frequencies w of H (Breuer & Petruccione 2002, sec. 3.3),
so T_k spans a few real directions (3 of 8 rows on single-spin, 5 of 32 on two-molecule),
and the dropped rows change the law by less than RANK_CUT^2, relative.  The SVD
A = W Sigma V^dag of each sampled block gives the exponential (`linalg.matexp_antihermitian`)

    [[V cos(Sigma) V^dag, -V sin(Sigma) W^dag],
     [W sin(Sigma) V^dag,  W cos(Sigma) W^dag]].

The run path never forms it, in either mode: `gate_action` applies it to psi x |0>
by a truncated Taylor series that scales the (..., d) ancilla halves, not the blocks,
and holds one channel's [A; -A^dag; A] stack at a time.  `gates_from_increments` forms
it, as the reference that the tests compare `gate_action` and both run modes against.
`expected_channel` evaluates the grid law's dissipator to first order in gamma dt, as one
deterministic d^2 x d^2 matrix (`linalg.dissipator_superop`) over the same nodes.  Under
Trotterization it reads the table; in exact mode it builds none, and takes each node's
phases e^{i (E_a - E_b) s_r} from the Bohr frequencies of H instead.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from . import linalg
from .model import LindbladModel, total_hamiltonian

TROTTER_MODES = ("exact", "order-1", "order-2")

# A factor row whose singular value is at most RANK_CUT times its channel's largest is rounding.
RANK_CUT = 1e-14


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


def _acting(model: LindbladModel) -> tuple[np.ndarray, np.ndarray]:
    """The (K,) rates, all > 0, and (K, d, d) operators of the channels that act
    (`model.acting_rates`), in term order."""
    rates = [rate for rate in model.acting_rates if rate]
    ops = [t.operator for t, rate in zip(model.lindblad_terms, model.acting_rates) if rate]
    return np.array(rates), np.array(ops, dtype=complex).reshape(-1, model.dim, model.dim)


def _interaction_table(ops: np.ndarray, props: np.ndarray) -> np.ndarray:
    """L_k(s) = U(s)^dag L_k U(s) for every operator L_k of the (K, d, d) stack and propagator
    U(s), shape (K, T, d, d), C-contiguous, from two products per propagator whatever K is."""
    (K, d, _), T = ops.shape, len(props)
    # Two buffers of the table's size, used in turn: U^dag [L_0 ... L_{K-1}] in `a`, its
    # K blocks restacked as a (K d, d) column in `b`, times U back in `a`, grouped by k in `b`.
    a = props.conj().swapaxes(-1, -2) @ ops.transpose(1, 0, 2).reshape(d, K * d)
    b = a.reshape(T, d, K, d).transpose(0, 2, 1, 3).reshape(T, K * d, d)
    np.matmul(b, props, out=a.reshape(T, K * d, d))
    table = b.reshape(K, T, d, d)
    table[...] = a.reshape(T, K, d, d).transpose(1, 0, 2, 3)
    return table


@dataclass(frozen=True)
class NoiseGatePlan:
    """Per-step precomputation shared by all trajectories.

    Row k of `rates`, `l_nodes`, `factors` and the noise is the k-th channel that acts.
    l_nodes[k, r] is L_k(s_r) at the left-endpoint nodes s_r = r*dt/M, r = 0..M-1, which
    the sampler's factor and the expected channel both read.
    """

    dt: float
    m_nodes: int                       # M
    rates: np.ndarray                  # (K,) gamma_k > 0 of the channels that act
    l_nodes: np.ndarray                # (K, M, d, d), C-contiguous
    u: np.ndarray                      # U(dt), shape (d, d)
    system_dim: int

    @cached_property
    def factors(self) -> np.ndarray:
        """F_k = sqrt(gamma_k dt/M) D Q^T of T_k = P D Q^T, shape (K, r, 2d^2): z F_k for r
        standard normals z has A_k's law, to the rows dropped below RANK_CUT.  r is the largest
        count of singular values above RANK_CUT times their channel's largest, 0 if no channel
        acts.  Computed on first use, so the expected channel never does."""
        K, M, d, _ = self.l_nodes.shape
        table = self.l_nodes.reshape(K, M, d * d).view(np.float64)
        _, sv, vt = np.linalg.svd(table, full_matrices=False)
        # Rows come in descending order, so the largest numerical rank r is a prefix for all.
        r = int((sv > RANK_CUT * sv[:, :1]).sum(axis=1).max(initial=0))
        scale = np.sqrt(self.rates * self.dt / M)
        return (scale[:, None] * sv[:, :r])[..., None] * vt[:, :r]


def _grid(dt: float, M: int) -> np.ndarray:
    """The M + 1 times r*dt/M, r = 0..M: the left-endpoint nodes and then dt."""
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    if M < 1:
        raise ValueError(f"M must be >= 1, got {M}")
    return np.linspace(0.0, dt, M + 1)


def build_plan(model: LindbladModel, dt: float, trotter: str = "exact",
               M: int = 8) -> NoiseGatePlan:
    props = closed_propagator(model, _grid(dt, M), trotter)
    rates, ops = _acting(model)
    return NoiseGatePlan(dt=dt, m_nodes=M, rates=rates, l_nodes=_interaction_table(ops, props[:M]),
                         u=props[-1], system_dim=model.dim)


def sample_noise(plan: NoiseGatePlan, rng: np.random.Generator, size=()) -> np.ndarray:
    """Standard normals of shape size + plan.factors.shape[:2], one row per channel."""
    return rng.standard_normal(tuple(size) + plan.factors.shape[:2])


def _channel_block(plan: NoiseGatePlan, noise: np.ndarray, k: int) -> np.ndarray:
    """A_k = z_k F_k, (..., d, d), for the plan's channel k."""
    noise = np.asarray(noise, dtype=float)
    # Real GEMM of the (..., r) normals and the (r, 2d^2) factor, viewed as d x d complex.
    a = noise[..., k, :] @ plan.factors[k]
    return a.view(complex).reshape(noise.shape[:-2] + (plan.system_dim,) * 2)


def gates_from_increments(plan: NoiseGatePlan, noise: np.ndarray) -> np.ndarray:
    """The (..., 2d, 2d) stack of unitaries U(dt) * prod_k exp(sqrt(gamma_k) S_k), product
    in ascending channel index, from noise drawn by `sample_noise`, shape (..., K, r).
    The formed-gate reference: the engine applies the gate by `gate_action` instead."""
    closed = np.kron(plan.u, np.eye(2))
    gate = np.broadcast_to(closed, np.shape(noise)[:-2] + closed.shape).copy()
    for k in range(len(plan.factors)):
        gate = gate @ linalg.matexp_antihermitian(_channel_block(plan, noise, k))
    return gate


def gate_action(plan: NoiseGatePlan, noise: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """gates_from_increments(plan, noise) @ (psi x |0>) for psi of shape (..., d),
    without forming a gate: each exp([[0, -A^dag], [A, 0]]) acts on the ancilla halves
    by its Taylor series in ceil(|A|) equal sub-steps when |A| > 1, for |A| the batch's
    largest Frobenius norm, each cut at `linalg.taylor_degree`.  The n = psi.size / d pairs
    of halves are one (2n, d) stack [x0; x1], so each term is one `einsum`, one scale and
    one add.  Result shape (..., 2d)."""
    (K, r, _), d = plan.factors.shape, plan.system_dim
    batch = np.shape(psi)[:-1]
    n = math.prod(batch)
    noise = np.asarray(noise, dtype=float).reshape(n, K, r)
    x = np.zeros((2 * n, d), dtype=complex)
    x[:n] = np.reshape(psi, (n, d))
    x0, x1, swapped = x[:n], x[n:], x.reshape(2, n, d)[::-1]
    # One buffer for each channel's [A; -A^dag; A] in turn: odd terms map [t0; t1] by
    # [A; -A^dag] to the next term's halves swapped, even terms map those back by [-A^dag; A].
    ops = np.empty((3 * n, d, d), dtype=complex)
    odd, even = ops[:2 * n], ops[n:]
    a = ops[:n].reshape(n, d * d).view(float)   # A as (n, 2d^2) reals, z F_k written in place
    # The gate is U E_0 ... E_{K-1}, so the last channel acts first, on x1 = 0.
    for k in reversed(range(K)):
        np.matmul(noise[:, k], plan.factors[k], out=a)
        norm = math.sqrt((a[:, None] @ a[:, :, None]).max(initial=0.0))   # no block temporary
        steps = max(1, math.ceil(norm))
        degree = linalg.taylor_degree(norm / steps)
        np.conjugate(ops[:n].swapaxes(-1, -2), out=even[:n])
        np.negative(even[:n], out=even[:n])
        if k == K - 1 and steps == 1:
            # One half stays zero: term j is A t0 into x1 (j odd) or -A^dag t1 into x0.
            t = x0
            for j in range(1, degree + 1):
                t = np.einsum("...ij,...j->...i", odd[:n] if j % 2 else even[:n], t)
                t *= 1.0 / j
                half = x1 if j % 2 else x0
                half += t
            continue
        ops[2 * n:] = ops[:n]
        for _ in range(steps):
            t = x
            for j in range(1, degree + 1):
                t = np.einsum("...ij,...j->...i", odd if j % 2 else even, t)
                t *= 1.0 / (j * steps)
                if j % 2:
                    swapped += t.reshape(2, n, d)
                else:
                    x += t
    # U(dt) on the (n, d, 2) stack of halves, flattened to index sys*2 + anc.
    out = plan.u @ np.stack((x0, x1), axis=-1)
    return out.reshape(batch + (2 * d,))


def expected_channel(model: LindbladModel, dt: float, trotter: str = "exact",
                     M: int = 8) -> Callable[[np.ndarray], np.ndarray]:
    """The first-order channel of the grid law: rho -> U(rho + int D(s) rho ds) U^dag.

    The integral uses the same M-node left-endpoint grid whose law the sampler draws, so
    this is that law's dissipator to first order in gamma dt.  The mean of the sampled
    conjugations differs from it at O((gamma dt)^2), the order of the scheme's own error.
    It is one d^2 x d^2 matrix on `linalg.vec`(rho), built once: (conj(U) x U)(I + D) for D
    the `linalg.dissipator_superop` of the pieces B_p = sqrt(gamma_k dt/M) L_k(s_r), k acting.

    In exact mode no table is built.  With H = V diag(E) V^dag, L_k(s) = V (phi(s) * L~_k) V^dag
    for L~_k = V^dag L_k V and phi(s)[a, b] = e^{i (E_a - E_b) s} (the Bohr-frequency
    decomposition; Breuer & Petruccione 2002, sec. 3.3), so D = W D~ W^dag with W = conj(V) x V
    and D~ the superoperator of the K x M products phi(s_r) * L~_k, taken from their K-term and
    M-term Gram matrices.  The Trotter modes' U(s) has no such form; they read the plan's table.
    """
    d = model.dim
    if trotter == "exact":
        nodes = _grid(dt, M)[:M]
        rates, ops = _acting(model)
        e, v = np.linalg.eigh(total_hamiltonian(model))
        ops = v.conj().T @ ops @ v * np.sqrt(rates * dt / M)[:, None, None]
        p = np.exp(1j * np.multiply.outer(nodes, e))
        w = np.kron(v.conj(), v)
        diss = w @ linalg.dissipator_superop(ops, p[:, :, None] * p.conj()[:, None, :]) @ w.conj().T
        u = closed_propagator(model, dt)
    else:
        plan = build_plan(model, dt, trotter, M)
        scale = np.sqrt(plan.rates * dt / M)[:, None, None, None]
        diss = linalg.dissipator_superop(plan.l_nodes * scale)
        u = plan.u
    phi = np.kron(u.conj(), u) @ (np.eye(d * d) + diss)
    return lambda rho: linalg.unvec(phi @ linalg.vec(rho), d)
