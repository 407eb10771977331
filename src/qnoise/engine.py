"""Monte-Carlo ensemble execution of the stochastic gate scheme.

Each realization alternates a sampled gate on the (system x ancilla)
space with an ancilla reset, in one of two equivalent modes:

- measure-reset: keep a pure statevector, measure the ancilla in the
  computational basis and flip outcome 1 back to |0>.
- partial-trace: keep the full density matrix, trace the ancilla out and
  re-append it as |0><0|.

Reproducibility: every trajectory derives its noise and measurement
streams from (master_seed, trajectory_index) via a splitmix64-style
mixer, and aggregation reduces fixed-size chunks in index order, so the
result is bit-identical for any worker-pool size.  It is not
bit-identical across chunk sizes: the chunk size sets the order of the
floating-point reduction.  Chunks are the unit of parallelism, so a run
that fits in one chunk uses one thread.

Memory: a chunk draws its Wiener increments one block of steps at a time
into one buffer of at most NOISE_BLOCK_BYTES (or one step, if larger), so
the noise memory does not grow with n_steps.  Streams are read in order,
and the values do not depend on the block size.
"""
from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from . import linalg
from .model import LindbladModel
from .noisegate import NoiseGatePlan, build_plan, gates_from_increments, sample_increments

_MASK64 = (1 << 64) - 1


def _splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def trajectory_seed(master_seed: int, index: int, stream: int) -> int:
    """Decorrelated 64-bit seed for one (trajectory, stream) pair."""
    s = _splitmix64((master_seed & _MASK64) ^ _splitmix64(index & _MASK64))
    return _splitmix64(s ^ _splitmix64((stream ^ 0xD1B54A32D192ED03) & _MASK64))


MODES = ("measure-reset", "partial-trace")


@dataclass
class RunConfig:
    model: LindbladModel
    dt: float
    n_steps: int
    n_realizations: int = 1
    master_seed: int = 0
    mode: str = "measure-reset"
    m_nodes: int = 8
    trotter: str = "exact"
    observables: Sequence[tuple[str, np.ndarray]] = ()
    initial_state: Optional[np.ndarray] = None   # statevector (d,) or density matrix (d,d)
    record_rho: bool = False
    threads: int = 1
    chunk_size: int = 1024

    def __post_init__(self):
        if self.dt <= 0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        if self.n_steps < 1:
            raise ValueError(f"n_steps must be >= 1, got {self.n_steps}")
        if self.n_realizations < 1:
            raise ValueError(f"n_realizations must be >= 1, got {self.n_realizations}")
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}, expected one of {MODES}")
        if self.threads < 1:
            raise ValueError(f"threads must be >= 1, got {self.threads}")
        if self.chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1, got {self.chunk_size}")
        d = self.model.dim
        for label, op in self.observables:
            op = np.asarray(op)
            if op.shape != (d, d):
                raise ValueError(f"observable {label!r} has shape {op.shape}, expected {(d, d)}")
            if not linalg.is_hermitian(op, 1e-10):
                raise ValueError(f"observable {label!r} is not Hermitian")

    def initial_vector(self) -> np.ndarray:
        """System statevector; rejects mixed inputs (needed by measure-reset)."""
        d = self.model.dim
        if self.initial_state is None:
            psi = np.zeros(d, dtype=complex)
            psi[0] = 1.0
            return psi
        st = np.asarray(self.initial_state, dtype=complex)
        if st.shape == (d,):
            norm = np.linalg.norm(st)
            if not np.isclose(norm, 1.0, atol=1e-9):
                raise ValueError(f"initial statevector norm {norm} != 1")
            return st / norm
        raise ValueError(
            f"measure-reset mode needs a pure initial statevector of shape ({d},), "
            f"got shape {st.shape}"
        )

    def initial_density(self) -> np.ndarray:
        d = self.model.dim
        if self.initial_state is None or np.asarray(self.initial_state).shape == (d,):
            psi = self.initial_vector()
            return np.outer(psi, psi.conj())
        rho = np.asarray(self.initial_state, dtype=complex)
        if rho.shape != (d, d):
            raise ValueError(f"initial state has shape {rho.shape}, expected ({d},) or ({d},{d})")
        linalg.assert_density_matrix(rho)
        return rho


@dataclass
class EnsembleResult:
    times: np.ndarray                       # (n_steps+1,)
    observable_labels: tuple[str, ...]
    means: np.ndarray                       # (n_obs, n_steps+1)
    stderrs: np.ndarray                     # (n_obs, n_steps+1)
    flip_fraction: np.ndarray               # (n_steps,) ancilla outcome-1 rate
    rho_mean: Optional[np.ndarray]          # (n_steps+1, d, d) if recorded
    rho_second_moment: Optional[np.ndarray] # (n_steps+1, d^2, d^2) if recorded
    n_realizations: int
    master_seed: int
    mode: str

    def observable(self, label: str, step: Optional[int] = None):
        i = self.observable_labels.index(label)
        if step is None:
            return self.means[i], self.stderrs[i]
        return self.means[i, step], self.stderrs[i, step]


class TrajectoryError(RuntimeError):
    """A trajectory hit a numerically degenerate (zero-norm) branch."""


@dataclass
class _ChunkStats:
    """Running sums over trajectories; reduction over chunks is exact."""

    obs_sum: np.ndarray     # (n_obs, n_steps+1)
    obs_sumsq: np.ndarray   # (n_obs, n_steps+1)
    flips: np.ndarray       # (n_steps,)
    rho_sum: Optional[np.ndarray]
    rho_outer_sum: Optional[np.ndarray]
    count: int

    def add(self, other: "_ChunkStats") -> None:
        self.obs_sum += other.obs_sum
        self.obs_sumsq += other.obs_sumsq
        self.flips += other.flips
        if self.rho_sum is not None:
            self.rho_sum += other.rho_sum
            self.rho_outer_sum += other.rho_outer_sum
        self.count += other.count


# Byte budget of a chunk's Wiener-increment buffer, refilled one block of steps at a time.
NOISE_BLOCK_BYTES = 4 << 20


def _step_noise(config: RunConfig, plan: NoiseGatePlan, indices: np.ndarray):
    """Yield each step's Wiener increments (B, K, M) and measurement uniforms (B,).

    Every trajectory's two streams are read in order, one block of steps at
    a time, into one reused buffer, so the values equal a one-call draw.
    The yielded arrays are views that the next block overwrites.
    """
    B, K, M = len(indices), plan.n_channels, plan.m_nodes
    n_steps = config.n_steps
    block = min(n_steps, max(1, NOISE_BLOCK_BYTES // max(1, B * K * M * 8)))
    inc = np.empty((B, block, K, M))
    uni = np.empty((B, block))

    def streams(idx):
        seeds = (trajectory_seed(config.master_seed, int(idx), s) for s in (0, 1))
        return [np.random.Generator(np.random.PCG64(seed)) for seed in seeds]

    # A live Generator costs about 5 KB, so the chunk's 2B streams are held
    # between blocks only when there is more than one block.
    held = [streams(idx) for idx in indices] if block < n_steps else None
    for start in range(0, n_steps, block):
        nb = min(block, n_steps - start)
        for b, idx in enumerate(indices):
            g_noise, g_meas = held[b] if held else streams(idx)
            inc[b, :nb] = sample_increments(plan, g_noise, (nb,))
            uni[b, :nb] = g_meas.random(nb)
        for j in range(nb):
            yield inc[:, j], uni[:, j]


def _record(stats: _ChunkStats, step: int, obs_stack, psi=None, rho=None):
    if rho is None:
        rho = np.einsum("bi,bj->bij", psi, psi.conj())
    if obs_stack.size:
        vals = np.einsum("oij,bji->ob", obs_stack, rho).real
        stats.obs_sum[:, step] += vals.sum(axis=1)
        stats.obs_sumsq[:, step] += (vals**2).sum(axis=1)
    if stats.rho_sum is not None:
        stats.rho_sum[step] += rho.sum(axis=0)
        d = rho.shape[-1]
        # Column-stacking vec of each trajectory state; second moment
        # yields a standard error for any linear observable afterwards.
        v = rho.transpose(0, 2, 1).reshape(len(rho), d * d)
        stats.rho_outer_sum[step] += np.einsum("bi,bj->ij", v, v.conj())


def _new_stats(config: RunConfig, n_obs: int) -> _ChunkStats:
    d = config.model.dim
    return _ChunkStats(
        obs_sum=np.zeros((n_obs, config.n_steps + 1)),
        obs_sumsq=np.zeros((n_obs, config.n_steps + 1)),
        flips=np.zeros(config.n_steps),
        rho_sum=np.zeros((config.n_steps + 1, d, d), complex) if config.record_rho else None,
        rho_outer_sum=(
            np.zeros((config.n_steps + 1, d * d, d * d), complex) if config.record_rho else None
        ),
        count=0,
    )


def measure_ancilla(full: np.ndarray, uniforms: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Measure the last-qubit ancilla of (B, 2d) states, outcome 1 when uniforms < p1,
    and reset it to |0>: the normalised (B, d) system states and the outcome-1 mask.
    Raises TrajectoryError on a numerically zero-norm branch."""
    odd = full[:, 1::2]
    outcome1 = uniforms < np.sum(np.abs(odd) ** 2, axis=1)
    branch = np.where(outcome1[:, None], odd, full[:, 0::2])
    norms = np.linalg.norm(branch, axis=1)
    if np.any(norms < 1e-12):
        raise TrajectoryError(f"zero-norm measurement branch in batch entry {np.argmin(norms)}")
    return branch / norms[:, None], outcome1


def _run_chunk(config: RunConfig, plan: NoiseGatePlan, obs_stack: np.ndarray,
               indices: np.ndarray) -> _ChunkStats:
    noise = _step_noise(config, plan, indices)
    B = len(indices)
    d = config.model.dim
    stats = _new_stats(config, len(obs_stack))
    stats.count = B

    if config.mode == "measure-reset":
        psi = np.broadcast_to(config.initial_vector(), (B, d)).copy()
        _record(stats, 0, obs_stack, psi=psi)
        for j, (inc, uni) in enumerate(noise):
            gates = gates_from_increments(plan, inc)
            full = np.zeros((B, 2 * d), dtype=complex)
            full[:, 0::2] = psi
            psi, outcome1 = measure_ancilla(np.einsum("bij,bj->bi", gates, full), uni)
            stats.flips[j] += outcome1.sum()
            _record(stats, j + 1, obs_stack, psi=psi)
    else:  # partial-trace
        rho = np.broadcast_to(config.initial_density(), (B, d, d)).copy()
        _record(stats, 0, obs_stack, rho=rho)
        for j, (inc, _) in enumerate(noise):
            gates = gates_from_increments(plan, inc)
            full = np.zeros((B, 2 * d, 2 * d), dtype=complex)
            full[:, 0::2, 0::2] = rho
            full = gates @ full @ gates.conj().transpose(0, 2, 1)
            # Ancilla outcome-1 weight before the trace, for the audit trail.
            stats.flips[j] += np.einsum("bii->b", full[:, 1::2, 1::2]).real.sum()
            rho = linalg.partial_trace_ancilla(full, d)
            _record(stats, j + 1, obs_stack, rho=rho)
    return stats


def run_ensemble(config: RunConfig) -> EnsembleResult:
    """Average Alg.-style trajectories over n_realizations realizations."""
    plan = build_plan(config.model, config.dt, config.trotter, config.m_nodes)
    d = config.model.dim
    obs_stack = (
        np.array([np.asarray(op, dtype=complex) for _, op in config.observables])
        if config.observables
        else np.zeros((0, d, d), complex)
    )

    all_indices = np.arange(config.n_realizations)
    chunks = [
        all_indices[i : i + config.chunk_size]
        for i in range(0, config.n_realizations, config.chunk_size)
    ]
    if config.threads > 1 and len(chunks) > 1:
        with ThreadPoolExecutor(max_workers=config.threads) as pool:
            results = list(pool.map(lambda c: _run_chunk(config, plan, obs_stack, c), chunks))
    else:
        results = [_run_chunk(config, plan, obs_stack, c) for c in chunks]

    total = _new_stats(config, len(obs_stack))
    for r in results:
        total.add(r)

    n = total.count
    means = total.obs_sum / n
    if n > 1:
        var = (total.obs_sumsq - total.obs_sum**2 / n) / (n - 1)
        stderrs = np.sqrt(np.maximum(var, 0.0) / n)
    else:
        stderrs = np.zeros_like(means)

    return EnsembleResult(
        times=np.arange(config.n_steps + 1) * config.dt,
        observable_labels=tuple(label for label, _ in config.observables),
        means=means,
        stderrs=stderrs,
        flip_fraction=total.flips / n,
        rho_mean=total.rho_sum / n if config.record_rho else None,
        rho_second_moment=(
            total.rho_outer_sum / n if config.record_rho else None
        ),
        n_realizations=n,
        master_seed=config.master_seed,
        mode=config.mode,
    )


def run_trajectory(config: RunConfig, realization_index: int) -> np.ndarray:
    """Per-step system density matrices of one realization, shape (n_steps+1, d, d)."""
    plan = build_plan(config.model, config.dt, config.trotter, config.m_nodes)
    d = config.model.dim
    single = replace(
        config, n_realizations=1, observables=(), record_rho=True, threads=1, chunk_size=1
    )
    obs_stack = np.zeros((0, d, d), complex)
    stats = _run_chunk(single, plan, obs_stack, np.array([realization_index]))
    return stats.rho_sum


def estimate_observable(result: EnsembleResult, op, step: int) -> tuple[float, float]:
    """(mean, standard error) of an observable at a recorded step.

    `op` is either the label of a configured observable or a Hermitian
    matrix; the matrix path needs record_rho so that the per-trajectory
    variance can be reconstructed from the stored second moment.
    """
    n_steps = len(result.times) - 1
    if not 0 <= step <= n_steps:
        raise IndexError(f"step {step} out of range [0, {n_steps}]")
    if isinstance(op, str):
        return result.observable(op, step)
    if result.rho_mean is None:
        raise ValueError("matrix observables require record_rho=True")
    op = np.asarray(op, dtype=complex)
    mean = float(np.trace(op @ result.rho_mean[step]).real)
    # Tr(O rho) = vec(O^T) . vec(rho) in the column-stacking convention.
    o = op.T.reshape(-1)
    second = float((o.conj() @ result.rho_second_moment[step] @ o).real)
    n = result.n_realizations
    if n < 2:
        return mean, 0.0
    var = max(0.0, (second - mean**2) * n / (n - 1))
    return mean, float(np.sqrt(var / n))
