"""Monte-Carlo ensemble execution of the stochastic gate scheme.

Each realization alternates a sampled gate on the (system x ancilla)
space with an ancilla reset, in one of two equivalent modes:

- measure-reset: keep a pure statevector, measure the ancilla in the
  computational basis and flip outcome 1 back to |0>.
- partial-trace: keep the system density matrix, trace the ancilla out and
  re-append it as |0><0|.

Since the ancilla always enters in |0>, a step needs only the gate's action
on state x |0>, which both modes apply by a truncated Taylor series
(`noisegate.gate_action`): measure-reset to the statevector, partial-trace to
the d basis states e_j x |0>, whose images are the gate's ancilla-0 columns, a
2d x d isometry that it conjugates with.  The run is described by
`config.RunConfig`, which checks its fields and resolves the start state
(`start_state`) on construction.

Reproducibility: every trajectory derives its noise and measurement
streams from (master_seed, trajectory_index) via a splitmix64-style
mixer, and aggregation reduces fixed-size chunks in index order, so the
result is bit-identical for any worker-pool size.  It is not
bit-identical across chunk sizes: the chunk size sets the order of the
floating-point reduction.  Chunks are the unit of parallelism: a run
starts min(threads, chunks, CPU count) worker threads, submits at most
one chunk per worker ahead of the next chunk to fold, and folds in index
order, so memory does not grow with the chunk count.  With one worker it
starts no pool and runs the chunks in order on the calling thread.  Standard
errors come from centred sums of squares, merged pairwise across chunks, so
they agree across chunk sizes to rounding even when the spread is tiny.

Noise: standard normals, one per row of `NoiseGatePlan.factors` for each channel
that acts (`acting_rates`), that `noisegate` multiplies by the channel's factor.
A chunk draws them one block of steps at a time into one buffer of at most
NOISE_BLOCK_BYTES (or one step, if larger), so the noise memory does not grow
with n_steps.
Streams are read in order, and the values do not depend on the block size.

Streams: each (trajectory, stream) seed s gives a PCG64 stream whose 128-bit
state and odd increment are the next four splitmix64 outputs from s, so
trajectory i's stream k is a PCG64 set to the state
`_stream_states(trajectory_seed(master_seed, i, k))`.  A chunk computes all
its start states in one vectorized pass, and draws through one Generator per
stream that it points at each trajectory's state in turn.  Between blocks it
holds only each stream's state and increment, not a live Generator per stream.
"""
from __future__ import annotations

import os
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional

import numpy as np
# numpy loads numpy.random lazily; naming it here loads it on import, not inside the first run.
from numpy.random import PCG64, Generator

from . import linalg
from .config import RunConfig
from .noisegate import NoiseGatePlan, build_plan, gate_action, sample_noise
# Off the run path, but perfbench/spans.py wraps it under this name.
from .noisegate import gates_from_increments  # noqa: F401

_MASK64 = (1 << 64) - 1


def _splitmix64(x: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer on a uint64 array; the arithmetic wraps mod 2^64."""
    x = x + 0x9E3779B97F4A7C15
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
    x = (x ^ (x >> 27)) * 0x94D049BB133111EB
    return x ^ (x >> 31)


def trajectory_seed(master_seed: int, index, stream: int):
    """Decorrelated 64-bit seed for one (trajectory, stream) pair: an int for an int index,
    a uint64 array for an integer array of indices (cast, so taken mod 2^64)."""
    idx = np.asarray(index).astype(np.uint64) if np.ndim(index) else np.uint64(int(index) & _MASK64)
    salt = np.uint64((stream ^ 0xD1B54A32D192ED03) & _MASK64)
    s = _splitmix64(np.uint64(master_seed & _MASK64) ^ _splitmix64(np.atleast_1d(idx)))
    seeds = _splitmix64(s ^ _splitmix64(np.atleast_1d(salt)))
    return seeds if np.ndim(index) else int(seeds[0])


def _stream_states(seeds: np.ndarray) -> tuple[list[int], list[int]]:
    """PCG64 (state, inc) for each uint64 seed s, in one pass: the next four outputs w0..w3
    of a splitmix64 generator started at s give state w0:w1 and the odd inc w2:w3 | 1."""
    seeds = np.array(seeds, dtype=np.uint64, ndmin=1)
    w0, w1, w2, w3 = (_splitmix64(seeds + np.uint64(i * 0x9E3779B97F4A7C15 & _MASK64)).tolist()
                      for i in range(4))
    return [hi << 64 | lo for hi, lo in zip(w0, w1)], [hi << 64 | lo | 1 for hi, lo in zip(w2, w3)]


@dataclass
class EnsembleResult:
    times: np.ndarray                       # (n_steps+1,)
    observable_labels: tuple[str, ...]
    means: np.ndarray                       # (n_obs, n_steps+1)
    stderrs: np.ndarray                     # (n_obs, n_steps+1)
    flip_fraction: np.ndarray               # (n_steps,) ancilla outcome-1 rate
    rho_mean: Optional[np.ndarray]          # (n_steps+1, d, d) if recorded
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
    """Sums over a run of trajectories, merged chunk by chunk in index order."""

    obs_sum: np.ndarray     # (n_obs, n_steps+1)
    obs_m2: np.ndarray      # (n_obs, n_steps+1) squared deviations from the chunk mean
    flips: np.ndarray       # (n_steps,)
    rho_sum: Optional[np.ndarray]
    count: int

    def add(self, other: "_ChunkStats") -> None:
        # Pairwise update of the centred sums (Chan, Golub & LeVeque 1983):
        # unlike sum(x^2) - sum(x)^2/n it does not cancel when the spread is tiny.
        if self.count:
            delta = other.obs_sum / other.count - self.obs_sum / self.count
            self.obs_m2 += delta**2 * (self.count * other.count / (self.count + other.count))
        self.obs_m2 += other.obs_m2
        self.obs_sum += other.obs_sum
        self.flips += other.flips
        if self.rho_sum is not None:
            self.rho_sum += other.rho_sum
        self.count += other.count


# Byte budget of a chunk's noise buffer, refilled one block of steps at a time.
NOISE_BLOCK_BYTES = 4 << 20


def _step_noise(config: RunConfig, plan: NoiseGatePlan, indices: np.ndarray):
    """Yield each step's gate noise (B, K_active, r) and measurement uniforms (B,).

    Every trajectory's two streams are read in order, one block of steps at
    a time, into one reused buffer, so the values equal a one-call draw.
    The yielded arrays are views that the next block overwrites.
    """
    B, (K, r) = len(indices), plan.factors.shape[:2]
    n_steps = config.n_steps
    block = min(n_steps, max(1, NOISE_BLOCK_BYTES // max(1, B * K * r * 8)))
    noise = np.empty((B, block, K, r))
    uni = np.empty((B, block))

    # One Generator per stream, pointed at each trajectory's PCG64 state in turn.  Its
    # draws take whole 64-bit outputs, so between blocks a stream needs only its state.
    streams = [_stream_states(trajectory_seed(config.master_seed, indices, s)) for s in (0, 1)]
    gens = [Generator(PCG64(0)) for _ in streams]
    bits = [g.bit_generator for g in gens]
    for start in range(0, n_steps, block):
        nb = min(block, n_steps - start)
        for b in range(B):
            for (states, incs), bit in zip(streams, bits):
                bit.state = {"bit_generator": "PCG64", "has_uint32": 0, "uinteger": 0,
                             "state": {"state": states[b], "inc": incs[b]}}
            noise[b, :nb] = sample_noise(plan, gens[0], (nb,))
            uni[b, :nb] = gens[1].random(nb)
            if start + nb < n_steps:
                for (states, _), bit in zip(streams, bits):
                    states[b] = bit.state["state"]["state"]
        for j in range(nb):
            yield noise[:, j], uni[:, j]


def _record(stats: _ChunkStats, step: int, obs_stack, state: np.ndarray):
    """Add one step's (B, d) statevectors or (B, d, d) density matrices."""
    rho = state if state.ndim == 3 else np.einsum("bi,bj->bij", state, state.conj())
    vals = np.einsum("oij,bji->ob", obs_stack, rho).real
    total = vals.sum(axis=1)
    stats.obs_sum[:, step] += total
    # Two passes over the chunk's values of this step: centre, then square.
    stats.obs_m2[:, step] += ((vals - (total / len(rho))[:, None]) ** 2).sum(axis=1)
    if stats.rho_sum is not None:
        stats.rho_sum[step] += rho.sum(axis=0)


def _new_stats(config: RunConfig, n_obs: int) -> _ChunkStats:
    d = config.model.dim
    return _ChunkStats(
        obs_sum=np.zeros((n_obs, config.n_steps + 1)),
        obs_m2=np.zeros((n_obs, config.n_steps + 1)),
        flips=np.zeros(config.n_steps),
        rho_sum=np.zeros((config.n_steps + 1, d, d), complex) if config.record_rho else None,
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
    B = len(indices)
    d = config.model.dim
    stats = _new_stats(config, len(obs_stack))
    stats.count = B
    measure = config.mode == "measure-reset"
    state = np.broadcast_to(config.start_state, (B,) + config.start_state.shape).copy()
    _record(stats, 0, obs_stack, state)
    for j, (noise, uni) in enumerate(_step_noise(config, plan, indices)):
        if measure:
            state, outcome1 = measure_ancilla(gate_action(plan, noise, state), uni)
            stats.flips[j] += outcome1.sum()
        else:
            # The ancilla enters in |0>, so only the gate's (2d, d) ancilla-0 columns act: its
            # action on each e_j x |0>, each trajectory's noise repeated over its d rows so that
            # every Taylor term is one matvec per row of a flat (B d, d) stack.
            cols = gate_action(plan, np.repeat(noise, d, axis=0), np.tile(np.eye(d), (B, 1)))
            cols = cols.reshape(B, d, 2 * d).transpose(0, 2, 1)
            full = cols @ state @ cols.conj().transpose(0, 2, 1)
            # Ancilla outcome-1 weight before the trace, for the audit trail.
            stats.flips[j] += np.einsum("bii->b", full[:, 1::2, 1::2]).real.sum()
            state = linalg.partial_trace_ancilla(full, d)
        _record(stats, j + 1, obs_stack, state)
    return stats


def run_ensemble(config: RunConfig) -> EnsembleResult:
    """Average Alg.-style trajectories over n_realizations realizations."""
    plan = build_plan(config.model, config.dt, config.trotter, config.m_nodes)
    d = config.model.dim
    obs_stack = np.array([op for _, op in config.observables], dtype=complex).reshape(-1, d, d)

    starts = range(0, config.n_realizations, config.chunk_size)
    workers = min(config.threads, len(starts), os.cpu_count() or 1)
    chunks = (np.arange(i, min(i + config.chunk_size, config.n_realizations)) for i in starts)
    total = _new_stats(config, len(obs_stack))
    if workers == 1:
        # No pool to start and join: the chunks run in order on this thread.
        for indices in chunks:
            total.add(_run_chunk(config, plan, obs_stack, indices))
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            # Up to `workers` chunks ahead of the fold: no worker idles, and memory stays bounded.
            pending = deque()
            for indices in chunks:
                pending.append(pool.submit(_run_chunk, config, plan, obs_stack, indices))
                if len(pending) > workers:
                    total.add(pending.popleft().result())
            for future in pending:
                total.add(future.result())

    n = total.count
    means = total.obs_sum / n
    stderrs = np.sqrt(total.obs_m2 / (n - 1) / n) if n > 1 else np.zeros_like(means)

    return EnsembleResult(
        times=np.arange(config.n_steps + 1) * config.dt,
        observable_labels=tuple(label for label, _ in config.observables),
        means=means,
        stderrs=stderrs,
        flip_fraction=total.flips / n,
        rho_mean=total.rho_sum / n if config.record_rho else None,
        n_realizations=n,
        master_seed=config.master_seed,
        mode=config.mode,
    )

