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
floating-point reduction.  Standard errors come from centred sums of
squares, merged pairwise across chunks, so they agree across chunk sizes
to rounding even when the spread is tiny.

Packing: `run_ensembles` runs ensembles that differ only in master_seed and
n_realizations as one run.  Each ensemble's chunks are the index ranges
[i, i + chunk_size), and consecutive ones, across ensembles, are packed whole
into engine chunks of at most chunk_size trajectories.  An engine chunk runs
its trajectories as one batch, reduces each range on its own, and the run
folds each range's sums into its ensemble, engine chunk by engine chunk in
order, so every ensemble folds its chunks in index order.  A lone ensemble
gets one range per engine chunk, so `run_ensemble` is that case.  Packed
ranges share the batch's Taylor degree, so they equal separate runs only to
rounding.

Workers: engine chunks are the unit of parallelism.  A run uses
min(threads, engine chunks, CPU count) workers, and the calling thread is
one of them: with w >= 2 it hands w - 1 chunks to a pool of w - 1 threads,
runs the next itself, then folds those w in order.  So at most w chunks are
in flight, and memory does not grow with the chunk count.  Chunks are
generated lazily, and one waits as its (master_seed, start, stop) ranges,
not as index arrays.  With one worker there is no pool.

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

import itertools
import os
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields
from typing import Optional, Sequence

import numpy as np
# numpy loads numpy.random lazily; naming it here loads it on import, not inside the first run.
from numpy.random import PCG64, Generator

from . import linalg
from .config import RunConfig
from .model import LindbladModel
from .noisegate import NoiseGatePlan, build_plan, gate_action, sample_noise
from .noisegate import gates_from_increments  # noqa: F401  (perfbench/spans.py wraps it here)

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


def _step_noise(config: RunConfig, plan: NoiseGatePlan, pieces):
    """Yield each step's gate noise (B, K, r) and measurement uniforms (B,), or None in
    partial-trace, for the trajectories of `pieces`, (master_seed, start, stop) index ranges.

    Every trajectory's streams are read in order, one block of steps at a time, into one
    reused buffer, so the values equal a one-call draw.  Partial-trace reads no uniforms,
    so it draws none.  The yielded arrays are views that the next block overwrites.
    """
    measure = config.mode == "measure-reset"
    seeds = [np.concatenate([trajectory_seed(seed, np.arange(start, stop), s)
                             for seed, start, stop in pieces])
             for s in ((0, 1) if measure else (0,))]
    B, (K, r) = len(seeds[0]), plan.factors.shape[:2]
    n_steps = config.n_steps
    block = min(n_steps, max(1, NOISE_BLOCK_BYTES // max(1, B * K * r * 8)))
    noise = np.empty((B, block, K, r))
    uni = np.empty((B, block)) if measure else None

    # One Generator per stream, pointed at each trajectory's PCG64 state in turn.  Its
    # draws take whole 64-bit outputs, so between blocks a stream needs only its state.
    streams = [_stream_states(s) for s in seeds]
    gens = [Generator(PCG64(0)) for _ in streams]
    bits = [g.bit_generator for g in gens]
    for start in range(0, n_steps, block):
        nb = min(block, n_steps - start)
        for b in range(B):
            for (states, incs), bit in zip(streams, bits):
                bit.state = {"bit_generator": "PCG64", "has_uint32": 0, "uinteger": 0,
                             "state": {"state": states[b], "inc": incs[b]}}
            noise[b, :nb] = sample_noise(plan, gens[0], (nb,))
            if measure:
                uni[b, :nb] = gens[1].random(nb)
            if start + nb < n_steps:
                for (states, _), bit in zip(streams, bits):
                    states[b] = bit.state["state"]["state"]
        for j in range(nb):
            yield noise[:, j], uni[:, j] if measure else None


def _record(stats: list[_ChunkStats], slices: list[slice], step: int, obs_stack,
            state: np.ndarray):
    """Add one step's (B, d) statevectors or (B, d, d) density matrices, each slice of the
    batch to its own sums."""
    rho = state if state.ndim == 3 else np.einsum("bi,bj->bij", state, state.conj())
    vals = np.einsum("oij,bji->ob", obs_stack, rho).real
    for st, sl in zip(stats, slices):
        v = vals[:, sl]
        total = v.sum(axis=1)
        st.obs_sum[:, step] += total
        # Two passes over the slice's values of this step: centre, then square.
        st.obs_m2[:, step] += ((v - (total / v.shape[1])[:, None]) ** 2).sum(axis=1)
        if st.rho_sum is not None:
            st.rho_sum[step] += rho[sl].sum(axis=0)


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
               pieces) -> list[_ChunkStats]:
    """Run the trajectories of `pieces`, (master_seed, start, stop) index ranges, as one
    batch, and return each piece's sums."""
    ends = list(itertools.accumulate(stop - start for _, start, stop in pieces))
    slices = [slice(lo, hi) for lo, hi in zip([0] + ends, ends)]
    stats = [_new_stats(config, len(obs_stack)) for _ in pieces]
    for st, sl in zip(stats, slices):
        st.count = sl.stop - sl.start
    B, d = ends[-1], config.model.dim
    measure = config.mode == "measure-reset"
    state = np.broadcast_to(config.start_state, (B,) + config.start_state.shape).copy()
    basis = None if measure else np.tile(np.eye(d), (B, 1))
    _record(stats, slices, 0, obs_stack, state)
    for j, (noise, uni) in enumerate(_step_noise(config, plan, pieces)):
        if measure:
            state, flips = measure_ancilla(gate_action(plan, noise, state), uni)
        else:
            # The ancilla enters in |0>, so only the gate's (2d, d) ancilla-0 columns act: its
            # action on each e_j x |0>, each trajectory's noise repeated over its d rows so that
            # every Taylor term is one einsum over the flat (2 B d, d) stack of both halves.
            cols = gate_action(plan, np.repeat(noise, d, axis=0), basis)
            cols = cols.reshape(B, d, 2 * d).transpose(0, 2, 1)
            full = cols @ state @ cols.conj().transpose(0, 2, 1)
            # Ancilla outcome-1 weight before the trace, for the audit trail.
            flips = np.einsum("bii->b", full[:, 1::2, 1::2]).real
            state = linalg.partial_trace_ancilla(full, d)
        for st, sl in zip(stats, slices):
            st.flips[j] += flips[sl].sum()
        _record(stats, slices, j + 1, obs_stack, state)
    return stats


def _packs(configs: list[RunConfig]):
    """The engine chunks, lazily: each ensemble's chunks [i, i + chunk_size), in order,
    packed whole into lists of (ensemble, (master_seed, start, stop)) of at most
    chunk_size trajectories.  A lone ensemble gets one chunk per pack."""
    size = configs[0].chunk_size
    pack, held = [], 0
    for e, config in enumerate(configs):
        for start in range(0, config.n_realizations, size):
            stop = min(start + size, config.n_realizations)
            if held + stop - start > size:
                yield pack
                pack, held = [], 0
            pack.append((e, (config.master_seed, start, stop)))
            held += stop - start
    if pack:
        yield pack


def _same(a, b) -> bool:
    """Equal config field values: arrays elementwise, sequences item by item, and a model
    only if it is the same object."""
    if a is b:
        return True
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        return len(a) == len(b) and all(map(_same, a, b))
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return np.shape(a) == np.shape(b) and np.array_equal(a, b)
    return not isinstance(a, LindbladModel) and a == b


def run_ensemble(config: RunConfig) -> EnsembleResult:
    """Average Alg.-style trajectories over n_realizations realizations."""
    return run_ensembles([config])[0]


def run_ensembles(configs: Sequence[RunConfig]) -> list[EnsembleResult]:
    """Run ensembles that differ only in master_seed and n_realizations (the same model
    object, and equal values in every other field) through shared chunks, as one run.
    Each result equals its `run_ensemble` up to rounding, and is bit-identical to it when
    it is the only ensemble."""
    configs = list(configs)
    if not configs:
        return []
    first = configs[0]
    for i, config in enumerate(configs[1:], 1):
        for f in fields(RunConfig):
            if (f.name not in ("master_seed", "n_realizations")
                    and not _same(getattr(first, f.name), getattr(config, f.name))):
                raise ValueError(f"configs[{i}].{f.name} differs from configs[0]: only "
                                 "master_seed and n_realizations may differ")
    plan = build_plan(first.model, first.dt, first.trotter, first.m_nodes)
    d = first.model.dim
    obs_stack = np.array([op for _, op in first.observables], dtype=complex).reshape(-1, d, d)
    totals = [_new_stats(first, len(obs_stack)) for _ in configs]

    def run(pack):
        return _run_chunk(first, plan, obs_stack, [piece for _, piece in pack])

    def fold(pack, chunk_stats):
        for (e, _), stats in zip(pack, chunk_stats):
            totals[e].add(stats)

    cap = min(first.threads, os.cpu_count() or 1)
    workers = sum(1 for _ in itertools.islice(_packs(configs), cap))
    if workers == 1:
        # No pool to start and join: the chunks run in order on this thread.
        for pack in _packs(configs):
            fold(pack, run(pack))
    else:
        with ThreadPoolExecutor(max_workers=workers - 1) as pool:
            # The calling thread is the last worker: once workers - 1 chunks are on the
            # pool it runs the next itself, then folds all of them in order.  So at most
            # `workers` chunks are in flight, and memory stays bounded.
            pending = deque()
            for pack in _packs(configs):
                if len(pending) < workers - 1:
                    pending.append((pack, pool.submit(run, pack)))
                    continue
                own = run(pack)
                while pending:
                    done, future = pending.popleft()
                    fold(done, future.result())
                fold(pack, own)
            for done, future in pending:
                fold(done, future.result())
    return [_result(config, total) for config, total in zip(configs, totals)]


def _result(config: RunConfig, total: _ChunkStats) -> EnsembleResult:
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
