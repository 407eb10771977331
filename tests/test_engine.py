import math
import threading
import tracemalloc
from concurrent.futures import Future
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.linalg import expm

from qnoise import engine, linalg, presets
from qnoise.config import ConfigError
from qnoise.engine import (
    RunConfig,
    TrajectoryError,
    measure_ancilla,
    run_ensemble,
    trajectory_seed,
)
from qnoise.model import HamiltonianTerm, LindbladModel, LindbladTerm, PauliString
from qnoise.noisegate import build_plan, gates_from_increments
from qnoise.oracle import evolve_exact

from conftest import random_pure

X = PauliString("X").matrix()
Z = PauliString("Z").matrix()


def dephasing_model(gamma=0.5):
    return LindbladModel(1, (), (LindbladTerm(gamma, Z, (0,), "Z"),))


def scalar_seed_reference(master_seed, index, stream):
    """The splitmix64 seed mix written with Python ints."""
    mask = (1 << 64) - 1

    def mix(x):
        x = (x + 0x9E3779B97F4A7C15) & mask
        x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & mask
        x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & mask
        return x ^ (x >> 31)

    s = mix((master_seed & mask) ^ mix(index & mask))
    return mix(s ^ mix((stream ^ 0xD1B54A32D192ED03) & mask))


def test_trajectory_seed_array_matches_scalar_formula():
    indices = [0, 1, 2**32 - 1, 2**63, 2**64 - 1]
    n_r = 40
    for master in (-1, 0, 7, 2**64 + 5):
        for stream in (0, 1, 2 + n_r):
            expected = [scalar_seed_reference(master, i, stream) for i in indices]
            seeds = trajectory_seed(master, np.array(indices, dtype=np.uint64), stream)
            assert seeds.dtype == np.uint64 and seeds.tolist() == expected
            assert [trajectory_seed(master, i, stream) for i in indices] == expected
            chunk = np.arange(5, 261)   # the engine passes int64 index chunks
            assert trajectory_seed(master, chunk, stream).tolist() == [
                scalar_seed_reference(master, int(i), stream) for i in chunk]


def test_trajectory_seed_decorrelates():
    seeds = {trajectory_seed(7, i, s) for i in range(100) for s in (0, 1)}
    assert len(seeds) == 200
    assert trajectory_seed(7, 0, 0) != trajectory_seed(8, 0, 0)


def test_reset_ancilla_trivial_cases(rng):
    psi = random_pure(rng, 2)
    state0 = np.zeros(4, dtype=complex)
    state0[0::2] = psi
    out, outcome1 = measure_ancilla(state0[None], rng.random(1))
    assert not outcome1[0]
    assert_allclose(out[0], state0[0::2], atol=1e-12)

    state1 = np.zeros(4, dtype=complex)
    state1[1::2] = psi
    out, outcome1 = measure_ancilla(state1[None], rng.random(1))
    assert outcome1[0]
    assert_allclose(out[0], state0[0::2], atol=1e-12)


def test_reset_ancilla_born_frequencies(rng):
    p0 = 0.7
    state = np.zeros(4, dtype=complex)
    state[0] = np.sqrt(p0)   # |0>|0>
    state[3] = np.sqrt(1 - p0)  # |1>|1>
    n = 100_000
    # rng.random(n) draws the same uniforms as n calls of rng.random()
    _, outcome1 = measure_ancilla(np.broadcast_to(state, (n, 4)), rng.random(n))
    zeros = np.count_nonzero(~outcome1)
    se = np.sqrt(p0 * (1 - p0) / n)
    assert zeros / n == pytest.approx(p0, abs=3 * se)


def test_run_trajectory_noiseless_rabi():
    omega = 2.0
    model = LindbladModel(
        1, (HamiltonianTerm(omega / 2, X),), (LindbladTerm(0.0, Z, (0,), "Z"),)
    )
    for mode in ("measure-reset", "partial-trace"):
        # The mean over one realization is trajectory 0's state at each step.
        cfg = RunConfig(model=model, dt=0.1, n_steps=10, n_realizations=1,
                        master_seed=5, mode=mode, record_rho=True)
        rhos = run_ensemble(cfg).rho_mean
        for j in range(11):
            u = expm(-1j * (omega / 2) * (0.1 * j) * X)
            expected = u @ np.diag([1.0, 0.0]).astype(complex) @ u.conj().T
            assert linalg.trace_distance(rhos[j], expected) <= 1e-9


@pytest.mark.parametrize("mode", ["measure-reset", "partial-trace"])
def test_run_without_observables_records_rho(mode):
    cfg = RunConfig(model=presets.single_spin_model(), dt=1e-6, n_steps=4, n_realizations=6,
                    master_seed=11, mode=mode, record_rho=True, chunk_size=4)
    bare = run_ensemble(cfg)
    assert bare.observable_labels == ()
    assert bare.means.shape == bare.stderrs.shape == (0, 5)
    # Observables only read the states, so the recorded states are the same bytes.
    watched = run_ensemble(replace(cfg, observables=[("Z", Z)]))
    assert bare.rho_mean.tobytes() == watched.rho_mean.tobytes()
    assert bare.flip_fraction.tobytes() == watched.flip_fraction.tobytes()


def test_flip_fraction_matches_jump_rate():
    # H=0, L=Z on |0>: outcome-1 probability per step is gamma*dt to first order
    gamma, dt = 0.5, 0.01
    cfg = RunConfig(model=dephasing_model(gamma), dt=dt, n_steps=5,
                    n_realizations=4000, master_seed=9)
    res = run_ensemble(cfg)
    rate = res.flip_fraction.mean()
    assert rate == pytest.approx(gamma * dt, rel=0.2)


def test_ensemble_of_one_equals_trajectory():
    # One measure-reset trajectory stays pure, and its observable is read off its state.
    model = presets.single_spin_model()
    cfg = RunConfig(model=model, dt=1e-6, n_steps=5, n_realizations=1,
                    master_seed=3, record_rho=True, observables=[("Z", Z)])
    res = run_ensemble(cfg)
    rhos = res.rho_mean
    assert_allclose(np.einsum("sij,sji->s", rhos, rhos).real, 1.0, atol=1e-12)
    assert_allclose(res.means[0], np.einsum("ij,sji->s", Z, rhos).real, atol=1e-12)
    assert np.all(res.stderrs == 0.0)


def test_mode_equivalence_paired_seeds():
    model = dephasing_model(0.5)
    psi0 = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2)
    results = {}
    for mode in ("measure-reset", "partial-trace"):
        cfg = RunConfig(model=model, dt=0.05, n_steps=8, n_realizations=400,
                        master_seed=21, mode=mode, initial_state=psi0,
                        observables=[("X", X)])
        results[mode] = run_ensemble(cfg)
    a, b = results["measure-reset"], results["partial-trace"]
    comb = np.sqrt(a.stderrs**2 + b.stderrs**2)
    assert np.all(np.abs(a.means - b.means) <= 3 * comb + 1e-9)


def test_determinism_across_thread_counts():
    model = presets.single_spin_model()
    outs = []
    for threads in (1, 4, 8):
        cfg = RunConfig(model=model, dt=1e-6, n_steps=4, n_realizations=96,
                        master_seed=77, observables=[("Z", Z)], record_rho=True,
                        threads=threads, chunk_size=16)
        outs.append(run_ensemble(cfg))
    for other in outs[1:]:
        assert np.array_equal(outs[0].means, other.means)
        assert np.array_equal(outs[0].stderrs, other.stderrs)
        assert np.array_equal(outs[0].rho_mean, other.rho_mean)


class SerialPool:
    """Stands in for ThreadPoolExecutor: records max_workers and runs each task in this thread."""

    requested = []

    def __init__(self, max_workers):
        self.requested.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        future = Future()
        future.set_result(fn(*args))
        return future


@pytest.mark.parametrize("cpus,n_realizations,workers", [
    (2, 5 * 16, 2),      # cores bind
    (64, 5 * 16, 5),     # chunks bind
    (None, 5 * 16, 1),   # unknown core count: one worker
    (64, 16, 1),         # one chunk: one worker
])
def test_worker_count_is_bounded(monkeypatch, cpus, n_realizations, workers):
    monkeypatch.setattr(engine, "ThreadPoolExecutor", SerialPool)
    monkeypatch.setattr(engine.os, "cpu_count", lambda: cpus)
    monkeypatch.setattr(SerialPool, "requested", [])
    cfg = RunConfig(model=presets.single_spin_model(), dt=1e-6, n_steps=3,
                    n_realizations=n_realizations, master_seed=77, observables=[("Z", Z)],
                    threads=10**6, chunk_size=16)
    running = threading.active_count()
    got = run_ensemble(cfg)
    assert threading.active_count() == running
    assert SerialPool.requested == [workers]
    serial = run_ensemble(replace(cfg, threads=1))
    assert np.array_equal(got.means, serial.means)
    assert np.array_equal(got.stderrs, serial.stderrs)


def test_measure_reset_matches_formed_gates():
    # gamma*dt = 0.1, so ancilla flips occur and |A| passes 1 in one step (sub-steps).
    cfg = RunConfig(model=presets.single_spin_model(), dt=1e-3, n_steps=6, n_realizations=64,
                    master_seed=23, observables=[("Z", Z)], record_rho=True)
    res = run_ensemble(cfg)
    # Reference step: the SVD-formed gate's ancilla-0 columns on the engine's own noise.
    plan = build_plan(cfg.model, cfg.dt, cfg.trotter, cfg.m_nodes)
    psi = np.broadcast_to(cfg.start_state, (64, 2)).astype(complex)
    rhos, flips = [np.einsum("bi,bj->ij", psi, psi.conj()) / 64], []
    for inc, uni in engine._step_noise(cfg, plan, np.arange(64)):
        cols = gates_from_increments(plan, inc)[:, :, 0::2]
        psi, outcome1 = measure_ancilla(np.einsum("bij,bj->bi", cols, psi), uni)
        rhos.append(np.einsum("bi,bj->ij", psi, psi.conj()) / 64)
        flips.append(outcome1.mean())
    rhos = np.array(rhos)
    assert sum(flips) > 0
    assert_allclose(res.rho_mean, rhos, rtol=0, atol=1e-12)
    assert_allclose(res.means[0], np.einsum("ij,sji->s", Z, rhos).real, rtol=0, atol=1e-12)
    assert_allclose(res.flip_fraction, flips, rtol=0, atol=1e-12)


def test_two_molecule_measure_reset_thread_invariant():
    outs = [run_ensemble(two_molecule_config(n_steps=4, n_realizations=24, master_seed=41,
                                             m_nodes=16, chunk_size=8, threads=threads))
            for threads in (1, 2)]
    assert np.array_equal(outs[0].means, outs[1].means)
    assert np.array_equal(outs[0].stderrs, outs[1].stderrs)


def test_averaged_rho_physical():
    cfg = RunConfig(model=presets.single_spin_model(), dt=1e-6, n_steps=10,
                    n_realizations=200, master_seed=13, record_rho=True)
    res = run_ensemble(cfg)
    for rho in res.rho_mean:
        linalg.assert_density_matrix(rho)


def test_stderr_independent_of_chunk_size():
    # Near <Z> = -1 the spread is tiny: one-pass sums of squares would cancel here.
    cfg = RunConfig(model=presets.single_spin_model(), dt=presets.SINGLE_SPIN_DT, n_steps=8,
                    n_realizations=1000, master_seed=1, observables=[("Z", Z)])
    one_chunk = run_ensemble(replace(cfg, chunk_size=1000))
    assert np.all(one_chunk.stderrs[0, 1:] > 0)
    for chunk_size in (1, 7, 64):
        res = run_ensemble(replace(cfg, chunk_size=chunk_size))
        assert_allclose(res.stderrs, one_chunk.stderrs, rtol=1e-9, atol=0)


def test_conserved_observable_dephasing():
    # |0> is a Z eigenstate and L = Z commutes with Z: <Z> stays exactly 1
    cfg = RunConfig(model=dephasing_model(1.0), dt=0.05, n_steps=10,
                    n_realizations=100, master_seed=2, observables=[("Z", Z)])
    res = run_ensemble(cfg)
    assert_allclose(res.means[0], np.ones(11), atol=1e-10)
    assert_allclose(res.stderrs[0], np.zeros(11), atol=1e-10)


def test_coverage_against_exact_oracle():
    # |mean - exact| <= 4 stderr in nearly all repeated runs
    model = presets.single_spin_model(gamma=1000.0)  # gamma*dt = 1e-3
    rho0 = np.diag([1.0, 0.0]).astype(complex)
    exact = float(np.trace(Z @ evolve_exact(model, rho0, 10e-6)).real)
    hits = 0
    for rep in range(20):
        cfg = RunConfig(model=model, dt=1e-6, n_steps=10, n_realizations=500,
                        master_seed=trajectory_seed(0, rep, 3),
                        observables=[("Z", Z)])
        res = run_ensemble(cfg)
        mean, err = res.observable("Z", 10)
        if abs(mean - exact) <= 4 * err:
            hits += 1
    assert hits >= 16


def test_config_validation():
    model = presets.single_spin_model()
    with pytest.raises(ValueError, match="dt"):
        RunConfig(model=model, dt=0.0, n_steps=1, n_realizations=1)
    with pytest.raises(ValueError, match="mode"):
        RunConfig(model=model, dt=1e-6, n_steps=1, n_realizations=1, mode="discard")
    with pytest.raises(ValueError, match="Hermitian"):
        RunConfig(model=model, dt=1e-6, n_steps=1, n_realizations=1,
                  observables=[("bad", np.array([[0, 1], [0, 0]], dtype=complex))])
    with pytest.raises(ValueError, match="norm"):
        RunConfig(model=model, dt=1e-6, n_steps=1, n_realizations=1,
                  initial_state=np.array([2.0, 0.0]))
    with pytest.raises(ValueError, match="chunk_size"):
        RunConfig(model=model, dt=1e-6, n_steps=1, n_realizations=1, chunk_size=0)
    with pytest.raises(ValueError, match="threads"):
        RunConfig(model=model, dt=1e-6, n_steps=1, n_realizations=1, threads=0)


@pytest.mark.parametrize("field,value", [
    ("n_steps", 2.7), ("n_realizations", 3.5), ("dt", float("nan")), ("record_rho", "no"),
    ("threads", 2.5), ("trotter", "bogus"), ("m_nodes", 0), ("n_steps", np.int64(0)),
])
def test_run_config_rejects_bad_field(field, value):
    # Library RunConfigs get the config schema's checks and field paths.
    with pytest.raises(ConfigError, match=rf"^run\.{field}: expected "):
        RunConfig(**{"model": presets.single_spin_model(), "dt": 1e-6, "n_steps": 1, field: value})


@pytest.mark.parametrize("bad,path", [
    ({"mode": "measure-reset", "initial_state": np.eye(2) / 2}, "initial_state"),
    ({"mode": "partial-trace", "initial_state": np.diag([1.0, 0.5])}, "initial_state"),
    ({"initial_state": np.array([1.0, 0.0, 0.0])}, "initial_state"),
    ({"initial_state": np.array([2.0, 0.0])}, "initial_state"),
    ({"observables": [("Z", np.eye(4))]}, r"observables\[0\]"),
], ids=["mixed-state-in-measure-reset", "trace-1.5", "shape-3", "norm-2", "observable-shape"])
def test_run_config_checks_state_and_observables(bad, path):
    # Caught when the RunConfig is built, before any plan or chunk runs.
    with pytest.raises(ConfigError, match=rf"^run\.{path}: "):
        RunConfig(model=presets.single_spin_model(), dt=1e-6, n_steps=1, **bad)


def test_run_config_start_state():
    kw = {"model": presets.single_spin_model(), "dt": 1e-6, "n_steps": 1}
    plus = np.array([3.0, 4.0]) / 5
    assert np.array_equal(RunConfig(**kw).start_state, [1, 0])
    assert np.array_equal(RunConfig(initial_state=plus, **kw).start_state, plus)
    pt = RunConfig(mode="partial-trace", initial_state=plus, **kw)
    assert np.array_equal(pt.start_state, np.outer(plus, plus))
    assert np.array_equal(replace(pt, n_steps=2).start_state, pt.start_state)
    assert pt.initial_state is plus


def test_run_config_accepts_numpy_scalars():
    kw = {"model": presets.single_spin_model(), "n_realizations": 4, "observables": [("Z", Z)]}
    plain = RunConfig(dt=1e-6, n_steps=3, **kw)
    numpy = RunConfig(dt=np.float64(1e-6), n_steps=np.int64(3), **kw)
    assert type(numpy.n_steps) is int
    assert np.array_equal(run_ensemble(numpy).means, run_ensemble(plain).means)


def test_reset_zero_norm_branch_raises(rng):
    state = np.zeros(4, dtype=complex)
    state[1] = 1.0  # pure |0>|1>: outcome 1 certain, branch fine
    _, outcome1 = measure_ancilla(state[None], rng.random(1))
    assert outcome1[0]
    # force the degenerate path: outcome-0 branch has zero norm but is
    # never selected; a zero state is the only way to hit it
    with pytest.raises(TrajectoryError):
        measure_ancilla(np.zeros((1, 4), dtype=complex), rng.random(1))


def bulk_noise_reference(config, plan, indices):
    """Each trajectory's noise and measurement streams drawn in one call: standard
    normals (B, n_steps, K_active, r) and uniforms (B, n_steps)."""
    noise, uni = [], []
    for idx in indices:
        g_noise, g_meas = (
            np.random.Generator(np.random.PCG64(trajectory_seed(config.master_seed, int(idx), s)))
            for s in (0, 1)
        )
        noise.append(g_noise.standard_normal((config.n_steps,) + plan.factors.shape[:2]))
        uni.append(g_meas.random(config.n_steps))
    return np.array(noise), np.array(uni)


def two_molecule_config(**kw):
    return RunConfig(model=presets.two_molecule_model(), dt=presets.TWO_MOLECULE_DT,
                     observables=[("ZZ", np.kron(Z, Z))], **kw)


def test_streamed_noise_equals_bulk_draw(monkeypatch):
    cfg = two_molecule_config(n_steps=7, n_realizations=24, master_seed=5, m_nodes=16)
    plan = build_plan(cfg.model, cfg.dt, cfg.trotter, cfg.m_nodes)
    indices = np.arange(3, 27)
    noise_ref, uni_ref = bulk_noise_reference(cfg, plan, indices)
    assert noise_ref.shape == (24, 7, len(plan.rates) - 2, 16)   # ZX and ZY have rate zero
    step_bytes = len(indices) * math.prod(plan.factors.shape[:2]) * 8
    # One block; three steps per block with a short last block; one step per block.
    for budget in (engine.NOISE_BLOCK_BYTES, 3 * step_bytes, 1):
        monkeypatch.setattr(engine, "NOISE_BLOCK_BYTES", budget)
        steps = [(z.copy(), uni.copy()) for z, uni in engine._step_noise(cfg, plan, indices)]
        assert np.array_equal(np.stack([z for z, _ in steps], axis=1), noise_ref)
        assert np.array_equal(np.stack([uni for _, uni in steps], axis=1), uni_ref)


@pytest.mark.parametrize("mode", ["measure-reset", "partial-trace"])
def test_ensemble_independent_of_noise_block(monkeypatch, mode):
    cfg = two_molecule_config(n_steps=6, n_realizations=20, master_seed=8, m_nodes=16,
                              mode=mode, record_rho=True, chunk_size=8, initial_state=np.eye(4)[2])
    one_block = run_ensemble(cfg)
    monkeypatch.setattr(engine, "NOISE_BLOCK_BYTES", 1)
    one_step_blocks = run_ensemble(cfg)
    for field in ("means", "stderrs", "flip_fraction", "rho_mean"):
        assert np.array_equal(getattr(one_block, field), getattr(one_step_blocks, field)), field


@pytest.mark.parametrize("threads", [1, 2])
def test_chunk_memory_does_not_grow_with_chunk_count(monkeypatch, threads):
    # The stand-in simulates nothing: the peak is the chunk sums held before they are folded.
    def empty_chunk(config, plan, obs_stack, indices):
        stats = engine._new_stats(config, len(obs_stack))
        stats.count = len(indices)
        return stats

    monkeypatch.setattr(engine, "_run_chunk", empty_chunk)

    def peak_bytes(n_chunks):
        cfg = RunConfig(model=presets.single_spin_model(), dt=1e-6, n_steps=2000,
                        n_realizations=n_chunks, observables=[("Z", Z)], record_rho=True,
                        chunk_size=1, threads=threads)
        tracemalloc.start()
        try:
            assert run_ensemble(cfg).n_realizations == n_chunks
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    few, many = peak_bytes(8), peak_bytes(64)
    assert many <= 1.25 * few, (f"peak {few / 2**20:.2f} MB at 8 chunks, "
                                f"{many / 2**20:.2f} MB at 64")


def test_noise_memory_does_not_grow_with_steps():
    n_realizations = 32
    probe = two_molecule_config(n_steps=1, n_realizations=n_realizations, m_nodes=256)
    plan = build_plan(probe.model, probe.dt, probe.trotter, probe.m_nodes)
    step_bytes = n_realizations * math.prod(plan.factors.shape[:2]) * 8
    block = engine.NOISE_BLOCK_BYTES // step_bytes   # steps that fill one noise block

    def peak_bytes(n_steps):
        cfg = replace(probe, n_steps=n_steps, master_seed=3)
        tracemalloc.start()
        try:
            run_ensemble(cfg)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    # Both runs need more than one block, so both fill the whole buffer.
    n_short, n_long = block + 1, 4 * block
    short, long = peak_bytes(n_short), peak_bytes(n_long)
    assert long <= 1.25 * short, (f"peak {short / 2**20:.1f} MB at {n_short} steps, "
                                  f"{long / 2**20:.1f} MB at {n_long}")
