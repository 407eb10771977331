import math
import threading
import tracemalloc
from concurrent.futures import Future
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.linalg import expm

from qnoise import engine, linalg, noisegate, presets
from qnoise.config import ConfigError
from qnoise.engine import (
    RunConfig,
    TrajectoryError,
    measure_ancilla,
    run_ensemble,
    run_ensembles,
    trajectory_seed,
)
from qnoise.model import HamiltonianTerm, LindbladModel, LindbladTerm, PauliString
from qnoise.noisegate import build_plan, gates_from_increments
from qnoise.oracle import evolve_exact

from conftest import random_pure

X = PauliString("X").matrix()
Z = PauliString("Z").matrix()


def dephasing_model(gamma=0.5):
    return LindbladModel(1, (), (LindbladTerm(gamma, Z, "Z"),))


MASK64 = (1 << 64) - 1
GOLDEN64 = 0x9E3779B97F4A7C15


def scalar_splitmix64(x):
    """The splitmix64 finalizer written with Python ints mod 2^64."""
    x = (x + GOLDEN64) & MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & MASK64
    return x ^ (x >> 31)


def scalar_seed_reference(master_seed, index, stream):
    """The splitmix64 seed mix written with Python ints."""
    mix = scalar_splitmix64
    s = mix((master_seed & MASK64) ^ mix(index & MASK64))
    return mix(s ^ mix((stream ^ 0xD1B54A32D192ED03) & MASK64))


def scalar_stream_reference(seed):
    """A seed's PCG64 (state, inc) written with Python ints: the next four outputs of a
    splitmix64 generator started at the seed, as state w0:w1 and increment w2:w3 | 1."""
    w0, w1, w2, w3 = (scalar_splitmix64((seed + i * GOLDEN64) & MASK64) for i in range(4))
    return w0 << 64 | w1, w2 << 64 | w3 | 1


def pcg64_state(state, inc):
    return {"bit_generator": "PCG64", "has_uint32": 0, "uinteger": 0,
            "state": {"state": state, "inc": inc}}


def fresh_generator(state, inc):
    bit = np.random.PCG64()
    bit.state = pcg64_state(state, inc)
    return np.random.Generator(bit)


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
        1, (HamiltonianTerm(omega / 2, X),), (LindbladTerm(0.0, Z, "Z"),)
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


@pytest.mark.parametrize("mode", ["measure-reset", "partial-trace"])
def test_determinism_across_thread_counts(mode):
    # Both modes cut each Taylor series at its chunk's largest norm, so a chunk's result
    # must not depend on which thread runs it.
    model = presets.single_spin_model()
    outs = []
    for threads in (1, 4, 8):
        cfg = RunConfig(model=model, dt=1e-6, n_steps=4, n_realizations=96,
                        master_seed=77, observables=[("Z", Z)], record_rho=True,
                        threads=threads, chunk_size=16, mode=mode)
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
    # The calling thread is one of the workers: a pool of the others, and none for one.
    assert SerialPool.requested == ([workers - 1] if workers > 1 else [])
    serial = run_ensemble(replace(cfg, threads=1))
    assert np.array_equal(got.means, serial.means)
    assert np.array_equal(got.stderrs, serial.stderrs)


@pytest.mark.parametrize("case", ["single-spin", "two-molecule"])
@pytest.mark.parametrize("mode", ["measure-reset", "partial-trace"])
def test_run_matches_formed_gates(mode, case):
    # gamma*dt = 0.1 on the largest channel, so ancilla flips occur and |A| passes 1 in
    # one step (sub-steps).
    if case == "single-spin":
        cfg = RunConfig(model=presets.single_spin_model(), dt=1e-3, n_steps=6, n_realizations=64,
                        master_seed=23, observables=[("Z", Z)], record_rho=True, mode=mode)
    else:
        cfg = replace(two_molecule_config(n_steps=4, n_realizations=16, master_seed=29, m_nodes=16,
                                          record_rho=True, mode=mode, initial_state=np.eye(4)[2]),
                      dt=1 / 3)
    res = run_ensemble(cfg)
    # Reference step: the SVD-formed gate's ancilla-0 columns on the engine's own noise,
    # applied and measured (measure-reset) or conjugated and traced (partial-trace).
    plan = build_plan(cfg.model, cfg.dt, cfg.trotter, cfg.m_nodes)
    B, obs = cfg.n_realizations, cfg.observables[0][1]
    state = np.broadcast_to(cfg.start_state, (B,) + cfg.start_state.shape).astype(complex)

    def mean_rho(state):
        rho = state if state.ndim == 3 else np.einsum("bi,bj->bij", state, state.conj())
        return rho.sum(axis=0) / B

    rhos, flips, norms = [mean_rho(state)], [], []
    for inc, uni in engine._step_noise(cfg, plan, [(cfg.master_seed, 0, B)]):
        norms += [np.linalg.norm(noisegate._channel_block(plan, inc, k), axis=(-2, -1)).max()
                  for k in range(len(plan.factors))]
        cols = gates_from_increments(plan, inc)[:, :, 0::2]
        if mode == "measure-reset":
            state, outcome1 = measure_ancilla(np.einsum("bij,bj->bi", cols, state), uni)
            flips.append(outcome1.mean())
        else:
            full = cols @ state @ cols.conj().transpose(0, 2, 1)
            flips.append(np.einsum("bii->", full[:, 1::2, 1::2]).real / B)
            state = full[:, 0::2, 0::2] + full[:, 1::2, 1::2]
        rhos.append(mean_rho(state))
    rhos = np.array(rhos)
    assert sum(flips) > 0 and max(norms) > 1
    assert_allclose(res.rho_mean, rhos, rtol=0, atol=1e-12)
    assert_allclose(res.means[0], np.einsum("ij,sji->s", obs, rhos).real, rtol=0, atol=1e-12)
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
    ({"observables": [("a,b", Z)]}, r"observables\[0\]\.label"),
    ({"observables": [("Z", Z), ("Z", X)]}, r"observables\[1\]\.label"),
    ({"observables": [("say 'Z'", Z)]}, r"observables\[0\]\.label"),
    ({"observables": [('say "Z"', Z)]}, r"observables\[0\]\.label"),
    ({"observables": [("Z\r", Z)]}, r"observables\[0\]\.label"),
    ({"observables": [("", Z)]}, r"observables\[0\]\.label"),
    ({"observables": [(b"Z", Z)]}, r"observables\[0\]\.label"),
], ids=["mixed-state-in-measure-reset", "trace-1.5", "shape-3", "norm-2", "observable-shape",
        "label-comma", "label-repeated", "label-quote", "label-double-quote", "label-cr",
        "label-empty", "label-bytes"])
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


def test_run_config_is_frozen():
    # An assigned field skipped every check: a fractional n_steps failed in the engine,
    # and partial-trace met a statevector start state.  replace() checks again.
    config = RunConfig(model=presets.single_spin_model(), dt=1e-6, n_steps=1)
    for field, value in (("n_steps", 2.5), ("mode", "partial-trace")):
        with pytest.raises(FrozenInstanceError):
            setattr(config, field, value)
    assert replace(config, mode="partial-trace").start_state.shape == (2, 2)
    with pytest.raises(ConfigError, match=r"^run\.n_steps: "):
        replace(config, n_steps=2.5)


def test_identity_dissipator_changes_nothing():
    # L = I has a zero dissipator, so it gets no gate, no noise and no flips
    # [it drew noise and flipped the ancilla in 5.5% of steps, not 0.3%].
    spin = presets.single_spin_model()
    idle = LindbladTerm(5e3, np.eye(2, dtype=complex), "idle")
    results = [run_ensemble(RunConfig(model=model, dt=1e-5, n_steps=10, n_realizations=300,
                                      master_seed=4, observables=[("Z", Z)]))
               for model in (spin, replace(spin, lindblad_terms=spin.lindblad_terms + (idle,)))]
    for name in ("means", "stderrs", "flip_fraction"):
        assert getattr(results[1], name).tobytes() == getattr(results[0], name).tobytes(), name


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
    normals (B, n_steps, K, r) and uniforms (B, n_steps)."""
    noise, uni = [], []
    for idx in indices:
        g_noise, g_meas = (
            fresh_generator(*scalar_stream_reference(trajectory_seed(config.master_seed, int(idx), s)))
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
    # ZX and ZY have rate zero, so the plan holds the other 13 channels; each draws one
    # normal per factor row.
    assert noise_ref.shape == (24, 7, 13, plan.factors.shape[1])
    step_bytes = len(indices) * math.prod(plan.factors.shape[:2]) * 8
    # One block; three steps per block with a short last block; one step per block.
    for budget in (engine.NOISE_BLOCK_BYTES, 3 * step_bytes, 1):
        monkeypatch.setattr(engine, "NOISE_BLOCK_BYTES", budget)
        steps = [(z.copy(), uni.copy())
                 for z, uni in engine._step_noise(cfg, plan, [(cfg.master_seed, 3, 27)])]
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


def test_partial_trace_draws_only_gate_noise():
    # Partial-trace reads no measurement stream, so it draws none; its gate noise is
    # measure-reset's, trajectory by trajectory.
    pieces = [(5, 3, 11), (9, 0, 6)]
    cfg = two_molecule_config(n_steps=5, n_realizations=11, m_nodes=16)
    plan = build_plan(cfg.model, cfg.dt, cfg.trotter, cfg.m_nodes)
    measured = [(z.copy(), uni.copy()) for z, uni in engine._step_noise(cfg, plan, pieces)]
    traced = [(z.copy(), uni) for z, uni in
              engine._step_noise(replace(cfg, mode="partial-trace"), plan, pieces)]
    assert len(measured) == len(traced) == cfg.n_steps
    for (z_m, _), (z_t, uni) in zip(measured, traced):
        assert uni is None
        assert np.array_equal(z_m, z_t)
    # Each piece draws its trajectories' own streams.
    noise_ref = np.concatenate([bulk_noise_reference(replace(cfg, master_seed=seed), plan,
                                                     range(start, stop))[0]
                                for seed, start, stop in pieces])
    assert np.array_equal(np.stack([z for z, _ in traced], axis=1), noise_ref)


def packed_trials(mode, **kw):
    """Trial ensembles of N_r = 8, 32 and 128, two seeds each, as the sampling-error scan
    builds them."""
    base = RunConfig(model=presets.single_spin_model(), dt=1e-3, n_steps=4, mode=mode,
                     observables=[("Z", Z), ("X", X)], **kw)
    return [replace(base, n_realizations=n_r, master_seed=trajectory_seed(3, rep, 2 + n_r))
            for n_r in (8, 32, 128) for rep in range(2)]


@pytest.mark.parametrize("mode", ["measure-reset", "partial-trace"])
def test_packed_ensembles_match_separate_runs(mode):
    # gamma*dt = 0.1: the chunks flip ancillas, and their Taylor degrees can differ.
    trials = packed_trials(mode)
    packed = run_ensembles(trials)
    assert len(packed) == len(trials)
    for config, got in zip(trials, packed):
        alone = run_ensemble(config)
        assert got.n_realizations == config.n_realizations
        assert got.master_seed == config.master_seed
        assert_allclose(got.means, alone.means, rtol=0, atol=1e-12)
        assert_allclose(got.stderrs, alone.stderrs, rtol=0, atol=1e-12)
        if mode == "measure-reset":   # counted outcomes
            assert np.array_equal(got.flip_fraction, alone.flip_fraction)
        else:                         # Born weights, through the chunk's Taylor series
            assert_allclose(got.flip_fraction, alone.flip_fraction, rtol=0, atol=1e-12)
    assert max(r.flip_fraction.sum() for r in packed) > 0


@pytest.mark.parametrize("mode", ["measure-reset", "partial-trace"])
def test_packed_ensembles_thread_invariant(mode):
    # Chunks of 48: several trials share a chunk, and each N_r = 128 one spans three.
    one, two = (run_ensembles(packed_trials(mode, chunk_size=48, threads=t, record_rho=True))
                for t in (1, 2))
    for a, b in zip(one, two):
        for field in ("means", "stderrs", "flip_fraction", "rho_mean"):
            assert getattr(a, field).tobytes() == getattr(b, field).tobytes(), field


@pytest.mark.parametrize("field,value", [("dt", 2e-3), ("mode", "partial-trace"),
                                         ("observables", [("Z", Z)])])
def test_run_ensembles_rejects_other_differences(field, value):
    trials = packed_trials("measure-reset")
    trials[3] = replace(trials[3], **{field: value})
    with pytest.raises(ValueError, match=rf"^configs\[3\]\.{field} differs"):
        run_ensembles(trials)
    # A model equal in value is still another object.
    with pytest.raises(ValueError, match=r"^configs\[1\]\.model differs"):
        run_ensembles([trials[0], replace(trials[1], model=presets.single_spin_model())])
    assert run_ensembles([]) == []


def test_stream_states_equal_scalar_splitmix64():
    edge = [0, 1, 2**32 - 1, 2**32, 2**64 - 1]
    seeds = np.concatenate([np.array(edge, dtype=np.uint64),
                            trajectory_seed(9, np.arange(1000), 0),
                            trajectory_seed(9, np.arange(1000), 1)])
    states, incs = engine._stream_states(seeds)
    assert list(zip(states, incs)) == [scalar_stream_reference(s) for s in seeds.tolist()]
    assert all(inc & 1 for inc in incs)
    assert len(set(zip(states, incs))) == len(seeds)
    # An int seed, as trajectory_seed returns for an int index, gives one pair.
    assert engine._stream_states(2**64 - 1) == ([states[4]], [incs[4]])
    gen = np.random.Generator(np.random.PCG64(0))
    for s, state, inc in zip(seeds.tolist(), states, incs):
        ref = fresh_generator(state, inc)
        gen.bit_generator.state = pcg64_state(state, inc)
        assert gen.standard_normal() == ref.standard_normal(), s
        assert gen.random() == ref.random(), s


def test_default_chunks_thread_invariant():
    cfg = RunConfig(model=presets.single_spin_model(), dt=presets.SINGLE_SPIN_DT, n_steps=5,
                    n_realizations=600, master_seed=4, observables=[("Z", Z), ("X", X)])
    assert cfg.chunk_size == 512   # two chunks, one short
    one, two = (run_ensemble(replace(cfg, threads=t)) for t in (1, 2))
    for field in ("means", "stderrs", "flip_fraction"):
        assert getattr(one, field).tobytes() == getattr(two, field).tobytes(), field


def test_held_stream_state_is_small(monkeypatch):
    # One step per block, so the chunk's streams are held between blocks.
    monkeypatch.setattr(engine, "NOISE_BLOCK_BYTES", 1)
    cfg = RunConfig(model=presets.single_spin_model(), dt=presets.SINGLE_SPIN_DT, n_steps=3,
                    n_realizations=512)
    plan = build_plan(cfg.model, cfg.dt, cfg.trotter, cfg.m_nodes)
    steps = engine._step_noise(cfg, plan, [(cfg.master_seed, 0, cfg.chunk_size)])
    tracemalloc.start()
    try:
        noise, uni = next(steps)
        held = tracemalloc.get_traced_memory()[0] - noise.base.nbytes - uni.base.nbytes
    finally:
        tracemalloc.stop()
    # A live Generator per stream took about 5 KB; a held (state, inc) pair takes under 100 bytes.
    assert held < 2 * cfg.chunk_size * 5000 / 16, f"{held / 2**10:.0f} KiB held"


@pytest.mark.parametrize("threads", [1, 2])
def test_chunk_memory_does_not_grow_with_chunk_count(monkeypatch, threads):
    # The stand-in simulates nothing: the peak is the chunk sums held before they are folded.
    def empty_chunk(config, plan, obs_stack, pieces):
        stats = [engine._new_stats(config, len(obs_stack)) for _ in pieces]
        for st, (_, start, stop) in zip(stats, pieces):
            st.count = stop - start
        return stats

    monkeypatch.setattr(engine, "_run_chunk", empty_chunk)

    def peak_bytes(n_chunks, chunk_size, n_steps, record_rho):
        cfg = RunConfig(model=presets.single_spin_model(), dt=1e-6, n_steps=n_steps,
                        n_realizations=n_chunks * chunk_size, observables=[("Z", Z)],
                        record_rho=record_rho, chunk_size=chunk_size, threads=threads)
        tracemalloc.start()
        try:
            assert run_ensemble(cfg).n_realizations == n_chunks * chunk_size
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    # Large per-step sums in small chunks; then large chunks, which wait in the queue as
    # (master_seed, start, stop), not as index arrays of 8 bytes per realization.
    for case in [(1, 2000, True), (65536, 2, False)]:
        few, many = peak_bytes(8, *case), peak_bytes(64, *case)
        assert many <= 1.25 * few, (f"{case}: peak {few / 2**20:.2f} MB at 8 chunks, "
                                    f"{many / 2**20:.2f} MB at 64")


def test_noise_memory_does_not_grow_with_steps(monkeypatch):
    # A 1 MiB block keeps the runs short, and a whole-run draw still shows: it would hold
    # 4 MiB at n_long.  At 512 KiB the buffer stays under the plan's own peak, and would not.
    monkeypatch.setattr(engine, "NOISE_BLOCK_BYTES", 1 << 20)
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
