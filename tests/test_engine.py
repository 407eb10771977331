import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from qnoise import engine, linalg, presets
from qnoise.engine import (
    RunConfig,
    TrajectoryError,
    estimate_observable,
    measure_ancilla,
    run_ensemble,
    run_trajectory,
    trajectory_seed,
)
from qnoise.model import HamiltonianTerm, LindbladModel, LindbladTerm, PauliString
from qnoise.noisegate import build_plan
from qnoise.oracle import evolve_exact

from conftest import random_pure

X = PauliString("X").matrix()
Z = PauliString("Z").matrix()


def dephasing_model(gamma=0.5):
    return LindbladModel(1, (), (LindbladTerm(gamma, Z, 1, (0,), "Z"),))


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
        1, (HamiltonianTerm(omega / 2, X, 1),), (LindbladTerm(0.0, Z, 1, (0,), "Z"),)
    )
    for mode in ("measure-reset", "partial-trace"):
        cfg = RunConfig(model=model, dt=0.1, n_steps=10, n_realizations=1,
                        master_seed=5, mode=mode)
        rhos = run_trajectory(cfg, 0)
        for j in range(11):
            u = linalg.matexp(-1j * (omega / 2) * (0.1 * j) * X)
            expected = u @ np.diag([1.0, 0.0]).astype(complex) @ u.conj().T
            assert linalg.trace_distance(rhos[j], expected) <= 1e-9


def test_flip_fraction_matches_jump_rate():
    # H=0, L=Z on |0>: outcome-1 probability per step is gamma*dt to first order
    gamma, dt = 0.5, 0.01
    cfg = RunConfig(model=dephasing_model(gamma), dt=dt, n_steps=5,
                    n_realizations=4000, master_seed=9)
    res = run_ensemble(cfg)
    rate = res.flip_fraction.mean()
    assert rate == pytest.approx(gamma * dt, rel=0.2)


def test_ensemble_of_one_equals_trajectory():
    model = presets.single_spin_model()
    cfg = RunConfig(model=model, dt=1e-6, n_steps=5, n_realizations=1,
                    master_seed=3, record_rho=True, observables=[("Z", Z)])
    res = run_ensemble(cfg)
    rhos = run_trajectory(cfg, 0)
    assert_allclose(res.rho_mean, rhos, atol=1e-12)
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


def test_averaged_rho_physical():
    cfg = RunConfig(model=presets.single_spin_model(), dt=1e-6, n_steps=10,
                    n_realizations=200, master_seed=13, record_rho=True)
    res = run_ensemble(cfg)
    for rho in res.rho_mean:
        linalg.assert_density_matrix(rho)


def test_estimate_observable_identity_and_label_paths():
    cfg = RunConfig(model=dephasing_model(), dt=0.01, n_steps=3,
                    n_realizations=50, master_seed=1, record_rho=True,
                    observables=[("Z", Z)])
    res = run_ensemble(cfg)
    mean, err = estimate_observable(res, np.eye(2, dtype=complex), 3)
    assert mean == pytest.approx(1.0, abs=1e-10)
    assert err == pytest.approx(0.0, abs=1e-10)
    m1, e1 = estimate_observable(res, "Z", 2)
    m2, e2 = estimate_observable(res, Z, 2)
    assert m1 == pytest.approx(m2, abs=1e-10)
    assert e1 == pytest.approx(e2, abs=1e-10)
    with pytest.raises(IndexError):
        estimate_observable(res, "Z", 4)


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
                  initial_state=np.array([2.0, 0.0])).initial_vector()
    with pytest.raises(ValueError, match="chunk_size"):
        RunConfig(model=model, dt=1e-6, n_steps=1, n_realizations=1, chunk_size=0)
    with pytest.raises(ValueError, match="threads"):
        RunConfig(model=model, dt=1e-6, n_steps=1, n_realizations=1, threads=0)


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
    """Each trajectory's noise and measurement streams drawn in one call:
    increments (B, n_steps, K, M) and uniforms (B, n_steps)."""
    sigma = np.sqrt(config.dt / plan.m_nodes)
    inc, uni = [], []
    for idx in indices:
        g_noise, g_meas = (
            np.random.Generator(np.random.PCG64(trajectory_seed(config.master_seed, int(idx), s)))
            for s in (0, 1)
        )
        inc.append(g_noise.normal(0.0, sigma, size=(config.n_steps, plan.n_channels, plan.m_nodes)))
        uni.append(g_meas.random(config.n_steps))
    return np.array(inc), np.array(uni)


def two_molecule_config(**kw):
    return RunConfig(model=presets.two_molecule_model(), dt=presets.TWO_MOLECULE_DT,
                     observables=[("ZZ", linalg.kron(Z, Z))], **kw)


def test_streamed_noise_equals_bulk_draw(monkeypatch):
    cfg = two_molecule_config(n_steps=7, n_realizations=24, master_seed=5, m_nodes=16)
    plan = build_plan(cfg.model, cfg.dt, cfg.trotter, cfg.m_nodes)
    indices = np.arange(3, 27)
    inc_ref, uni_ref = bulk_noise_reference(cfg, plan, indices)
    step_bytes = len(indices) * plan.n_channels * plan.m_nodes * 8
    # One block; three steps per block with a short last block; one step per block.
    for budget in (engine.NOISE_BLOCK_BYTES, 3 * step_bytes, 1):
        monkeypatch.setattr(engine, "NOISE_BLOCK_BYTES", budget)
        steps = [(inc.copy(), uni.copy()) for inc, uni in engine._step_noise(cfg, plan, indices)]
        assert np.array_equal(np.stack([inc for inc, _ in steps], axis=1), inc_ref)
        assert np.array_equal(np.stack([uni for _, uni in steps], axis=1), uni_ref)


@pytest.mark.parametrize("mode", ["measure-reset", "partial-trace"])
def test_ensemble_independent_of_noise_block(monkeypatch, mode):
    cfg = two_molecule_config(n_steps=6, n_realizations=20, master_seed=8, m_nodes=16,
                              mode=mode, record_rho=True, chunk_size=8, initial_state=np.eye(4)[2])
    one_block = run_ensemble(cfg)
    monkeypatch.setattr(engine, "NOISE_BLOCK_BYTES", 1)
    one_step_blocks = run_ensemble(cfg)
    for field in ("means", "stderrs", "flip_fraction", "rho_mean", "rho_second_moment"):
        assert np.array_equal(getattr(one_block, field), getattr(one_step_blocks, field)), field


def test_noise_memory_does_not_grow_with_steps():
    def peak_bytes(n_steps):
        cfg = two_molecule_config(n_steps=n_steps, n_realizations=32, master_seed=3, m_nodes=256)
        tracemalloc.start()
        try:
            run_ensemble(cfg)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    short, long = peak_bytes(16), peak_bytes(64)
    assert long <= 1.25 * short, f"peak {short / 2**20:.1f} MB at 16 steps, {long / 2**20:.1f} MB at 64"
