"""End-to-end acceptance suite.

Each test prints a single PASS line with the measured numbers; a failed
assertion doubles as the FAIL record.  Criteria with runtime budgets
assert the wall-clock limit too.
"""
import json
import time
from pathlib import Path

import numpy as np
import pytest

from qnoise import linalg, presets
from qnoise.bounds import BoundInputs, epsilon_p_bound
from qnoise.cli import main
from qnoise.engine import RunConfig, run_ensemble
from qnoise.model import PauliString
from qnoise.noisegate import (
    build_plan, coupling_operator, expected_channel, gates_from_increments, sample_increments,
)
from qnoise.oracle import evolve_exact, evolve_rk4, step_sa

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

RHO0 = np.diag([1.0, 0.0]).astype(complex)
Z = PauliString("Z").matrix()

_sweep_cache = {}


def step_error_sweep(m_nodes=128):
    """Per-step QN/SA trace distances and the per-step bound on the
    12-point log grid gamma*dt in [1e-4, 1e-1]."""
    if m_nodes in _sweep_cache:
        return _sweep_cache[m_nodes]
    model = presets.single_spin_model()
    gamma = presets.SINGLE_SPIN_GAMMA
    gdts = np.logspace(-4, -1, 12)
    t_qn, t_sa, bound = [], [], []
    for gdt in gdts:
        dt = gdt / gamma
        ref = evolve_exact(model, RHO0, dt)
        t_qn.append(linalg.trace_distance(expected_channel(model, dt, M=m_nodes)(RHO0), ref))
        t_sa.append(linalg.trace_distance(step_sa(model, RHO0, dt), ref))
        bound.append(epsilon_p_bound(BoundInputs.from_model(model, dt, 1, exact_unitary=True)))
    out = (gdts, np.array(t_qn), np.array(t_sa), np.array(bound))
    _sweep_cache[m_nodes] = out
    return out


def test_criterion_1_single_spin_step_errors():
    start = time.monotonic()
    model = presets.single_spin_model()
    dt = presets.SINGLE_SPIN_DT  # gamma*dt = 1e-4
    ref = evolve_exact(model, RHO0, dt)
    t_qn = linalg.trace_distance(expected_channel(model, dt, M=128)(RHO0), ref)
    t_sa = linalg.trace_distance(step_sa(model, RHO0, dt), ref)
    elapsed = time.monotonic() - start
    assert t_qn <= 1e-6
    assert 1e-2 <= t_sa <= 1.0
    assert elapsed < 10.0
    print(f"PASS criterion 1: T_qn={t_qn:.3e} (<=1e-6), T_sa={t_sa:.3e} "
          f"(in [1e-2,1]), runtime {elapsed:.1f}s (<10s)")


def test_criterion_2_error_scaling_slopes():
    start = time.monotonic()
    gdts, t_qn, t_sa, _ = step_error_sweep()
    slope_qn = np.polyfit(np.log(gdts), np.log(t_qn), 1)[0]
    slope_sa = np.polyfit(np.log(gdts), np.log(t_sa), 1)[0]
    elapsed = time.monotonic() - start
    assert slope_qn == pytest.approx(2.0, abs=0.3)
    assert slope_sa == pytest.approx(1.0, abs=0.2)
    assert elapsed < 30.0
    print(f"PASS criterion 2: QN slope {slope_qn:.3f} (2.0+-0.3), "
          f"SA slope {slope_sa:.3f} (1.0+-0.2), runtime {elapsed:.1f}s (<30s)")


def test_criterion_3_bound_dominates_qn_error():
    gdts, t_qn, _, bound = step_error_sweep()
    assert np.all(bound >= t_qn)
    margin = np.min(bound / t_qn)
    print(f"PASS criterion 3: per-step bound >= T_qn at all 12 sweep points "
          f"(min bound/error ratio {margin:.2f})")


def test_criterion_4_sampling_error_slope(tmp_path):
    start = time.monotonic()
    rc = main([
        "sampling-error", str(CONFIG_DIR / "single_spin_sampling.json"),
        "--out-dir", str(tmp_path), "--threads", "4",
    ])
    elapsed = time.monotonic() - start
    assert rc == 0
    text = (tmp_path / "sampling.csv").read_text()
    slope = float(text.strip().splitlines()[-1].split(":")[1])
    assert slope == pytest.approx(-0.5, abs=0.1)
    assert elapsed < 300.0
    print(f"PASS criterion 4: sampling slope {slope:.3f} (-0.5+-0.1), "
          f"runtime {elapsed:.0f}s (<300s)")


def test_criterion_5_two_molecule_populations():
    start = time.monotonic()
    model = presets.two_molecule_model()
    psi0 = np.zeros(4, dtype=complex)
    psi0[2] = 1.0  # |10>
    projs = [
        (f"P{i:02b}", np.diag([1.0 if j == i else 0.0 for j in range(4)]).astype(complex))
        for i in range(4)
    ]
    cfg = RunConfig(model=model, dt=presets.TWO_MOLECULE_DT,
                    n_steps=presets.TWO_MOLECULE_N_STEPS, n_realizations=1000,
                    master_seed=11, m_nodes=256, initial_state=psi0,
                    observables=projs, threads=4)
    res = run_ensemble(cfg)
    rho = np.outer(psi0, psi0.conj())
    worst = 0.0
    for j, t in enumerate(res.times):
        pops = np.diag(evolve_exact(model, rho, t)).real
        worst = max(worst, float(np.max(np.abs(res.means[:, j] - pops))))
    elapsed = time.monotonic() - start
    assert worst <= 0.05
    assert elapsed < 300.0
    print(f"PASS criterion 5: max population deviation {worst:.4f} (<=0.05) "
          f"over 41 steps, runtime {elapsed:.0f}s (<300s)")


def test_criterion_6_property_suite():
    rng = np.random.default_rng(1234)
    model = presets.single_spin_model()
    plan = build_plan(model, presets.SINGLE_SPIN_DT, M=8)

    # 10^3 sampled gates are unitary within 1e-9
    dw = sample_increments(plan, rng, size=(1000,))
    gates = gates_from_increments(plan, dw)
    unit_dev = float(np.max(np.abs(gates.conj().transpose(0, 2, 1) @ gates - np.eye(4))))
    assert unit_dev < 1e-9

    # sampled S_k are anti-Hermitian within 1e-10
    anti_dev = 0.0
    for k in range(3):
        s = np.einsum("bm,mij->bij", dw[:, k, :], coupling_operator(plan.l_nodes[k, :8]))
        anti_dev = max(anti_dev, float(np.max(np.abs(s + s.conj().transpose(0, 2, 1)))))
    assert anti_dev < 1e-10

    # ensemble-averaged rho is a physical density matrix at every step
    cfg = RunConfig(model=model, dt=presets.SINGLE_SPIN_DT, n_steps=10,
                    n_realizations=500, master_seed=6, record_rho=True)
    res = run_ensemble(cfg)
    for rho in res.rho_mean:
        linalg.assert_density_matrix(rho)

    # measure-reset vs partial-trace with paired seeds at N_r = 10^3
    strong = presets.single_spin_model(gamma=1e4)  # gamma*dt = 1e-2
    obs = [("X", PauliString("X").matrix()), ("Z", Z)]
    res_by_mode = {}
    for mode in ("measure-reset", "partial-trace"):
        cfg = RunConfig(model=strong, dt=presets.SINGLE_SPIN_DT, n_steps=10,
                        n_realizations=1000, master_seed=31, mode=mode,
                        observables=obs, threads=4)
        res_by_mode[mode] = run_ensemble(cfg)
    a, b = res_by_mode["measure-reset"], res_by_mode["partial-trace"]
    comb = np.sqrt(a.stderrs**2 + b.stderrs**2)
    gap = np.abs(a.means - b.means)
    assert np.all(gap <= 3 * comb + 1e-12)
    print(f"PASS criterion 6: gate unitarity dev {unit_dev:.1e} (<1e-9), "
          f"S_k anti-Hermiticity dev {anti_dev:.1e} (<1e-10), averaged rho "
          f"physical, mode gap <= 3 combined se (max ratio "
          f"{float(np.max(gap[comb > 0] / (3 * comb[comb > 0]))):.2f})")


def test_criterion_7_oracle_cross_checks():
    model = presets.single_spin_model()
    d_rk4 = linalg.trace_distance(
        evolve_rk4(model, RHO0, 30e-6, 10000), evolve_exact(model, RHO0, 30e-6)
    )
    assert d_rk4 <= 1e-8

    from qnoise.model import LindbladModel, LindbladTerm
    gamma, t = 0.3, 1.2
    deph = LindbladModel(1, (), (LindbladTerm(gamma, Z, 1, (0,), "Z"),))
    rho0 = np.array([[0.5, 0.4], [0.4, 0.5]], dtype=complex)
    off = evolve_exact(deph, rho0, t)[0, 1]
    dev = abs(off - 0.4 * np.exp(-2 * gamma * t))
    assert dev < 1e-10

    gdts = np.logspace(np.log10(1.2e-3), np.log10(2.8e-2), 6)
    errs = []
    for gdt in gdts:
        dt = gdt / presets.SINGLE_SPIN_GAMMA
        errs.append(linalg.trace_distance(
            expected_channel(model, dt, M=256)(RHO0), evolve_exact(model, RHO0, dt)
        ))
    slope = np.polyfit(np.log(gdts), np.log(errs), 1)[0]
    assert slope == pytest.approx(2.0, abs=0.2)
    print(f"PASS criterion 7: rk4-vs-exact {d_rk4:.1e} (<=1e-8), dephasing "
          f"decay dev {dev:.1e} (<1e-10), one-step channel slope {slope:.3f} "
          f"(2.0+-0.2)")


def test_criterion_8_csv_determinism_across_threads(tmp_path):
    doc = {
        "model": {"preset": "single-spin"},
        "run": {
            "dt": 1e-6, "n_steps": 6, "n_realizations": 256, "seed": 123,
            "chunk_size": 32,
            "observables": [{"label": "Z", "pauli": "Z"}],
        },
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(doc))
    outputs = []
    for threads in ("1", "4", "8"):
        out = tmp_path / f"threads{threads}"
        rc = main(["simulate", str(cfg_path), "--out-dir", str(out), "--threads", threads])
        assert rc == 0
        outputs.append((out / "result.csv").read_bytes())
    assert outputs[0] == outputs[1] == outputs[2]
    print("PASS criterion 8: result.csv byte-identical for thread counts 1, 4, 8")
