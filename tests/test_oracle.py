import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.linalg import expm

from qnoise import linalg, presets
from qnoise import model as model_module
from qnoise.model import HamiltonianTerm, LindbladModel, LindbladTerm, PauliString, liouvillian
from qnoise.oracle import evolve_exact, evolve_rk4, lindblad_rhs, step_sa

from conftest import random_density

Z = PauliString("Z").matrix()
X = PauliString("X").matrix()


def dephasing_model(gamma):
    return LindbladModel(1, (), (LindbladTerm(gamma, Z, "Z"),))


def test_evolve_exact_closed_limit(rng):
    model = LindbladModel(1, (HamiltonianTerm(0.8, X),), ())
    rho0 = random_density(rng, 2)
    t = 1.3
    u = expm(-1j * 0.8 * t * X)
    assert_allclose(evolve_exact(model, rho0, t), u @ rho0 @ u.conj().T, atol=1e-12)


def test_evolve_exact_dephasing_decay():
    gamma, t = 0.3, 1.1
    rho0 = np.array([[0.6, 0.2 + 0.1j], [0.2 - 0.1j, 0.4]])
    rho_t = evolve_exact(dephasing_model(gamma), rho0, t)
    assert rho_t[0, 1] == pytest.approx(rho0[0, 1] * np.exp(-2 * gamma * t), abs=1e-10)


def test_evolve_exact_preserves_physicality(rng):
    model = presets.single_spin_model()
    rho0 = random_density(rng, 2)
    for t in [1e-6, 1e-5, 3e-5]:
        rho_t = evolve_exact(model, rho0, t)
        linalg.assert_density_matrix(rho_t)


def test_evolve_exact_semigroup(rng):
    model = presets.single_spin_model()
    rho0 = random_density(rng, 2)
    t1, t2 = 7e-6, 4e-6
    assert_allclose(
        evolve_exact(model, rho0, t1 + t2),
        evolve_exact(model, evolve_exact(model, rho0, t1), t2),
        atol=1e-9,
    )


def test_evolve_exact_rejects_bad_input(rng):
    model = presets.single_spin_model()
    with pytest.raises(ValueError):
        evolve_exact(model, random_density(rng, 4), 1e-6)
    with pytest.raises(ValueError):
        evolve_exact(model, random_density(rng, 2), -1.0)


def test_rk4_cross_checks_exact():
    model = presets.single_spin_model()
    rho0 = np.diag([1.0, 0.0]).astype(complex)
    t = 30e-6
    diff = linalg.trace_distance(evolve_rk4(model, rho0, t, 10000), evolve_exact(model, rho0, t))
    assert diff <= 1e-8


def test_rk4_zero_time(rng):
    model = presets.single_spin_model()
    rho0 = random_density(rng, 2)
    assert_allclose(evolve_rk4(model, rho0, 0.0, 5), rho0)


def test_rk4_closed_limit(rng):
    model = LindbladModel(1, (HamiltonianTerm(1.0, X),), ())
    rho0 = random_density(rng, 2)
    u = expm(-1j * 0.5 * X)
    assert_allclose(evolve_rk4(model, rho0, 0.5, 2000), u @ rho0 @ u.conj().T, atol=1e-10)


def test_step_sa_dephasing():
    gamma, dt = 0.4, 0.01
    rho = np.array([[0.5, 0.25], [0.25, 0.5]], dtype=complex)
    out = step_sa(dephasing_model(gamma), rho, dt)
    assert out[0, 1] == pytest.approx(rho[0, 1] * (1 - 2 * gamma * dt), abs=1e-14)


def test_evolve_exact_builds_the_liouvillian_once_per_model(monkeypatch, rng):
    # On this path only the Liouvillian's build calls total_hamiltonian, so calls count builds.
    builds = []
    build = model_module.total_hamiltonian
    monkeypatch.setattr(model_module, "total_hamiltonian",
                        lambda model: builds.append(model) or build(model))
    model = presets.two_molecule_model()
    rho0 = random_density(rng, 4)
    for t in (0.1, 0.2, 0.3, 0.4, 0.5):
        evolve_exact(model, rho0, t)
    assert len(builds) == 1
    gen = liouvillian(model)
    assert gen is liouvillian(model) and not gen.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        gen *= 2


def test_step_sa_matches_liouvillian_action(rng):
    model = presets.two_molecule_model()
    rho = random_density(rng, 4)
    dt = 1e-4
    delta = (step_sa(model, rho, dt) - rho) / dt
    expected = linalg.unvec(liouvillian(model) @ linalg.vec(rho), 4)
    assert_allclose(delta, expected, atol=1e-9)
    assert_allclose(delta, lindblad_rhs(model, rho), atol=1e-12)


def test_step_sa_first_order_convergence():
    # iterated Euler stepping to fixed T has error O(dt): slope 1 in log-log
    gamma, T = 1.0, 0.5
    model = dephasing_model(gamma)
    rho0 = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
    ref = evolve_exact(model, rho0, T)
    dts = T / np.array([50, 100, 200, 400, 800])
    errs = []
    for dt in dts:
        rho = rho0
        for _ in range(round(T / dt)):
            rho = step_sa(model, rho, dt)
        errs.append(linalg.trace_distance(rho, ref))
    slope = np.polyfit(np.log(dts), np.log(errs), 1)[0]
    assert slope == pytest.approx(1.0, abs=0.2)


def test_step_sa_rejects_nonpositive_dt(rng):
    with pytest.raises(ValueError):
        step_sa(presets.single_spin_model(), random_density(rng, 2), 0.0)
