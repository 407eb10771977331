import math

import numpy as np
import pytest

from qnoise import linalg, presets
from qnoise.bounds import (
    BoundInputs,
    bound_report,
    epsilon_T_bound,
    epsilon_global_bound,
    epsilon_p_bound,
    gate_count_estimate,
)
from qnoise.noisegate import closed_propagator

from conftest import random_density


def single_spin_inputs(**overrides):
    base = dict(K=1, m=1, n=1, gamma=100.0, omega=presets.SINGLE_SPIN_OMEGA / 2,
                J=1, max_h_norm=1.0, max_L_norm=1.0, dt=1e-6, n_steps=30,
                trotter="exact")
    base.update(overrides)
    return BoundInputs(**base)


def test_epsilon_p_single_spin_value():
    # 2e (K (4^m - 1) ||L||^2 gamma dt)^2 = 2e (3e-4)^2
    assert epsilon_p_bound(single_spin_inputs()) == pytest.approx(
        2 * math.e * (3e-4) ** 2, rel=1e-12
    )
    assert epsilon_p_bound(single_spin_inputs()) == pytest.approx(4.893e-7, rel=1e-3)


def test_epsilon_p_zero_rate_and_quadratic_scaling():
    assert epsilon_p_bound(single_spin_inputs(gamma=0.0)) == 0.0
    e1 = epsilon_p_bound(single_spin_inputs())
    e2 = epsilon_p_bound(single_spin_inputs(dt=2e-6))
    assert e2 == pytest.approx(4 * e1, rel=1e-12)


def test_epsilon_T_commuting_case_not_tight():
    # single Hamiltonian term: Trotter is exact yet the bound is positive
    inp = single_spin_inputs(trotter="order-1")
    assert epsilon_T_bound(inp) == pytest.approx(
        (1 * 1 * 1.0 * inp.omega * 1e-6) ** 2, rel=1e-12
    )
    assert epsilon_T_bound(single_spin_inputs(trotter="order-1", omega=0.0)) == 0.0
    assert epsilon_T_bound(single_spin_inputs()) == 0.0  # exact mode


def test_epsilon_T_dominates_measured_trotter_error(rng):
    model = presets.two_molecule_model()
    dt = 1e-4
    inp = BoundInputs.from_model(model, dt, 1, "order-1")
    u_exact = closed_propagator(model, dt, "exact")
    u_trot = closed_propagator(model, dt, "order-1")
    rho = random_density(rng, 4)
    measured = linalg.trace_distance(
        u_trot @ rho @ u_trot.conj().T, u_exact @ rho @ u_exact.conj().T
    )
    assert epsilon_T_bound(inp) >= measured


def test_epsilon_global_exact_mode_chain():
    inp = single_spin_inputs()
    assert epsilon_global_bound(inp) == pytest.approx(30 * epsilon_p_bound(inp), rel=1e-12)
    assert epsilon_global_bound(inp) == pytest.approx(1.47e-5, rel=1e-2)


def test_epsilon_global_vanishes_with_many_steps():
    # fixed T, increasing N_step: the bound goes to zero
    T = 30e-6
    vals = [
        epsilon_global_bound(single_spin_inputs(dt=T / n, n_steps=n))
        for n in (30, 300, 3000)
    ]
    assert vals[0] > vals[1] > vals[2]
    assert vals[2] < vals[0] / 50


def test_higher_trotter_order_exponent():
    inp1 = single_spin_inputs(trotter="order-1")
    inp2 = single_spin_inputs(trotter="order-2")
    x = inp1.K * inp1.J * inp1.max_h_norm * inp1.omega * inp1.dt
    assert epsilon_T_bound(inp1) == pytest.approx(x**2, rel=1e-12)
    assert epsilon_T_bound(inp2) == pytest.approx(x**3, rel=1e-12)
    assert epsilon_T_bound(inp2) < epsilon_T_bound(inp1)


def test_gate_count_inverse_scaling():
    inp = single_spin_inputs()
    n1 = gate_count_estimate(inp, 1e-3)
    n2 = gate_count_estimate(inp, 5e-4)
    assert abs(n2 - 2 * n1) <= 1  # exact up to the ceilings
    with pytest.raises(ValueError):
        gate_count_estimate(inp, 0.0)


def test_gate_count_simple_substitution():
    # m=1, K=1, J=1: N_G = ceil(5 T^2 (gamma^2 + omega^2) / eps)
    inp = single_spin_inputs()
    eps = 1e-3
    expected = math.ceil(5 * inp.T**2 * (inp.gamma**2 + inp.omega**2) / eps)
    assert gate_count_estimate(inp, eps) == expected


def test_gate_count_qubit_scaling_vs_binomial_oracle():
    def inputs_for(n):
        return BoundInputs(K=math.comb(n, 2), m=2, n=n, gamma=1.0, omega=1.0,
                           J=1, max_h_norm=1.0, max_L_norm=1.0, dt=0.1, n_steps=10,
                           trotter="order-1")

    eps = 1e-9
    k2, k4 = math.comb(2, 2), math.comb(4, 2)
    expected_ratio = ((k4 * (1 + 15) + 1) * k4**2) / ((k2 * (1 + 15) + 1) * k2**2)
    ratio = gate_count_estimate(inputs_for(4), eps) / gate_count_estimate(inputs_for(2), eps)
    assert ratio == pytest.approx(expected_ratio, rel=1e-6)


def test_monotonicity():
    base = single_spin_inputs()
    for field, larger in [("gamma", 200.0), ("dt", 2e-6), ("K", 2), ("m", 2)]:
        bumped = single_spin_inputs(**{field: larger})
        assert epsilon_p_bound(bumped) >= epsilon_p_bound(base)
        assert epsilon_global_bound(bumped) >= epsilon_global_bound(base)
    t1 = epsilon_T_bound(single_spin_inputs(trotter="order-1"))
    t2 = epsilon_T_bound(single_spin_inputs(trotter="order-1", omega=1e6))
    assert t2 >= t1


def test_scale_invariance():
    a = single_spin_inputs(trotter="order-1")
    c = 7.0
    b = single_spin_inputs(trotter="order-1", gamma=a.gamma * c,
                           omega=a.omega * c, dt=a.dt / c)
    assert epsilon_p_bound(b) == pytest.approx(epsilon_p_bound(a), rel=1e-12)
    assert epsilon_T_bound(b) == pytest.approx(epsilon_T_bound(a), rel=1e-12)
    assert epsilon_global_bound(b) == pytest.approx(epsilon_global_bound(a), rel=1e-12)


def test_from_model_extraction():
    model = presets.two_molecule_model()
    inp = BoundInputs.from_model(model, 0.05, 40, "order-1")
    assert inp.K == 3
    assert inp.m == 2
    assert inp.n == 2
    assert inp.J == 4
    assert inp.gamma == pytest.approx(0.3)
    assert inp.omega == pytest.approx(773.5 / 2)
    assert inp.max_h_norm == pytest.approx(1.0)
    assert inp.max_L_norm == pytest.approx(1.0)
    assert inp.T == pytest.approx(2.0)


def test_bound_report_structure():
    rep = bound_report(single_spin_inputs(), eps_global_target=1e-4)
    j = rep.to_json()
    assert j["eps_p"] > 0 and j["eps_T"] == 0.0
    assert j["eps_global"] == pytest.approx(j["eps_per_step_sum"], rel=1e-12)
    assert isinstance(j["gate_count"], int)
    text = rep.format_text()
    assert "eps_global" in text and "gate count" in text


def test_input_validation():
    with pytest.raises(ValueError):
        single_spin_inputs(dt=-1.0)
    with pytest.raises(ValueError):
        single_spin_inputs(gamma=-1.0)
    with pytest.raises(ValueError, match="unknown trotter mode"):
        single_spin_inputs(trotter="order-0")


@pytest.mark.parametrize("trotter", ["order-3", "Exact", 2])
def test_trotter_must_be_a_propagator_mode(trotter):
    # No propagator implements these, so no bound may be computed for them.
    with pytest.raises(ValueError, match="unknown trotter mode"):
        single_spin_inputs(trotter=trotter)
    with pytest.raises(ValueError, match="unknown trotter mode"):
        BoundInputs.from_model(presets.single_spin_model(), 1e-6, 30, trotter)


def test_trotter_is_required():
    with pytest.raises(TypeError, match="trotter"):
        BoundInputs.from_model(presets.single_spin_model(), 1e-6, 30)
