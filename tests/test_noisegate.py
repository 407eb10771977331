import numpy as np
import pytest
from numpy.testing import assert_allclose

from qnoise import linalg, presets
from qnoise.bounds import BoundInputs, epsilon_p_bound
from qnoise.model import (
    HamiltonianTerm,
    LindbladModel,
    LindbladTerm,
    PauliString,
    SIGMA_MINUS,
    SIGMA_PLUS,
    total_hamiltonian,
)
from qnoise.noisegate import (
    build_plan,
    closed_propagator,
    coupling_operator,
    expected_channel,
    gates_from_increments,
    sample_increments,
)
from qnoise.oracle import evolve_exact

from conftest import random_density

X = PauliString("X").matrix()
Y = PauliString("Y").matrix()
Z = PauliString("Z").matrix()


def driven_dephasing(omega=2.0, gamma=0.5):
    return LindbladModel(
        1, (HamiltonianTerm(omega / 2, X, 1),), (LindbladTerm(gamma, Z, 1, (0,), "Z"),)
    )


def test_closed_propagator_exact():
    model = driven_dephasing(omega=2.0)
    u = closed_propagator(model, 0.3, "exact")
    assert_allclose(u, linalg.matexp(-1j * 0.3 * X), atol=1e-12)


def test_closed_propagator_trotter_orders():
    model = presets.two_molecule_model()
    t = 1e-3
    exact = closed_propagator(model, t, "exact")
    err1 = np.max(np.abs(closed_propagator(model, t, "order-1") - exact))
    err2 = np.max(np.abs(closed_propagator(model, t, "order-2") - exact))
    assert err2 < err1 < 1e-2
    with pytest.raises(ValueError):
        closed_propagator(model, t, "order-3")


def test_interaction_picture_identity_at_zero():
    model = driven_dephasing()
    assert_allclose(build_plan(model, 0.1).l_nodes[0, 0], Z, atol=1e-14)


def test_interaction_picture_commuting_case():
    model = LindbladModel(
        1, (HamiltonianTerm(3.0, Z, 1),), (LindbladTerm(1.0, Z, 1, (0,), "Z"),)
    )
    plan = build_plan(model, 2.0, M=20)  # nodes s_r = 0.1 r
    for r in [1, 7, 20]:  # s = 0.1, 0.7, 2.0
        assert_allclose(plan.l_nodes[0, r], Z, atol=1e-12)


def test_interaction_picture_closed_form():
    # H = (omega/2) X rotates Z into cos(omega s) Z + sin(omega s) Y
    omega = 2.0
    model = driven_dephasing(omega=omega)
    plan = build_plan(model, 1.7, M=17)  # nodes s_r = 0.1 r
    for r in [0, 2, 9, 17]:  # s = 0.0, 0.2, 0.9, 1.7
        s = plan.nodes[r]
        got = plan.l_nodes[0, r]
        u = linalg.matexp(-1j * (omega / 2) * s * X)
        assert_allclose(got, u.conj().T @ Z @ u, atol=1e-12)
        assert_allclose(got, np.cos(omega * s) * Z + np.sin(omega * s) * Y, atol=1e-12)


def test_coupling_operator_structure():
    j = coupling_operator(SIGMA_MINUS)
    assert_allclose(j, linalg.kron(SIGMA_MINUS, SIGMA_PLUS) - linalg.kron(SIGMA_PLUS, SIGMA_MINUS))
    assert linalg.is_anti_hermitian(j, 1e-14)


def test_build_plan_empty_and_constant():
    no_noise = LindbladModel(1, (HamiltonianTerm(1.0, X, 1),), ())
    assert build_plan(no_noise, 0.1).n_channels == 0

    free = LindbladModel(1, (), (LindbladTerm(1.0, Z, 1, (0,), "Z"),))
    plan = build_plan(free, 0.1, M=4)
    j = coupling_operator(plan.l_nodes[0])
    for r in range(5):
        assert_allclose(j[r], j[0], atol=1e-14)


def test_build_plan_nodes_match_direct_computation():
    model = presets.single_spin_model()
    dt = presets.SINGLE_SPIN_DT
    plan = build_plan(model, dt, M=8)
    assert_allclose(plan.nodes, np.linspace(0, dt, 9))
    j = coupling_operator(plan.l_nodes)
    for k, term in enumerate(model.lindblad_terms):
        for r, s in enumerate(plan.nodes):
            u = closed_propagator(model, s)
            expected = coupling_operator(u.conj().T @ term.operator @ u)
            assert_allclose(j[k, r], expected, atol=1e-12)
            assert linalg.is_anti_hermitian(j[k, r], 1e-10)


def test_sample_Sk_anti_hermitian(rng):
    plan = build_plan(presets.single_spin_model(), 1e-6, M=8)
    dw = rng.normal(0.0, np.sqrt(plan.dt / 8), size=(50, 8))  # the draws of 50 single S_k
    for s in coupling_operator(np.einsum("bm,mij->bij", dw, plan.l_nodes[2, :8])):
        assert linalg.is_anti_hermitian(s, 1e-10)


def test_sample_Sk_zero_increments_and_zero_mean(rng):
    plan = build_plan(driven_dephasing(), 0.01, M=8)
    gate = gates_from_increments(plan, np.zeros((1, 8)))
    assert_allclose(gate, plan.u_full, atol=1e-12)

    # entry-wise mean of S over many draws is 0 within 4 standard errors
    n = 100_000
    dw = rng.normal(0.0, np.sqrt(plan.dt / 8), size=(n, 8))
    s = np.einsum("bm,mij->bij", dw, coupling_operator(plan.l_nodes[0, :8]))
    mean = s.mean(axis=0)
    se = s.std(axis=0) / np.sqrt(n)
    assert np.all(np.abs(mean) <= 4 * se + 1e-12)


def test_sample_Sk_constant_integrand_variance(rng):
    # H = 0: S = J * W(dt), so each entry has variance |J_ij|^2 dt
    gamma, dt = 1.0, 0.01
    model = LindbladModel(1, (), (LindbladTerm(gamma, SIGMA_MINUS, 1, (0,), "low"),))
    plan = build_plan(model, dt, M=8)
    n = 100_000
    dw = rng.normal(0.0, np.sqrt(dt / 8), size=(n, 8))
    s = np.einsum("bm,mij->bij", dw, coupling_operator(plan.l_nodes[0, :8]))
    j = coupling_operator(plan.l_nodes[0, 0])
    var = np.abs(s) ** 2
    mean_var = var.mean(axis=0)
    se = var.std(axis=0) / np.sqrt(n)
    assert_allclose(mean_var, np.abs(j) ** 2 * dt, atol=1e-12 + 3 * np.max(se))


def test_sample_Sk_covariance_against_trig_integrals(rng):
    # H = (omega/2) X, L = Z rotates into L(s) = cos(omega s) Z + sin(omega s) Y,
    # so J(s) = kron(L(s), sigma+) - kron(L(s)^dag, sigma-) has entries
    # J[1,0] = cos(omega s) and J[1,2] = -i sin(omega s), and the Ito
    # covariances int J_ij J_kl^* ds have closed trig forms.
    omega, dt, M = 3.0, 0.5, 64
    model = driven_dephasing(omega=omega, gamma=1.0)
    plan = build_plan(model, dt, M=M)
    n = 100_000
    dw = rng.normal(0.0, np.sqrt(dt / M), size=(n, M))
    s = np.einsum("bm,mij->bij", dw, coupling_operator(plan.l_nodes[0, :M]))
    grid_tol = omega * dt**2 / M  # left-endpoint quadrature bias

    a = s[:, 1, 0]
    var_a = np.mean(np.abs(a) ** 2)
    se_a = np.std(np.abs(a) ** 2) / np.sqrt(n)
    # int_0^dt cos^2 = dt/2 + sin(2 omega dt)/(4 omega)
    assert var_a == pytest.approx(
        dt / 2 + np.sin(2 * omega * dt) / (4 * omega), abs=3 * se_a + grid_tol
    )

    b = s[:, 1, 2]
    var_b = np.mean(np.abs(b) ** 2)
    se_b = np.std(np.abs(b) ** 2) / np.sqrt(n)
    # int_0^dt sin^2 = dt/2 - sin(2 omega dt)/(4 omega)
    assert var_b == pytest.approx(
        dt / 2 - np.sin(2 * omega * dt) / (4 * omega), abs=3 * se_b + grid_tol
    )

    # cross term E[S_10 conj(S_12)] = i int cos sin ds = i sin^2(omega dt)/(2 omega)
    cross = np.mean(a * np.conj(b))
    se_c = np.std((a * np.conj(b)).imag) / np.sqrt(n)
    assert abs(cross.real) < 3 * se_c + grid_tol
    assert cross.imag == pytest.approx(
        np.sin(omega * dt) ** 2 / (2 * omega), abs=3 * se_c + grid_tol
    )


def test_sample_gate_noiseless_limit(rng):
    model = LindbladModel(
        1, (HamiltonianTerm(1.0, X, 1),), (LindbladTerm(0.0, Z, 1, (0,), "Z"),)
    )
    plan = build_plan(model, 0.1, M=4)
    gate = gates_from_increments(plan, sample_increments(plan, rng))
    assert_allclose(gate, linalg.kron(closed_propagator(model, 0.1), np.eye(2)), atol=1e-12)


def test_sample_gate_unitary(rng):
    plan = build_plan(presets.single_spin_model(), presets.SINGLE_SPIN_DT, M=8)
    dw = sample_increments(plan, rng, size=(200,))
    gates = gates_from_increments(plan, dw)
    dev = np.abs(gates.conj().transpose(0, 2, 1) @ gates - np.eye(4))
    assert np.max(dev) < 1e-9


def test_sample_gate_records_increments(rng):
    model = presets.single_spin_model()
    plan = build_plan(model, presets.SINGLE_SPIN_DT, M=8)
    dw = sample_increments(plan, rng)
    assert dw.shape == (3, 8)
    # the same increments rebuild the same gate, alone or in a batch
    gate = gates_from_increments(plan, dw)
    assert_allclose(gates_from_increments(plan, dw[None])[0], gate, atol=1e-14)


def test_gate_average_matches_expected_channel(rng):
    # Monte-Carlo mean of Tr_E[N (rho x |0><0|) N^dag] vs the deterministic channel
    gamma = 0.5
    dt = 0.02  # gamma*dt = 1e-2
    model = driven_dephasing(omega=2.0, gamma=gamma)
    plan = build_plan(model, dt, M=8)
    rho = random_density(rng, 2)

    n = 100_000
    dw = sample_increments(plan, rng, size=(n,))
    gates = gates_from_increments(plan, dw)
    full = np.zeros((n, 4, 4), dtype=complex)
    full[:, 0::2, 0::2] = rho
    evolved = gates @ full @ gates.conj().transpose(0, 2, 1)
    reduced = linalg.partial_trace_ancilla(evolved, 2)
    mean = reduced.mean(axis=0)
    se = reduced.std(axis=0) / np.sqrt(n)

    target = expected_channel(model, dt, M=8)(rho)
    assert np.all(np.abs(mean - target) <= 3 * se + 5e-5)


def test_expected_channel_noiseless(rng):
    model = LindbladModel(1, (HamiltonianTerm(1.0, X, 1),), ())
    rho = random_density(rng, 2)
    u = closed_propagator(model, 0.2)
    assert_allclose(expected_channel(model, 0.2)(rho), u @ rho @ u.conj().T, atol=1e-12)


def test_expected_channel_dephasing_exact():
    gamma, dt = 0.4, 0.05
    model = LindbladModel(1, (), (LindbladTerm(gamma, Z, 1, (0,), "Z"),))
    rho = np.array([[0.5, 0.3], [0.3, 0.5]], dtype=complex)
    out = expected_channel(model, dt, M=8)(rho)
    assert out[0, 1] == pytest.approx(rho[0, 1] * (1 - 2 * gamma * dt), abs=1e-14)


def test_expected_channel_one_step_second_order():
    model = presets.single_spin_model()
    gamma = presets.SINGLE_SPIN_GAMMA
    rho0 = np.diag([1.0, 0.0]).astype(complex)
    gdts = np.logspace(np.log10(1.2e-3), np.log10(2.8e-2), 6)
    errs = []
    for gdt in gdts:
        dt = gdt / gamma
        err = linalg.trace_distance(
            expected_channel(model, dt, M=256)(rho0), evolve_exact(model, rho0, dt)
        )
        errs.append(err)
    slope = np.polyfit(np.log(gdts), np.log(errs), 1)[0]
    assert slope == pytest.approx(2.0, abs=0.2)


def test_expected_channel_sub_step_convergence():
    # doubling M moves the output by less than the per-step error bound;
    # at the default M=8 the left-endpoint quadrature bias (~3e-6 here,
    # O(omega*dt/M)) still exceeds the bound, so the property is checked
    # at the M=64 resolution the shipped sweep configs exceed.
    model = presets.single_spin_model()
    dt = presets.SINGLE_SPIN_DT
    rho0 = np.diag([1.0, 0.0]).astype(complex)
    a = expected_channel(model, dt, M=64)(rho0)
    b = expected_channel(model, dt, M=128)(rho0)
    bound = epsilon_p_bound(BoundInputs.from_model(model, dt, 1, exact_unitary=True))
    assert linalg.trace_distance(a, b) < bound


def test_build_plan_rejects_bad_args():
    model = presets.single_spin_model()
    with pytest.raises(ValueError):
        build_plan(model, -1.0)
    with pytest.raises(ValueError):
        build_plan(model, 1e-6, M=0)


# ---------------------------------------------------------------------------
# Equivalence with the Kronecker-matrix construction: per-node propagators
# from linalg.matexp, 2d x 2d couplings J_k(s_r) built with kron, the
# einsum contraction S_k = sum_r J_k(s_r) dW_r, and one exponential per
# matrix.  The plan's d x d table, GEMM and block-SVD exponential must
# reproduce it on fixed increments.
# ---------------------------------------------------------------------------


def reference_propagator(model, t, trotter):
    if trotter == "exact":
        return linalg.matexp(-1j * t * total_hamiltonian(model))
    scale = 1.0 if trotter == "order-1" else 0.5
    factors = [linalg.matexp(-1j * scale * t * h.matrix()) for h in model.hamiltonian_terms]
    if trotter == "order-2":
        factors = factors + factors[::-1]
    u = np.eye(model.dim, dtype=complex)
    for f in factors:
        u = f @ u
    return u


def reference_L(model, trotter, nodes):
    """[k][r] -> L_k(s_r) = U(s_r)^dag L_k U(s_r)."""
    props = [reference_propagator(model, s, trotter) for s in nodes]
    return [[u.conj().T @ term.operator @ u for u in props] for term in model.lindblad_terms]


def reference_gates(model, dt, trotter, M, increments):
    nodes = np.linspace(0.0, dt, M + 1)[:M]
    ls = reference_L(model, trotter, nodes)
    batch = increments.shape[:-2]
    d2 = 2 * model.dim
    gate = np.broadcast_to(
        linalg.kron(reference_propagator(model, dt, trotter), np.eye(2)), batch + (d2, d2)
    ).copy()
    for k, term in enumerate(model.lindblad_terms):
        if term.rate == 0.0:
            continue
        j = np.array([
            linalg.kron(L, SIGMA_PLUS) - linalg.kron(L.conj().T, SIGMA_MINUS) for L in ls[k]
        ])
        s_k = np.einsum("...m,mij->...ij", increments[..., k, :], j)
        exps = [linalg.matexp(np.sqrt(term.rate) * s) for s in s_k.reshape(-1, d2, d2)]
        gate = gate @ np.array(exps).reshape(s_k.shape)
    return gate


def reference_channel(model, dt, trotter, M, rho):
    """Per-piece loop over (channel, node) of the left-endpoint dissipator integral."""
    h = dt / M
    ls = reference_L(model, trotter, [r * h for r in range(M)])
    acc = rho.copy()
    for k, term in enumerate(model.lindblad_terms):
        if term.rate == 0.0:
            continue
        for L in ls[k]:
            LdL = L.conj().T @ L
            acc += term.rate * h * (L @ rho @ L.conj().T - 0.5 * (LdL @ rho + rho @ LdL))
    u = reference_propagator(model, dt, trotter)
    return u @ acc @ u.conj().T


def lowering_model():
    # H = (omega/2) Z keeps L(s) = e^{i omega s} sigma-, so every A is rank one;
    # the X channel has rate zero and must be skipped.
    return LindbladModel(
        1,
        (HamiltonianTerm(1.5, Z, 1),),
        (
            LindbladTerm(0.8, SIGMA_MINUS, 1, (0,), "lower"),
            LindbladTerm(0.0, X, 1, (0,), "off"),
        ),
    )


EQUIVALENCE_CASES = [
    pytest.param(presets.single_spin_model, presets.SINGLE_SPIN_DT, 8, id="single-spin"),
    pytest.param(presets.two_molecule_model, presets.TWO_MOLECULE_DT, 256, id="two-molecule"),
    pytest.param(lowering_model, 0.3, 8, id="lowering"),
]


@pytest.mark.parametrize("trotter", ["exact", "order-1", "order-2"])
@pytest.mark.parametrize("make_model,dt,M", EQUIVALENCE_CASES)
def test_gates_match_kronecker_reference(make_model, dt, M, trotter):
    model = make_model()
    plan = build_plan(model, dt, trotter, M)
    rng = np.random.default_rng(2024)
    K = len(model.lindblad_terms)
    # Wiener-scale increments, increments large enough to rotate by O(1),
    # and all-zero increments (the gate is then U(dt) alone).
    typical = rng.normal(0.0, np.sqrt(dt / M), size=(6, K, M))
    large = rng.normal(0.0, 3.0 / np.sqrt(M * max(plan.rates)), size=(4, K, M))
    zero = np.zeros((2, K, M))
    for inc in (typical, large, zero):
        got = gates_from_increments(plan, inc)
        assert_allclose(got, reference_gates(model, dt, trotter, M, inc), rtol=0, atol=1e-12)
    for gate in gates_from_increments(plan, zero):
        assert_allclose(gate, plan.u_full, atol=1e-14)


def test_lowering_channel_block_is_rank_one():
    model = lowering_model()
    plan = build_plan(model, 0.3, M=8)
    a = np.tensordot(np.random.default_rng(5).normal(size=8), plan.l_nodes[0, :8], 1)
    sv = np.linalg.svd(a, compute_uv=False)
    assert sv[0] > 0.1 and sv[1] < 1e-14


@pytest.mark.parametrize("trotter", ["exact", "order-1", "order-2"])
@pytest.mark.parametrize("make_model,dt,M", EQUIVALENCE_CASES)
def test_expected_channel_matches_piece_loop(make_model, dt, M, trotter):
    model = make_model()
    rho = random_density(np.random.default_rng(17), model.dim)
    got = expected_channel(model, dt, trotter, M)(rho)
    assert_allclose(got, reference_channel(model, dt, trotter, M, rho), rtol=0, atol=1e-12)
