import math
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.linalg import expm

from qnoise import linalg, noisegate, presets
from qnoise.bounds import BoundInputs, epsilon_p_bound
from qnoise.config import RunConfig, load_model
from qnoise.engine import run_ensemble
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
    expected_channel,
    gate_action,
    gates_from_increments,
    sample_noise,
)
from qnoise.oracle import evolve_exact

from conftest import (
    coupling_operator, grid_increments, is_anti_hermitian, noise_coordinates, random_density,
    random_pure,
)

X = PauliString("X").matrix()
Y = PauliString("Y").matrix()
Z = PauliString("Z").matrix()


def driven_dephasing(omega=2.0, gamma=0.5):
    return LindbladModel(
        1, (HamiltonianTerm(omega / 2, X),), (LindbladTerm(gamma, Z, "Z"),)
    )


def test_closed_propagator_exact():
    model = driven_dephasing(omega=2.0)
    u = closed_propagator(model, 0.3, "exact")
    assert_allclose(u, expm(-1j * 0.3 * X), atol=1e-12)


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
        1, (HamiltonianTerm(3.0, Z),), (LindbladTerm(1.0, Z, "Z"),)
    )
    plan = build_plan(model, 2.0, M=20)  # nodes s_r = 0.1 r
    for r in [1, 7, 19]:  # s = 0.1, 0.7, 1.9
        assert_allclose(plan.l_nodes[0, r], Z, atol=1e-12)


def test_interaction_picture_closed_form():
    # H = (omega/2) X rotates Z into cos(omega s) Z + sin(omega s) Y
    omega = 2.0
    model = driven_dephasing(omega=omega)
    plan = build_plan(model, 1.7, M=17)  # nodes s_r = 0.1 r
    nodes = np.linspace(0, 1.7, 18)
    for r in [0, 2, 9, 16]:  # s = 0.0, 0.2, 0.9, 1.6
        s = nodes[r]
        got = plan.l_nodes[0, r]
        u = expm(-1j * (omega / 2) * s * X)
        assert_allclose(got, u.conj().T @ Z @ u, atol=1e-12)
        assert_allclose(got, np.cos(omega * s) * Z + np.sin(omega * s) * Y, atol=1e-12)


def test_coupling_operator_structure():
    j = coupling_operator(SIGMA_MINUS)
    assert_allclose(j, np.kron(SIGMA_MINUS, SIGMA_PLUS) - np.kron(SIGMA_PLUS, SIGMA_MINUS))
    assert is_anti_hermitian(j, 1e-14)


def test_build_plan_empty_and_constant():
    no_noise = LindbladModel(1, (HamiltonianTerm(1.0, X),), ())
    assert len(build_plan(no_noise, 0.1).rates) == 0

    free = LindbladModel(1, (), (LindbladTerm(1.0, Z, "Z"),))
    plan = build_plan(free, 0.1, M=4)
    j = coupling_operator(plan.l_nodes[0])
    for r in range(4):
        assert_allclose(j[r], j[0], atol=1e-14)


@pytest.mark.parametrize("trotter", noisegate.TROTTER_MODES)
def test_interaction_table_is_the_per_node_product(trotter):
    # Two products over all channels at once give exactly U(s)^dag L_k U(s) per (k, s).
    model, M = presets.two_molecule_model(), 256
    props = closed_propagator(model, np.linspace(0.0, presets.TWO_MOLECULE_DT, M + 1), trotter)[:M]
    ops = np.array([term.operator for term in model.lindblad_terms])
    table = noisegate._interaction_table(ops, props)
    direct = np.array([[u.conj().T @ term.operator @ u for u in props]
                       for term in model.lindblad_terms])
    assert table.flags.c_contiguous
    assert np.array_equal(table, direct)
    # The plan tabulates the channels that act: all but ZX and ZY.
    plan = build_plan(model, presets.TWO_MOLECULE_DT, trotter, M)
    assert plan.l_nodes.flags.c_contiguous
    assert np.array_equal(plan.l_nodes, direct[np.array(model.acting_rates) > 0])


def test_interaction_table_without_dissipators():
    model = LindbladModel(2, presets.two_molecule_model().hamiltonian_terms, ())
    assert build_plan(model, 0.05, M=16).l_nodes.shape == (0, 16, 4, 4)


def test_build_plan_nodes_match_direct_computation():
    model = presets.single_spin_model()
    dt = presets.SINGLE_SPIN_DT
    plan = build_plan(model, dt, M=8)
    j = coupling_operator(plan.l_nodes)
    for k, term in enumerate(model.lindblad_terms):
        for r, s in enumerate(np.linspace(0, dt, 9)[:8]):
            u = closed_propagator(model, s)
            expected = coupling_operator(u.conj().T @ term.operator @ u)
            assert_allclose(j[k, r], expected, atol=1e-12)
            assert is_anti_hermitian(j[k, r], 1e-10)


def test_sample_Sk_anti_hermitian(rng):
    plan = build_plan(presets.single_spin_model(), 1e-6, M=8)
    dw = rng.normal(0.0, np.sqrt(plan.dt / 8), size=(50, 8))  # the draws of 50 single S_k
    for s in coupling_operator(np.einsum("bm,mij->bij", dw, plan.l_nodes[2, :8])):
        assert is_anti_hermitian(s, 1e-10)


def test_sample_Sk_zero_increments_and_zero_mean(rng):
    plan = build_plan(driven_dephasing(), 0.01, M=8)
    gate = gates_from_increments(plan, np.zeros(plan.factors.shape[:2]))
    assert_allclose(gate, np.kron(plan.u, np.eye(2)), atol=1e-12)

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
    model = LindbladModel(1, (), (LindbladTerm(gamma, SIGMA_MINUS, "low"),))
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
        1, (HamiltonianTerm(1.0, X),), (LindbladTerm(0.0, Z, "Z"),)
    )
    plan = build_plan(model, 0.1, M=4)
    gate = gates_from_increments(plan, sample_noise(plan, rng))
    assert_allclose(gate, np.kron(closed_propagator(model, 0.1), np.eye(2)), atol=1e-12)


def test_sample_gate_unitary(rng):
    plan = build_plan(presets.single_spin_model(), presets.SINGLE_SPIN_DT, M=8)
    gates = gates_from_increments(plan, sample_noise(plan, rng, size=(200,)))
    dev = np.abs(gates.conj().transpose(0, 2, 1) @ gates - np.eye(4))
    assert np.max(dev) < 1e-9


def test_sample_gate_records_increments(rng):
    model = presets.single_spin_model()
    plan = build_plan(model, presets.SINGLE_SPIN_DT, M=8)
    z = sample_noise(plan, rng)
    assert z.shape == (3, kept_rank(plan))   # three active channels, one normal per factor row
    # the same noise rebuilds the same gate, alone or in a batch
    gate = gates_from_increments(plan, z)
    assert_allclose(gates_from_increments(plan, z[None])[0], gate, atol=1e-14)


def test_gate_average_matches_expected_channel(rng):
    # Monte-Carlo mean of Tr_E[N (rho x |0><0|) N^dag] vs the deterministic channel
    gamma = 0.5
    dt = 0.02  # gamma*dt = 1e-2
    model = driven_dephasing(omega=2.0, gamma=gamma)
    plan = build_plan(model, dt, M=8)
    rho = random_density(rng, 2)

    n = 100_000
    gates = gates_from_increments(plan, sample_noise(plan, rng, size=(n,)))
    full = np.zeros((n, 4, 4), dtype=complex)
    full[:, 0::2, 0::2] = rho
    evolved = gates @ full @ gates.conj().transpose(0, 2, 1)
    reduced = linalg.partial_trace_ancilla(evolved, 2)
    mean = reduced.mean(axis=0)
    se = reduced.std(axis=0) / np.sqrt(n)

    target = expected_channel(model, dt, M=8)(rho)
    assert np.all(np.abs(mean - target) <= 3 * se + 5e-5)


def test_expected_channel_noiseless(rng):
    model = LindbladModel(1, (HamiltonianTerm(1.0, X),), ())
    rho = random_density(rng, 2)
    u = closed_propagator(model, 0.2)
    assert_allclose(expected_channel(model, 0.2)(rho), u @ rho @ u.conj().T, atol=1e-12)


def test_expected_channel_dephasing_exact():
    gamma, dt = 0.4, 0.05
    model = LindbladModel(1, (), (LindbladTerm(gamma, Z, "Z"),))
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
    bound = epsilon_p_bound(BoundInputs.from_model(model, dt, 1, "exact"))
    assert linalg.trace_distance(a, b) < bound


def test_build_plan_rejects_bad_args():
    model = presets.single_spin_model()
    with pytest.raises(ValueError):
        build_plan(model, -1.0)
    with pytest.raises(ValueError):
        build_plan(model, 1e-6, M=0)


# ---------------------------------------------------------------------------
# Equivalence with the Kronecker-matrix construction: per-node propagators
# from scipy's expm, 2d x 2d couplings J_k(s_r) built with kron, the
# einsum contraction S_k = sum_r J_k(s_r) dW_r, and one exponential per
# matrix.  The plan's d x d table, factor, GEMM and block-SVD exponential
# must reproduce it on fixed increments, mapped to the sampler's noise.
# ---------------------------------------------------------------------------


def reference_propagator(model, t, trotter):
    if trotter == "exact":
        return expm(-1j * t * total_hamiltonian(model))
    scale = 1.0 if trotter == "order-1" else 0.5
    factors = [expm(-1j * scale * t * h.matrix()) for h in model.hamiltonian_terms]
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
        np.kron(reference_propagator(model, dt, trotter), np.eye(2)), batch + (d2, d2)
    ).copy()
    for k, term in enumerate(model.lindblad_terms):
        if term.rate == 0.0:
            continue
        j = np.array([
            np.kron(L, SIGMA_PLUS) - np.kron(L.conj().T, SIGMA_MINUS) for L in ls[k]
        ])
        s_k = np.einsum("...m,mij->...ij", increments[..., k, :], j)
        exps = [expm(np.sqrt(term.rate) * s) for s in s_k.reshape(-1, d2, d2)]
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
        (HamiltonianTerm(1.5, Z),),
        (
            LindbladTerm(0.8, SIGMA_MINUS, "lower"),
            LindbladTerm(0.0, X, "off"),
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
    # The reference reads one row of increments per model term, the plan one per channel that
    # acts: the plan's channel k must be the k-th term that acts.
    acting = np.array(model.acting_rates) > 0
    # Wiener-scale increments, increments large enough to rotate by O(1),
    # and all-zero increments (the gate is then U(dt) alone).
    typical = rng.normal(0.0, np.sqrt(dt / M), size=(6, K, M))
    large = rng.normal(0.0, 3.0 / np.sqrt(M * max(plan.rates)), size=(4, K, M))
    zero = np.zeros((2, K, M))
    for inc in (typical, large, zero):
        got = gates_from_increments(plan, noise_coordinates(plan, inc[:, acting]))
        assert_allclose(got, reference_gates(model, dt, trotter, M, inc), rtol=0, atol=1e-12)
    for gate in gates_from_increments(plan, noise_coordinates(plan, zero[:, acting])):
        assert_allclose(gate, np.kron(plan.u, np.eye(2)), atol=1e-14)


def channel_singular_values(plan):
    """Descending singular values of each channel's (M, 2d^2) real node table."""
    M, d = plan.m_nodes, plan.system_dim
    return [np.linalg.svd(table.reshape(M, d * d).view(np.float64), compute_uv=False)
            for table in plan.l_nodes]


def kept_rank(plan):
    """The largest number of singular values above RANK_CUT of their channel's largest."""
    return max((np.count_nonzero(sv > noisegate.RANK_CUT * sv[0])
                for sv in channel_singular_values(plan)), default=0)


def grid_covariance_cases():
    cases = [pytest.param(*case.values, trotter, id=f"{case.id}-{trotter}")
             for case in EQUIVALENCE_CASES for trotter in ("exact", "order-1", "order-2")]
    return cases + [pytest.param(presets.two_molecule_model, presets.TWO_MOLECULE_DT, 16,
                                 "exact", id="two-molecule-M16")]


@pytest.mark.parametrize("make_model,dt,M,trotter", grid_covariance_cases())
def test_factor_reproduces_grid_law(make_model, dt, M, trotter):
    # A_k = sqrt(gamma_k) T_k^T dW with dW ~ Normal(0, dt/M) has covariance
    # gamma_k (dt/M) T_k^T T_k; z F_k with z ~ Normal(0, I) has F_k^T F_k.
    plan = build_plan(make_model(), dt, trotter, M)
    d, K = plan.system_dim, len(plan.rates)
    r = kept_rank(plan)
    assert plan.factors.shape == (K, r, 2 * d * d)
    for f, rate, nodes in zip(plan.factors, plan.rates, plan.l_nodes):
        table = nodes.reshape(M, d * d).view(np.float64)
        cov = rate * dt / M * (table.T @ table)
        assert np.max(np.abs(f.T @ f - cov)) <= 1e-13 * np.max(np.abs(cov))
    # Zero-rate channels have no row and draw nothing.
    z = sample_noise(plan, np.random.default_rng(6), (5,))
    assert z.shape == (5, K, r)
    assert np.array_equal(z.ravel(), np.random.default_rng(6).standard_normal(z.size))


def test_factor_keeps_only_the_numerical_rank():
    # L_k(s) = sum_w e^{i w s} L_k^w spans a few real directions, one or two per Bohr
    # frequency of L_k, whatever M is; the factor keeps those rows and drops the rounding.
    cases = [(presets.single_spin_model(), presets.SINGLE_SPIN_DT, 8, 3),
             (presets.two_molecule_model(), presets.TWO_MOLECULE_DT, 16, 5),
             (presets.two_molecule_model(), presets.TWO_MOLECULE_DT, 256, 5)]
    for model, dt, M, rank in cases:
        plan = build_plan(model, dt, M=M)
        assert plan.factors.shape[1] == rank
        for sv in channel_singular_values(plan):
            assert np.all(sv[rank:] <= noisegate.RANK_CUT * sv[0])

    # No channel acts: no rows, no normals, and the run is the closed evolution.
    model = LindbladModel(1, (HamiltonianTerm(1.0, X),), (LindbladTerm(0.0, Z, "Z"),))
    assert build_plan(model, 0.1, M=8).factors.shape == (0, 0, 8)
    closed = [np.real(u[:, 0].conj() @ Z @ u[:, 0])
              for u in closed_propagator(model, 0.1 * np.arange(4))]
    for mode in ("measure-reset", "partial-trace"):
        result = run_ensemble(RunConfig(model=model, dt=0.1, n_steps=3, n_realizations=4,
                                        mode=mode, observables=[("Z", Z)]))
        assert_allclose(result.observable("Z")[0], closed, rtol=0, atol=1e-12)


def test_exact_channel_builds_no_table(monkeypatch):
    # Exact mode sums the nodes through H's Bohr frequencies; only the Trotter modes
    # read the (K, M, d, d) interaction table.
    model, dt = presets.two_molecule_model(), presets.TWO_MOLECULE_DT
    rho = random_density(np.random.default_rng(17), model.dim)
    want = reference_channel(model, dt, "exact", 16, rho)

    def forbidden(*args):
        raise AssertionError("built the interaction table")

    monkeypatch.setattr(noisegate, "_interaction_table", forbidden)
    assert_allclose(expected_channel(model, dt, "exact", 16)(rho), want, rtol=0, atol=1e-12)
    with pytest.raises(AssertionError, match="interaction table"):
        expected_channel(model, dt, "order-1", 16)
    for bad_dt, bad_m, trotter in [(0.0, 16, "exact"), (dt, 0, "exact"), (dt, 16, "order-3")]:
        with pytest.raises(ValueError):
            expected_channel(model, bad_dt, trotter, bad_m)


def test_factor_stays_off_the_reference_path(monkeypatch):
    def forbidden(plan):
        raise AssertionError("the expected channel computed the sampler's factor")

    monkeypatch.setattr(noisegate.NoiseGatePlan, "factors", property(forbidden))
    model = presets.two_molecule_model()
    assert expected_channel(model, presets.TWO_MOLECULE_DT, M=16)(np.eye(4) / 4).shape == (4, 4)
    build_plan(model, presets.TWO_MOLECULE_DT, M=16)


def test_lowering_channel_block_is_rank_one():
    model = lowering_model()
    plan = build_plan(model, 0.3, M=8)
    a = np.tensordot(np.random.default_rng(5).normal(size=8), plan.l_nodes[0, :8], 1)
    sv = np.linalg.svd(a, compute_uv=False)
    assert sv[0] > 0.1 and sv[1] < 1e-14


def degenerate_model():
    # H = ZZ + 0.4 YI has two doubly degenerate levels (YI anticommutes with ZZ), so eigh may
    # return any basis of each, and its eigenvectors are complex.
    eye = np.eye(2)
    return LindbladModel(
        2,
        (HamiltonianTerm(1.0, PauliString("ZZ").matrix()), HamiltonianTerm(0.4, np.kron(Y, eye))),
        (LindbladTerm(0.3, np.kron(SIGMA_MINUS, eye), "lower-0"),
         LindbladTerm(0.2, np.kron(eye, Z), "dephase-1")),
    )


def undriven_model():
    return LindbladModel(
        1, (), (LindbladTerm(0.8, SIGMA_MINUS, "lower"), LindbladTerm(0.4, Z, "Z"))
    )


CHANNEL_CASES = EQUIVALENCE_CASES + [
    # The lowering model's Bohr frequency is 3, so 3 dt/M = 2 pi: every node has phase 1.
    pytest.param(lowering_model, 16 * np.pi / 3, 8, id="lowering-aliased"),
    pytest.param(degenerate_model, 0.3, 8, id="degenerate"),
    pytest.param(undriven_model, 0.3, 8, id="no-hamiltonian"),
]


@pytest.mark.parametrize("trotter", ["exact", "order-1", "order-2"])
@pytest.mark.parametrize("make_model,dt,M", CHANNEL_CASES)
def test_expected_channel_matches_piece_loop(make_model, dt, M, trotter):
    model = make_model()
    rho = random_density(np.random.default_rng(17), model.dim)
    got = expected_channel(model, dt, trotter, M)(rho)
    assert_allclose(got, reference_channel(model, dt, trotter, M, rho), rtol=0, atol=1e-12)


# ---------------------------------------------------------------------------
# The measure-reset gate action: the Taylor-series action of the gate on
# psi x |0> must equal the SVD-formed gate's ancilla-0 columns applied to psi.
# ---------------------------------------------------------------------------

def chain_model(n):
    """n qubits: ZZ between neighbours plus X on each qubit, and Z dephasing on each qubit."""
    def pauli(letter, *qubits):
        return "".join(letter if q in qubits else "I" for q in range(n))

    return load_model({
        "n": n,
        "hamiltonian": [{"pauli": pauli("Z", q, q + 1), "coeff": 1.0} for q in range(n - 1)]
                       + [{"pauli": pauli("X", q), "coeff": 0.5} for q in range(n)],
        "lindblad": [{"pauli": pauli("Z", q), "rate": 0.2} for q in range(n)],
    })


ACTION_CASES = EQUIVALENCE_CASES[:2] + [
    pytest.param(lambda: chain_model(3), 0.05, 8, id="chain-3"),   # d = 8
]


def formed_action(plan, noise, psi):
    return np.einsum("bij,bj->bi", gates_from_increments(plan, noise)[:, :, 0::2], psi)


def random_states(rng, batch, d):
    return np.array([random_pure(rng, d) for _ in range(batch)])


def channel_norms(plan, increments):
    """Per channel, the batch's largest Frobenius norm of A_k = sqrt(gamma_k) sum_r L_k(s_r) dW_r
    for grid increments dW of shape (batch, K, M)."""
    a = np.einsum("bkr,kr...->bk...", increments, plan.l_nodes) * np.sqrt(plan.rates)[:, None, None]
    return np.linalg.norm(a, axis=(-2, -1)).max(axis=0)


@pytest.mark.parametrize("trotter", ["exact", "order-1", "order-2"])
@pytest.mark.parametrize("make_model,dt,M", ACTION_CASES)
def test_gate_action_matches_formed_gate(make_model, dt, M, trotter):
    plan = build_plan(make_model(), dt, trotter, M)
    rng = np.random.default_rng(31)
    noise = noise_coordinates(plan, grid_increments(plan, rng, (128,)))
    psi = random_states(rng, 128, plan.system_dim)
    got = gate_action(plan, noise, psi)
    assert_allclose(got, formed_action(plan, noise, psi), rtol=0, atol=1e-13)
    assert_allclose(np.linalg.norm(got, axis=1), 1.0, rtol=0, atol=1e-14)


@pytest.mark.parametrize("make_model,dt,M", ACTION_CASES)
def test_gate_action_zero_increments(make_model, dt, M):
    plan = build_plan(make_model(), dt, "exact", M)
    psi = random_states(np.random.default_rng(3), 4, plan.system_dim)
    got = gate_action(plan, noise_coordinates(plan, np.zeros((4, len(plan.rates), M))), psi)
    assert_allclose(got[:, 0::2], psi @ plan.u.T, rtol=0, atol=1e-15)   # to product rounding
    assert np.array_equal(got[:, 1::2], np.zeros_like(psi))


def test_zero_rate_channels_draw_no_noise():
    # The plan and the expected channel hold only the channels that act.  Two-molecule's ZX and
    # ZY have rate 0; a rate-0 term or an identity operator put in the middle of the terms
    # shifts the later terms, yet every row, and the channel, equals the model without them.
    base, dt = presets.two_molecule_model(), presets.TWO_MOLECULE_DT
    assert [t.label for t, rate in zip(base.lindblad_terms, base.acting_rates) if not rate] == [
        "ZX", "ZY"]
    acting = tuple(t for t, rate in zip(base.lindblad_terms, base.acting_rates) if rate)

    def with_terms(*extra):
        return LindbladModel(2, base.hamiltonian_terms, acting[:6] + extra + acting[6:])

    reference = with_terms()
    variants = [base, with_terms(LindbladTerm(0.0, PauliString("XX").matrix(), "off")),
                with_terms(LindbladTerm(0.3, np.eye(4), "identity"))]
    rho = random_density(np.random.default_rng(8), 4)
    for model in variants:
        for trotter in noisegate.TROTTER_MODES:
            want, got = (build_plan(m, dt, trotter, M=16) for m in (reference, model))
            assert np.all(got.rates > 0)
            for field in ("rates", "l_nodes", "factors"):
                assert np.array_equal(getattr(got, field), getattr(want, field)), (trotter, field)
            assert np.array_equal(expected_channel(model, dt, trotter, 16)(rho),
                                  expected_channel(reference, dt, trotter, 16)(rho)), trotter
    # Each of the 13 channels that act draws one normal per factor row.
    plan = build_plan(base, dt, M=16)
    assert sample_noise(plan, np.random.default_rng(8), (8,)).shape == (8, 13, kept_rank(plan))


@pytest.mark.parametrize("make_model,dt,M", ACTION_CASES)
def test_gate_action_sub_steps_at_large_norm(make_model, dt, M):
    plan = build_plan(make_model(), dt, "exact", M)
    rng = np.random.default_rng(12)
    inc = grid_increments(plan, rng, (64,))
    inc *= 3.0 / channel_norms(plan, inc).max()
    norms = channel_norms(plan, inc)
    assert 1.0 < norms.max() < 3.0 + 1e-9   # above 1: the exponent is split into sub-steps
    noise = noise_coordinates(plan, inc)
    psi = random_states(rng, 64, plan.system_dim)
    got = gate_action(plan, noise, psi)
    assert_allclose(got, formed_action(plan, noise, psi), rtol=0, atol=1e-12)
    assert_allclose(np.linalg.norm(got, axis=1), 1.0, rtol=0, atol=1e-14)


def block_norms(plan, noise):
    """Per channel, the batch's largest Frobenius norm of A_k = z_k F_k for noise (batch, K, r)."""
    return np.linalg.norm(np.einsum("bkr,krc->bkc", noise, plan.factors), axis=-1).max(axis=0)


@pytest.mark.parametrize("make_model,dt,M,first,rest", [
    pytest.param(presets.single_spin_model, presets.SINGLE_SPIN_DT, 8, 2.5, 0.5,
                 id="single-spin-first-above"),
    pytest.param(presets.single_spin_model, presets.SINGLE_SPIN_DT, 8, 0.5, 2.5,
                 id="single-spin-first-below"),
    pytest.param(presets.two_molecule_model, presets.TWO_MOLECULE_DT, 16, 2.5, 0.5,
                 id="two-molecule-first-above"),
    pytest.param(presets.two_molecule_model, presets.TWO_MOLECULE_DT, 16, 0.5, 2.5,
                 id="two-molecule-first-below"),
    pytest.param(driven_dephasing, 0.1, 8, 0.5, 0.5, id="one-channel"),
    pytest.param(driven_dephasing, 0.1, 8, 2.5, 2.5, id="one-channel-sub-steps"),
])
def test_gate_action_paths_agree_with_formed_gate(make_model, dt, M, first, rest):
    # The first channel to act, plan row K-1, runs on the one non-zero half unless |A| > 1
    # splits it into sub-steps; the rest run on the stacked halves.  Row K-1 is scaled to
    # `first` and every other row to `rest`, so one call runs both paths, in either order
    # of sizes; with one channel, one path alone makes the output.
    plan = build_plan(make_model(), dt, "exact", M)
    rng = np.random.default_rng(21)
    noise = sample_noise(plan, rng, (32,))
    target = np.full(len(plan.rates), rest)
    target[-1] = first
    noise *= (target / block_norms(plan, noise))[:, None]
    assert_allclose(block_norms(plan, noise), target, rtol=1e-12)
    d = plan.system_dim
    # Measure-reset's (B, d) states, and partial-trace's (B d, d) stack of basis states with
    # each trajectory's noise repeated over its d rows.
    for z, states in [(noise, random_states(rng, 32, d)),
                      (np.repeat(noise, d, axis=0), np.tile(np.eye(d), (32, 1)))]:
        got = gate_action(plan, z, states)
        assert_allclose(got, formed_action(plan, z, states), rtol=0, atol=1e-12)
        assert_allclose(np.linalg.norm(got, axis=1), 1.0, rtol=0, atol=1e-14)


@pytest.mark.parametrize("scale", [1.0, 40.0])
@pytest.mark.parametrize("make_model,dt,M", EQUIVALENCE_CASES[:2])
def test_gate_action_runs_one_einsum_per_taylor_term(make_model, dt, M, scale, monkeypatch):
    # Channel k's series runs `steps` sub-steps of `degree` terms, both read off |A_k|.
    plan = build_plan(make_model(), dt, "exact", M)
    rng = np.random.default_rng(9)
    noise = scale * sample_noise(plan, rng, (16,))
    psi = random_states(rng, 16, plan.system_dim)
    terms = 0
    for norm in block_norms(plan, noise):
        steps = max(1, math.ceil(norm))
        terms += steps * linalg.taylor_degree(norm / steps)
    calls = []
    einsum = np.einsum
    monkeypatch.setattr(np, "einsum", lambda *args: calls.append(args[0]) or einsum(*args))
    gate_action(plan, noise, psi)
    assert len(calls) == terms > 0


def test_gate_action_empty_batch():
    plan = build_plan(presets.two_molecule_model(), presets.TWO_MOLECULE_DT, M=16)
    got = gate_action(plan, np.zeros((0,) + plan.factors.shape[:2]), np.zeros((0, 4)))
    assert got.shape == (0, 8)


def test_gate_action_memory_is_a_few_blocks_whatever_the_degree():
    # d = 16, B = 512, four active channels.  Scaling the noise x40 takes the largest
    # |A| from below 1 to above 1, so the series runs in sub-steps at a higher degree.
    plan = build_plan(chain_model(4), 0.01, "exact", 8)
    rng = np.random.default_rng(4)
    noise = sample_noise(plan, rng, (512,))
    psi = random_states(rng, 512, 16)
    norm = np.linalg.norm(np.einsum("bkr,krc->bkc", noise, plan.factors), axis=-1).max()
    assert norm < 1.0 < 40 * norm
    block = 512 * 16 * 16 * np.dtype(complex).itemsize   # one (B, d, d) complex block
    peaks = []
    for scaled in (noise, 40 * noise):
        tracemalloc.start()
        try:
            gate_action(plan, scaled, psi)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[0] <= 4 * block
    assert peaks[1] < 1.1 * peaks[0]
