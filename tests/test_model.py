import numpy as np
import pytest
import scipy.linalg
from numpy.testing import assert_allclose

from qnoise import linalg, presets
from qnoise.model import (
    HamiltonianTerm,
    LindbladModel,
    LindbladTerm,
    PauliString,
    SIGMA_MINUS,
    dissipator,
    liouvillian,
    support,
    total_hamiltonian,
)
from qnoise.bounds import BoundInputs, bound_report, epsilon_p_bound
from qnoise.config import ConfigError, load_model, matrix_to_json

from conftest import is_unitary, random_density

X = PauliString("X").matrix()
Y = PauliString("Y").matrix()
Z = PauliString("Z").matrix()


def dephasing_model(gamma=0.5):
    return LindbladModel(1, (), (LindbladTerm(gamma, Z, "Z"),))


def test_pauli_string_matrices():
    assert_allclose(PauliString("XY").matrix(), np.kron(X, Y))
    assert_allclose(PauliString("IZ").matrix(), np.kron(np.eye(2), Z))


def test_pauli_string_metadata():
    ps = PauliString("IXZI")
    assert ps.n == 4
    assert support(ps.matrix(), ps.n) == (1, 2)
    with pytest.raises(ValueError):
        PauliString("XQ")


def test_pauli_string_involutive(rng):
    for letters in ["X", "ZZ", "XYZ", "IYXI"]:
        m = PauliString(letters).matrix()
        assert_allclose(m @ m, np.eye(len(m)), atol=1e-12)
        assert linalg.is_hermitian(m, 1e-12)
        assert is_unitary(m, 1e-12)


def test_total_hamiltonian_single_spin():
    model = presets.single_spin_model()
    assert_allclose(total_hamiltonian(model), (np.pi / 12) * 1e6 * X, rtol=1e-12)


def test_total_hamiltonian_empty():
    model = LindbladModel(1, (), ())
    assert_allclose(total_hamiltonian(model), np.zeros((2, 2)))


def test_total_hamiltonian_two_molecule():
    model = presets.two_molecule_model()
    e0, e1 = presets.TWO_MOLECULE_E
    j = presets.TWO_MOLECULE_J
    expected = (
        -e0 / 2 * np.kron(Z, np.eye(2))
        - e1 / 2 * np.kron(np.eye(2), Z)
        + j / 2 * (np.kron(X, X) + np.kron(Y, Y))
    )
    assert_allclose(total_hamiltonian(model), expected, rtol=1e-12)


def test_liouvillian_matches_rhs(rng):
    model = presets.two_molecule_model()
    rho = random_density(rng, 4)
    h = total_hamiltonian(model)
    rhs = -1j * (h @ rho - rho @ h) + dissipator(model, rho)
    via_superop = linalg.unvec(liouvillian(model) @ linalg.vec(rho), 4)
    assert_allclose(via_superop, rhs, atol=1e-9)


def test_liouvillian_dephasing_decay():
    gamma = 0.5
    t = 0.7
    prop = scipy.linalg.expm(liouvillian(dephasing_model(gamma)) * t)
    rho0 = np.array([[0.5, 0.3 - 0.1j], [0.3 + 0.1j, 0.5]])
    rho_t = linalg.unvec(prop @ linalg.vec(rho0), 2)
    assert rho_t[0, 1] == pytest.approx(rho0[0, 1] * np.exp(-2 * gamma * t), abs=1e-10)
    assert rho_t[0, 0] == pytest.approx(0.5, abs=1e-12)


def test_liouvillian_closed_system(rng):
    model = LindbladModel(1, (HamiltonianTerm(1.3, X, "x"),), ())
    t = 0.4
    rho0 = random_density(rng, 2)
    prop = scipy.linalg.expm(liouvillian(model) * t)
    u = scipy.linalg.expm(-1j * 1.3 * t * X)
    assert_allclose(
        linalg.unvec(prop @ linalg.vec(rho0), 2), u @ rho0 @ u.conj().T, atol=1e-10
    )


def test_liouvillian_trace_preservation(rng):
    model = presets.two_molecule_model()
    rho = random_density(rng, 4)
    image = linalg.unvec(liouvillian(model) @ linalg.vec(rho), 4)
    assert abs(np.trace(image)) < 1e-9


def test_liouvillian_unital_commutator_part():
    model = presets.single_spin_model()
    only_h = LindbladModel(model.n, model.hamiltonian_terms, ())
    image = liouvillian(only_h) @ linalg.vec(np.eye(2) / 2)
    assert np.max(np.abs(image)) < 1e-10 * 1e6  # scale of the Hamiltonian


def test_term_operators_are_read_only_copies():
    # A write through a term's operator once changed evolve_exact's result while the
    # cached supports and rates kept the old values.
    op = Z.copy()
    model = LindbladModel(1, (HamiltonianTerm(1.0, X, "x"),), (LindbladTerm(0.5, op, "z"),))
    op[:] = 0
    assert_allclose(model.lindblad_terms[0].operator, Z, rtol=0, atol=0)
    for term in model.hamiltonian_terms + model.lindblad_terms:
        with pytest.raises(ValueError, match="read-only"):
            term.operator[:] *= 3
    preset = presets.two_molecule_model()
    with pytest.raises(ValueError, match="read-only"):
        preset.lindblad_terms[2].operator[:] *= 3


def test_locality_metadata():
    model = presets.two_molecule_model()
    assert model.k_local == 3  # supports {0}, {1}, {0,1}
    assert model.max_locality == 2
    single = presets.single_spin_model()
    assert (single.k_local, single.max_locality) == (1, 1)


def test_locality_and_support_count_follow_the_supports():
    xx = PauliString("XX").matrix()
    model = LindbladModel(2, (), (LindbladTerm(0.1, xx, "XX"),))
    assert (model.k_local, model.max_locality) == (1, 2)
    assert BoundInputs.from_model(model, 0.01, 1, "exact").m == 2
    doc = {"n": 2, "lindblad": [{"matrix": matrix_to_json(xx), "rate": 0.1}]}
    assert load_model(doc).max_locality == 2
    # No dissipator means no locality.
    assert LindbladModel(2, (), ()).max_locality == 0


def test_pauli_and_matrix_forms_give_the_same_bounds():
    # sigma_z on qubit 1 of 2, once as Pauli letters and once as a matrix.
    iz = PauliString("IZ").matrix()
    models = [load_model({"n": 2, "lindblad": [{**form, "rate": 0.1}]})
              for form in ({"pauli": "IZ"}, {"matrix": matrix_to_json(iz)})]
    assert [(m.k_local, m.max_locality) for m in models] == [(1, 1), (1, 1)]
    eps = [epsilon_p_bound(BoundInputs.from_model(m, 0.01, 1, "exact")) for m in models]
    assert eps[0] == eps[1]


def test_zero_rate_terms_count_in_neither_k_nor_m():
    # A zero rate makes the dissipator zero, as an identity operator does.
    base = [{"pauli": "ZI", "rate": 0.1}]
    models = [load_model({"n": 2, "lindblad": terms})
              for terms in (base, base + [{"pauli": "XX", "rate": 0.0}])]
    assert models[1].supports == ((0,), ())
    assert [(m.k_local, m.max_locality) for m in models] == [(1, 1), (1, 1)]
    eps = [epsilon_p_bound(BoundInputs.from_model(m, 0.01, 1, "exact")) for m in models]
    assert eps[1] == eps[0] == pytest.approx(4.89e-5, rel=1e-3)


@pytest.mark.parametrize("idle", [
    {"matrix": matrix_to_json(10 * PauliString("XX").matrix()), "rate": 0.0},   # [max||L|| was 10]
    {"pauli": "II", "rate": 50.0},                                              # [gamma was 50]
], ids=["zero-rate", "identity"])
def test_terms_that_do_not_act_count_in_no_bound(idle):
    # gamma and max||L|| are taken over the dissipators that act, as K and m are.
    model = load_model({"n": 2, "lindblad": [{"pauli": "ZI", "rate": 0.1}, idle]})
    assert model.acting_rates == (0.1, 0.0)
    inputs = BoundInputs.from_model(model, 0.01, 1, "exact")
    assert (inputs.K, inputs.m, inputs.gamma) == (1, 1, 0.1)
    assert inputs.max_L_norm == pytest.approx(1.0, rel=1e-12)
    assert epsilon_p_bound(inputs) == pytest.approx(4.893e-5, rel=1e-3)


def test_support_order_does_not_count_as_a_new_support():
    # sigma- x Z and Z x sigma- act on the same qubits in either factor order.
    xx = PauliString("XX").matrix()

    def model(second):
        return LindbladModel(2, (), (LindbladTerm(0.1, xx, "XX"),
                                     LindbladTerm(0.1, second, "second")))

    ops = (np.kron(SIGMA_MINUS, Z), np.kron(Z, SIGMA_MINUS))
    assert model(ops[0]).k_local == model(ops[1]).k_local == 1
    eps = [epsilon_p_bound(BoundInputs.from_model(model(op), 0.01, 1, "exact")) for op in ops]
    assert eps[0] == eps[1]


def test_term_label_must_be_a_string():
    # The old positional form HamiltonianTerm(c, X, locality) binds the locality to `label`.
    with pytest.raises(TypeError, match="Hamiltonian term label 1 is not a str"):
        HamiltonianTerm(1.0, X, 1)
    with pytest.raises(TypeError, match="Lindblad term label 2 is not a str"):
        LindbladTerm(0.5, Z, 2)
    # A term takes no support: an old positional one binds to `label` or is one too many.
    with pytest.raises(TypeError, match=r"Lindblad term label \(0,\) is not a str"):
        LindbladTerm(0.5, Z, (0,))
    with pytest.raises(TypeError, match="positional arguments"):
        LindbladTerm(0.5, Z, (0,), "Z")


def test_support_is_the_qubits_the_operator_acts_on():
    lower_1, lower_both = np.kron(np.eye(2), SIGMA_MINUS), np.kron(SIGMA_MINUS, SIGMA_MINUS)
    for op, n, want in [
        (lower_1, 2, (1,)),
        (lower_both, 2, (0, 1)),
        (np.kron(np.kron(SIGMA_MINUS, np.eye(2)), X), 3, (0, 2)),
        (0.3 * np.eye(4) + np.kron(Z, np.eye(2)), 2, (0,)),
        (np.eye(4), 2, ()),
        (np.zeros((4, 4)), 2, ()),
    ]:
        assert support(op, n) == want, (op, want)
    # sigma- x sigma- once declared on [0] got m = 1 and an eps_p 25x too small.
    model = load_model({"n": 2, "lindblad": [{"matrix": matrix_to_json(lower_both), "rate": 0.1}]})
    assert (model.supports, model.k_local, model.max_locality) == (((0, 1),), 1, 2)
    # An operator proportional to I has a zero dissipator: no support, no K, no m, no bound.
    for form in ({"pauli": "II"}, {"matrix": matrix_to_json(np.eye(4))}):
        model = load_model({"n": 2, "lindblad": [{**form, "rate": 0.1}]})
        assert (model.supports, model.k_local, model.max_locality) == (((),), 0, 0)
        report = bound_report(BoundInputs.from_model(model, 0.01, 10, "exact"), 1e-3)
        assert (report.eps_p, report.gate_count) == (0.0, 0)


def test_terms_take_no_locality():
    # The old positional locality and support are one argument too many.
    with pytest.raises(TypeError, match="positional arguments"):
        LindbladTerm(0.5, Z, 1, (0,))
    with pytest.raises(TypeError, match="locality"):
        HamiltonianTerm(1.0, X, locality=7)
    with pytest.raises(TypeError, match="locality"):
        LindbladTerm(0.5, Z, locality=1)
    with pytest.raises(TypeError, match="support"):
        LindbladTerm(0.5, Z, support=(0,))


def test_load_model_pauli_terms():
    model = load_model(
        {
            "n": 2,
            "hamiltonian": [{"pauli": "XI", "coeff": 0.5}],
            "lindblad": [{"pauli": "ZZ", "rate": 0.1}],
            "units": {"time": "s", "rate": "1/s"},
        }
    )
    assert model.n == 2
    assert_allclose(total_hamiltonian(model), 0.5 * np.kron(X, np.eye(2)))
    assert model.supports == ((0, 1),)
    assert model.max_locality == 2


def test_load_model_matrix_terms():
    sp = [[[0, 0], [0, 0]], [[0, 0], [0, 0]]]
    sp[1][0] = [1, 0]  # sigma+ = |1><0|
    model = load_model({"n": 1, "lindblad": [{"matrix": sp, "rate": 2.0}]})
    assert_allclose(model.lindblad_terms[0].operator, [[0, 0], [1, 0]])
    assert model.supports == ((0,),)


def model_to_json(model):
    """A model document that load_model reads back into `model`."""
    return {
        "n": model.n,
        "hamiltonian": [
            {"matrix": matrix_to_json(t.operator), "coeff": t.coefficient, "label": t.label}
            for t in model.hamiltonian_terms
        ],
        "lindblad": [
            {"matrix": matrix_to_json(t.operator), "rate": t.rate, "label": t.label}
            for t in model.lindblad_terms
        ],
        "units": {"time": "s", "rate": "1/s"},
    }


def test_load_model_roundtrip():
    model = presets.two_molecule_model()
    again = load_model(model_to_json(model))
    assert_allclose(total_hamiltonian(again), total_hamiltonian(model), atol=1e-12)
    assert_allclose(liouvillian(again), liouvillian(model), atol=1e-12)
    assert again.k_local == model.k_local


def test_load_model_error_paths():
    with pytest.raises(ConfigError, match=r"^n:"):
        load_model({"n": 0})
    with pytest.raises(ConfigError, match=r"lindblad\[1\]\.rate"):
        load_model({"n": 1, "lindblad": [{"pauli": "Z", "rate": 0.1}, {"pauli": "X", "rate": -1}]})
    with pytest.raises(ConfigError, match=r"hamiltonian\[0\]\.pauli"):
        load_model({"n": 2, "hamiltonian": [{"pauli": "X", "coeff": 1.0}]})
    with pytest.raises(ConfigError, match=r"hamiltonian\[0\]\.coeff"):
        load_model({"n": 1, "hamiltonian": [{"pauli": "X"}]})
    with pytest.raises(ConfigError, match=r"lindblad\[0\]: give either"):
        load_model({"n": 1, "lindblad": [{"pauli": "Z", "matrix": [], "rate": 1.0}]})
    with pytest.raises(ConfigError, match="units"):
        load_model({"n": 1, "units": {"time": "ms", "rate": "1/s"}})
    # A term's support is derived from its operator, so `support` is no key.
    with pytest.raises(ConfigError, match=r"lindblad\[0\]\.support: unknown field"):
        load_model(
            {"n": 1, "lindblad": [{"matrix": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]],
                                   "rate": 1.0, "support": [3]}]}
        )


def test_load_model_from_file(tmp_path):
    path = tmp_path / "m.json"
    path.write_text('{"n": 1, "hamiltonian": [{"pauli": "Z", "coeff": 2.0}]}')
    model = load_model(path)
    assert_allclose(total_hamiltonian(model), 2.0 * Z)
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError, match="invalid JSON"):
        load_model(bad)


def test_negative_rate_rejected():
    with pytest.raises(ValueError, match="negative rate"):
        LindbladTerm(-0.1, Z)


def test_non_hermitian_hamiltonian_rejected():
    with pytest.raises(ValueError, match="not Hermitian"):
        HamiltonianTerm(1.0, np.array([[0, 1], [0, 0]], dtype=complex))
