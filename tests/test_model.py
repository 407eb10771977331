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
    dissipator,
    liouvillian,
    total_hamiltonian,
)
from qnoise.bounds import BoundInputs, epsilon_p_bound
from qnoise.config import ConfigError, load_model, matrix_to_json

from conftest import is_unitary, random_density

X = PauliString("X").matrix()
Y = PauliString("Y").matrix()
Z = PauliString("Z").matrix()


def dephasing_model(gamma=0.5):
    return LindbladModel(1, (), (LindbladTerm(gamma, Z, (0,), "Z"),))


def test_pauli_string_matrices():
    assert_allclose(PauliString("XY").matrix(), np.kron(X, Y))
    assert_allclose(PauliString("IZ").matrix(), np.kron(np.eye(2), Z))


def test_pauli_string_metadata():
    ps = PauliString("IXZI")
    assert ps.n == 4
    assert ps.support == (1, 2)
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


def test_locality_metadata():
    model = presets.two_molecule_model()
    assert model.k_local == 3  # supports {0}, {1}, {0,1}
    assert model.max_locality == 2
    assert presets.single_spin_model().k_local == 1


def test_locality_and_support_count_follow_the_supports():
    xx = PauliString("XX").matrix()
    model = LindbladModel(2, (), (LindbladTerm(0.1, xx, (0, 1), "XX"),))
    assert (model.k_local, model.max_locality) == (1, 2)
    assert BoundInputs.from_model(model, 0.01, 1, "exact").m == 2
    doc = {"n": 2, "lindblad": [{"matrix": matrix_to_json(xx), "support": [0, 1], "rate": 0.1}]}
    assert load_model(doc).max_locality == 2
    # An empty support means all n qubits; no dissipator means no locality.
    assert LindbladModel(2, (), (LindbladTerm(0.1, xx),)).max_locality == 2
    assert LindbladModel(2, (), ()).max_locality == 0


def test_support_order_does_not_count_as_a_new_support():
    xx, zz = PauliString("XX").matrix(), PauliString("ZZ").matrix()

    def model(zz_support):
        return LindbladModel(2, (), (LindbladTerm(0.1, xx, (0, 1), "XX"),
                                     LindbladTerm(0.1, zz, zz_support, "ZZ")))

    assert model((1, 0)).k_local == model((0, 1)).k_local == 1
    eps = [epsilon_p_bound(BoundInputs.from_model(model(s), 0.01, 1, "exact"))
           for s in ((1, 0), (0, 1))]
    assert eps[0] == eps[1]


def test_term_label_must_be_a_string():
    # The old positional form HamiltonianTerm(c, X, locality) binds the locality to `label`.
    with pytest.raises(TypeError, match="Hamiltonian term label 1 is not a str"):
        HamiltonianTerm(1.0, X, 1)
    with pytest.raises(TypeError, match="Lindblad term label 2 is not a str"):
        LindbladTerm(0.5, Z, (0,), 2)


@pytest.mark.parametrize("support", [(0, 0), (2,), (-1,), (0.0,), [0], 1],
                         ids=["repeated", "out-of-range", "negative", "float", "list", "int"])
def test_bad_support_names_the_term(support):
    with pytest.raises(ValueError, match=r"Lindblad term 'bad' has support"):
        LindbladModel(2, (), (LindbladTerm(0.1, np.eye(4), support, "bad"),))


def test_terms_take_no_locality():
    # The old positional locality now lands in `support` and fails loudly.
    with pytest.raises(ValueError, match=r"Lindblad term \(0,\) has support 1,"):
        LindbladModel(1, (), (LindbladTerm(0.5, Z, 1, (0,)),))
    with pytest.raises(TypeError, match="locality"):
        HamiltonianTerm(1.0, X, locality=7)
    with pytest.raises(TypeError, match="locality"):
        LindbladTerm(0.5, Z, locality=1, support=(0,))


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
    assert model.lindblad_terms[0].support == (0, 1)
    assert model.max_locality == 2


def test_load_model_matrix_terms():
    sp = [[[0, 0], [0, 0]], [[0, 0], [0, 0]]]
    sp[1][0] = [1, 0]  # sigma+ = |1><0|
    model = load_model({"n": 1, "lindblad": [{"matrix": sp, "rate": 2.0, "support": [0]}]})
    assert_allclose(model.lindblad_terms[0].operator, [[0, 0], [1, 0]])
    assert model.lindblad_terms[0].support == (0,)


def model_to_json(model):
    """A model document that load_model reads back into `model`."""
    return {
        "n": model.n,
        "hamiltonian": [
            {"matrix": matrix_to_json(t.operator), "coeff": t.coefficient, "label": t.label}
            for t in model.hamiltonian_terms
        ],
        "lindblad": [
            {"matrix": matrix_to_json(t.operator), "rate": t.rate,
             "support": list(t.support), "label": t.label}
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
    with pytest.raises(ConfigError, match=r"lindblad\[0\]\.support"):
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
        LindbladTerm(-0.1, Z, (0,))


def test_non_hermitian_hamiltonian_rejected():
    with pytest.raises(ValueError, match="not Hermitian"):
        HamiltonianTerm(1.0, np.array([[0, 1], [0, 0]], dtype=complex))
