import numpy as np
import pytest
from numpy.testing import assert_allclose

from qnoise import linalg

from conftest import random_complex, random_density, random_pure

X = np.array([[0, 1], [1, 0]], dtype=complex)
Z = np.diag([1.0, -1.0]).astype(complex)
SIGMA_PLUS = np.array([[0, 0], [1, 0]], dtype=complex)


def test_kron_identity():
    assert_allclose(linalg.kron(np.eye(2), np.eye(2)), np.eye(4))


def test_kron_diagonal():
    assert_allclose(linalg.kron(np.diag([1.0, 2.0]), np.eye(2)), np.diag([1.0, 1.0, 2.0, 2.0]))


def test_kron_against_index_formula(rng):
    a = random_complex(rng, (2, 2))
    b = SIGMA_PLUS
    k = linalg.kron(a, b)
    for i in range(2):
        for j in range(2):
            for p in range(2):
                for q in range(2):
                    assert k[2 * i + p, 2 * j + q] == pytest.approx(a[i, j] * b[p, q])


def test_kron_mixed_product(rng):
    a, b, c, d = (random_complex(rng, (3, 3)) for _ in range(4))
    assert_allclose(
        linalg.kron(a, b) @ linalg.kron(c, d), linalg.kron(a @ c, b @ d), atol=1e-10
    )


def test_matexp_zero():
    assert_allclose(linalg.matexp(np.zeros((3, 3))), np.eye(3))


def test_matexp_pauli_rotation():
    assert_allclose(linalg.matexp(-1j * (np.pi / 2) * X), -1j * X, atol=1e-12)


def test_matexp_antihermitian_vs_eigendecomposition(rng):
    h = random_complex(rng, (8, 8))
    a = h - h.conj().T
    w, v = np.linalg.eigh(1j * a)
    expected = v @ np.diag(np.exp(-1j * w)) @ v.conj().T
    assert_allclose(linalg.matexp(a), expected, atol=1e-12)


def test_matexp_non_normal(rng):
    # upper-triangular nilpotent: e^A = I + A + A^2/2
    a = np.zeros((3, 3), dtype=complex)
    a[0, 1] = 1.5
    a[1, 2] = -0.5j
    assert_allclose(linalg.matexp(a), np.eye(3) + a + a @ a / 2, atol=1e-12)


def test_matexp_rejects_non_square():
    with pytest.raises(ValueError):
        linalg.matexp(np.zeros((2, 3)))


def test_matexp_antihermitian_unitary(rng):
    for _ in range(100):
        h = random_complex(rng, (16, 16))
        a = h - h.conj().T
        u = linalg.matexp(a)
        assert np.max(np.abs(u.conj().T @ u - np.eye(16))) < 1e-10


def coupling(a):
    return linalg.kron(a, SIGMA_PLUS) - linalg.kron(a.conj().T, SIGMA_PLUS.T)


def test_matexp_antihermitian_batched(rng):
    # matexp_antihermitian takes the d x d blocks a of the coupling
    a = random_complex(rng, (5, 4, 4))
    batched = linalg.matexp_antihermitian(a)
    for i in range(5):
        assert_allclose(batched[i], linalg.matexp(coupling(a[i])), atol=1e-12)


@pytest.mark.parametrize("d", [1, 2, 4])
def test_matexp_antihermitian_block_cases(rng, d):
    zero = np.zeros((d, d), dtype=complex)
    assert_allclose(linalg.matexp_antihermitian(zero), np.eye(2 * d), atol=1e-15)
    rank_one = np.outer(random_complex(rng, d), random_complex(rng, d))
    large = 3.0 * random_complex(rng, (d, d))   # rotation angles beyond pi
    for a in (rank_one, large):
        u = linalg.matexp_antihermitian(a)
        assert_allclose(u, linalg.matexp(coupling(a)), atol=1e-12)
        assert linalg.is_unitary(u, 1e-12)


def test_partial_trace_product_state(rng):
    rho_s = random_density(rng, 4)
    anc0 = np.zeros((2, 2), dtype=complex)
    anc0[0, 0] = 1.0
    assert_allclose(linalg.partial_trace_ancilla(linalg.kron(rho_s, anc0), 4), rho_s, atol=1e-12)


def test_partial_trace_bell_state():
    psi = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
    rho = np.outer(psi, psi.conj())
    assert_allclose(linalg.partial_trace_ancilla(rho, 2), np.eye(2) / 2, atol=1e-12)


def test_partial_trace_against_index_sum(rng):
    psi = random_pure(rng, 8)
    rho = np.outer(psi, psi.conj())
    expected = np.zeros((4, 4), dtype=complex)
    for i in range(4):
        for j in range(4):
            for a in range(2):
                expected[i, j] += rho[2 * i + a, 2 * j + a]
    assert_allclose(linalg.partial_trace_ancilla(rho, 4), expected, atol=1e-14)


def test_partial_trace_preserves_trace(rng):
    rho = random_density(rng, 8)
    assert abs(np.trace(linalg.partial_trace_ancilla(rho, 4)) - 1.0) < 1e-12


def test_partial_trace_dimension_mismatch(rng):
    with pytest.raises(ValueError):
        linalg.partial_trace_ancilla(random_density(rng, 6), 4)


def test_trace_distance_identical(rng):
    rho = random_density(rng, 4)
    assert linalg.trace_distance(rho, rho) == pytest.approx(0.0, abs=1e-12)


def test_trace_distance_orthogonal_pure():
    p0 = np.diag([1.0, 0.0]).astype(complex)
    p1 = np.diag([0.0, 1.0]).astype(complex)
    assert linalg.trace_distance(p0, p1) == pytest.approx(1.0)


def test_trace_distance_mixed_vs_pure():
    p0 = np.diag([1.0, 0.0]).astype(complex)
    assert linalg.trace_distance(np.eye(2) / 2, p0) == pytest.approx(0.5)


def test_trace_distance_symmetry_and_triangle(rng):
    for _ in range(20):
        a, b, c = (random_density(rng, 4) for _ in range(3))
        dab = linalg.trace_distance(a, b)
        assert dab == pytest.approx(linalg.trace_distance(b, a), abs=1e-10)
        assert dab <= linalg.trace_distance(a, c) + linalg.trace_distance(c, b) + 1e-10


def test_trace_distance_dimension_mismatch(rng):
    with pytest.raises(ValueError):
        linalg.trace_distance(random_density(rng, 2), random_density(rng, 4))


def test_spectral_norm_paulis():
    assert linalg.spectral_norm(Z) == pytest.approx(1.0)
    assert linalg.spectral_norm(SIGMA_PLUS) == pytest.approx(1.0)


def test_spectral_norm_against_power_iteration(rng):
    a = random_complex(rng, (8, 8))
    # power iteration on A^dag A gives the squared largest singular value
    m = a.conj().T @ a
    v = random_pure(rng, 8)
    for _ in range(500):
        v = m @ v
        v = v / np.linalg.norm(v)
    lam = float((v.conj() @ m @ v).real)
    assert linalg.spectral_norm(a) == pytest.approx(np.sqrt(lam), rel=1e-8)


def test_vec_column_stacking():
    rho = np.array([[1, 2], [3, 4]], dtype=complex)
    assert_allclose(linalg.vec(rho), [1, 3, 2, 4])
    assert_allclose(linalg.unvec(linalg.vec(rho), 2), rho)


def test_hermiticity_predicates(rng):
    h = random_complex(rng, (4, 4))
    herm = h + h.conj().T
    anti = h - h.conj().T
    assert linalg.is_hermitian(herm)
    assert not linalg.is_hermitian(anti)
    assert linalg.is_anti_hermitian(anti)
    assert linalg.is_unitary(linalg.matexp(anti))


def test_assert_density_matrix_accepts_valid(rng):
    linalg.assert_density_matrix(random_density(rng, 4))


def test_assert_density_matrix_rejections(rng):
    with pytest.raises(ValueError, match="Hermitian"):
        linalg.assert_density_matrix(np.array([[0.5, 1.0], [0.0, 0.5]], dtype=complex))
    with pytest.raises(ValueError, match="trace"):
        linalg.assert_density_matrix(np.eye(2, dtype=complex))
    with pytest.raises(ValueError, match="eigenvalue"):
        linalg.assert_density_matrix(np.diag([1.5, -0.5]).astype(complex))
    with pytest.raises(ValueError, match="square"):
        linalg.assert_density_matrix(np.zeros((2, 3)))
    assert not linalg.is_density_matrix(np.eye(2, dtype=complex))
