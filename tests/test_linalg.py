import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.linalg import expm

from qnoise import linalg, presets
from qnoise.model import liouvillian

from conftest import is_unitary, random_complex, random_density, random_pure

SIGMA_PLUS = np.array([[0, 0], [1, 0]], dtype=complex)


def test_matexp_pauli_rotation():
    # d = 1: the exponent [[0, -theta], [theta, 0]] is a plane rotation by theta
    for theta in (0.0, np.pi / 2, 1.3, -2.0, 7.5):
        c, s = np.cos(theta), np.sin(theta)
        assert_allclose(linalg.matexp_antihermitian(np.full((1, 1), theta)),
                        [[c, -s], [s, c]], atol=1e-15)


def coupling(a):
    return np.kron(a, SIGMA_PLUS) - np.kron(a.conj().T, SIGMA_PLUS.T)


def test_matexp_antihermitian_batched(rng):
    # matexp_antihermitian takes the d x d blocks a of the coupling
    a = random_complex(rng, (5, 4, 4))
    batched = linalg.matexp_antihermitian(a)
    for i in range(5):
        assert_allclose(batched[i], expm(coupling(a[i])), atol=1e-12)


@pytest.mark.parametrize("d", [1, 2, 4, 8])
def test_matexp_antihermitian_block_cases(rng, d):
    zero = np.zeros((d, d), dtype=complex)
    assert_allclose(linalg.matexp_antihermitian(zero), np.eye(2 * d), atol=1e-15)
    rank_one = np.outer(random_complex(rng, d), random_complex(rng, d))
    large = 3.0 * random_complex(rng, (d, d))   # rotation angles beyond pi
    for a in (rank_one, large):
        u = linalg.matexp_antihermitian(a)
        assert_allclose(u, expm(coupling(a)), atol=1e-12)
        assert is_unitary(u, 1e-12)


# linalg.expm against scipy's, with tolerances fixed before the first run at 5x the
# deviations a prototype of the same algorithm showed: 2e-13 absolute on the presets'
# Liouvillians up to |Lt|_1 = 1.5e4, and 2e-14 relative to the largest entry on random ones.
@pytest.mark.parametrize("preset", sorted(presets.PRESETS))
@pytest.mark.parametrize("norm", [1e-3, 1e-2, 0.3, 1.0, 7.0, 1e2, 1e3, 1e4])
def test_expm_matches_scipy_on_liouvillians(preset, norm):
    gen = liouvillian(presets.PRESETS[preset]())
    a = gen * (norm / np.linalg.norm(gen, 1))
    assert_allclose(linalg.expm(a), expm(a), rtol=0, atol=1e-12)


@pytest.mark.parametrize("n", [4, 8, 16, 32, 64])
@pytest.mark.parametrize("norm", [1e-2, 0.9, 3.0, 30.0])
def test_expm_matches_scipy_on_random_matrices(rng, n, norm):
    a = random_complex(rng, (n, n))      # non-normal
    a *= norm / np.linalg.norm(a, 1)
    want = expm(a)
    assert np.max(np.abs(linalg.expm(a) - want)) <= 1e-13 * np.max(np.abs(want))


def test_expm_exact_cases():
    for n in (1, 2, 16):
        assert np.array_equal(linalg.expm(np.zeros((n, n), dtype=complex)), np.eye(n))
    # A diagonal input stays exactly diagonal, and a zero entry maps to exactly 1.
    diag = np.diag([0.0, -1.0, -2.5, 3.0 + 1.0j])
    out = linalg.expm(diag)
    assert np.array_equal(out, np.diag(np.diag(out)))
    assert out[0, 0] == 1.0
    assert_allclose(np.diag(out), np.exp(np.diag(diag)), rtol=1e-14)
    # A nilpotent input's series ends by itself: exp(N) = I + N.
    nilpotent = np.array([[0.0, 1.0], [0.0, 0.0]])
    assert np.array_equal(linalg.expm(nilpotent), np.eye(2) + nilpotent)
    with pytest.raises(ValueError, match="finite"):
        linalg.expm(np.array([[np.nan]]))


def test_taylor_degree_rule():
    # The least n with norm^(n+1)/(n+1)! <= 2^-53.
    assert linalg.taylor_degree(0.0) == 0
    assert linalg.taylor_degree(1.0) == 18      # 1/18! = 1.6e-16 > 2^-53 >= 1/19! = 8.2e-18
    for norm in (1e-8, 1e-3, 0.25, 0.5, 1.0):
        n = linalg.taylor_degree(norm)
        assert norm ** (n + 1) / math.factorial(n + 1) <= 2.0**-53
        assert n == 0 or norm**n / math.factorial(n) > 2.0**-53


def test_partial_trace_product_state(rng):
    rho_s = random_density(rng, 4)
    anc0 = np.zeros((2, 2), dtype=complex)
    anc0[0, 0] = 1.0
    assert_allclose(linalg.partial_trace_ancilla(np.kron(rho_s, anc0), 4), rho_s, atol=1e-12)


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


def test_vec_column_stacking():
    rho = np.array([[1, 2], [3, 4]], dtype=complex)
    assert_allclose(linalg.vec(rho), [1, 3, 2, 4])
    assert_allclose(linalg.unvec(linalg.vec(rho), 2), rho)


@pytest.mark.parametrize("p", [0, 1, 5])
@pytest.mark.parametrize("d", [2, 4])
def test_dissipator_superop_matches_action(rng, p, d):
    ops = random_complex(rng, (p, d, d))
    rho = random_density(rng, d)
    g = sum((b.conj().T @ b for b in ops), np.zeros((d, d)))
    action = sum((b @ rho @ b.conj().T for b in ops), np.zeros((d, d))) - 0.5 * (g @ rho + rho @ g)
    superop = linalg.dissipator_superop(ops)
    assert superop.shape == (d * d, d * d)
    assert_allclose(linalg.unvec(superop @ linalg.vec(rho), d), action, rtol=0, atol=1e-12)
    # With phases, the pieces are every product phases[r] * ops[k], here formed explicitly.
    phases = random_complex(rng, (3, d, d))
    pieces = (phases[:, None] * ops[None]).reshape(-1, d, d)
    assert_allclose(linalg.dissipator_superop(ops, phases), linalg.dissipator_superop(pieces),
                    rtol=0, atol=1e-12)


def test_hermiticity_predicates(rng):
    h = random_complex(rng, (4, 4))
    herm = h + h.conj().T
    anti = h - h.conj().T
    assert linalg.is_hermitian(herm)
    assert not linalg.is_hermitian(anti)
    assert linalg.is_hermitian(1j * anti)


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
