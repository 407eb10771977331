import numpy as np
import pytest


def _atol(a, tol):
    return tol * max(1.0, np.max(np.abs(a)) if a.size else 0.0)


def is_anti_hermitian(a, tol=1e-10):
    a = np.asarray(a)
    return a.shape[0] == a.shape[1] and np.max(np.abs(a + a.conj().T)) <= _atol(a, tol)


def is_unitary(a, tol=1e-10):
    a = np.asarray(a)
    eye = np.eye(a.shape[0])
    return a.shape[0] == a.shape[1] and np.max(np.abs(a.conj().T @ a - eye)) <= _atol(a, tol)


@pytest.fixture
def rng():
    return np.random.default_rng(42)


def random_complex(rng, shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def random_unitary(rng, d):
    q, r = np.linalg.qr(random_complex(rng, (d, d)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_density(rng, d):
    a = random_complex(rng, (d, d))
    rho = a @ a.conj().T
    return rho / np.trace(rho)


def random_pure(rng, d):
    psi = random_complex(rng, d)
    return psi / np.linalg.norm(psi)


def coupling_operator(L_s):
    """J(s) = kron(L(s), sigma+) - kron(L(s)^dag, sigma-) for a stack (..., d, d) of L(s)."""
    L_s = np.asarray(L_s, dtype=complex)
    d = L_s.shape[-1]
    j = np.zeros(L_s.shape[:-2] + (2 * d, 2 * d), dtype=complex)
    j[..., 1::2, 0::2] = L_s
    j[..., 0::2, 1::2] = -L_s.conj().swapaxes(-1, -2)
    return j


def grid_increments(plan, rng, size=()):
    """Wiener increments dW_r ~ Normal(0, dt/M) on the plan's M-node grid, shape size + (K, M)
    for the plan's K channels."""
    shape = tuple(size) + (len(plan.rates), plan.m_nodes)
    return rng.normal(0.0, np.sqrt(plan.dt / plan.m_nodes), size=shape)


def noise_coordinates(plan, increments):
    """The sampler's noise z, shape (..., K, r), whose blocks z_k F_k equal the grid
    integrals A_k = sqrt(gamma_k) sum_r L_k(s_r) dW_r of increments (..., K, M): the least-
    squares solution of z_k F_k = A_k, asserted to leave a zero residual."""
    increments = np.asarray(increments, dtype=float)
    batch = increments.shape[:-2]
    d = plan.system_dim
    z = np.empty(batch + plan.factors.shape[:2])
    for k, (rate, table, f) in enumerate(zip(plan.rates, plan.l_nodes, plan.factors)):
        a = np.sqrt(rate) * np.einsum("...r,rij->...ij", increments[..., k, :], table)
        a = np.ascontiguousarray(a).reshape(-1, d * d).view(np.float64)
        z_k = np.linalg.lstsq(f.T, a.T, rcond=None)[0].T
        scale = max(1.0, np.max(np.abs(a), initial=0.0))
        assert np.max(np.abs(z_k @ f - a), initial=0.0) <= 1e-13 * scale
        z[..., k, :] = z_k.reshape(batch + (-1,))
    return z
