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
