"""Reference propagators for the Lindblad equation.

`evolve_exact` exponentiates the vectorized generator (`liouvillian`, built
once per model) with `linalg.expm` (scaling and squaring of a Taylor series,
numpy only) and serves as the ground truth everywhere.  `evolve_rk4` is an
independent fixed-step integrator used to cross-check it.  `step_sa` is the
first-order Euler stepper ("standard approximation") that the stochastic-gate
scheme is compared against.
"""
from __future__ import annotations

import numpy as np

from . import linalg
from .model import LindbladModel, dissipator, liouvillian, total_hamiltonian


def lindblad_rhs(model: LindbladModel, rho: np.ndarray) -> np.ndarray:
    """d(rho)/dt = -i[H, rho] + D(rho)."""
    h = total_hamiltonian(model)
    return -1j * (h @ rho - rho @ h) + dissipator(model, rho)


def evolve_exact(model: LindbladModel, rho0: np.ndarray, t: float) -> np.ndarray:
    """Propagate rho0 by exp(L t) on the vectorized density matrix."""
    if t < 0:
        raise ValueError(f"negative evolution time {t}")
    rho0 = np.asarray(rho0, dtype=complex)
    d = model.dim
    if rho0.shape != (d, d):
        raise ValueError(f"expected a {d}x{d} density matrix, got {rho0.shape}")
    prop = linalg.expm(liouvillian(model) * t)
    return linalg.unvec(prop @ linalg.vec(rho0), d)


def evolve_rk4(
    model: LindbladModel, rho0: np.ndarray, t: float, steps: int
) -> np.ndarray:
    """Classical fixed-step 4th-order integration of the master equation."""
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    rho = np.asarray(rho0, dtype=complex).copy()
    h = t / steps
    for _ in range(steps):
        k1 = lindblad_rhs(model, rho)
        k2 = lindblad_rhs(model, rho + 0.5 * h * k1)
        k3 = lindblad_rhs(model, rho + 0.5 * h * k2)
        k4 = lindblad_rhs(model, rho + h * k3)
        rho = rho + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    return rho


def step_sa(model: LindbladModel, rho: np.ndarray, dt: float) -> np.ndarray:
    """One Euler step rho + dt*(-i[H, rho] + D(rho)).

    No positivity or trace repair is applied; the raw first-order output
    is what trace-distance comparisons measure.
    """
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    return np.asarray(rho, dtype=complex) + dt * lindblad_rhs(model, rho)
