"""Analytic error bounds and gate-count estimates for the stochastic-gate scheme.

All quantities are evaluated exactly as the closed-form displays state
them; they are order-of-magnitude resource estimates, not tight error
certificates.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, asdict
from typing import Optional

import numpy as np

from .model import LindbladModel
from .noisegate import TROTTER_MODES


@dataclass(frozen=True)
class BoundInputs:
    K: int                 # number of distinct dissipator supports
    m: int                 # maximum dissipator locality
    n: int                 # system qubit count
    gamma: float           # rate scale, 1/s
    omega: float           # Hamiltonian frequency scale, rad/s
    J: int                 # Hamiltonian term count
    max_h_norm: float      # max spectral norm of dimensionless Hamiltonian terms
    max_L_norm: float      # max spectral norm of Lindblad operators
    dt: float
    n_steps: int
    trotter: str           # run.trotter: "exact" has no Trotter error, "order-k" has kappa = k

    def __post_init__(self):
        if self.dt <= 0 or self.n_steps < 1:
            raise ValueError("need dt > 0 and n_steps >= 1")
        if self.gamma < 0 or self.omega < 0:
            raise ValueError("gamma and omega must be non-negative")
        if self.trotter not in TROTTER_MODES:
            raise ValueError(f"unknown trotter mode {self.trotter!r}, expected {TROTTER_MODES}")

    @property
    def T(self) -> float:
        return self.dt * self.n_steps

    @classmethod
    def from_model(cls, model: LindbladModel, dt: float, n_steps: int, trotter: str):
        """Extract scales and spectral norms (largest singular values) from a model.
        gamma and max||L|| are taken over the dissipators that act (`acting_rates`)."""
        def max_norm(terms) -> float:
            return max((np.linalg.norm(t.operator, 2) for t in terms), default=0.0)

        acting = [t for t, rate in zip(model.lindblad_terms, model.acting_rates) if rate]

        return cls(
            K=model.k_local,
            m=model.max_locality,
            n=model.n,
            gamma=max(model.acting_rates, default=0.0),
            omega=max((abs(t.coefficient) for t in model.hamiltonian_terms), default=0.0),
            J=len(model.hamiltonian_terms),
            max_h_norm=max_norm(model.hamiltonian_terms),
            max_L_norm=max_norm(acting),
            dt=dt,
            n_steps=n_steps,
            trotter=trotter,
        )


def epsilon_p_bound(inputs: BoundInputs) -> float:
    """Per-step perturbative error: 2e (K (4^m - 1) max||L||^2 gamma dt)^2."""
    x = inputs.K * (4**inputs.m - 1) * inputs.max_L_norm**2 * inputs.gamma * inputs.dt
    return 2.0 * math.e * x**2


def epsilon_T_bound(inputs: BoundInputs) -> float:
    """Per-step Trotter error: (K J max||h|| omega dt)^(kappa+1); 0 in exact mode."""
    if inputs.trotter == "exact":
        return 0.0
    x = inputs.K * inputs.J * inputs.max_h_norm * inputs.omega * inputs.dt
    return x ** (3 if inputs.trotter == "order-2" else 2)  # kappa + 1


def epsilon_global_bound(inputs: BoundInputs) -> float:
    """Accumulated error over N_step steps.

    Dissipative part: T^2 K^2 (4^m - 1)^2 gamma^2 max||L||^4 / N_step.
    Trotter part: N_step * (K J max||h|| omega dt)^(kappa+1), which for
    kappa = 1 equals T^2 K^2 J^2 omega^2 max||h||^2 / N_step.  Exact
    mode drops the Trotter part, leaving N_step * eps_p.
    """
    if inputs.trotter == "exact":
        return inputs.n_steps * epsilon_p_bound(inputs)
    diss = (
        inputs.T**2
        * inputs.K**2
        / inputs.n_steps
        * ((4**inputs.m - 1) ** 2 * inputs.gamma**2 * inputs.max_L_norm**4)
    )
    return inputs.n_steps * epsilon_T_bound(inputs) + diss


def per_step_sum_bound(inputs: BoundInputs) -> float:
    """N_step * (eps_p + eps_T): the naive accumulation, reported alongside
    the global display, which carries no Euler factor."""
    return inputs.n_steps * (epsilon_p_bound(inputs) + epsilon_T_bound(inputs))


def gate_count_estimate(inputs: BoundInputs, eps_global_target: float) -> int:
    """Order-of-magnitude gate count to reach a target accumulated error.

    ceil((K J + K (4^m - 1) + 1) * T^2 K^2 (gamma^2 + omega^2) / eps);
    the proportionality constant is fixed to 1 by convention.  OverflowError if the
    count overflows a float before the division by the target, ValueError if after.
    """
    gates_per_step = inputs.K * inputs.J + inputs.K * (4**inputs.m - 1) + 1
    try:   # Python float ** raises on overflow
        scale = gates_per_step * (inputs.T**2 * inputs.K**2 * (inputs.gamma**2 + inputs.omega**2))
    except OverflowError:
        scale = math.inf
    if not math.isfinite(scale):
        raise OverflowError(f"dt = {inputs.dt!r} over {inputs.n_steps} steps overflows the "
                            "gate count")
    count = scale / eps_global_target if eps_global_target > 0 else math.inf
    if not math.isfinite(count):
        raise ValueError(f"target {eps_global_target!r} must be > 0 with a finite gate count")
    return math.ceil(count)


@dataclass(frozen=True)
class BoundReport:
    inputs: BoundInputs
    eps_p: float
    eps_T: float
    eps_step: float
    eps_global: float
    eps_per_step_sum: float
    gate_count: Optional[int]

    def to_json(self) -> dict:
        return asdict(self)

    def format_text(self) -> str:
        i = self.inputs
        lines = [
            "error-bound report (order-of-magnitude estimates)",
            f"  K = {i.K}   m = {i.m}   n = {i.n}   J = {i.J}",
            f"  gamma = {i.gamma:.6g} 1/s   omega = {i.omega:.6g} rad/s",
            f"  max||h|| = {i.max_h_norm:.6g}   max||L|| = {i.max_L_norm:.6g}",
            f"  dt = {i.dt:.6g} s   N_step = {i.n_steps}   T = {i.T:.6g} s",
            f"  trotter = {i.trotter}",
            f"  eps_p  (per step)        = {self.eps_p:.6e}",
            f"  eps_T  (per step)        = {self.eps_T:.6e}",
            f"  eps    (per step, total) = {self.eps_step:.6e}",
            f"  eps_global               = {self.eps_global:.6e}",
            f"  N_step*(eps_p+eps_T)     = {self.eps_per_step_sum:.6e}",
        ]
        if self.gate_count is not None:
            lines.append(f"  gate count for eps target = {self.gate_count}")
        return "\n".join(lines)


def bound_report(
    inputs: BoundInputs, eps_global_target: Optional[float] = None
) -> BoundReport:
    """The bounds at `inputs`; OverflowError if one of them, or the gate count before its
    division by the target, overflows a float."""
    try:
        with np.errstate(over="raise"):
            eps = (epsilon_p_bound(inputs), epsilon_T_bound(inputs),
                   epsilon_global_bound(inputs), per_step_sum_bound(inputs))
    except (OverflowError, FloatingPointError):   # Python float ** and numpy scalars raise
        eps = (math.inf,)
    if not all(map(math.isfinite, eps)):
        raise OverflowError(f"dt = {inputs.dt!r} over {inputs.n_steps} steps overflows the bounds")
    eps_p, eps_T, eps_global, eps_per_step_sum = eps
    return BoundReport(
        inputs=inputs,
        eps_p=eps_p,
        eps_T=eps_T,
        eps_step=eps_p + eps_T,
        eps_global=eps_global,
        eps_per_step_sum=eps_per_step_sum,
        gate_count=(
            gate_count_estimate(inputs, eps_global_target)
            if eps_global_target is not None
            else None
        ),
    )
