"""Single-ancilla stochastic-gate simulator for Lindblad open-system dynamics."""

from . import bounds, engine, linalg, model, noisegate, oracle, presets
from .config import load_model
from .engine import EnsembleResult, RunConfig, run_ensemble, run_trajectory
from .model import LindbladModel
from .noisegate import NoiseGatePlan, build_plan, expected_channel
from .oracle import evolve_exact, evolve_rk4, step_sa

__version__ = "0.1.0"

__all__ = [
    "EnsembleResult",
    "LindbladModel",
    "NoiseGatePlan",
    "RunConfig",
    "bounds",
    "build_plan",
    "engine",
    "evolve_exact",
    "evolve_rk4",
    "expected_channel",
    "linalg",
    "load_model",
    "model",
    "noisegate",
    "oracle",
    "presets",
    "run_ensemble",
    "run_trajectory",
    "step_sa",
]
