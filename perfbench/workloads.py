"""The benchmark's workloads: the qnoise CLI commands each one runs, the
counts computed from its inputs, and the checks on its outputs.

Every workload starts from a bundled config in `configs/` and changes
only sizes and the seed, so the commands are the ones a user would type.
Sizes do not depend on the seed: the seed picks the random streams (and,
for the deterministic sweep, the initial basis state), never the amount
of work.
"""
from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from qnoise import cli
from qnoise.engine import RunConfig, run_ensemble
from qnoise.model import PauliString
from qnoise.oracle import evolve_exact

# Correctness tolerances, fixed before any run and not tuned to a seed.
#
# Z_TOL is the multiple of a standard error a Monte-Carlo mean may sit
# from its reference: a two-sided Gaussian tail of 5.7e-7 per comparison,
# so the at most ~100 comparisons of a run raise a false alarm less than
# once in ten thousand runs.
Z_TOL = 5.0
# Ensemble means are compared with `Z_TOL * stderr + Z_TOL**2 * R / (2 N)`,
# R being the observable's eigenvalue range and N the ensemble size. The
# second term is the continuity floor of the Wilson score interval: at
# gamma*dt = 1e-4 an ancilla flip is rare, the first steps of a run may
# contain none, and then the sample stderr is near zero although the
# mean still misses the flip contribution by up to ~Z_TOL**2 flips / N.
# Sampling-scan trajectories have no flips (partial-trace mode carries
# both branches), so that check uses the Gaussian term alone.
#
# The gate scheme's per-step error is second order in gamma*dt; the
# tier-1 acceptance suite holds the single-spin slope to the same band.
SWEEP_SLOPE, SWEEP_SLOPE_TOL = 2.0, 0.3
SAMPLING_REFERENCE_N = 1024     # ensemble that estimates the one-trajectory spread
SAMPLING_REFERENCE_SEED_OFFSET = 1_000_003

ENGINE_THREADS = 2


@dataclass
class Plan:
    """One workload instance, generated from a seed."""

    name: str
    configs: dict[str, dict]          # file name in the work dir -> config document
    commands: list[list[str]]         # qnoise argv; "{work}"/"{out}" are filled in per iteration
    data_files: list[str]             # outputs that must repeat byte for byte
    items: int                        # work items of one iteration, over all commands
    rates: dict[str, tuple[int, int, str]]   # metric -> (command index, items, unit)
    counts: dict[str, int]            # computed per-iteration counts
    check: Callable[[Path], list[tuple[str, bool, str]]]
    parallel_pair: tuple[int, int] | None = None   # (1-thread, 2-thread) command indices


def _load(root: Path, name: str) -> dict:
    return json.loads((root / "configs" / name).read_text())


def _model(doc: dict):
    return cli.PRESETS[doc["model"]["preset"]]()


def _basis_density(bits: str) -> np.ndarray:
    psi = np.zeros(2 ** len(bits), dtype=complex)
    psi[int(bits, 2)] = 1.0
    return np.outer(psi, psi.conj())


def _observable(entry: dict) -> np.ndarray:
    if "pauli" in entry:
        return PauliString(entry["pauli"]).matrix()
    return _basis_density(entry["projector"])


def _ensemble_counts(model, run: dict, runs: list[int]) -> dict[str, int]:
    """Counts of one iteration, computed from the inputs.

    `runs` lists the n_realizations of every ensemble the iteration runs
    (none for the sweep).
    Each realization builds one gate per step; each gate exponentiates
    one (2d x 2d) matrix per channel with a nonzero rate, after
    contracting M nodes into it. The noise buffer is drawn per chunk.
    """
    steps, m = run["n_steps"], run["m_nodes"]
    k = len(model.lindblad_terms)
    k_active = sum(1 for t in model.lindblad_terms if t.rate != 0.0)
    d2 = 2 * model.dim
    chunk = run.get("chunk_size", 1024)
    gates = sum(runs) * steps
    return {
        "noisegate.gates_built": gates,
        "linalg.matexp_matrices": gates * k_active,
        "noisegate.sk_macs": gates * k_active * m * d2 * d2,
        "engine.noise_bytes": max((min(chunk, n) for n in runs), default=0) * steps * k * m * 8,
    }


def _read_rows(path: Path) -> list[dict]:
    with path.open() as f:
        return list(csv.DictReader(line for line in f if not line.startswith("#")))


def _oracle_checks(path: Path, doc: dict, n_realizations: int):
    """Every step of every observable against evolve_exact."""
    model = _model(doc)
    run = doc["run"]
    rho0 = _basis_density(run["initial_state"])
    ops = {o["label"]: _observable(o) for o in run["observables"]}
    ranges = {lab: float(np.ptp(np.linalg.eigvalsh(op))) for lab, op in ops.items()}
    exact: dict[float, np.ndarray] = {}
    out = []
    for row in _read_rows(path):
        label, step, t = row["observable_label"], int(row["step"]), float(row["time"])
        if t not in exact:
            exact[t] = evolve_exact(model, rho0, t)
        ref = float(np.trace(ops[label] @ exact[t]).real)
        mean, err = float(row["mean"]), float(row["stderr"])
        tol = Z_TOL * err + Z_TOL**2 * ranges[label] / (2 * n_realizations)
        dev = abs(mean - ref)
        out.append((f"{path.parent.name}/{path.name} <{label}> step {step} vs evolve_exact",
                    dev <= tol, f"|mean-exact|={dev:.3e} tol={tol:.3e}"))
    return out


def spin_ensemble(seed: int, smoke: bool, root: Path) -> Plan:
    doc = _load(root, "single_spin.json")
    run = doc["run"]
    # Two chunks at the default chunk size, so both engine threads work.
    run["n_realizations"] = 64 if smoke else 2048
    run["n_steps"] = 5 if smoke else 15
    run["seed"] = seed
    n, items = run["n_realizations"], run["n_realizations"] * run["n_steps"]
    model = _model(doc)

    def check(out: Path):
        same = (out / "t1/result.csv").read_bytes() == (out / "t2/result.csv").read_bytes()
        return [("result.csv identical at 1 and 2 threads", same, "")] + _oracle_checks(
            out / "t1/result.csv", doc, n)

    return Plan(
        name="spin-ensemble",
        configs={"spin.json": doc},
        commands=[
            ["simulate", "{work}/spin.json", "--threads", "1", "--out-dir", "{out}/t1"],
            ["simulate", "{work}/spin.json", "--threads", str(ENGINE_THREADS),
             "--out-dir", "{out}/t2"],
        ],
        data_files=["t1/result.csv", "t2/result.csv"],
        items=2 * items,
        rates={"traj_steps_per_s_1t": (0, items, "trajectory-steps/s"),
               "traj_steps_per_s": (1, items, "trajectory-steps/s")},
        counts=_ensemble_counts(model, run, [n, n]),
        check=check,
        parallel_pair=(0, 1),
    )


def molecule_ensemble(seed: int, smoke: bool, root: Path) -> Plan:
    doc = _load(root, "two_molecule.json")
    run = doc["run"]
    run["n_realizations"] = 4 if smoke else 48
    run["n_steps"] = 3 if smoke else 20
    run["seed"] = seed
    n, items = run["n_realizations"], run["n_realizations"] * run["n_steps"]
    return Plan(
        name="molecule-ensemble",
        configs={"molecule.json": doc},
        commands=[["simulate", "{work}/molecule.json", "--threads", str(ENGINE_THREADS),
                   "--out-dir", "{out}/m"]],
        data_files=["m/result.csv"],
        items=items,
        rates={"traj_steps_per_s": (0, items, "trajectory-steps/s")},
        counts=_ensemble_counts(_model(doc), run, [n]),
        check=lambda out: _oracle_checks(out / "m/result.csv", doc, n),
    )


def sampling_scan(seed: int, smoke: bool, root: Path) -> Plan:
    doc = _load(root, "single_spin_sampling.json")
    run = doc["run"]
    run["mode"] = "partial-trace"
    run["seed"] = seed
    if smoke:
        run["n_steps"] = 5
    n_rs, reps = ([4, 8], 3) if smoke else ([8, 32, 128], 8)
    doc["experiment"] = {"n_r_values": n_rs, "repetitions": reps}
    model = _model(doc)
    items = sum(n_rs) * reps * run["n_steps"]

    def check(out: Path):
        # One larger ensemble from an independent seed estimates the
        # one-trajectory spread sigma of <Z>(T) and bounds the bias. eta
        # at N_r is |mean of N_r trajectories - exact|, whose mean over
        # the repetitions is sqrt(2/pi) sigma/sqrt(N_r), plus at most the
        # bias, with a standard deviation below sigma/sqrt(N_r * reps).
        z_op = PauliString("Z").matrix()
        n_ref = 256 if smoke else SAMPLING_REFERENCE_N
        ref = run_ensemble(RunConfig(
            model=model, dt=run["dt"], n_steps=run["n_steps"], n_realizations=n_ref,
            master_seed=seed + SAMPLING_REFERENCE_SEED_OFFSET, mode="partial-trace",
            m_nodes=run["m_nodes"], trotter=run["trotter"], observables=[("Z", z_op)],
            initial_state=_basis_density(run["initial_state"])))
        t_end = run["dt"] * run["n_steps"]
        exact = float(np.trace(z_op @ evolve_exact(
            model, _basis_density(run["initial_state"]), t_end)).real)
        sigma = float(ref.stderrs[0, -1]) * math.sqrt(n_ref)
        bias = abs(float(ref.means[0, -1]) - exact) + Z_TOL * float(ref.stderrs[0, -1])
        out_checks = []
        rows = _read_rows(out / "s/sampling.csv")
        out_checks.append(("sampling.csv has one row per N_r",
                           [int(r["n_r"]) for r in rows] == n_rs, ""))
        for r in rows:
            s_n = sigma / math.sqrt(int(r["n_r"]))
            expected = math.sqrt(2 / math.pi) * s_n
            tol = Z_TOL * s_n / math.sqrt(reps) + bias
            dev = abs(float(r["eta_mean"]) - expected)
            out_checks.append((f"eta_mean at N_r={r['n_r']} consistent with stderr",
                               dev <= tol,
                               f"eta_mean={float(r['eta_mean']):.3e} expected={expected:.3e} "
                               f"tol={tol:.3e}"))
        return out_checks

    return Plan(
        name="sampling-scan",
        configs={"sampling.json": doc},
        commands=[["sampling-error", "{work}/sampling.json", "--threads", str(ENGINE_THREADS),
                   "--out-dir", "{out}/s"]],
        data_files=["s/sampling.csv"],
        items=items,
        rates={"traj_steps_per_s": (0, items, "trajectory-steps/s")},
        counts=_ensemble_counts(model, run, [n for n in n_rs for _ in range(reps)]),
        check=check,
    )


def reference_sweep(seed: int, smoke: bool, root: Path) -> Plan:
    doc = _load(root, "two_molecule.json")
    points = 4 if smoke else 12
    # The seed picks the initial basis state; every state costs the same.
    doc["run"]["initial_state"] = format(seed % 4, "02b")
    doc["experiment"] = {
        "compose": "per-step",
        "m_nodes": 256,
        "gamma_dt_values": np.logspace(-4, math.log10(0.3), points).tolist(),
    }

    def check(out: Path):
        rows = _read_rows(out / "w/sweep.csv")
        checks = [("sweep.csv has one row per gamma*dt", len(rows) == points, f"{len(rows)} rows")]
        for r in rows:
            t_qn, bound = float(r["T_qn"]), float(r["bound_qn"])
            checks.append((f"bound_qn >= T_qn at gamma*dt={float(r['gamma_dt']):.3e}",
                           math.isfinite(t_qn) and bound >= t_qn,
                           f"T_qn={t_qn:.3e} bound={bound:.3e}"))
        gdt = np.log([float(r["gamma_dt"]) for r in rows])
        slope = float(np.polyfit(gdt, np.log([float(r["T_qn"]) for r in rows]), 1)[0])
        checks.append(("T_qn log-log slope vs gamma*dt",
                       abs(slope - SWEEP_SLOPE) <= SWEEP_SLOPE_TOL,
                       f"slope={slope:.3f}, want {SWEEP_SLOPE}+-{SWEEP_SLOPE_TOL}"))
        try:
            parsed = isinstance(json.loads((out / "b/bounds.json").read_text()), dict)
        except (OSError, ValueError):
            parsed = False
        return checks + [("bounds.json parses", parsed, "")]

    return Plan(
        name="reference-sweep",
        configs={"sweep.json": doc},
        commands=[
            ["sweep-dt", "{work}/sweep.json", "--out-dir", "{out}/w"],
            ["bounds", str(root / "configs" / "two_molecule.json"), "--out-dir", "{out}/b"],
        ],
        data_files=["w/sweep.csv", "b/bounds.json"],
        items=points,
        rates={"sweep_points_per_s": (0, points, "1/s")},
        counts=_ensemble_counts(_model(doc), doc["run"], []),
        check=check,
    )


PLANS = {
    "spin-ensemble": spin_ensemble,
    "molecule-ensemble": molecule_ensemble,
    "sampling-scan": sampling_scan,
    "reference-sweep": reference_sweep,
}
