"""Command-line entry point.

Subcommands:

  qnoise simulate       <config.json>   Monte-Carlo ensemble run -> result.csv
  qnoise sweep-dt       <config.json>   step-error sweep          -> sweep.csv
  qnoise sampling-error <config.json>   statistical-error scan    -> sampling.csv
  qnoise bounds         <config.json>   analytic bound report     -> bounds.json

A config is one JSON document with `model`, `run`, and `experiment`
sections; `--seed`, `--threads`, and `--out-dir` override config fields
(`QNOISE_OUT` supplies the default output directory).  CSV values are
printed at full precision so re-parsing reproduces them exactly.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import warnings
from pathlib import Path

import numpy as np

from . import bounds as bounds_mod
from . import linalg, oracle, presets
from .engine import RunConfig, run_ensemble, trajectory_seed
from .model import (
    LindbladModel,
    ModelParseError,
    PauliString,
    _matrix_to_json,
    _parse_complex_matrix,
    load_model,
)
from .noisegate import expected_channel

PRESETS = {
    "single-spin": presets.single_spin_model,
    "two-molecule": presets.two_molecule_model,
}

# Every key some subcommand reads; anything else is a misspelling.
SECTION_KEYS = {
    "run": {"dt", "n_steps", "n_realizations", "seed", "mode", "m_nodes", "trotter",
            "observables", "initial_state", "record_rho", "threads", "chunk_size"},
    "experiment": {"gamma_dt_values", "dt_values", "compose", "m_nodes", "total_time",
                   "n_r_values", "repetitions", "trotter_order", "eps_target"},
}


def _fmt(x: float) -> str:
    return repr(float(x))


def _load_config(path: str) -> dict:
    try:
        doc = json.loads(Path(path).read_text())
    except FileNotFoundError:
        raise SystemExit(f"error: config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise SystemExit(f"error: {path}: invalid JSON: {exc}")
    if not isinstance(doc, dict):
        raise SystemExit(f"error: {path}: config must be a JSON object")
    for section, allowed in SECTION_KEYS.items():
        spec = doc.get(section, {})
        if not isinstance(spec, dict):
            raise SystemExit(f"error: {section}: section must be an object")
        for key in spec:
            if key not in allowed:
                raise SystemExit(f"error: {section}.{key}: unknown field")
    return doc


def _require(run: dict, *keys: str) -> None:
    for key in keys:
        if key not in run:
            raise SystemExit(f"error: run.{key}: field missing")


def _build_model(doc: dict) -> LindbladModel:
    spec = doc.get("model")
    if spec is None:
        raise SystemExit("error: model: section missing")
    if isinstance(spec, dict) and "preset" in spec:
        name = spec["preset"]
        if name not in PRESETS:
            raise SystemExit(
                f"error: model.preset: unknown preset {name!r}, choose from {sorted(PRESETS)}"
            )
        return PRESETS[name]()
    try:
        return load_model(spec)
    except ModelParseError as exc:
        raise SystemExit(f"error: model.{exc.path}: {exc.args[0].split(': ', 1)[-1]}")


def _parse_state(spec, n: int, path: str) -> np.ndarray:
    d = 2**n
    if isinstance(spec, str):
        if len(spec) != n or any(c not in "01" for c in spec):
            raise SystemExit(f"error: {path}: expected a basis string of {n} bits, got {spec!r}")
        psi = np.zeros(d, dtype=complex)
        psi[int(spec, 2)] = 1.0
        return psi
    try:
        arr = np.array(spec, dtype=float)
    except (TypeError, ValueError):
        raise SystemExit(f"error: {path}: expected a basis string or [re, im] pair list")
    if arr.shape != (d, 2):
        raise SystemExit(f"error: {path}: expected shape ({d}, 2), got {arr.shape}")
    psi = arr[:, 0] + 1j * arr[:, 1]
    norm = np.linalg.norm(psi)
    if norm < 1e-12:
        raise SystemExit(f"error: {path}: zero state vector")
    return psi / norm


def _parse_observable(entry: dict, n: int, path: str) -> tuple[str, np.ndarray]:
    if not isinstance(entry, dict):
        raise SystemExit(f"error: {path}: expected an object")
    if "pauli" in entry:
        try:
            op = PauliString(entry["pauli"]).matrix()
        except (ValueError, TypeError) as exc:
            raise SystemExit(f"error: {path}.pauli: {exc}")
        label = entry.get("label", entry["pauli"])
    elif "projector" in entry:
        psi = _parse_state(entry["projector"], n, f"{path}.projector")
        op = np.outer(psi, psi.conj())
        label = entry.get("label", f"P{entry['projector']}")
    elif "matrix" in entry:
        try:
            op = _parse_complex_matrix(entry["matrix"], f"{path}.matrix", 2**n)
        except ModelParseError as exc:
            raise SystemExit(f"error: {exc}")
        label = entry.get("label", "obs")
    else:
        raise SystemExit(f"error: {path}: need 'pauli', 'projector', or 'matrix'")
    if op.shape != (2**n, 2**n):
        raise SystemExit(f"error: {path}: operator dimension mismatch")
    return label, op


def _build_run_config(doc: dict, model: LindbladModel, args) -> RunConfig:
    run = doc.get("run", {})
    _require(run, "dt", "n_steps")
    observables = [
        _parse_observable(entry, model.n, f"run.observables[{i}]")
        for i, entry in enumerate(run.get("observables", []))
    ]
    initial = run.get("initial_state")
    if initial is not None:
        initial = _parse_state(initial, model.n, "run.initial_state")
    seed = args.seed if args.seed is not None else int(run.get("seed", 0))
    threads = args.threads if args.threads is not None else int(run.get("threads", 1))
    try:
        return RunConfig(
            model=model,
            dt=float(run["dt"]),
            n_steps=int(run["n_steps"]),
            n_realizations=int(run.get("n_realizations", 1)),
            master_seed=seed,
            mode=run.get("mode", "measure-reset"),
            m_nodes=int(run.get("m_nodes", 8)),
            trotter=run.get("trotter", "exact"),
            observables=observables,
            initial_state=initial,
            record_rho=bool(run.get("record_rho", False)),
            threads=threads,
            chunk_size=int(run.get("chunk_size", 1024)),
        )
    except ValueError as exc:
        raise SystemExit(f"error: run: {exc}")


def _out_dir(args) -> Path:
    out = args.out_dir or os.environ.get("QNOISE_OUT") or "."
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _write_gnuplot(path: Path, lines: list[str]) -> None:
    path.write_text("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def cmd_simulate(doc: dict, args) -> int:
    model = _build_model(doc)
    config = _build_run_config(doc, model, args)
    result = run_ensemble(config)
    out = _out_dir(args)

    rows = ["step,time,observable_label,mean,stderr"]
    for i, label in enumerate(result.observable_labels):
        for j, t in enumerate(result.times):
            rows.append(
                f"{j},{_fmt(t)},{label},{_fmt(result.means[i, j])},{_fmt(result.stderrs[i, j])}"
            )
    (out / "result.csv").write_text("\n".join(rows) + "\n")

    if config.record_rho:
        dump = [_matrix_to_json(rho) for rho in result.rho_mean]
        (out / "rho_steps.json").write_text(json.dumps(dump))

    _write_gnuplot(
        out / "result.gp",
        [
            "set datafile separator ','",
            "set xlabel 'time'",
            "set ylabel 'observable mean'",
            "set key autotitle columnheader",
            f"plot '{out / 'result.csv'}' using 2:4:5 with yerrorlines",
        ],
    )

    print(f"ensemble: N_r={result.n_realizations}, mode={result.mode}, seed={result.master_seed}")
    for i, label in enumerate(result.observable_labels):
        print(f"  <{label}>(T) = {result.means[i, -1]:.6f} +/- {result.stderrs[i, -1]:.6f}")
    print(f"  ancilla flip rate = {result.flip_fraction.mean():.6f} per step")
    print(f"wrote {out / 'result.csv'}")
    return 0


# ---------------------------------------------------------------------------
# sweep-dt
# ---------------------------------------------------------------------------


def _fit_slope(x: np.ndarray, y: np.ndarray) -> float:
    return float(np.polyfit(np.log(x), np.log(y), 1)[0])


def cmd_sweep_dt(doc: dict, args) -> int:
    model = _build_model(doc)
    run = doc.get("run", {})
    exp = doc.get("experiment", {})
    gamma = max((t.rate for t in model.lindblad_terms), default=0.0)
    if gamma <= 0:
        raise SystemExit("error: model: sweep-dt needs at least one nonzero rate")

    if "gamma_dt_values" in exp:
        dts = np.array([float(v) / gamma for v in exp["gamma_dt_values"]])
    elif "dt_values" in exp:
        dts = np.array([float(v) for v in exp["dt_values"]])
    else:
        # Default grid: 12 log-spaced points over gamma*dt in [1e-4, 1e-1].
        dts = np.logspace(-4, -1, 12) / gamma

    compose = exp.get("compose", "per-step")
    if compose not in ("per-step", "total-time"):
        raise SystemExit(f"error: experiment.compose: unknown value {compose!r}")
    m_nodes = int(exp.get("m_nodes", run.get("m_nodes", 8)))
    trotter = run.get("trotter", "exact")
    n = model.n
    initial = run.get("initial_state")
    psi0 = (
        _parse_state(initial, n, "run.initial_state")
        if initial is not None
        else np.eye(2**n, dtype=complex)[:, 0]
    )
    rho0 = np.outer(psi0, psi0.conj())

    rows = ["gamma_dt,T_qn,T_sa,bound_qn"]
    gdts, t_qns, t_sas = [], [], []
    for dt in dts:
        n_step = 1
        if compose == "total-time":
            total_t = float(exp.get("total_time", run.get("dt", dt) * run.get("n_steps", 1)))
            n_step = max(1, round(total_t / dt))
            if abs(n_step * dt - total_t) > 1e-9 * max(total_t, dt):
                warnings.warn(
                    f"total time {total_t} not divisible by dt {dt}; using N_step={n_step}"
                )
        ref = oracle.evolve_exact(model, rho0, n_step * dt)
        channel = expected_channel(model, dt, trotter, m_nodes)
        rho_qn = rho_sa = rho0
        for _ in range(n_step):
            rho_qn = channel(rho_qn)
            rho_sa = oracle.step_sa(model, rho_sa, dt)
        t_qn = linalg.trace_distance(rho_qn, ref)
        t_sa = linalg.trace_distance(rho_sa, ref)
        inputs = bounds_mod.BoundInputs.from_model(
            model, dt, n_step, exact_unitary=(trotter == "exact")
        )
        bound = n_step * bounds_mod.epsilon_p_bound(inputs)
        rows.append(f"{_fmt(gamma * dt)},{_fmt(t_qn)},{_fmt(t_sa)},{_fmt(bound)}")
        gdts.append(gamma * dt)
        t_qns.append(t_qn)
        t_sas.append(t_sa)

    out = _out_dir(args)
    (out / "sweep.csv").write_text("\n".join(rows) + "\n")
    _write_gnuplot(
        out / "sweep.gp",
        [
            "set datafile separator ','",
            "set logscale xy",
            "set xlabel 'gamma dt'",
            "set ylabel 'trace distance'",
            f"plot '{out / 'sweep.csv'}' using 1:2 with linespoints title 'QN', \\",
            "     '' using 1:3 with linespoints title 'SA', \\",
            "     '' using 1:4 with lines dashtype 2 title 'QN bound'",
        ],
    )
    slope_qn = _fit_slope(np.array(gdts), np.array(t_qns))
    slope_sa = _fit_slope(np.array(gdts), np.array(t_sas))
    print(f"sweep over {len(dts)} dt values ({compose} composition)")
    print(f"  QN log-log slope = {slope_qn:.3f}")
    print(f"  SA log-log slope = {slope_sa:.3f}")
    print(f"wrote {out / 'sweep.csv'}")
    return 0


# ---------------------------------------------------------------------------
# sampling-error
# ---------------------------------------------------------------------------


def cmd_sampling_error(doc: dict, args) -> int:
    model = _build_model(doc)
    config = _build_run_config(doc, model, args)
    exp = doc.get("experiment", {})
    n_r_values = [int(v) for v in exp.get("n_r_values", [100, 1000, 10000])]
    repetitions = int(exp.get("repetitions", 20))
    if not config.observables:
        raise SystemExit("error: run.observables: sampling-error needs one observable")
    label, op = config.observables[0]

    rho0 = config.initial_density()
    exact_rho = oracle.evolve_exact(model, rho0, config.dt * config.n_steps)
    exact_val = float(np.trace(op @ exact_rho).real)

    rows = ["n_r,eta_mean,eta_std"]
    etas_by_nr = []
    for n_r in n_r_values:
        etas = []
        for rep in range(repetitions):
            cfg = dataclasses.replace(
                config,
                n_realizations=n_r,
                master_seed=trajectory_seed(config.master_seed, rep, 2 + n_r),
                observables=[(label, op)],
                record_rho=False,
            )
            result = run_ensemble(cfg)
            etas.append(abs(result.means[0, -1] - exact_val))
        etas = np.array(etas)
        etas_by_nr.append(etas)
        rows.append(f"{n_r},{_fmt(etas.mean())},{_fmt(etas.std(ddof=1) if len(etas) > 1 else 0.0)}")

    slope = _fit_slope(np.array(n_r_values, float), np.array([e.mean() for e in etas_by_nr]))
    rows.append(f"# fitted log-log slope of eta_mean vs n_r: {_fmt(slope)}")

    out = _out_dir(args)
    (out / "sampling.csv").write_text("\n".join(rows) + "\n")
    _write_gnuplot(
        out / "sampling.gp",
        [
            "set datafile separator ','",
            "set logscale xy",
            "set xlabel 'N_r'",
            f"set ylabel 'eta = |<{label}>_exact - <{label}>_N|'",
            f"plot '{out / 'sampling.csv'}' using 1:2:3 with yerrorlines title 'sampling error'",
        ],
    )
    print(f"sampling error of <{label}> over N_r={n_r_values}, {repetitions} repetitions")
    print(f"  fitted slope = {slope:.3f}")
    print(f"wrote {out / 'sampling.csv'}")
    return 0


# ---------------------------------------------------------------------------
# bounds
# ---------------------------------------------------------------------------


def cmd_bounds(doc: dict, args) -> int:
    model = _build_model(doc)
    run = doc.get("run", {})
    exp = doc.get("experiment", {})
    _require(run, "dt", "n_steps")
    dt, n_steps = float(run["dt"]), int(run["n_steps"])
    trotter = run.get("trotter", "exact")
    inputs = bounds_mod.BoundInputs.from_model(
        model, dt, n_steps,
        trotter_order=int(exp.get("trotter_order", 1)), exact_unitary=(trotter == "exact"),
    )
    target = exp.get("eps_target")
    report = bounds_mod.bound_report(inputs, float(target) if target is not None else None)
    print(report.format_text())
    print(json.dumps(report.to_json()))
    out = _out_dir(args)
    (out / "bounds.json").write_text(json.dumps(report.to_json(), indent=2) + "\n")
    print(f"wrote {out / 'bounds.json'}")
    return 0


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="qnoise",
        description="Single-ancilla stochastic-gate simulator for Lindblad dynamics",
    )
    commands = {"simulate": cmd_simulate, "sweep-dt": cmd_sweep_dt,
                "sampling-error": cmd_sampling_error, "bounds": cmd_bounds}
    sub = parser.add_subparsers(dest="command", required=True)
    for name in commands:
        p = sub.add_parser(name)
        p.add_argument("config", help="JSON config file")
        p.add_argument("--seed", type=int, default=None, help="override run.seed")
        p.add_argument("--threads", type=int, default=None, help="override run.threads")
        p.add_argument("--out-dir", default=None, help="output directory (default: $QNOISE_OUT or .)")
    args = parser.parse_args(argv)

    doc = _load_config(args.config)
    return commands[args.command](doc, args)


if __name__ == "__main__":
    sys.exit(main())
