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
from . import linalg, oracle
from .config import Config, ConfigError, load, matrix_to_json
from .engine import run_ensemble, run_ensembles, trajectory_seed
from .noisegate import expected_channel
from .presets import PRESETS  # noqa: F401  (kept importable as qnoise.cli.PRESETS)


def _fmt(x: float) -> str:
    return repr(float(x))


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


def cmd_simulate(cfg: Config, args) -> int:
    config = cfg.run_config
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
        dump = [matrix_to_json(rho) for rho in result.rho_mean]
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
    """Log-log slope of y against x; nan, with no log taken, when a value is <= 0."""
    if min(x.min(), y.min()) <= 0:
        return float("nan")
    return float(np.polyfit(np.log(x), np.log(y), 1)[0])


def _slope_text(slope: float) -> str:
    return "undefined: an error is 0" if np.isnan(slope) else f"{slope:.3f}"


def _sa_distance(model, rho0, ref, dt: float, n_step: int, gamma: float) -> float:
    """Trace distance from ref after n_step SA (Euler) steps of rho0.  Exits with an error
    naming the point if the iterate overflows, or its distance is unknown or above 1/eps."""
    rho, step = rho0, 0
    try:
        with np.errstate(over="raise", invalid="raise"):
            for step in range(1, n_step + 1):
                rho = oracle.step_sa(model, rho, dt)
            if (distance := linalg.trace_distance(rho, ref)) <= 1 / np.finfo(float).eps:
                return distance   # beyond, the iterate's unit trace is below its rounding
            raise FloatingPointError(f"trace distance {distance:.3e} exceeds 1/eps")
    except (FloatingPointError, np.linalg.LinAlgError) as exc:
        raise SystemExit(f"error: SA diverges at dt = {_fmt(dt)} (gamma*dt = {_fmt(gamma * dt)}), "
                         f"step {step} of {n_step}: {exc}") from None


def cmd_sweep_dt(cfg: Config, args) -> int:
    model, run, exp = cfg.model, cfg.run, cfg.experiment
    gamma = max(model.acting_rates)
    if exp["dt_values"] is not None:
        dts = np.array(exp["dt_values"])
    else:
        dts = np.array(exp["gamma_dt_values"]) / gamma
    rho0 = np.outer(run["initial_state"], run["initial_state"].conj())
    # Only dt and n_steps change from point to point; `replace` re-runs the checks.
    base_inputs = bounds_mod.BoundInputs.from_model(model, dts[0], 1, run["trotter"])

    rows = ["gamma_dt,T_qn,T_sa,bound_qn"]
    gdts, t_qns, t_sas = [], [], []
    for dt in dts:
        n_step = 1
        if exp["compose"] == "total-time":
            total_t = exp["total_time"]
            n_step = max(1, round(total_t / dt))
            if abs(n_step * dt - total_t) > 1e-9 * max(total_t, dt):
                warnings.warn(
                    f"total time {total_t} not divisible by dt {dt}; using N_step={n_step}"
                )
        ref = oracle.evolve_exact(model, rho0, n_step * dt)
        channel = expected_channel(model, dt, run["trotter"], exp["m_nodes"])
        rho_qn = rho0
        for _ in range(n_step):
            rho_qn = channel(rho_qn)
        t_qn = linalg.trace_distance(rho_qn, ref)
        t_sa = _sa_distance(model, rho0, ref, dt, n_step, gamma)
        inputs = dataclasses.replace(base_inputs, dt=dt, n_steps=n_step)
        bound = bounds_mod.per_step_sum_bound(inputs)
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
    print(f"sweep over {len(dts)} dt values ({exp['compose']} composition)")
    print(f"  QN log-log slope = {_slope_text(slope_qn)}")
    print(f"  SA log-log slope = {_slope_text(slope_sa)}")
    print(f"wrote {out / 'sweep.csv'}")
    return 0


# ---------------------------------------------------------------------------
# sampling-error
# ---------------------------------------------------------------------------


def cmd_sampling_error(cfg: Config, args) -> int:
    config = cfg.run_config
    n_r_values, repetitions = cfg.experiment["n_r_values"], cfg.experiment["repetitions"]
    label, op = config.observables[0]

    state = config.start_state
    rho0 = state if state.ndim == 2 else np.outer(state, state.conj())
    exact_rho = oracle.evolve_exact(cfg.model, rho0, config.dt * config.n_steps)
    exact_val = float(np.trace(op @ exact_rho).real)

    # Every trial ensemble of the scan runs in one engine pass, packed into shared chunks.
    base = dataclasses.replace(config, observables=[(label, op)], record_rho=False)
    results = iter(run_ensembles([
        dataclasses.replace(base, n_realizations=n_r,
                            master_seed=trajectory_seed(config.master_seed, rep, 2 + n_r))
        for n_r in n_r_values for rep in range(repetitions)]))
    rows = ["n_r,eta_mean,eta_std"]
    etas_by_nr = []
    for n_r in n_r_values:
        etas = np.array([abs(next(results).means[0, -1] - exact_val) for _ in range(repetitions)])
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
    print(f"  fitted slope = {_slope_text(slope)}")
    print(f"wrote {out / 'sampling.csv'}")
    return 0


# ---------------------------------------------------------------------------
# bounds
# ---------------------------------------------------------------------------


def cmd_bounds(cfg: Config, args) -> int:
    config = cfg.run_config
    inputs = bounds_mod.BoundInputs.from_model(cfg.model, config.dt, config.n_steps, config.trotter)
    try:
        report = bounds_mod.bound_report(inputs, cfg.experiment["eps_target"])
    except OverflowError as exc:
        raise SystemExit(f"error: run.dt: {exc}") from None
    except ValueError as exc:   # only the gate count for eps_target raises here
        raise SystemExit(f"error: experiment.eps_target: {exc}") from None
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

    try:
        cfg = load(args.config, args.command, seed=args.seed, threads=args.threads)
    except ConfigError as exc:
        raise SystemExit(f"error: {exc}") from None
    return commands[args.command](cfg, args)


if __name__ == "__main__":
    sys.exit(main())
