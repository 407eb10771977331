import csv
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from qnoise.bounds import BoundInputs, bound_report, per_step_sum_bound
from qnoise.cli import main
from qnoise.config import SCHEMA, load, load_model, matrix_to_json
from qnoise.engine import RunConfig, run_ensemble
from qnoise.model import PauliString
from qnoise.noisegate import closed_propagator
from qnoise.presets import single_spin_model, two_molecule_model

ROOT = Path(__file__).resolve().parent.parent
CONFIG_DIR = ROOT / "configs"


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def small_sim_config(seed=3, n_realizations=40, extra_run=None):
    run = {
        "dt": 1e-6,
        "n_steps": 5,
        "n_realizations": n_realizations,
        "seed": seed,
        "observables": [{"label": "Z", "pauli": "Z"}],
    }
    if extra_run:
        run.update(extra_run)
    return {"model": {"preset": "single-spin"}, "run": run}


def parse_csv(path):
    lines = [l for l in path.read_text().strip().splitlines() if not l.startswith("#")]
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


def test_simulate_writes_csv(tmp_path):
    cfg = write_config(tmp_path, small_sim_config())
    assert main(["simulate", cfg, "--out-dir", str(tmp_path)]) == 0
    header, rows = parse_csv(tmp_path / "result.csv")
    assert header == ["step", "time", "observable_label", "mean", "stderr"]
    assert len(rows) == 6  # steps 0..5 for one observable
    assert (tmp_path / "result.gp").exists()


def test_result_csv_reads_back_every_label(tmp_path):
    # Each label is one CSV field and names one observable's rows.
    observables = [{"label": "Z", "pauli": "Z"}, {"projector": "1"},
                   {"label": "<X> (drive; axis)", "pauli": "X"}, {"pauli": "Y"}]
    cfg = write_config(tmp_path, small_sim_config(extra_run={"observables": observables}))
    main(["simulate", cfg, "--out-dir", str(tmp_path)])
    with open(tmp_path / "result.csv", newline="") as f:
        rows = list(csv.DictReader(f))
    assert all(len(row) == 5 and None not in row for row in rows)
    labels = [row["observable_label"] for row in rows]
    assert labels == [label for label in ("Z", "P1", "<X> (drive; axis)", "Y") for _ in range(6)]
    for row in rows:
        assert repr(float(row["mean"])) == row["mean"]
        assert repr(float(row["stderr"])) == row["stderr"]


def test_simulate_csv_roundtrip_full_precision(tmp_path):
    cfg = write_config(tmp_path, small_sim_config())
    main(["simulate", cfg, "--out-dir", str(tmp_path)])
    _, rows = parse_csv(tmp_path / "result.csv")
    for row in rows:
        mean = float(row[3])
        assert repr(mean) == row[3]  # printed at full precision


def test_simulate_deterministic(tmp_path):
    cfg = write_config(tmp_path, small_sim_config())
    out1, out2 = tmp_path / "a", tmp_path / "b"
    main(["simulate", cfg, "--out-dir", str(out1)])
    main(["simulate", cfg, "--out-dir", str(out2)])
    assert (out1 / "result.csv").read_bytes() == (out2 / "result.csv").read_bytes()


def test_simulate_thread_count_invariance(tmp_path):
    doc = small_sim_config(n_realizations=96, extra_run={"chunk_size": 16})
    cfg = write_config(tmp_path, doc)
    outputs = []
    for threads in ("1", "4", "8"):
        out = tmp_path / f"t{threads}"
        main(["simulate", cfg, "--out-dir", str(out), "--threads", threads])
        outputs.append((out / "result.csv").read_bytes())
    assert outputs[0] == outputs[1] == outputs[2]


def test_simulate_seed_override_changes_output(tmp_path):
    cfg = write_config(tmp_path, small_sim_config())
    out1, out2 = tmp_path / "a", tmp_path / "b"
    main(["simulate", cfg, "--out-dir", str(out1)])
    main(["simulate", cfg, "--out-dir", str(out2), "--seed", "999"])
    assert (out1 / "result.csv").read_bytes() != (out2 / "result.csv").read_bytes()


def test_simulate_noiseless_matches_closed_system(tmp_path):
    doc = {
        "model": {
            "n": 1,
            "hamiltonian": [{"pauli": "X", "coeff": 1.0}],
            "lindblad": [{"pauli": "Z", "rate": 0.0}],
        },
        "run": {
            "dt": 0.1,
            "n_steps": 6,
            "n_realizations": 3,
            "observables": [{"label": "Z", "pauli": "Z"}],
        },
    }
    cfg = write_config(tmp_path, doc)
    main(["simulate", cfg, "--out-dir", str(tmp_path)])
    _, rows = parse_csv(tmp_path / "result.csv")
    z = PauliString("Z").matrix()
    model = load_model(doc["model"])
    for row in rows:
        t = float(row[1])
        u = closed_propagator(model, t)
        expected = float((u[:, 0].conj() @ z @ u[:, 0]).real)
        assert float(row[3]) == pytest.approx(expected, abs=1e-9)


def test_simulate_rho_dump(tmp_path):
    doc = small_sim_config(extra_run={"record_rho": True})
    cfg = write_config(tmp_path, doc)
    main(["simulate", cfg, "--out-dir", str(tmp_path)])
    dump = json.loads((tmp_path / "rho_steps.json").read_text())
    assert len(dump) == 6
    rho0 = np.array(dump[0])
    assert rho0[..., 0][0][0] == pytest.approx(1.0)


def test_sweep_dt_output_and_bound(tmp_path):
    doc = {
        "model": {"preset": "single-spin"},
        "run": {"initial_state": "0"},
        "experiment": {"gamma_dt_values": [1e-4, 1e-3, 1e-2], "m_nodes": 64},
    }
    cfg = write_config(tmp_path, doc)
    assert main(["sweep-dt", cfg, "--out-dir", str(tmp_path)]) == 0
    header, rows = parse_csv(tmp_path / "sweep.csv")
    assert header == ["gamma_dt", "T_qn", "T_sa", "bound_qn"]
    assert len(rows) == 3
    for row in rows:
        gdt, t_qn, t_sa, bound = map(float, row)
        assert bound >= t_qn
        assert t_sa > t_qn


def test_sweep_dt_bound_follows_run_trotter(tmp_path):
    # bound_qn is n (eps_p + eps_T); it used to leave out the Trotter term.
    gamma_dts = [1e-4, 1e-3]
    bound = {}
    for trotter in ("exact", "order-1"):
        doc = {"model": {"preset": "two-molecule"}, "run": {"trotter": trotter},
               "experiment": {"gamma_dt_values": gamma_dts, "m_nodes": 16}}
        out = tmp_path / trotter
        main(["sweep-dt", write_config(tmp_path, doc, f"{trotter}.json"), "--out-dir", str(out)])
        bound[trotter] = [float(row[3]) for row in parse_csv(out / "sweep.csv")[1]]
    model = two_molecule_model()
    gamma = max(t.rate for t in model.lindblad_terms)
    for gdt, exact, order1 in zip(gamma_dts, bound["exact"], bound["order-1"]):
        assert order1 == per_step_sum_bound(BoundInputs.from_model(model, gdt / gamma, 1, "order-1"))
        assert order1 > exact


def test_sweep_dt_builds_its_bound_inputs_once(tmp_path, monkeypatch):
    # Only dt and n_steps change across a sweep, so the model's norms are taken once.
    calls = []
    from_model = BoundInputs.from_model
    monkeypatch.setattr(BoundInputs, "from_model",
                        lambda *args: calls.append(args) or from_model(*args))
    doc = {"model": {"preset": "single-spin"}, "experiment": {"m_nodes": 8}}
    main(["sweep-dt", write_config(tmp_path, doc), "--out-dir", str(tmp_path)])
    assert len(parse_csv(tmp_path / "sweep.csv")[1]) == 12
    assert len(calls) == 1


def test_sweep_dt_zero_error_slope_is_undefined(tmp_path, capsys):
    # Pure dephasing of |0> leaves the state fixed, so both errors are 0 at every dt.
    doc = {"model": {"n": 1, "lindblad": [{"pauli": "Z", "rate": 1.0}]},
           "run": {"initial_state": "0"}, "experiment": {"dt_values": [0.01, 0.1]}}
    main(["sweep-dt", write_config(tmp_path, doc), "--out-dir", str(tmp_path)])
    _, rows = parse_csv(tmp_path / "sweep.csv")
    assert [(float(r[1]), float(r[2])) for r in rows] == [(0.0, 0.0), (0.0, 0.0)]
    out = capsys.readouterr().out
    assert "QN log-log slope = undefined: an error is 0" in out
    assert "SA log-log slope = undefined: an error is 0" in out


def test_sweep_dt_total_time_composition(tmp_path):
    doc = {
        "model": {"preset": "single-spin"},
        "run": {"initial_state": "0"},
        "experiment": {
            "compose": "total-time",
            "total_time": 10e-6,
            "dt_values": [1e-6, 2e-6],
            "m_nodes": 32,
        },
    }
    cfg = write_config(tmp_path, doc)
    assert main(["sweep-dt", cfg, "--out-dir", str(tmp_path)]) == 0
    _, rows = parse_csv(tmp_path / "sweep.csv")
    assert len(rows) == 2
    for row in rows:
        assert float(row[3]) >= float(row[1])


def test_sweep_dt_stops_when_sa_diverges(tmp_path):
    # At gamma*dt = 1e-2 each Euler step grows the fastest-rotating component of the
    # single spin, and 500 steps overflow it: this used to write rows of T_sa = nan.
    # At dt = 1e-6 the 500 steps stay finite but reach T_sa = 9.16e25, where the
    # iterate's unit trace is below its rounding: this used to be written as a number.
    cases = [(0.05, [1e-4, 2e-4], r"0\.0001 \(gamma\*dt = 0\.01\), step \d+ of 500: "),
             (5e-4, [1e-6, 2e-6], r"1e-06 \(gamma\*dt = [^)]+\), step 500 of 500: "
                                  r"trace distance \S+ exceeds 1/eps$")]
    for i, (total_time, dt_values, message) in enumerate(cases):
        doc = {"model": {"preset": "single-spin"}, "run": {"initial_state": "0"},
               "experiment": {"compose": "total-time", "total_time": total_time,
                              "dt_values": dt_values, "m_nodes": 8}}
        cfg = write_config(tmp_path, doc, f"case{i}.json")
        out = tmp_path / f"out{i}"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(SystemExit, match=rf"^error: SA diverges at dt = {message}"):
                main(["sweep-dt", cfg, "--out-dir", str(out)])
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert not (out / "sweep.csv").exists()


def test_sampling_error_output(tmp_path):
    doc = small_sim_config()
    doc["experiment"] = {"n_r_values": [10, 40], "repetitions": 3}
    cfg = write_config(tmp_path, doc)
    assert main(["sampling-error", cfg, "--out-dir", str(tmp_path)]) == 0
    header, rows = parse_csv(tmp_path / "sampling.csv")
    assert header == ["n_r", "eta_mean", "eta_std"]
    assert [int(r[0]) for r in rows] == [10, 40]
    assert "slope" in (tmp_path / "sampling.csv").read_text()


@pytest.mark.parametrize("mode", ["measure-reset", "partial-trace"])
def test_sampling_error_thread_invariant(tmp_path, mode):
    # Chunks of 32 pack the twelve trial ensembles into several shared chunks, and split
    # the N_r = 64 ones across two.
    doc = small_sim_config(extra_run={"mode": mode, "chunk_size": 32})
    doc["experiment"] = {"n_r_values": [4, 16, 64], "repetitions": 4}
    cfg = write_config(tmp_path, doc)
    written = []
    for threads in ("1", "2"):
        out = tmp_path / f"t{threads}"
        assert main(["sampling-error", cfg, "--threads", threads, "--out-dir", str(out)]) == 0
        written.append((out / "sampling.csv").read_bytes())
    assert written[0] == written[1]


def test_bounds_report(tmp_path):
    doc = {
        "model": {"preset": "single-spin"},
        "run": {"dt": 1e-6, "n_steps": 30, "trotter": "exact"},
        "experiment": {"eps_target": 1e-4},
    }
    cfg = write_config(tmp_path, doc)
    assert main(["bounds", cfg, "--out-dir", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "bounds.json").read_text())
    assert report["eps_p"] == pytest.approx(4.893e-7, rel=1e-3)
    assert report["eps_T"] == 0.0
    assert report["eps_global"] == pytest.approx(30 * report["eps_p"], rel=1e-9)
    assert report["gate_count"] >= 1
    assert report["inputs"]["K"] == 1


def test_bounds_of_a_model_without_dissipator_report_m_zero(tmp_path):
    # An identity operator has a zero dissipator, so K = m = 0 and nothing to bound.
    doc = {
        "model": {"n": 2, "lindblad": [{"pauli": "II", "rate": 0.1}]},
        "run": {"dt": 0.01, "n_steps": 10, "trotter": "exact"},
        "experiment": {"eps_target": 1e-3},
    }
    assert main(["bounds", write_config(tmp_path, doc), "--out-dir", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "bounds.json").read_text())
    assert (report["inputs"]["K"], report["inputs"]["m"]) == (0, 0)
    assert (report["eps_p"], report["gate_count"]) == (0.0, 0)


def test_import_loads_no_scipy():
    # scipy is the tests' reference only; the CLI's start-up must not pay its import.
    # numpy.random loads on import too, so the first run does not pay for it.
    code = ("import qnoise.cli, sys; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'), "
            "'numpy.random' in sys.modules)")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True).stdout
    assert out.split() == ["[]", "True"]


def test_out_dir_from_environment(tmp_path, monkeypatch):
    out = tmp_path / "envout"
    monkeypatch.setenv("QNOISE_OUT", str(out))
    cfg = write_config(tmp_path, small_sim_config())
    main(["simulate", cfg])
    assert (out / "result.csv").exists()


def test_missing_config_file(tmp_path):
    with pytest.raises(SystemExit, match="not found"):
        main(["simulate", str(tmp_path / "nope.json")])


def test_model_error_cites_field_path(tmp_path):
    doc = {
        "model": {"n": 1, "lindblad": [{"pauli": "Z", "rate": -2}]},
        "run": {"dt": 1e-6, "n_steps": 1},
    }
    cfg = write_config(tmp_path, doc)
    with pytest.raises(SystemExit, match=r"lindblad\[0\]\.rate"):
        main(["simulate", cfg])


def test_bad_observable_and_state_errors(tmp_path):
    doc = small_sim_config()
    doc["run"]["observables"] = [{"label": "bad"}]
    cfg = write_config(tmp_path, doc)
    with pytest.raises(SystemExit, match=r"run\.observables\[0\]"):
        main(["simulate", cfg])

    doc = small_sim_config()
    doc["run"]["initial_state"] = "01"  # wrong length for n=1
    cfg = write_config(tmp_path, doc, "c2.json")
    with pytest.raises(SystemExit, match=r"run\.initial_state"):
        main(["simulate", cfg])


def test_initial_state_amplitudes_are_normalised(tmp_path):
    cfg = write_config(tmp_path, small_sim_config(extra_run={"initial_state": [[3, 0], [4, 0]]}))
    assert_allclose(load(cfg, "simulate").run["initial_state"], [0.6, 0.8], rtol=0, atol=1e-15)
    main(["simulate", cfg, "--out-dir", str(tmp_path)])
    _, rows = parse_csv(tmp_path / "result.csv")
    assert float(rows[0][3]) == pytest.approx(0.6**2 - 0.8**2, abs=1e-15)   # <Z> at step 0


def test_unknown_preset(tmp_path):
    cfg = write_config(tmp_path, {"model": {"preset": "bogus"}, "run": {"dt": 1, "n_steps": 1}})
    with pytest.raises(SystemExit, match="preset"):
        main(["simulate", cfg])


@pytest.mark.parametrize("section,key", [("run", "n_realisations"), ("experiment", "repetition")])
def test_unknown_config_key_is_rejected(tmp_path, section, key):
    # A misspelled n_realizations used to run one realization silently.
    doc = small_sim_config()
    doc.setdefault(section, {})[key] = 100
    cfg = write_config(tmp_path, doc)
    with pytest.raises(SystemExit, match=rf"^error: {section}\.{key}: unknown field$"):
        main(["simulate", cfg, "--out-dir", str(tmp_path)])


BUNDLED_COMMAND = {
    "single_spin.json": "simulate",
    "single_spin_sampling.json": "sampling-error",
    "single_spin_sweep.json": "sweep-dt",
    "two_molecule.json": "simulate",
}


@pytest.mark.parametrize("path", sorted(CONFIG_DIR.glob("*.json")), ids=lambda p: p.name)
def test_bundled_configs_pass_key_check(path):
    assert load(str(path), BUNDLED_COMMAND[path.name]).model.n >= 1


@pytest.mark.parametrize("missing", ["dt", "n_steps"])
def test_bounds_requires_dt_and_n_steps(tmp_path, missing):
    # A missing run.dt used to become dt = 1 silently.
    run = {"dt": 1e-6, "n_steps": 30}
    del run[missing]
    cfg = write_config(tmp_path, {"model": {"preset": "single-spin"}, "run": run})
    with pytest.raises(SystemExit, match=rf"^error: run\.{missing}: field missing$"):
        main(["bounds", cfg, "--out-dir", str(tmp_path)])


def test_simulate_reports_flip_rate(tmp_path, capsys):
    # 2000 x 5 steps at gamma*dt = 1e-3 expect about 2*gamma*dt*10^4 = 20 flips, so the
    # guard `expected > 0` fails with probability about e^-20 = 2e-9 for any draws.
    doc = small_sim_config(n_realizations=2000, extra_run={"dt": 1e-5})
    cfg = write_config(tmp_path, doc)
    main(["simulate", cfg, "--out-dir", str(tmp_path)])
    line = [l for l in capsys.readouterr().out.splitlines() if "ancilla flip rate" in l]
    assert len(line) == 1
    printed = float(line[0].split("=")[1].split()[0])

    config = RunConfig(
        model=single_spin_model(), dt=1e-5, n_steps=5, n_realizations=2000, master_seed=3,
        observables=[("Z", PauliString("Z").matrix())],
    )
    expected = run_ensemble(config).flip_fraction.mean()
    assert expected > 0
    assert printed == pytest.approx(expected, abs=5e-7)
    header, _ = parse_csv(tmp_path / "result.csv")
    assert header == ["step", "time", "observable_label", "mean", "stderr"]


def _set(doc, dotted, value):
    *parents, last = dotted.split(".")
    for key in parents:
        doc = doc.setdefault(key, {})
    doc[last] = value


# Small experiment sections, so that a check that fails to stop a run stays quick.
EXPERIMENT = {"sweep-dt": {"m_nodes": 8}, "sampling-error": {"n_r_values": [4, 8], "repetitions": 2}}
INLINE_H = [{"pauli": "X", "coeff": 1.0}]
NILPOTENT = [[[0, 0], [1, 0]], [[0, 0], [0, 0]]]   # [[0, 1], [0, 0]]: not Hermitian
EYE4 = [[[float(i == j), 0.0] for j in range(4)] for i in range(4)]
LOWER_1 = [[[float((i, j) in ((0, 1), (2, 3))), 0.0] for j in range(4)] for i in range(4)]
ZZ = matrix_to_json(PauliString("ZZ").matrix())
Z1 = matrix_to_json(PauliString("Z").matrix())


# Each row: command, config key set on a small single-spin config, its
# value, and the field path the error must name, under an explicit id.  In
# brackets, what the input did before the declared schema.
BAD_INPUT = [
    pytest.param("simulate", "run.n_steps", 2.7, r"run\.n_steps",
                 id="simulate-run.n_steps=2.7"),                 # [ran 2 steps]
    pytest.param("simulate", "run.record_rho", "false", r"run\.record_rho",
                 id='simulate-run.record_rho="false"'),          # [wrote rho_steps.json]
    pytest.param("simulate", "run.dt", "1e-6", r"run\.dt",
                 id='simulate-run.dt="1e-6"'),                   # [accepted]
    pytest.param("simulate", "run.n_steps", None, r"run\.n_steps",
                 id="simulate-run.n_steps=null"),                # [TypeError]
    pytest.param("simulate", "run.m_nodes", 0, r"run\.m_nodes",
                 id="simulate-run.m_nodes=0"),                   # [traceback]
    pytest.param("simulate", "run.chunk_size", 0, r"run\.chunk_size",
                 id="simulate-run.chunk_size=0"),                # [traceback]
    pytest.param("simulate", "run.threads", -3, r"run\.threads",
                 id="simulate-run.threads=-3"),                  # [ran]
    pytest.param("bounds", "run.trotter", "bogus", r"run\.trotter",
                 id='bounds-run.trotter="bogus"'),               # [exit 0]
    pytest.param("simulate", "run.trotter", "order-3", r"run\.trotter",
                 id='simulate-run.trotter="order-3"'),           # [traceback]
    pytest.param("simulate", "model", {"n": 1, "hamiltonain": INLINE_H}, r"model\.hamiltonain",
                 id="simulate-model.hamiltonain"),               # [H = 0]
    pytest.param("simulate", "model.gamma", 5.0, r"model\.gamma",
                 id="simulate-model.gamma=5.0"),                 # [ignored]
    pytest.param("simulate", "model", {"n": 1, "hamiltonian": [{**INLINE_H[0], "suport": [0]}]},
                 r"model\.hamiltonian\[0\]\.suport",
                 id="simulate-model.hamiltonian[0].suport"),     # [ignored]
    pytest.param("sweep-dt", "experiment.m_nodes", 0, r"experiment\.m_nodes",
                 id="sweep-dt-experiment.m_nodes=0"),            # [traceback]
    pytest.param("sweep-dt", "experiment.dt_values", [-1e-6, 2e-6], r"experiment\.dt_values\[0\]",
                 id="sweep-dt-experiment.dt_values[0]"),         # [traceback]
    pytest.param("sampling-error", "experiment.repetitions", 0, r"experiment\.repetitions",
                 id="sampling-error-experiment.repetitions=0"),  # [slope nan]
    pytest.param("sampling-error", "experiment.n_r_values", [0, 4],
                 r"experiment\.n_r_values\[0\]",
                 id="sampling-error-experiment.n_r_values[0]"),  # [traceback]
    # One point leaves no log-log slope to fit [printed a made-up slope].
    pytest.param("sweep-dt", "experiment.dt_values", [1e-6], r"experiment\.dt_values",
                 id="sweep-dt-experiment.dt_values"),
    pytest.param("sampling-error", "experiment.n_r_values", [4], r"experiment\.n_r_values",
                 id="sampling-error-experiment.n_r_values"),
    pytest.param("simulate", "run.observables", [{"matrix": NILPOTENT}],
                 r"run\.observables\[0\]\.matrix",
                 id="simulate-run.observables[0].matrix"),       # [named run]
    # sigma- on qubit 1, declared on qubit 0 [accepted]; supports are derived from the
    # operators now, so `support` is an unknown field.
    pytest.param("simulate", "model",
                 {"n": 2, "lindblad": [{"matrix": LOWER_1, "support": [0], "rate": 1.0}]},
                 r"model\.lindblad\[0\]\.support",
                 id="simulate-model.lindblad[0].support"),
    # A matrix Hamiltonian on two qubits, declared on qubit 0 [accepted, support dropped].
    pytest.param("bounds", "", {"model": {"n": 2,
                                          "hamiltonian": [{"matrix": ZZ, "coeff": 1.0,
                                                           "support": [0]}]},
                                "run": {"dt": 1e-6, "n_steps": 5}},
                 r"model\.hamiltonian\[0\]\.support",
                 id="bounds-model.hamiltonian[0].support"),
    # Rejection branches no other test runs.
    pytest.param("simulate", "model", {"n": 1, "hamiltonian": [{**INLINE_H[0], "support": [0]}]},
                 r"model\.hamiltonian\[0\]\.support",
                 id="simulate-model.hamiltonian[0].support"),
    pytest.param("simulate", "model", {"n": 1, "hamiltonian": [{"matrix": EYE4, "coeff": 1.0}]},
                 r"model\.hamiltonian\[0\]\.matrix",
                 id="simulate-model.hamiltonian[0].matrix-wrong-dim"),
    pytest.param("simulate", "model",
                 {"n": 1, "hamiltonian": [{"matrix": [[[1, 0], [0, 0]], [[0, 0]]], "coeff": 1.0}]},
                 r"model\.hamiltonian\[0\]\.matrix",
                 id="simulate-model.hamiltonian[0].matrix-ragged"),
    pytest.param("simulate", "model.hamiltonian", INLINE_H, r"model\.hamiltonian",
                 id="simulate-model.hamiltonian"),
    pytest.param("simulate", "model",
                 {"n": 1, "hamiltonian": [{"matrix": NILPOTENT, "coeff": 1.0}]},
                 r"model\.hamiltonian\[0\]",
                 id="simulate-model.hamiltonian[0]"),
    pytest.param("simulate", "", [], r"document", id="simulate-document"),
    pytest.param("simulate", "run.initial_state", [[0, 0], [0, 0]], r"run\.initial_state",
                 id="simulate-run.initial_state"),
    pytest.param("sweep-dt", "model", {"n": 1, "hamiltonian": INLINE_H}, r"model",
                 id="sweep-dt-model"),
    # An identity dissipator does not act [fitted a slope through rounding noise].
    pytest.param("sweep-dt", "model", {"n": 1, "lindblad": [{"pauli": "I", "rate": 1.0}]},
                 r"model(?=: sweep-dt needs a dissipator that acts$)",
                 id="sweep-dt-model(?=: sweep-dt needs a dissipator that acts$)"),
    pytest.param("sampling-error", "run.observables", [], r"run\.observables",
                 id="sampling-error-run.observables"),
    pytest.param("bounds", "experiment.eps_target", 1e-308, r"experiment\.eps_target",
                 id="bounds-experiment.eps_target=1e-308"),  # [OverflowError traceback]
    pytest.param("bounds", "run.dt", 1e200, r"run\.dt",
                 id="bounds-run.dt=1e200"),                      # [wrote Infinity]
    # The bounds are finite, but T^2 K^2 (gamma^2 + omega^2) in the gate count is not
    # [named experiment.eps_target]; only the division by the target overflows at 1e-308.
    pytest.param("bounds", "", {"model": {"preset": "single-spin"},
                                "run": {"dt": 1e150, "n_steps": 5},
                                "experiment": {"eps_target": 1e-4}},
                 r"run\.dt", id="bounds-run.dt=1e150"),
    pytest.param("bounds", "", {"model": {"preset": "single-spin"},
                                "run": {"dt": 1e-6, "n_steps": 30},
                                "experiment": {"eps_target": 1e-308}},
                 r"experiment\.eps_target", id="bounds-experiment.eps_target=1e-308-30-steps"),
    # A label is one CSV field and one quoted gnuplot string, and names one observable.
    pytest.param("simulate", "run.observables", [{"label": "a,b", "pauli": "Z"}],
                 r"run\.observables\[0\]\.label",
                 id="simulate-run.observables[0].label-comma"),   # [mean read as "b"]
    pytest.param("simulate", "run.observables", [{"label": "a\nb", "pauli": "Z"}],
                 r"run\.observables\[0\]\.label",
                 id="simulate-run.observables[0].label-newline"),  # [row split in two]
    pytest.param("simulate", "run.observables",
                 [{"label": "Z", "pauli": "Z"}, {"label": "Z", "pauli": "X"}],
                 r"run\.observables\[1\]\.label(?=: 'Z' repeats run\.observables\[0\]$)",
                 id="simulate-run.observables[1].label-repeated"),  # [rows indistinguishable]
    pytest.param("simulate", "run.observables", [{"matrix": Z1}, {"matrix": Z1}],
                 r"run\.observables\[1\]\.label",
                 id="simulate-run.observables[1].label-both-obs"),  # [two "obs" rows]
    pytest.param("sampling-error", "run.observables", [{"label": "it's", "pauli": "Z"}],
                 r"run\.observables\[0\]\.label",
                 id="sampling-error-run.observables[0].label-quote"),  # [broke sampling.gp]
]
# pytest renames colliding ids (x0, x1, ...), so a new row must not reuse one.
assert len({row.id for row in BAD_INPUT}) == len(BAD_INPUT)


@pytest.mark.parametrize("command,key,value,path", BAD_INPUT)
def test_bad_input_names_its_field(tmp_path, command, key, value, path):
    doc = small_sim_config()
    doc["experiment"] = dict(EXPERIMENT.get(command, {}))
    if key:
        _set(doc, key, value)
    else:   # the whole document
        doc = value
    cfg = write_config(tmp_path, doc)
    with pytest.raises(SystemExit) as exc:
        main([command, cfg, "--out-dir", str(tmp_path)])
    assert isinstance(exc.value.code, str)  # a message, so the exit status is 1
    assert re.match(rf"^error: {path}: ", exc.value.code), exc.value.code


def test_threads_override_is_checked(tmp_path):
    cfg = write_config(tmp_path, small_sim_config())
    with pytest.raises(SystemExit, match=r"^error: run\.threads: expected an integer >= 1, got 0$"):
        main(["simulate", cfg, "--threads", "0", "--out-dir", str(tmp_path)])


def test_sweep_total_time_horizon(tmp_path):
    # Without experiment.total_time the horizon is run.dt * run.n_steps ...
    experiment = {"compose": "total-time", "dt_values": [1e-6, 2e-6], "m_nodes": 8}
    docs = {
        "run": {"model": {"preset": "single-spin"}, "run": {"dt": 1e-6, "n_steps": 10},
                "experiment": experiment},
        "explicit": {"model": {"preset": "single-spin"},
                     "experiment": {**experiment, "total_time": 10e-6}},
        "per-step": {"model": {"preset": "single-spin"},
                     "experiment": {**experiment, "compose": "per-step"}},
    }
    csv = {}
    for name, doc in docs.items():
        out = tmp_path / name
        main(["sweep-dt", write_config(tmp_path, doc, f"{name}.json"), "--out-dir", str(out)])
        csv[name] = (out / "sweep.csv").read_bytes()
    assert csv["run"] == csv["explicit"] != csv["per-step"]

    # ... and with neither, there is no horizon (it used to become each dt).
    del docs["run"]["run"]
    cfg = write_config(tmp_path, docs["run"], "none.json")
    with pytest.raises(SystemExit, match=r"^error: experiment\.total_time: field missing$"):
        main(["sweep-dt", cfg, "--out-dir", str(tmp_path)])


@pytest.mark.parametrize("trotter", ["exact", "order-1", "order-2"])
def test_bounds_trotter_order_follows_run_trotter(tmp_path, capsys, trotter):
    doc = {"model": {"preset": "single-spin"},
           "run": {"dt": 1e-6, "n_steps": 30, "trotter": trotter}}
    main(["bounds", write_config(tmp_path, doc), "--out-dir", str(tmp_path)])
    report = json.loads((tmp_path / "bounds.json").read_text())
    assert report["inputs"]["trotter"] == trotter
    assert f"  trotter = {trotter}\n" in capsys.readouterr().out
    expected = bound_report(BoundInputs.from_model(single_spin_model(), 1e-6, 30, trotter))
    assert report == json.loads(json.dumps(expected.to_json()))
    eps_T = {"exact": 0.0, "order-1": 0.0685, "order-2": 0.0179}[trotter]
    assert report["eps_T"] == pytest.approx(eps_T, abs=1e-4)
    # A dt at which a bound overflows a float names run.dt and writes nothing
    # [exact wrote Infinity, order-1 ended in an OverflowError traceback].
    (tmp_path / "bounds.json").unlink()
    doc["run"].update(dt=1e200, n_steps=5)
    with pytest.raises(SystemExit, match=r"^error: run\.dt: "):
        main(["bounds", write_config(tmp_path, doc), "--out-dir", str(tmp_path)])
    assert not (tmp_path / "bounds.json").exists()


def test_readme_documents_every_config_key():
    text = (ROOT / "README.md").read_text()
    section = text.split("## Configuration", 1)[1].split("\n## ", 1)[0]
    for name, schema in SCHEMA.items():
        for key in schema.keys:
            dotted = f"{name}.{key}" if name else key
            assert f"`{dotted}`" in section, f"README Configuration lacks `{dotted}`"


def test_readme_names_no_key_the_schema_lacks():
    # The converse of the test above, over all of README: a key path in backticks
    # names a key or a section of config.SCHEMA, so a deleted key leaves no stale row.
    known = set(SCHEMA) | {f"{name}.{key}" for name, section in SCHEMA.items()
                           for key in section.keys}
    named = set(re.findall(r"`((?:model|run|experiment)(?:\.[a-z_]+(?:\[i\])?)+)`",
                           (ROOT / "README.md").read_text()))
    assert named and not named - known, sorted(named - known)


def test_readme_library_example_runs():
    text = (ROOT / "README.md").read_text()
    section = text.split("## Library", 1)[1].split("\n## ", 1)[0]
    namespace = {}
    exec(section.split("```python\n", 1)[1].split("```", 1)[0], namespace)
    assert -1.0 <= namespace["mean"] <= 1.0 and namespace["err"] > 0
