import json
import re
from pathlib import Path

import numpy as np
import pytest

from qnoise.bounds import BoundInputs, bound_report
from qnoise.cli import main
from qnoise.config import SCHEMA, load, load_model
from qnoise.engine import RunConfig, run_ensemble
from qnoise.model import PauliString
from qnoise.noisegate import closed_propagator
from qnoise.presets import single_spin_model

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


def test_sampling_error_output(tmp_path):
    doc = small_sim_config()
    doc["experiment"] = {"n_r_values": [10, 40], "repetitions": 3}
    cfg = write_config(tmp_path, doc)
    assert main(["sampling-error", cfg, "--out-dir", str(tmp_path)]) == 0
    header, rows = parse_csv(tmp_path / "sampling.csv")
    assert header == ["n_r", "eta_mean", "eta_std"]
    assert [int(r[0]) for r in rows] == [10, 40]
    assert "slope" in (tmp_path / "sampling.csv").read_text()


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
    doc = small_sim_config(n_realizations=200, extra_run={"dt": 1e-5})
    cfg = write_config(tmp_path, doc)
    main(["simulate", cfg, "--out-dir", str(tmp_path)])
    line = [l for l in capsys.readouterr().out.splitlines() if "ancilla flip rate" in l]
    assert len(line) == 1
    printed = float(line[0].split("=")[1].split()[0])

    config = RunConfig(
        model=single_spin_model(), dt=1e-5, n_steps=5, n_realizations=200, master_seed=3,
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


# Each row: command, config key set on a small single-spin config, its
# value, and the field path the error must name.  In brackets, what the
# input did before the declared schema.
BAD_INPUT = [
    ("simulate", "run.n_steps", 2.7, r"run\.n_steps"),            # [ran 2 steps]
    ("simulate", "run.record_rho", "false", r"run\.record_rho"),  # [wrote rho_steps.json]
    ("simulate", "run.dt", "1e-6", r"run\.dt"),                   # [accepted]
    ("simulate", "run.n_steps", None, r"run\.n_steps"),           # [TypeError]
    ("simulate", "run.m_nodes", 0, r"run\.m_nodes"),              # [traceback]
    ("simulate", "run.chunk_size", 0, r"run\.chunk_size"),        # [traceback]
    ("simulate", "run.threads", -3, r"run\.threads"),             # [ran]
    ("bounds", "run.trotter", "bogus", r"run\.trotter"),          # [exit 0]
    ("simulate", "run.trotter", "order-3", r"run\.trotter"),      # [traceback]
    ("simulate", "model", {"n": 1, "hamiltonain": INLINE_H}, r"model\.hamiltonain"),  # [H = 0]
    ("simulate", "model.gamma", 5.0, r"model\.gamma"),            # [ignored]
    ("simulate", "model", {"n": 1, "hamiltonian": [{**INLINE_H[0], "suport": [0]}]},
     r"model\.hamiltonian\[0\]\.suport"),                        # [ignored]
    ("sweep-dt", "experiment.m_nodes", 0, r"experiment\.m_nodes"),  # [traceback]
    ("sweep-dt", "experiment.dt_values", [-1e-6, 2e-6],
     r"experiment\.dt_values\[0\]"),                              # [traceback]
    ("sampling-error", "experiment.repetitions", 0, r"experiment\.repetitions"),  # [slope nan]
    ("sampling-error", "experiment.n_r_values", [0, 4],
     r"experiment\.n_r_values\[0\]"),                           # [traceback]
    # One point leaves no log-log slope to fit [printed a made-up slope].
    ("sweep-dt", "experiment.dt_values", [1e-6], r"experiment\.dt_values"),
    ("sampling-error", "experiment.n_r_values", [4], r"experiment\.n_r_values"),
]


@pytest.mark.parametrize("command,key,value,path", BAD_INPUT,
                         ids=[f"{command}-{path.replace(chr(92), '')}"
                              + ("" if isinstance(value, (dict, list)) else f"={json.dumps(value)}")
                              for command, _, value, path in BAD_INPUT])
def test_bad_input_names_its_field(tmp_path, command, key, value, path):
    doc = small_sim_config()
    doc["experiment"] = dict(EXPERIMENT.get(command, {}))
    _set(doc, key, value)
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


def test_bounds_trotter_order_follows_run_trotter(tmp_path):
    doc = {"model": {"preset": "single-spin"},
           "run": {"dt": 1e-6, "n_steps": 30, "trotter": "order-2"}}
    main(["bounds", write_config(tmp_path, doc), "--out-dir", str(tmp_path)])
    report = json.loads((tmp_path / "bounds.json").read_text())
    expected = bound_report(BoundInputs.from_model(single_spin_model(), 1e-6, 30, trotter_order=2))
    assert report == json.loads(json.dumps(expected.to_json()))
    assert report["eps_T"] == pytest.approx(0.0179, abs=1e-4)


def test_readme_documents_every_config_key():
    text = (ROOT / "README.md").read_text()
    section = text.split("## Configuration", 1)[1].split("\n## ", 1)[0]
    for name, schema in SCHEMA.items():
        for key in schema.keys:
            dotted = f"{name}.{key}" if name else key
            assert f"`{dotted}`" in section, f"README Configuration lacks `{dotted}`"
