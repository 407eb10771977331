"""Config documents: one declared schema, one walker, one error class.

`SCHEMA` lists every key of every config section with its JSON type, its
range or choices, and whether it is required or what its default is.
`_walk` applies it, so bad input fails the same way everywhere, with a
`ConfigError` whose path names the field.  What depends on the model's
qubit count is checked when operators and states are built afterwards.
"""
from __future__ import annotations

import json
import sys
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Callable, NamedTuple, Optional

import numpy as np

from .engine import MODES, RunConfig
from .model import HamiltonianTerm, LindbladModel, LindbladTerm, PauliString
from .noisegate import TROTTER_MODES
from .presets import PRESETS


class ConfigError(ValueError):
    """Config document rejected; ``path`` names the offending field."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")


def _fail(path: str, expected: str, value):
    raise ConfigError(path, f"expected {expected}, got {json.dumps(value)[:60]}")


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool) and abs(x) <= sys.float_info.max


# Value kinds: each checks one JSON value on its own and returns it typed.
Kind = Callable[[object, str], object]


def _kind(ok: Callable[[object], bool], expected: str, convert=lambda value: value) -> Kind:
    def parse(value, path):
        if not ok(value):
            _fail(path, expected, value)
        return convert(value)

    return parse


def _number(whole: bool = False, above: Optional[float] = None,
            at_least: Optional[float] = None) -> Kind:
    expected = "an integer" if whole else "a number"
    if above is not None or at_least is not None:
        expected += f" > {above}" if above is not None else f" >= {at_least}"
    return _kind(
        lambda v: (_is_number(v) and (not whole or float(v).is_integer())
                   and (above is None or v > above) and (at_least is None or v >= at_least)),
        expected, int if whole else float,
    )


def _choice(options) -> Kind:
    return _kind(lambda v: v in options, f"one of {json.dumps(list(options))}")


def _list(item: Kind, min_len: int = 0) -> Kind:
    def parse(value, path):
        if not isinstance(value, (list, tuple)) or len(value) < min_len:
            _fail(path, f"a list of {min_len} or more entries" if min_len else "a list", value)
        return [item(v, f"{path}[{i}]") for i, v in enumerate(value)]

    return parse


def _object(section: str) -> Kind:
    return lambda value, path: _walk(value, section, path)


_STRING = _kind(lambda v: isinstance(v, str), "a string")
_BOOLEAN = _kind(lambda v: isinstance(v, bool), "true or false")
_PAULI = _kind(lambda v: isinstance(v, str) and v != "" and not v.strip("IXYZ"),
               "a string of Pauli letters I, X, Y, Z", PauliString)
_BITS = _kind(lambda v: isinstance(v, str) and v != "" and not v.strip("01"),
              "a basis string of 0s and 1s")
_PAIRS = _list(_kind(lambda p: isinstance(p, list) and len(p) == 2 and all(map(_is_number, p)),
                     "an [re, im] pair of numbers", lambda p: complex(*p)), min_len=1)


def _matrix(value, path) -> np.ndarray:
    """A square matrix of [re, im] pairs, given row by row."""
    rows = _list(_PAIRS, min_len=1)(value, path)
    if any(len(row) != len(rows) for row in rows):
        _fail(path, "a square matrix", value)
    return np.array(rows)


def _state(value, path):
    """A computational-basis bit string, or a statevector of [re, im] pairs."""
    return _BITS(value, path) if isinstance(value, str) else np.array(_PAIRS(value, path))


REQUIRED = object()   # default of a key that must be given


class Key(NamedTuple):
    kind: Kind
    default: object = None   # REQUIRED, None (unset), or a JSON value checked like a given one


class Section(NamedTuple):
    keys: dict[str, Key]
    one_of: tuple[str, ...] = ()   # at most one of these; one is needed unless one has a default


_RUN_DEFAULTS = {f.name: f.default for f in fields(RunConfig)}
_INTEGER, _COUNT, _POSITIVE = _number(whole=True), _number(whole=True, at_least=1), _number(above=0)
_OPERATOR = {
    "pauli": Key(_PAULI),
    "matrix": Key(_matrix),
    "support": Key(_list(_number(whole=True, at_least=0), min_len=1)),
    "label": Key(_STRING),
}

SCHEMA: dict[str, Section] = {
    "": Section({
        "model": Key(_object("model"), REQUIRED),
        "run": Key(_object("run"), {}),
        "experiment": Key(_object("experiment"), {}),
    }),
    "model": Section({
        "preset": Key(_choice(tuple(PRESETS))),
        "n": Key(_COUNT),
        "hamiltonian": Key(_list(_object("model.hamiltonian[i]"))),
        "lindblad": Key(_list(_object("model.lindblad[i]"))),
        "units": Key(_choice(({"time": "s", "rate": "1/s"},))),
    }, ("preset", "n")),
    "model.hamiltonian[i]": Section({**_OPERATOR, "coeff": Key(_number(), REQUIRED)},
                                    ("pauli", "matrix")),
    "model.lindblad[i]": Section({**_OPERATOR, "rate": Key(_number(at_least=0), REQUIRED)},
                                 ("pauli", "matrix")),
    "run": Section({
        "dt": Key(_POSITIVE),
        "n_steps": Key(_COUNT),
        "n_realizations": Key(_COUNT, _RUN_DEFAULTS["n_realizations"]),
        "seed": Key(_INTEGER, _RUN_DEFAULTS["master_seed"]),
        "mode": Key(_choice(MODES), _RUN_DEFAULTS["mode"]),
        "m_nodes": Key(_COUNT, _RUN_DEFAULTS["m_nodes"]),
        "trotter": Key(_choice(TROTTER_MODES), _RUN_DEFAULTS["trotter"]),
        "observables": Key(_list(_object("run.observables[i]")), _RUN_DEFAULTS["observables"]),
        "initial_state": Key(_state),
        "record_rho": Key(_BOOLEAN, _RUN_DEFAULTS["record_rho"]),
        "threads": Key(_COUNT, _RUN_DEFAULTS["threads"]),
        "chunk_size": Key(_COUNT, _RUN_DEFAULTS["chunk_size"]),
    }),
    "run.observables[i]": Section({
        "pauli": Key(_PAULI),
        "projector": Key(_state),
        "matrix": Key(_matrix),
        "label": Key(_STRING),
    }, ("pauli", "projector", "matrix")),
    "experiment": Section({
        # The scans fit a log-log slope, so their lists need two or more points.
        "gamma_dt_values": Key(_list(_POSITIVE, min_len=2), np.logspace(-4, -1, 12).tolist()),
        "dt_values": Key(_list(_POSITIVE, min_len=2)),
        "compose": Key(_choice(("per-step", "total-time")), "per-step"),
        "m_nodes": Key(_COUNT),         # unset: run.m_nodes
        "total_time": Key(_POSITIVE),   # unset: run.dt * run.n_steps
        "n_r_values": Key(_list(_COUNT, min_len=2), [100, 1000, 10000]),
        "repetitions": Key(_COUNT, 20),
        "eps_target": Key(_POSITIVE),
    }, ("gamma_dt_values", "dt_values")),
}


def _walk(spec, section: str, path: str) -> dict:
    """Check one object against SCHEMA[section]; every declared key is in the result."""
    if not isinstance(spec, dict):
        _fail(path or "document", "an object", spec)
    schema = SCHEMA[section]
    at = (lambda key: f"{path}.{key}") if path else (lambda key: key)
    for key in spec:
        if key not in schema.keys:
            raise ConfigError(at(key), "unknown field")
    given = [key for key in schema.one_of if key in spec]
    alternatives = " or ".join(f"'{key}'" for key in schema.one_of)
    if len(given) > 1:
        raise ConfigError(path, f"give either {alternatives}, not more than one")
    if not given and schema.one_of and all(schema.keys[k].default is None for k in schema.one_of):
        raise ConfigError(path, f"need {alternatives}")
    out = {}
    for key, k in schema.keys.items():
        if key in spec:
            out[key] = k.kind(spec[key], at(key))
        elif k.default is REQUIRED:
            raise ConfigError(at(key), "field missing")
        else:
            out[key] = None if k.default is None else k.kind(k.default, at(key))
    return out


def _state_vector(spec, path: str, n: int) -> np.ndarray:
    if len(spec) != (n if isinstance(spec, str) else 2**n):
        raise ConfigError(path, f"expected a {n}-qubit state, got {len(spec)} entries")
    if isinstance(spec, str):
        return (np.arange(2**n) == int(spec, 2)).astype(complex)
    norm = np.linalg.norm(spec)
    if norm < 1e-12:
        raise ConfigError(path, "zero state vector")
    return spec / norm


def _operator(entry: dict, path: str, n: int) -> tuple[np.ndarray, tuple[int, ...]]:
    """Matrix and qubit support of a walked pauli | matrix | projector entry."""
    if entry.get("support") is not None and entry["matrix"] is None:
        raise ConfigError(f"{path}.support", "only valid with 'matrix'")
    if entry["pauli"] is not None:
        ps = entry["pauli"]
        if ps.n != n:
            raise ConfigError(f"{path}.pauli",
                              f"expected a string of {n} Pauli letters, got {ps.letters!r}")
        return ps.matrix(), ps.support or (0,)
    if entry.get("projector") is not None:
        psi = _state_vector(entry["projector"], f"{path}.projector", n)
        return np.outer(psi, psi.conj()), tuple(range(n))
    op, support = entry["matrix"], entry.get("support") or range(n)
    if len(op) != 2**n:
        raise ConfigError(f"{path}.matrix", f"matrix dim {len(op)} != model dim {2**n}")
    if len(set(support)) != len(support) or max(support) >= n:
        raise ConfigError(f"{path}.support", f"invalid qubit list {list(support)}")
    return op, tuple(sorted(support))


def _model(spec: dict, path: str) -> LindbladModel:
    """A preset, or an inline model of n qubits, from a walked `model` section."""
    at = (lambda key: f"{path}.{key}") if path else (lambda key: key)
    if spec["preset"] is not None:
        for key, value in spec.items():
            if key != "preset" and value is not None:
                raise ConfigError(at(key), "not allowed next to 'preset'")
        return PRESETS[spec["preset"]]()
    n, h_terms, l_terms = spec["n"], [], []
    for i, entry in enumerate(spec["hamiltonian"] or ()):
        op, support = _operator(entry, at(f"hamiltonian[{i}]"), n)
        try:
            h_terms.append(HamiltonianTerm(entry["coeff"], op, len(support),
                                           entry["label"] or f"H{i}"))
        except ValueError as exc:
            raise ConfigError(at(f"hamiltonian[{i}]"), str(exc)) from None
    for i, entry in enumerate(spec["lindblad"] or ()):
        op, support = _operator(entry, at(f"lindblad[{i}]"), n)
        l_terms.append(LindbladTerm(entry["rate"], op, len(support), support,
                                    entry["label"] or f"L{i}"))
    return LindbladModel(n, tuple(h_terms), tuple(l_terms))


def _read_json(path):
    try:
        return json.loads(Path(path).read_text())
    except FileNotFoundError:
        raise ConfigError(str(path), "file not found") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(str(path), f"invalid JSON: {exc}") from None


def load_model(source) -> LindbladModel:
    """Build a LindbladModel from a model document: a dict, or a JSON file path."""
    doc = _read_json(source) if isinstance(source, (str, Path)) else source
    return _model(_walk(doc, "model", ""), "")


def matrix_to_json(m: np.ndarray) -> list:
    return [[[float(x.real), float(x.imag)] for x in row] for row in m]


def model_to_json(model: LindbladModel) -> dict:
    """Inverse of load_model."""
    return {
        "n": model.n,
        "hamiltonian": [
            {"matrix": matrix_to_json(t.operator), "coeff": t.coefficient, "label": t.label}
            for t in model.hamiltonian_terms
        ],
        "lindblad": [
            {
                "matrix": matrix_to_json(t.operator),
                "rate": t.rate,
                "support": list(t.support),
                "label": t.label,
            }
            for t in model.lindblad_terms
        ],
        "units": {"time": "s", "rate": "1/s"},
    }


@dataclass(frozen=True)
class Config:
    """A checked config; `run` and `experiment` hold every key, defaults filled in."""

    model: LindbladModel
    run: dict                          # observables as (label, matrix), initial_state as a vector
    experiment: dict
    run_config: Optional[RunConfig]    # for every command but sweep-dt


def _observable(entry: dict, path: str, n: int) -> tuple[str, np.ndarray]:
    """(label, matrix); the label defaults to the Pauli letters, P<bits> or "obs"."""
    label = entry["pauli"].letters if entry["pauli"] is not None else "obs"
    if isinstance(entry["projector"], str):
        label = f"P{entry['projector']}"
    return entry["label"] or label, _operator(entry, path, n)[0]


def load(path, command: str, seed: Optional[int] = None,
         threads: Optional[int] = None) -> Config:
    """Check everything `command` reads, so that it never stops half way on bad
    input; `seed` and `threads` override run.seed and run.threads."""
    doc = _walk(_read_json(path), "", "")
    model = _model(doc["model"], "model")
    run, exp = doc["run"], doc["experiment"]
    for key, value in (("seed", seed), ("threads", threads)):
        if value is not None:
            run[key] = SCHEMA["run"].keys[key].kind(value, f"run.{key}")
    run["observables"] = [_observable(entry, f"run.observables[{i}]", model.n)
                          for i, entry in enumerate(run["observables"])]
    state = run["initial_state"]
    run["initial_state"] = _state_vector("0" * model.n if state is None else state,
                                         "run.initial_state", model.n)
    if exp["m_nodes"] is None:
        exp["m_nodes"] = run["m_nodes"]
    if exp["total_time"] is None and None not in (run["dt"], run["n_steps"]):
        exp["total_time"] = run["dt"] * run["n_steps"]

    if command == "sweep-dt":
        if not any(t.rate > 0 for t in model.lindblad_terms):
            raise ConfigError("model", "sweep-dt needs at least one nonzero rate")
        if exp["compose"] == "total-time" and exp["total_time"] is None:
            raise ConfigError("experiment.total_time", "field missing")
        return Config(model, run, exp, None)
    for key in ("dt", "n_steps"):
        if run[key] is None:
            raise ConfigError(f"run.{key}", "field missing")
    if command == "sampling-error" and not run["observables"]:
        raise ConfigError("run.observables", "sampling-error needs one observable")
    fields = {key: value for key, value in run.items() if key != "seed"}
    try:
        return Config(model, run, exp, RunConfig(model=model, master_seed=run["seed"], **fields))
    except ValueError as exc:
        raise ConfigError("run", str(exc)) from None
