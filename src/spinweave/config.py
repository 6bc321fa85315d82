"""Experiment configuration: JSON schema, validation, bundled presets.

A config file is a flat JSON object.  Field names are normative; unknown
keys are rejected so typos fail loudly.  ``run`` writes into ``--output-dir``,
else ``./spinweave_out``; no field moves it.  Minimal example::

    {"regime": "integrable"}

Full example::

    {
      "description": "chaotic 6-weave, mitigated",
      "regime": "chaotic",                // or {"J": -1, "Bx": 0.7, "Bz": 1.5}
      "n": 4,
      "tau": 0.03,
      "k": 6,
      "ell_max": 72,
      "magic": false,
      "magic_override": false,
      "pipeline": "mitigated",            // exact | trotter_exact | sampled | noisy | mitigated
      "state": "zeros",                   // zeros | plus | maximally_mixed (exact pipelines only)
      "probe": "x",                       // x | y                      (exact pipelines only)
      "shots": 8192,
      "noise": {"cnot_error": [0.00767, 0.007, 0.00768], "spam_epsilon": [0.043, 0.015, 0.017, 0.017]},
      "mitigation": {"tmem": true, "zne": true, "order": "tmem_then_zne"},
      "seed": 7
    }

Pipelines (:data:`PIPELINES`), each of which also records C_exact::

    pipeline        readout engine   shots  mitigation  n <=
    exact           none             no     no          10
    trotter_exact   statevector      no     no          10
    sampled         statevector      yes    no          10
    noisy           density matrix   yes    no           8
    mitigated       density matrix   yes    yes          8

Each row of :data:`PIPELINES` gives the optional fields that its pipeline
reads and its cap on n; a field that it does not read is None on the
validated config.  Only validation reads the table: the run reads the
fields, and a stage whose field is None does not run.  An unknown pipeline
reads every field, each with only its own checks, and n the largest cap.
"""

from __future__ import annotations

import json
import math
import sys
from collections import namedtuple
from dataclasses import asdict, dataclass
from numbers import Real
from pathlib import Path

from .errors import ConfigError, show_value
from .ising import (MAX_OTOC_QUBITS, REGIME_COUPLINGS, IsingParams, phase_rate,
                    preset_params)
from .noise import DEFAULT_SHOTS, MAX_DM_QUBITS, MAX_SHOTS, NoiseModel

# The optional fields each pipeline reads (any other is None on the validated
# config and absent from the metadata echo), and the largest n it accepts.
Pipeline = namedtuple("Pipeline", "reads max_n")
_CIRCUIT_FIELDS = frozenset({"k", "magic", "magic_override"})
_SHOT_FIELDS = _CIRCUIT_FIELDS | {"seed", "shots"}
PIPELINES = {
    "exact": Pipeline(frozenset(), MAX_OTOC_QUBITS),
    "trotter_exact": Pipeline(_CIRCUIT_FIELDS, MAX_OTOC_QUBITS),
    "sampled": Pipeline(_SHOT_FIELDS, MAX_OTOC_QUBITS),
    "noisy": Pipeline(_SHOT_FIELDS | {"noise"}, MAX_DM_QUBITS),
    "mitigated": Pipeline(_SHOT_FIELDS | {"noise", "mitigation"}, MAX_DM_QUBITS),
}
# The line rejecting a non-null value of a field on a pipeline that does not
# read it, in report order; k and seed have none, as every pipeline takes them.
_UNREAD_LINES = {
    "shots": "only the sampled, noisy and mitigated pipelines draw shots",
    **dict.fromkeys(("magic", "magic_override"), "only the trotter_exact, "
                    "sampled, noisy and mitigated pipelines build circuits"),
    "noise": "only the noisy and mitigated pipelines simulate noise",
    "mitigation": "only the mitigated pipeline mitigates",
}
_OPTIONAL_FIELDS = frozenset({"k", "seed", *_UNREAD_LINES})
STATES = ("zeros", "plus", "maximally_mixed")
PROBES = ("x", "y")
MITIGATION_ORDERS = ("tmem_then_zne", "zne_then_tmem")

_NOISE_KEYS = {"cnot_error", "spam_epsilon", "t1_given_0", "t0_given_1"}

# a magic cell's ZZ angle 2*J*k*tau must be +-pi/2 within this
MAGIC_ANGLE_TOL = 1e-9
# n * (ell_max + 1) is the surface's row count; the bundled presets need at
# most 438, and a grid past this bound would only exhaust memory
MAX_GRID_POINTS = 2 ** 20

# (name, default, type, check, message) of every field.  A type of None
# passes the value to its builder in config_from_dict unchecked.
_FIELDS = (
    ("n", 4, int),  # config_from_dict bounds it by its pipeline's cap
    ("tau", 0.06, float, lambda v: v > 0 and math.isfinite(v), "must be > 0"),
    ("k", 1, int, lambda v: v >= 1, "must be >= 1"),
    ("ell_max", 24, int, lambda v: v >= 0, "must be >= 0"),
    ("shots", DEFAULT_SHOTS, int, lambda v: 1 <= v <= MAX_SHOTS,
     f"must be in 1..{MAX_SHOTS}"),
    ("seed", 0, int, lambda v: v >= 0, "must be >= 0"),
    ("magic", False, bool),
    ("magic_override", False, bool),
    ("pipeline", "exact", str, lambda v: v in PIPELINES,
     f"must be one of {tuple(PIPELINES)}"),
    ("state", "zeros", str, lambda v: v in STATES, f"must be one of {STATES}"),
    ("probe", "x", str, lambda v: v in PROBES, f"must be one of {PROBES}"),
    ("description", "", str),
    ("regime", "integrable", None),
    ("mitigation", None, None),
    ("noise", None, None),
)
_ROWS = {row[0]: row for row in _FIELDS}
_MITIGATION_FIELDS = (
    ("tmem", True, bool),
    ("zne", True, bool),
    ("order", "tmem_then_zne", str, lambda v: v in MITIGATION_ORDERS,
     f"must be one of {MITIGATION_ORDERS}"),
)

PRESET_DIR = Path(__file__).parent / "presets"


@dataclass(frozen=True)
class MitigationConfig:
    tmem: bool
    zne: bool
    order: str


@dataclass(frozen=True)
class ExperimentConfig:
    """A validated config; a field that its pipeline does not read is None.
    A run reads the fields, not ``pipeline``, also on one built by hand."""

    params: IsingParams
    regime: str
    tau: float
    k: int | None
    ell_max: int
    magic: bool | None
    magic_override: bool | None
    pipeline: str
    state: str
    probe: str
    shots: int | None
    noise: NoiseModel | None
    mitigation: MitigationConfig | None
    seed: int | None
    description: str


def _field(errors: list[str], src: dict, name: str, default, kind, check=None,
           msg: str = "", prefix: str = ""):
    """``src[name]`` (``default`` when absent), checked to be a ``kind``; a
    ``kind`` of None passes it unchecked.

    A value of the wrong type, past the int-to-str digit limit or failing
    ``check`` is reported under ``prefix + name`` and replaced by ``default``.
    Numbers are never parsed from strings; an int field takes a whole float."""
    value = src.get(name, default)
    if kind is None:
        return value
    if kind is bool and not isinstance(value, bool):
        problem = "expected true/false"
    elif kind is str and not isinstance(value, str):
        problem = "expected a string"
    elif kind in (int, float) and (isinstance(value, bool) or not isinstance(value, Real)):
        problem = "expected a number"
    elif kind is int and isinstance(value, float) and not value.is_integer():
        problem = "expected a whole number"
    else:
        try:
            value = kind(value)
            str(value)  # the metadata echo writes it
            problem = None if check is None or check(value) else msg
        except OverflowError:  # an int too large for a float field
            problem = "expected a finite number"
        except ValueError:  # an int past Python's int-to-str digit limit
            problem = f"expected at most {sys.get_int_max_str_digits()} digits"
    if problem is None:
        return value
    errors.append(f"{prefix}{name}: {problem} (got {show_value(value, repr)})")
    return default


def _resolve_regime(value, n: int, errors: list[str]):
    if isinstance(value, str):
        if value not in REGIME_COUPLINGS:
            errors.append(f"regime: unknown name {value!r}, "
                          f"choose from {sorted(REGIME_COUPLINGS)} or give couplings")
            return "invalid", None
        return value, preset_params(value, n)
    if isinstance(value, dict):
        missing = {"J", "Bx", "Bz"} - set(value)
        extra = set(value) - {"J", "Bx", "Bz"}
        if missing or extra:
            errors.append(f"regime: coupling object needs keys J, Bx, Bz "
                          f"(missing {sorted(missing)}, unexpected {sorted(extra)})")
            return "invalid", None
        before = len(errors)
        j, bx, bz = (_field(errors, value, key, 0.0, float, math.isfinite,
                            "must be finite", prefix="regime.")
                     for key in ("J", "Bx", "Bz"))
        if len(errors) > before:
            return "invalid", None
        return "custom", IsingParams(n, j, bx, bz)
    errors.append("regime: must be a preset name or a coupling object")
    return "invalid", None


def _build_noise(data, n: int, errors: list[str]):
    if data is None:
        return NoiseModel.default(n)
    if not isinstance(data, dict):
        errors.append("noise: must be an object")
        return None
    extra = set(data) - _NOISE_KEYS
    if extra:
        errors.append(f"noise: unknown keys {sorted(extra)}")
        return None
    try:
        cnot = data.get("cnot_error", NoiseModel.default(n).cnot_error)
        if "t1_given_0" in data or "t0_given_1" in data:
            if "spam_epsilon" in data:
                errors.append("noise: give either spam_epsilon or explicit "
                              "t1_given_0/t0_given_1, not both")
                return None
            return NoiseModel(n, cnot, data.get("t1_given_0", [0.0] * n),
                              data.get("t0_given_1", [0.0] * n))
        eps = data.get("spam_epsilon", NoiseModel.default(n).t1_given_0)
        return NoiseModel.symmetric_spam(n, cnot, eps)
    except ValueError as exc:  # the message starts with the offending key
        errors.append(f"noise.{exc}")
        return None


def _build_mitigation(data, errors: list[str]):
    if data is not None and not isinstance(data, dict):
        errors.append("mitigation: must be an object")
    data = data if isinstance(data, dict) else {}
    extra = set(data) - {row[0] for row in _MITIGATION_FIELDS}
    if extra:
        errors.append(f"mitigation: unknown keys {sorted(extra)}")
    return MitigationConfig(**{row[0]: _field(errors, data, *row, prefix="mitigation.")
                               for row in _MITIGATION_FIELDS})


def config_from_dict(data: dict) -> ExperimentConfig:
    """Validate a parsed config object; every violated invariant is reported
    with its field name in a single :class:`ConfigError`."""
    if not isinstance(data, dict):
        raise ConfigError("config root must be a JSON object")
    errors: list[str] = []
    extra = set(data) - {row[0] for row in _FIELDS}
    if extra:
        errors.append(f"unknown fields {sorted(extra)}")
    # the pipeline decides which fields the run reads (its own error comes in
    # field order); a field that it rejects is not checked: null passes, and
    # any other value gets only its rejection line
    chosen = data.get("pipeline", _ROWS["pipeline"][1])
    pipeline = PIPELINES.get(chosen) if isinstance(chosen, str) else None
    unread = _OPTIONAL_FIELDS - pipeline.reads if pipeline else frozenset()
    unchecked = unread & _UNREAD_LINES.keys()
    values = {row[0]: _field(errors, data, *row) for row in _FIELDS
              if row[0] not in unchecked}
    max_n = pipeline.max_n if pipeline else max(p.max_n for p in PIPELINES.values())
    n = _field(errors, {"n": values.pop("n")}, *_ROWS["n"],
               lambda v: 3 <= v <= max_n,
               f"must be in 3..{max_n}" + (f" for pipeline {chosen!r}" if pipeline else ""))
    tau, k, ell_max = values["tau"], values["k"], values["ell_max"]

    # the last time is ell_max tau; only a pipeline that reads k also builds
    # the cell U(k tau)
    steps = ell_max if "k" in unread else max(k, ell_max)
    try:
        span_finite = math.isfinite(tau * steps)
    except OverflowError:  # an int too large for a float
        span_finite = False
    if not span_finite:
        errors.append(f"tau: tau * max(k, ell_max) must be finite "
                      f"(got tau={tau!r}, k={k}, ell_max={ell_max})")
    if n * (ell_max + 1) > MAX_GRID_POINTS:
        errors.append(f"ell_max: n * (ell_max + 1) must be at most "
                      f"{MAX_GRID_POINTS} grid points (got n={n}, ell_max={ell_max})")

    values["regime"], params = _resolve_regime(values["regime"], n, errors)
    if params is not None:
        rate = phase_rate(params)
        if not math.isfinite(rate):
            errors.append(f"regime: the phase rate must be finite (got {rate:g})")
        elif span_finite and not math.isfinite(rate * tau * steps):
            errors.append(f"tau: phase rate * tau * max(k, ell_max) must be finite, "
                          f"with the rate {rate:g} the larger of ||H|| <= (n-1)|J| "
                          f"+ n(|Bz| + |Bx|) and 4 max(|J + Bz|, |J|) "
                          f"(got tau={tau!r}, k={k}, ell_max={ell_max})")

    if (pipeline and "k" in pipeline.reads
            and (values["state"], values["probe"]) != ("zeros", "x")):
        errors.append("state/probe: measured pipelines support only the "
                      "all-zeros state with the X probe; alternative states "
                      "and probes run through the exact pipeline")

    errors.extend(f"{name}: {line}" for name, line in _UNREAD_LINES.items()
                  if name in unchecked and data.get(name) is not None)
    values.update(dict.fromkeys(unread))

    if (params is not None and span_finite and values["magic"]
            and not values["magic_override"]):
        angle = 2.0 * params.J * k * tau
        if abs(abs(angle) - math.pi / 2) > MAGIC_ANGLE_TOL:
            errors.append("magic: requires |2*J*k*tau| = pi/2 "
                          f"(got 2*J*k*tau = {angle:.6g}); adjust tau or k, or set "
                          "magic_override to run with the nominal angle replaced by "
                          "the nearest +-pi/2 rotation")

    if "mitigation" not in unread:
        values["mitigation"] = _build_mitigation(values["mitigation"], errors)
    if "noise" not in unread:
        values["noise"] = _build_noise(values["noise"], n, errors)

    if errors:
        raise ConfigError("invalid configuration:\n  " + "\n  ".join(errors))
    return ExperimentConfig(params=params, **values)


def validate_config(path, seed: int | None = None) -> ExperimentConfig:
    """Parse and validate a config file; a decode or parse failure raises a
    ConfigError naming the file.  A non-None ``seed`` replaces the file's."""
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: "
            f"{exc.msg}") from None
    except (ValueError, RecursionError) as exc:  # not UTF-8, too many digits, too deep
        raise ConfigError(f"{path}: invalid JSON: {exc}") from None
    if seed is not None and isinstance(data, dict):
        data = {**data, "seed": seed}
    try:
        return config_from_dict(data)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def config_echo(cfg: ExperimentConfig) -> dict:
    """Resolved configuration as a JSON-ready dict: every field that the
    run reads (every one not None), without the noise model's qubit count,
    which ``params`` already holds."""
    echo = {name: value for name, value in asdict(cfg).items() if value is not None}
    if "noise" in echo:
        del echo["noise"]["n_qubits"]
    return echo


def preset_names() -> list[str]:
    return sorted(p.stem for p in PRESET_DIR.glob("*.json"))


def preset_path(name: str) -> Path:
    path = PRESET_DIR / f"{name}.json"
    if not path.is_file():
        raise ConfigError(f"unknown preset {name!r}; available: {preset_names()}")
    return path
