"""Experiment configuration: JSON schema, validation, bundled presets.

A config file is a flat JSON object.  Field names are normative; unknown
keys are rejected so typos fail loudly.  Minimal example::

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
      "seed": 7,
      "output_dir": null
    }
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from functools import partial
from numbers import Real
from pathlib import Path

from .errors import ConfigError
from .ising import MAX_OTOC_QUBITS, REGIME_COUPLINGS, IsingParams, norm_bound
from .noise import DEFAULT_SHOTS, NoiseModel
from .qsim import MAX_DM_QUBITS, MAX_QUBITS
from .weave import WeaveSchedule, check_magic_constraint

PIPELINES = ("exact", "trotter_exact", "sampled", "noisy", "mitigated")
STATES = ("zeros", "plus", "maximally_mixed")
PROBES = ("x", "y")
MITIGATION_ORDERS = ("tmem_then_zne", "zne_then_tmem")

_NOISY_PIPELINES = ("noisy", "mitigated")
_MEASURED_PIPELINES = ("trotter_exact", "sampled", "noisy", "mitigated")

_TOP_KEYS = {"description", "regime", "n", "tau", "k", "ell_max", "magic",
             "magic_override", "pipeline", "state", "probe", "shots", "noise",
             "mitigation", "seed", "output_dir"}
_NOISE_KEYS = {"cnot_error", "spam_epsilon", "t1_given_0", "t0_given_1"}
_MITIGATION_KEYS = {"tmem", "zne", "order"}

# numpy's multinomial draws int64 counts
MAX_SHOTS = 2 ** 63 - 1

PRESET_DIR = Path(__file__).parent / "presets"


@dataclass(frozen=True)
class MitigationConfig:
    tmem: bool = True
    zne: bool = True
    order: str = "tmem_then_zne"


@dataclass(frozen=True)
class ExperimentConfig:
    params: IsingParams
    regime: str
    tau: float = 0.06
    k: int = 1
    ell_max: int = 24
    magic: bool = False
    magic_override: bool = False
    pipeline: str = "exact"
    state: str = "zeros"
    probe: str = "x"
    shots: int = DEFAULT_SHOTS
    noise: NoiseModel | None = None
    mitigation: MitigationConfig = field(default_factory=MitigationConfig)
    seed: int = 0
    output_dir: str | None = None
    description: str = ""

    @property
    def schedule(self) -> WeaveSchedule:
        return WeaveSchedule(self.tau, self.k, self.ell_max, self.magic)


def _field(errors: list[str], src: dict, name: str, default, kind, check=None,
           msg: str = "", prefix: str = ""):
    """``src[name]`` (``default`` when absent), checked to be a ``kind``.

    A value of the wrong type, or one that fails ``check``, is reported in
    ``errors`` under ``prefix + name`` and replaced by ``default``.  Numbers
    are never parsed from strings; an int field takes a whole float.
    """
    label = prefix + name
    value = src.get(name, default)
    if kind is bool and not isinstance(value, bool):
        errors.append(f"{label}: expected true/false (got {value!r})")
        return default
    if kind is str and not isinstance(value, str):
        errors.append(f"{label}: expected a string (got {value!r})")
        return default
    if kind in (int, float) and (isinstance(value, bool) or not isinstance(value, Real)):
        errors.append(f"{label}: expected a number (got {value!r})")
        return default
    if kind is int and isinstance(value, float) and not value.is_integer():
        errors.append(f"{label}: expected a whole number (got {value!r})")
        return default
    try:
        value = kind(value)
    except OverflowError:  # an int too large for a float field
        errors.append(f"{label}: expected a finite number (got {value!r})")
        return default
    if check is not None and not check(value):
        errors.append(f"{label}: {msg} (got {value!r})")
        return default
    return value


def _resolve_regime(value, n: int, errors: list[str]):
    if isinstance(value, str):
        if value not in REGIME_COUPLINGS:
            errors.append(f"regime: unknown name {value!r}, "
                          f"choose from {sorted(REGIME_COUPLINGS)} or give couplings")
            return "invalid", None
        j, bx, bz = REGIME_COUPLINGS[value]
        return value, IsingParams(n, j, bx, bz)
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


def _build_noise(data, n: int, pipeline: str, errors: list[str]):
    if data is None:
        return (NoiseModel.default(n) if pipeline in _NOISY_PIPELINES
                else NoiseModel.ideal(n))
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


def config_from_dict(data: dict) -> ExperimentConfig:
    """Validate a parsed config object; every violated invariant is reported
    with its field name in a single :class:`ConfigError`."""
    if not isinstance(data, dict):
        raise ConfigError("config root must be a JSON object")
    errors: list[str] = []
    extra = set(data) - _TOP_KEYS
    if extra:
        errors.append(f"unknown fields {sorted(extra)}")
    take = partial(_field, errors, data)

    n = take("n", 4, int, lambda v: 3 <= v <= MAX_QUBITS, f"must be in 3..{MAX_QUBITS}")
    tau = take("tau", 0.06, float, lambda v: v > 0 and math.isfinite(v), "must be > 0")
    k = take("k", 1, int, lambda v: v >= 1, "must be >= 1")
    ell_max = take("ell_max", 24, int, lambda v: v >= 0, "must be >= 0")
    shots = take("shots", DEFAULT_SHOTS, int, lambda v: 1 <= v <= MAX_SHOTS,
                 f"must be in 1..{MAX_SHOTS}")
    seed = take("seed", 0, int, lambda v: v >= 0, "must be >= 0")
    magic = take("magic", False, bool)
    magic_override = take("magic_override", False, bool)
    pipeline = take("pipeline", "exact", str, lambda v: v in PIPELINES,
                    f"must be one of {PIPELINES}")
    state = take("state", "zeros", str, lambda v: v in STATES,
                 f"must be one of {STATES}")
    probe = take("probe", "x", str, lambda v: v in PROBES,
                 f"must be one of {PROBES}")
    description = take("description", "", str)
    output_dir = data.get("output_dir")
    if output_dir is not None and not isinstance(output_dir, str):
        errors.append(f"output_dir: expected string or null (got {output_dir!r})")
        output_dir = None

    try:  # the cell U(k tau) is always built, and the last time is ell_max tau
        span_finite = math.isfinite(tau * max(k, ell_max))
    except OverflowError:  # an int too large for a float
        span_finite = False
    if not span_finite:
        errors.append(f"tau: tau * max(k, ell_max) must be finite "
                      f"(got tau={tau!r}, k={k}, ell_max={ell_max})")

    regime_label, params = _resolve_regime(data.get("regime", "integrable"), n, errors)
    if span_finite and params is not None:
        # the fastest phase a run forms: E t of the exact evolution, or the
        # classical OTOC phase 4(J + Bz) t or 4 J t of the fixed-node readout
        rate = max(norm_bound(params), 4.0 * abs(params.J + params.Bz),
                   4.0 * abs(params.J))
        if not math.isfinite(rate * tau * max(k, ell_max)):
            errors.append(f"tau: phase rate * tau * max(k, ell_max) must be finite, "
                          f"with the rate {rate:g} the larger of ||H|| <= (n-1)|J| "
                          f"+ n(|Bz| + |Bx|) and 4 max(|J + Bz|, |J|) "
                          f"(got tau={tau!r}, k={k}, ell_max={ell_max})")

    if pipeline in _MEASURED_PIPELINES and (state != "zeros" or probe != "x"):
        errors.append("state/probe: measured pipelines support only the "
                      "all-zeros state with the X probe; alternative states "
                      "and probes run through the exact pipeline")
    if pipeline in _NOISY_PIPELINES and n > MAX_DM_QUBITS:
        errors.append(f"n: pipeline {pipeline!r} is density-matrix based and "
                      f"limited to n <= {MAX_DM_QUBITS} (got {n})")
    if pipeline in ("exact", "trotter_exact", "sampled") and n > MAX_OTOC_QUBITS:
        errors.append(f"n: pipeline {pipeline!r} records dense exact values "
                      f"and is limited to n <= {MAX_OTOC_QUBITS} (got {n})")

    if params is not None and magic and not magic_override:
        try:
            check_magic_constraint(2.0 * params.J * k * tau)
        except ConfigError as exc:
            errors.append(str(exc))

    mit_data = data.get("mitigation")
    mitigation = MitigationConfig()
    if mit_data is not None:
        if not isinstance(mit_data, dict):
            errors.append("mitigation: must be an object")
        else:
            extra = set(mit_data) - _MITIGATION_KEYS
            if extra:
                errors.append(f"mitigation: unknown keys {sorted(extra)}")
            take_mit = partial(_field, errors, mit_data, prefix="mitigation.")
            mitigation = MitigationConfig(
                take_mit("tmem", True, bool), take_mit("zne", True, bool),
                take_mit("order", "tmem_then_zne", str,
                         lambda v: v in MITIGATION_ORDERS,
                         f"must be one of {MITIGATION_ORDERS}"))

    noise = _build_noise(data.get("noise"), n, pipeline, errors)

    if errors:
        raise ConfigError("invalid configuration:\n  " + "\n  ".join(errors))

    return ExperimentConfig(
        params=params, regime=regime_label, tau=tau, k=k, ell_max=ell_max,
        magic=magic, magic_override=magic_override, pipeline=pipeline,
        state=state, probe=probe, shots=shots, noise=noise,
        mitigation=mitigation, seed=seed, output_dir=output_dir,
        description=description)


def validate_config(path, seed: int | None = None) -> ExperimentConfig:
    """Parse and validate a config file, with line diagnostics on bad JSON.

    A ``seed`` other than None replaces the file's seed before validation.
    """
    text = Path(path).read_text(encoding="utf-8")
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: "
            f"{exc.msg}") from None
    if seed is not None and isinstance(data, dict):
        data = {**data, "seed": seed}
    try:
        return config_from_dict(data)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def config_echo(cfg: ExperimentConfig) -> dict:
    """Resolved configuration as a JSON-ready dict.

    ``output_dir`` is deliberately omitted so that runs into different
    directories still produce byte-identical metadata.
    """
    return {
        "regime": cfg.regime,
        "params": asdict(cfg.params),
        "tau": cfg.tau,
        "k": cfg.k,
        "ell_max": cfg.ell_max,
        "magic": cfg.magic,
        "magic_override": cfg.magic_override,
        "pipeline": cfg.pipeline,
        "state": cfg.state,
        "probe": cfg.probe,
        "shots": cfg.shots,
        "noise": {name: list(getattr(cfg.noise, name))
                  for name in ("cnot_error", "t1_given_0", "t0_given_1")},
        "mitigation": asdict(cfg.mitigation),
        "seed": cfg.seed,
        "description": cfg.description,
    }


def preset_names() -> list[str]:
    return sorted(p.stem for p in PRESET_DIR.glob("*.json"))


def preset_path(name: str) -> Path:
    path = PRESET_DIR / f"{name}.json"
    if not path.is_file():
        raise ConfigError(f"unknown preset {name!r}; available: {preset_names()}")
    return path


def load_preset(name: str) -> ExperimentConfig:
    return validate_config(preset_path(name))
