import dataclasses
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from spinweave import config
from spinweave.config import (MAX_GRID_POINTS, PIPELINES, ExperimentConfig,
                              MitigationConfig, config_echo, config_from_dict,
                              preset_names, preset_path, validate_config)
from spinweave.errors import ConfigError
from spinweave.noise import NoiseModel

from conftest import load_preset

# The optional fields that each pipeline reads, written out independently of
# config.PIPELINES
EXPECTED_READS = {
    "exact": set(),
    "trotter_exact": {"k", "magic", "magic_override"},
    "sampled": {"k", "magic", "magic_override", "seed", "shots"},
    "noisy": {"k", "magic", "magic_override", "seed", "shots", "noise"},
    "mitigated": {"k", "magic", "magic_override", "seed", "shots", "noise",
                  "mitigation"},
}
OPTIONAL_FIELDS = ("k", "seed", "shots", "magic", "magic_override", "noise",
                   "mitigation")
# 10**5000 is past Python's default int-to-str limit of 4300 digits
HUGE = 10 ** 5000

EXPECTED_PRESETS = {"fig1a", "fig1b", "fig2", "fig4", "fig5", "fig5a",
                    "fig5b", "fig6a", "fig6b", "s7", "s8", "s9"}


class TestValidation:
    def test_minimal_config_gets_defaults(self):
        cfg = config_from_dict({"regime": "integrable"})
        assert cfg.params.n == 4
        assert cfg.params.Bx == 0.0
        assert cfg.tau == 0.06
        assert cfg.k is None  # the exact pipeline builds no circuit
        assert cfg.ell_max == 24
        assert cfg.pipeline == "exact"
        assert cfg.shots is None
        assert cfg.noise is None

    def test_negative_tau_names_field(self):
        with pytest.raises(ConfigError, match="tau"):
            config_from_dict({"regime": "integrable", "tau": -0.1})

    @pytest.mark.parametrize("field, value, rule", [
        ("tau", 0.0, "> 0"), ("k", 0, ">= 1"), ("ell_max", -1, ">= 0")])
    def test_schedule_bounds_name_their_field(self, field, value, rule):
        with pytest.raises(ConfigError, match=re.escape(
                f"\n  {field}: must be {rule} (got {value!r})")):
            config_from_dict({"regime": "integrable", field: value})

    def test_multiple_violations_all_reported(self):
        with pytest.raises(ConfigError) as err:
            config_from_dict({"regime": "integrable", "tau": -0.1,
                              "k": 0, "shots": 0})
        message = str(err.value)
        for field in ("tau", "k", "shots"):
            assert field in message

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigError, match="unknown fields"):
            config_from_dict({"regime": "integrable", "taus": 0.1})

    def test_output_dir_field_rejected(self):
        # where a run writes is given by `run --output-dir` alone
        with pytest.raises(ConfigError, match=re.escape("unknown fields ['output_dir']")):
            config_from_dict({"regime": "integrable", "output_dir": "out"})

    def test_non_integral_and_non_boolean_values_rejected(self):
        with pytest.raises(ConfigError, match="n"):
            config_from_dict({"regime": "integrable", "n": 4.7})
        with pytest.raises(ConfigError, match="magic"):
            config_from_dict({"regime": "integrable", "magic": "yes"})

    def test_unknown_regime(self):
        with pytest.raises(ConfigError, match="regime"):
            config_from_dict({"regime": "thermal"})

    def test_custom_couplings(self):
        cfg = config_from_dict({"regime": {"J": -0.5, "Bx": 0.2, "Bz": 0.9}, "n": 5})
        assert cfg.regime == "custom"
        assert (cfg.params.J, cfg.params.Bx, cfg.params.Bz) == (-0.5, 0.2, 0.9)

    def test_magic_constraint_enforced(self):
        base = {"regime": "chaotic", "n": 4, "k": 6, "tau": 0.06, "magic": True,
                "pipeline": "trotter_exact"}
        with pytest.raises(ConfigError, match="magic"):
            config_from_dict(base)
        cfg = config_from_dict({**base, "magic_override": True})
        assert cfg.magic and cfg.magic_override

    def test_magic_constraint_satisfied(self):
        tau = math.pi / 4 / 6
        cfg = config_from_dict({"regime": "chaotic", "n": 4, "k": 6, "tau": tau,
                                "magic": True, "pipeline": "trotter_exact"})
        assert cfg.magic

    def test_measured_pipelines_reject_alternative_states(self):
        with pytest.raises(ConfigError, match="state/probe"):
            config_from_dict({"regime": "chaotic", "pipeline": "noisy",
                              "state": "plus"})

    @pytest.mark.parametrize("pipeline", ["exact", "trotter_exact", "sampled"])
    def test_noise_rejected_where_no_noise_is_simulated(self, pipeline):
        data = {"regime": "chaotic", "pipeline": pipeline}
        with pytest.raises(ConfigError, match=re.escape(
                "noise: only the noisy and mitigated pipelines simulate noise")):
            config_from_dict({**data, "noise": {"spam_epsilon": 0.5, "cnot_error": 0.2}})
        assert config_from_dict({**data, "noise": None}).noise is None

    @pytest.mark.parametrize("pipeline", ["exact", "trotter_exact"])
    def test_shots_rejected_where_nothing_is_sampled(self, pipeline):
        data = {"regime": "chaotic", "pipeline": pipeline}
        with pytest.raises(ConfigError, match=re.escape(
                "shots: only the sampled, noisy and mitigated pipelines draw shots")):
            config_from_dict({**data, "shots": 1})
        assert config_from_dict(data).pipeline == pipeline

    def test_magic_rejected_where_no_circuit_is_built(self):
        # a circuit-free run never checks the magic angle either
        with pytest.raises(ConfigError) as info:
            config_from_dict({"regime": "chaotic", "k": 6, "magic": True})
        assert str(info.value).splitlines()[1:] == [
            "  magic: only the trotter_exact, sampled, noisy and mitigated "
            "pipelines build circuits"]
        with pytest.raises(ConfigError, match=re.escape("magic: only the")):
            config_from_dict({"regime": "chaotic", "magic": False})

    @pytest.mark.parametrize("data, line", [
        ({"shots": 0}, "shots: only the sampled, noisy and mitigated pipelines "
                       "draw shots"),
        ({"shots": "100"}, "shots: only the sampled, noisy and mitigated pipelines "
                           "draw shots"),
        ({"magic": "yes"}, "magic: only the trotter_exact, sampled, noisy and "
                           "mitigated pipelines build circuits"),
    ], ids=["shots-0", "shots-string", "magic-string"])
    def test_a_rejected_field_gets_only_its_rejection_line(self, data, line):
        # whatever its value: the exact pipeline reads neither field
        with pytest.raises(ConfigError) as info:
            config_from_dict({"regime": "chaotic", **data})
        assert str(info.value).splitlines()[1:] == [f"  {line}"]

    @pytest.mark.parametrize("name", ["shots", "magic", "magic_override"])
    def test_a_rejected_field_accepts_null(self, name):
        cfg = config_from_dict({"regime": "chaotic", name: None})
        assert getattr(cfg, name) is None
        assert name not in config_echo(cfg)

    def test_null_still_fails_where_the_field_is_read(self):
        with pytest.raises(ConfigError, match=re.escape("shots: expected a number")):
            config_from_dict({"regime": "chaotic", "pipeline": "sampled", "shots": None})
        # k is checked on every pipeline, read or not
        with pytest.raises(ConfigError, match=re.escape("k: expected a number")):
            config_from_dict({"regime": "chaotic", "k": None})

    @pytest.mark.parametrize("pipeline", list(EXPECTED_READS))
    def test_fields_the_pipeline_does_not_read_are_none(self, pipeline):
        # k and seed are accepted on every pipeline, read or not; a null
        # noise or mitigation gets the defaults where the run reads it
        cfg = config_from_dict({"regime": "chaotic", "pipeline": pipeline, "k": 3,
                                "seed": 5, "noise": None, "mitigation": None})
        reads = EXPECTED_READS[pipeline]
        assert PIPELINES[pipeline].reads == reads
        for name in OPTIONAL_FIELDS:
            assert (getattr(cfg, name) is None) == (name not in reads), name
        present = {f.name for f in dataclasses.fields(cfg)
                   if getattr(cfg, f.name) is not None}
        assert set(config_echo(cfg)) == present
        if "noise" in reads:
            assert cfg.noise == NoiseModel.default(4)
        if "mitigation" in reads:
            assert cfg.mitigation == MitigationConfig(True, True, "tmem_then_zne")

    def test_the_table_holds_the_expected_pipelines_in_order(self):
        assert list(PIPELINES) == list(EXPECTED_READS)

    @pytest.mark.parametrize("field", ["shots", "magic", "magic_override",
                                       "noise", "mitigation"])
    def test_a_rejection_line_names_the_pipelines_that_read_its_field(self, field):
        # the line names, in table order, exactly the pipelines whose row
        # reads the field, and every other pipeline rejects it with that line
        readers = [name for name, reads in EXPECTED_READS.items() if field in reads]
        names = re.compile(r"\b(%s)\b" % "|".join(PIPELINES))
        for pipeline in set(PIPELINES) - set(readers):
            with pytest.raises(ConfigError) as info:
                config_from_dict({"regime": "chaotic", "pipeline": pipeline,
                                  field: 1})
            [line] = str(info.value).splitlines()[1:]
            assert line.startswith(f"  {field}: only the "), line
            assert names.findall(line) == readers, line

    @pytest.mark.parametrize("value", [True, False])
    def test_magic_override_rejected_where_no_circuit_is_built(self, value):
        with pytest.raises(ConfigError) as info:
            config_from_dict({"regime": "chaotic", "magic_override": value})
        assert str(info.value).splitlines()[1:] == [
            "  magic_override: only the trotter_exact, sampled, noisy and "
            "mitigated pipelines build circuits"]
        cfg = config_from_dict({"regime": "chaotic", "pipeline": "trotter_exact",
                                "magic_override": value})
        assert cfg.magic_override is value

    def test_k_alone_cannot_overflow_the_exact_time_span(self):
        # exact evolution never builds the cell U(k tau); only ell_max tau counts
        cfg = config_from_dict({"regime": "chaotic", "pipeline": "exact",
                                "k": 10 ** 400, "tau": 1e300, "ell_max": 1})
        assert cfg.k is None
        with pytest.raises(ConfigError, match=re.escape(
                "tau: tau * max(k, ell_max) must be finite")):
            config_from_dict({"regime": "chaotic", "pipeline": "trotter_exact",
                              "k": 10 ** 400, "ell_max": 1})

    @pytest.mark.parametrize("pipeline", ["exact", "trotter_exact", "sampled", "noisy"])
    def test_mitigation_rejected_where_nothing_is_mitigated(self, pipeline):
        data = {"regime": "chaotic", "pipeline": pipeline}
        with pytest.raises(ConfigError, match=re.escape(
                "mitigation: only the mitigated pipeline mitigates")):
            config_from_dict({**data, "mitigation": {"tmem": False}})
        assert config_from_dict({**data, "mitigation": None}).pipeline == pipeline

    def test_noisy_capacity_limit(self):
        with pytest.raises(ConfigError, match="n"):
            config_from_dict({"regime": "chaotic", "n": 9, "pipeline": "noisy"})

    def test_exact_capacity_limit(self):
        with pytest.raises(ConfigError, match="n"):
            config_from_dict({"regime": "chaotic", "n": 11, "pipeline": "exact"})

    @pytest.mark.parametrize("pipeline, cap", [
        ("exact", 10), ("trotter_exact", 10), ("sampled", 10), ("noisy", 8),
        ("mitigated", 8)])
    def test_each_pipeline_cap_named_in_the_message(self, pipeline, cap):
        assert PIPELINES[pipeline].max_n == cap
        config_from_dict({"regime": "chaotic", "n": cap, "pipeline": pipeline,
                          "ell_max": 0})
        for n in (2, cap + 1, 11):
            with pytest.raises(ConfigError, match=re.escape(
                    f"n: must be in 3..{cap} for pipeline {pipeline!r} (got {n})")):
                config_from_dict({"regime": "chaotic", "n": n, "pipeline": pipeline})

    @pytest.mark.parametrize("pipeline", ["mitigatd", 1, None, ["mitigated"]],
                             ids=["misspelt", "int", "null", "list"])
    def test_an_unknown_pipeline_gets_one_error_line(self, pipeline):
        # no pipeline was chosen, so every field is read and gets only its
        # own checks, and n is bounded by the largest cap without a name
        data = {"regime": "chaotic", "pipeline": pipeline, "shots": 100,
                "noise": {"spam_epsilon": 0.1}, "mitigation": {"zne": False},
                "magic": False, "k": 3, "seed": 5}
        with pytest.raises(ConfigError) as info:
            config_from_dict(data)
        lines = str(info.value).splitlines()[1:]
        assert len(lines) == 1 and lines[0].startswith("  pipeline: "), lines
        for n in (2, 11):
            with pytest.raises(ConfigError) as info:
                config_from_dict({**data, "n": n})
            assert str(info.value).splitlines()[2:] == [
                f"  n: must be in 3..10 (got {n})"]

    def test_docs_give_each_pipeline_cap(self):
        # the message quotes PIPELINES[...].max_n; README and the config
        # module docstring tabulate it
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(
            encoding="utf-8")
        caps = {name: str(traits.max_n) for name, traits in PIPELINES.items()}
        assert dict(re.findall(r"^\| `(\w+)` .*\| n ≤ (\d+) +\|$", readme, re.M)) == caps
        assert dict(re.findall(r"^    (\w+) .* (\d+)$", config.__doc__, re.M)) == caps

    def test_huge_n_rejected_before_any_noise_model(self, monkeypatch):
        # a noise model of 10**9 qubits would build tuples of 10**9 rates
        built = []

        def build_noise(data, n, errors):
            assert n <= 10, "n reached the noise builder unchecked"
            built.append(n)

        monkeypatch.setattr(config, "_build_noise", build_noise)
        with pytest.raises(ConfigError, match=re.escape(
                "n: must be in 3..8 for pipeline 'noisy' (got 1000000000)")):
            config_from_dict({"regime": "chaotic", "n": 10 ** 9, "pipeline": "noisy"})
        assert built == [4]

    @pytest.mark.parametrize("pipeline, built", [
        ("exact", set()), ("sampled", set()), ("noisy", {"noise"}),
        ("mitigated", {"noise", "mitigation"})])
    def test_a_builder_runs_only_where_its_field_is_read(self, monkeypatch,
                                                         pipeline, built):
        calls = set()

        def builder(name, real):
            def build(*args):
                if name not in built:
                    raise AssertionError(f"{name} built for pipeline {pipeline!r}")
                calls.add(name)
                return real(*args)
            return build

        monkeypatch.setattr(config, "_build_noise",
                            builder("noise", config._build_noise))
        monkeypatch.setattr(config, "_build_mitigation",
                            builder("mitigation", config._build_mitigation))
        cfg = config_from_dict({"regime": "chaotic", "pipeline": pipeline})
        assert calls == built
        assert (cfg.noise is None, cfg.mitigation is None) == (
            "noise" not in built, "mitigation" not in built)

    def test_noise_scalar_and_lists(self):
        cfg = config_from_dict({"regime": "chaotic", "pipeline": "noisy",
                                "noise": {"cnot_error": 0.01,
                                          "spam_epsilon": [0.0, 0.01, 0.0, 0.02]}})
        assert cfg.noise.cnot_error == (0.01, 0.01, 0.01)
        assert cfg.noise.t0_given_1 == (0.0, 0.01, 0.0, 0.02)

    def test_noise_explicit_asymmetric_rates(self):
        cfg = config_from_dict({"regime": "chaotic", "pipeline": "noisy",
                                "noise": {"cnot_error": 0.0,
                                          "t1_given_0": [0.01] * 4,
                                          "t0_given_1": [0.03] * 4}})
        assert cfg.noise.t1_given_0 == (0.01,) * 4
        assert cfg.noise.t0_given_1 == (0.03,) * 4

    def test_noise_spam_conflict_rejected(self):
        with pytest.raises(ConfigError, match="noise"):
            config_from_dict({"regime": "chaotic", "pipeline": "noisy",
                              "noise": {"spam_epsilon": 0.01,
                                        "t1_given_0": [0.0] * 4}})

    @pytest.mark.parametrize("data, line", [
        ({"regime": {"J": -1.0, "Bx": 0.7}},
         "regime: coupling object needs keys J, Bx, Bz (missing ['Bz'], unexpected [])"),
        ({"regime": {"J": -1.0, "Bx": 0.7, "Bz": 1.5, "By": 0.0}},
         "regime: coupling object needs keys J, Bx, Bz (missing [], unexpected ['By'])"),
        ({"regime": 3}, "regime: must be a preset name or a coupling object"),
        ({"pipeline": "noisy", "noise": [0.01]}, "noise: must be an object"),
        ({"pipeline": "noisy", "noise": {"cnot": 0.01}}, "noise: unknown keys ['cnot']"),
        ({"pipeline": "mitigated", "mitigation": "tmem"}, "mitigation: must be an object"),
        ({"pipeline": "mitigated", "mitigation": {"tmem": True, "zne_folds": 3}},
         "mitigation: unknown keys ['zne_folds']")],
        ids=["coupling-missing", "coupling-extra", "regime-number", "noise-list",
             "noise-key", "mitigation-string", "mitigation-key"])
    def test_malformed_object_gets_its_one_line(self, data, line):
        with pytest.raises(ConfigError) as info:
            config_from_dict({"regime": "chaotic", **data})
        assert str(info.value) == f"invalid configuration:\n  {line}"

    def test_config_root_must_be_an_object(self):
        with pytest.raises(ConfigError) as info:
            config_from_dict([{"regime": "chaotic"}])
        assert str(info.value) == "config root must be a JSON object"

    def test_noisy_pipeline_defaults_to_calibration_noise(self):
        cfg = config_from_dict({"regime": "chaotic", "pipeline": "mitigated"})
        assert cfg.noise.cnot_error == (7.67e-3, 7.00e-3, 7.68e-3)

    @pytest.mark.parametrize("key", ["tmem", "zne"])
    @pytest.mark.parametrize("value", ["false", 0, "yes"])
    def test_mitigation_flags_must_be_booleans(self, key, value):
        with pytest.raises(ConfigError, match=re.escape(f"mitigation.{key}")):
            config_from_dict({"regime": "chaotic", "pipeline": "mitigated",
                              "mitigation": {key: value}})

    def test_negative_seed_rejected(self):
        with pytest.raises(ConfigError, match="seed"):
            config_from_dict({"regime": "chaotic", "seed": -3})

    def test_shots_beyond_int64_rejected(self):
        # numpy's multinomial draws int64 counts
        with pytest.raises(ConfigError, match=r"shots: must be in 1\.\.9223372036854775807"):
            config_from_dict({"pipeline": "sampled", "shots": 1e19, "ell_max": 1})
        cfg = config_from_dict({"pipeline": "sampled", "shots": 2 ** 63 - 1, "ell_max": 1})
        assert cfg.shots == 2 ** 63 - 1

    @pytest.mark.parametrize("data", [
        {"pipeline": "exact", "tau": 1e308, "ell_max": 4},
        {"pipeline": "trotter_exact", "tau": 1e308, "k": 2, "ell_max": 4},
        {"pipeline": "trotter_exact", "tau": 1e308, "k": 2, "ell_max": 0},
        {"pipeline": "exact", "tau": 0.1, "ell_max": 10 ** 400},
        {"pipeline": "trotter_exact", "tau": 0.1, "k": 10 ** 400, "magic": True},
    ])
    def test_overflowing_time_names_tau(self, data):
        with pytest.raises(ConfigError, match=re.escape(
                "tau: tau * max(k, ell_max) must be finite")):
            config_from_dict({"regime": "chaotic", **data})

    @pytest.mark.parametrize("pipeline", ["exact", "noisy"])
    def test_grid_larger_than_the_bound_names_ell_max(self, pipeline):
        # validated only: a grid at the bound would take hours to run
        n = 4
        ell_max = MAX_GRID_POINTS // n - 1
        cfg = config_from_dict({"pipeline": pipeline, "n": n, "ell_max": ell_max})
        assert n * (cfg.ell_max + 1) == MAX_GRID_POINTS
        with pytest.raises(ConfigError, match=re.escape(
                f"ell_max: n * (ell_max + 1) must be at most {MAX_GRID_POINTS} "
                f"grid points (got n=4, ell_max={ell_max + 1})")):
            config_from_dict({"pipeline": pipeline, "n": n, "ell_max": ell_max + 1})

    @pytest.mark.parametrize("data", [
        {"regime": "chaotic", "pipeline": "exact", "tau": 1e308, "ell_max": 1},
        {"regime": "chaotic", "pipeline": "trotter_exact", "tau": 5e307, "k": 2,
         "ell_max": 1},
        {"regime": {"J": 1e300, "Bx": 0.0, "Bz": 0.0}, "tau": 1e10, "ell_max": 1},
        # ||H|| <= 5 here, but the classical phase turns at 4|J + Bz| = 8
        {"regime": {"J": -1.0, "Bx": 0.0, "Bz": -1.0}, "n": 3,
         "pipeline": "trotter_exact", "tau": 3e307, "ell_max": 1},
    ])
    def test_time_overflowing_a_phase_names_tau(self, data):
        # tau * max(k, ell_max) is finite, but the phase rate times it is not
        with pytest.raises(ConfigError, match=re.escape(
                "tau: phase rate * tau * max(k, ell_max) must be finite")):
            config_from_dict(data)

    def test_overflowing_phase_rate_names_regime(self):
        # the defaults for tau, k and ell_max are fine: the couplings are not
        with pytest.raises(ConfigError) as info:
            config_from_dict({"regime": {"J": 1e308, "Bx": 1e308, "Bz": 1e308}})
        assert "regime: the phase rate must be finite (got inf)" in str(info.value)
        assert "tau:" not in str(info.value)

    def test_time_within_the_energy_bound_accepted(self):
        # ||H|| <= 3 + 4 * 2.2 = 11.8 on the chaotic n=4 chain
        cfg = config_from_dict({"regime": "chaotic", "tau": 1e306, "ell_max": 10})
        assert cfg.tau == 1e306

    @pytest.mark.parametrize("field, data", [
        ("regime.J", {"regime": {"J": float("nan"), "Bx": 0.7, "Bz": 1.5}}),
        ("regime.Bx", {"regime": {"J": -1.0, "Bx": float("inf"), "Bz": 1.5}}),
        ("regime.J", {"regime": {"J": [1], "Bx": 0.7, "Bz": 1.5}}),
        ("regime.Bz", {"regime": {"J": -1.0, "Bx": 0.7, "Bz": "x"}}),
        ("regime.J", {"regime": {"J": True, "Bx": 0.7, "Bz": 1.5}}),
        ("noise.cnot_error", {"regime": "chaotic", "pipeline": "noisy",
                              "noise": {"cnot_error": [[0.01], [0.01], [0.01]]}}),
        ("noise.spam_epsilon", {"regime": "chaotic", "pipeline": "noisy",
                                "noise": {"spam_epsilon": float("nan")}}),
        ("noise.t1_given_0", {"regime": "chaotic", "pipeline": "noisy",
                              "noise": {"t1_given_0": [True] * 4}}),
    ])
    def test_non_finite_or_non_numeric_values_name_their_field(self, field, data):
        with pytest.raises(ConfigError, match=re.escape(field)):
            config_from_dict(data)

    @pytest.mark.parametrize("field, data", [
        ("n", {"n": "5"}),
        ("shots", {"pipeline": "sampled", "shots": "100"}),
        ("seed", {"seed": "3"}),
        ("description", {"description": 7}),
        ("pipeline", {"pipeline": 1}),
        ("state", {"state": ["zeros"]}),
        ("probe", {"probe": None}),
        ("mitigation.order", {"pipeline": "mitigated", "mitigation": {"order": 0}}),
        ("tau", {"tau": 10 ** 400}),
    ])
    def test_values_of_the_wrong_type_name_their_field(self, field, data):
        with pytest.raises(ConfigError, match=re.escape(f"{field}: expected")):
            config_from_dict({"regime": "chaotic", **data})

    # each message shows an int past the int-to-str digit limit by its sign
    # and bit length; no such int reaches the run, whose metadata echoes it
    @pytest.mark.parametrize("data, line", [
        ({"n": HUGE}, "n: expected at most 4300 digits (got <16610-bit int>)"),
        ({"ell_max": HUGE}, "ell_max: expected at most 4300 digits (got <16610-bit int>)"),
        ({"tau": HUGE}, "tau: expected a finite number (got <16610-bit int>)"),
        ({"pipeline": "sampled", "shots": HUGE},
         "shots: expected at most 4300 digits (got <16610-bit int>)"),
        ({"pipeline": "trotter_exact", "k": HUGE},
         "k: expected at most 4300 digits (got <16610-bit int>)"),
        ({"regime": {"J": HUGE, "Bx": 0, "Bz": 0}},
         "regime.J: expected a finite number (got <16610-bit int>)"),
        ({"pipeline": "sampled", "seed": HUGE},
         "seed: expected at most 4300 digits (got <16610-bit int>)"),
        ({"pipeline": "sampled", "seed": -HUGE},
         "seed: expected at most 4300 digits (got -<16610-bit int>)"),
    ], ids=["n", "ell_max", "tau", "shots", "k", "regime", "seed", "negative-seed"])
    def test_an_int_past_the_digit_limit_names_its_field(self, data, line):
        with pytest.raises(ConfigError) as info:
            config_from_dict({"regime": "chaotic", **data})
        assert str(info.value).splitlines()[1:] == [f"  {line}"]

    def test_a_seed_at_the_digit_limit_is_echoed(self):
        seed = 10 ** 4299  # 4300 digits
        cfg = config_from_dict({"regime": "chaotic", "pipeline": "sampled",
                                "seed": seed})
        assert json.loads(json.dumps(config_echo(cfg)))["seed"] == seed

    def test_mitigation_order_validated(self):
        with pytest.raises(ConfigError, match="mitigation.order"):
            config_from_dict({"regime": "chaotic", "pipeline": "mitigated",
                              "mitigation": {"order": "backwards"}})

    def test_bad_json_reports_line(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{\n  "regime": "integrable",\n  oops\n}\n')
        with pytest.raises(ConfigError, match="line 3"):
            validate_config(path)

    @pytest.mark.parametrize("content", [
        b'{"seed": ' + b"1" * 5001 + b"}", b'{"regime": "\xff"}', b"[" * 100000,
    ], ids=["int-past-digit-limit", "not-utf8", "too-deep"])
    def test_a_file_that_does_not_parse_is_named(self, tmp_path, content):
        path = tmp_path / "bad.json"
        path.write_bytes(content)
        with pytest.raises(ConfigError, match=re.escape(f"{path}: invalid JSON: ")):
            validate_config(path)

    def test_validate_config_roundtrip(self, tmp_path):
        path = tmp_path / "ok.json"
        path.write_text(json.dumps({"regime": "chaotic", "n": 4, "seed": 9,
                                    "pipeline": "sampled"}))
        cfg = validate_config(path)
        assert isinstance(cfg, ExperimentConfig)
        assert cfg.seed == 9


class TestEcho:
    def test_echo_keys_are_the_config_fields(self):
        cfg = config_from_dict({"regime": "chaotic", "pipeline": "mitigated"})
        echo = config_echo(cfg)
        fields = {f.name for f in dataclasses.fields(ExperimentConfig)}
        assert set(echo) == fields
        assert set(echo["noise"]) == {"cnot_error", "t1_given_0", "t0_given_1"}

    @pytest.mark.parametrize("pipeline, unread", [
        ("exact", {"k", "seed", "shots", "magic", "magic_override", "noise",
                   "mitigation"}),
        ("trotter_exact", {"seed", "shots", "noise", "mitigation"}),
        ("sampled", {"noise", "mitigation"}),
        ("noisy", {"mitigation"}),
        ("mitigated", set()),
    ])
    def test_echo_holds_only_the_fields_the_run_reads(self, pipeline, unread):
        # k and seed are accepted on every pipeline, read or not
        echo = config_echo(config_from_dict({"regime": "chaotic", "pipeline": pipeline,
                                             "k": 3, "seed": 5}))
        fields = {f.name for f in dataclasses.fields(ExperimentConfig)}
        assert set(echo) == fields - unread

    def test_module_docstring_example_lists_every_field(self):
        block = config.__doc__.split("Full example::")[1].split("\n    }")[0] + "}"
        example = json.loads(re.sub(r"//[^\n]*", "", block))
        assert set(example) == {row[0] for row in config._FIELDS}
        assert config_from_dict(example).pipeline == "mitigated"

    def test_echo_is_json_serializable(self):
        cfg = config_from_dict({"regime": "chaotic", "pipeline": "mitigated"})
        text = json.dumps(config_echo(cfg), sort_keys=True)
        assert "cnot_error" in text


class TestPresets:
    def test_expected_names_present(self):
        assert EXPECTED_PRESETS <= set(preset_names())

    def test_every_preset_validates(self):
        for name in preset_names():
            cfg = load_preset(name)
            assert cfg.params.n <= 6

    def test_preset_parameters_match_catalog(self):
        fig1a = load_preset("fig1a")
        assert (fig1a.regime, fig1a.params.n, fig1a.tau, fig1a.ell_max) == \
            ("integrable", 6, 0.06, 24)
        fig4 = load_preset("fig4")
        assert (fig4.regime, fig4.params.n, fig4.k, fig4.tau, fig4.ell_max) == \
            ("integrable", 4, 6, 0.06, 24)
        assert fig4.pipeline == "mitigated"
        fig5b = load_preset("fig5b")
        assert (fig5b.regime, fig5b.k, fig5b.tau, fig5b.ell_max) == \
            ("chaotic", 20, 0.079, 30)
        assert fig5b.magic and fig5b.magic_override
        fig6b = load_preset("fig6b")
        assert fig6b.magic and not fig6b.magic_override
        assert abs(2 * fig6b.params.J * fig6b.k * fig6b.tau) == pytest.approx(
            np.pi / 2, abs=1e-12)
        s9 = load_preset("s9")
        assert s9.probe == "y"

    def test_unknown_preset(self):
        with pytest.raises(ConfigError):
            preset_path("fig99")
