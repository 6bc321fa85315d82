"""Self-tests of the benchmark itself (not of spinweave).

    python3 -m pytest -q spinbench

They run small configs through the same child processes the benchmark
uses, so they take about half a minute.
"""

import json
import shutil
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import numpy as np
import pytest

import checks
import run
from tracer import (ALL, LAYER_METRICS, MITIGATED, PROBES, Probe, Tracer,
                    layer_metrics)
from workloads import WORKLOADS, Workload, couplings

HERE = Path(__file__).resolve().parent


def _tiny(pipeline):
    def make(rng):
        cfg = {"regime": "chaotic", "n": 4, "tau": 0.05, "k": 2, "ell_max": 3,
               "pipeline": pipeline, "shots": 2048, "seed": rng.randrange(100)}
        if pipeline == "mitigated":
            cfg["noise"] = {"spam_epsilon": 0.1}
        return cfg
    return Workload(f"tiny_{pipeline}", "self-test", "C_raw", make)


@pytest.fixture
def fake_package(tmp_path, monkeypatch):
    pkg = tmp_path / "fakepkg"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("")
    (pkg / "layer.py").write_text(
        "def outer(x):\n    return inner(x) + 1\n\n"
        "def inner(x):\n    return x * 2\n\n"
        "def idle():\n    return None\n")
    monkeypatch.syspath_prepend(str(tmp_path))
    yield "fakepkg"
    for name in [m for m in sys.modules if m.startswith("fakepkg")]:
        del sys.modules[name]


def _fake_probes(count=None):
    return (Probe("fake.outer", "layer:outer", ALL, count),
            Probe("fake.inner", "layer:inner", ALL),
            Probe("fake.idle", "layer:idle", MITIGATED),
            Probe("fake.gone", "layer:removed_by_refactor", ALL))


FAKE_METRICS = (("fake.outer_s", "s", "time", "fake.outer"),
                ("fake.outer_self_s", "s", "self", "fake.outer"),
                ("fake.outer_calls", "count", "count", "fake.outer"),
                ("fake.inner_s", "s", "time", "fake.inner"),
                ("fake.idle_s", "s", "time", "fake.idle"),
                ("fake.gone_s", "s", "time", "fake.gone"))


def _trace_fake(package, probes):
    tracer = Tracer()
    tracer.install(probes, package=package)
    layer = import_module(f"{package}.layer")
    assert layer.outer(3) == 7
    return tracer.summary()


def test_missing_name_is_absent_not_zero(fake_package):
    summary = _trace_fake(fake_package, _fake_probes())
    assert summary["missing"] == ["layer:removed_by_refactor"]
    values, absent = layer_metrics([summary], "sampled", FAKE_METRICS, _fake_probes())
    assert "fake.gone_s" in absent and "fake.gone_s" not in values
    assert values["fake.inner_s"][0] > 0


def test_uncalled_layer_is_absent_only_where_the_pipeline_should_reach_it(fake_package):
    summary = _trace_fake(fake_package, _fake_probes())
    _, absent = layer_metrics([summary], "mitigated", FAKE_METRICS, _fake_probes())
    assert "fake.idle_s" in absent
    values, absent = layer_metrics([summary], "exact", FAKE_METRICS, _fake_probes())
    assert "fake.idle_s" not in absent and values["fake.idle_s"][0] == 0


def test_self_time_excludes_wrapped_children(fake_package):
    summary = _trace_fake(fake_package, _fake_probes())
    values, _ = layer_metrics([summary], "exact", FAKE_METRICS, _fake_probes())
    outer, own, inner = (values[k][0] for k in
                         ("fake.outer_s", "fake.outer_self_s", "fake.inner_s"))
    assert own == pytest.approx(outer - inner)


def test_broken_counter_makes_counts_absent_but_keeps_times(fake_package):
    def broken(args, kwargs, result):
        raise TypeError("signature changed")
    summary = _trace_fake(fake_package, _fake_probes(broken))
    values, absent = layer_metrics([summary], "exact", FAKE_METRICS, _fake_probes())
    assert "fake.outer_calls" in absent
    assert values["fake.outer_s"][0] > 0


def test_every_layer_metric_names_a_probed_layer():
    probed = {p.layer for p in PROBES}
    assert {layer for *_, layer in LAYER_METRICS} <= probed


@pytest.mark.parametrize("pipeline", ["sampled", "mitigated"])
def test_counts_repeat_exactly_between_traced_runs(tmp_path, pipeline):
    bench = run.Bench(tmp_path, _tiny(pipeline), seed=3)
    first, second = bench.start("traced"), bench.start("traced")
    assert first.code == 0 and second.code == 0
    assert first.trace["counts"] == second.trace["counts"]
    bench.check()
    assert all(not r.problems for r in bench.runs), [r.problems for r in bench.runs]
    values, absent = layer_metrics([first.trace, second.trace], pipeline)
    assert absent == []
    assert values["noise.shots_drawn"][0] == 2048 * 4 * 4 * (2 if pipeline == "mitigated" else 1)


def test_checks_reject_corrupted_surfaces(tmp_path):
    bench = run.Bench(tmp_path, _tiny("mitigated"), seed=5)
    assert bench.start("plain").code == 0
    cfg = bench.cfg
    oracle = checks.oracle_surface(4, *couplings(cfg), cfg["tau"], cfg["ell_max"])
    good = bench.runs[0].out / "surface.csv"
    assert checks.surface_problems(good, cfg, oracle) == []
    lines = good.read_text().splitlines()

    def corrupted(row, column, value):
        fields = lines[row].split(",")
        fields[checks.COLUMNS.index(column)] = value
        path = tmp_path / f"bad_{row}_{column}.csv"
        path.write_text("\n".join(lines[:row] + [",".join(fields)] + lines[row + 1:]) + "\n")
        return path

    assert checks.surface_problems(corrupted(2, "C_corr", "4.5"), cfg, oracle)
    assert checks.surface_problems(corrupted(2, "F_abs", "0.5"), cfg, oracle)
    assert checks.surface_problems(corrupted(2, "C_exact", "0.123"), cfg, oracle)
    short = tmp_path / "short.csv"
    short.write_text("\n".join(lines[:-1]) + "\n")
    assert checks.surface_problems(short, cfg, oracle)


def test_oracle_matches_a_hand_computed_point():
    # With Bx = 0 the chain is classical and the OTOC at the butterfly site
    # is the pure phase 4(J + Bz)t, so C = 2 - 2 cos(4(J + Bz)t).
    j, bz, tau = -1.0, 1.3, 0.1
    grid = checks.oracle_surface(3, j, 0.0, bz, tau, 2)
    expected = [2.0 - 2.0 * np.cos(4 * (j + bz) * ell * tau) for ell in range(3)]
    assert grid[0] == pytest.approx(expected, abs=1e-12)


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "exact_n8",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert not any(line.startswith("{") for line in done.stdout.splitlines())


def test_configs_repeat_per_seed_and_differ_between_seeds():
    for workload in WORKLOADS.values():
        assert workload.config(4) == workload.config(4)
        assert workload.config(4) != workload.config(5)
        json.dumps(workload.config(4))


def test_benchmark_json_matches_the_code():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: w.why for name, w in WORKLOADS.items()}
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [
        (name, unit) for name, unit, *_ in LAYER_METRICS] + [("trace_overhead_s", "s")]
