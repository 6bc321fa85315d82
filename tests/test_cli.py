import argparse
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import spinweave
from spinweave.cli import _build_parser, main
from spinweave.config import PIPELINES, preset_names, preset_path
from spinweave.surface_io import load_surface


README = Path(__file__).resolve().parents[1] / "README.md"


def write_config(tmp_path, name="cfg.json", **overrides):
    data = {"regime": "chaotic", "n": 4, "tau": 0.06, "k": 3, "ell_max": 4,
            "pipeline": "mitigated", "shots": 256, "seed": 33}
    data.update(overrides)
    if "shots" not in PIPELINES[data["pipeline"]].reads:  # it rejects the field
        del data["shots"]
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return path


class TestRun:
    def test_run_writes_outputs_and_is_byte_deterministic(self, tmp_path):
        cfg = write_config(tmp_path)
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["run", str(cfg), "--output-dir", str(a)]) == 0
        assert main(["run", str(cfg), "--output-dir", str(b)]) == 0
        for name in ("surface.csv", "surface.meta.json", "heatmap_C_raw.svg",
                     "heatmap_C_corr.svg", "heatmap_C_exact.svg"):
            assert (a / name).exists(), name
            assert (a / name).read_bytes() == (b / name).read_bytes(), name

    def test_invalid_config_exits_2_and_names_field(self, tmp_path, capsys):
        cfg = write_config(tmp_path, tau=-0.5)
        assert main(["run", str(cfg)]) == 2
        assert "tau" in capsys.readouterr().err

    @pytest.mark.parametrize("content", [b'{"n": ' + b"4" * 5001 + b"}",
                                         b'{"regime": "\xff"}'],
                             ids=["int-past-digit-limit", "not-utf8"])
    def test_unparsable_config_exits_2_and_names_file(self, tmp_path, capsys, content):
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(content)
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--output-dir", str(out)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {cfg}: invalid JSON: ")
        assert not out.exists()

    def test_time_overflowing_the_energy_phase_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, pipeline="exact", tau=1e308, k=1, ell_max=1)
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--output-dir", str(out)]) == 2
        assert "tau: phase rate * tau" in capsys.readouterr().err
        assert not out.exists()

    def test_magic_violation_reported(self, tmp_path, capsys):
        cfg = write_config(tmp_path, magic=True, k=6)
        assert main(["run", str(cfg)]) == 2
        assert "magic" in capsys.readouterr().err

    def test_environment_does_not_choose_the_output_dir(self, tmp_path, monkeypatch):
        # SPINWEAVE_OUTPUT_DIR used to take precedence over the default
        cfg = write_config(tmp_path, pipeline="exact", noise=None, ell_max=2)
        monkeypatch.setenv("SPINWEAVE_OUTPUT_DIR", str(tmp_path / "from_env"))
        monkeypatch.chdir(tmp_path)
        assert main(["run", str(cfg)]) == 0
        assert (tmp_path / "spinweave_out" / "surface.csv").exists()
        assert not (tmp_path / "from_env").exists()

    def test_default_output_dir(self, tmp_path, monkeypatch):
        cfg = write_config(tmp_path, pipeline="exact", noise=None, ell_max=2)
        monkeypatch.delenv("SPINWEAVE_OUTPUT_DIR", raising=False)
        monkeypatch.chdir(tmp_path)
        assert main(["run", str(cfg)]) == 0
        assert (tmp_path / "spinweave_out" / "surface.csv").exists()

    def test_seed_is_read_from_the_config_alone(self, tmp_path, capsys):
        # --seed used to override the config's seed
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exit_info:
            main(["run", str(cfg), "--output-dir", str(out), "--seed", "5"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --seed 5" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("jobs", ["0", "-4"])
    def test_jobs_below_one_rejected_before_run(self, tmp_path, capsys, jobs):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--output-dir", str(out),
                     "--jobs", jobs]) == 2
        assert "--jobs" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("pipeline", ["exact", "mitigated"])
    def test_heatmaps_match_render_of_written_csv(self, tmp_path, pipeline):
        cfg = write_config(tmp_path, pipeline=pipeline)
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--output-dir", str(out)]) == 0
        heatmaps = sorted(out.glob("heatmap_*.svg"))
        assert heatmaps
        for svg in heatmaps:
            column = svg.stem[len("heatmap_"):]
            rendered = tmp_path / f"render_{column}.svg"
            assert main(["render", str(out / "surface.csv"), "--variant", column,
                         "--out", str(rendered)]) == 0
            assert svg.read_bytes() == rendered.read_bytes(), column

    def test_jobs_flag_matches_serial(self, tmp_path):
        cfg = write_config(tmp_path, pipeline="sampled", shots=128)
        a, b = tmp_path / "serial", tmp_path / "parallel"
        assert main(["run", str(cfg), "--output-dir", str(a)]) == 0
        assert main(["run", str(cfg), "--output-dir", str(b), "--jobs", "2"]) == 0
        assert (a / "surface.csv").read_bytes() == (b / "surface.csv").read_bytes()


    def test_runs_on_numpy_alone(self, tmp_path):
        # the package depends on numpy alone: block the test-only imports
        # and run one tiny config of every pipeline
        script = ("import sys\n"
                  "sys.modules.update(dict.fromkeys(('scipy', 'pytest', 'hypothesis')))\n"
                  "from spinweave.cli import main\n"
                  "for cfg in sys.argv[1:]:\n"
                  "    assert main(['run', cfg, '--output-dir', cfg[:-5]]) == 0, cfg\n")
        configs = [write_config(tmp_path, f"{pipeline}.json", pipeline=pipeline,
                                n=3, k=1, ell_max=2, shots=64)
                   for pipeline in PIPELINES]
        src = str(Path(spinweave.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        subprocess.run([sys.executable, "-c", script, *map(str, configs)],
                       env=env, cwd=tmp_path, check=True)
        for cfg in configs:
            out = cfg.with_suffix("")
            for name in ("surface.csv", "surface.meta.json", "heatmap_C_exact.svg"):
                assert (out / name).exists(), (out.name, name)


class TestRender:
    def test_render_twice_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path, pipeline="exact")
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--output-dir", str(out)]) == 0
        svg1 = tmp_path / "one.svg"
        svg2 = tmp_path / "two.svg"
        csv_path = str(out / "surface.csv")
        assert main(["render", csv_path, "--variant", "C_exact",
                     "--out", str(svg1)]) == 0
        assert main(["render", csv_path, "--variant", "C_exact",
                     "--out", str(svg2)]) == 0
        assert svg1.read_bytes() == svg2.read_bytes()

    def test_default_out_is_beside_the_csv(self, tmp_path, monkeypatch, capsys):
        cfg = write_config(tmp_path, pipeline="exact")
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--output-dir", str(out)]) == 0
        monkeypatch.chdir(tmp_path)
        capsys.readouterr()
        assert main(["render", str(out / "surface.csv"), "--variant", "C_exact"]) == 0
        svg = out / "surface_C_exact.svg"
        assert capsys.readouterr().out == f"{svg}\n"
        assert svg.read_bytes() == (out / "heatmap_C_exact.svg").read_bytes()

    def test_unknown_variant_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, pipeline="exact")
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--output-dir", str(out)]) == 0
        assert main(["render", str(out / "surface.csv"),
                     "--variant", "C_nope"]) == 2
        assert "variant" in capsys.readouterr().err

    def test_malformed_surface_exits_2_and_names_line(self, tmp_path, capsys):
        cfg = write_config(tmp_path, pipeline="exact")
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--output-dir", str(out)]) == 0
        csv_path = out / "surface.csv"
        lines = csv_path.read_text(encoding="utf-8").splitlines()
        lines[2] = lines[2].rsplit(",", 1)[0]  # drop the last field of row 2
        csv_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert main(["render", str(csv_path), "--variant", "C_exact"]) == 2
        assert f"{csv_path}: line 3: expected 10 fields" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [["render", "{0}", "--variant", "C_exact"],
                                         ["diff", "{0}", "{0}", "--column", "C_exact"]],
                             ids=["render", "diff"])
    def test_not_utf8_exits_2_and_names_path(self, tmp_path, capsys, command):
        # the error used to give the codec's message alone
        cfg = write_config(tmp_path, pipeline="exact")
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--output-dir", str(out)]) == 0
        csv_path = out / "surface.csv"
        content = csv_path.read_bytes()
        csv_path.write_bytes(content[:62] + b"\xff" + content[63:])
        capsys.readouterr()
        assert main([arg.format(csv_path) for arg in command]) == 2
        assert capsys.readouterr().err.startswith(
            f"error: {csv_path}: not UTF-8: 'utf-8' codec can't decode byte 0xff")

    @pytest.mark.parametrize("command", [["render", "{0}", "--variant", "C_exact"],
                                         ["diff", "{0}", "{0}", "--column", "C_exact"]],
                             ids=["render", "diff"])
    def test_partial_grid_exits_2_and_names_path(self, tmp_path, capsys, command):
        # one row at ell = 10**12 would otherwise size a grid of 7 TiB
        csv_path = tmp_path / "sparse.csv"
        csv_path.write_text("j,ell,t,C_raw,C_tmem,C_zne,C_corr,C_exact,F_abs,F_phase\n"
                            "1,1000000000000,0,,,,,1.0,,\n", encoding="utf-8")
        assert main([arg.format(csv_path) for arg in command]) == 2
        assert f"{csv_path}: 1 rows do not fill the grid" in capsys.readouterr().err


class TestDiff:
    def test_identical_inputs_give_zero_surface(self, tmp_path):
        cfg = write_config(tmp_path, pipeline="exact")
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--output-dir", str(out)]) == 0
        diff_path = tmp_path / "diff.csv"
        assert main(["diff", str(out / "surface.csv"), str(out / "surface.csv"),
                     "--column", "C_exact", "--out", str(diff_path)]) == 0
        table = load_surface(diff_path)
        assert np.nanmax(np.abs(table.columns["C_exact"])) == 0.0

    def test_default_out_is_in_the_working_directory(self, tmp_path, monkeypatch, capsys):
        cfg = write_config(tmp_path, pipeline="exact")
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert main(["run", str(cfg), "--output-dir", str(out)]) == 0
        (b / "surface.csv").rename(b / "other.csv")
        work = tmp_path / "work"
        work.mkdir()
        monkeypatch.chdir(work)
        capsys.readouterr()
        assert main(["diff", str(a / "surface.csv"), str(b / "other.csv"),
                     "--column", "C_exact"]) == 0
        assert capsys.readouterr().out == "surface_minus_other.csv\n"
        table = load_surface(work / "surface_minus_other.csv")
        assert np.nanmax(np.abs(table.columns["C_exact"])) == 0.0
        assert sorted(p.name for p in work.iterdir()) == [
            "surface_minus_other.csv", "surface_minus_other.meta.json"]

    def test_cross_column_consistency(self, tmp_path):
        # C_corr - C_raw computed by the CLI equals the stored columns' gap
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--output-dir", str(out)]) == 0
        diff_path = tmp_path / "gap.csv"
        assert main(["diff", str(out / "surface.csv"), str(out / "surface.csv"),
                     "--column", "C_corr", "--column-b", "C_raw",
                     "--out", str(diff_path)]) == 0
        table = load_surface(out / "surface.csv")
        gap = load_surface(diff_path).columns["C_corr"]
        direct = table.columns["C_corr"] - table.columns["C_raw"]
        assert np.allclose(gap, direct, atol=1e-12)


class TestSynopsis:
    def test_readme_synopsis_gives_each_command_its_options(self):
        # README's "Command line" block against the parser: one line per
        # command, holding exactly that subparser's options but --help
        text = README.read_text(encoding="utf-8")
        section = text.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
        block = re.search(r"```\n(.*?)```", section, re.S).group(1)
        documented = {}
        for line in block.splitlines():
            assert line.startswith("spinweave "), line
            command = line.split()[1]
            assert command not in documented, line
            documented[command] = set(re.findall(r"--[a-z][a-z-]*", line))
        [subparsers] = [action for action in _build_parser()._actions
                        if isinstance(action, argparse._SubParsersAction)]
        parsed = {command: {option for action in sub._actions
                            for option in action.option_strings
                            if option.startswith("--") and option != "--help"}
                  for command, sub in subparsers.choices.items()}
        assert documented == parsed


class TestPresetsCommand:
    def test_list_shows_all(self, capsys):
        assert main(["presets", "list"]) == 0
        shown = capsys.readouterr().out
        for name in preset_names():
            assert name in shown


class TestPresetRuns:
    @pytest.mark.parametrize("name", sorted(
        {"fig1a", "fig1b", "fig2", "fig4", "fig5", "fig5a", "fig5b",
         "fig6a", "fig6b", "s7", "s8", "s9"}))
    def test_preset_runs_to_completion_at_desk_scale(self, name, tmp_path):
        start = time.perf_counter()
        assert main(["run", str(preset_path(name)),
                     "--output-dir", str(tmp_path / name)]) == 0
        elapsed = time.perf_counter() - start
        assert elapsed < 300.0, f"{name} took {elapsed:.0f}s"
        table = load_surface(tmp_path / name / "surface.csv")
        cfg_n = table.n
        assert len(table) == cfg_n * (table.ell_max + 1)
        assert np.all(np.isfinite(table.grid("C_exact")))
        if name == "fig1a":
            # integrable reference surface: nothing spreads past site 2
            assert np.max(np.abs(table.grid("C_exact")[2:, :])) < 1e-10
