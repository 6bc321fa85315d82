import re

import numpy as np
import pytest

from spinweave.config import config_from_dict
from spinweave.heatmap import MISSING_COLOR, color_for, render_heatmap
from spinweave.otoc import build_surface
from spinweave.surface_io import (CSV_COLUMNS, SurfaceTable, diff_surfaces,
                                  format_value, load_surface, render_csv,
                                  write_surface)


@pytest.fixture(scope="module")
def exact_surface():
    cfg = config_from_dict({"regime": "integrable", "n": 4, "tau": 0.06,
                            "ell_max": 10, "pipeline": "exact"})
    return build_surface(cfg), cfg


@pytest.fixture(scope="module")
def mitigated_surface():
    cfg = config_from_dict({"regime": "chaotic", "n": 4, "tau": 0.06, "k": 3,
                            "ell_max": 5, "pipeline": "mitigated",
                            "shots": 512, "seed": 21})
    return build_surface(cfg), cfg


class TestCsv:
    def test_format_twelve_significant_digits(self):
        assert format_value(float(np.pi)) == "3.14159265359"
        assert format_value(float("nan")) == ""
        assert format_value(0.06) == "0.06"

    def test_roundtrip(self, tmp_path, mitigated_surface):
        surface, cfg = mitigated_surface
        csv_path, meta_path = write_surface(surface, cfg, tmp_path)
        table = load_surface(csv_path)
        assert len(table) == 4 * 6
        for name in ("C_raw", "C_corr", "C_exact", "F_abs"):
            got = table.columns[name]
            want = surface.columns[name]
            mask = ~np.isnan(want)
            assert np.array_equal(np.isnan(got), np.isnan(want))
            assert np.max(np.abs(got[mask] - want[mask])) < 1e-11
        assert meta_path.exists()

    def test_row_count_and_schema_stable_across_pipelines(
            self, exact_surface, mitigated_surface):
        for surface, cfg in (exact_surface, mitigated_surface):
            text = render_csv(surface)
            lines = text.strip().split("\n")
            assert lines[0] == ",".join(CSV_COLUMNS)
            assert len(lines) - 1 == cfg.params.n * (cfg.ell_max + 1)

    def test_exact_pipeline_leaves_measured_columns_empty(self, exact_surface):
        surface, _ = exact_surface
        lines = render_csv(surface).strip().split("\n")
        first = lines[1].split(",")
        columns = dict(zip(CSV_COLUMNS, first))
        assert columns["C_raw"] == ""
        assert columns["C_tmem"] == ""
        assert columns["C_exact"] != ""

    def test_time_column_is_index_times_resolution(self, exact_surface):
        table, cfg = exact_surface
        expected = table.columns["ell"] * cfg.tau
        assert np.array_equal(table.columns["t"], expected)

    def test_lf_line_endings_and_trailing_newline(self, tmp_path, exact_surface):
        surface, cfg = exact_surface
        csv_path, _ = write_surface(surface, cfg, tmp_path)
        raw = csv_path.read_bytes()
        assert b"\r" not in raw
        assert raw.endswith(b"\n")

    def test_metadata_deterministic_and_versioned(self, tmp_path, exact_surface):
        surface, cfg = exact_surface
        _, meta1 = write_surface(surface, cfg, tmp_path / "a")
        _, meta2 = write_surface(surface, cfg, tmp_path / "b")
        assert meta1.read_bytes() == meta2.read_bytes()
        assert b'"format": "spinweave-surface-v1"' in meta1.read_bytes()


class TestDiff:
    def test_self_difference_is_zero(self, tmp_path, exact_surface):
        surface, cfg = exact_surface
        csv_path, _ = write_surface(surface, cfg, tmp_path)
        table = load_surface(csv_path)
        diff = diff_surfaces(table, table, "C_exact")
        assert np.nanmax(np.abs(diff.columns["C_exact"])) == 0.0

    def test_column_pair_difference(self, tmp_path, mitigated_surface):
        surface, cfg = mitigated_surface
        csv_path, _ = write_surface(surface, cfg, tmp_path)
        table = load_surface(csv_path)
        diff = diff_surfaces(table, table, "C_corr", "C_raw")
        direct = table.columns["C_corr"] - table.columns["C_raw"]
        assert np.allclose(diff.columns["C_corr"], direct, atol=1e-12)

    def test_noiseless_mitigation_is_identity_within_solver_tolerance(self):
        cfg = config_from_dict({"regime": "chaotic", "n": 4, "tau": 0.06, "k": 3,
                                "ell_max": 4, "pipeline": "mitigated",
                                "shots": 2048, "seed": 8,
                                "noise": {"cnot_error": 0.0, "spam_epsilon": 0.0}})
        surface = build_surface(cfg)
        gap = surface.columns["C_tmem"] - surface.columns["C_raw"]
        assert np.nanmax(np.abs(gap)) < 1e-7

    def test_grid_mismatch_rejected(self, exact_surface, mitigated_surface):
        a = exact_surface[0]
        b = mitigated_surface[0]
        with pytest.raises(ValueError, match="congruent"):
            diff_surfaces(a, b, "C_exact")

    def test_unknown_column_rejected(self, exact_surface):
        table = exact_surface[0]
        with pytest.raises(ValueError, match="unknown column"):
            diff_surfaces(table, table, "C_bogus")


class TestHeatmap:
    def test_color_scale_endpoints(self):
        assert color_for(0.0) == "#000004"
        assert color_for(4.0) == "#fcffa4"
        assert color_for(2.0) == "#bb3754"

    def test_color_clamps_out_of_range(self):
        assert color_for(-1.0) == color_for(0.0)
        assert color_for(9.0) == color_for(4.0)

    def test_missing_values_render_gray(self):
        assert color_for(float("nan")) == MISSING_COLOR

    def test_table_in_memory_renders_like_written_csv(
            self, tmp_path, exact_surface, mitigated_surface):
        for surface, cfg in (exact_surface, mitigated_surface):
            csv_path, _ = write_surface(surface, cfg, tmp_path / cfg.pipeline)
            table = load_surface(csv_path)
            for column in ("C_raw", "C_tmem", "C_zne", "C_corr", "C_exact"):
                assert render_heatmap(surface, column) == render_heatmap(table, column)

    def test_render_deterministic(self, exact_surface):
        table = exact_surface[0]
        assert render_heatmap(table, "C_exact") == render_heatmap(table, "C_exact")

    def test_unknown_variant_rejected(self, exact_surface):
        table = exact_surface[0]
        with pytest.raises(ValueError, match="variant"):
            render_heatmap(table, "C_bogus")

    def test_localized_surface_confines_color(self, exact_surface):
        # integrable dynamics: sites 3 and 4 never light up
        table = exact_surface[0]
        svg = render_heatmap(table, "C_exact")
        baseline = color_for(0.0)
        count = svg.count(f'fill="{baseline}"')
        grid = table.grid("C_exact")
        expected = int(np.sum(np.abs(grid) < 1e-9))
        assert count >= expected
        assert np.max(np.abs(grid[2:, :])) < 1e-10

    def test_nan_cells_render_gray(self, exact_surface):
        table = exact_surface[0]
        svg = render_heatmap(table, "C_tmem")  # empty for the exact pipeline
        assert svg.count(f'fill="{MISSING_COLOR}"') == len(table)


class TestTableValidation:
    def test_missing_columns_rejected(self):
        with pytest.raises(ValueError, match="missing columns"):
            SurfaceTable({"j": np.array([1.0])})

    def test_grid_indexing(self, exact_surface):
        table = exact_surface[0]
        grid = table.grid("C_exact")
        assert grid.shape == (4, 11)
        row = table.columns["C_exact"][:11]
        assert np.array_equal(grid[0], row)

    def test_grid_takes_only_value_columns(self, exact_surface):
        # t is a grid coordinate, not a variant: grid refuses it as
        # render_heatmap and diff_surfaces do
        table = exact_surface[0]
        with pytest.raises(ValueError, match="unknown column 't'"):
            table.grid("t")


GOOD_HEADER = ",".join(CSV_COLUMNS)
GOOD_ROW = "1,0,0,,,,,0,1,0"


class TestLoadRejectsMalformedFiles:
    @pytest.mark.parametrize("row,where,message", [
        ("1,1,0.1,,,,,0.5,0.9", "line 3", "expected 10 fields, got 9"),
        ("1,1,0.1,,,,,0.5,0.9,0.1,7", "line 3", "expected 10 fields, got 11"),
        ("1.5,1,0.1,,,,,0.5,0.9,0.1", "line 3, column j", "whole number"),
        ("0,1,0.1,,,,,0.5,0.9,0.1", "line 3, column j", "whole number >= 1"),
        ("1,,0.1,,,,,0.5,0.9,0.1", "line 3, column ell", "expected a number"),
        ("1,-1,0.1,,,,,0.5,0.9,0.1", "line 3, column ell", "whole number >= 0"),
        ("1,1,,,,,,0.5,0.9,0.1", "line 3, column t", "expected a number"),
        ("1,1,0.1,,,,,abc,0.9,0.1", "line 3, column C_exact",
         "expected a number, got 'abc'"),
        ("1,0,0.1,,,,,0.5,0.9,0.1", "line 3", "repeats the grid point j=1, ell=0"),
        # the writer writes no non-finite number, and these rows loaded silently
        ("1,1,nan,,,,,0.5,0.9,0.1", "line 3, column t", "expected a finite number, got 'nan'"),
        ("1,1,-inf,,,,,0.5,0.9,0.1", "line 3, column t",
         "expected a finite number, got '-inf'"),
        ("1,1,0.1,,,,,inf,0.9,0.1", "line 3, column C_exact",
         "expected a finite number, got 'inf'"),
        ("1,1,0.1,,,,,1e999,0.9,0.1", "line 3, column C_exact",
         "expected a finite number, got '1e999'"),
    ], ids=["missing_field", "extra_field", "fractional_j", "j_zero",
            "empty_ell", "negative_ell", "empty_t", "not_a_number", "repeated_point",
            "nan_t", "minus_inf_t", "inf_value", "overflowing_value"])
    def test_bad_row_names_path_line_and_column(self, tmp_path, row, where,
                                                 message):
        path = tmp_path / "bad.csv"
        path.write_text(f"{GOOD_HEADER}\n{GOOD_ROW}\n{row}\n", encoding="utf-8")
        with pytest.raises(ValueError,
                           match=re.escape(f"{path}: {where}: ") + ".*"
                           + re.escape(message)):
            load_surface(path)

    @pytest.mark.parametrize("text,message", [
        (GOOD_HEADER + "\n", "no data rows"),
        ("", "expected columns"),
        ("j,ell,t\n1,0,0\n", "expected columns"),
        (f"{GOOD_HEADER}\n{GOOD_ROW}\n2,1,0.1,,,,,0,1,0\n",
         "2 rows do not fill the grid j = 1..2, ell = 0..1"),
    ], ids=["header_only", "empty_file", "wrong_header", "partial_grid"])
    def test_bad_file_names_path(self, tmp_path, text, message):
        path = tmp_path / "bad.csv"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ValueError, match=re.escape(f"{path}: {message}")):
            load_surface(path)
