import contextlib
import csv
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import warnings
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fgqa import annealing, cli
from fgqa.cells import (MaterialStack, build_network, cell_from_coupling_ratio,
                        control_oxide_thickness)
from fgqa.charging import parabola_family
from fgqa.cli import (EXIT_CONFIG, EXIT_OK, EXIT_PHYSICS, _write_csv, emit_config, main,
                      parse_config)
from fgqa.constants import CONST, convert
from fgqa.decoherence import PhononEnvironment, p_coherent, p_incoherent
from test_golden import CASES as GOLDEN


def write_config(tmp_path, name, cfg):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def read_rows(path):
    with open(path, newline="") as fh:
        rows = [r for r in csv.reader(ln for ln in fh if not ln.startswith("#"))]
    return rows[0], rows[1:]


DERIVE_CFG = {
    "schema_version": 1,
    "lengths_nm": [5.0, 10.0, 15.0],
    "tunnel_oxide_nm": 2.5,
    "fg_height_nm": 10.0,
    "coupling_ratio": 0.3,
}


class TestConfigHandling:
    def test_round_trip(self):
        cfg = {"schema_version": 1, "nested": {"a": [1, 2.5, "x"]}, "b": True}
        assert parse_config(emit_config(cfg)) == cfg

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = dict(DERIVE_CFG, coupling_ration=0.3)
        code = main(["derive", "--config", write_config(tmp_path, "c.json", cfg)])
        assert code == EXIT_CONFIG
        assert "coupling_ration" in capsys.readouterr().err

    def test_wrong_schema_version(self, tmp_path):
        cfg = dict(DERIVE_CFG, schema_version=99)
        code = main(["derive", "--config", write_config(tmp_path, "c.json", cfg)])
        assert code == EXIT_CONFIG

    def test_missing_config_file(self, capsys):
        assert main(["derive", "--config", "/nonexistent/cfg.json"]) == EXIT_CONFIG

    def test_invalid_field_type(self, tmp_path):
        cfg = dict(DERIVE_CFG, tunnel_oxide_nm="thin")
        assert main(["derive", "--config",
                     write_config(tmp_path, "c.json", cfg)]) == EXIT_CONFIG

    def test_integer_beyond_digit_limit_is_config_error(self, tmp_path, capsys):
        path = tmp_path / "c.json"
        path.write_text('{"schema_version": 1, "delta_kelvin": [' + "7" * 5000 + "]}")
        assert main(["decohere", "--config", str(path)]) == EXIT_CONFIG
        assert "not valid JSON" in capsys.readouterr().err

    @pytest.mark.parametrize("command, cfg, key", [
        ("derive", dict(DERIVE_CFG, lengths_nm=[5.0, 10**400]), "config.lengths_nm"),
        ("sweep", {"schema_version": 1, "parameter": "L", "geometry": {
            "length_nm": 10.0, "height_nm": 100.0, "tunnel_oxide_nm": 3.5,
            "coupling_ratio": 0.3}, "range": {"min": 5, "max": 10**400, "points": 3}},
         "range.max"),
        ("anneal", {"schema_version": 1, "problem": {"kind": "chain", "h": [0.1, 0.2],
                                                    "j": 0.5},
                    "schedule": {"delta0_ev": 1.0, "t_total": 10**400}}, "schedule.t_total"),
        ("decohere", {"schema_version": 1, "delta_kelvin": [10.0],
                      "max_time_factor": 10**400}, "config.max_time_factor"),
    ])
    def test_integer_beyond_float_range_is_config_error(self, tmp_path, capsys, command,
                                                        cfg, key):
        assert main([command, "--config",
                     write_config(tmp_path, "c.json", cfg)]) == EXIT_CONFIG
        assert f"{key} must be " in capsys.readouterr().err

    @pytest.mark.parametrize("command, text, message", [
        ("derive", "[1, 2]", "config must be a JSON object"),
        ("anneal", json.dumps({"schema_version": 1, "problem": [1],
                               "schedule": {"delta0_ev": 1.0}}),
         "config.problem must be an object")])
    def test_config_that_is_not_an_object(self, tmp_path, capsys, command, text, message):
        path = tmp_path / "c.json"
        path.write_text(text)
        assert main([command, "--config", str(path)]) == EXIT_CONFIG
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["sweep", "--threads", "4"],
                                      ["decohere", "--seed", "1"],
                                      ["anneal", "--seed", "-1"]])
    def test_removed_options_are_rejected(self, tmp_path, capsys, argv):
        path = write_config(tmp_path, "c.json", {"schema_version": 1})
        with pytest.raises(SystemExit) as exc:
            main([argv[0], "--config", path, *argv[1:]])
        assert exc.value.code == 2


class TestDerive:
    def test_reference_gate_windows(self, tmp_path):
        out = tmp_path / "table.csv"
        code = main(["derive", "--config", write_config(tmp_path, "c.json", DERIVE_CFG),
                     "--out", str(out)])
        assert code == EXIT_OK
        header, rows = read_rows(out)
        assert header[:5] == ["L_nm", "J_K", "U_h_K", "U_w_eV", "tunnel_Hz"]
        by_length = {float(r[0]): r for r in rows}
        assert float(by_length[10.0][3]) == pytest.approx(0.27, rel=0.03)
        assert float(by_length[5.0][3]) == pytest.approx(1.08, rel=0.03)

    def test_second_design_family(self, tmp_path):
        cfg = dict(DERIVE_CFG, tunnel_oxide_nm=3.5, fg_height_nm=100.0,
                   lengths_nm=[5.0])
        out = tmp_path / "t2.csv"
        assert main(["derive", "--config", write_config(tmp_path, "c.json", cfg),
                     "--out", str(out)]) == EXIT_OK
        _, rows = read_rows(out)
        assert float(rows[0][3]) == pytest.approx(1.52, rel=0.03)

    def test_empty_length_list_gives_header_only(self, tmp_path, capsys):
        cfg = dict(DERIVE_CFG, lengths_nm=[])
        assert main(["derive", "--config",
                     write_config(tmp_path, "c.json", cfg)]) == EXIT_OK
        lines = [ln for ln in capsys.readouterr().out.splitlines()
                 if ln and not ln.startswith("#")]
        assert len(lines) == 1  # column header only

    @pytest.mark.parametrize("key, value", [
        ("coupling_ratio", 1.5),
        ("coherence_delta_kelvin", "hot"),
        ("coherence_delta_kelvin", -4),
        ("coherence_delta_kelvin", True),
        ("lengths_nm", [5.0, -1.0]),
        ("lengths_nm", [5.0, True]),
        ("lengths_nm", [5.0, float("inf")]),
        ("tunnel_oxide_nm", float("nan")),
        ("coupling_ratio", 1e-320),         # a gate oxide beyond the float range
        ("material", {"eps_gate_f_per_nm": -1}),
        ("schema_version", True),
        ("schema_version", 1.0),
    ])
    def test_bad_key_is_config_error(self, tmp_path, capsys, key, value):
        cfg = dict(DERIVE_CFG, **{key: value})
        assert main(["derive", "--config",
                     write_config(tmp_path, "c.json", cfg)]) == EXIT_CONFIG
        # a bad key of a nested object is named under that object
        name = f"{key}.{next(iter(value))}" if isinstance(value, dict) else f"config.{key}"
        assert f"{name} " in capsys.readouterr().err

    def test_delta_beyond_float_range_in_hz_is_config_error(self, tmp_path, capsys):
        cfg = dict(DERIVE_CFG, coherence_delta_kelvin=1e300)
        assert main(["derive", "--config",
                     write_config(tmp_path, "c.json", cfg)]) == EXIT_CONFIG
        assert capsys.readouterr() == ("", "config error: config.coherence_delta_kelvin "
                                           "holds 1e+300 K, whose frequency overflows the "
                                           "float range\n")

    def test_delta_underflowing_to_zero_hz_is_config_error(self, tmp_path, capsys):
        cfg = dict(DERIVE_CFG, coherence_delta_kelvin=1e-320)
        assert main(["derive", "--config",
                     write_config(tmp_path, "c.json", cfg)]) == EXIT_CONFIG
        assert capsys.readouterr() == ("", "config error: config.coherence_delta_kelvin "
                                           "holds 1e-320 K, whose frequency underflows to "
                                           "0 Hz\n")


SWEEP_GEOMETRY = {
    "length_nm": 10.0,
    "height_nm": 100.0,
    "tunnel_oxide_nm": 3.5,
    "coupling_ratio": 0.3,
}


class TestSweep:
    def test_coupling_decreases_with_size(self, tmp_path):
        cfg = {"schema_version": 1, "parameter": "L",
               "range": {"min": 5.0, "max": 15.0, "points": 6},
               "geometry": SWEEP_GEOMETRY}
        out = tmp_path / "L.csv"
        assert main(["sweep", "--config", write_config(tmp_path, "c.json", cfg),
                     "--out", str(out)]) == EXIT_OK
        _, rows = read_rows(out)
        j_col = [float(r[1]) for r in rows]
        assert all(a > b for a, b in zip(j_col, j_col[1:]))

    def test_gate_modulation_range(self, tmp_path):
        cfg = {"schema_version": 1, "parameter": "V_CG",
               "range": {"min": -1.0, "max": 1.0, "points": 9},
               "geometry": dict(SWEEP_GEOMETRY, length_nm=15.0)}
        out = tmp_path / "v.csv"
        assert main(["sweep", "--config", write_config(tmp_path, "c.json", cfg),
                     "--out", str(out)]) == EXIT_OK
        _, rows = read_rows(out)
        amps = [float(r[1]) for r in rows]
        assert max(amps) / min(amps) >= 1e3

    def test_two_point_sweep_emits_two_rows(self, tmp_path):
        cfg = {"schema_version": 1, "parameter": "Z_FG",
               "range": {"min": 10.0, "max": 100.0, "points": 2},
               "geometry": SWEEP_GEOMETRY}
        out = tmp_path / "z.csv"
        assert main(["sweep", "--config", write_config(tmp_path, "c.json", cfg),
                     "--out", str(out)]) == EXIT_OK
        _, rows = read_rows(out)
        assert len(rows) == 2

    def test_parabola_sweep_columns(self, tmp_path):
        cfg = {"schema_version": 1, "parameter": "V_CG1-parabola",
               "range": {"min": -0.5, "max": 0.5, "points": 11},
               "geometry": SWEEP_GEOMETRY, "n_values": [0, 1]}
        out = tmp_path / "p.csv"
        assert main(["sweep", "--config", write_config(tmp_path, "c.json", cfg),
                     "--out", str(out)]) == EXIT_OK
        header, rows = read_rows(out)
        assert header == ["V_CG1_V", "n", "U_eV"]
        assert len(rows) == 22
        # one row per voltage and n, n varying fastest
        grid, curves = parabola_family(build_network(
            cell_from_coupling_ratio(10.0, 100.0, 3.5, 0.3), MaterialStack(), 3),
            np.linspace(-0.5, 0.5, 11), [0, 1])
        assert rows == [[repr(v), str(n), repr(float(curves[n][k]))]
                        for k, v in enumerate(grid.tolist()) for n in (0, 1)]

    def test_unwritable_output_path(self, tmp_path):
        cfg = {"schema_version": 1, "parameter": "Z_FG",
               "range": {"min": 10.0, "max": 100.0, "points": 2},
               "geometry": SWEEP_GEOMETRY}
        code = main(["sweep", "--config", write_config(tmp_path, "c.json", cfg),
                     "--out", str(tmp_path / "no" / "such" / "dir.csv")])
        assert code == EXIT_CONFIG

    def test_degenerate_range_rejected(self, tmp_path):
        cfg = {"schema_version": 1, "parameter": "L",
               "range": {"min": 5.0, "max": 5.0, "points": 2},
               "geometry": SWEEP_GEOMETRY}
        assert main(["sweep", "--config",
                     write_config(tmp_path, "c.json", cfg)]) == EXIT_CONFIG

    def test_collapsed_barrier_is_physics_error(self, tmp_path):
        cfg = {"schema_version": 1, "parameter": "V_CG",
               "range": {"min": -4.0, "max": -3.0, "points": 3},
               "geometry": SWEEP_GEOMETRY}
        assert main(["sweep", "--config",
                     write_config(tmp_path, "c.json", cfg)]) == EXIT_PHYSICS

    @pytest.mark.parametrize("parameter, key, lo", [
        ("L", "length_nm", -2.0),
        ("L", "length_nm", 0.0),
        ("d_ox", "tunnel_oxide_nm", -1.0),
        ("Z_FG", "height_nm", -10.0),
    ])
    def test_non_positive_grid_point_names_geometry_key(self, tmp_path, capsys, parameter,
                                                        key, lo):
        cfg = {"schema_version": 1, "parameter": parameter,
               "range": {"min": lo, "max": 5.0, "points": 7}, "geometry": SWEEP_GEOMETRY}
        assert main(["sweep", "--config",
                     write_config(tmp_path, "c.json", cfg)]) == EXIT_CONFIG
        assert f"geometry.{key} must be positive, got {lo}\n" in capsys.readouterr().err

    def test_grid_crossing_barrier_collapse_is_physics_error(self, tmp_path, capsys):
        cfg = {"schema_version": 1, "parameter": "V_CG",
               "range": {"min": -3.0, "max": 0.0, "points": 51}, "geometry": SWEEP_GEOMETRY}
        assert main(["sweep", "--config",
                     write_config(tmp_path, "c.json", cfg)]) == EXIT_PHYSICS
        assert "shifted Fermi level 3.413 eV" in capsys.readouterr().err

    @pytest.mark.parametrize("parameter", ["L", "Z_FG"])
    def test_overflowing_capacitances_are_physics_error(self, tmp_path, parameter):
        cfg = {"schema_version": 1, "parameter": parameter,
               "range": {"min": 5.0, "max": 1e300, "points": 5}, "geometry": SWEEP_GEOMETRY}
        with np.errstate(all="ignore"):
            assert main(["sweep", "--config",
                         write_config(tmp_path, "c.json", cfg)]) == EXIT_PHYSICS

    @pytest.mark.parametrize("parameter, lo, hi, code, error", [
        ("V_CG", -1.7e308, 1.7e308, EXIT_CONFIG,
         "config error: range [-1.7e+308, 1.7e+308] is wider than the float range"),
        ("L", -1.7e308, 1.7e308, EXIT_CONFIG,
         "config error: range [-1.7e+308, 1.7e+308] is wider than the float range"),
        ("d_ox", 1.0, 1.7e308, EXIT_CONFIG, "config error: invalid geometry: "
         "CellGeometry.d_gate must be positive and finite, got inf"),
        ("L", 5.0, 1e200, EXIT_PHYSICS,
         "physics error: c_gate must be non-negative and finite, got inf"),
        ("L", 1e100, 1e150, EXIT_PHYSICS,
         "physics error: column tunnel_Hz overflows the float range"),
        ("V_CG1-parabola", -1e160, 1e160, EXIT_PHYSICS,
         "physics error: column U_eV overflows the float range"),
    ], ids=["V_CG-span", "L-span", "d_ox-gate-oxide", "L-capacitance", "L-tunnel-rate",
            "parabola-energy"])
    def test_extreme_range_exits_without_numpy_warnings(self, tmp_path, capsys, parameter,
                                                         lo, hi, code, error):
        cfg = {"schema_version": 1, "parameter": parameter,
               "range": {"min": lo, "max": hi, "points": 5}, "geometry": SWEEP_GEOMETRY}
        out = tmp_path / "out.csv"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["sweep", "--config", write_config(tmp_path, "c.json", cfg),
                         "--out", str(out)]) == code
        assert capsys.readouterr().err == error + "\n"
        assert [str(w.message) for w in caught] == []
        assert not out.exists()         # no nan or inf row is written

    @pytest.mark.parametrize("key, value", [
        ("range.points", 1),
        ("range.points", True),
        ("config.n_values", []),
        ("config.n_values", [0, 0.5]),
        ("config.n_values", "0"),
        ("config.cell", True),
        ("config.cell", 4),
        ("config.cell", 0),
        ("config.tie_third", "false"),
        ("config.tie_third", 0),
        ("config.parameter", ["L"]),
    ])
    def test_bad_parabola_key_is_config_error(self, tmp_path, capsys, key, value):
        cfg = {"schema_version": 1, "parameter": "V_CG1-parabola",
               "range": {"min": -0.5, "max": 0.5, "points": 11},
               "geometry": SWEEP_GEOMETRY}
        block, name = key.split(".")
        (cfg["range"] if block == "range" else cfg)[name] = value
        assert main(["sweep", "--config",
                     write_config(tmp_path, "c.json", cfg)]) == EXIT_CONFIG
        assert f"{key} " in capsys.readouterr().err

    def test_gate_oxide_gives_the_cell_of_its_coupling_ratio(self, tmp_path):
        # the same cell by its control-oxide thickness writes the same rows;
        # only the config hash differs
        lines = []
        for key, value in (("coupling_ratio", 0.3),
                           ("gate_oxide_nm", control_oxide_thickness(0.3, 3.5))):
            geometry = {k: v for k, v in SWEEP_GEOMETRY.items() if k != "coupling_ratio"}
            cfg = {"schema_version": 1, "parameter": "L",
                   "range": {"min": 5.0, "max": 15.0, "points": 6},
                   "geometry": dict(geometry, **{key: value})}
            out = tmp_path / f"{key}.csv"
            assert main(["sweep", "--config", write_config(tmp_path, "c.json", cfg),
                         "--out", str(out)]) == EXIT_OK
            lines.append(out.read_text().splitlines())
        assert len(lines[0]) == len(lines[1]) == 10     # 3 comments, the header, 6 rows
        assert [a.startswith("# config sha256: ") for a, b in zip(*lines) if a != b] == [True]

    @pytest.mark.parametrize("both", (True, False), ids=["both", "neither"])
    def test_geometry_needs_exactly_one_gate_key(self, tmp_path, capsys, both):
        geometry = dict(SWEEP_GEOMETRY, gate_oxide_nm=8.0)
        if not both:
            del geometry["gate_oxide_nm"], geometry["coupling_ratio"]
        cfg = {"schema_version": 1, "parameter": "L",
               "range": {"min": 5.0, "max": 10.0, "points": 3}, "geometry": geometry}
        assert main(["sweep", "--config",
                     write_config(tmp_path, "c.json", cfg)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "coupling_ratio" in err and "gate_oxide_nm" in err

    @pytest.mark.parametrize("value", [1.0, 1.5])
    def test_bad_coupling_ratio_names_geometry_key(self, tmp_path, capsys, value):
        cfg = {"schema_version": 1, "parameter": "L",
               "range": {"min": 5.0, "max": 10.0, "points": 3},
               "geometry": dict(SWEEP_GEOMETRY, coupling_ratio=value)}
        assert main(["sweep", "--config",
                     write_config(tmp_path, "c.json", cfg)]) == EXIT_CONFIG
        assert "geometry.coupling_ratio " in capsys.readouterr().err


ANNEAL_CFG = {
    "schema_version": 1,
    "problem": {"kind": "maxcut",
                "edges": [[0, 1, 1.0], [1, 2, 1.0], [2, 3, 1.0], [0, 3, 1.0]]},
    "schedule": {"delta0_ev": 5.0, "t_total": 60.0, "steps": 1200,
                 "profile": "exponential"},
    "shots": 2048,
}

# config and arguments of runs whose histogram is ranked; at seed 14 the
# zero-field MAX-CUT run draws its two cuts, equal in probability, 1017
# times each
RANKED_RUNS = {"anneal-fg_grid": GOLDEN["anneal-fg_grid"][1:],
               "anneal-chain": GOLDEN["anneal-chain"][1:],
               "maxcut-tie": (ANNEAL_CFG, ["--seed", "14"])}


class TestAnneal:
    def test_four_cycle_reports_full_cut(self, tmp_path, capsys):
        code = main(["anneal", "--config", write_config(tmp_path, "c.json", ANNEAL_CFG),
                     "--seed", "7"])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "cut value of most frequent state: 4.0" in out
        assert "ground-state shot frequency" in out

    def test_seconds_and_floor_ratio_run(self, tmp_path, capsys):
        # the default run's 60 hbar/eV given in seconds, to a lower floor
        schedule = dict(ANNEAL_CFG["schedule"], t_total=60.0 * CONST.hbar_ev_s,
                        time_unit="seconds", floor_ratio=1e-8)
        cfg = dict(ANNEAL_CFG, schedule=schedule)
        assert main(["anneal", "--config", write_config(tmp_path, "c.json", cfg),
                     "--seed", "7"]) == EXIT_OK
        assert "cut value of most frequent state: 4.0" in capsys.readouterr().out

    def test_device_grid_reports_no_cut(self, tmp_path, capsys):
        # fg_grid has no fields at n_g = 0, but it is not a MAX-CUT problem
        cfg = dict(ANNEAL_CFG, problem={"kind": "fg_grid", "rows": 2, "cols": 2,
                                        "geometry": SWEEP_GEOMETRY},
                   schedule={"t_total": 50.0, "steps": 100})
        assert main(["anneal", "--config", write_config(tmp_path, "c.json", cfg),
                     "--seed", "7"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "exact ground energy" in out
        assert "cut value" not in out

    def test_histogram_and_trace_written(self, tmp_path, capsys):
        prefix = tmp_path / "run"
        code = main(["anneal", "--config", write_config(tmp_path, "c.json", ANNEAL_CFG),
                     "--seed", "7", "--out", str(prefix)])
        assert code == EXIT_OK
        header, rows = read_rows(tmp_path / "run_histogram.csv")
        assert header == ["state", "count", "frequency", "energy_eV"]
        assert sum(int(r[1]) for r in rows) == 2048
        theader, trows = read_rows(tmp_path / "run_trace.csv")
        assert theader == ["t", "delta_eV", "energy_eV"]
        assert len(trows) >= 2

    # a zero-field MAX-CUT problem and a chain with fields
    @pytest.mark.parametrize("problem", [
        ANNEAL_CFG["problem"],
        {"kind": "chain", "h": [0.3, -0.2, 0.1, 0.25, -0.15], "j": [0.5, -0.4, 0.6, 0.3]}],
        ids=["maxcut", "chain"])
    def test_trace_is_recorded_only_with_out(self, tmp_path, capsys, monkeypatch, problem):
        recorded = []
        evolve = annealing.evolve
        monkeypatch.setattr(annealing, "evolve", lambda *args, **kwargs: (
            recorded.append(kwargs["record_every"]) or evolve(*args, **kwargs)))
        path = write_config(tmp_path, "c.json", dict(ANNEAL_CFG, problem=problem))
        stdout = []
        for extra in ([], ["--out", str(tmp_path / "run")]):
            assert main(["anneal", "--config", path, "--seed", "7", *extra]) == EXIT_OK
            stdout.append(capsys.readouterr().out)
        assert recorded == [0, ANNEAL_CFG["schedule"]["steps"] // 200]
        assert stdout[0] == stdout[1]

    @pytest.mark.parametrize("run", RANKED_RUNS)
    def test_stdout_state_is_first_histogram_row(self, tmp_path, capsys, run):
        cfg, extra = RANKED_RUNS[run]
        assert main(["anneal", "--config", write_config(tmp_path, "c.json", cfg),
                     "--out", str(tmp_path / "run"), *extra]) == EXIT_OK
        best = re.search(r"most frequent state: ([01]+)  \((\d+)/", capsys.readouterr().out)
        _, rows = read_rows(tmp_path / "run_histogram.csv")
        assert [best[1], best[2]] == rows[0][:2]
        if run == "maxcut-tie":
            assert rows[1][1] == rows[0][1]

    def test_fixed_seed_is_byte_identical(self, tmp_path, capsys):
        path = write_config(tmp_path, "c.json", ANNEAL_CFG)
        for prefix in ("one", "two"):
            assert main(["anneal", "--config", path, "--seed", "11",
                         "--out", str(tmp_path / prefix)]) == EXIT_OK
        for suffix in ("_histogram.csv", "_trace.csv"):
            assert (tmp_path / f"one{suffix}").read_bytes() == \
                (tmp_path / f"two{suffix}").read_bytes()

    def test_one_diagonal_per_run(self, tmp_path, capsys, monkeypatch):
        built = []
        diagonal_energies = annealing.diagonal_energies
        monkeypatch.setattr(annealing, "diagonal_energies",
                            lambda model: built.append(model) or diagonal_energies(model))
        assert main(["anneal", "--config", write_config(tmp_path, "c.json", ANNEAL_CFG),
                     "--seed", "7", "--out", str(tmp_path / "run")]) == EXIT_OK
        assert "exact ground energy" in capsys.readouterr().out
        assert len(built) == 1

    def test_missing_delta0_rejected_for_plain_problems(self, tmp_path):
        cfg = dict(ANNEAL_CFG, schedule={"t_total": 10.0, "steps": 100})
        assert main(["anneal", "--config",
                     write_config(tmp_path, "c.json", cfg)]) == EXIT_CONFIG

    @pytest.mark.parametrize("problem, key", [
        ({"kind": "grid", "rows": 2.7, "cols": 2, "j": 1.0}, "rows"),
        ({"kind": "chain", "h": ["a"], "j": [1.0]}, "h"),
        ({"kind": "chain", "h": [0.1, 0.2], "j": None}, "j"),
        ({"kind": "chain", "h": [0.1, 0.2, 0.3, 0.4], "j": [1.0, 2.0]}, "j"),
        ({"kind": "grid", "rows": 5, "cols": 5, "j": 1.0}, "rows"),
        ({"kind": "fg_grid", "rows": 5, "cols": 5, "geometry": SWEEP_GEOMETRY}, "rows"),
        ({"kind": "chain", "h": [0.0] * 25, "j": 1.0}, "h"),
        ({"kind": "grid", "rows": 2, "cols": 2, "h": [0.1, 0.2], "j": 1.0}, "h"),
        ({"kind": "maxcut", "edges": [[0, 1, 10**400]]}, "edges"),
        ({"kind": "maxcut", "edges": [[0, 1.7]]}, "edges"),
        ({"kind": "maxcut", "edges": [[0, 1, True]]}, "edges"),
        ({"kind": "maxcut", "edges": [[0, 10**12]]}, "edges"),
        ({"kind": "maxcut", "edges": [[0, 1]], "n_sites": 10**12}, "n_sites"),
    ])
    def test_malformed_problem_key_is_config_error(self, tmp_path, capsys, problem, key):
        cfg = dict(ANNEAL_CFG, problem=problem)
        assert main(["anneal", "--config",
                     write_config(tmp_path, "c.json", cfg)]) == EXIT_CONFIG
        assert f"problem.{key} " in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [
        ("profile", "cubic"),
        ("time_unit", "ms"),
        ("delta0_ev", -1),
        ("floor_ratio", 1e-5),
    ])
    def test_malformed_schedule_key_is_config_error(self, tmp_path, capsys, key, value):
        cfg = dict(ANNEAL_CFG, schedule=dict(ANNEAL_CFG["schedule"], **{key: value}))
        assert main(["anneal", "--config",
                     write_config(tmp_path, "c.json", cfg)]) == EXIT_CONFIG
        assert f"schedule.{key} " in capsys.readouterr().err

    def test_collapsed_device_barrier_is_physics_error(self, tmp_path):
        cfg = dict(ANNEAL_CFG, problem={"kind": "fg_grid", "rows": 1, "cols": 3,
                                        "geometry": SWEEP_GEOMETRY, "v_cg": -4.0})
        assert main(["anneal", "--config",
                     write_config(tmp_path, "c.json", cfg)]) == EXIT_PHYSICS

    def test_fg_grid_problem_runs(self, tmp_path, capsys):
        cfg = {
            "schema_version": 1,
            "problem": {"kind": "fg_grid", "rows": 1, "cols": 3,
                        "geometry": SWEEP_GEOMETRY, "v_cg": -1.7},
            "schedule": {"t_total": 60000.0, "steps": 16000, "profile": "exponential"},
            "shots": 512,
        }
        code = main(["anneal", "--config", write_config(tmp_path, "c.json", cfg),
                     "--seed", "3"])
        assert code == EXIT_OK
        assert "topology: grid(1x3)" in capsys.readouterr().out


class TestDecohere:
    CFG = {"schema_version": 1, "delta_kelvin": [10.0, 100.0], "time_points": 50}

    def test_report_contains_suppression_exponent(self, tmp_path, capsys):
        code = main(["decohere", "--config", write_config(tmp_path, "c.json", self.CFG)])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "renormalization exponent: 1323.39" in out
        assert "t_coh" in out

    @pytest.mark.parametrize("key, value", [
        ("delta_kelvin", []),
        ("delta_kelvin", [10.0, -1.0]),
        ("delta_kelvin", [10.0, "a"]),
        ("time_points", 1),
        ("time_points", 2.5),
        ("time_points", True),
    ])
    def test_bad_key_is_config_error(self, tmp_path, capsys, key, value):
        cfg = dict(self.CFG, **{key: value})
        assert main(["decohere", "--config",
                     write_config(tmp_path, "c.json", cfg)]) == EXIT_CONFIG
        assert f"config.{key} " in capsys.readouterr().err

    def test_delta_beyond_float_range_in_hz_is_config_error(self, tmp_path, capsys):
        # rejected before the report prints a line
        cfg = dict(self.CFG, delta_kelvin=[10.0, 1e300])
        out = tmp_path / "pt.csv"
        assert main(["decohere", "--config", write_config(tmp_path, "c.json", cfg),
                     "--out", str(out)]) == EXIT_CONFIG
        assert capsys.readouterr() == ("", "config error: config.delta_kelvin holds 1e+300 "
                                           "K, whose frequency overflows the float range\n")
        assert not out.exists()

    def test_delta_underflowing_to_zero_hz_is_config_error(self, tmp_path, capsys):
        # rejected before the report prints a line
        cfg = dict(self.CFG, delta_kelvin=[10.0, 1e-320])
        out = tmp_path / "pt.csv"
        assert main(["decohere", "--config", write_config(tmp_path, "c.json", cfg),
                     "--out", str(out)]) == EXIT_CONFIG
        assert capsys.readouterr() == ("", "config error: config.delta_kelvin holds 1e-320 "
                                           "K, whose frequency underflows to 0 Hz\n")
        assert not out.exists()

    @pytest.mark.parametrize("changes, key, delta", [
        ({"delta_kelvin": [10.0, 1e-300], "max_time_factor": 1e12}, "max_time_factor",
         "1e-300"),
        ({"delta_kelvin": [1e-312]}, "delta_kelvin", "1e-312"),    # t_coh is infinite
    ])
    def test_time_grid_beyond_float_range_is_config_error(self, tmp_path, capsys,
                                                          changes, key, delta):
        # rejected before the report prints a line
        out = tmp_path / "pt.csv"
        assert main(["decohere", "--config", write_config(tmp_path, "c.json",
                                                          dict(self.CFG, **changes)),
                     "--out", str(out)]) == EXIT_CONFIG
        assert capsys.readouterr() == ("", f"config error: config.{key} puts the time grid "
                                           f"of {delta} K beyond the float range\n")
        assert not out.exists()

    def test_signal_csv(self, tmp_path, capsys):
        out = tmp_path / "pt.csv"
        assert main(["decohere", "--config", write_config(tmp_path, "c.json", self.CFG),
                     "--out", str(out)]) == EXIT_OK
        header, rows = read_rows(out)
        assert header == ["delta_K", "t_s", "p_coh", "p_inc", "p_total"]
        assert len(rows) == 100
        first = rows[0]
        assert float(first[2]) == 1.0 and float(first[3]) == 0.0
        # rows run delta by delta, each through its own time trace
        assert [float(r[0]) for r in rows] == [10.0] * 50 + [100.0] * 50
        alpha = PhononEnvironment().alpha
        for dk, t, pc, pi, total in (map(float, r) for r in rows):
            delta = convert(dk, "K", "Hz")
            assert (pc, pi) == (p_coherent(t, delta, alpha), p_incoherent(t, delta, alpha))
            assert total == pc + pi


@pytest.mark.parametrize("alpha", [0, -1])
@pytest.mark.parametrize("command, cfg", [("derive", DERIVE_CFG),
                                          ("decohere", TestDecohere.CFG)])
def test_non_positive_alpha_is_config_error(tmp_path, capsys, command, cfg, alpha):
    cfg = dict(cfg, environment={"alpha": alpha})
    assert main([command, "--config", write_config(tmp_path, "c.json", cfg)]) == EXIT_CONFIG
    assert capsys.readouterr() == ("", f"config error: environment.alpha must be positive, "
                                       f"got {alpha}\n")


README = Path(__file__).resolve().parent.parent / "README.md"


def readme_configs():
    """(subcommand, config) of every json block under a ### `cmd` heading."""
    found, command = [], None
    pattern = r"^### `(\w+)`|^```json\n(.*?)^```"
    for m in re.finditer(pattern, README.read_text(), flags=re.M | re.S):
        if m.group(1):
            command = m.group(1)
        else:
            found.append((command, json.loads(m.group(2))))
    return found


@pytest.mark.parametrize("command, cfg", readme_configs())
def test_readme_configs_run(tmp_path, capsys, command, cfg):
    assert main([command, "--config", write_config(tmp_path, "c.json", cfg),
                 "--out", str(tmp_path / "out")]) == EXIT_OK


def csv_writer_reference(columns, rows):
    """What csv.writer writes for the same rows."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows(rows)
    return buf.getvalue()


def test_write_csv_matches_csv_writer(tmp_path):
    rows = [("0110", 3, 0.1, np.float64(1e-300), True),
            ("normally-on", -7, 1e16, np.float64(-0.0), False),
            ("x y", 10**20, float("inf"), np.float64(2.5e-5), np.int64(4)),
            ("", 0, -123.456, np.float64(7.0), np.float32(0.1))]
    columns = ["state", "count", "x", "y", "z"]
    expected = csv_writer_reference(columns, rows)
    as_lists = [list(col) for col in zip(*rows)]
    as_arrays = [as_lists[0], np.array(as_lists[1], dtype=object), np.array(as_lists[2]),
                 np.array(as_lists[3]), as_lists[4]]
    for data in (as_lists, as_arrays):
        path = tmp_path / "out.csv"
        _write_csv(str(path), "test", {"schema_version": 1}, columns, data)
        body = path.read_text().split("\n", 3)[3]
        assert body == expected
    floats = np.random.default_rng(3).standard_normal((40, 3)) * 1e-7
    path = tmp_path / "floats.csv"
    _write_csv(str(path), "test", {}, ["a", "b", "c"], list(floats.T))
    assert path.read_text().split("\n", 3)[3] == csv_writer_reference(
        ["a", "b", "c"], floats.tolist())


def test_nan_result_is_physics_error(tmp_path, capsys):
    # with so weak a damping the time grid, though finite, runs so far that
    # delta * t overflows: the ci/si argument check refuses it, before the
    # coherent part cos(inf) could reach the CSV as a NaN
    cfg = {"schema_version": 1, "delta_kelvin": [10.0, 50.0], "time_points": 7,
           "environment": {"alpha": 1e-310}}
    out = tmp_path / "pt.csv"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["decohere", "--config", write_config(tmp_path, "c.json", cfg),
                     "--out", str(out)]) == EXIT_PHYSICS
    assert capsys.readouterr().err == ("physics error: ci/si argument must be positive "
                                       "and finite, got inf\n")
    assert [str(w.message) for w in caught] == []
    assert not out.exists()
    with pytest.raises(ValueError, match="column b holds a NaN"):
        _write_csv(str(out), "test", {}, ["a", "b"], [np.ones(2), np.array([1.0, math.nan])])
    assert not out.exists()


SRC = Path(__file__).resolve().parent.parent / "src"


def test_commands_do_not_import_scipy(tmp_path):
    # importing scipy would add about 0.3 s and 25 MB to every command
    configs = {"derive": DERIVE_CFG, "anneal": ANNEAL_CFG, "decohere": TestDecohere.CFG,
               "sweep": {"schema_version": 1, "parameter": "d_ox",
                         "range": {"min": 2.5, "max": 4.0, "points": 20},
                         "geometry": SWEEP_GEOMETRY}}
    for command, cfg in configs.items():
        write_config(tmp_path, f"{command}.json", cfg)
    script = (
        "import sys\n"
        "from fgqa.cli import main\n"
        f"for command in {sorted(configs)!r}:\n"
        "    assert main([command, '--config', command + '.json', '--out', command]) == 0\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[]"


PARABOLA_CFG = {"schema_version": 1, "parameter": "V_CG1-parabola",
                "range": {"min": -0.5, "max": 0.5, "points": 3}, "geometry": SWEEP_GEOMETRY}


@pytest.mark.parametrize("command, cfg, code, error", [
    ("derive", dict(DERIVE_CFG, environment={"sound_speed_m_s": 1e-300}), EXIT_PHYSICS,
     "physics error: float division by zero"),
    ("decohere", dict(TestDecohere.CFG, environment={"density_kg_m3": 1e-300}), EXIT_PHYSICS,
     "physics error: float division by zero"),
    ("decohere", dict(TestDecohere.CFG, environment={"sound_speed_m_s": 1.7e308}),
     EXIT_PHYSICS, "physics error: (34, 'Numerical result out of range')"),
    ("derive", dict(DERIVE_CFG, environment={"gamma_ev": 1.7e308}), EXIT_PHYSICS,
     "physics error: (34, 'Numerical result out of range')"),
    ("sweep", dict(PARABOLA_CFG, v_sub=1.7e308), EXIT_PHYSICS,
     "physics error: (34, 'Numerical result out of range')"),
    ("anneal", dict(ANNEAL_CFG, schedule={"delta0_ev": 1.0, "steps": 10**15}), EXIT_PHYSICS,
     "physics error: Unable to allocate"),
    ("sweep", dict(PARABOLA_CFG, range={"min": 0.0, "max": 1.0, "points": 10**15}),
     EXIT_PHYSICS, "physics error: Unable to allocate"),
    ("decohere", dict(TestDecohere.CFG, time_points=10**15), EXIT_PHYSICS,
     "physics error: Unable to allocate"),
    ("anneal", dict(ANNEAL_CFG, shots=10**30), EXIT_CONFIG,
     "config error: config.shots must be "),
    ("anneal", dict(ANNEAL_CFG, shots=annealing.MAX_SHOTS + 1), EXIT_CONFIG,
     "config error: config.shots must be "),
], ids=["sound-speed-tiny", "density-tiny", "sound-speed-huge", "gamma-huge", "v_sub-huge",
        "steps-beyond-memory", "points-beyond-memory", "time-points-beyond-memory",
        "shots-beyond-int64", "shots-beyond-cap"])
def test_extreme_valid_typed_value_exits_without_traceback(tmp_path, capsys, command, cfg,
                                                           code, error):
    # each is rejected before any output; a count beyond memory fails its first allocation
    out = tmp_path / "out"
    assert main([command, "--config", write_config(tmp_path, "c.json", cfg),
                 "--out", str(out)]) == code
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith(error)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.json"]


COMMAND_KEYS = {"derive": cli._DERIVE_KEYS, "sweep": cli._SWEEP_KEYS,
                "anneal": cli._ANNEAL_KEYS, "decohere": cli._DECOHERE_KEYS}


def problem_table(kind: str) -> dict:
    """The key table a problem object of ``kind`` is read through."""
    return {"kind": (partial(cli._choice, options=tuple(cli._PROBLEMS)), cli.REQUIRED),
            **cli._PROBLEMS[kind][2]}


def config_keys(table: dict):
    """Every key of ``table`` and of the objects nested in it."""
    for key, (reader, _) in table.items():
        yield key
        if reader is cli._problem:
            for kind in cli._PROBLEMS:
                yield from config_keys(problem_table(kind))
        elif getattr(reader, "func", None) is cli._nested:
            yield from config_keys(reader.keywords["table"])


@pytest.mark.parametrize("command", COMMAND_KEYS)
def test_readme_lists_every_config_key(command):
    text = README.read_text()
    start = text.index(f"### `{command}`")
    end = re.compile(r"^##", re.M).search(text, start + 1)
    section = text[start:end.start() if end else None]
    missing = sorted({key for key in config_keys(COMMAND_KEYS[command])
                      if not re.search(rf"[`\".]{re.escape(key)}[`\"]", section)})
    assert missing == []


# ---------------------------------------------------------------- fuzzing from the key tables

# small valid configs: anneals at n <= 8 sites and <= 100 steps
FUZZ_BASES = [
    ("derive", DERIVE_CFG),
    ("sweep", {"schema_version": 1, "parameter": "L",
               "range": {"min": 5.0, "max": 15.0, "points": 4}, "geometry": SWEEP_GEOMETRY}),
    ("anneal", {"schema_version": 1, "shots": 64,
                "problem": {"kind": "chain", "h": [0.1, -0.2, 0.3], "j": 0.5},
                "schedule": {"delta0_ev": 1.0, "t_total": 5.0, "steps": 50}}),
    ("anneal", {"schema_version": 1, "shots": 64,
                "problem": {"kind": "grid", "rows": 2, "cols": 2, "j": 0.5},
                "schedule": {"delta0_ev": 1.0, "t_total": 5.0, "steps": 50}}),
    ("anneal", {"schema_version": 1, "shots": 64,
                "problem": {"kind": "maxcut", "edges": [[0, 1], [1, 2, 2.0]]},
                "schedule": {"delta0_ev": 1.0, "t_total": 5.0, "steps": 50}}),
    ("anneal", {"schema_version": 1, "shots": 64,
                "problem": {"kind": "fg_grid", "rows": 1, "cols": 2,
                            "geometry": SWEEP_GEOMETRY, "v_cg": -1.7},
                "schedule": {"t_total": 100.0, "steps": 50, "profile": "exponential"}}),
    ("decohere", {"schema_version": 1, "delta_kelvin": [10.0, 100.0], "time_points": 20}),
]

# Keys whose valid values depend on other keys (or, for steps, whose default
# is a long anneal): valid configs keep them as in the base.
FIXED = {"range.min", "range.max", "problem.kind", "problem.rows", "problem.cols",
         "problem.n_sites", "problem.j", "schedule.delta0_ev", "schedule.steps",
         "geometry.coupling_ratio", "geometry.gate_oxide_nm",
         "problem.geometry.coupling_ratio", "problem.geometry.gate_oxide_nm"}


def key_entries(table: dict, cfg: dict, where: str = "config", path: tuple = ()):
    """(path, where, key, reader, default) of every key a config of ``table``
    can hold, for the problem kind that ``cfg`` has."""
    for key, (reader, default) in table.items():
        yield path + (key,), where, key, reader, default
        inner = f"{where}.{key}".removeprefix("config.")
        if reader is cli._problem:
            yield from key_entries(problem_table(cfg[key]["kind"]), cfg[key], inner,
                                   path + (key,))
        elif getattr(reader, "func", None) is cli._nested:
            yield from key_entries(reader.keywords["table"], cfg.get(key, {}), inner,
                                   path + (key,))


def is_object(reader) -> bool:
    return reader is cli._problem or getattr(reader, "func", None) is cli._nested


def holder(cfg: dict, path: tuple) -> dict:
    """The object of ``cfg`` that holds the key at ``path``, made if absent."""
    for step in path[:-1]:
        cfg = cfg.setdefault(step, {})
    return cfg


def rejects(reader, value) -> bool:
    try:
        reader(value, "fuzz")
    except cli.ConfigError:
        return True
    return False


JSON_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=3),
    st.sampled_from([10**400, -0.0, 5e-324, 1.7e308, 0, 1, 2, 1.0, -1, 24, 2**63]))
JSON_VALUES = st.one_of(JSON_SCALARS, st.lists(JSON_SCALARS, max_size=3),
                        st.lists(st.lists(JSON_SCALARS, max_size=4), max_size=2),
                        st.dictionaries(st.text(max_size=2), JSON_SCALARS, max_size=2))


def near_bounds(reader) -> list:
    """Values at and just beyond the bounds of ``reader``, and malformed edges."""
    kw = getattr(reader, "keywords", {})
    values = [[0.5], [[0, 0]], [[0, 1.7]], [[0, 1, True]], [[0, 1, -1.0]]]
    for bound in (kw.get("min_value"), kw.get("max_value"), kw.get("sites")):
        if bound is not None and math.isfinite(bound):
            values += [bound, bound - 1, bound + 1, math.nextafter(bound, -math.inf),
                       math.nextafter(bound, math.inf), [[0, bound]]]
    sizes = (kw.get("min_size", 0) - 1, kw.get("max_size", -1) + 1)
    values += [[0.5] * size for size in sizes]
    for option in kw.get("options", ()):
        values += [[option], str(option), float(option) if type(option) is int else 1]
    return values


@st.composite
def broken_configs(draw, command, base):
    """(config, what the error must name): ``base`` with one key broken."""
    entries = list(key_entries(COMMAND_KEYS[command], base))
    path, where, key, reader, default = draw(st.sampled_from(entries))
    cfg = json.loads(json.dumps(base))
    parent = holder(cfg, path)
    action = draw(st.sampled_from(["value"] * 3 + ["unknown"]
                                  + ["remove"] * (default is cli.REQUIRED)))
    if action == "remove":
        parent.pop(key, None)
    elif action == "unknown":
        parent[f"{key}_x"] = 1
        return cfg, f"unknown key(s) in {where}: {key}_x"
    else:
        candidates = st.one_of(JSON_VALUES, st.sampled_from(near_bounds(reader)))
        if is_object(reader):        # an object's own errors name its keys
            candidates = candidates.filter(lambda v: not isinstance(v, dict))
        parent[key] = draw(candidates.filter(partial(rejects, reader)))
    return cfg, f"{where}.{key}"


def tame_value(reader):
    """A strategy of values ``reader`` accepts, of moderate size."""
    func, kw = getattr(reader, "func", reader), getattr(reader, "keywords", {})
    if func is cli._number:
        lo, hi = kw.get("min_value", -1e3), min(kw.get("max_value", 1e3), 1e3)
        if kw.get("exclude_min"):
            lo = min(1e-3, 1e-3 * hi)
        return st.floats(max(lo, -1e3), hi, exclude_max=kw.get("exclude_max", False))
    if func is cli._count:
        lo = kw.get("min_value", 1)
        return st.integers(lo, min(kw.get("max_value", lo + 50), lo + 50))
    if func is cli._choice:
        return st.sampled_from(kw["options"])
    if func is cli._edges:
        edge = st.tuples(st.integers(0, 7), st.integers(1, 7), st.floats(1e-3, 1e3))
        return st.lists(edge.map(lambda e: [e[0], (e[0] + e[1]) % 8, e[2]]), min_size=1,
                        max_size=5)
    assert func is cli._numbers
    item = (st.integers(-5, 5) if kw.get("integral") else
            st.floats(1e-3, 1e3) if kw.get("positive") else st.floats(-1e3, 1e3))
    if kw.get("scalar"):            # a list must fit the other keys
        return item
    return st.lists(item, min_size=kw.get("min_size", 0),
                    max_size=min(kw.get("max_size", 6), 6))


@st.composite
def valid_configs(draw, command, base):
    """``base`` with each key kept, redrawn or dropped."""
    cfg = json.loads(json.dumps(base))
    for path, where, key, reader, default in key_entries(COMMAND_KEYS[command], base):
        if is_object(reader) or f"{where}.{key}".removeprefix("config.") in FIXED:
            continue
        droppable = default is not cli.REQUIRED
        action = draw(st.sampled_from(["keep", "redraw"] + ["drop"] * droppable))
        if action == "redraw":
            holder(cfg, path)[key] = draw(tame_value(reader))
        elif action == "drop":
            holder(cfg, path).pop(key, None)
    return cfg


def run_main(command: str, cfg: dict):
    """(exit code, stdout, stderr, {CSV name: (header, rows)}) of one run in a fresh
    directory."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "c.json")
        path.write_text(json.dumps(cfg))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([command, "--config", str(path), "--out", str(Path(tmp, "out"))])
        files = {p.name: read_rows(p) for p in Path(tmp).iterdir() if p != path}
    return code, out.getvalue(), err.getvalue(), files


FUZZ_IDS = [f"{command}-{base['problem']['kind']}" if command == "anneal" else command
            for command, base in FUZZ_BASES]


@pytest.mark.parametrize("command, base", FUZZ_BASES, ids=FUZZ_IDS)
@settings(derandomize=True, database=None, max_examples=18, deadline=None)
@given(data=st.data())
def test_fuzz_one_broken_key_is_config_error(command, base, data):
    cfg, name = data.draw(broken_configs(command, base))
    code, out, err, files = run_main(command, cfg)
    assert (code, out, files) == (EXIT_CONFIG, "", {}), err
    assert re.search(rf"{re.escape(name)}(?![\w.\[])", err), err


@pytest.mark.parametrize("command, base", FUZZ_BASES, ids=FUZZ_IDS)
@settings(derandomize=True, database=None, max_examples=12, deadline=None)
@given(data=st.data())
def test_fuzz_valid_config_runs_or_is_physics_error(command, base, data):
    cfg = data.draw(valid_configs(command, base))
    code, out, err, files = run_main(command, cfg)
    assert (code == EXIT_OK and err == ""
            or code == EXIT_PHYSICS and err.startswith("physics error: ")), err
    for name, (header, rows) in files.items():
        for k, column in enumerate(header):
            bad = [r[k] for r in rows if r[k].lower().lstrip("-") in ("nan", "inf")]
            assert column == "t_coh_s" or not bad, (name, column, bad)


# ---------------------------------------------------------------- fixed costs paid once

FLOATS = st.floats(allow_nan=False, allow_subnormal=True, width=64)


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(values=st.lists(st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                                        math.inf, -math.inf, 0.1, 1e16, -123.456]) | FLOATS,
                       max_size=40),
       picks=st.lists(st.integers(0, 39), max_size=60),
       ints=st.lists(st.integers(-2**63, 2**63 - 1), max_size=20),
       strings=st.lists(st.text(max_size=5), max_size=20))
def test_fields_format_each_float_as_its_repr(values, picks, ints, strings):
    # repeats drawn from the values themselves, so equal floats and the
    # zeros of both signs sit next to one another
    column = np.array(values + [values[k % len(values)] for k in picks if values], dtype=float)
    assert cli._fields(column) == [repr(float(x)) for x in column]
    assert cli._fields(column[::-1]) == [repr(float(x)) for x in column[::-1]]
    assert cli._fields(np.array(ints, dtype=np.int64)) == list(map(str, ints))
    assert cli._fields(strings) == strings


def test_each_call_in_one_process_writes_what_a_first_call_writes(tmp_path):
    # the parser and the oracle's set-up outlive a call; a later call
    # must not see what an earlier one left behind
    configs = {"anneal": ANNEAL_CFG, "sweep": PARABOLA_CFG, "derive": DERIVE_CFG,
               "decohere": dict(TestDecohere.CFG, delta_kelvin=[10.0, 10.0])}
    for command, cfg in configs.items():
        write_config(tmp_path, f"{command}.json", cfg)
    script = (
        "import contextlib, io, json, os, sys\n"
        "from fgqa.cli import main\n"
        "runs = []\n"
        "for command in sys.argv[2:]:\n"
        "    out = os.path.join(sys.argv[1], str(len(runs)))\n"
        "    os.mkdir(out)\n"
        "    text = io.StringIO()\n"
        "    with contextlib.redirect_stdout(text):\n"
        "        code = main([command, '--config', command + '.json',\n"
        "                     '--out', os.path.join(out, 'out')])\n"
        "    runs.append([code, text.getvalue(), {name: open(os.path.join(out, name)).read()\n"
        "                                         for name in sorted(os.listdir(out))}])\n"
        "print(json.dumps(runs))\n")
    env = dict(os.environ, PYTHONPATH=str(SRC))

    def run(*commands):
        out = tempfile.mkdtemp(dir=tmp_path)
        done = subprocess.run([sys.executable, "-c", script, out, *commands], cwd=tmp_path,
                              env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        return json.loads(done.stdout)

    sequence = ["anneal", "sweep", "derive", "decohere", "anneal"]
    together = run(*sequence)
    for command, got in zip(sequence, together):
        assert got == run(command)[0], command
    assert together[0][0] == EXIT_OK and together[0] == together[-1]


NAN_EXPONENT_ENV = {"gamma_ev": 2e159, "density_kg_m3": 1e300, "sound_speed_m_s": 1e10}
EXPONENT_KEYS = ("environment.gamma_ev, environment.sound_speed_m_s, "
                 "environment.density_kg_m3, environment.debye_temperature_k")


@pytest.mark.parametrize("command, cfg", [("derive", DERIVE_CFG),
                                          ("decohere", TestDecohere.CFG)])
def test_nan_renormalization_exponent_is_physics_error(tmp_path, capsys, command, cfg):
    # inf / inf: the exponent is checked before the report prints a line
    cfg = dict(cfg, environment=NAN_EXPONENT_ENV)
    out = tmp_path / "out.csv"
    assert main([command, "--config", write_config(tmp_path, "c.json", cfg),
                 "--out", str(out)]) == EXIT_PHYSICS
    assert capsys.readouterr() == (
        "", f"physics error: the renormalization exponent of {EXPONENT_KEYS} is NaN\n")
    assert not out.exists()


@pytest.mark.parametrize("command, cfg", [("derive", DERIVE_CFG),
                                          ("decohere", TestDecohere.CFG)])
@pytest.mark.parametrize("speed, error", [(1.7e308, "(34, 'Numerical result out of range')"),
                                          (1e-300, "float division by zero")])
def test_bath_arithmetic_error_names_quantity_and_keys(tmp_path, capsys, command, cfg, speed,
                                                       error):
    cfg = dict(cfg, environment={"sound_speed_m_s": speed})
    out = tmp_path / "out.csv"
    assert main([command, "--config", write_config(tmp_path, "c.json", cfg),
                 "--out", str(out)]) == EXIT_PHYSICS
    assert capsys.readouterr() == (
        "", f"physics error: {error} in the renormalization exponent of {EXPONENT_KEYS}\n")
    assert not out.exists()


def test_superohmic_rate_error_names_delta_key(tmp_path, capsys):
    # the exponent is finite, but the rate at a delta this large overflows
    cfg = dict(TestDecohere.CFG, delta_kelvin=[10.0, 1e200])
    path = write_config(tmp_path, "c.json", cfg)
    assert main(["decohere", "--config", path]) == EXIT_PHYSICS
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith(" in the superohmic rate of environment.gamma_ev, "
                                 "environment.sound_speed_m_s, environment.density_kg_m3, "
                                 "config.delta_kelvin\n")
