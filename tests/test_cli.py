import csv
import io
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from fgqa.cells import MaterialStack, build_network, cell_from_coupling_ratio
from fgqa.charging import parabola_family
from fgqa.cli import (EXIT_CONFIG, EXIT_OK, EXIT_PHYSICS, _write_csv, emit_config, main,
                      parse_config)
from fgqa.constants import convert
from fgqa.decoherence import PhononEnvironment, p_coherent, p_incoherent


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

    @pytest.mark.parametrize("argv", [["sweep", "--threads", "4"],
                                      ["decohere", "--seed", "1"]])
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
    ])
    def test_bad_key_is_config_error(self, tmp_path, capsys, key, value):
        cfg = dict(DERIVE_CFG, **{key: value})
        assert main(["derive", "--config",
                     write_config(tmp_path, "c.json", cfg)]) == EXIT_CONFIG
        assert f"config.{key} " in capsys.readouterr().err

    def test_delta_beyond_float_range_in_hz_is_config_error(self, tmp_path, capsys):
        cfg = dict(DERIVE_CFG, coherence_delta_kelvin=1e300)
        assert main(["derive", "--config",
                     write_config(tmp_path, "c.json", cfg)]) == EXIT_CONFIG
        assert capsys.readouterr() == ("", "config error: config.coherence_delta_kelvin "
                                           "holds 1e+300 K, whose frequency overflows the "
                                           "float range\n")


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
         "physics error: c_gate must be non-negative and finite"),
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


ANNEAL_CFG = {
    "schema_version": 1,
    "problem": {"kind": "maxcut",
                "edges": [[0, 1, 1.0], [1, 2, 1.0], [2, 3, 1.0], [0, 3, 1.0]]},
    "schedule": {"delta0_ev": 5.0, "t_total": 60.0, "steps": 1200,
                 "profile": "exponential"},
    "shots": 2048,
}


class TestAnneal:
    def test_four_cycle_reports_full_cut(self, tmp_path, capsys):
        code = main(["anneal", "--config", write_config(tmp_path, "c.json", ANNEAL_CFG),
                     "--seed", "7"])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "cut value of most frequent state: 4.0" in out
        assert "ground-state shot frequency" in out

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

    def test_fixed_seed_is_byte_identical(self, tmp_path, capsys):
        path = write_config(tmp_path, "c.json", ANNEAL_CFG)
        for prefix in ("one", "two"):
            assert main(["anneal", "--config", path, "--seed", "11",
                         "--out", str(tmp_path / prefix)]) == EXIT_OK
        for suffix in ("_histogram.csv", "_trace.csv"):
            assert (tmp_path / f"one{suffix}").read_bytes() == \
                (tmp_path / f"two{suffix}").read_bytes()

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
    ])
    def test_malformed_problem_key_is_config_error(self, tmp_path, capsys, problem, key):
        cfg = dict(ANNEAL_CFG, problem=problem)
        assert main(["anneal", "--config",
                     write_config(tmp_path, "c.json", cfg)]) == EXIT_CONFIG
        assert f"problem.{key} " in capsys.readouterr().err

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
    """What csv.writer wrote for the same rows, one field formatter per cell."""
    def fmt(x):
        return repr(float(x)) if isinstance(x, (float, np.floating)) else str(x)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([fmt(x) for x in row])
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
    # delta * t overflows, and the coherent part cos(inf) is NaN
    cfg = {"schema_version": 1, "delta_kelvin": [10.0, 50.0], "time_points": 7,
           "environment": {"alpha": 1e-310}}
    out = tmp_path / "pt.csv"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["decohere", "--config", write_config(tmp_path, "c.json", cfg),
                     "--out", str(out)]) == EXIT_PHYSICS
    assert capsys.readouterr().err == "physics error: column p_coh holds a NaN\n"
    assert [str(w.message) for w in caught] == []
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
