"""Command-line front end: device datasheets, sweeps, annealing runs, decoherence.

Four subcommands, all driven by a JSON config (see README for the
schemas) and all deterministic for a fixed config and seed:

    fgqa derive   --config cfg.json [--out table.csv]
    fgqa sweep    --config cfg.json --out sweep.csv
    fgqa anneal   --config cfg.json [--out prefix] [--seed S]
    fgqa decohere --config cfg.json [--out pt.csv]

Every CSV starts with a commented header recording the subcommand, the
SHA-256 of the canonical config, and the column names, so outputs are
reproducible byte for byte.  Exit codes: 0 success, 2 configuration
error, 3 physics/numerics precondition failure.

Each command evaluates its formulas once, on arrays: ``sweep`` passes its
whole grid as one array-valued geometry (or gate voltage) to
:func:`fgqa.annealing.device_parameters`, ``derive`` does the same with
its list of lengths, the parabola sweep is one
:func:`fgqa.charging.parabola_family` call, and ``decohere`` evaluates
the time traces of all its deltas in one call per signal part.  CSVs
are written column by column.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys

import numpy as np

from . import annealing, charging, decoherence
from .cells import (BiasSet, CellGeometry, MaterialStack, build_network,
                    cell_from_coupling_ratio)
from .constants import convert
from .tunneling import BarrierCollapseError, TunnelBarrier, classify

__all__ = ["main", "ConfigError", "parse_config", "emit_config"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_PHYSICS = 3

SCHEMA_VERSION = 1


class ConfigError(Exception):
    """A configuration file failed validation."""


# ---------------------------------------------------------------- config

def parse_config(text: str) -> dict:
    try:
        cfg = json.loads(text)
    except ValueError as exc:           # also integers beyond the digit limit
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    return cfg


def emit_config(cfg: dict) -> str:
    """Canonical serialisation; parse_config(emit_config(c)) == c."""
    return json.dumps(cfg, sort_keys=True, separators=(",", ":"))


def config_hash(cfg: dict) -> str:
    return hashlib.sha256(emit_config(cfg).encode()).hexdigest()


def _load(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = parse_config(fh.read())
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    version = cfg.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ConfigError(f"schema_version must be {SCHEMA_VERSION}, got {version!r}")
    return cfg


def _check_keys(obj: dict, allowed: set[str], where: str) -> None:
    unknown = sorted(set(obj) - allowed)
    if unknown:
        raise ConfigError(f"unknown key(s) in {where}: {', '.join(unknown)}")


def _number(obj: dict, key: str, where: str, default=None, required=False,
            positive=False):
    """A number; a sweep grid (an array) under ``key`` is checked point by
    point and returned as it is."""
    if key not in obj:
        if required:
            raise ConfigError(f"missing required key {key!r} in {where}")
        return default
    v = obj[key]
    if isinstance(v, np.ndarray):
        bad = ~np.isfinite(v) | (positive & (v <= 0))
        if not bad.any():
            return v
        v = v[bad][0].item()            # the first point the checks below reject
    if not _is_number(v):
        raise ConfigError(f"{where}.{key} must be a number, got {v!r}")
    if positive and v <= 0:
        raise ConfigError(f"{where}.{key} must be positive, got {v}")
    return float(v)


def _is_number(v, positive=False) -> bool:
    """Not a bool, NaN, Infinity (json.loads accepts the last two) or an
    integer beyond the float range."""
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        return False
    try:
        return math.isfinite(float(v)) and (v > 0 or not positive)
    except OverflowError:
        return False


def _numbers(obj: dict, key: str, where: str, default, scalar: bool, positive=False):
    """A list of numbers, or with ``scalar`` also a single number."""
    v = obj.get(key, default)
    if scalar and _is_number(v, positive):
        return float(v)
    if not isinstance(v, list) or not all(_is_number(x, positive) for x in v):
        kind = "positive numbers" if positive else "numbers"
        kind = f"a number or a list of {kind}" if scalar else f"a list of {kind}"
        raise ConfigError(f"{where}.{key} must be {kind}, got {v!r}")
    return [float(x) for x in v]


def _count(obj: dict, key: str, where: str, default=None, required=False,
           minimum=1) -> int | None:
    """An integer of at least ``minimum``."""
    if key not in obj:
        if required:
            raise ConfigError(f"missing required key {key!r} in {where}")
        return default
    v = obj[key]
    if not isinstance(v, int) or isinstance(v, bool) or v < minimum:
        kind = "a positive integer" if minimum == 1 else f"an integer >= {minimum}"
        raise ConfigError(f"{where}.{key} must be {kind}, got {v!r}")
    return v


def _object(obj: dict, key: str, where: str, allowed: set[str] | None = None,
            required=False) -> dict:
    """The JSON object under ``key`` (named ``where``); {} when absent."""
    if required and key not in obj:
        raise ConfigError(f"missing required object {where!r}")
    v = obj.get(key, {})
    if not isinstance(v, dict):
        raise ConfigError(f"{where} must be an object")
    if allowed is not None:
        _check_keys(v, allowed, where)
    return v


def _material(cfg: dict, where: str = "material") -> MaterialStack:
    obj = _object(cfg, "material", where, {"eps_ox_f_per_nm", "eps_gate_f_per_nm",
                                           "barrier_ev", "m_ox", "m_si", "doping_cm3"})
    defaults = MaterialStack()
    try:
        return MaterialStack(
            eps_ox=_number(obj, "eps_ox_f_per_nm", where, defaults.eps_ox, positive=True),
            eps_gate=_number(obj, "eps_gate_f_per_nm", where, None, positive=True),
            barrier_ev=_number(obj, "barrier_ev", where, defaults.barrier_ev, positive=True),
            m_ox=_number(obj, "m_ox", where, defaults.m_ox, positive=True),
            m_si=_number(obj, "m_si", where, defaults.m_si, positive=True),
            doping_cm3=_number(obj, "doping_cm3", where, defaults.doping_cm3, positive=True),
        )
    except ValueError as exc:
        raise ConfigError(f"invalid {where}: {exc}") from exc


def _geometry(obj: dict, mat: MaterialStack, where: str = "geometry") -> CellGeometry:
    _check_keys(obj, {"length_nm", "width_nm", "height_nm", "tunnel_oxide_nm",
                      "gate_oxide_nm", "coupling_ratio", "gap_nm"}, where)
    length = _number(obj, "length_nm", where, required=True, positive=True)
    height = _number(obj, "height_nm", where, required=True, positive=True)
    d_ox = _number(obj, "tunnel_oxide_nm", where, required=True, positive=True)
    width = _number(obj, "width_nm", where, None, positive=True)
    gap = _number(obj, "gap_nm", where, None, positive=True)
    has_cr = "coupling_ratio" in obj
    has_dg = "gate_oxide_nm" in obj
    if has_cr == has_dg:
        raise ConfigError(f"{where} needs exactly one of coupling_ratio or gate_oxide_nm")
    try:
        if has_cr:
            cr = _number(obj, "coupling_ratio", where, required=True)
            return cell_from_coupling_ratio(length, height, d_ox, cr,
                                            width=width, gap=gap, mat=mat)
        d_gate = _number(obj, "gate_oxide_nm", where, required=True, positive=True)
        return CellGeometry(length=length, width=length if width is None else width,
                            height=height, d_ox=d_ox, d_gate=d_gate, gap=gap)
    except ValueError as exc:
        raise ConfigError(f"invalid {where}: {exc}") from exc


def _environment(cfg: dict, where: str = "environment") -> decoherence.PhononEnvironment:
    obj = _object(cfg, "environment", where, {"gamma_ev", "sound_speed_m_s", "density_kg_m3",
                                              "debye_temperature_k", "alpha"})
    d = decoherence.PhononEnvironment()
    try:
        return decoherence.PhononEnvironment(
            coupling_ev=_number(obj, "gamma_ev", where, d.coupling_ev, positive=True),
            sound_speed=_number(obj, "sound_speed_m_s", where, d.sound_speed, positive=True),
            density=_number(obj, "density_kg_m3", where, d.density, positive=True),
            debye_temperature=_number(obj, "debye_temperature_k", where,
                                      d.debye_temperature, positive=True),
            alpha=_number(obj, "alpha", where, d.alpha, positive=True),
        )
    except ValueError as exc:
        raise ConfigError(f"invalid {where}: {exc}") from exc


def _kelvin_to_hz(kelvin, key: str):
    """``kelvin`` (a positive number or array) converted to Hz; a value
    whose frequency overflows the float range or underflows to 0 Hz is an
    error naming ``key``."""
    hz = convert(kelvin, "K", "Hz")
    flat = np.ravel(hz)
    bad = ~(np.isfinite(flat) & (flat > 0.0))
    if bad.any():
        k = np.argmax(bad)
        fate = "underflows to 0 Hz" if flat[k] == 0.0 else "overflows the float range"
        raise ConfigError(f"config.{key} holds {np.ravel(kelvin)[k].item()!r} K, "
                          f"whose frequency {fate}")
    return hz


# ---------------------------------------------------------------- output

def _fmt(x) -> str:
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    return str(x)


def _fields(column) -> list[str]:
    """The CSV fields of one column (an array or any sequence)."""
    if isinstance(column, np.ndarray) and column.dtype.kind in "biuf":
        return list(map(str, column.tolist()))      # str of a Python float is its repr
    return list(map(_fmt, column))


def _write_csv(path: str | None, command: str, cfg: dict, columns: list[str],
               data: list) -> None:
    """Write a CSV whose ``data`` holds one equal-length sequence per column.

    Fields are not quoted: no column name or value of any command holds a
    comma, a quote or a line break.  A NaN is never a result, so a numeric
    column holding one is refused (exit 3); an infinity is written, as
    ``t_coh_s`` of a cell that does not tunnel is on purpose.
    """
    for name, column in zip(columns, data):
        floats = isinstance(column, np.ndarray) and column.dtype.kind == "f"
        if floats and np.isnan(column).any():
            raise ValueError(f"column {name} holds a NaN")
    lines = [f"# fgqa {command}", f"# config sha256: {config_hash(cfg)}",
             f"# columns: {','.join(columns)}", ",".join(columns),
             *map(",".join, zip(*map(_fields, data)))]
    text = "\n".join(lines) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        try:
            with open(path, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        except OSError as exc:
            raise ConfigError(f"cannot write output {path!r}: {exc}") from exc


def _finite(name: str, values):
    """The ``values`` of column ``name``, which must not have overflowed."""
    if not np.isfinite(values).all():
        raise ValueError(f"column {name} overflows the float range")
    return values


# ---------------------------------------------------------------- derive

_DATASHEET_COLUMNS = ["J_K", "U_h_K", "U_w_eV", "tunnel_Hz"]


def _datasheet(geom: CellGeometry, mat: MaterialStack, v_cg) -> tuple:
    """The ``_DATASHEET_COLUMNS`` of a cell geometry: floats, or arrays over
    the points of an array-valued geometry or ``v_cg``."""
    params, amplitude = annealing.device_parameters(geom, mat, v_cg=v_cg)
    sheet = (convert(params.j[0], "eV", "K"), convert(params.u_h, "eV", "K"), params.u_w,
             amplitude)
    return tuple(map(_finite, _DATASHEET_COLUMNS, sheet))


def cmd_derive(cfg: dict, out: str | None) -> int:
    _check_keys(cfg, {"schema_version", "lengths_nm", "tunnel_oxide_nm", "fg_height_nm",
                      "coupling_ratio", "material", "v_cg", "normally_on_threshold_hz",
                      "environment", "coherence_delta_kelvin"}, "config")
    lengths = np.array(_numbers(cfg, "lengths_nm", "config", [], scalar=False,
                                positive=True))
    height = _number(cfg, "fg_height_nm", "config", required=True, positive=True)
    d_ox = _number(cfg, "tunnel_oxide_nm", "config", required=True, positive=True)
    cr = _number(cfg, "coupling_ratio", "config", required=True)
    v_cg = _number(cfg, "v_cg", "config", 0.0)
    threshold = _number(cfg, "normally_on_threshold_hz", "config", 1e3, positive=True)
    delta_k = _number(cfg, "coherence_delta_kelvin", "config", positive=True)
    delta_hz = None if delta_k is None else _kelvin_to_hz(delta_k, "coherence_delta_kelvin")
    mat = _material(cfg)
    env = _environment(cfg)
    try:
        geom = cell_from_coupling_ratio(lengths, height, d_ox, cr, mat=mat)
    except ValueError as exc:
        raise ConfigError(f"config.coupling_ratio is invalid: {exc}") from exc
    exponent = decoherence.renormalization_exponent(env)
    sheet = _datasheet(geom, mat, v_cg)
    devices = classify(geom, TunnelBarrier.from_stack(geom, mat), threshold)
    # without a configured delta, each length's own tunnel amplitude
    delta_hz = sheet[3] if delta_hz is None else np.full(lengths.shape, delta_hz)
    t_coh = np.full(lengths.shape, math.inf)
    tunnels = delta_hz > 0
    if tunnels.any():
        t_coh[tunnels] = decoherence.coherence_time(delta_hz[tunnels], env.alpha)
    _write_csv(out, "derive", cfg, ["L_nm", *_DATASHEET_COLUMNS, "device_class",
                                    "renorm_exponent", "t_coh_s"],
               [lengths, *sheet, [d.value for d in devices],
                np.full(lengths.shape, exponent), t_coh])
    return EXIT_OK


# ---------------------------------------------------------------- sweep

# Swept parameter -> (geometry key it sets, first CSV column).
_SWEEP = {"L": ("length_nm", "L_nm"), "d_ox": ("tunnel_oxide_nm", "d_ox_nm"),
          "Z_FG": ("height_nm", "z_fg_nm"), "V_CG": (None, "v_cg_V"),
          "V_CG1-parabola": (None, "V_CG1_V")}


def _sweep_grid(cfg: dict) -> np.ndarray:
    rng = _object(cfg, "range", "range", {"min", "max", "points"}, required=True)
    lo = _number(rng, "min", "range", required=True)
    hi = _number(rng, "max", "range", required=True)
    pts = _count(rng, "points", "range", required=True, minimum=2)
    if not lo < hi:
        raise ConfigError(f"range.min must be below range.max, got [{lo}, {hi}]")
    if not math.isfinite(hi - lo):      # linspace would make inf and nan points
        raise ConfigError(f"range [{lo}, {hi}] is wider than the float range")
    return np.linspace(lo, hi, pts)


def cmd_sweep(cfg: dict, out: str | None) -> int:
    _check_keys(cfg, {"schema_version", "parameter", "range", "geometry", "material", "v_cg",
                      "n_values", "cell", "v_gate2", "v_sub", "tie_third"}, "config")
    parameter = cfg.get("parameter")
    if parameter not in _SWEEP:
        raise ConfigError(f"parameter must be one of {tuple(_SWEEP)}, got {parameter!r}")
    grid = _sweep_grid(cfg)
    mat = _material(cfg)
    geo_cfg = _object(cfg, "geometry", "geometry", required=True)
    key, column = _SWEEP[parameter]

    if parameter == "V_CG1-parabola":
        n_values = _numbers(cfg, "n_values", "config", [-2, -1, 0, 1, 2], scalar=False)
        if not n_values or not all(n.is_integer() for n in n_values):
            raise ConfigError(f"config.n_values must be a non-empty list of integers, "
                              f"got {cfg['n_values']!r}")
        n_values = [int(n) for n in n_values]
        cell = _count(cfg, "cell", "config", 1)
        if cell > 3:
            raise ConfigError(f"config.cell must be 1, 2 or 3, got {cell}")
        tie_third = cfg.get("tie_third", True)
        if not isinstance(tie_third, bool):
            raise ConfigError(f"config.tie_third must be true or false, got {tie_third!r}")
        v_grid, curves = charging.parabola_family(
            build_network(_geometry(geo_cfg, mat), mat, 3), grid, n_values, cell=cell - 1,
            v_gate2=_number(cfg, "v_gate2", "config", 0.0),
            v_sub=_number(cfg, "v_sub", "config", 0.0), tie_third=tie_third)
        k = len(n_values)           # one row per (voltage, n), n varying fastest
        _write_csv(out, "sweep", cfg, [column, "n", "U_eV"],
                   [np.repeat(v_grid, k), np.tile(n_values, v_grid.size),
                    _finite("U_eV", np.column_stack([curves[n] for n in n_values]).ravel())])
        return EXIT_OK

    keep = slice(3, 4) if parameter == "V_CG" else slice(0, 4)   # V_CG: amplitude only
    v_cg = _number(cfg, "v_cg", "config", 0.0)
    base = dict(geo_cfg)
    if parameter == "L":                # width and gap track L in a size sweep
        base.pop("width_nm", None)
        base.pop("gap_nm", None)
    geom = _geometry(base if key is None else {**base, key: grid}, mat)
    sheet = _datasheet(geom, mat, grid if parameter == "V_CG" else v_cg)
    _write_csv(out, "sweep", cfg, [column, *_DATASHEET_COLUMNS[keep]], [grid, *sheet[keep]])
    return EXIT_OK


# ---------------------------------------------------------------- anneal

def _build_problem(cfg: dict) -> annealing.IsingModel:
    prob = _object(cfg, "problem", "problem", required=True)
    kind = prob.get("kind")
    if kind in ("grid", "fg_grid"):
        rows = _count(prob, "rows", "problem", required=True)
        cols = _count(prob, "cols", "problem", required=True)
        if rows * cols > annealing.MAX_SITES:
            raise ConfigError(f"problem.rows * problem.cols must be at most "
                              f"{annealing.MAX_SITES} sites, got {rows * cols}")
    if kind == "chain":
        _check_keys(prob, {"kind", "h", "j"}, "problem")
        h = _numbers(prob, "h", "problem", [], scalar=False)
        j = _numbers(prob, "j", "problem", [], scalar=True)
        if not 1 <= len(h) <= annealing.MAX_SITES:
            raise ConfigError(f"problem.h needs 1 to {annealing.MAX_SITES} sites, got {len(h)}")
        if isinstance(j, list) and len(j) not in (1, len(h) - 1):
            raise ConfigError(f"problem.j must be a number or a list of 1 or {len(h) - 1} "
                              f"numbers, got {len(j)}")
        return annealing.chain_model(h, j)
    if kind == "grid":
        _check_keys(prob, {"kind", "rows", "cols", "h", "j"}, "problem")
        h = _numbers(prob, "h", "problem", 0.0, scalar=True)
        if isinstance(h, list) and len(h) != rows * cols:
            raise ConfigError(f"problem.h must be a number or a list of {rows * cols} "
                              f"numbers, got {len(h)}")
        return annealing.grid_model(rows, cols, h, _number(prob, "j", "problem", required=True))
    if kind == "maxcut":
        _check_keys(prob, {"kind", "edges", "n_sites"}, "problem")
        edges = prob.get("edges")
        if not isinstance(edges, list) or not edges:
            raise ConfigError("problem.edges must be a non-empty list")
        try:
            return annealing.maxcut_to_ising(edges, _count(prob, "n_sites", "problem"))
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"invalid problem.edges: {exc}") from exc
    if kind == "fg_grid":
        _check_keys(prob, {"kind", "rows", "cols", "geometry", "material",
                           "v_cg", "n_g"}, "problem")
        mat = _material(prob, "problem.material")
        geom = _geometry(_object(prob, "geometry", "problem.geometry", required=True), mat,
                         "problem.geometry")
        return annealing.fg_grid_model(
            geom, mat, BiasSet.uniform(3), rows, cols,
            n_g=_number(prob, "n_g", "problem", 0.0),
            v_cg=_number(prob, "v_cg", "problem", 0.0))
    raise ConfigError(f"problem.kind must be chain, grid, maxcut or fg_grid, got {kind!r}")


def _build_schedule(cfg: dict, model: annealing.IsingModel) -> annealing.Schedule:
    sched = _object(cfg, "schedule", "schedule", {"delta0_ev", "profile", "t_total", "steps",
                                                  "floor_ratio", "time_unit"})
    delta0 = _number(sched, "delta0_ev", "schedule", model.delta0)
    if delta0 is None:
        raise ConfigError("schedule.delta0_ev is required for this problem kind")
    steps = _count(sched, "steps", "schedule", 2000)
    try:
        return annealing.Schedule(
            delta0=delta0,
            t_total=_number(sched, "t_total", "schedule", 200.0, positive=True),
            steps=steps,
            profile=sched.get("profile", "linear"),
            floor_ratio=_number(sched, "floor_ratio", "schedule", 1e-6, positive=True),
            time_unit=sched.get("time_unit", "natural"))
    except ValueError as exc:
        raise ConfigError(f"invalid schedule: {exc}") from exc


def cmd_anneal(cfg: dict, out: str | None, seed: int) -> int:
    _check_keys(cfg, {"schema_version", "problem", "schedule", "shots"}, "config")
    model = _build_problem(cfg)
    schedule = _build_schedule(cfg, model)
    shots = _count(cfg, "shots", "config", 4096)

    record_every = max(1, schedule.steps // 200)
    result = annealing.evolve(model, schedule, record_every=record_every)
    histogram = annealing.measure(result.psi, shots, seed)

    diag = annealing.diagonal_energies(model)
    if out is not None:
        ranked = sorted(histogram.items(), key=lambda kv: (-kv[1], kv[0]))
        states = [state for state, _ in ranked]
        counts = np.array([count for _, count in ranked])
        _write_csv(f"{out}_histogram.csv", "anneal", cfg,
                   ["state", "count", "frequency", "energy_eV"],
                   [states, counts, counts / shots,
                    diag[[int(state[::-1], 2) for state in states]]])
        _write_csv(f"{out}_trace.csv", "anneal", cfg,
                   ["t", "delta_eV", "energy_eV"],
                   [result.times, result.deltas, result.energies])

    best_state, best_count = max(histogram.items(), key=lambda kv: (kv[1], kv[0]))
    best_energy = float(diag[int(best_state[::-1], 2)])
    print(f"sites: {model.n_sites}  topology: {model.topology}")
    print(f"most frequent state: {best_state}  ({best_count}/{shots} shots, "
          f"energy {best_energy!r} eV)")
    if model.n_sites <= annealing.MAX_BRUTE_FORCE_SITES:
        ground = annealing.brute_force_ground_state(model)
        in_ground = sum(histogram.get(s, 0) for s in ground.states)
        print(f"exact ground energy: {ground.energy!r} eV over {len(ground.states)} "
              f"state(s); ground-state shot frequency: {in_ground / shots:.4f}")
    if not np.any(model.h) and model.couplings:
        total = sum(w for (_, _, w) in model.couplings)
        cut = annealing.cut_value(model, best_state)
        print(f"cut value of most frequent state: {cut!r} (total edge weight {total!r})")
    return EXIT_OK


# ---------------------------------------------------------------- decohere

def cmd_decohere(cfg: dict, out: str | None) -> int:
    _check_keys(cfg, {"schema_version", "environment", "delta_kelvin", "time_points",
                      "max_time_factor"}, "config")
    env = _environment(cfg)
    deltas_k = _numbers(cfg, "delta_kelvin", "config", [10.0, 100.0], scalar=False,
                        positive=True)
    if not deltas_k:
        raise ConfigError("config.delta_kelvin must not be empty")
    points = _count(cfg, "time_points", "config", 200, minimum=2)
    factor = _number(cfg, "max_time_factor", "config", 3.0, positive=True)
    deltas_hz = _kelvin_to_hz(np.array(deltas_k), "delta_kelvin")
    t_coh = decoherence.coherence_time(deltas_hz, env.alpha)
    overflow = ~np.isfinite(factor * t_coh)
    if overflow.any():              # an infinite t_coh is the delta's fault
        key = "delta_kelvin" if np.isinf(t_coh[overflow][0]) else "max_time_factor"
        raise ConfigError(f"config.{key} puts the time grid of "
                          f"{deltas_k[np.argmax(overflow)]!r} K beyond the float range")

    exponent = decoherence.renormalization_exponent(env)
    print(f"renormalization exponent: {exponent!r}")
    print(f"ohmic alpha: {env.alpha!r}")
    for dk, delta_hz, tc in zip(deltas_k, deltas_hz.tolist(), t_coh.tolist()):
        rate = decoherence.superohmic_rate(delta_hz, env)
        print(f"delta = {dk!r} K = {delta_hz!r} Hz: "
              f"t_coh = {tc!r} s, superohmic rate at bare delta = {rate!r} 1/s, "
              f"dressed delta = {decoherence.renormalized_tunneling(delta_hz, env)!r} Hz")
    # one row of times per delta, each from 0 to factor * t_coh of its delta
    t = np.linspace(0.0, factor * t_coh, points, axis=1)
    pc = decoherence.p_coherent(t, deltas_hz[:, None], env.alpha)
    pi = decoherence.p_incoherent(t, deltas_hz[:, None], env.alpha)
    if out is not None:
        _write_csv(out, "decohere", cfg, ["delta_K", "t_s", "p_coh", "p_inc", "p_total"],
                   [np.repeat(deltas_k, points), t.ravel(), pc.ravel(), pi.ravel(),
                    (pc + pi).ravel()])
    return EXIT_OK


# ---------------------------------------------------------------- entry

def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="fgqa",
                                     description="floating-gate quantum-annealer toolkit")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (("derive", "device datasheet, one row per cell size"),
                            ("sweep", "parameter sweep to CSV"),
                            ("anneal", "state-vector annealing run"),
                            ("decohere", "phonon decoherence report")):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="JSON config path")
        p.add_argument("--out", default=None, help="output CSV path (anneal: prefix)")
        if name == "anneal":
            p.add_argument("--seed", type=int, default=0, help="measurement seed")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        cfg = _load(args.config)
        # Overflow and invalid values are caught by the checks on the
        # results (exit 2 or 3), not printed as numpy warnings.
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            if args.command == "anneal":
                return cmd_anneal(cfg, args.out, args.seed)
            commands = {"derive": cmd_derive, "sweep": cmd_sweep, "decohere": cmd_decohere}
            return commands[args.command](cfg, args.out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (BarrierCollapseError, ValueError) as exc:
        print(f"physics error: {exc}", file=sys.stderr)
        return EXIT_PHYSICS


if __name__ == "__main__":
    sys.exit(main())
