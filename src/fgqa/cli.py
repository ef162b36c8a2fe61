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
error, 3 physics/numerics precondition failure, which includes a float
overflow and a grid or step count beyond memory.

Each command evaluates its formulas once, on arrays: ``sweep`` passes its
whole grid as one array-valued geometry (or gate voltage) to
:func:`fgqa.annealing.device_parameters`, ``derive`` does the same with
its list of lengths, the parabola sweep is one
:func:`fgqa.charging.parabola_family` call, and ``decohere`` evaluates
the time traces of all its deltas in one call per signal part.  CSVs
are written column by column, and a float column formats each distinct
value once.  What does not depend on the call, the argument parser, is
built once per process, so a caller that runs many commands in one
process pays for it once.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from functools import cache, partial

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
            return parse_config(fh.read())
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc


# Each config object has a key table, key -> (reader, default).  A reader is
# called as reader(value, dotted name); one with bounds is a functools.partial
# whose keywords name them as hypothesis does.  An absent key reads its
# default, unless that is REQUIRED or OMIT (left out: a dataclass default applies).
REQUIRED = object()
OMIT = object()


def _read(obj: dict, table: dict, where: str) -> dict:
    """The values of ``obj``, the config object named ``where``, by key."""
    unknown = sorted(set(obj) - set(table))
    if unknown:
        raise ConfigError(f"unknown key(s) in {where}: {', '.join(unknown)}")
    values = {}
    for key, (reader, default) in table.items():
        name = f"{where}.{key}"
        if key in obj:
            values[key] = reader(obj[key], name)
        elif default is REQUIRED:
            raise ConfigError(f"{name} is required")
        elif default is not OMIT:
            values[key] = reader(default, name)
    return values


def _is_number(v, positive=False) -> bool:
    """Not a bool, NaN, Infinity (json.loads accepts the last two) or an
    integer beyond the float range."""
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        return False
    try:
        return math.isfinite(float(v)) and (v > 0 or not positive)
    except OverflowError:
        return False


def _number(value, name, min_value=-math.inf, max_value=math.inf, exclude_min=False,
            exclude_max=False) -> float:
    """A number within the bounds."""
    if not _is_number(value):
        raise ConfigError(f"{name} must be a number, got {value!r}")
    if ((value <= min_value if exclude_min else value < min_value)
            or (value >= max_value if exclude_max else value > max_value)):
        interval = (f"{'(' if exclude_min else '['}{min_value:g}, {max_value:g}"
                    f"{')' if exclude_max or max_value == math.inf else ']'}")
        bounds = "positive" if interval == "(0, inf)" else f"in {interval}"
        raise ConfigError(f"{name} must be {bounds}, got {value}")
    return float(value)


_positive = partial(_number, min_value=0.0, exclude_min=True)
_ratio = partial(_number, min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True)


def _count(value, name, min_value=1, max_value=math.inf) -> int:
    """An integer from ``min_value`` to ``max_value``."""
    if type(value) is not int or not min_value <= value <= max_value:    # bool is not int
        kind = (f"an integer from {min_value} to {max_value}" if max_value < math.inf
                else "a positive integer" if min_value == 1 else f"an integer >= {min_value}")
        raise ConfigError(f"{name} must be {kind}, got {value!r}")
    return value


def _numbers(value, name, scalar=False, positive=False, integral=False, min_size=0,
             max_size=math.inf):
    """A list of ``min_size`` to ``max_size`` numbers (integers with
    ``integral``), or with ``scalar`` also a single number."""
    if scalar and _is_number(value, positive):
        return float(value)
    if (not isinstance(value, list) or not min_size <= len(value) <= max_size
            or not all(_is_number(x, positive) and (not integral or float(x).is_integer())
                       for x in value)):
        size = (f"{min_size} to {max_size} " if max_size < math.inf
                else f"at least {min_size} " if min_size else "")
        kind = f"{size}{'positive ' * positive}{'integers' if integral else 'numbers'}"
        kind = f"a number or a list of {kind}" if scalar else f"a list of {kind}"
        raise ConfigError(f"{name} must be {kind}, got {value!r}")
    return [int(x) if integral else x for x in map(float, value)]


def _choice(value, name, options):
    """One of ``options``, and of its type: true is not 1, nor 1.0."""
    if not any(type(value) is type(o) and value == o for o in options):
        raise ConfigError(f"{name} must be one of {', '.join(map(json.dumps, options))}, "
                          f"got {value!r}")
    return value


def _nested(value, name, table, build=dict):
    """The object ``value`` read through its key ``table``, passed to ``build``.
    Its keys are named under ``name`` less the ``config.`` of the top level."""
    if not isinstance(value, dict):
        raise ConfigError(f"{name} must be an object")
    return build(_read(value, table, name.removeprefix("config.")))


def _edges(value, name, sites):
    """A non-empty list of [i, j] or [i, j, weight] edges; ``maxcut_to_ising``
    rejects self-loops and weights that are not positive."""
    if not (isinstance(value, list) and value and all(
            isinstance(e, list) and len(e) in (2, 3) and all(map(_is_number, e[2:]))
            and all(type(v) is int and 0 <= v < sites for v in e[:2]) for e in value)):
        raise ConfigError(f"{name} must be a non-empty list of edges [i, j] or [i, j, weight] "
                          f"with sites below {sites}, got {value!r}")
    return value


def _dataclass(cls, fields: dict) -> tuple:
    """The table entry of an optional object whose keys, each a positive
    number, set the ``fields`` of ``cls``; an absent key keeps its default."""
    return (partial(_nested, table=dict.fromkeys(fields, (_positive, OMIT)),
                    build=lambda v: cls(**{fields[k]: x for k, x in v.items()})), {})


_VERSION = (partial(_choice, options=(SCHEMA_VERSION,)), REQUIRED)
_MATERIAL = _dataclass(MaterialStack, {
    "eps_ox_f_per_nm": "eps_ox", "eps_gate_f_per_nm": "eps_gate", "barrier_ev": "barrier_ev",
    "m_ox": "m_ox", "m_si": "m_si", "doping_cm3": "doping_cm3"})
_ENVIRONMENT = _dataclass(decoherence.PhononEnvironment, {
    "gamma_ev": "coupling_ev", "sound_speed_m_s": "sound_speed", "density_kg_m3": "density",
    "debye_temperature_k": "debye_temperature", "alpha": "alpha"})
_GEOMETRY_KEYS = {"length_nm": (_positive, REQUIRED), "width_nm": (_positive, OMIT),
                  "height_nm": (_positive, REQUIRED), "tunnel_oxide_nm": (_positive, REQUIRED),
                  "gate_oxide_nm": (_positive, OMIT), "coupling_ratio": (_ratio, OMIT),
                  "gap_nm": (_positive, OMIT)}
_GEOMETRY = (partial(_nested, table=_GEOMETRY_KEYS), REQUIRED)


def _geometry(g: dict, mat: MaterialStack, where: str = "geometry") -> CellGeometry:
    """The cell of the values ``g`` of a geometry object named ``where``."""
    if ("coupling_ratio" in g) == ("gate_oxide_nm" in g):
        raise ConfigError(f"{where} needs exactly one of coupling_ratio or gate_oxide_nm")
    cell = dict(length=g["length_nm"], width=g.get("width_nm", g["length_nm"]),
                height=g["height_nm"], d_ox=g["tunnel_oxide_nm"], gap=g.get("gap_nm"))
    try:
        if "coupling_ratio" in g:
            return cell_from_coupling_ratio(cr=g["coupling_ratio"], mat=mat, **cell)
        return CellGeometry(d_gate=g["gate_oxide_nm"], **cell)
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


_BATH = ("environment.gamma_ev, environment.sound_speed_m_s, "
         "environment.density_kg_m3")
_EXPONENT = ("renormalization exponent", f"{_BATH}, environment.debye_temperature_k")
_RATE = ("superohmic rate", f"{_BATH}, config.delta_kelvin")


def _bath(figure: tuple, formula, *args) -> float:
    """``formula(*args)``, a phonon-bath ``figure`` (its name and the keys
    it is computed from); an overflow, a division by zero or a NaN is a
    physics error naming both."""
    name, keys = figure
    try:
        value = formula(*args)
    except ArithmeticError as exc:
        raise ArithmeticError(f"{exc} in the {name} of {keys}") from exc
    if math.isnan(value):
        raise ValueError(f"the {name} of {keys} is NaN")
    return value


# ---------------------------------------------------------------- output

def _fields(column) -> list[str]:
    """The CSV fields of one column (an array, or a list of strings).

    A float column is formatted once per distinct value, which is found by
    its bit pattern: equal floats such as 0.0 and -0.0 have different reprs.
    """
    if isinstance(column, np.ndarray) and column.dtype.kind == "f":
        bits, where = np.unique(np.asarray(column, dtype=float).view(np.int64),
                                return_inverse=True)
        text = np.array(list(map(str, bits.view(float).tolist())), dtype=object)
        return text[where].tolist()                 # str of a Python float is its repr
    if isinstance(column, np.ndarray):
        column = column.tolist()        # str of a numpy scalar is several times slower
    return list(map(str, column))


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


_DERIVE_KEYS = {
    "schema_version": _VERSION, "lengths_nm": (partial(_numbers, positive=True), []),
    "tunnel_oxide_nm": (_positive, REQUIRED), "fg_height_nm": (_positive, REQUIRED),
    "coupling_ratio": (_ratio, REQUIRED), "material": _MATERIAL, "v_cg": (_number, 0.0),
    "normally_on_threshold_hz": (_positive, 1e3), "environment": _ENVIRONMENT,
    "coherence_delta_kelvin": (_positive, OMIT)}


def cmd_derive(cfg: dict, out: str | None) -> int:
    c = _read(cfg, _DERIVE_KEYS, "config")
    lengths, mat, env = np.array(c["lengths_nm"]), c["material"], c["environment"]
    delta_k = c.get("coherence_delta_kelvin")
    delta_hz = None if delta_k is None else _kelvin_to_hz(delta_k, "coherence_delta_kelvin")
    try:
        geom = cell_from_coupling_ratio(lengths, c["fg_height_nm"], c["tunnel_oxide_nm"],
                                        c["coupling_ratio"], mat=mat)
    except ValueError as exc:
        raise ConfigError(f"config.coupling_ratio is invalid: {exc}") from exc
    exponent = _bath(_EXPONENT, decoherence.renormalization_exponent, env)
    sheet = _datasheet(geom, mat, c["v_cg"])
    devices = classify(geom, TunnelBarrier.from_stack(geom, mat),
                       c["normally_on_threshold_hz"])
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


def _sweep_grid(r: dict) -> np.ndarray:
    lo, hi = r["min"], r["max"]
    if not lo < hi:
        raise ConfigError(f"range.min must be below range.max, got [{lo}, {hi}]")
    if not math.isfinite(hi - lo):      # linspace would make inf and nan points
        raise ConfigError(f"range [{lo}, {hi}] is wider than the float range")
    return np.linspace(lo, hi, r["points"])


_SWEEP_KEYS = {"schema_version": _VERSION,
               "parameter": (partial(_choice, options=tuple(_SWEEP)), REQUIRED),
               "range": (partial(_nested, build=_sweep_grid, table={
                   "min": (_number, REQUIRED), "max": (_number, REQUIRED),
                   "points": (partial(_count, min_value=2), REQUIRED)}), REQUIRED),
               "geometry": _GEOMETRY, "material": _MATERIAL, "v_cg": (_number, 0.0),
               "n_values": (partial(_numbers, integral=True, min_size=1), [-2, -1, 0, 1, 2]),
               "cell": (partial(_count, max_value=3), 1), "v_gate2": (_number, 0.0),
               "v_sub": (_number, 0.0),
               "tie_third": (partial(_choice, options=(True, False)), True)}


def cmd_sweep(cfg: dict, out: str | None) -> int:
    c = _read(cfg, _SWEEP_KEYS, "config")
    parameter, grid, geo, mat = c["parameter"], c["range"], c["geometry"], c["material"]
    key, column = _SWEEP[parameter]

    if parameter == "V_CG1-parabola":
        n_values = c["n_values"]
        v_grid, curves = charging.parabola_family(
            build_network(_geometry(geo, mat), mat, 3), grid, n_values, cell=c["cell"] - 1,
            v_gate2=c["v_gate2"], v_sub=c["v_sub"], tie_third=c["tie_third"])
        k = len(n_values)           # one row per (voltage, n), n varying fastest
        _write_csv(out, "sweep", cfg, [column, "n", "U_eV"],
                   [np.repeat(v_grid, k), np.tile(n_values, v_grid.size),
                    _finite("U_eV", np.column_stack([curves[n] for n in n_values]).ravel())])
        return EXIT_OK

    keep = slice(3, 4) if parameter == "V_CG" else slice(0, 4)   # V_CG: amplitude only
    if parameter == "L":                # width and gap track L in a size sweep
        geo.pop("width_nm", None)
        geo.pop("gap_nm", None)
    if key is not None:                 # the grid rises from its first point
        _GEOMETRY_KEYS[key][0](grid[0].item(), f"geometry.{key}")
        geo[key] = grid
    sheet = _datasheet(_geometry(geo, mat), mat, grid if parameter == "V_CG" else c["v_cg"])
    _write_csv(out, "sweep", cfg, [column, *_DATASHEET_COLUMNS[keep]], [grid, *sheet[keep]])
    return EXIT_OK


# ---------------------------------------------------------------- anneal

def _fg_grid(p: dict) -> annealing.IsingModel:
    geom = _geometry(p["geometry"], p["material"], "problem.geometry")
    return annealing.fg_grid_model(geom, p["material"], BiasSet.uniform(3), p["rows"],
                                   p["cols"], n_g=p["n_g"], v_cg=p["v_cg"])


_SITES = partial(_count, max_value=annealing.MAX_SITES)
# problem.kind -> (model build, the key its ValueError is about (None: a
# physics error), table of the keys besides kind)
_PROBLEMS = {
    "chain": (lambda p: annealing.chain_model(p["h"], p["j"]), "j", {
        "h": (partial(_numbers, min_size=1, max_size=annealing.MAX_SITES), REQUIRED),
        "j": (partial(_numbers, scalar=True), [])}),
    "grid": (lambda p: annealing.grid_model(p["rows"], p["cols"], p["h"], p["j"]), "h", {
        "rows": (_SITES, REQUIRED), "cols": (_SITES, REQUIRED),
        "h": (partial(_numbers, scalar=True), 0.0), "j": (_number, REQUIRED)}),
    "maxcut": (lambda p: annealing.maxcut_to_ising(p["edges"], p.get("n_sites")), "edges", {
        "edges": (partial(_edges, sites=annealing.MAX_SITES), REQUIRED),
        "n_sites": (_SITES, OMIT)}),
    "fg_grid": (_fg_grid, None, {
        "rows": (_SITES, REQUIRED), "cols": (_SITES, REQUIRED), "geometry": _GEOMETRY,
        "material": _MATERIAL, "v_cg": (_number, 0.0), "n_g": (_number, 0.0)}),
}


def _problem(value, name: str) -> annealing.IsingModel:
    """The Ising model of a problem object, read through the table of its kind."""
    if not isinstance(value, dict):
        raise ConfigError(f"{name} must be an object")
    kind = partial(_choice, options=tuple(_PROBLEMS))
    build, key, table = _PROBLEMS[kind(value.get("kind"), "problem.kind")]
    p = _read(value, {"kind": (kind, REQUIRED), **table}, "problem")
    if p.get("rows", 1) * p.get("cols", 1) > annealing.MAX_SITES:
        raise ConfigError(f"problem.rows * problem.cols must be at most "
                          f"{annealing.MAX_SITES} sites, got {p['rows'] * p['cols']}")
    try:
        return build(p)
    except ValueError as exc:
        if key is None:
            raise
        raise ConfigError(f"problem.{key} is invalid: {exc}") from exc


_ANNEAL_KEYS = {"schema_version": _VERSION, "problem": (_problem, REQUIRED),
                "schedule": (partial(_nested, table={
                    "delta0_ev": (partial(_number, min_value=0.0), OMIT),
                    "profile": (partial(_choice, options=("linear", "exponential")), OMIT),
                    "t_total": (_positive, 200.0), "steps": (_count, 2000),
                    "floor_ratio": (partial(_number, min_value=0.0, max_value=1e-6,
                                            exclude_min=True), OMIT),
                    "time_unit": (partial(_choice, options=("natural", "seconds")), OMIT)}),
                    {}),
                "shots": (partial(_count, max_value=annealing.MAX_SHOTS), 4096)}


def cmd_anneal(cfg: dict, out: str | None, seed: int) -> int:
    c = _read(cfg, _ANNEAL_KEYS, "config")
    model, sched, shots = c["problem"], c["schedule"], c["shots"]
    delta0 = sched.pop("delta0_ev", model.delta0)
    if delta0 is None:
        raise ConfigError("schedule.delta0_ev is required for this problem kind")
    schedule = annealing.Schedule(delta0=delta0, **sched)

    # the trace is recorded only to be written
    record_every = max(1, schedule.steps // 200) if out is not None else 0
    result = annealing.evolve(model, schedule, record_every=record_every)
    outcomes, counts = annealing.sample_counts(result.psi, shots, seed)
    states = annealing.state_strings(model.n_sites, outcomes)
    # most frequent first, ties in string order; stdout reads the first row
    ranked = np.lexsort((states, -counts))
    states, counts, energies = states[ranked], counts[ranked], model.diagonal[outcomes[ranked]]
    if out is not None:
        _write_csv(f"{out}_histogram.csv", "anneal", cfg,
                   ["state", "count", "frequency", "energy_eV"],
                   [states, counts, counts / shots, energies])
        _write_csv(f"{out}_trace.csv", "anneal", cfg,
                   ["t", "delta_eV", "energy_eV"],
                   [result.times, result.deltas, result.energies])

    best_state = str(states[0])
    print(f"sites: {model.n_sites}  topology: {model.topology}")
    print(f"most frequent state: {best_state}  ({counts[0]}/{shots} shots, "
          f"energy {float(energies[0])!r} eV)")
    if model.n_sites <= annealing.MAX_BRUTE_FORCE_SITES:
        ground = annealing.brute_force_ground_state(model)
        in_ground = counts[np.isin(states, ground.states)].sum()
        print(f"exact ground energy: {ground.energy!r} eV over {len(ground.states)} "
              f"state(s); ground-state shot frequency: {in_ground / shots:.4f}")
    if cfg["problem"]["kind"] == "maxcut":
        total = sum(w for (_, _, w) in model.couplings)
        cut = annealing.cut_value(model, best_state)
        print(f"cut value of most frequent state: {cut!r} (total edge weight {total!r})")
    return EXIT_OK


# ---------------------------------------------------------------- decohere

_DECOHERE_KEYS = {"schema_version": _VERSION, "environment": _ENVIRONMENT,
                  "delta_kelvin": (partial(_numbers, positive=True, min_size=1),
                                   [10.0, 100.0]),
                  "time_points": (partial(_count, min_value=2), 200),
                  "max_time_factor": (_positive, 3.0)}


def cmd_decohere(cfg: dict, out: str | None) -> int:
    c = _read(cfg, _DECOHERE_KEYS, "config")
    env, deltas_k = c["environment"], c["delta_kelvin"]
    points, factor = c["time_points"], c["max_time_factor"]
    deltas_hz = _kelvin_to_hz(np.array(deltas_k), "delta_kelvin")
    t_coh = decoherence.coherence_time(deltas_hz, env.alpha)
    overflow = ~np.isfinite(factor * t_coh)
    if overflow.any():              # an infinite t_coh is the delta's fault
        key = "delta_kelvin" if np.isinf(t_coh[overflow][0]) else "max_time_factor"
        raise ConfigError(f"config.{key} puts the time grid of "
                          f"{deltas_k[np.argmax(overflow)]!r} K beyond the float range")
    # one row of times per delta, each from 0 to factor * t_coh of its delta
    t = np.linspace(0.0, factor * t_coh, points, axis=1)

    # the report is printed once nothing can fail, so a failed run prints none
    exponent = _bath(_EXPONENT, decoherence.renormalization_exponent, env)
    report = [f"renormalization exponent: {exponent!r}", f"ohmic alpha: {env.alpha!r}"]
    for dk, delta_hz, tc in zip(deltas_k, deltas_hz.tolist(), t_coh.tolist()):
        rate = _bath(_RATE, decoherence.superohmic_rate, delta_hz, env)
        dressed = decoherence.renormalized_tunneling(delta_hz, env)
        report.append(f"delta = {dk!r} K = {delta_hz!r} Hz: t_coh = {tc!r} s, superohmic "
                      f"rate at bare delta = {rate!r} 1/s, dressed delta = {dressed!r} Hz")
    pc = decoherence.p_coherent(t, deltas_hz[:, None], env.alpha)
    pi = decoherence.p_incoherent(t, deltas_hz[:, None], env.alpha)
    if out is not None:
        _write_csv(out, "decohere", cfg, ["delta_K", "t_s", "p_coh", "p_inc", "p_total"],
                   [np.repeat(deltas_k, points), t.ravel(), pc.ravel(), pi.ravel(),
                    (pc + pi).ravel()])
    print("\n".join(report))
    return EXIT_OK


# ---------------------------------------------------------------- entry

def _seed(text: str) -> int:
    """A measurement seed: numpy's generators take non-negative integers."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text!r}")
    return int(text)


@cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process."""
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
            p.add_argument("--seed", type=_seed, default=0, help="measurement seed")
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
    except (BarrierCollapseError, ValueError, ArithmeticError, MemoryError) as exc:
        print(f"physics error: {exc}", file=sys.stderr)
        return EXIT_PHYSICS


if __name__ == "__main__":
    sys.exit(main())
