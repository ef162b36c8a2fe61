"""The three benchmark workloads: inputs, operations and output checks.

Inputs come from the workload seed through numpy's generator only; no
``fgqa`` code runs to make them, so every commit receives the same
inputs.  Each workload runs a fixed list of operations per pass, and
every operation's output is checked by code in this file that does not
share logic with the code under test.

- ``chain_tts``: random conditioned open chains through the library
  annealing path (criterion-7 traffic).  Never enters cli, charging,
  tunneling or decoherence.
- ``device_anneal``: three in-process ``fgqa anneal`` CLI runs at
  n = 10, 16 and 18 (trace recording, CSV output, brute force, big
  state vectors).
- ``datasheet``: ``fgqa sweep``/``derive``/``decohere`` runs plus the
  KKT charge oracle over all corner occupations.  Never enters the
  annealer.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import math
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from fgqa import annealing, cells, charging, cli


@dataclass
class Op:
    """One timed operation: its wall time, failed checks and output digest.

    ``output`` is given as bytes and kept as their SHA-256, so repeated
    passes hold no output data.
    """

    name: str
    seconds: float
    failures: list[str]
    output: bytes | str
    info: dict = field(default_factory=dict)

    def __post_init__(self):
        self.output = hashlib.sha256(self.output).hexdigest()


def digest(parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part)
    return h.hexdigest()


# ------------------------------------------------------------ Ising helpers
# Bit i of a basis index is site i; bit value 0 is spin +1, and a
# bitstring carries site i at character i.

def ising_energies(n: int, h, couplings) -> np.ndarray:
    """Energy of every basis state, by direct summation over terms."""
    index = np.arange(1 << n, dtype=np.int64)
    energies = np.zeros(1 << n)
    for i in range(n):
        energies += float(h[i]) * (1 - 2 * ((index >> i) & 1))
    for (i, j, w) in couplings:
        energies += float(w) * (1 - 2 * (((index >> i) ^ (index >> j)) & 1))
    return energies


def state_energy(state: str, h, couplings) -> float:
    s = [1.0 if ch == "0" else -1.0 for ch in state]
    return (sum(float(h[i]) * s[i] for i in range(len(s)))
            + sum(float(w) * s[i] * s[j] for (i, j, w) in couplings))


def ground_states(n: int, energies: np.ndarray) -> set[str]:
    e_min = float(energies.min())
    tol = 1e-12 * max(1.0, abs(e_min))
    return {"".join("1" if (int(k) >> i) & 1 else "0" for i in range(n))
            for k in np.flatnonzero(energies <= e_min + tol)}


def read_csv(text: str) -> tuple[list[str], list[list[str]]]:
    """Column names and rows of an fgqa CSV (comment lines skipped)."""
    lines = [line for line in text.splitlines() if line and not line.startswith("#")]
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def _positive_finite(values) -> bool:
    return all(math.isfinite(v) and v > 0.0 for v in values)


class Workload:
    """Base: ``setup`` makes inputs, ``run_pass`` returns the checked ops."""

    name = ""

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.inputs: list[bytes] = []

    def setup(self) -> None:
        raise NotImplementedError

    def warmup(self) -> None:
        raise NotImplementedError

    def operations(self):
        """(name, callable returning an Op) pairs of one pass."""
        raise NotImplementedError

    def op_wall(self, op: Op) -> float:
        """An operation's time as it counts toward ``wall_s``."""
        return op.seconds

    def wall(self, passes: list[list[Op]]) -> float:
        """Sum over the operations of each one's fastest time across passes.

        Load from other processes on a shared machine only ever slows an
        operation and can last a whole run: on a shared two-core Xeon
        virtual machine, six datasheet runs gave 1.28-1.95 s from
        per-operation medians and 1.18-1.32 s from the fastest passes.
        """
        return sum(min(self.op_wall(p[k]) for p in passes) for k in range(len(passes[0])))

    def report(self, passes: list[list[Op]]) -> dict[str, tuple[float, str]]:
        return {}

    def run_pass(self, tracer=None) -> list[Op]:
        ops = []
        for k, (name, fn) in enumerate(self.operations()):
            if tracer is not None:
                tracer.instance = k
            start = time.perf_counter()
            try:
                op = fn()
            except Exception:  # an op that raises is a failed op; the run goes on
                op = Op(name, 0.0, [traceback.format_exc(limit=3)], b"")
            op.info["start"] = start
            ops.append(op)
        return ops


def _fastest_per_op(passes: list[list[Op]]) -> list[float]:
    return [min(p[k].seconds for p in passes) for k in range(len(passes[0]))]


# ------------------------------------------------------------ chain_tts

LADDER = (200.0, 800.0, 3200.0)       # tau rungs, as in acceptance criterion 7
ROTATION = 0.05                       # transverse rotation per step
THRESHOLD = 0.93                      # stop the ladder once p reaches this
SOLVED_FREQ = 0.9
SHOTS = 4096
MIN_GAP = 0.02                        # eV, minimum classical gap
CHAIN_SIZES = tuple(range(4, 11))     # one chain of each size per pass
FIRST_RUNG_REPEATS = 3


@dataclass
class Chain:
    h: np.ndarray
    j: np.ndarray
    ground: set[str]
    shot_seed: int

    @property
    def scale(self) -> float:
        s = np.abs(self.h).copy()
        s[:-1] += np.abs(self.j)
        s[1:] += np.abs(self.j)
        return float(s.max())


def random_chain(rng, n: int) -> Chain:
    """Criterion-7 chain distribution conditioned on the classical gap.

    The size cycles through 4..10 instead of being drawn, so every run
    has the same size mix and only the fields and couplings vary.
    """
    while True:
        h = rng.uniform(-0.5, 0.5, n)
        j = rng.uniform(0.3, 1.0, n - 1) * rng.choice([-1.0, 1.0], n - 1)
        couplings = [(i, i + 1, j[i]) for i in range(n - 1)]
        energies = ising_energies(n, h, couplings)
        ordered = np.sort(energies)
        if ordered[1] - ordered[0] >= MIN_GAP:
            return Chain(h, j, ground_states(n, energies), int(rng.integers(1 << 31)))


class ChainTTS(Workload):
    name = "chain_tts"

    def setup(self) -> None:
        rng = np.random.default_rng([self.seed, 1])
        self.chains = [random_chain(rng, n) for n in CHAIN_SIZES]
        self.inputs = [c.h.tobytes() + c.j.tobytes() + str(c.shot_seed).encode()
                       for c in self.chains]

    def warmup(self) -> None:
        self._solve(self.chains[0], ladder=LADDER[:1])

    def operations(self):
        return [(f"chain{k}", lambda c=c: self._solve(c)) for k, c in enumerate(self.chains)]

    @staticmethod
    def _schedule(chain: Chain, tau: float):
        return annealing.Schedule(delta0=5.0 * chain.scale, t_total=tau / chain.scale,
                                  steps=int(tau / ROTATION), profile="exponential")

    def _solve(self, chain: Chain, ladder=LADDER) -> Op:
        start = time.perf_counter()
        model = annealing.chain_model(chain.h, chain.j)
        probs, rung_ends = [], []
        for tau in ladder:
            result = annealing.evolve(model, self._schedule(chain, tau))
            probs.append(annealing.success_probability(model, result.psi))
            rung_ends.append(time.perf_counter())
            if probs[-1] >= THRESHOLD:
                break
        histogram = annealing.measure(result.psi, SHOTS, chain.shot_seed)
        ground = annealing.brute_force_ground_state(model)
        end = time.perf_counter()

        failures = []
        norm = float(np.linalg.norm(result.psi))
        if abs(norm - 1.0) > 1e-9:
            failures.append(f"norm {norm!r} is not 1 within 1e-9")
        if set(ground.states) != chain.ground:
            failures.append(f"ground set {sorted(ground.states)} != {sorted(chain.ground)}")
        if sum(histogram.values()) != SHOTS:
            failures.append("histogram counts do not sum to the shot count")
        freq = sum(histogram.get(s, 0) for s in chain.ground) / SHOTS
        output = json.dumps([sorted(histogram.items()), [repr(p) for p in probs]]).encode()
        return Op(f"chain n={len(chain.h)}", end - start, failures, output,
                  {"first_rung_s": (rung_ends[0] - start) + (end - rung_ends[-1]),
                   "rungs": len(probs), "useful": int(probs[-1] >= THRESHOLD),
                   "solved": freq >= SOLVED_FREQ})

    def _first_rung(self, chain: Chain) -> float:
        t0 = time.perf_counter()
        model = annealing.chain_model(chain.h, chain.j)
        psi = annealing.evolve(model, self._schedule(chain, LADDER[0])).psi
        annealing.success_probability(model, psi)
        annealing.measure(psi, SHOTS, chain.shot_seed)
        annealing.brute_force_ground_state(model)
        return time.perf_counter() - t0

    def run_pass(self, tracer=None) -> list[Op]:
        """The ladders, then the first rungs timed again round-robin.

        The first rung is short next to the slow phases of a shared
        machine, so its fastest run counts toward wall_s.  The repeats
        go on until they have taken as long as the ladders (at least
        ``FIRST_RUNG_REPEATS`` rounds), so the number of timings follows
        the run's length rather than how many rungs the seed's chains need.
        """
        ops = super().run_pass(tracer)
        ladders = sum(op.seconds for op in ops)
        spent, rounds = 0.0, 0
        while rounds < FIRST_RUNG_REPEATS or spent < ladders:
            for k, (chain, op) in enumerate(zip(self.chains, ops)):
                if "first_rung_s" not in op.info:   # the ladder raised
                    continue
                if tracer is not None:
                    tracer.instance = k
                seconds = self._first_rung(chain)
                spent += seconds
                op.info["first_rung_s"] = min(op.info["first_rung_s"], seconds)
            rounds += 1
        return ops

    def op_wall(self, op: Op) -> float:
        # Only the first rung and the measurement count: how many further
        # rungs a chain needs depends on the seed, and a long rung averages
        # over machine noise that the fastest of several short ones avoids.
        # The whole ladder is ``ladder_s`` in the report.
        return op.info.get("first_rung_s", op.seconds)

    def report(self, passes):
        times = _fastest_per_op(passes)
        ops = passes[0]
        return {"tts_p50_s": (float(np.median(times)), "s"),
                "solved_frac": (sum(op.info.get("solved", False) for op in ops) / len(ops), "1"),
                "ladder_s": (sum(times), "s")}


# ------------------------------------------------------------ device_anneal

FAMILY_B = {"length_nm": 10.0, "height_nm": 100.0, "tunnel_oxide_nm": 3.5,
            "coupling_ratio": 0.3}
V_CG = -1.7
# The criterion-7 schedule length 200 / (3 J), with J (eV) the coupling
# the seed code derives for FAMILY_B at V_CG.  Fixed here so that every
# commit anneals the same schedule.
T_TOTAL = 19237.0


def _grid_edges(rows: int, cols: int) -> list[tuple[int, int]]:
    edges = []
    for r, c in itertools.product(range(rows), range(cols)):
        s = r * cols + c
        if c + 1 < cols:
            edges.append((s, s + 1))
        if r + 1 < rows:
            edges.append((s, s + cols))
    return sorted(edges)


def random_maxcut(rng, n: int, chords: int) -> list[list]:
    """Weighted ring plus random chords, weights in [0.5, 1.5]."""
    pairs = {(i, i + 1) for i in range(n - 1)} | {(0, n - 1)}
    while len(pairs) < n + chords:
        i, j = sorted(int(v) for v in rng.choice(n, 2, replace=False))
        pairs.add((i, j))
    return [[i, j, round(float(rng.uniform(0.5, 1.5)), 3)] for (i, j) in sorted(pairs)]


def check_anneal_outputs(hist_csv: str, trace_csv: str, shots: int, h, couplings,
                         ground_energy: float) -> list[str]:
    """Histogram counts, per-state energies and the final trace energy."""
    failures = []
    columns, rows = read_csv(hist_csv)
    if columns != ["state", "count", "frequency", "energy_eV"]:
        return [f"unexpected histogram columns {columns}"]
    if sum(int(r[1]) for r in rows) != shots:
        failures.append("histogram counts do not sum to the shot count")
    tol = 1e-12 * float(np.sum(np.abs(h)) + sum(abs(float(w)) for (_, _, w) in couplings))
    bad = [r[0] for r in rows if abs(float(r[3]) - state_energy(r[0], h, couplings)) > tol]
    if bad:
        failures.append(f"{len(bad)} histogram energies differ from the Ising sum, "
                        f"first {bad[0]}")
    _, trace_rows = read_csv(trace_csv)
    final = float(trace_rows[-1][2])
    if final < ground_energy - tol:
        failures.append(f"final trace energy {final!r} is below the ground energy "
                        f"{ground_energy!r}")
    return failures


@dataclass
class AnnealRun:
    label: str
    config: dict
    h: np.ndarray
    couplings: list
    ground_energy: float
    path: Path
    cli_seed: int


class DeviceAnneal(Workload):
    name = "device_anneal"

    def setup(self) -> None:
        rng = np.random.default_rng([self.seed, 2])
        n18_geometry = dict(FAMILY_B, length_nm=round(float(rng.uniform(8.0, 12.0)), 2))
        specs = [
            ("n10", {"kind": "fg_grid", "rows": 2, "cols": 5, "geometry": FAMILY_B,
                     "v_cg": V_CG},
             {"t_total": T_TOTAL, "steps": 4000, "profile": "exponential"}),
            ("n16", {"kind": "maxcut", "edges": random_maxcut(rng, 16, 12)},
             {"delta0_ev": 2.0, "t_total": 20.0, "steps": 10, "profile": "exponential"}),
            ("n18", {"kind": "fg_grid", "rows": 3, "cols": 6, "geometry": n18_geometry,
                     "v_cg": V_CG},
             {"t_total": T_TOTAL, "steps": 5, "profile": "exponential"}),
        ]
        self.runs = [self._prepare(label, problem, schedule, int(rng.integers(1 << 31)))
                     for label, problem, schedule in specs]
        self.inputs = [cli.emit_config(r.config).encode() + str(r.cli_seed).encode()
                       for r in self.runs]

    def _prepare(self, label, problem, schedule, cli_seed) -> AnnealRun:
        config = {"schema_version": 1, "problem": problem, "schedule": schedule,
                  "shots": SHOTS}
        if problem["kind"] == "maxcut":
            n = 1 + max(e[1] for e in problem["edges"])
            h = np.zeros(n)
            couplings = [tuple(e) for e in problem["edges"]]
        else:
            # The device couplings come from the model builder; the checks
            # cover energy evaluation, bit order and CSV output.
            geo = problem["geometry"]
            geom = cells.cell_from_coupling_ratio(geo["length_nm"], geo["height_nm"],
                                                  geo["tunnel_oxide_nm"],
                                                  geo["coupling_ratio"])
            model = annealing.fg_grid_model(geom, cells.MaterialStack(),
                                            cells.BiasSet.uniform(3), problem["rows"],
                                            problem["cols"], v_cg=problem["v_cg"])
            n = problem["rows"] * problem["cols"]
            h = np.asarray(model.h, dtype=float)
            weight = {(i, j): w for (i, j, w) in model.couplings}
            couplings = [(i, j, weight[(i, j)])
                         for (i, j) in _grid_edges(problem["rows"], problem["cols"])]
        ground_energy = float(ising_energies(n, h, couplings).min())
        path = self.workdir / f"{label}.json"
        path.write_text(json.dumps(config))
        return AnnealRun(label, config, h, couplings, ground_energy, path, cli_seed)

    def warmup(self) -> None:
        config = {"schema_version": 1, "shots": 64,
                  "problem": {"kind": "chain", "h": [0.1, -0.2, 0.3], "j": [0.5, -0.5]},
                  "schedule": {"delta0_ev": 1.0, "t_total": 5.0, "steps": 40}}
        run = AnnealRun("warmup", config, np.array([0.1, -0.2, 0.3]),
                        [(0, 1, 0.5), (1, 2, -0.5)], -math.inf, self.workdir / "warmup.json",
                        0)
        run.path.write_text(json.dumps(config))
        self._anneal(run)

    def operations(self):
        return [(f"anneal_{r.label}", lambda r=r: self._anneal(r)) for r in self.runs]

    def _anneal(self, run: AnnealRun) -> Op:
        prefix = self.workdir / run.label
        argv = ["anneal", "--config", str(run.path), "--out", str(prefix),
                "--seed", str(run.cli_seed)]
        start = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        seconds = time.perf_counter() - start
        if code != 0:
            return Op(f"anneal {run.label}", seconds, [f"exit code {code}"], b"")
        hist = Path(f"{prefix}_histogram.csv").read_bytes()
        trace = Path(f"{prefix}_trace.csv").read_bytes()
        failures = check_anneal_outputs(hist.decode(), trace.decode(),
                                        run.config["shots"], run.h, run.couplings,
                                        run.ground_energy)
        return Op(f"anneal {run.label}", seconds, failures, hist + trace,
                  {"csv_bytes": len(hist) + len(trace)})

    def report(self, passes):
        times = _fastest_per_op(passes)
        return {f"anneal_{r.label}_s": (t, "s") for r, t in zip(self.runs, times)}


# ------------------------------------------------------------ datasheet

SWEEP_POINTS = 200
PARABOLA_N = [-2, -1, 0, 1, 2]
DERIVE_EXTRA_LENGTHS = 29
U_W_REFERENCE = {5.0: 1.52, 10.0: 0.38, 15.0: 0.17}   # family B, eV
DECOHERE_DELTAS = 20
DECOHERE_POINTS = 200
ORACLE_CELLS = tuple(range(3, 10))


def random_row(rng, m: int, lo=1e-19, hi=5e-18):
    """Random physical M-cell network, bias and base occupation."""
    def draw(k):
        return rng.uniform(lo, hi, k)
    net = cells.CapacitanceNetwork(
        c_gate=draw(m), c_sub=draw(m), c_fg=np.r_[draw(m - 1), 0.0],
        c_gate_left=np.r_[0.0, draw(m - 1)], c_gate_right=np.r_[draw(m - 1), 0.0],
        c_source=draw(m), c_drain=draw(m))
    bias = cells.BiasSet(tuple(rng.uniform(-5.0, 5.0, m)), float(rng.uniform(-5.0, 5.0)),
                         tuple(rng.uniform(-5.0, 5.0, m + 1)))
    return net, bias, rng.integers(-3, 4, m)


def third_differences(m: int, energies: np.ndarray) -> np.ndarray:
    """Mixed third differences over every cube face of {0,1}^m.

    All of them vanish exactly for a quadratic function of the corner.
    """
    index = np.arange(1 << m)
    out = []
    for i, j, k in itertools.combinations(range(m), 3):
        mask = (1 << i) | (1 << j) | (1 << k)
        base = index[(index & mask) == 0]
        total = np.zeros(base.size)
        for sub in range(8):
            bits = [(1 << (i, j, k)[b]) for b in range(3) if (sub >> b) & 1]
            total += (-1) ** (3 - len(bits)) * energies[base | sum(bits)]
        out.append(total)
    return np.concatenate(out)


def check_datasheet_csv(kind: str, text: str, expected_rows: int) -> list[str]:
    columns, rows = read_csv(text)
    if len(rows) != expected_rows:
        return [f"{kind}: {len(rows)} rows, expected {expected_rows}"]
    col = {name: [float(r[k]) if name != "device_class" else r[k] for r in rows]
           for k, name in enumerate(columns)}
    failures = []
    if "J_K" in col and not _positive_finite(col["J_K"]):
        failures.append(f"{kind}: J_K not finite and positive")
    if "tunnel_Hz" in col and not _positive_finite(col["tunnel_Hz"]):
        failures.append(f"{kind}: tunnel_Hz not finite and positive")
    length = col.get("L_nm")
    if length is not None and "tunnel_Hz" in col:
        pairs = sorted(zip(length, col["tunnel_Hz"]))      # lengths may repeat
        if not all(r2 > r1 for (l1, r1), (l2, r2) in zip(pairs, pairs[1:]) if l2 > l1):
            failures.append(f"{kind}: tunnel_Hz does not increase with L")
    if "U_w_eV" in col and kind == "derive":
        for ref_l, ref in U_W_REFERENCE.items():
            u_w = col["U_w_eV"][length.index(ref_l)]
            if abs(u_w - ref) > 0.01 * ref:
                failures.append(f"derive: U_w {u_w!r} at L={ref_l} not within 1% of {ref}")
    if "U_eV" in col and not all(math.isfinite(u) and u >= 0.0 for u in col["U_eV"]):
        failures.append(f"{kind}: parabola energies not finite and non-negative")
    if "p_total" in col:
        for pc, pi, total in zip(col["p_coh"], col["p_inc"], col["p_total"]):
            if pc + pi != total or total > 1.0 + 1e-9:
                failures.append(f"decohere: p_coh + p_inc = {pc + pi!r}, p_total {total!r}")
                break
    return failures


class Datasheet(Workload):
    name = "datasheet"

    def setup(self) -> None:
        rng = np.random.default_rng([self.seed, 3])

        def jitter(lo, hi, amount):
            return (round(lo + float(rng.uniform(0, amount)), 3),
                    round(hi - float(rng.uniform(0, amount)), 3))

        self.commands = []
        for parameter, lo, hi, amount in (("L", 5.0, 15.0, 0.5), ("d_ox", 2.5, 4.0, 0.2),
                                          ("Z_FG", 10.0, 100.0, 5.0),
                                          ("V_CG", -1.5, 1.0, 0.2),
                                          ("V_CG1-parabola", -1.0, 1.0, 0.2)):
            lo, hi = jitter(lo, hi, amount)
            config = {"schema_version": 1, "parameter": parameter, "geometry": FAMILY_B,
                      "range": {"min": lo, "max": hi, "points": SWEEP_POINTS}}
            rows = SWEEP_POINTS * (len(PARABOLA_N) if parameter == "V_CG1-parabola" else 1)
            if parameter == "V_CG1-parabola":
                config["n_values"] = PARABOLA_N
            self.commands.append((f"sweep_{parameter}", "sweep", config, rows, SWEEP_POINTS))
        lengths = list(U_W_REFERENCE) + [round(float(v), 3) for v in
                                          rng.uniform(4.0, 20.0, DERIVE_EXTRA_LENGTHS)]
        self.commands.append(("derive", "derive",
                              {"schema_version": 1, "lengths_nm": lengths,
                               "tunnel_oxide_nm": 3.5, "fg_height_nm": 100.0,
                               "coupling_ratio": 0.3}, len(lengths), len(lengths)))
        deltas = sorted(round(float(v), 4) for v in
                        np.exp(rng.uniform(math.log(0.5), math.log(300.0), DECOHERE_DELTAS)))
        self.commands.append(("decohere", "decohere",
                              {"schema_version": 1, "delta_kelvin": deltas,
                               "time_points": DECOHERE_POINTS},
                              DECOHERE_DELTAS * DECOHERE_POINTS, 0))
        self.rows = [(m, *random_row(rng, m)) for m in ORACLE_CELLS]
        for label, _, config, _, _ in self.commands:
            (self.workdir / f"{label}.json").write_text(json.dumps(config))
        self.inputs = [cli.emit_config(c[2]).encode() for c in self.commands] + [
            b"".join(np.asarray(v, dtype=float).tobytes()
                     for v in (net.c_gate, net.c_sub, net.c_fg, net.c_gate_left,
                               net.c_gate_right, net.c_source, net.c_drain,
                               bias.v_gate, bias.v_rail, [bias.v_sub], n0))
            for (_, net, bias, n0) in self.rows]

    def warmup(self) -> None:
        for label, command, config, _, _ in self.commands:
            small = json.loads(json.dumps(config))
            if "range" in small:
                small["range"]["points"] = 5
            if "lengths_nm" in small:
                small["lengths_nm"] = small["lengths_nm"][:3]
            if "delta_kelvin" in small:
                small["delta_kelvin"], small["time_points"] = small["delta_kelvin"][:2], 5
            path = self.workdir / f"warmup_{label}.json"
            path.write_text(json.dumps(small))
            with contextlib.redirect_stdout(io.StringIO()):
                cli.main([command, "--config", str(path),
                          "--out", str(self.workdir / "warmup.csv")])
        self._oracle(*self.rows[0])

    def operations(self):
        ops = [(c[0], lambda c=c: self._command(*c)) for c in self.commands]
        ops += [(f"oracle_m{row[0]}", lambda row=row: self._oracle(*row)) for row in self.rows]
        return ops

    def _command(self, label, command, config, expected_rows, points) -> Op:
        out = self.workdir / f"{label}.csv"
        argv = [command, "--config", str(self.workdir / f"{label}.json"), "--out", str(out)]
        start = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        seconds = time.perf_counter() - start
        if code != 0:
            return Op(label, seconds, [f"{label}: exit code {code}"], b"")
        data = out.read_bytes()
        return Op(label, seconds, check_datasheet_csv(label, data.decode(), expected_rows),
                  data, {"csv_bytes": len(data), "points": points})

    def _oracle(self, m, net, bias, n0) -> Op:
        start = time.perf_counter()
        energies = np.array([charging.minimize_charge_oracle(
            net, bias, n0 + ((corner >> np.arange(m)) & 1)) for corner in range(1 << m)])
        seconds = time.perf_counter() - start
        failures = []
        worst = float(np.max(np.abs(third_differences(m, energies))))
        if not np.all(np.isfinite(energies)) or worst > 1e-9 * np.max(np.abs(energies)):
            failures.append(f"oracle M={m}: third difference {worst!r} is not zero")
        return Op(f"oracle M={m}", seconds, failures, energies.tobytes())

    def report(self, passes):
        points = sum(op.info.get("points", 0) for op in passes[0])
        times = _fastest_per_op(passes)
        busy = sum(t for t, op in zip(times, passes[0]) if op.info.get("points"))
        return {"points_per_s": (points / busy, "1/s")}


WORKLOADS = {w.name: w for w in (ChainTTS, DeviceAnneal, Datasheet)}
