"""fgqa benchmark: one workload per run, every output checked.

    python3 bench/run.py --workload chain_tts --seed 1 --seconds 35 --trace 0

Run from the repository root; the package is imported from ``src/``.
With ``--trace 0`` the last stdout line holds the end-to-end metrics;
with ``--trace 1`` it holds the per-layer metrics of a traced run, and
the spans of the last traced pass are written under ``.bench_out/``.
Earlier lines give the environment, input/output digests and the
per-workload figures named in ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 3

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB", "ok_frac": "1"}

WORKLOAD_FIGURES = {"tts_p50_s": "s", "solved_frac": "1", "ladder_s": "s", "anneal_n10_s": "s",
                    "anneal_n16_s": "s", "anneal_n18_s": "s", "points_per_s": "1/s"}


def per_layer_names() -> dict[str, str]:
    """Every per-layer metric with its unit, in a fixed order."""
    names = {}
    for module, attr in tracing.TRACED:
        base = f"{module}.{attr}"
        names[f"{base}.calls"] = "count"
        names[f"{base}.s"] = "s"
        if base in ("annealing.evolve", "cli.main"):
            names[f"{base}.self_s"] = "s"
    names["annealing.evolve.steps"] = "count"
    names["annealing.evolve.us_per_step"] = "us"
    for n in (16, 18):
        names[f"annealing.evolve.n{n}.bytes_per_step_computed"] = "B"
        names[f"annealing.evolve.n{n}.ops_per_byte_computed"] = "flop/B"
    names["annealing.useful_ratio"] = "1"
    names["cli.csv_bytes"] = "B"
    names["trace.overhead_s"] = "s"
    names["trace.attributed_frac"] = "1"
    for key, unit in WORKLOAD_FIGURES.items():
        names[f"workload.{key}"] = unit
    return names


def step_traffic(n: int) -> tuple[float, float]:
    """Computed bytes and flops of one Strang step of the numpy kernel.

    Per site the rotation ``c * psi + s * psi[flip]`` makes four complex
    temporaries: 152 B moved (16 B amplitudes, 8 B flip indices) and
    10 flops per amplitude; the diagonal phase adds 48 B and 6 flops.
    From array sizes, so cache reuse is ignored.
    """
    dim = 1 << n
    return dim * (152.0 * n + 48.0), dim * (10.0 * n + 6.0)


def environment() -> dict:
    import numpy
    from importlib.metadata import PackageNotFoundError, version
    try:
        scipy_version = version("scipy")
    except PackageNotFoundError:
        scipy_version = None
    try:
        llc = int(subprocess.run(["getconf", "LEVEL3_CACHE_SIZE"], capture_output=True,
                                 text=True, timeout=10, check=True).stdout.strip() or 0)
    except (OSError, ValueError, subprocess.SubprocessError):
        llc = None
    return {"nproc": len(os.sched_getaffinity(0)), "python": sys.version.split()[0],
            "numpy": numpy.__version__, "scipy": scipy_version, "llc_bytes": llc,
            "blas_threads": 1}


def timed_passes(workload, seconds: float, tracer_factory=None):
    """Run passes until ``seconds`` is used up (at least one).

    A further pass starts only while its expected end overshoots the
    budget by less than half a pass.
    """
    passes, tracers = [], []
    start = time.perf_counter()
    while True:
        tracer = tracer_factory() if tracer_factory else None
        t0 = time.perf_counter()
        if tracer is None:
            passes.append(workload.run_pass())
        else:
            with tracer:
                passes.append(workload.run_pass(tracer))
            tracers.append(tracer)
        last = time.perf_counter() - t0
        if time.perf_counter() - start + 0.5 * last >= seconds:
            return passes, tracers


def layer_metrics(workload, tracers, traced, untraced, figures) -> tuple[dict, list]:
    """Per-layer metrics per traced pass, plus the absent function names.

    Metrics of a traced function that the package no longer defines are
    left out, not reported as zero.
    """
    totals = {}
    for tracer in tracers:
        for name, stats in tracing.aggregate(tracer.spans).items():
            entry = totals.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            for key in entry:
                entry[key] += stats[key]
    k = len(tracers)
    names = per_layer_names()
    values = {}
    for name in names:
        base, _, stat = name.rpartition(".")
        if stat in ("calls", "s", "self_s"):
            values[name] = totals.get(base, {}).get(stat, 0) / k
    steps = sum(t.counts["steps"] for t in tracers) / k
    values["annealing.evolve.steps"] = steps
    values["annealing.evolve.us_per_step"] = (
        1e6 * values["annealing.evolve.self_s"] / steps if steps else 0.0)
    for n in (16, 18):
        moved, flops = step_traffic(n) if any(t.counts[f"n{n}"] for t in tracers) else (0, 0)
        values[f"annealing.evolve.n{n}.bytes_per_step_computed"] = moved
        values[f"annealing.evolve.n{n}.ops_per_byte_computed"] = flops / moved if moved else 0.0
    ops = [op for p in traced for op in p]
    rungs = sum(op.info.get("rungs", 0) for op in ops)
    values["annealing.useful_ratio"] = (sum(op.info.get("useful", 0) for op in ops) / rungs
                                        if rungs else 0.0)
    values["cli.csv_bytes"] = sum(op.info.get("csv_bytes", 0) for op in ops) / k
    values["trace.overhead_s"] = workload.wall(traced) - workload.wall(untraced)
    values["trace.attributed_frac"] = min(attributed(tracer, p)
                                          for tracer, p in zip(tracers, traced))
    for key in WORKLOAD_FIGURES:
        values[f"workload.{key}"] = figures.get(key, (0.0, ""))[0]
    absent = sorted(set(tracers[0].absent))
    return {name: {"value": values[name], "unit": unit} for name, unit in names.items()
            if not any(name.startswith(base + ".") for base in absent)}, absent


def attributed(tracer, ops) -> float:
    """Smallest share of an op's timed interval covered by its top-level spans."""
    covered = [0.0] * len(ops)
    for _, start, end, parent, instance in tracer.spans:
        if parent < 0:
            lo = ops[instance].info["start"]
            hi = lo + ops[instance].seconds
            covered[instance] += max(0.0, min(end, hi) - max(start, lo))
    return min(c / op.seconds for c, op in zip(covered, ops) if op.seconds > 0)


def tally(passes) -> tuple[int, int]:
    """Attempted and failed operations; an op whose output differs from
    the same op in the first pass fails too."""
    for p in passes[1:]:
        for op, first in zip(p, passes[0]):
            if op.output != first.output:
                op.failures.append("output differs from the first pass")
    ops = [op for p in passes for op in p]
    return len(ops), sum(1 for op in ops if op.failures)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # Single-threaded BLAS/OpenMP (at most nproc) and all load from this
    # one process keep the runs steady; set before numpy is imported.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    if not (ROOT / "src" / "fgqa" / "__init__.py").is_file():
        print(f"no fgqa package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    t_import = time.perf_counter()
    import workloads
    import fgqa
    t_import = time.perf_counter() - t_import
    if Path(fgqa.__file__).resolve().parent != ROOT / "src" / "fgqa":
        print(f"fgqa imported from {fgqa.__file__}, not from this checkout", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    workdir = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
            workload.setup()
            workload.warmup()
            setups.append(time.perf_counter() - t0)
        setup_s = t_import + statistics.median(setups)

        if args.trace:
            untraced, _ = timed_passes(workload, args.seconds / 2)

            def on_evolve(counts, call_args, call_kwargs):
                model, schedule = call_args[0], call_args[1]
                counts["steps"] += schedule.steps
                counts[f"n{model.n_sites}"] += 1

            traced, tracers = timed_passes(
                workload, args.seconds / 2,
                lambda: tracing.Tracer("fgqa", on_call={"annealing.evolve": on_evolve}))
            passes = untraced + traced
        else:
            passes, _ = timed_passes(workload, args.seconds)

        ops = [op for p in passes for op in p]
        attempted, failed = tally(passes)
        for op in ops:
            for message in op.failures:
                print(f"check failed [{op.name}]: {message}", file=sys.stderr)
        figures = workload.report(untraced if args.trace else passes)
        print("env " + json.dumps(environment()))
        print("digest " + json.dumps({"inputs": workloads.digest(workload.inputs),
                                      "outputs": workloads.digest(
                                          op.output.encode() for op in passes[0]),
                                      "passes": len(passes)}))
        print("report " + json.dumps({k: {"value": v, "unit": u}
                                      for k, (v, u) in figures.items()}))

        if args.trace:
            metrics, absent = layer_metrics(workload, tracers, traced, untraced, figures)
            if absent:
                print("absent " + json.dumps(absent))
            OUT.mkdir(exist_ok=True)
            (OUT / f"spans-{args.workload}-seed{args.seed}.json").write_text(json.dumps(
                {"fields": ["name", "start", "end", "parent", "instance"],
                 "spans": tracers[-1].spans}))
        else:
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            values = {"setup_s": setup_s,
                      "wall_s": workload.wall(passes),
                      "peak_rss_mb": rss_mb,
                      "ok_frac": 1.0 - failed / attempted}
            metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
