"""Tests of the benchmark's own arithmetic, checks and tracing.

    python3 -m pytest bench -q
"""

import json
import sys
import types
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from fgqa import cli  # noqa: E402


def span(name, start, end, parent=-1, instance=0):
    return [name, start, end, parent, instance]


class TestSelfTime:
    def test_children_are_subtracted_once(self):
        spans = [span("root", 0.0, 10.0),
                 span("a", 1.0, 3.0, 0),
                 span("b", 2.0, 4.0, 0),        # overlaps a: the union counts
                 span("deep", 2.5, 3.5, 2)]     # grandchild: only b loses it
        assert tracing.self_times(spans) == pytest.approx([7.0, 2.0, 1.0, 1.0])

    def test_overhanging_child_is_clipped(self):
        spans = [span("root", 0.0, 10.0), span("late", 9.0, 12.0, 0)]
        assert tracing.self_times(spans)[0] == pytest.approx(9.0)

    def test_aggregate_sums_per_name(self):
        spans = [span("f", 0.0, 2.0), span("g", 0.5, 1.0, 0), span("f", 3.0, 4.0)]
        stats = tracing.aggregate(spans)
        assert stats["f"] == {"calls": 2, "s": pytest.approx(3.0),
                              "self_s": pytest.approx(2.5)}
        assert stats["g"]["calls"] == 1


@pytest.fixture
def fake_package(monkeypatch):
    """A package whose ``cli`` from-imports a function of ``annealing``."""
    pkg = types.ModuleType("fakepkg")
    annealing = types.ModuleType("fakepkg.annealing")
    tunneling = types.ModuleType("fakepkg.tunneling")
    front = types.ModuleType("fakepkg.cli")

    def evolve(x):
        return x + 1

    class Barrier:
        @classmethod
        def from_stack(cls, x):
            return (cls, x)

    annealing.evolve = evolve
    tunneling.Barrier = Barrier
    front.evolve = evolve                 # as left by "from .annealing import evolve"
    front.main = lambda: front.evolve(1) + annealing.evolve(1)
    for mod in (pkg, annealing, tunneling, front):
        monkeypatch.setitem(sys.modules, mod.__name__, mod)
    return annealing, tunneling, front


class TestTracer:
    TARGETS = (("annealing", "evolve"), ("annealing", "removed"),
               ("tunneling", "Barrier.from_stack"), ("tunneling", "Gone.from_stack"))

    def test_patches_every_binding_and_restores(self, fake_package):
        annealing, tunneling, front = fake_package
        original = annealing.evolve
        with tracing.Tracer("fakepkg", self.TARGETS) as tracer:
            assert front.main() == 4
            assert tunneling.Barrier.from_stack(5) == (tunneling.Barrier, 5)
        assert [s[0] for s in tracer.spans] == ["annealing.evolve", "annealing.evolve",
                                                "tunneling.Barrier.from_stack"]
        assert annealing.evolve is original and front.evolve is original
        assert not hasattr(tunneling.Barrier.from_stack, "__wrapped__")

    def test_missing_function_is_reported_absent(self, fake_package):
        with tracing.Tracer("fakepkg", self.TARGETS) as tracer:
            pass
        assert tracer.absent == ["annealing.removed", "tunneling.Gone.from_stack"]

    def test_absent_function_has_no_layer_metrics(self):
        tracer = tracing.Tracer("fgqa", ())
        tracer.absent = ["charging.reduce_network"]
        ops = [[workloads.Op("op", 1.0, [], b"", {"start": 0.0})]]
        workload = types.SimpleNamespace(wall=lambda passes: 1.0)
        metrics, absent = run.layer_metrics(workload, [tracer], ops, ops, {})
        assert absent == ["charging.reduce_network"]
        assert not [k for k in metrics if k.startswith("charging.reduce_network.")]
        assert "charging.ising_parameters.calls" in metrics


def test_corrupted_histogram_energy_is_a_failed_operation(tmp_path):
    config = {"schema_version": 1, "shots": 256,
              "problem": {"kind": "chain", "h": [0.1, -0.2, 0.3], "j": [0.5, -0.4]},
              "schedule": {"delta0_ev": 1.0, "t_total": 5.0, "steps": 40}}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    assert cli.main(["anneal", "--config", str(path), "--out", str(tmp_path / "run"),
                     "--seed", "3"]) == 0
    hist = (tmp_path / "run_histogram.csv").read_text()
    trace = (tmp_path / "run_trace.csv").read_text()
    h = [0.1, -0.2, 0.3]
    couplings = [(0, 1, 0.5), (1, 2, -0.4)]
    ground = float(workloads.ising_energies(3, h, couplings).min())
    assert workloads.check_anneal_outputs(hist, trace, 256, h, couplings, ground) == []

    lines = hist.splitlines()
    state, count, freq, energy = lines[4].split(",")
    lines[4] = ",".join([state, count, freq, repr(float(energy) * (1 + 1e-9))])
    failures = workloads.check_anneal_outputs("\n".join(lines), trace, 256, h, couplings,
                                              ground)
    assert len(failures) == 1 and "Ising sum" in failures[0]
    op = workloads.Op("anneal", 1.0, failures, b"")
    assert run.tally([[op]]) == (1, 1)


def test_tunnel_rate_must_rise_across_distinct_lengths():
    header = "# fgqa sweep\nL_nm,J_K,U_h_K,U_w_eV,tunnel_Hz\n"
    rising = header + "5.0,3.0,2.0,1.5,1e9\n7.5,2.0,1.0,0.7,2e9\n7.5,2.0,1.0,0.7,2e9\n"
    assert workloads.check_datasheet_csv("sweep_L", rising, 3) == []
    falling = header + "5.0,3.0,2.0,1.5,3e9\n7.5,2.0,1.0,0.7,2e9\n"
    assert workloads.check_datasheet_csv("sweep_L", falling, 2) == [
        "sweep_L: tunnel_Hz does not increase with L"]


def test_output_change_between_passes_fails_the_op():
    first = [workloads.Op("a", 1.0, [], b"x"), workloads.Op("b", 1.0, [], b"y")]
    second = [workloads.Op("a", 1.0, [], b"x"), workloads.Op("b", 1.0, [], b"z")]
    assert run.tally([first, second]) == (4, 1)


def test_third_differences_vanish_only_for_quadratics():
    m = 5
    bits = (np.arange(1 << m)[:, None] >> np.arange(m)) & 1
    rng = np.random.default_rng(0)
    a, b = rng.normal(size=(m, m)), rng.normal(size=m)
    quadratic = np.einsum("ci,ij,cj->c", bits, a, bits) + bits @ b
    assert np.max(np.abs(workloads.third_differences(m, quadratic))) < 1e-12
    cubic = quadratic + bits[:, 0] * bits[:, 1] * bits[:, 2]
    assert np.max(np.abs(workloads.third_differences(m, cubic))) > 0.5


def test_benchmark_json_matches_the_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_names()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
