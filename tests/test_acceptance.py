"""Acceptance suite: one test per release criterion, each printing a
pass/fail line and enforcing its runtime budget.

Reference values for the two standard design families (2.5 nm oxide on
10 nm high gates; 3.5 nm oxide on 100 nm high gates, both at coupling
ratio 0.3 and widths equal to the cell length):

    family A (d_ox=2.5, Z=10):   L=5: J=596.0 K, U_h=249.7 K, 5.61 GHz, U_w=1.08 eV
                                 L=10: J=85.8 K, U_h=80.4 K, 22.5 GHz, U_w=0.27 eV
                                 L=15: J=23.5 K, U_h=39.5 K, 50.5 GHz, U_w=0.12 eV
    family B (d_ox=3.5, Z=100):  L=5: J=534.4 K, U_h=100.1 K, 1.65 GHz, U_w=1.52 eV
                                 L=10: J=251.0 K, U_h=61.5 K, 6.61 GHz, U_w=0.38 eV
                                 L=15: J=124.0 K, U_h=39.3 K, 14.9 GHz, U_w=0.17 eV

The gate-window values U_w reproduce to a fraction of a percent; the
couplings and tunnel rates are checked to one order of magnitude plus
their parameter trends (the stated values were computed under branch
conventions that are not fully pinned down by the published formulas,
and the recomputed values are logged alongside).
"""

import json
import time

import numpy as np
import pytest

from conftest import random_bias, random_network
from fgqa import annealing, charging, decoherence
from fgqa.cells import BiasSet, MaterialStack, build_network, cell_from_coupling_ratio
from fgqa.charging import (
    charging_energy,
    effective_gate_charge,
    ising_parameters,
    minimize_charge_oracle,
    parabola_crossings,
    parabola_family,
    reduce_network,
)
from fgqa.cli import main
from fgqa.constants import convert
from fgqa.tunneling import TunnelBarrier, tunnel_amplitude

from scipy.optimize import brentq

from test_decoherence import ci_quadrature, si_quadrature

MAT = MaterialStack()

FAMILIES = {
    "A": dict(d_ox=2.5, height=10.0),
    "B": dict(d_ox=3.5, height=100.0),
}

REFERENCE = {
    # (family, L): (J_K, U_h_K, tunnel_GHz, U_w_eV)
    ("A", 5.0): (596.0, 249.7, 5.61, 1.08),
    ("A", 10.0): (85.8, 80.4, 22.5, 0.27),
    ("A", 15.0): (23.5, 39.5, 50.5, 0.12),
    ("B", 5.0): (534.4, 100.1, 1.65, 1.52),
    ("B", 10.0): (251.0, 61.5, 6.61, 0.38),
    ("B", 15.0): (124.0, 39.3, 14.9, 0.17),
}


def design(family, length):
    spec = FAMILIES[family]
    geom = cell_from_coupling_ratio(length, spec["height"], spec["d_ox"], 0.3)
    return geom, build_network(geom, MAT, 3)


def derived_quantities(family, length, v_cg=0.0):
    geom, net = design(family, length)
    params = ising_parameters(reduce_network(net, BiasSet.uniform(3)), 0.0)
    amp = tunnel_amplitude(geom, TunnelBarrier.from_stack(geom, MAT), v_cg)
    return (convert(params.j[0], "eV", "K"), convert(params.u_h, "eV", "K"),
            amp, params.u_w)


def budget(name, start, limit):
    elapsed = time.perf_counter() - start
    assert elapsed < limit, f"{name} exceeded its {limit:.0f} s budget ({elapsed:.1f} s)"
    return elapsed


def report(name, detail=""):
    suffix = f"  ({detail})" if detail else ""
    print(f"[acceptance] {name}: PASS{suffix}")


def test_criterion_1_gate_window_reproduction():
    start = time.perf_counter()
    for (family, length), (_, _, _, u_w_ref) in sorted(REFERENCE.items()):
        _, _, _, u_w = derived_quantities(family, length)
        assert u_w == pytest.approx(u_w_ref, rel=0.03), (family, length)
    elapsed = budget("criterion 1", start, 1.0)
    report("criterion 1 (gate window U_w, all six designs within 3%)",
           f"{elapsed * 1e3:.0f} ms")


def test_criterion_2_charging_height():
    start = time.perf_counter()
    _, u_h, _, _ = derived_quantities("B", 10.0)
    assert u_h == pytest.approx(61.5, rel=0.30)
    # internal definition is exact
    _, net = design("B", 10.0)
    form = reduce_network(net, BiasSet.uniform(3))
    params = ising_parameters(form, 0.0)
    d = form.c_eff
    expected = (1.602176634e-19 / (8.0 * d[0])
                * (1.0 + net.c_fg[0] ** 2 / (d[0] * d[1])))
    assert params.u_h == expected
    budget("criterion 2", start, 1.0)
    report("criterion 2 (charging height U_h)",
           f"computed {u_h:.1f} K vs reference 61.5 K")


def test_criterion_3_coupling_and_tunneling_magnitudes_and_trends():
    start = time.perf_counter()
    logged = []
    for (family, length), (j_ref, _, ghz_ref, _) in sorted(REFERENCE.items()):
        j_k, _, amp, _ = derived_quantities(family, length)
        assert 0.1 < j_k / j_ref < 10.0, (family, length, j_k)
        assert 0.1 < amp / (ghz_ref * 1e9) < 10.0, (family, length, amp)
        logged.append(f"{family}/L={length:g}: J {j_k:.1f} K (ref {j_ref}), "
                      f"tunnel {amp / 1e9:.2f} GHz (ref {ghz_ref})")
    for line in logged:
        print(f"[acceptance]   {line}")

    for family in FAMILIES:
        j_by_l = [derived_quantities(family, length)[0] for length in (5.0, 10.0, 15.0)]
        uh_by_l = [derived_quantities(family, length)[1] for length in (5.0, 10.0, 15.0)]
        amp_by_l = [derived_quantities(family, length)[2] for length in (5.0, 10.0, 15.0)]
        assert j_by_l[0] > j_by_l[1] > j_by_l[2], family
        assert uh_by_l[0] > uh_by_l[1] > uh_by_l[2], family
        assert amp_by_l[0] < amp_by_l[1] < amp_by_l[2], family

    # taller gates tunnel more, thicker oxide less
    geom_short = cell_from_coupling_ratio(15.0, 10.0, 3.5, 0.3)
    geom_tall = cell_from_coupling_ratio(15.0, 100.0, 3.5, 0.3)
    barrier = TunnelBarrier.from_stack(geom_tall, MAT)
    assert tunnel_amplitude(geom_tall, barrier) > tunnel_amplitude(geom_short, barrier)
    thick = TunnelBarrier.from_stack(geom_tall, MAT, d_ox=4.0)
    assert tunnel_amplitude(geom_tall, thick) < tunnel_amplitude(geom_tall, barrier)

    # gate modulation across +-1 V spans at least three decades
    geom, _ = design("B", 15.0)
    b = TunnelBarrier.from_stack(geom, MAT)
    swing = tunnel_amplitude(geom, b, -1.0) / tunnel_amplitude(geom, b, 1.0)
    assert swing >= 1e3
    budget("criterion 3", start, 5.0)
    report("criterion 3 (J and tunneling: order of magnitude + trends)",
           f"gate swing {swing:.0f}x")


def test_criterion_4_charging_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(417)
    worst = 0.0
    for _ in range(120):
        net = random_network(rng)
        bias = random_bias(rng)
        n = rng.integers(-3, 4, 3)
        closed = charging_energy(reduce_network(net, bias), n)
        oracle = minimize_charge_oracle(net, bias, n)
        rel = abs(closed - oracle) / max(abs(oracle), 1e-12)
        worst = max(worst, rel)
        assert rel <= 1e-9
    elapsed = budget("criterion 4", start, 5.0)
    report("criterion 4 (closed form vs constrained minimum, 120 instances)",
           f"worst rel dev {worst:.2e}, {elapsed:.2f} s")


def test_criterion_5_parabola_geometry():
    start = time.perf_counter()
    _, net = design("B", 10.0)
    u_w = ising_parameters(reduce_network(net, BiasSet.uniform(3)), 0.0).u_w

    def curve_diff(n):
        def diff(v):
            _, curves = parabola_family(net, [v], [n, n + 1])
            return curves[n][0] - curves[n + 1][0]
        return diff

    roots = []
    for n in (0, 1):
        guess = parabola_crossings(net, [n])[0]
        root = brentq(curve_diff(n), guess - 0.4 * u_w, guess + 0.4 * u_w, xtol=1e-13)
        form = reduce_network(net, BiasSet((root, 0.0, root), 0.0, (0.0,) * 4))
        n_g = effective_gate_charge(form, [n, 0, 0])[0]
        assert abs(n_g) < 1e-9
        roots.append(root)
    assert abs(roots[1] - roots[0]) == pytest.approx(u_w, rel=1e-9)
    budget("criterion 5", start, 1.0)
    report("criterion 5 (parabola crossings at n_G=0, spacing U_w)",
           f"U_w {u_w:.4f} V")


def test_criterion_6_decoherence():
    start = time.perf_counter()
    env = decoherence.PhononEnvironment()
    exponent = decoherence.renormalization_exponent(env)
    assert exponent == pytest.approx(1323.6, rel=0.01)

    t10 = decoherence.coherence_time(convert(10.0, "K", "Hz"), env.alpha)
    t100 = decoherence.coherence_time(convert(100.0, "K", "Hz"), env.alpha)
    assert t10 / t100 == pytest.approx(10.0, rel=1e-12)
    # quoted 4.33 ms at 10 K; the formula with the quoted alpha lands a
    # factor ~10 below, which is inside the accepted factor-of-10 window
    assert 0.1 <= t10 / 4.33e-3 <= 10.0

    for y in (0.1, 0.7, 2.0, 4.0, 9.0, 30.0, 100.0):
        assert decoherence.ci(y) == pytest.approx(ci_quadrature(y), abs=1e-8)
        assert decoherence.si(y) == pytest.approx(si_quadrature(y), abs=1e-8)
    budget("criterion 6", start, 1.0)
    report("criterion 6 (decoherence: exponent, t_coh ratio, ci/si)",
           f"exponent {exponent:.1f}, t_coh(10 K) {t10 * 1e3:.3f} ms")


def _conditioned_chain_seeds(count=20, min_gap=0.02):
    """First `count` seeds whose chain has a clearly non-degenerate minimum.

    Bounded-time annealing cannot resolve quasi-degenerate ground states,
    so the random family is conditioned on a minimum classical gap.
    """
    seeds = []
    seed = 0
    while len(seeds) < count:
        model = _random_chain(seed)
        energies = np.sort(annealing.diagonal_energies(model))
        if energies[1] - energies[0] >= min_gap:
            seeds.append(seed)
        seed += 1
    return seeds


def _random_chain(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 11))
    h = rng.uniform(-0.5, 0.5, n)
    j = rng.uniform(0.3, 1.0, n - 1) * rng.choice([-1.0, 1.0], n - 1)
    return annealing.chain_model(h, j)


def _local_scale(model):
    s = np.abs(model.h).copy()
    for (i, j, w) in model.couplings:
        s[i] += abs(w)
        s[j] += abs(w)
    return float(s.max())


def _anneal_slow(model, tau, rotation=0.05):
    scale = _local_scale(model)
    schedule = annealing.Schedule(delta0=5.0 * scale, t_total=tau / scale,
                                  steps=int(tau / rotation), profile="exponential")
    return annealing.evolve(model, schedule)


def test_criterion_7_annealer_correctness():
    start = time.perf_counter()
    hardest = (1.0, None)
    for seed in _conditioned_chain_seeds(20):
        model = _random_chain(seed)
        for tau in (200.0, 800.0, 3200.0):
            result = _anneal_slow(model, tau)
            p = annealing.success_probability(model, result.psi, diagonal=result.diagonal)
            if p >= 0.93:
                break
        assert abs(np.linalg.norm(result.psi) - 1.0) <= 1e-9, seed
        histogram = annealing.measure(result.psi, 4096, seed=seed + 1)
        ground = annealing.brute_force_ground_state(model)
        freq = sum(histogram.get(s, 0) for s in ground.states) / 4096
        assert freq >= 0.9, (seed, freq)
        if p < hardest[0]:
            hardest = (p, seed)

    # hermiticity of the matrix-free Hamiltonian application
    rng = np.random.default_rng(99)
    model = _random_chain(2)
    dim = 2**model.n_sites
    for _ in range(5):
        psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        phi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        psi /= np.linalg.norm(psi)
        phi /= np.linalg.norm(phi)
        lhs = np.vdot(phi, annealing.apply_hamiltonian(model, 0.7, psi))
        rhs = np.conj(np.vdot(psi, annealing.apply_hamiltonian(model, 0.7, phi)))
        assert abs(lhs - rhs) <= 1e-12

    # success probability non-decreasing over three anneal durations
    rng = np.random.default_rng(5)
    gapped = annealing.chain_model(rng.uniform(-0.5, 0.5, 6),
                                   rng.uniform(0.3, 1.0, 5) * rng.choice([-1.0, 1.0], 5))
    probs = [annealing.success_probability(gapped, _anneal_slow(gapped, tau).psi)
             for tau in (30.0, 120.0, 480.0)]
    assert probs[0] <= probs[1] <= probs[2]

    # device-derived 2 x 3 array annealed at its own (J, delta0) pair
    geom = cell_from_coupling_ratio(10.0, 100.0, 3.5, 0.3)
    grid = annealing.fg_grid_model(geom, MAT, BiasSet.uniform(3), 2, 3, v_cg=-1.7)
    j = grid.couplings[0][2]
    schedule = annealing.Schedule(delta0=grid.delta0, t_total=200.0 / (3.0 * j),
                                  steps=4000, profile="exponential")
    result = annealing.evolve(grid, schedule)
    histogram = annealing.measure(result.psi, 4096, seed=123)
    ground = annealing.brute_force_ground_state(grid)
    freq = sum(histogram.get(s, 0) for s in ground.states) / 4096
    assert freq >= 0.9

    elapsed = budget("criterion 7", start, 60.0)
    report("criterion 7 (annealer: 20 chains + device grid + trends)",
           f"hardest instance p={hardest[0]:.3f} (seed {hardest[1]}), {elapsed:.1f} s")


def test_criterion_8_maxcut():
    start = time.perf_counter()
    cases = {
        "four-cycle": ([(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (0, 3, 1.0)], 4.0),
        "triangle": ([(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)], 2.0),
    }
    for name, (edges, expected_cut) in cases.items():
        model = annealing.maxcut_to_ising(edges)
        ground = annealing.brute_force_ground_state(model)
        assert all(annealing.cut_value(model, s) == expected_cut for s in ground.states)
        result = _anneal_slow(model, 300.0)
        histogram = annealing.measure(result.psi, 4096, seed=17)
        best = max(histogram, key=histogram.get)
        assert annealing.cut_value(model, best) == expected_cut, name
    budget("criterion 8", start, 5.0)
    report("criterion 8 (MAX-CUT: cycle cut 4, triangle cut 2, anneal = exact)")


def test_criterion_9_cli_determinism(tmp_path):
    start = time.perf_counter()
    derive_cfg = {"schema_version": 1, "lengths_nm": [5.0, 10.0, 15.0],
                  "tunnel_oxide_nm": 3.5, "fg_height_nm": 100.0, "coupling_ratio": 0.3}
    sweep_cfg = {"schema_version": 1, "parameter": "L",
                 "range": {"min": 5.0, "max": 15.0, "points": 5},
                 "geometry": {"length_nm": 10.0, "height_nm": 100.0,
                              "tunnel_oxide_nm": 3.5, "coupling_ratio": 0.3}}
    anneal_cfg = {"schema_version": 1,
                  "problem": {"kind": "maxcut",
                              "edges": [[0, 1, 1.0], [1, 2, 1.0], [2, 3, 1.0],
                                        [0, 3, 1.0]]},
                  "schedule": {"delta0_ev": 5.0, "t_total": 40.0, "steps": 800,
                               "profile": "exponential"},
                  "shots": 1024}
    for name, cfg in (("derive", derive_cfg), ("sweep", sweep_cfg)):
        cfg_path = tmp_path / f"{name}.json"
        cfg_path.write_text(json.dumps(cfg))
        outs = []
        for k in range(2):
            out = tmp_path / f"{name}{k}.csv"
            assert main([name, "--config", str(cfg_path), "--out", str(out)]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1], name
    cfg_path = tmp_path / "anneal.json"
    cfg_path.write_text(json.dumps(anneal_cfg))
    pairs = []
    for k in range(2):
        prefix = tmp_path / f"run{k}"
        assert main(["anneal", "--config", str(cfg_path), "--seed", "5",
                     "--out", str(prefix)]) == 0
        pairs.append((prefix.with_name(prefix.name + "_histogram.csv").read_bytes(),
                      prefix.with_name(prefix.name + "_trace.csv").read_bytes()))
    assert pairs[0] == pairs[1]
    budget("criterion 9", start, 30.0)
    report("criterion 9 (fixed-seed CLI runs are byte-identical)")
