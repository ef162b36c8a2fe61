import itertools

import numpy as np
import pytest
from scipy.optimize import brentq

from conftest import random_bias, random_network
from fgqa import charging
from fgqa.cells import BiasSet, CapacitanceNetwork, MaterialStack, build_network, cell_from_coupling_ratio
from fgqa.charging import (
    charging_energy,
    effective_gate_charge,
    ising_parameters,
    minimize_charge_oracle,
    parabola_crossings,
    parabola_family,
    reduce_network,
)
from fgqa.constants import CONST, convert

E = CONST.electron_charge


def reference_design(length=10.0):
    geom = cell_from_coupling_ratio(length, 100.0, 3.5, 0.3)
    return build_network(geom, MaterialStack(), 3)


class TestReduceNetwork:
    def test_zero_bias_kills_offsets(self, rng):
        form = reduce_network(random_network(rng), BiasSet.uniform(3))
        np.testing.assert_array_equal(form.q_offset, 0.0)
        np.testing.assert_array_equal(form.w_bias, 0.0)

    def test_first_pivot_is_branch_sum(self, rng):
        net = random_network(rng)
        form = reduce_network(net, BiasSet.uniform(3))
        expected = (net.c_gate[0] + net.c_sub[0] + net.c_fg[0]
                    + net.c_gate_right[0] + net.c_source[0] + net.c_drain[0])
        assert form.c_eff[0] == pytest.approx(expected, rel=1e-15)

    def test_second_pivot_recursion(self, rng):
        # independent re-evaluation of the elimination recursion
        net = random_network(rng)
        form = reduce_network(net, BiasSet.uniform(3))
        sigma2 = (net.c_gate[1] + net.c_sub[1] + net.c_fg[1] + net.c_gate_right[1]
                  + net.c_source[1] + net.c_drain[1] + net.c_fg[0] + net.c_gate_left[1])
        expected = sigma2 - net.c_fg[0] ** 2 / form.c_eff[0]
        assert form.c_eff[1] == pytest.approx(expected, rel=1e-15)

    def test_offset_charge_is_linear_in_bias(self, rng):
        net = random_network(rng)
        b1, b2 = random_bias(rng), random_bias(rng)
        both = BiasSet(tuple(np.add(b1.v_gate, b2.v_gate)), b1.v_sub + b2.v_sub,
                       tuple(np.add(b1.v_rail, b2.v_rail)))
        q_sum = reduce_network(net, b1).q_offset + reduce_network(net, b2).q_offset
        np.testing.assert_allclose(reduce_network(net, both).q_offset, q_sum,
                                   rtol=1e-12, atol=1e-40)

    def test_rejects_wrong_cell_count(self, rng):
        net = random_network(rng)
        two = CapacitanceNetwork(
            c_gate=net.c_gate[:2], c_sub=net.c_sub[:2],
            c_fg=np.r_[net.c_fg[0], 0.0], c_gate_left=np.r_[0.0, net.c_gate_left[1]],
            c_gate_right=np.r_[net.c_gate_right[0], 0.0],
            c_source=net.c_source[:2], c_drain=net.c_drain[:2])
        with pytest.raises(ValueError):
            reduce_network(two, BiasSet.uniform(2))


class TestChargingEnergy:
    def test_zero_everything_is_zero(self, rng):
        form = reduce_network(random_network(rng), BiasSet.uniform(3))
        assert charging_energy(form, np.zeros(3)) == 0.0

    def test_matches_constrained_minimum(self, rng):
        for _ in range(100):
            net = random_network(rng)
            bias = random_bias(rng)
            n = rng.integers(-3, 4, 3)
            closed = charging_energy(reduce_network(net, bias), n)
            oracle = minimize_charge_oracle(net, bias, n)
            assert closed == pytest.approx(oracle, rel=1e-9, abs=1e-12)

    def test_parabola_crossing_condition(self, rng):
        # energies of n and n+1 on one cell are equal exactly at n_G = 0
        net = reference_design()
        u_w = ising_parameters(reduce_network(net, BiasSet.uniform(3)), 0.0).u_w
        v_star = parabola_crossings(net, [0])[0]
        form = reduce_network(net, BiasSet((v_star, 0.0, v_star), 0.0, (0.0,) * 4))
        assert abs(effective_gate_charge(form, [0, 0, 0])[0]) < 1e-9
        # and the spacing between consecutive crossings is the gate period
        roots = parabola_crossings(net, [0, 1])
        assert roots[1] - roots[0] == pytest.approx(-u_w, rel=1e-12) or \
            roots[1] - roots[0] == pytest.approx(u_w, rel=1e-12)

    def test_mirror_symmetry(self, rng):
        # traversing a row backwards relabels cells without changing physics
        net = random_network(rng)
        bias = random_bias(rng)
        mirrored_bias = BiasSet(bias.v_gate[::-1], bias.v_sub, bias.v_rail[::-1])
        n = rng.integers(-2, 3, 3)
        a = charging_energy(reduce_network(net, bias), n)
        b = charging_energy(reduce_network(net.mirrored(), mirrored_bias), n[::-1])
        assert a == pytest.approx(b, rel=1e-12)


class TestOracle:
    def test_single_isolated_cell(self):
        net = CapacitanceNetwork(
            c_gate=np.array([2e-19]), c_sub=np.array([5e-19]),
            c_fg=np.array([0.0]), c_gate_left=np.array([0.0]),
            c_gate_right=np.array([0.0]),
            c_source=np.array([1e-19]), c_drain=np.array([1.5e-19]))
        total = 2e-19 + 5e-19 + 1e-19 + 1.5e-19
        expected = E / (2.0 * total)
        got = minimize_charge_oracle(net, BiasSet.uniform(1), [1])
        assert got == pytest.approx(expected, rel=1e-12)

    def test_capacitance_scaling(self, rng):
        # U ~ 1/C at zero bias, so doubling every branch halves the energy
        net = random_network(rng)
        doubled = CapacitanceNetwork(**{name: 2.0 * getattr(net, name)
                                        for name in ("c_gate", "c_sub", "c_fg",
                                                     "c_gate_left", "c_gate_right",
                                                     "c_source", "c_drain")})
        n = [1, -2, 1]
        u1 = minimize_charge_oracle(net, BiasSet.uniform(3), n)
        u2 = minimize_charge_oracle(doubled, BiasSet.uniform(3), n)
        assert u2 == pytest.approx(0.5 * u1, rel=1e-12)

    def test_five_cell_row_runs(self, rng):
        geom = cell_from_coupling_ratio(10.0, 100.0, 3.5, 0.3)
        net = build_network(geom, MaterialStack(), 5)
        u = minimize_charge_oracle(net, BiasSet.uniform(5, v_gate=0.2), [1, 0, -1, 0, 1])
        assert np.isfinite(u)


KINDS = ("gate", "sub", "source", "drain", "gate_left", "gate_right", "fg")


def dense_kkt(net, bias, n):
    """Energy (eV) and branch charges (C) by one dense solve of the whole KKT
    system [[diag(1/C), A^T], [-A, 0]] [q; lam] = [V; n e]: the formulation
    the oracle solved before its branch block was eliminated."""
    m = net.m
    vg, vr = bias.v_gate, bias.v_rail
    volts = {"gate": vg, "sub": (bias.v_sub,) * m, "source": vr[:m], "drain": vr[1:],
             "gate_left": (0.0,) + vg[:m - 1], "gate_right": vg[1:] + (0.0,),
             "fg": (0.0,) * m}
    branches = [(kind, i, getattr(net, "c_" + kind)[i], volts[kind][i])
                for i in range(m) for kind in KINDS if getattr(net, "c_" + kind)[i] > 0.0]
    nb = len(branches)
    kkt = np.zeros((nb + m, nb + m))
    rhs = np.concatenate(([v for (_, _, _, v) in branches], np.asarray(n, dtype=float) * E))
    for b, (kind, i, c, _) in enumerate(branches):
        kkt[b, b] = 1.0 / c
        kkt[b, nb + i] = 1.0
        if kind == "fg":
            kkt[b, nb + i + 1] = -1.0
    kkt[nb:, :nb] = -kkt[:nb, nb:].T
    try:
        q = np.linalg.solve(kkt, rhs)[:nb]
    except np.linalg.LinAlgError as exc:
        raise ValueError(f"singular charge-constraint system (non-physical "
                         f"network): {exc}") from exc
    charges = {kind: np.zeros(m) for kind in KINDS}
    energy = 0.0
    for qb, (kind, i, c, v) in zip(q, branches):
        charges[kind][i] = qb
        energy += qb * (qb / (2.0 * c) - v)
    return energy / E, charges


def random_row(rng, m, p_zero=0.3, split=False):
    """Random M-cell network with some zero branches, its bias and occupation.

    Every island keeps a branch to a fixed voltage, so the row is physical.
    With ``split`` an interior c_fg is zero, which cuts the row in two.
    """
    def draw(k):
        return rng.uniform(1e-19, 5e-18, k) * (rng.random(k) >= p_zero)
    grounded = {kind: draw(m) for kind in KINDS[:6]}
    grounded["gate_left"][0] = grounded["gate_right"][-1] = 0.0
    floating = ~np.any([c > 0.0 for c in grounded.values()], axis=0)
    grounded["sub"][floating] = rng.uniform(1e-19, 5e-18, int(floating.sum()))
    c_fg = np.r_[draw(m - 1), 0.0]
    if split and m > 2:
        c_fg[rng.integers(0, m - 2)] = 0.0
    net = CapacitanceNetwork(c_fg=c_fg, **{"c_" + k: v for k, v in grounded.items()})
    bias = BiasSet(tuple(rng.uniform(-5.0, 5.0, m)), float(rng.uniform(-5.0, 5.0)),
                   tuple(rng.uniform(-5.0, 5.0, m + 1)))
    return net, bias, rng.integers(-3, 4, m)


def third_differences(m, energies):
    """Mixed third differences of a function on the corners {0,1}^m, indexed
    by the corner's bits; they all vanish for a quadratic function."""
    corners = energies.reshape((2,) * m)        # axis k is bit m-1-k
    out = []
    for axes in itertools.combinations(range(m), 3):
        d = corners
        for ax in axes:
            d = np.diff(d, axis=ax)
        out.append(d.ravel())
    return np.concatenate(out)


class TestOracleAgainstDenseKKT:
    @pytest.mark.parametrize("m", range(1, 13))
    def test_energies_and_charges_match(self, m):
        rng = np.random.default_rng([7, m])
        for k in range(6):
            net, bias, n = random_row(rng, m, p_zero=0.0 if k == 0 else 0.3, split=k >= 4)
            energy, charges = dense_kkt(net, bias, n)
            assert minimize_charge_oracle(net, bias, n) == pytest.approx(energy, rel=1e-12,
                                                                         abs=0.0)
            # the reference charges meet every island constraint, so the
            # energy it is compared with is the constrained minimum
            island = -sum(charges.values())
            island[1:] += charges["fg"][:-1]
            scale = max(np.max(np.abs(q)) for q in charges.values())
            np.testing.assert_allclose(island, n * E, rtol=0.0, atol=1e-12 * scale)

    def test_island_without_branches_is_singular(self):
        rng = np.random.default_rng(11)
        net, bias, n = random_row(rng, 3, p_zero=0.0)
        fields = {"c_" + kind: getattr(net, "c_" + kind).copy() for kind in KINDS}
        for kind in KINDS:
            fields["c_" + kind][1] = 0.0
        fields["c_fg"][0] = 0.0                 # the FG-FG branch into island 1
        empty = CapacitanceNetwork(**fields)
        with pytest.raises(ValueError) as expected:
            dense_kkt(empty, bias, n)
        for _ in range(2):                      # a failed set-up is not remembered
            with pytest.raises(ValueError) as got:
                minimize_charge_oracle(empty, bias, n)
            assert str(got.value) == str(expected.value)

    @pytest.mark.parametrize("m", range(3, 11))
    def test_corner_energies_are_quadratic(self, m):
        # U is a quadratic form in the occupations, so over the corners of a
        # unit cube every mixed third difference vanishes
        net, bias, n0 = random_row(np.random.default_rng([13, m]), m)
        bits = (np.arange(1 << m)[:, None] >> np.arange(m)[::-1]) & 1
        energies = np.array([minimize_charge_oracle(net, bias, n0 + b) for b in bits])
        worst = np.max(np.abs(third_differences(m, energies)))
        assert worst <= 1e-9 * np.max(np.abs(energies))


class TestOracleSetUpReuse:
    def test_corner_scan_builds_one_branch_table(self, monkeypatch):
        calls = []
        branches = charging._branches
        monkeypatch.setattr(charging, "_branches",
                            lambda net, bias: calls.append(net) or branches(net, bias))
        m = 6
        net, bias, n0 = random_row(np.random.default_rng(17), m)
        bits = (np.arange(1 << m)[:, None] >> np.arange(m)[::-1]) & 1
        for b in bits:
            minimize_charge_oracle(net, bias, n0 + b)
        assert calls == [net]

    def test_alternating_networks_and_biases_match_dense_kkt(self):
        rng = np.random.default_rng(19)
        net_a, bias_a, n = random_row(rng, 5)
        net_b, bias_b, _ = random_row(rng, 5)
        assert bias_a != bias_b
        for net, bias in ((net_a, bias_a), (net_b, bias_b), (net_a, bias_a),
                          (net_a, bias_b), (net_a, bias_a)):
            assert minimize_charge_oracle(net, bias, n) == pytest.approx(
                dense_kkt(net, bias, n)[0], rel=1e-12, abs=0.0)

    def test_network_arrays_are_read_only_copies(self):
        # the oracle's set-up is keyed by the network's identity, so its
        # values must not change after construction
        c_gate = np.array([2e-19, 3e-19])
        net = CapacitanceNetwork(c_gate=c_gate, c_sub=[5e-19, 5e-19], c_fg=[1e-19, 0.0],
                                 c_gate_left=[0.0, 1e-20], c_gate_right=[1e-20, 0.0],
                                 c_source=[1e-19, 1e-19], c_drain=[1e-19, 1e-19])
        with pytest.raises(ValueError):
            net.c_gate[0] = 1e-19
        c_gate[0] = 1e-19
        assert net.c_gate[0] == 2e-19

    def test_cached_arrays_are_read_only(self):
        # every call for the same (network, bias) shares the cached arrays
        net, bias, n = random_row(np.random.default_rng(23), 4)
        minimize_charge_oracle(net, bias, n)
        arrays = charging._island_system(net, bias)
        assert arrays and all(not a.flags.writeable for a in arrays)
        with pytest.raises(ValueError):
            arrays[0][0] = 0.0


class TestIsingParameters:
    def test_fields_vanish_at_degeneracy(self, rng):
        params = ising_parameters(reduce_network(random_network(rng), BiasSet.uniform(3)),
                                  0.0)
        assert params.h == (0.0, 0.0, 0.0)

    def test_gate_window_reference(self):
        params = ising_parameters(reduce_network(reference_design(), BiasSet.uniform(3)),
                                  0.0)
        assert params.u_w == pytest.approx(0.3789231, rel=1e-6)
        assert params.u_w == pytest.approx(0.38, rel=0.03)

    def test_coupling_and_height_reference(self):
        params = ising_parameters(reduce_network(reference_design(), BiasSet.uniform(3)),
                                  0.0)
        assert convert(params.j[0], "eV", "K") == pytest.approx(40.218, rel=1e-4)
        assert convert(params.u_h, "eV", "K") == pytest.approx(53.820, rel=1e-4)

    def test_positivity_and_exact_window(self, rng):
        for _ in range(20):
            net = random_network(rng)
            params = ising_parameters(reduce_network(net, BiasSet.uniform(3)), 0.0)
            assert params.j[0] > 0.0 and params.j[1] > 0.0
            assert params.u_h > 0.0
            assert params.u_w == E / net.c_gate[0]

    def test_height_formula_is_internal_exact(self):
        form = reduce_network(reference_design(), BiasSet.uniform(3))
        params = ising_parameters(form, 0.0)
        d = form.c_eff
        expected = E / (8.0 * d[0]) * (1.0 + form.network.c_fg[0] ** 2 / (d[0] * d[1]))
        assert params.u_h == expected

    def test_two_level_reconstruction_weak_coupling(self, rng):
        # With weak inter-cell coupling the truncated h, J, const reproduce
        # the exact corner energies to second order in c_fg / c_eff.
        net0 = random_network(rng)
        weak = CapacitanceNetwork(
            c_gate=net0.c_gate, c_sub=net0.c_sub, c_fg=1e-3 * net0.c_fg,
            c_gate_left=net0.c_gate_left, c_gate_right=net0.c_gate_right,
            c_source=net0.c_source, c_drain=net0.c_drain)
        bias = random_bias(rng, scale=0.02)
        form = reduce_network(weak, bias)
        params = ising_parameters(form, effective_gate_charge(form, [0, 0, 0]))
        scale = charging_energy(form, [1, 1, 1]) - charging_energy(form, [0, 0, 0])
        for corner in range(8):
            n = [(corner >> k) & 1 for k in range(3)]
            sigma = np.array([2 * b - 1 for b in n], dtype=float)
            model = (params.h[0] * sigma[0] + params.h[1] * sigma[1]
                     + params.h[2] * sigma[2]
                     + params.j[0] * sigma[0] * sigma[1]
                     + params.j[1] * sigma[1] * sigma[2] + params.const)
            exact = charging_energy(form, n)
            assert model == pytest.approx(exact, abs=1e-4 * abs(scale))


class TestParabolas:
    def setup_method(self):
        self.net = reference_design()
        self.u_w = ising_parameters(reduce_network(self.net, BiasSet.uniform(3)),
                                    0.0).u_w

    def _curve_diff(self, n):
        def diff(v):
            grid, curves = parabola_family(self.net, [v], [n, n + 1])
            return curves[n][0] - curves[n + 1][0]
        return diff

    def test_crossings_at_degeneracy(self):
        for n in (-1, 0, 1):
            guess = parabola_crossings(self.net, [n])[0]
            root = brentq(self._curve_diff(n), guess - 0.4 * self.u_w,
                          guess + 0.4 * self.u_w, xtol=1e-13)
            form = reduce_network(self.net, BiasSet((root, 0.0, root), 0.0, (0.0,) * 4))
            assert abs(effective_gate_charge(form, [n, 0, 0])[0]) < 1e-9

    def test_crossing_spacing_is_gate_window(self):
        roots = []
        for n in (0, 1):
            guess = parabola_crossings(self.net, [n])[0]
            roots.append(brentq(self._curve_diff(n), guess - 0.4 * self.u_w,
                                guess + 0.4 * self.u_w, xtol=1e-13))
        assert abs(roots[1] - roots[0]) == pytest.approx(self.u_w, rel=1e-9)

    def test_each_adjacent_pair_crosses_exactly_once(self):
        # same curvature, so each adjacent pair differs linearly: one
        # crossing per pair, and the ladder of pairs repeats every U_w
        lo = parabola_crossings(self.net, [0])[0]
        hi = parabola_crossings(self.net, [1])[0]
        pad = 0.45 * abs(hi - lo)
        grid = np.linspace(min(lo, hi) - pad, max(lo, hi) + pad, 4001)
        _, curves = parabola_family(self.net, grid, [0, 1, 2])
        for a, b in ((0, 1), (1, 2)):
            diff = curves[a] - curves[b]
            changes = int(np.sum(np.sign(diff[:-1]) * np.sign(diff[1:]) < 0))
            assert changes == 1

    def test_branches_are_convex(self):
        grid = np.linspace(-1.0, 1.0, 201)
        _, curves = parabola_family(self.net, grid, [-1, 0, 1])
        for u in curves.values():
            second = np.diff(u, 2)
            assert np.all(second > -1e-15)

    @pytest.mark.parametrize("cell, tie_third", [(0, True), (1, False), (2, True)])
    def test_matches_reduction_per_voltage(self, cell, tie_third):
        # U_n(V) = A (n + q_offset(V)/e)^2 with the pivots and offsets of a
        # reduction at every grid voltage
        grid = np.linspace(-1.3, 0.9, 57)
        _, curves = parabola_family(self.net, grid, [-1, 0, 2], cell=cell, v_gate2=0.2,
                                    v_sub=-0.05, tie_third=tie_third, v_rail=0.1)
        for k, v in enumerate(grid.tolist()):
            bias = BiasSet((v, 0.2, v if tie_third else 0.2), -0.05, (0.1,) * 4)
            form = reduce_network(self.net, bias)
            d, c_fg = form.c_eff, self.net.c_fg
            a = E / (2.0 * d[cell]) * (1.0 + (c_fg[cell]**2 / (d[cell] * d[cell + 1])
                                             if cell < 2 else 0.0))
            for n, u in curves.items():
                assert u[k] == pytest.approx(a * (n + form.q_offset[cell] / E)**2,
                                             rel=2e-15, abs=1e-300)

    @pytest.mark.parametrize("cell", [0, 1, 2])
    @pytest.mark.parametrize("tie_third", [True, False])
    def test_crossings_of_every_cell_under_bias(self, cell, tie_third):
        # each crossing is a root of the parabola difference, where the
        # cell's gate coordinate vanishes
        bias = dict(v_gate2=0.2, v_sub=-0.05, tie_third=tie_third, v_rail=0.1)
        if cell == 2 and not tie_third:
            # only the held second and third gates reach the last cell
            with pytest.raises(ValueError, match="does not couple"):
                parabola_crossings(self.net, [0], cell=cell, **bias)
            return
        ns = [-1, 0, 1]
        crossings = parabola_crossings(self.net, ns, cell=cell, **bias)
        period = abs(crossings[1] - crossings[0])
        for n, guess in zip(ns, crossings.tolist()):
            def diff(v):
                _, curves = parabola_family(self.net, [v], [n, n + 1], cell=cell, **bias)
                return curves[n][0] - curves[n + 1][0]
            root = brentq(diff, guess - 0.4 * period, guess + 0.4 * period, xtol=1e-13)
            assert guess == pytest.approx(root, rel=0.0, abs=1e-9)
            v_gate = (root, 0.2, root if tie_third else 0.2)
            form = reduce_network(self.net, BiasSet(v_gate, -0.05, (0.1,) * 4))
            occupation = [n if k == cell else 0 for k in range(3)]
            assert abs(effective_gate_charge(form, occupation)[cell]) < 1e-9

    @pytest.mark.parametrize("m", [1, 2, 4])
    def test_sweeps_need_three_cells(self, m):
        net = build_network(cell_from_coupling_ratio(10.0, 100.0, 3.5, 0.3),
                            MaterialStack(), m)
        with pytest.raises(ValueError):
            parabola_crossings(net, [0])
        with pytest.raises(ValueError):
            parabola_family(net, [0.0, 0.1], [0])

    @pytest.mark.parametrize("cell", [-1, 3])
    def test_rejects_cell_outside_row(self, cell):
        with pytest.raises(ValueError, match="cell index"):
            parabola_crossings(self.net, [0], cell=cell)
        with pytest.raises(ValueError, match="cell index"):
            parabola_family(self.net, [0.0], [0], cell=cell)

    def test_rejects_empty_ranges(self):
        with pytest.raises(ValueError):
            parabola_family(self.net, [], [0])
        with pytest.raises(ValueError):
            parabola_family(self.net, [0.0], [])
