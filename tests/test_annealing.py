import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import expm

from fgqa.annealing import (
    IsingModel,
    Schedule,
    apply_hamiltonian,
    brute_force_ground_state,
    chain_model,
    cut_value,
    device_parameters,
    diagonal_energies,
    evolve,
    fg_grid_model,
    grid_model,
    initial_state,
    maxcut_to_ising,
    measure,
    state_string,
    success_probability,
)
from fgqa.annealing import (_BLOCK_SITES, _CHUNK_STEPS, _CYCLED_MAX_SITES, _WALSH_MAX_SITES,
                            MAX_SITES, _blocked_kernel, _rotation_coefficients,
                            _rotation_index, _sx_blocks, _walsh_kernel)
from fgqa.cells import BiasSet, CellGeometry, MaterialStack, cell_from_coupling_ratio
from fgqa.charging import ising_parameters, reduce_network
from fgqa.cells import build_network
from fgqa.tunneling import TunnelBarrier, tunnel_amplitude


def random_chain(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 11))
    h = rng.uniform(-0.5, 0.5, n)
    j = rng.uniform(0.3, 1.0, n - 1) * rng.choice([-1.0, 1.0], n - 1)
    return chain_model(h, j)


def transverse_scale(model):
    """Strong-field scale: a few times the largest local longitudinal field."""
    s = np.abs(model.h).copy()
    for (i, j, w) in model.couplings:
        s[i] += abs(w)
        s[j] += abs(w)
    return float(s.max())


def slow_schedule(model, tau=300.0):
    scale = transverse_scale(model)
    return Schedule(delta0=5.0 * scale, t_total=tau / scale,
                    steps=int(tau / 0.05), profile="exponential")


def dense_hamiltonian(model, delta):
    """Kronecker-product oracle; site i lives in bit i of the index."""
    sz = np.diag([1.0, -1.0])
    sx = np.array([[0.0, 1.0], [1.0, 0.0]])
    eye = np.eye(2)
    n = model.n_sites

    def op(single, site):
        mats = [eye] * n
        mats[n - 1 - site] = single
        out = np.array([[1.0]])
        for m in mats:
            out = np.kron(out, m)
        return out

    h_mat = sum(w * op(sz, i) @ op(sz, j) for (i, j, w) in model.couplings)
    h_mat = h_mat + sum(model.h[i] * op(sz, i) for i in range(n))
    return h_mat + delta * sum(op(sx, i) for i in range(n))


def random_state(rng, n):
    psi = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    return psi / np.linalg.norm(psi)


def flip_rotation(psi, theta):
    """Per-site reference for exp(-i theta sum sx): one bit-flip gather per site."""
    n = psi.shape[0].bit_length() - 1
    idx = np.arange(psi.shape[0])
    for site in range(n):
        psi = math.cos(theta) * psi - 1j * math.sin(theta) * psi[idx ^ (1 << site)]
    return psi


def blocked_rotation(psi, theta):
    """exp(-i theta sum sx) psi as one step of the blocked kernel."""
    return _blocked_kernel(psi.shape[0].bit_length() - 1, np.ones(psi.shape[0]))(
        psi.copy(), np.array([theta]))


def strang_reference(model, schedule, psi0):
    """Step-by-step Strang splitting with per-site flips, angles from scalar calls."""
    dt = schedule.t_total / schedule.steps
    half = np.exp(-0.5j * diagonal_energies(model) * dt)
    psi = np.array(psi0, dtype=complex)
    for k in range(schedule.steps):
        psi = half * flip_rotation(half * psi, schedule.delta_at((k + 0.5) * dt) * dt)
    return psi


class TestTransverseRotation:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_matches_dense_exponential(self, rng, n):
        theta = 0.37
        sx_sum = dense_hamiltonian(IsingModel(n, np.zeros(n), ()), 1.0)
        psi = random_state(rng, n)
        np.testing.assert_allclose(blocked_rotation(psi, theta),
                                   expm(-1j * theta * sx_sum) @ psi, rtol=0, atol=1e-12)

    # every size from 2 to 17: both layouts, their crossover at
    # _CYCLED_MAX_SITES and each rise in the number of blocks
    @pytest.mark.parametrize("n", range(2, 18))
    def test_matches_per_site_flips_at_block_boundaries(self, rng, n):
        psi = random_state(rng, n)
        for theta in (0.05, 1.3):
            np.testing.assert_allclose(blocked_rotation(psi, theta),
                                       flip_rotation(psi, theta), rtol=0, atol=1e-14)

    @pytest.mark.parametrize("b", range(1, 5))
    def test_real_block_is_gauged_kronecker_rotation(self, b):
        theta = 0.37
        single = expm(-1j * theta * np.array([[0.0, 1.0], [1.0, 0.0]]))
        unitary = np.array([[1.0]])
        for _ in range(b):
            unitary = np.kron(unitary, single)
        counts = [bin(s).count("1") for s in range(2**b)]
        gauge = np.diag(np.array([1, 1j, -1, -1j])[np.array(counts) % 4])
        row = _rotation_coefficients(np.array([theta]), b)[0]
        rotation = row[_rotation_index(b)]
        np.testing.assert_allclose(rotation, gauge @ unitary @ gauge.conj(), rtol=0,
                                   atol=1e-15)
        np.testing.assert_array_equal(row[_rotation_index(b, lowest=True)],
                                      np.kron(rotation.T, np.eye(2)))

    @pytest.mark.parametrize("n", (7, 8, 13))
    def test_gauge_round_trip_leaves_state_unchanged(self, rng, n):
        psi = random_state(rng, n)
        out = _blocked_kernel(n, np.ones(2**n))(psi.copy(), np.array([]))
        np.testing.assert_array_equal(out, psi)


class TestStepKernels:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_evolve_matches_dense_strang_product(self, rng, n):
        model = IsingModel(n, rng.normal(size=n),
                           tuple((i, i + 1, float(rng.normal())) for i in range(n - 1)))
        sched = Schedule(delta0=1.5, t_total=2.0, steps=5, profile="exponential")
        dt = sched.t_total / sched.steps
        half = expm(-0.5j * dt * dense_hamiltonian(model, 0.0))
        sx_sum = dense_hamiltonian(IsingModel(n, np.zeros(n), ()), 1.0)
        psi0 = random_state(rng, n)
        expected = psi0
        for k in range(sched.steps):
            theta = sched.delta_at((k + 0.5) * dt) * dt
            expected = half @ (expm(-1j * theta * sx_sum) @ (half @ expected))
        np.testing.assert_allclose(evolve(model, sched, psi0=psi0).psi, expected,
                                   rtol=0, atol=1e-12)

    @pytest.mark.parametrize("n", (6, 7, 8))
    def test_kernels_agree_after_many_steps(self, rng, n):
        phase = np.exp(-1j * rng.uniform(0.0, 0.1, 2**n))
        thetas = Schedule(delta0=4.0, t_total=1000.0, steps=1000,
                          profile="exponential").delta_at(np.arange(1000) + 0.5)
        psi = random_state(rng, n)
        np.testing.assert_allclose(_walsh_kernel(n, phase)(psi.copy(), thetas),
                                   _blocked_kernel(n, phase)(psi.copy(), thetas),
                                   rtol=0, atol=1e-11)

    # Walsh, cycled with an even and an odd number of blocks, in place
    @pytest.mark.parametrize("n", (5, 7, 8, 10, 11))
    @pytest.mark.parametrize("steps", (1, 255, 256, 257, 1000))
    def test_chunk_edges(self, rng, n, steps):
        assert _CHUNK_STEPS == 256
        model = IsingModel(n, rng.normal(size=n),
                           tuple((i, i + 1, float(rng.normal())) for i in range(n - 1)))
        sched = Schedule(delta0=2.0, t_total=0.05 * steps, steps=steps)
        psi0 = random_state(rng, n)
        np.testing.assert_allclose(evolve(model, sched, psi0=psi0).psi,
                                   strang_reference(model, sched, psi0), rtol=0, atol=1e-11)

    @pytest.mark.parametrize("n", (5, 9))
    def test_zero_field_is_pure_phase(self, rng, n):
        assert (n <= _WALSH_MAX_SITES) == (n == 5)
        model = chain_model(rng.normal(size=n), rng.normal(size=n - 1))
        sched = Schedule(delta0=0.0, t_total=3.0, steps=300)
        psi0 = random_state(rng, n)
        expected = np.exp(-3.0j * diagonal_energies(model)) * psi0
        np.testing.assert_allclose(evolve(model, sched, psi0=psi0).psi, expected,
                                   rtol=0, atol=1e-12)

    def test_peak_memory_at_16_sites(self, rng):
        # psi, the spare buffer, the half and full phases and the half-size
        # diagonal make 4.5 state sizes, plus numpy's fixed 128 KB buffer for
        # a broadcast in-place multiply (0.125 here); a full-size gauge array
        # would make 5.6
        n = 16
        model = chain_model(rng.normal(size=n), rng.normal(size=n - 1))
        sched = Schedule(delta0=2.0, t_total=3.0, steps=30, profile="exponential")
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            evolve(model, sched, record_every=7)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak <= 4.75 * (16 << n)

    def test_result_carries_the_diagonal(self, rng):
        model = chain_model(rng.normal(size=9), rng.normal(size=8))
        res = evolve(model, Schedule(delta0=2.0, t_total=1.0, steps=3))
        np.testing.assert_array_equal(res.diagonal, diagonal_energies(model))

    @pytest.mark.parametrize("n", (4, 11, 16))
    def test_recorded_trace(self, rng, n):
        model = chain_model(rng.normal(size=n), rng.normal(size=n - 1))
        sched = Schedule(delta0=2.0, t_total=3.0, steps=30, profile="exponential")
        res = evolve(model, sched, record_every=7)
        dt = sched.t_total / sched.steps
        times = [k * dt for k in (0, 7, 14, 21, 28, 30)]
        # the scalar schedule formula as it was before delta_at took arrays
        deltas = [sched.delta0 * sched.floor_ratio**min(max(t / sched.t_total, 0.0), 1.0)
                  for t in times]
        np.testing.assert_array_equal(res.times, times)
        np.testing.assert_array_equal(res.deltas, deltas)
        expected = np.vdot(res.psi, apply_hamiltonian(model, res.deltas[-1], res.psi)).real
        assert abs(res.energies[-1] - expected) <= 1e-12 * max(1.0, abs(expected))

    @pytest.mark.parametrize("n", (5, 9, 12))
    def test_recording_does_not_change_state(self, rng, n):
        model = chain_model(rng.normal(size=n), rng.normal(size=n - 1))
        sched = Schedule(delta0=2.0, t_total=40.0, steps=800, profile="exponential")
        unrecorded = evolve(model, sched).psi
        for record_every in (300, 100):     # 100 cuts a 256-step rotation table
            np.testing.assert_allclose(evolve(model, sched, record_every=record_every).psi,
                                       unrecorded, rtol=0, atol=1e-12)


class TestBlockPlan:
    """The blocked kernel in both layouts: cycled up to _CYCLED_MAX_SITES,
    in place above, each with its own table length."""

    @pytest.mark.parametrize("n", range(1, MAX_SITES + 1))
    def test_blocks_cover_every_site_once(self, n):
        sizes = _sx_blocks(n)
        # contiguous blocks from site 0 up, so covering 0..n-1 once is
        # positive sizes that sum to n
        assert sum(sizes) == n and min(sizes) >= 1
        assert max(sizes) <= _BLOCK_SITES
        assert sizes[0] == min(sizes)   # site 0's block is first and the smallest
        # near-equal, once the cycled layout counts the re/im bit in site 0's block
        bits = (sizes[0] + (n <= _CYCLED_MAX_SITES),) + sizes[1:]
        assert max(bits) - min(bits) <= 1

    @pytest.mark.parametrize("n", range(2, _CYCLED_MAX_SITES + 3))
    def test_every_size_matches_strang_reference(self, rng, n):
        psi = random_state(rng, n)
        model = chain_model(rng.normal(size=n), rng.normal(size=n - 1))
        sched = Schedule(delta0=2.0, t_total=1.0, steps=20, profile="exponential")
        np.testing.assert_allclose(evolve(model, sched, psi0=psi).psi,
                                   strang_reference(model, sched, psi), rtol=0, atol=1e-11)

    @pytest.mark.parametrize("n", range(1, 19))
    def test_tables_stay_small(self, rng, n):
        # beyond the spare state buffer, an advance holds its rotation
        # tables, the coefficient rows and numpy's 128 KB broadcast buffer:
        # a fixed 2.5 MB at most, however large the state
        phase = np.exp(-1j * rng.uniform(0.0, 0.1, 2**n))
        steps = _CHUNK_STEPS + 1 if n <= _CYCLED_MAX_SITES else 3
        thetas = np.linspace(0.3, 0.01, steps)
        advance = _blocked_kernel(n, phase)
        psi = random_state(rng, n)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            advance(psi, thetas)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak - (16 << n) <= 2.5 * 2**20


class TestChainModel:
    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_one_coupling_applies_to_every_bond(self, n):
        model = chain_model(np.zeros(n), [0.5])
        assert model.couplings == tuple((i, i + 1, 0.5) for i in range(n - 1))
        assert chain_model(np.zeros(n), 0.5).couplings == model.couplings


class TestDiagonalEnergies:
    def test_matches_per_state_sum(self, rng):
        for n in range(1, 11):
            couplings = tuple((i, j, float(rng.normal())) for i in range(n)
                              for j in range(i + 1, n) if rng.random() < 0.4)
            model = IsingModel(n, rng.normal(size=n), couplings)
            expected = []
            for index in range(2**n):
                s = [1.0 - 2.0 * ((index >> i) & 1) for i in range(n)]
                expected.append(math.fsum([model.h[i] * s[i] for i in range(n)]
                                          + [w * s[i] * s[j] for (i, j, w) in couplings]))
            scale = np.abs(model.h).sum() + sum(abs(w) for (_, _, w) in couplings)
            np.testing.assert_allclose(diagonal_energies(model), expected,
                                       rtol=0, atol=1e-12 * scale)


class TestApplyHamiltonian:
    def test_single_site_transverse_spectrum(self):
        model = IsingModel(1, np.zeros(1), ())
        delta = 0.8
        columns = [apply_hamiltonian(model, delta, np.eye(2, dtype=complex)[k])
                   for k in range(2)]
        eigs = np.linalg.eigvalsh(np.column_stack(columns))
        np.testing.assert_allclose(eigs, [-delta, delta], rtol=1e-14)

    def test_antiferromagnetic_pair_ground_states(self):
        model = chain_model([0.0, 0.0], [1.0])
        ground = brute_force_ground_state(model)
        assert set(ground.states) == {"01", "10"}

    def test_matches_dense_oracle(self, rng):
        model = IsingModel(4, rng.normal(size=4),
                           ((0, 1, 0.7), (1, 2, -0.4), (2, 3, 1.1), (0, 3, 0.3)))
        delta = 0.9
        dense = dense_hamiltonian(model, delta)
        psi = rng.normal(size=16) + 1j * rng.normal(size=16)
        np.testing.assert_allclose(apply_hamiltonian(model, delta, psi), dense @ psi,
                                   atol=1e-12)

    def test_hermitian(self, rng):
        model = random_chain(3)
        dim = 2**model.n_sites
        psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        phi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        psi /= np.linalg.norm(psi)
        phi /= np.linalg.norm(phi)
        lhs = np.vdot(phi, apply_hamiltonian(model, 0.6, psi))
        rhs = np.conj(np.vdot(psi, apply_hamiltonian(model, 0.6, phi)))
        assert abs(lhs - rhs) < 1e-12

    def test_dimension_mismatch_rejected(self):
        model = chain_model([0.0, 0.0], [1.0])
        with pytest.raises(ValueError):
            apply_hamiltonian(model, 0.1, np.zeros(7, dtype=complex))


class TestSchedule:
    def test_linear_endpoint_vanishes(self):
        sched = Schedule(delta0=2.0, t_total=10.0, steps=100)
        assert sched.delta_at(10.0) == 0.0

    def test_exponential_endpoint_ratio(self):
        sched = Schedule(delta0=2.0, t_total=10.0, steps=100, profile="exponential")
        assert sched.delta_at(10.0) / sched.delta0 <= 1e-6

    @pytest.mark.parametrize("profile", ("linear", "exponential"))
    def test_array_times_match_scalar_calls(self, profile):
        sched = Schedule(delta0=2.0, t_total=10.0, steps=100, profile=profile)
        t = np.linspace(-1.0, 11.0, 97)
        d = sched.delta_at(t)
        assert isinstance(sched.delta_at(3.0), float)
        np.testing.assert_allclose(d, [sched.delta_at(float(v)) for v in t],
                                   rtol=1e-15, atol=0)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            Schedule(delta0=1.0, t_total=1.0, steps=0)
        with pytest.raises(ValueError):
            Schedule(delta0=1.0, t_total=1.0, steps=10, profile="polynomial")
        with pytest.raises(ValueError):
            Schedule(delta0=1.0, t_total=1.0, steps=10, floor_ratio=1e-3)


class TestEvolve:
    def test_diagonal_evolution_preserves_distribution(self, rng):
        model = random_chain(5)
        dim = 2**model.n_sites
        psi0 = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        psi0 /= np.linalg.norm(psi0)
        sched = Schedule(delta0=0.0, t_total=50.0, steps=500)
        res = evolve(model, sched, psi0=psi0)
        np.testing.assert_allclose(np.abs(res.psi) ** 2, np.abs(psi0) ** 2, atol=1e-12)

    def test_norm_preserved_over_many_steps(self):
        model = random_chain(7)
        sched = Schedule(delta0=2.0, t_total=100.0, steps=10_000)
        res = evolve(model, sched)
        assert abs(np.linalg.norm(res.psi) - 1.0) <= 1e-9

    def test_deterministic(self):
        model = random_chain(8)
        sched = slow_schedule(model, tau=50.0)
        a = evolve(model, sched).psi
        b = evolve(model, sched).psi
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("n", range(1, 13))
    def test_initial_state_matches_parity_formula(self, n):
        idx = np.arange(2**n)
        parity = sum((idx >> i) & 1 for i in range(n)) & 1
        expected = np.where(parity == 0, 1.0, -1.0).astype(np.complex128) / math.sqrt(2**n)
        assert np.array_equal(initial_state(n), expected)

    def test_initial_state_is_transverse_ground_state(self):
        n = 5
        model = IsingModel(n, np.zeros(n), ())
        psi = initial_state(n)
        h_psi = apply_hamiltonian(model, 1.0, psi)
        np.testing.assert_allclose(h_psi, -n * psi, atol=1e-12)

    def test_slow_anneal_reaches_ground_state(self):
        model = random_chain(2)
        res = evolve(model, slow_schedule(model))
        assert success_probability(model, res.psi) >= 0.9

    def test_trace_recording(self):
        model = random_chain(4)
        sched = Schedule(delta0=2.0, t_total=10.0, steps=100)
        res = evolve(model, sched, record_every=10)
        assert len(res.times) == len(res.energies) == len(res.deltas) == 11
        assert res.times[0] == 0.0 and res.times[-1] == 10.0
        # energy must end near the reached diagonal value
        assert np.isfinite(res.energies).all()

    def test_final_trace_energy_is_final_expectation(self):
        model = random_chain(4)
        sched = Schedule(delta0=2.0, t_total=10.0, steps=100, profile="exponential")
        res = evolve(model, sched, record_every=7)
        assert res.deltas[-1] > 0.0
        expected = np.vdot(res.psi, apply_hamiltonian(model, res.deltas[-1], res.psi)).real
        assert abs(res.energies[-1] - expected) <= 1e-12 * max(1.0, abs(expected))


class TestSuccessProbability:
    @staticmethod
    def by_bitstrings(model, psi):
        """The probability summed over the ground bitstrings, each read back
        as an index."""
        p = np.abs(np.asarray(psi)) ** 2
        idx = [int(st[::-1], 2) for st in brute_force_ground_state(model).states]
        return float(sum(p[i] for i in idx))

    @pytest.mark.parametrize("n", (1, 4, 7, 10))
    def test_matches_bitstring_sum(self, rng, n):
        for model in (chain_model(rng.normal(size=n), rng.normal(size=n - 1)),
                      chain_model(np.zeros(n), [1.0]),      # two ground states
                      IsingModel(n, np.zeros(n), ())):        # every state is ground
            psi = random_state(rng, n)
            expected = self.by_bitstrings(model, psi)
            assert success_probability(model, psi) == expected
            diagonal = diagonal_energies(model)
            assert success_probability(model, psi, diagonal=diagonal) == expected

    def test_rejects_a_diagonal_of_the_wrong_size(self, rng):
        model = chain_model(rng.normal(size=4), rng.normal(size=3))
        with pytest.raises(ValueError, match="diagonal must have shape"):
            success_probability(model, random_state(rng, 4), diagonal=np.zeros(8))


class TestMeasure:
    def test_delta_state(self):
        psi = np.zeros(8, dtype=complex)
        psi[5] = 1.0  # bits: site0=1, site1=0, site2=1
        hist = measure(psi, 1000, seed=1)
        assert hist == {"101": 1000}

    def test_uniform_distribution_frequencies(self):
        n = 4
        psi = np.full(2**n, 1.0 / 4.0, dtype=complex)
        shots = 100_000
        hist = measure(psi, shots, seed=2)
        p = 1.0 / 2**n
        sigma = np.sqrt(p * (1 - p) * shots)
        for count in hist.values():
            assert abs(count - shots * p) < 5.0 * sigma

    def test_seed_reproducibility(self):
        psi = initial_state(5)
        assert measure(psi, 4096, seed=9) == measure(psi, 4096, seed=9)

    def test_matches_loop_over_all_outcomes(self, rng):
        n, shots, seed = 6, 500, 3
        psi = random_state(rng, n)
        p = np.abs(psi) ** 2
        counts = np.random.default_rng(seed).multinomial(shots, p / p.sum())
        expected = {state_string(n, idx): int(c) for idx, c in enumerate(counts) if c > 0}
        hist = measure(psi, shots, seed)
        assert hist == expected
        assert list(hist) == list(expected)

    def test_rejects_zero_shots(self):
        with pytest.raises(ValueError):
            measure(initial_state(2), 0, seed=0)


class TestBruteForce:
    def test_single_spin_alignment(self):
        model = IsingModel(1, np.array([0.7]), ())
        ground = brute_force_ground_state(model)
        assert ground.states == ("1",)  # spin -1 under positive field
        assert ground.energy == pytest.approx(-0.7)

    def test_square_antiferromagnet_degeneracy(self):
        model = grid_model(2, 2, 0.0, 1.0)
        ground = brute_force_ground_state(model)
        assert len(ground.states) == 2
        assert ground.energy == pytest.approx(-4.0)

    def test_matches_explicit_enumeration(self, rng):
        model = random_chain(12)
        n = model.n_sites

        def energy(bits):
            s = [1.0 - 2.0 * b for b in bits]
            e = sum(model.h[i] * s[i] for i in range(n))
            e += sum(w * s[i] * s[j] for (i, j, w) in model.couplings)
            return e

        best = min(energy([(k >> i) & 1 for i in range(n)]) for k in range(2**n))
        assert brute_force_ground_state(model).energy == pytest.approx(best, rel=1e-12)

    def test_size_limit(self):
        with pytest.raises(ValueError):
            brute_force_ground_state(IsingModel(21, np.zeros(21), ()))


class TestMaxCut:
    def test_single_edge(self):
        model = maxcut_to_ising([(0, 1, 1.0)])
        ground = brute_force_ground_state(model)
        assert set(ground.states) == {"01", "10"}
        assert cut_value(model, ground.states[0]) == pytest.approx(1.0)

    def test_four_cycle(self):
        model = maxcut_to_ising([(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (0, 3, 1.0)])
        ground = brute_force_ground_state(model)
        assert all(cut_value(model, s) == pytest.approx(4.0) for s in ground.states)

    def test_frustrated_triangle(self):
        model = maxcut_to_ising([(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)])
        ground = brute_force_ground_state(model)
        assert len(ground.states) == 6
        assert all(cut_value(model, s) == pytest.approx(2.0) for s in ground.states)

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            maxcut_to_ising([(2, 2, 1.0)])

    def test_rejects_non_positive_weight(self):
        with pytest.raises(ValueError):
            maxcut_to_ising([(0, 1, -1.0)])


class TestFgGridModel:
    GEOM = cell_from_coupling_ratio(10.0, 100.0, 3.5, 0.3)
    MAT = MaterialStack()

    def test_symmetric_bias_gives_zero_fields(self):
        model = fg_grid_model(self.GEOM, self.MAT, BiasSet.uniform(3), 2, 3)
        np.testing.assert_array_equal(model.h, 0.0)

    def test_edge_coupling_is_pass_through(self):
        net = build_network(self.GEOM, self.MAT, 3)
        params = ising_parameters(reduce_network(net, BiasSet.uniform(3)), 0.0)
        model = fg_grid_model(self.GEOM, self.MAT, BiasSet.uniform(3), 2, 3)
        assert all(w == params.j[0] for (_, _, w) in model.couplings)

    def test_anneal_reaches_neel_states(self):
        # operating bias turns the device transverse field up to ~20x J
        model = fg_grid_model(self.GEOM, self.MAT, BiasSet.uniform(3), 2, 3, v_cg=-1.7)
        j = model.couplings[0][2]
        assert model.delta0 > 5.0 * j
        sched = Schedule(delta0=model.delta0, t_total=200.0 / (3.0 * j), steps=4000,
                         profile="exponential")
        res = evolve(model, sched)
        assert success_probability(model, res.psi) >= 0.9
        ground = brute_force_ground_state(model)
        assert len(ground.states) == 2  # alternating occupation patterns

    def test_site_limit(self):
        with pytest.raises(ValueError):
            fg_grid_model(self.GEOM, self.MAT, BiasSet.uniform(3), 5, 5)

    @pytest.mark.parametrize("bias, n_g, v_cg", [
        (BiasSet.uniform(3), 0.0, None),
        (BiasSet.uniform(3), 0.0, -1.7),
        (BiasSet((0.2, -0.1, 0.3), 0.05, (0.0, 0.1, 0.0, -0.1)), 0.02, None),
    ])
    def test_device_parameters_match_inline_chain(self, bias, n_g, v_cg):
        # the network -> Ising -> tunnel chain fg_grid_model spelled out before
        params = ising_parameters(reduce_network(build_network(self.GEOM, self.MAT, 3),
                                                 bias), n_g)
        amplitude = tunnel_amplitude(self.GEOM, TunnelBarrier.from_stack(self.GEOM, self.MAT),
                                     bias.v_gate[0] if v_cg is None else v_cg)
        assert device_parameters(self.GEOM, self.MAT, bias, n_g, v_cg) == (params, amplitude)
        if bias == BiasSet.uniform(3):
            assert device_parameters(self.GEOM, self.MAT, n_g=n_g, v_cg=v_cg) == \
                (params, amplitude)


GEOMETRY_FIELDS = {"length": (3.0, 30.0), "width": (3.0, 30.0), "height": (5.0, 150.0),
                   "d_ox": (1.5, 6.0), "d_gate": (2.0, 15.0), "gap": (3.0, 30.0)}


class TestDeviceParametersOnArrays:
    MATS = (MaterialStack(), MaterialStack(eps_ox=3.0e-20, eps_gate=6.0e-20, barrier_ev=3.0,
                                           m_ox=0.42, m_si=0.26, doping_cm3=3e19))

    @staticmethod
    def flat(params, amplitude):
        return [*params.h, *params.j, params.const, params.u_h, params.u_w, amplitude]

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), points=st.integers(1, 7), mat=st.integers(0, 1),
           v_gate=st.floats(-0.5, 0.5), n_g=st.floats(-0.05, 0.05))
    def test_broadcast_matches_point_loop(self, data, points, mat, v_gate, n_g):
        def column(lo, hi):
            return np.array(data.draw(st.lists(st.floats(lo, hi), min_size=points,
                                               max_size=points)))
        fields = {name: column(*bounds) for name, bounds in GEOMETRY_FIELDS.items()}
        v_cg = column(-1.5, 1.5)
        mat = self.MATS[mat]
        bias = BiasSet((v_gate, 0.1, -v_gate), 0.05, (0.0, 0.02, -0.02, 0.0))
        got = self.flat(*device_parameters(CellGeometry(**fields), mat, bias, n_g, v_cg))
        for k in range(points):
            geom = CellGeometry(**{name: float(v[k]) for name, v in fields.items()})
            params = ising_parameters(reduce_network(build_network(geom, mat, 3), bias), n_g)
            amplitude = tunnel_amplitude(geom, TunnelBarrier.from_stack(geom, mat),
                                         float(v_cg[k]))
            want = self.flat(params, amplitude)
            assert all(type(w) is float for w in want)
            np.testing.assert_allclose([g[k] for g in got], want, rtol=2e-15, atol=0.0)

    def test_scalar_fields_broadcast_against_an_array(self):
        heights = np.array([10.0, 55.0, 100.0])
        geom = CellGeometry(length=10.0, width=10.0, height=heights, d_ox=3.5, d_gate=8.0)
        params, amplitude = device_parameters(geom, MaterialStack())
        for k, z in enumerate(heights):
            one = CellGeometry(length=10.0, width=10.0, height=float(z), d_ox=3.5, d_gate=8.0)
            p_k, a_k = device_parameters(one, MaterialStack())
            assert params.u_w[k] == p_k.u_w and params.j[0][k] == p_k.j[0]
            assert amplitude[k] == pytest.approx(a_k, rel=2e-15)


class TestAdiabaticTrend:
    def test_success_monotone_in_duration(self):
        # fixed six-site chain with a comfortable spectral gap (~0.6 eV)
        rng = np.random.default_rng(5)
        h = rng.uniform(-0.5, 0.5, 6)
        j = rng.uniform(0.3, 1.0, 5) * rng.choice([-1.0, 1.0], 5)
        model = chain_model(h, j)
        scale = transverse_scale(model)
        probs = []
        for tau in (30.0, 120.0, 480.0):
            sched = Schedule(delta0=5.0 * scale, t_total=tau / scale,
                             steps=int(tau / 0.05), profile="exponential")
            probs.append(success_probability(model, evolve(model, sched).psi))
        assert probs[0] <= probs[1] <= probs[2]
        assert probs[2] >= 0.99


def test_state_string_round_trip():
    n = 6
    for idx in (0, 1, 5, 37, 63):
        s = state_string(n, idx)
        assert len(s) == n
        assert int(s[::-1], 2) == idx
