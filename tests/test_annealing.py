import bisect
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
import scipy.stats
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
    sample_counts,
    state_strings,
    success_probability,
)
from fgqa import annealing
from fgqa.annealing import (_BLOCK_SITES, _CHUNK_STEPS, _CYCLED_MAX_SITES, _GRAM_SITES,
                            _ROW_GRAM_MAX_SITES, _WALSH_MAX_SITES, MAX_SHOTS, MAX_SITES,
                            _blocked_kernel, _energy, _hypercube, _rotation_coefficients,
                            _rotation_index, _sx_blocks, _walsh_kernel)
from fgqa.constants import CONST
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


def run_kernel(kernel, phase, thetas, psi):
    """Every step of ``kernel``'s stepper, with ``phase`` between steps and
    no half phases, on a copy of ``psi``; the final state."""
    n = psi.shape[0].bit_length() - 1
    advance, physical = kernel(n, phase, np.ones(1 << n, complex), thetas, psi.copy())
    advance(thetas.shape[0])
    return physical(final=True)


def blocked_rotation(psi, theta):
    """exp(-i theta sum sx) psi as one step of the blocked kernel."""
    return run_kernel(_blocked_kernel, np.ones(psi.shape[0]), np.array([theta]), psi)


def strang_reference(model, schedule, psi0):
    """Step-by-step Strang splitting with per-site flips, angles from scalar calls."""
    dt = schedule.t_total / schedule.steps
    half = np.exp(-0.5j * diagonal_energies(model) * dt)
    psi = np.array(psi0, dtype=complex)
    for k in range(schedule.steps):
        psi = half * flip_rotation(half * psi, schedule.delta_at((k + 0.5) * dt) * dt)
    return psi


def strang_states(model, schedule, psi0):
    """The state after every step of :func:`strang_reference`, from step 0,
    with each site's rotation applied by flipping an axis of the state."""
    dt = schedule.t_total / schedule.steps
    half = np.exp(-0.5j * diagonal_energies(model) * dt)
    psi = np.array(psi0, dtype=complex)
    states = [psi]
    for k in range(schedule.steps):
        theta = schedule.delta_at((k + 0.5) * dt) * dt
        psi = half * psi
        for site in range(model.n_sites):
            by_bit = psi.reshape(-1, 2, 1 << site)
            psi = (math.cos(theta) * by_bit - 1j * math.sin(theta) * by_bit[:, ::-1]).ravel()
        psi = half * psi
        states.append(psi)
    return states


def gauged(psi):
    """i^popcount(s) psi_s."""
    return np.array([1, 1j, -1, -1j])[[bin(s).count("1") % 4 for s in range(psi.shape[0])]] * psi


def gauge_sx(gauged_psi, i):
    """<sx_i> from the gauge state psi'_s = i^popcount(s) psi_s:
    2 sum over s with bit i clear of (Re psi'_s Im psi'_t - Im psi'_s Re psi'_t),
    t = s with bit i set."""
    clear = np.flatnonzero((np.arange(gauged_psi.shape[0]) >> i) & 1 == 0)
    a, b = gauged_psi[clear], gauged_psi[clear | 1 << i]
    return 2.0 * float(np.sum(a.real * b.imag - a.imag * b.real))


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
        # size b's entries in the one row of sizes 1-4, after the 2c + 3 of
        # each smaller size c, are those of a row of size b alone
        theta = 0.37
        single = expm(-1j * theta * np.array([[0.0, 1.0], [1.0, 0.0]]))
        unitary = np.array([[1.0]])
        for _ in range(b):
            unitary = np.kron(unitary, single)
        counts = [bin(s).count("1") for s in range(2**b)]
        gauge = np.diag(np.array([1, 1j, -1, -1j])[np.array(counts) % 4])
        row = _rotation_coefficients(np.array([theta]), range(1, 5))[0]
        row = row[sum(2 * c + 3 for c in range(1, b)):][:2 * b + 3]
        np.testing.assert_array_equal(row, _rotation_coefficients(np.array([theta]), (b,))[0])
        rotation = row[_rotation_index(b)]
        np.testing.assert_allclose(rotation, gauge @ unitary @ gauge.conj(), rtol=0,
                                   atol=1e-15)
        np.testing.assert_array_equal(row[_rotation_index(b, lowest=True)],
                                      np.kron(rotation.T, np.eye(2)))

    @pytest.mark.parametrize("n", (7, 8, 13))
    def test_gauge_round_trip_leaves_state_unchanged(self, rng, n):
        psi = random_state(rng, n)
        out = run_kernel(_blocked_kernel, np.ones(2**n), np.array([0.0]), psi)
        np.testing.assert_array_equal(out, psi)

    @pytest.mark.parametrize("n", range(7, 13))
    def test_gauge_frame_sx_formula(self, rng, n):
        # the formula by itself, and as the weights of the Gram matrices of
        # the physical state's float view that the blocked kernel's records
        # use: the lowest _GRAM_SITES sites' and the others'
        model = chain_model(rng.normal(size=n), rng.normal(size=n - 1))
        psi = random_state(rng, n)
        delta = 0.7
        sx = [gauge_sx(gauged(psi), i) for i in range(n)]
        expected = np.vdot(psi, apply_hamiltonian(model, delta, psi)).real
        energy = np.dot(diagonal_energies(model), np.abs(psi) ** 2) + delta * sum(sx)
        assert energy == pytest.approx(expected, rel=1e-13, abs=0)
        rows = psi.view(np.float64).reshape(-1, 2 << _GRAM_SITES)
        low = np.vdot(rows.T @ rows, _hypercube(_GRAM_SITES + 1, 1))
        assert low == pytest.approx(sum(sx[:_GRAM_SITES]), rel=1e-13, abs=1e-15)
        high = np.vdot(rows @ rows.T, _hypercube(n - _GRAM_SITES))
        assert high == pytest.approx(sum(sx[_GRAM_SITES:]), rel=1e-13, abs=1e-15)

    # both sides of _ROW_GRAM_MAX_SITES in the full state, and the sector,
    # which is stepped only above _CYCLED_MAX_SITES
    @pytest.mark.parametrize("n, flip", [
        *((n, 0) for n in (7, _ROW_GRAM_MAX_SITES, _ROW_GRAM_MAX_SITES + 1, 14)),
        *((n, flip) for n in (_CYCLED_MAX_SITES + 1, 14) for flip in (1, -1))])
    def test_record_reads_every_sx_term(self, rng, n, flip):
        # with no Ising term a record is sum_i <sx_i>, here per site from the
        # gauge state; with flip, over the n + 1 sites of the full state
        # (psi, flip psi[::-1]), whose half phase is (phase, phase[::-1])
        psi = random_state(rng, n)
        phase = np.exp(-1j * rng.uniform(0.0, 0.1, 2**n))
        advance, physical = _blocked_kernel(n, phase * phase, phase.copy(), np.array([0.3]),
                                            psi.copy(), flip)
        full = np.concatenate((psi, flip * psi[::-1])) if flip else psi
        halves = np.concatenate((phase, phase[::-1])) if flip else phase
        # the state at step 0, and at step 1 with its closing half phase
        for stop, chi in ((0, full), (1, halves * flip_rotation(halves * full, 0.3))):
            advance(stop)
            expected = sum(gauge_sx(gauged(chi), i) for i in range(n + bool(flip)))
            energy = _energy(physical(), np.zeros(2**n), 1.0, flip)
            assert energy == pytest.approx(expected, rel=1e-13, abs=1e-15)


class TestEnergyReader:
    """The one <H> reader of every recorded run, on states of its own."""

    # both sides of _GRAM_SITES and of _ROW_GRAM_MAX_SITES
    @pytest.mark.parametrize("n", range(1, 15))
    @pytest.mark.parametrize("delta", (0.0, 0.7))
    def test_matches_apply_hamiltonian(self, rng, n, delta):
        assert _GRAM_SITES < 14 and _ROW_GRAM_MAX_SITES < 14
        couplings = tuple((i, j, float(rng.normal())) for i in range(n)
                          for j in range(i + 1, n) if j == i + 1 or rng.random() < 0.2)
        model = IsingModel(n, rng.normal(size=n), couplings)
        chi = random_state(rng, n)
        expected = np.vdot(chi, apply_hamiltonian(model, delta, chi)).real
        bound = np.abs(model.h).sum() + sum(abs(w) for _, _, w in couplings) + n * delta
        assert abs(_energy(chi.copy(), model.diagonal, delta) - expected) <= 1e-13 * bound

    @pytest.mark.parametrize("n", (1, _GRAM_SITES, _GRAM_SITES + 1, _ROW_GRAM_MAX_SITES,
                                   _ROW_GRAM_MAX_SITES + 1, 13))
    @pytest.mark.parametrize("flip", (1, -1))
    def test_sector_half_matches_its_full_state(self, rng, n, flip):
        # the half state chi of n sites stands for (chi, flip chi[::-1]) on
        # n + 1, whose zero-field energies repeat mirrored in the upper half
        couplings = tuple((i, i + 1, float(rng.normal())) for i in range(n))
        model = IsingModel(n + 1, np.zeros(n + 1), couplings)
        chi = random_state(rng, n) / math.sqrt(2.0)
        full = np.concatenate((chi, flip * chi[::-1]))
        delta = 0.7
        expected = np.vdot(full, apply_hamiltonian(model, delta, full)).real
        got = _energy(chi.copy(), model.diagonal[:2**n], delta, flip)
        bound = sum(abs(w) for _, _, w in couplings) + (n + 1) * delta
        assert abs(got - expected) <= 1e-13 * bound


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

    # both sides of _WALSH_MAX_SITES
    @pytest.mark.parametrize("n", (4, 5, 6, 7, 8))
    def test_kernels_agree_after_many_steps(self, rng, n):
        phase = np.exp(-1j * rng.uniform(0.0, 0.1, 2**n))
        thetas = Schedule(delta0=4.0, t_total=1000.0, steps=1000,
                          profile="exponential").delta_at(np.arange(1000) + 0.5)
        psi = random_state(rng, n)
        np.testing.assert_allclose(run_kernel(_walsh_kernel, phase, thetas, psi),
                                   run_kernel(_blocked_kernel, phase, thetas, psi),
                                   rtol=0, atol=1e-11)

    @pytest.mark.parametrize("n", (5, 8))
    def test_steps_allocate_nothing(self, rng, n):
        # a step runs calls prebound to fixed buffers, so a long advance peaks
        # no higher than a short one: only each chunk's coefficients come and go
        assert (n <= _WALSH_MAX_SITES) == (n == 5)
        phase = np.exp(-1j * rng.uniform(0.0, 0.1, 2**n))
        thetas = np.linspace(0.3, 0.01, 4000)
        kernel = _walsh_kernel if n <= _WALSH_MAX_SITES else _blocked_kernel
        peaks = []
        for stop in (64, 4000):
            advance, _ = kernel(n, phase, np.ones(2**n, complex), thetas, random_state(rng, n))
            tracemalloc.start()
            try:
                advance(stop)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] <= 64 << 10

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

    def test_peak_memory_at_16_sites_recording_every_step(self, rng):
        # as above: a record's scratch is the spare buffer
        n = 16
        model = chain_model(rng.normal(size=n), rng.normal(size=n - 1))
        sched = Schedule(delta0=2.0, t_total=3.0, steps=30, profile="exponential")
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            evolve(model, sched, record_every=1)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak <= 4.75 * (16 << n)

    def test_run_leaves_the_model_diagonal(self, rng):
        model = chain_model(rng.normal(size=9), rng.normal(size=8))
        evolve(model, Schedule(delta0=2.0, t_total=1.0, steps=3))
        np.testing.assert_array_equal(model.diagonal, diagonal_energies(model))

    @pytest.mark.parametrize("n", (4, 11, 16))
    def test_recorded_trace(self, rng, n):
        model = chain_model(rng.normal(size=n), rng.normal(size=n - 1))
        sched = Schedule(delta0=2.0, t_total=3.0, steps=30, profile="exponential")
        res = evolve(model, sched, record_every=7)
        dt = sched.t_total / sched.steps
        times = [k * dt for k in (0, 7, 14, 21, 28, 30)]
        np.testing.assert_array_equal(res.times, times)
        # exactly the schedule's array formula, and within one ulp Python's
        # scalar one, whose pow can round the other way
        x = np.clip(np.array(times) / sched.t_total, 0.0, 1.0)
        np.testing.assert_array_equal(res.deltas, sched.delta0 * np.power(sched.floor_ratio, x))
        np.testing.assert_array_max_ulp(res.deltas, [
            sched.delta0 * sched.floor_ratio**min(max(t / sched.t_total, 0.0), 1.0)
            for t in times], maxulp=1)
        expected = np.vdot(res.psi, apply_hamiltonian(model, res.deltas[-1], res.psi)).real
        assert abs(res.energies[-1] - expected) <= 1e-12 * max(1.0, abs(expected))

    # Walsh, cycled, in place, with fields and without: the zero-field chain
    # takes the spin-flip sector at 16 sites; 100 cuts a 256-step chunk
    @pytest.mark.parametrize("n", (3, 6, 7, 10, 11, 16))
    def test_every_recorded_energy(self, rng, n):
        steps = 300 if n < 16 else 30
        sched = Schedule(delta0=2.0, t_total=0.05 * steps, steps=steps, profile="exponential")
        h, j = rng.normal(size=n), rng.normal(size=n - 1)
        field = chain_model(h, j)
        # from the transverse ground state <H> stays well below zero, so a
        # relative bound means the same everywhere along the trace.  From a
        # random state, which the stop-0 record reads back from the stepper's
        # held form, <H> can pass zero: there the bound is also relative to
        # the largest |<H>| possible
        bound = np.abs(h).sum() + np.abs(j).sum() + n * sched.delta0
        for model, psi0, atol in ((field, None, 0.0), (chain_model(np.zeros(n), j), None, 0.0),
                                  (field, random_state(rng, n), 1e-12 * bound)):
            states = strang_states(model, sched, initial_state(n) if psi0 is None else psi0)
            for record_every in (1, 7, 100):
                res = evolve(model, sched, psi0, record_every=record_every)
                recorded = [*range(0, steps, record_every), steps]
                assert len(res.energies) == len(recorded)
                expected = [np.vdot(states[k], apply_hamiltonian(model, d, states[k])).real
                            for k, d in zip(recorded, res.deltas)]
                np.testing.assert_allclose(res.energies, expected, rtol=1e-12, atol=atol)

    # the Walsh stepper at odd and even n, where its scale 1 / sqrt(2^n) is
    # rounded and exact, and the blocked stepper cycled and in place
    @pytest.mark.parametrize("n", (1, 3, 4, 5, 6, 9, 12, 16))
    def test_recording_does_not_change_state(self, rng, n):
        model = chain_model(rng.normal(size=n), rng.normal(size=n - 1))
        sched = Schedule(delta0=2.0, t_total=40.0, steps=800, profile="exponential")
        unrecorded = evolve(model, sched).psi
        for record_every in (300, 100, 1):  # 100 cuts a 256-step rotation table
            np.testing.assert_array_equal(evolve(model, sched, record_every=record_every).psi,
                                          unrecorded)


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
        half_phase = np.ones(2**n, complex)
        psi = random_state(rng, n)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            advance, _ = _blocked_kernel(n, phase, half_phase, thetas, psi)
            advance(steps)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak - (16 << n) <= 2.5 * 2**20

    def test_one_coefficient_row_per_chunk(self, rng, monkeypatch):
        # 600 steps make three chunks, and a 7-site run has blocks of 3 and 4
        # sites: each chunk's row covers both sizes
        assert _CHUNK_STEPS == 256 and _sx_blocks(7) == (3, 4)
        calls = []
        coefficients = annealing._rotation_coefficients
        monkeypatch.setattr(annealing, "_rotation_coefficients", lambda thetas, sizes: (
            calls.append((thetas.shape[0], tuple(sizes))) or coefficients(thetas, sizes)))
        evolve(chain_model(rng.normal(size=7), rng.normal(size=6)),
               Schedule(delta0=2.0, t_total=30.0, steps=600))
        assert calls == [(256, (3, 4)), (256, (3, 4)), (88, (3, 4))]


def full_space_twin(model):
    """The model with a field of 1e-300 on site 0: the same energies to
    rounding, but a field, so that it steps the full state."""
    h = np.zeros(model.n_sites)
    h[0] = 1e-300
    return IsingModel(model.n_sites, h, model.couplings, model.topology, model.delta0)


def zero_field_model(rng, family, shape):
    """A model with no fields: a chain, grid, MAX-CUT graph or device fg_grid."""
    rows, cols = shape
    n = rows * cols
    if family == "chain":
        return chain_model(np.zeros(n), rng.uniform(0.3, 1.0, n - 1) * rng.choice([-1, 1], n - 1))
    if family == "grid":
        return grid_model(rows, cols, 0.0, float(rng.uniform(0.3, 1.0)))
    if family == "maxcut":
        ring = [(i, (i + 1) % n, rng.uniform(0.5, 1.5)) for i in range(n - (n == 2))]
        chords = [(i, j, rng.uniform(0.5, 1.5)) for i in range(n) for j in range(i + 2, n)
                  if rng.random() < 0.2]
        return maxcut_to_ising(ring + chords, n)
    geom = cell_from_coupling_ratio(float(rng.uniform(8.0, 12.0)), 100.0, 3.5, 0.3)
    return fg_grid_model(geom, MaterialStack(), BiasSet.uniform(3), rows, cols, v_cg=-1.7)


def sector_schedule(model):
    """A few rotation units from a strong transverse field: past the first
    256-step table up to 11 sites, where the full state is stepped, and 30
    steps in the sector above."""
    steps = 300 if model.n_sites <= _CYCLED_MAX_SITES + 1 else 30
    scale = transverse_scale(model) or 1.0      # a lone site has no coupling
    return Schedule(delta0=2.0 * scale, t_total=0.05 * steps / scale, steps=steps,
                    profile="exponential")


# (rows, cols) of every family's models: chains and MAX-CUT graphs at every
# size from 2 to 16 (chains from 1), grids and fg_grids from 1 x 2 to 4 x 4,
# each with 7 and 8 sites, past _WALSH_MAX_SITES, and 11 and 12, on both
# sides of where the sector begins
SECTOR_SHAPES = {
    "chain": [(1, n) for n in range(1, 17)],
    "maxcut": [(1, n) for n in range(2, 17)],
    "grid": [(1, 2), (2, 2), (2, 3), (1, 7), (2, 4), (3, 3), (1, 11), (3, 4), (3, 5), (4, 4)],
    "fg_grid": [(1, 2), (2, 2), (2, 3), (1, 7), (2, 4), (3, 3), (1, 11), (3, 4), (3, 5),
                (4, 4)],
}


class TestSpinFlipSector:
    """Zero-field runs from the transverse ground state: from 12 sites on,
    carried as the half of the state whose top site is clear."""

    @pytest.mark.parametrize("family, shape", [
        pytest.param(f, s, id=f"{f}-{s[0]}x{s[1]}") for f, shapes in SECTOR_SHAPES.items()
        for s in shapes])
    def test_matches_full_space(self, rng, family, shape):
        model = zero_field_model(rng, family, shape)
        twin = full_space_twin(model)
        sched = sector_schedule(model)
        unrecorded = evolve(model, sched).psi
        for record_every in (1, 7, 100):
            res = evolve(model, sched, record_every=record_every)
            ref = evolve(twin, sched, record_every=record_every)
            np.testing.assert_array_equal(res.psi, unrecorded)
            # the sector steps half of the table and leaves the full one whole
            np.testing.assert_array_equal(model.diagonal, diagonal_energies(model))
            np.testing.assert_allclose(res.psi, ref.psi, rtol=0, atol=1e-13)
            scale = np.abs(ref.energies).max()
            np.testing.assert_allclose(res.energies, ref.energies, rtol=0, atol=1e-13 * scale)

    @pytest.mark.parametrize("n, sector", [(2, False), (6, False), (7, False), (10, False),
                                           (11, False), (12, True), (13, True)])
    def test_which_runs_take_the_sector(self, rng, monkeypatch, n, sector):
        # the stepper's site count and, blocked, its flip sign for a
        # zero-field run, the same model given its initial state, and one
        # with a field
        calls = []
        for name in ("_walsh_kernel", "_blocked_kernel"):
            kernel = getattr(annealing, name)
            monkeypatch.setattr(annealing, name, lambda *args, kernel=kernel: (
                calls.append((args[0], *args[5:])) or kernel(*args)))
        model = chain_model(np.zeros(n), rng.normal(size=n - 1))
        sched = Schedule(delta0=2.0, t_total=1.0, steps=3)
        evolve(model, sched)
        evolve(model, sched, psi0=initial_state(n))
        h = np.zeros(n)
        h[-1] = 1e-300
        evolve(chain_model(h, [w for _, _, w in model.couplings]), sched)
        full = (n,) if n <= _WALSH_MAX_SITES else (n, 0)
        assert calls == [(n - 1, (-1) ** n) if sector else full, full, full]

    @pytest.mark.parametrize("m", range(_CYCLED_MAX_SITES + 1, 14))
    def test_top_site_rotation_in_the_gauge(self, rng, m):
        # psi'_new(s) = cos theta psi'(s) - i^(1-m) p sin theta (-1)^popcount(s) psi'(~s)
        # on the half state of m sites, p = (-1)^(m+1)
        p, theta = (-1) ** (m + 1), 0.37
        psi = random_state(rng, m)
        signs = (-1.0) ** np.array([bin(s).count("1") for s in range(2**m)])
        rotated = math.cos(theta) * psi - 1j * p * math.sin(theta) * psi[::-1]
        expected = (math.cos(theta) * gauged(psi) - np.array([1, 1j, -1, -1j])[(1 - m) % 4]
                    * p * math.sin(theta) * signs * gauged(psi)[::-1])
        np.testing.assert_allclose(gauged(rotated), expected, rtol=0, atol=1e-15)
        # one blocked step without phases: every site turned, the top one too
        advance, physical = _blocked_kernel(m, np.ones(2**m), np.ones(2**m, complex),
                                            np.array([theta]), psi.copy(), p)
        advance(1)
        full = physical(final=True)
        turned = flip_rotation(psi, theta)
        np.testing.assert_allclose(full[:2**m], math.cos(theta) * turned
                                   - 1j * p * math.sin(theta) * turned[::-1], rtol=0, atol=1e-14)
        np.testing.assert_array_equal(full[2**m:], p * full[:2**m][::-1])

    @pytest.mark.parametrize("m", range(_CYCLED_MAX_SITES + 1, 14))
    def test_stacked_top_matrix(self, rng, monkeypatch, m):
        # the top block's table, gathered with the others, holds [cos theta M,
        # sin theta M S] with S = diag((-1)^popcount(block bits)) at every step
        fills = []
        advance_from = annealing._advance
        monkeypatch.setattr(annealing, "_advance", lambda calls, tables, *rest: (
            fills.extend(tables) or advance_from(calls, tables, *rest)))
        thetas = np.array([0.37, 0.05, 1.3])
        advance, _ = _blocked_kernel(m, np.ones(2**m), np.ones(2**m, complex), thetas,
                                     random_state(rng, m), (-1) ** (m + 1))
        advance(1)
        top = _sx_blocks(m)[-1]
        [stacked] = [table for table, _ in fills if table.shape[1:] == (2**top, 2**(top + 1))]
        matrices = _rotation_coefficients(thetas, (top,))[:, _rotation_index(top)]
        signs = (-1.0) ** np.bitwise_count(np.arange(2**top))
        for k in range(thetas.shape[0]):
            np.testing.assert_array_equal(stacked[k], np.hstack((
                np.cos(thetas)[k] * matrices[k], np.sin(thetas)[k] * matrices[k] * signs)))

    def test_peak_memory_at_16_sites(self, rng):
        # the full diagonal (0.5 state sizes), two half phases (1) and three
        # half buffers in one allocation, the full state's two among them
        # (1.5), with the initial amplitudes written straight into the first,
        # plus numpy's fixed 128 KB buffer (0.125) and the step tables: 3.23
        # measured.  A record's scratch is a spare half buffer
        n = 16
        model = chain_model(np.zeros(n), rng.normal(size=n - 1))
        sched = Schedule(delta0=2.0, t_total=3.0, steps=30, profile="exponential")
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            evolve(model, sched, record_every=1)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak <= 3.3 * (16 << n)


class TestChainModel:
    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_one_coupling_applies_to_every_bond(self, n):
        model = chain_model(np.zeros(n), [0.5])
        assert model.couplings == tuple((i, i + 1, 0.5) for i in range(n - 1))
        assert chain_model(np.zeros(n), 0.5).couplings == model.couplings

    @pytest.mark.parametrize("h", (0.5, [[0.0, 0.0]]), ids=["scalar", "matrix"])
    def test_rejects_fields_that_are_not_one_per_site(self, h):
        with pytest.raises(ValueError, match="h must hold one field per site"):
            chain_model(h, [])


class TestIsingModel:
    """The model owns its energy table, and neither can change under the other."""

    def test_caller_edits_reach_neither_h_nor_diagonal(self, rng):
        h = rng.normal(size=5)
        model = chain_model(h, 1.0)
        fields, table = h.copy(), model.diagonal.copy()
        h[0] = 5.0
        np.testing.assert_array_equal(model.h, fields)
        np.testing.assert_array_equal(model.diagonal, table)
        np.testing.assert_array_equal(model.diagonal, diagonal_energies(model))

    @pytest.mark.parametrize("name", ("h", "diagonal"))
    def test_arrays_are_read_only(self, rng, name):
        model = chain_model(rng.normal(size=4), rng.normal(size=3))
        with pytest.raises(ValueError):
            getattr(model, name)[0] = 1.0

    @pytest.mark.parametrize("bad", (math.nan, math.inf, -math.inf))
    def test_rejects_non_finite_fields(self, bad):
        with pytest.raises(ValueError, match="fields must be finite"):
            IsingModel(2, [bad, 0.0], ((0, 1, 1.0),))

    @pytest.mark.parametrize("couplings, message", [
        (((1, 0, 1.0),), "not an ordered site pair"),
        (((0, 2, 1.0),), "not an ordered site pair"),
        (((0, 1, 1.0), (0, 1, 0.5)), "duplicate coupling"),
        (((0, 1, math.nan),), "couplings must be finite"),
        (((0, 1, -math.inf),), "couplings must be finite"),
        (((0.5, 1, 1.0),), r"coupling \(0.5, 1\) is not an ordered site pair"),
        (((False, True, 1.0),), r"coupling \(False, True\) is not an ordered site pair"),
        (((np.int64(0), np.int64(1), "1"),), "couplings must be finite")],
        ids=["unordered", "beyond-last-site", "duplicate", "nan", "infinite", "float-site",
             "bool-sites", "string-weight"])
    def test_rejects_bad_couplings(self, couplings, message):
        with pytest.raises(ValueError, match=message):
            IsingModel(2, [0.0, 0.0], couplings)

    @pytest.mark.parametrize("rows, cols", ((0, 3), (3, 0), (-1, 2)))
    def test_grid_rejects_non_positive_dimensions(self, rows, cols):
        with pytest.raises(ValueError, match="grid dimensions must be positive"):
            grid_model(rows, cols, 0.0, 1.0)

    def test_one_table_per_model(self, rng, monkeypatch):
        built = []
        build = annealing.diagonal_energies
        monkeypatch.setattr(annealing, "diagonal_energies",
                            lambda model: built.append(model) or build(model))
        model = chain_model(rng.normal(size=8), rng.normal(size=7))
        psi = evolve(model, Schedule(delta0=2.0, t_total=1.0, steps=3)).psi
        success_probability(model, psi)
        brute_force_ground_state(model)
        apply_hamiltonian(model, 0.5, psi)
        assert built == [model]


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

    def test_peak_memory_at_18_sites(self, rng):
        # the table and one buffer of local fields, half a table: building
        # the table by concatenation held three
        n = 18
        couplings = tuple((i, j, float(rng.normal())) for i in range(n)
                          for j in range(i + 1, n) if rng.random() < 0.3)
        model = IsingModel(n, rng.normal(size=n), couplings)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            diagonal_energies(model)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak <= 1.6 * (8 << n)


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
    def test_array_times_match_scalar_calls(self, rng, profile):
        # bit for bit, both clipped ends included: t < 0 and t > t_total
        sched = Schedule(delta0=2.0, t_total=10.0, steps=100, profile=profile)
        t = np.concatenate((np.linspace(-1.0, 11.0, 97), rng.uniform(-1.0, 11.0, 12_000)))
        d = sched.delta_at(t)
        assert isinstance(sched.delta_at(3.0), float)
        np.testing.assert_array_equal(d, [sched.delta_at(float(v)) for v in t])

    def test_exponential_floor_ratio_sets_the_endpoint(self):
        sched = Schedule(delta0=2.0, t_total=10.0, steps=100, profile="exponential",
                         floor_ratio=1e-8)
        assert sched.delta_at(10.0) == pytest.approx(2.0 * 1e-8, rel=1e-12)

    @pytest.mark.parametrize("profile", ("linear", "exponential"))
    def test_seconds_match_natural_units(self, rng, profile):
        model = chain_model(rng.normal(size=5), rng.normal(size=4))
        natural = Schedule(delta0=2.0, t_total=3.0, steps=60, profile=profile)
        seconds = Schedule(delta0=2.0, t_total=3.0 * CONST.hbar_ev_s, steps=60,
                           profile=profile, time_unit="seconds")
        a = evolve(model, natural, record_every=7)
        b = evolve(model, seconds, record_every=7)
        np.testing.assert_allclose(b.psi, a.psi, rtol=0, atol=1e-12)
        np.testing.assert_allclose(b.energies, a.energies, rtol=0, atol=1e-12)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            Schedule(delta0=1.0, t_total=1.0, steps=0)
        with pytest.raises(ValueError):
            Schedule(delta0=1.0, t_total=1.0, steps=10, profile="polynomial")
        with pytest.raises(ValueError):
            Schedule(delta0=1.0, t_total=1.0, steps=10, floor_ratio=1e-3)
        with pytest.raises(ValueError, match="unknown time unit 'hours'"):
            Schedule(delta0=1.0, t_total=1.0, steps=10, time_unit="hours")

    @pytest.mark.parametrize("steps", (2.5, 3.0, True, np.float64(3.0)))
    def test_rejects_step_count_that_is_not_an_integer(self, steps):
        with pytest.raises(ValueError, match="steps must be an integer"):
            Schedule(delta0=1.0, t_total=1.0, steps=steps)

    @pytest.mark.parametrize("steps", (np.int64(3), np.int32(3)))
    def test_numpy_integer_step_count_runs_as_int(self, rng, steps):
        model = chain_model(rng.normal(size=4), rng.normal(size=3))
        np.testing.assert_array_equal(
            evolve(model, Schedule(delta0=1.0, t_total=1.0, steps=steps)).psi,
            evolve(model, Schedule(delta0=1.0, t_total=1.0, steps=3)).psi)

    @pytest.mark.parametrize("field", ("delta0", "t_total"))
    @pytest.mark.parametrize("bad", (math.nan, math.inf, -math.inf))
    def test_rejects_non_finite_parameters(self, field, bad):
        with pytest.raises(ValueError, match="finite"):
            Schedule(**{"delta0": 1.0, "t_total": 1.0, "steps": 10, field: bad})


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

    @pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.0, -math.inf), 0.0, 1e200],
                             ids=["nan", "inf", "complex-inf", "all-zero", "overflowing"])
    def test_rejects_initial_state_without_finite_positive_norm(self, bad):
        # one bad amplitude, or every amplitude where one alone is harmless
        psi0 = initial_state(3)
        if math.isfinite(abs(bad)):
            psi0[:] = bad
        else:
            psi0[5] = bad
        with pytest.raises(ValueError, match="initial state must be non-zero and finite"):
            evolve(chain_model(np.zeros(3), 1.0), Schedule(delta0=1.0, t_total=1.0, steps=4),
                   psi0=psi0)

    @pytest.mark.parametrize("shape", ((4,), (16,), (2, 4)))
    def test_rejects_initial_state_of_another_shape(self, shape):
        with pytest.raises(ValueError, match=r"state must have shape \(8,\)"):
            evolve(chain_model(np.zeros(3), 1.0), Schedule(delta0=1.0, t_total=1.0, steps=4),
                   psi0=np.full(shape, 0.5))

    @pytest.mark.parametrize("bad", (-1, 2.5, True))
    def test_rejects_record_every_that_is_not_a_non_negative_integer(self, bad):
        with pytest.raises(ValueError, match="record_every must be a non-negative integer"):
            evolve(chain_model(np.zeros(3), 1.0), Schedule(delta0=1.0, t_total=1.0, steps=4),
                   record_every=bad)

    @pytest.mark.parametrize("record_every", (0, 1, 7))
    def test_one_schedule_call_for_the_angles_and_one_for_the_records(
            self, monkeypatch, record_every):
        calls = []
        delta_at = Schedule.delta_at
        monkeypatch.setattr(Schedule, "delta_at",
                            lambda self, t: calls.append(np.shape(t)) or delta_at(self, t))
        res = evolve(random_chain(4), Schedule(delta0=2.0, t_total=10.0, steps=100,
                                               profile="exponential"), record_every=record_every)
        assert calls == [(100,), res.times.shape]

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

    @pytest.mark.parametrize("size", (2, 8))
    def test_rejects_state_of_another_size(self, size):
        with pytest.raises(ValueError, match=r"state must have shape \(4,\)"):
            success_probability(chain_model([0.0, 0.0], [1.0]), np.full(size, 0.5))


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
        # an independent inversion, shot by shot, of the same uniforms
        n, shots, seed = 6, 500, 3
        psi = random_state(rng, n)
        cumulative = list(itertools.accumulate(abs(a) * abs(a) for a in psi.tolist()))
        cumulative = [c / cumulative[-1] for c in cumulative]
        drawn = [bisect.bisect_right(cumulative, u)
                 for u in np.random.default_rng(seed).random(shots).tolist()]
        # each bitstring built on its own, site i at character i
        expected = {"".join("1" if (idx >> i) & 1 else "0" for i in range(n)): drawn.count(idx)
                    for idx in sorted(set(drawn))}
        hist = measure(psi, shots, seed)
        assert hist == expected
        assert list(hist) == list(expected)

    def test_counts_fit_the_probabilities(self, rng):
        # chi-square over all 64 outcomes, at a fixed seed; the state is not
        # normalized, which the draw must do itself
        n, shots = 6, 200_000
        psi = 5.0 * random_state(rng, n)
        outcomes, counts = sample_counts(psi, shots, seed=4)
        observed = np.zeros(2**n)
        observed[outcomes] = counts
        expected = np.abs(psi) ** 2
        expected *= shots / expected.sum()
        assert scipy.stats.chisquare(observed, expected).pvalue > 1e-3

    def test_arrays_are_the_dict(self, rng):
        psi = random_state(rng, 5)
        outcomes, counts = sample_counts(psi, 300, seed=8)
        assert np.all(np.diff(outcomes) > 0) and counts.sum() == 300 and np.all(counts > 0)
        assert measure(psi, 300, seed=8) == dict(zip(state_strings(5, outcomes).tolist(),
                                                     counts.tolist()))

    @pytest.mark.parametrize("zeros", [[0], [15], [0, 15], [5, 6, 7], [0, 1, 7, 8, 14, 15]],
                             ids=["first", "last", "both-ends", "middle", "ends-and-middle"])
    def test_zero_amplitudes_are_never_drawn(self, rng, zeros):
        psi = random_state(rng, 4)
        psi[zeros] = 0.0
        for seed in range(5):
            outcomes, _ = sample_counts(psi, 20_000, seed)
            assert not set(outcomes.tolist()) & set(zeros)

    @pytest.mark.parametrize("bad", [0.0, math.nan, math.inf, -math.inf, complex(math.nan, 1.0),
                                     complex(0.0, math.inf), 1e200],
                             ids=["all-zero", "nan", "inf", "-inf", "complex-nan",
                                  "complex-inf", "overflowing"])
    def test_rejects_state_without_finite_positive_norm(self, bad):
        # raised before any numpy warning, which the test settings make an error
        psi = np.zeros(8, dtype=complex) if bad == 0.0 else initial_state(3).astype(complex)
        psi[3] = bad
        with pytest.raises(ValueError, match="state norm"):
            measure(psi, 16, seed=0)

    def test_rejects_zero_shots(self):
        with pytest.raises(ValueError):
            measure(initial_state(2), 0, seed=0)

    def test_rejects_shots_beyond_cap(self):
        with pytest.raises(ValueError, match="shot count"):
            sample_counts(initial_state(2), MAX_SHOTS + 1, seed=0)

    @pytest.mark.parametrize("psi", [np.zeros(0, dtype=complex), np.full((4, 4), 0.25),
                                     np.ones(1), np.ones(3), np.ones(6), np.float64(1.0)],
                             ids=["empty", "2-d", "one", "three", "six", "scalar"])
    @pytest.mark.parametrize("draw", [sample_counts, measure])
    def test_rejects_state_that_is_not_a_power_of_two_vector(self, draw, psi):
        with pytest.raises(ValueError, match="state length must be a power of two, at least 2"):
            draw(psi, 16, seed=0)

    def test_peak_memory_at_18_sites(self, rng):
        # the CDF is the one state-size float array; the shots' uniforms and
        # indices are small beside it
        n = 18
        psi = random_state(rng, n)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            sample_counts(psi, 4096, seed=1)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak <= 1.6 * (8 << n)


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

    @pytest.mark.parametrize("n_sites", (None, 0))
    def test_rejects_graph_without_vertex(self, n_sites):
        with pytest.raises(ValueError, match="at least one vertex"):
            maxcut_to_ising([], n_sites)

    @pytest.mark.parametrize("state", ("01", "0110", "012", "0 1", ""))
    def test_cut_value_rejects_malformed_state(self, state):
        model = maxcut_to_ising([(0, 1, 1.0), (1, 2, 1.0)])
        with pytest.raises(ValueError, match="3-character string of 0s and 1s"):
            cut_value(model, state)


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
            assert [g[k] for g in got] == want

    # a point whose Ising terms (c_fg squared in the pivots) and one whose
    # amplitude ((pi a0 / L) squared) rounded differently alone and in a sweep
    # while a scalar was squared by ``**``
    @pytest.mark.parametrize("fields, n_g, v_cg", [
        ({"length": 21.0, "width": 15.596835170035293, "height": 107.0248745896617,
          "d_ox": 4.299951542161482, "d_gate": 6.684118031657584, "gap": 11.618328923677613},
         -0.0265450172961348, 1.2417725637201427),
        ({"length": 27.410594772527713, "width": 18.0, "height": 6.0, "d_ox": 5.49477865879105,
          "d_gate": 12.0, "gap": 28.822675404739076}, -0.015020167666578786,
         -0.7530126053817258),
    ], ids=["ising", "amplitude"])
    def test_point_equals_its_sweep(self, fields, n_g, v_cg):
        bias = BiasSet((0.0, 0.1, 0.0), 0.05, (0.0, 0.02, -0.02, 0.0))
        point = device_parameters(CellGeometry(**fields), self.MATS[0], bias, n_g, v_cg)
        sweep = device_parameters(CellGeometry(**{k: np.array([v]) for k, v in fields.items()}),
                                  self.MATS[0], bias, n_g, np.array([v_cg]))
        assert self.flat(*point) == [g[0] for g in self.flat(*sweep)]

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


def test_state_strings_round_trip():
    n = 6
    indices = np.array([0, 1, 5, 37, 63])
    strings = state_strings(n, indices)
    assert [len(s) for s in strings] == [n] * len(indices)
    assert [int(s[::-1], 2) for s in strings] == indices.tolist()


@pytest.mark.parametrize("indices", [[8], [-1], [0, 3, 8], [7, -8], [1 << 32]],
                         ids=["2^n", "-1", "2^n-among-valid", "negative-among-valid", "2^32"])
def test_state_strings_rejects_indices_outside_the_basis(indices):
    with pytest.raises(ValueError, match=r"indices must be in \[0, 8\) for 3 sites"):
        state_strings(3, np.array(indices))


def test_state_strings_takes_every_basis_index():
    assert state_strings(3, np.arange(8)).tolist() == [
        "000", "100", "010", "110", "001", "101", "011", "111"]
    assert state_strings(3, np.array([], dtype=int)).tolist() == []


def test_state_strings_read_every_byte_of_the_index():
    indices = np.array([0, 255, 256, 65537, (1 << MAX_SITES) - 1, 1 << (MAX_SITES - 1)])
    strings = state_strings(MAX_SITES, indices).tolist()
    assert [int(s[::-1], 2) for s in strings] == indices.tolist()


# the Walsh stepper, the blocked stepper cycled and in place, and the sector
@pytest.mark.parametrize("n, field", [(3, True), (9, True), (12, True), (12, False)])
def test_library_calls_write_nothing(capsys, rng, n, field):
    # a benchmark's last line on stdout is its result, so the annealer must
    # print nothing of its own
    model = chain_model(rng.normal(size=n) if field else np.zeros(n), rng.normal(size=n - 1))
    res = evolve(model, Schedule(delta0=2.0, t_total=1.0, steps=20), record_every=3)
    measure(res.psi, 64, 1)
    success_probability(model, res.psi)
    brute_force_ground_state(model)
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == ""
