"""Exact state-vector annealing for transverse-field Ising problems.

The Hamiltonian is

    H(t) = sum_{(i,j)} J_ij sz_i sz_j + sum_i h_i sz_i + Delta(t) sum_i sx_i

with energies in eV and a transverse field ramped to (numerically)
zero.  States live in the full 2^N amplitude vector; basis index ``s``
encodes site ``i`` in bit ``i``, bit value 0 meaning spin +1.  The
evolution is a symmetric (Strang) splitting between the diagonal Ising
part and the product of single-site transverse rotations, so every step
is exactly unitary.  The diagonal half-phases of consecutive steps are
merged into one phase P, and the rotation angles of all steps come from
one array call of the schedule.  Two kernels carry the steps, chosen by N alone:

* N <= 6 (``_WALSH_MAX_SITES``): the state is carried in the Walsh-
  Hadamard basis, where sum_i sx_i is diagonal, so a step is one
  elementwise phase and one dense 2^N x 2^N matmul by the run's fixed
  mixer H diag(P) H: about 4^N complex multiply-adds in two numpy calls.
* N >= 7: the state is carried in the gauge i^popcount(s) psi_s, where
  each single-site rotation is real, and the rotations are grouped into
  blocks of b <= 4 sites, each applied as one real 2^b x 2^b (or, for
  site 0's block, 2^(b+1) x 2^(b+1)) matmul on the float view of the
  state.  A block costs 2^(N+1) * 2^b real multiply-adds (twice that for
  site 0's block) and no 2^N x 2^N matrix is ever formed.  Up to N = 10
  (``_CYCLED_MAX_SITES``) each block's matmul is one 2-D product that
  also cycles the block's bits to the bottom of the index, so a step is
  one phase multiply and one matmul per block; above, the blocks are
  applied in place.
Per step, one BLAS thread on a two-core Xeon: 1.3 us at N <= 3, 3.2 us
at 6, 3.8 us at 7, 8.7 us at 10, 0.13 ms at 14 and 0.87 ms at 16 (the
table at ``_CYCLED_MAX_SITES``).
Time is measured in hbar/eV by default ("natural"); with
``time_unit="seconds"`` the accumulated phases pick up the hbar/eV
scale factor.

The positive-coupling convention favours anti-aligned neighbours, which
is what makes MAX-CUT the native problem: cutting an edge of weight w
lowers the Ising energy by 2w, so cut(S) = (sum w - E) / 2.

Annealing starts from the exact ground state of the transverse term,
the uniform superposition with alternating signs, and is measured
against :func:`brute_force_ground_state`, an exhaustive and
annealer-independent enumeration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cells import BiasSet, CellGeometry, MaterialStack, build_network
from .charging import IsingParameters, ising_parameters, reduce_network
from .constants import CONST, float_or_array
from .tunneling import TunnelBarrier, tunnel_amplitude

__all__ = [
    "IsingModel",
    "Schedule",
    "EvolutionResult",
    "GroundState",
    "chain_model",
    "grid_model",
    "maxcut_to_ising",
    "cut_value",
    "diagonal_energies",
    "initial_state",
    "apply_hamiltonian",
    "evolve",
    "measure",
    "brute_force_ground_state",
    "success_probability",
    "device_parameters",
    "fg_grid_model",
]

MAX_SITES = 24
MAX_BRUTE_FORCE_SITES = 20


@dataclass(frozen=True)
class IsingModel:
    """Problem instance: longitudinal fields and symmetric pair couplings.

    ``couplings`` holds one entry per undirected edge as (i, j, J_ij)
    with i < j; ``delta0`` optionally records a device-derived
    transverse-field scale (eV).
    """

    n_sites: int
    h: np.ndarray
    couplings: tuple[tuple[int, int, float], ...]
    topology: str = "arbitrary"
    delta0: float | None = None

    def __post_init__(self):
        if not 1 <= self.n_sites <= MAX_SITES:
            raise ValueError(f"site count must be in [1, {MAX_SITES}], got {self.n_sites}")
        h = np.asarray(self.h, dtype=float)
        if h.shape != (self.n_sites,):
            raise ValueError(f"h must have shape ({self.n_sites},), got {h.shape}")
        object.__setattr__(self, "h", h)
        seen = set()
        for (i, j, w) in self.couplings:
            if not (0 <= i < j < self.n_sites):
                raise ValueError(f"coupling ({i}, {j}) is not an ordered site pair")
            if (i, j) in seen:
                raise ValueError(f"duplicate coupling for pair ({i}, {j})")
            seen.add((i, j))
            if not math.isfinite(w):
                raise ValueError("couplings must be finite")


@dataclass(frozen=True)
class Schedule:
    """Transverse-field ramp Delta(t) from ``delta0`` down to ~0.

    ``linear`` reaches exactly zero at ``t_total``; ``exponential``
    decays geometrically to ``floor_ratio * delta0``.  The terminal
    field never exceeds 1e-6 of the initial one.
    """

    delta0: float
    t_total: float
    steps: int
    profile: str = "linear"
    floor_ratio: float = 1e-6
    time_unit: str = "natural"      # "natural" (hbar/eV) or "seconds"

    def __post_init__(self):
        if self.delta0 < 0.0:
            raise ValueError("initial transverse field must be non-negative")
        if self.t_total <= 0.0:
            raise ValueError("total time must be positive")
        if self.steps < 1:
            raise ValueError("step count must be at least 1")
        if self.profile not in ("linear", "exponential"):
            raise ValueError(f"unknown profile {self.profile!r}")
        if not 0.0 < self.floor_ratio <= 1e-6:
            raise ValueError("floor_ratio must be in (0, 1e-6]")
        if self.time_unit not in ("natural", "seconds"):
            raise ValueError(f"unknown time unit {self.time_unit!r}")

    def delta_at(self, t):
        """Delta at time ``t``: a float for a scalar, an array for an array."""
        x = np.clip(np.asarray(t, dtype=float) / self.t_total, 0.0, 1.0)
        if self.profile == "linear":
            d = self.delta0 * (1.0 - x)
        else:
            d = self.delta0 * self.floor_ratio**x
        return float_or_array(d)

    @property
    def phase_scale(self) -> float:
        """Multiplier turning energy (eV) times time into a phase."""
        return 1.0 if self.time_unit == "natural" else 1.0 / CONST.hbar_ev_s


@dataclass
class EvolutionResult:
    """Final state, the recorded (t, Delta, <H>) trace, and the Ising
    energy of every basis state that the run built (``diagonal``)."""

    psi: np.ndarray
    times: np.ndarray
    deltas: np.ndarray
    energies: np.ndarray
    diagonal: np.ndarray


@dataclass(frozen=True)
class GroundState:
    energy: float
    states: tuple[str, ...]


def chain_model(h, j) -> IsingModel:
    """Open chain with per-site fields ``h`` and per-bond couplings ``j`` (or one for all)."""
    h = np.asarray(h, dtype=float)
    j = np.atleast_1d(np.asarray(j, dtype=float))
    n = h.shape[0]
    if j.shape == (1,):
        j = np.full(max(n - 1, 0), j[0])
    if j.shape != (max(n - 1, 0),):
        raise ValueError(f"expected {n - 1} bond couplings, got {j.shape}")
    couplings = tuple((i, i + 1, float(j[i])) for i in range(n - 1))
    return IsingModel(n, h, couplings, topology="chain")


def grid_model(rows: int, cols: int, h, j: float,
               delta0: float | None = None) -> IsingModel:
    """Rectangular nearest-neighbour grid; site index = row * cols + col."""
    if rows < 1 or cols < 1:
        raise ValueError("grid dimensions must be positive")
    n = rows * cols
    h_arr = np.full(n, float(h)) if np.ndim(h) == 0 else np.asarray(h, dtype=float)
    edges = []
    for r in range(rows):
        for c in range(cols):
            s = r * cols + c
            if c + 1 < cols:
                edges.append((s, s + 1, float(j)))
            if r + 1 < rows:
                edges.append((s, s + cols, float(j)))
    return IsingModel(n, h_arr, tuple(sorted(edges)), topology=f"grid({rows}x{cols})",
                      delta0=delta0)


def maxcut_to_ising(edges, n_sites: int | None = None) -> IsingModel:
    """MAX-CUT instance as an Ising problem: J = weights, no fields.

    Positive couplings favour anti-alignment, so ground states of the
    Ising energy are maximum cuts; recover the cut size with
    :func:`cut_value`.
    """
    cleaned = []
    max_site = -1
    for (i, j, *rest) in edges:
        w = float(rest[0]) if rest else 1.0
        i, j = int(i), int(j)
        if i == j:
            raise ValueError(f"self-loop on vertex {i} is not allowed")
        if w <= 0.0:
            raise ValueError(f"edge weights must be positive, got {w}")
        if i > j:
            i, j = j, i
        cleaned.append((i, j, w))
        max_site = max(max_site, j)
    n = (max_site + 1) if n_sites is None else n_sites
    if n < 1:
        raise ValueError("graph must have at least one vertex")
    merged: dict[tuple[int, int], float] = {}
    for (i, j, w) in cleaned:
        merged[(i, j)] = merged.get((i, j), 0.0) + w
    couplings = tuple((i, j, w) for (i, j), w in sorted(merged.items()))
    return IsingModel(n, np.zeros(n), couplings, topology="arbitrary")


def cut_value(model: IsingModel, state: str) -> float:
    """Total weight of edges cut by the partition encoded in ``state``."""
    bits = _bits_from_state(model.n_sites, state)
    return sum(w for (i, j, w) in model.couplings if bits[i] != bits[j])


def _bits_from_state(n: int, state: str) -> np.ndarray:
    if len(state) != n or set(state) - {"0", "1"}:
        raise ValueError(f"state must be a {n}-character string of 0s and 1s")
    return np.array([1 if ch == "1" else 0 for ch in state], dtype=np.int8)


def state_string(n: int, index: int) -> str:
    """Basis bitstring for an amplitude index (site i at character i)."""
    return "".join("1" if (index >> i) & 1 else "0" for i in range(n))


def diagonal_energies(model: IsingModel) -> np.ndarray:
    """Ising energy of every basis state, shape (2^n,), eV."""
    # Sites are added one at a time: with site k in bit k, the energies
    # over sites 0..k are those over sites 0..k-1 shifted by +f and -f,
    # where f = h_k + sum_{i<k} J_ik s_i is site k's local field.
    earlier = [[] for _ in range(model.n_sites)]
    for (i, j, w) in model.couplings:
        earlier[j].append((i, w))
    energies = np.zeros(1)
    for k in range(model.n_sites):
        field = np.full(1 << k, model.h[k])
        for (i, w) in earlier[k]:
            by_bit_i = field.reshape(-1, 2, 1 << i)    # a view; axis 1 is bit i
            by_bit_i += np.array([[w], [-w]])          # spin +1 where bit i is clear
        energies = np.concatenate((energies + field, energies - field))
    return energies


def initial_state(n: int) -> np.ndarray:
    """Exact ground state of the transverse term: uniform magnitude with
    alternating signs, (-1)^popcount(s) / sqrt(2^n)."""
    # adding site k in bit k appends the sign-flipped first half
    psi = np.empty(1 << n)
    psi[0] = 1.0 / math.sqrt(1 << n)
    for k in range(n):
        np.negative(psi[:1 << k], out=psi[1 << k:2 << k])
    return psi.astype(np.complex128)


def apply_hamiltonian(model: IsingModel, delta: float, psi: np.ndarray) -> np.ndarray:
    """Matrix-free H psi for the Hamiltonian at transverse field ``delta``."""
    n = model.n_sites
    psi = np.asarray(psi)
    if psi.shape != (1 << n,):
        raise ValueError(f"state must have shape ({1 << n},), got {psi.shape}")
    out = diagonal_energies(model) * psi
    if delta != 0.0:
        arr = psi.reshape((2,) * n)
        acc = out.reshape((2,) * n)
        for axis in range(n):
            acc += delta * np.flip(arr, axis=axis)
    return out


def _energy(diag: np.ndarray, delta: float, psi: np.ndarray) -> float:
    """<psi|H|psi> given the Ising diagonal ``diag`` of H, with no
    full-size temporary.

    <psi|sx_i|psi> is twice the real dot product of the bit-i = 0 and
    bit-i = 1 halves of psi, both taken as strided views of its float
    (re, im) pairs.
    """
    pairs = psi.view(np.float64).reshape(-1, 2)
    energy = np.einsum("s,sc,sc->", diag, pairs, pairs)
    if delta != 0.0:
        for i in range(diag.shape[0].bit_length() - 1):
            halves = pairs.reshape(-1, 2, 2 << i)        # axis 1 is bit i
            energy += 2.0 * delta * np.einsum("ij,ij->", halves[:, 0], halves[:, 1])
    return float(energy)


def _popcount(values: np.ndarray, bits: int) -> np.ndarray:
    return sum((values >> i) & 1 for i in range(bits))


# Largest site count stepped by the Walsh kernel; larger runs use the
# blocked one.  Per step, one BLAS thread on a two-core Xeon, fastest of
# 42 runs of 2000 steps taken in turn (Walsh / blocked): n = 1..3
# 2.0-2.1 / 2.6-3.0 us, 4 2.2 / 4.0, 5 2.7 / 4.3, 6 3.9 / 4.6, 7 7.3 / 3.6,
# 8 28 / 4.7, 9 225 / 8.5.  The Walsh step is a dense 4^n matmul, so it
# loses fast past the crossover.  Absolute times on a shared host move by
# up to 2x from one process to the next; the kernels' step times before
# and after the cycled layout are tabled at _CYCLED_MAX_SITES.
_WALSH_MAX_SITES = 6

# Steps per table of rotation coefficients.  Bounds the Walsh kernel's
# table to 256 x 2^6 complex numbers (0.25 MB), where one table for the
# whole of a 64,000-step anneal would take 66 MB.
_CHUNK_STEPS = 256


def _walsh_kernel(n: int, phase: np.ndarray):
    """Stepper carrying the state in the Walsh-Hadamard basis.

    With H[r, c] = (-1)^popcount(r & c) / sqrt(2^n), H sum_i sx_i H is
    diag(n - 2 popcount(s)), so exp(-i theta sum_i sx_i) = H D H with
    D = exp(-i theta (n - 2 popcount(s))).  Between the rotations of
    consecutive steps sits the merged diagonal phase ``phase``, so in
    the Walsh basis a step is a phase D_k and the fixed mixer
    G = H diag(phase) H.  G[r, s] depends on r ^ s alone: it is the
    Walsh transform of ``phase`` at r ^ s, divided by sqrt(2^n).

    Returns ``advance(chi, thetas)``: the rotations by ``thetas`` with
    ``phase`` between consecutive ones, applied to ``chi``.
    """
    dim = 1 << n
    index = np.arange(dim)
    signs = np.where(_popcount(index[:, None] & index, n) & 1, -1.0, 1.0)
    walsh = signs / math.sqrt(dim)
    # scaled by the exact 1 / dim: a rounded (1 / sqrt(dim))^2 would grow
    # the norm by an ulp on every step
    mixer = (signs @ phase / dim)[index[:, None] ^ index]
    counts = _popcount(index, n)
    levels = n - 2.0 * np.arange(n + 1)

    def advance(chi: np.ndarray, thetas: np.ndarray) -> np.ndarray:
        # each mixer product writes into the other of two buffers
        phi, spare = walsh @ chi, np.empty_like(chi)
        for lo in range(0, thetas.shape[0], _CHUNK_STEPS):
            chunk = thetas[lo:lo + _CHUNK_STEPS]
            rotations = np.exp(-1j * np.multiply.outer(chunk, levels))[:, counts]
            if lo:
                np.dot(mixer, phi, out=spare)
                phi, spare = spare, phi
            for d in rotations[:-1]:
                phi *= d
                np.dot(mixer, phi, out=spare)
                phi, spare = spare, phi
            phi *= rotations[-1]
        return walsh @ phi

    return advance


# Most sites per transverse-rotation block.  A block of b sites costs
# 2^(n+1) * 2^b real multiply-adds in one matmul call, so larger blocks
# trade arithmetic for fewer calls.  Per step in the in-place layout with
# blocks of at most 3 / 4 / 5 / 6 sites, one BLAS thread on a two-core
# Xeon, fastest of 15 runs: n = 14 143 / 128 / 186 / 195 us, 16 1.02 /
# 0.84 / 0.83 / 1.17 ms, 18 4.5 / 4.5 / 6.0 / 9.4 ms.
_BLOCK_SITES = 4

# Largest site count stepped in the cycled layout (see _blocked_kernel);
# larger runs are stepped in place.  Per step, one BLAS thread on a
# two-core Xeon, fastest of 75 runs taken in turn (cycled / in place, us):
# n = 7 3.5 / 5.9, 8 4.0 / 7.5, 9 5.7 / 9.2, 10 8.6 / 13, 11 15 / 19,
# 12 30 / 36, 13 62 / 61, 14 127 / 130, 15 468 / 331, 16 1112 / 813.
# The cycled layout's 2-D products read the state with a stride of
# 2^(n+1-m) floats for an m-bit block, which stops paying once the state
# outgrows the cache; at n = 13-14 the gain is within run-to-run spread.
# The limit is the largest n below 16 that the benchmark anneals.  Per
# step against the kernels before the cycled layout and the Walsh kernel's
# product buffer (old / new, us, fastest of 372 runs taken in turn):
# n = 1 1.6 / 1.3, 2 1.6 / 1.3, 3 1.6 / 1.3, 4 1.8 / 1.5, 5 2.1 / 1.8,
# 6 3.3 / 3.2, 7 5.1 / 3.8, 8 6.7 / 4.3, 9 9.0 / 6.0, 10 12 / 8.7,
# 11 19 / 20, 12 36 / 36, 13 65 / 66, 14 127 / 128, 15 321 / 344,
# 16 844 / 874.  At n >= 11 both step in place with the same arithmetic,
# and the new step is up to 7% slower: it refills a one-step table where
# the old one indexed a new matrix.
_CYCLED_MAX_SITES = 10


def _sx_blocks(n: int) -> tuple[int, ...]:
    """Sites per block, from site 0's block up: near-equal contiguous
    blocks of at most ``_BLOCK_SITES`` sites, site 0's the smallest.  In
    the cycled layout site 0's block also carries the float view's re/im
    bit, which counts as one of its sites.  That gives the fastest split
    measured at n = 7, 8 and 10; at 9 it gives (2, 3, 4), 0.4 us per step
    slower than (3, 3, 3)."""
    extra = int(n <= _CYCLED_MAX_SITES)
    bits = n + extra
    count = -(-bits // _BLOCK_SITES)
    sizes = [bits // count + (k >= count - bits % count) for k in range(count)]
    sizes[0] -= extra
    return tuple(sizes)


def _rotation_index(b: int, lowest: bool = False) -> np.ndarray:
    """Where each entry of a b-site real rotation sits in a coefficient row.

    Entry (r, c) of O is cos^(b-k) sin^k (-1)^popcount(~r & c) with
    k = popcount(r ^ c): row entry k, or b + 1 + k when the sign is
    negative.  With ``lowest`` the index is that of kron(O^T, I_2), whose
    off-diagonal float pairs take the zero at the end of the row.
    """
    r = np.arange(1 << b)[:, None]
    c = np.arange(1 << b)
    index = _popcount(r ^ c, b) + (b + 1) * (_popcount(~r & c, b) & 1)
    if not lowest:
        return index
    same = np.eye(2, dtype=bool)[None, :, None, :]
    return np.where(same, index.T[:, None, :, None], 2 * b + 2).reshape(2 << b, 2 << b)


def _rotation_coefficients(thetas: np.ndarray, b: int) -> np.ndarray:
    """Rows cos^(b-k) sin^k for k = 0..b, then their negatives, then 0:
    one row per angle, indexed by :func:`_rotation_index`."""
    c = np.cos(thetas)[:, None]
    s = np.sin(thetas)[:, None]
    row = c ** (b - np.arange(b + 1)) * s ** np.arange(b + 1)
    return np.concatenate((row, -row, np.zeros_like(c)), axis=1)


def _blocked_kernel(n: int, phase: np.ndarray):
    """Stepper applying each rotation as one real matmul per site block.

    The state is carried in the gauge psi'_s = i^popcount(s) psi_s, which
    commutes with the diagonal phase and turns each factor exp(-i theta sx)
    into the real rotation [[cos, -sin], [sin, cos]].  The single-site
    rotations commute, so on a block of b sites they multiply to a real
    orthogonal 2^b x 2^b Kronecker product (see :func:`_rotation_index`),
    the same for any order of the bits within the block.  It acts on the
    real and imaginary parts of the state alike: one real matmul on the
    float view, whose lowest index bit is the re/im one; site 0's block
    takes that bit along, as kron(O^T, I_2).  The gauge goes on when
    ``advance`` starts and comes off when it ends, each as two broadcast
    multiplies by powers of i over the high and the low half of the index
    bits: exact, and with no array the size of the state.

    Up to ``_CYCLED_MAX_SITES`` the blocks are applied from the top down
    in the cycled layout: each is one 2-D product X^T M^T of
    X = (block bits, other bits), written as (other bits, block bits), so
    it rotates the block's bits from the top of the float index to the
    bottom, and after site 0's block every bit is back in place.  The
    block matrices of up to ``_CHUNK_STEPS`` steps are built into tables
    first, a few numpy calls per chunk instead of per step.  Above that
    the blocks are applied in place, site 0's on the (other, block) view
    and every other one as a stacked matmul on (high, block, low), and the
    tables hold one step, so they stay small next to the state.

    Returns ``advance(chi, thetas)`` as :func:`_walsh_kernel` does, but
    overwriting ``chi``.
    """
    sizes = _sx_blocks(n)
    cycled = n <= _CYCLED_MAX_SITES
    table_steps = _CHUNK_STEPS if cycled else 1
    # each block as (b, lowest, shape): site 0's block or not, and the
    # float view of the state that its matmul writes (and, in place, reads)
    blocks, lo = [], 0
    for b in sizes:
        if not lo:
            shape = (-1, 2 << b)
        elif cycled:
            shape = (-1, 1 << b)
        else:
            shape = (1 << (n - lo - b), 1 << b, 2 << lo)
        blocks.append((b, not lo, shape))
        lo += b
    if cycled:
        blocks.reverse()
    # the coefficient index of each distinct block matrix: kron(O^T, I_2)
    # for site 0's block, O^T for the others in the cycled layout (all
    # multiply from the right), O for the stacked ones in place
    indices = {(b, lowest): _rotation_index(b, lowest) if lowest or not cycled
               else _rotation_index(b).T for b, lowest, _ in blocks}
    powers = np.array([1.0, 1.0j, -1.0, -1.0j])
    halves = (1 << (n - n // 2), 1 << (n // 2))
    counts = [_popcount(np.arange(m), n) for m in halves]

    def gauge(chi: np.ndarray, sign: int) -> None:
        rows = chi.reshape(halves)
        rows *= powers[sign * counts[0] % 4][:, None]
        rows *= powers[sign * counts[1] % 4]

    def advance(chi: np.ndarray, thetas: np.ndarray) -> np.ndarray:
        gauge(chi, 1)
        # each matmul writes into the other of two state-size buffers
        buffers = (chi, np.empty_like(chi))
        flat = [buffer.view(np.float64) for buffer in buffers]
        steps = min(table_steps, thetas.shape[0])
        tables = {key: np.empty((steps, *index.shape)) for key, index in indices.items()}
        # (in view, out view, table, left) of each block, for a step that
        # starts in buffer 0 and for one that starts in buffer 1; a cycled
        # block reads (block bits, other bits) as its transpose
        plans = [[], []]
        for start, plan in enumerate(plans):
            for i, (b, lowest, shape) in enumerate(blocks):
                source, target = flat[start ^ (i & 1)], flat[1 - (start ^ (i & 1))]
                state = source.reshape(shape[::-1]).T if cycled else source.reshape(shape)
                plan.append((state, target.reshape(shape), tables[b, lowest], len(shape) == 3))
        current = 0
        for lo in range(0, thetas.shape[0], _CHUNK_STEPS):
            chunk = thetas[lo:lo + _CHUNK_STEPS]
            coefficients = {b: _rotation_coefficients(chunk, b) for b in set(sizes)}
            for k in range(chunk.shape[0]):
                row = k % steps
                if not row:     # the tables' next steps
                    for (b, lowest), index in indices.items():
                        rows = coefficients[b][k:k + steps]
                        # mode="clip" writes straight into ``out``; "raise" buffers it
                        rows.take(index, axis=1, out=tables[b, lowest][:rows.shape[0]],
                                  mode="clip")
                if lo or k:
                    np.multiply(buffers[current], phase, out=buffers[current])
                for state, out, table, left in plans[current]:
                    if left:
                        np.matmul(table[row], state, out=out)
                    else:
                        np.dot(state, table[row], out=out)
                current ^= len(blocks) & 1
        gauge(buffers[current], -1)
        return buffers[current]

    return advance


def evolve(model: IsingModel, schedule: Schedule, psi0: np.ndarray | None = None,
           record_every: int = 0) -> EvolutionResult:
    """Anneal the state under H(t) with the given schedule.

    Symmetric splitting: half a diagonal phase, the transverse rotation
    at the midpoint field, half a diagonal phase.  Deterministic for a
    given (model, schedule, initial state); the norm is preserved to
    rounding error.  ``record_every`` > 0 stores (t, Delta, <H>) every
    that many steps, plus the initial and final points.
    """
    n = model.n_sites
    dim = 1 << n
    if psi0 is None:
        psi = initial_state(n)
    else:
        psi = np.array(psi0, dtype=np.complex128)
        if psi.shape != (dim,):
            raise ValueError(f"initial state must have shape ({dim},)")
        norm = np.linalg.norm(psi)
        if norm == 0.0:
            raise ValueError("initial state must be non-zero")
        psi /= norm
    steps = schedule.steps
    scale = schedule.phase_scale
    dt = schedule.t_total / steps
    diag = diagonal_energies(model)
    half_phase = np.exp(-0.5j * diag * dt * scale)
    # the adjacent half-phases of consecutive steps merge into one
    full_phase = half_phase * half_phase
    thetas = schedule.delta_at((np.arange(steps) + 0.5) * dt) * dt * scale
    kernel = _walsh_kernel if n <= _WALSH_MAX_SITES else _blocked_kernel
    advance = kernel(n, full_phase)

    times, deltas, energies = [], [], []

    def record(step: int) -> None:
        t = step * dt
        d = schedule.delta_at(t)
        times.append(t)
        deltas.append(d)
        energies.append(_energy(diag, d, psi))

    if record_every > 0:
        record(0)
        stops = [*range(record_every, steps, record_every), steps]
    else:
        stops = [steps]
    start = 0
    for stop in stops:
        psi *= half_phase
        psi = advance(psi, thetas[start:stop])
        psi *= half_phase
        if record_every > 0:
            record(stop)
        start = stop
    return EvolutionResult(psi=psi, times=np.array(times), deltas=np.array(deltas),
                           energies=np.array(energies), diagonal=diag)


def measure(psi: np.ndarray, shots: int, seed: int) -> dict[str, int]:
    """Sample computational-basis bitstrings from |psi|^2.

    Reproducible for a fixed seed; returns only outcomes that occurred.
    """
    if shots < 1:
        raise ValueError("shot count must be at least 1")
    psi = np.asarray(psi)
    n = int(round(math.log2(psi.shape[0])))
    if n < 1 or 1 << n != psi.shape[0]:
        raise ValueError("state length must be a power of two, at least 2")
    p = np.abs(psi) ** 2
    p /= p.sum()
    counts = np.random.default_rng(seed).multinomial(shots, p)
    outcomes = np.flatnonzero(counts)
    # site i is character i of the bitstring, read as fixed-width bytes
    chars = ((outcomes[:, None] >> np.arange(n)) & 1).astype(np.uint8) + ord("0")
    states = chars.view(f"S{n}").ravel().astype(str)
    return dict(zip(states.tolist(), counts[outcomes].tolist()))


def brute_force_ground_state(model: IsingModel) -> GroundState:
    """Exhaustive minimum of the Ising energy; returns every minimiser.

    Independent of the annealer: plain enumeration of all 2^n spin
    assignments, limited to n <= 20.
    """
    _check_brute_force(model)
    return _ground_state(model.n_sites, diagonal_energies(model))


def _check_brute_force(model: IsingModel) -> None:
    if model.n_sites > MAX_BRUTE_FORCE_SITES:
        raise ValueError(f"brute force is limited to {MAX_BRUTE_FORCE_SITES} sites, "
                         f"got {model.n_sites}")


def _minimisers(energies: np.ndarray) -> tuple[float, np.ndarray]:
    """Minimum of ``energies`` and the indices of every entry within
    1e-12 * max(1, |minimum|) of it."""
    e_min = float(energies.min())
    tol = 1e-12 * max(1.0, abs(e_min))
    return e_min, np.flatnonzero(energies <= e_min + tol)


def _ground_state(n: int, energies: np.ndarray) -> GroundState:
    """Minimum of the Ising ``energies`` of all 2^n basis states, with
    every minimiser."""
    e_min, minimisers = _minimisers(energies)
    return GroundState(energy=e_min,
                       states=tuple(state_string(n, int(i)) for i in minimisers))


def success_probability(model: IsingModel, psi: np.ndarray, *,
                        diagonal: np.ndarray | None = None) -> float:
    """Total |amplitude|^2 carried by the exact ground-state set.

    ``diagonal``, the Ising energy of every basis state (as
    ``EvolutionResult.diagonal`` holds it), saves building it again; without
    it the model is enumerated as by :func:`brute_force_ground_state`.
    """
    if diagonal is None:
        _check_brute_force(model)
        diagonal = diagonal_energies(model)
    elif np.shape(diagonal) != (1 << model.n_sites,):
        raise ValueError(f"diagonal must have shape ({1 << model.n_sites},), "
                         f"got {np.shape(diagonal)}")
    p = np.abs(np.asarray(psi)[_minimisers(diagonal)[1]]) ** 2
    return float(sum(p))


def device_parameters(geom: CellGeometry, mat: MaterialStack, bias: BiasSet | None = None,
                      n_g: float = 0.0, v_cg=None) -> tuple[IsingParameters, float]:
    """Three-cell Ising terms and WKB tunnel amplitude (Hz) of a cell geometry.

    ``bias`` (of a three-cell row) defaults to zero volts; ``v_cg``
    defaults to the first gate bias.  The geometry fields and ``v_cg`` may
    be arrays (the points of a sweep): the network, its reduction, the
    Ising terms and the amplitude are then evaluated for every point in
    one pass, and each result is an array over the points.
    """
    if bias is None:
        bias = BiasSet.uniform(3)
    params = ising_parameters(reduce_network(build_network(geom, mat, 3), bias), n_g)
    v = bias.v_gate[0] if v_cg is None else v_cg
    return params, tunnel_amplitude(geom, TunnelBarrier.from_stack(geom, mat), v)


def fg_grid_model(geom: CellGeometry, mat: MaterialStack, bias: BiasSet,
                  rows: int, cols: int, n_g: float = 0.0,
                  v_cg: float | None = None) -> IsingModel:
    """Ising model of a rows x cols floating-gate array.

    Every edge carries the nearest-neighbour coupling of the three-cell
    closed form (its first adjacent pair), every site the interior-cell
    field at gate coordinate ``n_g``; ``delta0`` is the tunnel amplitude
    (eV) at ``v_cg``.  All three come from :func:`device_parameters`.
    """
    params, amplitude = device_parameters(geom, mat, bias, n_g, v_cg)
    return grid_model(rows, cols, h=params.h[1], j=params.j[0],
                      delta0=amplitude / CONST.hz_per_ev)
