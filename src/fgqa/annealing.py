"""Exact state-vector annealing for transverse-field Ising problems.

The Hamiltonian is

    H(t) = sum_{(i,j)} J_ij sz_i sz_j + sum_i h_i sz_i + Delta(t) sum_i sx_i

with energies in eV and a transverse field ramped to (numerically)
zero.  States live in the full 2^N amplitude vector; basis index ``s``
encodes site ``i`` in bit ``i``, bit value 0 meaning spin +1.  The
evolution is a symmetric (Strang) splitting between the diagonal Ising
part and the product of single-site transverse rotations, so every step
is exactly unitary.  A stepper holds the state with its closing half
phase divided out, so that every step, the first too, opens with one full
phase P; the angles of all steps, and the Delta of all records, each come
from one array call of the schedule.  Up to ``_WALSH_MAX_SITES`` sites
:func:`_walsh_kernel` steps a run in the Walsh-Hadamard basis, where
sum_i sx_i is diagonal; above, :func:`_blocked_kernel` steps it in a gauge
where each site block's rotation is one real matmul.  Either way a step is
one row of a short table of calls prebound to the stepper's fixed buffers,
whose matrices :func:`_advance` alone writes, gathered from one coefficient
array per chunk of angles.  A stepper only steps: at a record it writes the
physical state into its spare buffer, where one reader, :func:`_energy`,
computes <H>, so a recorded run ends bit for bit where the unrecorded one
does.  Measured per-step times are in ``BENCH_31.json``.  Time is in hbar/eV
by default ("natural"); with ``time_unit="seconds"`` the accumulated phases
pick up the hbar/eV scale factor.

Zero-field runs of 12 sites and more from the transverse ground state, such
as MAX-CUT problems and device grids at n_g = 0, are carried in their
spin-flip sector (see :func:`evolve`), half the size of the full state.

The positive-coupling convention favours anti-aligned neighbours, which
is what makes MAX-CUT the native problem: cutting an edge of weight w
lowers the Ising energy by 2w, so cut(S) = (sum w - E) / 2.

Annealing starts from the exact ground state of the transverse term,
the uniform superposition with alternating signs, and is measured
against :func:`brute_force_ground_state`, an exhaustive and
annealer-independent enumeration.  Both read the model's own read-only
table of the 2^N Ising energies, :attr:`IsingModel.diagonal`, which
:func:`diagonal_energies` builds once, on first use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, cached_property, partial

import numpy as np

from .cells import BiasSet, CellGeometry, MaterialStack, build_network
from .charging import IsingParameters, ising_parameters, reduce_network
from .constants import CONST, checked, float_or_array
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
    "sample_counts",
    "measure",
    "state_strings",
    "brute_force_ground_state",
    "success_probability",
    "device_parameters",
    "fg_grid_model",
]

MAX_SITES = 24
MAX_BRUTE_FORCE_SITES = 20
MAX_SHOTS = 1 << 24     # 16 B a shot for the uniforms and their indices: 256 MB


@dataclass(frozen=True)
class IsingModel:
    """Problem instance: longitudinal fields and symmetric pair couplings.

    ``couplings`` holds one entry per undirected edge as (i, j, J_ij)
    with i < j; ``delta0`` optionally records a device-derived
    transverse-field scale (eV).  ``h`` is held as a read-only copy, so
    the model and its energy table :attr:`diagonal` cannot drift apart.
    """

    n_sites: int
    h: np.ndarray
    couplings: tuple[tuple[int, int, float], ...]
    topology: str = "arbitrary"
    delta0: float | None = None

    def __post_init__(self):
        if not 1 <= self.n_sites <= MAX_SITES:
            raise ValueError(f"site count must be in [1, {MAX_SITES}], got {self.n_sites}")
        h = np.array(self.h)
        if h.shape != (self.n_sites,):
            raise ValueError(f"h must have shape ({self.n_sites},), got {h.shape}")
        h = checked(h, "fields", "finite").astype(float, copy=False)
        h.flags.writeable = False
        object.__setattr__(self, "h", h)
        seen = set()
        for (i, j, w) in self.couplings:
            if not (_is_index(i) and _is_index(j) and 0 <= i < j < self.n_sites):
                raise ValueError(f"coupling ({i}, {j}) is not an ordered site pair")
            if (i, j) in seen:
                raise ValueError(f"duplicate coupling for pair ({i}, {j})")
            seen.add((i, j))
            checked(w, "couplings", "finite")

    @cached_property
    def diagonal(self) -> np.ndarray:
        """Ising energy of every basis state, shape (2^n,), eV: built once by
        :func:`diagonal_energies` and read-only."""
        energies = diagonal_energies(self)
        energies.flags.writeable = False
        return energies


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
        checked(self.delta0, "initial transverse field", "non-negative")
        checked(self.t_total, "total time")
        if not _is_index(self.steps):
            raise ValueError(f"steps must be an integer, got {self.steps!r}")
        if self.steps < 1:
            raise ValueError("step count must be at least 1")
        if self.profile not in ("linear", "exponential"):
            raise ValueError(f"unknown profile {self.profile!r}")
        if not 0.0 < self.floor_ratio <= 1e-6:
            raise ValueError("floor_ratio must be in (0, 1e-6]")
        if self.time_unit not in ("natural", "seconds"):
            raise ValueError(f"unknown time unit {self.time_unit!r}")

    def delta_at(self, t):
        """Delta at time ``t``: a float for a scalar, an array for an array,
        each rounded as the array path rounds it."""
        x = np.clip(np.asarray(t, dtype=float) / self.t_total, 0.0, 1.0)
        if self.profile == "linear":
            d = self.delta0 * (1.0 - x)
        else:
            d = self.delta0 * np.power(self.floor_ratio, x)
        return float_or_array(d)

    @property
    def phase_scale(self) -> float:
        """Multiplier turning energy (eV) times time into a phase."""
        return 1.0 if self.time_unit == "natural" else 1.0 / CONST.hbar_ev_s


@dataclass
class EvolutionResult:
    """Final state and the recorded (t, Delta, <H>) trace."""

    psi: np.ndarray
    times: np.ndarray
    deltas: np.ndarray
    energies: np.ndarray


@dataclass(frozen=True)
class GroundState:
    energy: float
    states: tuple[str, ...]


def chain_model(h, j) -> IsingModel:
    """Open chain with per-site fields ``h`` and per-bond couplings ``j`` (or one for all)."""
    h = np.asarray(h, dtype=float)
    if h.ndim != 1:
        raise ValueError(f"h must hold one field per site, got shape {h.shape}")
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


def _is_index(v) -> bool:
    """Whether ``v`` is a Python or numpy integer; a bool is not."""
    return type(v) is int or isinstance(v, np.integer)


def _bits_from_state(n: int, state: str) -> np.ndarray:
    if len(state) != n or set(state) - {"0", "1"}:
        raise ValueError(f"state must be a {n}-character string of 0s and 1s")
    return np.array([1 if ch == "1" else 0 for ch in state], dtype=np.int8)


def state_strings(n: int, indices: np.ndarray) -> np.ndarray:
    """Basis bitstring of each amplitude index (site i at character i), as
    a str array."""
    indices = np.asarray(indices)
    if indices.size and not (indices.min() >= 0 and indices.max() < 1 << n):
        raise ValueError(f"indices must be in [0, {1 << n}) for {n} sites")
    # the low n bits of each index's little-endian bytes, read as fixed-width bytes
    octets = indices.astype("<u4").view(np.uint8).reshape(-1, 4)
    chars = np.unpackbits(octets, axis=1, count=n, bitorder="little") + ord("0")
    return chars.view(f"S{n}").ravel().astype(str)


def diagonal_energies(model: IsingModel) -> np.ndarray:
    """Ising energy of every basis state, shape (2^n,), eV."""
    # Sites are added one at a time: with site k in bit k, the energies
    # over sites 0..k are those over sites 0..k-1 shifted by +f and -f,
    # where f = h_k + sum_{i<k} J_ik s_i is site k's local field.
    earlier = [[] for _ in range(model.n_sites)]
    for (i, j, w) in model.couplings:
        earlier[j].append((i, w))
    energies = np.zeros(1 << model.n_sites)
    fields = np.empty(1 << (model.n_sites - 1))     # site k's in the first 2^k entries
    for k in range(model.n_sites):
        field = fields[:1 << k]
        field.fill(model.h[k])
        for (i, w) in earlier[k]:
            by_bit_i = field.reshape(-1, 2, 1 << i)    # a view; axis 1 is bit i
            by_bit_i += np.array([[w], [-w]])          # spin +1 where bit i is clear
        # the table over sites 0..k-1 is its first 2^k entries
        np.subtract(energies[:1 << k], field, out=energies[1 << k:2 << k])
        energies[:1 << k] += field
    return energies


def initial_state(n: int) -> np.ndarray:
    """Exact ground state of the transverse term: uniform magnitude with
    alternating signs, (-1)^popcount(s) / sqrt(2^n)."""
    return _initial_amplitudes(n, n)


def _initial_amplitudes(n: int, sites: int, out: np.ndarray | None = None) -> np.ndarray:
    """The first 2^sites amplitudes of :func:`initial_state` (n), written
    into ``out`` if it is given."""
    psi = np.empty(1 << sites, dtype=np.complex128) if out is None else out
    psi.imag = 0.0
    # adding site k in bit k appends the sign-flipped first half
    real = psi.real
    real[0] = 1.0 / math.sqrt(1 << n)
    for k in range(sites):
        np.negative(real[:1 << k], out=real[1 << k:2 << k])
    return psi


def _checked_state(model: IsingModel, psi) -> np.ndarray:
    """``psi`` as an array, which must have the model's 2^n amplitudes."""
    psi = np.asarray(psi)
    if psi.shape != (1 << model.n_sites,):
        raise ValueError(f"state must have shape ({1 << model.n_sites},), got {psi.shape}")
    return psi


def apply_hamiltonian(model: IsingModel, delta: float, psi: np.ndarray) -> np.ndarray:
    """Matrix-free H psi for the Hamiltonian at transverse field ``delta``."""
    n = model.n_sites
    psi = _checked_state(model, psi)
    out = model.diagonal * psi
    if delta != 0.0:
        arr = psi.reshape((2,) * n)
        acc = out.reshape((2,) * n)
        for axis in range(n):
            acc += delta * np.flip(arr, axis=axis)
    return out


# Largest site count stepped by the Walsh kernel, whose step is a dense 4^n
# matmul: the measured crossing (``walsh_crossing`` in BENCH_31.json).
_WALSH_MAX_SITES = 5

# Steps per chunk of angles whose rotations are computed in one pass.
_CHUNK_STEPS = 256

# Steps per table of prebound calls, a divisor of _CHUNK_STEPS: a call takes
# about 0.3 us to build (``table_steps`` in BENCH_31.json).  In place, four:
# their tables then hold at most 40 KB next to the state.
_TABLE_STEPS = 32


def _advance(calls: list, tables: list, coefficients, thetas: np.ndarray):
    """``advance(stop)``, taking a stepper from its step to step ``stop``: step
    k runs the calls of row k % rows of ``calls``, prebound to fixed buffers,
    after each (table, index) of ``tables``, rows long, has gathered its rows'
    matrices by ``index`` from ``coefficients(chunk)``, made once a chunk."""
    rows = tables[0][0].shape[0]
    width, position, chunk = len(calls) // rows, 0, None

    def advance(stop: int) -> None:
        nonlocal position, chunk
        while position < stop:
            row = position % rows
            if not row:
                if not position % _CHUNK_STEPS:
                    chunk = coefficients(thetas[position:position + _CHUNK_STEPS])
                part = chunk[position % _CHUNK_STEPS:][:rows]
                for table, index in tables:
                    # mode "clip" writes straight into the table; "raise" buffers it
                    part.take(index, 1, table[:part.shape[0]], "clip")
            end = min(stop, position - row + rows)
            for call in calls[row * width:(end - position + row) * width]:
                call()
            position = end

    return advance


@cache
def _walsh_tables(n: int) -> tuple[np.ndarray, ...]:
    """(-1)^popcount(r & c), H, r ^ c and popcount(r) for 2^n r, c, and the
    n + 1 levels of sum_i sz_i; read-only."""
    index = np.arange(1 << n)
    signs = np.where(np.bitwise_count(index[:, None] & index) & 1, -1.0, 1.0)
    tables = (signs, signs / math.sqrt(1 << n), index[:, None] ^ index,
              np.bitwise_count(index).astype(np.intp), n - 2.0 * np.arange(n + 1))
    for table in tables:
        table.flags.writeable = False
    return tables


def _walsh_kernel(n: int, phase: np.ndarray, half_phase: np.ndarray, thetas: np.ndarray,
                  psi: np.ndarray | None):
    """Stepper carrying the state in the Walsh-Hadamard basis.

    With H[r, c] = (-1)^popcount(r & c) / sqrt(2^n), exp(-i theta sum_i sx_i)
    is H D H with D = exp(-i theta (n - 2 popcount(s))).  The stepper holds
    phi = H (psi / half_phase), the state with its closing half phase divided
    out, so a step is the fixed mixer H diag(phase) H (the Walsh transform of
    ``phase`` at r ^ s / sqrt(2^n)) and then D_k, which :func:`_advance`
    gathers by popcount(s) from exp(-i theta_k levels).

    Returns ``(advance, physical)`` for the angles ``thetas`` from ``psi``
    (None for the transverse ground state, which the stepper writes into its
    own buffer): ``advance(stop)`` takes the state to step ``stop``, and
    ``physical()`` writes the physical state there, H phi times
    ``half_phase``, into the spare buffer and returns it, so a record changes
    no bit of the run; ``physical(final=True)`` ends the run.  ``psi`` and
    ``half_phase`` become the stepper's own arrays.
    """
    psi = initial_state(n) if psi is None else psi
    dim = 1 << n
    signs, walsh, xor, counts, levels = _walsh_tables(n)
    # scaled by the exact 1 / dim: a rounded (1 / sqrt(dim))^2 would grow
    # the norm by an ulp on every step
    mixer = (signs @ phase / dim)[xor]
    # a step is the mixer product into ``spare`` and D_k back into phi
    phi, spare = walsh @ np.divide(psi, half_phase, out=psi), psi
    table = np.empty((min(_TABLE_STEPS, thetas.shape[0]), dim), dtype=np.complex128)
    mix, calls = partial(mixer.dot, phi, spare), []
    for d in table:
        calls += mix, partial(np.multiply, spare, d, phi)

    def physical(final: bool = False) -> np.ndarray:
        return np.multiply(np.matmul(walsh, phi, out=spare), half_phase, out=spare)

    return _advance(calls, [(table, counts)], lambda chunk: np.exp(
        -1j * np.multiply.outer(chunk, levels)), thetas), physical


# Most sites per transverse-rotation block, which costs 2^(n+1) * 2^b real
# multiply-adds in one call: per step in place, within 3% of the fastest size
# at n = 14, 16 and 18 (``block_sites`` in BENCH_32.json).
_BLOCK_SITES = 4

# Largest site count stepped in the cycled layout, whose products read the
# state with a stride of 2^(n+1-m) floats for an m-bit block; both layouts'
# per-step times are ``cycled_crossing`` in BENCH_31.json.
_CYCLED_MAX_SITES = 10

_GRAM_SITES = 4     # sites whose sx terms a record reads from one Gram matrix

# Largest site count whose records read the sx terms of the sites above
# _GRAM_SITES from one more Gram matrix, not from one vecdot per site: the
# measured crossing of :func:`_energy` (``row_gram`` in BENCH_32.json).
_ROW_GRAM_MAX_SITES = 10


def _sx_blocks(n: int) -> tuple[int, ...]:
    """Sites per block, from site 0's block up: near-equal contiguous
    blocks of at most ``_BLOCK_SITES`` sites, site 0's the smallest.  In
    the cycled layout site 0's block also carries the float view's re/im
    bit as one of its sites: the fastest split measured at n = 7, 8, 10."""
    extra = int(n <= _CYCLED_MAX_SITES)
    bits = n + extra
    count = -(-bits // _BLOCK_SITES)
    sizes = [bits // count + (k >= count - bits % count) for k in range(count)]
    sizes[0] -= extra
    return tuple(sizes)


@cache
def _rotation_index(b: int, lowest: bool = False, start: int = 0) -> np.ndarray:
    """Where each entry of a b-site real rotation sits in a coefficient row.

    Entry (r, c) of O is cos^(b-k) sin^k (-1)^popcount(~r & c) with k =
    popcount(r ^ c): entry start + k, or start + b + 1 + k when the sign is
    negative.  With ``lowest`` the index is that of kron(O^T, I_2), whose
    off-diagonal float pairs take the zero after the negatives.
    """
    r = np.arange(1 << b)[:, None]
    c = np.arange(1 << b)
    index = start + np.bitwise_count(r ^ c) + (b + 1) * (np.bitwise_count(~r & c) & 1)
    if lowest:
        same = np.eye(2, dtype=bool)[None, :, None, :]
        index = np.where(same, index.T[:, None, :, None], start + 2 * b + 2).reshape(2 << b, -1)
    index.flags.writeable = False
    return index


def _rotation_coefficients(thetas: np.ndarray, sizes) -> np.ndarray:
    """One row per angle: for each b of ``sizes`` in turn, the 2b + 3 entries
    that :func:`_rotation_index` (b, start) indexes, cos^(b-k) sin^k for
    k = 0..b, their negatives and 0; each power is taken once."""
    cos = np.cos(thetas)[:, None] ** np.arange(max(sizes) + 1)
    sin = np.sin(thetas)[:, None] ** np.arange(cos.shape[1])
    zero = np.zeros((thetas.shape[0], 1))
    rows = [cos[:, b::-1] * sin[:, :b + 1] for b in sizes]
    return np.concatenate([part for row in rows for part in (row, -row, zero)], axis=1)


@cache
def _hypercube(bits: int, lowest: int = 0) -> np.ndarray:
    """A with 1 where two of 2^bits indices differ in one bit, at ``lowest``
    or above.  With X the float view of a state, reshaped so that its rows
    index the sites of these bits, the sum of their <sx_i> is sum(A * X X^T):
    each site's pairs Re conj(psi_s) psi_t appear twice.  So it is for the
    columns, as sum(A * X^T X) with ``lowest`` = 1 to pass over re/im."""
    index = np.arange(1 << bits)[:, None]
    cube = np.zeros((1 << bits, 1 << bits))
    cube[index, index ^ 1 << np.arange(lowest, bits)] = 1.0
    cube.flags.writeable = False
    return cube


def _blocked_kernel(n: int, phase: np.ndarray, half_phase: np.ndarray, thetas: np.ndarray,
                    psi: np.ndarray | None, flip: int = 0):
    """Stepper applying each rotation as one real matmul per site block.

    The state is carried in the gauge psi'_s = i^popcount(s) psi_s, which
    commutes with the diagonal phase and makes each exp(-i theta sx) real.
    On b sites these multiply to a real 2^b x 2^b Kronecker product (see
    :func:`_rotation_index`): one matmul on the float view, whose lowest bit
    is re/im; site 0's block takes that bit along, as kron(O^T, I_2).
    :func:`_advance` gathers them all from one row per angle.  Up to
    ``_CYCLED_MAX_SITES`` each block, top one first, is one 2-D product
    X^T M^T of X = (block bits, other bits) written as (other bits, block
    bits), which leaves every bit in place after site 0's; above, blocks act
    in place on (high, block, low) views.

    Returns the stepper as :func:`_walsh_kernel` does.  With ``flip`` = +-1,
    ``psi`` is the spin-flip sector's half state on more than
    ``_CYCLED_MAX_SITES`` sites, stepped in place (see :func:`evolve`), and
    each step also turns the sector's top site: cos theta psi - i flip sin
    theta psi[::-1], in the gauge cos theta psi'_s + sin theta u
    (-1)^popcount(s) psi'_~s with u = -i^(1-n) flip.  It commutes with every
    block, so the top block goes first and takes it along: one pass writes y
    = u (-1)^popcount(bits below the block) psi'[::-1] under the state, and
    the block's matmul reads both with the matrix [cos theta M, sin theta M
    diag((-1)^popcount(block bits))].  ``physical()`` is then the half state
    and ``physical(final=True)`` the full state (psi, flip psi[::-1]).

    The stepper holds psi' / closing, the state with its closing half phase
    divided out, where closing = half_phase (-i)^popcount(s) takes the gauge
    off as well: ``half_phase``, the stepper's own array as ``psi`` is, is
    tilted into ``closing`` in place when the stepper is built.  A step is
    then one multiply by ``phase`` and the blocks, and ``physical()`` writes
    one multiply by ``closing``, the physical state, into the spare buffer.
    """
    sizes = _sx_blocks(n)
    cycled = n <= _CYCLED_MAX_SITES
    # each block as (b, lowest, shape): site 0's block or not, and the
    # float view of the state that its matmul writes (and, in place, reads)
    blocks, lo = [], 0
    for b in sizes:
        shape = (-1, 1 << b) if cycled else (1 << (n - lo - b), 1 << b, 2 << lo)
        blocks.append((b, not lo, (-1, 2 << b) if not lo else shape))
        lo += b
    if cycled:
        blocks.reverse()
    elif flip:      # the blocks commute
        blocks.insert(0, blocks.pop())
    # the coefficient index of each distinct block matrix, kron(O^T, I_2) for
    # site 0's, O^T for the others cycled (from the right), O in place, into
    # its size's entries of the row of all sizes; the sector's top one below
    starts = {b: sum(2 * c + 3 for c in set(sizes) if c < b) for b in sorted(set(sizes))}
    indices = {(b, lowest): _rotation_index(b, lowest, starts[b]) if lowest or not cycled
               else _rotation_index(b, False, starts[b]).T
               for b, lowest, _ in blocks[bool(flip):]}
    steps = min(_TABLE_STEPS if cycled else 4, thetas.shape[0])
    tables = {key: np.empty((steps, *index.shape)) for key, index in indices.items()}
    # a step starts and ends in buffer 0, and its phase writes buffer ``start``
    if not flip:
        # each matmul writes into the other of two state-size buffers
        psi = initial_state(n) if psi is None else psi
        buffers = (psi, np.empty_like(psi))
        start = len(blocks) & 1
        route = [(start ^ (i & 1), 1 - (start ^ (i & 1))) for i in range(len(blocks))]
    else:
        # three buffers in one allocation: a step starts in 0 with y in 1, the
        # top block writes 2, and the others take the state back to 0
        stack = np.empty((3, 1 << n), dtype=np.complex128)
        if psi is None:
            _initial_amplitudes(n + 1, n, out=stack[0])
        else:
            stack[0] = psi
        buffers = tuple(stack)
        start, others = 0, len(blocks) - 1
        targets = [2 * ((others - i) % 2) for i in range(1, others + 1)]
        if targets[0] == 2:     # a block cannot write what it reads
            targets[0] = 1
        route = list(zip([0, 2, *targets], [2, *targets]))
    flat = [buffer.view(np.float64) for buffer in buffers]
    # (in view, out view, table, left) of each block; a cycled block reads
    # (block bits, other bits) as its transpose
    plan = [(flat[source].reshape(shape[::-1]).T if cycled else flat[source].reshape(shape),
             flat[target].reshape(shape), tables[b, lowest], len(shape) == 3)
            for (b, lowest, shape), (source, target) in [*zip(blocks, route)][bool(flip):]]
    fills = [(tables[key], index) for key, index in indices.items()]
    powers = np.array([1.0, -1.0j, -1.0, 1.0j])     # (-i)^k
    # closing = half_phase (-i)^popcount(s), over two halves of the bits
    closing = half_phase.reshape(1 << (n - n // 2), -1)
    closing *= powers[np.bitwise_count(np.arange(closing.shape[0])) % 4][:, None]
    closing *= powers[np.bitwise_count(np.arange(closing.shape[1])) % 4]
    np.divide(buffers[0], half_phase, out=buffers[0])
    # every step opens with the phase and, in the sector, writes y
    opening = [partial(np.multiply, buffers[0], phase, buffers[start])]
    if flip:
        # the top block's matmul on the state and y one above the other, with
        # the matrices [cos theta M, sin theta M S] along the axis it contracts,
        # gathered from the top (largest) size's entries times cos theta and
        # sin theta after the row, negated in the columns where S is -1
        top = blocks[0][0]
        end = starts[top] + 2 * top + 3
        index = _rotation_index(top)
        negated = (index + (top + 1) * np.bitwise_count(np.arange(1 << top))) % (2 * top + 2)
        stacked = np.empty((steps, 1 << top, 2 << top))
        fills.append((stacked, np.concatenate((index, negated + 2 * top + 3), axis=1) + end))
        plan.insert(0, (stack[:2].view(np.float64).reshape(2 << top, -1),
                        flat[2].reshape(1 << top, -1), stacked, True))
        low_signs = -flip * powers[(n - 1) % 4] * (-1.0) ** np.bitwise_count(
            np.arange(1 << (n - top)))
        opening.append(partial(np.multiply, buffers[0][::-1].reshape(-1, low_signs.shape[0]),
                               low_signs, buffers[1].reshape(-1, low_signs.shape[0])))
    # a block's product from the right calls its state's own dot, which
    # skips np.dot's dispatcher
    calls = []
    for row in range(steps):
        calls += opening
        calls += [partial(np.matmul, table[row], state, out) if left
                  else partial(state.dot, table[row], out) for state, out, table, left in plan]

    def coefficients(chunk: np.ndarray) -> np.ndarray:
        row = _rotation_coefficients(chunk, tuple(starts))
        if flip:
            entries = row[:, starts[top]:end]
            row = np.concatenate((row, entries * np.cos(chunk)[:, None],
                                  entries * np.sin(chunk)[:, None]), axis=1)
        return row

    def physical(final: bool = False) -> np.ndarray:
        chi = np.multiply(buffers[0], half_phase, out=buffers[1])
        if not (final and flip):
            return chi
        np.multiply(chi[::-1], flip, out=buffers[2])
        return stack[1:].reshape(-1)

    return _advance(calls, fills, coefficients, thetas), physical


def _energy(chi: np.ndarray, diag: np.ndarray, delta: float, flip: int = 0) -> float:
    """<H> at transverse field ``delta`` of the physical state ``chi``, whose
    Ising energies are ``diag``, read in place: chi is overwritten.

    Each sx_i term is Re conj(chi_s) chi_(s ^ 2^i), a product of float pairs,
    read from the float view X = (bits above b, bits below b and re/im), b =
    ``_GRAM_SITES``: the low sites' from the Gram matrix X^T X, any others'
    from X X^T up to ``_ROW_GRAM_MAX_SITES`` sites and one vecdot each above
    (:func:`_hypercube`).  With ``flip`` = +-1, chi is the spin-flip sector's
    half of the full state (chi, flip chi[::-1]): its top site's term is one
    vdot of chi's halves, the upper one reversed, and <H> is twice the half's.
    The Ising term squares chi in place and sums |chi|^2 diag pairwise.
    """
    n = chi.shape[0].bit_length() - 1
    flat = chi.view(np.float64)
    sx = 0.0
    if delta != 0.0:
        low = min(n, _GRAM_SITES)
        floats = flat.reshape(-1, 2 << low)
        sx = np.vdot(floats.T @ floats, _hypercube(low + 1, 1))
        if low < n <= _ROW_GRAM_MAX_SITES:
            sx += np.vdot(floats @ floats.T, _hypercube(n - low))
        else:
            for i in range(low, n):
                halves = flat.reshape(-1, 2, 2 << i)      # axis 1 is bit i
                sx += 2.0 * np.vecdot(halves[:, 0], halves[:, 1]).sum()
        if flip:
            # Re <chi|chi[::-1]>, whose halves' terms are equal
            half = chi.shape[0] // 2
            sx += 2.0 * flip * np.vdot(chi[:half], chi[half:][::-1]).real
    # |chi|^2 diag summed pairwise, where the Ising term can nearly cancel
    squares = np.square(flat, out=flat).reshape(-1, 2)
    norms = squares[:, 0]
    norms += squares[:, 1]
    norms *= diag
    energy = norms.sum() + delta * sx
    return float(2.0 * energy if flip else energy)


def evolve(model: IsingModel, schedule: Schedule, psi0: np.ndarray | None = None,
           record_every: int = 0) -> EvolutionResult:
    """Anneal the state under H(t) with the given schedule.

    Symmetric splitting: half a diagonal phase, the transverse rotation
    at the midpoint field, half a diagonal phase.  Deterministic for a
    given (model, schedule, initial state); the norm is preserved to
    rounding error.  ``record_every`` > 0 stores (t, Delta, <H>) every
    that many steps, plus the initial and final points: the stepper hands
    over the physical state at each, and :func:`_energy` reads <H> there.

    With every field exactly zero and no ``psi0``, the run is carried in the
    spin-flip sector: the global flip P = prod_i sx_i commutes with H(t), and
    the initial state is its eigenstate with eigenvalue p = (-1)^n, so
    psi(~s) = p psi(s) throughout and the half of the state whose top site is
    clear holds all of it (the spin-inversion reduction of exact
    diagonalization: Sandvik, AIP Conf. Proc. 1297, 135 (2010); Weinberg and
    Bukov, SciPost Phys. 2, 003 (2017)).  There the top site's rotation is cos theta psi -
    i p sin theta psi[::-1], which commutes with the other sites'; the
    diagonal is the first half of the full one, as E(~s) = E(s).  The full
    state is rebuilt at the end as (psi, p psi[::-1]).  Only runs of 12 sites
    and more take the sector, whose half the blocked stepper steps in place;
    below, a step costs mostly its numpy calls, so the full state is stepped.
    """
    n = model.n_sites
    if (isinstance(record_every, bool) or not isinstance(record_every, (int, np.integer))
            or record_every < 0):
        raise ValueError(f"record_every must be a non-negative integer, got {record_every!r}")
    flip = 0
    if psi0 is None and not np.any(model.h) and n - 1 > _CYCLED_MAX_SITES:
        flip = (-1) ** n
    sites = n - bool(flip)
    psi = None      # the stepper writes the initial state into its own buffer
    if psi0 is not None:
        psi = np.array(_checked_state(model, psi0), dtype=np.complex128)
        with np.errstate(over="ignore"):        # an overflow reads as an infinite norm
            norm = np.linalg.norm(psi)
        if not 0.0 < norm < math.inf:           # false for NaN too
            raise ValueError(f"initial state must be non-zero and finite, got norm {norm!r}")
        psi /= norm
    steps = schedule.steps
    scale = schedule.phase_scale
    dt = schedule.t_total / steps
    stepped = model.diagonal[:1 << sites]
    # exp(-0.5j E dt scale) as cos + i sin of its angle, which the imaginary
    # part holds until the sine overwrites it: the same bits, with no
    # complex temporaries
    half_phase = np.empty(stepped.shape, dtype=np.complex128)
    angle = half_phase.imag
    np.multiply(stepped, -0.5, out=angle)
    angle *= dt
    angle *= scale
    angle += 0.0        # a zero angle is +0 in the complex product
    np.cos(angle, out=half_phase.real)
    np.sin(angle, out=angle)
    # the adjacent half-phases of consecutive steps merge into one
    full_phase = half_phase * half_phase
    thetas = schedule.delta_at((np.arange(steps) + 0.5) * dt) * dt * scale
    if sites <= _WALSH_MAX_SITES:
        advance, physical = _walsh_kernel(sites, full_phase, half_phase, thetas, psi)
    else:
        advance, physical = _blocked_kernel(sites, full_phase, half_phase, thetas, psi, flip)
    stops = [0, *range(record_every, steps, record_every), steps] if record_every else []
    times = np.array(stops) * dt
    deltas = schedule.delta_at(times)
    energies = []
    for stop, delta in zip(stops, deltas):
        advance(stop)
        energies.append(_energy(physical(), stepped, delta, flip))
    advance(steps)
    return EvolutionResult(psi=physical(final=True), times=times, deltas=deltas,
                           energies=np.array(energies))


def sample_counts(psi: np.ndarray, shots: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Draw ``shots`` basis states from |psi|^2 by inverting its CDF.

    Returns the drawn amplitude indices in ascending order and how often
    each was drawn; reproducible for a fixed seed.  The CDF is divided by
    its last entry, which is then exactly 1, and each of the sorted
    uniforms u in [0, 1) maps to the first index whose CDF exceeds u, so
    a state of zero probability is never drawn (Devroye, Non-Uniform
    Random Variate Generation, 1986, ch. 2).
    """
    if not 1 <= shots <= MAX_SHOTS:
        raise ValueError(f"shot count must be in [1, {MAX_SHOTS}], got {shots}")
    psi = np.asarray(psi)
    size = psi.shape[0] if psi.ndim == 1 else 0
    if size < 2 or size & (size - 1):
        raise ValueError("state length must be a power of two, at least 2")
    cdf = np.abs(psi).astype(float, copy=False)
    with np.errstate(over="ignore"):        # an overflow reads as an infinite norm
        np.multiply(cdf, cdf, out=cdf)
        np.cumsum(cdf, out=cdf)
    total = float(cdf[-1])
    if not 0.0 < total < math.inf:          # false for NaN too
        raise ValueError(f"state norm must be positive and finite, got |psi|^2 sum {total!r}")
    cdf /= total
    u = np.random.default_rng(seed).random(shots)
    u.sort()
    drawn = np.searchsorted(cdf, u, side="right")
    del u
    first = np.empty(shots, dtype=bool)     # where a run of equal draws starts
    first[0] = True
    np.not_equal(drawn[1:], drawn[:-1], out=first[1:])
    starts = np.flatnonzero(first)
    return drawn[starts], np.diff(starts, append=shots)


def measure(psi: np.ndarray, shots: int, seed: int) -> dict[str, int]:
    """Sample computational-basis bitstrings from |psi|^2.

    The string view of :func:`sample_counts`: only outcomes that occurred,
    in ascending index order.
    """
    outcomes, counts = sample_counts(psi, shots, seed)
    n = len(psi).bit_length() - 1
    return dict(zip(state_strings(n, outcomes).tolist(), counts.tolist()))


def brute_force_ground_state(model: IsingModel) -> GroundState:
    """Exhaustive minimum of the Ising energy; returns every minimiser.

    Independent of the annealer: plain enumeration of all 2^n spin
    assignments, limited to n <= 20.
    """
    _check_brute_force(model)
    e_min, minimisers = _minimisers(model.diagonal)
    return GroundState(energy=e_min,
                       states=tuple(state_strings(model.n_sites, minimisers).tolist()))


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


def success_probability(model: IsingModel, psi: np.ndarray) -> float:
    """Total |amplitude|^2 carried by the exact ground-state set, found
    in ``model.diagonal`` as by :func:`brute_force_ground_state`."""
    _check_brute_force(model)
    p = np.abs(_checked_state(model, psi)[_minimisers(model.diagonal)[1]]) ** 2
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
