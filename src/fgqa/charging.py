"""Charging energy of a coupled floating-gate row and its Ising reduction.

With every branch capacitance fixed, the electrostatic energy of a row
holding ``n_i`` extra electron charges on FG_i is a quadratic form in
the island charges.  The islands couple only to nearest neighbours
(through ``c_fg``), so the island capacitance matrix is tridiagonal and
the constrained minimum over all branch charges can be written down by
sequential elimination:

    U(n) = (e^2/2) * sum_i  y_i^2 / c_eff_i  -  sum_i w_i / 2

    y_1 = nt_1,   y_i = nt_i + (c_fg_{i-1} / c_eff_{i-1}) y_{i-1}
    nt_i = n_i + q_offset_i / e

where ``c_eff_i`` are the elimination pivots of the island matrix,
``q_offset_i`` collects the bias-induced charge on every branch of
island i, and ``w_i`` the corresponding quadratic bias terms.  The same
energy is recovered numerically by :func:`minimize_charge_oracle`,
which solves the original constrained quadratic programme over all
branch charges exactly: the diagonal branch block of its KKT system is
eliminated, and the m x m island system left is assembled from one
branch table, ``_branches`` ((kind, island, C, V) arrays of every branch
with C > 0), and inverted as a general dense matrix.  It shares no
formula with the closed form: no pivots, and the energy is summed over
the branch charges, which are an affine map of the occupation.

Near the degeneracy point between ``n_i`` and ``n_i + 1`` electrons the
two charge states form a qubit, and expanding the quadratic form on
that two-state space yields longitudinal fields ``h_i``, couplings
``J_ij`` and the two figures of merit

    U_h : charging-energy height at the degeneracy point (eV),
    U_w : gate-voltage spacing between adjacent degeneracies (V),

computed by :func:`ising_parameters`.  The closed forms here cover
exactly three cells; longer rows go through the numeric oracle.  The
per-cell parabola curvature (``_curvature``) and the offset charge of a
gate sweep (``_swept_offset``) are each computed in one place.

The closed forms index the cell axis only, so a network built from an
array-valued geometry (cells first, sweep points on the trailing axes)
is reduced and expanded for every point in one call, and
:func:`parabola_family` reduces its network once and evaluates only the
bias-dependent offset charge over the voltage grid.  The oracle takes
one scalar network and one occupation per call; everything that depends
on the network and bias alone (the affine map from occupation to branch
charges, built from the branch table and the inverse of the island
matrix) is set up once for the last (network, bias) pair, so a scan over
the 2^M corner occupations of a row pays for one set-up.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .cells import BiasSet, CapacitanceNetwork
from .constants import CONST, float_or_array

__all__ = [
    "ReducedChargingForm",
    "IsingParameters",
    "reduce_network",
    "charging_energy",
    "effective_gate_charge",
    "minimize_charge_oracle",
    "ising_parameters",
    "parabola_family",
    "parabola_crossings",
]

_E = CONST.electron_charge


@dataclass(frozen=True, eq=False)
class ReducedChargingForm:
    """Closed-form data of the three-cell charging energy.

    Each array has the network's shape: cells first, then any points.

    c_eff     elimination pivots of the island capacitance matrix (F);
              positive for any physical network.
    q_offset  bias-induced offset charge per island (C), summing C*V
              over every voltage-connected branch of the island,
              including the diagonal couplings to the neighbouring
              control gates.
    w_bias    per-island sum of C*V^2 over the same branches (J).
    """

    c_eff: np.ndarray
    q_offset: np.ndarray
    w_bias: np.ndarray
    network: CapacitanceNetwork

    def __post_init__(self):
        for name in ("c_eff", "q_offset", "w_bias"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        if np.any(self.c_eff <= 0.0):
            raise ValueError("elimination pivots must be positive; the network is "
                             "not physical")


@dataclass(frozen=True)
class IsingParameters:
    """Two-level expansion coefficients of the charging energy.

    ``h`` (eV, one per cell) and ``j`` (eV, one per adjacent pair) are
    the longitudinal fields and couplings; ``const`` (eV) absorbs every
    occupation-independent term, so energy differences between charge
    states never depend on it.  ``u_h`` is the charging-energy height
    (eV) and ``u_w`` the gate-voltage period (V) of the first cell.  Each
    is a float, or an array over the points of an array-valued network.
    """

    h: tuple
    j: tuple
    const: float | np.ndarray
    u_h: float | np.ndarray
    u_w: float | np.ndarray


def _cells_first(a, ndim: int) -> np.ndarray:
    """``a`` padded with trailing unit axes to ``ndim`` axes, so that arrays
    indexed by cell (or rail) first broadcast over their trailing axes."""
    a = np.asarray(a, dtype=float)
    return a.reshape(a.shape + (1,) * (ndim - a.ndim))


def _offsets(net: CapacitanceNetwork, v_gate, v_sub,
             v_rail) -> tuple[np.ndarray, np.ndarray]:
    """Per-island bias offset charge (C) and quadratic bias term (J).

    ``v_gate`` (per cell) and ``v_rail`` (per rail) may carry trailing
    point axes, as may the network; the two broadcast against each other.
    """
    m = net.m
    nd = max(net.c_gate.ndim, np.ndim(v_gate), np.ndim(v_rail))
    c_gate, c_sub, c_left, c_right, c_source, c_drain = (
        _cells_first(c, nd) for c in (net.c_gate, net.c_sub, net.c_gate_left,
                                      net.c_gate_right, net.c_source, net.c_drain))
    vg = _cells_first(v_gate, nd)
    vr = _cells_first(v_rail, nd)
    zero = np.zeros_like(vg[:1])
    vg_left = np.concatenate((zero, vg[:m - 1]))
    vg_right = np.concatenate((vg[1:], zero))
    q = (c_gate * vg + c_sub * v_sub
         + c_left * vg_left + c_right * vg_right
         + c_source * vr[:m] + c_drain * vr[1:])
    w = (c_gate * vg**2 + c_sub * v_sub**2
         + c_left * vg_left**2 + c_right * vg_right**2
         + c_source * vr[:m]**2 + c_drain * vr[1:]**2)
    return q, w


def reduce_network(net: CapacitanceNetwork, bias: BiasSet) -> ReducedChargingForm:
    """Reduce a three-cell network to its closed-form charging data.

    The pivots follow the elimination recursion

        c_eff_1 = (sum of all branches on island 1)
        c_eff_i = (sum of all branches on island i) - c_fg_{i-1}^2 / c_eff_{i-1}

    Only the three-cell row is supported in closed form; use
    :func:`minimize_charge_oracle` for other lengths.
    """
    if net.m != 3:
        raise ValueError(f"closed-form reduction covers exactly 3 cells, got {net.m}; "
                         "use minimize_charge_oracle for other row lengths")
    if bias.m != net.m:
        raise ValueError("bias and network cell counts differ")
    sigma = (net.c_gate + net.c_sub + net.c_fg + net.c_gate_left
             + net.c_gate_right + net.c_source + net.c_drain)
    c_eff = np.empty_like(sigma)
    c_eff[0] = sigma[0]
    for i in (1, 2):
        # squared by a product, as an array is: ** on a scalar is libm pow
        c_fg = net.c_fg[i - 1]
        c_eff[i] = sigma[i] + c_fg - c_fg * c_fg / c_eff[i - 1]
    q_offset, w_bias = _offsets(net, bias.v_gate, bias.v_sub, bias.v_rail)
    return ReducedChargingForm(c_eff=c_eff, q_offset=q_offset, w_bias=w_bias,
                               network=net)


def charging_energy(form: ReducedChargingForm, n) -> float:
    """Minimum electrostatic energy (eV) at integer occupation ``n``.

    Exact: agrees with :func:`minimize_charge_oracle` to rounding error
    for any bias and occupation.
    """
    n = np.asarray(n, dtype=float)
    if n.shape != (3,):
        raise ValueError(f"expected 3 occupation numbers, got shape {n.shape}")
    nt = n + form.q_offset / _E
    c_fg = form.network.c_fg
    y = np.empty(3)
    y[0] = nt[0]
    y[1] = nt[1] + c_fg[0] / form.c_eff[0] * y[0]
    y[2] = nt[2] + c_fg[1] / form.c_eff[1] * y[1]
    u_j = 0.5 * _E**2 * np.sum(y**2 / form.c_eff) - 0.5 * np.sum(form.w_bias)
    return u_j / _E


def effective_gate_charge(form: ReducedChargingForm, n) -> np.ndarray:
    """Dimensionless gate coordinate per cell, zero at the n/(n+1) degeneracy.

    n_G_i = n_i + 1/2 + q_offset_i / e; the parabolas of ``n_i`` and
    ``n_i + 1`` electrons cross exactly at n_G_i = 0.
    """
    n = np.asarray(n, dtype=float)
    return n + 0.5 + form.q_offset / _E


# Column of the FG-FG branch in the stacked (m, 7) capacitances of
# :func:`_branches`.
_FG = 6


def _branches(net: CapacitanceNetwork, bias: BiasSet):
    """The network's branches as (kind, island, C, V) arrays, island by island.

    Only branches with C > 0 are listed.  Every branch enters the charge
    constraint of its island with -1; the FG-FG branch from island i to
    i+1 (bias voltage 0) also enters island i+1 with +1.
    """
    m = net.m
    vg, vr = bias.v_gate, bias.v_rail
    caps = np.array([net.c_gate, net.c_sub, net.c_source, net.c_drain,
                     net.c_gate_left, net.c_gate_right, net.c_fg]).T
    volts = np.array([vg, (bias.v_sub,) * m, vr[:m], vr[1:], (0.0,) + vg[:m - 1],
                      vg[1:] + (0.0,), (0.0,) * m]).T
    island, kind = np.nonzero(caps)
    return kind, island, caps[island, kind], volts[island, kind]


@functools.lru_cache(maxsize=1)
def _island_system(net: CapacitanceNetwork, bias: BiasSet):
    """What the oracle needs of one (network, bias): the branch charges as an
    affine map q(n) = q0 + Q n of the occupation, and the branch voltages V
    and 1/(2C) of ``_branches`` to sum the energy with.

    Eliminating lam from the island system gives, with K = A diag(C) A^T,

        Q = -e diag(C) (K^-1 A)^T,   q0 = C (V - A^T K^-1 A (C V)).

    Only the last pair is kept, so a scan over occupations sets up once.  The
    network is keyed by identity, which is sound because its arrays are
    read-only copies; the bias is keyed by value.  The arrays returned are
    read-only, as the cache hands the same ones to every call.
    """
    kind, island, cap, volt = _branches(net, bias)
    fg = np.flatnonzero(kind == _FG)
    incidence = np.zeros((net.m, cap.size))
    incidence[island, np.arange(cap.size)] = 1.0
    incidence[island[fg] + 1, fg] = -1.0
    try:
        k_inv_a = np.linalg.inv((incidence * cap) @ incidence.T) @ incidence
    except np.linalg.LinAlgError as exc:
        raise ValueError(f"singular charge-constraint system (non-physical "
                         f"network): {exc}") from exc
    q0 = cap * (volt - (cap * volt) @ incidence.T @ k_inv_a)
    slope = -_E * cap[:, None] * k_inv_a.T
    arrays = (q0, slope, volt, 0.5 / cap)
    for a in arrays:
        a.flags.writeable = False
    return arrays


def minimize_charge_oracle(net: CapacitanceNetwork, bias: BiasSet, n) -> float:
    """Charging energy (eV) by direct constrained minimisation.

    Minimises sum(q^2 / 2C) - sum(q V) over all branch charges subject
    to the per-island charge constraints, and evaluates that sum at the
    solved charges.  The stationarity conditions q/C + A^T lam = V and
    the constraints -A q = n e form the KKT system of the quadratic
    programme, with A the (m, branches) island incidence of
    ``_branches``.  Its branch block diag(1/C) is diagonal, so
    q = C (V - A^T lam) is eliminated exactly and only the m x m island
    system

        (A diag(C) A^T) lam = n e + A (C V)

    is left.  Its matrix and right-hand bias term depend on the network
    and bias alone, so the solved branch charges are an affine map of n,
    set up once for the last (network, bias) pair: each call for another
    occupation costs one (branches x m) product and the branch sum.
    Works for any row length; serves as the independent cross-check of
    :func:`charging_energy`, whose pivots and offsets it never uses.
    """
    n = np.asarray(n, dtype=float)
    m = net.m
    if n.shape != (m,):
        raise ValueError(f"expected {m} occupation numbers, got shape {n.shape}")
    if bias.m != m:
        raise ValueError("bias and network cell counts differ")
    q0, slope, volt, half_inv_cap = _island_system(net, bias)
    q = q0 + slope @ n
    return float(q @ (q * half_inv_cap - volt)) / _E


def _curvature(form: ReducedChargingForm) -> np.ndarray:
    """Per-cell quadratic coefficient A_i (eV) of the charging energy,

        A_i = e / (2 c_eff_i) * (1 + c_fg_i^2 / (c_eff_i c_eff_{i+1})),

    the last cell without the bracket; cells first, like ``form.c_eff``."""
    d = form.c_eff
    back = np.concatenate((form.network.c_fg[:-1]**2 / (d[:-1] * d[1:]), np.zeros_like(d[:1])))
    return _E / (2.0 * d) * (1.0 + back)


def ising_parameters(form: ReducedChargingForm, n_g) -> IsingParameters:
    """Two-level expansion of the three-cell charging energy.

    ``n_g`` are the per-cell gate coordinates (dimensionless, small near
    the working point).  The couplings are

        J_{i,i+1} = e^2 c_fg_i / (4 c_eff_i c_eff_{i+1})

    and the fields keep the second-order closed form, whose
    neighbour terms for the interior cell carry the denominator
    c_eff_i * c_eff_{i+1} of the downstream pair.  For an array-valued
    form every coefficient is an array over its points.
    """
    g = np.asarray(n_g, dtype=float)
    if g.shape == ():
        g = np.full(3, float(g))
    if g.shape != (3,):
        raise ValueError(f"expected 3 gate coordinates, got shape {g.shape}")
    d = form.c_eff
    g = _cells_first(g, d.ndim)
    c_fg = form.network.c_fg
    a = _curvature(form)
    h = (a[0] * g[0] + _E * c_fg[0] * g[1] / (2.0 * d[0] * d[1]),
         a[1] * g[1] + _E * (c_fg[0] * g[0] + c_fg[1] * g[2]) / (2.0 * d[1] * d[2]),
         a[2] * g[2] + _E * c_fg[1] * g[1] / (2.0 * d[1] * d[2]))
    j = (_E * c_fg[0] / (4.0 * d[0] * d[1]),
         _E * c_fg[1] / (4.0 * d[1] * d[2]))
    const = (np.sum(a * (g**2 + 0.25), axis=0) - np.sum(form.w_bias, axis=0) / (2.0 * _E)
             + _E * c_fg[0] * g[0] * g[1] / (d[0] * d[1])
             + _E * c_fg[1] * g[1] * g[2] / (d[1] * d[2]))
    u_h = a[0] / 4.0
    u_w = _E / form.network.c_gate[0]
    return IsingParameters(h=tuple(float_or_array(x) for x in h),
                           j=tuple(float_or_array(x) for x in j),
                           const=float_or_array(const), u_h=float_or_array(u_h),
                           u_w=float_or_array(u_w))


def _swept_offset(net: CapacitanceNetwork, cell: int, v, v_gate2: float, v_sub: float,
                  tie_third: bool, v_rail: float) -> np.ndarray:
    """Bias offset charge (C) of ``cell`` in a three-cell row whose first gate
    (and third, with ``tie_third``) is swept over the voltages ``v``."""
    if net.m != 3:
        raise ValueError(f"the gate sweep drives a 3-cell row, got {net.m} cells")
    if not 0 <= cell < 3:
        raise ValueError("cell index must be 0, 1 or 2")
    v = np.asarray(v, dtype=float)
    v2 = np.full_like(v, v_gate2)
    v_gate = np.stack((v, v2, v if tie_third else v2))
    return _offsets(net, v_gate, v_sub, np.full(net.m + 1, v_rail))[0][cell]


def parabola_family(net: CapacitanceNetwork, v_gate_values, n_values,
                    cell: int = 0, v_gate2: float = 0.0, v_sub: float = 0.0,
                    tie_third: bool = True, v_rail: float = 0.0):
    """Single-cell charging parabolas versus the swept gate voltage.

    For each occupation ``n`` the branch energy of the chosen cell is
    the convex parabola  U_n(V) = A_cell (n + q_offset(V)/e)^2  with the
    cell's closed-form quadratic coefficient.  Adjacent-``n`` branches
    cross exactly once per gate-voltage period; the crossings sit at
    n_G = 0 and are spaced by U_w.  The third gate tracks the swept one
    by default (``tie_third``), matching the usual symmetric drive.
    The pivots do not depend on the bias, so the network is reduced once
    and only the offset charge is evaluated over the voltage grid.

    Returns ``(v_grid, {n: energies_eV})``.
    """
    v_grid = np.asarray(v_gate_values, dtype=float)
    n_list = [int(n) for n in n_values]
    if v_grid.size == 0 or not n_list:
        raise ValueError("empty sweep range")
    nt0 = _swept_offset(net, cell, v_grid, v_gate2, v_sub, tie_third, v_rail) / _E
    a = _curvature(reduce_network(net, BiasSet.uniform(3)))[cell]
    return v_grid, {n: a * (n + nt0)**2 for n in n_list}


def parabola_crossings(net: CapacitanceNetwork, n_values, cell: int = 0,
                       v_gate2: float = 0.0, v_sub: float = 0.0,
                       tie_third: bool = True, v_rail: float = 0.0) -> np.ndarray:
    """Gate voltages where the ``n`` and ``n+1`` parabolas of a cell cross.

    The offset charge is affine in the swept voltage, so each crossing
    solves  n + 1/2 + q_offset(V)/e = 0  exactly; consecutive crossings
    are spaced by the gate-voltage period U_w of the swept cell.
    """
    q0, q1 = _swept_offset(net, cell, (0.0, 1.0), v_gate2, v_sub, tie_third, v_rail)
    slope = q1 - q0
    if slope == 0.0:
        raise ValueError("swept gate does not couple to the requested cell")
    return np.array([-(_E * (n + 0.5) + q0) / slope for n in n_values])
