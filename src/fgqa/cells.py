"""Floating-gate cell geometry and the branch-capacitance network.

A cell is a floating gate (FG) buried between its control gate (CG)
above and the substrate below, with source/drain rails on either side.
Neighbouring cells in a row couple through the oxide between their FG
sidewalls.  Every electrostatic quantity in the package is derived from
the ideal parallel-plate capacitances of this network:

======================  =====================================  ==================
attribute               plates                                 value
======================  =====================================  ==================
``c_gate[i]``           FG_i -- CG_i                           eps_gate L W / d_gate
``c_sub[i]``            FG_i -- substrate                      eps_ox L W / d_ox
``c_fg[i]``             FG_i -- FG_{i+1}                       eps_ox Z W / gap
``c_gate_right[i]``     FG_i -- CG_{i+1} (diagonal)            eps_ox (L W / 2) / x_gate
``c_gate_left[i]``      FG_i -- CG_{i-1} (diagonal)            eps_ox (L W / 2) / x_gate
``c_source[i]``         FG_i -- rail i (diagonal)              eps_ox (L W / 2) / x_rail
``c_drain[i]``          FG_i -- rail i+1 (diagonal)            eps_ox (L W / 2) / x_rail
======================  =====================================  ==================

with the diagonal plate distances ``x_gate = sqrt((L/2)^2 + d_gate^2)``
and ``x_rail = sqrt((L/2)^2 + d_ox^2)``.  Out-of-range branches of the
end cells (``c_fg`` and ``c_gate_right`` of the last cell,
``c_gate_left`` of the first) are exactly zero.  Fringe fields and
bias-dependent depletion are not modelled.

The geometry fields may be numpy arrays (the points of a sweep); every
capacitance array then has the cell index as its first axis and the
points on the trailing axes, so one network holds a whole sweep.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .constants import CONST, checked, float_or_array

__all__ = [
    "CellGeometry",
    "MaterialStack",
    "BiasSet",
    "CapacitanceNetwork",
    "control_oxide_thickness",
    "cell_from_coupling_ratio",
    "build_network",
    "coupling_ratio",
    "single_electron_margin",
]


@dataclass(frozen=True)
class CellGeometry:
    """Dimensions of one floating-gate cell, all in nanometres.

    ``gap`` is the FG-to-FG spacing along the row and defaults to the
    cell length, the usual layout pitch of dense arrays.  Any field may
    be an array; the fields broadcast against each other, one cell
    geometry per element.
    """

    length: float                 # L, along the row
    width: float                  # W, across the row
    height: float                 # Z, FG height
    d_ox: float                   # tunnel-oxide thickness (FG-substrate)
    d_gate: float                 # control-gate oxide thickness (FG-CG)
    gap: float | None = None      # FG-FG spacing; defaults to length

    def __post_init__(self):
        if self.gap is None:
            object.__setattr__(self, "gap", self.length)
        for name in ("length", "width", "height", "d_ox", "d_gate", "gap"):
            checked(getattr(self, name), "CellGeometry." + name)

    @property
    def x_gate(self):
        """Diagonal distance from an FG sidewall to a neighbouring CG (nm)."""
        return float_or_array(np.hypot(self.length / 2.0, self.d_gate))

    @property
    def x_rail(self):
        """Diagonal distance from an FG sidewall to a source/drain rail (nm)."""
        return float_or_array(np.hypot(self.length / 2.0, self.d_ox))

    @property
    def volume_nm3(self) -> float:
        return self.length * self.width * self.height


@dataclass(frozen=True)
class MaterialStack:
    """Dielectric, barrier and doping parameters of the gate stack."""

    eps_ox: float = 3.9 * CONST.eps0_f_per_nm    # tunnel/inter-cell oxide, F/nm
    eps_gate: float | None = None                # CG oxide, F/nm; defaults to eps_ox
    barrier_ev: float = 3.1                      # tunnel-barrier height, eV
    m_ox: float = 0.5                            # barrier effective mass / m0
    m_si: float = 0.19                           # silicon effective mass / m0
    doping_cm3: float = 1e20                     # FG carrier density, cm^-3

    def __post_init__(self):
        if self.eps_gate is None:
            object.__setattr__(self, "eps_gate", self.eps_ox)
        for name in ("eps_ox", "eps_gate", "barrier_ev", "m_ox", "m_si", "doping_cm3"):
            checked(getattr(self, name), "MaterialStack." + name)


@dataclass(frozen=True)
class BiasSet:
    """Applied voltages for a row of M cells.

    ``v_rail`` holds the M+1 source/drain rail voltages along the row;
    rail i is simultaneously the source of cell i and the drain of cell
    i-1, so the drain-equals-next-source constraint is built into the
    representation.
    """

    v_gate: tuple[float, ...]
    v_sub: float = 0.0
    v_rail: tuple[float, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "v_gate", tuple(float(checked(v, "BiasSet.v_gate", "finite"))
                                                 for v in self.v_gate))
        checked(self.v_sub, "BiasSet.v_sub", "finite")
        m = len(self.v_gate)
        if m < 1:
            raise ValueError("need at least one gate voltage")
        rails = (tuple(float(checked(v, "BiasSet.v_rail", "finite")) for v in self.v_rail)
                 if self.v_rail else (0.0,) * (m + 1))
        if len(rails) != m + 1:
            raise ValueError(f"expected {m + 1} rail voltages for {m} cells, got {len(rails)}")
        object.__setattr__(self, "v_rail", rails)

    @classmethod
    def uniform(cls, m: int, v_gate: float = 0.0, v_sub: float = 0.0,
                v_rail: float = 0.0) -> "BiasSet":
        return cls((v_gate,) * m, v_sub, (v_rail,) * (m + 1))

    @property
    def m(self) -> int:
        return len(self.v_gate)


@dataclass(frozen=True, eq=False)
class CapacitanceNetwork:
    """Branch capacitances (F) of an M-cell row; see the module docstring.

    Every array is indexed by cell first; trailing axes, all of one
    shape, index independent rows (the points of a sweep).  The arrays
    are read-only float copies of those passed in, so a network never
    changes after construction and can stand for its values by identity.
    """

    c_gate: np.ndarray
    c_sub: np.ndarray
    c_fg: np.ndarray
    c_gate_left: np.ndarray
    c_gate_right: np.ndarray
    c_source: np.ndarray
    c_drain: np.ndarray

    def __post_init__(self):
        arrays = {name: np.array(getattr(self, name), dtype=float)
                  for name in ("c_gate", "c_sub", "c_fg", "c_gate_left",
                               "c_gate_right", "c_source", "c_drain")}
        shape = arrays["c_gate"].shape
        for name, arr in arrays.items():
            if arr.shape != shape:
                raise ValueError(f"{name} must have shape {shape}, got {arr.shape}")
            checked(arr, name, "non-negative")
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        if np.any(self.c_fg[-1] != 0.0) or np.any(self.c_gate_right[-1] != 0.0):
            raise ValueError("last cell has no right-hand neighbour; its c_fg and "
                             "c_gate_right must be zero")
        if np.any(self.c_gate_left[0] != 0.0):
            raise ValueError("first cell has no left-hand neighbour; its c_gate_left "
                             "must be zero")

    @property
    def m(self) -> int:
        return self.c_gate.shape[0]

    def mirrored(self) -> "CapacitanceNetwork":
        """The same row traversed in the opposite direction."""
        rev = slice(None, None, -1)
        return CapacitanceNetwork(
            c_gate=self.c_gate[rev],
            c_sub=self.c_sub[rev],
            c_fg=np.r_[self.c_fg[rev][1:], 0.0],
            c_gate_left=self.c_gate_right[rev],
            c_gate_right=self.c_gate_left[rev],
            c_source=self.c_drain[rev],
            c_drain=self.c_source[rev],
        )


def control_oxide_thickness(cr: float, d_ox: float,
                            mat: MaterialStack = MaterialStack()) -> float:
    """Control-gate oxide thickness realising a target coupling ratio.

    Inverts CR = C_gate / (C_gate + C_sub) for two parallel-plate
    capacitors sharing the same plate area, with the permittivities of
    ``mat``: d_gate = ((1 - CR) / CR) (eps_gate / eps_ox) d_ox.
    """
    if not 0.0 < cr < 1.0:
        raise ValueError(f"coupling ratio must lie in (0, 1), got {cr!r}")
    return (1.0 - cr) / cr * (mat.eps_gate / mat.eps_ox) * d_ox


def cell_from_coupling_ratio(length: float, height: float, d_ox: float, cr: float,
                             width: float | None = None, gap: float | None = None,
                             mat: MaterialStack = MaterialStack()) -> CellGeometry:
    """Convenience constructor fixing the CG oxide from a coupling ratio."""
    d_gate = control_oxide_thickness(cr, d_ox, mat)
    return CellGeometry(length=length, width=length if width is None else width,
                        height=height, d_ox=d_ox, d_gate=d_gate, gap=gap)


def build_network(geom: CellGeometry, mat: MaterialStack, m: int) -> CapacitanceNetwork:
    """Parallel-plate capacitance network for a uniform row of ``m`` cells.

    Deterministic and independent of any applied bias; boundary branches
    of the end cells are zeroed.  An array-valued geometry gives arrays
    of shape ``(m,) + points``.
    """
    if m < 1:
        raise ValueError(f"cell count must be >= 1, got {m}")
    area = geom.length * geom.width
    gate = mat.eps_gate * area / geom.d_gate
    sub = mat.eps_ox * area / geom.d_ox
    fg = mat.eps_ox * geom.height * geom.width / geom.gap
    diag_gate = mat.eps_ox * (area / 2.0) / geom.x_gate
    diag_rail = mat.eps_ox * (area / 2.0) / geom.x_rail

    gate, sub, fg, diag_gate, diag_rail = np.broadcast_arrays(gate, sub, fg, diag_gate,
                                                              diag_rail)
    ones = np.ones(m)
    inner_right = np.where(np.arange(m) < m - 1, 1.0, 0.0)
    inner_left = np.where(np.arange(m) > 0, 1.0, 0.0)
    row = np.multiply.outer           # (m,) cell mask times the per-point value
    return CapacitanceNetwork(
        c_gate=row(ones, gate),
        c_sub=row(ones, sub),
        c_fg=row(inner_right, fg),
        c_gate_left=row(inner_left, diag_gate),
        c_gate_right=row(inner_right, diag_gate),
        c_source=row(ones, diag_rail),
        c_drain=row(ones, diag_rail),
    )


def coupling_ratio(c_gate: float, c_sub: float) -> float:
    """Electrostatic lever arm of the control gate, C_gate / (C_gate + C_sub)."""
    return c_gate / (c_gate + c_sub)


def single_electron_margin(geom: CellGeometry, mat: MaterialStack,
                           temperature_k: float) -> float:
    """How visible one electron is against thermal smearing at ``temperature_k``.

    Returns (e / C_eff expressed in kelvin) / T with C_eff = C_gate + C_sub;
    values above 1 mean single-electron charging steps stand out.
    """
    checked(temperature_k, "temperature")
    net = build_network(geom, mat, 1)
    c_eff = net.c_gate[0] + net.c_sub[0]
    shift_v = CONST.electron_charge / c_eff
    return shift_v / CONST.ev_per_k / temperature_k
