"""WKB tunneling between a floating gate and the substrate.

The transverse (charge-transfer) term of the annealing Hamiltonian is
the tunnel amplitude through the thin bottom oxide.  In the WKB form
used here it factorises into the number of electrons available on each
side of the barrier, a kinematic prefactor, and the barrier exponent:

    amplitude = N_L N_R (R_y / m_si) (pi a_0 / L)^2
                * exp(- (d_ox / a_0) sqrt(m_ox (V_ox - E_F') / R_y))

in eV (converted to Hz on return), with the Bohr radius ``a_0`` and
Rydberg energy ``R_y`` setting the atomic scales, and effective masses
in units of the vacuum electron mass.  The gate voltage acts through a
rigid shift of the floating-gate Fermi level, E_F' = E_F - V_CG
(negative gate bias raises the level and switches tunneling on); the
equilibrium electron count N_L is set by the doping alone.  The cell
geometry, the oxide thickness and the gate voltage may be arrays (the
points of a sweep); the amplitude is then an array too.  The barrier
height, effective masses and doping default to those of the gate stack,
:class:`~fgqa.cells.MaterialStack`, which also sets the capacitances.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .cells import CellGeometry, MaterialStack
from .constants import CONST, fermi_energy, float_or_array

__all__ = [
    "BarrierCollapseError",
    "TunnelBarrier",
    "DeviceClass",
    "participants",
    "tunnel_amplitude",
    "classify",
]


class BarrierCollapseError(ValueError):
    """The shifted Fermi level reached the barrier top; WKB does not apply."""


class DeviceClass(enum.Enum):
    """Whether tunneling is active at zero applied bias."""

    NORMALLY_ON = "normally-on"
    NORMALLY_OFF = "normally-off"


@dataclass(frozen=True)
class TunnelBarrier:
    """Barrier stack seen by electrons leaving the floating gate."""

    d_ox: float | np.ndarray                        # tunnel-oxide thickness, nm
    barrier_ev: float = MaterialStack.barrier_ev    # barrier height V_ox, eV
    m_ox: float = MaterialStack.m_ox                # barrier effective mass / m0
    m_si: float = MaterialStack.m_si                # silicon effective mass / m0
    doping_cm3: float = MaterialStack.doping_cm3    # FG carrier density, cm^-3

    def __post_init__(self):
        if not np.all(np.greater(self.d_ox, 0.0) & np.isfinite(self.d_ox)):
            raise ValueError("oxide thickness must be positive and finite")
        if not all(0.0 < v < math.inf for v in (self.barrier_ev, self.m_ox, self.m_si)):
            raise ValueError("barrier height and masses must be positive and finite")
        if not 0.0 < self.doping_cm3 < math.inf:
            raise ValueError("doping must be positive and finite")

    @classmethod
    def from_stack(cls, geom: CellGeometry, mat: MaterialStack, **overrides) -> "TunnelBarrier":
        kwargs = dict(d_ox=geom.d_ox, barrier_ev=mat.barrier_ev, m_ox=mat.m_ox,
                      m_si=mat.m_si, doping_cm3=mat.doping_cm3)
        kwargs.update(overrides)
        return cls(**kwargs)

    @property
    def fermi_level_ev(self) -> float:
        return fermi_energy(self.doping_cm3, self.m_si)


def participants(geom: CellGeometry, e_f_ev: float,
                 m_eff: float = MaterialStack.m_si) -> float:
    """Electrons taking part in tunneling on one side of the barrier.

    Counts every electron in the participating volume v (both spins and
    both momentum directions across the barrier):

        N = v * integral over the Fermi disc of 4 k_x(k_y, k_z) / (2 pi)^3
          = v k_F^3 / (3 pi^2)

    which is just v times the carrier density.  Vanishes as E_F -> 0
    and is linear in the volume.
    """
    if e_f_ev < 0.0:
        raise ValueError("Fermi energy must be non-negative")
    if e_f_ev == 0.0:
        return 0.0
    k_f = math.sqrt(2.0 * m_eff * CONST.electron_mass * e_f_ev * CONST.electron_charge) \
        / CONST.hbar_j_s
    volume_m3 = geom.volume_nm3 * 1e-27
    return volume_m3 * k_f**3 / (3.0 * math.pi**2)


def tunnel_amplitude(geom: CellGeometry, barrier: TunnelBarrier, v_cg=0.0):
    """WKB tunnel amplitude in Hz at gate voltage ``v_cg`` (V).

    Monotonically increasing as the shifted Fermi level E_F' rises, and
    log-linear in the oxide thickness.  A float for scalar inputs, an
    array when the geometry, the oxide or ``v_cg`` is one.

    Raises
    ------
    BarrierCollapseError
        If E_F' reaches the barrier top (V_ox - E_F' <= 0) at any point.
    """
    e_f = barrier.fermi_level_ev
    e_f_shifted = e_f - np.asarray(v_cg, dtype=float)
    headroom = barrier.barrier_ev - e_f_shifted
    collapsed = headroom <= 0.0
    if collapsed.any():
        raise BarrierCollapseError(
            f"shifted Fermi level {e_f_shifted[collapsed][0]:.4g} eV is at or above the "
            f"barrier top {barrier.barrier_ev:.4g} eV; no evanescent barrier left")
    n_side = participants(geom, e_f, barrier.m_si)
    # squared by a product, as an array is: ** on a scalar is libm pow
    ratio = math.pi * CONST.bohr_radius_nm / geom.length
    prefactor_ev = n_side * n_side * CONST.rydberg_ev / barrier.m_si * (ratio * ratio)
    exponent = -(barrier.d_ox / CONST.bohr_radius_nm) * np.sqrt(
        barrier.m_ox * headroom / CONST.rydberg_ev)
    return float_or_array(prefactor_ev * np.exp(exponent) * CONST.hz_per_ev)


def classify(geom: CellGeometry, barrier: TunnelBarrier, threshold_hz: float):
    """Normally-on if the zero-bias amplitude reaches ``threshold_hz``.

    A :class:`DeviceClass`, or an object array of them for an
    array-valued geometry or oxide.
    """
    if threshold_hz <= 0.0:
        raise ValueError("threshold must be positive")
    on = np.greater_equal(tunnel_amplitude(geom, barrier, 0.0), threshold_hz)
    return np.array([DeviceClass.NORMALLY_OFF, DeviceClass.NORMALLY_ON])[on.astype(int)]
