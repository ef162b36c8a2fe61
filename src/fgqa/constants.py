"""Physical constants and energy-unit bookkeeping shared by every module.

All geometry in this package is expressed in nanometres and all
capacitances in farads, so the vacuum permittivity is carried in F/nm.
Energies move between eV, kelvin, hertz and joules through a single
set of conversion factors; ``EV_PER_K`` and ``HZ_PER_EV`` are the
rounded values conventional in the flash-memory literature rather than
full-precision CODATA, so that derived device numbers match published
figures digit for digit.

The device formulas of the package take numpy arrays as well as
scalars; :func:`float_or_array` gives their results back as a Python
float when every input was a scalar.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Constants",
    "CONST",
    "convert",
    "fermi_energy",
    "float_or_array",
]


@dataclass(frozen=True)
class Constants:
    """Bundle of the physical constants used across the package."""

    electron_charge: float = 1.602176634e-19  # C
    ev_per_k: float = 8.617e-5                # Boltzmann constant, eV/K
    boltzmann_j: float = 1.380649e-23         # Boltzmann constant, J/K
    electron_mass: float = 9.1093837015e-31   # kg
    bohr_radius_nm: float = 0.0529            # nm
    rydberg_ev: float = 13.6                  # eV
    planck_j_s: float = 6.62607015e-34        # J s
    hbar_j_s: float = 1.054571817e-34         # J s
    hbar_ev_s: float = 6.582119569e-16        # eV s
    eps0_f_per_nm: float = 8.854e-21          # vacuum permittivity, F/nm
    hz_per_ev: float = 2.41799e14             # E/h, Hz per eV


CONST = Constants()

# Linear factors mapping each supported unit onto eV.
_TO_EV = {
    "eV": 1.0,
    "K": CONST.ev_per_k,
    "Hz": 1.0 / CONST.hz_per_ev,
    "J": 1.0 / CONST.electron_charge,
}


def float_or_array(x):
    """``x`` as a Python float if it is a scalar or 0-d array, else unchanged."""
    return float(x) if np.ndim(x) == 0 else x


def convert(value, src: str, dst: str):
    """Convert an energy-like scalar or array between eV, K, Hz and J.

    Conversions are purely linear, so they distribute over sums and
    round-trip to better than 1e-12 relative.

    Raises
    ------
    ValueError
        If either unit tag is unknown or a value is not finite.
    """
    if src not in _TO_EV:
        raise ValueError(f"unknown energy unit {src!r}; expected one of {sorted(_TO_EV)}")
    if dst not in _TO_EV:
        raise ValueError(f"unknown energy unit {dst!r}; expected one of {sorted(_TO_EV)}")
    value = np.asarray(value, dtype=float)
    finite = np.isfinite(value)
    if not finite.all():
        raise ValueError(f"value must be finite, got {value[~finite][0].item()!r}")
    return float_or_array(value * _TO_EV[src] / _TO_EV[dst])


def fermi_energy(doping_cm3: float, m_eff: float) -> float:
    """Free-electron-gas Fermi level in eV for a given carrier density.

    E_F = hbar^2 (3 pi^2 n)^(2/3) / (2 m), with the carrier density
    ``doping_cm3`` in cm^-3 and the effective mass given as a multiple
    ``m_eff`` of the vacuum electron mass.  Strictly increasing in the
    density and strictly decreasing in the mass.
    """
    if doping_cm3 <= 0.0:
        raise ValueError(f"doping must be positive, got {doping_cm3!r}")
    if m_eff <= 0.0:
        raise ValueError(f"effective mass must be positive, got {m_eff!r}")
    n_m3 = doping_cm3 * 1e6
    e_j = CONST.hbar_j_s**2 * (3.0 * math.pi**2 * n_m3) ** (2.0 / 3.0) / (
        2.0 * m_eff * CONST.electron_mass
    )
    return e_j / CONST.electron_charge
