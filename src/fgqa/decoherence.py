"""Phonon-limited decoherence of the floating-gate charge qubit.

Acoustic phonons in the oxide couple to the tunneling two-level system
as a standard boson bath with spectral function

    J(omega) = (gamma^2 / (pi rho c^5)) omega^3  +  k_ohmic * omega

a cubic (superohmic) term plus an ohmic term.  The superohmic part
dresses the bare tunneling frequency by exp(-gamma^2 omega_c^2 /
(2 pi^2 hbar rho c^5)) with the Debye cutoff omega_c, and damps the
residual oscillation at a rate gamma^2 omega~^3 / (4 pi hbar rho c^5).
The ohmic part, of dimensionless strength ``alpha``, sets the
observable envelope: the population signal splits into

    P_coh(t) = cos(Delta t) exp(-pi alpha Delta t / 2)
    P_inc(t) = alpha Delta t (ci(Delta t) sin(Delta t) - si(Delta t) cos(Delta t))

with the cosine/sine integrals ci, si, and the coherence time follows
from the e^-1 point of the exponential envelope, t_coh = 2/(pi alpha Delta).

Unit conventions: the coupling ``gamma`` is given in eV and used in
joules internally; tunneling frequencies ``Delta`` are cyclic (Hz), and
the cyclic value multiplies t directly in the P(t) expressions, while
the superohmic damping rate uses the angular frequency 2 pi Delta.

``ci``, ``si``, ``p_coherent``, ``p_incoherent`` and ``coherence_time``
take numpy arrays as well as scalars (times and frequencies broadcast
against each other): whole time traces are one call, and every element
runs the same series or continued fraction, stopping at its own
convergence point, so an array gives exactly the values of elementwise
scalar calls.  Scalars give Python floats back.  Every input passes
:func:`~fgqa.constants.checked`, so a NaN, infinite or negative time,
frequency or bath parameter raises a ``ValueError`` naming it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import CONST, checked, float_or_array

__all__ = [
    "PhononEnvironment",
    "renormalization_exponent",
    "renormalized_tunneling",
    "superohmic_rate",
    "ci",
    "si",
    "p_coherent",
    "p_incoherent",
    "coherence_time",
]

_EULER_GAMMA = 0.5772156649015328606


@dataclass(frozen=True)
class PhononEnvironment:
    """Acoustic-phonon bath of the oxide stack.

    The ohmic strength ``alpha`` must be positive.  Its default comes from
    the microscopic two-level formula alpha = gamma^2 nu^2 / (2 pi^2 hbar
    rho c^3 d^2), with nu and d the parameters of the oxide's two-level
    systems.
    """

    coupling_ev: float = 10.0          # deformation coupling gamma, eV
    sound_speed: float = 4300.0        # c, m/s
    density: float = 2200.0            # rho, kg/m^3
    debye_temperature: float = 450.0   # K; omega_c = k_B T_D / hbar
    alpha: float = 7.05e-9             # dimensionless ohmic strength

    def __post_init__(self):
        for name in ("coupling_ev", "sound_speed", "density", "debye_temperature", "alpha"):
            checked(getattr(self, name), "PhononEnvironment." + name)

    @property
    def coupling_j(self) -> float:
        return self.coupling_ev * CONST.electron_charge

    @property
    def omega_c(self) -> float:
        """Debye cutoff, rad/s."""
        return CONST.boltzmann_j * self.debye_temperature / CONST.hbar_j_s


def renormalization_exponent(env: PhononEnvironment) -> float:
    """Exponent suppressing the dressed tunneling frequency.

    gamma^2 omega_c^2 / (2 pi^2 hbar rho c^5); around 1.3e3 for oxide
    parameters, so the dressed frequency is utterly negligible.
    """
    return (env.coupling_j**2 * env.omega_c**2
            / (2.0 * math.pi**2 * CONST.hbar_j_s * env.density
               * env.sound_speed**5))


def renormalized_tunneling(delta_hz: float, env: PhononEnvironment) -> float:
    """Dressed tunneling frequency Delta~ = Delta exp(-exponent), Hz.

    Underflows to exactly 0.0 for realistic oxide parameters; use
    :func:`renormalization_exponent` to report the suppression itself.
    """
    checked(delta_hz, "tunneling frequency", "non-negative")
    return delta_hz * math.exp(-renormalization_exponent(env))


def superohmic_rate(delta_hz: float, env: PhononEnvironment) -> float:
    """T=0 damping rate (1/s) of the superohmic bath at dressed frequency ``delta_hz``."""
    checked(delta_hz, "tunneling frequency", "non-negative")
    omega = 2.0 * math.pi * delta_hz
    return (env.coupling_j**2 * omega**3
            / (4.0 * math.pi * CONST.hbar_j_s * env.density * env.sound_speed**5))


def _cisi(y) -> tuple[np.ndarray, np.ndarray]:
    """ci(y) = -int_y^inf cos(x)/x dx and si(y) = -int_y^inf sin(x)/x dx.

    Power series below y = 4; above that the complex continued fraction
    for the exponential integral E1(iy), whose real and imaginary parts
    are -ci(y) and si(y).  Both agree with adaptive quadrature of the
    defining integrals to better than 1e-10 over y in [0.1, 100].
    Takes a scalar or an array and returns two arrays of its shape.
    """
    y = np.asarray(checked(y, "ci/si argument"), dtype=float)
    c, s = np.empty(y.shape), np.empty(y.shape)
    small = y < 4.0
    c[small], s[small] = _cisi_series(y[small])
    c[~small], s[~small] = _cisi_fraction(y[~small])
    return c, s


def _cisi_series(y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Power series of ci and si; each element stops once its last term is below 1e-20.

    ci: Euler's constant + log y + sum (-1)^k y^(2k) / (2k (2k)!),
    si: sum (-1)^k y^(2k+1) / ((2k+1)(2k+1)!)  -  pi/2.
    """
    y2 = y * y
    c_sum, s_sum = np.zeros_like(y), np.zeros_like(y)
    ck = np.ones_like(y)              # (-1)^k y^(2k) / (2k)!
    sk = y.copy()                     # (-1)^k y^(2k+1) / (2k+1)!
    c_live, s_live = np.ones(y.shape, dtype=bool), np.ones(y.shape, dtype=bool)
    for k in range(48):
        if k:                         # ci's series starts at k = 1
            ck *= -y2 / ((2 * k - 1) * (2 * k))
            c_sum += np.where(c_live, ck / (2 * k), 0.0)
            c_live &= ~(np.abs(ck) < 1e-20)
        s_sum += np.where(s_live, sk / (2 * k + 1), 0.0)
        sk *= -y2 / ((2 * k + 2) * (2 * k + 3))
        s_live &= ~(np.abs(sk) < 1e-20)
        if not (c_live.any() or s_live.any()):
            break
    return _EULER_GAMMA + np.log(y) + c_sum, s_sum - math.pi / 2.0


def _quot(ar, ai, br, bi):
    """(ar + i ai) / (br + i bi) on float arrays, rounded as Python's
    complex division rounds: scaled by whichever of br, bi is larger."""
    by_real = np.abs(br) >= np.abs(bi)
    big, small = np.where(by_real, br, bi), np.where(by_real, bi, br)
    ratio = small / big
    denom = big + small * ratio
    return (np.where(by_real, ar + ai * ratio, ar * ratio + ai) / denom,
            np.where(by_real, ai - ar * ratio, ai * ratio - ar) / denom)


def _cisi_fraction(y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """ci and si from the modified-Lentz continued fraction of E1(iy).

    E1(z) = e^-z / (z + 1 - 1/(z + 3 - 4/(z + 5 - ...))); each element
    leaves the iteration once its correction factor is within 1e-16 of 1.
    The complex arithmetic is spelled out on (real, imaginary) float
    arrays, as Python's complex type does it: numpy's vectorised complex
    loops round differently from its one-element ones, which would make
    an element's value depend on the length of the array around it.
    """
    b_re, b_im = np.ones_like(y), y               # b = z + 1, z = iy
    c_re, c_im = np.full_like(y, 1.0 / 1e-300), np.zeros_like(y)
    d_re, d_im = _quot(1.0, 0.0, b_re, b_im)
    f_re, f_im = d_re.copy(), d_im.copy()
    live = np.arange(y.size)                      # elements still iterating
    for k in range(1, 200):
        a = -float(k * k)
        b_re = b_re + 2.0
        d_re, d_im = _quot(1.0, 0.0, b_re + a * d_re, b_im + a * d_im)
        q_re, q_im = _quot(a, 0.0, c_re, c_im)
        c_re, c_im = b_re + q_re, b_im + q_im
        delta_re = c_re * d_re - c_im * d_im
        delta_im = c_re * d_im + c_im * d_re
        f_re[live], f_im[live] = (f_re[live] * delta_re - f_im[live] * delta_im,
                                  f_re[live] * delta_im + f_im[live] * delta_re)
        going = ~(np.hypot(delta_re - 1.0, delta_im) < 1e-16)
        if not going.any():
            break
        live = live[going]
        b_re, b_im, c_re, c_im, d_re, d_im = (
            v[going] for v in (b_re, b_im, c_re, c_im, d_re, d_im))
    # E1(iy) = exp(-iy) f = (cos y - i sin y) f
    cos, sin = np.cos(y), np.sin(y)
    return -(cos * f_re + sin * f_im), cos * f_im - sin * f_re


def ci(y):
    """Cosine integral, ci(y) = -integral_y^inf cos(x)/x dx."""
    return float_or_array(_cisi(y)[0])


def si(y):
    """Shifted sine integral, si(y) = -integral_y^inf sin(x)/x dx."""
    return float_or_array(_cisi(y)[1])


def _times(t) -> np.ndarray:
    return np.asarray(checked(t, "time", "non-negative"), dtype=float)


def p_coherent(t, delta_hz, alpha: float):
    """Coherent part of the population signal at time(s) ``t`` (s)."""
    x = delta_hz * _times(t)
    return float_or_array(np.cos(x) * np.exp(-0.5 * math.pi * alpha * x))


def p_incoherent(t, delta_hz, alpha: float):
    """Incoherent part of the population signal at time(s) ``t`` (s).

    alpha * Delta t * (ci(Delta t) sin(Delta t) - si(Delta t) cos(Delta t));
    vanishes at t = 0.
    """
    x = delta_hz * _times(t)
    out = np.zeros(x.shape)
    moving = x != 0.0
    x = x[moving]
    c, s = _cisi(x)
    out[moving] = alpha * x * (c * np.sin(x) - s * np.cos(x))
    return float_or_array(out)


def coherence_time(delta_hz, alpha: float):
    """e^-1 time of the coherent envelope, 2 / (pi alpha Delta), seconds."""
    delta_hz = np.asarray(checked(delta_hz, "tunneling frequency"), dtype=float)
    checked(alpha, "alpha")
    return float_or_array(2.0 / (math.pi * alpha * delta_hz))
