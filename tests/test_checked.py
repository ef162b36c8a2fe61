"""Every physical input passes ``constants.checked``: one rule, one message.

Each guarded site is called with NaN, both infinities, a bool and a
string, with a value just outside its bound, and with numpy scalars; the
sites that take arrays are also given a bad element among good points.
"""

import math
import re

import numpy as np
import pytest

from fgqa.annealing import IsingModel, Schedule
from fgqa.cells import BiasSet, CellGeometry, MaterialStack, single_electron_margin
from fgqa.constants import checked, convert, fermi_energy
from fgqa.decoherence import (
    PhononEnvironment,
    ci,
    coherence_time,
    p_coherent,
    p_incoherent,
    renormalized_tunneling,
    si,
    superohmic_rate,
)
from fgqa.tunneling import TunnelBarrier, classify, participants, tunnel_amplitude

CELL = dict(length=15.0, width=15.0, height=100.0, d_ox=3.5, d_gate=8.1666667)
GEOM = CellGeometry(**CELL)
BARRIER = TunnelBarrier(d_ox=3.5)
ENV = PhononEnvironment()


def _field(cls, name, **base):
    return lambda v: cls(**{**base, name: v})


# id -> (call with the value under test, the name in the message, bound)
SITES = {
    **{f"CellGeometry.{f}": (_field(CellGeometry, f, **CELL), f"CellGeometry.{f}", "positive")
       for f in ("length", "width", "height", "d_ox", "d_gate", "gap")},
    **{f"MaterialStack.{f}": (_field(MaterialStack, f), f"MaterialStack.{f}", "positive")
       for f in ("eps_ox", "eps_gate", "barrier_ev", "m_ox", "m_si", "doping_cm3")},
    "BiasSet.v_gate": (lambda v: BiasSet((0.0, v, 0.0)), "BiasSet.v_gate", "finite"),
    "BiasSet.v_sub": (lambda v: BiasSet((0.0,) * 3, v), "BiasSet.v_sub", "finite"),
    "BiasSet.v_rail": (lambda v: BiasSet((0.0,) * 3, 0.0, (0.0, 0.0, v, 0.0)),
                       "BiasSet.v_rail", "finite"),
    "single_electron_margin": (lambda v: single_electron_margin(GEOM, MaterialStack(), v),
                               "temperature", "positive"),
    **{f"TunnelBarrier.{f}": (_field(TunnelBarrier, f, d_ox=3.5), f"TunnelBarrier.{f}",
                              "positive")
       for f in ("d_ox", "barrier_ev", "m_ox", "m_si", "doping_cm3")},
    "participants": (lambda v: participants(GEOM, v), "Fermi energy", "non-negative"),
    "participants.mass": (lambda v: participants(GEOM, 0.4, v), "effective mass", "positive"),
    "tunnel_amplitude": (lambda v: tunnel_amplitude(GEOM, BARRIER, v), "gate voltage",
                         "finite"),
    "classify": (lambda v: classify(GEOM, BARRIER, v), "threshold", "positive"),
    **{f"PhononEnvironment.{f}": (_field(PhononEnvironment, f), f"PhononEnvironment.{f}",
                                  "positive")
       for f in ("coupling_ev", "sound_speed", "density", "debye_temperature", "alpha")},
    "renormalized_tunneling": (lambda v: renormalized_tunneling(v, ENV),
                               "tunneling frequency", "non-negative"),
    "superohmic_rate": (lambda v: superohmic_rate(v, ENV), "tunneling frequency",
                        "non-negative"),
    "coherence_time.delta": (lambda v: coherence_time(v, 7e-9), "tunneling frequency",
                             "positive"),
    "coherence_time.alpha": (lambda v: coherence_time(1e9, v), "alpha", "positive"),
    "p_coherent": (lambda v: p_coherent(v, 1e9, 7e-9), "time", "non-negative"),
    "p_incoherent": (lambda v: p_incoherent(v, 1e9, 7e-9), "time", "non-negative"),
    "ci": (ci, "ci/si argument", "positive"),
    "si": (si, "ci/si argument", "positive"),
    "fermi_energy.doping": (lambda v: fermi_energy(v, 0.19), "doping", "positive"),
    "fermi_energy.mass": (lambda v: fermi_energy(1e20, v), "effective mass", "positive"),
    "convert": (lambda v: convert(v, "eV", "K"), "value", "finite"),
    "Schedule.delta0": (lambda v: Schedule(delta0=v, t_total=1.0, steps=10),
                        "initial transverse field", "non-negative"),
    "Schedule.t_total": (lambda v: Schedule(delta0=1.0, t_total=v, steps=10), "total time",
                         "positive"),
    "IsingModel.h": (lambda v: IsingModel(2, [v, v], ((0, 1, 1.0),)), "fields", "finite"),
    "IsingModel.couplings": (lambda v: IsingModel(2, [0.0, 0.0], ((0, 1, v),)), "couplings",
                             "finite"),
}

# id -> call with three points: the sites whose quantity may be an array
ARRAY_SITES = {
    **{f"CellGeometry.{f}": _field(CellGeometry, f, **CELL)
       for f in ("length", "width", "height", "d_ox", "d_gate", "gap")},
    "TunnelBarrier.d_ox": _field(TunnelBarrier, "d_ox"),
    "tunnel_amplitude": lambda v: tunnel_amplitude(GEOM, BARRIER, v),
    "coherence_time.delta": lambda v: coherence_time(v, 7e-9),
    "p_coherent": lambda v: p_coherent(v, 1e9, 7e-9),
    "p_incoherent": lambda v: p_incoherent(v, 1e9, 7e-9),
    "ci": ci,
    "si": si,
    "convert": lambda v: convert(v, "eV", "K"),
    "IsingModel.h": lambda v: IsingModel(3, v, ()),
}


def _message(site, got=""):
    """The message for ``site``; without ``got`` the bad value is not matched
    (``IsingModel.h`` names its whole array when the array is not numeric)."""
    _, name, bound = SITES[site]
    must = "finite" if bound == "finite" else f"{bound} and finite"
    return f"^{re.escape(name)} must be {must}, got " + (f"{re.escape(got)}$" if got else "")


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, True, "1"],
                         ids=["nan", "inf", "-inf", "bool", "str"])
@pytest.mark.parametrize("site", SITES)
def test_rejects_non_finite_and_non_numbers(site, bad):
    got = repr(bad) if type(bad) is float else ""
    with pytest.raises(ValueError, match=_message(site, got)):
        SITES[site][0](bad)


@pytest.mark.parametrize("site", SITES)
def test_bound(site):
    call, _, bound = SITES[site]
    if bound == "positive":
        with pytest.raises(ValueError, match=_message(site, "0.0")):
            call(0.0)
    else:
        call(0.0)
    if bound == "finite":
        call(-1.0)
    else:
        with pytest.raises(ValueError, match=_message(site, "-1.0")):
            call(-1.0)


@pytest.mark.parametrize("value", [np.int64(1), np.float32(1.0), 1, 1.0],
                         ids=["int64", "float32", "int", "float"])
@pytest.mark.parametrize("site", SITES)
def test_accepts_numbers(site, value):
    SITES[site][0](value)


@pytest.mark.parametrize("bad, got", [(math.nan, "nan"), (math.inf, "inf"), (-2.0, "-2.0")])
@pytest.mark.parametrize("site", ARRAY_SITES)
def test_array_rejects_a_bad_point(site, bad, got):
    if bad == -2.0 and SITES[site][2] == "finite":
        ARRAY_SITES[site](np.array([1.0, bad, 2.0]))
        return
    with pytest.raises(ValueError, match=_message(site, got)):
        ARRAY_SITES[site](np.array([1.0, bad, 2.0]))


@pytest.mark.parametrize("site", ARRAY_SITES)
def test_array_of_bools_or_strings_rejected(site):
    for bad in (np.array([True, False, True]), np.array(["1", "2", "3"])):
        with pytest.raises(ValueError, match=_message(site)):
            ARRAY_SITES[site](bad)


@pytest.mark.parametrize("value", [2.5, 3, np.int64(3), np.float32(2.5), np.arange(1, 4),
                                   np.array(7.0)])
def test_returns_the_value_itself(value):
    assert checked(value, "x") is value


@pytest.mark.parametrize("bad", [[1.0], (1.0,), 1 + 0j, None, np.array([1 + 0j]),
                                 np.bool_(True)])
def test_rejects_other_types_with_the_same_message(bad):
    with pytest.raises(ValueError, match=rf"^x must be positive and finite, got "
                                         rf"{re.escape(repr(bad))}$"):
        checked(bad, "x")


def test_names_the_first_bad_point():
    with pytest.raises(ValueError, match=r"^x must be non-negative and finite, got -1.0$"):
        checked(np.array([[0.0, -1.0], [math.nan, 2.0]]), "x", "non-negative")
    with pytest.raises(ValueError, match=r"^x must be finite, got nan$"):
        checked(np.array(math.nan), "x", "finite")
