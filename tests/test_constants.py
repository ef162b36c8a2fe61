import math

import pytest
from hypothesis import given, settings, strategies as st

from fgqa.constants import CONST, convert, fermi_energy

UNITS = ("eV", "K", "Hz", "J")


def test_boltzmann_convention_is_exact():
    assert CONST.ev_per_k == 8.617e-5


def test_ev_to_kelvin_reference_point():
    # single-electron shift of the 15 nm cell, quoted as 83.7 K
    assert convert(0.00721, "eV", "K") == pytest.approx(83.67, abs=0.05)


def test_zero_maps_to_zero():
    assert convert(0.0, "eV", "K") == 0.0


def test_ev_to_hz_factor():
    assert convert(1.0, "eV", "Hz") == pytest.approx(2.41799e14, rel=1e-12)


@pytest.mark.parametrize("src", UNITS)
@pytest.mark.parametrize("dst", UNITS)
def test_round_trip(src, dst):
    x = 0.37
    back = convert(convert(x, src, dst), dst, src)
    assert back == pytest.approx(x, rel=1e-12)


@settings(derandomize=True, database=None, deadline=None)
@given(a=st.floats(-1e6, 1e6), b=st.floats(-1e6, 1e6),
       src=st.sampled_from(UNITS), dst=st.sampled_from(UNITS))
def test_conversion_is_linear(a, b, src, dst):
    lhs = convert(a + b, src, dst)
    rhs = convert(a, src, dst) + convert(b, src, dst)
    assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-300)


@pytest.mark.parametrize("bad", ["meV", "cm-1", "", "k"])
def test_unknown_unit_rejected(bad):
    with pytest.raises(ValueError):
        convert(1.0, bad, "eV")
    with pytest.raises(ValueError):
        convert(1.0, "eV", bad)


def test_non_finite_value_rejected():
    with pytest.raises(ValueError):
        convert(math.inf, "eV", "K")


# Direct evaluation of hbar^2 (3 pi^2 n)^(2/3) / (2 m e) at the
# reference doping 1e20 cm^-3.
FERMI_REFERENCE = {0.19: 0.4134757107, 1.0: 0.0785603850}


@pytest.mark.parametrize("m_eff,expected", sorted(FERMI_REFERENCE.items()))
def test_fermi_energy_reference(m_eff, expected):
    assert fermi_energy(1e20, m_eff) == pytest.approx(expected, rel=1e-9)


def test_fermi_energy_matches_quoted_value():
    assert fermi_energy(1e20, 0.19) == pytest.approx(0.414, abs=1e-3)


def test_fermi_energy_density_scaling():
    # (.)^(2/3): eight times the density quadruples the energy
    base = fermi_energy(1e20, 0.19)
    assert fermi_energy(8e20, 0.19) == pytest.approx(4.0 * base, rel=1e-12)


@settings(derandomize=True, database=None, deadline=None)
@given(n=st.floats(1e16, 1e22), factor=st.floats(1.01, 100.0))
def test_fermi_energy_monotonic(n, factor):
    assert fermi_energy(n * factor, 0.19) > fermi_energy(n, 0.19)
    assert fermi_energy(n, 0.19 * factor) < fermi_energy(n, 0.19)


@pytest.mark.parametrize("n,m", [(0.0, 0.19), (-1e20, 0.19), (1e20, 0.0), (1e20, -1.0)])
def test_fermi_energy_rejects_non_positive(n, m):
    with pytest.raises(ValueError):
        fermi_energy(n, m)
