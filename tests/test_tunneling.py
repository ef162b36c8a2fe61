import math
from dataclasses import asdict

import numpy as np
import pytest
from scipy.integrate import quad

from fgqa.cells import CellGeometry, MaterialStack
from fgqa.constants import CONST, fermi_energy
from fgqa.tunneling import (
    BarrierCollapseError,
    DeviceClass,
    TunnelBarrier,
    classify,
    participants,
    tunnel_amplitude,
)

TALL = CellGeometry(length=15.0, width=15.0, height=100.0, d_ox=3.5, d_gate=8.1666667)
SHORT = CellGeometry(length=15.0, width=15.0, height=10.0, d_ox=2.5, d_gate=5.8333333)
E_F = fermi_energy(1e20, 0.19)


def participants_quadrature(geom, e_f_ev, m_eff=0.19):
    """Defining integral over the Fermi disc: 4 v / (2 pi)^3 times
    the radial integral of 2 pi r sqrt(k_F^2 - r^2)."""
    k_f = math.sqrt(2.0 * m_eff * CONST.electron_mass * e_f_ev * CONST.electron_charge) \
        / CONST.hbar_j_s
    radial, _ = quad(lambda r: 2.0 * math.pi * r * math.sqrt(max(k_f**2 - r**2, 0.0)),
                     0.0, k_f, limit=200)
    return 4.0 * geom.volume_nm3 * 1e-27 * radial / (2.0 * math.pi) ** 3


class TestParticipants:
    def test_empty_fermi_sea(self):
        assert participants(TALL, 0.0) == 0.0
        assert participants(TALL, 1e-12) < 1e-3

    def test_rejects_negative_fermi_energy(self):
        with pytest.raises(ValueError, match="Fermi energy must be non-negative"):
            participants(TALL, -1e-3)

    def test_linear_in_volume(self):
        taller = CellGeometry(length=15.0, width=15.0, height=250.0, d_ox=3.5,
                              d_gate=8.1666667)
        assert participants(taller, E_F) == pytest.approx(2.5 * participants(TALL, E_F),
                                                          rel=1e-12)

    def test_matches_quadrature(self):
        closed = participants(TALL, E_F)
        assert closed == pytest.approx(participants_quadrature(TALL, E_F), rel=1e-9)

    def test_counts_all_carriers(self):
        # v * n at the reference doping: 15*15*100 nm^3 * 0.1 nm^-3
        assert participants(TALL, E_F) == pytest.approx(2250.0, rel=1e-9)


class TestStackDefaults:
    def test_barrier_defaults_are_the_stack_defaults(self):
        assert asdict(TunnelBarrier(d_ox=TALL.d_ox)) == \
            asdict(TunnelBarrier.from_stack(TALL, MaterialStack()))


class TestBarrierFields:
    @pytest.mark.parametrize("bad", (math.nan, math.inf, -math.inf))
    @pytest.mark.parametrize("field", ["d_ox", "barrier_ev", "m_ox", "m_si", "doping_cm3"])
    def test_rejects_non_finite_fields(self, field, bad):
        with pytest.raises(ValueError, match="must be positive and finite"):
            TunnelBarrier(**{"d_ox": 3.5, field: bad})

    def test_rejects_a_non_finite_thickness_among_points(self):
        with pytest.raises(ValueError, match="TunnelBarrier.d_ox must be positive and finite"):
            TunnelBarrier(d_ox=np.array([3.5, math.nan, 4.0]))


class TestTunnelAmplitude:
    def test_thick_oxide_limit(self):
        thick = CellGeometry(length=15.0, width=15.0, height=100.0, d_ox=60.0,
                             d_gate=8.1666667)
        assert tunnel_amplitude(thick, TunnelBarrier(d_ox=60.0)) < 1e-130

    def test_tall_design_zero_bias(self):
        amp = tunnel_amplitude(TALL, TunnelBarrier(d_ox=3.5))
        assert amp == pytest.approx(1.0028139e10, rel=1e-6)
        # within an order of magnitude of the 14.9 GHz reference value
        assert 0.1 < amp / 14.9e9 < 10.0

    def test_gate_switching_ratio(self):
        # on/off ratio between -1 V and 0 V, quoted as 2.2 kHz vs 26.4 Hz
        barrier = TunnelBarrier(d_ox=3.5, barrier_ev=3.0)
        ratio = tunnel_amplitude(TALL, barrier, -1.0) / tunnel_amplitude(TALL, barrier)
        assert ratio == pytest.approx(2200.0 / 26.4, rel=0.01)

    def test_log_amplitude_affine_in_oxide_thickness(self):
        barrier = TunnelBarrier(d_ox=3.5)
        slope_expected = -(1.0 / CONST.bohr_radius_nm) * math.sqrt(
            barrier.m_ox * (barrier.barrier_ev - E_F) / CONST.rydberg_ev)
        amps = []
        for d in (3.0, 3.2, 3.4):
            amps.append(math.log(tunnel_amplitude(
                TALL, TunnelBarrier(d_ox=d, barrier_ev=barrier.barrier_ev))))
        slope1 = (amps[1] - amps[0]) / 0.2
        slope2 = (amps[2] - amps[1]) / 0.2
        assert slope1 == pytest.approx(slope_expected, rel=1e-9)
        assert slope2 == pytest.approx(slope_expected, rel=1e-9)

    def test_monotone_in_fermi_shift_until_collapse(self):
        barrier = TunnelBarrier(d_ox=3.5)
        amps = [tunnel_amplitude(TALL, barrier, v) for v in np.linspace(0.0, -2.5, 11)]
        assert all(a < b for a, b in zip(amps, amps[1:]))
        with pytest.raises(BarrierCollapseError):
            tunnel_amplitude(TALL, barrier, -2.7)

    def test_modulation_window(self):
        # more than three decades of on/off swing across +-1 V
        barrier = TunnelBarrier(d_ox=3.5)
        swing = tunnel_amplitude(TALL, barrier, -1.0) / tunnel_amplitude(TALL, barrier, 1.0)
        assert 1e3 <= swing <= 1e5


class TestClassify:
    def test_thin_oxide_always_on(self):
        # 1.5 nm oxide tunnels at terahertz rates even unbiased
        geom = CellGeometry(length=15.0, width=15.0, height=10.0, d_ox=1.5,
                            d_gate=8.1666667)
        barrier = TunnelBarrier(d_ox=1.5, barrier_ev=3.0)
        assert tunnel_amplitude(geom, barrier) == pytest.approx(17.15e12, rel=0.01)
        assert classify(geom, barrier, 1e3) is DeviceClass.NORMALLY_ON

    def test_height_scaling_of_thin_oxide(self):
        short = CellGeometry(length=15.0, width=15.0, height=10.0, d_ox=1.5,
                             d_gate=8.1666667)
        tall = CellGeometry(length=15.0, width=15.0, height=100.0, d_ox=1.5,
                            d_gate=8.1666667)
        barrier = TunnelBarrier(d_ox=1.5, barrier_ev=3.0)
        ratio = tunnel_amplitude(tall, barrier) / tunnel_amplitude(short, barrier)
        assert ratio == pytest.approx(100.0, rel=1e-9)

    def test_thick_oxide_gate_switched(self):
        # the 3.5 nm device sits nine decades below the thin-oxide one;
        # a terahertz threshold separates the two regimes
        barrier = TunnelBarrier(d_ox=3.5)
        assert classify(TALL, barrier, 1e12) is DeviceClass.NORMALLY_OFF

    def test_boundary_is_inclusive(self):
        barrier = TunnelBarrier(d_ox=3.5)
        amp = tunnel_amplitude(TALL, barrier)
        assert classify(TALL, barrier, amp) is DeviceClass.NORMALLY_ON
        assert classify(TALL, barrier, amp * (1 + 1e-12)) is DeviceClass.NORMALLY_OFF

    def test_rejects_bad_threshold(self):
        with pytest.raises(ValueError):
            classify(TALL, TunnelBarrier(d_ox=3.5), 0.0)
