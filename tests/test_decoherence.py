import cmath
import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import sici

from fgqa.constants import CONST, convert
from fgqa.decoherence import (
    PhononEnvironment,
    ci,
    coherence_time,
    p_coherent,
    p_incoherent,
    renormalization_exponent,
    renormalized_tunneling,
    si,
    superohmic_rate,
)

ENV = PhononEnvironment()
DELTA_10K = convert(10.0, "K", "Hz")


def ci_quadrature(y):
    val, _ = quad(lambda x: 1.0 / x, y, np.inf, weight="cos", wvar=1.0,
                  limlst=200, limit=400, epsabs=1e-12, epsrel=1e-12)
    return -val


def si_quadrature(y):
    val, _ = quad(lambda x: 1.0 / x, y, np.inf, weight="sin", wvar=1.0,
                  limlst=200, limit=400, epsabs=1e-12, epsrel=1e-12)
    return -val


class TestPhononEnvironment:
    @pytest.mark.parametrize("bad", (math.nan, math.inf, -math.inf))
    @pytest.mark.parametrize("field", ["coupling_ev", "sound_speed", "density",
                                       "debye_temperature", "alpha"])
    def test_rejects_non_finite_fields(self, field, bad):
        with pytest.raises(ValueError, match="must be positive and finite"):
            PhononEnvironment(**{field: bad})


class TestRenormalization:
    def test_exponent_reference(self):
        assert renormalization_exponent(ENV) == pytest.approx(1323.394, rel=1e-5)
        assert renormalization_exponent(ENV) == pytest.approx(1323.6, rel=0.01)

    def test_no_coupling_limit(self):
        env = PhononEnvironment(coupling_ev=1e-9)
        assert renormalized_tunneling(1e9, env) == pytest.approx(1e9, rel=1e-9)

    def test_quadratic_in_coupling(self):
        doubled = PhononEnvironment(coupling_ev=20.0)
        assert renormalization_exponent(doubled) == pytest.approx(
            4.0 * renormalization_exponent(ENV), rel=1e-12)

    def test_dressed_frequency_underflows_to_zero(self):
        assert renormalized_tunneling(1e12, ENV) == 0.0


class TestSuperohmicRate:
    def test_zero_frequency(self):
        assert superohmic_rate(0.0, ENV) == 0.0

    def test_cubic_scaling(self):
        assert superohmic_rate(2e9, ENV) == pytest.approx(8.0 * superohmic_rate(1e9, ENV),
                                                          rel=1e-12)

    def test_reference_arithmetic(self):
        omega = 2.0 * math.pi * DELTA_10K
        expected = (10.0 * CONST.electron_charge) ** 2 * omega**3 / (
            4.0 * math.pi * CONST.hbar_j_s * 2200.0 * 4300.0**5)
        assert superohmic_rate(DELTA_10K, ENV) == pytest.approx(expected, rel=1e-12)


class TestCiSi:
    def test_unit_argument_values(self):
        assert ci(1.0) == pytest.approx(0.3374039229, abs=1e-9)
        assert si(1.0) == pytest.approx(-0.6247132564, abs=1e-9)

    @pytest.mark.parametrize("y", [0.1, 0.37, 1.0, 2.5, 3.9, 4.0, 4.1, 7.3, 12.0,
                                   33.0, 100.0])
    def test_matches_quadrature(self, y):
        assert ci(y) == pytest.approx(ci_quadrature(y), abs=1e-8)
        assert si(y) == pytest.approx(si_quadrature(y), abs=1e-8)

    @pytest.mark.parametrize("y", np.geomspace(0.05, 300.0, 25).tolist())
    def test_matches_library(self, y):
        s, c = sici(y)
        assert ci(y) == pytest.approx(c, abs=1e-12)
        assert si(y) == pytest.approx(s - math.pi / 2.0, abs=1e-12)

    def test_decay_at_infinity(self):
        assert abs(ci(1e4)) < 2e-4
        assert abs(si(1e4)) < 2e-4

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            ci(0.0)


class TestPopulationSignal:
    ALPHA = 7.05e-9

    def test_starts_at_unity(self):
        assert p_coherent(0.0, DELTA_10K, self.ALPHA) == 1.0
        assert p_incoherent(0.0, DELTA_10K, self.ALPHA) == 0.0

    def test_envelope_reaches_inverse_e(self):
        t_coh = coherence_time(DELTA_10K, self.ALPHA)
        expected = math.cos(DELTA_10K * t_coh) * math.exp(-1.0)
        assert p_coherent(t_coh, DELTA_10K, self.ALPHA) == pytest.approx(expected,
                                                                         rel=1e-12)

    def test_total_signal_bounded(self):
        alpha = 1e-6
        delta = 1e9
        for t in np.linspace(0.0, 50.0 / delta, 211):
            total = p_coherent(t, delta, alpha) + p_incoherent(t, delta, alpha)
            assert abs(total) <= 1.0 + 10.0 * alpha


class TestCoherenceTime:
    def test_reference_value(self):
        assert coherence_time(DELTA_10K, 7.05e-9) == pytest.approx(4.33392e-4, rel=1e-5)

    def test_halves_when_frequency_doubles(self):
        assert coherence_time(2.0 * DELTA_10K, 7.05e-9) == pytest.approx(
            0.5 * coherence_time(DELTA_10K, 7.05e-9), rel=1e-12)

    def test_ten_to_one_ratio_between_temperatures(self):
        t10 = coherence_time(convert(10.0, "K", "Hz"), 7.05e-9)
        t100 = coherence_time(convert(100.0, "K", "Hz"), 7.05e-9)
        assert t10 / t100 == pytest.approx(10.0, rel=1e-12)

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            coherence_time(0.0, 7.05e-9)


def scalar_cisi(y):
    """The one-point ci/si evaluation the array version replaced: the same
    power series and continued fraction on Python floats (math/cmath)."""
    if y < 4.0:
        y2 = y * y
        c_sum, ck = 0.0, 1.0
        for k in range(1, 48):
            ck *= -y2 / ((2 * k - 1) * (2 * k))
            c_sum += ck / (2 * k)
            if abs(ck) < 1e-20:
                break
        s_sum, sk = 0.0, y
        for k in range(0, 48):
            s_sum += sk / (2 * k + 1)
            sk *= -y2 / ((2 * k + 2) * (2 * k + 3))
            if abs(sk) < 1e-20:
                break
        return 0.5772156649015328606 + math.log(y) + c_sum, s_sum - math.pi / 2.0
    z = complex(0.0, y)
    b = z + 1.0
    c = 1.0 / 1e-300
    d = 1.0 / b
    f = d
    for k in range(1, 200):
        a = -float(k * k)
        b = b + 2.0
        d = 1.0 / (b + a * d)
        c = b + a / c
        delta = c * d
        f *= delta
        if abs(delta - 1.0) < 1e-16:
            break
    e1 = cmath.exp(-z) * f
    return -e1.real, e1.imag


class TestArrayInputs:
    # both branches, the y = 4 switch and the decohere range up to 3e8
    Y = np.concatenate([np.geomspace(1e-3, 3e8, 600), np.linspace(3.9, 4.1, 41)])
    ALPHA = 7.05e-9

    def test_ci_si_equal_scalar_calls(self):
        np.testing.assert_array_equal(ci(self.Y), [ci(y) for y in self.Y.tolist()])
        np.testing.assert_array_equal(si(self.Y), [si(y) for y in self.Y.tolist()])

    def test_ci_si_match_scalar_evaluation(self):
        ref = np.array([scalar_cisi(y) for y in self.Y.tolist()])
        assert np.max(np.abs(ci(self.Y) - ref[:, 0])) <= 1e-15
        assert np.max(np.abs(si(self.Y) - ref[:, 1])) <= 1e-15

    def test_array_keeps_its_shape(self):
        grid = self.Y[:40].reshape(5, 8)
        assert ci(grid).shape == (5, 8)
        np.testing.assert_array_equal(si(grid), si(self.Y[:40]).reshape(5, 8))

    @pytest.mark.parametrize("delta_k", [0.5, 10.0, 300.0])
    def test_population_signal_equals_scalar_calls(self, delta_k):
        delta = convert(delta_k, "K", "Hz")
        t = np.linspace(0.0, 3.0 * coherence_time(delta, self.ALPHA), 200)
        for fn in (p_coherent, p_incoherent):
            np.testing.assert_array_equal(fn(t, delta, self.ALPHA),
                                          [fn(x, delta, self.ALPHA) for x in t.tolist()])

    def test_times_broadcast_against_frequencies(self):
        deltas = np.array([convert(k, "K", "Hz") for k in (0.5, 10.0, 300.0)])
        t = np.linspace(0.0, 3.0 * coherence_time(deltas, self.ALPHA), 50, axis=1)
        for fn in (p_coherent, p_incoherent):
            grid = fn(t, deltas[:, None], self.ALPHA)
            for row, d, times in zip(grid, deltas, t):
                np.testing.assert_array_equal(row, fn(times, d, self.ALPHA))

    def test_scalars_give_floats(self):
        for value in (ci(2.0), si(7.5), p_coherent(1e-9, DELTA_10K, self.ALPHA),
                      p_incoherent(1e-9, DELTA_10K, self.ALPHA),
                      p_incoherent(0.0, DELTA_10K, self.ALPHA),
                      coherence_time(DELTA_10K, self.ALPHA), ci(np.float64(3.0))):
            assert type(value) is float

    def test_coherence_time_on_arrays(self):
        deltas = np.array([DELTA_10K, 2.0 * DELTA_10K])
        np.testing.assert_array_equal(coherence_time(deltas, self.ALPHA),
                                      [coherence_time(d, self.ALPHA) for d in deltas.tolist()])
        with pytest.raises(ValueError):
            coherence_time(np.array([DELTA_10K, 0.0]), self.ALPHA)

    @pytest.mark.parametrize("fn", [ci, si])
    def test_non_positive_element_rejected(self, fn):
        with pytest.raises(ValueError):
            fn(np.array([1.0, 5.0, 0.0]))
        with pytest.raises(ValueError):
            fn(np.array([-2.0, 5.0]))

    @pytest.mark.parametrize("fn", [p_coherent, p_incoherent])
    def test_negative_time_element_rejected(self, fn):
        with pytest.raises(ValueError):
            fn(np.array([0.0, 1e-9, -1e-12]), DELTA_10K, self.ALPHA)
