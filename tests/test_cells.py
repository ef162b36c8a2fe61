import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fgqa.cells import (
    BiasSet,
    CellGeometry,
    MaterialStack,
    build_network,
    cell_from_coupling_ratio,
    control_oxide_thickness,
    coupling_ratio,
    single_electron_margin,
)


class TestControlOxideThickness:
    def test_reference_point(self):
        # CR = 0.3 on 3.5 nm tunnel oxide, same dielectric both sides
        assert control_oxide_thickness(0.3, 3.5) == pytest.approx(8.16667, rel=1e-5)

    def test_symmetric_divider(self):
        assert control_oxide_thickness(0.5, 2.7) == pytest.approx(2.7, rel=1e-12)

    def test_thinner_oxide_reference(self):
        assert control_oxide_thickness(0.3, 3.0) == pytest.approx(7.0, rel=1e-12)

    def test_permittivity_ratio_of_the_stack(self):
        a, b = 3.0e-20, 6.5e-20
        assert control_oxide_thickness(0.3, 3.5, MaterialStack(eps_ox=a, eps_gate=b)) == \
            (1.0 - 0.3) / 0.3 * (b / a) * 3.5
        # a missing gate permittivity follows the tunnel oxide's
        assert control_oxide_thickness(0.3, 3.5, MaterialStack(eps_ox=a)) == \
            control_oxide_thickness(0.3, 3.5)

    @pytest.mark.parametrize("cr", [0.0, 1.0, -0.2, 1.5])
    def test_rejects_out_of_range_ratio(self, cr):
        with pytest.raises(ValueError):
            control_oxide_thickness(cr, 3.5)

    def test_round_trip_through_network(self):
        geom = cell_from_coupling_ratio(10.0, 100.0, 3.5, 0.3)
        mat = MaterialStack()
        net = build_network(geom, mat, 3)
        assert coupling_ratio(net.c_gate[0], net.c_sub[0]) == pytest.approx(0.3, rel=1e-12)


class TestBuildNetwork:
    def setup_method(self):
        self.geom = CellGeometry(length=10.0, width=10.0, height=100.0,
                                 d_ox=3.5, d_gate=8.1666667)
        self.mat = MaterialStack()
        self.net = build_network(self.geom, self.mat, 3)

    def test_gate_capacitance_plate_value(self):
        # eps * L W / d_gate evaluated by hand
        assert self.net.c_gate[0] == pytest.approx(4.228237e-19, rel=1e-6)

    def test_inter_fg_capacitance_plate_value(self):
        assert self.net.c_fg[0] == pytest.approx(3.45306e-18, rel=1e-9)

    def test_boundary_branches_are_zero(self):
        assert self.net.c_fg[2] == 0.0
        assert self.net.c_gate_right[2] == 0.0
        assert self.net.c_gate_left[0] == 0.0

    def test_single_cell_has_no_neighbour_branches(self):
        net1 = build_network(self.geom, self.mat, 1)
        assert net1.c_fg[0] == net1.c_gate_left[0] == net1.c_gate_right[0] == 0.0
        assert net1.c_gate[0] > 0 and net1.c_source[0] > 0

    def test_deterministic(self):
        other = build_network(self.geom, self.mat, 3)
        for name in ("c_gate", "c_sub", "c_fg", "c_gate_left", "c_gate_right",
                     "c_source", "c_drain"):
            np.testing.assert_array_equal(getattr(self.net, name), getattr(other, name))

    @settings(derandomize=True, database=None, deadline=None)
    @given(scale=st.floats(0.1, 10.0))
    def test_area_scaling(self, scale):
        # plate capacitances scale with W (plate area) at fixed gaps
        geom = CellGeometry(length=10.0, width=10.0 * scale, height=100.0,
                            d_ox=3.5, d_gate=8.0, gap=10.0)
        ref = build_network(CellGeometry(length=10.0, width=10.0, height=100.0,
                                         d_ox=3.5, d_gate=8.0, gap=10.0),
                            MaterialStack(), 2)
        net = build_network(geom, MaterialStack(), 2)
        for name in ("c_gate", "c_sub", "c_fg", "c_source"):
            np.testing.assert_allclose(getattr(net, name), scale * getattr(ref, name),
                                       rtol=1e-12)

    @settings(derandomize=True, database=None, deadline=None)
    @given(scale=st.floats(0.1, 10.0))
    def test_gap_scaling(self, scale):
        ref = build_network(CellGeometry(length=10.0, width=10.0, height=100.0,
                                         d_ox=3.5, d_gate=8.0, gap=5.0),
                            MaterialStack(), 2)
        net = build_network(CellGeometry(length=10.0, width=10.0, height=100.0,
                                         d_ox=3.5, d_gate=8.0, gap=5.0 * scale),
                            MaterialStack(), 2)
        np.testing.assert_allclose(net.c_fg[0], ref.c_fg[0] / scale, rtol=1e-12)

    def test_rejects_empty_row(self):
        with pytest.raises(ValueError):
            build_network(self.geom, self.mat, 0)


class TestGeometryInvariants:
    def test_gap_defaults_to_length(self):
        geom = CellGeometry(length=12.0, width=9.0, height=50.0, d_ox=3.0, d_gate=7.0)
        assert geom.gap == 12.0

    def test_diagonal_distances_recomputed(self):
        geom = CellGeometry(length=10.0, width=10.0, height=50.0, d_ox=3.0, d_gate=7.0)
        assert geom.x_gate == pytest.approx(np.hypot(5.0, 7.0), rel=1e-15)
        assert geom.x_rail == pytest.approx(np.hypot(5.0, 3.0), rel=1e-15)

    @pytest.mark.parametrize("field", ["length", "width", "height", "d_ox", "d_gate"])
    def test_rejects_non_positive_dimensions(self, field):
        kwargs = dict(length=10.0, width=10.0, height=50.0, d_ox=3.0, d_gate=7.0)
        kwargs[field] = 0.0
        with pytest.raises(ValueError):
            CellGeometry(**kwargs)


class TestMaterialStack:
    @pytest.mark.parametrize("bad", (math.nan, math.inf, -math.inf))
    @pytest.mark.parametrize("field", ["eps_ox", "eps_gate", "barrier_ev", "m_ox", "m_si",
                                       "doping_cm3"])
    def test_rejects_non_finite_fields(self, field, bad):
        with pytest.raises(ValueError, match="must be positive and finite"):
            MaterialStack(**{field: bad})


class TestSingleElectronMargin:
    # bottom oxide dominates: enormous d_gate makes the gate plate negligible
    GEOM = CellGeometry(length=15.0, width=15.0, height=50.0, d_ox=3.5, d_gate=1e12)

    def test_vanishes_at_high_temperature(self):
        assert single_electron_margin(self.GEOM, MaterialStack(), 1e15) < 1e-9

    def test_nitrogen_temperature_reference(self):
        ratio = single_electron_margin(self.GEOM, MaterialStack(), 77.0)
        assert ratio == pytest.approx(10.88, abs=0.01)

    def test_halving_plate_area_doubles_margin(self):
        half = CellGeometry(length=15.0, width=7.5, height=50.0, d_ox=3.5, d_gate=1e12)
        full = single_electron_margin(self.GEOM, MaterialStack(), 77.0)
        assert single_electron_margin(half, MaterialStack(), 77.0) == pytest.approx(
            2.0 * full, rel=1e-12)

    def test_rejects_non_positive_temperature(self):
        with pytest.raises(ValueError):
            single_electron_margin(self.GEOM, MaterialStack(), 0.0)


class TestBiasSet:
    def test_rail_sharing_is_structural(self):
        bias = BiasSet((0.1, 0.2, 0.3), 0.0, (1.0, 2.0, 3.0, 4.0))
        # drain of cell i is the source of cell i+1 by construction
        assert bias.v_rail[1] == 2.0

    def test_rail_count_must_match(self):
        with pytest.raises(ValueError):
            BiasSet((0.0, 0.0, 0.0), 0.0, (0.0, 0.0))

    def test_uniform_constructor(self):
        bias = BiasSet.uniform(3, v_gate=0.5)
        assert bias.v_gate == (0.5, 0.5, 0.5)
        assert len(bias.v_rail) == 4
