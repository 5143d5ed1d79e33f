import math

import numpy as np
import pytest

from loopgas.model import (Box, ExternalConfiguration, ModelParams,
                           PairPotential, validate_params, zero_potential)


def square_well(height=1.0, range_=1.0, hard_core=0.0):
    return PairPotential(profile="square_well", hard_core=hard_core,
                         range_=range_, height=height)


def free_params(d=2, z=0.5, beta=1.0):
    return ModelParams(d, 1, beta, (z,), [[zero_potential()]])


class TestPairPotential:
    def test_square_well_outside_support(self):
        assert square_well(1.0, 1.0).evaluate(2.0) == 0.0

    def test_square_well_at_range_is_zero(self):
        assert square_well(1.0, 1.0).evaluate(1.0) == 0.0

    def test_square_well_constant_inside(self):
        assert square_well(1.0, 1.0).evaluate(0.7) == 1.0

    def test_hard_core_infinite(self):
        p = square_well(1.0, 1.0, hard_core=0.5)
        assert p.evaluate(0.3) == math.inf
        assert p.evaluate(0.5) == 1.0  # boundary belongs to the finite part

    def test_vectorised_evaluation(self):
        p = square_well(2.0, 1.0, hard_core=0.25)
        r = np.array([0.1, 0.5, 0.9, 1.0, 3.0])
        v = p.evaluate(r)
        assert v.shape == r.shape
        assert v[0] == math.inf
        assert v[1] == 2.0 and v[2] == 2.0
        assert v[3] == 0.0 and v[4] == 0.0

    def test_negative_height_rejected(self):
        with pytest.raises(ValueError):
            PairPotential(height=-0.2)

    def test_negative_table_rejected(self):
        with pytest.raises(ValueError):
            PairPotential(profile="table", range_=1.0,
                          table_r=[0.0, 0.3, 0.6, 1.0],
                          table_v=[1.0, -0.2, 0.1, 0.0])

    def test_range_below_hard_core_rejected(self):
        with pytest.raises(ValueError):
            PairPotential(hard_core=0.5, range_=0.3)

    def test_square_well_gradient_is_zero(self):
        p = square_well(3.0, 1.0)
        assert p.sup_value == 3.0
        assert p.sup_gradient == 0.0

    def test_smooth_bump_bounds(self):
        p = PairPotential(profile="smooth_bump", range_=1.0, height=2.0)
        assert abs(p.evaluate(0.0) - 2.0) < 1e-12
        assert p.sup_value <= 2.0 + 1e-9
        assert p.sup_gradient > 0.0

    def test_zero_potential(self):
        p = zero_potential()
        assert p.is_zero()
        assert p.evaluate(0.0) == 0.0
        assert not square_well(1.0, 1.0).is_zero()
        assert not square_well(0.0, 0.5, hard_core=0.5).is_zero()


class TestModelParams:
    def test_valid_free_gas(self):
        m = free_params()
        assert validate_params(m) == []
        assert m.is_free()
        assert m.max_range == 0.0

    def test_fugacity_boundary_rejected(self):
        with pytest.raises(ValueError, match="fugacity"):
            ModelParams(2, 1, 1.0, (1.0,), [[zero_potential()]])

    def test_fugacity_error_listed(self):
        m = free_params()
        m.fugacity = (1.0,)
        errs = validate_params(m)
        assert any("fugacity" in e for e in errs)

    def test_asymmetric_table_rejected(self):
        a = square_well(1.0, 1.0)
        b = square_well(2.0, 1.0)
        with pytest.raises(ValueError, match="symmetric"):
            ModelParams(2, 2, 1.0, (0.5, 0.5),
                        [[zero_potential(), a], [b, zero_potential()]])

    def test_asymmetric_table_values_rejected(self):
        # equal profile, core, range and height, but V(0.1) 1.589 one way
        # and 8.679 the other; equal tables in two objects are accepted
        def table(v):
            return PairPotential("table", 0.0, 1.0, 0.0, table_r=[0.0, 0.3, 0.6, 1.0],
                                 table_v=v)

        z = zero_potential()
        with pytest.raises(ValueError, match="symmetric"):
            ModelParams(1, 2, 1.0, (0.5, 0.5), [[z, table([2, 1, 0.5, 0])],
                                                [table([9, 9, 9, 0]), z]])
        m = ModelParams(1, 2, 1.0, (0.5, 0.5), [[z, table([2, 1, 0.5, 0])],
                                                [table([2.0, 1.0, 0.5, 0.0]), z]])
        assert validate_params(m) == []

    def test_max_range_and_hard_core(self):
        hard = square_well(0.0, 0.3, hard_core=0.3)
        m = ModelParams(2, 2, 1.0, (0.5, 0.5),
                        [[zero_potential(), hard], [hard, zero_potential()]])
        assert not m.is_free()
        assert m.max_range == 0.3

    def test_beta_positive(self):
        with pytest.raises(ValueError, match="beta"):
            ModelParams(2, 1, 0.0, (0.5,), [[zero_potential()]])


class TestBox:
    def test_contains_max_norm(self):
        b = Box((0.0, 0.0), 1.0)
        assert b.contains(np.array([1.0, 1.0]))       # corner included
        assert not b.contains(np.array([1.0001, 0.0]))
        flags = b.contains(np.array([[0.5, 0.5], [2.0, 0.0]]))
        assert list(flags) == [True, False]

    @pytest.mark.parametrize("d", [1, 2])
    def test_rows_of_points(self, d):
        b = Box((0.0,) * d, 1.0)
        far = np.full(d, 2.0)
        for empty in ([], np.empty((0, d))):
            assert b.contains(empty).shape == (0,)
            assert b.euclidean_distance(empty).shape == (0,)
        assert b.contains(far) is False
        assert b.euclidean_distance(far) == math.sqrt(d)
        anchors = [np.full(d, 0.5)]  # a one-loop snapshot's anchor list
        assert b.contains(anchors).tolist() == [True]
        assert b.euclidean_distance(anchors).tolist() == [0.0]

    def test_volume_and_dimension(self):
        b = Box((0.0, 0.0, 0.0), 1.5)
        assert b.dimension == 3
        assert abs(b.volume - 27.0) < 1e-12

    def test_euclidean_distance(self):
        b = Box((0.0, 0.0), 1.0)
        assert b.euclidean_distance(np.array([0.3, -0.9])) == 0.0
        assert abs(b.euclidean_distance(np.array([2.0, 0.0])) - 1.0) < 1e-12
        assert abs(b.euclidean_distance(np.array([2.0, 2.0])) - math.sqrt(2)) < 1e-12

    def test_shifted(self):
        b = Box((0.0, 0.0), 1.0).shifted((1.0, -2.0))
        assert b.center == (1.0, -2.0)
        assert b.half_side == 1.0

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            Box((0.0,), 0.0)


class TestExternalConfiguration:
    def test_annulus_membership(self):
        box = Box((0.0, 0.0), 1.0)
        good = ExternalConfiguration(box, [np.array([[1.5, 0.0]])], max_range=1.0)
        assert not good.is_empty()

    def test_point_inside_rejected(self):
        box = Box((0.0, 0.0), 1.0)
        with pytest.raises(ValueError, match="inside"):
            ExternalConfiguration(box, [np.array([[0.5, 0.0]])], max_range=1.0)

    def test_point_beyond_reach_rejected(self):
        box = Box((0.0, 0.0), 1.0)
        with pytest.raises(ValueError, match="beyond"):
            ExternalConfiguration(box, [np.array([[3.0, 0.0]])], max_range=1.0)

    def test_empty_external(self):
        box = Box((0.0, 0.0), 1.0)
        assert ExternalConfiguration(box, [np.zeros((0, 2))] * 2, 0.0).is_empty()


class TestNaNFailsEveryCheck:
    @pytest.mark.parametrize("kwargs", [
        {"hard_core": math.nan, "range_": 1.0}, {"range_": math.nan},
        {"range_": math.inf}, {"height": math.nan}, {"height": math.inf},
        {"profile": "table", "range_": 1.5, "table_r": [0.0, 0.5, 1.0, 1.5],
         "table_v": [1.0, math.nan, 0.5, 0.0]}])
    def test_pair_potential(self, kwargs):
        with pytest.raises(ValueError):
            PairPotential(**kwargs)

    def test_nan_height_is_not_a_hard_core(self):
        # a NaN height once made the well's energy inf inside its range
        with pytest.raises(ValueError, match="height"):
            square_well(height=math.nan, range_=0.8)

    @pytest.mark.parametrize("center,half", [((0.0,), math.nan), ((0.0,), math.inf),
                                             ((math.nan,), 1.0), ((0.0, -math.inf), 1.0)])
    def test_box(self, center, half):
        with pytest.raises(ValueError, match="box needs"):
            Box(center, half)

    @pytest.mark.parametrize("point", [[math.nan, 0.0], [1.5, math.inf]])
    def test_external_points(self, point):
        box = Box((0.0, 0.0), 1.0)
        with pytest.raises(ValueError, match="not finite"):
            ExternalConfiguration(box, [np.array([point])], max_range=math.inf)

    @pytest.mark.parametrize("beta", [math.inf, math.nan])
    def test_model_beta(self, beta):
        with pytest.raises(ValueError, match="beta must be > 0 and finite"):
            ModelParams(1, 1, beta, (0.5,))

    @pytest.mark.parametrize("d", [2.5, math.nan, 0])
    def test_model_dimension(self, d):
        with pytest.raises(ValueError, match="dimension must be an integer"):
            ModelParams(d, 1, 1.0, (0.5,))
