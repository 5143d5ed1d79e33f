import math

import numpy as np
import pytest

from loopgas import analytic, bridge
from loopgas.model import Box, ModelParams, PairPotential, zero_potential

BOX_UNIT = Box((0.0, 0.0), 0.5)  # unit volume in d = 2


def one_type_free(z=0.5, d=2, beta=1.0):
    return ModelParams(d, 1, beta, (z,), [[zero_potential()]])


def two_type_free(z=(0.5, 0.5), beta=1.0):
    return ModelParams(2, 2, beta, z,
                       [[zero_potential(), zero_potential()],
                        [zero_potential(), zero_potential()]])


class TestLoopMoments:
    def test_closed_forms_to_1e10(self):
        for z in (0.1, 0.3, 0.5, 0.7, 0.9):
            for order in (-1, 0, 1, 2):
                series = analytic.loop_moment(order, z, 1.0, 2).value
                closed = analytic.closed_form_moment_2d(order, z, 1.0)
                assert abs(series - closed) < 1e-10

    def test_named_values(self):
        assert abs(analytic.closed_form_moment_2d(0, 0.5, 1.0)
                   - math.log(2.0) / (2.0 * math.pi)) < 1e-14
        assert abs(analytic.closed_form_moment_2d(0, 0.5, 1.0) - 0.110318) < 1e-6
        assert abs(analytic.closed_form_moment_2d(1, 0.5, 1.0)
                   - 1.0 / (2.0 * math.pi)) < 1e-14
        li2 = sum(0.5 ** k / k ** 2 for k in range(1, 200))
        assert abs(analytic.closed_form_moment_2d(-1, 0.5, 1.0)
                   - li2 / (2.0 * math.pi)) < 1e-12

    def test_monotone_in_fugacity(self):
        for order in (-1, 0, 1, 2):
            vals = [analytic.closed_form_moment_2d(order, z, 1.0)
                    for z in (0.1, 0.3, 0.5, 0.7, 0.9)]
            assert all(a < b for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("z,beta,d", [(0.5, 1.0, 2), (0.9, 0.37, 3), (0.1, 2.5, 1)])
    def test_loop_intensity_terms_the_free_loop_moment(self, z, beta, d):
        terms = [analytic.loop_intensity(z, beta, d, k) for k in range(1, 1001)]
        for k, t in enumerate(terms, 1):  # the expression it replaced, bit for bit
            assert t == z ** k / (k * (2.0 * math.pi * beta * k) ** (0.5 * d))
        moment = analytic.loop_moment(-1, z, beta, d, tol=1e-15).value
        assert abs(math.fsum(terms) - moment) < 1e-12

    def test_series_tail_bound_honest(self):
        res = analytic.loop_moment(2, 0.9, 1.0, 2, tol=1e-6)
        exact = analytic.closed_form_moment_2d(2, 0.9, 1.0)
        assert abs(res.value - exact) <= res.tail_bound + 1e-12

    @pytest.mark.xfail(strict=True, reason=(
        "documented discrepancy: the displayed second-moment closed form "
        "z(1+z)/((1-z)^3 2 pi beta) contradicts the series definition and "
        "the order-0/order-1 closed forms; the series value is "
        "z/((1-z)^2 2 pi beta)"))
    def test_displayed_second_moment_variant(self):
        z, beta = 0.5, 1.0
        displayed = z * (1.0 + z) / ((1.0 - z) ** 3 * 2.0 * math.pi * beta)
        series = analytic.loop_moment(2, z, beta, 2).value
        assert abs(series - displayed) < 1e-10


class TestFreeKernel:
    def test_zero_displacement_equals_order0(self):
        k = analytic.free_gas_kernel(np.zeros(2), np.zeros(2), 0.5, 1.0).value
        assert abs(k - analytic.closed_form_moment_2d(0, 0.5, 1.0)) < 1e-12

    def test_unit_displacement_value(self):
        k = analytic.free_gas_kernel(np.zeros(2), np.array([1.0, 0.0]),
                                     0.5, 1.0).value
        assert abs(k - 0.0731) < 5e-5

    def test_large_displacement_decay(self):
        far = analytic.free_gas_kernel(np.zeros(2), np.array([20.0, 0.0]),
                                       0.5, 1.0).value
        assert far < 1e-11
        very_far = analytic.free_gas_kernel(np.zeros(2), np.array([25.0, 0.0]),
                                            0.5, 1.0).value
        assert very_far < 1e-12

    def test_symmetry(self):
        a = analytic.free_gas_kernel(np.array([0.3, 0.1]),
                                     np.array([1.0, -0.4]), 0.5, 1.0).value
        b = analytic.free_gas_kernel(np.array([1.0, -0.4]),
                                     np.array([0.3, 0.1]), 0.5, 1.0).value
        assert abs(a - b) < 1e-15


class TestExternalControlBound:
    def test_zero_counts(self):
        fam = analytic.growth_family("zero", 2)
        sup, _, values, edge = analytic.external_control_bound(
            fam, 1.0, two_type_free(), np.arange(1.0, 10.5, 0.5))
        assert sup == 0.0 and not edge
        assert np.all(values == 0.0)

    def test_linear_counts_frozen(self):
        fam = analytic.growth_family("linear", 2)
        sup, arg, _, edge = analytic.external_control_bound(
            fam, 1.0, two_type_free(), np.arange(1.0, 10.5, 0.5))
        assert abs(sup - 5.072889398324453) < 1e-9
        assert arg == 2.0 and not edge

    def test_ceil_counts_frozen(self):
        fam = analytic.growth_family("ceil_linear", 2)
        sup, arg, _, edge = analytic.external_control_bound(
            fam, 1.0, two_type_free(), np.arange(1.0, 10.5, 0.5))
        assert abs(sup - 6.676128390290907) < 1e-9
        assert arg == 1.5 and not edge

    def test_exp_square_flagged_unbounded(self):
        fam = analytic.growth_family("exp_square", 2)
        sup, arg, _, edge = analytic.external_control_bound(
            fam, 1.0, two_type_free(), np.arange(1.0, 10.5, 0.5))
        assert edge and arg == 10.0

    def test_overflowing_series_is_inf(self):
        # the cap exp((c L - L^2) / (2 beta)) at L = 2, c = 10, beta = 0.0086 is exp(930)
        assert analytic._weighted_multiplicity_series(0.5, 0.0086, 4.0 - 20.0) == math.inf
        params = one_type_free(0.5, beta=0.0086)
        grid = np.arange(1.0, 3.5, 0.5)
        sup, _, values, _ = analytic.external_control_bound(
            analytic.growth_family("linear", 1), 10.0, params, grid)
        assert sup == math.inf and np.isinf(values[1:]).all()
        sup, _, values, edge = analytic.external_control_bound(
            analytic.growth_family("zero", 1), 10.0, params, grid)
        assert sup == 0.0 and np.all(values == 0.0) and not edge

    @pytest.mark.parametrize("beta", [1.0, 0.01])
    def test_overflowing_count_is_inf_not_nan(self, beta):
        # exp(L^2) passes any double at L > 26.64; at beta = 0.01 the series
        # there underflows to 0, and inf times 0 is nan
        assert analytic.growth_family("exp_square", 1)(27.0) == [math.inf]
        sup, arg, values, _ = analytic.external_control_bound(
            analytic.growth_family("exp_square", 1), 0.25, one_type_free(beta=beta),
            np.arange(1.0, 30.5, 0.5))
        assert sup == math.inf and arg == 27.0
        assert np.isfinite(values[:52]).all() and np.isinf(values[52:]).all()

    def test_grid_below_one_rejected(self):
        fam = analytic.growth_family("linear", 2)
        with pytest.raises(ValueError):
            analytic.external_control_bound(fam, 1.0, two_type_free(),
                                            np.arange(0.5, 5.0, 0.5))


class TestSquareIntegralBound:
    def test_unit_volume_value(self):
        got = analytic.q_square_integral_bound(BOX_UNIT, one_type_free(0.5))
        assert abs(got - math.e) < 1e-12

    def test_doubling_volume_squares(self):
        double = Box((0.0, 0.0), 0.5 * math.sqrt(2.0))
        a = analytic.q_square_integral_bound(BOX_UNIT, one_type_free(0.5))
        b = analytic.q_square_integral_bound(double, one_type_free(0.5))
        assert abs(b - a * a) < 1e-10

    def test_small_fugacity_near_one(self):
        got = analytic.q_square_integral_bound(BOX_UNIT, one_type_free(1e-9))
        assert abs(got - 1.0) < 1e-8

    def test_overflowing_bound_is_inf(self):
        # volume 100 times z/(1-z) = 9 puts the exponent at 900, past any double
        got = analytic.q_square_integral_bound(Box((0.0, 0.0), 5.0), one_type_free(0.9))
        assert got == math.inf


class TestGradientConstants:
    def _fit(self, params):
        return bridge.fit_gaussian_tail_envelope(params, BOX_UNIT, 4,
                                                 (1.0, 2.0, 3.0, 4.0))

    def test_gradient_free_model_all_zero(self):
        params = one_type_free(0.5)
        for b_value in (1.0, math.inf):  # an overflowing control series gives inf
            g = analytic.gradient_bound_constants([1], BOX_UNIT, params,
                                                  self._fit(params), b_value)
            assert g.same_object == g.cross_type == g.background == g.external == 0.0
            assert g.total() == 0.0

    def test_zero_counts_kill_a2(self):
        pot = PairPotential(profile="smooth_bump", range_=1.0, height=1.0)
        params = ModelParams(2, 1, 1.0, (0.5,), [[pot]])
        g = analytic.gradient_bound_constants([0], BOX_UNIT, params,
                                              self._fit(params), 1.0)
        assert g.cross_type == 0.0

    def test_worked_first_constant(self):
        # q=1, counts=(1), d=2, beta=1, z=0.5, normalised to unit gradient sup:
        # 0.5 * theta_2 * 1! * (1 + theta_0) with the series-consistent theta_2
        pot = PairPotential(profile="smooth_bump", range_=1.0, height=1.0)
        params = ModelParams(2, 1, 1.0, (0.5,), [[pot]])
        g = analytic.gradient_bound_constants([1], BOX_UNIT, params,
                                              self._fit(params), 1.0)
        normalised = g.same_object / params.max_gradient
        assert abs(normalised - 0.17671256628506607) < 1e-9

    @pytest.mark.xfail(strict=True, reason=(
        "documented discrepancy: the printed worked example 0.265055 is not "
        "reproducible under any reading; the series-consistent second moment "
        "gives 0.176713, and even the example's own displayed chain "
        "0.5*0.477465*1.110318 evaluates to 0.265069"))
    def test_worked_first_constant_printed_value(self):
        pot = PairPotential(profile="smooth_bump", range_=1.0, height=1.0)
        params = ModelParams(2, 1, 1.0, (0.5,), [[pot]])
        g = analytic.gradient_bound_constants([1], BOX_UNIT, params,
                                              self._fit(params), 1.0)
        normalised = g.same_object / params.max_gradient
        assert abs(normalised - 0.265055) < 1e-6


class TestMultiplicityTailBound:
    def test_decreasing_on_grid(self):
        vals = [analytic.multiplicity_tail_bound(k0, BOX_UNIT, one_type_free(0.5))
                for k0 in (4, 16, 64, 256)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_small_fugacity_small_bound(self):
        got = analytic.multiplicity_tail_bound(4, BOX_UNIT, one_type_free(1e-3))
        assert got < 1e-4

    def test_frozen_values(self):
        m = one_type_free(0.5)
        assert abs(analytic.multiplicity_tail_bound(4, BOX_UNIT, m)
                   - 0.04382292558939107) < 1e-12
        assert abs(analytic.multiplicity_tail_bound(9, BOX_UNIT, m)
                   - 0.010470533651303281) < 1e-12

    def test_k0_below_one_rejected(self):
        with pytest.raises(ValueError):
            analytic.multiplicity_tail_bound(0, BOX_UNIT, one_type_free(0.5))

    def test_overflowing_prefactor_is_inf(self):
        # exp(volume * (1 + Theta_0)) is past any double in this box at small beta
        box0 = Box((0.0, 0.0, 0.0), 1.32)
        got = analytic.multiplicity_tail_bound(4, box0, one_type_free(0.5, d=3, beta=0.0086))
        assert got == math.inf


class TestDirichletTrace:
    def test_interval_value(self):
        got = analytic.dirichlet_interval_trace(1.0, 1.0)
        series = sum(math.exp(-0.5 * (n * math.pi / 2.0) ** 2)
                     for n in range(1, 30))
        assert abs(got - series) < 1e-14
        assert abs(got - 0.29843) < 2e-5

    def test_wide_interval_matches_jacobi_dual(self):
        # sum_{n>=1} exp(-c n^2) = (sqrt(pi/c) - 1)/2 up to sqrt(pi/c) exp(-pi^2/c),
        # which is below 1e-300 here: the series needs about a thousand terms
        L, beta = 20.0, 0.01
        want = (L * math.sqrt(8.0 / (math.pi * beta)) - 1.0) / 2.0
        got = analytic.dirichlet_interval_trace(L, beta)
        assert abs(got - want) <= 1e-12 * want

    def test_large_beta_ground_state(self):
        assert analytic.dirichlet_interval_trace(1.0, 100.0) < 1e-53

    def test_box_trace_power(self):
        one = analytic.dirichlet_interval_trace(0.7, 1.3)
        got = analytic.dirichlet_box_trace(0.7, 1.3, 3)
        assert abs(got - one ** 3) < 1e-14


class TestGrowthHelpers:
    def test_suggested_growth_constant(self):
        params = one_type_free(0.5)
        c = analytic.suggested_growth_constant(params, BOX_UNIT)
        assert abs(c - 0.25) < 1e-14  # (0 + 0.5 + 0)^2
        off = Box((3.0, 4.0), 0.5)  # distance 5 direction, corner offset
        c2 = analytic.suggested_growth_constant(params, off)
        dist = off.euclidean_distance(np.zeros(2))
        assert abs(c2 - (0.5 + dist) ** 2) < 1e-12

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError):
            analytic.growth_family("cubic", 1)


class TestDirichletTraceRefusals:
    @pytest.mark.parametrize("L,beta", [(1.0, 0.0), (1.0, math.nan), (1.0, math.inf),
                                        (0.0, 1.0), (math.nan, 1.0), (-1.0, 1.0)])
    def test_refuses_what_has_no_trace(self, deadline, L, beta):
        # at beta = 0 every term is 1.0 and the series once never stopped
        with deadline(3.0), pytest.raises(ValueError, match="must be > 0 and finite"):
            analytic.dirichlet_box_trace(L, beta, 1)

    @pytest.mark.parametrize("d", [0, -1, 2.5, 2.0, math.nan])
    def test_refuses_a_dimension_that_is_not_a_positive_integer(self, d):
        with pytest.raises(ValueError, match="not a positive integer"):
            analytic.dirichlet_box_trace(1.0, 1.0, d)
