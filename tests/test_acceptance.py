"""End-to-end acceptance checks, one per shipped guarantee.

Every test records a PASS/FAIL line through the record_criterion fixture;
the lines are printed as a block in the terminal summary.  Statistical
checks run at fixed seeds with their tolerance stated in the line, so a
red line here always reproduces.
"""

import math

import numpy as np
import pytest

from loopgas import analytic, bridge, experiments, mc, oracle
from loopgas.model import Box, ModelParams, PairPotential, zero_potential

BOX_UNIT = Box((0.0, 0.0), 0.5)


def free_params(z=0.5, q=1, beta=1.0, d=2):
    zs = z if isinstance(z, tuple) else (z,) * q
    table = [[zero_potential() for _ in range(q)] for _ in range(q)]
    return ModelParams(d, q, beta, zs, table)


def square_well_params(z=0.5, range_=0.8, height=0.8):
    pot = PairPotential(range_=range_, height=height)
    return ModelParams(2, 1, 1.0, (z,), [[pot]])


def hard_core_pair_params(D=0.3, z=(0.5, 0.5)):
    hc = PairPotential(hard_core=D, range_=D)
    return ModelParams(2, 2, 1.0, z, [[hc, hc], [hc, hc]])


def wr_cross_params(D=0.3, z=(0.5, 0.5)):
    cross = PairPotential(hard_core=D, range_=D)
    zp = zero_potential()
    return ModelParams(2, 2, 1.0, z, [[zp, cross], [cross, zp]])


def combined_sigma(*errors):
    return max(math.sqrt(sum(e * e for e in errors)), 1e-12)


def test_criterion_01_free_kernel_closed_form(record_criterion):
    # exact per-leg weights make the estimate deterministic for a free
    # model, so the tolerance is the truncation bound plus 4 sigma
    params = free_params(z=0.5)
    k_max = 20
    half = 6.0 * math.sqrt(params.beta * k_max)  # >= 26.8
    chain = mc.Chain(params, Box((0.0, 0.0), half + 0.2), seed=1,
                     options=mc.SamplerOptions(slices_per_beta=4, k_max=k_max))
    chain.run(4)
    box0 = Box((0.0, 0.0), 1.0)
    results = []
    for target, y in ((analytic.free_gas_kernel((0.0, 0.0), (0.0, 0.0),
                                                0.5, 1.0).value, (0.0, 0.0)),
                      (analytic.free_gas_kernel((0.0, 0.0), (1.0, 0.0),
                                                0.5, 1.0).value, (1.0, 0.0))):
        est = mc.estimate_rdm_kernel(
            chain, [np.array([[0.0, 0.0]])], [np.array([y])], box0,
            n_snapshots=16, thin=1, inner_per_snapshot=1,
            apply_exclusion=False)
        tol = 4.0 * est.std_error + est.truncation_bound + 1e-12
        results.append((est.value, target, tol, abs(est.value - target) <= tol))
    closed0 = -math.log(1.0 - 0.5) / (2.0 * math.pi)
    named_ok = (abs(results[0][1] - closed0) < 1e-12
                and abs(closed0 - 0.110318) < 1e-5
                and abs(results[1][1] - 0.0731) < 5e-5)
    ok = named_ok and all(r[3] for r in results)
    record_criterion(
        1, ok,
        "free kernel: x=y %.9f vs %.9f (tol %.2e); |x-y|=1 %.9f vs %.9f "
        "(tol %.2e)" % (results[0][0], results[0][1], results[0][2],
                        results[1][0], results[1][1], results[1][2]))
    assert ok


def test_criterion_02_first_leg_deviation_law(record_criterion):
    rng = np.random.default_rng(21)
    n_draws = 100000
    parts, ok = [], True
    for a in (0.5, 1.0, 1.5):
        target = bridge.max_deviation_tail(a, 1, 0.0, 1.0)
        est, se = bridge.empirical_max_deviation_tail(a, 1, 0.0, 1.0, 16,
                                                      n_draws, rng)
        good = abs(est - target) <= 4.0 * max(se, 1e-12)
        ok = ok and good
        parts.append("a=%.1f: %.4f vs %.4f +- %.4f" % (a, est, target, se))
    ok = ok and abs(bridge.max_deviation_tail(1.0, 1, 0.0, 1.0) - 0.2700) < 1e-4
    record_criterion(2, ok, "bridge max-deviation tail, 1e5 draws, 4 sigma; "
                     + "; ".join(parts))
    assert ok


def test_criterion_03_absorbing_trace(record_criterion):
    rng = np.random.default_rng(22)
    target = analytic.dirichlet_interval_trace(1.0, 1.0)
    est, se = experiments.dirichlet_trace_mc(1.0, 1.0, 16, 20000, rng)
    ok = (abs(est - target) <= 4.0 * max(se, 1e-12)
          and abs(target - 0.29843) < 2e-5)
    record_criterion(3, ok, "absorbing-interval trace: MC %.5f vs series "
                     "%.5f +- %.5f (4 sigma)" % (est, target, se))
    assert ok


def test_criterion_04_kernel_dominated_by_reference(record_criterion):
    params = hard_core_pair_params(D=0.3)
    box0 = Box((0.0, 0.0), 0.5)
    chain = mc.Chain(params, Box((0.0, 0.0), 6.0), seed=23,
                     options=mc.SamplerOptions(slices_per_beta=8, k_max=12))
    chain.run(120)
    rng = np.random.default_rng(24)
    ok = True
    worst = -math.inf
    for _ in range(10):
        counts = rng.integers(0, 3, size=2)
        if counts.sum() == 0:
            counts[int(rng.integers(0, 2))] = 1
        starts = [rng.uniform(-0.5, 0.5, size=(int(n), 2)) for n in counts]
        ends = [rng.uniform(-0.5, 0.5, size=(int(n), 2)) for n in counts]
        f = mc.estimate_rdm_kernel(chain, starts, ends, box0,
                                   n_snapshots=24, thin=2,
                                   inner_per_snapshot=2)
        q = mc.estimate_reference_kernel(starts, ends, params, box0,
                                         k_max=12, S=8, n_samples=1500,
                                         rng=rng)
        slack = 3.0 * combined_sigma(f.std_error, q.std_error)
        margin = (f.value - q.value) / slack
        worst = max(worst, margin)
        ok = ok and f.value <= q.value + slack
    record_criterion(4, ok, "interacting kernel <= exclusion reference + "
                     "3 sigma on 10 random endpoint families (worst margin "
                     "%.2f sigma-units)" % (3.0 * worst))
    assert ok


def test_criterion_05_reduced_trace_compatibility(record_criterion):
    cross = PairPotential(hard_core=0.5, range_=0.5)
    zp = zero_potential()
    params = ModelParams(1, 2, 1.0, (0.4, 0.6), [[zp, cross], [cross, zp]])
    state = oracle.gibbs_state(oracle.line_lattice(4, 1.0, params, 2))
    dev = oracle.check_compatibility(state, [0, 1, 2], [0, 1])
    ok = dev < 1e-12 and abs(state.grand - 7.133279963738377) < 1e-9
    record_criterion(5, ok, "nested partial traces on the 4-site two-type "
                     "exclusion lattice agree to %.2e (tol 1e-12)" % dev)
    assert ok


def test_criterion_06_multiplicity_tail_bounds(record_criterion):
    box0 = BOX_UNIT
    parts, ok = [], True
    for label, params, seed in (("free", free_params(z=0.5), 25),
                                ("square-well", square_well_params(), 26)):
        chain = mc.Chain(params, Box((0.0, 0.0), 5.0), seed=seed,
                         options=mc.SamplerOptions(slices_per_beta=4))
        chain.run(150)
        tails = mc.estimate_multiplicity_tail(chain, box0, [4, 9, 16],
                                              1200, thin=2)
        for t in tails:
            bound = analytic.multiplicity_tail_bound(t.k0, box0, params)
            good = t.probability <= bound + 3.0 * t.std_error
            ok = ok and good
            parts.append("%s k0=%d: %.4f <= %.4f" % (label, t.k0,
                                                     t.probability, bound))
    record_criterion(6, ok, "window multiplicity tails within closed-form "
                     "bounds + 3 sigma; " + "; ".join(parts))
    assert ok


def test_criterion_07_update_flux_balance(record_criterion, flux_p_value):
    well = ModelParams(1, 1, 1.0, (0.4,),
                       [[PairPotential(range_=0.8, height=1.2)]])
    parts, ok = [], True
    for i, family in enumerate(mc.Chain.FAMILIES):
        p = flux_p_value(well, family, seed=40 + i)
        ok = ok and p > 0.01
        parts.append("%s p=%.3f" % (family, p))
    record_criterion(7, ok, "stationary flux balance on the enumerable "
                     "twin, p > 0.01 per family; " + "; ".join(parts))
    assert ok


def test_criterion_08_repulsion_suppresses_density(record_criterion):
    window = Box((0.0, 0.0), 2.0)
    target = analytic.loop_moment(-1, 0.5, 1.0, 2).value
    estimates = {}
    for label, params, seed in (("free", free_params(z=0.5), 27),
                                ("square-well", square_well_params(), 28)):
        chain = mc.Chain(params, Box((0.0, 0.0), 5.0), seed=seed,
                         options=mc.SamplerOptions(slices_per_beta=4))
        chain.run(200)
        est = mc.estimate_density(chain, window, 1600, thin=2)
        estimates[label] = (est.per_type[0], est.std_errors[0])
    free_val, free_se = estimates["free"]
    well_val, well_se = estimates["square-well"]
    free_ok = abs(free_val - target) <= 4.0 * max(free_se, 1e-12)
    order_ok = well_val <= free_val + 3.0 * combined_sigma(free_se, well_se)
    ok = free_ok and order_ok and abs(target - 0.092657) < 2e-5
    record_criterion(8, ok, "free density %.5f vs closed form %.5f +- %.5f "
                     "(4 sigma); repulsive density %.5f below free + 3 sigma"
                     % (free_val, target, free_se, well_val))
    assert ok


def test_criterion_09_window_shift_consistency(record_criterion):
    params = wr_cross_params(D=0.3)
    chain = mc.Chain(params, Box((0.0, 0.0), 8.0), seed=37,
                     options=mc.SamplerOptions(slices_per_beta=4))
    chain.run(200)
    rep = mc.shift_invariance_probe(chain, Box((0.0, 0.0), 1.0), (1.5, 0.0),
                                    2000, thin=2)
    ok = rep.consistent
    record_criterion(9, ok, "two-type exclusion gas, congruent windows at "
                     "shift (1.5, 0): max density gap %.2f sigma, max "
                     "multiplicity-bin gap %.2f sigma (limit 3); consistency "
                     "check only, not a proof"
                     % (rep.density_sigma, rep.histogram_sigma))
    assert ok


def test_criterion_10_closed_forms_and_worked_constant(record_criterion):
    moments_ok = True
    for z in (0.1, 0.3, 0.5, 0.7, 0.9):
        for order in (-1, 0, 1, 2):
            series = analytic.loop_moment(order, z, 1.0, 2).value
            closed = analytic.closed_form_moment_2d(order, z, 1.0)
            moments_ok = moments_ok and abs(series - closed) < 1e-10
    params = free_params(z=0.5)
    hs = analytic.q_square_integral_bound(BOX_UNIT, params)
    numeric = experiments.numeric_q_square_integral(
        BOX_UNIT, params, points_per_axis=5, n_samples=300,
        rng=np.random.default_rng(30))
    hs_ok = hs > numeric
    pot = PairPotential(profile="smooth_bump", range_=1.0, height=1.0)
    wparams = ModelParams(2, 1, 1.0, (0.5,), [[pot]])
    fit = bridge.fit_gaussian_tail_envelope(wparams, BOX_UNIT, 4,
                                            (1.0, 2.0, 3.0, 4.0))
    g = analytic.gradient_bound_constants([1], BOX_UNIT, wparams, fit, 1.0)
    normalised = g.same_object / wparams.max_gradient
    const_ok = abs(normalised - 0.17671256628506607) < 1e-9
    ok = moments_ok and hs_ok and const_ok
    record_criterion(10, ok, "moment closed forms to 1e-10; squared-kernel "
                     "bound %.4f > numeric %.4f; normalised gradient "
                     "constant %.9f reproduced to 1e-9" % (hs, numeric,
                                                           normalised))
    assert ok


@pytest.mark.xfail(strict=True, reason=(
    "documented discrepancy: the printed worked example 0.265055 is not "
    "reproducible from its own inputs; the series-consistent evaluation "
    "gives 0.176713 and the example's own displayed product gives 0.265069"))
def test_criterion_10_printed_worked_value(record_criterion):
    pot = PairPotential(profile="smooth_bump", range_=1.0, height=1.0)
    wparams = ModelParams(2, 1, 1.0, (0.5,), [[pot]])
    fit = bridge.fit_gaussian_tail_envelope(wparams, BOX_UNIT, 4,
                                            (1.0, 2.0, 3.0, 4.0))
    g = analytic.gradient_bound_constants([1], BOX_UNIT, wparams, fit, 1.0)
    normalised = g.same_object / wparams.max_gradient
    ok = abs(normalised - 0.265055) < 1e-6
    record_criterion(10, ok, "printed worked-example decimal 0.265055 vs "
                     "computed %.6f (tol 1e-6); kept as an honest red"
                     % normalised, suffix="printed decimal")
    assert ok
