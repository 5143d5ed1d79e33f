import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import integrate, stats

from loopgas import bridge
from loopgas.model import Box, ModelParams, zero_potential


def rng(seed=0):
    return np.random.default_rng(seed)


class TestBridgeMass:
    def test_zero_displacement_2d(self):
        assert abs(bridge.bridge_mass(np.zeros(2), np.zeros(2), 1, 1.0)
                   - 1.0 / (2.0 * math.pi)) < 1e-15

    def test_displaced_k2(self):
        want = math.exp(-0.25) / (4.0 * math.pi)
        got = bridge.bridge_mass(np.zeros(2), np.array([1.0, 0.0]), 2, 1.0)
        assert abs(got - want) < 1e-15

    def test_1d_normalisation(self):
        got = bridge.bridge_mass(np.zeros(1), np.zeros(1), 1, 2.0)
        assert abs(got - (4.0 * math.pi) ** -0.5) < 1e-15

    def test_log_matches(self):
        x, y = np.array([0.2, -0.4]), np.array([1.0, 0.3])
        assert abs(math.log(bridge.bridge_mass(x, y, 3, 0.7))
                   - bridge.log_bridge_mass(x, y, 3, 0.7)) < 1e-12


class TestSampleBridge:
    def test_endpoints_exact(self):
        x, y = np.array([0.5, -1.0]), np.array([2.0, 0.25])
        p = bridge.sample_bridge(x, y, 3, 8, 1.0, rng(1))
        assert np.array_equal(p.samples[0], x)
        assert np.array_equal(p.samples[-1], y)
        assert p.samples.shape == (3 * 8 + 1, 2)

    def test_endpoint_forms_agree(self):
        # a float, a list and an array endpoint give one path and one stream
        paths, states = [], []
        for x, y in ((0.25, -0.5), ([0.25], [-0.5]), (np.array([0.25]), np.array([-0.5]))):
            g = rng(8)
            paths.append(bridge.sample_bridge(x, y, 2, 4, 1.0, g).samples)
            states.append(g.bit_generator.state)
        assert paths[0].shape == (9, 1)
        assert all(np.array_equal(p, paths[0]) for p in paths)
        assert all(s == states[0] for s in states)

    def test_end_of_another_dimension_refused(self):
        # a one-coordinate end is not broadcast to a two-coordinate start
        with pytest.raises(ValueError, match="endpoint dimensions differ"):
            bridge.sample_bridge(np.zeros(2), [0.5], 1, 4, 1.0, rng())

    def test_one_end_row_for_three_starts_refused(self):
        with pytest.raises(ValueError, match="endpoint dimensions differ"):
            bridge.sample_bridges(np.zeros((3, 2)), np.ones((1, 2)), 1, 4, 1.0, rng())

    def test_mean_at_midpoint(self):
        x, y = np.array([0.0]), np.array([2.0])
        n = 20000
        g = rng(2)
        mids = np.array([bridge.sample_bridge(x, y, 2, 2, 1.0, g).samples[2, 0]
                         for _ in range(n)])
        se = mids.std(ddof=1) / math.sqrt(n)
        assert abs(mids.mean() - 1.0) <= 4.0 * se

    def test_variance_at_quarter(self):
        # k=1: variance at t = beta/2 is beta/4
        n = 20000
        g = rng(3)
        vals = np.array([bridge.sample_bridge(np.zeros(1), np.zeros(1), 1, 2,
                                              1.0, g).samples[1, 0]
                         for _ in range(n)])
        v = vals.var(ddof=1)
        se = v * math.sqrt(2.0 / (n - 1))
        assert abs(v - 0.25) <= 4.0 * se

    def test_marginal_law_ks(self):
        # grid-time marginal is the exact Gaussian bridge law
        x, y = np.array([0.0]), np.array([0.7])
        k, S, beta = 2, 4, 1.0
        n = 100000
        g = rng(4)
        draws = np.array([bridge.sample_bridge(x, y, k, S, beta, g).samples[4, 0]
                          for _ in range(n)])
        t, T = 1.0, 2.0
        mean = 0.7 * t / T
        sd = math.sqrt(t * (T - t) / T)
        p = stats.kstest(draws, "norm", args=(mean, sd)).pvalue
        assert p > 0.01

    def test_mass_consistency_at_grid_time(self):
        # frequency of landing in A at time t, scaled by the total mass,
        # equals the integral over A of the two-step transition product
        x, y, beta, k = 0.0, 0.7, 1.0, 2
        a_lo, a_hi = 0.2, 0.6
        n = 100000
        g = rng(5)
        hits = 0
        for _ in range(n):
            u = bridge.sample_bridge(np.array([x]), np.array([y]), k, 2, beta,
                                     g).samples[2, 0]
            hits += a_lo <= u <= a_hi
        freq = hits / n
        mass = bridge.bridge_mass(np.array([x]), np.array([y]), k, beta)

        def transition_product(u):
            g1 = math.exp(-(u - x) ** 2 / (2 * beta)) / math.sqrt(2 * math.pi * beta)
            g2 = math.exp(-(y - u) ** 2 / (2 * beta)) / math.sqrt(2 * math.pi * beta)
            return g1 * g2

        want, _ = integrate.quad(transition_product, a_lo, a_hi)
        se = math.sqrt(freq * (1 - freq) / n) * mass
        assert abs(freq * mass - want) <= 4.0 * se

    def test_resample_leg_only_touches_interior(self):
        p = bridge.sample_bridge(np.zeros(2), np.zeros(2), 3, 4, 1.0, rng(6))
        q = bridge.resample_leg(p, 1, rng(7))
        assert np.array_equal(q.samples[:5], p.samples[:5])
        assert np.array_equal(q.samples[8:], p.samples[8:])
        assert not np.array_equal(q.samples[5:8], p.samples[5:8])


def stack_walk(samples, times, lo, hi, rng):
    """The depth-first bisection the batched sampler replaced, kept as reference.

    Pops the right half of each interval first and draws one standard normal
    vector per midpoint; the batched sampler must reproduce it bit for bit.
    """
    stack = [(lo, hi)]
    while stack:
        a, b = stack.pop()
        if b - a < 2:
            continue
        m = (a + b) // 2
        ta, tm, tb = times[a], times[m], times[b]
        w = (tm - ta) / (tb - ta)
        mean = (1.0 - w) * samples[a] + w * samples[b]
        var = (tm - ta) * (tb - tm) / (tb - ta)
        samples[m] = mean + math.sqrt(var) * rng.standard_normal(samples.shape[1])
        stack.append((a, m))
        stack.append((m, b))


def stack_walk_bridge(x, y, k, S, beta, rng):
    n = k * S
    samples = np.empty((n + 1, x.size))
    samples[0], samples[n] = x, y
    stack_walk(samples, np.arange(n + 1) * (beta / S), 0, n, rng)
    return samples


GRIDS = [(k, S, d) for S in (1, 2, 3, 4, 7, 16) for k in range(1, 6) for d in (1, 2, 3)]
# a batch of 64 takes the level walk wherever it has a midpoint; its single
# draws, and the batches of 1 and 2, take the scalar walk on the short grids
BATCH_SIZES = (1, 2, 64)
# long legs: their single draws and pairs take the scalar walk, batches of 64
# the level walk
LONG_GRIDS = [(k, S, d) for S in (24, 25, 26) for k in (1, 2) for d in (1, 2)]
CUT = bridge.SCALAR_WALK_MAX


def scalar_walk(n, span, d):
    """_bisect's rule: the scalar walk up to CUT midpoint coordinates per level."""
    return n * (span - 1) * d <= CUT * (span - 1).bit_length()


# the largest batch of 4-slice legs in d = 2, and the longest single path in
# d = 3, that take the scalar walk
N_CUT = max(n for n in range(1, 1000) if scalar_walk(n, 4, 2))
SPAN_CUT = next(span for span in itertools.count(2) if not scalar_walk(1, span + 1, 3))
# (n, k, S, d): pairs on both sides of the cut-off in n, in span and in d,
# and single k = 20 paths (span 80) in d = 2 and 3
CUTOFF_CASES = [(N_CUT, 1, 4, 2), (N_CUT + 1, 1, 4, 2),
                (1, 1, SPAN_CUT, 3), (1, 1, SPAN_CUT + 1, 3), (1, 1, SPAN_CUT + 1, 2),
                (1, 20, 4, 2), (1, 20, 4, 3)]
CUTOFF_GRIDS = sorted({(k, S, d) for _, k, S, d in CUTOFF_CASES} - set(GRIDS))


def takes_scalar_walk(n, span, d):
    """Whether _bisect fills an (n, span + 1, d) batch on the scalar walk (it reads _flat_plan)."""
    calls = sum(bridge._flat_plan.cache_info()[:2])
    bridge._bisect(np.zeros((n, span + 1, d)), 0, span, 0.25, rng())
    return sum(bridge._flat_plan.cache_info()[:2]) > calls


def check_batch(n, k, S, d):
    """A batch of n bridges equals n sample_bridge calls and the stack walk, stream included."""
    beta = 0.7
    ends = rng(100 + 10 * k + d + n).normal(size=(2, n, d))
    g_batch, g_single, g_ref = rng(k * S * d), rng(k * S * d), rng(k * S * d)
    batch = bridge.sample_bridges(ends[0], ends[1], k, S, beta, g_batch)
    assert batch.shape == (n, k * S + 1, d)
    for i in range(n):
        single = bridge.sample_bridge(ends[0, i], ends[1, i], k, S, beta, g_single)
        ref = stack_walk_bridge(ends[0, i], ends[1, i], k, S, beta, g_ref)
        assert np.array_equal(batch[i], single.samples)
        assert np.array_equal(batch[i], ref)
    assert g_batch.bit_generator.state == g_single.bit_generator.state
    assert g_batch.bit_generator.state == g_ref.bit_generator.state


class TestBatchedSampler:
    @pytest.mark.parametrize("k,S,d", GRIDS + LONG_GRIDS + CUTOFF_GRIDS)
    def test_batch_is_successive_single_draws(self, k, S, d):
        for n in BATCH_SIZES:
            check_batch(n, k, S, d)

    @pytest.mark.parametrize("n,k,S,d", CUTOFF_CASES)
    def test_batch_at_the_cut_off(self, n, k, S, d):
        check_batch(n, k, S, d)

    def test_cut_off_cases_straddle(self):
        walks = [takes_scalar_walk(n, k * S, d) for n, k, S, d in CUTOFF_CASES]
        assert walks == [scalar_walk(n, k * S, d) for n, k, S, d in CUTOFF_CASES]
        # n, then span, then d: one step over the cut-off leaves the scalar walk
        assert walks[:5] == [True, False, True, False, True]

    @given(n=st.integers(1, 6), lo=st.integers(0, 12), span=st.integers(2, 40),
           beta=st.sampled_from([0.7, 1.0, 2.5]), parts=st.sampled_from([1, 3, 4, 7]),
           d=st.integers(1, 3), seed=st.integers(0, 2 ** 32 - 1))
    @example(n=3, lo=5, span=11, beta=1.0, parts=3, d=2, seed=0)
    @settings(max_examples=60, deadline=None)
    def test_walks_fill_equal_doubles(self, n, lo, span, beta, parts, d, seed):
        # dt = beta / parts is not dyadic for parts 3 and 7
        start = rng(seed).normal(size=(n, lo + span + 3, d))
        got, states = [], []
        saved = bridge.SCALAR_WALK_MAX
        try:
            for cutoff in (0, 10 ** 9):  # the level walk, then the scalar walk
                bridge.SCALAR_WALK_MAX = cutoff
                samples, g = start.copy(), rng(seed + 1)
                bridge._bisect(samples, lo, lo + span, beta / parts, g)
                got.append(samples)
                states.append(g.bit_generator.state)
        finally:
            bridge.SCALAR_WALK_MAX = saved
        assert np.array_equal(got[0], got[1])
        assert states[0] == states[1]
        outside = np.r_[:lo + 1, lo + span:lo + span + 3]
        assert np.array_equal(got[1][:, outside], start[:, outside])

    @pytest.mark.parametrize("k,S,d", GRIDS + LONG_GRIDS + CUTOFF_GRIDS)
    def test_resample_leg_matches_stack_walk(self, k, S, d):
        beta = 0.7
        path = bridge.sample_bridge(np.zeros(d), np.ones(d), k, S, beta, rng(1))
        times = np.arange(k * S + 1) * (beta / S)
        g_new, g_ref = rng(2), rng(2)
        for m in range(k):
            got = bridge.resample_leg(path, m, g_new)
            want = path.samples.copy()
            stack_walk(want, times, m * S, (m + 1) * S, g_ref)
            assert np.array_equal(got.samples, want)
            assert g_new.bit_generator.state == g_ref.bit_generator.state

    @pytest.mark.parametrize("k,S", [(1, 1), (2, 1), (1, 2), (3, 4), (2, 7)])
    def test_single_path_from_list_endpoints(self, k, S):
        # endpoints as lists of floats, as callers from outside pass them
        beta, y = 0.7, 0.35
        g_one, g_rows, g_ref = rng(k + S), rng(k + S), rng(k + S)
        one = bridge.sample_bridge([0.0], [y], k, S, beta, g_one).samples
        rows = bridge.sample_bridges(np.zeros((1, 1)), np.full((1, 1), y), k, S, beta, g_rows)
        ref = stack_walk_bridge(np.zeros(1), np.full(1, y), k, S, beta, g_ref)
        assert one.shape == (k * S + 1, 1)
        assert np.array_equal(one, rows[0])
        assert np.array_equal(one, ref)
        assert g_one.bit_generator.state == g_rows.bit_generator.state
        assert g_one.bit_generator.state == g_ref.bit_generator.state

    def test_batched_stay_probabilities_match_rows(self):
        S, tau = 8, 1.0 / 8
        paths = bridge.sample_bridges(np.zeros((50, 2)), np.zeros((50, 2)), 2, S, 1.0,
                                      rng(11))
        box = Box((0.1, -0.2), 0.9)
        got = bridge.path_stay_probability(paths[:, :, 0], -0.8, 1.0, tau)
        want = [bridge.path_stay_probability(p[:, 0], -0.8, 1.0, tau) for p in paths]
        assert np.array_equal(got, want)
        got = bridge.box_stay_probability(paths, box, tau)
        want = [bridge.box_stay_probability(p, box, tau) for p in paths]
        assert np.array_equal(got, want)
        assert 0.0 < np.count_nonzero(got) < len(got)  # both branches are covered


class TestDeviationTail:
    def test_skorohod_value_frozen(self):
        got = bridge.max_deviation_tail(1.0, 1, 0.0, 1.0)
        series = 2.0 * sum((-1) ** (j - 1) * math.exp(-2.0 * j * j)
                           for j in range(1, 40))
        assert abs(got - series) < 1e-14
        assert abs(got - 0.2700) < 1e-4

    def test_large_threshold_vanishes(self):
        assert bridge.max_deviation_tail(10.0, 1, 0.0, 1.0) < 1e-8

    def test_monotone_in_threshold(self):
        vals = [bridge.max_deviation_tail(a, 1, 0.0, 1.0)
                for a in (0.5, 1.0, 1.5, 2.0)]
        assert all(x > y for x, y in zip(vals, vals[1:]))

    def test_displacement_symmetry(self):
        a = bridge.max_deviation_tail(1.0, 2, 0.6, 1.0)
        b = bridge.max_deviation_tail(1.0, 2, -0.6, 1.0)
        assert abs(a - b) < 1e-12

    def test_displacement_beyond_threshold_is_certain(self):
        assert bridge.max_deviation_tail(0.5, 1, 0.8, 1.0) == 1.0

    def test_empirical_agreement_k1(self):
        g = rng(8)
        for a in (0.5, 1.0, 1.5):
            want = bridge.max_deviation_tail(a, 1, 0.0, 1.0)
            est, se = bridge.empirical_max_deviation_tail(a, 1, 0.0, 1.0, 16,
                                                          20000, g)
            assert abs(est - want) <= 4.0 * max(se, 1e-12)

    def test_empirical_agreement_k2(self):
        # k=2 goes through the quadrature over the first-leg endpoint
        g = rng(9)
        want = bridge.max_deviation_tail(1.0, 2, 0.0, 1.0)
        est, se = bridge.empirical_max_deviation_tail(1.0, 2, 0.0, 1.0, 16,
                                                      20000, g)
        assert abs(est - want) <= 4.0 * max(se, 1e-12)


class TestUnderflowingFreeTerm:
    # the free term exp(-y^2 / (2 tau)) underflows to 0: each image is taken
    # over it in closed form, so nothing divides by it
    def test_first_leg_tail_near_the_barrier(self):
        # one image dominates: exp(-2 a (a - y) / beta) = exp(-600)
        got = bridge.max_deviation_tail(1.5, 1, 1.3, 0.001)
        assert got == pytest.approx(math.exp(-2.0 * 1.5 * (1.5 - 1.3) / 0.001), rel=1e-12)

    def test_first_leg_tail_of_a_two_leg_bridge(self):
        # the first leg ends near y / k = 0.935, far below the threshold
        got = bridge.max_deviation_tail(3.1, 2, 1.87, 0.00108)
        assert 0.0 <= got < 1e-300

    def test_slice_stay_probability(self):
        assert bridge.slice_stay_probability(-1, 1, -0.9, 0.95, 0.001) == 1.0
        # near the upper barrier only one reflected image counts
        got = bridge.slice_stay_probability(-1.0, 1.0, -0.9, 0.999, 0.001)
        want = -math.expm1(-2.0 * (1.0 + 0.9) * (1.0 - 0.999) / 0.001)
        assert abs(got - want) <= 1e-12


def _reference_tail(a, k, y, beta, n_points=40001):
    """max_deviation_tail without quad: the first leg's image sum in numpy and,
    for k > 1, a Simpson rule split at +-a over the Gaussian law of its end u."""
    l = np.concatenate([np.arange(-40, 0), np.arange(1, 41)])[:, None]

    def images(u):
        return np.sum((-1.0) ** (l - 1) * np.exp(-2.0 * l * a * (l * a - u) / beta), axis=0)

    if k == 1:
        return float(images(np.array([y]))[0])
    mean, var = y / k, (k - 1) * beta / k
    far = abs(mean) + a + 12.0 * math.sqrt(var)
    total = 0.0
    for lo, hi in ((-far, -a), (-a, a), (a, far)):
        u = np.linspace(lo, hi, n_points)
        law = np.exp(-((u - mean) ** 2) / (2.0 * var))
        total += integrate.simpson(law * images(u) if lo == -a else law, x=u)
    return total / math.sqrt(2.0 * math.pi * var)


class TestDeviationTailReference:
    # the last two points have a first-leg law narrow against the interval
    @pytest.mark.parametrize("a,k,y,beta", [(1.0, 1, 0.0, 1.0), (1.0, 2, 0.6, 1.0),
                                            (0.5, 3, 0.3, 0.2), (0.9, 4, -0.5, 0.3),
                                            (0.51, 2, 1.0, 0.002), (0.6, 3, 1.5, 0.003)])
    def test_matches_an_independent_reference(self, a, k, y, beta):
        assert abs(bridge.max_deviation_tail(a, k, y, beta)
                   - _reference_tail(a, k, y, beta)) <= 1e-8

    @settings(max_examples=200, deadline=None)
    @given(st.floats(math.log(1e-3), math.log(20.0)), st.floats(0.05, 4.0),
           st.floats(-1.0, 1.0, exclude_min=True, exclude_max=True), st.sampled_from([1, 2, 3]))
    def test_whole_beta_range(self, log_beta, a, frac, k):
        beta, y = math.exp(log_beta), frac * a
        got = bridge.max_deviation_tail(a, k, y, beta)
        assert math.isfinite(got) and 0.0 <= got <= 1.0
        if k == 1:
            assert abs(got - (1.0 - bridge.slice_stay_probability(-a, a, 0.0, y, beta))) <= 1e-12


class TestStayProbability:
    def test_slice_survival_bounds(self):
        p = bridge.slice_stay_probability(-1.0, 1.0, 0.0, 0.1, 0.05)
        assert 0.0 < p <= 1.0

    def test_endpoint_outside_gives_zero(self):
        assert bridge.slice_stay_probability(-1.0, 1.0, -1.5, 0.0, 0.1) == 0.0

    def test_tight_interval_suppresses(self):
        wide = bridge.slice_stay_probability(-2.0, 2.0, 0.0, 0.0, 0.5)
        tight = bridge.slice_stay_probability(-0.2, 0.2, 0.0, 0.0, 0.5)
        assert tight < wide

    def test_path_stay_probability_product(self):
        samples = np.array([0.0, 0.1, -0.05, 0.0])
        per = [bridge.slice_stay_probability(-1.0, 1.0, samples[i], samples[i + 1],
                                             0.25) for i in range(3)]
        got = bridge.path_stay_probability(samples, -1.0, 1.0, 0.25)
        assert abs(got - per[0] * per[1] * per[2]) < 1e-14

    @pytest.mark.parametrize("r", [16.0, 1.0, 0.2, 0.04])
    def test_slice_agrees_with_many_images(self, r):
        # reference: 401 direct and 401 reflected images, each taken over the
        # free term in closed form, so no ratio of small exponentials
        lo, h, tau = -0.3, 0.6, 0.36 / r
        fracs = np.array([1e-3, 0.02, 0.3, 0.5, 0.97, 0.999])
        us, vs = (h * g for g in np.meshgrid(fracs, fracs))
        n = np.arange(-200, 201)[:, None, None]
        want = (np.exp(-2.0 * n * h * (n * h + vs - us) / tau).sum(axis=0)
                - np.exp(-2.0 * (us + n * h) * (vs + n * h) / tau).sum(axis=0))
        got = bridge.slice_stay_probability(lo, lo + h, lo + us, lo + vs, tau)
        assert np.max(np.abs(got - np.clip(want, 0.0, 1.0))) <= 1e-12

    def test_box_stay_probability_splits_coordinates(self):
        samples = np.array([[0.0, 0.2], [0.1, -0.1], [0.0, 0.2]])
        box = Box((0.0, 0.0), 1.0)
        got = bridge.box_stay_probability(samples, box, 0.5)
        x = bridge.path_stay_probability(samples[:, 0], -1.0, 1.0, 0.5)
        y = bridge.path_stay_probability(samples[:, 1], -1.0, 1.0, 0.5)
        assert abs(got - x * y) < 1e-14


class TestTailEnvelope:
    def test_fit_bounds_all_tails(self):
        params = ModelParams(2, 1, 1.0, (0.5,), [[zero_potential()]])
        box = Box((0.0, 0.0), 1.0)
        a_grid = (1.0, 2.0, 3.0, 4.0)
        c0, c1 = bridge.fit_gaussian_tail_envelope(params, box, 8, a_grid)
        assert c0 > 0.0 and c1 > 0.0
        for k in range(1, 9):
            for a in a_grid:
                tail = bridge.max_deviation_tail(a, k, 0.0, 1.0)
                assert tail <= c0 * math.exp(-c1 * a * a) + 1e-12

    def test_single_point_grid_rejected(self):
        params = ModelParams(2, 1, 1.0, (0.5,), [[zero_potential()]])
        box = Box((0.0, 0.0), 1.0)
        with pytest.raises(ValueError, match="two grid points"):
            bridge.fit_gaussian_tail_envelope(params, box, 1, (1.0,))
