import copy
import itertools
import math
import pickle

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import integrate, stats

from loopgas import bridge
from loopgas.analytic import HALF_ULP
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


class TestRefusals:
    @pytest.mark.parametrize("m", [-3, -1, 3, 4])
    def test_resample_leg_outside_the_legs(self, m):
        # m = -3 once redrew rows 2..4 of this path, and -1 or k hit an IndexError
        p = bridge.sample_bridge(np.zeros(2), np.zeros(2), 3, 4, 1.0, rng(6))
        g = rng(7)
        state = g.bit_generator.state
        with pytest.raises(ValueError, match=r"m = %d .* k = 3" % m):
            bridge.resample_leg(p, m, g)
        assert g.bit_generator.state == state

    @pytest.mark.parametrize("k,S", [(2.0, 4), (2.5, 4), (2, 4.0), (True, 4.5)])
    def test_samplers_refuse_counts_that_are_not_integers(self, k, S):
        # a float k or S once raised a TypeError from deep inside the draw
        for draw in (lambda g: bridge.sample_bridge([0.0], [0.5], k, S, 1.0, g),
                     lambda g: bridge.sample_bridges(np.zeros((3, 2)), np.ones((3, 2)),
                                                     k, S, 1.0, g)):
            g = rng(7)
            state = g.bit_generator.state
            with pytest.raises(ValueError, match="k and S must be positive integers"):
                draw(g)
            assert g.bit_generator.state == state

    def test_samplers_take_numpy_integers(self):
        k, S = np.int64(2), np.int32(4)
        one = bridge.sample_bridge([0.0], [0.5], k, S, 1.0, rng(3)).samples
        assert np.array_equal(one, bridge.sample_bridge([0.0], [0.5], 2, 4, 1.0, rng(3)).samples)
        many = bridge.sample_bridges(np.zeros((3, 1)), np.ones((3, 1)), k, S, 1.0, rng(3))
        assert np.array_equal(many, bridge.sample_bridges(np.zeros((3, 1)), np.ones((3, 1)),
                                                          2, 4, 1.0, rng(3)))
        p = bridge.sample_bridge(np.zeros(2), np.zeros(2), 3, 4, 1.0, rng(6))
        assert np.array_equal(bridge.resample_leg(p, np.int64(1), rng(7)).samples,
                              bridge.resample_leg(p, 1, rng(7)).samples)

    def test_resample_leg_refuses_a_float_leg(self):
        p = bridge.sample_bridge(np.zeros(2), np.zeros(2), 3, 4, 1.0, rng(6))
        with pytest.raises(ValueError, match=r"m = 1.0 .* k = 3"):
            bridge.resample_leg(p, 1.0, rng(7))

    @pytest.mark.parametrize("shape", [(3,), (2, 3, 1)])
    def test_sample_bridges_wants_endpoints_of_shape_n_d(self, shape):
        with pytest.raises(ValueError, match=r"endpoints need shape \(n, d\)"):
            bridge.sample_bridges(np.zeros(shape), np.zeros(shape), 1, 4, 1.0, rng())

    @pytest.mark.parametrize("beta", [0.0, -1.0])
    def test_sample_bridge_without_positive_beta(self, beta):
        with pytest.raises(ValueError, match="beta must be > 0"):
            bridge.sample_bridge([0.0], [0.5], 1, 4, beta, rng())

    @pytest.mark.parametrize("beta", [0.0, -1.0])
    def test_sample_bridges_without_positive_beta(self, beta):
        with pytest.raises(ValueError, match="beta must be > 0"):
            bridge.sample_bridges(np.zeros((3, 2)), np.ones((3, 2)), 1, 4, beta, rng())


class TestSinglePathLane:
    # sample_bridge takes a list of Python floats as it is and sends any
    # other endpoint through numpy: every form gives the same path and stream
    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("k,S", [(1, 4), (2, 4), (2, 60)])  # (2, 60): level walk at d = 3
    def test_endpoint_forms_give_one_path(self, d, k, S):
        x = [0.25, -1.0, 2.0][:d]
        y = [-0.5, 3.0, 0.125][:d]
        forms = [(x, y), ([int(c) if c == int(c) else c for c in x], y),
                 ([np.float64(c) for c in x], [np.float64(c) for c in y]),
                 (tuple(x), tuple(y)), (np.array(x), np.array(y)),
                 (np.array([x]), np.array([y]))]
        if d == 1:
            forms.append((x[0], y[0]))
        g_ref = rng(5)
        want = stack_walk_bridge(np.array(x), np.array(y), k, S, 0.7, g_ref)
        for xf, yf in forms:
            g = rng(5)
            got = bridge.sample_bridge(xf, yf, k, S, 0.7, g).samples
            assert got.dtype == np.float64 and got.shape == (k * S + 1, d)
            assert np.array_equal(got.view(np.int64), want.view(np.int64))
            assert g.bit_generator.state == g_ref.bit_generator.state

    def test_endpoint_lists_are_not_changed(self):
        x, y = [0.25, -1.0], [0.5, 0.5]
        p = bridge.sample_bridge(x, y, 2, 4, 1.0, rng())
        assert x == [0.25, -1.0] and y == [0.5, 0.5]
        p.samples[0] = 9.0
        assert x == [0.25, -1.0]

    @pytest.mark.parametrize("x,y,k,S,match", [
        ([0.0, 1.0], [0.5], 1, 4, "endpoint dimensions differ"),
        ([0.0], np.zeros(2), 1, 4, "endpoint dimensions differ"),
        ([0.0], [1.0], 0, 4, "k and S must be positive integers"),
        ([0.0], [1.0], 1, 0, "k and S must be positive integers"),
        ([0.0, "a"], [1.0, 2.0], 1, 4, "could not convert"),
    ])
    def test_errors_unchanged(self, x, y, k, S, match):
        with pytest.raises(ValueError, match=match):
            bridge.sample_bridge(x, y, k, S, 1.0, rng())

    def test_bridge_path_has_slots_and_copies(self):
        p = bridge.sample_bridge([0.25, -1.0], [0.5, 0.5], 3, 4, 0.7, rng(2))
        assert not hasattr(p, "__dict__")
        with pytest.raises(AttributeError):
            p.colour = "red"
        for q in (pickle.loads(pickle.dumps(p)), copy.deepcopy(p), copy.copy(p)):
            assert type(q) is bridge.BridgePath
            assert (q.k, q.slices_per_beta, q.beta) == (3, 4, 0.7)
            assert np.array_equal(q.samples, p.samples)
        assert copy.deepcopy(p).samples is not p.samples


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


def plain_stay_probability(lo, hi, u, v, tau):
    """slice_stay_probability as the plain sum of every image term, one
    fresh array per operation, kept as the oracle.

    Returns the probability, and for each element inside the interval the
    unclipped total and the least exponent of its terms (NaN outside).
    """
    h = hi - lo
    us = np.asarray(u, dtype=float) - lo
    vs = np.asarray(v, dtype=float) - lo
    inside = (us > 0) & (us < h) & (vs > 0) & (vs < h)
    total = np.zeros(np.broadcast(us, vs).shape)
    least = np.zeros(total.shape)
    r, N = h * h / tau, 1
    if r <= 0.1:
        return total, np.where(inside, total, np.nan), np.where(inside, least, np.nan)
    while 4.0 * math.exp(-2.0 * N * (N + 1) * r) > HALF_ULP * -math.expm1(-4.0 * (N + 1) * r):
        N += 1
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(-N - 1, N + 1):
            if n >= -N:
                x = -2.0 * n * h * (n * h + vs - us) / tau
                total += np.exp(x)
                least = np.minimum(least, x)
            x = -2.0 * (us + n * h) * (vs + n * h) / tau
            total -= np.exp(x)
            least = np.minimum(least, x)
    return (np.where(inside, np.clip(total, 0.0, 1.0), 0.0), np.where(inside, total, np.nan),
            np.where(inside, least, np.nan))


# r = h^2 / tau: 0 is returned up to 0.1; N = 1 from about 9.7 on, and
# exponents below -708 inside the interval from about 89 on
R_VALUES = (0.05, 0.1, 0.2, 1.0, 3.3, 9.7, 16.0, 64.0, 144.0, 180.0, 360.0, 365.0, 3000.0)


def barrier_points(lo, h):
    """Endpoints on the barriers, 1e-12 h on either side of each, and inside."""
    return np.array([lo, lo + h, lo + 1e-12 * h, lo + h - 1e-12 * h, lo - 1e-12 * h,
                     lo + h + 1e-12 * h, lo + 0.5 * h, lo + 0.999 * h, lo + 1e-7 * h])


def endpoint_batch(g, lo, h, m):
    """m endpoints: uniform inside, up to 0.3 h outside, at barrier_points, or
    within h * 10^-300..h * 0.1 of the lower barrier."""
    kind = g.integers(4, size=m)
    return np.select([kind == 0, kind == 1, kind == 2],
                     [g.uniform(lo, lo + h, m), g.uniform(lo - 0.3 * h, lo + 1.3 * h, m),
                      g.choice(barrier_points(lo, h), m)],
                     lo + h * 10.0 ** g.uniform(-300.0, -1.0, m))


def assert_same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape and got.dtype == want.dtype == np.float64
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


class TestStayProbabilityOracle:
    # the images are summed on scratch arrays, the n = 0 one as 1.0, images
    # below exp(-708) are left out and tiny totals summed again: the doubles
    # must be the plain sum's, bit for bit
    def test_random_batches_give_the_plain_sums_doubles(self):
        g = rng(21)
        least, tiny = math.inf, 0
        for r in R_VALUES:
            for _ in range(3):
                lo, h = g.uniform(-2.0, 1.0), math.exp(g.uniform(-2.0, 1.5))
                tau = h * h / r
                u, v = endpoint_batch(g, lo, h, 400), endpoint_batch(g, lo, h, 400)
                grid_u, grid_v = np.meshgrid(barrier_points(lo, h), barrier_points(lo, h))
                for a, b in ((u, v), (grid_u, grid_v), (u[:, None], v[None, :40])):
                    want, total, lows = plain_stay_probability(lo, lo + h, a, b, tau)
                    assert_same_bits(bridge.slice_stay_probability(lo, lo + h, a, b, tau), want)
                    least = min(least, np.nanmin(lows, initial=0.0))
                    tiny += np.count_nonzero((total > 0.0) & (total < bridge.TINY_TOTAL))
        # both rules are at work: left-out images and totals summed again
        assert least < bridge.EXP_FLOOR
        assert tiny > 0

    @pytest.mark.parametrize("r", [0.1, 3.3, 64.0, 360.0])
    def test_scalar_u_against_array_v(self, r):
        lo, h = -0.4, 1.3
        tau = h * h / r
        v = endpoint_batch(rng(4), lo, h, 500)
        for u in barrier_points(lo, h).tolist() + [lo - 0.2 * h, lo + 0.3 * h]:
            want, _, _ = plain_stay_probability(lo, lo + h, u, v, tau)
            assert_same_bits(bridge.slice_stay_probability(lo, lo + h, u, v, tau), want)
            want, _, _ = plain_stay_probability(lo, lo + h, v, u, tau)
            assert_same_bits(bridge.slice_stay_probability(lo, lo + h, v, u, tau), want)

    def test_scalars_and_empty_batches(self):
        for u, v in ((0.1, 0.2), (-1.0, 0.2), (0.999999999999, 0.999999999999)):
            want, _, _ = plain_stay_probability(-1.0, 1.0, u, v, 4.0 / 360.0)
            got = bridge.slice_stay_probability(-1.0, 1.0, u, v, 4.0 / 360.0)
            assert_same_bits(got, want)
        assert bridge.slice_stay_probability(-1.0, 1.0, np.zeros(0), np.zeros(0), 0.01).shape == (0,)

    def test_left_out_images_show_only_in_tiny_totals(self):
        # both ends 1e-12 h above the lower barrier at r = 360: the images
        # that remain after the 1.0 lie below exp(-708), and leaving them out
        # changes the (subnormal) total, which is why such totals are summed again
        lo, h, r = 0.0, 1.0, 360.0
        us = np.full(3, 1e-12 * h)
        vs = us * np.array([1.0, 2.0, 3.0])
        _, want, _ = plain_stay_probability(lo, lo + h, us, vs, h * h / r)
        assert np.all((want > 0.0) & (want < bridge.TINY_TOTAL))
        left_out = bridge._image_sum(np.zeros(3), us, vs, h, h * h / r, 1, bridge.EXP_FLOOR)
        assert not np.array_equal(left_out, want)
        assert_same_bits(bridge.slice_stay_probability(lo, lo + h, us, vs, h * h / r),
                         np.clip(want, 0.0, 1.0))

    def test_images_above_the_floor_are_kept(self):
        # after the 1.0 and reflected 0 cancel, direct 1 leaves a total near
        # 2^-957, above TINY_TOTAL, and reflected 1 (exponent near -695) still
        # moves it: a floor at -690 would change these doubles, -708 does not
        lo, h, r = 0.0, 1.0, 339.2
        us, vs = np.linspace(0.02, 0.03, 41), np.full(41, 1e-25)
        want, total, _ = plain_stay_probability(lo, lo + h, us, vs, h * h / r)
        assert np.all(total >= bridge.TINY_TOTAL)  # not summed again
        assert_same_bits(bridge.slice_stay_probability(lo, lo + h, us, vs, h * h / r), want)
        higher = bridge._image_sum(np.zeros(41), us, vs, h, h * h / r, 1, -690.0)
        assert not np.array_equal(higher, total)

    def test_exp_bits_do_not_depend_on_neighbours(self):
        # leaving images out changes what sits beside each exponent in the
        # array np.exp sees; every element must keep its bits
        g = rng(3)
        x = np.concatenate([g.uniform(-760.0, 0.0, 4000), g.uniform(-709.0, -707.0, 1000),
                            [0.0, -0.0, -708.0, -745.2, -800.0]])
        g.shuffle(x)
        want = np.exp(x).view(np.int64)
        for fill in (0.0, -0.0, -720.0, -800.0, -1.0):
            for keep in (g.random(x.size) < 0.5, np.arange(x.size) % 2 == 0,
                         x >= bridge.EXP_FLOOR):
                got = np.exp(np.where(keep, x, fill)).view(np.int64)
                assert np.array_equal(got[keep], want[keep])
        assert np.array_equal(np.exp(x[::3]).view(np.int64), want[::3])
        assert all(np.exp(x[i:i + 1]).view(np.int64)[0] == want[i] for i in range(0, x.size, 37))


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
