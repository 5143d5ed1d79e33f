import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from loopgas import loops as lps
from loopgas.bridge import BridgePath, sample_bridge
from loopgas.model import (PROFILES, Box, ExternalConfiguration, ModelParams,
                           PairPotential, zero_potential)

BETA = 1.0


def still_loop(anchor, k, S, type_index=0):
    """Loop whose path never moves: every sample equals the anchor."""
    anchor = np.asarray(anchor, dtype=float)
    samples = np.tile(anchor, (k * S + 1, 1))
    return lps.Loop(type_index, BridgePath(samples, k, S, BETA))


def square_well(height=1.0, range_=1.0, hard_core=0.0):
    return PairPotential(profile="square_well", hard_core=hard_core,
                         range_=range_, height=height)


def one_type(pot, z=0.5, d=2):
    return ModelParams(d, 1, BETA, (z,), [[pot]])


def free_one_type(z=0.5, d=2):
    return one_type(zero_potential(), z, d)


BOX = Box((0.0, 0.0), 8.0)


class TestLegGeometry:
    @pytest.mark.parametrize("k,S,d", [(1, 1, 1), (3, 4, 2), (2, 32, 3)])
    def test_legs_match_the_leg_slices(self, k, S, d):
        g = np.random.default_rng(k * S * d)
        x = g.normal(size=d)
        lp = lps.Loop(0, sample_bridge(x, x, k, S, BETA, g))
        mids, nodes, lo, hi = lp.legs
        for m in range(k):
            leg = lp.samples[m * S:(m + 1) * S + 1]
            assert np.array_equal(nodes[m], leg)
            assert np.array_equal(mids[m], 0.5 * (leg[:-1] + leg[1:]))
            assert np.array_equal(lo[m], leg.min(axis=0))
            assert np.array_equal(hi[m], leg.max(axis=0))


class TestBoxIndicators:
    def test_all_k1_trivially_avoid(self):
        box0 = Box((0.0, 0.0), 0.5)
        objs = [still_loop((0.0, 0.0), 1, 4)]  # anchored inside box0
        assert lps.avoids_box_at_step_times(objs, box0)

    def test_k2_midpoint_inside_fails(self):
        box0 = Box((0.0, 0.0), 0.5)
        lp = still_loop((0.0, 0.0), 2, 4)
        assert not lps.avoids_box_at_step_times([lp], box0)

    def test_k3_interior_outside_passes(self):
        box0 = Box((0.0, 0.0), 0.5)
        samples = np.tile(np.array([3.0, 3.0]), (3 * 2 + 1, 1))
        samples[0] = samples[-1] = np.array([0.0, 0.0])  # anchor inside box0
        p = lps.OpenPath(0, BridgePath(samples, 3, 2, BETA))
        assert lps.avoids_box_at_step_times([p], box0)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2 ** 31 - 1), st.sampled_from([1, 2, 3]))
    def test_confined_reads_the_bounds_exactly(self, seed, d):
        # samples on the wall, c +- half rounded, and one ulp to either side
        g = np.random.default_rng(seed)
        c, half = g.uniform(-5.0, 5.0, d), float(g.uniform(0.1, 3.0))
        box = Box(tuple(c), half)
        k, S = int(g.integers(1, 4)), int(g.integers(1, 5))
        samples = c + g.uniform(-half, half, (k * S + 1, d))
        wall = c + np.where(g.random(d) < 0.5, -half, half)
        nudge = g.choice([-np.inf, 0.0, np.inf], d)
        samples[int(g.integers(k * S + 1))] = np.where(nudge == 0.0, wall,
                                                       np.nextafter(wall, nudge))
        samples[-1] = samples[0]
        obj = lps.Loop(int(g.integers(2)), BridgePath(samples, k, S, BETA))
        want = bool(np.max(np.abs(samples - box.center_array)) <= half)
        assert lps.confined_to_box([obj], box) == want

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2 ** 31 - 1), st.sampled_from([1, 2, 3]))
    def test_meeting_keeps_every_object_with_a_sample_inside(self, seed, d):
        # a path around the box with one sample on the wall, c +- half
        # rounded, or one ulp to either side, and a loop that stays at that
        # sample: the path is kept when a sample is inside, the still loop
        # exactly then
        g = np.random.default_rng(seed)
        c, half = g.uniform(-5.0, 5.0, d), float(g.uniform(0.1, 3.0))
        box = Box(tuple(c), half)
        k, S = int(g.integers(1, 4)), int(g.integers(1, 5))
        samples = c + g.uniform(-3.0 * half, 3.0 * half, (k * S + 1, d))
        wall = c + np.where(g.random(d) < 0.5, -half, half)
        nudge = g.choice([-np.inf, 0.0, np.inf], d)
        point = np.where(nudge == 0.0, wall, np.nextafter(wall, nudge))
        samples[int(g.integers(k * S + 1))] = point
        path = lps.OpenPath(0, BridgePath(samples, k, S, BETA))
        still = still_loop(point, k, S)
        kept = lps.meeting_box([path, still], box)
        assert (path in kept) >= bool(box.contains(samples).any())
        assert (still in kept) == box.contains(point)

    def test_confined(self):
        box0 = Box((0.0, 0.0), 0.5)
        assert lps.confined_to_box([still_loop((0.2, 0.2), 2, 4)], box0)
        assert not lps.confined_to_box([still_loop((0.7, 0.0), 1, 4)], box0)
        assert lps.confined_to_box([], box0)


class TestInteractionEnergy:
    def test_free_gas_zero(self):
        objs = [still_loop((0.0, 0.0), 2, 4), still_loop((0.3, 0.0), 1, 4)]
        assert lps.interaction_energy(objs, free_one_type()) == 0.0

    def test_two_still_loops_in_range_give_beta(self):
        # square well of unit height: one leg pair in range at every slice
        m = one_type(square_well(1.0, 1.0))
        objs = [still_loop((0.0, 0.0), 1, 8), still_loop((0.5, 0.0), 1, 8)]
        h = lps.interaction_energy(objs, m)
        assert abs(h - BETA) < 1e-12

    def test_hard_core_violation_infinite(self):
        m = one_type(square_well(0.0, 0.4, hard_core=0.4))
        objs = [still_loop((0.0, 0.0), 1, 1), still_loop((0.2, 0.0), 1, 1)]
        assert lps.interaction_energy(objs, m) == math.inf

    def test_chain_rule(self):
        # conditional energy includes the target's internal energy, so the
        # joint energy telescopes either way round
        m = one_type(square_well(0.7, 1.2))
        a = [still_loop((0.0, 0.0), 2, 4)]
        b = [still_loop((0.5, 0.0), 1, 4), still_loop((-0.4, 0.3), 1, 4)]
        h_all = lps.interaction_energy(a + b, m)
        h_a = lps.interaction_energy(a, m)
        h_b = lps.interaction_energy(b, m)
        assert abs(h_all - (h_a + lps.interaction_energy(b, m, conditioning=a))) < 1e-10
        assert abs(h_all - (h_b + lps.interaction_energy(a, m, conditioning=b))) < 1e-10

    def test_cross_term_symmetry(self):
        m = one_type(square_well(0.7, 1.2))
        a = [still_loop((0.0, 0.0), 2, 4)]
        b = [still_loop((0.5, 0.0), 1, 4)]
        cross_ab = lps.interaction_energy(a, m, conditioning=b) \
            - lps.interaction_energy(a, m)
        cross_ba = lps.interaction_energy(b, m, conditioning=a) \
            - lps.interaction_energy(b, m)
        assert abs(cross_ab - cross_ba) < 1e-12
        # two leg pairs in range at weight 0.7 each
        assert abs(cross_ab - 2 * 0.7 * BETA) < 1e-12

    def test_monotone_in_separation(self):
        m = one_type(square_well(1.0, 1.0))
        base = [still_loop((0.0, 0.0), 1, 4)]
        near = lps.interaction_energy(base, m,
                                      conditioning=[still_loop((0.3, 0.0), 1, 4)])
        far = lps.interaction_energy(base, m,
                                     conditioning=[still_loop((2.0, 0.0), 1, 4)])
        assert near > far == 0.0

    def test_external_points(self):
        m = one_type(square_well(1.0, 1.0))
        box = Box((0.0, 0.0), 1.0)
        ext = ExternalConfiguration(box, [np.array([[1.5, 0.0]])], max_range=1.0)
        target = [still_loop((0.9, 0.0), 1, 8)]
        h = lps.interaction_energy(target, m, external=ext)
        assert abs(h - BETA) < 1e-12  # distance 0.6 inside the well everywhere

    def test_conservative_hard_core_sees_external_points(self):
        # the straight segment passes 0.07 from the point, its midpoint 0.455
        m = one_type(square_well(0.0, 0.1, hard_core=0.1))
        box = Box((0.0, 0.0), 1.0)
        target = [lps.OpenPath(0, BridgePath(np.array([[-0.5, 0.95], [0.5, 0.95]]),
                                             1, 1, BETA))]
        point = np.array([[0.45, 1.02]])
        ext = ExternalConfiguration(box, [point], max_range=0.1)
        as_path = [lps.OpenPath(0, BridgePath(np.tile(point, (2, 1)), 1, 1, BETA))]
        for conservative, want in ((True, math.inf), (False, 0.0)):
            assert lps.interaction_energy(target, m, conditioning=as_path,
                                          conservative=conservative) == want
            assert lps.interaction_energy(target, m, external=ext,
                                          conservative=conservative) == want

    def test_same_object_legs_interact(self):
        # two legs of one loop sitting on top of each other: k=2 still loop
        m = one_type(square_well(1.0, 1.0))
        h = lps.interaction_energy([still_loop((0.0, 0.0), 2, 8)], m)
        assert abs(h - BETA) < 1e-12

    def test_mixed_grid_rejected(self):
        m = one_type(square_well(1.0, 1.0))
        a = [still_loop((0.0, 0.0), 1, 4)]
        b = [still_loop((0.5, 0.0), 1, 8)]
        with pytest.raises(ValueError):
            lps.interaction_energy(a, m, conditioning=b)


def brute_force_energy(target, params, conditioning, conservative):
    """Unfiltered equal-time pair sum, one leg pair at a time.

    Every unordered pair of target legs and every (target leg, conditioning
    leg) pair is evaluated, with the program's distance and segment-gap
    arithmetic per slice and no range filter.
    """
    def legs(objs):
        out = []
        for o in objs:
            s, S = o.samples, o.path.slices_per_beta
            for m in range(o.k):
                nodes = s[m * S: (m + 1) * S + 1]
                out.append((o.type_index, 0.5 * (nodes[:-1] + nodes[1:]), nodes))
        return out

    def segment_gap_sq(na, nb):
        best = math.inf
        for i in range(na.shape[0] - 1):
            d0, d1 = na[i] - nb[i], na[i + 1] - nb[i + 1]
            v = d1 - d0
            vv = float(np.sum(v * v))
            t = min(max(-float(np.sum(d0 * v)) / vv, 0.0), 1.0) if vv > 0 else 0.0
            gap = d0 + t * v
            best = min(best, float(np.sum(gap * gap)))
        return best

    tl, cl = legs(target), legs(conditioning)
    pairs = [(a, b) for i, a in enumerate(tl) for b in tl[i + 1:]]
    pairs += [(a, b) for a in tl for b in cl]
    dt = params.beta / target[0].path.slices_per_beta
    total = 0.0
    for (ta, ma, na), (tb, mb, nb) in pairs:
        pot = params.potentials[ta][tb]
        if conservative and pot.hard_core > 0 \
                and segment_gap_sq(na, nb) < pot.hard_core ** 2:
            return math.inf
        d = ma - mb
        total += float(np.sum(pot.evaluate(np.sqrt(np.sum(d * d, axis=-1))))) * dt
    return total


def profile_potential(profile, hard_core, range_):
    if hard_core == range_:  # a pure hard core, whatever the profile
        return PairPotential(hard_core=hard_core, range_=range_)
    if profile == "table":
        return PairPotential(profile="table", hard_core=hard_core, range_=range_,
                             table_r=np.linspace(hard_core, range_, 5),
                             table_v=[1.0, 0.7, 0.4, 0.15, 0.0])
    return PairPotential(profile=profile, hard_core=hard_core, range_=range_,
                         height=1.3)


FACTORS = [0.5, 1.0 - 1e-9, 1.0, 1.5]  # box gaps in units of the reach


class TestRangeFilter:
    """Every pair of distinct objects skips legs beyond reach; the energy must
    equal the full sum."""

    @settings(max_examples=120, deadline=None)
    @given(st.integers(0, 2 ** 31 - 1), st.sampled_from(PROFILES), st.booleans(),
           st.sampled_from([0.0, 0.25, 1.0]), st.sampled_from(FACTORS), st.booleans())
    def test_matches_unfiltered_sum(self, seed, profile, conservative, core, factor,
                                    still):
        g = np.random.default_rng(seed)
        S = 4
        ranges = {(0, 0): 0.8, (0, 1): 0.5, (1, 1): 1.1}
        pots = {key: profile_potential(profile, core * r, r) for key, r in ranges.items()}
        table = [[pots[(0, 0)], pots[(0, 1)]], [pots[(0, 1)], pots[(1, 1)]]]
        params = ModelParams(2, 2, BETA, (0.5, 0.5), table)

        def random_object(anchor, still=False, k=None):
            j, k = int(g.integers(2)), k or int(g.integers(1, 4))
            if still:  # every sample at the anchor: its box is a point
                samples = np.tile(anchor, (k * S + 1, 1))
                return lps.Loop(j, BridgePath(samples, k, S, BETA))
            if g.random() < 0.5:
                return lps.Loop(j, sample_bridge(anchor, anchor, k, S, BETA, g))
            end = anchor + g.normal(size=2)
            return lps.OpenPath(j, sample_bridge(anchor, end, k, S, BETA, g))

        def beside(obj, other, factor):
            # obj moved so that its box sits factor * reach to the right of
            # other's box: inside, at the edge of or beyond reach; for still
            # objects the boxes are points, so the gap is their distance
            pot = table[obj.type_index][other.type_index]
            reach = max(pot.range, pot.hard_core)
            lo_o, hi_o = other.samples.min(axis=0), other.samples.max(axis=0)
            lo = obj.samples.min(axis=0)
            p = obj.path
            path = BridgePath(p.samples + [hi_o[0] - lo[0] + factor * reach, lo_o[1] - lo[1]],
                              p.k, p.slices_per_beta, p.beta)
            return type(obj)(obj.type_index, path)

        conditioning = [random_object(g.uniform(-2.0, 2.0, 2), still)]
        conditioning += [random_object(g.uniform(-2.0, 2.0, 2))
                         for _ in range(int(g.integers(0, 6)))]
        # each target beside the one before it, the first beside a
        # conditioning object
        target = [beside(random_object(np.zeros(2), still), conditioning[0], factor)]
        for _ in range(int(g.integers(1, 3))):
            target.append(beside(random_object(np.zeros(2), still), target[-1],
                                 g.choice(FACTORS)))
        # external points, each a leg that stays put: one beside a target,
        # the rest anywhere; the box they surround lies far off
        external, points = None, []
        if g.random() < 0.75:
            points = [beside(random_object(np.zeros(2), True, k=1),
                             target[int(g.integers(len(target)))], g.choice(FACTORS))]
            points += [random_object(g.uniform(-2.0, 2.0, 2), True, k=1)
                       for _ in range(int(g.integers(0, 4)))]
            external = ExternalConfiguration(
                Box((50.0, 50.0), 1.0), [[p.anchor for p in points if p.type_index == j]
                                         for j in range(2)], max_range=math.inf)
        want = brute_force_energy(target, params, conditioning + points, conservative)
        # and walked through a table with one more object, left out, as a
        # chain walks its moves
        extra = random_object(g.uniform(-2.0, 2.0, 2))
        at = int(g.integers(len(conditioning) + 1))
        stacked = lps.LegTable(conditioning[:at] + [extra] + conditioning[at:],
                               lps.cell_side(params))
        for got in (lps.interaction_energy(target, params, conditioning=conditioning,
                                           external=external, conservative=conservative),
                    lps.energy_lane(params, conservative).walk(target, stacked, [extra],
                                                                external, None)):
            if math.isinf(want):
                assert got == math.inf
            else:
                assert abs(got - want) <= 1e-12 * abs(want)

    def test_objects_beyond_reach_make_no_cross_pair_call(self, monkeypatch):
        # a whole configuration whose loops and external point are all beyond
        # each other's reach: only each loop's own legs are valued
        m = one_type(square_well(1.0, 1.0))
        loops = [still_loop((3.0 * i, 0.0), 2, 4) for i in range(-2, 3)]
        ext = ExternalConfiguration(BOX, [np.array([[0.0, 9.0]])], max_range=1.0)
        calls = []
        pair_values = lps._pair_values
        monkeypatch.setattr(lps, "_pair_values", lambda pot, a, ia, b, ib, c:
                            calls.append(a is b) or pair_values(pot, a, ia, b, ib, c))
        h = lps.interaction_energy(loops, m, external=ext)
        assert abs(h - 5 * BETA) < 1e-12  # each loop's two legs on top of each other
        assert calls == [True] * 5


def stacked_near_energy(total, A, family, left_out, P, dt, conservative, split,
                        after=None, own=False):
    """The walk's valuation of one target against a family on numpy
    (loops._Walk._near with SumsLane) as it stood before the cell index: per
    type, the legs of the whole family stacked in family order and every
    row scanned.

    Rows of left-out objects, and rows of the first after[j] type-j
    objects if after is given, are masked out.
    """
    by_type = {}
    for o in family:
        by_type.setdefault(o.type_index, []).append(o)
    a = A.legs
    for j, objs in by_type.items():
        pot = P[A.type_index][j]
        if pot.is_zero():
            continue
        reach = max(pot.range, pot.hard_core) * (1.0 + lps._REACH_SLACK)
        start = np.cumsum([0] + [o.k for o in objs])
        legs = tuple(np.concatenate(parts) for parts in zip(*(o.legs for o in objs)))
        _, _, lo, hi = legs
        _, _, olo, ohi = a
        near = np.maximum.reduce(np.maximum(lo - ohi[:, None], olo[:, None] - hi),
                                 axis=-1) < reach
        if after:
            near[:, :start[after[j]]] = False
        for i, o in enumerate(objs):
            if any(o is x for x in left_out):
                near[:, start[i]:start[i + 1]] = False
        ia, ib = np.nonzero(near)
        if ia.size == 0:
            continue
        vals = lps._pair_values(pot, a, ia, legs, ib, conservative)
        e = lps._integrated(vals, dt)
        total += e
        if math.isinf(total):
            break
        if own:
            lps._record(split, A, A, e)
        elif split is not None and e:
            per = np.bincount(start.searchsorted(ib, side="right") - 1,
                              weights=np.add.reduce(vals, axis=1)) * dt
            for o in np.flatnonzero(per).tolist():
                lps._record(split, A, objs[o], float(per[o]))
    return total


def stacked_energy(target, params, family, left_out, external, conservative, split):
    """interaction_energy as it stood before the cell index (stacked_near_energy),
    with conditioning the family less the objects left out."""
    S = target[0].path.slices_per_beta
    dt, P = params.beta / S, params.potentials
    seen = dict.fromkeys(range(params.n_types), 0)
    total = 0.0
    for A in target:
        pot = P[A.type_index][A.type_index]
        if not pot.is_zero() and A.k > 1:
            ia, ib = np.triu_indices(A.k, 1)
            e = lps._integrated(lps._pair_values(pot, A.legs, ia, A.legs, ib, conservative), dt)
            total += e
            if math.isinf(total):
                return math.inf
            lps._record(split, A, A, e)
        seen[A.type_index] += 1
        if len(target) > 1:
            total = stacked_near_energy(total, A, target, (), P, dt, conservative, split, seen)
            if math.isinf(total):
                return math.inf
    still = [lps.OpenPath(j, BridgePath(np.tile(x, (S + 1, 1)), 1, S, params.beta))
             for j, points in enumerate(external.points) for x in points]
    for objs, out, own in ((family, left_out, False), (still, (), True)):
        for A in target:
            total = stacked_near_energy(total, A, objs, out, P, dt, conservative, split,
                                        own=own)
            if math.isinf(total):
                return math.inf
    return total


def on_lattice(samples):
    """Samples rounded to the lattice of spacing 0.25."""
    return np.round(samples * 4.0) / 4.0


def lattice_family(g, d, S, spread=3.0):
    """Targets, a family, the objects left out of it and external points,
    all on the lattice of spacing 0.25, anchored within spread of the
    origin on each axis, k <= 6."""
    def random_object():
        j, k = int(g.integers(2)), int(g.integers(1, 7))
        x = on_lattice(g.uniform(-spread, spread, d))
        if g.random() < 0.6:
            return lps.Loop(j, BridgePath(on_lattice(sample_bridge(x, x, k, S, BETA, g)
                                                     .samples), k, S, BETA))
        end = x + g.normal(0.0, 0.5, d)
        return lps.OpenPath(j, BridgePath(on_lattice(sample_bridge(x, end, k, S, BETA, g)
                                                     .samples), k, S, BETA))

    conditioning = [random_object() for _ in range(int(g.integers(0, 9)))]
    target = [random_object() for _ in range(int(g.integers(1, 4)))]
    left_out = [random_object() for _ in range(int(g.integers(0, 3)))]
    family = list(conditioning)
    for o in left_out:
        family.insert(int(g.integers(len(family) + 1)), o)
    box = Box((0.0,) * d, 1.0)
    points = [on_lattice(g.uniform(-spread, spread, (int(g.integers(0, 4)), d)))
              for _ in range(2)]
    points = [p[~box.contains(p)] for p in points]  # outside the box, as required
    return target, family, left_out, ExternalConfiguration(box, points, max_range=math.inf)


def cored_family(g, d, S, params, shifted=0.7):
    """lattice_family's sparse draw with legs set just outside params' pure
    hard cores of diameter 0.5, 1 and 0.75, where shifted copies put
    midpoints at distance exactly D (r = D is no overlap): each target, with
    probability shifted, becomes an open path whose legs are copies of one
    leg, each shifted one core further, and copies of the targets sit one
    core beside them."""
    cores = [[p.hard_core for p in row] for row in params.potentials]
    target, family, left_out, external = lattice_family(g, d, S, spread=3.0 * d)

    def shift(D):
        v = np.zeros(d)
        v[int(g.integers(d))] = D * g.choice([-1.0, 1.0])
        return v

    for i, A in enumerate(target):
        if g.random() < shifted:  # legs shifted one core apart
            j, k = A.type_index, int(g.integers(1, 7))
            v = shift(cores[j][j])
            x = on_lattice(g.uniform(-3.0 * d, 3.0 * d, d))
            leg = on_lattice(sample_bridge(x, x + v, 1, S, BETA, g).samples)
            samples = np.concatenate([leg[:-1] + m * v for m in range(k)]
                                     + [leg[-1:] + (k - 1) * v])
            target[i] = A = lps.OpenPath(j, BridgePath(samples, k, S, BETA))
        for _ in range(int(g.integers(0, 3))):  # copies one core beside A
            j = int(g.integers(2))
            copy = type(A)(j, BridgePath(A.samples + shift(cores[A.type_index][j]),
                                         A.k, S, BETA))
            family.insert(int(g.integers(len(family) + 1)), copy)
    return target, family, left_out, external


def two_type_params(d, profile, core):
    """Two types with ranges 0.5, 1 (across) and 0.75, each with a core of
    core times its range: pure hard cores at core = 1."""
    ranges = {(0, 0): 0.5, (0, 1): 1.0, (1, 1): 0.75}
    pots = {key: profile_potential(profile, core * r, r) for key, r in ranges.items()}
    return ModelParams(d, 2, BETA, (0.5, 0.5), [[pots[(0, 0)], pots[(0, 1)]],
                                                [pots[(0, 1)], pots[(1, 1)]]])


def filing(table):
    """A LegTable's index as plain data: its objects in rank order, and per
    type and cell the objects filed there in rank order."""
    ranks, cells = {}, {}
    for j, of_type in table.types.items():
        for key, cell in of_type.items():
            cells[j, key] = sorted(cell, key=cell.__getitem__)
            for o, rank in cell.items():
                assert ranks.setdefault(o, rank) == rank  # one rank per object
    return sorted(ranks, key=ranks.__getitem__), cells


# 2-d bounds, [lo, hi] per axis, over a few cells of side 1
BOUNDS = st.lists(st.tuples(st.floats(-3.0, 3.0), st.floats(0.0, 2.5)).map(
    lambda t: [t[0], t[0] + t[1]]), min_size=2, max_size=2)


def bounded(type_index, bounds):
    """An open path of one step whose bounds are the given ones."""
    samples = np.array([[lo for lo, _ in bounds], [hi for _, hi in bounds]])
    return lps.OpenPath(type_index, BridgePath(samples, 1, 1, BETA))


class TestCellIndex:
    """The energy through the cell index against the stacked scan of every leg.

    Coordinates lie on a lattice of spacing 0.25 around the origin, so they
    fall on cell boundaries (the conditioning is indexed with side 1, the
    later targets and the external points with cell_side, 2), go negative,
    and put boxes at gaps of exactly a range.  The pairs must come in the same order with
    the same legs, and the energy and its split must be equal, not close.
    Pairs tested on Python floats (loops._core_overlap) are recorded as the
    midpoints they compare, in the form _pair_values is given them.
    """

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 2 ** 31 - 1), st.sampled_from([1, 2, 3]),
           st.sampled_from(PROFILES), st.booleans(), st.sampled_from([0.0, 0.5, 1.0]))
    def test_matches_the_stacked_scan(self, seed, d, profile, conservative, core):
        g = np.random.default_rng(seed)
        S = int(g.choice([1, 2, 4]))
        params = two_type_params(d, profile, core)
        assert lps.cell_side(params) == 2.0
        # dense draws, then sparse ones with anchors spread over 3 d, where
        # fewer pure-core calls stop at an overlap between loops
        for spread in (3.0, 3.0 * d):
            self.assert_same_scan(params, conservative, *lattice_family(g, d, S, spread))
        if core == 1.0:  # pure cores, every target's legs just outside
            # them, so that more calls compare whole pair sequences
            self.assert_same_scan(params, conservative,
                                  *cored_family(g, d, S, params, shifted=1.0))

    @staticmethod
    def assert_same_scan(params, conservative, target, family, left_out, external):
        runs = []
        for energy in (
                lambda split: lps.energy_lane(params, conservative).walk(
                    target, lps.LegTable(family, 1.0), left_out, external, split),
                lambda split: stacked_energy(target, params, family, left_out, external,
                                             conservative, split)):
            pairs, split = [], {}
            pair_values, core_overlap = lps._pair_values, lps._core_overlap

            def tested(leg_pairs, D):
                leg_pairs = list(leg_pairs)
                if leg_pairs:
                    pairs.append(tuple(np.array([ma for (_, ma) in legs]) for legs in
                                       zip(*leg_pairs)))
                return core_overlap(leg_pairs, D)

            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(lps, "_pair_values", lambda pot, a, ia, b, ib, c: pairs.append(
                    (a[0][ia], b[0][ib])) or pair_values(pot, a, ia, b, ib, c))
                mp.setattr(lps, "_core_overlap", tested)
                runs.append((energy(split), pairs, split))
        (h, pairs, split), (want_h, want_pairs, want_split) = runs
        assert h == want_h
        assert split == want_split
        assert len(pairs) == len(want_pairs)
        for (a, b), (wa, wb) in zip(pairs, want_pairs):
            assert np.array_equal(a, wa) and np.array_equal(b, wb)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2 ** 31 - 1), st.sampled_from([1, 2, 3]))
    def test_the_core_lane_matches_numpy(self, seed, d):
        # pure hard cores with legs just outside them (cored_family).
        # Tested on Python floats, the energy and split must be those of
        # the stacked scan on numpy, and the energy that of the sums lane
        # walked on numpy over the same table and left-out list
        g = np.random.default_rng(seed)
        S = int(g.choice([1, 2, 4]))
        params = two_type_params(d, "square_well", 1.0)
        target, family, left_out, external = cored_family(g, d, S, params)
        lane = lps.energy_lane(params, False)
        assert isinstance(lane, lps.CoreLane)
        split, want_split = {}, {}
        h = lane.walk(target, lps.LegTable(family, 1.0), left_out, external, split)
        assert h == stacked_energy(target, params, family, left_out, external, False,
                                   want_split)
        assert split == want_split
        assert lps.SumsLane(params, False).walk(target, lps.LegTable(family, 1.0), left_out,
                                                external, None) == h

    def test_a_family_out_of_reach_builds_no_legs(self, monkeypatch):
        # one object beyond reach in the target's own cell, one far off
        m = one_type(square_well(1.0, 1.0))
        target = still_loop((0.0, 0.0), 1, 4)
        family = [still_loop((1.25, 0.0), 1, 4), still_loop((0.0, -3.0), 2, 4)]
        monkeypatch.setattr(lps, "_pair_values", None)  # any call fails
        assert lps.interaction_energy([target], m, conditioning=family) == 0.0
        assert all("legs" not in vars(o) for o in [target] + family)

    def test_splice_keeps_family_order(self):
        # a leg redraw keeps the replaced object's place; other moves append
        objs = [still_loop((0.5 * i, 0.0), 1, 4) for i in range(4)]
        table = lps.LegTable(objs[:3], 1.0)
        table.splice([objs[1]], [objs[3]])
        new = still_loop((0.25, 0.0), 1, 4)
        table.splice([objs[0]], [])
        table.splice([], [new])
        assert filing(table)[0] == [objs[3], objs[2], new]
        bounds = still_loop((0.75, 0.0), 1, 4).bounds
        assert table.near(0, bounds, 1.0, (), -1) == [objs[3], objs[2], new]

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from(["replace", "delete", "append"]),
                              st.integers(0, 99), st.integers(0, 1), BOUNDS,
                              BOUNDS, st.floats(0.0, 2.0), st.integers(0, 3)),
                    max_size=25))
    def test_splices_match_a_scan_and_a_fresh_table(self, steps):
        # after each move the table answers near as a scan of the family
        # with _meets does, in family order, and files every object as a
        # table built afresh from the family does, up to the ranks' values
        family = []
        table = lps.LegTable(family, 1.0)
        for kind, pick, j, bounds, query, reach, out in steps:
            if kind == "append" or not family:
                removed, added = [], [bounded(j, bounds)]
            else:
                old = family[pick % len(family)]
                removed = [old]
                added = [bounded(old.type_index, bounds)] if kind == "replace" else []
            lps.splice(family, removed, added)
            table.splice(removed, added)
            left_out = family[::out + 1] if out else ()
            for t in (0, 1):
                want = [o for o in family if o.type_index == t and o not in left_out
                        and lps._meets(query, o.bounds, reach)]
                assert list(table.near(t, query, reach, left_out, -1)
                            if t in table.types else ()) == want
            order, cells = filing(table)
            fresh = lps.LegTable(family, 1.0)
            assert order == filing(fresh)[0] == family
            assert cells == filing(fresh)[1]
            assert table.filed == fresh.filed


# nodes >= 0 whose cubic spline undershoots zero between 0.3 and 0.6
DIPPING_TABLE = dict(profile="table", table_r=[0.0, 0.15, 0.3, 0.6, 0.8, 1.0],
                     table_v=[2.0, 1.0, 0.0, 0.0, 1.5, 0.0])


class TestNonNegativeEnergy:
    """Every energy the chain's insertion adds is >= 0 or +inf.

    The chain's draw-first insertion test (mc.Chain.step_insert_delete,
    which rejects on the dh = 0 bound before the path is drawn) is exact
    only because of this.
    """

    def test_dipping_table_spline_goes_negative(self):
        pot = PairPotential(range_=1.0, **DIPPING_TABLE)
        rs = np.linspace(0.0, 1.0, 2001)
        assert np.nanmin(pot._spline(rs)) < 0.0
        assert np.min(pot.evaluate(rs)) >= 0.0

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 2 ** 31 - 1), st.sampled_from(PROFILES + ("dipping",)),
           st.booleans(), st.sampled_from([0.0, 0.2]), st.booleans())
    def test_energy_never_negative(self, seed, profile, conservative, core, still):
        g = np.random.default_rng(seed)
        S, box = 4, Box((0.0, 0.0), 1.5)
        if profile == "dipping":
            pots = [PairPotential(hard_core=core, range_=1.0,
                                  **dict(DIPPING_TABLE, table_r=np.linspace(core, 1.0, 6)))]
        else:
            pots = [profile_potential(profile, core * r, r) for r in (0.8, 0.5, 1.0)]
        a, b, c = (pots * 3)[:3]
        params = ModelParams(2, 2, BETA, (0.5, 0.5), [[a, b], [b, c]])
        R = params.max_range

        def random_object():
            j, k = int(g.integers(2)), int(g.integers(1, 4))
            x = g.uniform(-1.5, 1.5, 2)
            if g.random() < 0.5:
                return lps.Loop(j, sample_bridge(x, x, k, S, BETA, g))
            return lps.OpenPath(j, sample_bridge(x, x + g.normal(0.0, 0.4, 2), k, S,
                                                 BETA, g))

        # external points just outside the box's right and top edges
        external = ExternalConfiguration(
            box, [[[1.5 + g.uniform(0.01, R), g.uniform(-1.5, 1.5)]
                   for _ in range(int(g.integers(0, 4)))] for _ in range(2)], R)
        conditioning = [random_object() for _ in range(int(g.integers(0, 8)))]
        target = [random_object() for _ in range(int(g.integers(1, 3)))]
        if still:  # two one-leg loops that never move, at any distance in range
            x = g.uniform(-1.0, 1.0, 2)
            angle = g.uniform(0.0, 2.0 * math.pi)
            y = x + g.uniform(0.0, R) * np.array([math.cos(angle), math.sin(angle)])
            conditioning = [lps.Loop(int(g.integers(2)), BridgePath(np.tile(x, (S + 1, 1)),
                                                                    1, S, BETA))]
            target = [lps.Loop(int(g.integers(2)), BridgePath(np.tile(y, (S + 1, 1)),
                                                              1, S, BETA))]
        # and walked through a table that also holds the targets, left out,
        # as a chain walks a redraw
        table = lps.LegTable(target + conditioning, lps.cell_side(params))
        for h in (lps.interaction_energy(target, params, conditioning=conditioning,
                                         external=external, conservative=conservative),
                  lps.energy_lane(params, conservative).walk(target, table, target,
                                                              external, None)):
            assert h >= 0.0  # +inf included; a NaN fails


class TestSerialization:
    def test_round_trip_bit_exact(self):
        g = np.random.default_rng(11)
        loop_list = [lps.Loop(0, sample_bridge(np.array([0.3, -0.2]),
                                               np.array([0.3, -0.2]), 2, 4,
                                               BETA, g))]
        cfg = lps.LoopConfig(BOX, 4, loop_list, None)
        text = lps.dumps_config(cfg)
        back = lps.loads_config(text)
        assert back.slices_per_beta == cfg.slices_per_beta
        assert back.box.center == cfg.box.center
        assert back.box.half_side == cfg.box.half_side
        assert len(back.loops) == 1
        assert back.loops[0].type_index == 0
        assert back.loops[0].k == 2
        assert np.array_equal(back.loops[0].samples, loop_list[0].samples)

    def test_round_trip_with_external(self):
        ext = ExternalConfiguration(BOX, [np.array([[8.5, 0.0]])], max_range=1.0)
        cfg = lps.LoopConfig(BOX, 4, [], ext)
        back = lps.loads_config(lps.dumps_config(cfg), max_range=1.0)
        assert np.array_equal(back.external.points[0], ext.points[0])

    def test_reject_garbage(self):
        with pytest.raises(ValueError):
            lps.loads_config("not a config")

    @staticmethod
    def config_lines():
        """A dumped config with every record: box, slices, external, points,
        loops and loop."""
        g = np.random.default_rng(12)
        x = np.array([0.3, -0.2])
        ext = ExternalConfiguration(BOX, [np.array([[8.5, 0.0]])], max_range=1.0)
        cfg = lps.LoopConfig(BOX, 2, [lps.Loop(0, sample_bridge(x, x, 1, 2, BETA, g))], ext)
        return lps.dumps_config(cfg).splitlines()

    def test_reject_a_cut_config(self):
        # cut after each line: a ValueError naming the line the text ends at
        lines = self.config_lines()
        for n in range(1, len(lines)):
            with pytest.raises(ValueError, match="ends at line %d, before" % n):
                lps.loads_config("\n".join(lines[:n]))
        with pytest.raises(ValueError, match="line 7, before its loop record"):
            lps.loads_config("\n".join(lines[:7]))

    def test_reject_a_misnamed_record(self):
        # a record whose name is off by a letter is refused, not read
        lines = self.config_lines()
        named = [(i, line.split()[0]) for i, line in enumerate(lines)
                 if line.split()[0] in ("box", "slices", "external", "points", "loops", "loop")]
        assert [name for _, name in named] == ["box", "slices", "external", "points",
                                               "loops", "loop"]
        for i, name in named:
            bad = list(lines)
            bad[i] = bad[i].replace(name, name + "z", 1)
            with pytest.raises(ValueError, match="line %d: expected a %s record" % (i + 1, name)):
                lps.loads_config("\n".join(bad))
