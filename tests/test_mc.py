import copy
import itertools
import json
import math
import pickle
import types

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy import stats

from loopgas import analytic, bridge, mc
from loopgas import loops as lps
from loopgas.bridge import BridgePath, bridge_mass, sample_bridge
from loopgas.model import (Box, ExternalConfiguration, ModelParams, PairPotential,
                           zero_potential)


def free_params(z=0.5, d=2, beta=1.0):
    return ModelParams(d, 1, beta, (z,), [[zero_potential()]])


def well_params(z=0.4, height=0.8, range_=0.8, beta=1.0):
    pot = PairPotential(profile="square_well", range_=range_, height=height)
    return ModelParams(2, 1, beta, (z,), [[pot]])


def core_params(z=0.5, core=0.3, beta=1.0):
    pot = PairPotential(hard_core=core, range_=core, height=0.0)
    return ModelParams(2, 1, beta, (z,), [[pot]])


def make_chain(params, half_side=4.0, seed=0, **opts):
    box = Box((0.0,) * params.dimension, half_side)
    return mc.Chain(params, box, options=mc.SamplerOptions(**opts), seed=seed)


WELL = PairPotential(range_=1.0, height=0.7)
BUMP_CORE = PairPotential(profile="smooth_bump", hard_core=0.15, range_=1.0, height=1.5)
TABLE = PairPotential(profile="table", range_=1.0, table_r=[0.0, 0.3, 0.6, 1.0],
                      table_v=[1.2, 0.8, 0.3, 0.0])
CORE = PairPotential(hard_core=0.3, range_=0.3)  # a pure hard core


def dense_gas(potentials):
    q = len(potentials)
    return ModelParams(2, q, 1.0, (0.8,) * q, potentials)


# chains whose energy cache must match a from-scratch audit after every sweep
DRIFT_SETUPS = {
    "square-well": (dense_gas([[WELL]]), {}),
    "bump-core-conservative": (dense_gas([[BUMP_CORE]]), {"conservative_hard_core": True}),
    "table": (dense_gas([[TABLE]]), {}),
    "external-points": (dense_gas([[WELL]]),
                        {"external": [[[4.1, 0.5], [-1.0, -4.2], [0.0, 4.05]]]}),
    "two-types": (dense_gas([[WELL, BUMP_CORE], [BUMP_CORE, TABLE]]), {}),
    "widom-rowlinson": (dense_gas([[zero_potential(), CORE], [CORE, zero_potential()]]), {}),
    # external points of each type, 0.05 to 0.2 outside the box: within the core
    "widom-rowlinson-external": (
        dense_gas([[zero_potential(), CORE], [CORE, zero_potential()]]),
        {"external": [[[4.1, 0.5], [-1.0, -4.2]], [[0.0, 4.05], [-4.2, 1.5]]]}),
    "one-type-core": (dense_gas([[CORE]]), {}),  # k_max = 4: legs of a loop overlap
    # pure-core pairs across the types beside soft pairs within each: the
    # sums lane values the cores, with external points of both types
    "cross-core-wells": (dense_gas([[WELL, CORE], [CORE, WELL]]),
                         {"external": [[[4.1, 0.5]], [[0.0, 4.05]]]}),
}
SOFT_SETUPS = [name for name, (params, _) in DRIFT_SETUPS.items() if not params.is_hard_core()]


def drift_chain(setup, seed):
    params, extra = DRIFT_SETUPS[setup]
    box = Box((0.0, 0.0), 4.0)
    external = None
    if "external" in extra:
        external = ExternalConfiguration(box, extra["external"], params.max_range)
    conservative = extra.get("conservative_hard_core", False)
    opts = mc.SamplerOptions(slices_per_beta=4, k_max=4,
                             conservative_hard_core=conservative)
    return mc.Chain(params, box, external=external, options=opts, seed=seed)


def assert_tables_follow(chain):
    """The chain's per-type lists and cell index equal fresh builds from its
    loop list.

    The per-type lists hold each type's loops in list order.  The grid
    matches a fresh index's; the loops, ranked, come in list order, each
    with one rank; every loop is filed under the same cells (filed) as in
    a fresh index and no other loop is; and per type every cell holds the
    same loops, ranked in the same order.  Ranks themselves may differ: the
    chain's count on from its first build.
    """
    assert chain._typed() == [[lp for lp in chain.config.loops if lp.type_index == j]
                              for j in range(chain.params.n_types)]
    table = chain._loop_table()
    fresh = lps.LegTable(chain.config.loops, lps.cell_side(chain.params))
    assert table.inv == fresh.inv
    assert not chain.config.loops or table.slices_per_beta == fresh.slices_per_beta
    assert table.filed == fresh.filed

    def filing(t):
        ranks, cells = {}, {}
        for j, of_type in t.types.items():
            for key, cell in of_type.items():
                cells[j, key] = sorted(cell, key=cell.__getitem__)
                for lp, rank in cell.items():
                    assert ranks.setdefault(lp, rank) == rank  # one rank per loop
        return sorted(ranks, key=ranks.__getitem__), cells

    (order, cells), (want_order, want_cells) = filing(table), filing(fresh)
    assert order == want_order == chain.config.loops
    assert cells == want_cells


def removal_energies(chain, removed, added):
    """The energies of removed and of added against the rest, one call each."""
    rest = [lp for lp in chain.config.loops if all(lp is not r for r in removed)]
    kw = dict(conditioning=rest, external=chain.config.external,
              conservative=chain.opts.conservative_hard_core)
    return (lps.interaction_energy(list(removed), chain.params, **kw),
            lps.interaction_energy(list(added), chain.params, **kw))


def assert_carried_follow(chain):
    """Every loop's stored energy equals its energy against the rest, recomputed.

    The store is symmetric and holds no zero entries.  Free and pure-core
    chains keep no store.
    """
    store = chain._carried
    if chain.params.is_hard_core():
        assert store is None
        return
    assert store is not None and set(store) == set(chain.config.loops)
    for lp in chain.config.loops:
        want, _ = removal_energies(chain, (lp,), ())
        got = sum(store[lp].values())
        assert abs(got - want) <= 1e-10 * max(1.0, abs(want))
        assert all(e != 0.0 and store[b][lp] == e for b, e in store[lp].items())


def assert_carried_is_the_energy_removed(chain):
    """For each pair of loops with a pair energy, in both orders, the energy
    the chain takes them to carry equals h(config) - h(config without them),
    each recomputed from scratch.  Returns the number of pairs checked."""
    kw = dict(external=chain.config.external, conservative=chain.opts.conservative_hard_core)
    loops = chain.config.loops
    h = lps.interaction_energy(loops, chain.params, **kw)
    checked = 0
    for A in loops:
        for B in chain._store()[A]:
            if B is not A:
                rest = [lp for lp in loops if lp is not A and lp is not B]
                want = h - lps.interaction_energy(rest, chain.params, **kw)
                assert abs(chain._carried_energy((A, B)) - want) <= 1e-9 * max(1.0, h)
                checked += 1
    return checked


class TestChainBasics:
    def test_option_defaults(self):
        o = mc.SamplerOptions()
        assert o.slices_per_beta == 32
        assert o.k_max == 20
        assert o.move_weights == (4, 2, 4)
        assert not o.conservative_hard_core

    def test_same_seed_same_trajectory(self):
        a = make_chain(well_params(), seed=42, slices_per_beta=8, k_max=6)
        b = make_chain(well_params(), seed=42, slices_per_beta=8, k_max=6)
        a.run(40)
        b.run(40)
        assert len(a.config.loops) == len(b.config.loops)
        for la, lb in zip(a.config.loops, b.config.loops):
            assert la.type_index == lb.type_index and la.k == lb.k
            assert np.array_equal(la.samples, lb.samples)
        assert a.energy == b.energy
        assert all(a.stats[m].accepted == b.stats[m].accepted for m in a.stats)

    def test_free_redraw_always_accepts(self):
        chain = make_chain(free_params(), half_side=8.0, seed=3,
                           slices_per_beta=8, k_max=4)
        rng = np.random.default_rng(11)
        for _ in range(5):
            path = sample_bridge(np.zeros(2), np.zeros(2), 2, 8, 1.0, rng)
            chain.config.loops.append(lps.Loop(0, path))
        for _ in range(200):
            chain.step_redraw()
        st = chain.stats["redraw"]
        assert st.proposed == 200 and st.accepted == 200

    def test_hard_core_chain_stays_admissible(self):
        chain = make_chain(core_params(), half_side=3.0, seed=5,
                           slices_per_beta=4, k_max=4, audit_interval=25)
        chain.run(150)
        # the audit recomputes the energy from scratch; an accepted
        # hard-core violation would surface as infinite drift here
        assert chain.audit() <= 1e-8

    def test_energy_cache_drift(self):
        chain = make_chain(well_params(), half_side=3.0, seed=9,
                           slices_per_beta=4, k_max=6)
        chain.run(200)
        assert chain.audit() <= 1e-8

    def test_tiny_fugacity_gives_empty_box(self):
        chain = make_chain(free_params(z=1e-6), half_side=2.0, seed=1,
                           slices_per_beta=4)
        counts = []
        for _ in range(200):
            chain.sweep()
            counts.append(len(chain.config.loops))
        per_volume = np.mean(counts) / chain.box.volume
        assert per_volume <= 1e-4

    def test_multiplicity_histogram_matches_ideal_law(self):
        # count anchors in an interior window only: near the wall the
        # confinement constraint clips large loops and skews the law.
        # Snapshots 3 sweeps apart share most loops, so each multiplicity's
        # per-snapshot count is compared with p_k N (N the snapshot's loop
        # count) by batch means, not as independent draws
        params = free_params(z=0.5)
        chain = make_chain(params, half_side=6.0, seed=12, slices_per_beta=2)
        chain.run(150)
        hist = mc.estimate_density(chain, Box((0.0, 0.0), 1.5), 2160,
                                   thin=3).snapshot_histogram
        raw = np.array([0.5 ** k / (2.0 * math.pi * k * k)
                        for k in range(1, chain.opts.k_max + 1)])
        n = sum(hist.values())
        gaps = mc.histogram_gaps(hist, {k: p * n for k, p in enumerate(raw / raw.sum(), 1)})
        judged = [g for g, _ in gaps.values() if g is not None]
        assert len(judged) >= 2
        assert max(judged) <= 3.0


class TestOneOutcomePicks:
    """The numpy rule that lets a pick with one outcome draw nothing."""

    def test_one_outcome_draws_nothing(self):
        g = np.random.default_rng(3)
        g.random()
        state = g.bit_generator.state
        assert g.integers(1) == 0
        assert g.integers(1, 2) == 1
        assert g.bit_generator.state == state

    def test_offset_pick_is_a_shifted_pick(self):
        a, b = np.random.default_rng(4), np.random.default_rng(4)
        for k in range(2, 41):
            assert ([int(a.integers(1, k)) for _ in range(20)]
                    == [1 + int(b.integers(k - 1)) for _ in range(20)])
            assert a.bit_generator.state == b.bit_generator.state

    def test_index_is_integers(self):
        # the chain's draw lane against numpy's draws on a twin generator,
        # draw for draw, with numpy's own draws interleaved on the lane's
        # generator, on every numpy bit generator (default_rng passes a
        # Generator through); the cached upper half of a 64-bit draw
        # (has_uint32, uinteger) must carry across both
        def plain(state):
            if isinstance(state, dict):
                return {key: plain(value) for key, value in state.items()}
            return state.tolist() if isinstance(state, np.ndarray) else state

        ns = [1, 2, 3, 7, 20, 40, 2 ** 31 + 1, 2 ** 32 - 1, 2 ** 32, 2 ** 32 + 5]
        order = np.random.default_rng(1)
        for bits in (np.random.PCG64, np.random.PCG64DXSM, np.random.MT19937,
                     np.random.SFC64, np.random.Philox):
            a, b = np.random.Generator(bits(9)), np.random.Generator(bits(9))
            draws, cached = mc._Draws(a), set()
            for what, i in order.integers((5, len(ns)), size=(2000, 2)).tolist():
                n = ns[i]
                if what == 0:
                    assert draws.index(n) == int(b.integers(n))
                elif what == 1:
                    assert draws.uniform() == b.random()
                elif what == 2:
                    assert np.array_equal(a.standard_normal(3), b.standard_normal(3))
                elif what == 3:
                    assert np.array_equal(a.random(2), b.random(2))
                else:
                    assert a.integers(n) == b.integers(n)
                cached.add(a.bit_generator.state.get("has_uint32"))
            assert plain(a.bit_generator.state) == plain(b.bit_generator.state)
            assert cached == ({None} if bits is np.random.MT19937 else {0, 1})


class TestEnergyCache:
    @pytest.mark.parametrize("setup", list(DRIFT_SETUPS))
    def test_cache_and_tables_follow_every_change(self, setup, tmp_path):
        def sweeps(chain, n):
            for _ in range(n):
                chain.sweep()
                assert_carried_follow(chain)
                assert chain.audit(tol=1e-10) <= 1e-10
                assert_tables_follow(chain)

        chain = drift_chain(setup, seed=3)
        sweeps(chain, 25)
        donor = drift_chain(setup, seed=4)
        donor.run(20)
        assert donor.config.loops
        # the list is replaced, then appended to, from outside the chain;
        # audit(tol=inf) re-seeds the cached energy as a caller must
        chain.config.loops = list(donor.config.loops[1:])
        chain.audit(tol=math.inf)
        sweeps(chain, 10)
        chain.config.loops.append(donor.config.loops[0])
        chain.audit(tol=math.inf)
        if math.isinf(chain.energy):  # the newcomer overlaps a hard core
            chain.config.loops.pop()
            chain.audit(tol=math.inf)
        sweeps(chain, 10)
        path = tmp_path / "state.ckpt"
        mc.save_checkpoint(chain, str(path))
        back = mc.load_checkpoint(str(path), chain.params, options=chain.opts)
        sweeps(back, 10)
        chain.config = back.config
        chain.audit(tol=math.inf)
        sweeps(chain, 5)

    @pytest.mark.parametrize("setup", list(DRIFT_SETUPS))
    def test_energy_change_matches_two_calls(self, setup, monkeypatch):
        # every proposal's dh against the energies of removed and of added,
        # each recomputed against the rest
        moves, pairs = set(), {"merge": 0, "split": 0}
        energy_change = mc.Chain._energy_change

        def checked(chain, removed, added, carried):
            e_old, e_new = removal_energies(chain, removed, added)
            assert abs(carried - e_old) <= 1e-12 * max(1.0, e_old)
            if len(removed) == 2 and not pure:
                pairs["merge"] += removed[1] in chain._store()[removed[0]]
            dh, split = energy_change(chain, removed, added, carried)
            assert (split is None) == pure  # a pure core builds no split
            if len(added) == 2 and not pure:
                pairs["split"] += added[1] in split.get(added[0], ())
            if math.isinf(e_new):
                assert dh == math.inf
            else:
                assert abs(dh - (e_new - e_old)) <= 1e-12 * max(1.0, e_old, e_new)
            moves.add((len(removed), len(added)))
            return dh, split

        pure = DRIFT_SETUPS[setup][0].is_hard_core()
        monkeypatch.setattr(mc.Chain, "_energy_change", checked)
        drift_chain(setup, seed=5).run(20)
        assert moves == {(0, 1), (1, 0), (1, 1), (2, 1), (1, 2)}
        # merges of an interacting pair, splits into two interacting loops;
        # under pure cores no pair carries an energy
        assert min(pairs.values()) > 0 or pure

    @pytest.mark.parametrize("setup", SOFT_SETUPS)
    def test_carried_energy_is_the_energy_removed(self, setup):
        chain = drift_chain(setup, seed=6)
        checked = 0
        for _ in range(3):
            chain.run(8)
            checked += assert_carried_is_the_energy_removed(chain)
        assert checked > 0, "no two loops interacted"

    def test_the_removal_check_sees_a_pair_counted_twice(self, monkeypatch):
        # a carried energy that sums every store entry of each removed loop
        # counts the energy between them twice
        chain = drift_chain("square-well", seed=6)
        chain.run(8)
        assert assert_carried_is_the_energy_removed(chain) > 0
        monkeypatch.setattr(mc.Chain, "_carried_energy", lambda self, removed: sum(
            e for A in removed for e in self._store()[A].values()))
        with pytest.raises(AssertionError):
            assert_carried_is_the_energy_removed(chain)

    @pytest.mark.parametrize("setup", ["square-well", "one-type-core"])
    def test_a_split_weighs_its_two_loops_against_each_other(self, setup):
        # two one-leg loops on one spot, far from the loop they replace:
        # each alone adds nothing, both add their pair energy, inf under
        # the core.  A chain whose splits miss that pair accepts states of
        # zero weight, which no flux test has resolved
        def still(x):
            return lps.Loop(0, BridgePath(np.tile(x, (5, 1)), 1, 4, 1.0))

        chain = drift_chain(setup, seed=3)
        chain.config.loops = [still([-3.0, -3.0])]
        chain.audit(tol=math.inf)
        old, pieces = chain.config.loops[0], (still([0.5, 0.5]), still([0.5, 0.5]))
        assert [chain._energy_change((old,), (p,), 0.0)[0] for p in pieces] == [0.0, 0.0]
        assert chain._energy_change((old,), pieces, 0.0)[0] > 0.0

    def test_the_table_check_sees_a_stale_filing(self, monkeypatch):
        # a discard that takes the loop out of its cells but leaves its
        # filing keeps every cell right, so only the filings tell
        discard = lps.LegTable._discard

        def stale(table, obj):
            keys = table.filed[obj]
            rank = discard(table, obj)
            table.filed[obj] = keys
            return rank

        chain = drift_chain("widom-rowlinson", seed=3)
        chain.run(5)
        assert_tables_follow(chain)
        monkeypatch.setattr(lps.LegTable, "_discard", stale)
        chain.run(5)
        with pytest.raises(AssertionError):
            assert_tables_follow(chain)

    def test_deletion_makes_no_energy_call_and_a_redraw_one(self, monkeypatch):
        chain = drift_chain("square-well", seed=3)
        chain.run(5)
        calls, lane = [], chain._lane
        monkeypatch.setattr(chain, "_lane", types.SimpleNamespace(
            walk=lambda *a: calls.append(1) or lane.walk(*a)))
        old = chain.config.loops[0]
        e_old = chain._carried_energy((old,))
        chain._energy_change((old,), (), e_old)
        assert len(calls) == 0
        chain._energy_change((old,), (lps.Loop(old.type_index, chain._redraw_leg(old.path, 0)),),
                             e_old)
        assert len(calls) == 1

    def test_free_model_stores_nothing(self, monkeypatch):
        chain = make_chain(free_params(), seed=2, slices_per_beta=4, k_max=4)
        monkeypatch.setattr(mc, "interaction_energy", None)  # any call would fail
        monkeypatch.setattr(chain, "_lane", None)
        chain.run(20)
        assert chain.config.loops and chain._carried is None

    def test_audit_catches_a_corrupted_stored_energy(self):
        # sweep until some loop carries a pair energy, then corrupt that entry
        chain = drift_chain("square-well", seed=3)
        for _ in range(200):
            chain.sweep()
            pairs = [(lp, other) for lp in chain.config.loops
                     for other in chain._store()[lp] if other is not lp]
            if pairs:
                break
        assert pairs, "no loop carried a pair energy within 200 sweeps"
        assert chain.audit(tol=1e-10) <= 1e-10
        lp, other = pairs[0]
        chain._carried[lp][other] += 1e-6
        with pytest.raises(RuntimeError, match="carried energy drift"):
            chain.audit()

    def test_audit_catches_an_overlap_set_from_outside(self):
        # the cache reads 0 and the recomputed energy is inf: tol * inf is
        # inf, so the audit must not scale its tol by the recomputation
        chain = drift_chain("bump-core-conservative", seed=3)
        rng = np.random.default_rng(1)
        chain.config.loops = [lps.Loop(0, sample_bridge(np.zeros(2), np.zeros(2), 2, 4, 1.0,
                                                        rng)) for _ in range(2)]
        with pytest.raises(RuntimeError, match="energy cache drift inf"):
            chain.audit()
        assert chain.energy == 0.0
        assert chain.audit(tol=math.inf) == math.inf  # the reseed still works
        assert math.isinf(chain.energy) and chain.audit() == 0.0

    def test_refuses_to_store_a_state_across_a_hard_core(self):
        # two loops set from outside on one anchor overlap the core; the
        # energy call stops there, so a store would miss the pairs after it
        chain = drift_chain("bump-core-conservative", seed=3)
        rng = np.random.default_rng(1)
        A, B, C = (lps.Loop(0, sample_bridge(np.array(x), np.array(x), 2, 4, 1.0, rng))
                   for x in [(0.0, 0.0), (0.0, 0.0), (3.0, 3.0)])
        chain.config.loops = [A, B, C]
        chain.audit(tol=math.inf)
        assert math.isinf(chain.energy) and chain._carried is None
        with pytest.raises(ValueError, match="hard core"):
            chain._carried_energy((B,))

    def test_a_pure_core_refuses_an_overlap_set_from_outside(self, tmp_path):
        # a pure-core chain keeps no store, yet a state of zero weight set
        # from outside, assigned or loaded, stops its first move
        chain = drift_chain("widom-rowlinson", seed=3)
        chain.run(5)
        rng = np.random.default_rng(1)
        A, B = (lps.Loop(j, sample_bridge(np.zeros(2), np.zeros(2), 1, 4, 1.0, rng))
                for j in (0, 1))
        chain.config.loops = chain.config.loops + [A, B]
        path = tmp_path / "state.ckpt"
        mc.save_checkpoint(chain, str(path))
        assert chain.audit(tol=math.inf) == math.inf
        with pytest.raises(ValueError, match="hard core"):
            chain.step_redraw()
        back = mc.load_checkpoint(str(path), chain.params, options=chain.opts)
        assert math.isinf(back.energy)
        with pytest.raises(ValueError, match="hard core"):
            back.run(1)


class TestEarlyRejection:
    def test_a_merge_rejected_early_draws_and_evaluates_nothing(self, monkeypatch):
        # two 1-loops 6 apart on each axis: the connecting legs would span
        # the gap, so the merge ratio's bound is about -72 and every uniform
        # rejects before the legs are drawn
        chain = drift_chain("square-well", seed=3)
        rng = np.random.default_rng(1)
        chain.config.loops = [lps.Loop(0, sample_bridge(np.array(x), np.array(x), 1, 4, 1.0,
                                                        rng)) for x in [(-3.0, -3.0), (3.0, 3.0)]]
        before = list(chain.config.loops)
        chain.audit(tol=math.inf)

        def never(*args, **kwargs):
            raise AssertionError("a merge rejected early drew or evaluated its move")

        monkeypatch.setattr(chain, "_draw_legs", never)
        monkeypatch.setattr(chain, "_lane", types.SimpleNamespace(walk=never))
        monkeypatch.setattr(lps, "confined_to_box", never)
        for _ in range(20):
            assert not chain._try_merge()
        assert chain.config.loops == before

    @given(e_old=st.floats(0.0, 1e3), e_new=st.floats(0.0, 1e3),
           k1=st.integers(1, 20), k2=st.integers(1, 20), log_g=st.floats(-30.0, 30.0),
           n_pairs=st.integers(2, 500), n=st.integers(2, 500))
    def test_the_bound_holds_in_floating_point(self, e_old, e_new, k1, k2, log_g, n_pairs, n):
        # dh = fl(e_new - e_old) >= -e_old, and every family's ratio is
        # monotone in dh under rounding, so log_ratio(-e_old) bounds it
        dh = e_new - e_old
        assert dh >= -e_old
        free = mc.insert_log_ratio(k1, math.log(0.3), log_g, 0.0, 5.0, n)
        for log_ratio in [lambda d: free - d, lambda d: -d,
                          lambda d: -mc.insert_log_ratio(k1, math.log(0.3), log_g, -d, 5.0, n),
                          lambda d: mc.merge_log_ratio(k1, k2, log_g, d, n_pairs, n),
                          lambda d: -mc.merge_log_ratio(k1, k2, -log_g, -d, n_pairs, n)]:
            assert log_ratio(dh) <= log_ratio(-e_old)


# sampler options unlike the defaults in every field a resumed chain must share
SAVED_OPTIONS = dict(slices_per_beta=4, k_max=6, move_weights=(0, 2, 4),
                     conservative_hard_core=True, proposals_per_sweep=20)


class TestCheckpointing:
    def test_round_trip_and_continuation(self, tmp_path):
        params = well_params()
        a = make_chain(params, half_side=3.0, seed=7, slices_per_beta=4, k_max=6)
        a.run(30)
        while a.rng.bit_generator.state["has_uint32"] != 1:
            a.step()  # saved with half of a 64-bit draw cached for the next pick
        path = tmp_path / "state.ckpt"
        mc.save_checkpoint(a, str(path))
        b = mc.load_checkpoint(str(path), params,
                               options=mc.SamplerOptions(slices_per_beta=4, k_max=6))
        assert b.sweeps_done == a.sweeps_done
        assert abs(b.energy - a.energy) < 1e-9
        a.run(20)
        b.run(20)
        assert lps.dumps_config(b.config) == lps.dumps_config(a.config)
        assert b.stats == a.stats
        assert b.rng.bit_generator.state == a.rng.bit_generator.state

    def test_copies_draw_from_their_own_generator(self):
        a = make_chain(well_params(), half_side=3.0, seed=7, slices_per_beta=4, k_max=6)
        a.run(10)
        copies = [copy.deepcopy(a), pickle.loads(pickle.dumps(a))]
        state = a.rng.bit_generator.state
        for b in copies:
            b.run(10)
        assert a.rng.bit_generator.state == state
        a.run(10)
        for b in copies:
            assert lps.dumps_config(b.config) == lps.dumps_config(a.config)
            assert b.stats == a.stats
        with pytest.raises(AttributeError):  # no Generator apart from the draws' own
            a.rng = np.random.default_rng(7)

    def test_free_chain_copies_and_checkpoints_draw_alike(self, tmp_path):
        # a free chain's insertions draw their loops through sample_bridge's
        # list-of-floats lane, and its redraws through resample_leg
        params, opts = free_params(), mc.SamplerOptions(slices_per_beta=4, k_max=6)
        a = mc.Chain(params, Box((0.0, 0.0), 3.0), seed=11, options=opts)
        a.run(20)
        path = str(tmp_path / "free.ckpt")
        mc.save_checkpoint(a, path)
        copies = [copy.deepcopy(a), pickle.loads(pickle.dumps(a)),
                  mc.load_checkpoint(path, params, options=opts)]
        a.run(20)
        assert a.config.loops
        for b in copies:
            b.run(20)
            assert lps.dumps_config(b.config) == lps.dumps_config(a.config)
            assert b.rng.bit_generator.state == a.rng.bit_generator.state
            assert not any(hasattr(lp.path, "__dict__") for lp in b.config.loops)

    def test_crash_mid_write_keeps_previous_checkpoint(self, tmp_path, monkeypatch):
        params = well_params()
        opts = mc.SamplerOptions(slices_per_beta=4, k_max=6)
        chain = make_chain(params, half_side=3.0, seed=5, slices_per_beta=4, k_max=6)
        chain.run(10)
        path = str(tmp_path / "state.ckpt")
        mc.save_checkpoint(chain, path)
        chain.run(5)

        def fail_mid_write(config):
            raise OSError("device full")

        monkeypatch.setattr(lps, "dumps_config", fail_mid_write)
        with pytest.raises(OSError, match="device full"):
            mc.save_checkpoint(chain, path)
        monkeypatch.undo()
        back = mc.load_checkpoint(path, params, options=opts)
        assert back.sweeps_done == 10

    def test_resumes_on_the_saved_grid(self, tmp_path):
        params = free_params()
        chain = make_chain(params, half_side=4.0, seed=3, slices_per_beta=2, k_max=4)
        chain.run(10)
        path = str(tmp_path / "state.ckpt")
        mc.save_checkpoint(chain, path)
        back = mc.load_checkpoint(path, params)
        back.run(20)
        assert {lp.path.slices_per_beta for lp in back.config.loops} == {2}
        mc.save_checkpoint(back, path)
        assert mc.load_checkpoint(path, params).sweeps_done == 30
        with pytest.raises(ValueError, match="slices_per_beta"):
            mc.load_checkpoint(path, params, options=mc.SamplerOptions(slices_per_beta=4))

    def test_resumes_on_the_saved_options(self, tmp_path):
        opts = SAVED_OPTIONS
        a = make_chain(core_params(), half_side=3.0, seed=8, **opts)
        a.config.loops = [lps.Loop(0, sample_bridge(np.array(x), np.array(x), 1, 4, 1.0,
                                                    np.random.default_rng(1)))
                          for x in [(1.0, 0.5), (-1.2, 0.8), (0.3, -1.4)]]
        a.audit(tol=math.inf)
        assert a.energy == 0.0  # clear of the core
        a.run(5)
        path = str(tmp_path / "state.ckpt")
        mc.save_checkpoint(a, path)
        b = mc.load_checkpoint(path, core_params())
        assert b.opts == mc.SamplerOptions(**opts)
        a.run(10)
        b.run(10)
        assert lps.dumps_config(a.config) == lps.dumps_config(b.config)

    @pytest.mark.parametrize("name, value", [("k_max", 20), ("move_weights", (4, 2, 4)),
                                             ("proposals_per_sweep", 0),
                                             ("conservative_hard_core", False)])
    def test_refuses_options_unlike_the_saved_ones(self, tmp_path, name, value):
        opts = SAVED_OPTIONS
        chain = make_chain(core_params(), half_side=3.0, seed=8, **opts)
        chain.run(3)
        path = str(tmp_path / "state.ckpt")
        mc.save_checkpoint(chain, path)
        with pytest.raises(ValueError, match=name):
            mc.load_checkpoint(path, core_params(),
                               options=mc.SamplerOptions(**dict(opts, **{name: value})))
        # the same options, move weights as a list, and another audit interval
        back = mc.load_checkpoint(path, core_params(), options=mc.SamplerOptions(
            **dict(opts, move_weights=[0, 2, 4], audit_interval=5)))
        assert back.sweeps_done == 3

    def test_checkpoint_without_options_resumes_on_the_defaults(self, tmp_path):
        chain = make_chain(free_params(), seed=3, slices_per_beta=2, k_max=4)
        chain.run(5)
        path = tmp_path / "state.ckpt"
        mc.save_checkpoint(chain, str(path))
        tag, state, rest = path.read_text().split("\n", 2)
        state = json.loads(state)
        del state["options"]
        path.write_text("\n".join([tag, json.dumps(state), rest]))
        back = mc.load_checkpoint(str(path), free_params())
        assert back.opts == mc.SamplerOptions(slices_per_beta=2)
        assert back.sweeps_done == 5

    def test_keeps_the_move_stats(self, tmp_path):
        params = well_params()
        chain = make_chain(params, half_side=3.0, seed=7, slices_per_beta=4, k_max=6)
        chain.run(10)
        path = tmp_path / "state.ckpt"
        mc.save_checkpoint(chain, str(path))
        back = mc.load_checkpoint(str(path), params)
        assert back.stats == chain.stats
        assert all(st.proposed > 0 for st in back.stats.values())
        # a checkpoint written without them counts from zero
        tag, state, rest = path.read_text().split("\n", 2)
        state = json.loads(state)
        del state["stats"]
        path.write_text("\n".join([tag, json.dumps(state), rest]))
        back = mc.load_checkpoint(str(path), params)
        assert back.stats == {name: mc.MoveStats() for name in mc.Chain.FAMILIES}

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_text("not a checkpoint\n{}\n")
        with pytest.raises(ValueError, match="header"):
            mc.load_checkpoint(str(path), free_params())


class TestReferenceKernel:
    def test_matches_permutation_sum_when_exclusion_inactive(self):
        params = free_params(z=0.5)
        xs = [np.array([[0.0, 0.0], [1.2, 0.3]])]
        ys = [np.array([[0.4, -0.2], [1.0, 1.0]])]
        far = Box((50.0, 50.0), 0.5)
        k_max = 8
        est = mc.estimate_reference_kernel(xs, ys, params, far, k_max=k_max,
                                           S=2, n_samples=16,
                                           rng=np.random.default_rng(0))

        def W(x, y):
            return sum(0.5 ** k * bridge_mass(x, y, k, 1.0)
                       for k in range(1, k_max + 1))

        expected = (W(xs[0][0], ys[0][0]) * W(xs[0][1], ys[0][1])
                    + W(xs[0][0], ys[0][1]) * W(xs[0][1], ys[0][0]))
        assert est.std_error == 0.0
        assert abs(est.value - expected) < 1e-12
        assert est.truncation_bound > 0.0

    def test_exclusion_only_lowers_value(self):
        params = free_params(z=0.5)
        xs = [np.array([[0.0, 0.0]])]
        ys = [np.array([[0.6, 0.0]])]
        near = Box((0.3, 0.0), 0.5)
        far = Box((50.0, 50.0), 0.5)
        rng = np.random.default_rng(1)
        excl = mc.estimate_reference_kernel(xs, ys, params, near, k_max=8, S=2,
                                            n_samples=4000, rng=rng)
        filled = mc.estimate_reference_kernel(xs, ys, params, far, k_max=8, S=2,
                                              n_samples=16,
                                              rng=np.random.default_rng(2))
        assert excl.value <= filled.value + 4.0 * excl.std_error

    def test_single_leg_keeps_k1_mass(self):
        # multiplicity 1 has no interior whole-step time, so its term is
        # immune to the exclusion indicator and survives in any geometry
        params = free_params(z=0.5)
        x = np.array([[0.0, 0.0]])
        box0 = Box((0.0, 0.0), 0.7)
        est = mc.estimate_reference_kernel([x], [x], params, box0, k_max=8,
                                           S=2, n_samples=4000,
                                           rng=np.random.default_rng(3))
        k1 = 0.5 * bridge_mass(x[0], x[0], 1, 1.0)
        assert est.value + 4.0 * est.std_error >= k1

    def test_swap_symmetry(self):
        params = free_params(z=0.5)
        xs = [np.array([[0.0, 0.0]])]
        ys = [np.array([[0.8, 0.0]])]
        box0 = Box((0.4, 0.0), 0.5)
        a = mc.estimate_reference_kernel(xs, ys, params, box0, k_max=8, S=2,
                                         n_samples=6000,
                                         rng=np.random.default_rng(4))
        b = mc.estimate_reference_kernel(ys, xs, params, box0, k_max=8, S=2,
                                         n_samples=6000,
                                         rng=np.random.default_rng(5))
        gap = abs(a.value - b.value)
        assert gap <= 4.0 * math.hypot(a.std_error, b.std_error) + 1e-12

    def test_exclusion_matches_gaussian_rectangle_law(self):
        # k <= 3 legs from x to y avoid box0 at times m = 1..k-1 with the
        # probability that a Gaussian vector (per coordinate, the bridge
        # covariance min(s, t) - s t / k) misses the rectangle; by
        # inclusion-exclusion over the points inside: 0.73022 (k = 2) and
        # 0.63427 (k = 3)
        x, y, h = np.array([0.1, 0.0]), np.array([-0.2, 0.1]), 0.5

        def avoids(k):
            m = np.arange(1, k)
            cov = np.minimum.outer(m, m) - np.outer(m, m) / k
            p = 0.0
            for inside in itertools.chain.from_iterable(
                    itertools.combinations(range(k - 1), r) for r in range(k)):
                both = 1.0
                for c in range(2) if inside else ():
                    law = stats.multivariate_normal(
                        x[c] + (y[c] - x[c]) * m[list(inside)] / k,
                        cov[np.ix_(inside, inside)])
                    both *= law.cdf(np.full(len(inside), h),
                                    lower_limit=np.full(len(inside), -h))
                p += (-1) ** len(inside) * both
            return p

        terms = {k: 0.5 ** k * bridge_mass(x, y, k, 1.0) for k in (1, 2, 3)}
        exact = sum(w * avoids(k) for k, w in terms.items())
        assert abs(avoids(2) - 0.73022) < 1e-5 and abs(avoids(3) - 0.63427) < 1e-5
        assert abs(exact - 0.0940017) < 1e-7
        n = 100000
        est = mc.estimate_reference_kernel([x[None]], [y[None]], free_params(z=0.5),
                                           Box((0.0, 0.0), h), k_max=3, S=4,
                                           n_samples=n, rng=np.random.default_rng(11))
        W = sum(terms.values())
        assert abs(est.value - exact) <= 4.0 * math.sqrt(exact * (W - exact) / n)

    def test_draws_do_not_depend_on_S(self):
        # whole-beta skeletons at every S: the same draws, S only recorded
        params = ModelParams(2, 2, 1.0, (0.5, 0.4), [[zero_potential()] * 2] * 2)
        starts = [[[0.6, 0.1], [-0.7, 0.3]], [[0.2, -0.8]]]
        ends = [[[0.5, -0.4], [-0.3, 0.9]], [[-0.6, -0.7]]]
        got = {}
        for S in (1, 2, 4, 32):
            est = mc.estimate_reference_kernel(starts, ends, params, Box((0.0, 0.0), 0.5),
                                               k_max=6, S=S, n_samples=200,
                                               rng=np.random.default_rng(9))
            assert est.meta["S"] == S
            got[S] = (est.value, est.std_error)
        assert len(set(got.values())) == 1

    def test_law_matches_full_grid_draws(self):
        # an independent estimate: per combo, each leg's k drawn by
        # Generator.choice from its terms and its bridge on the full grid at
        # S = 8, kept when it misses box0 at every interior whole-beta time
        params = free_params(z=0.6)
        xs = np.array([[0.1, 0.2], [-0.3, 0.0]])
        ys = np.array([[0.2, -0.1], [-0.1, 0.35]])
        box0, k_max, S, n = Box((0.05, 0.0), 0.4), 8, 8, 20000
        est = mc.estimate_reference_kernel([xs], [ys], params, box0, k_max=k_max, S=32,
                                           n_samples=n, rng=np.random.default_rng(12))
        rng = np.random.default_rng(13)
        vals, full = np.zeros(n), 0.0  # full: the value without exclusion
        for sigma in itertools.permutations(range(2)):
            weight, ok = 1.0, np.ones(n, dtype=bool)
            for l, t in enumerate(sigma):
                terms = np.array([0.6 ** k * bridge_mass(xs[l], ys[t], k, 1.0)
                                  for k in range(1, k_max + 1)])
                weight *= terms.sum()
                ks = 1 + rng.choice(k_max, size=n, p=terms / terms.sum())
                for k in np.unique(ks).tolist():
                    rows = np.flatnonzero(ks == k)
                    paths = bridge.sample_bridges(np.tile(xs[l], (rows.size, 1)),
                                                  np.tile(ys[t], (rows.size, 1)),
                                                  k, S, 1.0, rng)
                    ok[rows] &= ~box0.contains(paths[:, S:-1:S]).reshape(rows.size, -1).any(1)
            vals[ok] += weight
            full += weight
        mean, se = vals.mean(), vals.std(ddof=1) / math.sqrt(n)
        assert 0.5 * full < est.value < 0.95 * full  # the exclusion bites
        assert abs(est.value - mean) <= 4.0 * math.hypot(est.std_error, se)

    def test_status_needs_a_sample_per_batch(self):
        params = free_params(z=0.5)
        xs, ys = [np.array([[0.0, 0.0]])], [np.array([[0.6, 0.0]])]
        box0 = Box((0.3, 0.0), 0.5)
        thin = mc.estimate_reference_kernel(xs, ys, params, box0, k_max=8, S=2,
                                            n_samples=8, rng=np.random.default_rng(6))
        assert (thin.status, thin.std_error) == ("insufficient_samples", math.inf)
        full = mc.estimate_reference_kernel(xs, ys, params, box0, k_max=8, S=2,
                                            n_samples=16, rng=np.random.default_rng(6))
        assert full.status == "ok" and math.isfinite(full.std_error)

    def test_no_samples_draws_nothing(self):
        rng = np.random.default_rng(7)
        state = rng.bit_generator.state
        est = mc.estimate_reference_kernel([np.array([[0.0, 0.0]])],
                                           [np.array([[0.6, 0.0]])], free_params(),
                                           Box((0.3, 0.0), 0.5), n_samples=0, rng=rng)
        assert (est.value, est.status) == (0.0, "insufficient_samples")
        assert rng.bit_generator.state == state

    def test_mismatched_cardinalities_zero(self):
        params = free_params(z=0.5)
        xs = [np.array([[0.0, 0.0], [1.0, 0.0]])]
        ys = [np.array([[0.4, -0.2]])]
        est = mc.estimate_reference_kernel(xs, ys, params, Box((0.0, 0.0), 0.5))
        assert (est.value, est.std_error) == (0.0, 0.0)
        assert est.meta["reason"] == "cardinality mismatch"


class TestSampleTerms:
    # _sample_terms draws a k group small enough for the scalar walk on
    # Python floats and a larger one as one sample_bridges batch.  With
    # bridge.SCALAR_WALK_MAX at 0 every group with a walk takes the array
    # lane, at 10**9 the float lane, and at its own value the rule picks per
    # group; all three must give the same terms from the same draws
    LIMITS = (0, bridge.SCALAR_WALK_MAX, 10 ** 9)

    @staticmethod
    def family(d):
        """Two types with two legs and one, and their tables with every k
        from 1 to 20 alike, so that both walks of a group occur."""
        rng = np.random.default_rng(d)
        params = ModelParams(d, 2, 0.5, (0.6, 0.9), [[zero_potential()] * 2] * 2)
        starts = [rng.uniform(-0.5, 0.5, (2, d)), rng.uniform(-0.5, 0.5, (1, d))]
        ends = [rng.uniform(-0.5, 0.5, (2, d)), rng.uniform(-0.5, 0.5, (1, d))]
        tables, combos = mc._endpoint_tables(starts, ends, params, 20)
        for table in tables:
            for key, (W, _, x, y) in table.items():
                table[key] = W, np.arange(1, 21) / 20, x, y
        return params, tables, combos

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_tables_take_the_terms_of_bridge_mass(self, d):
        # the terms on Python floats are bridge_mass's doubles, and W their np.sum
        rng = np.random.default_rng(d + 10)
        for beta, z in ((0.05, 0.3), (1.0, 0.6), (3.0, 0.95)):
            params = ModelParams(d, 1, beta, (z,), [[zero_potential()]])
            xs, ys = rng.uniform(-2.0, 2.0, (2, 3, d))
            tables, _ = mc._endpoint_tables([xs], [ys], params, 20)
            for (l, t), (W, cdf, x, y) in tables[0].items():
                w = np.array([z ** k * bridge_mass(xs[l], ys[t], k, beta)
                              for k in range(1, 21)])
                assert W == float(np.sum(w)) and np.array_equal(x, xs[l])
                assert np.array_equal(cdf, (w / W).cumsum() / (w / W).cumsum()[-1])

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("with_box, with_box0", [(False, False), (True, False),
                                                     (False, True), (True, True)])
    def test_the_float_and_array_lanes_agree(self, monkeypatch, d, with_box, with_box0):
        box = Box((0.0,) * d, 3.0) if with_box else None
        box0 = Box((0.1,) + (0.0,) * (d - 1), 0.2) if with_box0 else None
        params, tables, combos = self.family(d)
        seen = set()
        for n in (0, 1, 2, 3):
            for seed in range(6):
                for combo in combos:
                    runs = []
                    for limit in self.LIMITS:
                        monkeypatch.setattr(bridge, "SCALAR_WALK_MAX", limit)
                        rng = np.random.default_rng(seed)
                        weight, ok, paths = mc._sample_terms(tables, combo, params, 2, n,
                                                             rng, box0, box)
                        assert ok.dtype == bool and ok.shape == (n,)
                        runs.append((weight, ok.tolist(),
                                     [[(p.path.k, p.path.samples) for p in paths(i)]
                                      for i in range(n)], rng.bit_generator.state))
                    weight, ok, terms, state = runs[0]
                    seen.update(ok)
                    for other in runs[1:]:
                        assert other[0] == weight and other[1] == ok and other[3] == state
                        for mine, theirs in zip(terms, other[2]):
                            assert [k for k, _ in mine] == [k for k, _ in theirs]
                            assert all(np.array_equal(a, b)
                                       for (_, a), (_, b) in zip(mine, theirs))
        assert seen == ({True, False} if with_box or with_box0 else {True})

    @staticmethod
    def wall(s, h):
        """A center c with fl(s - c) == h, so that s lies on the wall c + h."""
        c = s - h
        for _ in range(8):
            if s - c == h:
                return c
            c = np.nextafter(c, -np.inf if s - c < h else np.inf)
        raise AssertionError("no center puts %r on a wall" % s)

    @pytest.mark.parametrize("which", ["box", "box0"])
    def test_the_lanes_agree_on_the_walls(self, monkeypatch, which):
        # a sample exactly on a wall is inside both boxes (|s - c| <= h): on
        # box's wall the term is kept, on box0's wall (at a whole-beta time,
        # the other axis at the center) it is dropped
        params = free_params(z=0.6, beta=0.5)
        tables, combos = mc._endpoint_tables([[[0.1, 0.2]]], [[[-0.3, 0.1]]], params, 3)
        W, _, x, y = tables[0][(0, 0)]
        tables[0][(0, 0)] = W, np.array([0.0, 0.0, 1.0]), x, y  # k = 3
        samples = mc._sample_terms(tables, combos[0], params, 2, 1,
                                   np.random.default_rng(4))[2](0)[0].path.samples
        if which == "box":
            s, h = float(samples[:, 0].max()), 6.0
            box, box0, want = Box((self.wall(s, h), 0.0), h), None, True
        else:
            s, h = float(samples[2, 0]), 2.0 ** -10
            box, box0, want = None, Box((self.wall(s, h), float(samples[2, 1])), h), False
        for limit in self.LIMITS:
            monkeypatch.setattr(bridge, "SCALAR_WALK_MAX", limit)
            _, ok, _ = mc._sample_terms(tables, combos[0], params, 2, 1,
                                        np.random.default_rng(4), box0, box)
            assert ok.tolist() == [want]


class TestTruncationBound:
    # one free type, d = 2: the cutoff's gap is the permanent of
    # closed-form kernels less that of the truncated sums; the bound comes
    # from the estimator with no samples drawn
    XS = np.array([[0.0, 0.0], [0.05, 0.0], [0.0, 0.03]])
    YS = np.array([[0.02, 0.01], [0.04, -0.02], [0.01, 0.0]])

    def gap_and_bound(self, beta, z, k_max, n_legs):
        xs, ys = self.XS[:n_legs], self.YS[:n_legs]

        def permanent(**series):
            return sum(math.prod(analytic.free_gas_kernel(xs[l], ys[s[l]], z, beta,
                                                          **series).value
                                 for l in range(n_legs))
                       for s in itertools.permutations(range(n_legs)))

        est = mc.estimate_reference_kernel([xs], [ys], free_params(z=z, beta=beta),
                                           Box((9.0, 9.0), 0.5), k_max=k_max, S=1,
                                           n_samples=0)
        return permanent() - permanent(k_max=k_max), est.truncation_bound

    @pytest.mark.parametrize("beta, z, k_max, gap", [(0.05, 0.5, 2, 16.758),
                                                     (0.05, 0.9, 1, 2175.9)])
    def test_covers_three_legs_with_weights_above_one(self, beta, z, k_max, gap):
        # a per-leg bound times the combo count gave 14.32 and 464 here
        got, bound = self.gap_and_bound(beta, z, k_max, 3)
        assert got == pytest.approx(gap, rel=1e-4)
        assert got <= bound

    @pytest.mark.parametrize("n_legs", [1, 2, 3])
    def test_covers_gap_on_a_grid(self, n_legs):
        for beta in (0.05, 0.3, 1.0):
            for z in (0.3, 0.5, 0.9):
                for k_max in (1, 2, 4):
                    gap, bound = self.gap_and_bound(beta, z, k_max, n_legs)
                    assert 0.0 < gap <= bound

    def test_single_leg_is_the_series_remainder(self):
        for beta, z, k_max in ((0.05, 0.5, 2), (1.0, 0.9, 4)):
            _, bound = self.gap_and_bound(beta, z, k_max, 1)
            assert bound == analytic.free_gas_kernel(self.XS[0], self.YS[0], z, beta,
                                                     k_max=k_max).tail_bound


class TestRdmKernel:
    def test_free_gas_diagnostic_mode_exact(self):
        params = free_params(z=0.5)
        chain = make_chain(params, half_side=10.0, seed=21,
                           slices_per_beta=1, k_max=10)
        xs = [np.array([[0.0, 0.0]])]
        ys = [np.array([[1.0, 0.0]])]
        est = mc.estimate_rdm_kernel(chain, xs, ys, Box((0.0, 0.0), 0.5),
                                     n_snapshots=16, thin=1,
                                     inner_per_snapshot=1,
                                     apply_exclusion=False)
        expected = analytic.free_gas_kernel(xs[0][0], ys[0][0], 0.5, 1.0,
                                            k_max=10).value
        assert est.std_error == 0.0
        assert abs(est.value - expected) < 1e-12

    def test_mismatched_cardinalities_zero(self):
        chain = make_chain(free_params(), seed=0)
        xs = [np.array([[0.0, 0.0]])]
        ys = [np.zeros((0, 2))]
        est = mc.estimate_rdm_kernel(chain, xs, ys, Box((0.0, 0.0), 0.5))
        assert (est.value, est.std_error) == (0.0, 0.0)
        assert est.meta["reason"] == "cardinality mismatch"

    def test_positive_and_symmetric(self):
        # the gap's error comes from 16 independent chains: the snapshots of
        # one chain are too correlated for batch means of four snapshots
        params = well_params()
        box0 = Box((0.0, 0.0), 0.8)
        xs = [np.array([[0.2, 0.0]])]
        ys = [np.array([[-0.3, 0.1]])]
        gaps = []
        for i in range(16):
            chain = make_chain(params, half_side=6.0, seed=[31, i],
                               slices_per_beta=4, k_max=6)
            chain.run(50)
            f_xy = mc.estimate_rdm_kernel(chain, xs, ys, box0, n_snapshots=16,
                                          thin=1, inner_per_snapshot=2)
            f_yx = mc.estimate_rdm_kernel(chain, ys, xs, box0, n_snapshots=16,
                                          thin=1, inner_per_snapshot=2)
            assert f_xy.value >= 0.0 and f_yx.value >= 0.0
            gaps.append(f_xy.value - f_yx.value)
        gap = abs(np.mean(gaps))
        tol = 4.0 * np.std(gaps, ddof=1) / math.sqrt(len(gaps)) \
            + 2.0 * f_xy.truncation_bound + 1e-12
        assert gap <= tol


class TestTailAndDensity:
    def test_threshold_one_counts_occupied_snapshots(self):
        params = free_params(z=0.5)
        box0 = Box((0.0, 0.0), 1.0)
        a = make_chain(params, half_side=4.0, seed=17, slices_per_beta=4)
        (est,) = mc.estimate_multiplicity_tail(a, box0, [1], n_sweeps=64, thin=2)
        b = make_chain(params, half_side=4.0, seed=17, slices_per_beta=4)
        flags = []
        for _ in range(32):
            b.run(2)
            flags.append(1.0 if any(box0.contains(lp.anchor)
                                    for lp in b.config.loops) else 0.0)
        manual, _ = mc.batch_means(flags, 16)
        assert est.probability == manual

    def test_huge_threshold_never_hit(self):
        chain = make_chain(free_params(z=0.5), half_side=4.0, seed=19,
                           slices_per_beta=4)
        chain.run(50)
        (est,) = mc.estimate_multiplicity_tail(chain, Box((0.0, 0.0), 1.0),
                                               [50], n_sweeps=200)
        assert est.probability < 1e-3

    def test_density_window_warning(self):
        params = well_params(range_=1.0)
        chain = make_chain(params, half_side=2.0, seed=23, slices_per_beta=4)
        est = mc.estimate_density(chain, Box((0.0, 0.0), 1.5), n_sweeps=4)
        assert "margin" in est.warning
        clean = mc.estimate_density(chain, Box((0.0, 0.0), 0.5), n_sweeps=4)
        assert clean.warning == ""

    def test_density_tracks_free_intensity(self):
        params = free_params(z=0.5)
        chain = make_chain(params, half_side=5.0, seed=29, slices_per_beta=4)
        chain.run(300)
        est = mc.estimate_density(chain, Box((0.0, 0.0), 2.0), n_sweeps=1200,
                                  thin=2)
        target = analytic.closed_form_moment_2d(-1, 0.5, 1.0)
        assert abs(est.per_type[0] - target) <= 4.0 * est.std_errors[0]


class ScriptedChain:
    """Stands in for a chain: each run() moves to the next scripted loop list."""

    def __init__(self, params, snapshots):
        self.params = params
        self.config = types.SimpleNamespace(loops=[])
        self._script = iter(snapshots)

    def run(self, n_sweeps):
        self.config.loops = next(self._script)


def per_loop_window_snapshots(chain, windows, n_sweeps, thin):
    """_window_snapshots as one contains call per loop and window, for reference."""
    n_snap = n_sweeps // thin
    shape = (len(windows), n_snap, chain.params.n_types)
    counts, k_sums, hists = np.zeros(shape), np.zeros(shape), [{} for _ in windows]
    for i in range(n_snap):
        chain.run(thin)
        for lp in chain.config.loops:
            for w, window in enumerate(windows):
                if window.contains(lp.anchor):
                    counts[w, i, lp.type_index] += 1
                    k_sums[w, i, lp.type_index] += lp.k
                    hists[w].setdefault(lp.k, np.zeros(n_snap))[i] += 1
    return counts, k_sums, hists


class TestWindowSnapshots:
    def test_counts_match_a_per_loop_test(self):
        def loop(anchor, k, j):
            samples = np.tile(np.asarray(anchor, dtype=float), (k * 2 + 1, 1))
            return lps.Loop(j, BridgePath(samples, k, 2, 1.0))

        # overlapping windows; (1.0, 0.0) lies on A's face and (2.5, 0.0) on B's
        windows = [Box((0.0, 0.0), 1.0), Box((1.5, 0.0), 1.0)]
        script = [
            [loop((0.5, 0.5), 3, 1), loop((1.0, 0.0), 1, 0), loop((1.8, 0.0), 2, 0),
             loop((5.0, 5.0), 4, 1)],
            [],
            [loop((-0.5, 0.2), 2, 1), loop((2.5, 0.0), 5, 0), loop((0.2, 0.3), 1, 1)],
        ]
        params = ModelParams(2, 2, 1.0, (0.5, 0.5), [[zero_potential()] * 2] * 2)
        got = mc._window_snapshots(ScriptedChain(params, script), windows, 6, 2)
        want = per_loop_window_snapshots(ScriptedChain(params, script), windows, 6, 2)
        for g, w in zip(got[:2], want[:2]):
            assert np.array_equal(g, w)
        for g, w in zip(got[2], want[2]):
            assert list(g) == list(w)  # keys in order of first appearance
            assert all(np.array_equal(g[k], w[k]) for k in w)
        assert [list(h) for h in want[2]] == [[3, 1, 2], [3, 1, 2, 5]]
        assert want[0][:, 1].sum() == 0 and want[0][0, :, 0].tolist() == [1, 0, 0]


class TestBatchMeans:
    def test_known_sequence(self):
        vals = np.arange(32, dtype=float)
        mean, se = mc.batch_means(vals, 4)
        assert mean == float(np.mean(vals))
        blocks = vals.reshape(4, 8).mean(axis=1)
        assert abs(se - np.std(blocks, ddof=1) / 2.0) < 1e-15

    def test_short_input_flagged_infinite(self):
        mean, se = mc.batch_means([1.0, 2.0], 16)
        assert mean == 1.5 and se == math.inf


def ar1(rng, n_series, n, phi):
    """Rows of unit-innovation AR(1) series, started in their stationary law."""
    out = np.empty((n_series, n))
    out[:, 0] = rng.standard_normal(n_series) / math.sqrt(1.0 - phi * phi)
    for i in range(1, n):
        out[:, i] = phi * out[:, i - 1] + rng.standard_normal(n_series)
    return out


class TestHistogramGaps:
    # criterion 9's snapshot count; correlation time (1 + phi)/(1 - phi) = 9
    N_SNAP, PHI, MEAN = 1000, 0.8, 4.0

    def counts(self, rng, n_series):
        return self.MEAN + ar1(rng, n_series, self.N_SNAP, self.PHI)

    def test_false_flags_near_nominal_under_correlated_null(self):
        rng = np.random.default_rng(3)
        reps, bins = 500, 2
        a = self.counts(rng, reps * bins).reshape(reps, bins, -1)
        b = self.counts(rng, reps * bins).reshape(reps, bins, -1)
        flags = naive = 0
        for ra, rb in zip(a, b):
            gaps = mc.histogram_gaps(dict(enumerate(ra, 1)), dict(enumerate(rb, 1)))
            flags += sum(sigma > 3.0 for sigma, _ in gaps.values())
            diff = ra - rb
            iid_se = diff.std(axis=1, ddof=1) / math.sqrt(self.N_SNAP)
            naive += int(np.sum(np.abs(diff.mean(axis=1)) > 3.0 * iid_se))
        # 16 batches: P(|t_15| > 3) = 0.009; errors that treat snapshots as
        # independent flag these correlated series far more often
        assert flags / (reps * bins) < 0.02
        assert naive / (reps * bins) > 0.2

    def test_shift_in_one_bin_is_flagged(self):
        rng = np.random.default_rng(4)
        a, b = self.counts(rng, 3), self.counts(rng, 3)
        a[1] += 1.6  # about 7 standard errors of the mean difference
        gaps = mc.histogram_gaps(dict(enumerate(a, 1)), dict(enumerate(b, 1)))
        assert gaps[2][0] > 3.0
        assert gaps[1][0] < 3.0 and gaps[3][0] < 3.0
        assert gaps[2][1] == mc.batch_means(a[1] - b[1])[1]

    def test_thin_and_one_sided_bins(self):
        n = self.N_SNAP
        sparse = np.zeros(n)
        sparse[::100] = 1.0  # 10 loops per window
        gaps = mc.histogram_gaps({1: sparse, 2: np.ones(n)}, {1: sparse[::-1].copy()})
        assert gaps[1][0] is None  # fewer than 25 pooled loops
        assert gaps[2] == (None, 0.0)  # a constant gap has no error to judge it by
        assert set(gaps) == {1, 2}
