"""Reversibility checks for the update families on the enumerable twin.

The discrete gas is an mc.Chain that overrides only its draws and its leg
and loop masses, so its moves run the chain's own step_insert_delete,
_try_merge, _try_split and step_redraw, with the chain's pair selection and
ratio functions, box test and energy bookkeeping (the carried energies of
Chain._store, the cell index and the per-partner split), and every move is
accepted by the chain's one Metropolis test and its early rejection,
Chain._try.  A flux imbalance here would flag an error in the production
move code or in the proposal densities fed to it.  The law it is judged
against takes each whole configuration's energy from interaction_energy.
Each trial of the flux_p_value fixture (conftest) starts from an exact
stationary draw, applies one move of a single family, and records the
transition; stationarity plus reversibility force matched counts across
each unordered state pair.
"""

import math

import pytest
from hypothesis import given, strategies as st
from scipy import stats

from loopgas import loops as lps
from loopgas import mc, surrogate
from loopgas.model import ModelParams, PairPotential, zero_potential


FREE = ModelParams(1, 1, 1.0, (0.4,), [[zero_potential()]])
WELL = ModelParams(1, 1, 1.0, (0.4,),
                   [[PairPotential(profile="square_well", range_=0.8,
                                   height=1.2)]])
DENSE_WELL = ModelParams(1, 1, 1.0, (0.9,), WELL.potentials)
# a well shorter than the site spacing 0.6: the energy depends on the paths,
# so merges, splits and redraws change it, where on WELL they keep it
SHORT = ModelParams(1, 1, 1.0, (0.4,),
                    [[PairPotential(profile="square_well", range_=0.5,
                                    height=1.2)]])
# a pure hard core: the energy is 0 or inf, and midpoints of the sites 0.0
# and 0.6 lie on a grid of spacing 0.3, so pairs at exactly r = D occur.
# (At D = 0.6 every 2-loop overlaps itself and merges never succeed.)
HARD = ModelParams(1, 1, 1.0, (0.4,), [[PairPotential(hard_core=0.3, range_=0.3)]])
PATH_FAMILIES = ("merge_split", "redraw")
FAMILIES = mc.Chain.FAMILIES


@pytest.fixture(scope="module")
def merge_split_p(flux_p_value):
    """The unpatched merge/split flux p-value the detector tests start from."""
    return flux_p_value(WELL, "merge_split", seed=11, n_trials=10000)


@pytest.mark.parametrize("name", [
    "step", "step_insert_delete", "step_merge_split", "step_redraw",
    "_try", "_try_merge", "_try_split", "_commit", "_carried_energy",
    "_energy_change", "_confined", "_store", "_evaluate", "audit", "_in_step", "_typed"])
def test_twin_runs_the_chain_moves(name):
    # the twin overrides draws and masses only, never a move, its test or
    # its energy bookkeeping
    assert getattr(surrogate.DiscreteLoopGas, name) is getattr(mc.Chain, name)


class TestFluxBalance:
    # the interacting model's three families are criterion 7 (test_acceptance)
    @pytest.mark.parametrize("family", FAMILIES)
    def test_free_model(self, family, flux_p_value):
        p = flux_p_value(FREE, family, seed=FAMILIES.index(family) + 10)
        assert p > 0.01

    @pytest.mark.parametrize("family", PATH_FAMILIES)
    def test_path_dependent_energy(self, family, flux_p_value):
        assert flux_p_value(SHORT, family, seed=12) > 0.01

    @pytest.mark.parametrize("family", FAMILIES)
    def test_pure_hard_core(self, family, flux_p_value):
        # the chain keeps no carried energies and tests the core on Python
        # floats (loops._core_overlap)
        assert flux_p_value(HARD, family, seed=FAMILIES.index(family) + 13) > 0.01

    @pytest.mark.parametrize("family", FAMILIES)
    def test_balance_tests_see_a_core_test_that_counts_a_tie(self, monkeypatch, flux_p_value,
                                                            family):
        # an overlap test that takes r <= D for r < D forbids the states
        # with midpoints exactly D apart.  Only the energy calls of the moves
        # run it: the law and the weighing of each start (_in_step) keep the
        # right test, so every start is one of finite weight
        def at_or_below(pairs, D):
            for (_, ma), (_, mb) in pairs:
                for p, q in zip(ma, mb):
                    if math.sqrt(sum((x - y) * (x - y) for x, y in zip(p, q))) <= D:
                        return True
            return False

        energy_change = mc.Chain._energy_change

        def defective(self, *args):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(lps, "_core_overlap", at_or_below)
                return energy_change(self, *args)

        monkeypatch.setattr(mc.Chain, "_energy_change", defective)
        n_trials = 10000 if family == "merge_split" else 3000
        assert flux_p_value(HARD, family, seed=FAMILIES.index(family) + 13,
                            n_trials=n_trials) < 1e-3


finite = st.floats(-30.0, 30.0, allow_nan=False)


class TestSharedRatios:
    @given(k=st.integers(1, 40), log_z=st.floats(-10.0, -1e-6), log_mass=finite,
           dh=finite, log_choices=st.floats(0.0, 30.0), n=st.integers(0, 500))
    def test_insert_then_delete_cancels(self, k, log_z, log_mass, dh,
                                        log_choices, n):
        # insert into n loops, then delete the same loop from the n + 1
        forward = mc.insert_log_ratio(k, log_z, log_mass, dh, log_choices, n + 1)
        reverse = -mc.insert_log_ratio(k, log_z, log_mass, dh, log_choices, n + 1)
        assert forward + reverse == 0.0

    @given(k1=st.integers(1, 20), k2=st.integers(1, 20), log_g=finite, dh=finite,
           counts=st.lists(st.integers(0, 12), min_size=1, max_size=4),
           j=st.integers(0, 3))
    def test_merge_then_split_cancels(self, k1, k2, log_g, dh, counts, j):
        j %= len(counts)
        counts[j] += 2  # the merged pair is of type j
        pairs = sum(c * (c - 1) for c in counts)
        forward = mc.merge_log_ratio(k1, k2, log_g, dh, pairs, sum(counts) - 1)
        # split the merged loop after leg m = k1, as the chain counts it: the
        # state the merge left, and its pair count with the split's extra loop
        merged = list(counts)
        merged[j] -= 1
        split = list(merged)
        split[j] += 1
        k, m = k1 + k2, k1
        log_g_split, dh_split = -log_g, -dh
        reverse = -mc.merge_log_ratio(m, k - m, -log_g_split, -dh_split,
                                      sum(c * (c - 1) for c in split), sum(merged))
        assert abs(forward + reverse) <= 1e-12 * max(1.0, abs(forward))

    def test_balance_tests_see_a_broken_merge_ratio(self, monkeypatch, flux_p_value,
                                                    merge_split_p):
        # dropping the multiplicity factor log(k1 k2 / k) from the shared
        # function must unbalance the twin's merge/split flux
        assert merge_split_p > 0.01
        shared = mc.merge_log_ratio
        monkeypatch.setattr(
            mc, "merge_log_ratio",
            lambda k1, k2, log_g, dh, n_pairs, n_after:
            shared(k1, k2, log_g, dh, n_pairs, n_after) - math.log(k1 * k2 / (k1 + k2)))
        assert flux_p_value(WELL, "merge_split", seed=11, n_trials=10000) < 1e-3

    def test_balance_tests_see_an_insertion_that_skips_the_energy(self, monkeypatch,
                                                                  flux_p_value):
        # accepting an insertion on the draw-first bound alone, as if the new
        # loop added no energy, must unbalance insert/delete
        assert flux_p_value(WELL, "insert_delete", seed=12) > 0.01
        energy_change = mc.Chain._energy_change
        monkeypatch.setattr(
            mc.Chain, "_energy_change",
            lambda self, removed, added, e_old:
            energy_change(self, removed, added, e_old) if removed else (0.0, {}))
        assert flux_p_value(WELL, "insert_delete", seed=12) < 1e-3

    def test_balance_tests_see_a_bound_that_ignores_the_carried_energy(self, monkeypatch,
                                                                        flux_p_value):
        # an early-rejection bound taken as if the removed loops carried no
        # energy rejects deletions that the full test accepts.  The energy
        # change is recomputed with the true carried energy, so only the
        # bound is wrong.  On WELL every midpoint pair lies within the well,
        # so merges and splits keep the energy and no bound error can
        # unbalance them; the denser gas makes the deletions from two loops
        # that the bound caps common
        assert flux_p_value(DENSE_WELL, "insert_delete", seed=12) > 0.01
        carried_energy, energy_change = mc.Chain._carried_energy, mc.Chain._energy_change
        monkeypatch.setattr(mc.Chain, "_carried_energy", lambda self, removed: 0.0)
        monkeypatch.setattr(
            mc.Chain, "_energy_change",
            lambda self, removed, added, e_old:
            energy_change(self, removed, added, carried_energy(self, removed)))
        assert flux_p_value(DENSE_WELL, "insert_delete", seed=12) < 1e-3

    @pytest.mark.parametrize("family", PATH_FAMILIES)
    def test_balance_tests_see_a_flipped_energy_change(self, monkeypatch, flux_p_value,
                                                       family):
        # a wrong sign of dh must unbalance the families whose energy change
        # SHORT makes nonzero; TestFluxBalance::test_path_dependent_energy
        # is the same flux unpatched
        energy_change = mc.Chain._energy_change

        def flipped(self, removed, added, e_old):
            dh, split = energy_change(self, removed, added, e_old)
            return -dh, split

        monkeypatch.setattr(mc.Chain, "_energy_change", flipped)
        assert flux_p_value(SHORT, family, seed=12) < 1e-3

    @given(counts=st.lists(st.integers(0, 6), min_size=1, max_size=4))
    def test_pair_index_names_each_ordered_pair_once(self, counts):
        picks = [mc.pick_ordered_pair(r, counts)
                 for r in range(mc.ordered_pair_count(counts))]
        assert sorted(picks) == [(j, a, b) for j, c in enumerate(counts)
                                 for a in range(c) for b in range(c) if a != b]

    def test_balance_tests_see_a_biased_pair_selection(self, monkeypatch, flux_p_value,
                                                       merge_split_p):
        # a pick that always puts the earlier loop first must unbalance the
        # twin's merge/split flux: the twin merges through the chain's own
        # mc.pick_ordered_pair
        assert merge_split_p > 0.01
        shared = mc.pick_ordered_pair

        def earlier_first(r, counts):
            j, a, b = shared(r, counts)
            return j, min(a, b), max(a, b)

        monkeypatch.setattr(mc, "pick_ordered_pair", earlier_first)
        assert flux_p_value(WELL, "merge_split", seed=11, n_trials=10000) < 1e-3


class TestLawStructure:
    def test_probabilities_normalised(self):
        gas = surrogate.DiscreteLoopGas(WELL, seed=0)
        law = gas.enumerate_states()
        assert abs(sum(law.values()) - 1.0) < 1e-12
        assert all(v >= 0.0 for v in law.values())
        assert (() in law)  # the empty configuration is always admissible

    def test_repulsion_depletes_pairs(self):
        free_law = surrogate.DiscreteLoopGas(FREE, seed=0).enumerate_states()
        well_law = surrogate.DiscreteLoopGas(WELL, seed=0).enumerate_states()
        p2_free = sum(p for st, p in free_law.items() if len(st) == 2)
        p2_well = sum(p for st, p in well_law.items() if len(st) == 2)
        assert p2_well < p2_free

    def test_multi_type_rejected(self):
        two = ModelParams(1, 2, 1.0, (0.4, 0.4),
                          [[zero_potential(), zero_potential()],
                           [zero_potential(), zero_potential()]])
        with pytest.raises(ValueError, match="single-type"):
            surrogate.DiscreteLoopGas(two)


class TestErgodicOccupancy:
    # the dense case sees stale store entries: a _commit that leaves the
    # entries a removed loop's partners hold for it read p = 1.1e-3 there
    @pytest.mark.parametrize("params,seed", [(FREE, 5), (WELL, 5), (DENSE_WELL, 5)],
                             ids=["free", "interacting", "dense"])
    def test_mixed_chain_occupancy(self, params, seed):
        gas = surrogate.DiscreteLoopGas(params, seed=seed)
        law = gas.enumerate_states()
        top = sorted(law, key=law.get, reverse=True)[:8]
        obs = {st: 0 for st in top}
        other = 0
        n_samples, stride = 2000, 50
        for _ in range(400):
            gas.step()
        for _ in range(n_samples):
            for _ in range(stride):
                gas.step()
            key = surrogate.canonical(gas.state)
            if key in obs:
                obs[key] += 1
            else:
                other += 1
        expected = [law[st] * n_samples for st in top]
        expected.append((1.0 - sum(law[st] for st in top)) * n_samples)
        observed = [obs[st] for st in top] + [other]
        chi2 = sum((o - e) ** 2 / e for o, e in zip(observed, expected))
        p = 1.0 - stats.chi2.cdf(chi2, df=len(expected) - 1)
        assert p > 0.01
