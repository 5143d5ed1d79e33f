"""Grand-canonical Markov chain Monte Carlo for the loop gas.

The chain lives on finite loop configurations in a box and targets the
unnormalised density z^K / L * exp(-h) relative to the reference measure
(Lebesgue anchors, multiplicity-summed bridge laws).  Three reversible update
families drive it: insertion/deletion of whole loops, merge/split of two
same-type loops into one of combined multiplicity (the permutation-cycle
move), and redrawing single legs.  Confinement to the box is enforced on the
sampled grid.

Every move bounds its log acceptance ratio before it draws or evaluates
what it adds (Chain._try).  The loops a move removes carry the energy e_old
(see below), and the energy e_new of the loops it adds is a sum of values
>= 0 of non-negative pair potentials, so e_new >= 0 in floating point too,
and dh = fl(e_new - e_old) >= -e_old, since rounding is monotone.  Every
family's log ratio falls as dh grows, so its value at dh = -e_old bounds it
from above.  When that bound is < 0, u is drawn first, and u >= exp(bound)
rejects at once: no leg or path is drawn, no loop built, and neither the box
nor the energy is evaluated.  Otherwise the move is drawn and the same u is
tested against the full ratio, so each move is accepted with probability
min(1, exp(ratio)) exactly as by the plain test, and the chain's law is
unchanged.  Only merges and splits draw u earlier than the plain test
would: an insertion already drew u before its path, a deletion's bound is
its full ratio, and a redraw's bound, e_old, is never < 0, so those three
families keep their random streams.  This is the early rejection of
Solonen et al., Bayesian Analysis 7, 715 (2012).

The chain's scalar draws go through one lane (_Draws) that calls the
bit generator's own C functions (BitGenerator.ctypes) on its own state,
without numpy's per-call wrapper.  Its uniform() is Generator.random() and
its index(n) is int(Generator.integers(n)), draw for draw: index runs
numpy's bounded pick (Lemire, ACM TOMACS 29(1), 3 (2019)) on next_uint32
for n < 2**32, hands larger n to integers itself, and draws nothing for
n = 1, as integers(1) does (the leg of a one-leg loop, the type of a
one-type insertion, the cut of a two-leg loop, a loop among one).  So the
lane's draws interleave exactly with every Generator method and with a
saved or set state, and every stream is numpy's;
tests/test_mc.py::TestOneOutcomePicks pins this on each of numpy's bit
generators.

The chain stores the energy each loop carries: its own legs' energy and its
nonzero pair energy with each other loop (Chain._store).  A move takes the
energy of the loops it removes from that store and evaluates only the loops
it adds, in one energy call whose per-partner split enters the store when
the move is accepted.  So a deletion makes no energy call and every other
move at most one.  This is the per-particle energy bookkeeping of Frenkel & Smit,
Understanding Molecular Simulation, ch. 3 and App. F.  Under pure hard cores
(ModelParams.is_hard_core, the Widom-Rowlinson gas among them) every state
of nonzero weight has energy exactly 0, so every loop carries 0.0, the value
a store would give: such a chain, like a free one, keeps no store, asks for
no carried energy and builds no split.  A move's energy call walks the
loops it adds against the chain's cell index, with the loops it removes
left out, and against the external points (loops._Walk.walk), valued by
the chain's lane: sums on numpy, or under pure cores without the
conservative test an overlap question on Python floats (loops.CoreLane).
A free chain makes no energy call at all.

The kernel estimators draw the terms of a permutation combo as one batch
(_sample_terms): leg by leg, the multiplicities of all terms, then one
bridge draw per multiplicity, the rows of one sample_bridges batch.  A
group small enough for bridge's scalar walk is walked, box-tested and kept
on Python floats, a larger one as a numpy batch, with the same doubles
either way.  A batch of one term draws as one term at a time did, so runs
with one inner draw per snapshot keep their stream.  Each estimator draws
only what its value reads: the exclusion reference
(estimate_reference_kernel) reads its paths at interior whole-beta times
alone, so it draws whole-beta skeletons (one slice per beta) whatever S it
is given; the nested estimator (estimate_rdm_kernel) tests only the
background loops whose bounds meet box0, and under pure cores asks each
term's energy as the chain's moves do.
"""

import json
import math
import os
from dataclasses import asdict, dataclass, field, replace
from itertools import compress, permutations, product as iproduct

import numpy as np

from . import loops as lps
from .analytic import kernel_remainder
from .bridge import (BridgePath, _mass, _scalar, _walk, log_bridge_mass, resample_leg,
                     sample_bridge, sample_bridges)
from .loops import LegTable, Loop, LoopConfig, OpenPath, interaction_energy

N_BATCHES = 16  # batches of every estimator's batch-means error
MIN_POOLED = 25  # loops a histogram_gaps bin must pool to be judged
PROBE_SIGMA = 3.0  # shift_invariance_probe's consistency limit, in sigmas


@dataclass
class SamplerOptions:
    slices_per_beta: int = 32
    k_max: int = 20
    move_weights: tuple = (4, 2, 4)  # insert/delete, merge/split, leg redraw
    conservative_hard_core: bool = False
    audit_interval: int = 0  # sweeps between cache audits; 0 disables
    proposals_per_sweep: int = 0  # 0: scale with the current loop count


@dataclass
class MoveStats:
    proposed: int = 0
    accepted: int = 0


# -- acceptance ratios, shared with the enumerable twin (surrogate) ---------------


def insert_log_ratio(k, log_z, log_mass, dh, log_choices, n_after):
    """Log acceptance ratio for inserting a loop of multiplicity k.

    log_mass: log closed-bridge mass at its anchor; dh: energy it adds;
    log_choices: log size of the insertion proposal (types x volume x k_max);
    n_after: loop count after insertion.  Deleting that loop from n loops is
    the exact negative, with n_after = n.
    """
    return (k * log_z - math.log(k) + log_mass - dh + log_choices
            - math.log(n_after))


def merge_log_ratio(k1, k2, log_g, dh, n_pairs, n_after):
    """Log acceptance ratio for merging loops of multiplicity k1 and k2.

    log_g: log mass of the new connecting legs minus the closing legs they
    replace; n_pairs: ordered same-type pairs chosen from; n_after: loop count
    after the merge.  Splitting a k-loop after leg m, from n loops, is
    -merge_log_ratio(m, k - m, -log_g, -dh, pairs after the split, n).
    """
    k = k1 + k2
    return (math.log(k1 * k2 / k) + log_g - dh + math.log(n_pairs)
            - math.log(n_after * (k - 1)))


def leg_swap_log_ratio(log_mass, p, q, r, s):
    """log_g of merge_log_ratio: log mass of legs p->s, q->r over legs p->r, q->s."""
    return log_mass(p, s) + log_mass(q, r) - log_mass(p, r) - log_mass(q, s)


def ordered_pair_count(counts):
    """Ordered pairs of distinct same-type loops, from the loop count of each type."""
    return sum(c * (c - 1) for c in counts)


def pick_ordered_pair(r, counts):
    """The r-th ordered pair of distinct same-type loops, as (type, a, b).

    a and b are the places of the two loops among that type's loops; r
    uniform on range(ordered_pair_count(counts)) makes the pair uniform.
    """
    for j, c in enumerate(counts):
        if r < c * (c - 1):
            a, b = divmod(r, c - 1)
            return j, a, b + (b >= a)
        r -= c * (c - 1)
    raise ValueError("pair index out of range")


class _Draws:
    """Scalar draws straight from a Generator's bit generator, draw for draw
    as the Generator's own (see the module docstring).

    It holds C pointers into the Generator's state, so a copy or an
    unpickled lane is rebuilt on its own copy of the Generator
    (__reduce__).  It skips the Generator's lock, so no two threads may
    draw from one lane at once.
    """

    def __init__(self, rng):
        self.rng = rng
        ct = rng.bit_generator.ctypes
        self._state, self._next_uint32, self._next_double = (
            ct.state_address, ct.next_uint32, ct.next_double)

    def __reduce__(self):
        return _Draws, (self.rng,)

    def uniform(self):
        """A uniform double on [0, 1): Generator.random()."""
        return self._next_double(self._state)

    def index(self, n):
        """A uniform pick from range(n): int(Generator.integers(n)); none is
        drawn for n = 1."""
        if n == 1:
            return 0
        if not 1 < n < 2 ** 32:
            return int(self.rng.integers(n))
        m = self._next_uint32(self._state) * n
        if m & 0xFFFFFFFF < n:  # numpy's cheap bound on the rejection threshold
            threshold = (2 ** 32 - n) % n
            while m & 0xFFFFFFFF < threshold:
                m = self._next_uint32(self._state) * n
        return m >> 32


def move_cdf(move_weights):
    """Cumulative probabilities of picking insert/delete, merge/split, redraw."""
    w = np.asarray(move_weights, dtype=float)
    return np.cumsum(w) / np.sum(w)


class Chain:
    """One Markov chain over loop configurations.

    All randomness flows through the chain's numpy Generator (rng), its
    scalar draws through the lane _Draws, so a seed fixes the trajectory bit
    for bit.  Every move goes through one Metropolis test
    with early rejection (_try), and every accepted move changes the loop
    list, its per-type lists (_typed), its cell index (a LegTable, through
    which an energy call finds the loops near the ones a move adds), the
    carried energies (_store) and the energy cache through _commit.  A loop
    list changed from outside gets new per-type lists and index at once and
    a new store on demand (_in_step); a free model builds neither index nor
    store, and a pure hard core no store.  The draws of paths and
    anchors and the loop and leg masses sit in small methods, which the
    enumerable twin (surrogate) overrides for a site grid; it runs the rest,
    the box test and the energy bookkeeping included, as the chain does.
    """

    FAMILIES = ("insert_delete", "merge_split", "redraw")  # the order of move_cdf
    max_loops = math.inf  # no proposal leaves more loops; the twin caps its space
    _h = 0.0  # the energy cache: reseeded by audit, moved only by _commit
    _carried = None  # the energy each loop carries (_store), moved only by _commit
    _listed = None  # the loop list as _commit left it, to tell an outside change
    _by_type = None  # the loops of each type in list order, with two types or more
    _table = None  # cell index of the loop list, built by _in_step; None when free

    def __init__(self, params, box, external=None, options=None, seed=None):
        self.params = params
        self.box = box
        self.opts = options or SamplerOptions()
        self._draws = _Draws(np.random.default_rng(seed))
        self.config = LoopConfig(box, self.opts.slices_per_beta, [], external)
        self.sweeps_done = 0
        self.stats = {name: MoveStats() for name in self.FAMILIES}
        self._free = params.is_free()  # every potential is zero, external points' too
        self._pure = params.is_hard_core()  # every finite energy is 0
        # what values the energy of a move (_energy_change)
        self._lane = lps.energy_lane(params, self.opts.conservative_hard_core)
        # whether the chain keeps anything beside the loop list
        self._keeps = not self._free or params.n_types > 1
        self._move_cdf = move_cdf(self.opts.move_weights).tolist()
        self._log_choices = math.log(params.n_types * box.volume * self.opts.k_max)
        # log closed-bridge mass of a k-loop by k: log_bridge_mass(x, x, k, beta)
        # is the same double at every anchor x
        origin = np.zeros(box.dimension)
        self._log_masses = [log_bridge_mass(origin, origin, k, params.beta)
                            for k in range(1, self.opts.k_max + 1)]

    # -- cached quantities ---------------------------------------------------

    @property
    def rng(self):
        """The chain's numpy Generator, the one its scalar draws (_draws) come from."""
        return self._draws.rng

    @property
    def energy(self):
        return self._h

    def audit(self, tol=1e-8):
        """Recompute the energy cache and the carried energies from scratch.

        Raises RuntimeError when the cache, or the energy some loop carries
        (_store), is off its recomputation by more than tol times
        max(1, |recomputed|), or tol when only the recomputation is infinite;
        otherwise reseeds both and returns the largest drift, so tol=inf only
        reseeds.  One energy call gives both.  Free and pure-core models keep
        no carried energies, and neither does a state of infinite energy
        (see _store); a pure core's list changed from outside is weighed at
        its next move (_in_step).
        """
        if not self._pure:
            self._in_step()
        kept = self._carried
        h, split = self._evaluate(self.config.loops)
        drift = 0.0 if h == self._h else abs(h - self._h)
        if drift > tol * (max(1.0, abs(h)) if math.isfinite(h) else 1.0):
            raise RuntimeError("energy cache drift %.3e after %d sweeps"
                               % (drift, self.sweeps_done))
        self._h = h
        if self._pure or math.isinf(h):
            self._carried = None
            return drift
        store = _stored(self.config.loops, h, split)
        if kept is not None:
            for i, lp in enumerate(self.config.loops):
                want, got = sum(store[lp].values()), sum(kept[lp].values())
                d = 0.0 if got == want else abs(got - want)
                if d > tol * max(1.0, abs(want)):
                    raise RuntimeError("carried energy drift %.3e of loop %d after %d sweeps"
                                       % (d, i, self.sweeps_done))
                drift = max(drift, d)
        self._carried = store
        return drift

    def _in_step(self):
        """Bring what the chain keeps of the loop list in step with config.loops.

        _commit keeps the per-type lists, the cell index and the store in
        step with the list; a list changed from outside (assigned, appended
        to, or a new config) differs from the chain's copy, so the per-type
        lists and the index (none for a free model) are rebuilt and the store
        dropped, to be rebuilt on demand.  A free one-type chain keeps
        nothing.  A pure core, which keeps no store, weighs the new list in
        one energy call.
        Raises ValueError when the list violates a hard core, as _store does.
        """
        loops = self.config.loops
        if self._keeps and self._listed != loops:
            if self._pure and not self._free and math.isinf(self._evaluate(loops)[0]):
                raise ValueError(_ZERO_WEIGHT)
            self._listed = list(loops)
            self._carried = None
            self._table = None if self._free else LegTable(loops, lps.cell_side(self.params))
            if self.params.n_types > 1:
                self._by_type = [[] for _ in range(self.params.n_types)]
                for lp in loops:
                    self._by_type[lp.type_index].append(lp)

    def _typed(self):
        """The loops of each type in list order; [config.loops] for one type."""
        if self.params.n_types == 1:
            return [self.config.loops]
        self._in_step()
        return self._by_type

    def _store(self):
        """The energy each loop of config.loops carries, by loop identity.

        store[A][A] is A's own energy (its legs among themselves and against
        the external points) and store[A][B] = store[B][A] its pair energy
        with loop B; zero energies have no entry.  Rebuilt in one energy
        call when _in_step drops it; _commit keeps it in step.  Free and
        pure-core chains never ask for it.
        Raises ValueError when the loop list violates a hard core: the
        energy call stops at the first violation, so that state (of zero
        weight) gets no store.
        """
        self._in_step()
        if self._carried is None:
            self._carried = _stored(self.config.loops, *self._evaluate(self.config.loops))
        return self._carried

    def _commit(self, removed, added, dh, split):
        """Apply an accepted move to the loop list, its per-type lists, its cell
        index, the carried energies and the energy cache.

        dh is the energy the move adds and split its split by loop pair, both
        as _energy_change returns them; lps.splice gives the order of the
        list and of the chain's copy (_listed), in which a redraw's new loop
        takes the old one's place, and the cell index gives it the old
        one's rank (LegTable.splice).  Every move removes and adds loops of
        one type, so one per-type list changes.  The loops removed leave the
        store and the added ones enter it with split; free and pure-core
        models keep no store.
        """
        lps.splice(self.config.loops, removed, added)
        if self._listed is not None:
            lps.splice(self._listed, removed, added)
        if self._table is not None:
            self._table.splice(removed, added)
        if self._by_type is not None:
            lps.splice(self._by_type[(removed or added)[0].type_index], removed, added)
        if self._carried is not None:
            store = self._carried
            for A in removed:
                for B in store.pop(A):
                    if B in store:
                        del store[B][A]
            store.update((A, {}) for A in added)
            _enter(store, split)
        self._h += dh

    def _evaluate(self, target):
        """Energy of target given the external points, and its split; None for
        the split of a free or pure-core model."""
        split = None if self._pure else {}
        return interaction_energy(list(target), self.params, external=self.config.external,
                                  conservative=self.opts.conservative_hard_core,
                                  split=split), split

    def _carried_energy(self, removed):
        """Energy e_old the loops removed carry (_store), a pair among them
        counted once.  Free and pure-core chains keep no store and never ask
        (_try): their loops carry 0.0."""
        store = self._store()
        e_old = 0.0
        for i, A in enumerate(removed):
            for B, e in store[A].items():
                if B not in removed[:i]:
                    e_old += e
        return e_old

    def _energy_change(self, removed, added, e_old):
        """Energy dh that replacing the loops removed by added adds, and its split.

        The loops removed take away e_old (_carried_energy), so a deletion
        makes no energy call.  added is walked by the chain's lane
        (loops.energy_lane) against its cell index, with removed left out,
        and the external points, in one call whose split by loop pair is
        returned for _commit to store.  A pure core returns no split, and
        unless its test is conservative the call is an overlap question on
        Python floats (loops.CoreLane).  Free chains never ask (_try).  The
        nested kernel estimator asks it for its terms' paths, with nothing
        removed.
        """
        split = None if self._pure else {}
        self._in_step()
        e_new = self._lane.walk(added, self._table, removed, self.config.external,
                                split) if added else 0.0
        return e_new - e_old, split

    def _try(self, removed, propose, log_ratio):
        """Metropolis test of replacing the loops removed by propose(); commits
        if accepted.

        Every move of every family is accepted here.  log_ratio(dh) is the
        move's log acceptance ratio for the energy change dh, falling as dh
        grows; its value at dh = -e_old (_carried_energy) bounds it, and when
        that bound is < 0 the uniform is drawn first and may reject before
        propose() is called (see the module docstring).  propose() draws the
        loops added, which must lie in the box (loops.confined_to_box) and
        have a finite energy against the rest; with nothing added (a
        deletion) neither is evaluated.  It starts by bringing the chain's
        structures in step with the loop list (_in_step).
        """
        self._in_step()
        e_old = 0.0 if self._pure else self._carried_energy(removed)
        bound = log_ratio(-e_old)
        u = self._draws.uniform() if bound < 0 else None
        if u is not None and u >= math.exp(bound):
            return False
        added = propose()
        if added and not lps.confined_to_box(added, self.box):
            return False
        dh, split = (0.0, None) if self._free else self._energy_change(removed, added, e_old)
        if math.isinf(dh):
            return False
        ratio = log_ratio(dh)  # a fresh uniform only if ratio < 0 and none was drawn
        if not (ratio >= 0 or (self._draws.uniform() if u is None else u) < math.exp(ratio)):
            return False
        self._commit(removed, added, dh, split)
        return True

    # -- proposal draws and leg masses ------------------------------------------

    def _draw_insertion(self):
        """Type, multiplicity and anchor of an insertion: uniform on its choices.
        The anchor is a list of floats, center + (u * 2 - 1) * half_side."""
        draws, box = self._draws, self.box
        j = draws.index(self.params.n_types)
        k = 1 + draws.index(self.opts.k_max)
        return j, k, [c + (draws.uniform() * 2.0 - 1.0) * box.half_side for c in box.center]

    def _loop_log_mass(self, x, k):
        """log closed-bridge mass of a k-loop anchored at x."""
        if k <= self.opts.k_max:
            return self._log_masses[k - 1]
        # a loop placed from outside may exceed the chain's k_max
        return log_bridge_mass(x, x, k, self.params.beta)

    def _closed_path(self, x, k):
        """A k-loop path anchored at x, drawn from the closed-bridge law."""
        return sample_bridge(x, x, k, self.opts.slices_per_beta, self.params.beta,
                             self.rng)

    def _redraw_leg(self, path, m):
        """path with leg m drawn afresh between its ends."""
        return resample_leg(path, m, self.rng)

    def _draw_legs(self, starts, ends):
        """One-leg bridges from starts[i] to ends[i], as grid samples."""
        return sample_bridges(starts, ends, 1, self.opts.slices_per_beta,
                              self.params.beta, self.rng)

    def _log_leg_gauss(self, u, v):
        """log mass of a one-leg bridge from u to v, lists of floats, up to a
        constant that cancels."""
        # the same sum, term by term in coordinate order, as np.sum((u - v) ** 2)
        d = sum((a - b) * (a - b) for a, b in zip(u, v))
        return -d / (2.0 * self.params.beta)

    # -- update families -----------------------------------------------------

    def step_insert_delete(self):
        st = self.stats["insert_delete"]
        st.proposed += 1
        params = self.params
        n = len(self.config.loops)
        if self._draws.uniform() < 0.5:
            # insertion: type, multiplicity and anchor, then (in _try) the
            # uniform and only then the path
            if n >= self.max_loops:
                return False
            j, k, x = self._draw_insertion()
            free = insert_log_ratio(k, math.log(params.fugacity[j]), self._loop_log_mass(x, k),
                                    0.0, self._log_choices, n + 1)
            if not self._try((), lambda: (Loop(j, self._closed_path(x, k)),),
                             lambda dh: free - dh):
                return False
        else:
            # deletion: the exact reverse, so -dh is the energy the loop carries
            if n == 0:
                return False
            loop = self.config.loops[self._draws.index(n)]
            k, j = loop.k, loop.type_index
            log_mass = self._loop_log_mass(loop.anchor, k)
            if not self._try((loop,), lambda: (), lambda dh: -insert_log_ratio(
                    k, math.log(params.fugacity[j]), log_mass, -dh, self._log_choices, n)):
                return False
        st.accepted += 1
        return True

    def step_redraw(self):
        st = self.stats["redraw"]
        st.proposed += 1
        n = len(self.config.loops)
        if n == 0:
            return False
        old = self.config.loops[self._draws.index(n)]
        m = self._draws.index(old.k)
        if not self._try((old,), lambda: (Loop(old.type_index, self._redraw_leg(old.path, m)),),
                         lambda dh: -dh):
            return False
        st.accepted += 1
        return True

    def step_merge_split(self):
        st = self.stats["merge_split"]
        st.proposed += 1
        if self._draws.uniform() < 0.5:
            ok = self._try_merge()
        else:
            ok = self._try_split()
        if ok:
            st.accepted += 1
        return ok

    def _try_merge(self):
        S = self.opts.slices_per_beta
        beta = self.params.beta
        typed = self._typed()
        counts = [len(of_type) for of_type in typed]
        n_pairs = ordered_pair_count(counts)
        if n_pairs == 0:
            return False
        j, a, b = pick_ordered_pair(self._draws.index(n_pairs), counts)
        A, B = typed[j][a], typed[j][b]
        k1, k2 = A.k, B.k
        k = k1 + k2
        if k > self.opts.k_max:
            return False
        x1, x2 = A.anchor, B.anchor
        uA, uB = A.samples[(k1 - 1) * S], B.samples[(k2 - 1) * S]

        def propose():
            conn1, conn2 = self._draw_legs([uA, uB], [x2, x1])
            samples = np.concatenate([
                A.samples[: (k1 - 1) * S + 1],
                conn1[1:],
                B.samples[1: (k2 - 1) * S + 1],
                conn2[1:],
            ])
            return (Loop(j, BridgePath(samples=samples, k=k, slices_per_beta=S, beta=beta)),)

        log_g = leg_swap_log_ratio(self._log_leg_gauss,
                                   *(p.tolist() for p in (uA, uB, x1, x2)))
        n_after = len(self.config.loops) - 1
        return self._try((A, B), propose, lambda dh: merge_log_ratio(
            k1, k2, log_g, dh, n_pairs, n_after))

    def _try_split(self):
        S = self.opts.slices_per_beta
        beta = self.params.beta
        n = len(self.config.loops)
        if n == 0:
            return False
        old = self.config.loops[self._draws.index(n)]
        k = old.k
        if k < 2 or n >= self.max_loops:
            return False
        m = 1 + self._draws.index(k - 1)
        x1 = old.anchor
        u = old.samples[m * S]
        um, uk = old.samples[(m - 1) * S], old.samples[(k - 1) * S]

        def propose():
            close1, close2 = self._draw_legs([um, uk], [x1, u])
            s1 = np.concatenate([old.samples[: (m - 1) * S + 1], close1[1:]])
            s2 = np.concatenate([old.samples[m * S: (k - 1) * S + 1], close2[1:]])
            return tuple(Loop(old.type_index, BridgePath(samples=s, k=ks, slices_per_beta=S,
                                                         beta=beta))
                         for s, ks in ((s1, m), (s2, k - m)))

        log_g = leg_swap_log_ratio(self._log_leg_gauss,
                                   *(p.tolist() for p in (um, uk, u, x1)))
        # ordered same-type pairs after the split: one more loop of old's type
        counts = [len(of_type) for of_type in self._typed()]
        counts[old.type_index] += 1
        n_pairs = ordered_pair_count(counts)
        return self._try((old,), propose, lambda dh: -merge_log_ratio(
            m, k - m, -log_g, -dh, n_pairs, n))

    # -- driving -------------------------------------------------------------

    def step(self):
        r = self._draws.uniform()
        if r < self._move_cdf[0]:
            return self.step_insert_delete()
        if r < self._move_cdf[1]:
            return self.step_merge_split()
        return self.step_redraw()

    def sweep(self):
        n = self.opts.proposals_per_sweep
        if n <= 0:
            n = max(16, 2 * len(self.config.loops))
        for _ in range(n):
            self.step()
        self.sweeps_done += 1
        if self.opts.audit_interval and self.sweeps_done % self.opts.audit_interval == 0:
            self.audit()

    def run(self, n_sweeps):
        for _ in range(n_sweeps):
            self.sweep()


_ZERO_WEIGHT = "the loops violate a hard core: a state of zero weight"


def _enter(store, split):
    """Enter an interaction_energy split into a store of carried energies, both ways."""
    for A, parts in split.items():
        for B, e in parts.items():
            store[A][B] = store[B][A] = e


def _stored(loops, h, split):
    """A store of carried energies for loops from their whole energy h and its split."""
    if math.isinf(h):
        raise ValueError(_ZERO_WEIGHT)
    store = {lp: {} for lp in loops}
    _enter(store, split)
    return store


# -- checkpointing -------------------------------------------------------------

_CKPT_TAG = "loopgas-checkpoint 1"


def save_checkpoint(chain, path):
    """Write sweeps, RNG state, sampler options, move stats and configuration
    for exact restart.

    Written beside path and moved over it once complete, so a crash
    mid-write leaves the previous checkpoint intact.
    """
    state = {
        "sweeps": chain.sweeps_done,
        "rng": chain.rng.bit_generator.state,
        "options": asdict(chain.opts),
        "stats": {name: asdict(st) for name, st in chain.stats.items()},
    }
    tmp = os.fspath(path) + ".tmp"
    with open(tmp, "w") as fh:
        fh.write(_CKPT_TAG + "\n")
        fh.write(json.dumps(state) + "\n")
        fh.write(lps.dumps_config(chain.config))
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)


# options a resumed chain must share with the saved one
_RESUME_FIELDS = ("slices_per_beta", "k_max", "move_weights", "proposals_per_sweep",
                  "conservative_hard_core")


def load_checkpoint(path, params, options=None):
    """Resume the chain saved at path on the sampler options and move stats it
    was saved with; a checkpoint without saved stats counts from zero.

    options that differ from the saved ones in a field of _RESUME_FIELDS are
    refused; another slices_per_beta would mix grids.  A checkpoint without
    saved options resumes on the defaults and its grid, and refuses only
    another grid.
    """
    with open(path) as fh:
        tag = fh.readline().strip()
        if tag != _CKPT_TAG:
            raise ValueError("unrecognised checkpoint header")
        state = json.loads(fh.readline())
        config = lps.loads_config(fh.read(), max_range=params.max_range)
    saved, shared = state.get("options"), _RESUME_FIELDS
    if saved is None:
        saved, shared = SamplerOptions(slices_per_beta=config.slices_per_beta), shared[:1]
    else:
        saved = SamplerOptions(**dict(saved, move_weights=tuple(saved["move_weights"])))
    options = options or saved
    options = replace(options, move_weights=tuple(options.move_weights))
    for name in shared:
        if getattr(options, name) != getattr(saved, name):
            raise ValueError("checkpoint has %s %r, options ask for %r"
                             % (name, getattr(saved, name), getattr(options, name)))
    chain = Chain(params, config.box, external=config.external, options=options)
    chain.config = config
    chain.sweeps_done = state["sweeps"]
    chain.rng.bit_generator.state = state["rng"]
    chain.stats.update((name, MoveStats(**st)) for name, st in state.get("stats", {}).items())
    chain.audit(tol=math.inf)  # seeds the energy cache and the carried energies
    return chain


# -- estimators ----------------------------------------------------------------


def batch_means(values, n_batches=N_BATCHES):
    """Mean and batch-means standard error of a 1-d sample sequence."""
    arr = np.asarray(values, dtype=float)
    n = arr.size
    if n < n_batches:
        return float(np.mean(arr)) if n else 0.0, math.inf
    usable = (n // n_batches) * n_batches
    blocks = arr[:usable].reshape(n_batches, -1).mean(axis=1)
    se = float(np.std(blocks, ddof=1) / math.sqrt(n_batches))
    return float(np.mean(arr[:usable])), se


@dataclass
class KernelEstimate:
    value: float
    std_error: float
    n_samples: int
    truncation_bound: float
    status: str = "ok"
    meta: dict = field(default_factory=dict)


def _endpoint_tables(starts, ends, params, k_max):
    """Per-type multiplicity weight tables of the legs, and the permutation combos.

    tables[j][(l, t)] is (W, cdf, x, y) for the leg from start x = l to end
    y = t of type j: W sums over k = 1..k_max the terms z^k times the bridge
    mass, the exact leg weight; cdf is the cumulative importance law for k,
    the terms over W, normalised as Generator.choice normalises its p.
    The terms are taken on Python floats (bridge._mass), and W is their
    np.sum.  combos holds every choice of one permutation per type.
    """
    tables, perms, beta = [], [], params.beta
    for j in range(params.n_types):
        xs = np.asarray(starts[j], dtype=float)
        ys = np.asarray(ends[j], dtype=float)
        n, z = xs.shape[0], params.fugacity[j]
        table = {}
        for l in range(n):
            for t in range(n):
                x, y = xs[l], ys[t]
                sq = float(np.sum((x - y) ** 2))  # bridge_mass's square, once per leg
                w = np.array([z ** k * _mass(sq, x.size, k * beta)
                              for k in range(1, k_max + 1)])
                W = float(np.sum(w))
                cdf = (w / W).cumsum() if W > 0.0 else np.ones(1)  # never drawn from
                table[(l, t)] = W, cdf / cdf[-1], x, y
        tables.append(table)
        perms.append(permutations(range(n)))
    return tables, list(iproduct(*perms))


def _draw_group(x, y, k, S, beta, m, rng, box0, box):
    """m paths of one leg and multiplicity k, as sample_bridges draws them,
    flat (each path's samples in memory order, path after path), and which
    of them pass _sample_terms' tests (a list of bools, None when there is
    none).

    A group that takes the scalar walk (bridge._scalar) is walked in one
    flat list of its m paths (bridge._walk) and stays on Python floats,
    tested on the same doubles (a coordinate's largest |s - c| is
    max(hi - c, c - lo) over its samples, as rounding is monotone).  A larger
    group is one sample_bridges batch, tested by one max-abs reduce per box.
    """
    span, d = k * S, x.size
    if not _scalar(m, span, d):
        batch = sample_bridges(np.broadcast_to(x, (m, d)), np.broadcast_to(y, (m, d)),
                               k, S, beta, rng)
        ok = None
        if box is not None:
            ok = np.abs(batch - box.center_array).max(axis=(1, 2)) <= box.half_side
        if box0 is not None:
            clear = (np.abs(batch[:, S:-1:S] - box0.center_array).max(axis=2)
                     > box0.half_side).all(axis=1)
            ok = clear if ok is None else ok & clear
        return batch.ravel(), None if ok is None else ok.tolist()
    size = (span + 1) * d
    v = (x.tolist() + [0.0] * ((span - 1) * d) + y.tolist()) * m
    _walk(v, 0, span, beta / S, m, d, rng)
    whole = range(S * d, span * d, S * d) if box0 is not None else ()  # interior whole-beta rows
    if box is None and not whole:
        return v, None
    ok = []
    for p in range(0, m * size, size):
        good = box is None or all(
            max(v[p + a:p + size:d]) - c <= box.half_side
            and c - min(v[p + a:p + size:d]) <= box.half_side
            for a, c in enumerate(box.center))
        ok.append(good and all(any(abs(v[p + r + a] - c) > box0.half_side
                                   for a, c in enumerate(box0.center))
                               for r in whole))
    return v, ok


def _sample_terms(tables, combo, params, S, n, rng, box0=None, box=None):
    """Draw n terms of one permutation combo, each with one path per leg.

    Legs go in combo order.  Per leg, one rng.random(n) gives the n
    multiplicities by inverse CDF, the draw of rng.choice(k_max, p=terms / W),
    and then one draw per distinct k, in increasing k, gives the paths of
    the terms with that k (_draw_group), the rows sample_bridges would
    give, on Python floats for a group small enough for the scalar walk.
    With n = 1 that is one uniform and one bridge per leg, leg after leg:
    the stream of drawing one term at a time.  A leg with W <= 0 ends the
    draw before its uniforms, and no term survives.

    Returns (weight, ok, paths).  Every term carries weight = prod W over its
    legs (the sampled k is importance-corrected).  ok, a bool array, marks
    the terms whose paths all lie in box on the grid (if given) and avoid
    box0 at their interior whole-beta times (if given).  paths(i) gives term
    i's OpenPaths in leg order.
    """
    weight, ok, legs, beta = 1.0, np.ones(n, dtype=bool), [], params.beta
    for j, sigma in enumerate(combo):
        for l, t in enumerate(sigma):
            W, cdf, x0, y0 = tables[j][(l, t)]
            if W <= 0.0:
                return 0.0, np.zeros(n, dtype=bool), None
            ks = 1 + cdf.searchsorted(rng.random(n), side="right")
            # the terms by k: rows order[cut[k - 1]:cut[k]] of the stable order
            order = np.argsort(ks, kind="stable")
            cut = ks[order].searchsorted(np.arange(1, cdf.size + 2)).tolist()
            order = order.tolist()
            groups = {}
            for k in range(1, cdf.size + 1):
                rows = order[cut[k - 1]:cut[k]]
                if rows:
                    groups[k], passed = _draw_group(x0, y0, k, S, beta, len(rows), rng,
                                                    box0, box)
                    if passed is not None:
                        ok[[i for i, good in zip(rows, passed) if not good]] = False
            legs.append((j, ks, groups, x0.size))
            weight *= W

    def paths(i):  # row of term i in its k group: earlier terms with that k
        out = []
        for j, ks, groups, d in legs:
            k = int(ks[i])
            size, row = (k * S + 1) * d, np.count_nonzero(ks[:i] == k)
            out.append(OpenPath(j, BridgePath(
                np.reshape(groups[k][row * size:(row + 1) * size], (-1, d)), k, S, beta)))
        return out
    return weight, ok, paths


def _truncation_bound(tables, combos, params, k_max):
    """Bound on the weight missed by the multiplicity cutoff.

    A type-j leg in d dimensions misses at most
    delta = analytic.kernel_remainder(z_j, beta, d, K) of its full weight, so a
    combo misses at most prod (W_l + delta_l) - prod W_l, that is
    sum_l delta_l prod_{m<l} W_m prod_{m>l} (W_m + delta_m), summed leg by
    leg in nested form; a single leg gives delta exactly.  The bound adds
    this over the combos.
    """
    bound = 0.0
    for combo in combos:
        missed, head = 0.0, 1.0  # over the legs so far: the bound and prod W
        for j, sigma in enumerate(combo):
            for l, t in enumerate(sigma):
                W, _, x, _ = tables[j][(l, t)]
                delta = kernel_remainder(params.fugacity[j], params.beta, x.size, k_max)
                missed = missed * (W + delta) + head * delta
                head *= W
        bound += missed
    return bound


def _counts_match(starts, ends):
    return all(np.asarray(s).shape == np.asarray(e).shape
               for s, e in zip(starts, ends))


def estimate_reference_kernel(starts, ends, params, box0, k_max=20, S=32,
                              n_samples=2000, rng=None):
    """Monte Carlo value of the free multiplicity-summed kernel with exclusion.

    Product over types of permutation sums; each matched endpoint pair
    carries sum_k z^k (bridge mass), and sampled bridges are accepted only
    when they avoid box0 at their interior whole-beta times.  No interaction
    and no background enter.  Mismatched per-type endpoint counts give the
    exact zero estimate.  Each combo draws its n_samples terms in one batch
    (_sample_terms), combo after combo.

    The value reads the paths only at their interior whole-beta times, so
    they are drawn there alone: whole-beta skeletons, the bisection at one
    slice per beta, exact in law at those times at any S.  S changes no
    draw; it is recorded in meta.
    """
    if rng is None:
        rng = np.random.default_rng()
    if not _counts_match(starts, ends):
        return KernelEstimate(0.0, 0.0, 0, 0.0, meta={"reason": "cardinality mismatch"})
    tables, combos = _endpoint_tables(starts, ends, params, k_max)
    vals = np.zeros(n_samples)
    for combo in combos:
        weight, ok, _ = _sample_terms(tables, combo, params, 1, n_samples, rng, box0)
        vals[ok] += weight
    value, se = batch_means(vals)
    status = "ok" if n_samples >= N_BATCHES else "insufficient_samples"
    tb = _truncation_bound(tables, combos, params, k_max)
    return KernelEstimate(value, se, n_samples, tb, status,
                          meta={"k_max": k_max, "S": S})


def estimate_rdm_kernel(chain, starts, ends, box0, n_snapshots=400, thin=2,
                        inner_per_snapshot=4, n_batches=N_BATCHES, apply_exclusion=True):
    """Nested Monte Carlo for the reduced-kernel of the interacting gas.

    Outer level: configurations of the surrounding loop gas drawn from the
    running chain.  Inner level: open paths joining the pinned endpoints,
    with permutations enumerated, multiplicities importance-sampled under
    the per-leg mass weights, and bridges sampled from the exact bridge law.
    Each term carries confinement, the exclusion indicators on box0 (paths,
    background anchors, and background whole-step visits), and the Boltzmann
    factor of the path energy given background and external points.  Per
    snapshot each combo draws its inner_per_snapshot terms in one batch
    (_sample_terms), which keeps the stream of one term at a time at n = 1.
    Paths are drawn on the chain's grid, with the chain's k_max.  Only the
    background loops whose bounds meet box0 (loops.meeting_box) are tested
    against it, and each term's energy is asked as the chain's moves ask
    theirs (Chain._energy_change, through the chain's lane).

    With apply_exclusion=False the box0 indicators are skipped; this
    diagnostic mode turns the estimator into the plain reduced-kernel of the
    gas and, for the free gas, into the closed-form multiplicity sum.
    """
    params = chain.params
    rng = chain.rng
    S, k_max = chain.opts.slices_per_beta, chain.opts.k_max
    free = params.is_free()
    if not _counts_match(starts, ends):
        return KernelEstimate(0.0, 0.0, 0, 0.0, meta={"reason": "cardinality mismatch"})
    tables, combos = _endpoint_tables(starts, ends, params, k_max)
    vals = np.empty(n_snapshots)
    for snap in range(n_snapshots):
        chain.run(thin)
        if apply_exclusion:
            near = lps.meeting_box(chain.config.loops, box0)
            if near and (box0.contains([lp.anchor for lp in near]).any()
                         or not lps.avoids_box_at_step_times(near, box0)):
                vals[snap] = 0.0
                continue
        acc = 0.0
        for combo in combos:
            weight, ok, paths = _sample_terms(
                tables, combo, params, S, inner_per_snapshot, rng,
                box0 if apply_exclusion else None, chain.box)
            for i in np.flatnonzero(ok).tolist():
                # the paths' energy against the background and the external
                # points, asked as a move that adds them and removes nothing
                h = 0.0 if free else chain._energy_change((), paths(i), 0.0)[0]
                acc += weight * math.exp(-h)
        vals[snap] = acc / inner_per_snapshot
    value, se = batch_means(vals, n_batches)
    status = "ok" if n_snapshots >= n_batches else "insufficient_samples"
    tb = _truncation_bound(tables, combos, params, k_max)
    return KernelEstimate(value, se, n_snapshots, tb, status,
                          meta={"k_max": k_max, "S": S,
                                "box": chain.box.half_side})


@dataclass
class DensityEstimate:
    per_type: list
    std_errors: list
    snapshot_histogram: dict  # k -> per-snapshot counts of k-loops
    n_snapshots: int
    window_volume: float
    warning: str = ""

    @property
    def histogram(self):
        """k -> k-loops over all snapshots."""
        return _pooled(self.snapshot_histogram)


def _window_margin(box, window):
    """Max-norm gap between the window's outer edge and the box boundary."""
    offset = max(abs(window.center_array - box.center_array))
    return box.half_side - (offset + window.half_side)


def _window_snapshots(chain, windows, n_sweeps, thin):
    """Snapshot the chain every thin sweeps: per window, snapshot and type the
    anchor counts and multiplicity sums, and per window a histogram k ->
    per-snapshot counts of k-loops.  Each snapshot stacks the anchors once
    and tests them with one contains call per window.
    """
    n_snap = n_sweeps // thin
    shape = (len(windows), n_snap, chain.params.n_types)
    counts = np.zeros(shape)
    k_sums = np.zeros(shape)
    hists = [{} for _ in windows]
    for i in range(n_snap):
        chain.run(thin)
        loops = chain.config.loops
        anchors = np.array([lp.anchor for lp in loops])
        for w, window in enumerate(windows):
            for lp in compress(loops, window.contains(anchors).tolist()):
                counts[w, i, lp.type_index] += 1
                k_sums[w, i, lp.type_index] += lp.k
                if lp.k not in hists[w]:
                    hists[w][lp.k] = np.zeros(n_snap)
                hists[w][lp.k][i] += 1
    return counts, k_sums, hists


def _pooled(hist):
    """Histogram k -> loops over all snapshots."""
    return {k: int(per_snap.sum()) for k, per_snap in hist.items()}


def estimate_density(chain, window, n_sweeps, thin=1):
    """Anchor density per type in a window, with multiplicity histogram.

    A window that crowds the home box closer than the interaction range
    picks up boundary suppression; that is reported as a warning flag on
    the result rather than an error.
    """
    margin = _window_margin(chain.box, window)
    warning = ""
    if margin < chain.params.max_range:
        warning = ("window margin %.3g below interaction range %.3g; "
                   "boundary suppression may bias the estimate"
                   % (margin, chain.params.max_range))
    counts, _, hists = _window_snapshots(chain, [window], n_sweeps, thin)
    vol = window.volume
    vals, ses = map(list, zip(*[batch_means(counts[0, :, j] / vol)
                                for j in range(chain.params.n_types)]))
    return DensityEstimate(vals, ses, hists[0], counts.shape[1], vol, warning)


@dataclass
class TailEstimate:
    k0: int
    probability: float
    std_error: float
    n_snapshots: int


def estimate_multiplicity_tail(chain, box0, k0_list, n_sweeps, thin=1):
    """P(some type's total multiplicity among box0-anchored loops >= k0)."""
    _, k_sums, _ = _window_snapshots(chain, [box0], n_sweeps, thin)
    top = k_sums[0].max(axis=1)
    return [TailEstimate(int(k0), *batch_means(np.where(top >= k0, 1.0, 0.0)),
                         top.size) for k0 in k0_list]


def histogram_gaps(hist_a, hist_b):
    """Per multiplicity k, the gap between two windows' counts of k-loops.

    hist_a and hist_b map k to per-snapshot counts taken at the same
    snapshots.  Returns k -> (sigma, se): se is the batch-means standard
    error of the mean per-snapshot count difference, so it holds for
    correlated snapshots, and sigma is that mean over se in absolute value,
    or None when the two windows pool fewer than MIN_POOLED k-loops or se
    is 0.
    """
    gaps = {}
    for k in sorted(set(hist_a) | set(hist_b)):
        a, b = hist_a.get(k, 0.0), hist_b.get(k, 0.0)
        mean, se = batch_means(a - b)
        thick = np.sum(a) + np.sum(b) >= MIN_POOLED and se > 0
        gaps[k] = (abs(mean) / se if thick else None, se)
    return gaps


@dataclass
class ProbeReport:
    densities_base: list
    densities_shifted: list
    diff_std_errors: list
    histogram_base: dict
    histogram_shifted: dict
    histogram_diff_std_errors: dict  # k -> standard error of the pooled count gap
    consistent: bool
    max_sigma: float  # the larger of the two below
    density_sigma: float
    histogram_sigma: float
    note: str = ("empirical consistency check between congruent windows; "
                 "agreement supports translation invariance but proves nothing")


def probe_window_error(box, box0, shift, max_range, beta):
    """Why box0 or its shifted copy is too near the box boundary, or None.

    Each window needs a margin of at least the interaction range plus three
    thermal lengths.  The rule depends on the config alone, so the config
    parser applies it too.
    """
    need = max_range + 3.0 * math.sqrt(beta)
    for w in (box0, box0.shifted(shift)):
        margin = _window_margin(box, w)
        if margin < need:
            return "window margin %.3g below range plus thermal length %.3g" % (margin, need)
    return None


def shift_invariance_probe(chain, box0, shift, n_sweeps, thin=1):
    """Compare loop statistics between box0 and its shifted copy.

    Densities per type and multiplicity histograms are accumulated in both
    windows from the same trajectory; differences are judged against their
    joint batch-means errors: per type for the densities, per multiplicity
    bin with at least MIN_POOLED pooled loops for the histograms
    (histogram_gaps).  They are consistent when no gap passes PROBE_SIGMA.
    Raises when either window crowds the boundary (probe_window_error).
    """
    params = chain.params
    crowded = probe_window_error(chain.box, box0, shift, params.max_range, params.beta)
    if crowded:
        raise ValueError(crowded)
    (base, shif), _, (hist_b, hist_s) = _window_snapshots(
        chain, [box0, box0.shifted(shift)], n_sweeps, thin)
    vol = box0.volume
    dens_b, dens_s, dses = [], [], []
    dens_worst = 0.0
    for j in range(params.n_types):
        vb, _ = batch_means(base[:, j] / vol)
        vs, _ = batch_means(shif[:, j] / vol)
        _, se_d = batch_means((base[:, j] - shif[:, j]) / vol)
        dens_b.append(vb)
        dens_s.append(vs)
        dses.append(se_d)
        if se_d > 0:
            dens_worst = max(dens_worst, abs(vb - vs) / se_d)
    gaps = histogram_gaps(hist_b, hist_s)
    hist_worst = max([g for g, _ in gaps.values() if g is not None], default=0.0)
    worst = max(dens_worst, hist_worst)
    return ProbeReport(dens_b, dens_s, dses, _pooled(hist_b), _pooled(hist_s),
                       {k: base.shape[0] * se for k, (_, se) in gaps.items()},
                       worst <= PROBE_SIGMA, worst, dens_worst, hist_worst)
