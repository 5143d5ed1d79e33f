"""Enumerable discrete twin of the continuum sampler for balance tests.

Sites on a small one-dimensional grid replace continuous space; a loop of
multiplicity k is a cyclic word of k*S sites whose step factors come from
the Gaussian kernel of one grid slice, evaluated on the site set and left
unnormalised.  Interior points of freshly proposed legs are drawn from the
exact sequential conditionals (matrix powers of the step kernel), so every
proposal density is available in closed form and the full state space of at
most max_loops loops can be enumerated.  The moves run on the continuum
chain's own pieces, fed with the twin's multiplicities, leg masses and energy
differences: the family is picked through mc.move_cdf, merge pairs through
mc.ordered_pair_count and mc.pick_ordered_pair (one type, so counts [n]),
ratios through mc.insert_log_ratio and mc.merge_log_ratio.  Insertion is
tested by mc.accept_insertion; deletion, wiggle, merge and split share one
Metropolis test and commit (_try), which keeps the list order of the chain's
loops.splice.  So flux and occupancy tests against the enumerated invariant
law exercise the formulas the continuum chain runs on, with the energy from
the production code on the embedded paths.
"""

import bisect
import itertools
import math
from collections import Counter, namedtuple

import numpy as np

from . import mc
from .bridge import BridgePath
from .loops import Loop, interaction_energy

DiscreteLoop = namedtuple("DiscreteLoop", ["k", "sites"])

# update families in the order of mc.move_cdf; wiggle is the chain's leg redraw
FAMILIES = ("insert_delete", "merge_split", "wiggle")

MAX_STATES = 200000


class DiscreteLoopGas:
    """Loop gas on a finite 1-d site set with enumerable state space.

    The state is a list of DiscreteLoop(k, sites) with sites a length-k*S
    tuple of site indices; sites[0] is the anchor and the word closes back
    to it.  The invariant law restricted to at most max_loops loops is
    targeted exactly: proposals that would exceed the cap are rejected,
    which preserves reversibility on the capped space.
    """

    def __init__(self, positions, params, slices_per_beta=2, k_max=2,
                 max_loops=2, seed=None):
        if params.n_types != 1 or params.dimension != 1:
            raise ValueError("the discrete twin is single-type and one-dimensional")
        self.positions = np.asarray(positions, dtype=float)
        self.params = params
        self.S = int(slices_per_beta)
        self.k_max = int(k_max)
        self.max_loops = int(max_loops)
        self.n_sites = self.positions.size
        self.rng = np.random.default_rng(seed)
        delta = params.beta / self.S
        diff = self.positions[:, None] - self.positions[None, :]
        self.M = np.exp(-diff * diff / (2.0 * delta))
        self.Mpow = [np.eye(self.n_sites)]
        for _ in range(self.k_max * self.S):
            self.Mpow.append(self.Mpow[-1] @ self.M)
        self.state = []
        self._energy_cache = {}
        # bounds between the families at the continuum chain's default
        # weights, wiggle for redraw; past the last bound, wiggle
        self._move_cdf = mc.move_cdf(mc.SamplerOptions().move_weights)[:-1].tolist()

    # -- loop values and weights ----------------------------------------------

    def _to_loop(self, dl):
        idx = list(dl.sites) + [dl.sites[0]]
        samples = self.positions[idx].reshape(-1, 1)
        return Loop(0, BridgePath(samples=samples, k=dl.k,
                                  slices_per_beta=self.S,
                                  beta=self.params.beta))

    def loop_log_weight(self, dl):
        """log of z^k / k times the product of step factors around the loop."""
        z = self.params.fugacity[0]
        out = dl.k * math.log(z) - math.log(dl.k)
        n = len(dl.sites)
        for t in range(n):
            out += math.log(self.M[dl.sites[t], dl.sites[(t + 1) % n]])
        return out

    def config_energy(self, state):
        key = canonical(state)
        cached = self._energy_cache.get(key)
        if cached is None:
            cached = interaction_energy([self._to_loop(dl) for dl in state],
                                        self.params)
            self._energy_cache[key] = cached
        return cached

    # -- exact discrete bridges -------------------------------------------------

    def sample_interior(self, u, v, r):
        """Interior sites of an r-step bridge from u to v, exact in law.

        Site i is drawn with probability M[prev, i] * M^(r-i)[i, v] divided
        by M^(r-i+1)[prev, v]; the product of these conditionals equals the
        product of step factors over the leg mass M^r[u, v].
        """
        sites = []
        prev = u
        for i in range(1, r):
            rem = r - i
            probs = self.M[prev, :] * self.Mpow[rem][:, v]
            probs /= probs.sum()
            prev = int(self.rng.choice(self.n_sites, p=probs))
            sites.append(prev)
        return tuple(sites)

    def leg_log_mass(self, u, v):
        return math.log(self.Mpow[self.S][u, v])

    # -- update families, continuum ratio structure ------------------------------

    def _try(self, drop, added, log_ratio):
        """Metropolis test of replacing the loops at places drop by added; commits if accepted.

        The list order is that of loops.splice, applied by place since equal
        loops compare equal: one loop for one keeps its place; otherwise the
        dropped loops go and the added ones are appended.  log_ratio(dh) is
        the move's log acceptance ratio for the energy change dh.
        """
        if len(drop) == len(added) == 1:
            new = list(self.state)
            new[drop[0]] = added[0]
        else:
            new = [dl for i, dl in enumerate(self.state) if i not in drop] + list(added)
        dh = self.config_energy(new) - self.config_energy(self.state)
        if math.isinf(dh) or not mc.metropolis(log_ratio(dh), self.rng):
            return False
        self.state = new
        return True

    def step_insert_delete(self):
        rng = self.rng
        log_z = math.log(self.params.fugacity[0])
        log_choices = math.log(self.n_sites * self.k_max)
        n = len(self.state)
        if rng.random() < 0.5:
            if n >= self.max_loops:
                return False
            a = int(rng.integers(self.n_sites))
            k = int(rng.integers(1, self.k_max + 1))
            r = k * self.S

            def propose():
                dl = DiscreteLoop(k, (a,) + self.sample_interior(a, a, r))
                h_new = self.config_energy(self.state + [dl])
                return dl, h_new - self.config_energy(self.state)

            accepted = mc.accept_insertion(mc.insert_log_ratio(
                k, log_z, math.log(self.Mpow[r][a, a]), 0.0, log_choices, n + 1),
                propose, rng)
            if accepted is None:
                return False
            self.state.append(accepted[0])
            return True
        if n == 0:
            return False
        idx = int(rng.integers(n))
        dl = self.state[idx]
        log_mass = math.log(self.Mpow[dl.k * self.S][dl.sites[0], dl.sites[0]])
        return self._try((idx,), (), lambda dh: -mc.insert_log_ratio(
            dl.k, log_z, log_mass, -dh, log_choices, n))

    def step_wiggle(self):
        rng = self.rng
        n = len(self.state)
        if n == 0:
            return False
        idx = int(rng.integers(n))
        dl = self.state[idx]
        S = self.S
        m = int(rng.integers(dl.k))
        u = dl.sites[m * S]
        v = dl.sites[((m + 1) * S) % (dl.k * S)]
        sites = list(dl.sites)
        sites[m * S + 1: m * S + S] = self.sample_interior(u, v, S)
        return self._try((idx,), (DiscreteLoop(dl.k, tuple(sites)),), lambda dh: -dh)

    def step_merge_split(self):
        if self.rng.random() < 0.5:
            return self._try_merge()
        return self._try_split()

    def _try_merge(self):
        rng = self.rng
        S = self.S
        n = len(self.state)
        n_pairs = mc.ordered_pair_count([n])
        if n_pairs == 0:
            return False
        _, ia, ib = mc.pick_ordered_pair(int(rng.integers(n_pairs)), [n])
        A, B = self.state[ia], self.state[ib]
        k1, k2 = A.k, B.k
        if k1 + k2 > self.k_max:
            return False
        x1, x2 = A.sites[0], B.sites[0]
        uA = A.sites[(k1 - 1) * S]
        uB = B.sites[(k2 - 1) * S]
        conn1 = self.sample_interior(uA, x2, S)
        conn2 = self.sample_interior(uB, x1, S)
        merged = DiscreteLoop(k1 + k2, A.sites[: (k1 - 1) * S + 1] + conn1
                              + (x2,) + B.sites[1: (k2 - 1) * S + 1] + conn2)
        log_g = mc.leg_swap_log_ratio(self.leg_log_mass, uA, uB, x1, x2)
        return self._try((ia, ib), (merged,), lambda dh: mc.merge_log_ratio(
            k1, k2, log_g, dh, n_pairs, n - 1))

    def _try_split(self):
        rng = self.rng
        S = self.S
        n = len(self.state)
        if n == 0:
            return False
        idx = int(rng.integers(n))
        old = self.state[idx]
        k = old.k
        if k < 2 or n + 1 > self.max_loops:
            return False
        m = int(rng.integers(1, k))
        x1 = old.sites[0]
        u = old.sites[m * S]
        sm1 = old.sites[(m - 1) * S]
        sk1 = old.sites[(k - 1) * S]
        close1 = self.sample_interior(sm1, x1, S)
        close2 = self.sample_interior(sk1, u, S)
        loop1 = DiscreteLoop(m, old.sites[: (m - 1) * S + 1] + close1)
        loop2 = DiscreteLoop(k - m, old.sites[m * S: (k - 1) * S + 1] + close2)
        log_g = mc.leg_swap_log_ratio(self.leg_log_mass, sm1, sk1, u, x1)
        n_pairs = mc.ordered_pair_count([n + 1])
        return self._try((idx,), (loop1, loop2), lambda dh: -mc.merge_log_ratio(
            m, k - m, -log_g, -dh, n_pairs, n))

    def step_family(self, family):
        if family not in FAMILIES:
            raise ValueError("unknown update family %r" % (family,))
        return getattr(self, "step_" + family)()

    def step(self):
        """One update of a family picked through move_cdf, as the chain picks it."""
        r = self.rng.random()
        return self.step_family(FAMILIES[bisect.bisect_right(self._move_cdf, r)])

    # -- exact enumeration --------------------------------------------------------

    def all_loops(self):
        out = []
        for k in range(1, self.k_max + 1):
            for sites in itertools.product(range(self.n_sites), repeat=k * self.S):
                out.append(DiscreteLoop(k, sites))
        return sorted(out)

    def enumerate_states(self):
        """Exact invariant law over multisets of at most max_loops loops.

        Weight of a multiset: product over distinct loop values of
        w^c / c! times exp(-h) of the whole configuration, normalised over
        the capped space.  States killed by a hard core are dropped.
        """
        loops = self.all_loops()
        logw = {dl: self.loop_log_weight(dl) for dl in loops}
        table = {}
        total = 0.0
        n_states = 0
        for n in range(self.max_loops + 1):
            for combo in itertools.combinations_with_replacement(loops, n):
                n_states += 1
                if n_states > MAX_STATES:
                    raise ValueError("state space too large to enumerate")
                h = self.config_energy(list(combo))
                if math.isinf(h):
                    continue
                lw = -h
                for dl, c in Counter(combo).items():
                    lw += c * logw[dl] - math.lgamma(c + 1)
                weight = math.exp(lw)
                table[tuple(combo)] = weight
                total += weight
        return {st: w / total for st, w in table.items()}

    def sample_state(self, law, rng=None):
        """One exact draw from an enumerated law (dict state -> probability)."""
        rng = rng if rng is not None else self.rng
        states = list(law.keys())
        probs = np.array([law[s] for s in states])
        probs /= probs.sum()
        i = int(rng.choice(len(states), p=probs))
        return states[i]


def canonical(state):
    """Order-free key of a loop multiset."""
    return tuple(sorted(state))
