"""Enumerable discrete twin of the continuum sampler for balance tests.

Sites on a small one-dimensional grid replace continuous space; a loop of
multiplicity k is a cyclic word of k*S sites whose step factors come from
the Gaussian kernel of one grid slice, evaluated on the site set and left
unnormalised.  Interior points of freshly proposed legs are drawn from the
exact sequential conditionals (matrix powers of the step kernel), so every
proposal density is available in closed form and the full state space of at
most max_loops loops can be enumerated.

The twin is an mc.Chain whose loops are Loop objects on the site positions.
It overrides only what differs on the grid: the insertion draw (site, then
multiplicity), the path and leg draws, and the loop and leg masses fed to
the ratios.  Every move, its family pick, its caps and cut points, its box
test, the energy its removed loops carry and its energy change (the chain's
store of carried energies, its cell index and per-partner split), its
ratio, its early rejection, its acceptance test and its commit are the
chain's own code, so flux and occupancy tests against the enumerated
invariant law check what the continuum chain runs.  The enumerated law
itself takes each whole configuration's energy from interaction_energy, an
independent reference for that bookkeeping.
"""

import itertools
import math
from collections import Counter, namedtuple

import numpy as np

from . import mc
from .bridge import BridgePath
from .loops import Loop, interaction_energy
from .model import Box

DiscreteLoop = namedtuple("DiscreteLoop", ["k", "sites"])

MAX_STATES = 200000
SITES = (0.0, 0.6)  # the grid's site positions


class DiscreteLoopGas(mc.Chain):
    """Loop gas on a finite 1-d site set with enumerable state space.

    The state is a list of DiscreteLoop(k, sites) with sites a length-k*S
    tuple of site indices; sites[0] is the anchor and the word closes back
    to it.  The invariant law restricted to at most max_loops loops is
    targeted exactly: proposals that would exceed the cap are rejected,
    which preserves reversibility on the capped space.
    """

    max_loops = 2  # the cap of the enumerated space

    def __init__(self, params, seed=None):
        if params.n_types != 1 or params.dimension != 1:
            raise ValueError("the discrete twin is single-type and one-dimensional")
        self.positions = np.array(SITES)
        self._site = {x: i for i, x in enumerate(SITES)}
        lo, hi = min(SITES), max(SITES)
        # a box holding every site, so no path leaves it
        super().__init__(params, Box(((lo + hi) / 2.0,), (hi - lo) / 2.0 + 1.0),
                         options=mc.SamplerOptions(slices_per_beta=2, k_max=2),
                         seed=seed)
        self.S = self.opts.slices_per_beta
        self.k_max = self.opts.k_max
        self.n_sites = len(SITES)
        self._log_choices = math.log(self.n_sites * self.k_max)
        delta = params.beta / self.S
        diff = self.positions[:, None] - self.positions[None, :]
        self.M = np.exp(-diff * diff / (2.0 * delta))
        self.Mpow = [np.eye(self.n_sites)]
        for _ in range(self.k_max * self.S):
            self.Mpow.append(self.Mpow[-1] @ self.M)

    # -- loops as site words ------------------------------------------------------

    def _sites(self, samples):
        return tuple(map(self._site.__getitem__, samples[:, 0].tolist()))

    def _samples(self, sites):
        return self.positions[list(sites)].reshape(-1, 1)

    def _path(self, k, sites):
        """The BridgePath through the positions of sites, k*S + 1 of them."""
        return BridgePath(samples=self._samples(sites), k=k, slices_per_beta=self.S,
                          beta=self.params.beta)

    def _word(self, loop):
        return DiscreteLoop(loop.k, self._sites(loop.samples[:-1]))

    def _loop(self, dl):
        return Loop(0, self._path(dl.k, dl.sites + dl.sites[:1]))

    @property
    def state(self):
        return [self._word(lp) for lp in self.config.loops]

    @state.setter
    def state(self, words):
        self.config.loops = [self._loop(dl) for dl in words]

    def loop_log_weight(self, dl):
        """log of z^k / k times the product of step factors around the loop."""
        z = self.params.fugacity[0]
        out = dl.k * math.log(z) - math.log(dl.k)
        n = len(dl.sites)
        for t in range(n):
            out += math.log(self.M[dl.sites[t], dl.sites[(t + 1) % n]])
        return out

    # -- the chain's draws on the grid ----------------------------------------------

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

    def _draw_insertion(self):
        a = self._draws.index(self.n_sites)
        return 0, 1 + self._draws.index(self.k_max), self.positions[a:a + 1]

    def _loop_log_mass(self, x, k):
        a = self._site[x[0]]
        return math.log(self.Mpow[k * self.S][a, a])

    def _closed_path(self, x, k):
        a = self._site[x[0]]
        return self._path(k, (a,) + self.sample_interior(a, a, k * self.S) + (a,))

    def _redraw_leg(self, path, m):
        S = self.S
        sites = list(self._sites(path.samples))
        sites[m * S + 1: (m + 1) * S] = self.sample_interior(sites[m * S],
                                                             sites[(m + 1) * S], S)
        return self._path(path.k, sites)

    def _draw_legs(self, starts, ends):
        return [self._samples((u,) + self.sample_interior(u, v, self.S) + (v,))
                for u, v in zip(self._sites(np.array(starts)), self._sites(np.array(ends)))]

    def _log_leg_gauss(self, u, v):
        return math.log(self.Mpow[self.S][self._site[u[0]], self._site[v[0]]])

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
                h = interaction_energy([self._loop(dl) for dl in combo], self.params)
                if math.isinf(h):
                    continue
                lw = -h
                for dl, c in Counter(combo).items():
                    lw += c * logw[dl] - math.lgamma(c + 1)
                weight = math.exp(lw)
                table[tuple(combo)] = weight
                total += weight
        return {st: w / total for st, w in table.items()}

    def sample_state(self, law):
        """One exact draw from an enumerated law (dict state -> probability)."""
        states = list(law.keys())
        probs = np.array([law[s] for s in states])
        probs /= probs.sum()
        i = int(self.rng.choice(len(states), p=probs))
        return states[i]


def canonical(state):
    """Order-free key of a loop multiset."""
    return tuple(sorted(state))
