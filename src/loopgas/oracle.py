"""Small-lattice exact diagonalisation oracle.

A finite site set with nearest-neighbour hopping carries the same model data
(types, fugacities, pair potentials) as the continuum gas, and a frozen
exterior of typed points, the lattice form of a DLR boundary condition.
gibbs_state diagonalises the dense bosonic Fock Hamiltonian of each
particle-number sector once; hard-core pairs delete basis states outright,
the discrete analogue of wavefunctions vanishing on the core.  The oracle
validates structure: sector consistency, positivity, repulsion monotonicity,
and above all the compatibility of partial traces of that one Gibbs state
over nested site sets.  Its numbers are not continuum values and are never
compared against the path sampler directly.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import block_diag

MAX_SECTOR_DIM = 20000


class LatticeModel:
    """Sites, spacing, per-type occupation cap, the model constants and the exterior.

    ext_points holds per type the frozen points of the exterior, which do not
    hop, and ext_energy[j, s] the energy of one type-j particle at site s
    against them.
    """

    def __init__(self, sites, spacing, n_max, params, ext_points):
        self.sites = np.asarray(sites, dtype=float)
        if self.sites.ndim != 2:
            raise ValueError("sites must be an (n, d) array")
        self.spacing = float(spacing)
        q = params.n_types
        if np.isscalar(n_max):
            n_max = [int(n_max)] * q
        self.n_max = list(int(v) for v in n_max)
        if len(self.n_max) != q:
            raise ValueError("need one occupation cap per type")
        self.params = params
        diff = self.sites[:, None, :] - self.sites[None, :, :]
        self._dist = np.sqrt(np.sum(diff * diff, axis=-1))
        self.neighbors = [
            [j for j in range(self.n_sites)
             if j != i and abs(self._dist[i, j] - self.spacing) < 1e-9 * max(1.0, self.spacing)]
            for i in range(self.n_sites)
        ]
        d = self.sites.shape[1]
        self.ext_points = [np.asarray(pts, dtype=float).reshape(-1, d) for pts in ext_points]
        self.ext_energy = np.zeros((q, self.n_sites))
        for j in range(q):
            for jp, pts in enumerate(self.ext_points):
                if pts.size and not params.potentials[j][jp].is_zero():
                    r = np.sqrt(np.sum((pts[None, :, :] - self.sites[:, None, :]) ** 2, axis=-1))
                    self.ext_energy[j] += np.sum(params.potentials[j][jp].evaluate(r), axis=1)

    @property
    def n_sites(self):
        return self.sites.shape[0]

    def site_distance(self, i, j):
        return self._dist[i, j]


def line_lattice(n_sites, spacing, params, n_max, dimension=1, ext_points=()):
    """n_sites equally spaced points along the first coordinate axis."""
    sites = np.zeros((n_sites, dimension))
    sites[:, 0] = np.arange(n_sites) * spacing
    return LatticeModel(sites, spacing, n_max, params, ext_points)


def one_particle_matrix(lm):
    """Minus one half of the graph Laplacian, scaled by the spacing squared.

    The Laplacian uses in-set degrees and has no wrap-around, so for a 2-site
    chain with unit spacing the spectrum is {0, 1}.
    """
    n = lm.n_sites
    scale = 1.0 / (2.0 * lm.spacing ** 2)
    h = np.zeros((n, n))
    for i in range(n):
        h[i, i] = len(lm.neighbors[i]) * scale
        for j in lm.neighbors[i]:
            h[i, j] = -scale
    return h


def _occupations(n_sites, total):
    """All occupation tuples over n_sites summing to total."""
    if n_sites == 1:
        yield (total,)
        return
    for first in range(total, -1, -1):
        for rest in _occupations(n_sites - 1, total - first):
            yield (first,) + rest


def _diagonal_energy(lm, state):
    """Pair plus external potential energy of an occupation state.

    state[j] is the per-site occupation tuple of type j.  Returns +inf when
    a hard-core pair is present; such states are excluded from the basis.
    """
    P = lm.params.potentials
    q = lm.params.n_types
    occupied = [(j, s, n) for j in range(q)
                for s, n in enumerate(state[j]) if n > 0]
    total = 0.0
    for a in range(len(occupied)):
        j, s, nj = occupied[a]
        # same type, same site
        if nj >= 2 and not P[j][j].is_zero():
            v = P[j][j].evaluate(0.0)
            if math.isinf(v):
                return math.inf
            total += 0.5 * nj * (nj - 1) * v
        for j2, s2, nj2 in occupied[a + 1:]:
            v = 0.0 if P[j][j2].is_zero() else P[j][j2].evaluate(lm.site_distance(s, s2))
            if math.isinf(v):
                return math.inf
            total += nj * nj2 * v
        total += nj * float(lm.ext_energy[j, s])
    return total


def sector_basis(lm, n_bar):
    """Hard-core-filtered occupation basis of the fixed-number sector.

    Returns (states, energies): states are tuples of per-type occupation
    tuples, energies their diagonal potential values.
    """
    q = lm.params.n_types
    per_type = []
    for j in range(q):
        if n_bar[j] > lm.n_max[j]:
            return [], []
        per_type.append(list(_occupations(lm.n_sites, n_bar[j])))
    states, energies = [], []
    for combo in itertools.product(*per_type):
        e = _diagonal_energy(lm, combo)
        if math.isinf(e):
            continue
        states.append(combo)
        energies.append(e)
        if len(states) > MAX_SECTOR_DIM:
            raise ValueError("sector dimension exceeds the dense ceiling %d" % MAX_SECTOR_DIM)
    return states, energies


def build_hamiltonian(lm, n_bar):
    """Sector Hamiltonian: bosonic hopping plus diagonal potential.

    Returns (H, states).  Hopping moves one particle of one type between
    neighbouring sites with the usual bosonic amplitude sqrt(n (n'+1));
    moves into a deleted (hard-core) state are projected out.
    """
    states, energies = sector_basis(lm, n_bar)
    dim = len(states)
    H = np.zeros((dim, dim))
    if dim == 0:
        return H, states
    index = {st: i for i, st in enumerate(states)}
    hop = one_particle_matrix(lm)
    for i, st in enumerate(states):
        H[i, i] = energies[i]
        for j, occ in enumerate(st):
            for s, n_s in enumerate(occ):
                if n_s > 0:
                    H[i, i] += n_s * hop[s, s]
                    for s2 in lm.neighbors[s]:
                        new_occ = list(occ)
                        new_occ[s] -= 1
                        new_occ[s2] += 1
                        target = st[:j] + (tuple(new_occ),) + st[j + 1:]
                        t = index.get(target)
                        if t is not None:
                            H[t, i] += hop[s, s2] * math.sqrt(n_s * (occ[s2] + 1))
    return H, states


@dataclass
class GibbsState:
    """The grand-canonical Gibbs state on the truncated Fock space.

    sectors maps each occupation vector to tr exp(-beta H) on its sector and
    grand is their sum weighted by prod_j z_j^n_j.  The truncation note is
    the largest sector trace times sum_j z_j^(n_max_j + 1) / (1 - z_j), a
    crude size of what the occupation cap discards.  matrix is the
    block-diagonal Gibbs matrix, each block weighted by its fugacity power
    and divided by grand, over the concatenated sector bases in states.
    """

    sectors: dict
    grand: float
    truncation_note: float
    min_eigenvalue: float
    matrix: np.ndarray
    states: list


def gibbs_state(lm):
    """Build and diagonalise each sector Hamiltonian once; returns a GibbsState."""
    beta = lm.params.beta
    z = lm.params.fugacity
    sectors, blocks, all_states = {}, [], []
    grand, min_eig = 0.0, math.inf
    for n_bar in itertools.product(*[range(m + 1) for m in lm.n_max]):
        H, states = build_hamiltonian(lm, n_bar)
        if not states:
            sectors[n_bar] = 0.0
            continue
        evals, vecs = np.linalg.eigh(H)
        boltzmann = np.exp(-beta * evals)
        weight = math.prod(z_j ** n_j for z_j, n_j in zip(z, n_bar))
        sectors[n_bar] = float(np.sum(boltzmann))
        grand += weight * sectors[n_bar]
        min_eig = min(min_eig, float(evals[0]))
        blocks.append(weight * (vecs * boltzmann) @ vecs.T)
        all_states.extend(states)
    note = max(sectors.values()) * sum(z_j ** (m + 1) / (1.0 - z_j)
                                       for z_j, m in zip(z, lm.n_max))
    return GibbsState(sectors, grand, note, min_eig, block_diag(*blocks) / grand, all_states)


def _restrict(state, positions):
    return tuple(tuple(occ[p] for p in positions) for occ in state)


def partial_trace(matrix, states, inner_positions):
    """Trace out the sites not listed in inner_positions.

    states are occupation tuples aligned with the site list the matrix was
    built on.  The occupation basis factorises over disjoint site sets, so
    the reduction sums matrix elements with equal outer parts.  Returns
    (reduced_matrix, reduced_states), the latter in order of first
    appearance.
    """
    n_positions = len(states[0][0]) if states else 0
    outer_positions = [p for p in range(n_positions) if p not in inner_positions]
    inner_index, outer_index = {}, {}
    inner, outer = [], []
    for st in states:
        inner.append(inner_index.setdefault(_restrict(st, inner_positions), len(inner_index)))
        outer.append(outer_index.setdefault(_restrict(st, outer_positions), len(outer_index)))
    inner, outer = np.array(inner, dtype=int), np.array(outer, dtype=int)
    reduced = np.zeros((len(inner_index), len(inner_index)))
    # the full states of one outer part, in basis order, one group at a time
    order = np.argsort(outer, kind="stable")
    for members in np.split(order, np.flatnonzero(np.diff(outer[order])) + 1):
        rows = inner[members]
        np.add.at(reduced, np.ix_(rows, rows), matrix[np.ix_(members, members)])
    return reduced, list(inner_index)


def check_compatibility(state, inner0_positions, inner1_positions):
    """Max deviation between direct and two-step partial traces of a GibbsState.

    inner1_positions must be a subset of inner0_positions (both given as
    site indices of the lattice).  Exact basis factorisation makes the two
    routes agree to rounding, over the same reduced basis in the same order;
    the returned number is the sup-norm difference.
    """
    if not set(inner1_positions) <= set(inner0_positions):
        raise ValueError("inner window must be nested in the outer window")
    direct, _ = partial_trace(state.matrix, state.states, list(inner1_positions))
    step1, basis_mid = partial_trace(state.matrix, state.states, list(inner0_positions))
    rel = [list(inner0_positions).index(p) for p in inner1_positions]
    step2, _ = partial_trace(step1, basis_mid, rel)
    return float(np.max(np.abs(direct - step2)))
