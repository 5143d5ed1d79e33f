"""Small-lattice exact diagonalisation oracle.

A finite site set with nearest-neighbour hopping carries the same model data
(types, fugacities, pair potentials) as the continuum gas.  Bosonic Fock
occupation bases per particle-number sector are diagonalised densely;
hard-core pairs delete basis states outright, the discrete analogue of
wavefunctions vanishing on the core.  The oracle validates structure:
sector consistency, positivity, repulsion monotonicity, and above all the
compatibility of partial traces over nested site sets.  Its numbers are not
continuum values and are never compared against the path sampler directly.
"""

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

MAX_SECTOR_DIM = 20000


class LatticeModel:
    """Sites, spacing, per-type occupation cap, and the model constants."""

    def __init__(self, sites, spacing, n_max, params):
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

    @property
    def n_sites(self):
        return self.sites.shape[0]

    def site_distance(self, i, j):
        return self._dist[i, j]


def line_lattice(n_sites, spacing, params, n_max, dimension=1):
    """n_sites equally spaced points along the first coordinate axis."""
    sites = np.zeros((n_sites, dimension))
    sites[:, 0] = np.arange(n_sites) * spacing
    return LatticeModel(sites, spacing, n_max, params)


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


def _diagonal_energy(lm, state, ext_points=None):
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
    if ext_points is not None:
        for j, s, nj in occupied:
            for jp, pts in enumerate(ext_points):
                pts = np.asarray(pts, dtype=float)
                if pts.size == 0 or P[j][jp].is_zero():
                    continue
                r = np.sqrt(np.sum((pts - lm.sites[s]) ** 2, axis=1))
                v = P[j][jp].evaluate(r)
                if np.any(np.isinf(v)):
                    return math.inf
                total += nj * float(np.sum(v))
    return total


def sector_basis(lm, n_bar, ext_points=None):
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
        e = _diagonal_energy(lm, combo, ext_points)
        if math.isinf(e):
            continue
        states.append(combo)
        energies.append(e)
        if len(states) > MAX_SECTOR_DIM:
            raise ValueError("sector dimension exceeds the dense ceiling %d" % MAX_SECTOR_DIM)
    return states, energies


def build_hamiltonian(lm, n_bar, ext_points=None):
    """Sector Hamiltonian: bosonic hopping plus diagonal potential.

    Returns (H, states).  Hopping moves one particle of one type between
    neighbouring sites with the usual bosonic amplitude sqrt(n (n'+1));
    moves into a deleted (hard-core) state are projected out.
    """
    states, energies = sector_basis(lm, n_bar, ext_points)
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
                            amp = hop[s, s2] * math.sqrt(n_s * (occ[s2] + 1))
                            H[t, i] += amp
    return H, states


def _sectors(lm, ext_points=None):
    """(n_bar, H, states, weight) per occupation sector, weight = prod_j z_j^n_j."""
    for n_bar in itertools.product(*[range(m + 1) for m in lm.n_max]):
        H, states = build_hamiltonian(lm, n_bar, ext_points)
        weight = 1.0
        for z_j, n_j in zip(lm.params.fugacity, n_bar):
            weight *= z_j ** n_j
        yield n_bar, H, states, weight


@dataclass
class SectorTable:
    """Sector traces and the grand-canonical sum over the truncated space."""

    sectors: dict
    grand: float
    truncation_note: float
    min_eigenvalue: float


def partition_functions(lm, ext_points=None):
    """tr exp(-beta H) per sector and the fugacity-weighted grand sum.

    The reported truncation note is the largest sector trace times
    sum_j z_j^(n_max_j + 1) / (1 - z_j), a crude size of what the occupation
    cap discards.
    """
    q = lm.params.n_types
    beta = lm.params.beta
    z = lm.params.fugacity
    sectors = {}
    grand = 0.0
    min_eig = math.inf
    for n_bar, H, states, weight in _sectors(lm, ext_points):
        if len(states) == 0:
            sectors[n_bar] = 0.0
            continue
        evals = np.linalg.eigvalsh(H)
        min_eig = min(min_eig, float(evals[0]))
        tr = float(np.sum(np.exp(-beta * evals)))
        sectors[n_bar] = tr
        grand += weight * tr
    biggest = max(sectors.values()) if sectors else 0.0
    note = biggest * sum(z[j] ** (lm.n_max[j] + 1) / (1.0 - z[j]) for j in range(q))
    return SectorTable(sectors, grand, note, min_eig)


def density_matrix(lm, ext_points=None):
    """Normalised grand-canonical Gibbs matrix on the truncated Fock space.

    Block diagonal over sectors; blocks weighted by the fugacity powers and
    divided by the grand sum.  Returns (R, states) with states the full
    concatenated basis.
    """
    beta = lm.params.beta
    blocks = []
    all_states = []
    norm = 0.0
    for _, H, states, weight in _sectors(lm, ext_points):
        if len(states) == 0:
            continue
        evals, vecs = np.linalg.eigh(H)
        G = vecs @ np.diag(np.exp(-beta * evals)) @ vecs.T
        blocks.append(weight * G)
        all_states.extend(states)
        norm += weight * float(np.trace(G))
    dim = sum(b.shape[0] for b in blocks)
    R = np.zeros((dim, dim))
    at = 0
    for b in blocks:
        w = b.shape[0]
        R[at:at + w, at:at + w] = b
        at += w
    return R / norm, all_states


def _restrict(state, positions):
    return tuple(tuple(occ[p] for p in positions) for occ in state)


def partial_trace(matrix, states, inner_positions):
    """Trace out the sites not listed in inner_positions.

    states are occupation tuples aligned with the site list the matrix was
    built on.  The occupation basis factorises over disjoint site sets, so
    the reduction sums matrix elements with equal outer parts.  Returns
    (reduced_matrix, reduced_states).
    """
    n_positions = len(states[0][0]) if states else 0
    outer_positions = [p for p in range(n_positions) if p not in inner_positions]
    inner_map = {}
    inner_states = []
    pair_index = []
    outer_map = {}
    for st in states:
        ip = _restrict(st, inner_positions)
        op = _restrict(st, outer_positions)
        if ip not in inner_map:
            inner_map[ip] = len(inner_states)
            inner_states.append(ip)
        if op not in outer_map:
            outer_map[op] = len(outer_map)
        pair_index.append((inner_map[ip], outer_map[op]))
    dim_r = len(inner_states)
    reduced = np.zeros((dim_r, dim_r))
    by_outer = {}
    for full_idx, (ii, oo) in enumerate(pair_index):
        by_outer.setdefault(oo, []).append((ii, full_idx))
    for members in by_outer.values():
        for ia, fa in members:
            for ib, fb in members:
                reduced[ia, ib] += matrix[fa, fb]
    return reduced, inner_states


def check_compatibility(lm, inner0_positions, inner1_positions, ext_points=None):
    """Max deviation between direct and two-step partial traces.

    inner1_positions must be a subset of inner0_positions (both given as
    site indices of the lattice).  Exact basis factorisation makes the two
    routes agree to rounding; the returned number is the sup-norm difference.
    """
    if not set(inner1_positions) <= set(inner0_positions):
        raise ValueError("inner window must be nested in the outer window")
    R, states = density_matrix(lm, ext_points)
    direct, basis_direct = partial_trace(R, states, list(inner1_positions))
    step1, basis_mid = partial_trace(R, states, list(inner0_positions))
    rel = [list(inner0_positions).index(p) for p in inner1_positions]
    step2, basis_two = partial_trace(step1, basis_mid, rel)
    if basis_direct != basis_two:
        # align orders if the reduction visited states differently
        idx = {st: i for i, st in enumerate(basis_two)}
        perm = [idx[st] for st in basis_direct]
        step2 = step2[np.ix_(perm, perm)]
    return float(np.max(np.abs(direct - step2)))
