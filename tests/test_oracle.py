import itertools
import math

import numpy as np
import pytest
from scipy.linalg import expm

from loopgas import oracle
from loopgas.model import ModelParams, PairPotential, zero_potential


def free_params(z, beta=1.0, dimension=1):
    q = len(z)
    pots = [[zero_potential() for _ in range(q)] for _ in range(q)]
    return ModelParams(dimension, q, beta, tuple(z), pots)


def wr_params(z=(0.4, 0.6), beta=1.0):
    """Two types, same-site cross-type exclusion, no finite potential."""
    core = PairPotential(hard_core=0.5, range_=0.5, height=0.0)
    pots = [[zero_potential(), core], [core, zero_potential()]]
    return ModelParams(1, 2, beta, z, pots)


def finite_wells():
    """Two types: a type-0 square well and a cross core with a finite shell."""
    well = PairPotential(profile="square_well", range_=1.5, height=0.8)
    core = PairPotential(hard_core=0.5, range_=1.5, height=0.6)
    return ModelParams(1, 2, 1.0, (0.3, 0.5), [[well, core], [core, zero_potential()]])


def occupations(n_sites, total):
    if n_sites == 1:
        yield (total,)
        return
    for first in range(total, -1, -1):
        for rest in occupations(n_sites - 1, total - first):
            yield (first,) + rest


def loop_partial_trace(matrix, states, inner):
    """The reduction one element at a time, grouped by outer part in order of
    first appearance, so it adds in the order partial_trace does."""
    def part(st, ps):
        return tuple(tuple(occ[p] for p in ps) for occ in st)

    outer = [p for p in range(len(states[0][0])) if p not in inner]
    basis, groups = [], {}
    for idx, st in enumerate(states):
        if part(st, inner) not in basis:
            basis.append(part(st, inner))
        groups.setdefault(part(st, outer), []).append(idx)
    reduced = np.zeros((len(basis), len(basis)))
    for members in groups.values():
        for a in members:
            for b in members:
                reduced[basis.index(part(states[a], inner)),
                        basis.index(part(states[b], inner))] += matrix[a, b]
    return reduced, basis


def independent_wr_grand(n_sites, z, n_max, beta=1.0):
    """Grand sum over capped sectors via scipy expm, built from scratch.

    Open chain of n_sites with unit spacing, hopping scale 1/2, two boson
    types that may never share a site.  No reuse of the oracle module.
    """
    neighbors = {i: [j for j in (i - 1, i + 1) if 0 <= j < n_sites]
                 for i in range(n_sites)}
    scale = 0.5
    grand = 0.0
    for n0, n1 in itertools.product(range(n_max + 1), repeat=2):
        basis = []
        for occ0 in occupations(n_sites, n0):
            for occ1 in occupations(n_sites, n1):
                if any(a > 0 and b > 0 for a, b in zip(occ0, occ1)):
                    continue
                basis.append((occ0, occ1))
        if not basis:
            continue
        index = {st: i for i, st in enumerate(basis)}
        H = np.zeros((len(basis), len(basis)))
        for i, st in enumerate(basis):
            for j, occ in enumerate(st):
                for s, n_s in enumerate(occ):
                    if n_s == 0:
                        continue
                    H[i, i] += scale * len(neighbors[s]) * n_s
                    for s2 in neighbors[s]:
                        new = list(occ)
                        new[s] -= 1
                        new[s2] += 1
                        st2 = (tuple(new), st[1]) if j == 0 else (st[0], tuple(new))
                        t = index.get(st2)
                        if t is not None:
                            H[t, i] += -scale * math.sqrt(n_s * (occ[s2] + 1))
        tr = float(np.trace(expm(-beta * H)))
        grand += z[0] ** n0 * z[1] ** n1 * tr
    return grand


class TestOneParticle:
    def test_two_site_spectrum(self):
        lm = oracle.line_lattice(2, 1.0, free_params((0.5,)), 1)
        evals = np.linalg.eigvalsh(oracle.one_particle_matrix(lm))
        assert np.allclose(evals, [0.0, 1.0], atol=1e-12)

    def test_three_site_spectrum(self):
        # open-chain graph Laplacian {0, 1, 3}, halved
        lm = oracle.line_lattice(3, 1.0, free_params((0.5,)), 1)
        evals = np.linalg.eigvalsh(oracle.one_particle_matrix(lm))
        assert np.allclose(evals, [0.0, 0.5, 1.5], atol=1e-12)

    def test_spacing_scaling(self):
        a = 0.5
        lm = oracle.line_lattice(2, a, free_params((0.5,)), 1)
        evals = np.linalg.eigvalsh(oracle.one_particle_matrix(lm))
        assert np.allclose(evals, [0.0, 1.0 / a ** 2], atol=1e-12)


class TestPartitionFunctions:
    def test_single_particle_sector_trace(self):
        lm = oracle.line_lattice(2, 1.0, free_params((0.5,)), 1)
        state = oracle.gibbs_state(lm)
        assert abs(state.sectors[(0,)] - 1.0) < 1e-14
        assert abs(state.sectors[(1,)] - (1.0 + math.exp(-1.0))) < 1e-12
        assert abs(state.grand - (1.0 + 0.5 * (1.0 + math.exp(-1.0)))) < 1e-12

    def test_grand_sum_against_independent_route(self):
        lm = oracle.line_lattice(4, 1.0, wr_params(), 2)
        state = oracle.gibbs_state(lm)
        other = independent_wr_grand(4, (0.4, 0.6), 2)
        assert abs(state.grand - other) < 1e-10
        assert abs(state.grand - 7.133279963738377) < 1e-9

    def test_grand_increasing_in_fugacity(self):
        lo = oracle.gibbs_state(
            oracle.line_lattice(3, 1.0, wr_params((0.2, 0.2)), 2)).grand
        hi = oracle.gibbs_state(
            oracle.line_lattice(3, 1.0, wr_params((0.6, 0.6)), 2)).grand
        assert lo < hi

    def test_vanishing_fugacity_gives_one(self):
        lm = oracle.line_lattice(3, 1.0, wr_params((1e-9, 1e-9)), 2)
        assert abs(oracle.gibbs_state(lm).grand - 1.0) < 1e-8

    def test_free_grand_factorises_over_types(self):
        z = (0.3, 0.7)
        joint = oracle.gibbs_state(
            oracle.line_lattice(3, 1.0, free_params(z), 2)).grand
        parts = [oracle.gibbs_state(
            oracle.line_lattice(3, 1.0, free_params((zz,)), 2)).grand
            for zz in z]
        assert abs(joint - parts[0] * parts[1]) < 1e-12 * abs(joint)

    def test_repulsion_lowers_grand(self):
        free = oracle.gibbs_state(
            oracle.line_lattice(3, 1.0, free_params((0.5,)), 2)).grand
        well = PairPotential(profile="square_well", range_=1.5, height=1.0)
        rep = ModelParams(1, 1, 1.0, (0.5,), [[well]])
        repelled = oracle.gibbs_state(
            oracle.line_lattice(3, 1.0, rep, 2)).grand
        assert repelled < free

    def test_positive_spectrum_and_note(self):
        lm = oracle.line_lattice(4, 1.0, wr_params(), 2)
        state = oracle.gibbs_state(lm)
        assert state.min_eigenvalue >= -1e-12
        assert state.truncation_note > 0.0

    def test_hard_core_deletes_states(self):
        lm = oracle.line_lattice(2, 1.0, wr_params(), 2)
        states, energies = oracle.sector_basis(lm, (1, 1))
        assert len(states) == 2  # the two off-site arrangements survive
        assert all(e == 0.0 for e in energies)

    def test_sector_dimension_ceiling(self):
        lm = oracle.line_lattice(12, 1.0, free_params((0.5,)), 7)
        with pytest.raises(ValueError, match="dense ceiling"):
            oracle.sector_basis(lm, (7,))


class TestDensityMatrix:
    def test_normalised_symmetric_psd(self):
        state = oracle.gibbs_state(oracle.line_lattice(3, 1.0, wr_params(), 2))
        R, states = state.matrix, state.states
        assert R.shape == (len(states), len(states))
        assert abs(float(np.trace(R)) - 1.0) < 1e-12
        assert np.max(np.abs(R - R.T)) < 1e-12
        assert float(np.min(np.linalg.eigvalsh(R))) > -1e-12

    def test_partial_trace_identity_cases(self):
        state = oracle.gibbs_state(oracle.line_lattice(3, 1.0, wr_params(), 1))
        R, states = state.matrix, state.states
        full, basis = oracle.partial_trace(R, states, [0, 1, 2])
        assert basis == states
        assert np.max(np.abs(full - R)) < 1e-14
        empty, basis0 = oracle.partial_trace(R, states, [])
        assert basis0 == [((), ())]
        assert abs(empty[0, 0] - 1.0) < 1e-12

    @pytest.mark.parametrize("inner", [[0, 1], [2, 0], [3], [1, 3, 2]])
    def test_partial_trace_matches_the_loop(self, inner):
        state = oracle.gibbs_state(oracle.line_lattice(4, 1.0, finite_wells(), 2))
        red, basis = oracle.partial_trace(state.matrix, state.states, inner)
        ref, ref_basis = loop_partial_trace(state.matrix, state.states, inner)
        assert basis == ref_basis and np.array_equal(red, ref)

    def test_reduced_matrix_keeps_trace(self):
        state = oracle.gibbs_state(oracle.line_lattice(4, 1.0, wr_params(), 2))
        red, _ = oracle.partial_trace(state.matrix, state.states, [0, 1])
        assert abs(float(np.trace(red)) - 1.0) < 1e-12
        assert float(np.min(np.linalg.eigvalsh(red))) > -1e-12


class TestCompatibility:
    def test_nested_windows_agree(self):
        state = oracle.gibbs_state(oracle.line_lattice(4, 1.0, wr_params(), 2))
        dev = oracle.check_compatibility(state, [0, 1, 2], [0, 1])
        assert dev < 1e-12

    def test_with_external_points(self):
        ext = [np.array([[5.0]]), np.zeros((0, 1))]
        lm = oracle.line_lattice(4, 1.0, wr_params(), 2, ext_points=ext)
        dev = oracle.check_compatibility(oracle.gibbs_state(lm), [0, 1, 2], [1, 2])
        assert dev < 1e-12

    def test_external_point_in_a_finite_well(self):
        # a type-0 point at 3.0 is within range 1.5 of site 2 for both types
        ext = [np.array([[3.0]]), np.zeros((0, 1))]
        bounded = oracle.gibbs_state(oracle.line_lattice(3, 1.0, finite_wells(), 2,
                                                         ext_points=ext))
        assert (bounded.grand
                < oracle.gibbs_state(oracle.line_lattice(3, 1.0, finite_wells(), 2)).grand)
        assert oracle.check_compatibility(bounded, [0, 1], [1]) < 1e-12

    def test_external_point_in_a_core_deletes_states(self):
        # a type-1 point on site 0 leaves a type-0 particle only site 1
        ext = [np.zeros((0, 1)), np.array([[0.0]])]
        lm = oracle.line_lattice(2, 1.0, wr_params(), 2)
        assert len(oracle.sector_basis(lm, (1, 0))[0]) == 2
        lm = oracle.line_lattice(2, 1.0, wr_params(), 2, ext_points=ext)
        states, energies = oracle.sector_basis(lm, (1, 0))
        assert states == [((0, 1), (0, 0))] and energies == [0.0]

    def test_every_ordered_nested_pair_agrees(self):
        # both routes list the reduced states in the same order, whatever
        # order the windows name their sites in
        state = oracle.gibbs_state(oracle.line_lattice(3, 1.0, wr_params(), 2))
        pairs = [(outer, inner)
                 for k in range(4) for outer in itertools.permutations(range(3), k)
                 for j in range(k + 1) for inner in itertools.permutations(outer, j)]
        assert len(pairs) == 133
        assert max(oracle.check_compatibility(state, *pair) for pair in pairs) < 1e-12

    def test_windows_must_nest(self):
        state = oracle.gibbs_state(oracle.line_lattice(4, 1.0, wr_params(), 2))
        with pytest.raises(ValueError, match="nested"):
            oracle.check_compatibility(state, [0, 1], [2, 3])

    def test_interacting_model_with_finite_wells(self):
        state = oracle.gibbs_state(oracle.line_lattice(3, 1.0, finite_wells(), 2))
        dev = oracle.check_compatibility(state, [0, 1], [1])
        assert dev < 1e-12
