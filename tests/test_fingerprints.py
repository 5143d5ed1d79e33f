"""Fixed-seed trajectory fingerprints of the chain, its discrete twin, the
batched bridge callers and the kernel estimators.

Each fingerprint is a hash of dumps_config after a fixed run plus the
accept counts per move family (for the twin: its final state and accepted
step count).  A change that alters the sampled chain, even by reordering a
sum that flips one accept decision, fails here; such a change must say why
in CHANGES.md and pin the new values.
"""

import hashlib

import numpy as np

from loopgas import bridge, cli, experiments, mc, surrogate
from loopgas import loops as lps
from loopgas.model import (Box, ExternalConfiguration, ModelParams, PairPotential,
                           zero_potential)


def fingerprint(chain):
    digest = hashlib.sha256(lps.dumps_config(chain.config).encode()).hexdigest()
    counts = " ".join("%s=%d/%d" % (name, st.accepted, st.proposed)
                      for name, st in sorted(chain.stats.items()))
    return "%s %s" % (digest[:16], counts)


def run_chain(params, half_side, seed):
    chain = mc.Chain(params, Box((0.0, 0.0), half_side), seed=seed,
                     options=mc.SamplerOptions(slices_per_beta=4))
    chain.run(200)
    return fingerprint(chain)


def test_square_well_chain():
    # the criterion-8 square-well chain
    params = ModelParams(2, 1, 1.0, (0.5,), [[PairPotential(range_=0.8, height=0.8)]])
    assert run_chain(params, 5.0, 28) == (
        "7ef80890a2f4a083 insert_delete=102/1247 merge_split=39/672 redraw=1229/1311")


def test_widom_rowlinson_chain():
    # the criterion-9 two-type gas with a cross-type hard core
    cross, zp = PairPotential(hard_core=0.3, range_=0.3), zero_potential()
    params = ModelParams(2, 2, 1.0, (0.5, 0.5), [[zp, cross], [cross, zp]])
    assert run_chain(params, 8.0, 37) == (
        "e53a76e9088c6da2 insert_delete=645/5623 merge_split=128/2778 redraw=5228/5709")


def test_free_gas_chain():
    # criterion 8's free set-up at S = 4: every insertion has dh = 0
    params = ModelParams(2, 1, 1.0, (0.5,), [[zero_potential()]])
    assert run_chain(params, 5.0, 27) == (
        "b2958da24a8c43e7 insert_delete=171/1375 merge_split=53/683 redraw=1314/1414")


def test_core_and_external_points_chain():
    # two types with a conservative smooth-bump core between them, a square
    # well within type 0, and external points of both types beside the box
    bump = PairPotential(profile="smooth_bump", hard_core=0.15, range_=1.0, height=1.5)
    well = PairPotential(range_=1.0, height=0.7)
    params = ModelParams(2, 2, 1.0, (0.8, 0.8), [[well, bump], [bump, zero_potential()]])
    box = Box((0.0, 0.0), 4.0)
    external = ExternalConfiguration(box, [[[4.1, 0.5], [-1.0, -4.2]], [[0.0, 4.05]]],
                                     params.max_range)
    chain = mc.Chain(params, box, external=external, seed=11,
                     options=mc.SamplerOptions(slices_per_beta=4, k_max=6,
                                               conservative_hard_core=True))
    chain.run(200)
    assert fingerprint(chain) == (
        "faa88473aa3c0078 insert_delete=462/1968 merge_split=96/973 redraw=1539/1829")


def test_discrete_twin():
    well = ModelParams(1, 1, 1.0, (0.4,),
                       [[PairPotential(profile="square_well", range_=0.8, height=1.2)]])
    gas = surrogate.DiscreteLoopGas(well, seed=5)
    accepted = sum(bool(gas.step()) for _ in range(20000))
    assert surrogate.canonical(gas.state) == (
        surrogate.DiscreteLoop(k=2, sites=(0, 0, 1, 0)),)
    assert accepted == 8083


def test_deviation_tail_stream():
    # one batched draw of 3000 bridges through the first-leg survival product
    got = bridge.empirical_max_deviation_tail(1.0, 3, 0.4, 1.0, 7, 3000,
                                              np.random.default_rng(5))
    assert got == (0.5788124682464019, 0.007873057960439266)


def test_dirichlet_trace():
    # all anchors, then all loops in one batch, through the d = 2 stay product
    got = experiments.dirichlet_trace_mc(1.0, 1.0, 8, 300, np.random.default_rng(3),
                                         dimension=2)
    assert got == (0.0826751353271258, 0.01031373933444619)


BRIDGE_LAWS = """
model: {dimension: 1, n_types: 1, beta: 1.0, fugacity: [0.5]}
geometry: {box_half_side: 1.0}
sampler: {slices_per_beta: 8, seed: 7}
experiment:
  name: bridge-laws
  options: {n_draws: 400, deviation_thresholds: [0.5, 1.0], multiplicity: 2,
            displacement: 0.3, dirichlet_half_side: 1.0, dirichlet_draws: 300,
            ks_draws: 500}
"""


def test_bridge_laws_rows():
    # deviation tails, Dirichlet trace and the KS marginal from one stream
    result = experiments.run_experiment("bridge-laws", cli.parse_config(BRIDGE_LAWS))
    assert [(r["check"], r["parameter"], float(r["value"]), r["std_error"])
            for r in result.rows] == [
        ("first_leg_deviation", 0.5, 0.9838499469417356, 0.003591228716994003),
        ("first_leg_deviation", 1.0, 0.49469084638946337, 0.021868234511605564),
        ("dirichlet_trace", 1.0, 0.31590986912590674, 0.0199429602975616),
        ("marginal_ks", 1.0, 0.3886827947724849, 0.0),
    ]


def test_reference_kernel():
    # two types, three legs: multiplicity draws, whole-beta skeletons and box0
    # exclusion; the estimator draws at one slice per beta whatever S it is
    # given, so this is the pair the draws at S = 1 gave before it did
    params = ModelParams(2, 2, 1.0, (0.5, 0.4), [[zero_potential()] * 2] * 2)
    starts = [[[0.6, 0.1], [-0.7, 0.3]], [[0.2, -0.8]]]
    ends = [[[0.5, -0.4], [-0.3, 0.9]], [[-0.6, -0.7]]]
    est = mc.estimate_reference_kernel(starts, ends, params, Box((0.0, 0.0), 0.5),
                                       k_max=6, S=4, n_samples=200,
                                       rng=np.random.default_rng(9))
    assert (est.value, est.std_error) == (0.0005958757180892343, 1.7489951461251323e-05)


def well_background_chain():
    # a square-well background from fixed loops, moved by merge/split and
    # redraw only
    well = ModelParams(2, 1, 1.0, (0.5,), [[PairPotential(range_=0.8, height=0.8)]])
    chain = mc.Chain(well, Box((0.0, 0.0), 3.0), seed=4,
                     options=mc.SamplerOptions(slices_per_beta=4, k_max=6,
                                               move_weights=(0, 2, 4)))
    rng = np.random.default_rng(2)
    for x in [(1.2, 0.3), (-1.0, 1.1), (0.4, -1.3), (-0.9, -0.8)]:
        x = np.array(x)
        chain.config.loops.append(lps.Loop(0, bridge.sample_bridge(x, x, 2, 4, 1.0, rng)))
    chain._h = lps.interaction_energy(chain.config.loops, well)
    return chain


def rdm_kernel(chain, inner):
    # a two-leg inner family against the background chain
    est = mc.estimate_rdm_kernel(chain, [[[0.3, 0.2], [-0.2, -0.1]]],
                                 [[[0.1, -0.3], [-0.4, 0.2]]], Box((0.0, 0.0), 0.5),
                                 n_snapshots=32, thin=1, inner_per_snapshot=inner)
    return est.value, est.std_error


def test_rdm_kernel():
    chain = well_background_chain()
    assert rdm_kernel(chain, 2) == (0.002465404138028471, 0.00031918277499905294)
    assert fingerprint(chain) == (
        "2b6fea4547cdc632 insert_delete=0/0 merge_split=26/176 redraw=292/336")


def test_rdm_kernel_single_inner_draw():
    # one inner draw per snapshot: the stream of one leg at a time
    chain = well_background_chain()
    assert rdm_kernel(chain, 1) == (0.0021447931192930484, 0.00034857626601617346)
    assert fingerprint(chain) == (
        "ada44d288fcbf041 insert_delete=0/0 merge_split=27/170 redraw=293/342")
