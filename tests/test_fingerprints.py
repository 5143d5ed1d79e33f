"""Fixed-seed trajectory fingerprints of the chain, its discrete twin and
the batched bridge callers.

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
from loopgas.model import Box, ModelParams, PairPotential, zero_potential


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
        "9a265c35985b97da insert_delete=106/1359 merge_split=28/695 redraw=1316/1452")


def test_widom_rowlinson_chain():
    # the criterion-9 two-type gas with a cross-type hard core
    cross, zp = PairPotential(hard_core=0.3, range_=0.3), zero_potential()
    params = ModelParams(2, 2, 1.0, (0.5, 0.5), [[zp, cross], [cross, zp]])
    assert run_chain(params, 8.0, 37) == (
        "7eb3000129e0ef20 insert_delete=555/4917 merge_split=133/2541 redraw=4700/5110")


def test_discrete_twin():
    well = ModelParams(1, 1, 1.0, (0.4,),
                       [[PairPotential(profile="square_well", range_=0.8, height=1.2)]])
    gas = surrogate.DiscreteLoopGas([0.0, 0.6], well, seed=5)
    accepted = sum(bool(gas.step()) for _ in range(20000))
    assert surrogate.canonical(gas.state) == (
        surrogate.DiscreteLoop(k=2, sites=(1, 0, 1, 1)),)
    assert accepted == 8129


def test_deviation_tail_stream():
    # one batched draw of 3000 bridges through the first-leg survival product
    got = bridge.empirical_max_deviation_tail(1.0, 3, 0.4, 1.0, 7, 3000,
                                              np.random.default_rng(5))
    assert got == (0.5788124682464019, 0.007873057960439266)


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
        ("first_leg_deviation", 0.5, 0.9838499469417356, 0.0035912287169940034),
        ("first_leg_deviation", 1.0, 0.49469084638946326, 0.021868234511605567),
        ("dirichlet_trace", 1.0, 0.28802964619977683, 0.01959656774881343),
        ("marginal_ks", 1.0, 0.10229581958565948, 0.0),
    ]
