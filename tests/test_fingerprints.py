"""Fixed-seed trajectory fingerprints of the chain and its discrete twin.

Each fingerprint is a hash of dumps_config after a fixed run plus the
accept counts per move family (for the twin: its final state and accepted
step count).  A change that alters the sampled chain, even by reordering a
sum that flips one accept decision, fails here; such a change must say why
in CHANGES.md and pin the new values.
"""

import hashlib

from loopgas import mc, surrogate
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
