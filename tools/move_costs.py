"""Time each move family of the chain on the fixed chains of the fingerprint tests.

    PYTHONPATH=src python tools/move_costs.py [--sweeps 60] [--repeats 5]

The chains are those of tests/test_fingerprints.py: criterion 8's free gas
(seed 27, box half side 5) and square well (seed 28, half side 5), and
criterion 9's Widom-Rowlinson gas (seed 37, half side 8), all at S = 4.
Each runs 200 sweeps, and its fingerprint (the tests' hash of dumps_config
plus the accept counts) is printed, so a change of the random stream shows
beside the speed.  From that state, each repeat runs --sweeps more sweeps
on a copy of the chain, with every family's step timed; per family the
table gives the proposals, the acceptance and the microseconds per
proposal of the fastest repeat.  Every repeat makes the same moves.
"""

import argparse
import copy
import hashlib
import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from loopgas import loops as lps, mc  # noqa: E402
from loopgas.model import Box, ModelParams, PairPotential, zero_potential  # noqa: E402


def chains():
    """(name, params, box half side, seed) of the fingerprint tests' chains."""
    cross, zp = PairPotential(hard_core=0.3, range_=0.3), zero_potential()
    return [
        ("free-gas", ModelParams(2, 1, 1.0, (0.5,), [[zp]]), 5.0, 27),
        ("square-well", ModelParams(2, 1, 1.0, (0.5,),
                                    [[PairPotential(range_=0.8, height=0.8)]]), 5.0, 28),
        ("widom-rowlinson", ModelParams(2, 2, 1.0, (0.5, 0.5), [[zp, cross], [cross, zp]]),
         8.0, 37),
    ]


def fingerprint(chain):
    digest = hashlib.sha256(lps.dumps_config(chain.config).encode()).hexdigest()
    counts = " ".join("%s=%d/%d" % (name, st.accepted, st.proposed)
                      for name, st in sorted(chain.stats.items()))
    return "%s %s" % (digest[:16], counts)


def timed_sweeps(base, n_sweeps):
    """Seconds per family over n_sweeps sweeps of a copy of base, and the copy."""
    chain = copy.deepcopy(base)
    spent = dict.fromkeys(mc.Chain.FAMILIES, 0.0)
    for name in mc.Chain.FAMILIES:
        def step(move=getattr(chain, "step_" + name), name=name):
            t0 = time.perf_counter()
            ok = move()
            spent[name] += time.perf_counter() - t0
            return ok
        setattr(chain, "step_" + name, step)
    chain.run(n_sweeps)
    return spent, chain


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sweeps", type=int, default=60, help="timed sweeps per repeat")
    parser.add_argument("--repeats", type=int, default=5, help="repeats; the fastest counts")
    args = parser.parse_args(argv)
    print("%-16s %-14s %9s %8s %13s" % ("chain", "family", "proposed", "accept",
                                       "us/proposal"))
    prints = []
    for name, params, half, seed in chains():
        base = mc.Chain(params, Box((0.0, 0.0), half), seed=seed,
                        options=mc.SamplerOptions(slices_per_beta=4))
        base.run(200)
        prints.append((name, fingerprint(base)))
        best = None
        for _ in range(args.repeats):
            spent, chain = timed_sweeps(base, args.sweeps)
            best = spent if best is None else {f: min(best[f], spent[f]) for f in spent}
        for family in mc.Chain.FAMILIES:
            st, st0 = chain.stats[family], base.stats[family]
            proposed, accepted = st.proposed - st0.proposed, st.accepted - st0.accepted
            print("%-16s %-14s %9d %8.3f %13.2f" % (
                name, family, proposed, accepted / max(proposed, 1),
                1e6 * best[family] / max(proposed, 1)))
    for name, fp in prints:
        print("fingerprint %-16s %s" % (name, fp))


if __name__ == "__main__":
    main()
