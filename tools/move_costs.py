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

The draws rows time the scalar draws a proposal makes, one call at a time
as the chain makes them, in microseconds per call, the fastest of
--repeats passes of 200,000 calls: numpy's Generator.random() and
int(Generator.integers(40)) beside the chain's draw lane (mc._Draws),
whose uniform() and index(40) give the same numbers from the same
generator.

The bridge rows are bridge paths per second by k, S and batch size,
each the microseconds per call of the fastest of --repeats passes:
bridge.sample_bridge with list-of-floats endpoints, as the chain's
insertions pass them, at (d = 1, k = 2, S = 4) and (d = 2, k = 1, S = 4);
bridge.resample_leg of the middle leg of a k = 3, S = 4 path in d = 2;
bridge.sample_bridges of 1500 one-leg bridges at S = 16 in d = 1; and
bridge.path_stay_probability on 1500 such paths (1500 x 16 slices,
beta = 1) in (-a, a) at a = 0.5, 1.0 and 1.5, the three thresholds of
perfbench's bridge-laws workload.  At a = 1.5 over a quarter of the
exponents of two of the six exponentiated images lie below
bridge.EXP_FLOOR.

The energy rows are pair-energy evaluations against loop count: the
Widom-Rowlinson gas at box half sides 8 and 16, the same fugacities and
so the same density, each after 200 sweeps from empty.  Every loop gets
one leg redrawn four times (a fixed stream), and each new loop's energy
change is taken as a redraw proposal takes it, through the chain's own
Chain._energy_change: its lane walks the new loop against its cell index,
with the old loop left out (under the Widom-Rowlinson cores the float
lane, loops.CoreLane).  Each row gives the microseconds per call of the
fastest of --repeats passes; for a pure-core state, the same calls with
the chain's lane swapped for the numpy sums lane (loops.SumsLane); the
mean number of candidates (objects whose bounds come within reach) per
cell-index query, and the share of queries with none.  Two more rows
take the same calls on other states: long loops
under the Widom-Rowlinson cores on the default grid (S = 32; one loop of
each multiplicity 1..20 per type, anchors uniform in a box of half side
16, seed 5, each loop drawn again until it overlaps none placed before
it), and a dense one-type gas whose reach far exceeds the
thermal length (beta = 0.05, a smooth bump of range 1 and height 0.3,
z = 0.8, S = 4, box half side 4, seed 5, after 300 sweeps), where most
queries find many candidates.

The estimator rows time the kernel estimators' pieces on the
Widom-Rowlinson model with the endpoint families of perfbench's wr-gas
workload, (1, 1) and (2, 1) paths per type, uniform in box0 (half side
0.5 at the origin, seed 3), at k_max = 20: microseconds per
mc._sample_terms call (averaged over the family's permutation combos) at
S = 4, with n = 2 terms tested against box0 and the box of half side 8 as
estimate_rdm_kernel draws them, and with n = 1000 terms tested against
box0 alone; per mc._endpoint_tables call; and per
mc.estimate_reference_kernel call with 1000 samples and S = 4.  Each is
the fastest of --repeats passes.  The last two rows run
estimate_rdm_kernel on the (1, 1) family from the criterion-9 chain's
state after 200 sweeps (16 snapshots, thin 1, 2 inner draws, on a copy of
the chain per repeat): its snapshots per second, and the microseconds per
snapshot spent outside the chain's sweeps.
"""

import argparse
import copy
import hashlib
import math
import pathlib
import sys
import time
import timeit

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

from loopgas import loops as lps, mc  # noqa: E402
from loopgas.bridge import (path_stay_probability, resample_leg, sample_bridge,  # noqa: E402
                            sample_bridges)
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


def draw_costs(repeats):
    """(name, us per call) of numpy's scalar draws and the chain's lane."""
    number = 200_000
    g = np.random.default_rng(0)
    draws = mc._Draws(g)
    calls = [("Generator.random()", "r()", {"r": g.random}),
             ("int(Generator.integers(40))", "int(i(40))", {"i": g.integers}),
             ("_Draws.uniform()", "u()", {"u": draws.uniform}),
             ("_Draws.index(40)", "x(40)", {"x": draws.index})]
    return [(name, 1e6 * min(timeit.repeat(stmt, globals=names, number=number,
                                           repeat=repeats)) / number)
            for name, stmt, names in calls]


def bridge_costs(repeats):
    """(row name, us per call) of the bridge layer (module docstring)."""
    g = np.random.default_rng(0)
    leg = sample_bridge([0.0, 0.0], [0.0, 0.0], 3, 4, 1.0, g)
    paths = sample_bridges(np.zeros((1500, 1)), np.zeros((1500, 1)), 1, 16, 1.0, g)[:, :, 0]
    calls = [("sample_bridge d=1 k=2 S=4", 2000,
              lambda: sample_bridge([0.0], [0.7], 2, 4, 1.0, g)),
             ("sample_bridge d=2 k=1 S=4", 2000,
              lambda: sample_bridge([0.5, -0.5], [0.5, -0.5], 1, 4, 1.0, g)),
             ("resample_leg d=2 S=4", 2000, lambda: resample_leg(leg, 1, g)),
             ("sample_bridges n=1500 k=1 S=16", 10,
              lambda: sample_bridges(np.zeros((1500, 1)), np.zeros((1500, 1)), 1, 16, 1.0, g))]
    calls += [("path_stay_probability a=%.1f" % a, 10,
               lambda a=a: path_stay_probability(paths, -a, a, 1.0 / 16)) for a in (0.5, 1.0, 1.5)]
    return [(name, 1e6 * min(timeit.repeat(call, number=number, repeat=repeats)) / number)
            for name, number, call in calls]


def energy_costs(chain, repeats):
    """(us per energy call, the same through the sums lane for a chain on the
    float lane or None, mean candidates per query, share of queries with none)."""
    rng = np.random.default_rng(0)
    moves = [(lp, resample_leg(lp.path, int(rng.integers(lp.k)), rng),
              0.0 if chain._pure else chain._carried_energy((lp,)))
             for lp in chain.config.loops for _ in range(4)]

    def us_per_call():
        best = math.inf
        for _ in range(repeats):
            proposals = [((lp,), (lps.Loop(lp.type_index, path),), e_old)  # no legs yet
                         for lp, path, e_old in moves]
            t0 = time.perf_counter()
            for removed, added, e_old in proposals:
                chain._energy_change(removed, added, e_old)
            best = min(best, time.perf_counter() - t0)
        return 1e6 * best / max(len(moves), 1)

    us, sums, lane = us_per_call(), None, chain._lane
    if isinstance(lane, lps.CoreLane):
        chain._lane = lps.SumsLane(chain.params, False)
        try:
            sums = us_per_call()
        finally:
            chain._lane = lane
    found, near = [], lps.LegTable.near

    def counted(table, *args):
        out = near(table, *args)
        found.append(len(out))
        return out
    lps.LegTable.near = counted
    try:
        for lp, path, e_old in moves:
            chain._energy_change((lp,), (lps.Loop(lp.type_index, path),), e_old)
    finally:
        lps.LegTable.near = near
    return (us, sums, sum(found) / max(len(found), 1), found.count(0) / max(len(found), 1))


def long_loops():
    """A chain holding one loop of each multiplicity 1..20 and type under
    the Widom-Rowlinson cores at S = 32, anchors uniform in a box of half
    side 16 shrunk by 2 (seed 5); a loop that would overlap one placed
    before it is drawn again, so that the state has nonzero weight."""
    half = 16.0
    params = chains()[-1][1]
    chain = mc.Chain(params, Box((0.0, 0.0), half), seed=5)
    rng = np.random.default_rng(5)
    placed = []
    for k in range(1, 21):
        for j in (0, 1):
            while True:
                x = rng.uniform(2.0 - half, half - 2.0, 2)
                loop = lps.Loop(j, sample_bridge(x, x, k, chain.opts.slices_per_beta,
                                                 params.beta, rng))
                if lps.interaction_energy([loop], params, conditioning=placed) == 0.0:
                    break
            placed.append(loop)
    chain.config.loops = placed
    return chain


def dense_bump():
    """The dense one-type chain whose queries find many candidates."""
    bump = PairPotential(profile="smooth_bump", range_=1.0, height=0.3)
    chain = mc.Chain(ModelParams(2, 1, 0.05, (0.8,), [[bump]]), Box((0.0, 0.0), 4.0),
                     seed=5, options=mc.SamplerOptions(slices_per_beta=4))
    chain.run(300)
    return chain


def best_us(call, number, repeats):
    """Microseconds per call(seed) of the fastest of repeats passes of number calls."""
    best = math.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        for seed in range(number):
            call(seed)
        best = min(best, time.perf_counter() - t0)
    return 1e6 * best / number


def estimator_costs(repeats):
    """(row name, figure, unit) of the kernel estimators' pieces (module docstring)."""
    params = chains()[-1][1]
    box0, box, k_max, S = Box((0.0, 0.0), 0.5), Box((0.0, 0.0), 8.0), 20, 4
    rng = np.random.default_rng(3)
    families = [(counts, [rng.uniform(-0.5, 0.5, (n, 2)) for n in counts],
                 [rng.uniform(-0.5, 0.5, (n, 2)) for n in counts])
                for counts in ((1, 1), (2, 1))]
    rows = []
    for counts, starts, ends in families:
        tag = "(%d, %d)" % counts
        tables, combos = mc._endpoint_tables(starts, ends, params, k_max)
        for n, number, boxes in ((2, 2000, (box0, box)), (1000, 40, (box0, None))):
            def terms(seed, n=n, boxes=boxes):
                g = np.random.default_rng(seed)
                for combo in combos:
                    mc._sample_terms(tables, combo, params, S, n, g, *boxes)
            rows.append(("sample_terms %s n=%d" % (tag, n),
                         best_us(terms, number, repeats) / len(combos), "us/call"))
        rows.append(("endpoint_tables %s" % tag, best_us(
            lambda seed: mc._endpoint_tables(starts, ends, params, k_max), 500, repeats),
            "us/call"))
        rows.append(("reference_kernel %s" % tag, best_us(
            lambda seed: mc.estimate_reference_kernel(
                starts, ends, params, box0, k_max=k_max, S=S, n_samples=1000,
                rng=np.random.default_rng(seed)), 20, repeats), "us/call"))
    base = mc.Chain(params, box, seed=37, options=mc.SamplerOptions(slices_per_beta=S))
    base.run(200)
    _, starts, ends = families[0]
    best, outside, n_snap = math.inf, math.inf, 16
    for _ in range(repeats):
        chain, swept = copy.deepcopy(base), [0.0]

        def run(n_sweeps, run=chain.run):
            t0 = time.perf_counter()
            run(n_sweeps)
            swept[0] += time.perf_counter() - t0
        chain.run = run
        t0 = time.perf_counter()
        mc.estimate_rdm_kernel(chain, starts, ends, box0, n_snapshots=n_snap, thin=1,
                               inner_per_snapshot=2)
        spent = time.perf_counter() - t0
        best, outside = min(best, spent), min(outside, spent - swept[0])
    rows.append(("rdm_kernel (1, 1) snapshots", n_snap / best, "1/s"))
    rows.append(("rdm_kernel (1, 1) estimator", 1e6 * outside / n_snap, "us/snapshot"))
    return rows


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
    print("%-31s %9s" % ("draws", "us/call"))
    for name, us in draw_costs(args.repeats):
        print("%-31s %9.3f" % (name, us))
    print("%-31s %9s" % ("bridge", "us/call"))
    for name, us in bridge_costs(args.repeats):
        print("%-31s %9.2f" % (name, us))
    print("%-16s %5s %6s %12s %12s %11s %13s" % ("energy", "half", "loops", "us/call",
                                                 "sums us/call", "candidates", "no candidate"))
    params = chains()[-1][1]
    states = []
    for half in (8.0, 16.0):
        chain = mc.Chain(params, Box((0.0, 0.0), half), seed=37,
                         options=mc.SamplerOptions(slices_per_beta=4))
        chain.run(200)
        states.append(("widom-rowlinson", chain))
    states += [("long-loops-s32", long_loops()), ("dense-bump", dense_bump())]
    for name, chain in states:
        us, sums, mean, none = energy_costs(chain, args.repeats)
        print("%-16s %5g %6d %12.2f %12s %11.3f %13.3f" % (
            name, chain.box.half_side, len(chain.config.loops), us,
            "-" if sums is None else "%.2f" % sums, mean, none))
    print("%-31s %12s %s" % ("estimator", "figure", "unit"))
    for name, figure, unit in estimator_costs(args.repeats):
        print("%-31s %12.2f %s" % (name, figure, unit))


if __name__ == "__main__":
    main()
