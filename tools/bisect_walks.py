"""Time bridge._bisect's two walks against each other, per batch shape.

    PYTHONPATH=src python tools/bisect_walks.py [--d 2] [--calls 2000]

Each row forces one walk by setting bridge.SCALAR_WALK_MAX (0: the level
walk always, a large value: the scalar walk always) and prints the best of
seven repeats of `calls` fills of a (n, span + 1, d) batch, in us per call;
the repeats alternate between the walks.
The walks give the same doubles, so only their cost picks the cut-off:
SCALAR_WALK_MAX is the largest midpoint count n * (span - 1) up to which
the scalar walk is about as fast or faster.
"""

import argparse
import time

import numpy as np

from loopgas import bridge

SHAPES = [(1, 2), (1, 4), (2, 4), (4, 4), (6, 4), (8, 4), (12, 4), (16, 4),
          (1, 8), (2, 8), (4, 8), (1, 16), (2, 16), (1, 24), (1, 32), (1, 64)]


def _time(samples, span, calls, rng, cutoff):
    bridge.SCALAR_WALK_MAX = cutoff
    t = time.perf_counter()
    for _ in range(calls):
        bridge._bisect(samples, 0, span, 0.25, rng)
    return (time.perf_counter() - t) / calls * 1e6


def per_call_us(n, span, d, calls):
    """Best-of-seven us per call of the level walk and of the scalar walk.

    The repeats alternate between the walks, so a slow spell of the machine
    hits both.
    """
    saved = bridge.SCALAR_WALK_MAX
    try:
        samples = np.zeros((n, span + 1, d))
        rng = np.random.default_rng(0)
        bridge._bisect(samples, 0, span, 0.25, rng)  # warm the plan caches
        times = [[_time(samples, span, calls, rng, cutoff) for cutoff in (0, 10 ** 9)]
                 for _ in range(7)]
        return tuple(map(min, zip(*times)))
    finally:
        bridge.SCALAR_WALK_MAX = saved


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--d", type=int, default=2)
    ap.add_argument("--calls", type=int, default=2000)
    args = ap.parse_args()
    print("| n | span | midpoints | level walk (us) | scalar walk (us) |")
    print("|---|---|---|---|---|")
    for n, span in sorted(SHAPES, key=lambda s: (s[0] * (s[1] - 1), s)):
        level, scalar = per_call_us(n, span, args.d, args.calls)
        print("| %d | %d | %d | %.1f | %.1f |" % (n, span, n * (span - 1), level, scalar))


if __name__ == "__main__":
    main()
