"""Time bridge._bisect's two walks against each other, per batch shape.

    PYTHONPATH=src python tools/bisect_walks.py [--d 1 2 3] [--calls 500] [--repeats 7]

Each row forces one walk by setting bridge.SCALAR_WALK_MAX (0: the level
walk always, a large value: the scalar walk always) and prints the best of
`repeats` timings of `calls` fills of a (n, span + 1, d) batch, in us per
call; the repeats alternate between the walks.  The shapes are batches of
4-slice legs, single paths up to span 80 (k = 20 at S = 4) and a few
batches of longer legs.
The walks give the same doubles, so only their cost picks the cut-off.
The scalar walk's cost grows with the midpoint coordinates n * (span - 1)
* d, the level walk's with its levels (span - 1).bit_length(), so rows go
by coordinates per level, and SCALAR_WALK_MAX is the largest number of
them up to which the scalar walk is about as fast or faster.
"""

import argparse
import time

import numpy as np

from loopgas import bridge

SHAPES = ([(n, 4) for n in (1, 4, 8, 12, 16, 24, 32)]
          + [(1, span) for span in (8, 16, 32, 48, 64, 80)]
          + [(2, 8), (4, 8), (8, 8), (2, 16), (4, 16), (2, 32)])


def _time(samples, span, calls, rng, cutoff):
    bridge.SCALAR_WALK_MAX = cutoff
    t = time.perf_counter()
    for _ in range(calls):
        bridge._bisect(samples, 0, span, 0.25, rng)
    return (time.perf_counter() - t) / calls * 1e6


def per_call_us(n, span, d, calls, repeats):
    """Best of `repeats` us per call of the level walk and of the scalar walk.

    The repeats alternate between the walks, so a slow spell of the machine
    hits both.
    """
    saved = bridge.SCALAR_WALK_MAX
    try:
        samples = np.zeros((n, span + 1, d))
        rng = np.random.default_rng(0)
        for cutoff in (0, 10 ** 9):  # warm both walks' plan caches
            _time(samples, span, 1, rng, cutoff)
        times = [[_time(samples, span, calls, rng, cutoff) for cutoff in (0, 10 ** 9)]
                 for _ in range(repeats)]
        return tuple(map(min, zip(*times)))
    finally:
        bridge.SCALAR_WALK_MAX = saved


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--d", type=int, nargs="+", default=[1, 2, 3])
    ap.add_argument("--calls", type=int, default=500)
    ap.add_argument("--repeats", type=int, default=7)
    args = ap.parse_args()
    rows = []
    for d in args.d:
        for n, span in SHAPES:
            coords, levels = n * (span - 1) * d, (span - 1).bit_length()
            level, scalar = per_call_us(n, span, d, args.calls, args.repeats)
            rows.append((coords / levels, d, n, span, coords, levels, level, scalar))
    print("| d | n | span | coordinates | levels | per level | level walk (us) "
          "| scalar walk (us) | faster |")
    print("|---|---|---|---|---|---|---|---|---|")
    for per_level, d, n, span, coords, levels, level, scalar in sorted(rows):
        print("| %d | %d | %d | %d | %d | %.1f | %.1f | %.1f | %s |"
              % (d, n, span, coords, levels, per_level, level, scalar,
                 "scalar" if scalar <= level else "level"))
    first_loss = min((r[0] for r in rows if r[7] > r[6]), default=float("inf"))
    last_win = max((r[0] for r in rows if r[7] <= r[6] and r[0] < first_loss), default=0.0)
    print("scalar walk faster on every row up to %.1f coordinates per level; "
          "first row where it is slower: %.1f" % (last_win, first_loss))


if __name__ == "__main__":
    main()
