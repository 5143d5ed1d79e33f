"""Benchmark command for loopgas.

    python3 perfbench/run.py [--workload wr-gas|free-gas|bridge-laws|all]
                             [--seed N] [--seconds T] [--trace 0|1]

Each workload runs in fresh single-threaded Python processes started from
the repository root: a few set-up-only processes whose median set-up time
is reported as setup_s, then one process that runs whole rounds for
--seconds (worker.py).  The command prints each workload's metrics with
their units, its operation counts and every check, and ends with one JSON
line: {"correct", "attempted", "failed", "metrics"}.  --trace 0 reports the
end-to-end metrics, --trace 1 the per-layer ones.  With --workload all the
three workloads run one after another and the JSON line carries every
workload's metrics prefixed with its name.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("wr-gas", "free-gas", "bridge-laws")
SETUP_PROBES = 2
TIMEOUT_S = 170.0

# rates of each workload: (printed name, unit of work, phases timed); the
# first one is the workload's work_per_s
RATES = {
    "wr-gas": [("chain_proposals_per_s", "chain", ("chain",)),
               ("kernel_snapshots_per_s", "kernel", ("kernel",))],
    "free-gas": [("chain_proposals_per_s", "chain", ("chain",)),
                 ("kernel_snapshots_per_s", "kernel", ("kernel",))],
    "bridge-laws": [("bridge_paths_per_s", "draws",
                     ("experiment", "long_tail", "marginal"))],
}
# metric unit by name ending, first match wins
UNIT_SUFFIXES = (("_per_s", "1/s"), ("_mb", "MB"), ("us_per_call", "us"),
                 ("ns_per_leg_pair", "ns"), ("accept_ratio", "ratio"),
                 ("calls", "count"), ("proposed", "count"), ("_mean", "count"),
                 ("_s", "s"))


def unit_of(name):
    return next(unit for suffix, unit in UNIT_SUFFIXES if name.endswith(suffix))


class BenchError(RuntimeError):
    pass


def _worker(workload, seed, seconds, trace, setup_only):
    env = dict(os.environ)
    # one thread everywhere: the figures describe single-threaded Python
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    t0 = time.monotonic()
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", repr(float(seconds)),
           "--trace", str(trace), "--t0", repr(t0)]
    if setup_only:
        cmd.append("--setup-only")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError("%s worker exceeded %.0f s" % (workload, TIMEOUT_S))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError("%s worker failed (exit %d):\n%s"
                         % (workload, proc.returncode, proc.stderr[-2000:]))
    return json.loads(lines[-1])


def rate(res, unit, phases):
    """Units of work over the reference seconds of the given phases, all rounds."""
    return (sum(w[unit] for w in res["work"])
            / sum(p[k] for p in res["phase_s"] for k in phases))


def end_to_end(workload, res, setups):
    """The end-to-end metrics of one workload from its worker's report."""
    return {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.mean(res["round_s"]),
        "work_per_s": rate(res, *RATES[workload][0][1:]),
        "peak_rss_mb": res["peak_rss_mb"],
    }


def run_workload(workload, seed, seconds, trace):
    # set-up time is an end-to-end figure, so traced runs skip the probes
    probes = [] if trace else [_worker(workload, seed, seconds, trace, True)
                               for _ in range(SETUP_PROBES)]
    res = _worker(workload, seed, seconds, trace, False)
    setups = [p["setup_s"] for p in probes] + [res["setup_s"]]
    raw_setups = [p["setup_raw_s"] for p in probes] + [res["setup_raw_s"]]
    print("== %s  seed %d  %d rounds in %.1f s" % (workload, seed, res["rounds"], seconds))
    for i, results in enumerate(res["checks"]):
        label = "round %d" % i if i < res["rounds"] else "run"
        for c in results:
            print("   %-8s %-26s %s  %s" % (label, c["name"],
                                                 "pass" if c["passed"] else "FAIL",
                                                 json.dumps(c["detail"])))
    for i, fp in enumerate(res["fingerprints"]):
        if fp:
            print("   round %d fingerprint %s" % (i, fp))
    for d in res["density"]:
        print("   anchor density %.5f +- %.5f vs Li2(z)/(2 pi beta) = %.5f "
              "(%+.1f%%, not gated)" % (d["density"], d["std_error"], d["exact"],
                                        100.0 * d["deviation"]))
    if trace:
        metrics = res.get("per_layer", {})
        print("   spans recorded: %s" % ", ".join(res["span_names"]))
        for name, value in metrics.items():
            print("   %-50s %.6g %s" % (name, value, unit_of(name)))
    else:
        metrics = end_to_end(workload, res, setups)
        for name, value in metrics.items():
            print("   %-24s %.6g %s" % (name, value, unit_of(name)))
        for name, unit, phases in RATES[workload]:
            print("   %-24s %.6g 1/s" % (name, rate(res, unit, phases)))
        print("   as measured, before rescaling to reference speed: setup %.4g s "
              "(median), round %.4g s (mean)" % (statistics.median(raw_setups),
                                                 statistics.mean(res["round_raw_s"])))
    print("   operations: %d attempted, %d failed" % (res["attempted"], res["failed"]))
    return res, metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "loopgas", "__init__.py")):
        print("error: no loopgas sources under %s" % os.path.join(ROOT, "src"),
              file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    attempted = failed = 0
    metrics = {}
    try:
        for name in names:
            res, m = run_workload(name, args.seed, args.seconds, args.trace)
            attempted += res["attempted"]
            failed += res["failed"]
            prefix = name + "." if len(names) > 1 else ""
            metrics.update({prefix + k: v for k, v in m.items()})
    except BenchError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    out = {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
