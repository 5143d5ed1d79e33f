"""One workload in one fresh process.

    python3 perfbench/worker.py --workload NAME --seed N --seconds T --trace 0|1 --t0 T0 [--setup-only]

Set-up runs first (imports, cli.parse_config, model and first chain); its
time is measured from --t0, the launcher's time.monotonic() just before it
started this process (CLOCK_MONOTONIC is shared by all processes of the
machine).  Then whole rounds run, each from its own seeds, while another
one fits in --seconds; there is always at least one.  Phase times are kept
both as measured and in reference seconds (workloads.PhaseClock).  Each
round's outputs are checked after its timer stops.  With --trace 1 every round runs twice from the same
seeds, untraced and then traced; the traced copy gives the per-layer
figures and must reproduce the untraced copy's fingerprint and check
values.  The last line of standard output is one JSON object.
"""

import argparse
import json
import math
import os
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")


def _jsonable(value):
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if hasattr(value, "item"):  # numpy scalar
        value = value.item()
    if isinstance(value, float) and not math.isfinite(value):
        return repr(value)
    return value


def run_checks(names, make_table):
    """Run each named check once; a check that raises or is missing fails."""
    results = []
    try:
        table = make_table()
    except Exception as exc:  # the outputs could not be read at all
        table = {}
        error = repr(exc)
    else:
        error = "check missing"
    for name in names:
        try:
            passed, detail = table[name]()
            passed = bool(passed)
        except Exception as exc:  # a raising check is a failed operation
            passed, detail = False, {"error": repr(exc) if name in table else error}
        results.append({"name": name, "passed": passed, "detail": detail})
    return results


def execute(wl, r, tracer):
    """Round r: (round or None, check results, untraced reference time).

    With a tracer the round runs untraced and then traced from the same
    inputs, and the traced copy must reproduce the untraced one.
    """
    try:
        if tracer:
            twin = wl.run_round(r, wl.prepare(r))
            twin_results = run_checks(wl.check_names, lambda: wl.checks(twin))
            inputs = wl.prepare(r)
            tracer.install()
            try:
                rnd = wl.run_round(r, inputs)
            finally:
                tracer.uninstall()
        else:
            rnd = wl.run_round(r, wl.prepare(r))
        results = run_checks(wl.check_names, lambda: wl.checks(rnd))
        rnd.fingerprint = wl.fingerprint(rnd)
        rnd.report = wl.density_report(rnd) if hasattr(wl, "density_report") else None
        if tracer:
            same = (wl.fingerprint(twin) == rnd.fingerprint
                    and _jsonable(twin_results) == _jsonable(results))
            results.append({"name": "trace_reproduces_untraced", "passed": same,
                            "detail": {}})
        rnd.out = {}  # drop the chains and paths once checked
        return rnd, results, twin.wall_s if tracer else None
    except Exception as exc:  # a round that raises fails all its operations
        return None, [{"name": name, "passed": False, "detail": {"error": repr(exc)}}
                      for name in wl.check_names], None


def per_layer(tracer, rounds, traced_s, untraced_s):
    """Per-layer metrics from the traced rounds, per round where they are totals."""
    n = len(rounds)
    calls, self_s = tracer.calls, tracer.self_s

    def pair(key, name):
        return {key + ".calls": calls[name] / n, key + ".self_s": self_s[name] / n}

    energy_calls = calls["loops.interaction_energy"]
    energy_s = self_s["loops.interaction_energy"]
    draw_s = self_s["bridge.sample_bridge"] + self_s["bridge.resample_leg"]
    stay = ("bridge.path_stay_probability", "bridge.box_stay_probability")
    estimators = [k for k in tracer.names if k.startswith("mc.estimate")
                  or k == "mc.shift_invariance_probe"]
    m = {}
    m.update(pair("loops.interaction_energy", "loops.interaction_energy"))
    m["loops.interaction_energy.us_per_call"] = (
        1e6 * energy_s / energy_calls if energy_calls else 0.0)
    m["loops.interaction_energy.conditioning_loops_mean"] = (
        tracer.conditioning_loops / energy_calls if energy_calls else 0.0)
    m["loops.interaction_energy.ns_per_leg_pair"] = (
        1e9 * energy_s / tracer.leg_pairs if tracer.leg_pairs else 0.0)
    m.update(pair("loops.confined_to_box", "loops.confined_to_box"))
    m.update(pair("loops.avoids_box_at_step_times", "loops.avoids_box_at_step_times"))
    m.update(pair("model.box_contains", "model.Box.contains"))
    m.update(pair("bridge.sample_bridge", "bridge.sample_bridge"))
    m.update(pair("bridge.resample_leg", "bridge.resample_leg"))
    m["bridge.points_per_s"] = tracer.points_drawn / draw_s if draw_s else 0.0
    m["bridge.stay_probability.calls"] = sum(calls[k] for k in stay) / n
    m["bridge.stay_probability.self_s"] = sum(self_s[k] for k in stay) / n
    m["mc.chain.self_s"] = self_s["mc.Chain.sweep"] / n
    for family in ("insert_delete", "merge_split", "redraw"):
        proposed = sum(r.stats.get(family, (0, 0))[0] for r in rounds)
        accepted = sum(r.stats.get(family, (0, 0))[1] for r in rounds)
        m["mc.%s.proposed" % family] = proposed / n
        m["mc.%s.accept_ratio" % family] = accepted / proposed if proposed else 0.0
    sweeps = calls["mc.Chain.sweep"]
    m["mc.loops_mean"] = tracer.sweep_loops / sweeps if sweeps else 0.0
    m["mc.estimator.self_s"] = sum(self_s[k] for k in estimators) / n
    m["cli.parse_config.self_s"] = self_s["cli.parse_config"]
    m["trace.overhead_s"] = statistics.median(traced_s) - statistics.median(untraced_s)
    return m


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, os.path.join(ROOT, "src"))
    import workloads

    wl = workloads.WORKLOADS[args.workload](args.seed)
    tracer = None
    if args.trace:
        import spans
        tracer = spans.Tracer()
        tracer.install()
    try:
        wl.setup()
    finally:
        if tracer:
            tracer.uninstall()
    setup_raw_s = time.monotonic() - args.t0
    setup_s = setup_raw_s * workloads.REF_PROBE_S / workloads.speed_probe()
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "setup_raw_s": setup_raw_s}))
        return 0

    start = time.perf_counter()
    rounds, checks, elapsed, untraced_s, traced_s = [], [], [], [], []
    while True:
        t = time.perf_counter()
        rnd, results, twin_s = execute(wl, len(checks), tracer)
        if rnd is not None:
            rounds.append(rnd)
            if tracer:
                untraced_s.append(twin_s)
                traced_s.append(rnd.wall_s)
        checks.append(results)
        elapsed.append(time.perf_counter() - t)
        if time.perf_counter() - start + statistics.median(elapsed) > args.seconds:
            break
    n_rounds = len(checks)
    checks.append(run_checks(wl.final_check_names, lambda: wl.final_checks(rounds)))
    results = [c for entry in checks for c in entry]
    out = {
        "workload": args.workload, "seed": args.seed, "setup_s": setup_s,
        "setup_raw_s": setup_raw_s, "rounds": n_rounds,
        "round_s": [x.wall_s for x in rounds],
        "round_raw_s": [sum(x.clock.raw.values()) for x in rounds],
        "phase_s": [x.clock.ref for x in rounds], "work": [x.work for x in rounds],
        "attempted": len(results), "failed": sum(not c["passed"] for c in results),
        "checks": checks, "fingerprints": [x.fingerprint for x in rounds],
        "density": [x.report for x in rounds if x.report],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer and rounds:
        out["per_layer"] = per_layer(tracer, rounds, traced_s, untraced_s)
    if tracer:
        out["span_names"] = sorted(k for k, v in tracer.calls.items() if v)
        os.makedirs(OUT_DIR, exist_ok=True)
        tracer.save(os.path.join(OUT_DIR, "spans-%s.npz" % args.workload))
    print(json.dumps(_jsonable(out)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
