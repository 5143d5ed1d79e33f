"""Tests of the benchmark itself (not part of the package's tier-1 suite).

    python3 -m pytest perfbench/tests -q

The worker-level tests run one round of each workload in a subprocess, as
the benchmark does, and take about two minutes.
"""

import json
import math
import os
import shutil
import subprocess
import sys
import time

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, BENCH)

import references as ref  # noqa: E402
import run  # noqa: E402
from loopgas import loops as lps  # noqa: E402
from loopgas.bridge import sample_bridge  # noqa: E402
from loopgas.model import ModelParams, PairPotential  # noqa: E402

SEED = 3


def random_loops(rng, n, S=4, spread=0.6, n_types=2):
    out = []
    for _ in range(n):
        x = rng.uniform(-spread, spread, size=2)
        k = int(rng.integers(1, 4))
        out.append(lps.Loop(int(rng.integers(n_types)),
                            sample_bridge(x, x, k, S, 1.0, rng)))
    return out


def two_type_params(pot):
    return ModelParams(2, 2, 1.0, (0.5, 0.5), [[pot, pot], [pot, pot]])


@pytest.mark.parametrize("pot", [
    PairPotential(hard_core=0.0, range_=0.8, height=0.8),
    PairPotential(hard_core=0.15, range_=0.6, height=0.5),
], ids=["soft", "hard_core"])
def test_brute_force_energy_matches_interaction_energy(pot):
    params = two_type_params(pot)
    rng = np.random.default_rng(11)
    finite = infinite = 0
    for _ in range(40):
        objs = random_loops(rng, int(rng.integers(2, 6)))
        cut = int(rng.integers(1, len(objs)))
        target, cond = objs[:cut], objs[cut:]
        program = lps.interaction_energy(target, params, conditioning=cond)
        brute = ref.brute_force_energy(target, params, cond)
        if math.isinf(program):
            infinite += 1
            assert math.isinf(brute)
        else:
            finite += 1
            assert brute == pytest.approx(program, rel=1e-12, abs=1e-12)
    assert finite > 0
    if pot.hard_core > 0:
        assert infinite > 0


def test_cross_type_gap_sees_overlap():
    rng = np.random.default_rng(5)
    a, b = random_loops(rng, 2, spread=0.0, n_types=1)
    b.type_index = 1
    assert ref.closest_cross_type_gap([a]) == math.inf
    assert ref.closest_cross_type_gap([a, b]) < 2.0


def worker(workload, trace, seed=SEED):
    cmd = [sys.executable, os.path.join(BENCH, "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "0", "--trace", str(trace),
           "--t0", repr(time.monotonic())]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def reports():
    return {(w, t, i): worker(w, t)
            for w in run.WORKLOADS for t, i in ((0, 0), (0, 1), (1, 0))}


def check_values(res):
    return [[(c["name"], c["passed"], c["detail"]) for c in checks]
            for checks in res["checks"]]


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_runs_at_one_seed_repeat(reports, workload):
    first, second = reports[(workload, 0, 0)], reports[(workload, 0, 1)]
    assert first["rounds"] == second["rounds"] == 1
    assert first["failed"] == 0
    assert first["fingerprints"] == second["fingerprints"]
    assert check_values(first) == check_values(second)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_tracing_changes_no_result(reports, workload):
    plain, traced = reports[(workload, 0, 0)], reports[(workload, 1, 0)]
    assert traced["fingerprints"] == plain["fingerprints"]
    # the traced run appends its own twin comparison to the same checks
    assert check_values(traced)[0][:-1] == check_values(plain)[0]
    assert check_values(traced)[0][-1][:2] == ("trace_reproduces_untraced", True)


def test_metric_names_and_units_follow_benchmark_json(reports):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    for w in run.WORKLOADS:
        e2e = run.end_to_end(w, reports[(w, 0, 0)], [1.0])
        assert list(e2e) == [m["name"] for m in spec["end_to_end"]]
        assert all(v > 0 for v in e2e.values())
        layers = reports[(w, 1, 0)]["per_layer"]
        assert list(layers) == [m["name"] for m in spec["per_layer"]]
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert run.unit_of(m["name"]) == m["unit"]


def test_layers_idle_where_the_workload_does_not_reach(reports):
    for w in ("free-gas", "bridge-laws"):
        assert reports[(w, 1, 0)]["per_layer"]["loops.interaction_energy.calls"] == 0
    assert reports[("wr-gas", 1, 0)]["per_layer"]["loops.interaction_energy.calls"] > 0
    names = reports[("bridge-laws", 1, 0)]["span_names"]
    assert not [n for n in names if n.startswith("mc.")]


def test_fails_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "bridge-laws", "--seed", "1", "--seconds", "1",
                           "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
