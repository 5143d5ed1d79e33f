"""Smoke tests of the timing tools under tools/, so that they cannot rot.

A tool is loaded by path, as a script, and its cheapest rows run once.
"""

import importlib.util
import math
import pathlib
import re
import time

TOOLS = pathlib.Path(__file__).resolve().parents[1] / "tools"


def load_tool(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / ("%s.py" % name))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_move_costs():
    return load_tool("move_costs")


def test_src_stats_prints_its_figures(capsys):
    # change-log entries quote these lines: each must carry integer counts
    load_tool("src_stats").main()
    out = capsys.readouterr().out
    assert re.search(r"^total +\d+ lines +\d+ defaults$", out, re.M)
    assert re.search(r"^mc\.py +\d+ lines +\d+ defaults$", out, re.M)
    assert re.search(r"^SamplerOptions fields: \d+$", out, re.M)
    assert re.search(r"^config keys: \d+ \(SECTIONS \d+, POTENTIAL \d+, OPTIONS \d+\)$",
                     out, re.M)
    assert re.search(r"^Chain members the twin overrides: \d+ \(", out, re.M)


def test_move_costs_bridge_rows_run():
    tool = load_move_costs()
    t0 = time.perf_counter()
    rows = tool.bridge_costs(1)
    assert time.perf_counter() - t0 < 2.0
    assert [name for name, _ in rows] == [
        "sample_bridge d=1 k=2 S=4", "sample_bridge d=2 k=1 S=4", "resample_leg d=2 S=4",
        "sample_bridges n=1500 k=1 S=16", "path_stay_probability a=0.5",
        "path_stay_probability a=1.0", "path_stay_probability a=1.5"]
    assert all(math.isfinite(us) and us > 0.0 for _, us in rows)


def test_move_costs_energy_rows_run():
    # a small Widom-Rowlinson chain: the rows time its energy calls through
    # the chain's lane and the sums lane, and count candidates per query
    tool = load_move_costs()
    params = tool.chains()[-1][1]
    chain = tool.mc.Chain(params, tool.Box((0.0, 0.0), 4.0), seed=37,
                          options=tool.mc.SamplerOptions(slices_per_beta=4))
    chain.run(50)
    assert chain.config.loops
    t0 = time.perf_counter()
    us, sums, mean, none = tool.energy_costs(chain, 1)
    assert time.perf_counter() - t0 < 2.0
    assert math.isfinite(us) and us > 0.0 and math.isfinite(sums) and sums > 0.0
    assert mean > 0.0 and 0.0 <= none < 1.0  # the index was queried and found loops
