"""Smoke tests of the timing tools under tools/, so that they cannot rot.

A tool is loaded by path, as a script, and its cheapest rows run once.
"""

import importlib.util
import math
import pathlib
import time

MOVE_COSTS = pathlib.Path(__file__).resolve().parents[1] / "tools" / "move_costs.py"


def load_move_costs():
    spec = importlib.util.spec_from_file_location("move_costs", MOVE_COSTS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
