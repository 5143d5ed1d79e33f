"""The seams the benchmark's tracer (perfbench/spans.py) wraps from outside.

A traced benchmark run replaces every function named in spans.TRACED, so a
name that moves or goes crashes it, and its per-layer energy figures count
the calls of loops.interaction_energy that the chain makes through mc.
"""

import importlib.util
import pathlib

from loopgas import mc
from loopgas.model import Box, ModelParams, PairPotential, zero_potential

SPANS = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    traced = load_spans().TRACED
    assert traced
    assert [name for name, (holder, attr) in traced.items()
            if not callable(getattr(holder, attr, None))] == []


def test_a_widom_rowlinson_audit_makes_one_energy_call(monkeypatch):
    core, zp = PairPotential(hard_core=0.3, range_=0.3), zero_potential()
    params = ModelParams(2, 2, 1.0, (0.5, 0.5), [[zp, core], [core, zp]])
    chain = mc.Chain(params, Box((0.0, 0.0), 4.0), seed=37,
                     options=mc.SamplerOptions(slices_per_beta=4))
    chain.run(20)
    assert chain.config.loops
    calls, energy = [], mc.interaction_energy
    monkeypatch.setattr(mc, "interaction_energy",
                        lambda *a, **kw: calls.append(1) or energy(*a, **kw))
    assert chain.audit() == 0.0
    assert len(calls) == 1
