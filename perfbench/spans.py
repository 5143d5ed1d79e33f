"""Span tracing of loopgas from outside: wrappers around its public functions.

A Tracer replaces each traced function in every loopgas namespace that
holds it (loopgas.mc.sample_bridge as well as loopgas.bridge.sample_bridge,
and the package's re-exports), so the callers' own look-ups reach the
wrapper.  Each call records one span (name, start, end, parent) in compact
arrays kept in memory and written out by save().  Self time, a span's
duration minus the time its direct child spans cover, is accumulated per
span name as the spans close.  uninstall() puts every original back.
"""

import functools
import time
from array import array
from collections import defaultdict

import numpy as np

import loopgas
from loopgas import bridge, cli, experiments, loops, mc, model

MODULES = (loopgas, model, bridge, loops, mc, experiments, cli)

# span name -> (object holding the attribute, attribute name)
TRACED = {
    "model.Box.contains": (model.Box, "contains"),
    "bridge.sample_bridge": (bridge, "sample_bridge"),
    "bridge.resample_leg": (bridge, "resample_leg"),
    "bridge.path_stay_probability": (bridge, "path_stay_probability"),
    "bridge.box_stay_probability": (bridge, "box_stay_probability"),
    "loops.interaction_energy": (loops, "interaction_energy"),
    "loops.confined_to_box": (loops, "confined_to_box"),
    "loops.avoids_box_at_step_times": (loops, "avoids_box_at_step_times"),
    "mc.Chain.sweep": (mc.Chain, "sweep"),
    "mc.estimate_rdm_kernel": (mc, "estimate_rdm_kernel"),
    "mc.estimate_reference_kernel": (mc, "estimate_reference_kernel"),
    "mc.estimate_density": (mc, "estimate_density"),
    "mc.shift_invariance_probe": (mc, "shift_invariance_probe"),
    "experiments.run_experiment": (experiments, "run_experiment"),
    "experiments.dirichlet_trace_mc": (experiments, "dirichlet_trace_mc"),
    "cli.parse_config": (cli, "parse_config"),
}


def _nonzero_pairs(params):
    return [[not p.is_zero() for p in row] for row in params.potentials]


def implied_leg_pairs(target, params, conditioning):
    """Leg pairs with a non-zero potential that one energy call must evaluate."""
    live = _nonzero_pairs(params)
    q = params.n_types
    lt = [0] * q
    lc = [0] * q
    for o in target:
        lt[o.type_index] += o.k
    for o in conditioning or ():
        lc[o.type_index] += o.k
    pairs = 0
    for i in range(q):
        if live[i][i]:
            pairs += lt[i] * (lt[i] - 1) // 2
        for j in range(q):
            if j > i and live[i][j]:
                pairs += lt[i] * lt[j]
            if live[i][j]:
                pairs += lt[i] * lc[j]
    return pairs


class Tracer:
    def __init__(self):
        self.names = list(TRACED)
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        # per-call quantities read from arguments and results
        self.points_drawn = 0
        self.conditioning_loops = 0
        self.leg_pairs = 0
        self.sweep_loops = 0
        self._stack = []
        self._saved = []

    def _wrap(self, name, fn):
        nid = self.names.index(name)
        stack = self._stack
        rec_name, rec_parent = self.span_name, self.span_parent
        rec_start, rec_end = self.span_start, self.span_end
        note = getattr(self, "_note_" + name.replace(".", "_"), None)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(rec_name)
            rec_name.append(nid)
            rec_parent.append(stack[-1][0] if stack else -1)
            rec_start.append(0.0)
            rec_end.append(0.0)
            frame = [idx, 0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                rec_start[idx] = t0
                rec_end[idx] = t1
                if stack:
                    stack[-1][1] += t1 - t0
                self.calls[name] += 1
                self.self_s[name] += (t1 - t0) - frame[1]
            if note is not None:
                note(args, kwargs, out)
            return out

        return traced

    def _note_bridge_sample_bridge(self, args, kwargs, out):
        self.points_drawn += out.samples.shape[0] - 2

    def _note_bridge_resample_leg(self, args, kwargs, out):
        self.points_drawn += out.slices_per_beta - 1

    def _note_loops_interaction_energy(self, args, kwargs, out):
        conditioning = kwargs.get("conditioning", args[2] if len(args) > 2 else None)
        params = kwargs.get("params", args[1] if len(args) > 1 else None)
        self.conditioning_loops += len(conditioning or ())
        self.leg_pairs += implied_leg_pairs(args[0], params, conditioning)

    def _note_mc_Chain_sweep(self, args, kwargs, out):
        self.sweep_loops += len(args[0].config.loops)

    def install(self):
        for name, (holder, attr) in TRACED.items():
            original = getattr(holder, attr)
            wrapper = self._wrap(name, original)
            for ns in MODULES + (holder,):
                for key, value in list(vars(ns).items()):
                    if value is original:
                        self._saved.append((ns, key, original))
                        setattr(ns, key, wrapper)

    def uninstall(self):
        for ns, key, original in reversed(self._saved):
            setattr(ns, key, original)
        self._saved = []

    def save(self, path):
        """Write the recorded spans (name, start, end, parent) as an .npz file."""
        np.savez_compressed(
            path, names=np.array(self.names),
            name=np.asarray(self.span_name, dtype=np.int32),
            parent=np.asarray(self.span_parent, dtype=np.int32),
            start=np.asarray(self.span_start, dtype=float),
            end=np.asarray(self.span_end, dtype=float))
