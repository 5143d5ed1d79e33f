"""Command-line entry point: `loopgas <experiment> --config <path>`.

Parses a strict YAML config (unknown keys rejected with a nearest-key
suggestion), runs the selected experiment, and writes results.csv plus
summary.json (and optionally chain.ckpt) into the output directory.
Identical config and seed produce byte-identical CSV; wall-clock fields
live only in the JSON summary.  Exit status: 0 on pass or no built-in
threshold, 1 on a failed verdict, 2 on config or runtime errors.
"""

import argparse
import csv
import difflib
import json
import math
import os
import sys
import time

import numpy as np
import yaml

from . import __version__, mc
from .experiments import (OPTIONS, POTENTIAL, REQUIRED, RUNNERS, SECTIONS,
                          build_geometry, oracle_windows, probe_shift, run_experiment,
                          settings)

EXPERIMENT_NAMES = tuple(sorted(RUNNERS))


class ConfigError(ValueError):
    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


def _is_num(v):  # a finite double: NaN, +-inf and ints beyond the largest double fail
    return (isinstance(v, (int, float)) and not isinstance(v, bool)
            and abs(v) <= sys.float_info.max)


def _is_int(v):
    return isinstance(v, int) and not isinstance(v, bool)


def _suggest(key, allowed):
    close = difflib.get_close_matches(str(key), sorted(allowed), n=1)
    return " (did you mean %r?)" % close[0] if close else ""


def _check_keys(section, allowed, path, errors):
    if not isinstance(section, dict):
        errors.append("at %s: expected a mapping, got %s"
                      % (path, type(section).__name__))
        return False
    errors += ["unknown key %r at %s%s" % (key, path, _suggest(key, allowed))
               for key in section if key not in allowed]
    return True


def _check_value(f, v, at, errors, model):
    """Check one value against its table entry; False when its type is wrong."""
    n = model.get(f.length) if isinstance(f.length, str) else f.length  # a list's length
    if f.kind in ("int", "number"):
        if not (_is_int(v) if f.kind == "int" else _is_num(v)):
            errors.append("at %s: expected %s, got %r"
                          % (at, "an integer" if f.kind == "int" else "a number", v))
            return False
        if f.minimum is not None and v < f.minimum:
            errors.append("at %s: value %r below minimum %r" % (at, v, f.minimum))
        elif f.min_exclusive is not None and v <= f.min_exclusive:
            errors.append("at %s: value %r must exceed %r" % (at, v, f.min_exclusive))
        elif f.maximum is not None and v > f.maximum:
            errors.append("at %s: value %r above maximum %r" % (at, v, f.maximum))
    elif f.kind == "bool":
        if not isinstance(v, bool):
            errors.append("at %s: expected a boolean" % at)
            return False
    elif f.kind == "str":
        if f.choices is not None and v not in f.choices:
            errors.append("at %s: %r is not one of %s" % (at, v, ", ".join(f.choices)))
    elif f.kind == "numbers":
        if not isinstance(v, list) or not all(_is_num(u) for u in v):
            errors.append("at %s: expected a list of numbers" % at)
            return False
        if n is not None and len(v) != n:
            errors.append("at %s: expected %d entries, got %d" % (at, n, len(v)))
        for i, u in enumerate(v):
            if f.max_exclusive is not None and not f.min_exclusive < u < f.max_exclusive:
                errors.append("range violation at key %s[%d]: value %r outside "
                              "the open interval (%g, %g)"
                              % (at, i, u, f.min_exclusive, f.max_exclusive))
    elif f.kind == "ints":
        if (not isinstance(v, list)
                or not all(_is_int(u) and (f.minimum is None or u >= f.minimum)
                           for u in v)
                or (n is not None and len(v) != n)):
            what = f.what or ("non-negative integers" if f.minimum == 0 else "positive integers")
            errors.append("at %s: expected %s" % (
                at, what if n is None else "a list of length %d of %s" % (n, what)))
            return False
    elif not isinstance(v, dict if f.kind == "mapping" else list):
        errors.append("at %s: expected a %s" % (at, f.kind))
        return False
    return True


def _check_section(spec, section, path, errors, model):
    """Check one mapping against its table; returns its well-typed entries.
    List lengths read model, the model section's entries (None: this section's)."""
    if not _check_keys(section, spec, path, errors):
        return {}
    valid = {}
    for key, f in spec.items():
        at = "%s.%s" % (path, key)
        if key not in section:
            if f.default is REQUIRED:
                errors.append("at %s: required field missing" % at)
        elif _check_value(f, section[key], at, errors, valid if model is None else model):
            valid[key] = section[key]
    return valid


def _check_cross_fields(ok, experiment_name, errors):
    """The rules that tie one key to another; ok holds each section's well-typed keys."""
    model = ok.get("model", {})
    d, q = model.get("dimension"), model.get("n_types")
    ranges = {}  # per type pair, the range of its last entry, which build_params keeps
    for p_idx, entry in enumerate(model.get("potentials", ())):
        path = "model.potentials[%d]" % p_idx
        pot = _check_section(POTENTIAL, entry, path, errors, model)
        ranges[tuple(sorted(pot.get("types", ())))] = pot.get("range", 0.0)
        types = pot.get("types")
        if types is not None and q is not None and not all(0 <= t < q for t in types):
            errors.append("at %s.types: indices outside [0, %d)" % (path, q))
        hc, rng_ = pot.get("hard_core"), pot.get("range")
        if hc is not None and rng_ is not None and rng_ < hc:
            errors.append("at %s: range %r below hard_core %r" % (path, rng_, hc))
        if pot.get("profile") == "table":
            for key in ("table_r", "table_v"):
                if key not in entry:
                    errors.append("at %s.%s: required for table profiles" % (path, key))
    max_range = max(ranges.values(), default=0.0)
    geometry = ok.get("geometry", {})
    c0, half = geometry.get("box0_center"), geometry.get("box_half_side")
    if c0 is not None and half is not None and any(abs(x) > half for x in c0):
        errors.append("at geometry.box0_center: %s outside the box [-%r, %r]^d"
                      % (c0, half, half))
    mw = ok.get("sampler", {}).get("move_weights")
    if mw is not None and (any(w < 0 for w in mw) or sum(mw) <= 0):
        errors.append("at sampler.move_weights: weights must be non-negative "
                      "with a positive sum")
    external = ok.get("external", {})
    counts, points = external.get("counts"), external.get("points")
    reach = min(external.get("reach", max_range), max_range)
    if counts is not None and any(counts) and points is None and reach <= 0:
        # the points are scattered within reach of the box: none can be drawn
        errors.append("at external.counts: points need a positive reach, but "
                      "min(external.reach, largest potential range) is %r" % reach)
    if points is not None and q is not None and d is not None and not (
            len(points) == q and all(isinstance(p, list) and all(
                isinstance(x, list) and len(x) == d and all(map(_is_num, x))
                for x in p) for p in points)):
        errors.append("at external.points: expected %d lists of %d-coordinate points"
                      % (q, d))
    experiment = ok.get("experiment", {})
    declared = experiment.get("name")
    if declared is not None and declared not in EXPERIMENT_NAMES:
        errors.append("at experiment.name: %r is not an experiment%s"
                      % (declared, _suggest(declared, EXPERIMENT_NAMES)))
    if (experiment_name is not None and declared is not None
            and declared != experiment_name):
        errors.append("at experiment.name: config declares %r but the "
                      "subcommand is %r" % (declared, experiment_name))
    name = declared if declared in EXPERIMENT_NAMES else experiment_name
    if "options" in experiment and name in EXPERIMENT_NAMES:
        options = _check_section(OPTIONS[name], experiment["options"],
                                 "experiment.options", errors, model)
        if name == "b-condition":
            opts = settings(OPTIONS[name], options)
            if opts["grid_max"] < opts["grid_min"]:
                errors.append("at experiment.options.grid_max: %r below grid_min %r, "
                              "so the L grid is empty" % (opts["grid_max"], opts["grid_min"]))
        if name in ("free-validate", "k-tail", "shift-invariance"):
            # fewer snapshots than the estimators' mc.N_BATCHES batches give an
            # infinite error, and every verdict check passes on no data
            opts = settings(OPTIONS[name], options)
            if opts["sweeps"] // opts["thin"] < mc.N_BATCHES:
                errors.append("at experiment.options.sweeps: %r sweeps at thin %r give "
                              "fewer than %d snapshots"
                              % (opts["sweeps"], opts["thin"], mc.N_BATCHES))
        if name == "oracle":
            opts = settings(OPTIONS[name], options)
            inner0, inner1 = oracle_windows(opts)
            for key, sites in (("inner0", inner0), ("inner1", inner1)):
                if any(s >= opts["n_sites"] for s in sites):
                    errors.append("at experiment.options.%s: site indices outside "
                                  "[0, %d)" % (key, opts["n_sites"]))
            if not set(inner1) <= set(inner0):
                errors.append("at experiment.options.inner1: %s not inside inner0 %s "
                              "(absent windows default from n_sites)" % (inner1, inner0))
    if name == "shift-invariance" and not errors:
        # the probe's window rule reads the config alone: refuse before any sweep
        box, box0 = build_geometry(geometry, d)
        crowded = mc.probe_window_error(box, box0, probe_shift(geometry, d),
                                        max_range, model["beta"])
        if crowded:
            errors.append("at geometry: %s" % crowded)


def parse_config(text, experiment_name=None):
    """Parse and strictly validate a YAML config; returns the config dict.

    Keys are checked against the config table in experiments, then against
    the rules that tie keys together.  Every violation goes into a single
    ConfigError so a bad file is reported in one pass.  Defaults are not
    inserted; the runners read them from the same table.
    """
    try:
        cfg = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigError(["config is not valid YAML: %s" % exc])
    if not isinstance(cfg, dict):
        raise ConfigError(["config must be a mapping of sections"])
    errors = []
    _check_keys(cfg, SECTIONS, "top level", errors)
    errors += ["at %s: required section missing" % name
               for name in ("model", "geometry") if name not in cfg]
    ok = {}
    for name, spec in SECTIONS.items():  # model first: the others' list lengths read it
        if name in cfg:
            ok[name] = _check_section(spec, cfg[name], name, errors, ok.get("model"))
    _check_cross_fields(ok, experiment_name, errors)
    if errors:
        raise ConfigError(errors)
    return cfg


# -- output writing -------------------------------------------------------------


def _csv_cell(value):
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def write_results_csv(path, columns, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_csv_cell(row.get(col, "")) for col in columns])


def _jsonable(value):
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        v = float(value)
        if math.isnan(v):
            return "nan"
        if math.isinf(v):
            return "inf" if v > 0 else "-inf"
        return v
    if isinstance(value, np.ndarray):
        return [_jsonable(v) for v in value.tolist()]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def write_summary_json(path, payload):
    with open(path, "w") as fh:
        json.dump(_jsonable(payload), fh, indent=2, sort_keys=True)
        fh.write("\n")


# -- entry point ----------------------------------------------------------------


def build_arg_parser():
    parser = argparse.ArgumentParser(
        prog="loopgas",
        description="Loop-gas sampler and validation experiments.")
    sub = parser.add_subparsers(dest="experiment", required=True,
                                metavar="|".join(EXPERIMENT_NAMES))
    for name in EXPERIMENT_NAMES:
        sp = sub.add_parser(name)
        sp.add_argument("--config", required=True, help="YAML config path")
        sp.add_argument("--seed", type=int, default=None,
                        help="override sampler.seed")
        sp.add_argument("--out", default="loopgas-out",
                        help="output directory (default: loopgas-out)")
    return parser


def main(argv=None):
    args = build_arg_parser().parse_args(argv)
    try:
        with open(args.config) as fh:
            text = fh.read()
    except OSError as exc:
        print("error: cannot read config: %s" % exc, file=sys.stderr)
        return 2
    try:
        cfg = parse_config(text, experiment_name=args.experiment)
    except ConfigError as exc:
        for line in exc.errors:
            print("config error: %s" % line, file=sys.stderr)
        return 2
    if args.seed is not None:
        if args.seed < 0:
            print("error: --seed must be non-negative", file=sys.stderr)
            return 2
        cfg.setdefault("sampler", {})["seed"] = args.seed
    effective_seed = settings(SECTIONS["sampler"], cfg.get("sampler", {}))["seed"]
    try:
        os.makedirs(args.out, exist_ok=True)
        t0 = time.perf_counter()
        result = run_experiment(args.experiment, cfg)
        wall = time.perf_counter() - t0
        write_results_csv(os.path.join(args.out, "results.csv"),
                          result.columns, result.rows)
        payload = {
            "experiment": args.experiment,
            "version": "loopgas-%s" % __version__,
            "seed": effective_seed,
            "wall_time_seconds": wall,
            "verdict": result.verdict,
            "summary": result.summary,
            "config": cfg,
        }
        write_summary_json(os.path.join(args.out, "summary.json"), payload)
        checkpoint = settings(SECTIONS["output"], cfg.get("output", {}))["checkpoint"]
        if checkpoint and result.chain_obj is not None:
            mc.save_checkpoint(result.chain_obj, os.path.join(args.out, "chain.ckpt"))
    except (ValueError, RuntimeError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    print("%s: verdict=%s rows=%d out=%s"
          % (args.experiment, result.verdict, len(result.rows), args.out))
    return 1 if result.verdict == "fail" else 0


if __name__ == "__main__":
    sys.exit(main())
