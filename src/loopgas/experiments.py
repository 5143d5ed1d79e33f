"""Named experiments: build model objects from a config dict and run them.

Each experiment returns an ExperimentResult with fixed CSV columns, a
summary dict, and a verdict ("pass"/"fail" for experiments with built-in
thresholds, "n/a" otherwise).  All randomness flows from the seed in the
sampler section, so a fixed config yields bit-identical rows.
"""

import copy
import math
from collections import namedtuple
from dataclasses import dataclass, field, fields

import numpy as np
from scipy import stats

from . import analytic, bridge, mc, oracle
from .model import (PROFILES, Box, ExternalConfiguration, ModelParams, PairPotential,
                    zero_potential)

# -- the config table ------------------------------------------------------------

REQUIRED = object()  # default of keys a config must give

# One config key: kind (int, number, bool, str; lists numbers, ints; list,
# mapping), static default (None: worked out at run time), bounds, choices.
# ints entries obey minimum, and what names their expected shape; numbers
# entries obey the open interval (min_exclusive, max_exclusive).  A list's
# length is a number or a model key, "n_types" or "dimension".
Key = namedtuple("Key", "kind default minimum min_exclusive maximum max_exclusive "
                 "choices length what", defaults=(None,) * 8)

_SAMPLER = {f.name: f.default for f in fields(mc.SamplerOptions)}
_COUNTS = Key("ints", minimum=0, length="n_types")  # one count per type

# model.potentials entries follow POTENTIAL, experiment.options OPTIONS[name]
SECTIONS = {
    "model": {
        "dimension": Key("int", REQUIRED, minimum=1, maximum=3),
        "n_types": Key("int", REQUIRED, minimum=1),  # before fugacity, whose length it is
        "beta": Key("number", REQUIRED, min_exclusive=0.0),
        "fugacity": Key("numbers", REQUIRED, min_exclusive=0.0, max_exclusive=1.0,
                        length="n_types"),
        "potentials": Key("list", ()),
    },
    "geometry": {
        "box_half_side": Key("number", REQUIRED, min_exclusive=0.0),
        "box0_half_side": Key("number", 0.5, min_exclusive=0.0),
        "box0_center": Key("numbers", length="dimension"),
        "window_half_side": Key("number", min_exclusive=0.0),
        "shift": Key("numbers", length="dimension"),
    },
    "sampler": {
        "slices_per_beta": Key("int", _SAMPLER["slices_per_beta"], minimum=1),
        "k_max": Key("int", _SAMPLER["k_max"], minimum=1),
        "move_weights": Key("numbers", _SAMPLER["move_weights"], length=3),
        "conservative_hard_core": Key("bool", _SAMPLER["conservative_hard_core"]),
        "audit_interval": Key("int", _SAMPLER["audit_interval"], minimum=0),
        "proposals_per_sweep": Key("int", _SAMPLER["proposals_per_sweep"], minimum=0),
        "seed": Key("int", 0, minimum=0),
        "chains": Key("int", 1, minimum=1),
    },
    "experiment": {"name": Key("str"), "options": Key("mapping")},
    "external": {"seed": Key("int", 0, minimum=0), "counts": _COUNTS,
                 "reach": Key("number", minimum=0.0), "points": Key("list")},
    "output": {"checkpoint": Key("bool", False)},
}

POTENTIAL = {
    "types": Key("ints", REQUIRED, length=2, what="type indices"),
    "profile": Key("str", "square_well", choices=PROFILES),
    "hard_core": Key("number", 0.0, minimum=0.0),
    "range": Key("number", 0.0, minimum=0.0),
    "height": Key("number", 0.0, minimum=0.0),
    "table_r": Key("numbers"), "table_v": Key("numbers"),
}

_GROWTH = ("zero", "linear", "ceil_linear", "square", "exp_square")
SIGMA_LEVEL = 4.0  # standard errors within which an estimate meets an exact target


def _chain_run_keys(sweeps):
    return {"sweeps": Key("int", sweeps, minimum=0),
            "burn_in": Key("int", 200, minimum=0), "thin": Key("int", 2, minimum=1)}


OPTIONS = {
    "free-validate": _chain_run_keys(4000),
    "kernel": {
        "counts": _COUNTS, "n_pairs": Key("int", 2, minimum=0),
        "burn_in": Key("int", 100, minimum=0), "n_snapshots": Key("int", 200, minimum=0),
        "thin": Key("int", 2, minimum=1), "inner_per_snapshot": Key("int", 2, minimum=1),
        "apply_exclusion": Key("bool", True),
    },
    "q-kernel": {"counts": _COUNTS, "n_pairs": Key("int", 2, minimum=0),
                 "n_samples": Key("int", 2000, minimum=0)},
    "density": _chain_run_keys(2000),
    "k-tail": {"k0": Key("ints", (4, 9, 16), minimum=1), **_chain_run_keys(4000)},
    "shift-invariance": _chain_run_keys(4000),
    "bridge-laws": {
        "n_draws": Key("int", 20000, minimum=1),
        "deviation_thresholds": Key("numbers", (0.5, 1.0, 1.5)),
        "multiplicity": Key("int", 1, minimum=1), "displacement": Key("number", 0.0),
        "dirichlet_half_side": Key("number", 1.0, min_exclusive=0.0),
        "dirichlet_draws": Key("int", 20000, minimum=1),
        "ks_draws": Key("int", 20000, minimum=1),
    },
    "analytic": {
        "points_per_axis": Key("int", 4, minimum=2), "n_samples": Key("int", 300, minimum=0),
        "counts": _COUNTS,
        "envelope_grid": Key("numbers", (1.0, 2.0, 3.0, 4.0)),
        "growth_family": Key("str", "linear", choices=_GROWTH),
        "growth_grid_max": Key("number", 10.0, minimum=1.0),
    },
    "oracle": {
        "n_sites": Key("int", 4, minimum=1), "spacing": Key("number", 1.0, min_exclusive=0.0),
        "n_max": Key("int", 2, minimum=0),
        "inner0": Key("ints", minimum=0), "inner1": Key("ints", minimum=0),
    },
    "b-condition": {
        "growth_family": Key("str", "ceil_linear", choices=_GROWTH), "c": Key("number"),
        "grid_min": Key("number", 1.0, minimum=1.0), "grid_max": Key("number", 10.0),
        "grid_step": Key("number", 0.5, min_exclusive=0.0),
    },
}

_COERCE = {"int": int, "number": float, "bool": bool,
           "numbers": lambda v: tuple(float(u) for u in v),
           "ints": lambda v: tuple(int(u) for u in v)}


def settings(spec, given):
    """given with spec's static defaults filled in and values cast to their kind.

    Absent keys with a run-time default read None; absent required keys stay out.
    """
    out = {}
    for key, f in spec.items():
        value = given.get(key, f.default)
        if value is not REQUIRED:
            cast = _COERCE.get(f.kind)
            out[key] = cast(value) if cast and value is not None else value
    return out


def _sampler(cfg):
    return settings(SECTIONS["sampler"], cfg.get("sampler", {}))


def _options(cfg, name):
    return settings(OPTIONS[name], cfg.get("experiment", {}).get("options", {}))


def _counts(opts, params):  # per-type endpoint counts, one each by default
    return opts["counts"] if opts["counts"] is not None else (1,) * params.n_types


@dataclass
class ExperimentResult:
    name: str
    columns: list
    rows: list
    summary: dict = field(default_factory=dict)
    verdict: str = "n/a"
    chain_obj: object = None  # live sampler for optional checkpointing


# -- config -> model objects ---------------------------------------------------


def build_params(model_cfg):
    model = settings(SECTIONS["model"], model_cfg)
    q = model["n_types"]
    table = [[zero_potential() for _ in range(q)] for _ in range(q)]
    for entry in model["potentials"]:
        e = settings(POTENTIAL, entry)
        pot = PairPotential(profile=e["profile"], hard_core=e["hard_core"],
                            range_=e["range"], height=e["height"],
                            table_r=e["table_r"], table_v=e["table_v"])
        i, j = e["types"]
        table[i][j] = pot
        table[j][i] = pot
    return ModelParams(dimension=model["dimension"], n_types=q, beta=model["beta"],
                       fugacity=model["fugacity"], potentials=table)


def build_geometry(geo_cfg, dimension):
    geo = settings(SECTIONS["geometry"], geo_cfg)
    box = Box((0.0,) * dimension, geo["box_half_side"])
    box0 = Box(tuple(geo["box0_center"] or [0.0] * dimension), geo["box0_half_side"])
    return box, box0


def _window(geo_cfg, box):
    """Density-counting window: centred in the box, a third of its side by default."""
    half = settings(SECTIONS["geometry"], geo_cfg)["window_half_side"]
    return Box(box.center, half if half is not None else box.half_side / 3.0)


def build_options(sampler_cfg):
    sampler = settings(SECTIONS["sampler"], sampler_cfg)
    return mc.SamplerOptions(**{f.name: sampler[f.name]
                                for f in fields(mc.SamplerOptions)})


def build_external(cfg, box, params):
    ext_cfg = cfg.get("external")
    if not ext_cfg:
        return None
    ext = settings(SECTIONS["external"], ext_cfg)
    rng = np.random.default_rng(ext["seed"])
    reach = params.max_range if ext["reach"] is None else min(ext["reach"], params.max_range)
    per_type = ext["points"]
    if per_type is None:
        # seeded uniform scatter on the annulus within interaction reach
        per_type = [[] for _ in range(params.n_types)]
        for j, cnt in enumerate(ext["counts"] or ()):
            for _ in range(cnt):
                for _ in range(10 ** 5):  # a draw hits the shell with chance ~ d*reach/L
                    u = box.center + (rng.random(box.dimension) * 2.0 - 1.0) \
                        * (box.half_side + reach)
                    if not box.contains(u) and box.euclidean_distance(u) <= reach:
                        per_type[j].append(u)
                        break
                else:
                    raise ValueError("no point within external reach %r in 10^5 draws" % reach)
    return ExternalConfiguration(box, per_type, max_range=params.max_range)


def make_chain(cfg, params=None, box=None, seed=None):
    params = params or build_params(cfg["model"])
    box = box or build_geometry(cfg["geometry"], params.dimension)[0]
    opts = build_options(cfg.get("sampler", {}))
    seed = _sampler(cfg)["seed"] if seed is None else seed
    external = build_external(cfg, box, params)
    return mc.Chain(params, box, external=external, options=opts, seed=seed)


def _burned_in_chain(cfg, name):
    """Model, boxes, chain after its burn-in, and options of a chain experiment."""
    params = build_params(cfg["model"])
    box, box0 = build_geometry(cfg["geometry"], params.dimension)
    chain = make_chain(cfg, params=params, box=box)
    opts = _options(cfg, name)
    chain.run(opts["burn_in"])
    return params, box, box0, chain, opts


# -- reusable Monte Carlo validation pieces -------------------------------------


def dirichlet_trace_mc(half_side, beta, S, n_draws, rng, dimension=1):
    """MC value of the confined free-loop mass integral over the box.

    Samples k=1 loop anchors uniformly, weights by the closed-loop mass times
    the exact probability (image series per slice) that the continuous bridge
    stays in the box; the expectation equals the Dirichlet spectral trace.
    All anchors are drawn first, then all loops in one sample_bridges call.
    Returns (estimate, standard_error).
    """
    L = float(half_side)
    box = Box((0.0,) * dimension, L)
    x = (rng.random((n_draws, dimension)) * 2.0 - 1.0) * L
    paths = bridge.sample_bridges(x, x, 1, S, beta, rng)
    mass = (2.0 * math.pi * beta) ** (-0.5 * dimension)  # bridge_mass(x, x, 1, beta)
    vals = box.volume * mass * bridge.box_stay_probability(paths, box, beta / S)
    return float(np.mean(vals)), float(np.std(vals, ddof=1) / math.sqrt(n_draws))


def _meets(value, target, se):
    """Whether value lies within SIGMA_LEVEL standard errors of its exact target."""
    return abs(value - target) <= SIGMA_LEVEL * max(se, 1e-12)


def skorohod_rows(a_values, k, displacement, beta, S, n_draws, rng):
    """Per threshold: analytic first-leg deviation tail vs empirical MC.

    Each draw lies in [0, 1], so under the exact tail p its standard error
    is at most sqrt(p (1 - p) / n).  A row is judged on the larger of that
    and the sample's own error, which collapses to 0 when no draw deviates;
    the std_error column keeps the sample's own.
    """
    rows = []
    for a in a_values:
        target = bridge.max_deviation_tail(a, k, displacement, beta)
        est, se = bridge.empirical_max_deviation_tail(a, k, displacement, beta,
                                                      S, n_draws, rng)
        null = math.sqrt(target * (1.0 - target) / n_draws)
        rows.append({"check": "first_leg_deviation", "parameter": float(a),
                     "value": est, "target": target, "std_error": se,
                     "pass": _meets(est, target, max(se, null))})
    return rows


def numeric_q_square_integral(box0, params, points_per_axis=4, n_samples=300,
                              k_max=20, rng=None):
    """Trapezoid value of the squared free exclusion kernel over the box.

    Covers per-type path counts up to one: the empty sector contributes
    exactly 1; the one-path sector integrates the squared kernel over both
    endpoints with trapezoid weights on a regular grid.  Exclusion events
    depend only on whole-step points, so single-slice sampling is exact.
    """
    if rng is None:
        rng = np.random.default_rng()
    d = box0.dimension
    ax = np.linspace(-box0.half_side, box0.half_side, points_per_axis)
    w = np.full(points_per_axis, ax[1] - ax[0])
    w[0] *= 0.5
    w[-1] *= 0.5
    grids = np.meshgrid(*([ax] * d), indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=1) + np.asarray(box0.center)
    wts = np.ones(pts.shape[0])
    for axis in range(d):
        wts *= w[np.searchsorted(ax, pts[:, axis] - box0.center[axis])]
    total = 1.0  # empty endpoint family contributes exactly one
    empty = [np.zeros((0, d)) for _ in range(params.n_types)]
    for j in range(params.n_types):
        for a, xa in enumerate(pts):
            for b, yb in enumerate(pts):
                starts = [e.copy() for e in empty]
                ends = [e.copy() for e in empty]
                starts[j] = np.asarray([xa])
                ends[j] = np.asarray([yb])
                q = mc.estimate_reference_kernel(
                    starts, ends, params, box0, k_max=k_max, S=1,
                    n_samples=n_samples, rng=rng)
                total += wts[a] * wts[b] * q.value ** 2
    return total


def random_endpoint_pairs(box0, counts, n_pairs, rng):
    """Seeded uniform endpoint families inside the observation box."""
    d = box0.dimension
    c = np.asarray(box0.center)
    out = []
    for _ in range(n_pairs):
        starts, ends = [], []
        for n in counts:
            starts.append(c + (rng.random((int(n), d)) * 2.0 - 1.0) * box0.half_side)
            ends.append(c + (rng.random((int(n), d)) * 2.0 - 1.0) * box0.half_side)
        out.append((starts, ends))
    return out


# -- experiments ----------------------------------------------------------------


def exp_bridge_laws(cfg):
    opts = _options(cfg, "bridge-laws")
    sampler = _sampler(cfg)
    rng = np.random.default_rng(sampler["seed"])
    beta = float(cfg["model"]["beta"])
    S = sampler["slices_per_beta"]
    rows = skorohod_rows(opts["deviation_thresholds"], opts["multiplicity"],
                         opts["displacement"], beta, S, opts["n_draws"], rng)
    # Dirichlet trace cross-check in one dimension
    L = opts["dirichlet_half_side"]
    est, se = dirichlet_trace_mc(L, beta, S, opts["dirichlet_draws"], rng)
    target = analytic.dirichlet_interval_trace(L, beta)
    rows.append({"check": "dirichlet_trace", "parameter": L, "value": est,
                 "target": target, "std_error": se,
                 "pass": _meets(est, target, se)})
    # marginal law at an interior grid time (Kolmogorov-Smirnov)
    kk = max(2, opts["multiplicity"])
    t_frac, disp, starts = 0.5, 0.7, np.zeros((opts["ks_draws"], 1))
    draws = bridge.sample_bridges(starts, starts + disp, kk, 4, beta, rng)[:, 2 * kk, 0]
    tt = t_frac * kk * beta
    mean = disp * t_frac
    sd = math.sqrt(tt * (kk * beta - tt) / (kk * beta))
    ks = stats.kstest(draws, "norm", args=(mean, sd))
    rows.append({"check": "marginal_ks", "parameter": tt, "value": ks.pvalue,
                 "target": 0.01, "std_error": 0.0, "pass": ks.pvalue > 0.01})
    verdict = "pass" if all(r["pass"] for r in rows) else "fail"
    return ExperimentResult(
        "bridge-laws",
        ["check", "parameter", "value", "target", "std_error", "pass"],
        rows, {"n_draws": opts["n_draws"], "slices_per_beta": S}, verdict)


def exp_free_validate(cfg):
    if not build_params(cfg["model"]).is_free():
        raise ValueError("free-validate requires an interaction-free model")
    params, box, _, chain, opts = _burned_in_chain(cfg, "free-validate")
    est = mc.estimate_density(chain, _window(cfg["geometry"], box), opts["sweeps"],
                              thin=opts["thin"])
    rows = []
    ok = True
    for j, z in enumerate(params.fugacity):
        target = analytic.loop_moment(-1, z, params.beta, params.dimension).value
        good = _meets(est.per_type[j], target, est.std_errors[j])
        ok = ok and good
        rows.append({"check": "anchor_density", "parameter": float(j),
                     "value": est.per_type[j], "target": target,
                     "std_error": est.std_errors[j], "pass": good})
    # per-snapshot counts of k-loops against p_k N, N the snapshot's loop
    # count and p_k proportional to z^k / (k (2 pi beta k)^(d/2)), by batch means
    weights = np.array([
        sum(analytic.loop_intensity(z, params.beta, params.dimension, k)
            for z in params.fugacity) for k in range(1, chain.opts.k_max + 1)])
    hist = est.snapshot_histogram
    n = sum(hist.values())
    expected = {k: p * n for k, p in enumerate(weights / weights.sum(), 1)}
    for k, (sigma, se) in mc.histogram_gaps(hist, expected).items():
        if sigma is not None:
            good = sigma <= 3.0
            ok = ok and good
            rows.append({"check": "multiplicity_count", "parameter": float(k),
                         "value": float(np.mean(hist.get(k, 0.0))),
                         "target": float(np.mean(expected[k])), "std_error": se,
                         "pass": good})
    return ExperimentResult(
        "free-validate",
        ["check", "parameter", "value", "target", "std_error", "pass"],
        rows, {"sweeps": opts["sweeps"], "burn_in": opts["burn_in"],
               "window_volume": est.window_volume},
        "pass" if ok else "fail", chain_obj=chain)


_KERNEL_COLUMNS = ["pair_index", "counts", "value", "std_error",
                   "truncation_bound", "n_samples", "status"]


def _kernel_row(i, counts, est):
    return {"pair_index": i, "counts": "/".join(str(c) for c in counts),
            "value": est.value, "std_error": est.std_error,
            "truncation_bound": est.truncation_bound,
            "n_samples": est.n_samples, "status": est.status}


def exp_kernel(cfg):
    params, _, box0, chain, opts = _burned_in_chain(cfg, "kernel")
    rng = np.random.default_rng(_sampler(cfg)["seed"] + 1)
    counts = _counts(opts, params)
    pairs = random_endpoint_pairs(box0, counts, opts["n_pairs"], rng)
    rows = []
    for i, (starts, ends) in enumerate(pairs):
        est = mc.estimate_rdm_kernel(
            chain, starts, ends, box0,
            n_snapshots=opts["n_snapshots"], thin=opts["thin"],
            inner_per_snapshot=opts["inner_per_snapshot"],
            apply_exclusion=opts["apply_exclusion"])
        rows.append(_kernel_row(i, counts, est))
    return ExperimentResult(
        "kernel", _KERNEL_COLUMNS, rows,
        {"apply_exclusion": opts["apply_exclusion"], "box0_half_side": box0.half_side},
        chain_obj=chain)


def exp_q_kernel(cfg):
    params = build_params(cfg["model"])
    _, box0 = build_geometry(cfg["geometry"], params.dimension)
    opts = _options(cfg, "q-kernel")
    sampler = _sampler(cfg)
    rng = np.random.default_rng(sampler["seed"] + 2)
    counts = _counts(opts, params)
    pairs = random_endpoint_pairs(box0, counts, opts["n_pairs"], rng)
    rows = []
    for i, (starts, ends) in enumerate(pairs):
        est = mc.estimate_reference_kernel(
            starts, ends, params, box0,
            k_max=sampler["k_max"], S=sampler["slices_per_beta"],
            n_samples=opts["n_samples"], rng=rng)
        rows.append(_kernel_row(i, counts, est))
    return ExperimentResult("q-kernel", _KERNEL_COLUMNS, rows,
                            {"box0_half_side": box0.half_side})


def exp_density(cfg):
    params, box, _, chain, opts = _burned_in_chain(cfg, "density")
    est = mc.estimate_density(chain, _window(cfg["geometry"], box), opts["sweeps"],
                              thin=opts["thin"])
    rows = []
    for j in range(params.n_types):
        rows.append({"kind": "anchor_density", "index": j,
                     "value": est.per_type[j], "std_error": est.std_errors[j]})
    for k, count in sorted(est.histogram.items()):
        rows.append({"kind": "multiplicity_count", "index": int(k),
                     "value": float(count), "std_error": 0.0})
    return ExperimentResult(
        "density", ["kind", "index", "value", "std_error"], rows,
        {"n_snapshots": est.n_snapshots, "window_volume": est.window_volume,
         "warning": est.warning},
        chain_obj=chain)


def exp_k_tail(cfg):
    params, _, box0, chain, opts = _burned_in_chain(cfg, "k-tail")
    tails = mc.estimate_multiplicity_tail(chain, box0, opts["k0"], opts["sweeps"],
                                          thin=opts["thin"])
    rows = []
    ok = True
    for t in tails:
        bound = analytic.multiplicity_tail_bound(t.k0, box0, params)
        good = t.probability <= bound + 3.0 * t.std_error
        ok = ok and good
        rows.append({"k0": t.k0, "probability": t.probability,
                     "std_error": t.std_error, "bound": bound, "pass": good})
    return ExperimentResult(
        "k-tail", ["k0", "probability", "std_error", "bound", "pass"], rows,
        {"box0_half_side": box0.half_side}, "pass" if ok else "fail",
        chain_obj=chain)


def probe_shift(geo_cfg, dimension):
    """geometry.shift, a unit step along the first axis by default."""
    return (settings(SECTIONS["geometry"], geo_cfg)["shift"]
            or (1.0,) + (0.0,) * (dimension - 1))


def exp_shift_invariance(cfg):
    params, _, box0, chain, opts = _burned_in_chain(cfg, "shift-invariance")
    shift = probe_shift(cfg["geometry"], params.dimension)
    rep = mc.shift_invariance_probe(chain, box0, shift, opts["sweeps"],
                                    thin=opts["thin"])
    rows = []
    for j in range(params.n_types):
        rows.append({"kind": "anchor_density", "index": j,
                     "base_value": rep.densities_base[j],
                     "shifted_value": rep.densities_shifted[j],
                     "diff_std_error": rep.diff_std_errors[j]})
    for k in sorted(set(rep.histogram_base) | set(rep.histogram_shifted)):
        rows.append({"kind": "multiplicity_count", "index": int(k),
                     "base_value": float(rep.histogram_base.get(k, 0)),
                     "shifted_value": float(rep.histogram_shifted.get(k, 0)),
                     "diff_std_error": rep.histogram_diff_std_errors[k]})
    return ExperimentResult(
        "shift-invariance",
        ["kind", "index", "base_value", "shifted_value", "diff_std_error"],
        rows, {"shift": shift, "max_sigma": rep.max_sigma,
               "max_density_sigma": rep.density_sigma,
               "max_histogram_sigma": rep.histogram_sigma, "note": rep.note},
        "pass" if rep.consistent else "fail", chain_obj=chain)


def exp_analytic(cfg):
    params = build_params(cfg["model"])
    _, box0 = build_geometry(cfg["geometry"], params.dimension)
    opts = _options(cfg, "analytic")
    sampler = _sampler(cfg)
    rng = np.random.default_rng(sampler["seed"] + 3)
    beta = params.beta
    rows = []
    ok = True
    # closed-form agreement of the multiplicity moment series in d = 2
    if params.dimension == 2:
        for z in (0.1, 0.3, 0.5, 0.7, 0.9):
            for order in (-1, 0, 1, 2):
                series = analytic.loop_moment(order, z, beta, 2).value
                closed = analytic.closed_form_moment_2d(order, z, beta)
                dev = abs(series - closed)
                good = dev < 1e-10
                ok = ok and good
                rows.append({"name": "moment_series[%d,z=%.1f]" % (order, z),
                             "value": series, "reference": closed, "deviation": dev})
    # squared-kernel integrability bound against the numeric double integral
    hs = analytic.q_square_integral_bound(box0, params)
    numeric = numeric_q_square_integral(
        box0, params, points_per_axis=opts["points_per_axis"],
        n_samples=opts["n_samples"], k_max=sampler["k_max"], rng=rng)
    good = hs > numeric
    ok = ok and good
    rows.append({"name": "hs_bound_vs_numeric", "value": hs,
                 "reference": numeric, "deviation": numeric - hs})
    # gradient-bound constants at the configured path counts
    tail_fit = bridge.fit_gaussian_tail_envelope(
        params, box0, sampler["k_max"] // 2 or 1, opts["envelope_grid"])
    c = analytic.suggested_growth_constant(params, box0)
    family = analytic.growth_family(opts["growth_family"], params.n_types)
    b_val, b_arg, _, _ = analytic.external_control_bound(
        family, c, params, np.arange(1.0, opts["growth_grid_max"] + 0.5, 0.5))
    g = analytic.gradient_bound_constants(_counts(opts, params), box0, params,
                                          tail_fit, b_val)
    for label, val in (("gradient_same_object", g.same_object),
                       ("gradient_cross_type", g.cross_type),
                       ("gradient_background", g.background),
                       ("gradient_external", g.external)):
        rows.append({"name": label, "value": val, "reference": float("nan"),
                     "deviation": float("nan")})
    rows.append({"name": "envelope_c0", "value": tail_fit[0],
                 "reference": float("nan"), "deviation": float("nan")})
    rows.append({"name": "envelope_c1", "value": tail_fit[1],
                 "reference": float("nan"), "deviation": float("nan")})
    rows.append({"name": "external_control_bound", "value": b_val,
                 "reference": b_arg, "deviation": float("nan")})
    for k0 in (4, 9, 16):
        rows.append({"name": "multiplicity_tail_bound[k0=%d]" % k0,
                     "value": analytic.multiplicity_tail_bound(k0, box0, params),
                     "reference": float("nan"), "deviation": float("nan")})
    rows.append({"name": "dirichlet_trace", "reference": float("nan"),
                 "value": analytic.dirichlet_box_trace(box0.half_side, beta,
                                                       params.dimension),
                 "deviation": float("nan")})
    return ExperimentResult(
        "analytic", ["name", "value", "reference", "deviation"], rows,
        {"growth_constant": c}, "pass" if ok else "fail")


def oracle_windows(opts):
    """The oracle's outer and inner site windows, absent ones defaulted from n_sites.

    The defaults nest: inner1 takes at most as many leading sites as inner0.
    """
    n = opts["n_sites"]
    return (list(range(n - 1) if opts["inner0"] is None else opts["inner0"]),
            list(range(min(n - 1, max(1, n - 2))) if opts["inner1"] is None
                 else opts["inner1"]))


def exp_oracle(cfg):
    params = build_params(cfg["model"])
    opts = _options(cfg, "oracle")
    n_sites, n_max = opts["n_sites"], opts["n_max"]
    lm = oracle.line_lattice(n_sites, opts["spacing"], params, n_max,
                             dimension=params.dimension)
    state = oracle.gibbs_state(lm)
    rows = [{"record": "sector", "key": "/".join(str(n) for n in nbar),
             "value": tr} for nbar, tr in sorted(state.sectors.items())]
    rows.append({"record": "grand", "key": "", "value": state.grand})
    rows.append({"record": "min_eigenvalue", "key": "", "value": state.min_eigenvalue})
    rows.append({"record": "truncation_note", "key": "", "value": state.truncation_note})
    R = state.matrix
    trace_dev = abs(float(np.trace(R)) - 1.0)
    rows.append({"record": "trace_deviation", "key": "", "value": trace_dev})
    min_eig_R = float(np.linalg.eigvalsh((R + R.T) / 2.0)[0])
    rows.append({"record": "min_density_eigenvalue", "key": "", "value": min_eig_R})
    dev = oracle.check_compatibility(state, *oracle_windows(opts))
    rows.append({"record": "compatibility_deviation", "key": "", "value": dev})
    ok = dev < 1e-12 and trace_dev < 1e-12 and min_eig_R > -1e-10
    return ExperimentResult(
        "oracle", ["record", "key", "value"], rows,
        {"n_sites": n_sites, "n_max": n_max}, "pass" if ok else "fail")


def exp_b_condition(cfg):
    params = build_params(cfg["model"])
    _, box0 = build_geometry(cfg["geometry"], params.dimension)
    opts = _options(cfg, "b-condition")
    family = analytic.growth_family(opts["growth_family"], params.n_types)
    c = opts["c"] if opts["c"] is not None else analytic.suggested_growth_constant(params, box0)
    grid = np.arange(opts["grid_min"], opts["grid_max"] + 1e-9, opts["grid_step"])
    sup, arg, values, edge = analytic.external_control_bound(family, c, params, grid)
    rows = [{"L": float(L), "value": float(v)} for L, v in zip(grid, values)]
    return ExperimentResult(
        "b-condition", ["L", "value"], rows,
        {"sup": sup, "arg_L": arg, "c": c,
         "edge_flag": bool(edge),
         "note": "edge_flag true means the sum still grows at the grid edge"})


RUNNERS = {
    "free-validate": exp_free_validate,
    "kernel": exp_kernel,
    "q-kernel": exp_q_kernel,
    "density": exp_density,
    "k-tail": exp_k_tail,
    "shift-invariance": exp_shift_invariance,
    "bridge-laws": exp_bridge_laws,
    "analytic": exp_analytic,
    "oracle": exp_oracle,
    "b-condition": exp_b_condition,
}


def run_experiment(name, cfg):
    """Run one named experiment, replicated over independent chains.

    sampler.chains > 1 runs the whole experiment that many times with
    derived seeds and merges the rows under a leading chain column; the
    merged verdict fails if any replica fails.
    """
    if name not in RUNNERS:
        raise ValueError("unknown experiment %r" % (name,))
    sampler = _sampler(cfg)
    n_chains = max(1, sampler["chains"])
    results = []
    for i in range(n_chains):
        sub = copy.deepcopy(cfg)
        sub.setdefault("sampler", {})["seed"] = sampler["seed"] + 1009 * i
        results.append(RUNNERS[name](sub))
    rows = [{"chain": i, **row}
            for i, res in enumerate(results) for row in res.rows]
    verdicts = {res.verdict for res in results}
    if verdicts == {"n/a"}:
        verdict = "n/a"
    elif verdicts <= {"pass", "n/a"}:
        verdict = "pass"
    else:
        verdict = "fail"
    if n_chains == 1:
        summary = results[0].summary
    else:
        summary = {"chains": n_chains,
                   "per_chain": [res.summary for res in results]}
    return ExperimentResult(name, ["chain"] + results[0].columns, rows,
                            summary, verdict, chain_obj=results[-1].chain_obj)
