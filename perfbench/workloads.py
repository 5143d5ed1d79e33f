"""The benchmark's three workloads: what one round computes and how it is checked.

A workload is set up once per process (config parsed with cli.parse_config,
model and geometry built through the experiments module, the first chain
built) and then runs whole rounds.  A round is a fixed list of estimates
whose inputs come from (seed, round index) alone.  prepare() makes those
inputs outside the timed and traced region; run_round() times the calls
into loopgas phase by phase; checks() tests the outputs afterwards.  Each
named check is one operation.  References come from references.py, never
from stored program output, and are themselves compared with
loopgas.analytic / loopgas.bridge where those compute the same quantity.
"""

import copy
import hashlib
import itertools
import math
import time
from dataclasses import dataclass, field

import numpy as np
from scipy import stats

from loopgas import analytic, bridge, cli, experiments, loops, mc
from loopgas.bridge import BridgePath
from loopgas.model import Box

import references as ref

# i.i.d. standard errors allowed between an estimate and its exact value
SIGMAS = 6.0
# Kolmogorov-Smirnov p-values below this floor fail
KS_FLOOR = 1e-6
# slack of the interacting kernel over its exclusion reference, in combined
# standard errors (the bound holds in expectation; see README)
KERNEL_SIGMAS = 3.0
# relative rounding allowed where two computations of one number must agree
ROUNDING = 1e-12
# free-gas: spread across seeds of one round's multiplicity fractions in the
# window (k = 1, k = 2, k >= 3), measured on 120 rounds (README)
FRACTION_SD = (0.027, 0.023, 0.0085)


# speed_probe()'s duration on the reference machine when no other load
# slows it (2-core sandbox, Python 3.11.7, numpy 2.4.6; README)
REF_PROBE_S = 5.7e-5

_PROBE_RNG_SEED = 12345


def _probe_work(rng):
    """A fixed miniature of loopgas's hot paths, written here so it never changes.

    Two 8-slice bridges by recursive midpoint bisection (one small Gaussian
    draw per grid point, as bridge.sample_bridge does), then their
    equal-time midpoint distances by numpy broadcasting (as the pair energy
    does).
    """
    paths = []
    for _ in range(2):
        pts = np.zeros((9, 2))
        stack = [(0, 8)]
        while stack:
            lo, hi = stack.pop()
            if hi - lo < 2:
                continue
            m = (lo + hi) // 2
            pts[m] = 0.5 * (pts[lo] + pts[hi]) + math.sqrt((m - lo) / 16.0) \
                * rng.standard_normal(2)
            stack.append((lo, m))
            stack.append((m, hi))
        paths.append(0.5 * (pts[:-1] + pts[1:]).reshape(2, 4, 2))
    diff = paths[0][:, None] - paths[1][None]
    return float(np.sum(np.sqrt(np.sum(diff * diff, axis=-1)) < 0.3))


def speed_probe():
    """Best of three timings of _probe_work: the machine's momentary speed.

    Because the probe does loopgas's kind of work (interpreter steps mixed
    with small numpy calls), its time moves with loopgas's as the load on
    the machine changes; a pure-Python loop or bare numpy calls alone
    followed it less well (README).
    """
    rng = np.random.default_rng(_PROBE_RNG_SEED)
    best = math.inf
    for _ in range(3):
        t = time.perf_counter()
        _probe_work(rng)
        best = min(best, time.perf_counter() - t)
    return best


class PhaseClock:
    """Times a round phase by phase and probes the machine's speed between phases.

    raw[name] is a phase's measured duration; ref[name] rescales it to the
    reference speed, by REF_PROBE_S over the mean of the probes taken just
    before and just after the phase.  Probes fall outside the timed phases.
    """

    def __init__(self):
        self.raw, self.ref = {}, {}
        self._probe = speed_probe()
        self._t = time.perf_counter()

    def lap(self, name):
        elapsed = time.perf_counter() - self._t
        probe = speed_probe()
        self.raw[name] = elapsed
        self.ref[name] = elapsed * REF_PROBE_S / (0.5 * (self._probe + probe))
        self._probe = probe
        self._t = time.perf_counter()


def round_seed(seed, r, stream=0):
    """Integer seed of stream `stream` in round r of a run with seed `seed`."""
    return int(np.random.SeedSequence([seed, r, stream]).generate_state(1)[0])


@dataclass
class Round:
    index: int
    clock: PhaseClock = None
    work: dict = field(default_factory=dict)
    stats: dict = field(default_factory=dict)
    out: dict = field(default_factory=dict)
    keep: dict = field(default_factory=dict)  # outputs the run-level checks read

    @property
    def wall_s(self):
        """The round's timed work in reference seconds."""
        return sum(self.clock.ref.values())


def _add_stats(total, chain):
    for family, st in chain.stats.items():
        p, a = total.get(family, (0, 0))
        total[family] = (p + st.proposed, a + st.accepted)


def _proposals(chain):
    return sum(st.proposed for st in chain.stats.values())


def check_configuration(chain, k_max):
    """Every loop closed, on the chain's grid, inside the box, 1 <= k <= k_max."""
    cfg = chain.config
    S = cfg.slices_per_beta
    half = chain.box.half_side
    center = np.asarray(chain.box.center)
    q = chain.params.n_types
    bad = []
    for i, lp in enumerate(cfg.loops):
        s = np.asarray(lp.samples)
        ok = (1 <= lp.k <= k_max and 0 <= lp.type_index < q
              and lp.path.slices_per_beta == S
              and s.shape == (lp.k * S + 1, chain.box.dimension)
              and np.array_equal(s[0], s[-1])
              and float(np.max(np.abs(s - center))) <= half)
        if not ok:
            bad.append(i)
    return not bad, {"loops": len(cfg.loops), "bad_loops": bad[:5]}


def check_zero_energy(chain):
    """Cached energy is 0, the chain's audit agrees, and so does the brute force."""
    drift = chain.audit(tol=0.0)
    brute = ref.brute_force_energy(chain.config.loops, chain.params)
    ok = chain.energy == 0.0 and drift == 0.0 and brute == 0.0
    return ok, {"energy": chain.energy, "audit_drift": drift, "brute_force": brute}


def _cross_check(value, program_value, tol):
    return abs(value - program_value) <= tol


def _within(est, target, se, sigmas=SIGMAS):
    return abs(est - target) <= sigmas * se


def free_permanent(starts, ends, kernel):
    """Product over types j of the permanent of the matrix kernel(x, y, j)."""
    total = 1.0
    for j, (xs, ys) in enumerate(zip(starts, ends)):
        n = len(xs)
        K = [[kernel(xs[a], ys[b], j) for b in range(n)] for a in range(n)]
        total *= sum(math.prod(K[a][sig[a]] for a in range(n))
                     for sig in itertools.permutations(range(n)))
    return total


def free_kernels(params, k_max=None):
    """The free one-particle kernel of each type: (benchmark series, loopgas.analytic)."""
    z, beta = params.fugacity, params.beta
    return (lambda x, y, j: ref.free_kernel(x, y, z[j], beta, k_max),
            lambda x, y, j: analytic.free_gas_kernel(x, y, z[j], beta, k_max=k_max).value)


def _uniform_points(rng, box, n):
    c = np.asarray(box.center)
    return c + (rng.random((n, box.dimension)) * 2.0 - 1.0) * box.half_side


def start_loops(rng, params, box, S, k_max, per_type):
    """A loop configuration for a chain to start from, near the gas's equilibrium.

    per_type loops of each type: anchors uniform in the box, multiplicities
    from the planar free law z^k/k^2, closed bridges from the benchmark's own
    sampler (a Gaussian walk minus its drift, exact at the grid times).  A
    loop that leaves the box, or comes within a hard core of an accepted
    loop at equal local times (midpoint nodes), is drawn again, so the
    configuration has energy 0 under a pure hard-core model.
    """
    d, beta = box.dimension, params.beta
    center, half = np.asarray(box.center), box.half_side
    cores = [[p.hard_core for p in row] for row in params.potentials]
    mids_by_type = [np.zeros((0, S, d)) for _ in range(params.n_types)]
    out = []
    for j in [t for _ in range(per_type) for t in range(params.n_types)]:
        law = ref.multiplicity_law_2d(params.fugacity[j], k_max)
        while True:
            k = 1 + int(rng.choice(k_max, p=law))
            x = center + (rng.random(d) * 2.0 - 1.0) * half
            walk = np.vstack([np.zeros(d), np.cumsum(
                rng.normal(0.0, math.sqrt(beta / S), size=(k * S, d)), axis=0)])
            path = x + walk - np.linspace(0.0, 1.0, k * S + 1)[:, None] * walk[-1]
            path[0] = path[-1] = x
            if np.max(np.abs(path - center)) > half:
                continue
            mids = (0.5 * (path[:-1] + path[1:])).reshape(k, S, d)
            if any(cores[j][i] > 0 and others.size and np.min(np.linalg.norm(
                    mids[:, None] - others[None], axis=-1)) < cores[j][i]
                   for i, others in enumerate(mids_by_type)):
                continue
            mids_by_type[j] = np.concatenate([mids_by_type[j], mids])
            out.append(loops.Loop(j, BridgePath(samples=path, k=k, slices_per_beta=S,
                                                beta=beta)))
            break
    return out


class Workload:
    name = ""
    config_text = ""
    check_names = ()  # per round
    final_check_names = ()  # once per run, over all its rounds

    def __init__(self, seed):
        self.seed = int(seed)

    def setup(self):
        self.cfg = cli.parse_config(self.config_text)
        self.params = experiments.build_params(self.cfg["model"])
        self.box, self.box0 = experiments.build_geometry(self.cfg["geometry"],
                                                         self.params.dimension)
        self.first_chain = self.new_chain(0)

    def new_chain(self, r, box=None):
        return experiments.make_chain(self.cfg, params=self.params,
                                      box=box or self.box,
                                      seed=round_seed(self.seed, r))

    def started_chain(self, r, rng):
        """Round r's chain, holding a generated start of start_per_type loops per type.

        Round 0 takes the chain built during set-up.  The audit confirms
        the start's energy matches the chain's cache (0) before timing.
        """
        chain, self.first_chain = self.first_chain, None
        if r != 0 or chain is None:
            chain = self.new_chain(r)
        chain.config.loops = start_loops(rng, self.params, self.box,
                                         chain.opts.slices_per_beta,
                                         chain.opts.k_max, self.start_per_type)
        chain.audit()
        return chain

    def final_checks(self, rounds):
        return {}

    def fingerprint(self, rnd):
        """Hash of dumps_config of the round's final chain state, and its accept counts."""
        chain = rnd.out.get("chain")
        if chain is None:
            return ""
        digest = hashlib.sha256(loops.dumps_config(chain.config).encode()).hexdigest()
        counts = " ".join("%s=%d/%d" % (k, st.accepted, st.proposed)
                          for k, st in sorted(chain.stats.items()))
        return "%s %s" % (digest[:16], counts)


class WrGas(Workload):
    """Two-type quantum Widom-Rowlinson gas: cross-type hard core D = 0.3."""

    name = "wr-gas"
    config_text = """
model:
  dimension: 2
  n_types: 2
  beta: 1.0
  fugacity: [0.5, 0.5]
  potentials:
    - {types: [0, 1], profile: square_well, hard_core: 0.3, range: 0.3}
geometry:
  box_half_side: 8.0
  box0_half_side: 0.5
  window_half_side: 1.0
  shift: [1.5, 0.0]
sampler:
  slices_per_beta: 4
  k_max: 20
"""
    start_per_type = 21  # about the equilibrium count of each type
    burn_in = 5
    probe_sweeps = 16  # one snapshot per batch-means batch
    family_counts = ((1, 1), (2, 1))
    kernel_snapshots = 8  # with 8 batch-means batches
    inner_per_snapshot = 2
    reference_samples = 1000
    check_names = ("configuration", "no_cross_overlap", "zero_energy",
                   "probe_counts", "kernel_0", "kernel_1")

    def prepare(self, r):
        rng = np.random.default_rng(round_seed(self.seed, r, 1))
        families = [([_uniform_points(rng, self.box0, n) for n in counts],
                     [_uniform_points(rng, self.box0, n) for n in counts])
                    for counts in self.family_counts]
        return {"chain": self.started_chain(r, rng), "families": families, "rng": rng}

    def run_round(self, r, inputs):
        chain, families, rng = inputs["chain"], inputs["families"], inputs["rng"]
        geo = self.cfg["geometry"]
        window = Box(self.box.center, geo["window_half_side"])
        rnd = Round(r, PhaseClock())
        chain.run(self.burn_in)
        rnd.clock.lap("burn_in")
        n1 = _proposals(chain)
        probe = mc.shift_invariance_probe(chain, window, geo["shift"],
                                          self.probe_sweeps, thin=1)
        rnd.clock.lap("chain")
        n2 = _proposals(chain)
        kernels = []
        for starts, ends in families:
            f = mc.estimate_rdm_kernel(chain, starts, ends, self.box0,
                                       n_snapshots=self.kernel_snapshots, thin=1,
                                       inner_per_snapshot=self.inner_per_snapshot,
                                       n_batches=self.kernel_snapshots)
            q = mc.estimate_reference_kernel(
                starts, ends, self.params, self.box0, k_max=chain.opts.k_max,
                S=chain.opts.slices_per_beta, n_samples=self.reference_samples,
                rng=rng)
            kernels.append((starts, ends, f, q))
        rnd.clock.lap("kernel")
        rnd.work = {"chain": n2 - n1,
                    "kernel": len(families) * self.kernel_snapshots}
        _add_stats(rnd.stats, chain)
        rnd.out = {"chain": chain, "probe": probe, "kernels": kernels,
                   "window": window}
        return rnd

    def checks(self, rnd):
        chain = rnd.out["chain"]
        D = self.params.potentials[0][1].hard_core
        out = {
            "configuration": lambda: check_configuration(chain, chain.opts.k_max),
            "no_cross_overlap": lambda: self._overlap(chain, D),
            "zero_energy": lambda: check_zero_energy(chain),
            "probe_counts": lambda: self._probe(rnd),
        }
        for i, kern in enumerate(rnd.out["kernels"]):
            out["kernel_%d" % i] = (lambda kern=kern: self._kernel(kern, chain))
        return out

    @staticmethod
    def _overlap(chain, D):
        gap = ref.closest_cross_type_gap(chain.config.loops)
        return gap >= D, {"closest_gap": gap, "hard_core": D}

    def _probe(self, rnd):
        """Window densities and multiplicity histograms count the same anchors."""
        probe = rnd.out["probe"]
        window = rnd.out["window"]
        n_snap = self.probe_sweeps
        scale = n_snap * window.volume
        ok = True
        for dens, hist in ((probe.densities_base, probe.histogram_base),
                           (probe.densities_shifted, probe.histogram_shifted)):
            anchors = sum(hist.values())
            ok = ok and min(dens) >= 0.0 and abs(sum(dens) * scale - anchors) \
                <= ROUNDING * max(1.0, anchors)
        # the density gap is printed, never gated: a short chain cannot
        # make it reliable (README)
        return ok, {"densities_base": probe.densities_base,
                    "densities_shifted": probe.densities_shifted,
                    "max_sigma": probe.max_sigma}

    def _kernel(self, kern, chain):
        starts, ends, f, q = kern
        ours, theirs = free_kernels(self.params, chain.opts.k_max)
        bound = free_permanent(starts, ends, ours)
        program = free_permanent(starts, ends, theirs)
        # the kernel's batch-means error reads 0 when every draw passes:
        # floor it at the largest error of independent draws with values in
        # [0, bound] and mean at the reference, the boundary of the property
        draws = f.n_samples * self.inner_per_snapshot
        floor = math.sqrt(max(q.value * (bound - q.value), 0.0) / draws)
        sigma = math.hypot(max(f.std_error, floor), q.std_error)
        slack = KERNEL_SIGMAS * sigma
        top = bound * (1.0 + ROUNDING)
        ok = (_cross_check(bound, program, ROUNDING * bound)
              and 0.0 <= f.value <= top and 0.0 <= q.value <= top
              and f.value <= q.value + slack)
        return ok, {"kernel": f.value, "kernel_se": f.std_error,
                    "reference": q.value, "reference_se": q.std_error,
                    "free_bound": bound,
                    "margin_sigmas": (q.value - f.value) / sigma if sigma > 0 else math.inf}


class FreeGas(Workload):
    """Planar one-type free gas: density phase, then the closed-form free kernel."""

    name = "free-gas"
    config_text = """
model:
  dimension: 2
  n_types: 1
  beta: 1.0
  fugacity: [0.5]
geometry:
  box_half_side: 8.0
  box0_half_side: 1.0
  window_half_side: 5.0
sampler:
  slices_per_beta: 4
  k_max: 20
"""
    start_per_type = 24  # about the equilibrium count
    burn_in = 20
    density_sweeps = 250
    thin = 2
    family_counts = (1, 2)
    kernel_snapshots = 16
    check_names = ("configuration", "zero_energy", "free_kernel_0", "free_kernel_1")
    final_check_names = ("multiplicity_fractions",)
    # standard deviation across seeds of one round's observed fraction of
    # k = 1, k = 2 and k >= 3 loops in the window (README)
    fraction_sd = FRACTION_SD

    def setup(self):
        super().setup()
        k_max = self.first_chain.opts.k_max
        # criterion 1's box: six thermal lengths of the longest loop, plus margin
        half = 6.0 * math.sqrt(self.params.beta * k_max) + 0.2
        self.kernel_box = Box(self.box.center, half)
        self.window = Box(self.box.center, self.cfg["geometry"]["window_half_side"])

    def prepare(self, r):
        rng = np.random.default_rng(round_seed(self.seed, r, 1))
        families = [([_uniform_points(rng, self.box0, n)], [_uniform_points(rng, self.box0, n)])
                    for n in self.family_counts]
        return {"chain": self.started_chain(r, rng), "families": families,
                "kernel_chain": self.new_chain(r, box=self.kernel_box)}

    def run_round(self, r, inputs):
        chain, families, kchain = inputs["chain"], inputs["families"], inputs["kernel_chain"]
        rnd = Round(r, PhaseClock())
        chain.run(self.burn_in)
        rnd.clock.lap("burn_in")
        n1 = _proposals(chain)
        density = mc.estimate_density(chain, self.window, self.density_sweeps,
                                      thin=self.thin)
        rnd.clock.lap("chain")
        n2 = _proposals(chain)
        kchain.run(4)
        kernels = []
        for starts, ends in families:
            f = mc.estimate_rdm_kernel(kchain, starts, ends, self.box0,
                                       n_snapshots=self.kernel_snapshots, thin=1,
                                       inner_per_snapshot=1, apply_exclusion=False)
            kernels.append((starts, ends, f))
        rnd.clock.lap("kernel")
        rnd.work = {"chain": n2 - n1,
                    "kernel": len(families) * self.kernel_snapshots}
        _add_stats(rnd.stats, chain)
        _add_stats(rnd.stats, kchain)
        rnd.out = {"chain": chain, "density": density, "kernels": kernels}
        rnd.keep = {"histogram": dict(density.histogram)}
        return rnd

    def checks(self, rnd):
        chain = rnd.out["chain"]
        out = {
            "configuration": lambda: check_configuration(chain, chain.opts.k_max),
            "zero_energy": lambda: check_zero_energy(chain),
        }
        for i, kern in enumerate(rnd.out["kernels"]):
            out["free_kernel_%d" % i] = (lambda kern=kern: self._kernel(kern))
        return out

    def final_checks(self, rounds):
        return {"multiplicity_fractions": lambda: self._fractions(rounds)}

    def _fractions(self, rounds):
        """Mean over the run's rounds of the window's multiplicity fractions.

        Rounds are independent chains, so the mean of R rounds has the
        spread of one round over sqrt(R); each of the k = 1, k = 2 and
        k >= 3 fractions must lie within SIGMAS of those of z^k/k^2.
        """
        k_max = self.cfg["sampler"]["k_max"]
        law = ref.multiplicity_law_2d(self.params.fugacity[0], k_max)
        exact = np.array([law[0], law[1], law[2:].sum()])
        per_round = []
        for rnd in rounds:
            hist = rnd.keep["histogram"]
            counts = np.array([hist.get(k, 0) for k in range(1, k_max + 1)], dtype=float)
            if counts.sum() == 0 or counts.sum() != sum(hist.values()):
                return False, {"error": "empty window or multiplicity above k_max"}
            f = counts / counts.sum()
            per_round.append([f[0], f[1], f[2:].sum()])
        observed = np.mean(per_round, axis=0)
        sigmas = (observed - exact) / (np.asarray(self.fraction_sd) / math.sqrt(len(rounds)))
        return bool(np.all(np.abs(sigmas) <= SIGMAS)), {
            "rounds": len(rounds), "observed": observed.tolist(),
            "exact": exact.tolist(), "sigmas": sigmas.tolist()}

    def density_report(self, rnd):
        """Anchor density against Li2(z)/(2 pi beta): printed, not gated (README)."""
        z, beta = self.params.fugacity[0], self.params.beta
        exact = ref.free_density_2d(z, beta)
        est = rnd.out["density"]
        return {"density": est.per_type[0], "std_error": est.std_errors[0],
                "exact": exact, "deviation": est.per_type[0] / exact - 1.0}

    def _kernel(self, kern):
        starts, ends, f = kern
        truncated = free_permanent(starts, ends, free_kernels(self.params, f.meta["k_max"])[0])
        ours, theirs = free_kernels(self.params)
        full = free_permanent(starts, ends, ours)
        program = free_permanent(starts, ends, theirs)
        rounding = ROUNDING * full
        ok = (_cross_check(full, program, rounding + 1e-12)
              and abs(f.value - truncated) <= rounding
              and abs(f.value - full) <= f.truncation_bound + rounding)
        return ok, {"kernel": f.value, "closed_form": full,
                    "truncated_closed_form": truncated,
                    "truncation_bound": f.truncation_bound}


class BridgeLaws(Workload):
    """Bulk i.i.d. bridge draws: deviation tails, Dirichlet trace, grid marginal."""

    name = "bridge-laws"
    config_text = """
model:
  dimension: 1
  n_types: 1
  beta: 1.0
  fugacity: [0.5]
geometry:
  box_half_side: 1.0
sampler:
  slices_per_beta: 16
experiment:
  name: bridge-laws
  options:
    n_draws: 1500
    deviation_thresholds: [0.5, 1.0, 1.5]
    multiplicity: 1
    displacement: 0.0
    dirichlet_half_side: 1.0
    dirichlet_draws: 1500
    ks_draws: 1500
"""
    # the k > 1 deviation case: threshold, multiplicity, displacement
    long_tail = (1.0, 3, 0.5)
    long_tail_draws = 1500
    # grid marginal: bridge 0 -> 0.7 over k = 2, S = 4, read at grid index 3
    marginal = (0.7, 2, 4, 3)
    marginal_draws = 1500
    check_names = ("tail_a0.5", "tail_a1.0", "tail_a1.5", "tail_k3",
                   "dirichlet_trace", "experiment_ks", "marginal_mean",
                   "marginal_variance", "marginal_ks")

    def new_chain(self, r, box=None):
        return None  # no chain runs here

    def prepare(self, r):
        cfg = copy.deepcopy(self.cfg)
        cfg["sampler"]["seed"] = round_seed(self.seed, r)
        return {"cfg": cfg, "rng": np.random.default_rng(round_seed(self.seed, r, 1))}

    def run_round(self, r, inputs):
        cfg, rng = inputs["cfg"], inputs["rng"]
        beta = self.params.beta
        S = cfg["sampler"]["slices_per_beta"]
        opts = cfg["experiment"]["options"]
        rnd = Round(r, PhaseClock())
        result = experiments.run_experiment("bridge-laws", cfg)
        rnd.clock.lap("experiment")
        a, k, y = self.long_tail
        tail = bridge.empirical_max_deviation_tail(a, k, y, beta, S,
                                                   self.long_tail_draws, rng)
        rnd.clock.lap("long_tail")
        y_m, k_m, S_m, idx = self.marginal
        draws = np.empty(self.marginal_draws)
        for i in range(self.marginal_draws):
            draws[i] = bridge.sample_bridge([0.0], [y_m], k_m, S_m, beta, rng).samples[idx, 0]
        rnd.clock.lap("marginal")
        paths = (len(opts["deviation_thresholds"]) * opts["n_draws"]
                 + opts["dirichlet_draws"] + opts["ks_draws"]
                 + self.long_tail_draws + self.marginal_draws)
        rnd.work = {"draws": paths}
        rnd.out = {"rows": result.rows, "tail": tail, "draws": draws}
        return rnd

    def checks(self, rnd):
        rows = rnd.out["rows"]
        beta = self.params.beta
        n_draws = self.cfg["experiment"]["options"]["n_draws"]
        out = {}
        for row in rows:
            if row["check"] == "first_leg_deviation":
                a = row["parameter"]
                out["tail_a%.1f" % a] = (lambda row=row, a=a: self._tail(
                    row["value"], row["std_error"], n_draws, a, 1, 0.0))
            elif row["check"] == "dirichlet_trace":
                out["dirichlet_trace"] = lambda row=row: self._dirichlet(row)
            elif row["check"] == "marginal_ks":
                out["experiment_ks"] = lambda row=row: (row["value"] > KS_FLOOR,
                                                        {"p_value": row["value"]})
        a, k, y = self.long_tail
        est, se = rnd.out["tail"]
        out["tail_k3"] = lambda: self._tail(est, se, self.long_tail_draws, a, k, y)
        y_m, k_m, S_m, idx = self.marginal
        mean, var = ref.bridge_marginal(idx * beta / S_m, k_m, beta, 0.0, y_m)
        draws = rnd.out["draws"]
        n = draws.size
        out["marginal_mean"] = lambda: (
            _within(float(draws.mean()), mean, math.sqrt(var / n)),
            {"mean": float(draws.mean()), "exact": mean})
        out["marginal_variance"] = lambda: (
            _within(float(draws.var(ddof=1)), var, var * math.sqrt(2.0 / (n - 1))),
            {"variance": float(draws.var(ddof=1)), "exact": var})

        def ks():
            p = float(stats.kstest(draws, "norm", args=(mean, math.sqrt(var))).pvalue)
            return p > KS_FLOOR, {"p_value": p}
        out["marginal_ks"] = ks
        return out

    def _tail(self, est, se, n, a, k, y):
        """Deviation tail within SIGMAS standard errors of the exact value.

        Each draw lies in [0, 1], so its variance is at most p(1 - p) at
        the exact tail p; that bound is the error used.  The sample's own
        error is too small whenever few draws deviate, which at small p
        made its t-statistic reach -3.6 in 62 rounds.
        """
        beta = self.params.beta
        exact = ref.first_leg_tail(a, k, y, beta)
        program = bridge.max_deviation_tail(a, k, y, beta)
        bound = math.sqrt(exact * (1.0 - exact) / n)
        ok = _cross_check(exact, program, 1e-9) and _within(est, exact, bound)
        return ok, {"estimate": est, "std_error": se, "exact": exact,
                    "sigmas": (est - exact) / bound}

    def _dirichlet(self, row):
        L = row["parameter"]
        exact = ref.dirichlet_interval_trace(L, self.params.beta)
        program = analytic.dirichlet_interval_trace(L, self.params.beta)
        ok = (_cross_check(exact, program, 1e-12)
              and _within(row["value"], exact, row["std_error"]))
        return ok, {"estimate": row["value"], "std_error": row["std_error"],
                    "exact": exact,
                    "sigmas": (row["value"] - exact) / row["std_error"]}


WORKLOADS = {w.name: w for w in (WrGas, FreeGas, BridgeLaws)}
