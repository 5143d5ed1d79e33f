"""Loop configurations and their statistical weight.

A loop is a closed bridge of duration k*beta carrying a particle type; an
open path is the same object with free endpoints.  A configuration is a
finite family of loops anchored in a box, optionally conditioned on a static
external point set.  Its unnormalised log density relative to the reference
loop measure is

    sum_j (K_j * log z_j - log L_j) - h

with K_j the total multiplicity of type j, L_j the product of the type-j
multiplicities, and h the equal-time pair interaction energy.
"""

import io
import math

import numpy as np

from .bridge import BridgePath


class Loop:
    """Closed path of duration k*beta with a particle type."""

    def __init__(self, type_index, path):
        if not np.array_equal(path.samples[0], path.samples[-1]):
            raise ValueError("loop path must return to its starting point")
        self.type_index = int(type_index)
        self.path = path

    @property
    def k(self):
        return self.path.k

    @property
    def anchor(self):
        return self.path.samples[0]

    @property
    def samples(self):
        return self.path.samples


class OpenPath:
    """Open path of duration k*beta with a particle type."""

    def __init__(self, type_index, path):
        self.type_index = int(type_index)
        self.path = path

    @property
    def k(self):
        return self.path.k

    @property
    def start(self):
        return self.path.samples[0]

    @property
    def end(self):
        return self.path.samples[-1]

    @property
    def samples(self):
        return self.path.samples


class LoopConfig:
    """Mutable family of loops in a box, with optional external points."""

    def __init__(self, box, slices_per_beta, loops=None, external=None):
        self.box = box
        self.slices_per_beta = int(slices_per_beta)
        self.loops = list(loops) if loops else []
        self.external = external

    def type_counts(self, n_types):
        counts = [0] * n_types
        for lp in self.loops:
            counts[lp.type_index] += 1
        return counts


def total_multiplicity(objects, type_index):
    """K: sum of multiplicities k over the objects of one type."""
    return sum(o.k for o in objects if o.type_index == type_index)


def log_multiplicity_product(objects, type_index):
    """log L: log of the product of multiplicities k over one type."""
    return sum(math.log(o.k) for o in objects if o.type_index == type_index)


def avoids_box_at_step_times(objects, box):
    """True iff no object visits the box at its interior whole-beta times.

    For an object of multiplicity k the checked times are m*beta for
    m = 1..k-1; the endpoints at m = 0 and m = k are exempt.
    """
    for obj in objects:
        if obj.k < 2:
            continue
        interior = obj.path.whole_step_points()[1:-1]
        if np.any(box.contains(interior)):
            return False
    return True


def confined_to_box(objects, box):
    """True iff every grid sample of every object lies in the box.

    This is the discrete-time stand-in for continuous confinement; excursions
    between grid times are not detected.
    """
    for obj in objects:
        if not np.all(box.contains(obj.samples)):
            return False
    return True


# --- equal-time pair energy -------------------------------------------------
#
# Each object of multiplicity k contributes k legs; leg m covers times
# [m*beta, (m+1)*beta].  Two legs interact through the potential evaluated at
# equal local times, integrated over [0, beta] by the midpoint rule on the
# shared S-grid.  All unordered leg pairs count, including pairs of legs of
# the same object (m != m'), never a leg with itself.


class _Bundle:
    """Per-object view used by the energy kernels: midpoints and segments."""

    __slots__ = ("type_index", "mids", "segs")

    def __init__(self, obj):
        self.type_index = obj.type_index
        self.mids = obj.path.leg_midpoints()
        S = obj.path.slices_per_beta
        k = obj.path.k
        idx = np.arange(k)[:, None] * S + np.arange(S + 1)[None, :]
        self.segs = obj.path.samples[idx]


def _min_segment_gap_sq(segsA, segsB):
    """Smallest squared distance between equal-time linear segments.

    segs arrays have shape (k, S+1, d).  For slice i the two paths move
    linearly between their grid samples, so their difference is linear in the
    local time; minimise the quadratic |d0 + t (d1 - d0)|^2 over t in [0, 1].
    """
    d0 = segsA[:, None, :-1, :] - segsB[None, :, :-1, :]
    d1 = segsA[:, None, 1:, :] - segsB[None, :, 1:, :]
    v = d1 - d0
    vv = np.sum(v * v, axis=-1)
    t = np.zeros_like(vv)
    np.divide(-np.sum(d0 * v, axis=-1), vv, out=t, where=vv > 0)
    np.clip(t, 0.0, 1.0, out=t)
    gap = d0 + t[..., None] * v
    return np.sum(gap * gap, axis=-1)


def _leg_pair_values(pot, midsA, midsB, segsA=None, segsB=None):
    """Potential values on all leg pairs and slices, shape (kA, kB, S)."""
    diff = midsA[:, None, :, :] - midsB[None, :, :, :]
    r = np.sqrt(np.sum(diff * diff, axis=-1))
    vals = pot.evaluate(r)
    if segsA is not None and pot.hard_core > 0:
        close = _min_segment_gap_sq(segsA, segsB) < pot.hard_core ** 2
        if np.any(close):
            vals = np.where(close, np.inf, vals)
    return vals


def _pair_energy(pot, A, B, dt, conservative):
    sA = A.segs if conservative else None
    sB = B.segs if conservative else None
    vals = _leg_pair_values(pot, A.mids, B.mids, sA, sB)
    total = float(np.sum(vals))
    if math.isinf(total) or math.isnan(total):
        return math.inf
    return total * dt


def _self_energy(pot, A, dt, conservative):
    k = A.mids.shape[0]
    if k < 2:
        return 0.0
    sA = A.segs if conservative else None
    vals = _leg_pair_values(pot, A.mids, A.mids, sA, sA)
    iu = np.triu_indices(k, 1)
    picked = vals[iu[0], iu[1], :]
    total = float(np.sum(picked))
    if math.isinf(total) or math.isnan(total):
        return math.inf
    return total * dt


def _external_energy(pot, A, points, dt):
    if points.size == 0:
        return 0.0
    diff = A.mids[:, :, None, :] - points[None, None, :, :]
    r = np.sqrt(np.sum(diff * diff, axis=-1))
    vals = pot.evaluate(r)
    total = float(np.sum(vals))
    if math.isinf(total) or math.isnan(total):
        return math.inf
    return total * dt


def interaction_energy(target, params, conditioning=None, external=None,
                       conservative=False):
    """Equal-time pair energy h(target | conditioning, external).

    Internal energy of the target objects (all unordered leg pairs, including
    legs of a single object at distinct whole-step offsets), plus the cross
    energy with the conditioning objects and the static external points.
    Energy internal to the conditioning is deliberately not counted.  Returns
    +inf when any hard core is violated at a quadrature node (and, with
    conservative=True, anywhere along the straight segments between nodes).
    """
    if not target:
        return 0.0
    S = target[0].path.slices_per_beta
    dt = params.beta / S
    P = params.potentials
    bundles = [_Bundle(o) for o in target]
    if any(b.mids.shape[1] != S for b in bundles):
        raise ValueError("mixed slice counts in one energy evaluation")
    total = 0.0
    for i, A in enumerate(bundles):
        pot = P[A.type_index][A.type_index]
        if not pot.is_zero():
            total += _self_energy(pot, A, dt, conservative)
            if math.isinf(total):
                return math.inf
        for B in bundles[i + 1:]:
            pot = P[A.type_index][B.type_index]
            if pot.is_zero():
                continue
            total += _pair_energy(pot, A, B, dt, conservative)
            if math.isinf(total):
                return math.inf
    if conditioning:
        # stack the conditioning legs per type: the cross energy is a plain
        # sum over leg pairs, so one broadcast per type is equivalent
        stacked = {}
        for o in conditioning:
            b = _Bundle(o)
            if b.mids.shape[1] != S:
                raise ValueError("mixed slice counts in one energy evaluation")
            stacked.setdefault(b.type_index, []).append(b)
        groups = []
        for tj, bs in stacked.items():
            grp = _Bundle.__new__(_Bundle)
            grp.type_index = tj
            grp.mids = np.concatenate([b.mids for b in bs])
            grp.segs = np.concatenate([b.segs for b in bs])
            groups.append(grp)
        for A in bundles:
            for B in groups:
                pot = P[A.type_index][B.type_index]
                if pot.is_zero():
                    continue
                total += _pair_energy(pot, A, B, dt, conservative)
                if math.isinf(total):
                    return math.inf
    if external is not None and not external.is_empty():
        for A in bundles:
            for jp in range(len(external.points)):
                pot = P[A.type_index][jp]
                if pot.is_zero():
                    continue
                total += _external_energy(pot, A, external.points[jp], dt)
                if math.isinf(total):
                    return math.inf
    return total


def log_weight(config, params, exclusion_box=None, conservative=False):
    """Unnormalised log density of a configuration.

    sum_j (K_j log z_j - log L_j) minus the interaction energy given the
    configuration's external points.  Returns -inf when a hard core is
    violated or when exclusion_box is given and some loop visits it at an
    interior whole-beta time.  Confinement to the home box is the caller's
    concern (see confined_to_box).
    """
    if exclusion_box is not None:
        if not avoids_box_at_step_times(config.loops, exclusion_box):
            return -math.inf
    h = interaction_energy(config.loops, params, external=config.external,
                           conservative=conservative)
    if math.isinf(h):
        return -math.inf
    out = -h
    for j in range(params.n_types):
        K = total_multiplicity(config.loops, j)
        out += K * math.log(params.fugacity[j])
        out -= log_multiplicity_product(config.loops, j)
    return out


# --- serialisation -----------------------------------------------------------
#
# Plain-text dump with hexadecimal floats so a round trip is bit exact.

_FORMAT_TAG = "loopgas-config 1"


def _hex_vector(vec):
    return " ".join(float(v).hex() for v in vec)


def _parse_vector(line):
    return np.array([float.fromhex(tok) for tok in line.split()], dtype=float)


def dumps_config(config):
    out = io.StringIO()
    out.write(_FORMAT_TAG + "\n")
    box = config.box
    out.write("box %d %s %s\n" % (box.dimension, _hex_vector(box.center),
                                  float(box.half_side).hex()))
    out.write("slices %d\n" % config.slices_per_beta)
    ext = config.external
    if ext is None:
        out.write("external 0\n")
    else:
        out.write("external %d\n" % len(ext.points))
        for pts in ext.points:
            out.write("points %d\n" % pts.shape[0])
            for row in pts:
                out.write(_hex_vector(row) + "\n")
    out.write("loops %d\n" % len(config.loops))
    for lp in config.loops:
        out.write("loop %d %d %s\n" % (lp.type_index, lp.k,
                                       float(lp.path.beta).hex()))
        for row in lp.samples:
            out.write(_hex_vector(row) + "\n")
    return out.getvalue()


def loads_config(text, max_range=0.0):
    from .model import Box, ExternalConfiguration

    lines = text.splitlines()
    if not lines or lines[0].strip() != _FORMAT_TAG:
        raise ValueError("unrecognised configuration format header")
    pos = 1

    def next_line():
        nonlocal pos
        line = lines[pos]
        pos += 1
        return line

    tok = next_line().split()
    if tok[0] != "box":
        raise ValueError("expected box record")
    d = int(tok[1])
    center = [float.fromhex(t) for t in tok[2:2 + d]]
    half = float.fromhex(tok[2 + d])
    box = Box(tuple(center), half)
    tok = next_line().split()
    S = int(tok[1])
    tok = next_line().split()
    n_ext_types = int(tok[1])
    external = None
    if n_ext_types:
        groups = []
        for _ in range(n_ext_types):
            cnt = int(next_line().split()[1])
            pts = np.array([_parse_vector(next_line()) for _ in range(cnt)],
                           dtype=float).reshape(cnt, d)
            groups.append(pts)
        # validate the annulus only when the caller supplies a real range
        check_range = max_range if max_range > 0 else math.inf
        external = ExternalConfiguration(box, groups, max_range=check_range)
    n_loops = int(next_line().split()[1])
    loops = []
    for _ in range(n_loops):
        tok = next_line().split()
        tj, k, beta = int(tok[1]), int(tok[2]), float.fromhex(tok[3])
        n_rows = k * S + 1
        samples = np.array([_parse_vector(next_line()) for _ in range(n_rows)])
        loops.append(Loop(tj, BridgePath(samples=samples, k=k,
                                         slices_per_beta=S, beta=beta)))
    return LoopConfig(box, S, loops, external)
