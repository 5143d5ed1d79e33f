"""Loop configurations and their pair interaction energy.

A loop is a closed bridge of duration k*beta carrying a particle type; an
open path is the same object with free endpoints.  A configuration is a
finite family of loops anchored in a box, optionally conditioned on a static
external point set.  This module computes the equal-time pair interaction
energy h of such families, tests them against boxes, and serialises
configurations; the weight z^K / L e^(-h) that h enters is stated where it
is used, in the chain's acceptance ratios (mc) and the twin's enumerated
law (surrogate).
"""

import io
import math
from functools import cached_property, lru_cache
from itertools import combinations, product

import numpy as np

from .bridge import BridgePath


@lru_cache(maxsize=64)
def _leg_rows(k, S):
    """Grid rows of each leg's nodes, shape (k, S+1): row m is m*S .. (m+1)*S."""
    return np.arange(S + 1) + S * np.arange(k)[:, None]


class _Legged:
    """Shared by Loop and OpenPath: a typed path, its bounds and its leg geometry.

    The wrapped path is never mutated (moves build new objects), so k,
    samples and bounds are read off it once, at construction, and each
    object computes its leg geometry once, on first use, as numpy arrays
    (legs) or as Python floats (leg_points); the free gas asks for neither.
    """

    def __init__(self, type_index, path):
        self.type_index = int(type_index)
        self.path = path
        self.k = path.k
        self.samples = path.samples
        # the box of all grid samples: per axis [lo, hi], as Python floats,
        # from one sort per axis (its first and last entries are the extremes)
        t = path.samples.T.copy()
        t.sort()
        self.bounds = t[:, ::t.shape[1] - 1].tolist()

    @property
    def step_points(self):
        """Positions at times m*beta, m = 0..k (the leg endpoints)."""
        return self.samples[:: self.path.slices_per_beta]

    @cached_property
    def legs(self):
        """The leg geometry (mids, nodes, lo, hi), built in one step.

        mids, shape (k, S, d): row m holds the midpoints of the S grid
        segments covering [m*beta, (m+1)*beta].  nodes, shape (k, S+1, d):
        the grid samples bounding each leg, gathered in one index.  lo and
        hi, each of shape (k, d): the corners of each leg's bounding box of
        nodes.
        """
        nodes = self.samples[_leg_rows(self.k, self.path.slices_per_beta)]
        mids = 0.5 * (nodes[:, :-1] + nodes[:, 1:])
        return mids, nodes, np.minimum.reduce(nodes, axis=1), np.maximum.reduce(nodes, axis=1)

    @cached_property
    def leg_points(self):
        """Per leg, (box, mids) on Python floats: box is the leg's box of
        nodes as bounds are given, mids its S midpoints, each a list of d
        coordinates.  They are the doubles of legs' lo, hi and mids."""
        S = self.path.slices_per_beta
        mids = (0.5 * (self.samples[:-1] + self.samples[1:])).tolist()
        if self.k == 1:
            return ((self.bounds, mids),)
        nodes = self.samples[_leg_rows(self.k, S)]
        boxes = zip(np.minimum.reduce(nodes, axis=1).tolist(),
                    np.maximum.reduce(nodes, axis=1).tolist())
        return tuple((list(zip(lo, hi)), mids[m * S:(m + 1) * S])
                     for m, (lo, hi) in enumerate(boxes))


class Loop(_Legged):
    """Closed path of duration k*beta with a particle type."""

    def __init__(self, type_index, path):
        if path.samples[0].tolist() != path.samples[-1].tolist():
            raise ValueError("loop path must return to its starting point")
        super().__init__(type_index, path)

    @property
    def anchor(self):
        return self.samples[0]


class OpenPath(_Legged):
    """Open path of duration k*beta with a particle type."""


def splice(objects, removed, added):
    """Apply a move to a list of objects in place.

    One object for one, of its type and multiplicity (a leg redraw), takes
    the other's place; otherwise the removed objects go and the added ones
    are appended in order.
    """
    if len(removed) == len(added) == 1:
        objects[objects.index(removed[0])] = added[0]
        return
    for o in removed:
        objects.remove(o)
    objects.extend(added)


class LoopConfig:
    """Mutable family of loops in a box, with optional external points."""

    def __init__(self, box, slices_per_beta, loops=None, external=None):
        self.box = box
        self.slices_per_beta = int(slices_per_beta)
        self.loops = list(loops) if loops else []
        self.external = external


def avoids_box_at_step_times(objects, box):
    """True iff no object visits the box at its interior whole-beta times.

    For an object of multiplicity k the checked times are m*beta for
    m = 1..k-1; the endpoints at m = 0 and m = k are exempt.
    """
    for obj in objects:
        if obj.k < 2:
            continue
        interior = obj.step_points[1:-1]
        if np.any(box.contains(interior)):
            return False
    return True


def meeting_box(objects, box):
    """The objects whose bounds meet the box on every axis, in order: the
    only ones with a grid sample that can lie in it.

    An object with c - hi > half or lo - c > half on some axis has
    |s - c| > half there at every sample s, since rounding is monotone and
    fl(c - s) = -fl(s - c) (see confined_to_box).
    """
    half, out = box.half_side, []
    for obj in objects:
        for c, (lo, hi) in zip(box.center, obj.bounds):
            if c - hi > half or lo - c > half:
                break
        else:
            out.append(obj)
    return out


def confined_to_box(objects, box):
    """True iff every grid sample of every object lies in the box.

    This is the discrete-time stand-in for continuous confinement; excursions
    between grid times are not detected.  It reads each object's bounds:
    per axis, max(hi - c, c - lo) is the largest |s - c| over the samples s
    bit for bit, since rounding is monotone and fl(c - s) = -fl(s - c).
    """
    half = box.half_side
    for obj in objects:
        for c, (lo, hi) in zip(box.center, obj.bounds):
            if hi - c > half or c - lo > half:
                return False
    return True


# --- equal-time pair energy -------------------------------------------------
#
# Each object of multiplicity k contributes k legs; leg m covers times
# [m*beta, (m+1)*beta].  Two legs interact through the potential evaluated at
# equal local times, integrated over [0, beta] by the midpoint rule on the
# shared S-grid.  All unordered leg pairs count, including pairs of legs of
# the same object (m != m'), never a leg with itself.
#
# One walk (_Walk.walk) visits an energy call's leg pairs and a lane values
# them.  Target after target, it takes the target's own legs, then the later
# targets; then each target against the conditioning, then each against the
# external points (one-leg paths that stay put).  All but the own legs are
# filed per type in a LegTable, a uniform cell index of the objects' bounds
# that keeps each object's rank in the family; it gives the objects
# (LegTable.near) whose bounds come within reach = max(range, hard_core)
# of the target's on every axis, in family order by rank, and a leg of
# theirs is visited only when its box comes within reach of the target
# leg's.  Both filters are exact: midpoints and segments lie in the box of
# their nodes, V = 0 for r >= range, and the box gap bounds every computed
# distance from below (rounding is monotone).  An object's bounds contain
# its legs' boxes, so the first filter keeps every object the second would
# visit, and the pairs, their order and so every sum are those of stacking
# all legs.  The small widening of the reach keeps that true for the
# segment gap, which rounds to either side.  The running total passes
# through every valuation in that order, up to the first inf.
#
# SumsLane values a set of pairs on numpy leg arrays (_Legged.legs) by
# _pair_values, and can split the energy by object pair.  A model of pure
# hard cores (ModelParams.is_hard_core: every potential zero or with range
# == hard_core) without the conservative segment test has energies in
# {0, inf}: only whether some midpoint pair comes closer than its core
# matters.  CoreLane asks that on Python floats (_core_overlap, on each
# object's leg_points) with the doubles numpy computes, r the square root
# of the squared coordinate differences summed in axis order, up to the
# first r < D, and sums, splits and stores nothing.  A mixed model's
# pure-core pairs go to SumsLane, whose 0 and inf give the same totals.

_MIXED_SLICES = "mixed slice counts in one energy evaluation"
_REACH_SLACK = 1e-9  # relative widening of the reach; far above rounding


def cell_side(params):
    """Side of a LegTable's cells under params: twice the thermal length
    sqrt(beta), so that a one-leg loop meets one or two cells per axis, or
    the longest range if that is larger."""
    return max(2.0 * math.sqrt(params.beta), params.max_range)


def _meets(a, b, reach):
    """Whether bounds a and b come within reach on every axis: the gap
    max(lo_b - hi_a, lo_a - hi_b) of each axis is < reach."""
    for (alo, ahi), (blo, bhi) in zip(a, b):
        if blo - ahi >= reach or alo - bhi >= reach:
            return False
    return True


def _cell_keys(bounds, inv, pad):
    """The cells that bounds widened by pad meet: per axis floor(x * inv)
    from the low end to the high end."""
    return product(*[range(math.floor((lo - pad) * inv), math.floor((hi + pad) * inv) + 1)
                     for lo, hi in bounds])


class LegTable:
    """A family of loops and paths, indexed per type by their bounds.

    types maps a type to its uniform cell index of cell side `side`
    (cell_side): a dict from cell, a tuple of floor(x / side) per axis
    computed as floor(x * inv), to {object: rank}, the rank giving family
    order; filed maps each object to its cells.  The cell of a coordinate
    never falls as the coordinate grows, so bounds that come within reach
    of a query's always share a cell with the query's bounds widened by
    reach, and near visits a few cells, whatever the family's size.  A
    chain keeps one beside its loop list and splices both alike (splice),
    so ranks keep the list's order.  The objects of one table share one
    grid.
    """

    def __init__(self, objects, side):
        self.inv = 1.0 / side
        self.slices_per_beta = None
        self.types, self.filed = {}, {}
        self._next = 0  # the rank of the next object appended
        self.splice((), list(objects))

    def _add(self, obj, rank):
        S = obj.path.slices_per_beta
        if S != self.slices_per_beta:
            if self.slices_per_beta is not None:
                raise ValueError(_MIXED_SLICES)
            self.slices_per_beta = S
        cells = self.types.setdefault(obj.type_index, {})
        keys = self.filed[obj] = list(_cell_keys(obj.bounds, self.inv, 0.0))
        for key in keys:
            cells.setdefault(key, {})[obj] = rank

    def _discard(self, obj):
        """Remove obj from its cells and return its rank."""
        cells = self.types[obj.type_index]
        for key in self.filed.pop(obj):
            cell = cells[key]
            rank = cell.pop(obj)
            if not cell:
                del cells[key]
        return rank

    def splice(self, removed, added):
        """Apply a move to the family: one object for one, of its type and
        grid, takes the other's rank; otherwise the removed objects go and
        the added ones rank after all others."""
        if len(removed) == len(added) == 1:
            self._add(added[0], self._discard(removed[0]))
            return
        for o in removed:
            self._discard(o)
        for o in added:
            self._add(o, self._next)
            self._next += 1

    def near(self, j, bounds, reach, left_out, after):
        """The objects of type j, ranked above after and not left out, whose
        bounds meet bounds within reach (_meets), in family order."""
        cells, found = self.types[j], None
        for key in _cell_keys(bounds, self.inv, reach):
            cell = cells.get(key)
            if cell is not None:
                found = cell if found is None else {**found, **cell}
        if found is None:
            return ()
        hits = [(rank, o) for o, rank in found.items()
                if rank > after and o not in left_out and _meets(bounds, o.bounds, reach)]
        hits.sort()
        return [o for _, o in hits]


def _min_segment_gap_sq(segsA, segsB):
    """Smallest squared distance between equal-time linear segments.

    segs arrays have shape (P, S+1, d), row p of one against row p of the
    other.  For slice i the two paths move linearly between their grid
    samples, so their difference is linear in the local time; minimise the
    quadratic |d0 + t (d1 - d0)|^2 over t in [0, 1].
    """
    d0 = segsA[:, :-1, :] - segsB[:, :-1, :]
    d1 = segsA[:, 1:, :] - segsB[:, 1:, :]
    v = d1 - d0
    vv = np.sum(v * v, axis=-1)
    t = np.zeros_like(vv)
    np.divide(-np.sum(d0 * v, axis=-1), vv, out=t, where=vv > 0)
    np.clip(t, 0.0, 1.0, out=t)
    gap = d0 + t[..., None] * v
    return np.sum(gap * gap, axis=-1)


def _pair_values(pot, a, ia, b, ib, conservative):
    """Potential of the leg pairs (row ia[p] of a, row ib[p] of b), inf at a core.

    a and b are stacked leg arrays as from _Legged.legs; pairs come in the
    order given, which fixes the summation order.
    """
    diff = a[0][ia] - b[0][ib]
    vals = pot.evaluate(np.sqrt(np.add.reduce(diff * diff, axis=-1)))
    if conservative and pot.hard_core > 0:
        close = _min_segment_gap_sq(a[1][ia], b[1][ib]) < pot.hard_core ** 2
        if np.any(close):
            vals = np.where(close, np.inf, vals)
    return vals


def _core_overlap(pairs, D):
    """Whether some leg pair (la, lb) of leg_points entries comes closer than
    D at an equal-time midpoint: the r < D of _pair_values, on the same
    doubles, stopping at the first."""
    for (_, ma), (_, mb) in pairs:
        for p, q in zip(ma, mb):
            s = 0.0
            for x, y in zip(p, q):
                t = x - y
                s += t * t
            if math.sqrt(s) < D:
                return True
    return False


def _integrated(vals, dt):
    """Energy of potential values on the grid: their sum times dt, inf if not finite."""
    total = float(np.add.reduce(vals, axis=None))
    if math.isinf(total) or math.isnan(total):
        return math.inf
    return total * dt


def _record(split, A, B, e):
    """Add a nonzero energy e between target A and partner B to split, if kept."""
    if split is not None and e:
        parts = split.setdefault(A, {})
        parts[B] = parts.get(B, 0.0) + e


@lru_cache(maxsize=16)
def _still_table(external, S, beta, side):
    """The external points as one-leg paths that stay put on the S-grid, indexed."""
    return LegTable([OpenPath(j, BridgePath(np.tile(x, (S + 1, 1)), 1, S, beta))
                     for j, points in enumerate(external.points) for x in points], side)


class _Walk:
    """The walk over an energy call's leg pairs (see the comment above); its
    lane subclass values them, by _own (a target's own legs) and _against.

    pairs[i][j] is None for a zero potential between types i and j, else
    (pot, reach).  A lane keeps no per-call state.
    """

    __slots__ = ("pairs", "side", "beta")

    def __init__(self, params):
        self.pairs = [[None if p.is_zero() else
                       (p, max(p.range, p.hard_core) * (1.0 + _REACH_SLACK)) for p in row]
                      for row in params.potentials]
        self.side, self.beta = cell_side(params), params.beta

    def walk(self, target, table, left_out, external, split):
        """Energy h(target | table less left_out, external) of non-empty
        target, with table a LegTable; split, a dict or None, as for
        interaction_energy.  Tables on other grids are refused."""
        S = target[0].path.slices_per_beta
        if table.slices_per_beta not in (None, S):
            raise ValueError(_MIXED_SLICES)
        later = LegTable(target, self.side) if len(target) > 1 else None
        total = 0.0
        for i, A in enumerate(target):
            own = self.pairs[A.type_index][A.type_index]
            if own is not None and A.k > 1:
                total = self._own(total, A, own[0], split)
            if later is not None and not math.isinf(total):  # ranks above i
                total = self._near(total, A, later, (), i, split, False)
            if math.isinf(total):
                return math.inf
        others = [(table, left_out, False)]
        if external is not None and not external.is_empty():
            others.append((_still_table(external, S, self.beta, self.side), (), True))
        for T, out, own in others:
            for A in target:
                total = self._near(total, A, T, out, -1, split, own)
                if math.isinf(total):
                    return math.inf
        return total

    def _near(self, total, A, table, left_out, after, split, own):
        """total plus A's energy against the objects of table near it
        (LegTable.near) ranked above after and not left out, type by type;
        own enters it in split as A's own."""
        bounds, row = A.bounds, self.pairs[A.type_index]
        for j in table.types:
            if row[j] is not None:
                near = table.near(j, bounds, row[j][1], left_out, after)
                if near:
                    total = self._against(total, A, near, *row[j], split, own)
                    if math.isinf(total):
                        break
        return total


class SumsLane(_Walk):
    """Sums of _pair_values on numpy legs, with the conservative segment test
    if asked, split by object pair if a split is given."""

    __slots__ = ("conservative",)

    def __init__(self, params, conservative):
        super().__init__(params)
        self.conservative = conservative

    def _own(self, total, A, pot, split):
        a = A.legs
        ia, ib = np.triu_indices(A.k, 1)
        e = _integrated(_pair_values(pot, a, ia, a, ib, self.conservative),
                        self.beta / A.path.slices_per_beta)
        total += e
        if not math.isinf(total):
            _record(split, A, A, e)
        return total

    def _against(self, total, A, near, pot, reach, split, own):
        """A's legs against those of near, stacked in order, over the pairs
        whose boxes come within reach; split under [A][A] if own, else by
        row owner.  A's legs are built only here."""
        a = A.legs
        b = near[0].legs if len(near) == 1 else \
            tuple(np.concatenate(parts) for parts in zip(*(o.legs for o in near)))
        _, _, olo, ohi = a
        _, _, lo, hi = b
        ia, ib = np.nonzero(np.maximum.reduce(np.maximum(lo - ohi[:, None], olo[:, None] - hi),
                                              axis=-1) < reach)
        if ia.size == 0:
            return total
        vals = _pair_values(pot, a, ia, b, ib, self.conservative)
        dt = self.beta / A.path.slices_per_beta
        e = _integrated(vals, dt)
        total += e
        if math.isinf(total):
            return total
        if own:
            _record(split, A, A, e)
        elif split is not None and e:  # per object, by row owner
            start = np.add.accumulate([0] + [o.k for o in near])
            per = np.bincount(start.searchsorted(ib, side="right") - 1,
                              weights=np.add.reduce(vals, axis=1)) * dt
            for o in np.flatnonzero(per).tolist():
                _record(split, A, near[o], float(per[o]))
        return total


class CoreLane(_Walk):
    """Pure hard cores as an overlap question on Python floats: inf at the
    first midpoint pair closer than its core (_core_overlap), else 0."""

    __slots__ = ()

    def _own(self, total, A, pot, split):
        return math.inf if _core_overlap(combinations(A.leg_points, 2), pot.hard_core) else total

    def _against(self, total, A, near, pot, reach, split, own):
        legs = [lb for o in near for lb in o.leg_points]
        pairs = ((la, lb) for la in A.leg_points for lb in legs if _meets(la[0], lb[0], reach))
        return math.inf if _core_overlap(pairs, pot.hard_core) else total


def energy_lane(params, conservative):
    """CoreLane for pure hard cores without the conservative test, else SumsLane."""
    if params.is_hard_core() and not conservative:
        return CoreLane(params)
    return SumsLane(params, conservative)


def interaction_energy(target, params, conditioning=None, external=None,
                       conservative=False, split=None):
    """Equal-time pair energy h(target | conditioning, external).

    Internal energy of the target objects (all unordered leg pairs, including
    legs of a single object at distinct whole-step offsets), plus the cross
    energy with the conditioning objects and the static external points.
    Energy internal to the conditioning is deliberately not counted.  Returns
    +inf when any hard core is violated at a quadrature node (and, with
    conservative=True, anywhere along the straight segments between nodes).
    conditioning, any iterable of loops and paths on the targets' grid, is
    filed in a LegTable, and the walk of params' lane (energy_lane) finds
    and values the pairs.

    split, a dict if given, receives the same energy by object pair:
    split[A][B] for target A and B a later target or a conditioning object,
    and split[A][A] for A's own legs among themselves and against the
    external points.  Only nonzero entries are made, none by CoreLane, and
    the returned total is summed as without split.  After a violated hard
    core the split is incomplete.
    """
    if not target:
        return 0.0
    return energy_lane(params, conservative).walk(
        target, LegTable(conditioning or (), cell_side(params)), (), external, split)


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

    def next_line(what):
        nonlocal pos
        if pos == len(lines):
            raise ValueError("configuration ends at line %d, before its %s" % (pos, what))
        pos += 1
        return lines[pos - 1]

    def record(name):
        """The fields after the name of the next line, which must be a name record."""
        tok = next_line("%s record" % name).split()
        if tok[:1] != [name]:
            raise ValueError("line %d: expected a %s record" % (pos, name))
        return tok[1:]

    tok = record("box")
    d = int(tok[0])
    center = [float.fromhex(t) for t in tok[1:1 + d]]
    half = float.fromhex(tok[1 + d])
    box = Box(tuple(center), half)
    S = int(record("slices")[0])
    n_ext_types = int(record("external")[0])
    external = None
    if n_ext_types:
        groups = []
        for _ in range(n_ext_types):
            cnt = int(record("points")[0])
            pts = np.array([_parse_vector(next_line("points")) for _ in range(cnt)],
                           dtype=float).reshape(cnt, d)
            groups.append(pts)
        # validate the annulus only when the caller supplies a real range
        check_range = max_range if max_range > 0 else math.inf
        external = ExternalConfiguration(box, groups, max_range=check_range)
    n_loops = int(record("loops")[0])
    loops = []
    for _ in range(n_loops):
        tok = record("loop")
        tj, k, beta = int(tok[0]), int(tok[1]), float.fromhex(tok[2])
        n_rows = k * S + 1
        samples = np.array([_parse_vector(next_line("loop samples")) for _ in range(n_rows)])
        loops.append(Loop(tj, BridgePath(samples=samples, k=k,
                                         slices_per_beta=S, beta=beta)))
    return LoopConfig(box, S, loops, external)
