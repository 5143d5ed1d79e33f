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

import numpy as np

from .bridge import BridgePath


@lru_cache(maxsize=64)
def _leg_rows(k, S):
    """Grid rows of each leg's nodes, shape (k, S+1): row m is m*S .. (m+1)*S."""
    return np.arange(S + 1) + S * np.arange(k)[:, None]


class _Legged:
    """Shared by Loop and OpenPath: a typed path and its leg geometry.

    The wrapped path is never mutated (moves build new objects), so k and
    samples are read off it once, and each object computes its leg geometry
    once, on first use; the free gas never asks for it.
    """

    def __init__(self, type_index, path):
        self.type_index = int(type_index)
        self.path = path
        self.k = path.k
        self.samples = path.samples

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

    def type_counts(self, n_types):
        counts = [0] * n_types
        for lp in self.loops:
            counts[lp.type_index] += 1
        return counts


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


def confined_to_box(objects, box):
    """True iff every grid sample of every object lies in the box.

    This is the discrete-time stand-in for continuous confinement; excursions
    between grid times are not detected.
    """
    center, half = box.center_array, box.half_side
    if len(objects) == 1:
        return bool(np.maximum.reduce(np.abs(objects[0].samples - center), axis=None) <= half)
    return all(np.maximum.reduce(np.abs(obj.samples - center), axis=None) <= half
               for obj in objects)


# --- equal-time pair energy -------------------------------------------------
#
# Each object of multiplicity k contributes k legs; leg m covers times
# [m*beta, (m+1)*beta].  Two legs interact through the potential evaluated at
# equal local times, integrated over [0, beta] by the midpoint rule on the
# shared S-grid.  All unordered leg pairs count, including pairs of legs of
# the same object (m != m'), never a leg with itself.
#
# Every sum runs over explicit leg pairs, each row of one leg array against
# the same row of the other.  Pairs of distinct objects are found one way
# (_near_energy): the later targets, the conditioning and the external points
# (one-leg paths that stay put) are stacked per type in a LegTable, and a leg
# there is visited only when its bounding box comes within max(range,
# hard_core) of the target leg's box on every axis.  That filter is exact:
# midpoints and segments lie in the box of their nodes, V = 0 for r >= range,
# and the box gap bounds every computed distance from below (rounding is
# monotone).  The small widening of the reach keeps that true for the segment
# gap, which rounds to either side.

_MIXED_SLICES = "mixed slice counts in one energy evaluation"
_REACH_SLACK = 1e-9  # relative widening of the reach; far above rounding


class _TypeLegs:
    """The legs of the objects of one type, stacked in family order.

    legs holds the stacked arrays of _Legged.legs; start[i] is the first row
    of objects[i] and start[-1] the row count.
    """

    __slots__ = ("objects", "start", "legs")

    def __init__(self, objects):
        self.objects = list(objects)
        self.start = np.cumsum([0] + [o.k for o in self.objects])
        self.legs = tuple(np.concatenate(parts)
                          for parts in zip(*(o.legs for o in self.objects)))

    def rows(self, obj):
        i = self.objects.index(obj)
        return self.start[i], self.start[i + 1]

    def replace(self, old, new):
        i = self.objects.index(old)
        for arr, part in zip(self.legs, new.legs):
            arr[self.start[i]:self.start[i + 1]] = part
        self.objects[i] = new

    def remove(self, obj):
        i = self.objects.index(obj)
        a, b = self.start[i], self.start[i + 1]
        self.legs = tuple(np.concatenate([arr[:a], arr[b:]]) for arr in self.legs)
        del self.objects[i]
        self.start = np.concatenate([self.start[:i], self.start[i + 1:] - (b - a)])

    def append(self, obj):
        self.legs = tuple(np.concatenate([arr, part])
                          for arr, part in zip(self.legs, obj.legs))
        self.objects.append(obj)
        self.start = np.append(self.start, self.start[-1] + obj.k)


class LegTable:
    """The legs of a family of loops and paths, stacked per type.

    Iterating gives the family's objects in order.  A chain keeps one for
    its configuration and splices it as moves are accepted; excluding()
    gives a view without some objects' legs, sharing the arrays, for the
    energy of a move against the rest of the configuration.
    """

    def __init__(self, objects):
        self.objects = list(objects)
        self.left_out = ()
        if len({o.path.slices_per_beta for o in self.objects}) > 1:
            raise ValueError(_MIXED_SLICES)
        by_type = {}
        for o in self.objects:
            by_type.setdefault(o.type_index, []).append(o)
        self.types = {j: _TypeLegs(objs) for j, objs in by_type.items()}

    def __len__(self):
        return len(self.objects) - len(self.left_out)

    def __iter__(self):
        out = {id(o) for o in self.left_out}
        return (o for o in self.objects if id(o) not in out)

    def excluding(self, objects):
        if not objects:
            return self
        view = object.__new__(LegTable)
        view.__dict__.update(self.__dict__, left_out=tuple(objects))
        return view

    def splice(self, removed, added):
        """Apply a move to the family, in the order splice() gives the list."""
        splice(self.objects, removed, added)
        if len(removed) == len(added) == 1:
            self.types[removed[0].type_index].replace(removed[0], added[0])
            return
        for o in removed:
            self.types[o.type_index].remove(o)
        for o in added:
            if o.type_index in self.types:
                self.types[o.type_index].append(o)
            else:
                self.types[o.type_index] = _TypeLegs([o])

    def pairs_near(self, obj, j, reach, first=0):
        """(obj's leg, type-j row) pairs whose boxes come within reach.

        Rows of left-out objects, and rows before first, are dropped.
        """
        T = self.types[j]
        _, _, lo, hi = T.legs
        _, _, olo, ohi = obj.legs
        near = np.maximum.reduce(np.maximum(lo - ohi[:, None], olo[:, None] - hi),
                                 axis=-1) < reach
        if first:
            near[:, :first] = False
        for o in self.left_out:
            if o.type_index == j:
                a, b = T.rows(o)
                near[:, a:b] = False
        return np.nonzero(near)


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
    r = np.sqrt(np.add.reduce(diff * diff, axis=-1))
    if pot.range == pot.hard_core:  # a pure hard core: evaluate's values, no masks
        vals = np.where(r < pot.hard_core, np.inf, 0.0)
    else:
        vals = pot.evaluate(r)
    if conservative and pot.hard_core > 0:
        close = _min_segment_gap_sq(a[1][ia], b[1][ib]) < pot.hard_core ** 2
        if np.any(close):
            vals = np.where(close, np.inf, vals)
    return vals


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


def _near_energy(total, A, table, P, dt, conservative, split, after=None, own=False):
    """total plus the energy of A's legs against table's legs within reach.

    Per type j of table: the pairs of pairs_near, less the first after[j]
    type-j objects if after is given, valued by _pair_values.  Their energy
    enters split under split[A][A] if own, else under split[A][B] by row
    owner B.  Stops at the first infinite total.
    """
    a = A.legs
    for j, T in table.types.items():
        pot = P[A.type_index][j]
        if pot.is_zero():
            continue
        reach = max(pot.range, pot.hard_core) * (1.0 + _REACH_SLACK)
        ia, ib = table.pairs_near(A, j, reach, T.start[after[j]] if after else 0)
        if ia.size == 0:
            continue
        vals = _pair_values(pot, a, ia, T.legs, ib, conservative)
        e = _integrated(vals, dt)
        total += e
        if own:
            _record(split, A, A, e)
        elif split is not None and e:  # per object, by row owner
            per = np.bincount(T.start.searchsorted(ib, side="right") - 1,
                              weights=np.add.reduce(vals, axis=1)) * dt
            for o in np.flatnonzero(per).tolist():
                _record(split, A, T.objects[o], float(per[o]))
        if math.isinf(total):
            break
    return total


@lru_cache(maxsize=16)
def _still_table(external, S, beta):
    """The external points as one-leg paths that stay put on the S-grid, stacked."""
    return LegTable([OpenPath(j, BridgePath(np.tile(x, (S + 1, 1)), 1, S, beta))
                     for j, points in enumerate(external.points) for x in points])


def interaction_energy(target, params, conditioning=None, external=None,
                       conservative=False, split=None):
    """Equal-time pair energy h(target | conditioning, external).

    Internal energy of the target objects (all unordered leg pairs, including
    legs of a single object at distinct whole-step offsets), plus the cross
    energy with the conditioning objects and the static external points.
    Energy internal to the conditioning is deliberately not counted.  Returns
    +inf when any hard core is violated at a quadrature node (and, with
    conservative=True, anywhere along the straight segments between nodes).
    conditioning is a LegTable or any iterable of loops and paths.  Each
    target meets the later targets, the conditioning and the external points
    in that order, each stacked per type (_near_energy, _still_table).

    split, a dict if given, receives the same energy by object pair:
    split[A][B] for target A and B a later target or a conditioning object,
    and split[A][A] for A's own legs among themselves and against the
    external points.  Only nonzero entries are made, and the returned total
    is summed as without split.  After a violated hard core the split is
    incomplete.
    """
    if not target:
        return 0.0
    S = target[0].path.slices_per_beta
    if len(target) > 1 and any(o.path.slices_per_beta != S for o in target):
        raise ValueError(_MIXED_SLICES)
    if conditioning and not isinstance(conditioning, LegTable):
        conditioning = LegTable(conditioning)
    if conditioning and any(T.legs[0].shape[1] != S for T in conditioning.types.values()):
        raise ValueError(_MIXED_SLICES)
    dt = params.beta / S
    P = params.potentials
    later = LegTable(target) if len(target) > 1 else None
    seen = dict.fromkeys(range(params.n_types), 0)  # targets so far, by type
    total = 0.0
    for A in target:
        pot = P[A.type_index][A.type_index]
        if not pot.is_zero() and A.k > 1:
            a = A.legs
            ia, ib = np.triu_indices(A.k, 1)
            e = _integrated(_pair_values(pot, a, ia, a, ib, conservative), dt)
            total += e
            _record(split, A, A, e)
            if math.isinf(total):
                return math.inf
        seen[A.type_index] += 1
        if later:
            total = _near_energy(total, A, later, P, dt, conservative, split, seen)
            if math.isinf(total):
                return math.inf
    others = [(conditioning, False)] if conditioning else []
    if external is not None and not external.is_empty():
        others.append((_still_table(external, S, params.beta), True))
    for table, own in others:
        for A in target:
            total = _near_energy(total, A, table, P, dt, conservative, split, own=own)
            if math.isinf(total):
                return math.inf
    return total


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
