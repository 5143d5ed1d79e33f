"""Model parameters for a multi-type Bose gas with finite-range pair repulsion.

A model instance fixes the spatial dimension d, the number of particle types q,
the inverse temperature beta, one fugacity per type (each strictly between 0
and 1), and a symmetric table of pair potentials V[i][j].  Every potential is
non-negative, has finite range R, and may carry a hard core of diameter D:
V(r) = +inf for r < D.  Setting D > 0 for pairs of distinct types and D = 0
within a type gives the quantum Widom-Rowlinson gas.
"""

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.interpolate import CubicSpline

PROFILES = ("square_well", "smooth_bump", "table")
DERIVATIVE_GRID = 2049  # radii at which PairPotential samples |V| and |V'|


class PairPotential:
    """Radial pair potential with optional hard core.

    Parameters
    ----------
    profile : str
        One of "square_well", "smooth_bump", "table".
    hard_core : float
        Hard-core diameter D >= 0; V(r) = +inf for r < D.
    range_ : float
        Interaction range R; V(r) = 0 for r >= R.  R >= D required.
    height : float
        Amplitude of the built-in profiles (ignored for "table").
    table_r, table_v : arrays, optional
        Radial grid and values for the "table" profile.  Values are
        interpolated with a cubic spline on [D, R] and clamped at 0 below.
    """

    def __init__(self, profile="square_well", hard_core=0.0, range_=1.0,
                 height=1.0, table_r=None, table_v=None):
        if profile not in PROFILES:
            raise ValueError("unknown potential profile %r" % (profile,))
        if not hard_core >= 0:  # NaN fails each test
            raise ValueError("hard_core must be >= 0")
        if not hard_core <= range_ < math.inf:
            raise ValueError("range must be finite and >= hard_core")
        if not 0 <= height < math.inf:
            raise ValueError("height must be finite and >= 0 (repulsive interactions only)")
        self.profile = profile
        self.hard_core = float(hard_core)
        self.range = float(range_)
        self.height = float(height)
        self._spline = None
        self.table = None  # (table_r, table_v) as tuples of floats, for "table"
        if profile == "table":
            r = np.asarray(table_r, dtype=float)
            v = np.asarray(table_v, dtype=float)
            if r.ndim != 1 or r.shape != v.shape or r.size < 4:
                raise ValueError("table profile needs matching 1-d grids with >= 4 points")
            if not np.all(np.diff(r) > 0):
                raise ValueError("table radial grid must be strictly increasing")
            if not np.all(v >= 0):
                raise ValueError("table values must be >= 0")
            self._spline = CubicSpline(r, v, extrapolate=False)
            self.table = (tuple(r.tolist()), tuple(v.tolist()))
        self._derivative_bounds = self._estimate_derivative_bounds()

    def _finite_profile(self, r):
        """Profile value on the finite region [D, R), vectorised."""
        r = np.asarray(r, dtype=float)
        if self.profile == "square_well":
            return np.full_like(r, self.height)
        if self.profile == "smooth_bump":
            # C^inf bump anchored at the origin, vanishing smoothly at R
            u2 = np.clip((r / self.range) ** 2, 0.0, 1.0)
            out = np.zeros_like(r)
            inside = u2 < 1.0
            out[inside] = self.height * np.exp(1.0 - 1.0 / (1.0 - u2[inside]))
            return out
        vals = self._spline(r)
        return np.where(np.isnan(vals), 0.0, np.maximum(vals, 0.0))

    def evaluate(self, r):
        """V(r) for scalar or array r: +inf below D, 0 at and beyond R."""
        r = np.asarray(r, dtype=float)
        scalar = r.ndim == 0
        r = np.atleast_1d(r)
        out = np.zeros(r.shape, dtype=float)
        hard = r < self.hard_core
        mid = ~hard & (r < self.range)
        out[hard] = np.inf
        if np.any(mid):
            out[mid] = self._finite_profile(r[mid])
        if scalar:
            return float(out[0])
        return out

    def _estimate_derivative_bounds(self):
        """Sup of |V| and |V'| on the open finite region, by sampling.

        Finite differences on DERIVATIVE_GRID interior points.  Jumps at the
        support edges (square well) are deliberately not captured; the square
        well is the zero-derivative idealisation of a steep smooth profile.
        """
        lo, hi = self.hard_core, self.range
        if hi <= lo:
            return (0.0, 0.0)
        pad = (hi - lo) * 1e-6
        rs = np.linspace(lo + pad, hi - pad, DERIVATIVE_GRID)
        vals = self._finite_profile(rs)
        step = rs[1] - rs[0]
        d1 = np.gradient(vals, step)
        # trim one point at each edge where one-sided differences are noisy
        return (float(np.max(np.abs(vals))),
                float(np.max(np.abs(d1[1:-1]))))

    @property
    def sup_value(self):
        return self._derivative_bounds[0]

    @property
    def sup_gradient(self):
        return self._derivative_bounds[1]

    def is_zero(self):
        return self.hard_core == 0.0 and (self.range == 0.0 or self.sup_value == 0.0)


def zero_potential():
    return PairPotential(profile="square_well", hard_core=0.0, range_=0.0, height=0.0)


@dataclass
class ModelParams:
    """Immutable bundle of model constants.

    potentials is a q x q nested list, symmetric: potentials[i][j] governs
    pairs with one particle of type i and one of type j (0-based).
    """

    dimension: int
    n_types: int
    beta: float
    fugacity: tuple
    potentials: list = field(default_factory=list)

    def __post_init__(self):
        self.fugacity = tuple(float(z) for z in self.fugacity)
        if not self.potentials:
            self.potentials = [[zero_potential() for _ in range(self.n_types)]
                               for _ in range(self.n_types)]
        errors = validate_params(self)
        if errors:
            raise ValueError("invalid model parameters: " + "; ".join(errors))

    @property
    def max_range(self):
        return max(p.range for row in self.potentials for p in row)

    @property
    def max_gradient(self):
        return max(p.sup_gradient for row in self.potentials for p in row)

    def is_free(self):
        return all(p.is_zero() for row in self.potentials for p in row)

    def is_hard_core(self):
        """Whether every potential is zero or a pure hard core (range ==
        hard_core), so that every energy is 0 or inf."""
        return all(p.is_zero() or p.range == p.hard_core
                   for row in self.potentials for p in row)


def validate_params(m):
    """Collect human-readable violations; empty list means valid."""
    errors = []
    if not isinstance(m.dimension, (int, np.integer)) or m.dimension < 1:
        errors.append("dimension must be an integer >= 1")
    if m.n_types < 1:
        errors.append("number of types must be >= 1")
    if not 0.0 < m.beta < math.inf:
        errors.append("beta must be > 0 and finite")
    if len(m.fugacity) != m.n_types:
        errors.append("need exactly one fugacity per type")
    for j, z in enumerate(m.fugacity):
        if not (0.0 < z < 1.0):
            errors.append("fugacity[%d] = %g not in the open interval (0, 1)" % (j, z))
    P = m.potentials
    if len(P) != m.n_types or any(len(row) != m.n_types for row in P):
        errors.append("potential table must be %d x %d" % (m.n_types, m.n_types))
        return errors
    for i in range(m.n_types):
        for j in range(m.n_types):
            if P[i][j] is not P[j][i]:
                # permit equal-by-value asymmetric storage
                a, b = P[i][j], P[j][i]
                same = (a.profile == b.profile and a.hard_core == b.hard_core
                        and a.range == b.range and a.height == b.height
                        and a.table == b.table)
                if not same:
                    errors.append("potential table not symmetric at (%d, %d)" % (i, j))
    return errors


@dataclass(frozen=True)
class Box:
    """Axis-aligned cube: center and half side.  Membership is max-norm.

    center_array holds the center's doubles as a read-only array, made once.
    """

    center: tuple
    half_side: float
    center_array: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "center", tuple(float(c) for c in self.center))
        object.__setattr__(self, "half_side", float(self.half_side))
        center = np.array(self.center)
        if not 0.0 < self.half_side < math.inf or not np.isfinite(center).all():
            raise ValueError("box needs a finite center and a half side > 0 and finite")
        center.flags.writeable = False
        object.__setattr__(self, "center_array", center)

    @property
    def dimension(self):
        return len(self.center)

    @property
    def volume(self):
        return (2.0 * self.half_side) ** self.dimension

    def _rows(self, points):
        """points as (-1, d) rows, none included, and whether they were one d-vector."""
        pts = np.asarray(points, dtype=float)
        return pts.reshape(-1, self.center_array.size), pts.shape == self.center_array.shape

    def contains(self, points):
        """Boolean per row (a bool for one d-vector): all coordinates within half_side."""
        pts, single = self._rows(points)
        inside = np.all(np.abs(pts - self.center_array) <= self.half_side, axis=1)
        return bool(inside[0]) if single else inside

    def euclidean_distance(self, points):
        """Euclidean distance from each point to the cube (0 inside); rows as contains."""
        pts, single = self._rows(points)
        excess = np.maximum(np.abs(pts - self.center_array) - self.half_side, 0.0)
        dist = np.sqrt(np.sum(excess ** 2, axis=1))
        return float(dist[0]) if single else dist

    def shifted(self, s):
        return Box(tuple(c + float(ds) for c, ds in zip(self.center, s)), self.half_side)


class ExternalConfiguration:
    """Static typed points outside a box, closer to it than the range R.

    These represent the frozen exterior particles a finite-volume system is
    conditioned on.  Only points within interaction range of the box can
    matter, so membership in the annulus {x outside box, dist(x, box) <= R}
    is enforced at construction.
    """

    def __init__(self, box, points_by_type, max_range):
        self.points = []
        for j, pts in enumerate(points_by_type):
            arr = np.asarray(pts, dtype=float).reshape(-1, box.dimension)
            if not np.isfinite(arr).all():
                raise ValueError("external point of type %d is not finite" % j)
            if np.any(box.contains(arr)):
                raise ValueError("external point of type %d lies inside the box" % j)
            if not np.all(box.euclidean_distance(arr) <= max_range):
                raise ValueError(
                    "external point of type %d is beyond interaction range of the box" % j)
            self.points.append(arr)

    def is_empty(self):
        return all(p.size == 0 for p in self.points)
