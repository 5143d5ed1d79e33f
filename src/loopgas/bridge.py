"""Brownian bridges of duration k*beta and their deviation laws.

Paths are sampled on the uniform grid t_i = i*beta/S, i = 0..k*S, by
midpoint bisection, exact in law at every grid time, over a batch of paths
(a single path is a batch of one).  One plan of the bisection (_plan) is
walked two ways, picked by the batch's midpoint coordinates per level of
the bisection: up to SCALAR_WALK_MAX on Python floats, one coordinate at a
time in a flat list of the batch (_flat_plan, _walk), and above it one
depth level at a time in numpy.  Both compute every coordinate with the
same operations in the same order, so they give the same doubles.  A
single path is walked in the flat list of its own floats, with no batch
around it: endpoints given as lists of floats start that list as they are,
others go through numpy once.  A leg redraw walks the leg's floats cut
from the path's.  A batch of n uses the
Generator's normals as n single draws in a row would, each path in the
order of a depth-first walk that takes the right half first.
The path measure used throughout is the non-normalised bridge measure whose
total mass is the free transition kernel (2*pi*beta*k)^(-d/2) *
exp(-|x-y|^2 / (2*k*beta)); sampling always uses the normalised law and the
mass is carried separately as a weight.
Image series stop by their own tails: the deviation tail's at terms below
IMAGE_TOL, a slice's stay probability after the image pairs whose rest
h^2/tau (interval width squared over slice time) puts within half an ulp.
Each image is taken over the free term in closed form, one exponential
whose exponent is <= 0 for endpoints inside the interval, so no term
overflows there and nothing divides by an underflowing free term.  The
stay probability sums its images on two scratch arrays reused from term to
term, the n = 0 direct image as the 1.0 it is inside the interval.  numpy's
exp leaves its vector loop for results that are not normal doubles, so
images with exponents below EXP_FLOOR (-708) are taken as 0, and the few
totals below TINY_TOTAL (2^-960) are summed again with every term; the
doubles are the plain sum's (slice_stay_probability says why).
"""

import functools
import itertools
import math
from dataclasses import dataclass
from operator import index

import numpy as np
from scipy.integrate import quad

from .analytic import HALF_ULP

IMAGE_TOL = 1e-14  # _alternating_image_sum stops at terms below this


def bridge_mass(x, y, k, beta):
    """Total mass of the duration-k*beta bridge measure from x to y.

    Equals the Gaussian transition density (2*pi*beta*k)^(-d/2) *
    exp(-|x-y|^2/(2*k*beta)) with d inferred from the endpoint vectors.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    y = np.atleast_1d(np.asarray(y, dtype=float))
    if x.shape != y.shape:
        raise ValueError("endpoint dimensions differ")
    if k < 1 or int(k) != k:
        raise ValueError("multiplicity k must be a positive integer")
    if beta <= 0:
        raise ValueError("beta must be > 0")
    return _mass(float(np.sum((x - y) ** 2)), x.size, k * beta)


def _mass(sq, d, tau):
    """bridge_mass on Python floats: the mass over duration tau of a bridge
    whose d-dimensional endpoints lie sq apart in squared distance."""
    return (2.0 * math.pi * tau) ** (-0.5 * d) * math.exp(-sq / (2.0 * tau))


def log_bridge_mass(x, y, k, beta):
    x = np.atleast_1d(np.asarray(x, dtype=float))
    y = np.atleast_1d(np.asarray(y, dtype=float))
    d = x.size
    tau = k * beta
    sq = float(np.sum((x - y) ** 2))
    return -0.5 * d * math.log(2.0 * math.pi * tau) - sq / (2.0 * tau)


@dataclass(slots=True)
class BridgePath:
    """Sampled bridge on the grid i*beta/S, i = 0..k*S.

    samples has shape (k*S + 1, d); samples[0] == x and samples[-1] == y.
    """

    samples: np.ndarray
    k: int
    slices_per_beta: int
    beta: float


@functools.lru_cache(maxsize=256)
def _plan(lo, hi, dt):
    """The bisection of (lo, hi) level by level, from the grid times i*dt.

    Returns (slots, sd, levels).  slots lists the noise slot of every
    midpoint, level after level: its place in the depth-first walk that
    takes the right half first (right child: parent's slot + 1, left child:
    parent's slot + b - m).  sd, shape (slots, 1, 1), holds their standard
    deviations in the same order.  Per level: the midpoints m, their
    interval ends a then b in one index array, the weights 1 - w then w of
    those ends, shape (2L, 1, 1), and the level's rows of slots.
    """
    levels, slots, sds, nodes = [], [], [], [(lo, hi, 0)]
    while nodes:
        a, b, slot = map(np.array, zip(*nodes))
        m = (a + b) // 2
        ta, tm, tb = a * dt, m * dt, b * dt
        w = (tm - ta) / (tb - ta)
        levels.append((m, np.concatenate([a, b]),
                       np.concatenate([1.0 - w, w])[:, None, None],
                       slice(len(slots), len(slots) + m.size)))
        slots.extend(slot)
        sds.extend(np.sqrt((tm - ta) * (tb - tm) / (tb - ta)))
        nodes = [c for ai, mi, bi, si in zip(a, m, b, slot)
                 for c in ((mi, bi, si + 1), (ai, mi, si + bi - mi)) if c[1] - c[0] >= 2]
    return np.array(slots), np.array(sds)[:, None, None], tuple(levels)


# Batches of at most this many midpoint coordinates (paths x interior grid
# points x d) per level of the bisection take the scalar walk of _bisect:
# its cost grows with the coordinates, the level walk's with the levels.
# Set from tools/bisect_walks.py (table in CHANGES.md).
SCALAR_WALK_MAX = 40


@functools.lru_cache(maxsize=256)
def _flat_plan(lo, hi, dt, n, d):
    """_plan per midpoint coordinate, one tuple (i, ia, ib, 1 - w, w, sd, iz) each.

    i, ia and ib are the flat offsets of the coordinate and of its interval
    ends in samples[:, lo:hi + 1] of an (n, grid, d) batch, path after path;
    iz is its noise's offset in a standard_normal((n, hi - lo - 1, d)) draw,
    whose rows go by slot.  Level after level, so a parent always comes
    before its children.
    """
    slots, sd, levels = _plan(lo, hi, dt)
    span, flat = hi - lo, []
    for m, ends, w, rows in levels:
        L = m.size
        for i, a, b, wa, wb, s, slot in zip(
                (m - lo).tolist(), (ends[:L] - lo).tolist(), (ends[L:] - lo).tolist(),
                w[:L, 0, 0].tolist(), w[L:, 0, 0].tolist(), sd[rows, 0, 0].tolist(),
                slots[rows].tolist()):
            for p in range(n):  # path p's rows start at row p*(span+1), its noise at p*(span-1)
                r, q = p * (span + 1), p * (span - 1)
                flat += (((r + i) * d + c, (r + a) * d + c, (r + b) * d + c, wa, wb, s,
                          (q + slot) * d + c) for c in range(d))
    return tuple(flat)


def _scalar(n, span, d):
    """Whether an (n, span + 1, d) batch takes the scalar walk: at most
    SCALAR_WALK_MAX midpoint coordinates per level of the bisection."""
    return n * (span - 1) * d <= SCALAR_WALK_MAX * (span - 1).bit_length()


def _walk(v, lo, hi, dt, n, d, rng):
    """The scalar walk: fill v, the flat list of samples[:, lo:hi + 1] of an
    (n, grid, d) batch in memory order, from _flat_plan, one coordinate at a
    time, with one standard_normal call in draw order."""
    if hi - lo < 2:
        return
    z = rng.standard_normal(n * (hi - lo - 1) * d).tolist()
    for i, a, b, wa, wb, sd, iz in _flat_plan(lo, hi, dt, n, d):
        v[i] = wa * v[a] + wb * v[b] + z[iz] * sd


def _bisect(samples, lo, hi, dt, rng):
    """Fill samples[:, lo+1:hi] of an (n, grid, d) batch whose columns lo, hi are set.

    A midpoint is Gaussian around the interpolation of its interval's ends
    with per-coordinate variance (t_m - t_a)(t_b - t_m)/(t_b - t_a); one
    standard_normal call draws the whole batch's noise.  Every coordinate is
    (wa*a + wb*b) + z*sd.  A batch that takes the scalar walk (_scalar)
    computes them on Python floats (_walk) in a flat list of
    samples[:, lo:hi + 1] taken in memory order, with the noise in draw
    order, so nothing is transposed; it writes the list back once.  A
    larger batch walks _plan level by level on a grid-major view, one numpy
    call per step.
    """
    if hi - lo < 2:
        return
    n, _, d = samples.shape
    if _scalar(n, hi - lo, d):
        block = samples[:, lo:hi + 1]
        v = block.ravel().tolist()
        _walk(v, lo, hi, dt, n, d, rng)
        block.flat = v
        return
    grid = samples.transpose(1, 0, 2)
    noise = rng.standard_normal((n, hi - lo - 1, d)).transpose(1, 0, 2)
    slots, sd, levels = _plan(lo, hi, dt)
    noise = noise[slots] * sd
    for m, ends, w, level in levels:
        part = w * grid[ends]
        grid[m] = part[: m.size] + part[m.size:] + noise[level]


def _grid(k, S, beta):
    """k and S as Python ints, after checking that both are integers >= 1
    (numpy's integers are taken and floats refused, as by operator.index)
    and that beta > 0."""
    try:
        k, S = index(k), index(S)
    except TypeError:
        k = S = 0
    if k < 1 or S < 1:
        raise ValueError("k and S must be positive integers")
    if beta <= 0:
        raise ValueError("beta must be > 0")
    return k, S


def sample_bridges(x, y, k, S, beta, rng):
    """Draw bridges from x[i] to y[i], both of shape (n, d), of duration k*beta.

    Returns samples of shape (n, k*S + 1, d) on the grid i*beta/S, exact in
    law: at time t, Gaussian around the interpolated mean with variance
    t*(k*beta - t)/(k*beta) per coordinate.  Row i equals the i-th of n
    successive sample_bridge calls on the same Generator, bit for bit.
    """
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    if x.shape != y.shape:
        raise ValueError("endpoint dimensions differ")
    if x.ndim != 2:
        raise ValueError("endpoints need shape (n, d)")
    k, S = _grid(k, S, beta)
    samples = np.empty((x.shape[0], k * S + 1, x.shape[1]))
    samples[:, 0], samples[:, -1] = x, y
    _bisect(samples, 0, k * S, beta / S, rng)
    return samples


def _floats(x):
    """The coordinates of an endpoint as a list of Python floats: a list of
    floats as it is, anything else through numpy."""
    if type(x) is list:
        for c in x:
            if type(c) is not float:
                break
        else:
            return x
    return np.asarray(x, dtype=float).ravel().tolist()


def sample_bridge(x, y, k, S, beta, rng):
    """Draw one bridge from x to y of duration k*beta, as sample_bridges does
    for a batch of one.

    x and y are floats or vectors of d floats (_floats).  On the scalar walk
    the whole path is walked in one flat list of its floats,
    _flat_plan(0, k*S, beta/S, 1, d), and that list becomes the samples.
    """
    xs, ys = _floats(x), _floats(y)
    if len(xs) != len(ys):
        raise ValueError("endpoint dimensions differ")
    if type(k) is not int or type(S) is not int or k < 1 or S < 1 or beta <= 0:
        k, S = _grid(k, S, beta)  # plain valid ints skip the call
    d, span = len(xs), k * S
    v = xs + [0.0] * ((span - 1) * d) + ys
    if _scalar(1, span, d):
        _walk(v, 0, span, beta / S, 1, d, rng)
        samples = np.array(v).reshape(-1, d)
    else:
        samples = np.array(v).reshape(1, -1, d)
        _bisect(samples, 0, span, beta / S, rng)
        samples = samples[0]
    return BridgePath(samples, k, S, beta)


def resample_leg(path, m, rng):
    """Fresh interior for leg m, 0 <= m < k, of a BridgePath, endpoints kept.

    Returns a new BridgePath; the input is not modified.  The leg is drawn
    as _bisect draws it for a batch of one: on the scalar walk, in a flat
    list of the leg's floats cut from those of the path and put back.
    """
    S, k, d = path.slices_per_beta, path.k, path.samples.shape[1]
    if not isinstance(m, (int, np.integer)) or not 0 <= m < k:
        raise ValueError("leg m = %r is not one of the k = %d legs 0..k-1" % (m, k))
    lo, hi, dt = m * S, (m + 1) * S, path.beta / S
    if _scalar(1, S, d):
        v = path.samples.ravel().tolist()
        block = v[lo * d:(hi + 1) * d]
        _walk(block, lo, hi, dt, 1, d, rng)
        v[lo * d:(hi + 1) * d] = block
        samples = np.array(v).reshape(-1, d)
    else:
        samples = path.samples.astype(float)[None]
        _bisect(samples, lo, hi, dt, rng)
        samples = samples[0]
    return BridgePath(samples, k, S, path.beta)


def _alternating_image_sum(v, a, tau):
    """sum over integer l != 0 of (-1)^(l-1) exp(-2*l*a*(l*a - v) / tau).

    These are the images exp(-(v - 2*l*a)^2 / (2*tau)), each taken over the
    free term exp(-v^2 / (2*tau)) in closed form; for |v| < a every exponent
    is <= 0.  Terms decay like a Gaussian in l; truncation below IMAGE_TOL is
    certified by monotonicity of the exponents once |2*l*a| exceeds |v| + a.
    """
    total = 0.0
    for sign in (1, -1):
        for l in itertools.count(sign, sign):
            term = (-1.0) ** (l - 1) * math.exp(-2.0 * l * a * (l * a - v) / tau)
            total += term
            if abs(term) < IMAGE_TOL and abs(2 * l * a) > abs(v) + a:
                break
    return total


def max_deviation_tail(a, k, displacement, beta):
    """P(sup over the first beta of time of |w(t) - w(0)| > a) for a 1-d bridge.

    The bridge runs from 0 to `displacement` over duration k*beta and the
    probability is under the normalised bridge law.  For k = 1 this is the
    classical reflection series
        sum_{l != 0} (-1)^(l-1) exp(-(y - 2*l*a)^2 / (2*beta)) / exp(-y^2/(2*beta))
    valid for |displacement| < a, each image taken over the free term in
    closed form (_alternating_image_sum), so it stays finite however small
    that term is.  For k > 1 the first-leg endpoint u is integrated out
    numerically: conditioned on w(beta) = u the first leg is a beta-bridge,
    and |u| >= a forces a deviation outright.  The integrand is the law of u,
    Gaussian of mean y/k and variance (k-1)*beta/k, times the first leg's
    image sum at u (1 for |u| >= a), with a quadrature breakpoint at the mean.
    """
    if a <= 0:
        return 1.0
    y = float(displacement)
    if k == 1:
        return 1.0 if abs(y) >= a else min(1.0, max(0.0, _alternating_image_sum(y, a, beta)))
    mean, var = y / k, (k - 1) * beta / k

    def crossing_mass(u):
        g = math.exp(-((u - mean) ** 2) / (2.0 * var))
        return g if abs(u) >= a else g * _alternating_image_sum(u, a, beta)

    # integrate over the smooth pieces; Gaussian decay localises u
    width = 8.0 * math.sqrt(k * beta) + abs(y) + a
    edges = sorted({-width, -a, a, width, mean})
    total = 0.0
    for lo, hi in zip(edges, edges[1:]):
        val, _ = quad(crossing_mass, lo, hi, epsabs=1e-13, epsrel=1e-11, limit=200)
        total += val
    return min(1.0, max(0.0, total / math.sqrt(2.0 * math.pi * var)))


# An image term with an exponent below EXP_FLOOR is left out, and a total
# below TINY_TOTAL is summed again with every term (slice_stay_probability).
EXP_FLOOR = -708.0
TINY_TOTAL = 2.0 ** -960


def _image_sum(total, us, vs, h, tau, N, floor):
    """Add slice_stay_probability's image series, pairs n = -N-1..N in its
    order, to total, an array of the broadcast shape of us and vs.

    Each image's exponent is evaluated, and exponentiated, in one of two
    scratch arrays, with the operations and in the order of the closed
    forms in slice_stay_probability.  The n = 0 direct image is
    exp(+-0.0) = 1.0 at every element inside the interval and is added as
    1.0.  An image whose exponents are not all >= floor is exponentiated
    only where they are and is 0 elsewhere.
    """
    e, f = np.empty_like(total), np.empty_like(total)

    def image(x):  # x is e, and f is free
        if x.min(initial=0.0) < floor:
            keep = np.greater_equal(x, floor, out=f, casting="unsafe")
            np.multiply(x, keep, out=x)  # a left-out exponent becomes +-0.0
            np.exp(x, out=x)
            return np.multiply(x, keep, out=x)
        return np.exp(x, out=x)

    for n in range(-N - 1, N + 1):
        nh = n * h
        if n == 0:
            total += 1.0
        elif n >= -N:
            np.add(vs, nh, out=e)
            np.subtract(e, us, out=e)
            np.multiply(e, -2.0 * n * h, out=e)
            total += image(np.divide(e, tau, out=e))
        np.add(us, nh, out=e)
        np.multiply(e, -2.0, out=e)
        np.multiply(e, np.add(vs, nh, out=f), out=e)
        total -= image(np.divide(e, tau, out=e))
    return total


def slice_stay_probability(lo, hi, u, v, tau):
    """P(a Brownian bridge from u to v over time tau stays inside (lo, hi)).

    Exact image series for the two-barrier killed kernel divided by the free
    kernel, over image pairs n = 0..N: direct images +-n, reflected n and
    -n-1, each taken over the free term in closed form: exp(-2 n h (n h + v
    - u) / tau) for the direct ones and exp(-2 (u + n h) (v + n h) / tau) for
    the reflected ones, u and v measured from lo.  With both endpoints inside
    the interval every exponent is <= 0, so no term overflows and none needs
    the free term, however small it is.  Over the free term pair n is at
    most 4 exp(-2 n (n-1) r), r = h^2/tau, and these bounds fall by
    exp(-4 n r) from n to n+1; N is the least >= 1 whose dropped pairs so
    sum to at most HALF_ULP.  At r <= 0.1 the killed kernel's eigenfunction
    series bounds P below 1e-20, and 0 is returned.  u, v may be arrays
    (elementwise).  Endpoints outside the interval give probability 0.

    The terms are summed in the order n = -N-1..N, direct image before
    reflected, on two reused scratch arrays (_image_sum); the n = 0 direct
    image is the constant 1.0.  Terms with an exponent below EXP_FLOOR are
    left out, and the elements inside the interval whose total ends below
    TINY_TOTAL are summed again with every term.  Together this gives the
    doubles of the plain sum of every term.  A left-out term is below
    exp(-708) < 2^-1021, and inside the interval an exponent below -708
    occurs at N = 1 alone (at N >= 2, r < 10 and every exponent is above
    -2 (N+1)^2 r > -180).  There the terms are, in order, reflected -2,
    direct -1, reflected -1, the 1.0, reflected 0, direct 1 and reflected 1:
    growing up to the 1.0 and falling after it, so the left-out terms come
    first or last.  Before the 1.0 the two sums can differ only while both
    are below 2^-965; a term t with both below a quarter of its ulp (any
    t >= 2^-911) sets both to +-t exactly, and otherwise the 1.0 sets both
    to 1.0.  After the 1.0 a left-out term leaves a partial sum >= 2^-967
    unchanged, being below half its spacing, and a total below TINY_TOTAL
    is summed again.
    """
    h = hi - lo
    us = np.asarray(u, dtype=float) - lo
    vs = np.asarray(v, dtype=float) - lo
    inside = (us > 0) & (us < h) & (vs > 0) & (vs < h)
    total = np.zeros(np.broadcast(us, vs).shape)
    r, N = h * h / tau, 1
    if r <= 0.1:
        return total
    while 4.0 * math.exp(-2.0 * N * (N + 1) * r) > HALF_ULP * -math.expm1(-4.0 * (N + 1) * r):
        N += 1
    with np.errstate(over="ignore", invalid="ignore"):  # only outside the interval
        _image_sum(total, us, vs, h, tau, N, EXP_FLOOR)
        again = inside & (total < TINY_TOTAL)
        if again.any():
            total[again] = _image_sum(np.zeros(np.count_nonzero(again)),
                                      np.broadcast_to(us, total.shape)[again],
                                      np.broadcast_to(vs, total.shape)[again], h, tau, N,
                                      -math.inf)
        # np.where(inside, np.clip(total, 0.0, 1.0), 0.0) in place: fmax and
        # fmin take a NaN outside the interval to 0.0, so 0.0 * it is 0.0
        np.fmin(np.fmax(total, 0.0, out=total), 1.0, out=total)
        return np.multiply(total, inside, out=total)


def path_stay_probability(samples_1d, lo, hi, tau_slice):
    """Survival probability in (lo, hi) of the continuous bridge behind a skeleton.

    Product over consecutive grid pairs of the exact conditional two-barrier
    stay probability.  This removes the discretisation bias a bare
    grid-membership test would have: excursions between grid times are
    accounted for in law.  Leading axes before the grid axis are a batch.
    """
    s = np.asarray(samples_1d, dtype=float)
    inside = np.all((s > lo) & (s < hi), axis=-1)
    probs = slice_stay_probability(lo, hi, s[..., :-1], s[..., 1:], tau_slice)
    out = np.where(inside, np.prod(probs, axis=-1), 0.0)
    return float(out) if out.ndim == 0 else out


def box_stay_probability(samples, box, tau_slice):
    """Per-coordinate product of interval survival for (..., grid, d) skeletons."""
    return math.prod(path_stay_probability(samples[..., i], c - box.half_side,
                                           c + box.half_side, tau_slice)
                     for i, c in enumerate(box.center))


def empirical_max_deviation_tail(a, k, displacement, beta, S, n_draws, rng):
    """Monte Carlo estimate of max_deviation_tail from sampled skeletons.

    Each draw contributes 1 minus the conditional probability that the
    continuous bridge stays inside (-a, a) relative to its start during the
    first leg, so the estimate is unbiased for the continuum law at any S.
    Returns (estimate, standard_error).
    """
    paths = sample_bridges(np.zeros((n_draws, 1)), np.full((n_draws, 1), float(displacement)),
                           k, S, beta, rng)
    vals = 1.0 - path_stay_probability(paths[:, : S + 1, 0], -a, a, beta / S)
    return float(np.mean(vals)), float(np.std(vals, ddof=1) / math.sqrt(n_draws))


def fit_gaussian_tail_envelope(params, box, k_max, a_grid):
    """Constants (c0, c1) with tail(a, k) <= c0 * exp(-c1 * a^2) on the grid.

    tail(a, k) bounds the probability that a loop of duration k*beta anchored
    in the box, or a pinned path with both whole-step endpoints in the box,
    wanders further than Euclidean distance a from the box during one leg.
    A union bound over coordinates reduces both cases to the 1-d deviation
    law; pinned displacements range over values admissible for the
    reflection series.  The fit is an envelope: a least-squares slope on
    log-tails versus a^2, with the intercept pushed up so no grid point
    exceeds the bound.  Raises ValueError when the tails do not decrease.
    """
    a_grid = np.asarray(a_grid, dtype=float)
    if a_grid.size < 2:
        raise ValueError("envelope fit needs at least two grid points")
    if np.any(a_grid <= 0):
        raise ValueError("deviation grid must be positive")
    d = box.dimension
    beta = params.beta
    root_d = math.sqrt(d)
    tails = []
    for a in a_grid:
        worst = 0.0
        a1 = a / root_d
        for k in range(1, k_max + 1):
            # anchored loop: start and end coincide
            worst = max(worst, min(1.0, d * max_deviation_tail(a1, k, 0.0, beta)))
            # pinned path: endpoints anywhere in the box, displacement up to
            # the box side but capped inside the series' validity region
            disp = min(2.0 * box.half_side, 0.95 * a1)
            worst = max(worst, min(1.0, d * max_deviation_tail(a1, k, disp, beta)))
        tails.append(max(worst, 1e-300))
    tails = np.asarray(tails)
    logs = np.log(tails)
    x = a_grid ** 2
    slope = float(np.polyfit(x, logs, 1)[0])
    if slope >= 0:
        raise ValueError("deviation tails do not decay on this grid; cannot fit envelope")
    c1 = -slope
    c0 = float(np.exp(np.max(logs + c1 * x)))
    return c0, c1
