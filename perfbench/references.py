"""Reference values the benchmark checks loopgas against.

Every function here is written independently of loopgas: the closed forms
and series come from the Brownian-bridge and free-gas literature, and where
loopgas evaluates the same quantity the method here is a different one
(spectral series where loopgas sums images, images where it sums the
spectrum, a normal-law quadrature where it integrates bridge masses), so an
agreement between the two is a real cross-check.  Only numpy and scipy are
used.
"""

import math

import numpy as np
from scipy import integrate, special, stats


def dilog(z):
    """Li2(z) through scipy's Spence function, Li2(z) = spence(1 - z)."""
    return float(special.spence(1.0 - z))


def free_density_2d(z, beta):
    """Anchor density of the planar one-type free loop gas: Li2(z)/(2 pi beta)."""
    return dilog(z) / (2.0 * math.pi * beta)


def multiplicity_law_2d(z, k_max):
    """Law of a planar free loop's multiplicity, z^k/k^2 normalised on k <= k_max."""
    k = np.arange(1, k_max + 1, dtype=float)
    w = z ** k / k ** 2
    return w / w.sum()


def free_kernel_terms(x, y, z, beta, k_max):
    """Terms k = 1..k_max of sum_k z^k (2 pi beta k)^(-d/2) exp(-|x-y|^2/(2 beta k))."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    y = np.atleast_1d(np.asarray(y, dtype=float))
    d = x.size
    sq = float(np.sum((x - y) ** 2))
    k = np.arange(1, k_max + 1, dtype=float)
    return z ** k * (2.0 * math.pi * beta * k) ** (-0.5 * d) * np.exp(-sq / (2.0 * beta * k))


def free_kernel_tail_bound(z, beta, d, k_max):
    """Bound on the terms k > k_max of the free kernel series."""
    return (2.0 * math.pi * beta) ** (-0.5 * d) * z ** (k_max + 1) / (1.0 - z)


def free_kernel(x, y, z, beta, k_max=None):
    """Free one-particle kernel, summed to k_max or until the tail is below 1e-17."""
    if k_max is None:
        d = np.atleast_1d(np.asarray(x)).size
        k_max = 1
        while free_kernel_tail_bound(z, beta, d, k_max) > 1e-17:
            k_max += 1
    return float(np.sum(free_kernel_terms(x, y, z, beta, k_max)))


def interval_stay_probability(u, v, lo, hi, tau):
    """P(a Brownian bridge from u to v over time tau stays in (lo, hi)).

    Spectral form: the absorbing-interval kernel
    (2/h) sum_n sin(n pi u'/h) sin(n pi v'/h) exp(-tau n^2 pi^2 / (2 h^2)),
    with u' = u - lo, v' = v - lo and h = hi - lo, divided by the free
    Gaussian kernel.  Summed until the terms cannot matter in double
    precision.
    """
    h = hi - lo
    if not (lo < u < hi and lo < v < hi):
        return 0.0
    us, vs = u - lo, v - lo
    free = math.exp(-((v - u) ** 2) / (2.0 * tau)) / math.sqrt(2.0 * math.pi * tau)
    total = 0.0
    n = 1
    while True:
        decay = math.exp(-tau * (n * math.pi / h) ** 2 / 2.0)
        total += math.sin(n * math.pi * us / h) * math.sin(n * math.pi * vs / h) * decay
        if (2.0 / h) * decay < 1e-18 * max(free, 1e-300):
            break
        n += 1
    return min(1.0, max(0.0, (2.0 / h) * total / free))


def first_leg_tail(a, k, displacement, beta):
    """P(sup over [0, beta] of |w(t) - w(0)| > a) for a 1-d bridge 0 -> y over k*beta.

    k = 1: one minus the spectral stay probability of the whole bridge.
    k > 1: w(beta) = u is normal with mean y/k and variance beta (k-1)/k;
    given u, the first leg is a beta-bridge 0 -> u, and |u| >= a is a
    deviation outright.  The u integral is done by adaptive quadrature
    against that normal law.
    """
    y = float(displacement)
    if k == 1:
        return 1.0 - interval_stay_probability(0.0, y, -a, a, beta)
    law = stats.norm(loc=y / k, scale=math.sqrt(beta * (k - 1) / k))
    outside = float(law.cdf(-a) + law.sf(a))

    def integrand(u):
        return law.pdf(u) * (1.0 - interval_stay_probability(0.0, u, -a, a, beta))

    inside, _ = integrate.quad(integrand, -a, a, epsabs=1e-14, epsrel=1e-12, limit=200)
    return outside + inside


def dirichlet_interval_trace(half_side, beta):
    """Trace of exp(beta/2 Laplacian) on (-L, L) with absorbing walls.

    Image (Poisson-summed) form of sum_{n>=1} exp(-beta/2 (n pi / 2L)^2):
    (sqrt(8 L^2 / (pi beta)) * sum_{m in Z} exp(-8 L^2 m^2 / beta) - 1) / 2.
    """
    L = float(half_side)
    images = 1.0
    m = 1
    while True:
        term = 2.0 * math.exp(-8.0 * L * L * m * m / beta)
        images += term
        if term < 1e-18:
            break
        m += 1
    return 0.5 * (math.sqrt(8.0 * L * L / (math.pi * beta)) * images - 1.0)


def bridge_marginal(t, k, beta, x, y):
    """Mean and variance of a 1-d bridge x -> y over k*beta at time t."""
    tau = k * beta
    return x + (y - x) * t / tau, t * (tau - t) / tau


def _square_well(pot):
    if pot.profile != "square_well":
        raise ValueError("the brute-force energy handles square wells only")
    return pot.hard_core, pot.range, pot.height


def _leg_midpoints(obj):
    """Midpoints of each leg's S segments, shape (k, S, d), from the grid samples."""
    s = np.asarray(obj.path.samples, dtype=float)
    S = obj.path.slices_per_beta
    return np.array([[0.5 * (s[m * S + i] + s[m * S + i + 1]) for i in range(S)]
                     for m in range(obj.path.k)])


def _legs(objects):
    return [(o.type_index, leg) for o in objects for leg in _leg_midpoints(o)]


def _pair_sum(pot, a, b):
    """Sum over slices of the square-well value at equal-time separations."""
    hard_core, range_, height = _square_well(pot)
    total = 0.0
    for i in range(a.shape[0]):
        r = math.dist(a[i], b[i])
        if r < hard_core:
            return math.inf
        if r < range_:
            total += height
    return total


def brute_force_energy(target, params, conditioning=()):
    """Equal-time pair energy of target given conditioning, leg pair by leg pair.

    Sums the square-well potential at the segment midpoints (the midpoint
    quadrature nodes) over every unordered pair of target legs, legs of one
    object included, and over every (target leg, conditioning leg) pair,
    times the slice width beta/S.  Energy inside the conditioning is not
    counted.
    """
    if not target:
        return 0.0
    dt = params.beta / target[0].path.slices_per_beta
    pots = params.potentials
    tlegs = _legs(target)
    clegs = _legs(conditioning)
    total = 0.0
    for i, (ta, a) in enumerate(tlegs):
        for tb, b in tlegs[i + 1:] + clegs:
            total += _pair_sum(pots[ta][tb], a, b)
            if math.isinf(total):
                return math.inf
    return total * dt


def closest_cross_type_gap(objects):
    """Smallest equal-time midpoint distance between legs of different types."""
    legs = _legs(objects)
    best = math.inf
    for i, (ta, a) in enumerate(legs):
        for tb, b in legs[i + 1:]:
            if ta != tb:
                best = min(best, float(np.min(np.linalg.norm(a - b, axis=1))))
    return best
