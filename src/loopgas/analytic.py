"""Certified series and closed-form bounds for the loop gas.

Everything here is deterministic arithmetic: geometric-tail-certified power
series in the fugacity, and the closed-form constants that bound kernel
norms, gradient terms, and multiplicity tails.  Monte Carlo estimates from
the sampler are validated against these quantities.  Each series stops by
its own remainder bound: a fugacity series once it is at most TOL (or
loop_moment's tol), a Dirichlet trace once it is below half an ulp.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import spence

TOL = 1e-12  # remainder bound at which the fugacity series stop
MAX_TERMS = 100000  # loop_moment gives up past this many terms
HALF_ULP = 2.0 ** -54  # x * HALF_ULP is below half an ulp of any double x > 0


@dataclass(frozen=True)
class SeriesResult:
    """Value of a truncated series with a certified bound on the remainder."""

    value: float
    tail_bound: float


def loop_moment(order, z, beta, d, tol=TOL):
    """sum_{k>=1} z^k k^order (2*pi*beta*k)^(-d/2), truncation certified.

    order -1 is the free loop intensity per unit volume; orders 0, 1, 2 enter
    the kernel and gradient bounds.  The remainder after K terms is bounded
    through the geometric ratio z once the power factor stops growing.
    """
    if not (0.0 < z < 1.0):
        raise ValueError("fugacity must lie in (0, 1)")
    pref = (2.0 * math.pi * beta) ** (-0.5 * d)
    p = order - 0.5 * d
    total = 0.0
    for k in range(1, MAX_TERMS + 1):
        t = pref * (z ** k) * (k ** p)
        total += t
        # ratio of consecutive terms is z ((k+1)/k)^p, decreasing in k for
        # p > 0 and at most z for p <= 0
        r = z * ((k + 1.0) / k) ** max(p, 0.0)
        if r < 1.0:
            bound = t * r / (1.0 - r)
            if bound <= tol:
                return SeriesResult(total, bound)
    raise RuntimeError("series did not certify below tolerance")


def loop_intensity(z, beta, d, k):
    """z^k / (k (2*pi*beta*k)^(d/2)): free k-loops anchored per unit volume.

    Summed over k >= 1 it is loop_moment(-1, z, beta, d).
    """
    return (z ** k) / (k * (2.0 * math.pi * beta * k) ** (0.5 * d))


def closed_form_moment_2d(order, z, beta):
    """Planar closed forms of loop_moment for orders -1, 0, 1, 2."""
    pref = 1.0 / (2.0 * math.pi * beta)
    if order == 0:
        return -math.log(1.0 - z) * pref
    if order == 1:
        return z / (1.0 - z) * pref
    if order == 2:
        return z / (1.0 - z) ** 2 * pref
    if order == -1:
        # dilogarithm via scipy's Spence integral, Li2(z) = spence(1 - z)
        return float(spence(1.0 - z)) * pref
    raise ValueError("no closed form tabulated for order %r" % (order,))


def kernel_remainder(z, beta, d, k_max):
    """(2*pi*beta)^(-d/2) z^(K+1) / (1-z): bounds free_gas_kernel's terms k > K = k_max."""
    return (2.0 * math.pi * beta) ** (-0.5 * d) * z ** (k_max + 1) / (1.0 - z)


def free_gas_kernel(x, y, z, beta, k_max=None):
    """sum_{k>=1} z^k (2*pi*beta*k)^(-d/2) exp(-|x-y|^2/(2*beta*k)).

    The one-particle reduced-kernel of the non-interacting gas.  Truncation
    after K terms is certified by kernel_remainder, and stops once that is
    at most TOL; an explicit k_max instead sums exactly that many terms and
    reports the same certified remainder bound.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    y = np.atleast_1d(np.asarray(y, dtype=float))
    d = x.size
    sq = float(np.sum((x - y) ** 2))
    total = 0.0
    for k in itertools.count(1):
        total += (z ** k) * (2.0 * math.pi * beta * k) ** (-0.5 * d) \
            * math.exp(-sq / (2.0 * beta * k))
        bound = kernel_remainder(z, beta, d, k)
        if (bound <= TOL) if k_max is None else (k >= k_max):
            return SeriesResult(total, bound)


def _exp_or_inf(x):
    """math.exp(x), or inf where that overflows a double."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def _weighted_multiplicity_series(z, beta, offset_exponent):
    """sum_{k>=1} z^k k exp(-offset_exponent / (2*beta*k)), to a remainder of TOL.

    offset_exponent may be negative, in which case the exponential factor is
    largest at k = 1 and the remainder bound carries that constant.  Where
    that constant overflows a double, math.inf is returned: the first term is
    then z times it, and inf stays an upper bound.
    """
    cap = _exp_or_inf(max(0.0, -offset_exponent) / (2.0 * beta))
    if math.isinf(cap):
        return math.inf
    total = 0.0
    for k in itertools.count(1):
        total += (z ** k) * k * math.exp(-offset_exponent / (2.0 * beta * k))
        # sum_{j>k} j z^j in closed form
        rest = (z ** (k + 1)) * ((k + 1) * (1.0 - z) + z) / (1.0 - z) ** 2
        if cap * rest <= TOL:
            return total


def external_control_bound(counts, c, params, L_grid):
    """Supremum over L of the external-point control sum.

    counts(L) must return one non-negative count per type; the quantity is

        sum_i counts_i(L) * sum_{k>=1} z_i^k k exp(-(L^2 - c*L)/(2*beta*k))

    maximised over the given grid of L values.  Returns (sup, arg_L, values,
    edge_flag); edge_flag is True when the maximum sits at the last grid
    point with the sum still increasing, signalling possible growth beyond
    the grid.  A count that overflows a double (exp_square) reads inf.
    """
    L_grid = np.asarray(L_grid, dtype=float)
    if np.any(L_grid < 1.0):
        raise ValueError("control grid starts at L >= 1")
    values = []
    for L in L_grid:
        expo = L * L - c * L
        total = 0.0
        for i, z in enumerate(params.fugacity):
            cnt = counts(float(L))[i]
            if cnt < 0:
                raise ValueError("negative external count at L = %g" % L)
            # a zero count adds nothing, even against an infinite series, and an
            # infinite one makes the sum inf, even where the series underflows to 0
            if cnt:
                total += math.inf if math.isinf(cnt) else \
                    cnt * _weighted_multiplicity_series(z, params.beta, expo)
        values.append(total)
    values = np.asarray(values)
    idx = int(np.argmax(values))
    edge = idx == len(values) - 1 and (len(values) < 2 or values[-1] > values[-2])
    return float(values[idx]), float(L_grid[idx]), values, edge


def growth_family(name, n_types):
    """Named count-growth families for the external control bound."""
    if name == "zero":
        return lambda L: [0.0] * n_types
    if name == "linear":
        return lambda L: [float(L)] * n_types
    if name == "ceil_linear":
        return lambda L: [float(math.ceil(L))] * n_types
    if name == "square":
        return lambda L: [float(L) ** 2] * n_types
    if name == "exp_square":
        return lambda L: [_exp_or_inf(float(L) ** 2)] * n_types
    raise ValueError("unknown growth family %r" % (name,))


def q_square_integral_bound(box0, params):
    """Upper bound on the squared L2 mass of the free exclusion kernel.

    exp(volume(box0) * sum_j z_j / (1 - z_j)); finite for all admissible
    fugacities, which is what makes the kernel square-integrable, but inf
    where it overflows a double (inf is still a bound).
    """
    v = box0.volume
    return _exp_or_inf(v * sum(z / (1.0 - z) for z in params.fugacity))


def suggested_growth_constant(params, box0):
    """Growth constant for the external-term bound: (R + L0 + dist(0, box0))^2."""
    origin = np.zeros(box0.dimension)
    dist = box0.euclidean_distance(origin)
    return (params.max_range + box0.half_side + dist) ** 2


@dataclass(frozen=True)
class GradientBounds:
    """Closed-form bounds on the four gradient contributions to the kernel.

    same_object: legs of the differentiated loop against each other.
    cross_type: legs of other path objects of the remaining types.
    background: loops of the surrounding gas near the box.
    external: static points far from the box, controlled by the growth sum.
    """

    same_object: float
    cross_type: float
    background: float
    external: float

    def total(self):
        return self.same_object + self.cross_type + self.background + self.external


def gradient_bound_constants(counts, box0, params, tail_fit, b_value):
    """Evaluate the four gradient-bound constants for path counts `counts`.

    counts is the per-type number of open paths pinned in box0.  tail_fit is
    the (c0, c1) Gaussian envelope of the deviation tails; its c1 sets the
    spatial integral in the background term, whose additive constant is
    taken as zero.  b_value is the external control bound evaluated at the
    suggested growth constant.  Every term carries the potential-gradient
    supremum, so a gradient-free model yields all zeros.
    """
    beta = params.beta
    d = box0.dimension
    q = params.n_types
    vbar1 = params.max_gradient
    if len(counts) != q:
        raise ValueError("need one path count per type")
    if vbar1 == 0.0:  # even against an infinite b_value
        return GradientBounds(0.0, 0.0, 0.0, 0.0)
    th0 = [loop_moment(0, z, beta, d).value for z in params.fugacity]
    th1 = [loop_moment(1, z, beta, d).value for z in params.fugacity]
    th2 = [loop_moment(2, z, beta, d).value for z in params.fugacity]
    fact = 1.0
    fact_weighted = 1.0
    for i, n in enumerate(counts):
        fact *= math.factorial(n) * (1.0 + th0[i]) ** n
        fact_weighted *= math.factorial(n) * n * (1.0 + th0[i]) ** n
    th1_max = max(th1)
    th2_max = max(th2)
    a1 = 0.5 * beta * vbar1 * th2_max * fact
    a2 = beta * (q - 1) * vbar1 * sum(th1) * th1_max * fact_weighted
    c0, c1 = tail_fit
    reach_integral = (2.0 * box0.half_side + math.sqrt(math.pi / c1)) ** d
    a3 = 2.0 * beta * vbar1 * sum(th0) * th1_max * fact_weighted \
        * (c0 * reach_integral)
    a4 = beta * vbar1 * fact * b_value
    return GradientBounds(a1, a2, a3, a4)


def multiplicity_tail_bound(k0, box0, params):
    """Closed-form bound on P(some type's total multiplicity in box0 >= k0).

    Product over types of exp(volume * (1 + Theta_0)) times the split sum:
    configurations with more than sqrt(k0) loops in the box, plus
    configurations where some loop alone carries multiplicity >= sqrt(k0).
    """
    if k0 < 1:
        raise ValueError("k0 must be >= 1")
    v = box0.volume
    beta = params.beta
    d = box0.dimension
    root = math.sqrt(k0)
    n_low = int(math.floor(root))
    k_start = int(math.ceil(root))
    pref = 1.0
    for z in params.fugacity:
        pref *= _exp_or_inf(v * (1.0 + loop_moment(0, z, beta, d, tol=1e-13).value))
    if math.isinf(pref):  # inf is still a bound
        return math.inf
    term_many = 0.0
    term_heavy = 0.0
    for z in params.fugacity:
        th = loop_moment(-1, z, beta, d, tol=1e-13).value
        x = v * th
        # tail of the exponential series: n > n_low
        t = x ** (n_low + 1) / math.factorial(n_low + 1)
        tail = 0.0
        for n in itertools.count(n_low + 2):
            tail += t
            t *= x / n
            if t < 1e-18 * max(tail, 1e-300):
                break
        term_many += tail
        # heavy single-loop intensity: k >= k_start
        heavy = 0.0
        for k in itertools.count(k_start):
            add = loop_intensity(z, beta, d, k)
            heavy += add
            if add * z / (1.0 - z) <= 1e-17:
                break
        weights = sum(n * (v ** n) * th ** (n - 1) / math.factorial(n)
                      for n in range(1, n_low + 1))
        term_heavy += heavy * weights
    return pref * (term_many + term_heavy)


def dirichlet_interval_trace(half_side, beta):
    """Trace of the absorbing-boundary Gibbs kernel on (-L, L), generator -
    half the Laplacian: sum_{n>=1} exp(-c n^2), c = beta*pi^2/(8 L^2).

    Stops at the first N whose tail, at most
    exp(-c (N+1)^2) / (1 - exp(-2c (N+1))), is below half an ulp of the sum.
    """
    L = float(half_side)
    c = 0.5 * beta * (math.pi / (2.0 * L)) ** 2
    total = 0.0
    for n in itertools.count(1):
        total += math.exp(-0.5 * beta * (n * math.pi / (2.0 * L)) ** 2)
        if math.exp(-c * (n + 1) ** 2) <= HALF_ULP * total * -math.expm1(-2.0 * c * (n + 1)):
            return total


def dirichlet_box_trace(half_side, beta, d):
    """Product over coordinates: trace on the d-dimensional cube."""
    return dirichlet_interval_trace(half_side, beta) ** d
