"""Theoretical residual spectral density for AR(1)-correlated noise.

The model's Green's function G(z) = (M(z) + 1) / z solves a quartic in the
moment generating function M whose coefficients are polynomials in z of
degree at most 2, each node's row built by Horner in z. On the real axis
the quartic's coefficients are real, and inside the support exactly one
complex-conjugate pair of roots appears, so the density rho(lambda) = -Im
G(lambda) / pi is read from the root of that pair with negative imaginary
part: a closed form at each lambda, with no branch to track, polished by
Newton, and an Aberth-Ehrlich iteration where the closed form fails
(`_density_root`). The support [lo, hi] is bounded by the critical values
of the inverse z(M) (`_support`), which are Marchenko-Pastur's (1 -+
sqrt c)^2 at b = 0, found by bracketed Newton on a real sextic. So a
build calls no LAPACK routine and no complex eigensolver. The density is
built on cosine-spaced nodes over the support and taken as
piecewise linear between them. The width epsilon convolves it with a
Cauchy kernel; for a piecewise-linear density the smoothed CDF and its
derivative have closed forms (`bin_curve`, `smoothed_density`).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ModelDensityError

DEFAULT_EPSILON = 1e-3
# The narrowest smoothing. The Cauchy kernels square a = |x - lambda| / epsilon,
# which overflows past 1.3e154, so at this floor any |x - lambda| below 1.3e4
# stays finite: every point of a written curve (the support ends below 46),
# and every bin edge of a window whose top eigenvalue is below 1.2e4.
EPSILON_MIN = 1e-150
DEFAULT_B_MAX = 0.95
# Cosine-spaced nodes: the trapezoid mass is within 5e-7 of 1 at every b.
DEFAULT_NODES = 2049
# The Cauchy smoothing sums over every 8th node, 257 of the default 2049:
# a kernel term per bin edge and node is what binning a new span costs.
_TAIL_STEP = 8
_BIN_BLOCK = 16  # points whose Cauchy kernel rows `_kernel_sum` fills at once
_ROOT_TOL = 1e-12  # the relative backward error that `_is_root` accepts
# `_aberth_roots` stops when no root moves by more than _ABERTH_TOL of itself,
# or after _ABERTH_STEPS steps; `_polish` takes the root it is used for from there.
_ABERTH_TOL = 1e-10
_ABERTH_STEPS = 100
# `_polish` steps a row again while its last Newton step moved it by more than
# _POLISH_TOL of itself, at most _POLISH_STEPS times (7 on the default nodes).
_POLISH_TOL = 1e-12
_POLISH_STEPS = 16
_EDGE_STEPS = 64  # a cap on `_edge_root`'s steps; `_support` needs at most 7 values of h


@dataclass(frozen=True)
class NoiseModelParams:
    """AR(1) coefficient b and aspect ratio c = N/T."""

    b: float
    c: float

    def __post_init__(self):
        if not (0.0 <= self.b <= DEFAULT_B_MAX):
            raise ValueError(f"b={self.b} outside [0, {DEFAULT_B_MAX}]")
        if not (self.c > 0 and math.isfinite(self.c)):
            raise ValueError(f"aspect ratio c={self.c} must be finite and positive")


def _is_root(m: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """|P(m)| <= _ROOT_TOL * sum_k |c_k| |m|^k for roots m (n, k) of the
    quartic rows coeffs (n, 5): m is an exact root of a quartic whose
    coefficients differ from P's by a relative _ROOT_TOL at most."""
    c4, c3, c2, c1, c0 = coeffs.T[:, :, None]
    a4, a3, a2, a1, a0 = np.abs(coeffs).T[:, :, None]
    r = np.abs(m)
    value = (((c4 * m + c3) * m + c2) * m + c1) * m + c0
    scale = (((a4 * r + a3) * r + a2) * r + a1) * r + a0
    return np.abs(value) <= _ROOT_TOL * scale


def _aberth_roots(coeffs: np.ndarray) -> np.ndarray:
    """The four roots of each (5,) coefficient row by the Aberth-Ehrlich
    iteration. It starts on the circle |M| = |c0 / c4|^(1/4), the roots'
    geometric-mean modulus, at angles turned so that no two starts are
    conjugate, and stops once no root moves by more than _ABERTH_TOL of
    itself: within 20 steps on each of the 1.57 million rows that
    `_density_root` notes below, all run through it."""
    a3, a2, a1, a0 = (coeffs[:, 1:] / coeffs[:, :1]).T[:, :, None]
    b3, b2 = 3.0 * a3, 2.0 * a2
    m = np.abs(a0) ** 0.25 * np.exp(1j * (0.4 + 0.5 * math.pi * np.arange(4)))
    pole = np.diag(np.full(4, np.inf))  # leaves each root out of its own sum
    for _ in range(_ABERTH_STEPS):
        ratio = ((((m + a3) * m + a2) * m + a1) * m + a0) / (((4.0 * m + b3) * m + b2) * m + a1)
        step = ratio / (1.0 - ratio * (1.0 / (m[:, :, None] - m[:, None, :] + pole)).sum(axis=2))
        m = m - step
        if np.all(np.abs(step) <= _ABERTH_TOL * np.abs(m)):
            break
    return m


def _density_root(zs: np.ndarray, b: float, c: float) -> np.ndarray:
    """At each real z inside the support, the root M of the moment
    polynomial with negative imaginary part, whose -Im((M + 1) / z) / pi is
    the density there. With a4 = (1 - b^2)^2 and w = -2 c (1 - b^4), the
    polynomial is a4 c^2 M^4 + (2 a4 c^2 + w z) M^3 + ((c^2 - 1) a4 + (w +
    a4 z) z) M^2 - 2 a4 M - a4, each row written in place by Horner in z.

    Ferrari in real arithmetic: the resolvent cubic has one real root s > 0,
    which splits the quartic into two real quadratics, and M is a root of
    the one whose discriminant is negative. Next to an edge the pair nearly
    meets, so Ferrari's M can be off by 5e-4 of itself there; `_polish`
    takes it to the root by Newton. A row whose M then fails `_is_root` is
    solved by `_aberth_roots` instead; that includes a non-finite M, which
    is what an edge row gives when rounding makes s or a radicand negative.
    On the default nodes 2 rows in 1.57 million fall back (b from 0 to 0.95
    by 0.01, 8 c from 0.01 to 0.99), each at the last node below the upper
    edge, at b = 0.95 and c = 0.43 and 0.71. Every row is computed the same
    way whatever n is, so a z gets the same bits in any batch."""
    a4 = (1.0 - b * b) * (1.0 - b * b)
    w = -2.0 * (1.0 - b * b) * c * (1.0 + b * b)
    coeffs = np.empty((5, zs.size)).T  # column-major: the Horner sums read columns
    coeffs[:, 0] = a4 * c * c
    coeffs[:, 1] = 2.0 * a4 * c * c + w * zs
    coeffs[:, 2] = (c * c - 1.0) * a4 + (w + a4 * zs) * zs
    coeffs[:, 3] = -2.0 * a4
    coeffs[:, 4] = -a4
    a3, a2, a1, a0 = (coeffs[:, 1:] / coeffs[:, :1]).T
    # depressed quartic y^4 + p y^2 + q y + r in y = M + shift: its
    # coefficients are the Taylor coefficients of the monic quartic at -shift
    shift = 0.25 * a3
    sq = shift * shift
    p = a2 - 6.0 * sq
    q = a1 - 2.0 * shift * (a2 - 4.0 * sq)
    r = a0 - shift * (a1 - shift * (a2 - 3.0 * sq))
    # the resolvent cubic s^3 + p s^2 + e s - q^2 / 8, by Cardano on
    # t^3 + f t + g with s = t - p / 3, the sign taken so that nothing cancels
    pp = p * p
    e = 0.25 * pp - r
    f = e - pp / 3.0
    g = p * (2.0 / 27.0 * pp - e / 3.0) - 0.125 * q * q
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        h = np.sqrt(0.25 * g * g + f * f * f / 27.0)
        u = np.cbrt(-0.5 * g - np.copysign(h, g))
        s = u - f / (3.0 * u) - p / 3.0
        k = np.sqrt(2.0 * s)
        qk = q / k
        # the quadratics y^2 -+ k y + p / 2 + s +- qk / 2: the one with the
        # larger constant term has the complex pair
        m = np.copysign(0.5 * k, qk) - shift - 0.5j * np.sqrt(2.0 * (p + s + np.abs(qk)))
        m = _polish(m, coeffs)
        failed = ~_is_root(m[:, None], coeffs)[:, 0]
        if failed.any():
            roots = _aberth_roots(coeffs[failed])
            m[failed] = _polish(
                roots[np.arange(roots.shape[0]), np.argmin(roots.imag, axis=1)], coeffs[failed]
            )
    return m


def _polish(m: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """Newton steps on the roots m (n,) with Im m < 0 of the quartic rows
    coeffs (n, 5), written into m, each row on its own and only on the rows
    still moving. A row takes a step only if it keeps Im m < 0 and, after
    the first, is at most half the last one, so Newton converges or the row
    stops: at a near-double root rounding stalls the steps, and a larger
    one would leave for another root. It steps again while its last step
    was above _POLISH_TOL of |m|. On the default nodes (b from 0 to 0.95 by
    0.01, 8 c from 0.01 to 0.99) each of the 1.57 million rows computes one
    step, 22% a second, 0.6% a third, and one row the most, 7."""
    rows, last, x, cols = np.arange(m.size), math.inf, m, coeffs.T
    for _ in range(_POLISH_STEPS):
        c4, c3, c2, c1, c0 = cols
        step = ((((c4 * x + c3) * x + c2) * x + c1) * x + c0) / (
            ((4.0 * c4 * x + 3.0 * c3) * x + 2.0 * c2) * x + c1
        )
        x = x - step
        size = np.abs(step)
        take = (size <= 0.5 * last) & (x.imag < 0)
        m[rows[take]] = x[take]
        moving = take & (size > _POLISH_TOL * np.abs(x))
        if not moving.any():
            break
        rows, last, x, cols = rows[moving], size[moving], x[moving], cols[:, moving]
    return m


def _edge_root(h, v: float, near: float, far: float) -> float:
    """The root of h, monotone between near, where h > 0, and far, where
    h < 0, by Newton steps from v between them. Each value of h narrows the
    bracket, and a step that leaves it is replaced by bisection. It stops
    once a step is below 1e-14 of v, which it takes."""
    for _ in range(_EDGE_STEPS):
        value, slope = h(v)
        step = value / slope
        if abs(step) <= 1e-14 * abs(v):
            return v - step
        near, far = (v, far) if value > 0 else (near, v)
        v -= step
        if not min(near, far) < v < max(near, far):
            v = 0.5 * (near + far)
    return v


def _support(params: NoiseModelParams) -> tuple[float, float]:
    """The support [lo, hi] of the model density, the critical values of
    z(M) (Silverstein and Choi 1995). In t = M z / (M + 1) the quartic is
    (1 - b^2)^2 (M + 1)^2 (t^2 - k M t + c^2 M^2 - 1), k = 2 c (1 + b^2) /
    (1 - b^2), a conic, and dz/dM = 0 for z = t (M + 1) / M at the real
    roots of 4 c^4 b^2 M^6 + c^2 (1 + b^2)^2 M^4 + 8 c^2 b^2 M^3 - (1 -
    b^2)^2, where t = (1 + c^2 M^3) (1 - b^2) / (c (1 + b^2) M^2). In
    v = 1 / (sqrt(c) M), of order 1 at small c, no coefficient cancels: z =
    (v^2 + sqrt(c) / v) (1 + sqrt(c) v) (1 - b^2) / (1 + b^2), and the
    sextic is v^2 h(v) with h = q + d / v^2 + e v - a v^4, a = (1 - b^2)^2,
    q = (1 + b^2)^2, e = 8 sqrt(c) b^2 and d = 4 b^2 c.

    So each sign of v holds one root, found in real arithmetic by
    `_edge_root`. For v < 0, h' = e - 2 d / v^3 - 4 a v^3 > 0, and h rises
    to +inf (to q at b = 0). For v > 0, h > 0 below s, the largest of g =
    (q / a)^(1/4), f = (d / a)^(1/6) and (e / a)^(1/3), where a v^4 meets
    q, d / v^2 and e v; past s, a v^3 >= e, so h' < 0. At -+2 s, a v^4
    exceeds q + d / v^2 + e |v|, so h < 0. The search for v > 0 starts at
    s, and for v = -u < 0 where the larger of a u^4 and e u meets the
    larger of q and d / u^2, so it takes at most 7 values of h for any b
    and any c up to 5e102. At b = 0, h = 1 - v^4, and v = -+1 gives (1 -+
    sqrt c)^2. At c = 1, v = -1 + eps gives lo = -3 eps^2 (1 - b^2) / (1 +
    b^2) <= 0, which is refused."""
    b, c = params.b, params.c
    b2, r = b * b, math.sqrt(c)
    lo = hi = math.nan
    if c * c * c < math.inf:  # then so is hi^2, the size of the quartic on the support
        a, q, e, d = (1 - b2) ** 2, (1 + b2) ** 2, 8 * r * b2, 4 * b2 * c

        def h(v):
            v2 = v * v
            return q + d / v2 + v * (e - a * v2 * v), e - 2 * d / (v2 * v) - 4 * a * v2 * v

        def z(v):
            return (v * v + r / v) * (1 + r * v) * (1 - b2) / (1 + b2)

        g, f = (q / a) ** 0.25, (d / a) ** (1 / 6)
        s = max(g, f, (e / a) ** (1 / 3))
        t = min(max(g, f), max(q / e, (d / e) ** (1 / 3))) if e else g
        lo, hi = z(_edge_root(h, -t, 0.0, -2 * s)), z(_edge_root(h, s, s, 2 * s))
    if not 0.0 < lo < hi:
        raise ModelDensityError(f"no support 0 < lo < hi at b={b}, c={c}: edges ({lo}, {hi})")
    return lo, hi


def default_lambda_grid(
    params: NoiseModelParams, n_points: int = DEFAULT_NODES
) -> np.ndarray:
    """Cosine-spaced nodes over the support [lo, hi], denser toward both
    edges: lo + (hi - lo) (1 - cos(pi u)) / 2 for u evenly spaced in [0, 1],
    the first and last being the edges. ModelDensityError if two coincide."""
    lo, hi = _support(params)
    nodes = lo + 0.5 * (hi - lo) * (1.0 - np.cos(np.linspace(0.0, np.pi, n_points)))
    nodes[-1] = hi
    if not np.all(np.diff(nodes) > 0):
        raise ModelDensityError(f"support [{lo}, {hi}] too narrow for {n_points} distinct nodes")
    return nodes


def model_density_curve(params: NoiseModelParams, nodes: np.ndarray) -> np.ndarray:
    """The exact model density at `default_lambda_grid`'s nodes, whose first
    and last are the support's edges, where it is 0. At each node between
    them the quartic has one complex-conjugate pair of roots, and the
    density is -Im((M + 1) / lambda) / pi = -Im M / (pi lambda) for M the
    pair's root with negative imaginary part."""
    inner = nodes[1:-1]
    rho = np.zeros(inner.size + 2)
    m = _density_root(inner, params.b, params.c)
    rho[1:-1] = np.clip(-m.imag, 0.0, None) / (math.pi * inner)
    return rho


def _kernel_sum(kernel, x: np.ndarray, nodes: np.ndarray, rho: np.ndarray, epsilon: float):
    """sum_j s_j kernel((x - lambda_j) / eps) at each x, over every
    `_TAIL_STEP`-th node and the last, s_j being the jumps in the slope of
    rho taken as piecewise linear between these knots (zero slope outside).
    The (x, knots) kernel array is filled `_BIN_BLOCK` rows at a time, so
    its temporaries stay block-sized, and summed by one product over the
    whole array, which keeps the bits of the one-expression form."""
    pick = np.r_[0 : nodes.size - 1 : _TAIL_STEP, nodes.size - 1]
    knots = nodes[pick]
    jumps = np.diff(np.diff(rho[pick]) / np.diff(knots), prepend=0.0, append=0.0)
    rows = np.empty((x.size, knots.size))
    for start in range(0, x.size, _BIN_BLOCK):
        block = slice(start, start + _BIN_BLOCK)
        rows[block] = kernel((x[block, None] - knots) / epsilon)
    return rows @ jumps


def _cdf_kernel(u: np.ndarray) -> np.ndarray:
    """K(u): a unit slope jump at 0 adds eps^2 K(x / eps) to the smoothed
    CDF. With a = |u|, K(u) = sign(u) [1/4 - ((a^2 + 1) / 2 atan(1 / a) -
    a / 2 + (a / 2) ln(1 + a^2) + atan a) / pi], here with atan a = pi/2 -
    atan(1/a)."""
    a = np.abs(u)
    return -np.sign(u) * (
        0.25 + ((a * a - 1.0) * np.arctan2(1.0, a) - a + a * np.log(1.0 + a * a)) / (2.0 * math.pi)
    )


def _density_kernel(u: np.ndarray) -> np.ndarray:
    """I(u) = K'(u) = -(a atan(1 / a) + ln(1 + a^2) / 2) / pi with a = |u|."""
    a = np.abs(u)
    return -(a * np.arctan2(1.0, a) + 0.5 * np.log(1.0 + a * a)) / math.pi


def smoothed_density(
    nodes: np.ndarray, rho: np.ndarray, lambda_grid, epsilon: float
) -> np.ndarray:
    """A density rho, piecewise linear on ascending nodes and 0 at both ends,
    convolved with a Cauchy kernel of finite width epsilon >= EPSILON_MIN,
    at each lambda of a grid: rho(x) + eps sum_j s_j I((x - lambda_j) / eps)
    by `_kernel_sum`, the derivative of the CDF that `bin_curve` bins."""
    if not EPSILON_MIN <= epsilon < math.inf:
        raise ValueError(f"epsilon must be positive and finite, at least {EPSILON_MIN}")
    x = np.asarray(lambda_grid, dtype=float)
    return np.interp(x, nodes, rho) + epsilon * _kernel_sum(_density_kernel, x, nodes, rho, epsilon)


def check_density(values: np.ndarray, what: str) -> np.ndarray:
    """`values`, or ModelDensityError naming `what` if one is negative or
    not finite. Smoothing far wider than the support leaves such values: at
    b = 0.95, c = 0.472 and epsilon = 10 a bin mass of -5.9e-4."""
    low, high = values.min(), values.max()
    if not (low >= 0 and high < math.inf):
        raise ModelDensityError(
            f"model {what}: values from {low:.3g} to {high:.3g}, not all finite and nonnegative"
        )
    return values


def bin_curve(
    nodes: np.ndarray, rho: np.ndarray, bin_edges: np.ndarray, epsilon: float
) -> np.ndarray:
    """Bin masses of a density rho, piecewise linear on ascending nodes and 0
    at both ends, convolved with a Cauchy kernel of width epsilon > 0.

    With s_j the jump in rho's slope at node j, the smoothed CDF is
    C(x) = C0(x) + eps^2 sum_j s_j K((x - lambda_j) / eps) by `_kernel_sum`
    and `_cdf_kernel`, C0 being the unsmoothed CDF. No mass lies below 0:
    the masses are divided by 1 - C(0), and the mass between 0 and the
    first edge joins the first bin. Mass past the last edge folds into the
    last bin. So the masses sum to (m - C(0)) / (1 - C(0)), m being rho's
    trapezoid mass."""
    x = np.array(bin_edges[:-1], dtype=float)
    x[0] = 0.0
    cells = np.diff(nodes)
    cdf = np.concatenate([[0.0], np.cumsum(0.5 * (rho[1:] + rho[:-1]) * cells)])
    i = np.clip(np.searchsorted(nodes, x, side="right") - 1, 0, cells.size - 1)
    t = np.clip(x - nodes[i], 0.0, cells[i])
    at_x = cdf[i] + t * (rho[i] + 0.5 * t * (rho[i + 1] - rho[i]) / cells[i])
    at_x += epsilon * epsilon * _kernel_sum(_cdf_kernel, x, nodes, rho, epsilon)
    return np.diff(np.append(at_x, cdf[-1])) / (1.0 - at_x[0])
