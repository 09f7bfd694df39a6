"""Theoretical residual spectral density for AR(1)-correlated noise.

The model's Green's function G(z) = (M(z) + 1) / z solves a quartic in the
moment generating function M whose coefficients are polynomials in z of
degree at most 2, each node's row built by Horner in z. On the real axis
the quartic's coefficients are real, and inside the support exactly one
complex-conjugate pair of roots appears, so the density rho(lambda) = -Im
G(lambda) / pi is read from the root of that pair with negative imaginary
part: a closed form at each lambda, with no branch to track
(`_density_root`). The support [lo, hi] is bounded by the critical values
of the inverse z(M) (`_support`), which are Marchenko-Pastur's (1 -+ sqrt
c)^2 at b = 0. The density is built on cosine-spaced nodes over the support
and taken as piecewise linear between them. The width epsilon convolves it
with a Cauchy kernel; for a piecewise-linear density the smoothed CDF and
its derivative have closed forms (`bin_curve`, `smoothed_density`).
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
_ROOT_TOL = 1e-12  # the relative backward error that `_is_root` accepts


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


def _newton_refine(m: np.ndarray, coeffs: np.ndarray, steps: int = 2) -> np.ndarray:
    """Polish roots m (n, k) with Newton steps on the quartic rows coeffs
    (n, 5), highest degree first. A zero derivative makes the root
    non-finite: call it under np.errstate."""
    c4, c3, c2, c1, c0 = coeffs.T[:, :, None]
    d3, d2, d1 = 4.0 * c4, 3.0 * c3, 2.0 * c2
    for _ in range(steps):
        p = (((c4 * m + c3) * m + c2) * m + c1) * m + c0
        dp = ((d3 * m + d2) * m + d1) * m + c1
        m = m - p / dp
    return m


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


def _companion_roots(coeffs: np.ndarray) -> np.ndarray:
    """Roots of each (5,) coefficient row as companion-matrix eigenvalues,
    polished by Newton."""
    comp = np.zeros((coeffs.shape[0], 4, 4), dtype=complex)
    comp[:, 0, :] = -coeffs[:, 1:] / coeffs[:, :1]
    comp[:, 1, 0] = 1.0
    comp[:, 2, 1] = 1.0
    comp[:, 3, 2] = 1.0
    raw = np.linalg.eigvals(comp)
    polished = _newton_refine(raw, coeffs)
    return np.where(np.isfinite(polished), polished, raw)


def _density_root(zs: np.ndarray, b: float, c: float) -> np.ndarray:
    """At each real z inside the support, the root M of the moment
    polynomial with negative imaginary part, whose -Im((M + 1) / z) / pi is
    the density there. With a4 = (1 - b^2)^2 and w = -2 c (1 - b^4), the
    polynomial is a4 c^2 M^4 + (2 a4 c^2 + w z) M^3 + ((c^2 - 1) a4 + (w +
    a4 z) z) M^2 - 2 a4 M - a4, each row written in place by Horner in z.

    Ferrari in real arithmetic: the resolvent cubic has one real root s > 0,
    which splits the quartic into two real quadratics, and M is a root of
    the one whose discriminant is negative. M is polished by three Newton
    steps. A row whose M fails `_is_root` is solved from its companion
    matrix instead; that includes a non-finite M, which is what an edge
    row gives when rounding makes s or a radicand negative. On the default
    nodes 10 rows in 1.57 million fall back (b from 0 to 0.95 by 0.01, 8 c
    from 0.01 to 0.99), each at one of the last three nodes below the upper
    edge at b >= 0.94 and c >= 0.47. Every row is computed the same way
    whatever n is, so a z gets the same bits in any batch."""
    a4 = (1.0 - b * b) * (1.0 - b * b)
    w = -2.0 * (1.0 - b * b) * c * (1.0 + b * b)
    coeffs = np.empty((zs.size, 5))
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
        m = _newton_refine(m[:, None], coeffs, steps=3)
        failed = ~_is_root(m, coeffs)[:, 0]
        if failed.any():
            roots = _companion_roots(coeffs[failed])
            m[failed, 0] = roots[np.arange(roots.shape[0]), np.argmin(roots.imag, axis=1)]
    return m[:, 0]


def _support(params: NoiseModelParams) -> tuple[float, float]:
    """The support [lo, hi] of the model density, the critical values of
    z(M) (Silverstein and Choi 1995). In t = M z / (M + 1) the quartic is
    (1 - b^2)^2 (M + 1)^2 (t^2 - k M t + c^2 M^2 - 1), k = 2 c (1 + b^2) /
    (1 - b^2), a conic, and dz/dM = 0 for z = t (M + 1) / M at the two real
    roots (Descartes) of 4 c^4 b^2 M^6 + c^2 (1 + b^2)^2 M^4 + 8 c^2 b^2 M^3
    - (1 - b^2)^2, where t = (1 + c^2 M^3) (1 - b^2) / (c (1 + b^2) M^2).
    In v = 1 / (sqrt(c) M), of order 1 at small c, no coefficient cancels
    and z = (v^2 + sqrt(c) / v) (1 + sqrt(c) v) (1 - b^2) / (1 + b^2). At
    b = 0, v = -+1 gives (1 -+ sqrt c)^2; at c = 1, v = -1 + e gives
    lo = -3 e^2 (1 - b^2) / (1 + b^2) <= 0, which is refused."""
    b, c = params.b, params.c
    b2, r = b * b, math.sqrt(c)
    edges = np.zeros(0)
    if c * c * c < math.inf:  # then so is hi^2, the size of the quartic on the support
        # np.roots gives a zero constant term (b = 0) the root 0; a real root has imag 0
        v = np.roots([-((1 - b2) ** 2), 0, 0, 8 * r * b2, (1 + b2) ** 2, 0, 4 * b2 * c])
        v = v[(v.imag == 0) & (v != 0)].real
        edges = np.sort((v * v + r / v) * (1 + r * v) * (1 - b2) / (1 + b2))
    if not (edges.size == 2 and 0.0 < edges[0] < edges[1]):
        raise ModelDensityError(f"no support 0 < lo < hi at b={b}, c={c}: edges {edges}")
    return float(edges[0]), float(edges[1])


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


def _tail(nodes: np.ndarray, rho: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every `_TAIL_STEP`-th node and the last, with the jumps in the slope
    of rho taken as piecewise linear between them (zero slope outside).
    The Cauchy smoothing sums over these knots only."""
    pick = np.r_[0 : nodes.size - 1 : _TAIL_STEP, nodes.size - 1]
    knots = nodes[pick]
    slopes = np.diff(rho[pick]) / np.diff(knots)
    return knots, np.diff(slopes, prepend=0.0, append=0.0)


def _cdf_kernel(u: np.ndarray) -> np.ndarray:
    """K(u): a unit slope jump at 0 adds eps^2 K(x / eps) to the CDF of a
    piecewise-linear density convolved with a Cauchy kernel of width eps.
    With a = |u|, K = sign(u) [1/4 - ((a^2 + 1) / 2 atan(1 / a) - a / 2 +
    (a / 2) ln(1 + a^2) + atan a) / pi], here with atan a = pi/2 - atan(1/a)."""
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
    over the `_tail` knots, the derivative of the CDF that `bin_curve` bins."""
    if not EPSILON_MIN <= epsilon < math.inf:
        raise ValueError(f"epsilon must be positive and finite, at least {EPSILON_MIN}")
    x = np.asarray(lambda_grid, dtype=float)
    knots, jumps = _tail(nodes, rho)
    return np.interp(x, nodes, rho) + epsilon * (
        _density_kernel((x[:, None] - knots) / epsilon) @ jumps
    )


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
    C(x) = C0(x) + eps^2 sum_j s_j K((x - lambda_j) / eps), C0 being the
    unsmoothed CDF; the sum runs over the `_tail` knots. No mass lies below
    0: the masses are divided by 1 - C(0), and the mass between 0 and the
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
    knots, jumps = _tail(nodes, rho)
    at_x += epsilon * epsilon * (_cdf_kernel((x[:, None] - knots) / epsilon) @ jumps)
    return np.diff(np.append(at_x, cdf[-1])) / (1.0 - at_x[0])
