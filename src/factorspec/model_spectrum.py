"""Theoretical residual spectral density for AR(1)-correlated noise.

The model's Green's function G(z) = (M(z) + 1) / z solves a quartic in the
moment generating function M. On the real axis the quartic's coefficients
are real, and inside the support exactly one complex-conjugate pair of
roots appears, so the density rho(lambda) = -Im G(lambda) / pi is the one
positive value among the four roots: a closed form at each lambda, with no
branch to track. The support [lo, hi] is bounded by the positive real roots
of the quartic's discriminant in z, which are Marchenko-Pastur's
(1 -+ sqrt c)^2 at b = 0. The density is built on cosine-spaced nodes over
the support and taken as piecewise linear between them. The width epsilon
convolves it with a Cauchy kernel; for a piecewise-linear density the smoothed
CDF and its derivative have closed forms (`bin_curve`, `smoothed_density`).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as poly, polyutils

from .errors import ModelDensityError

DEFAULT_EPSILON = 1e-3
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
    """Polish roots m (n, 4) with Newton steps on the quartic rows coeffs
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
    """|P(m)| <= _ROOT_TOL * sum_k |c_k| |m|^k for roots m (n, 4) of the
    quartic rows coeffs (n, 5): m is an exact root of a quartic whose
    coefficients differ from P's by a relative _ROOT_TOL at most."""
    c4, c3, c2, c1, c0 = coeffs.T[:, :, None]
    a4, a3, a2, a1, a0 = np.abs(coeffs).T[:, :, None]
    r = np.abs(m)
    value = (((c4 * m + c3) * m + c2) * m + c1) * m + c0
    scale = (((a4 * r + a3) * r + a2) * r + a1) * r + a0
    return np.abs(value) <= _ROOT_TOL * scale


_CUBE_ROOTS_OF_UNITY = np.exp(2j * np.pi / 3.0 * np.arange(3))


def _ferrari(coeffs: np.ndarray) -> np.ndarray:
    """The four roots of each quartic row c4 m^4 + c3 m^3 + c2 m^2 + c1 m + c0
    of an (n, 5) array by Ferrari's method, as an (n, 4) array."""
    a3, a2, a1, a0 = (coeffs[:, 1:] / coeffs[:, :1]).T
    # depressed quartic y^4 + p y^2 + q y + r in y = m + shift: its
    # coefficients are the Taylor coefficients of the monic quartic at -shift
    shift = 0.25 * a3
    sq = shift * shift
    p = a2 - 6.0 * sq
    q = a1 - 2.0 * shift * (a2 - 4.0 * sq)
    r = a0 - shift * (a1 - shift * (a2 - 3.0 * sq))
    # A root s of the resolvent cubic s^3 + p s^2 + e s - q^2 / 8 splits the
    # quartic into two quadratics. Cardano on t^3 + f t + g with s = t - p / 3,
    # taking the larger of -g / 2 +- h so that nothing cancels.
    pp = p * p
    e = 0.25 * pp - r
    f = e - pp / 3.0
    g = p * (2.0 / 27.0 * pp - e / 3.0) - 0.125 * q * q
    h = np.sqrt(0.25 * g * g + f * f * f / 27.0)
    h = np.where((g.conjugate() * h).real > 0, -h, h)
    u = (h - 0.5 * g) ** (1.0 / 3.0)
    v = f / (-3.0 * u)  # u = 0 only where f = g = 0: a non-finite row
    # the three resolvent roots; the one of largest modulus splits best
    s = u[:, None] * _CUBE_ROOTS_OF_UNITY + v[:, None] * _CUBE_ROOTS_OF_UNITY.conj()
    s -= (p / 3.0)[:, None]
    s = s[np.arange(s.shape[0]), np.argmax(np.abs(s), axis=1)]
    k = np.sqrt(2.0 * s)
    qk = q / k  # k = 0 only where p = q = r = 0: a non-finite row
    ps = p + s
    # the quadratics y^2 -+ k y + p / 2 + s +- qk / 2
    d1 = np.sqrt(-2.0 * (ps + qk))
    d2 = np.sqrt(-2.0 * (ps - qk))
    y = np.concatenate([k + d1, k - d1, d2 - k, -k - d2]).reshape(4, -1).T
    return 0.5 * y - shift[:, None]


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


def _quartic(b: float, c: float) -> tuple[np.ndarray, ...]:
    """The moment polynomial's coefficients, highest degree in M first, each
    a polynomial in z given by its coefficients, lowest degree first."""
    a2 = 1.0 - b * b
    a4 = a2 * a2
    w = -2.0 * a2 * c * (1.0 + b * b)
    return tuple(
        np.array(p)
        for p in ([a4 * c * c], [2.0 * a4 * c * c, w], [(c * c - 1.0) * a4, w, a4], [-2.0 * a4], [-a4])
    )


def _solve_many(zs: np.ndarray, b: float, c: float) -> tuple[np.ndarray, np.ndarray]:
    """All four roots of the moment polynomial at each z. Returns
    (roots[n,4], coeffs[n,5]).

    Ferrari's closed form, polished by three Newton steps. A row whose roots
    fail `_is_root`, non-finite ones included, is solved from its companion
    matrix instead: on the default nodes, 3 rows in 160,000, each next to
    the upper edge at b = 0.95, where two roots nearly coincide. Every row
    is computed the same way whatever n is, so a z gets the same bits in any
    batch."""
    zs = np.asarray(zs, dtype=complex)
    coeffs = np.stack([poly.polyval(zs, p) for p in _quartic(b, c)], axis=1)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        roots = _newton_refine(_ferrari(coeffs), coeffs, steps=3)
        failed = ~np.all(_is_root(roots, coeffs), axis=1)
        if failed.any():
            roots[failed] = _companion_roots(coeffs[failed])
    return roots, coeffs


def _support(params: NoiseModelParams) -> tuple[float, float]:
    """The support [lo, hi] of the model density: the positive real roots of
    the quartic's discriminant in z, where a complex-conjugate pair of roots
    appears and vanishes. At b = 0 they are (1 -+ sqrt c)^2."""
    q4, q3, q2, q1, q0 = _quartic(params.b, params.c)
    mul, add, sub, pow_ = poly.polymul, poly.polyadd, poly.polysub, poly.polypow
    # i = 12 q4 q0 - 3 q3 q1 + q2^2
    i = add(sub(mul(12.0 * q4, q0), mul(3.0 * q3, q1)), pow_(q2, 2))
    # j = 72 q4 q2 q0 + 9 q3 q2 q1 - 27 (q4 q1^2 + q0 q3^2) - 2 q2^3
    j = sub(
        sub(
            add(mul(mul(72.0 * q4, q2), q0), mul(mul(9.0 * q3, q2), q1)),
            27.0 * add(mul(q4, pow_(q1, 2)), mul(q0, pow_(q3, 2))),
        ),
        2.0 * pow_(q2, 3),
    )
    # 4 i^3 - j^2 is 27 times the discriminant, a polynomial of degree 8 in z
    # (the terms past z^8 cancel). z = 0 is a double root, since (M + 1)^2
    # divides the quartic there. At b = 0 the degree drops to 6, and what is
    # left of the top terms is rounding.
    disc = sub(4.0 * pow_(i, 3), pow_(j, 2))[2:9]
    roots = poly.polyroots(polyutils.trimcoef(disc, 1e-12 * np.abs(disc).max()))
    edges = np.sort(roots.real[(roots.real > 0) & (np.abs(roots.imag) <= 1e-9 * np.abs(roots))])
    if edges.size != 2:
        raise ModelDensityError(
            f"the support at b={params.b}, c={params.c} is not one interval: "
            f"discriminant roots {edges}"
        )
    return float(edges[0]), float(edges[1])


def default_lambda_grid(
    params: NoiseModelParams, n_points: int = DEFAULT_NODES
) -> np.ndarray:
    """Cosine-spaced nodes over the support [lo, hi], denser toward both
    edges: lo + (hi - lo) (1 - cos(pi u)) / 2 for u evenly spaced in [0, 1].
    The first and last nodes are the edges themselves."""
    lo, hi = _support(params)
    nodes = lo + 0.5 * (hi - lo) * (1.0 - np.cos(np.linspace(0.0, np.pi, n_points)))
    nodes[-1] = hi
    return nodes


def model_density_curve(params: NoiseModelParams, nodes: np.ndarray) -> np.ndarray:
    """The exact model density at `default_lambda_grid`'s nodes, whose first
    and last are the support's edges, where it is 0. At each node between
    them the quartic has one complex-conjugate pair of roots M, and the
    density is the one positive value of -Im((M + 1) / lambda) / pi among
    the four roots."""
    inner = nodes[1:-1]
    roots, _ = _solve_many(inner, params.b, params.c)
    rho = np.zeros(inner.size + 2)
    rho[1:-1] = np.clip(-roots.imag.min(axis=1), 0.0, None) / (math.pi * inner)
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
    convolved with a Cauchy kernel of finite width epsilon > 0, at each
    lambda of a grid: rho(x) + eps sum_j s_j I((x - lambda_j) / eps) over
    the `_tail` knots, the derivative of the CDF that `bin_curve` bins."""
    if not 0 < epsilon < math.inf:
        raise ValueError("epsilon must be positive and finite")
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
