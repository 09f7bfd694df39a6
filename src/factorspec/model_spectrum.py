"""Theoretical residual spectral density for AR(1)-correlated noise.

The density is recovered from the Green's function of the noise covariance
ensemble: a quartic in the moment generating function M(z) is solved along
a lambda grid, the physical branch is tracked by continuity from large |z|,
and the density follows from rho = -(1/pi) Im G(lambda + i*eps).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NoPhysicalRoot

DEFAULT_EPSILON = 1e-3
DEFAULT_B_MAX = 0.95
DEFAULT_GRID_POINTS = 2000


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


def _per_root(coeffs: np.ndarray) -> np.ndarray:
    """(5, 4n) coefficients lined up with the roots (n, 4) raveled: same-shape
    operands keep numpy's per-call cost low when n is 1."""
    return np.repeat(coeffs.T, 4, axis=1)


def _newton_refine(m: np.ndarray, coeffs: np.ndarray, steps: int = 2) -> np.ndarray:
    """Polish roots m (n, 4) with Newton steps on the quartic rows coeffs
    (n, 5), highest degree first. A zero derivative makes the root
    non-finite: call it under np.errstate."""
    c4, c3, c2, c1, c0 = _per_root(coeffs)
    d3, d2, d1 = 4.0 * c4, 3.0 * c3, 2.0 * c2
    x = m.ravel()
    for _ in range(steps):
        p = (((c4 * x + c3) * x + c2) * x + c1) * x + c0
        dp = ((d3 * x + d2) * x + d1) * x + c1
        x = x - p / dp
    return x.reshape(m.shape)


def _is_root(m: np.ndarray, coeffs: np.ndarray, tol: float = 1e-12) -> np.ndarray:
    """|P(m)| <= tol * sum_k |c_k| |m|^k for roots m (n, 4) of the quartic
    rows coeffs (n, 5): m is an exact root of a quartic whose coefficients
    differ from P's by a relative tol at most."""
    c4, c3, c2, c1, c0 = _per_root(coeffs)
    a4, a3, a2, a1, a0 = _per_root(np.abs(coeffs))
    x = m.ravel()
    r = np.abs(x)
    value = (((c4 * x + c3) * x + c2) * x + c1) * x + c0
    scale = (((a4 * r + a3) * r + a2) * r + a1) * r + a0
    return (np.abs(value) <= tol * scale).reshape(m.shape)


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


def _solve_many(zs: np.ndarray, b: float, c: float) -> tuple[np.ndarray, np.ndarray]:
    """All four roots of the moment polynomial at each z. Returns
    (roots[n,4], coeffs[n,5]).

    Ferrari's closed form, polished by three Newton steps. A row whose roots
    fail `_is_root`, non-finite ones included, is solved from its companion
    matrix instead: mostly far out on the bridge, where the depressing shift
    cancels the small roots' digits. Every row is computed the same way
    whatever n is, so a z gets the same bits in any batch."""
    zs = np.asarray(zs, dtype=complex)
    n = zs.size
    coeffs = np.empty((n, 5), dtype=complex)
    a2 = 1.0 - b * b
    a4 = a2 * a2
    b2 = b * b
    coeffs[:, 0] = a4 * c * c
    coeffs[:, 1] = 2.0 * a2 * c * (-(1.0 + b2) * zs + a2 * c)
    coeffs[:, 2] = a4 * zs * zs - 2.0 * a2 * c * (1.0 + b2) * zs + (c * c - 1.0) * a4
    coeffs[:, 3] = -2.0 * a4
    coeffs[:, 4] = -a4

    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        roots = _newton_refine(_ferrari(coeffs), coeffs, steps=3)
        failed = ~np.all(_is_root(roots, coeffs), axis=1)
        if failed.any():
            roots[failed] = _companion_roots(coeffs[failed])
    return roots, coeffs


def select_physical_root(roots, z: complex, density_tol: float = 1e-8) -> complex:
    """Pick the root whose Green's function yields a nonnegative density and
    that lies closest to the large-|z| behaviour M ~ m1/z with m1 = 1
    (minimal |z*M - 1|); seeds the continuity tracking far from the support."""
    roots = np.asarray(roots, dtype=complex)
    g = (roots + 1.0) / z
    rho = -g.imag / math.pi
    physical = np.nonzero(rho >= -density_tol)[0]
    if physical.size == 0:
        raise NoPhysicalRoot(f"no root yields a nonnegative density at z={z}")
    pick = physical[np.argmin(np.abs(z * roots[physical] - 1.0))]
    return complex(roots[pick])


_SPLIT = 8  # an ambiguous step is walked again over this many sub-steps
_MAX_DEPTH = 8  # nested re-walks at most: 8^8 = 2^24 sub-steps to one step


def _track_branch(
    zs: np.ndarray,
    roots: np.ndarray,
    j: int,
    params: NoiseModelParams,
    tol: float,
    depth: int = _MAX_DEPTH,
) -> list[int]:
    """The index of the physical root at each z of a path, chosen by
    continuity from root j at zs[0].

    One broadcast ranks, for every step and every root of the step before,
    the physical roots of the step by distance; ties go to the lowest index,
    and a runner-up nearly as close marks the step ambiguous (it likely
    crossed a branch point). The walk follows root indices through that
    table. An ambiguous step is walked again the same way as a sub-path of
    `_SPLIT` equal sub-steps, whose interior roots are solved in one batch,
    until `depth` runs out or the step is shorter than 1e-12; then the
    nearest root is taken.
    """
    rho = -((roots + 1.0) / zs[:, None]).imag / math.pi
    physical = rho >= -tol
    # dist[i - 1, j, k]: from root j at step i - 1 to physical root k at step i
    dist = np.where(
        physical[1:, None, :], np.abs(roots[1:, None, :] - roots[:-1, :, None]), np.inf
    )
    order = np.argsort(dist, axis=-1, kind="stable")
    ranked = np.take_along_axis(dist, order[..., :2], axis=-1)
    counts = physical.sum(axis=1)
    ambiguous = (counts[1:, None] > 1) & (ranked[..., 0] > 0.5 * ranked[..., 1])
    nearest, ambiguous, counts = order[..., 0].tolist(), ambiguous.tolist(), counts.tolist()

    picks = [j]
    for i in range(1, zs.size):
        if counts[i] == 0:
            raise NoPhysicalRoot(f"no root yields a nonnegative density at z={zs[i]}")
        if ambiguous[i - 1][j] and depth > 0 and abs(zs[i] - zs[i - 1]) >= 1e-12:
            sub = np.linspace(zs[i - 1], zs[i], _SPLIT + 1)
            inner, _ = _solve_many(sub[1:-1], params.b, params.c)
            sub_roots = np.concatenate([roots[i - 1 : i], inner, roots[i : i + 1]])
            j = _track_branch(sub, sub_roots, j, params, tol, depth - 1)[-1]
        else:
            j = nearest[i - 1][j]
        picks.append(j)
    return picks


def _sweep_curve(
    lambda_grid: np.ndarray,
    params: NoiseModelParams,
    epsilon: float,
    clip_tol: float = 1e-3,
) -> np.ndarray:
    """Density along an ascending lambda grid with continuity-tracked roots.

    The branch is seeded far outside the spectrum (where M ~ 1/z identifies
    the physical root unambiguously), walked down to the grid's right end,
    then swept right to left.
    """
    grid = np.asarray(lambda_grid, dtype=float)
    z_far = max(1e6, 100.0 * (abs(grid[-1]) + 1.0))
    anchor = max(grid[-1], 1e-6) * 1.0001
    # Approach along Im z = eps_hi, where the branches stay well separated
    # even while crossing the support edge, then descend to epsilon at the
    # grid's right end; only there does the branch tracking need fine steps.
    eps_hi = max(epsilon, 0.05)
    horizontal = np.geomspace(z_far, anchor, 48) + 1j * eps_hi
    vertical = anchor + 1j * np.geomspace(eps_hi, epsilon, 32)
    bridge = np.concatenate([horizontal, vertical])
    zs = np.concatenate([bridge, grid[::-1] + 1j * epsilon])
    roots, _ = _solve_many(zs, params.b, params.c)
    seed = select_physical_root(roots[0], zs[0], density_tol=clip_tol)
    j = int(np.flatnonzero(roots[0] == seed)[0])
    picks = _track_branch(zs, roots, j, params, clip_tol)
    picked = roots[np.arange(zs.size), picks]

    g = (picked[len(bridge):] + 1.0) / zs[len(bridge):]
    rho = -g.imag / math.pi
    rho = rho[::-1]
    worst = rho.min()
    if worst < -clip_tol:
        raise NoPhysicalRoot(
            f"selected branch produced density {worst:.3e} < -{clip_tol}"
        )
    return np.clip(rho, 0.0, None)


def model_density_curve(
    params: NoiseModelParams, lambda_grid, epsilon: float = DEFAULT_EPSILON
) -> np.ndarray:
    """Pointwise density rho(lambda; b) along an ascending grid."""
    if not epsilon > 0:
        raise ValueError("epsilon must be positive")
    return _sweep_curve(np.asarray(lambda_grid, dtype=float), params, epsilon)


def support_cap(params: NoiseModelParams) -> float:
    """Hard cap on the support scan: widened MP edge times a safety factor."""
    mp_edge = (1.0 + math.sqrt(params.c)) ** 2
    return mp_edge * (1.0 + params.b) / (1.0 - params.b) * 1.5


def default_lambda_grid(
    params: NoiseModelParams,
    epsilon: float = DEFAULT_EPSILON,
    n_points: int = DEFAULT_GRID_POINTS,
) -> np.ndarray:
    """Uniform grid over [0, u] where u is expanded until the density decays,
    capped to avoid runaway scans at large b."""
    cap = support_cap(params)
    coarse = np.linspace(0.0, cap, 512)
    rho = _sweep_curve(coarse, params, epsilon)
    alive = np.nonzero(rho > 1e-6)[0]
    u = cap if alive.size == 0 else min(float(coarse[alive[-1]]) * 1.05, cap)
    return np.linspace(0.0, u, n_points)


def _cdf_on_grid(grid: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """Cumulative trapezoidal integral of rho along grid."""
    seg = 0.5 * (rho[1:] + rho[:-1]) * np.diff(grid)
    return np.concatenate([[0.0], np.cumsum(seg)])


def bin_curve(grid: np.ndarray, rho: np.ndarray, bin_edges: np.ndarray) -> np.ndarray:
    """Integrate a density curve into bins; mass beyond the last edge folds
    into the last bin, mass below the first into the first."""
    cdf = _cdf_on_grid(grid, rho)
    at_edges = np.interp(bin_edges, grid, cdf, left=0.0, right=cdf[-1])
    masses = np.diff(at_edges)
    masses[-1] += cdf[-1] - at_edges[-1]
    masses[0] += at_edges[0]
    return masses
