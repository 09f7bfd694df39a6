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


def _newton_refine(roots: np.ndarray, coeffs: np.ndarray, steps: int = 2) -> np.ndarray:
    """Polish roots with a few Newton steps; coeffs indexed [..., degree desc]."""
    c4, c3, c2, c1, c0 = (coeffs[..., k] for k in range(5))
    m = roots
    for _ in range(steps):
        p = (((c4 * m + c3) * m + c2) * m + c1) * m + c0
        dp = ((4.0 * c4 * m + 3.0 * c3) * m + 2.0 * c2) * m + c1
        step = np.where(dp != 0, p / np.where(dp != 0, dp, 1.0), 0.0)
        m = m - step
    return m


def _solve_many(zs: np.ndarray, b: float, c: float) -> tuple[np.ndarray, np.ndarray]:
    """All four roots of the moment polynomial at each z, via batched companion
    eigenvalues plus Newton polishing. Returns (roots[n,4], coeffs[n,5])."""
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

    monic = coeffs[:, 1:] / coeffs[:, :1]
    comp = np.zeros((n, 4, 4), dtype=complex)
    comp[:, 0, :] = -monic
    comp[:, 1, 0] = 1.0
    comp[:, 2, 1] = 1.0
    comp[:, 3, 2] = 1.0
    roots = np.linalg.eigvals(comp)
    roots = _newton_refine(roots, coeffs[:, None, :])
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


def _pick_by_continuity(
    roots: np.ndarray, z: complex, prev: complex, tol: float
) -> tuple[complex, bool]:
    """Nearest physical root to `prev`, plus an ambiguity flag set when the
    runner-up is nearly as close (the step likely crossed a branch point)."""
    g = (roots + 1.0) / z
    rho = -g.imag / math.pi
    cand = roots[rho >= -tol]
    if cand.size == 0:
        raise NoPhysicalRoot(f"no root yields a nonnegative density at z={z}")
    dist = np.abs(cand - prev)
    order = np.argsort(dist)
    ambiguous = cand.size > 1 and dist[order[0]] > 0.5 * dist[order[1]]
    return complex(cand[order[0]]), ambiguous


def _advance_root(
    prev: complex,
    z0: complex,
    z1: complex,
    params: NoiseModelParams,
    tol: float,
    depth: int = 24,
    roots_z1: np.ndarray | None = None,
) -> complex:
    """Continue the physical branch from z0 to z1, bisecting the segment
    whenever the nearest-root choice is ambiguous. The final pick is taken
    from `roots_z1` when the roots at z1 are already solved."""
    if roots_z1 is None:
        roots_z1 = _solve_many(np.array([z1]), params.b, params.c)[0][0]
    pick, ambiguous = _pick_by_continuity(roots_z1, z1, prev, tol)
    if not ambiguous or depth <= 0 or abs(z1 - z0) < 1e-12:
        return pick
    mid = 0.5 * (z0 + z1)
    prev_mid = _advance_root(prev, z0, mid, params, tol, depth - 1)
    return _advance_root(prev_mid, mid, z1, params, tol, depth - 1, roots_z1)


def _track_branch(
    zs: np.ndarray, roots: np.ndarray, params: NoiseModelParams, tol: float
) -> np.ndarray:
    """The physical root at each z of a path, chosen by continuity.

    One broadcast ranks, for every step and every root of the step before,
    the physical roots of the step by distance; ties go to the lowest index,
    and a runner-up nearly as close marks the step ambiguous (it likely
    crossed a branch point). The walk then follows root indices through that
    table and bisects only the ambiguous steps with `_advance_root`.
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

    seed = select_physical_root(roots[0], zs[0], density_tol=tol)
    j = int(np.flatnonzero(roots[0] == seed)[0])
    picks = [j]
    for i in range(1, zs.size):
        if counts[i] == 0:
            raise NoPhysicalRoot(f"no root yields a nonnegative density at z={zs[i]}")
        if ambiguous[i - 1][j]:
            pick = _advance_root(
                complex(roots[i - 1, j]), zs[i - 1], zs[i], params, tol, roots_z1=roots[i]
            )
            j = int(np.flatnonzero(roots[i] == pick)[0])
        else:
            j = nearest[i - 1][j]
        picks.append(j)
    return roots[np.arange(zs.size), picks]


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
    picked = _track_branch(zs, roots, params, clip_tol)

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
