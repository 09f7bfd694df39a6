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

from .empirical_spectrum import SpectralDensity
from .errors import BranchCut, NoPhysicalRoot, SolverFailure, SupportNotCovered

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

    @property
    def a(self) -> float:
        return math.sqrt(1.0 - self.b * self.b)


@dataclass(frozen=True)
class ComplexPoint:
    """Evaluation point z = lam + i*eps just above the real axis."""

    lam: float
    eps: float

    def __post_init__(self):
        if not self.eps > 0:
            raise ValueError("eps must be positive")

    @property
    def z(self) -> complex:
        return complex(self.lam, self.eps)


def _as_complex(z) -> complex:
    return z.z if isinstance(z, ComplexPoint) else complex(z)


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


def _poly_eval(coeffs: np.ndarray, m: np.ndarray) -> np.ndarray:
    c4, c3, c2, c1, c0 = (coeffs[..., k] for k in range(5))
    return (((c4 * m + c3) * m + c2) * m + c1) * m + c0


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


def solve_moment_polynomial(z, params: NoiseModelParams) -> np.ndarray:
    """All four roots M of the moment polynomial at z, residual-checked."""
    zc = _as_complex(z)
    roots, coeffs = _solve_many(np.array([zc]), params.b, params.c)
    roots, coeffs = roots[0], coeffs[0]
    scale = abs(coeffs[0]) * np.maximum(1.0, np.abs(roots)) ** 4 + 1e-300
    residuals = np.abs(_poly_eval(coeffs[None, :], roots)) / scale
    if np.any(residuals > 1e-8):
        raise SolverFailure(
            f"root residuals {residuals.max():.3e} exceed tolerance at z={zc}"
        )
    return roots


def green_function(M: complex, z) -> complex:
    """G = (M + 1) / z, inverting M(z) = z G(z) - 1."""
    return (M + 1.0) / _as_complex(z)


def select_physical_root(
    roots,
    z,
    previous_root: complex | None = None,
    density_tol: float = 1e-8,
) -> complex:
    """Pick the root whose Green's function yields a nonnegative density.

    With a previous root given, continuity (nearest root) breaks ambiguity;
    otherwise the root closest to the large-|z| behaviour M ~ m1/z with
    m1 = 1 (minimal |z*M - 1|) is taken.
    """
    zc = _as_complex(z)
    roots = np.asarray(roots, dtype=complex)
    g = (roots + 1.0) / zc
    rho = -g.imag / math.pi
    physical = np.nonzero(rho >= -density_tol)[0]
    if physical.size == 0:
        raise NoPhysicalRoot(f"no root yields a nonnegative density at z={zc}")
    if previous_root is not None:
        pick = physical[np.argmin(np.abs(roots[physical] - previous_root))]
    else:
        pick = physical[np.argmin(np.abs(zc * roots[physical] - 1.0))]
    return complex(roots[pick])


def ar1_mgf(z, b: float) -> complex:
    """Moment generating function of the AR(1) auto-covariance spectrum.

    M_B(z) = -1 / (sqrt(1 - lp*z) * sqrt(1 - lm*z)) with lp = (1+b)/(1-b),
    lm = (1-b)/(1+b) the extreme eigenvalues of the lag-covariance symbol.
    Consistent with the quartic moment polynomial: series coefficients around
    z = 0 are the spectral moments of b^|s-t| (m1, m2, ... on z^0, z^1, ...).
    """
    if not (0.0 <= b < 1.0):
        raise ValueError(f"b={b} outside [0, 1)")
    zc = complex(z)
    lp = (1.0 + b) / (1.0 - b)
    lm = (1.0 - b) / (1.0 + b)
    if abs(zc.imag) < 1e-12 and zc.real >= lm - 1e-12:
        raise BranchCut(f"z={zc} lies on a square-root branch cut (cut starts at {lm})")
    return -1.0 / (np.sqrt(1.0 - lp * zc) * np.sqrt(1.0 - lm * zc))


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
) -> complex:
    """Continue the physical branch from z0 to z1, bisecting the segment
    whenever the nearest-root choice is ambiguous."""
    roots, _ = _solve_many(np.array([z1]), params.b, params.c)
    pick, ambiguous = _pick_by_continuity(roots[0], z1, prev, tol)
    if not ambiguous or depth <= 0 or abs(z1 - z0) < 1e-12:
        return pick
    mid = 0.5 * (z0 + z1)
    prev_mid = _advance_root(prev, z0, mid, params, tol, depth - 1)
    return _advance_root(prev_mid, mid, z1, params, tol, depth - 1)


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

    picked = np.empty(zs.size, dtype=complex)
    prev = select_physical_root(roots[0], zs[0], density_tol=clip_tol)
    picked[0] = prev
    for i in range(1, zs.size):
        pick, ambiguous = _pick_by_continuity(roots[i], zs[i], prev, clip_tol)
        if ambiguous:
            pick = _advance_root(prev, zs[i - 1], zs[i], params, clip_tol)
        prev = pick
        picked[i] = prev

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


def bin_curve(
    grid: np.ndarray, rho: np.ndarray, bin_edges: np.ndarray, clamp: bool = True
) -> np.ndarray:
    """Integrate a density curve into bins; mass beyond the last edge folds
    into the last bin when `clamp` is set."""
    cdf = _cdf_on_grid(grid, rho)
    at_edges = np.interp(bin_edges, grid, cdf, left=0.0, right=cdf[-1])
    masses = np.diff(at_edges)
    if clamp:
        masses[-1] += cdf[-1] - at_edges[-1]
        masses[0] += at_edges[0]
    return masses


def model_density(
    params: NoiseModelParams,
    lambda_grid=None,
    epsilon: float = DEFAULT_EPSILON,
    bin_edges=None,
    bins: int = 100,
) -> SpectralDensity:
    """Binned theoretical density for the given (b, c).

    The curve is evaluated along `lambda_grid` (a default support-covering
    grid when omitted), integrated into bins, and renormalized to unit mass.
    SupportNotCovered is raised when more than 1% of the mass lies off-grid.
    """
    if lambda_grid is None:
        lambda_grid = default_lambda_grid(params, epsilon)
    grid = np.asarray(lambda_grid, dtype=float)
    rho = model_density_curve(params, grid, epsilon)
    total = float(np.trapezoid(rho, grid))
    if total < 0.99:
        raise SupportNotCovered(
            f"only {total:.4f} of the spectral mass lies on the grid"
        )
    if bin_edges is None:
        bin_edges = np.linspace(grid[0], grid[-1], bins + 1)
    edges = np.asarray(bin_edges, dtype=float)
    masses = bin_curve(grid, rho, edges)
    return SpectralDensity(bin_edges=edges, masses=masses / masses.sum())
