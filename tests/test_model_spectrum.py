"""Theoretical density: polynomial solver, branch selection, MP reduction."""
import numpy as np
import pytest

import oracles
from factorspec import (
    ComplexPoint,
    NoiseModelParams,
    ar1_mgf,
    default_lambda_grid,
    green_function,
    model_density,
    model_density_curve,
    select_physical_root,
    solve_moment_polynomial,
)
from factorspec.model_spectrum import bin_curve, support_cap
from factorspec.errors import BranchCut, NoPhysicalRoot

C = 118 / 250


def test_params_validation():
    NoiseModelParams(b=0.0, c=C)
    NoiseModelParams(b=0.95, c=C)
    with pytest.raises(ValueError):
        NoiseModelParams(b=0.96, c=C)
    with pytest.raises(ValueError):
        NoiseModelParams(b=-0.1, c=C)
    with pytest.raises(ValueError):
        NoiseModelParams(b=0.5, c=0.0)


def test_complex_point_requires_positive_offset():
    assert ComplexPoint(lam=2.0, eps=1e-3).z == 2.0 + 1e-3j
    with pytest.raises(ValueError):
        ComplexPoint(lam=2.0, eps=0.0)


def test_roots_satisfy_the_polynomial():
    params = NoiseModelParams(b=0.4, c=C)
    for lam in (0.5, 1.5, 3.0):
        z = complex(lam, 1e-3)
        roots = solve_moment_polynomial(z, params)
        assert roots.shape == (4,)
        # residuals are checked inside; verify the Green relation is sane
        g = [green_function(m, z) for m in roots]
        assert all(np.isfinite(gi) for gi in g)


def test_physical_root_reduces_to_mp_green_at_b_zero():
    """At b = 0 the model is a plain Wishart: the selected root must give the
    closed-form Marchenko-Pastur Stieltjes transform. Off-support points are
    resolved by the large-|z| heuristic alone; interior points get a
    continuity seed from a nearby point, as in the sweep."""
    params = NoiseModelParams(b=0.0, c=C)
    for lam in (3.5, 6.0, 50.0):
        z = complex(lam, 1e-3)
        m = select_physical_root(solve_moment_polynomial(z, params), z)
        assert green_function(m, z) == pytest.approx(oracles.mp_green(z, C), abs=1e-6)
    for lam in (0.3, 1.0, 2.0):
        z = complex(lam, 1e-3)
        seed = z * oracles.mp_green(complex(lam + 0.01, 1e-3), C) - 1.0
        m = select_physical_root(solve_moment_polynomial(z, params), z, previous_root=seed)
        assert green_function(m, z) == pytest.approx(oracles.mp_green(z, C), abs=1e-4)


def test_physical_root_continuity_tracking():
    params = NoiseModelParams(b=0.3, c=C)
    z1 = complex(1.0, 1e-3)
    m1 = select_physical_root(solve_moment_polynomial(z1, params), z1)
    z2 = complex(1.01, 1e-3)
    m2 = select_physical_root(solve_moment_polynomial(z2, params), z2, previous_root=m1)
    assert abs(m2 - m1) < 0.1


def test_physical_root_rejects_all_negative_densities():
    with pytest.raises(NoPhysicalRoot):
        select_physical_root([1.0 + 5.0j], 1.0 + 1e-3j)


def test_mp_reduction_curve():
    params = NoiseModelParams(b=0.0, c=C)
    lo, hi = oracles.mp_support(C)
    lam = np.linspace(lo + 0.1, hi - 0.1, 300)
    rho = model_density_curve(params, lam, epsilon=1e-4)
    assert np.max(np.abs(rho - oracles.mp_density(lam, C))) < 5e-3


def test_mgf_series_matches_ar1_spectral_moments():
    """The closed-form MGF must generate the trace moments of the b^|s-t|
    autocovariance matrix (package convention carries an overall minus)."""
    for b in (0.2, 0.5, 0.7):
        moments = oracles.ar1_mgf_series(b, 4)
        brute = np.array([oracles.ar1_moment(b, k) for k in range(1, 5)])
        assert np.allclose(moments, brute, rtol=0.02)  # O(1/T) Toeplitz boundary
        for z in (-0.02, 0.01 + 0.015j):
            series = sum(moments[k] * z**k for k in range(4))
            assert -ar1_mgf(z, b) == pytest.approx(series, abs=2e-4)


def test_mgf_branch_cut_raises():
    b = 0.5
    lm = (1 - b) / (1 + b)
    with pytest.raises(BranchCut):
        ar1_mgf(lm + 0.1, b)
    ar1_mgf(lm - 0.05, b)  # left of the cut is fine
    ar1_mgf(complex(lm + 0.1, 0.01), b)  # off-axis is fine


def test_model_density_mass_and_mean():
    """Standardized rows force unit mean eigenvalue regardless of b."""
    for b in (0.0, 0.4, 0.7):
        params = NoiseModelParams(b=b, c=C)
        grid = default_lambda_grid(params, epsilon=1e-4)
        rho = model_density_curve(params, grid, epsilon=1e-4)
        mass = np.trapezoid(rho, grid)
        mean = np.trapezoid(rho * grid, grid)
        assert mass == pytest.approx(1.0, abs=5e-3)
        assert mean == pytest.approx(1.0, abs=2e-2)


def test_model_density_curve_nonnegative():
    params = NoiseModelParams(b=0.6, c=C)
    grid = np.linspace(0.0, support_cap(params), 400)
    rho = model_density_curve(params, grid, epsilon=1e-3)
    assert np.all(rho >= 0.0)


def test_support_widens_with_b():
    edges = [
        default_lambda_grid(NoiseModelParams(b=b, c=C), epsilon=1e-4)[-1]
        for b in (0.0, 0.3, 0.6)
    ]
    assert edges[0] < edges[1] < edges[2]


def test_bin_curve_total_mass_preserved():
    grid = np.linspace(0.0, 10.0, 2001)
    rho = np.exp(-grid)  # mass ~ 1
    edges = np.linspace(0.0, 10.0, 41)
    masses = bin_curve(grid, rho, edges)
    assert masses.sum() == pytest.approx(np.trapezoid(rho, grid), abs=1e-9)


def test_bin_curve_clamps_tail_into_last_bin():
    grid = np.linspace(0.0, 10.0, 2001)
    rho = np.exp(-grid)
    narrow = np.linspace(0.0, 2.0, 9)
    clamped = bin_curve(grid, rho, narrow, clamp=True)
    open_ended = bin_curve(grid, rho, narrow, clamp=False)
    tail = np.trapezoid(rho, grid) - np.trapezoid(rho[grid <= 2.0], grid[grid <= 2.0])
    assert clamped[-1] - open_ended[-1] == pytest.approx(tail, abs=1e-6)


def test_model_density_binned_matches_closed_form_cdf():
    params = NoiseModelParams(b=0.0, c=C)
    dens = model_density(params, epsilon=1e-4, bins=50)
    lo, hi = oracles.mp_support(C)
    # compare binned masses against the closed-form MP integral per bin
    fine = np.linspace(lo, hi, 20001)
    ref_cdf = np.concatenate(
        [[0.0], np.cumsum(0.5 * (oracles.mp_density(fine, C)[1:] + oracles.mp_density(fine, C)[:-1]) * np.diff(fine))]
    )
    at_edges = np.interp(dens.bin_edges, fine, ref_cdf, left=0.0, right=ref_cdf[-1])
    assert np.max(np.abs(dens.masses - np.diff(at_edges))) < 5e-3
