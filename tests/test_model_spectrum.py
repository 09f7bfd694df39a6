"""Theoretical density: polynomial solver, branch selection, MP reduction."""
import itertools

import numpy as np
import pytest

import oracles
from factorspec import (
    ModelDensityCache,
    NoiseModelParams,
    default_lambda_grid,
    model_density_curve,
)
from factorspec import model_spectrum
from factorspec.model_spectrum import (
    _pick_by_continuity,
    _solve_many,
    _sweep_curve,
    bin_curve,
    select_physical_root,
    support_cap,
)
from factorspec.errors import NoPhysicalRoot

C = 118 / 250


def roots_at(z, b):
    roots, _ = _solve_many(np.array([z]), b, C)
    return roots[0]


def green(m, z):
    """G = (M + 1) / z, inverting M(z) = z G(z) - 1."""
    return (m + 1.0) / z


def test_params_validation():
    NoiseModelParams(b=0.0, c=C)
    NoiseModelParams(b=0.95, c=C)
    with pytest.raises(ValueError):
        NoiseModelParams(b=0.96, c=C)
    with pytest.raises(ValueError):
        NoiseModelParams(b=-0.1, c=C)
    with pytest.raises(ValueError):
        NoiseModelParams(b=0.5, c=0.0)


def test_roots_satisfy_the_polynomial():
    # grid points, then far-field points of the bridge down from |z| = 1e6
    zs = np.concatenate(
        [np.array([0.5, 1.5, 3.0]) + 1e-3j, np.array([50.0, 1e3, 1e5, 1e6]) + 0.05j]
    )
    roots, coeffs = _solve_many(zs, 0.4, C)
    assert roots.shape == (7, 4)
    for z, r, c in zip(zs, roots, coeffs):
        scale = abs(c[0]) * np.maximum(1.0, np.abs(r)) ** 4
        assert np.all(np.abs(np.polyval(c, r)) / scale < 1e-8)
        assert np.all(np.isfinite(green(r, z)))


PERMUTATIONS = np.array(list(itertools.permutations(range(4))))


def sweep_points(monkeypatch, params, epsilon):
    """Every z that the support scan and the curve solve in one batch: the
    far-field bridge, then the lambda grid."""
    batches = []
    real_solve = model_spectrum._solve_many

    def recording(zs, b, c):
        if np.size(zs) > 1:
            batches.append(np.array(zs))
        return real_solve(zs, b, c)

    with monkeypatch.context() as m:
        m.setattr(model_spectrum, "_solve_many", recording)
        three_sweeps(params, epsilon)
    return np.concatenate(batches)


@pytest.mark.parametrize("c", [0.1, C, 0.9])
def test_solver_matches_companion_reference(c, monkeypatch):
    """Ferrari plus fallback gives the companion-matrix roots, root for
    root, to 1e-10 relative, on the bridge and on the grids."""
    for b, epsilon in itertools.product((0.0, 0.5, 0.9, 0.95), (1e-3, 1e-4)):
        zs = sweep_points(monkeypatch, NoiseModelParams(b=b, c=c), epsilon)
        assert 1e6 + 0.05j in zs
        roots, coeffs = _solve_many(zs, b, c)
        want = oracles.companion_roots(coeffs)
        # the best pairing of the four roots, row by row
        rel = np.abs(roots[:, PERMUTATIONS] - want[:, None, :]) / np.abs(want[:, None, :])
        worst = rel.max(axis=2).min(axis=1)
        assert worst.max() < 1e-10, (b, c, epsilon, zs[np.argmax(worst)])


def test_physical_root_reduces_to_mp_green_at_b_zero():
    """At b = 0 the model is a plain Wishart: the selected root must give the
    closed-form Marchenko-Pastur Stieltjes transform. Off-support points are
    resolved by the large-|z| heuristic alone; interior points get a
    continuity seed from a nearby point, as in the sweep."""
    for lam in (3.5, 6.0, 50.0):
        z = complex(lam, 1e-3)
        m = select_physical_root(roots_at(z, 0.0), z)
        assert green(m, z) == pytest.approx(oracles.mp_green(z, C), abs=1e-6)
    for lam in (0.3, 1.0, 2.0):
        z = complex(lam, 1e-3)
        seed = z * oracles.mp_green(complex(lam + 0.01, 1e-3), C) - 1.0
        m, _ = _pick_by_continuity(roots_at(z, 0.0), z, seed, 1e-8)
        assert green(m, z) == pytest.approx(oracles.mp_green(z, C), abs=1e-4)


def test_physical_root_continuity_tracking():
    z1 = complex(1.0, 1e-3)
    m1 = select_physical_root(roots_at(z1, 0.3), z1)
    z2 = complex(1.01, 1e-3)
    m2, _ = _pick_by_continuity(roots_at(z2, 0.3), z2, m1, 1e-8)
    assert abs(m2 - m1) < 0.1


def test_physical_root_rejects_all_negative_densities():
    with pytest.raises(NoPhysicalRoot):
        select_physical_root([1.0 + 5.0j], 1.0 + 1e-3j)
    with pytest.raises(NoPhysicalRoot):
        _pick_by_continuity(np.array([1.0 + 5.0j]), 1.0 + 1e-3j, 0j, 1e-8)


def reference_track(zs, roots, params, tol):
    """The per-point walk; each ambiguous step is bisected by `_advance_root`
    from a fresh solve at the step's end."""
    seed = select_physical_root(roots[0], zs[0], density_tol=tol)
    return oracles.continuity_walk(
        roots,
        zs,
        seed,
        lambda prev, z0, z1: model_spectrum._advance_root(prev, z0, z1, params, tol),
        tol,
    )


def three_sweeps(params, epsilon):
    """The support scan, the default grid, and the curve on that grid."""
    scan = np.linspace(0.0, support_cap(params), 512)
    grid = default_lambda_grid(params, epsilon)
    return (
        _sweep_curve(scan, params, epsilon),
        grid,
        model_density_curve(params, grid, epsilon),
    )


def test_table_walk_matches_reference_walk(monkeypatch):
    """The nearest-root table picks the reference walk's roots bit for bit,
    across the b range, three aspect ratios, two offsets and both grids."""
    bisections = 0
    real_advance = model_spectrum._advance_root

    def counting(*args, **kwargs):
        nonlocal bisections
        bisections += 1
        return real_advance(*args, **kwargs)

    for b, c, epsilon in itertools.product(
        (0.0, 0.3, 0.5, 0.7, 0.9, 0.95), (0.1, C, 20 / 30), (1e-3, 1e-4)
    ):
        params = NoiseModelParams(b=b, c=c)
        with monkeypatch.context() as m:
            m.setattr(model_spectrum, "_advance_root", counting)
            got = three_sweeps(params, epsilon)
        with monkeypatch.context() as m:
            m.setattr(model_spectrum, "_track_branch", reference_track)
            want = three_sweeps(params, epsilon)
        for g, w in zip(got, want):
            assert np.array_equal(g, w), (b, c, epsilon)
    assert bisections > 0


def test_walk_raises_when_a_step_has_no_physical_root(monkeypatch):
    real_solve = model_spectrum._solve_many

    def one_bad_step(zs, b, c):
        roots, coeffs = real_solve(zs, b, c)
        if roots.shape[0] > 1:
            k = roots.shape[0] - 100
            roots[k] = 10j * zs[k] - 1.0  # G = (M + 1) / z = 10i: density -10 / pi
        return roots, coeffs

    monkeypatch.setattr(model_spectrum, "_solve_many", one_bad_step)
    params = NoiseModelParams(b=0.3, c=C)
    with pytest.raises(NoPhysicalRoot, match="no root yields a nonnegative density at z="):
        model_density_curve(params, np.linspace(0.0, 3.0, 300), epsilon=1e-4)


def test_mp_reduction_curve():
    params = NoiseModelParams(b=0.0, c=C)
    lo, hi = oracles.mp_support(C)
    lam = np.linspace(lo + 0.1, hi - 0.1, 300)
    rho = model_density_curve(params, lam, epsilon=1e-4)
    assert np.max(np.abs(rho - oracles.mp_density(lam, C))) < 5e-3


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
    masses = bin_curve(grid, rho, narrow)
    # the last bin holds [1.75, 2] plus everything past the last edge
    tail = grid >= 1.75 - 1e-9
    assert masses[-1] == pytest.approx(np.trapezoid(rho[tail], grid[tail]), abs=1e-6)


def test_model_density_binned_matches_closed_form_cdf():
    cache = ModelDensityCache()
    grid, _ = cache.curve(0.0, C, 1e-4)
    edges = np.linspace(0.0, grid[-1], 51)
    masses = cache.masses(0.0, C, 1e-4, edges)
    lo, hi = oracles.mp_support(C)
    # compare binned masses against the closed-form MP integral per bin
    fine = np.linspace(lo, hi, 20001)
    ref_cdf = np.concatenate(
        [[0.0], np.cumsum(0.5 * (oracles.mp_density(fine, C)[1:] + oracles.mp_density(fine, C)[:-1]) * np.diff(fine))]
    )
    at_edges = np.interp(edges, fine, ref_cdf, left=0.0, right=ref_cdf[-1])
    assert np.max(np.abs(masses - np.diff(at_edges))) < 5e-3
