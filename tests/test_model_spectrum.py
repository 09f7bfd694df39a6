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
    _solve_many,
    _sweep_curve,
    _track_branch,
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
    """Every z that the support scan and the curve solve: the far-field
    bridge, the lambda grid and the interior of each re-walked step."""
    batches = []
    real_solve = model_spectrum._solve_many

    def recording(zs, b, c):
        batches.append(np.array(zs))
        return real_solve(zs, b, c)

    with monkeypatch.context() as m:
        m.setattr(model_spectrum, "_solve_many", recording)
        three_sweeps(params, epsilon)
    return np.concatenate(batches)


@pytest.mark.parametrize("c", [0.1, C, 0.9])
def test_solver_matches_companion_reference(c, monkeypatch):
    """Ferrari plus fallback gives the companion-matrix roots, root for
    root, to 1e-10 relative, at every z that the sweeps solve."""
    for b, epsilon in itertools.product((0.0, 0.5, 0.9, 0.95), (1e-3, 1e-4)):
        zs = sweep_points(monkeypatch, NoiseModelParams(b=b, c=c), epsilon)
        assert 1e6 + 0.05j in zs
        roots, coeffs = _solve_many(zs, b, c)
        want = oracles.companion_roots(coeffs)
        # the best pairing of the four roots, row by row
        rel = np.abs(roots[:, PERMUTATIONS] - want[:, None, :]) / np.abs(want[:, None, :])
        worst = rel.max(axis=2).min(axis=1)
        assert worst.max() < 1e-10, (b, c, epsilon, zs[np.argmax(worst)])


def short_walk(zs, params, seed):
    """`_track_branch` along zs from the root at zs[0] nearest `seed`:
    the picked root at each z."""
    zs = np.asarray(zs)
    roots, _ = _solve_many(zs, params.b, params.c)
    j = int(np.argmin(np.abs(roots[0] - seed)))
    return roots[np.arange(zs.size), _track_branch(zs, roots, j, params, 1e-8)]


def test_physical_root_reduces_to_mp_green_at_b_zero():
    """At b = 0 the model is a plain Wishart: the selected root must give the
    closed-form Marchenko-Pastur Stieltjes transform. Off-support points are
    resolved by the large-|z| heuristic alone; interior points are walked to
    from a continuity seed at a nearby point, as in the sweep."""
    for lam in (3.5, 6.0, 50.0):
        z = complex(lam, 1e-3)
        m = select_physical_root(roots_at(z, 0.0), z)
        assert green(m, z) == pytest.approx(oracles.mp_green(z, C), abs=1e-6)
    params = NoiseModelParams(b=0.0, c=C)
    for lam in (0.3, 1.0, 2.0):
        z0, z = complex(lam + 0.01, 1e-3), complex(lam, 1e-3)
        m = short_walk([z0, z], params, z0 * oracles.mp_green(z0, C) - 1.0)[-1]
        assert green(m, z) == pytest.approx(oracles.mp_green(z, C), abs=1e-4)


def test_physical_root_continuity_tracking():
    z1, z2 = complex(1.0, 1e-3), complex(1.01, 1e-3)
    m1 = select_physical_root(roots_at(z1, 0.3), z1)
    picked = short_walk([z1, z2], NoiseModelParams(b=0.3, c=C), m1)
    assert picked[0] == m1 and abs(picked[1] - m1) < 0.1


def test_physical_root_rejects_all_negative_densities():
    with pytest.raises(NoPhysicalRoot):
        select_physical_root([1.0 + 5.0j], 1.0 + 1e-3j)


def reference_track(zs, roots, j, params, tol, depth=24):
    """The per-point walk with its own bisection, from root j at zs[0]:
    the picked root indices."""

    def solve(z):
        return _solve_many(np.array([z]), params.b, params.c)[0][0]

    picked = oracles.continuity_walk(roots, zs, roots[0, j], solve, tol, depth)
    return [int(np.flatnonzero(row == m)[0]) for row, m in zip(roots, picked)]


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
    across the b range, three aspect ratios, two offsets and both grids, and
    solves no z on its own."""
    sizes = []
    real_solve = model_spectrum._solve_many

    def recording(zs, b, c):
        sizes.append(np.size(zs))
        return real_solve(zs, b, c)

    for b, c, epsilon in itertools.product(
        (0.0, 0.3, 0.5, 0.7, 0.9, 0.95), (0.1, C, 20 / 30), (1e-3, 1e-4)
    ):
        params = NoiseModelParams(b=b, c=c)
        with monkeypatch.context() as m:
            m.setattr(model_spectrum, "_solve_many", recording)
            got = three_sweeps(params, epsilon)
        assert min(sizes) > 1, (b, c, epsilon)
        with monkeypatch.context() as m:
            m.setattr(model_spectrum, "_track_branch", reference_track)
            want = three_sweeps(params, epsilon)
        for g, w in zip(got, want):
            assert np.array_equal(g, w), (b, c, epsilon)
    assert sizes.count(model_spectrum._SPLIT - 1) > 0  # some steps were walked again


def test_rewalk_matches_reference_walk_across_branch_points(monkeypatch):
    """On grids so coarse that steps cross branch points, where the nearest
    root alone often picks another branch, the re-walked sub-paths give the
    reference bisection's curve bit for bit."""

    def curve(track, grid, params):
        with monkeypatch.context() as m:
            m.setattr(model_spectrum, "_track_branch", track)
            return _sweep_curve(grid, params, 1e-4)

    def nearest_only(*args):
        return reference_track(*args, depth=0)

    moved = 0
    for b, c, n in itertools.product((0.0, 0.5, 0.7), (0.1, C), (5, 10, 20)):
        params = NoiseModelParams(b=b, c=c)
        grid = np.linspace(0.0, support_cap(params), n)
        got = _sweep_curve(grid, params, 1e-4)
        assert np.array_equal(got, curve(reference_track, grid, params)), (b, c, n)
        moved += not np.array_equal(got, curve(nearest_only, grid, params))
    assert moved > 0


def test_walk_raises_when_a_step_has_no_physical_root(monkeypatch):
    real_solve = model_spectrum._solve_many

    def one_bad_step(zs, b, c):
        roots, coeffs = real_solve(zs, b, c)
        if roots.shape[0] > 100:  # the curve's path, not a re-walked step
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
