"""Theoretical density: polynomial solver, support, exact density, Cauchy
smoothing, binning and MP reduction."""
import functools
import itertools
import math
import warnings

import numpy as np
import pytest
from scipy import integrate

import oracles
from factorspec import (
    Ar1Spec,
    ModelDensityCache,
    NoiseModelParams,
    PlantedFactorSpec,
    SearchGrid,
    StandardizedWindow,
    default_lambda_grid,
    estimate_window,
    generate_ar1,
    model_density_curve,
    planted_factor_matrix,
    smoothed_density,
)
from factorspec import cli, estimator, model_spectrum
from factorspec.model_spectrum import DEFAULT_NODES, _density_root, bin_curve
from factorspec.errors import ModelDensityError

C = 118 / 250
B_VALUES = SearchGrid().b_values


def green(m, z):
    """G = (M + 1) / z, inverting M(z) = z G(z) - 1."""
    return (m + 1.0) / z


def exact_curve(b, c):
    """The cache's route: nodes over the support and the exact density."""
    params = NoiseModelParams(b=b, c=c)
    nodes = default_lambda_grid(params)
    return nodes, model_density_curve(params, nodes)


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
    # real points inside the support [0.077, 3.49] at b = 0.4
    zs = np.array([0.1, 0.5, 1.5, 3.0, 3.4])
    roots = _density_root(zs, 0.4, C)
    assert roots.shape == (5,)
    for z, r, c in zip(zs, roots, oracles.moment_coefficients(zs, 0.4, C)):
        scale = abs(c[0]) * max(1.0, abs(r)) ** 4
        assert abs(np.polyval(c, r)) / scale < 1e-8
        assert r.imag < 0 and np.isfinite(green(r, z))


def solved_points(monkeypatch, b, c):
    """Every z solved to build the exact density on its nodes: the only
    solve the program makes, since a written curve smooths that density."""
    batches = []
    real_solve = model_spectrum._density_root

    def recording(zs, b, c):
        batches.append(np.array(zs))
        return real_solve(zs, b, c)

    with monkeypatch.context() as m:
        m.setattr(model_spectrum, "_density_root", recording)
        exact_curve(b, c)
    return np.concatenate(batches)


def companion_density_root(zs, b, c):
    """The reference's root with the most negative imaginary part at each z."""
    want = oracles.companion_roots(oracles.moment_coefficients(zs, b, c))
    return want[np.arange(want.shape[0]), np.argmin(want.imag, axis=1)]


@pytest.mark.parametrize("c", [0.1, C, 0.9, 0.95, 0.99])
def test_solver_matches_companion_reference(c, monkeypatch):
    """The real-arithmetic Ferrari root plus fallback is the companion
    matrix's negative-imaginary root to 1e-10 relative, at every z that a
    density build solves."""
    for b in (0.0, 0.5, 0.9, 0.95):
        zs = solved_points(monkeypatch, b, c)
        assert zs.size >= DEFAULT_NODES - 2
        want = companion_density_root(zs, b, c)
        rel = np.abs(_density_root(zs, b, c) - want) / np.abs(want)
        assert rel.max() < 1e-10, (b, c, zs[np.argmax(rel)])


def test_a_root_that_fails_the_check_is_solved_by_the_fallback(monkeypatch):
    """Rows whose Ferrari root fails `_is_root` (here every other one, by
    force) take the Aberth-Ehrlich root, and the density they give is the
    companion-matrix reference's."""
    real_check, real_fallback = model_spectrum._is_root, model_spectrum._aberth_roots
    calls = []

    def odd_rows_only(m, coeffs):
        return real_check(m, coeffs) & (np.arange(m.shape[0]) % 2 == 1)[:, None]

    def counted(coeffs):
        calls.append(len(coeffs))
        return real_fallback(coeffs)

    monkeypatch.setattr(model_spectrum, "_is_root", odd_rows_only)
    monkeypatch.setattr(model_spectrum, "_aberth_roots", counted)
    for b in (0.0, 0.5, 0.95):
        nodes, rho = exact_curve(b, C)
        lam = nodes[1:-1]
        want = np.clip(-companion_density_root(lam, b, C).imag, 0.0, None) / (math.pi * lam)
        assert calls.pop() == (lam.size + 1) // 2
        assert np.max(np.abs(rho[1:-1] - want)) <= 1e-10 * want.max(), b


def test_the_default_curves_build_without_complex_eigvals(monkeypatch):
    """No model build calls `numpy.linalg.eigvals` (LAPACK zgeev): with it
    made to raise, a fresh cache builds the 20 default curves at c =
    118/250, where the fallback solves a row (b = 0.95, next to the upper
    edge). `np.roots`, which `_support` calls, binds its own eigvals."""

    def refused(*args, **kwargs):
        raise AssertionError("numpy.linalg.eigvals was called")

    rows = []
    real_fallback = model_spectrum._aberth_roots

    def counted(coeffs):
        rows.append(len(coeffs))
        return real_fallback(coeffs)

    monkeypatch.setattr(np.linalg, "eigvals", refused)
    monkeypatch.setattr(model_spectrum, "_aberth_roots", counted)
    cache = ModelDensityCache()
    for b in B_VALUES:
        cache.curve(b, C)
    assert sum(rows) >= 1


def test_support_edges_equal_marchenko_pastur_at_b_zero():
    """The edges that the sextic's two real roots give are (1 -+ sqrt c)^2
    at b = 0, and the nodes run from one edge to the other."""
    for c in (0.1, C, 20 / 30, 0.9):
        nodes = default_lambda_grid(NoiseModelParams(b=0.0, c=c))
        assert nodes[[0, -1]] == pytest.approx(oracles.mp_support(c), rel=1e-10, abs=0.0)
        assert np.all(np.diff(nodes) > 0)


def test_support_edges_bound_the_quartics_complex_pair():
    """Checked on the quartic itself, apart from how the edges are found:
    just inside [lo, hi] it has a complex-conjugate pair, just outside four
    real roots. delta = 1e-6 was chosen far above the edges' own error
    (5e-13 of an edge against 60-digit roots) and far below the support's
    half-width (2 sqrt c = 0.02 of an edge at c = 1e-4). On this grid the
    pair's imaginary part is at least 5e-6 of the root, and the reference's
    real roots have parts below 1e-15 of theirs: 1e-8 splits the two."""
    delta = 1e-6
    for b, c in itertools.product(B_VALUES, np.geomspace(1e-4, 0.99, 25)):
        lo, hi = model_spectrum._support(NoiseModelParams(b=b, c=c))
        zs = np.array([lo * (1 + delta), hi * (1 - delta), lo * (1 - delta), hi * (1 + delta)])
        roots = oracles.companion_roots(oracles.moment_coefficients(zs, b, c))
        complex_roots = np.sum(np.abs(roots.imag) > 1e-8 * np.abs(roots), axis=1)
        assert complex_roots.tolist() == [2, 2, 0, 0], (b, c)


@pytest.mark.parametrize("c", [1e-6, 1e-5, 1 / 900, 1e-3, 0.003635609076657396])
def test_white_noise_model_builds_at_small_aspect_ratios(c):
    """b = 0 is Marchenko-Pastur at every c: the cache builds it, with edges
    (1 -+ sqrt c)^2, for c = 1/900 (a 3 x 2700 window) and the other c at
    which it failed for want of a support."""
    nodes, rho = ModelDensityCache().curve(0.0, c)
    assert nodes[[0, -1]] == pytest.approx(oracles.mp_support(c), rel=1e-12, abs=0.0)


@pytest.mark.parametrize("c", [1e-6, 1e-5])
def test_every_default_b_builds_at_small_aspect_ratios(c):
    """Each default b builds: for want of a support, 16 of them failed at
    c = 1e-6 and 5 at c = 1e-5."""
    cache = ModelDensityCache()
    for b in B_VALUES:
        cache.curve(b, c)


def test_extreme_aspect_ratios_build_or_raise_model_density_error(tmp_path):
    """Down to c = 1e-12 every default b builds; past what floats resolve,
    at either end of c, a curve is refused as a ModelDensityError, with no
    other exception and no numpy warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for c in (1e-12, 1e-14, 1e-20, 1e-40, 1e-76, 1e-100, 1e-160, 1e-300, 1e155, 1e300):
            for b in B_VALUES:
                try:
                    ModelDensityCache().curve(b, c)
                except ModelDensityError:
                    assert c < 1e-12 or c > 1, (b, c)
    out = tmp_path / "curve.csv"
    assert cli.main(["spectrum", "--b", "0.3", "--c", "1e-300", "--output", str(out)]) == 4
    assert not out.exists()


def test_a_density_build_solves_the_support_once(monkeypatch, tmp_path):
    """A cold cache curve and a written curve each find [lo, hi] once, and
    smoothing a curve finds it never: the nodes' first and last values are
    the edges the density needs."""
    calls = []
    real = model_spectrum._support

    def counting(params):
        calls.append(params)
        return real(params)

    monkeypatch.setattr(model_spectrum, "_support", counting)
    nodes, rho = ModelDensityCache().curve(0.4, C)
    assert len(calls) == 1
    smoothed_density(nodes, rho, np.linspace(0.0, 4.0, 50), 1e-4)
    assert len(calls) == 1
    cli.run_spectrum(0.4, C, str(tmp_path / "curve.csv"))
    assert len(calls) == 2


def test_physical_root_reduces_to_mp_green_at_b_zero():
    """At b = 0 the model is a plain Wishart: on the support, the root with
    positive density gives the closed-form Marchenko-Pastur Stieltjes
    transform, and the exact density is Marchenko-Pastur's."""
    nodes, rho = exact_curve(0.0, C)
    lam = nodes[1:-1]
    m = _density_root(lam, 0.0, C)
    want = np.array([oracles.mp_green(complex(x, 1e-13), C) for x in lam])
    assert np.max(np.abs(green(m, lam) - want)) < 1e-6
    assert np.max(np.abs(rho - oracles.mp_density(nodes, C))) < 1e-6


def test_physical_root_rejects_all_negative_densities(monkeypatch):
    """Where no root yields a positive density the model has none, and a
    density that lost its mass that way is refused, not renormalized."""
    real_solve = model_spectrum._density_root

    def conjugated(zs, b, c):
        return real_solve(zs, b, c).conjugate()

    monkeypatch.setattr(model_spectrum, "_density_root", conjugated)
    nodes, rho = exact_curve(0.3, C)
    assert np.all(rho == 0.0)
    with pytest.raises(ModelDensityError, match="has mass 0.0, not 1"):
        ModelDensityCache().curve(0.3, C)


def test_binned_mass_is_one_before_any_normalization():
    """The exact node mass, binned with the Cauchy tail and no mass below 0,
    is 1 to 1e-6 for every default b, with nothing rescaled after binning."""
    for c, epsilon in itertools.product((C, 20 / 30), (1e-3, 1e-4)):
        for b in B_VALUES:
            nodes, rho = exact_curve(b, c)
            for top in (4.0, 1.2 * nodes[-1]):
                masses = bin_curve(nodes, rho, np.linspace(0.0, top, 101), epsilon)
                assert masses.sum() == pytest.approx(1.0, abs=1e-6), (b, c, epsilon, top)
                assert masses.min() >= 0.0


@pytest.fixture(scope="module")
def curves():
    """One cache for the tests that read every default curve at several c."""
    return ModelDensityCache()


@pytest.mark.parametrize("bins", [2, 17, 37, 100, 101, 2000])
def test_bin_curve_is_the_full_array_formula_bit_for_bit(bins, curves):
    """`bin_curve` writes its Cauchy kernel a block of edges at a time, in
    place; its masses are the bits of the one-expression formula
    (`oracles.cauchy_bin_masses`) whether the last block is whole, partial
    or one edge, on every default b, spans from 2 to 40 and epsilon from
    1e-2 to 1e-4. At 2000 bins (125 whole blocks) a smaller grid: the
    full one takes 30 s there."""
    cs, spans, widths = (0.05, C, 0.9), (2.0, 3.75, 11.75, 40.0), (1e-2, 1e-3, 1e-4)
    if bins == 2000:
        cs, spans, widths = (C,), (3.75, 40.0), (1e-2, 1e-4)
    for c, b in itertools.product(cs, B_VALUES):
        nodes, rho = curves.curve(b, c)
        for top, epsilon in itertools.product(spans, widths):
            edges = np.linspace(0.0, top, bins + 1)
            got = bin_curve(nodes, rho, edges, epsilon)
            want = oracles.cauchy_bin_masses(nodes, rho, edges, epsilon, model_spectrum._TAIL_STEP)
            assert got.tobytes() == want.tobytes(), (b, c, top, epsilon)


def test_model_moments_match_their_closed_forms(curves):
    """Each default curve's first moment is 1 and its second is 1 + c (1 +
    b^2) / (1 - b^2), 1 + c tr(A^2) / T for the AR(1) autocorrelation A.
    The trapezoid rule on the nodes errs by about 1e-6 (the cache refuses a
    mass further from 1), and the weight lambda^k scales that by at most
    hi^k: that is the tolerance."""
    for c, b in itertools.product((0.05, C, 0.9), B_VALUES):
        nodes, rho = curves.curve(b, c)
        hi = nodes[-1]
        m1 = np.trapezoid(nodes * rho, nodes)
        m2 = np.trapezoid(nodes * nodes * rho, nodes)
        assert abs(m1 - 1.0) <= 1e-6 * hi, (b, c, m1)
        assert abs(m2 - (1.0 + c * (1.0 + b * b) / (1.0 - b * b))) <= 1e-6 * hi * hi, (b, c, m2)


def piecewise_linear_cdf(knots, values, epsilon, x):
    """Brute-force CDF at x of the piecewise-linear density through (knots,
    values), convolved with a Cauchy kernel of width epsilon."""

    def integrand(y):
        return np.interp(y, knots, values) * (0.5 + math.atan((x - y) / epsilon) / math.pi)

    return sum(
        integrate.quad(
            integrand, lo, hi, points=[x] if lo < x < hi else None,
            epsabs=1e-14, epsrel=1e-13, limit=200,
        )[0]
        for lo, hi in zip(knots[:-1], knots[1:])
    )


def test_bin_curve_matches_brute_force_convolution():
    """For a density linear between the smoothing's knots, the binned masses
    are those of its exact Cauchy convolution: (C(e_k+1) - C(e_k)) / (1 -
    C(0)), the last bin running to infinity."""
    knots = np.array([0.3, 0.5, 0.9, 1.4, 2.0])
    values = np.array([0.0, 0.8, 1.1, 0.4, 0.0])
    values /= np.trapezoid(values, knots)
    step = model_spectrum._TAIL_STEP
    nodes = np.interp(np.arange(step * 4 + 1) / step, np.arange(5), knots)
    rho = np.interp(nodes, knots, values)
    edges = np.linspace(0.0, 2.5, 11)
    for epsilon in (1e-2, 1e-3):
        cdf = [piecewise_linear_cdf(knots, values, epsilon, x) for x in edges[:-1]]
        want = np.diff(np.append(cdf, 1.0)) / (1.0 - cdf[0])
        got = bin_curve(nodes, rho, edges, epsilon)
        assert np.max(np.abs(got - want)) < 1e-10


def test_smoothed_curve_matches_reference_walk():
    """The Cauchy-smoothed curve against -Im G(lambda + i epsilon) / pi from
    the branch walk: within 2e-3 of the peak everywhere, and within 5e-4 of
    the walked value past the support (the Cauchy tail). The gap is the
    piecewise-linear density and its coarser smoothing knots."""
    for b, epsilon in itertools.product((0.0, 0.5, 0.9), (1e-3, 1e-4)):
        nodes, rho = exact_curve(b, C)
        hi = nodes[-1]
        grid = np.linspace(0.0, 1.3 * hi, 700)
        want = oracles.walked_density(b, C, epsilon, grid)
        got = smoothed_density(nodes, rho, grid, epsilon)
        assert np.max(np.abs(got - want)) <= 2e-3 * want.max(), (b, epsilon)
        past = grid > 1.01 * hi
        assert np.max(np.abs(got[past] / want[past] - 1.0)) <= 5e-4, (b, epsilon)


def window_estimates(cache):
    """(p_hat, b_hat) on 70 fixed windows: 10 of pure AR(1) at each of b = 0,
    0.3, 0.5 and 0.7, and 10 with each of k = 1, 2 and 3 planted
    strength-5 factors in b = 0.5 noise."""
    grid = SearchGrid(epsilon=1e-4)
    windows = [
        generate_ar1(Ar1Spec(b=b), 118, 250, rng=np.random.default_rng([9200, int(100 * b), run]))
        for b, run in itertools.product((0.0, 0.3, 0.5, 0.7), range(10))
    ] + [
        planted_factor_matrix(
            PlantedFactorSpec(k=k, strength=5.0, seed=9300 + 10 * k + run), Ar1Spec(b=0.5), 118, 250
        )
        for k, run in itertools.product((1, 2, 3), range(10))
    ]
    out = []
    for x in windows:
        x = (x - x.mean(axis=1, keepdims=True)) / x.std(axis=1, keepdims=True)
        r = estimate_window(StandardizedWindow(values=x, end_index=250), grid, cache=cache)
        out.append((r.p_hat, r.b_hat))
    return out


def test_estimates_do_not_depend_on_the_node_count(monkeypatch):
    """The default nodes and four times as many give the same estimates."""
    default = window_estimates(ModelDensityCache())
    fine = functools.partial(default_lambda_grid, n_points=4 * (DEFAULT_NODES - 1) + 1)
    monkeypatch.setattr(estimator, "default_lambda_grid", fine)
    assert window_estimates(ModelDensityCache()) == default


def test_mp_reduction_curve():
    lo, hi = oracles.mp_support(C)
    lam = np.linspace(lo + 0.1, hi - 0.1, 300)
    rho = smoothed_density(*exact_curve(0.0, C), lam, 1e-4)
    assert np.max(np.abs(rho - oracles.mp_density(lam, C))) < 5e-3


def test_model_density_mass_and_mean():
    """Standardized rows force unit mean eigenvalue regardless of b."""
    for b in (0.0, 0.4, 0.7):
        grid, rho = exact_curve(b, C)
        mass = np.trapezoid(rho, grid)
        mean = np.trapezoid(rho * grid, grid)
        assert mass == pytest.approx(1.0, abs=5e-3)
        assert mean == pytest.approx(1.0, abs=2e-2)


def test_model_density_curve_nonnegative():
    nodes, exact = exact_curve(0.6, C)
    grid = np.linspace(0.0, 3.0 * nodes[-1], 400)
    rho = smoothed_density(nodes, exact, grid, 1e-3)
    assert np.all(rho >= 0.0)
    # on its nodes the density is 0 at both edges of the support and
    # positive between them; every default b builds at these c
    for c, b in itertools.product((0.05, 0.2, C, 2 / 3, 0.9), B_VALUES):
        _, exact = exact_curve(b, c)
        assert exact[0] == exact[-1] == 0.0, (b, c)
        assert np.all(exact[1:-1] > 0.0), (b, c)


def test_smoothing_needs_a_positive_width():
    nodes, rho = exact_curve(0.3, C)
    for epsilon in (0.0, -1e-3, math.inf):
        with pytest.raises(ValueError, match="epsilon must be positive and finite"):
            smoothed_density(nodes, rho, nodes, epsilon)


def test_support_widens_with_b():
    edges = [
        default_lambda_grid(NoiseModelParams(b=b, c=C))[-1]
        for b in (0.0, 0.3, 0.6)
    ]
    assert edges[0] < edges[1] < edges[2]


def unit_bump():
    """A density of unit trapezoid mass on [0, 40], 0 at both ends."""
    grid = np.linspace(0.0, 40.0, 4001)
    rho = grid * np.exp(-grid)
    rho[-1] = 0.0
    return grid, rho / np.trapezoid(rho, grid)


def test_bin_curve_total_mass_preserved():
    grid, rho = unit_bump()
    edges = np.linspace(0.0, 10.0, 41)
    masses = bin_curve(grid, rho, edges, 1e-3)
    assert masses.sum() == pytest.approx(1.0, abs=1e-12)


def test_bin_curve_clamps_tail_into_last_bin():
    grid, rho = unit_bump()
    wide = np.linspace(0.0, 40.0, 161)
    narrow = wide[:9]
    masses = bin_curve(grid, rho, narrow, 1e-3)
    # the last bin holds [1.75, 2] plus everything past the last edge
    assert masses[-1] == pytest.approx(bin_curve(grid, rho, wide, 1e-3)[7:].sum(), abs=1e-12)


def test_model_density_binned_matches_closed_form_cdf():
    cache = ModelDensityCache()
    grid, _ = cache.curve(0.0, C)
    edges = np.linspace(0.0, grid[-1], 51)
    masses = cache.masses((0.0,), C, 1e-4, edges).masses[0]
    lo, hi = oracles.mp_support(C)
    # compare binned masses against the closed-form MP integral per bin
    fine = np.linspace(lo, hi, 20001)
    ref_cdf = np.concatenate(
        [[0.0], np.cumsum(0.5 * (oracles.mp_density(fine, C)[1:] + oracles.mp_density(fine, C)[:-1]) * np.diff(fine))]
    )
    at_edges = np.interp(edges, fine, ref_cdf, left=0.0, right=ref_cdf[-1])
    assert np.max(np.abs(masses - np.diff(at_edges))) < 5e-3
