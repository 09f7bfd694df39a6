"""Window estimation, sweeping, run averaging, and change flagging."""
import numpy as np
import pytest

import oracles
from factorspec import (
    Ar1Spec,
    ChangePoint,
    EstimationResult,
    ModelDensityCache,
    RawDataSource,
    RunAverage,
    SearchGrid,
    StandardizedWindow,
    Timeline,
    WindowSpec,
    average_runs,
    detect_changes,
    estimate_window,
    generate_ar1,
    planted_factor_matrix,
    PlantedFactorSpec,
    sweep,
)
from factorspec import estimator
from factorspec.divergence import js_divergence_masses
from factorspec.empirical_spectrum import density_from_eigenvalues
from factorspec.estimator import _level_masses, _residual_eigenvalues, shared_bin_edges
from factorspec.errors import (
    DimensionMismatch,
    IndexMismatch,
    InvalidFactorCount,
    ModelDensityError,
)

CACHE = ModelDensityCache()  # shared across tests; model densities are immutable


def standardized(x, end_index=None):
    x = (x - x.mean(axis=1, keepdims=True)) / x.std(axis=1, keepdims=True)
    return StandardizedWindow(values=x, end_index=end_index or x.shape[1])


def small_grid(**kw):
    defaults = dict(
        p_values=(0, 1, 2, 3),
        b_values=(0.0, 0.2, 0.4, 0.6),
        bins=40,
        epsilon=1e-4,
    )
    defaults.update(kw)
    return SearchGrid(**defaults)


def test_search_grid_validation():
    with pytest.raises(ValueError):
        SearchGrid(p_values=())
    with pytest.raises(ValueError):
        SearchGrid(p_values=(-1,))
    with pytest.raises(ValueError):
        SearchGrid(b_values=(0.99,))
    with pytest.raises(ValueError):
        SearchGrid(bins=1)
    with pytest.raises(ValueError):
        SearchGrid(epsilon=0.0)


def test_fast_eigenvalue_path_matches_explicit_decomposition():
    """The sweep's single-eigendecomposition shortcut must agree with the
    explicit reference route: decompose, residual covariance, eigvalsh."""
    rng = np.random.default_rng(21)
    w = standardized(rng.normal(size=(30, 60)))
    eigs = _residual_eigenvalues(w, (0, 1, 4))
    assert np.all(np.diff(eigs) <= 0)
    for p in (0, 1, 4):
        zeroed = eigs.copy()
        zeroed[:p] = 0.0
        cov = oracles.residual_covariance(oracles.decompose(w.values, p)[2])
        explicit = np.linalg.eigvalsh(cov)
        assert np.allclose(np.sort(zeroed), np.sort(explicit), atol=1e-9)


def test_residual_eigenvalues_rejects_oversized_p():
    w = standardized(np.random.default_rng(0).normal(size=(10, 20)))
    with pytest.raises(InvalidFactorCount):
        _residual_eigenvalues(w, (11,))


def test_shared_bin_edges_cover_data_and_noise_support():
    edges = shared_bin_edges(emp_max=5.3, c=0.472, bins=40)
    assert edges[0] == 0.0
    assert len(edges) == 41
    assert edges[-1] >= 1.05 * 5.3
    assert edges[-1] % 0.25 == pytest.approx(0.0, abs=1e-12)
    # small data never shrinks the range below the noise bulk
    low = shared_bin_edges(emp_max=0.5, c=0.472, bins=40)
    assert low[-1] >= (1 + np.sqrt(0.472)) ** 2


def test_estimate_window_recovers_planted_factors():
    x = planted_factor_matrix(
        PlantedFactorSpec(k=2, strength=8.0, seed=31), Ar1Spec(b=0.4), N=118, T=250
    )
    result = estimate_window(standardized(x), small_grid(), cache=CACHE)
    assert result.p_hat == 2
    assert abs(result.b_hat - 0.4) <= 0.2
    assert result.divergence < 0.2


def test_estimate_window_pure_noise_prefers_few_factors():
    x = generate_ar1(Ar1Spec(b=0.2, seed=32), N=118, T=250)
    result = estimate_window(standardized(x), small_grid(), cache=CACHE)
    assert result.p_hat <= 1
    assert abs(result.b_hat - 0.2) <= 0.2


def test_estimate_window_deterministic_and_surface_complete():
    x = generate_ar1(Ar1Spec(b=0.3, seed=33), N=60, T=120)
    grid = small_grid()
    a = estimate_window(standardized(x), grid, cache=CACHE, keep_surface=True)
    b = estimate_window(standardized(x), grid, cache=CACHE, keep_surface=True)
    assert (a.p_hat, a.b_hat, a.divergence) == (b.p_hat, b.b_hat, b.divergence)
    assert set(a.divergence_surface) == {
        (p, bb) for p in grid.p_values for bb in grid.b_values
    }
    assert a.divergence == min(a.divergence_surface.values())


def zeroed(eigs, p):
    vals = eigs.copy()
    vals[:p] = 0.0
    return vals


@pytest.mark.parametrize("p_values", [[0, 1, 2, 3, 4, 5], [2, 3, 5]])
def test_level_masses_match_histograms_of_zeroed_spectra(p_values):
    """Derived p-level masses equal a fresh histogram of the zeroed spectrum
    bit for bit, including eigenvalues exactly on interior and end edges and
    a stray below the range."""
    edges = np.linspace(0.0, 5.0, 21)  # width 0.25, every edge exact
    rng = np.random.default_rng(40)
    eigs = np.sort(
        np.concatenate([[5.0, 4.0, 2.5, 2.5, 0.25], rng.uniform(0.0, 2.0, 30), [-1e-13]])
    )[::-1]
    base = density_from_eigenvalues(zeroed(eigs, p_values[0]), edges)
    derived = _level_masses(eigs, p_values, base, edges)
    assert derived.shape == (len(p_values), 20)
    for row, p in zip(derived, p_values):
        assert np.array_equal(row, density_from_eigenvalues(zeroed(eigs, p), edges))


def test_surface_equals_per_pair_scalar_loop():
    x = planted_factor_matrix(
        PlantedFactorSpec(k=1, strength=6.0, seed=41), Ar1Spec(b=0.3), N=60, T=120
    )
    w = standardized(x)
    grid = small_grid()
    result = estimate_window(w, grid, cache=CACHE, keep_surface=True)
    eigs = _residual_eigenvalues(w, grid.p_values)
    edges = shared_bin_edges(float(eigs.max()), 0.5, grid.bins)
    for b in grid.b_values:
        model = CACHE.masses(b, 0.5, grid.epsilon, edges)
        for p in grid.p_values:
            emp = density_from_eigenvalues(zeroed(eigs, p), edges)
            assert result.divergence_surface[(p, b)] == js_divergence_masses(emp, model)


class UniformCache:
    """Stub cache: the same masses for every b, so every b ties; `fail`
    lists b values whose lookup raises."""

    def __init__(self, fail=()):
        self.fail = fail

    def masses(self, b, c, epsilon, bin_edges):
        if b in self.fail:
            raise ModelDensityError(f"stub failure at b={b}")
        return np.full(len(bin_edges) - 1, 1.0 / (len(bin_edges) - 1))


def test_tie_rule_picks_smallest_b_among_identical_models():
    w = standardized(generate_ar1(Ar1Spec(b=0.3, seed=42), N=40, T=100))
    grid = small_grid()
    result = estimate_window(w, grid, cache=UniformCache(), keep_surface=True)
    surface = result.divergence_surface
    best = min(surface.values())
    tied = sorted(pair for pair, d in surface.items() if d <= best + 1e-15)
    # every b ties, and on this window p = 0 and p = 1 differ by 3e-17
    assert {p for p, _ in tied} == {0, 1}
    assert len(tied) == 2 * len(grid.b_values)
    assert (result.p_hat, result.b_hat) == tied[0] == (0, 0.0)
    skipped = estimate_window(w, grid, cache=UniformCache(fail=(0.0,)), keep_surface=True)
    assert skipped.b_hat == 0.2
    assert {b for _, b in skipped.divergence_surface} == {0.2, 0.4, 0.6}


def test_tie_rule_picks_smallest_p_then_smallest_b(monkeypatch):
    """Pairs within 1e-15 of the minimum tie; the smallest p wins, then the
    smallest b, wherever the exact minimum sits."""
    surface = np.full((4, 4), 0.5)
    surface[3, 0] = 0.1  # exact minimum, largest p
    surface[1, 3] = 0.1 + 5e-16  # tie, smaller p
    surface[1, 2] = 0.1 + 8e-16  # tie, same p, smaller b
    surface[0, 1] = 0.1 + 1e-14  # not a tie
    monkeypatch.setattr(estimator, "js_divergence_masses", lambda p, q: surface)
    w = standardized(generate_ar1(Ar1Spec(b=0.3, seed=43), N=40, T=100))
    result = estimate_window(w, small_grid(), cache=UniformCache())
    assert (result.p_hat, result.b_hat) == (1, 0.4)
    assert result.divergence == surface[1, 2]


def test_estimate_window_rejects_aspect_ratio_at_least_one():
    """c = N / T >= 1 puts an atom at 0 that the model curve only partly
    captures, so such a window is refused before it is scored."""
    for n, t in ((20, 20), (30, 20)):
        w = standardized(generate_ar1(Ar1Spec(b=0.3, seed=36), N=n, T=t))
        with pytest.raises(DimensionMismatch, match="aspect ratio"):
            estimate_window(w, small_grid(), cache=UniformCache())


def test_sweep_records_aspect_ratio_failures():
    src = RawDataSource(values=generate_ar1(Ar1Spec(b=0.3, seed=36), N=20, T=60))
    tl = sweep(src, WindowSpec(N=20, T=20, stride=20), small_grid(), cache=UniformCache())
    assert tl.results == ()
    assert [e for e, _ in tl.failures] == [20, 40, 60]
    assert all("DimensionMismatch" in msg for _, msg in tl.failures)


def test_sweep_covers_expected_end_indices():
    src = RawDataSource(values=generate_ar1(Ar1Spec(b=0.3, seed=34), N=40, T=140))
    tl = sweep(src, WindowSpec(N=40, T=100, stride=10), small_grid(), cache=CACHE)
    assert tl.end_indices == (100, 110, 120, 130, 140)
    assert tl.failures == ()


def test_sweep_records_failures_and_continues():
    vals = generate_ar1(Ar1Spec(b=0.3, seed=35), N=20, T=160)
    vals[3, 40:80] = 4.2  # constant stretch: only the window ending at 80 degenerates
    src = RawDataSource(values=vals)
    tl = sweep(src, WindowSpec(N=20, T=40, stride=20), small_grid(), cache=CACHE)
    assert len(tl.failures) == 1
    assert tl.failures[0][0] == 80
    assert "DegenerateRow" in tl.failures[0][1]
    assert tl.end_indices == (40, 60, 100, 120, 140, 160)


def make_timeline(end_indices, p_values):
    return Timeline(
        results=tuple(
            EstimationResult(end_index=e, p_hat=p, b_hat=0.5, divergence=0.1)
            for e, p in zip(end_indices, p_values)
        )
    )


def test_average_runs_means():
    t1 = make_timeline((10, 20, 30), (0, 1, 2))
    t2 = make_timeline((10, 20, 30), (2, 1, 0))
    avg = average_runs([t1, t2])
    assert avg.p_ave == (1.0, 1.0, 1.0)
    assert avg.run_count == 2


def test_average_runs_index_mismatch():
    with pytest.raises(IndexMismatch):
        average_runs([make_timeline((10, 20), (0, 0)), make_timeline((10, 30), (0, 0))])
    with pytest.raises(IndexMismatch):
        average_runs([])


def ravg(p_values):
    n = len(p_values)
    return RunAverage(
        end_indices=tuple(range(10, 10 + 10 * n, 10)),
        p_ave=tuple(float(p) for p in p_values),
        b_ave=(0.5,) * n,
        run_count=1,
    )


def test_detect_changes_flags_upward_step_once():
    avg = ravg([0, 0, 0, 0, 0, 1, 1, 1, 1, 1])
    flags = detect_changes(avg, threshold=0.5, hold=3)
    assert flags == (ChangePoint(end_index=60, direction=+1),)


def test_detect_changes_flags_downward_step():
    avg = ravg([2, 2, 2, 2, 0, 0, 0, 0])
    flags = detect_changes(avg, threshold=0.5, hold=3)
    assert len(flags) == 1 and flags[0].direction == -1


def test_detect_changes_ignores_flat_and_short_blips():
    assert detect_changes(ravg([1] * 10), threshold=0.5, hold=3) == ()
    # two-sample blip shorter than hold
    assert detect_changes(ravg([0, 0, 0, 0, 1, 1, 0, 0, 0, 0]), threshold=0.5, hold=3) == ()


def test_detect_changes_two_events():
    avg = ravg([0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2])
    flags = detect_changes(avg, threshold=0.5, hold=3)
    assert [f.direction for f in flags] == [1, 1]


def test_detect_changes_parameter_validation():
    with pytest.raises(ValueError):
        detect_changes(ravg([0, 0, 0]), threshold=0.0, hold=3)
    with pytest.raises(ValueError):
        detect_changes(ravg([0, 0, 0]), threshold=0.5, hold=0)


def test_cache_reuse_returns_identical_masses():
    cache = ModelDensityCache()
    edges = np.linspace(0.0, 4.0, 41)
    first = cache.masses(0.3, 0.472, 1e-3, edges)
    second = cache.masses(0.3, 0.472, 1e-3, edges)
    assert second is first
    assert first.sum() == pytest.approx(1.0)


def test_cache_builds_one_curve_per_b_across_edge_spans(monkeypatch):
    built = []
    real = estimator.model_density_curve

    def counting(params, grid, **kwargs):
        built.append(params.b)
        return real(params, grid, **kwargs)

    monkeypatch.setattr(estimator, "model_density_curve", counting)
    grid = small_grid(b_values=(0.0, 0.4))
    cache = ModelDensityCache()
    quiet = generate_ar1(Ar1Spec(b=0.3, seed=34), N=40, T=200)
    spiked = planted_factor_matrix(
        PlantedFactorSpec(k=1, strength=30.0, seed=34), Ar1Spec(b=0.3), N=40, T=200
    )
    spans = set()
    for x in (quiet, spiked, quiet):
        window = standardized(x)
        eigs = _residual_eigenvalues(window, grid.p_values)
        spans.add(shared_bin_edges(float(eigs.max()), 40 / 200, grid.bins)[-1])
        estimate_window(window, grid, cache=cache)
    assert len(spans) == 2
    assert sorted(built) == [0.0, 0.4]


def _curve_and_params(b=0.3, c=0.472):
    params = estimator.NoiseModelParams(b=b, c=c)
    grid = estimator.default_lambda_grid(params)
    return params, grid, estimator.model_density_curve(params, grid)


def test_cache_masses_inside_support_equal_direct_binning():
    params, grid, rho = _curve_and_params()
    edges = np.linspace(0.0, 0.6 * grid[-1], 41)
    expected = estimator.bin_curve(grid, rho, edges, 1e-3)
    got = ModelDensityCache().masses(params.b, params.c, 1e-3, edges)
    assert np.array_equal(got, expected)


def test_cache_masses_beyond_support_do_not_depend_on_span():
    _, grid, _ = _curve_and_params()
    cache = ModelDensityCache()
    narrow = np.linspace(0.0, 2.0 * grid[-1], 41)
    wide = np.linspace(0.0, 4.0 * grid[-1], 41)
    m_narrow = cache.masses(0.3, 0.472, 1e-3, narrow)
    m_wide = cache.masses(0.3, 0.472, 1e-3, wide)
    # no renormalization: both spans hold the node mass, which is 1 to 1e-6
    assert m_narrow.sum() == pytest.approx(m_wide.sum(), abs=1e-12)
    assert m_narrow.sum() == pytest.approx(1.0, abs=1e-6)
    # every other narrow edge is a wide edge: 2k * (2u / 40) == k * (4u / 40)
    assert np.array_equal(narrow[::2], wide[:21])
    # the CDF at each shared edge below the narrow span's last: the Cauchy
    # tail past that edge folds into the narrow span's last bin
    cdf_narrow = np.concatenate([[0.0], np.cumsum(m_narrow)])[:-1:2]
    cdf_wide = np.concatenate([[0.0], np.cumsum(m_wide)])[:20]
    assert np.max(np.abs(cdf_narrow - cdf_wide)) <= 1e-12


def test_cache_rejects_a_density_whose_mass_is_not_one():
    """The cache checks the exact node mass instead of renormalizing: at
    c = 1.5 the density holds 1/c of the mass (the rest is an atom at 0),
    and that b fails as a window's failing b does."""
    cache = ModelDensityCache()
    with pytest.raises(ModelDensityError, match="mass 0.66666"):
        cache.masses(0.3, 1.5, 1e-3, np.linspace(0.0, 8.0, 41))
    with pytest.raises(ModelDensityError):
        cache.curve(0.3, 1.5)
