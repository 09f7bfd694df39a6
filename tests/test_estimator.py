"""Window estimation, sweeping, run averaging, and change flagging."""
import math

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
from factorspec.estimator import ModelBlock, _residual_eigenvalues, shared_bin_edges
from factorspec.errors import (
    DimensionMismatch,
    GridExhausted,
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
        p_max=3,
        b_values=(0.0, 0.2, 0.4, 0.6),
        bins=40,
        epsilon=1e-4,
    )
    defaults.update(kw)
    return SearchGrid(**defaults)


def test_search_grid_validation():
    with pytest.raises(ValueError, match="p_max = -1 must be nonnegative"):
        SearchGrid(p_max=-1)
    with pytest.raises(ValueError):
        SearchGrid(b_values=(0.99,))
    with pytest.raises(ValueError):
        SearchGrid(bins=1)
    with pytest.raises(ValueError):
        SearchGrid(epsilon=0.0)
    # every model mass would be NaN, and an all-NaN surface picks its first pair
    with pytest.raises(ValueError, match="epsilon must be positive and finite"):
        SearchGrid(epsilon=math.inf)


@pytest.mark.parametrize("name", ["p_max", "bins"])
def test_search_grid_refuses_a_count_that_is_not_an_integer(name):
    """p_max and bins are counts, judged by `operator.index`: 20.5 is refused
    on construction, naming the field, where a window would otherwise fail
    with numpy's UFuncTypeError and `sweep` with a bare TypeError."""
    with pytest.raises(ValueError, match=rf"{name} = 20\.5 must be an integer"):
        small_grid(**{name: 20.5})


def test_search_grid_stores_a_numpy_count_as_its_int():
    grid = small_grid(p_max=np.int64(3), bins=np.int32(40))
    assert (type(grid.p_max), type(grid.bins)) == (int, int)
    assert grid == small_grid()


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_a_b_whose_binned_masses_are_not_finite_and_nonnegative_fails():
    """Past the widths the grid is meant for, binning goes wrong: at
    epsilon = 10 the b = 0.95 row dips below 0, and at 1e155 every row is
    NaN. Such a b is left out of the block, as a failed density is."""
    cache = ModelDensityCache()
    edges = shared_bin_edges(3.0, 0.472, 100)
    assert cache.masses((0.5, 0.95), 0.472, 10.0, edges).b_values == (0.5,)
    with pytest.raises(ModelDensityError, match="b=0.95, c=0.472, epsilon=1e"):
        cache.masses((0.5, 0.95), 0.472, 1e155, edges)


@pytest.mark.parametrize("epsilon", [1e-4, 1e-3])
def test_no_default_b_fails_its_masses_at_the_working_widths(epsilon):
    """At the widths the grid is used with, every default b keeps its row:
    at the built-in cases' and the tests' c, on spans up to u = 12."""
    b_values = SearchGrid().b_values
    for c in (118 / 250, 20 / 30, 60 / 120):
        for top in (2.0, 4.0, 8.0, 12.0):
            block = CACHE.masses(b_values, c, epsilon, shared_bin_edges(top, c, 100))
            assert block.b_values == b_values, (c, top)


def test_search_grid_bounds_what_a_window_allocates():
    """The bin count sizes each b's (bins x 257) binning kernel and the
    grid sizes the (p, b, bin) surface: both are refused past their caps,
    with the size in the message."""
    with pytest.raises(ValueError, match="bins = 100000000 must be at most 10000"):
        SearchGrid(bins=10**8)
    fine_b = tuple(round(0.001 * i, 3) for i in range(951))
    with pytest.raises(ValueError, match="11 p x 951 b x 10000 bins = 104610000 cells"):
        SearchGrid(b_values=fine_b, bins=10_000)
    assert SearchGrid(bins=10_000).bins == 10_000
    assert len(SearchGrid(b_values=fine_b, bins=955).b_values) == 951


def test_search_grid_stores_sorted_tuples():
    """The b values are sorted once, on construction, and a grid given a
    list is hashable; p runs from 0 to p_max."""
    grid = SearchGrid(p_max=5, b_values=(0.5, 0.2))
    assert grid.p_values == range(6) and grid.b_values == (0.2, 0.5)
    assert hash(SearchGrid(b_values=[0.2, 0.5])) == hash(SearchGrid(b_values=(0.5, 0.2)))


def test_estimate_window_passes_the_grid_b_values_as_stored():
    """A window looks its block up under the grid's own b tuple: the grid
    is not sorted again per window."""
    seen = []
    cache = ModelDensityCache()
    real = cache.masses
    cache.masses = lambda b_values, *args: seen.append(b_values) or real(b_values, *args)
    grid = small_grid(p_max=2, b_values=(0.4, 0.0))
    x = generate_ar1(Ar1Spec(b=0.3, seed=8), N=30, T=120)
    estimate_window(standardized(x), grid, cache=cache)
    assert len(seen) == 1 and seen[0] is grid.b_values


def test_fast_eigenvalue_path_matches_explicit_decomposition():
    """The sweep's single-eigendecomposition shortcut must agree with the
    explicit reference route: decompose, residual covariance, eigvalsh."""
    rng = np.random.default_rng(21)
    w = standardized(rng.normal(size=(30, 60)))
    eigs = _residual_eigenvalues(w)
    assert np.all(np.diff(eigs) <= 0)
    for p in (0, 1, 4):
        zeroed = eigs.copy()
        zeroed[:p] = 0.0
        cov = oracles.residual_covariance(oracles.decompose(w.values, p)[2])
        explicit = np.linalg.eigvalsh(cov)
        assert np.allclose(np.sort(zeroed), np.sort(explicit), atol=1e-9)


def test_residual_eigenvalues_rejects_oversized_p():
    """A 10 x 20 window has rank 10, so p = 11 is refused before scoring."""
    w = standardized(np.random.default_rng(0).normal(size=(10, 20)))
    with pytest.raises(InvalidFactorCount):
        estimate_window(w, small_grid(p_max=11), cache=UniformCache())


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


def as_dict(result):
    """The result's surface keyed by (p, b)."""
    return {
        (p, b): d
        for p, row in enumerate(result.surface.tolist())
        for b, d in zip(result.b_values, row)
    }


def test_estimate_window_deterministic_and_surface_complete():
    """Two fits of one window compare equal, surfaces and all, which is
    what a replay that checks its results with == relies on; the surface
    is read-only and spans the whole grid."""
    x = generate_ar1(Ar1Spec(b=0.3, seed=33), N=60, T=120)
    grid = small_grid()
    a = estimate_window(standardized(x), grid, cache=CACHE)
    b = estimate_window(standardized(x), grid, cache=CACHE)
    assert a == b
    assert np.array_equal(a.surface, b.surface)
    assert not a.surface.flags.writeable
    assert a.surface.shape == (grid.p_max + 1, len(a.b_values))
    assert set(as_dict(a)) == {
        (p, bb) for p in grid.p_values for bb in grid.b_values
    }
    assert a.divergence == min(as_dict(a).values())


def zeroed(eigs, p):
    vals = eigs.copy()
    vals[:p] = 0.0
    return vals


def test_level_masses_match_histograms_of_zeroed_spectra():
    """Derived p-level masses equal a fresh histogram of the zeroed spectrum
    bit for bit, including eigenvalues exactly on interior and end edges and
    a stray below the range."""
    edges = np.linspace(0.0, 5.0, 21)  # width 0.25, every edge exact
    rng = np.random.default_rng(40)
    eigs = np.sort(
        np.concatenate([[5.0, 4.0, 2.5, 2.5, 0.25], rng.uniform(0.0, 2.0, 30), [-1e-13]])
    )[::-1]
    derived = density_from_eigenvalues(eigs, edges, 5)
    assert derived.shape == (6, 20)
    for p, row in enumerate(derived):
        assert np.array_equal(row, density_from_eigenvalues(zeroed(eigs, p), edges))


def test_surface_equals_per_pair_scalar_loop():
    x = planted_factor_matrix(
        PlantedFactorSpec(k=1, strength=6.0, seed=41), Ar1Spec(b=0.3), N=60, T=120
    )
    w = standardized(x)
    grid = small_grid()
    result = estimate_window(w, grid, cache=CACHE)
    assert as_dict(result) == per_pair_surface(w, grid, CACHE)[1]


def per_pair_surface(window, grid, cache):
    """The (p, b) surface scored one pair at a time: a histogram of each
    zeroed spectrum, one per-b model lookup, and a scalar JS call."""
    n, t = window.values.shape
    eigs = _residual_eigenvalues(window)
    lowest = zeroed(eigs, min(grid.p_values))
    edges = shared_bin_edges(float(lowest.max()), n / t, grid.bins)
    surface = {}
    for b in grid.b_values:
        try:
            model = cache.masses((b,), n / t, grid.epsilon, edges).masses[0]
        except ModelDensityError:
            continue
        for p in grid.p_values:
            emp = density_from_eigenvalues(zeroed(eigs, p), edges)
            surface[(p, b)] = js_divergence_masses(emp, model)
    return edges[-1], surface


def test_surface_equals_per_pair_route_across_grids_and_spans():
    """Every kept surface entry equals the per-pair route exactly: for a
    grid whose b values arrive unsorted, at c = 0.95 where b = 0.95 fails,
    and with two grids on one cache, over windows on more than one edge
    span."""
    cache = ModelDensityCache()
    grids = (
        SearchGrid(p_max=5, bins=37, epsilon=1e-4),
        SearchGrid(p_max=2, b_values=(0.2, 0.95, 0.5), bins=37, epsilon=1e-4),
    )
    quiet = generate_ar1(Ar1Spec(b=0.3, seed=45), N=95, T=100)
    spiked = planted_factor_matrix(
        PlantedFactorSpec(k=1, strength=30.0, seed=45), Ar1Spec(b=0.3), N=95, T=100
    )
    reference = ModelDensityCache()
    spans = set()
    for x in (quiet, spiked):
        w = standardized(x)
        for grid in grids:
            result = estimate_window(w, grid, cache=cache)
            span, want = per_pair_surface(w, grid, reference)
            spans.add(span)
            assert 0.95 not in {b for _, b in want}
            assert as_dict(result).keys() == want.keys()
            for pair, d in want.items():
                assert as_dict(result)[pair] == d, pair
    assert len(spans) >= 2


class UniformCache:
    """Stub cache: the same masses for every b, so every b ties; `fail`
    lists b values whose lookup raises."""

    def __init__(self, fail=()):
        self.fail = fail

    def masses(self, b_values, c, epsilon, bin_edges):
        kept = [b for b in b_values if b not in self.fail]
        if not kept:
            raise ModelDensityError(f"stub failure at b={b_values[-1]}")
        k = len(bin_edges) - 1
        return ModelBlock(kept, np.full((len(kept), k), 1.0 / k))


def test_tie_rule_picks_smallest_b_among_identical_models():
    w = standardized(generate_ar1(Ar1Spec(b=0.3, seed=42), N=40, T=100))
    grid = small_grid()
    result = estimate_window(w, grid, cache=UniformCache())
    surface = as_dict(result)
    best = min(surface.values())
    tied = sorted(pair for pair, d in surface.items() if d <= best + 1e-15)
    # every b ties, and on this window p = 0 and p = 1 differ by 3e-17
    assert {p for p, _ in tied} == {0, 1}
    assert len(tied) == 2 * len(grid.b_values)
    assert (result.p_hat, result.b_hat) == tied[0] == (0, 0.0)
    skipped = estimate_window(w, grid, cache=UniformCache(fail=(0.0,)))
    assert skipped.b_hat == 0.2
    assert {b for _, b in as_dict(skipped)} == {0.2, 0.4, 0.6}


def test_a_grid_whose_every_b_fails_is_exhausted(monkeypatch):
    """Every window on such a grid raises GridExhausted naming the last
    failure, and the failing density is built once."""
    built = []
    real = estimator.model_density_curve
    monkeypatch.setattr(
        estimator, "model_density_curve", lambda *a, **kw: built.append(1) or real(*a, **kw)
    )
    cache = ModelDensityCache()
    grid = small_grid(b_values=(0.95,))
    for seed in (46, 47):
        w = standardized(generate_ar1(Ar1Spec(b=0.3, seed=seed), N=95, T=100))
        with pytest.raises(GridExhausted, match="b=0.95, c=0.95 has mass"):
            estimate_window(w, grid, cache=cache)
    assert len(built) == 1


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


@pytest.mark.parametrize(
    "n, t, p_max, error",
    [
        (20, 20, 3, DimensionMismatch),
        (30, 20, 3, DimensionMismatch),
        (10, 20, 11, InvalidFactorCount),
        (10, 20, 10, None),
    ],
)
def test_check_shape_owns_the_window_rules(n, t, p_max, error):
    """c = N / T < 1 and p <= N are checked by the grid alone, and a window
    that breaks either is refused with the grid's own message."""
    grid = small_grid(p_max=p_max)
    w = standardized(generate_ar1(Ar1Spec(b=0.3, seed=36), N=n, T=t))
    if error is None:
        grid.check_shape(n, t)
        assert estimate_window(w, grid, cache=UniformCache()).p_hat in grid.p_values
        return
    with pytest.raises(error) as owner:
        grid.check_shape(n, t)
    with pytest.raises(error) as scored:
        estimate_window(w, grid, cache=UniformCache())
    assert str(scored.value) == str(owner.value)


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
    for value in (4.2, 123456.789):
        vals[3, 40:80] = value  # constant stretch: only the window ending at 80 degenerates
        src = RawDataSource(values=vals)
        tl = sweep(src, WindowSpec(N=20, T=40, stride=20), small_grid(), cache=CACHE)
        assert len(tl.failures) == 1, value
        assert tl.failures[0][0] == 80
        assert "DegenerateRow" in tl.failures[0][1]
        assert tl.end_indices == (40, 60, 100, 120, 140, 160)


def make_timeline(end_indices, p_values):
    return Timeline(
        results=tuple(
            EstimationResult(
                end_index=e, p_hat=p, b_hat=0.5, divergence=0.1,
                b_values=(0.5,), surface=np.array([[0.1]]),
            )
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
    first = cache.masses((0.3,), 0.472, 1e-3, edges)
    second = cache.masses((0.3,), 0.472, 1e-3, edges)
    assert second is first
    assert first.masses[0].sum() == pytest.approx(1.0)


def test_cache_keys_a_block_on_its_exact_edges():
    """Two spans of 41 edges that both end at 4.0 and differ only in edge
    10 each get their own block, binned on their own edges."""
    cache = ModelDensityCache()
    first = np.linspace(0.0, 4.0, 41)
    second = first.copy()
    second[10] = 1.1
    assert first[10] == 1.0
    curve = cache.curve(0.3, 0.472)
    for edges in (first, second):
        block = cache.masses((0.3,), 0.472, 1e-3, edges)
        assert np.array_equal(block.masses[0], estimator.bin_curve(*curve, edges, 1e-3))


@pytest.mark.parametrize("first, second", [(4e-13, 1e-13), (0.472 + 4e-13, 0.472)])
def test_cache_keys_a_curve_on_its_exact_c(first, second):
    """Two aspect ratios that agree to 12 decimals get their own curves:
    after c = 4e-13 (support edges 0.99999874 and 1.00000126), c = 1e-13
    gets the curve a fresh cache gives it."""
    cache = ModelDensityCache()
    cache.curve(0.0, first)
    nodes, rho = cache.curve(0.0, second)
    fresh_nodes, fresh_rho = ModelDensityCache().curve(0.0, second)
    assert np.array_equal(nodes, fresh_nodes) and np.array_equal(rho, fresh_rho)


def test_cache_keys_a_block_on_its_exact_c():
    cache = ModelDensityCache()
    edges = np.linspace(0.0, 4.0, 41)
    cache.masses((0.3,), 0.472 + 4e-13, 1e-3, edges)
    got = cache.masses((0.3,), 0.472, 1e-3, edges).masses
    assert np.array_equal(got, ModelDensityCache().masses((0.3,), 0.472, 1e-3, edges).masses)


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
        eigs = _residual_eigenvalues(window)
        spans.add(shared_bin_edges(float(eigs.max()), 40 / 200, grid.bins)[-1])
        estimate_window(window, grid, cache=cache)
    assert len(spans) == 2
    assert sorted(built) == [0.0, 0.4]


def test_cache_builds_a_failing_b_once(monkeypatch):
    """At c = 0.95 the b = 0.95 density fails its node-mass check. A
    stride-1 sweep builds every curve on its first window, the failing one
    included, and none after."""
    built = []
    real = estimator.model_density_curve

    def counting(params, grid, **kwargs):
        built.append(params.b)
        return real(params, grid, **kwargs)

    per_window = []
    real_estimate = estimator.estimate_window

    def recording(*args, **kwargs):
        before = len(built)
        result = real_estimate(*args, **kwargs)
        per_window.append(len(built) - before)
        return result

    monkeypatch.setattr(estimator, "model_density_curve", counting)
    monkeypatch.setattr(estimator, "estimate_window", recording)
    src = RawDataSource(values=generate_ar1(Ar1Spec(b=0.3, seed=44), N=95, T=106))
    grid = SearchGrid(epsilon=1e-4)
    tl = sweep(src, WindowSpec(N=95, T=100, stride=1), grid, cache=ModelDensityCache())
    assert tl.failures == ()
    assert per_window == [20, 0, 0, 0, 0, 0, 0]
    assert built.count(0.95) == 1


def _curve_and_params(b=0.3, c=0.472):
    params = estimator.NoiseModelParams(b=b, c=c)
    grid = estimator.default_lambda_grid(params)
    return params, grid, estimator.model_density_curve(params, grid)


def test_cache_masses_inside_support_equal_direct_binning():
    params, grid, rho = _curve_and_params()
    edges = np.linspace(0.0, 0.6 * grid[-1], 41)
    expected = estimator.bin_curve(grid, rho, edges, 1e-3)
    got = ModelDensityCache().masses((params.b,), params.c, 1e-3, edges).masses[0]
    assert np.array_equal(got, expected)


def test_cache_masses_beyond_support_do_not_depend_on_span():
    _, grid, _ = _curve_and_params()
    cache = ModelDensityCache()
    narrow = np.linspace(0.0, 2.0 * grid[-1], 41)
    wide = np.linspace(0.0, 4.0 * grid[-1], 41)
    m_narrow = cache.masses((0.3,), 0.472, 1e-3, narrow).masses[0]
    m_wide = cache.masses((0.3,), 0.472, 1e-3, wide).masses[0]
    # no renormalization: both spans hold the node mass, which is 1 to 1e-6
    assert m_narrow.sum() == pytest.approx(m_wide.sum(), abs=1e-12)
    assert m_narrow.sum() == pytest.approx(1.0, abs=1e-6)
    # every other narrow edge below the last is a wide edge: 2k * (2u / 40)
    # == k * (4u / 40); linspace sets the last to 2u, which need not be
    # 20 * (4u / 40) to the last bit
    assert np.array_equal(narrow[:-1:2], wide[:20])
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
        cache.masses((0.3,), 1.5, 1e-3, np.linspace(0.0, 8.0, 41))
    assert cache._blocks == {}  # the curve keeps the failure; no block is stored
    with pytest.raises(ModelDensityError):
        cache.curve(0.3, 1.5)
