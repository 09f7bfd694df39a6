"""Minimum-distance estimation of (p, b) per window, the moving-window sweep,
run averaging, and change-point flagging."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data_model import RawDataSource, StandardizedWindow, WindowSpec, cut_window, standardize
from .divergence import js_divergence_masses
from .empirical_spectrum import density_from_eigenvalues
from .errors import (
    DimensionMismatch,
    FactorSpecError,
    GridExhausted,
    IndexMismatch,
    InvalidFactorCount,
    ModelDensityError,
)
from .model_spectrum import (
    DEFAULT_B_MAX,
    DEFAULT_EPSILON,
    NoiseModelParams,
    bin_curve,
    default_lambda_grid,
    model_density_curve,
)


@dataclass(frozen=True)
class SearchGrid:
    """Joint (p, b) search domain plus spectral-comparison settings."""

    p_values: tuple[int, ...] = tuple(range(11))
    b_values: tuple[float, ...] = tuple(round(0.05 * i, 2) for i in range(20))
    epsilon: float = DEFAULT_EPSILON
    bins: int = 100

    def __post_init__(self):
        if not self.p_values or any(p < 0 for p in self.p_values):
            raise ValueError("p_values must be nonempty and nonnegative")
        if not self.b_values or any(not 0 <= b <= DEFAULT_B_MAX for b in self.b_values):
            raise ValueError(f"b_values must lie within [0, {DEFAULT_B_MAX}]")
        if self.bins < 2:
            raise ValueError("need at least 2 bins")
        if not self.epsilon > 0:
            raise ValueError("epsilon must be positive")


@dataclass(frozen=True)
class EstimationResult:
    end_index: int
    p_hat: int
    b_hat: float
    divergence: float
    divergence_surface: dict[tuple[int, float], float] | None = None


@dataclass(frozen=True)
class ChangePoint:
    end_index: int
    direction: int  # +1 upward shift, -1 downward


@dataclass(frozen=True)
class Timeline:
    results: tuple[EstimationResult, ...]
    failures: tuple[tuple[int, str], ...] = ()

    @property
    def end_indices(self) -> tuple[int, ...]:
        return tuple(r.end_index for r in self.results)


@dataclass(frozen=True)
class RunAverage:
    end_indices: tuple[int, ...]
    p_ave: tuple[float, ...]
    b_ave: tuple[float, ...]
    run_count: int


class ModelDensityCache:
    """Model densities keyed by (b, c), binned per edge set.

    The exact density depends only on (b, c), so each is built once on its
    cosine nodes over the support (`default_lambda_grid`,
    `model_density_curve`) and kept. A density whose trapezoid mass on its
    nodes is not within 1e-6 of 1 raises `ModelDensityError`, and a density
    that fails to build is not cached. Binning applies epsilon as Cauchy
    smoothing (`bin_curve`): no mass lies below 0, and mass past the last
    edge folds into the last bin. Binned masses are memoized per (b, c,
    epsilon, bins, edge span). Not thread-safe: share one cache only within
    a thread.
    """

    def __init__(self):
        self._store: dict[tuple, np.ndarray] = {}
        self._curves: dict[tuple, tuple[np.ndarray, np.ndarray]] = {}

    def curve(self, b: float, c: float) -> tuple[np.ndarray, np.ndarray]:
        """(nodes, exact density) of the model at (b, c)."""
        key = (round(b, 10), round(c, 12))
        hit = self._curves.get(key)
        if hit is not None:
            return hit
        params = NoiseModelParams(b=b, c=c)
        nodes = default_lambda_grid(params)
        rho = model_density_curve(params, nodes, support=(nodes[0], nodes[-1]))
        mass = float(np.trapezoid(rho, nodes))
        if abs(mass - 1.0) > 1e-6:
            raise ModelDensityError(f"model density at b={b}, c={c} has mass {mass}, not 1")
        self._curves[key] = (nodes, rho)
        return nodes, rho

    def masses(
        self, b: float, c: float, epsilon: float, bin_edges: np.ndarray
    ) -> np.ndarray:
        key = (round(b, 10), round(c, 12), epsilon, len(bin_edges), float(bin_edges[-1]))
        hit = self._store.get(key)
        if hit is not None:
            return hit
        masses = bin_curve(*self.curve(b, c), bin_edges, epsilon)
        self._store[key] = masses
        return masses


def _residual_eigenvalues(window: StandardizedWindow, p_values) -> np.ndarray:
    """Descending eigenvalues of (1/T) X X', after checking every p fits.

    Subtracting the top-p principal part replaces the top p eigenvalues
    with zeros and leaves the rest untouched, so this one spectrum serves
    every p."""
    x = window.values
    n, t = x.shape
    p_max = max(p_values)
    if p_max > min(n, t):
        raise InvalidFactorCount(f"p={p_max} exceeds min(N, T)={min(n, t)}")
    return np.linalg.eigvalsh((x @ x.T) / t)[::-1]


def _level_masses(
    eigs: np.ndarray, p_values: list[int], base_masses: np.ndarray, edges: np.ndarray
) -> np.ndarray:
    """(P, K) empirical masses of every p-level spectrum, derived from the
    histogram `base_masses` of the lowest level (top p_values[0] zeroed).

    Each higher level moves its extra zeroed eigenvalues from their bins to
    bin 0 (edges start at 0, so a zero always lands there). Counts stay
    integers and are divided by N last, exactly as the histogram does."""
    n = eigs.size
    p0 = p_values[0]
    moved = np.clip(eigs[p0 : p_values[-1]], edges[0], edges[-1])
    # np.histogram's rule: edges[j] <= x < edges[j + 1], last bin closed
    bins = np.minimum(np.searchsorted(edges, moved, side="right") - 1, len(edges) - 2)
    removed = np.zeros((moved.size + 1, len(edges) - 1), dtype=np.int64)
    removed[np.arange(1, moved.size + 1), bins] = 1
    removed = np.cumsum(removed, axis=0)[[p - p0 for p in p_values]]
    counts = np.rint(base_masses * n).astype(np.int64) - removed
    counts[:, 0] += np.array(p_values) - p0
    return counts / n


def shared_bin_edges(emp_max: float, c: float, bins: int) -> np.ndarray:
    """Uniform edges over [0, u] spanning the empirical spectrum and at
    least the b=0 model support; u is rounded up to a multiple of 0.25 so
    model densities cache well across windows."""
    mp_edge = (1.0 + math.sqrt(c)) ** 2
    u = 1.05 * max(emp_max, mp_edge)
    u = math.ceil(u / 0.25) * 0.25
    return np.linspace(0.0, u, bins + 1)


def estimate_window(
    window: StandardizedWindow,
    grid: SearchGrid,
    cache: ModelDensityCache | None = None,
    keep_surface: bool = False,
) -> EstimationResult:
    """Joint argmin of the JS divergence between the p-level empirical
    density and the b-model density.

    The whole (p, b) surface is scored in one call. Tie rule: among the
    pairs within 1e-15 of the minimum, the smallest p wins, then the
    smallest b. A b whose model density fails is skipped. A window with
    N >= T raises DimensionMismatch: c >= 1 puts an atom of mass 1 - 1/c at
    0, which the model density leaves out."""
    cache = cache if cache is not None else ModelDensityCache()
    n, t = window.values.shape
    if n >= t:
        raise DimensionMismatch(f"aspect ratio c = N / T = {n} / {t} must be below 1")
    c = n / t
    eigs = _residual_eigenvalues(window, grid.p_values)
    p_values = sorted(grid.p_values)
    base = eigs.copy()
    base[: p_values[0]] = 0.0
    edges = shared_bin_edges(float(base.max()), c, grid.bins)
    emp_masses = _level_masses(eigs, p_values, density_from_eigenvalues(base, edges), edges)

    b_values: list[float] = []
    model_masses = []
    last_error: FactorSpecError | None = None
    for b in sorted(grid.b_values):
        try:
            model_masses.append(cache.masses(b, c, grid.epsilon, edges))
        except FactorSpecError as exc:
            last_error = exc
            continue
        b_values.append(b)
    if not b_values:
        raise GridExhausted(f"every (p, b) pair failed; last error: {last_error}")

    surface = js_divergence_masses(emp_masses[:, None, :], np.stack(model_masses)[None, :, :])
    first = int(np.argmax(surface <= surface.min() + 1e-15))  # row-major: p, then b
    i, j = divmod(first, len(b_values))
    kept = None
    if keep_surface:
        kept = {
            (p, b): float(surface[pi, bj])
            for bj, b in enumerate(b_values)
            for pi, p in enumerate(p_values)
        }
    return EstimationResult(
        end_index=window.end_index,
        p_hat=p_values[i],
        b_hat=b_values[j],
        divergence=float(surface[i, j]),
        divergence_surface=kept,
    )


def sweep(
    source: RawDataSource,
    spec: WindowSpec,
    grid: SearchGrid,
    cache: ModelDensityCache | None = None,
    keep_surface: bool = False,
) -> Timeline:
    """One EstimationResult per end_index from T to t by stride; failed
    windows are recorded, not fatal."""
    cache = cache if cache is not None else ModelDensityCache()
    results = []
    failures = []
    for end_index in range(spec.T, source.t + 1, spec.stride):
        try:
            window = standardize(cut_window(source, spec, end_index))
            results.append(
                estimate_window(window, grid, cache=cache, keep_surface=keep_surface)
            )
        except FactorSpecError as exc:
            failures.append((end_index, f"{type(exc).__name__}: {exc}"))
    return Timeline(results=tuple(results), failures=tuple(failures))


def average_runs(timelines) -> RunAverage:
    """Per-end_index arithmetic mean of p_hat and b_hat across runs."""
    timelines = list(timelines)
    if not timelines:
        raise IndexMismatch("no timelines to average")
    indices = timelines[0].end_indices
    for tl in timelines[1:]:
        if tl.end_indices != indices:
            raise IndexMismatch("timelines do not share end_index sets")
    p = np.array([[r.p_hat for r in tl.results] for tl in timelines], dtype=float)
    b = np.array([[r.b_hat for r in tl.results] for tl in timelines], dtype=float)
    return RunAverage(
        end_indices=indices,
        p_ave=tuple(p.mean(axis=0)),
        b_ave=tuple(b.mean(axis=0)),
        run_count=len(timelines),
    )


def detect_changes(avg: RunAverage, threshold: float, hold: int) -> tuple[ChangePoint, ...]:
    """Flag shifts of the p-average trajectory.

    A change is flagged at the first window of a run where p_ave deviates
    from the median of the trailing reference (the 2*hold - 1 windows just
    before the run) by at least `threshold`, with the same sign, for `hold`
    consecutive windows. The widened reference keeps blips shorter than
    `hold` from capturing the median and spawning a phantom reverse flag."""
    if not threshold > 0:
        raise ValueError("threshold must be positive")
    if hold < 1:
        raise ValueError("hold must be >= 1")
    p = np.asarray(avg.p_ave, dtype=float)
    ref_len = 2 * hold - 1
    flags = []
    i = hold
    while i + hold <= len(p):
        ref = float(np.median(p[max(0, i - ref_len) : i]))
        dev = p[i : i + hold] - ref
        if np.all(dev >= threshold):
            flags.append(ChangePoint(end_index=avg.end_indices[i], direction=+1))
            i += hold
        elif np.all(dev <= -threshold):
            flags.append(ChangePoint(end_index=avg.end_indices[i], direction=-1))
            i += hold
        else:
            i += 1
    return tuple(flags)
