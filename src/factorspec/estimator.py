"""Minimum-distance estimation of (p, b) per window, the moving-window sweep,
run averaging, and change-point flagging."""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .data_model import (
    RawDataSource,
    StandardizedWindow,
    WindowSpec,
    cut_window,
    index_field,
    standardize,
)
from .divergence import js_divergence_masses, smooth
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
    EPSILON_MIN,
    NoiseModelParams,
    bin_curve,
    check_density,
    default_lambda_grid,
    model_density_curve,
)


# Caps on what one window allocates: binning a b's curve makes one (bins x
# 257) float64 kernel (21 MB at the cap) and three (16 x 257) blocks, and
# scoring the surface makes (p, b, bin) float64 arrays (80 MB each at the cap).
BINS_MAX = 10_000
SURFACE_CELLS_MAX = 10**7


@dataclass(frozen=True)
class SearchGrid:
    """Joint (p, b) search domain plus spectral-comparison settings: p runs
    from 0 to `p_max`, and the b values are stored as a sorted tuple,
    whatever sized sequence is given; the surface's size is checked before
    they are. `p_max` and `bins` are stored as the ints that
    `index_field` gives, so a numpy integer is taken and 2.5 refused."""

    p_max: int = 10
    b_values: tuple[float, ...] = tuple(round(0.05 * i, 2) for i in range(20))
    epsilon: float = DEFAULT_EPSILON
    bins: int = 100

    def __post_init__(self):
        for name in ("p_max", "bins"):
            object.__setattr__(self, name, index_field(name, getattr(self, name)))
        if self.bins < 2:
            raise ValueError("need at least 2 bins")
        if self.bins > BINS_MAX:
            raise ValueError(f"bins = {self.bins} must be at most {BINS_MAX}")
        # sized before sorted, so an oversized grid is refused before it is copied
        p, b = self.p_max + 1, len(self.b_values)
        if p * b * self.bins > SURFACE_CELLS_MAX:
            raise ValueError(
                f"a surface of {p} p x {b} b x {self.bins} bins = {p * b * self.bins} "
                f"cells must have at most {SURFACE_CELLS_MAX}"
            )
        object.__setattr__(self, "b_values", tuple(sorted(self.b_values)))
        if self.p_max < 0:
            raise ValueError(f"p_max = {self.p_max} must be nonnegative")
        if not self.b_values or any(not 0 <= b <= DEFAULT_B_MAX for b in self.b_values):
            raise ValueError(f"b_values must lie within [0, {DEFAULT_B_MAX}]")
        if not EPSILON_MIN <= self.epsilon < math.inf:
            raise ValueError(f"epsilon must be positive and finite, at least {EPSILON_MIN}")

    def check_shape(self, n: int, t: int) -> None:
        """Raise unless every p of the grid can be scored on an n x t window.
        It needs c = n / t < 1, since c >= 1 puts an atom of mass 1 - 1/c at
        0 that the model density leaves out (DimensionMismatch: use a window
        longer than N samples), and no p above its rank n (InvalidFactorCount)."""
        if n >= t:
            raise DimensionMismatch(
                f"aspect ratio c = N / T = {n} / {t} must be below 1: "
                f"use a window longer than {n} samples"
            )
        if self.p_max > n:
            raise InvalidFactorCount(f"p = {self.p_max} exceeds the window's rank N = {n}")

    @property
    def p_values(self) -> range:
        """The searched p, 0 to p_max: row p of a window's surface is p."""
        return range(self.p_max + 1)


@dataclass(frozen=True)
class EstimationResult:
    """One window's fit. `surface[p, j]` is the JS divergence at
    (p, b_values[j]), read-only; `b_values` are the grid's b values whose
    model density built. (p_hat, b_hat) is its argmin and
    `divergence` its minimum. Results compare equal by every field but
    the surface, which the others are read from."""

    end_index: int
    p_hat: int
    b_hat: float
    divergence: float
    b_values: tuple[float, ...]
    surface: np.ndarray = field(compare=False, repr=False)


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


class ModelBlock:
    """The binned model masses of one (b grid, c, epsilon, bin edges):
    the b values whose density built, their (B, K) masses, and the `smooth`
    terms that the divergence needs of those masses."""

    def __init__(self, b_values, masses: np.ndarray):
        self.b_values = tuple(b_values)
        self.masses = masses
        self.smoothed = smooth(masses)


class ModelDensityCache:
    """Model densities keyed by (b, c), binned per edge span into one block
    per b grid.

    The exact density depends only on (b, c), so each is built once on its
    cosine nodes over the support (`default_lambda_grid`,
    `model_density_curve`) and kept under the exact floats b and c, with
    no rounding: every window computes c as N / T, so one shape always
    finds its curves. Windows bin the density, and the `spectrum`
    command writes it smoothed (`smoothed_density`). A density
    whose trapezoid mass on its nodes is not within 1e-6 of 1 raises
    `ModelDensityError`; the curve keeps the error and raises it again, so
    a failing b is built once. Binning applies epsilon as Cauchy smoothing
    (`bin_curve`): no mass lies below 0, and mass past the last edge folds
    into the last bin. A window looks up one `ModelBlock` per (b grid, c,
    epsilon, bin edges), which holds the smoothed masses and their entropy
    terms as well, so a warm window does no model work at all. The block is
    keyed on the bytes of its exact edges, so two spans that share a count
    and a last edge never share a block; a lookup whose every b fails
    stores none. Not thread-safe: share one cache only within a thread.
    """

    def __init__(self):
        self._blocks: dict[tuple, ModelBlock] = {}
        self._curves: dict[tuple, tuple[np.ndarray, np.ndarray] | ModelDensityError] = {}

    def curve(self, b: float, c: float) -> tuple[np.ndarray, np.ndarray]:
        """(nodes, exact density) of the model at (b, c)."""
        key = (b, c)
        hit = self._curves.get(key)
        if hit is None:
            try:
                hit = _exact_curve(b, c)
            except ModelDensityError as exc:
                hit = exc
            self._curves[key] = hit
        if isinstance(hit, ModelDensityError):
            raise hit.with_traceback(None)
        return hit

    def masses(
        self, b_values: tuple[float, ...], c: float, epsilon: float, bin_edges: np.ndarray
    ) -> ModelBlock:
        """The block of `b_values` binned onto `bin_edges`, which start at 0.
        A b whose density fails, or whose masses are not finite and
        nonnegative (an epsilon far past the support's scale), is left out
        of the block; if every b fails, the last failure is raised and no
        block is stored."""
        key = (tuple(b_values), c, epsilon, np.asarray(bin_edges, dtype=float).tobytes())
        hit = self._blocks.get(key)
        if hit is None:
            built, rows = [], []
            for b in b_values:
                try:
                    row = bin_curve(*self.curve(b, c), bin_edges, epsilon)
                    rows.append(check_density(row, f"masses at b={b}, c={c}, epsilon={epsilon}"))
                    built.append(b)
                except ModelDensityError as exc:
                    failure = exc
            if not built:
                raise failure
            hit = self._blocks[key] = ModelBlock(built, np.array(rows))
        return hit


def _exact_curve(b: float, c: float) -> tuple[np.ndarray, np.ndarray]:
    params = NoiseModelParams(b=b, c=c)
    nodes = default_lambda_grid(params)
    rho = model_density_curve(params, nodes)
    mass = float(np.trapezoid(rho, nodes))
    if abs(mass - 1.0) > 1e-6:
        raise ModelDensityError(f"model density at b={b}, c={c} has mass {mass}, not 1")
    return nodes, rho


def _residual_eigenvalues(window: StandardizedWindow) -> np.ndarray:
    """Descending eigenvalues of (1/T) X X'.

    Subtracting the top-p principal part replaces the top p eigenvalues
    with zeros and leaves the rest untouched, so this one spectrum serves
    every p from 0 to p_max, and its first eigenvalue spans them all."""
    x = window.values
    return np.linalg.eigvalsh((x @ x.T) / x.shape[1])[::-1]


def shared_bin_edges(emp_max: float, c: float, bins: int) -> np.ndarray:
    """Uniform edges over [0, u] spanning the empirical spectrum and at
    least the b=0 model support; u is rounded up to a multiple of 0.25 so
    model densities cache well across windows."""
    mp_edge = (1.0 + math.sqrt(c)) ** 2
    u = 1.05 * max(emp_max, mp_edge)
    u = math.ceil(u / 0.25) * 0.25
    return np.linspace(0.0, u, bins + 1)


def estimate_window(
    window: StandardizedWindow, grid: SearchGrid, cache: ModelDensityCache
) -> EstimationResult:
    """Joint argmin of the JS divergence between the p-level empirical
    density and the b-model density.

    The whole (p, b) surface is scored in one call. Tie rule: among the
    pairs within 1e-15 of the minimum, the smallest p wins, then the
    smallest b. A b whose model density fails is skipped. A window that
    `grid.check_shape` refuses raises its error before it is scored. The
    model masses come from `cache`: share one across windows, so each
    model curve is built once."""
    n, t = window.values.shape
    grid.check_shape(n, t)
    c = n / t
    eigs = _residual_eigenvalues(window)
    edges = shared_bin_edges(float(eigs[0]), c, grid.bins)
    emp_masses = density_from_eigenvalues(eigs, edges, grid.p_max)
    try:
        block = cache.masses(grid.b_values, c, grid.epsilon, edges)
    except FactorSpecError as exc:
        raise GridExhausted(f"every (p, b) pair failed; last error: {exc}") from None
    b_values = block.b_values
    surface = js_divergence_masses(emp_masses[:, None, :], block.smoothed)
    surface.flags.writeable = False
    first = int(np.argmax(surface <= surface.min() + 1e-15))  # row-major: p, then b
    p, j = divmod(first, len(b_values))
    return EstimationResult(
        end_index=window.end_index,
        p_hat=p,
        b_hat=b_values[j],
        divergence=float(surface[p, j]),
        b_values=b_values,
        surface=surface,
    )


def sweep(
    source: RawDataSource,
    spec: WindowSpec,
    grid: SearchGrid,
    cache: ModelDensityCache,
) -> Timeline:
    """One EstimationResult per end_index from T to t by stride, every
    window scored against `cache`; failed windows are recorded, not fatal."""
    results = []
    failures = []
    for end_index in range(spec.T, source.t + 1, spec.stride):
        try:
            window = standardize(cut_window(source, spec, end_index))
            results.append(estimate_window(window, grid, cache=cache))
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
