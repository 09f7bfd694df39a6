"""Which factorspec call sites the traced run wraps, and the per-layer
metrics derived from the spans.

Each target names the module (or class) whose attribute the caller looks
up, so the span sits on the boundary between two layers. Several targets
may feed one span name; a span is absent only when all of its targets are.
"""
from __future__ import annotations

import logging

from factorspec import cli, data_model, datagen, estimator

from spans import Patches, Tracer
from stats import hit_ratio

TARGETS = (
    (cli, "load_csv", "data_model.load_csv"),
    (cli, "synthesize_case", "datagen.synthesize"),
    (datagen, "generate_ar1", "datagen.synthesize"),
    (datagen, "unit_loadings", "datagen.synthesize"),
    (data_model, "cut_window", "data_model.window"),
    (data_model, "standardize", "data_model.window"),
    (estimator, "cut_window", "data_model.window"),
    (estimator, "standardize", "data_model.window"),
    (estimator, "_residual_eigenvalues", "empirical_spectrum.eig"),
    (estimator, "density_from_eigenvalues", "empirical_spectrum.hist"),
    (estimator, "js_divergence_masses", "divergence.js"),
    (estimator.ModelDensityCache, "masses", "estimator.cache"),
    (estimator, "default_lambda_grid", "model_spectrum.grid"),
    (estimator, "model_density_curve", "model_spectrum.curve"),
    (estimator, "bin_curve", "model_spectrum.bin"),
    (cli, "average_runs", "estimator.changes"),
    (cli, "detect_changes", "estimator.changes"),
    (cli, "_atomic_write", "cli.write"),
)


class ClampCounter(logging.Handler):
    """Counts the warnings `empirical_spectrum` logs when a histogram clamps
    eigenvalues into its end bins. Installed in every run, traced or not,
    so the warnings never reach stderr and cost the same in both."""

    def __init__(self):
        super().__init__(level=logging.WARNING)
        self.records = 0

    def emit(self, record):
        self.records += 1


class LayerTrace:
    """Spans at every target plus counts taken at `estimate_window`: (p, b)
    pairs scored, the grid shape, and windows whose histogram clamped."""

    def __init__(self, clamps: ClampCounter):
        self.tracer = Tracer()
        self.clamps = clamps
        self.pairs_scored = 0
        self.grid_p = 0
        self.grid_b = 0
        self.clamped_windows = 0
        self._patches = Patches()
        self._installed: set[str] = set()

    def install(self) -> None:
        for owner, attr, span in TARGETS:
            if self._patches.replace(owner, attr, lambda fn, s=span: self.tracer.wrap(s, fn)):
                self._installed.add(span)
        self._patches.replace(
            estimator,
            "estimate_window",
            lambda fn: self._count_window(self.tracer.wrap("estimator.window", fn)),
        )

    def restore(self) -> None:
        self._patches.restore()

    def _count_window(self, fn):
        def counted(window, grid, *args, **kwargs):
            before = self.clamps.records
            result = fn(window, grid, *args, **kwargs)
            self.grid_p, self.grid_b = len(grid.p_values), len(grid.b_values)
            self.pairs_scored += self.grid_p * self.grid_b
            if self.clamps.records > before:
                self.clamped_windows += 1
            return result

        return counted

    def metrics(self) -> dict[str, tuple[float | None, str]]:
        """Per-layer values keyed by metric name; None marks an absent layer."""
        stats = self.tracer.stats

        def total(span):
            if span not in self._installed:
                return None
            st = stats.get(span)
            return st.total_s if st else 0.0

        def calls(span):
            if span not in self._installed:
                return None
            st = stats.get(span)
            return st.calls if st else 0

        cache = stats.get("estimator.cache")
        lookups = calls("estimator.cache")
        misses = None if lookups is None else (cache.calls_with_children if cache else 0)
        ratio = None if lookups is None else hit_ratio(lookups, misses)
        window = stats.get("estimator.window")
        return {
            "model_spectrum.curve_s": (total("model_spectrum.curve"), "s"),
            "model_spectrum.curve_calls": (calls("model_spectrum.curve"), "count"),
            "model_spectrum.grid_s": (total("model_spectrum.grid"), "s"),
            "model_spectrum.grid_calls": (calls("model_spectrum.grid"), "count"),
            "model_spectrum.bin_s": (total("model_spectrum.bin"), "s"),
            "estimator.cache_lookups": (lookups, "count"),
            "estimator.cache_misses": (misses, "count"),
            "estimator.cache_hit_ratio": (None if ratio is None else ratio.value, "ratio"),
            "estimator.cache_s": (total("estimator.cache"), "s"),
            "divergence.js_s": (total("divergence.js"), "s"),
            "divergence.js_calls": (calls("divergence.js"), "count"),
            "estimator.pairs_scored": (self.pairs_scored, "count"),
            "estimator.grid_p": (self.grid_p, "count"),
            "estimator.grid_b": (self.grid_b, "count"),
            "estimator.window_self_s": (window.self_s if window else 0.0, "s"),
            "empirical_spectrum.eig_s": (total("empirical_spectrum.eig"), "s"),
            "empirical_spectrum.hist_s": (total("empirical_spectrum.hist"), "s"),
            "empirical_spectrum.hist_calls": (calls("empirical_spectrum.hist"), "count"),
            "empirical_spectrum.clamped_windows": (self.clamped_windows, "count"),
            "data_model.load_csv_s": (total("data_model.load_csv"), "s"),
            "data_model.window_s": (total("data_model.window"), "s"),
            "data_model.window_calls": (calls("data_model.window"), "count"),
            "estimator.changes_s": (total("estimator.changes"), "s"),
            "cli.write_s": (total("cli.write"), "s"),
            "datagen.synthesize_s": (total("datagen.synthesize"), "s"),
        }
