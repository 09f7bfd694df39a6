"""Command-line front end: case execution, CSV ingestion, report emission."""
from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .data_model import RawDataSource, WindowSpec, load_csv
from .datagen import Ar1Spec, PlantedFactorSpec, case_schedule, synthesize_case
from .errors import ConfigError, FactorSpecError, InvalidCoefficient
from .estimator import (
    ModelDensityCache,
    SearchGrid,
    Timeline,
    average_runs,
    detect_changes,
    sweep,
)
from .model_spectrum import (
    DEFAULT_B_MAX,
    NoiseModelParams,
    default_lambda_grid,
    model_density_curve,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_PIPELINE = 4


@dataclass
class RunConfig:
    """Every `detect` option: each field is the flag of the same name
    (`input_path` is `--input`), and its default here is the flag's."""

    input_path: str | None = None
    case: str | None = None
    window_length: int = 250
    stride: int = 1
    p_max: int = 10
    b_step: float = 0.05
    bins: int = 100
    epsilon: float = 1e-3
    runs: int = 1
    seed: int = 0
    workers: int = 1
    output_dir: str = "out"
    skip_header: bool = False
    noise_b: float = 0.5
    threshold: float = 0.5
    hold: int = 3
    dump_densities: bool = False
    dump_surface: bool = False

    def validate(self) -> None:
        """Raise ConfigError for a missing source or an out-of-range option.
        The window geometry needs the source's row count, so `run_detect`
        checks it, and the change rule, before its first write."""
        if (self.input_path is None) == (self.case is None):
            raise ConfigError("exactly one of --input or --case is required")
        if self.input_path is not None and not Path(self.input_path).exists():
            raise ConfigError(f"input file not found: {self.input_path}")
        if self.runs < 1:
            raise ConfigError("runs must be >= 1")
        if self.input_path is not None and self.runs > 1:
            raise ConfigError("--runs > 1 needs --case: a CSV holds one realization")
        if self.workers < 1:
            raise ConfigError("workers must be >= 1")
        if not self.b_step > 0:
            raise ConfigError("b_step must be positive")
        try:
            self.grid()
            Ar1Spec(b=self.noise_b)
        except (ValueError, InvalidCoefficient) as exc:
            raise ConfigError(str(exc)) from exc

    def grid(self) -> SearchGrid:
        steps = int(round(DEFAULT_B_MAX / self.b_step)) + 1
        # compare the rounded value: 19 * 0.05 exceeds 0.95 in floating point
        b_values = (round(i * self.b_step, 10) for i in range(steps))
        return SearchGrid(
            p_values=tuple(range(self.p_max + 1)),
            b_values=tuple(b for b in b_values if b <= DEFAULT_B_MAX),
            epsilon=self.epsilon,
            bins=self.bins,
        )


def _atomic_write(path: Path, write_fn) -> None:
    """Write via a temp file and atomic rename so failures leave no partial file."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
    try:
        with os.fdopen(fd, "w", newline="") as fh:
            write_fn(fh)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_rows(path: Path, header: list[str], rows) -> None:
    """Write `rows` as CSV under a header row, atomically."""

    def write(fh):
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)

    _atomic_write(path, write)


def _write_curve(path: Path, grid: np.ndarray, rho: np.ndarray) -> None:
    _write_rows(path, ["lambda", "rho"], zip(grid, rho))


def _dump_model_densities(
    out: Path, grid: SearchGrid, c: float, cache: ModelDensityCache
) -> None:
    """One (lambda, rho) curve per b value, the ones the run's estimates used."""
    for b in grid.b_values:
        _write_curve(out / f"model_density_b{b:.2f}.csv", *cache.curve(b, c, grid.epsilon))


def _source_for_run(config: RunConfig, seed: int) -> RawDataSource:
    if config.input_path is not None:
        return load_csv(config.input_path, skip_header=config.skip_header)
    schedule, t = case_schedule(config.case)
    mixing = PlantedFactorSpec(k=max(1, len(schedule.events)), strength=5.0)
    return synthesize_case(
        schedule, Ar1Spec(b=config.noise_b, seed=seed), mixing, N=118, t=t
    )


def run_detect(config: RunConfig) -> dict:
    """Execute the full detection pipeline and write artifacts; returns the report."""
    config.validate()
    out = Path(config.output_dir)
    grid = config.grid()
    cache = ModelDensityCache()
    seeds = [config.seed + k for k in range(config.runs)]

    def one_run(seed: int) -> tuple[Timeline, int]:
        source = _source_for_run(config, seed)
        if source.n >= config.window_length:
            # c >= 1 puts an atom at 0 that the model curve only partly captures
            raise ConfigError(
                f"aspect ratio c = N / T = {source.n} / {config.window_length} must be "
                f"below 1: use a window longer than {source.n} samples"
            )
        try:
            wspec = WindowSpec(N=source.n, T=config.window_length, stride=config.stride)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        tl = sweep(source, wspec, grid, cache=cache, keep_surface=config.dump_surface)
        return tl, source.n

    started = time.perf_counter()
    if config.workers > 1:
        with ThreadPoolExecutor(max_workers=config.workers) as pool:
            runs = list(pool.map(one_run, seeds))
    else:
        runs = [one_run(s) for s in seeds]
    elapsed = time.perf_counter() - started
    timelines = [tl for tl, _ in runs]
    avg = average_runs(timelines)
    try:
        annotations = detect_changes(avg, threshold=config.threshold, hold=config.hold)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    for k, tl in enumerate(timelines):
        _write_rows(
            out / f"timeline_run{k:03d}.csv",
            ["end_index", "p_hat", "b_hat", "divergence"],
            ((r.end_index, r.p_hat, r.b_hat, r.divergence) for r in tl.results),
        )
        if config.dump_surface:
            _write_rows(
                out / f"surface_run{k:03d}.csv",
                ["end_index", "p", "b", "divergence"],
                (
                    (r.end_index, p, b, d)
                    for r in tl.results
                    for (p, b), d in sorted((r.divergence_surface or {}).items())
                ),
            )
    if config.dump_densities:
        _dump_model_densities(out, grid, runs[0][1] / config.window_length, cache)
    _write_rows(
        out / "run_average.csv",
        ["end_index", "p_ave", "b_ave"],
        zip(avg.end_indices, avg.p_ave, avg.b_ave),
    )

    report = {
        "version": __version__,
        "config": {k: v for k, v in vars(config).items()},
        "grid": {
            "p_values": list(grid.p_values),
            "b_values": list(grid.b_values),
            "epsilon": grid.epsilon,
            "bins": grid.bins,
        },
        "seeds": seeds,
        "runs": config.runs,
        "windows": len(avg.end_indices),
        "failures": [list(f) for tl in timelines for f in tl.failures],
        "annotations": [
            {"end_index": a.end_index, "direction": a.direction} for a in annotations
        ],
        "wall_clock_seconds": elapsed,
    }
    _atomic_write(out / "report.json", lambda fh: json.dump(report, fh, indent=2))
    return report


def run_spectrum(b: float, c: float, output: str, epsilon: float = 1e-3, points: int = 2000) -> None:
    """Write the (lambda, rho) model density curve as CSV."""
    if points < 2:
        raise ConfigError("points must be >= 2")
    if not epsilon > 0:
        raise ConfigError("epsilon must be positive")
    if c >= 1:
        # c >= 1 puts an atom at 0 that the model curve only partly captures
        raise ConfigError(f"aspect ratio c = {c} must be below 1")
    try:
        params = NoiseModelParams(b=b, c=c)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    grid = default_lambda_grid(params, epsilon, n_points=points)
    _write_curve(Path(output), grid, model_density_curve(params, grid, epsilon))


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="factorspec",
        description="Factor-model spectral event detection for multivariate telemetry",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # An absent flag sets nothing, so the defaults are RunConfig's and
    # run_spectrum's own.
    det = sub.add_parser(
        "detect", argument_default=argparse.SUPPRESS, help="run the moving-window (p, b) estimator"
    )
    det.add_argument("--input", dest="input_path", help="CSV source: one row per channel")
    det.add_argument("--case", choices=["case1", "case2", "case3"], help="built-in synthetic case")
    det.add_argument("--skip-header", action="store_true")
    det.add_argument("--window-length", type=int)
    det.add_argument("--stride", type=int)
    det.add_argument("--p-max", type=int)
    det.add_argument("--b-step", type=float)
    det.add_argument("--bins", type=int)
    det.add_argument("--epsilon", type=float)
    det.add_argument("--runs", type=int)
    det.add_argument("--seed", type=int)
    det.add_argument("--workers", type=int)
    det.add_argument("--output-dir")
    det.add_argument("--noise-b", type=float)
    det.add_argument("--threshold", type=float)
    det.add_argument("--hold", type=int)
    det.add_argument("--dump-densities", action="store_true")
    det.add_argument("--dump-surface", action="store_true")

    spec = sub.add_parser(
        "spectrum", argument_default=argparse.SUPPRESS, help="dump a model density curve as CSV"
    )
    spec.add_argument("--b", type=float, required=True)
    spec.add_argument("--c", type=float, required=True)
    spec.add_argument("--output", required=True)
    spec.add_argument("--epsilon", type=float)
    spec.add_argument("--points", type=int)
    return parser


def _error_record(exc: Exception) -> str:
    return json.dumps({"error": type(exc).__name__, "message": str(exc)})


def main(argv=None) -> int:
    options = vars(_build_parser().parse_args(argv))
    command = options.pop("command")
    try:
        if command == "detect":
            run_detect(RunConfig(**options))
        else:
            run_spectrum(**options)
        return EXIT_OK
    except ConfigError as exc:
        print(_error_record(exc), file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(_error_record(exc), file=sys.stderr)
        return EXIT_IO
    except FactorSpecError as exc:
        print(_error_record(exc), file=sys.stderr)
        return EXIT_PIPELINE


if __name__ == "__main__":
    raise SystemExit(main())
