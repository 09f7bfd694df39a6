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
from .errors import ConfigError, FactorSpecError
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
    dump_eigenvalues: bool = False
    dump_densities: bool = False
    dump_surface: bool = False

    def validate(self) -> None:
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


def _write_timeline_csv(path: Path, timeline: Timeline) -> None:
    def write(fh):
        writer = csv.writer(fh)
        writer.writerow(["end_index", "p_hat", "b_hat", "divergence"])
        for r in timeline.results:
            writer.writerow([r.end_index, r.p_hat, r.b_hat, r.divergence])

    _atomic_write(path, write)


def _dump_eigenvalues(path: Path, source: RawDataSource, wspec: WindowSpec) -> None:
    """Sorted residual-covariance eigenvalues (p = 0) per window."""
    from .data_model import cut_window, standardize

    def write(fh):
        writer = csv.writer(fh)
        for end_index in range(wspec.T, source.t + 1, wspec.stride):
            w = standardize(cut_window(source, wspec, end_index))
            eigs = np.linalg.eigvalsh((w.values @ w.values.T) / wspec.T)
            writer.writerow([end_index, *eigs])

    _atomic_write(path, write)


def _dump_surfaces(path: Path, timeline: Timeline) -> None:
    def write(fh):
        writer = csv.writer(fh)
        writer.writerow(["end_index", "p", "b", "divergence"])
        for r in timeline.results:
            if r.divergence_surface:
                for (p, b), d in sorted(r.divergence_surface.items()):
                    writer.writerow([r.end_index, p, b, d])

    _atomic_write(path, write)


def _write_curve(path: Path, grid: np.ndarray, rho: np.ndarray) -> None:
    def write(fh):
        writer = csv.writer(fh)
        writer.writerow(["lambda", "rho"])
        for lam, r in zip(grid, rho):
            writer.writerow([lam, r])

    _atomic_write(path, write)


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
        wspec = WindowSpec(N=source.n, T=config.window_length, stride=config.stride)
        tl = sweep(source, wspec, grid, cache=cache, keep_surface=config.dump_surface)
        if config.dump_eigenvalues:
            _dump_eigenvalues(out / f"eigenvalues_seed{seed}.csv", source, wspec)
        return tl, source.n

    started = time.perf_counter()
    if config.workers > 1:
        with ThreadPoolExecutor(max_workers=config.workers) as pool:
            runs = list(pool.map(one_run, seeds))
    else:
        runs = [one_run(s) for s in seeds]
    elapsed = time.perf_counter() - started
    timelines = [tl for tl, _ in runs]

    for k, tl in enumerate(timelines):
        _write_timeline_csv(out / f"timeline_run{k:03d}.csv", tl)
        if config.dump_surface:
            _dump_surfaces(out / f"surface_run{k:03d}.csv", tl)
    if config.dump_densities:
        _dump_model_densities(out, grid, runs[0][1] / config.window_length, cache)
    avg = average_runs(timelines)
    annotations = detect_changes(avg, threshold=config.threshold, hold=config.hold)

    def write_avg(fh):
        writer = csv.writer(fh)
        writer.writerow(["end_index", "p_ave", "b_ave"])
        for e, p, b in zip(avg.end_indices, avg.p_ave, avg.b_ave):
            writer.writerow([e, p, b])

    _atomic_write(out / "run_average.csv", write_avg)

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
    if c <= 0:
        raise ConfigError(f"aspect ratio c={c} must be positive")
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

    det = sub.add_parser("detect", help="run the moving-window (p, b) estimator")
    det.add_argument("--input", help="CSV source: one row per channel")
    det.add_argument("--case", choices=["case1", "case2", "case3"], help="built-in synthetic case")
    det.add_argument("--skip-header", action="store_true")
    det.add_argument("--window-length", type=int, default=250)
    det.add_argument("--stride", type=int, default=1)
    det.add_argument("--p-max", type=int, default=10)
    det.add_argument("--b-step", type=float, default=0.05)
    det.add_argument("--bins", type=int, default=100)
    det.add_argument("--epsilon", type=float, default=1e-3)
    det.add_argument("--runs", type=int, default=1)
    det.add_argument("--seed", type=int, default=0)
    det.add_argument("--workers", type=int, default=1)
    det.add_argument("--output-dir", default="out")
    det.add_argument("--noise-b", type=float, default=0.5)
    det.add_argument("--threshold", type=float, default=0.5)
    det.add_argument("--hold", type=int, default=3)
    det.add_argument("--dump-eigenvalues", action="store_true")
    det.add_argument("--dump-densities", action="store_true")
    det.add_argument("--dump-surface", action="store_true")

    spec = sub.add_parser("spectrum", help="dump a model density curve as CSV")
    spec.add_argument("--b", type=float, required=True)
    spec.add_argument("--c", type=float, required=True)
    spec.add_argument("--output", required=True)
    spec.add_argument("--epsilon", type=float, default=1e-3)
    spec.add_argument("--points", type=int, default=2000)
    return parser


def _error_record(exc: Exception) -> str:
    return json.dumps({"error": type(exc).__name__, "message": str(exc)})


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "detect":
            config = RunConfig(
                input_path=args.input,
                case=args.case,
                window_length=args.window_length,
                stride=args.stride,
                p_max=args.p_max,
                b_step=args.b_step,
                bins=args.bins,
                epsilon=args.epsilon,
                runs=args.runs,
                seed=args.seed,
                workers=args.workers,
                output_dir=args.output_dir,
                skip_header=args.skip_header,
                noise_b=args.noise_b,
                threshold=args.threshold,
                hold=args.hold,
                dump_eigenvalues=args.dump_eigenvalues,
                dump_densities=args.dump_densities,
                dump_surface=args.dump_surface,
            )
            run_detect(config)
        else:
            run_spectrum(args.b, args.c, args.output, args.epsilon, args.points)
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
