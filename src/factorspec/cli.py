"""Command-line front end: case execution, CSV ingestion, report emission."""
from __future__ import annotations

import argparse
import csv
import json
import operator
import os
import sys
import tempfile
import time
from dataclasses import InitVar, dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .data_model import SIGMA_FLOOR, RawDataSource, WindowSpec, load_csv
from .datagen import CASES, Ar1Spec, case_schedule, synthesize_case
from .errors import (
    ConfigError,
    FactorSpecError,
    InvalidCoefficient,
    NoWindowScored,
)
from .estimator import (
    ModelDensityCache,
    RunAverage,
    SearchGrid,
    average_runs,
    detect_changes,
    sweep,
)
from .model_spectrum import DEFAULT_B_MAX, DEFAULT_EPSILON, check_density, smoothed_density

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_PIPELINE = 4
CURVE_POINTS = 2000  # points of a written model density curve
CURVE_POINTS_MAX = 10_000  # smoothing a curve makes a (points x 257) float64 kernel
B_STEP_MIN = 0.001  # the finest b grid: 951 values from 0 to DEFAULT_B_MAX


@dataclass
class RunConfig:
    """Every `detect` option: each field is the flag of the same name
    (`input_path` is `--input`), and its default here is the flag's.

    `workers` is no option: `detect` runs on one thread, and the argument
    is accepted, as 1 only, for callers that still pass it."""

    input_path: str | None = None
    case: str | None = None
    window_length: int = 250
    stride: int = 1
    p_max: int = 10
    b_step: float = 0.05
    bins: int = 100
    epsilon: float = DEFAULT_EPSILON
    runs: int = 1
    seed: int = 0
    output_dir: str = "out"
    skip_header: bool = False
    noise_b: float = 0.5
    threshold: float = 0.5
    hold: int = 3
    dump_surface: bool = False
    workers: InitVar[int] = 1

    def __post_init__(self, workers: int) -> None:
        if workers != 1:
            raise ConfigError("detect runs on one thread: workers must be 1")

    def validate(self) -> SearchGrid:
        """Return the run's search grid, or raise ConfigError for a missing
        source or an out-of-range option, before any record is read. Each
        rule is checked by its own owner: the grid by `SearchGrid`, the change
        rule by `detect_changes` on an empty average, the window geometry by
        `WindowSpec` at the smallest row count, N = 2, the seed by
        `operator.index`, and the case name by `case_schedule`. The rules that
        need the record's N are `SearchGrid.check_shape`'s, but as N < T,
        p_max < window_length is checked here, before a p grid is built."""
        if (self.input_path is None) == (self.case is None):
            raise ConfigError("exactly one of --input or --case is required")
        if self.input_path is not None and not Path(self.input_path).exists():
            raise ConfigError(f"input file not found: {self.input_path}")
        if self.runs < 1:
            raise ConfigError("runs must be >= 1")
        if self.input_path is not None and self.runs > 1:
            raise ConfigError("--runs > 1 needs --case: a CSV holds one realization")
        if not self.b_step > 0:
            raise ConfigError("b_step must be positive")
        if self.b_step < B_STEP_MIN:
            raise ConfigError(
                f"b_step = {self.b_step} would search {round(DEFAULT_B_MAX / self.b_step) + 1} "
                f"b values: it must be at least {B_STEP_MIN}"
            )
        if self.p_max >= self.window_length:
            raise ConfigError(
                f"p_max = {self.p_max} must be below window_length = {self.window_length}: "
                "a window's rank is its row count N, and N < T"
            )
        try:
            if operator.index(self.seed) < 0:
                raise ValueError
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"seed = {self.seed!r} must be a non-negative integer") from exc
        try:
            WindowSpec(N=2, T=self.window_length, stride=self.stride)
            Ar1Spec(b=self.noise_b)
            detect_changes(RunAverage((), (), (), 0), threshold=self.threshold, hold=self.hold)
            if self.case is not None:
                case_schedule(self.case)
            return self.grid()
        except (ValueError, InvalidCoefficient) as exc:
            raise ConfigError(str(exc)) from exc

    def grid(self) -> SearchGrid:
        steps = int(round(DEFAULT_B_MAX / self.b_step)) + 1
        # compare the rounded value: 19 * 0.05 exceeds 0.95 in floating point
        b_values = (round(i * self.b_step, 10) for i in range(steps))
        return SearchGrid(
            p_values=range(self.p_max + 1),
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


def _source_for_run(config: RunConfig, seed: int) -> RawDataSource:
    if config.input_path is not None:
        return load_csv(config.input_path, skip_header=config.skip_header)
    schedule, t = case_schedule(config.case)
    return synthesize_case(schedule, Ar1Spec(b=config.noise_b, seed=seed), 5.0, N=118, t=t)


def _no_window_message(timeline, t: int, window_length: int) -> str:
    if not timeline.failures:
        return f"no window fits: {t} samples, window length {window_length}"
    end_index, error = timeline.failures[0]
    return (
        f"none of the run's {len(timeline.failures)} windows was scored; "
        f"the first failed at end_index {end_index}: {error}"
    )


def run_detect(config: RunConfig) -> dict:
    """Execute the full detection pipeline and write artifacts; returns the report."""
    grid = config.validate()
    out = Path(config.output_dir)
    cache = ModelDensityCache()
    seeds = [config.seed + k for k in range(config.runs)]

    started = time.perf_counter()
    timelines = []
    for seed in seeds:
        source = _source_for_run(config, seed)
        if source.constant_rows:
            raise ConfigError(
                f"row {source.constant_rows[0]} is constant over the whole record (its "
                f"range is at most {SIGMA_FLOOR}), so every window would fail: drop the channel"
            )
        try:
            grid.check_shape(source.n, config.window_length)
        except FactorSpecError as exc:
            raise ConfigError(str(exc)) from exc
        wspec = WindowSpec(N=source.n, T=config.window_length, stride=config.stride)
        timeline = sweep(source, wspec, grid, cache=cache)
        if not timeline.results:
            raise NoWindowScored(_no_window_message(timeline, source.t, config.window_length))
        timelines.append(timeline)
    elapsed = time.perf_counter() - started
    avg = average_runs(timelines)
    annotations = detect_changes(avg, threshold=config.threshold, hold=config.hold)

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
    # before any write, so no config value leaves partial outputs; a numpy int is an int
    text = json.dumps(report, indent=2, default=operator.index)
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
                    for p, row in zip(r.p_values, r.surface.tolist())
                    for b, d in zip(r.b_values, row)
                ),
            )
    _write_rows(
        out / "run_average.csv",
        ["end_index", "p_ave", "b_ave"],
        zip(avg.end_indices, avg.p_ave, avg.b_ave),
    )

    _atomic_write(out / "report.json", lambda fh: fh.write(text))
    return report


def run_spectrum(
    b: float, c: float, output: str, epsilon: float = DEFAULT_EPSILON, points: int = CURVE_POINTS
) -> None:
    """Write the (lambda, rho) model density curve as CSV: the density that
    `ModelDensityCache.curve` builds and checks, smoothed at width epsilon,
    at `points` even steps from 0 to 5% past the support's upper edge. A
    density that fails its check, or a smoothed one that is not finite and
    nonnegative, raises ModelDensityError and writes nothing."""
    if points < 2:
        raise ConfigError("points must be >= 2")
    if points > CURVE_POINTS_MAX:
        raise ConfigError(f"points = {points} must be at most {CURVE_POINTS_MAX}")
    if c >= 1:  # an atom at 0, as `SearchGrid.check_shape` says of a window
        raise ConfigError(f"aspect ratio c = {c} must be below 1")
    try:  # an out-of-range b, c or epsilon
        nodes, rho = ModelDensityCache().curve(b, c)
        grid = np.linspace(0.0, 1.05 * nodes[-1], points)
        smoothed = check_density(
            smoothed_density(nodes, rho, grid, epsilon),
            f"density at b={b}, c={c}, epsilon={epsilon}",
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    _write_rows(Path(output), ["lambda", "rho"], zip(grid.tolist(), smoothed.tolist()))


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
    det.add_argument("--case", choices=sorted(CASES), help="built-in synthetic case")
    det.add_argument("--skip-header", action="store_true")
    det.add_argument("--window-length", type=int)
    det.add_argument("--stride", type=int)
    det.add_argument("--p-max", type=int)
    det.add_argument("--b-step", type=float)
    det.add_argument("--bins", type=int)
    det.add_argument("--epsilon", type=float)
    det.add_argument("--runs", type=int)
    det.add_argument("--seed", type=int)
    det.add_argument("--output-dir")
    det.add_argument("--noise-b", type=float)
    det.add_argument("--threshold", type=float)
    det.add_argument("--hold", type=int)
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
