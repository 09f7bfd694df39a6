"""The benchmark's workloads.

Each workload builds its inputs from the seed, sets up SETUPS times (the
median set-up is reported), then runs its timed section: passes over its
record until at least `seconds` have been measured. Every output is checked;
a failed check counts as a failed operation. Only public entry points are
driven: `cli.run_detect`, `load_csv`, `cut_window`, `standardize`,
`estimate_window` and, to fill a cache in set-up, `sweep`, always looked up
on their module at call time so the traced run can wrap them.

- case1-cold: the north-star command with one run. A fresh model cache per
  detect, so the model-density layer does almost all of the work. Its time
  follows the number of distinct bin spans in the record (17 to 22 over
  seeds), which spreads it too widely across seeds for a regression bound,
  so BENCHMARK.json leaves it out; run it by name.
- monitor-warm: an online monitor's per-window loop at stride 1 against a
  cache filled in set-up, so divergence scoring and the eigendecomposition
  do the work and the model layer does none.
- archive-csv: detects over a long CSV record with non-overlapping
  windows against a cache filled in set-up, the only workload where CSV
  parsing dominates.
"""
from __future__ import annotations

import csv
import json
import os
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from factorspec import cli, data_model, datagen, estimator
from factorspec.errors import FactorSpecError

from spans import Patches

N = 118
T = 250
EPSILON = 1e-4
SETUPS = 3
NOISE_B = 0.4
MONITOR_WINDOWS = 150
ARCHIVE_SAMPLES = 20000
ARCHIVE_STRIDE = 250
ARCHIVE_FACTOR_WINDOWS = 4
ARCHIVE_STRENGTH = 6.0


@dataclass
class Quality:
    """Estimate quality against the generator's truth, with its bases."""

    p_correct_rate: float
    scored_windows: int
    b_mae: float | None  # None when no window is free of factors
    noise_windows: int


@dataclass
class Outcome:
    setup_s: list[float] = field(default_factory=list)
    record_s: list[float] = field(default_factory=list)  # one per timed pass
    window_s: list[float] = field(default_factory=list)  # one per estimate_window
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    quality: Quality | None = None

    def check(self, ok: bool, what: str) -> None:
        if not ok:
            self.failed += 1
            self.problems.append(what)


def score(estimates, truth_p, b_true: float) -> Quality:
    """`estimates` and `truth_p` are (end_index, p_hat, b_hat) rows and the
    active factor count per end_index."""
    correct = sum(1 for e, p, _ in estimates if p == truth_p[e])
    noise = [abs(b - b_true) for e, _, b in estimates if truth_p[e] == 0]
    return Quality(
        p_correct_rate=correct / len(estimates),
        scored_windows=len(estimates),
        b_mae=sum(noise) / len(noise) if noise else None,
        noise_windows=len(noise),
    )


def step_factors_active(events, end: int, length: int, t: int) -> int:
    """Step factors whose level changes inside the window of `length` samples
    ending at `end`. A step that is constant across a window is removed by
    standardization, so only a window that straddles an edge sees it."""
    start = end - length + 1
    active = 0
    for ev in events:
        edges = [ev.onset] if ev.offset is None or ev.offset >= t else [ev.onset, ev.offset + 1]
        if any(start <= edge - 1 and edge <= end for edge in edges):
            active += 1
    return active


class Probe:
    """Times every `estimate_window` call; installed in every run."""

    def __init__(self):
        self.window_s: list[float] = []
        self._patches = Patches()

    def install(self) -> None:
        self._patches.replace(estimator, "estimate_window", self._timed)

    def restore(self) -> None:
        self._patches.restore()

    def _timed(self, fn):
        def timed(*args, **kwargs):
            start = time.perf_counter()
            result = fn(*args, **kwargs)
            self.window_s.append(time.perf_counter() - start)
            return result

        return timed


def read_detect_outputs(out: Path, report: dict, expected_windows: int, outcome: Outcome):
    """Read back the CLI's timeline, run average and report.json, check them,
    and return the timeline as (end_index, p_hat, b_hat) rows."""
    with open(out / "timeline_run000.csv", newline="") as fh:
        timeline = [
            (int(r["end_index"]), int(r["p_hat"]), float(r["b_hat"])) for r in csv.DictReader(fh)
        ]
    with open(out / "run_average.csv", newline="") as fh:
        average = [
            (int(r["end_index"]), float(r["p_ave"]), float(r["b_ave"])) for r in csv.DictReader(fh)
        ]
    saved = json.loads((out / "report.json").read_text())
    outcome.check(saved == report, "report.json differs from the returned report")
    outcome.check(saved["windows"] == expected_windows, f"report counts {saved['windows']} windows")
    outcome.check(len(timeline) == expected_windows, f"timeline has {len(timeline)} rows")
    outcome.check(average == timeline, "single-run average differs from its timeline")
    outcome.failed += len(saved["failures"])
    outcome.problems += [f"window failed: {f}" for f in saved["failures"]]
    p_grid = set(saved["grid"]["p_values"])
    b_grid = set(saved["grid"]["b_values"])
    for e, p, b in timeline:
        outcome.check(p in p_grid and b in b_grid, f"({p}, {b}) at {e} is off the grid")
    return timeline


def run_detect_timed(config, out: Path, probe: Probe, outcome: Outcome) -> dict:
    shutil.rmtree(out, ignore_errors=True)
    config.output_dir = str(out)
    first = len(probe.window_s)
    start = time.perf_counter()
    report = cli.run_detect(config)
    outcome.record_s.append(time.perf_counter() - start)
    outcome.window_s += probe.window_s[first:]
    return report


class Case1Cold:
    """`factorspec detect --case case1 --runs 1 --stride 10 --epsilon 1e-4`
    with a fresh model cache, as every CLI invocation pays it. Its set-up is
    what else an invocation pays: a fresh interpreter importing the package."""

    name = "case1-cold"
    stride = 10

    def __init__(self, root: Path, work: Path, seed: int):
        self.root, self.work, self.seed = root, work, seed
        schedule, self.t = datagen.case_schedule("case1")
        ends = range(T, self.t + 1, self.stride)
        self.truth = {e: step_factors_active(schedule.events, e, T, self.t) for e in ends}

    def setup(self, outcome: Outcome) -> None:
        subprocess.run(
            [sys.executable, "-c", "import factorspec.cli"],
            check=True,
            cwd=self.root,
            env={**os.environ, "PYTHONPATH": str(self.root / "src")},
            timeout=120,
        )

    def timed_pass(self, probe: Probe, outcome: Outcome) -> None:
        config = cli.RunConfig(
            case="case1", runs=1, stride=self.stride, epsilon=EPSILON, seed=self.seed,
            window_length=T, workers=1,
        )
        out = self.work / "case1"
        report = run_detect_timed(config, out, probe, outcome)
        outcome.attempted += len(self.truth)
        timeline = read_detect_outputs(out, report, len(self.truth), outcome)
        outcome.quality = score(timeline, self.truth, config.noise_b)


class MonitorWarm:
    """An online monitor: every stride-1 window of a quiet AR(1) record goes
    through cut_window, standardize and estimate_window against a model cache
    that set-up filled with one pass over the same windows. The timed passes
    must reproduce that pass exactly."""

    name = "monitor-warm"

    def __init__(self, root: Path, work: Path, seed: int):
        self.seed = seed
        self.grid = estimator.SearchGrid(epsilon=EPSILON)
        self.spec = data_model.WindowSpec(N=N, T=T, stride=1)
        self.reference = None

    def _estimate(self, source, end, cache):
        window = data_model.standardize(data_model.cut_window(source, self.spec, end))
        try:
            return estimator.estimate_window(window, self.grid, cache=cache)
        except FactorSpecError as exc:
            return f"{type(exc).__name__}: {exc}"

    def setup(self, outcome: Outcome) -> None:
        noise = datagen.Ar1Spec(b=NOISE_B, seed=self.seed)
        values = datagen.generate_ar1(noise, N, T + MONITOR_WINDOWS - 1)
        self.source = data_model.RawDataSource(values=values)
        self.ends = range(T, self.source.t + 1)
        self.cache = estimator.ModelDensityCache()
        reference = [self._estimate(self.source, e, self.cache) for e in self.ends]
        if self.reference is not None:
            outcome.check(reference == self.reference, "set-up passes disagree")
        self.reference = reference

    def timed_pass(self, probe: Probe, outcome: Outcome) -> None:
        first = len(probe.window_s)
        start = time.perf_counter()
        results = [self._estimate(self.source, e, self.cache) for e in self.ends]
        outcome.record_s.append(time.perf_counter() - start)
        outcome.window_s += probe.window_s[first:]
        outcome.attempted += len(results)
        for e, got, want in zip(self.ends, results, self.reference):
            if isinstance(got, str):
                outcome.failed += 1
                outcome.problems.append(f"window {e} failed: {got}")
            else:
                outcome.check(got == want, f"window {e} differs from the warm-up pass")
        estimates = [(r.end_index, r.p_hat, r.b_hat) for r in results if not isinstance(r, str)]
        outcome.quality = score(estimates, {e: 0 for e in self.ends}, NOISE_B)


class ArchiveCsv:
    """`factorspec detect --input archive.csv --stride 250` over a 118 x 20000
    CSV written in set-up, called as a long-running scanner would call it:
    every call shares one model cache, which set-up fills by sweeping the
    generated record. The timed passes must reproduce that sweep exactly.
    The record is quiet AR(1) noise with one planted factor active over one
    stretch, aligned to the non-overlapping windows so that every window
    holds the factor throughout or not at all. The factor's signal is a
    random sign per sample, so its variance is the same in every window it
    covers.

    With a cold cache, the 4 to 8 windows of the record that start a new bin
    span each build every model curve (1.2 to 1.7 s a window) and set the
    tail percentile, and a timing that long takes in both of the host's
    speeds in varying shares. Set-up pays those builds instead, so they show
    in `setup_s`, and `case1-cold` measures the cold path by name."""

    name = "archive-csv"

    def __init__(self, root: Path, work: Path, seed: int):
        self.work, self.seed = work, seed
        self.path = work / "archive.csv"
        windows = ARCHIVE_SAMPLES // ARCHIVE_STRIDE
        first = int(np.random.default_rng(seed).integers(1, windows - ARCHIVE_FACTOR_WINDOWS))
        self.stretch = (first * ARCHIVE_STRIDE, (first + ARCHIVE_FACTOR_WINDOWS) * ARCHIVE_STRIDE)
        ends = range(T, ARCHIVE_SAMPLES + 1, ARCHIVE_STRIDE)
        self.truth = {e: int(self.stretch[0] < e <= self.stretch[1]) for e in ends}
        self.reference = None

    def _config(self):
        return cli.RunConfig(
            input_path=str(self.path), stride=ARCHIVE_STRIDE, epsilon=EPSILON,
            window_length=T, workers=1,
        )

    def setup(self, outcome: Outcome) -> None:
        rng = np.random.default_rng([self.seed, 1])
        values = datagen.generate_ar1(datagen.Ar1Spec(b=NOISE_B), N, ARCHIVE_SAMPLES, rng=rng)
        a, z = self.stretch
        loading = datagen.unit_loadings(1, N, rng)[0]
        signal = rng.choice([-1.0, 1.0], z - a)
        values[:, a:z] += np.sqrt(ARCHIVE_STRENGTH) * np.outer(loading, signal)
        self.values = values
        self.work.mkdir(parents=True, exist_ok=True)
        np.savetxt(self.path, values, fmt="%.17g", delimiter=",")
        self.cache = estimator.ModelDensityCache()
        timeline = estimator.sweep(
            data_model.RawDataSource(values=values),
            data_model.WindowSpec(N=N, T=T, stride=ARCHIVE_STRIDE),
            self._config().grid(),
            cache=self.cache,
        )
        outcome.check(not timeline.failures, f"set-up sweep failed: {timeline.failures}")
        reference = [(r.end_index, r.p_hat, r.b_hat) for r in timeline.results]
        if self.reference is not None:
            outcome.check(reference == self.reference, "set-up sweeps disagree")
        self.reference = reference

    def timed_pass(self, probe: Probe, outcome: Outcome) -> None:
        loaded = []
        capture = Patches()

        def keep(fn):
            def kept(*args, **kwargs):
                loaded.append(fn(*args, **kwargs))
                return loaded[-1]

            return kept

        capture.replace(cli, "load_csv", keep)
        shared = capture.replace(cli, "ModelDensityCache", lambda cls: lambda: self.cache)
        try:
            out = self.work / "archive"
            report = run_detect_timed(self._config(), out, probe, outcome)
        finally:
            capture.restore()
        outcome.attempted += len(self.truth)
        outcome.check(shared, "cli no longer makes its model cache as cli.ModelDensityCache")
        outcome.check(
            len(loaded) == 1 and np.array_equal(loaded[0].values, self.values),
            "load_csv did not return the generated matrix exactly",
        )
        timeline = read_detect_outputs(out, report, len(self.truth), outcome)
        outcome.check(timeline == self.reference, "timeline differs from the set-up sweep")
        outcome.quality = score(timeline, self.truth, NOISE_B)


WORKLOADS = {w.name: w for w in (Case1Cold, MonitorWarm, ArchiveCsv)}
