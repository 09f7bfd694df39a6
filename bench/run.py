"""factorspec benchmark: one workload per invocation, results as JSON.

Run from the repository root:

    python3 bench/run.py --workload monitor-warm --seed 0 --seconds 30 --trace 0

`--trace 0` times the workload with no layer spans and reports the
end-to-end metrics. `--trace 1` wraps the layer boundaries listed in
`bench/layers.py`, runs the timed section once untraced and once traced,
and reports the per-layer metrics (totals over the traced timed section),
the untraced median pass time, median and 99th-percentile window times,
the tracing overhead and estimate quality.
The last line of standard output is the result object; the lines before it
record the machine and the sample counts.
"""
from __future__ import annotations

import argparse
import json
import logging
import os
import platform
import resource
import shutil
import sys
import time
from pathlib import Path

import stats

ROOT = Path(__file__).resolve().parents[1]


def machine_info() -> dict:
    import numpy
    import scipy

    info = {
        "cores": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": None,
        "blas_threads": blas_threads(),
    }
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        pass
    return info


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, when it can be asked."""
    import ctypes
    import glob

    import numpy

    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libs / "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def metric(value, unit: str) -> dict:
    if value is None:
        return {"value": None, "unit": unit, "absent": True}
    return {"value": value, "unit": unit}


def end_to_end(outcome, p75, p90) -> dict:
    return {
        "window_ms_p75": metric(p75.value * 1e3, "ms"),
        "window_ms_p90": metric(p90.value * 1e3, "ms"),
        "setup_s": metric(stats.median(outcome.setup_s), "s"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def quality_metrics(outcome) -> dict:
    q = outcome.quality
    return {
        "quality.p_correct_rate": metric(q.p_correct_rate, "ratio"),
        "quality.scored_windows": metric(q.scored_windows, "count"),
        "quality.b_mae": metric(q.b_mae, "1"),
        "quality.noise_windows": metric(q.noise_windows, "count"),
        "quality.failed_window_rate": metric(outcome.failed / outcome.attempted, "ratio"),
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "factorspec" / "__init__.py").is_file():
        print(f"factorspec sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    # One BLAS thread: the benchmark is single-process and single-threaded,
    # and idle OpenBLAS threads spinning on the second of two cores only
    # add noise. Must be set before numpy is first imported.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"

    import layers
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; expected one of {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2

    clamps = layers.ClampCounter()
    clamp_logger = logging.getLogger("factorspec.empirical_spectrum")
    clamp_logger.addHandler(clamps)
    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    probe = workloads.Probe()
    probe.install()
    trace = layers.LayerTrace(clamps) if args.trace else None
    try:
        workload = workloads.WORKLOADS[args.workload](ROOT, work, args.seed)
        outcome = workloads.Outcome()
        for _ in range(workloads.SETUPS):
            start = time.perf_counter()
            workload.setup(outcome)
            outcome.setup_s.append(time.perf_counter() - start)
        timed(workload, probe, outcome, args.seconds)
        if trace:
            traced = workloads.Outcome()
            trace.install()
            try:
                timed(workload, probe, traced, args.seconds)
            finally:
                trace.restore()
    finally:
        probe.restore()
        clamp_logger.removeHandler(clamps)
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:  # another run is still using it
            pass

    p50 = stats.percentile(outcome.window_s, 50.0)
    p75 = stats.percentile(outcome.window_s, 75.0)
    p90 = stats.percentile(outcome.window_s, 90.0)
    p99 = stats.percentile(outcome.window_s, 99.0)
    passes = len(outcome.record_s)
    print("machine: " + json.dumps(machine_info()))
    print(
        f"{args.workload} seed {args.seed}: {passes} timed pass(es), "
        f"{outcome.attempted} windows, {len(outcome.setup_s)} set-ups; median pass "
        f"{stats.median(outcome.record_s)} s, {outcome.attempted / passes} windows; "
        f"window_ms over {p50.samples} samples: p50 {p50.value * 1e3}, "
        f"p75 {p75.value * 1e3}, p90 {p90.value * 1e3}, p99 {p99.value * 1e3} "
        f"({p99.beyond} above)"
    )
    q = outcome.quality
    print(
        f"quality: p_correct_rate {q.p_correct_rate} of {q.scored_windows} windows, "
        f"b_mae {q.b_mae} over {q.noise_windows} factor-free windows, "
        f"failed_window_rate {outcome.failed / outcome.attempted} of {outcome.attempted}"
    )
    runs = [outcome, traced] if trace else [outcome]
    for problem in [p for run in runs for p in run.problems][:20]:
        print(f"check failed: {problem}")

    attempted = sum(run.attempted for run in runs)
    failed = sum(run.failed for run in runs)
    if trace:
        metrics = {name: metric(v, unit) for name, (v, unit) in trace.metrics().items()}
        overhead = stats.median(traced.record_s) - stats.median(outcome.record_s)
        metrics["detect_s"] = metric(stats.median(outcome.record_s), "s")
        metrics["trace.overhead_s"] = metric(overhead, "s")
        metrics["window_ms_p50"] = metric(p50.value * 1e3, "ms")
        metrics["window_ms_p99"] = metric(p99.value * 1e3, "ms")
        metrics["window_samples"] = metric(p50.samples, "count")
        metrics.update(quality_metrics(outcome))
    else:
        metrics = end_to_end(outcome, p75, p90)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


def timed(workload, probe, outcome, seconds: float) -> None:
    """Timed passes over the workload's record until `seconds` are measured."""
    while True:
        workload.timed_pass(probe, outcome)
        if sum(outcome.record_s) >= seconds:
            return


if __name__ == "__main__":
    raise SystemExit(main())
