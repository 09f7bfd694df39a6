"""Command-line interface: exit codes, artifacts, reproducibility."""
import argparse
import csv
import dataclasses
import json

import numpy as np
import pytest

from factorspec import Ar1Spec, SearchGrid, generate_ar1
from factorspec import cli
from factorspec.cli import EXIT_CONFIG, EXIT_OK, RunConfig, main

DETECT_FLAGS = [
    "--window-length", "30",
    "--stride", "10",
    "--p-max", "2",
    "--b-step", "0.45",
    "--bins", "20",
]
CASE_FLAGS = [
    "--window-length", "250",
    "--stride", "50",
    "--p-max", "2",
    "--b-step", "0.45",
    "--bins", "20",
]


@pytest.fixture
def small_csv(tmp_path):
    x = generate_ar1(Ar1Spec(b=0.4, seed=1), N=20, T=60)
    path = tmp_path / "tiny.csv"
    np.savetxt(path, x, delimiter=",")
    return path


def run_detect(small_csv, out_dir, extra=()):
    return main(
        ["detect", "--input", str(small_csv), "--output-dir", str(out_dir)]
        + DETECT_FLAGS
        + list(extra)
    )


def run_case(out_dir, extra=()):
    return main(
        ["detect", "--case", "case1", "--output-dir", str(out_dir)]
        + CASE_FLAGS
        + list(extra)
    )


def test_detect_writes_artifacts(small_csv, tmp_path):
    out = tmp_path / "out"
    assert run_detect(small_csv, out) == EXIT_OK
    assert (out / "timeline_run000.csv").exists()
    assert (out / "run_average.csv").exists()
    report = json.loads((out / "report.json").read_text())
    assert report["runs"] == 1
    assert report["windows"] == 4  # end indices 30, 40, 50, 60
    assert report["failures"] == []
    assert "annotations" in report and "wall_clock_seconds" in report

    with open(out / "timeline_run000.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert [int(r["end_index"]) for r in rows] == [30, 40, 50, 60]
    for r in rows:
        assert 0 <= int(r["p_hat"]) <= 2
        assert 0.0 <= float(r["b_hat"]) <= 0.95


def test_detect_seed_reproducibility(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert run_case(a, ["--runs", "2", "--seed", "5"]) == EXIT_OK
    assert run_case(b, ["--runs", "2", "--seed", "5"]) == EXIT_OK
    assert (a / "run_average.csv").read_bytes() == (b / "run_average.csv").read_bytes()


def test_detect_workers_match_serial(tmp_path):
    ser, par = tmp_path / "ser", tmp_path / "par"
    assert run_case(ser, ["--runs", "2"]) == EXIT_OK
    assert run_case(par, ["--runs", "2", "--workers", "2"]) == EXIT_OK
    assert (ser / "run_average.csv").read_bytes() == (par / "run_average.csv").read_bytes()


def test_detect_rejects_runs_with_input(small_csv, tmp_path, capsys):
    """A CSV holds one realization: extra runs would repeat its timeline
    under seeds that change nothing."""
    assert run_detect(small_csv, tmp_path / "o", ["--runs", "2"]) == EXIT_CONFIG
    assert json.loads(capsys.readouterr().err)["error"] == "ConfigError"
    assert not (tmp_path / "o").exists()


def test_detect_rejects_aspect_ratio_at_least_one(small_csv, tmp_path, capsys):
    """c = N / T >= 1 puts an atom at 0 that the model curve only partly
    captures, so estimates there would be silently wrong."""
    assert run_detect(small_csv, tmp_path / "o", ["--window-length", "20"]) == EXIT_CONFIG
    assert json.loads(capsys.readouterr().err)["error"] == "ConfigError"
    assert not (tmp_path / "o").exists()


def test_detect_dump_surface(small_csv, tmp_path):
    out = tmp_path / "out"
    assert run_detect(small_csv, out, ["--dump-surface"]) == EXIT_OK
    with open(out / "surface_run000.csv") as fh:
        rows = list(csv.DictReader(fh))
    # 4 windows x 3 p values x 3 b values
    assert len(rows) == 36


def test_dump_densities_reads_the_input_once(small_csv, tmp_path, monkeypatch):
    loads = []
    real = cli.load_csv

    def counting(*args, **kwargs):
        loads.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, "load_csv", counting)
    out = tmp_path / "out"
    assert run_detect(small_csv, out, ["--dump-densities"]) == EXIT_OK
    assert len(loads) == 1
    names = sorted(p.name for p in out.glob("model_density_b*.csv"))
    assert names == [f"model_density_b{b}.csv" for b in ("0.00", "0.45", "0.90")]
    # the dumped curve is the one `spectrum` writes for the run's c = N / T
    curve = tmp_path / "curve.csv"
    args = ["spectrum", "--b", "0.45", "--c", repr(20 / 30), "--output", str(curve)]
    assert main(args) == EXIT_OK
    assert (out / "model_density_b0.45.csv").read_bytes() == curve.read_bytes()


def test_default_grid_reaches_b_max():
    """19 * 0.05 is 0.9500000000000001 in floating point, so a raw comparison
    with 0.95 drops the last b value; the CLI must search SearchGrid's b grid."""
    grid = RunConfig(case="case1").grid()
    assert grid.b_values == SearchGrid().b_values
    assert grid.b_values[-1] == 0.95


def test_detect_options_are_runconfig_fields(monkeypatch):
    """RunConfig states each `detect` option's name and default once: an
    absent flag leaves RunConfig's default, and each field has one flag."""
    seen = []
    monkeypatch.setattr(cli, "run_detect", seen.append)
    assert main(["detect", "--case", "case1"]) == EXIT_OK
    assert seen.pop() == RunConfig(case="case1")

    parser = cli._build_parser()
    (commands,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    actions = [a for a in commands.choices["detect"]._actions if a.dest != "help"]
    assert sorted(a.dest for a in actions) == sorted(f.name for f in dataclasses.fields(RunConfig))
    for action in actions:
        default = getattr(RunConfig(), action.dest)
        if action.nargs == 0:  # a switch
            value, argv = True, [action.option_strings[0]]
        else:
            if action.choices:
                value = action.choices[-1]
            elif action.type is None:
                value = f"{action.dest}.x"
            else:
                value = default + action.type(1)
            argv = [action.option_strings[0], str(value)]
        assert value != default
        assert main(["detect", *argv]) == EXIT_OK
        assert seen.pop() == RunConfig(**{action.dest: value}), argv


def test_detect_missing_input_is_config_error(tmp_path, capsys):
    code = main(["detect", "--input", str(tmp_path / "nope.csv")])
    assert code == EXIT_CONFIG
    record = json.loads(capsys.readouterr().err)
    assert record["error"] == "ConfigError"


def test_detect_requires_exactly_one_source(small_csv):
    assert main(["detect", "--input", str(small_csv), "--case", "case1"]) == EXIT_CONFIG
    assert main(["detect"]) == EXIT_CONFIG


@pytest.mark.parametrize(
    "flags",
    [
        ["--stride", "0"],
        ["--bins", "1"],
        ["--epsilon", "0"],
        ["--p-max", "-1"],
        ["--b-step", "0"],
        ["--b-step", "-0.1"],
        ["--hold", "0"],
        ["--threshold", "0"],
        ["--noise-b", "1.0"],
    ],
    ids=" ".join,
)
def test_detect_rejects_out_of_range_options(flags, tmp_path, capsys):
    assert run_case(tmp_path / "o", flags) == EXIT_CONFIG
    assert json.loads(capsys.readouterr().err)["error"] == "ConfigError"
    assert not (tmp_path / "o").exists()


def test_detect_rejects_bad_counts(small_csv, tmp_path):
    assert run_detect(small_csv, tmp_path / "o", ["--runs", "0"]) == EXIT_CONFIG
    assert run_detect(small_csv, tmp_path / "o", ["--workers", "0"]) == EXIT_CONFIG


def test_spectrum_writes_curve(tmp_path):
    out = tmp_path / "curve.csv"
    code = main(
        ["spectrum", "--b", "0.3", "--c", "0.472", "--output", str(out), "--points", "500"]
    )
    assert code == EXIT_OK
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 500
    lam = np.array([float(r["lambda"]) for r in rows])
    rho = np.array([float(r["rho"]) for r in rows])
    assert np.all(np.diff(lam) > 0)
    assert np.all(rho >= 0)
    assert np.trapezoid(rho, lam) == pytest.approx(1.0, abs=0.02)


def test_spectrum_rejects_bad_params(tmp_path, capsys):
    """c >= 1 is refused as `detect` refuses it: the curve misses part of
    the atom at 0."""
    out = tmp_path / "c.csv"
    for bad in (
        ["--b", "0.99"],
        ["--c", "-1"],
        ["--c", "1.5"],
        ["--epsilon", "0"],
        ["--epsilon", "-1"],
        ["--points", "0"],
    ):
        args = ["spectrum", "--b", "0.3", "--c", "0.472", "--output", str(out), *bad]
        assert main(args) == EXIT_CONFIG, bad
        assert json.loads(capsys.readouterr().err)["error"] == "ConfigError"
    assert not out.exists()
