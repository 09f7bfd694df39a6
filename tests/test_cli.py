"""Command-line interface: exit codes, artifacts, reproducibility."""
import argparse
import csv
import dataclasses
import json
import tracemalloc

import numpy as np
import pytest

from factorspec import Ar1Spec, SearchGrid, generate_ar1
from factorspec import cli, datagen
from factorspec.cli import EXIT_CONFIG, EXIT_IO, EXIT_OK, EXIT_PIPELINE, RunConfig, main
from factorspec.errors import ConfigError, FactorSpecError

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


def test_detect_rejects_p_max_above_window_rank(small_csv, tmp_path, capsys, monkeypatch):
    """A 20 x 30 window has rank at most 20, so p = 25 can be scored on no
    window; the run is refused before the sweep rather than left empty."""
    swept = []
    monkeypatch.setattr(cli, "sweep", lambda *args, **kwargs: swept.append(args))
    assert run_detect(small_csv, tmp_path / "o", ["--p-max", "25"]) == EXIT_CONFIG
    assert json.loads(capsys.readouterr().err)["error"] == "ConfigError"
    assert swept == []
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("n, t, p_max", [(20, 20, 3), (30, 20, 3), (10, 20, 11)])
def test_detect_refuses_a_window_shape_with_the_grid_message(n, t, p_max, tmp_path, capsys):
    """The window rules (c < 1, p <= N) are the grid's: detect refuses a
    record that breaks one with `SearchGrid.check_shape`'s message, exit 2."""
    x = generate_ar1(Ar1Spec(b=0.4, seed=1), N=n, T=60)
    path = tmp_path / "shape.csv"
    np.savetxt(path, x, delimiter=",")
    code = main(
        ["detect", "--input", str(path), "--output-dir", str(tmp_path / "o"),
         "--window-length", str(t), "--p-max", str(p_max), "--stride", "10"]
    )
    assert code == EXIT_CONFIG
    error = json.loads(capsys.readouterr().err)
    with pytest.raises(FactorSpecError) as owner:
        SearchGrid(p_max=p_max).check_shape(n, t)
    assert error == {"error": "ConfigError", "message": str(owner.value)}
    assert not (tmp_path / "o").exists()


def test_detect_refuses_a_channel_constant_over_the_record(tmp_path, capsys):
    """A constant channel is a configuration error that names its row, and
    nothing is written. So is a channel whose range is within SIGMA_FLOOR,
    since every window of it fails `standardize`."""
    x = generate_ar1(Ar1Spec(b=0.4, seed=3), N=40, T=600)
    noise = np.random.default_rng(5).standard_normal(600)
    for row in (1.0, 1.0 + 1e-14 * noise):
        x[5] = row
        path = tmp_path / "flat.csv"
        np.savetxt(path, x, delimiter=",")
        code = main(
            ["detect", "--input", str(path), "--output-dir", str(tmp_path / "o"),
             "--window-length", "120", "--stride", "20", "--p-max", "4"]
        )
        assert code == EXIT_CONFIG
        error = json.loads(capsys.readouterr().err)
        assert error["error"] == "ConfigError" and "row 5" in error["message"]
        assert not (tmp_path / "o").exists()


def test_detect_fails_a_run_that_scores_no_window(tmp_path, capsys):
    """A channel that is constant within every window, though not over the
    record, fails every window with DegenerateRow; the run exits 4 and names
    the first failure, and writes nothing."""
    x = generate_ar1(Ar1Spec(b=0.4, seed=3), N=40, T=600)
    x[5] = np.repeat(np.arange(5.0), 120)
    path = tmp_path / "flat.csv"
    np.savetxt(path, x, delimiter=",")
    code = main(
        ["detect", "--input", str(path), "--output-dir", str(tmp_path / "o"),
         "--window-length", "120", "--stride", "120", "--p-max", "4"]
    )
    assert code == EXIT_PIPELINE
    error = json.loads(capsys.readouterr().err)
    assert error["error"] == "NoWindowScored"
    assert "end_index 120" in error["message"] and "DegenerateRow" in error["message"]
    assert not (tmp_path / "o").exists()


def test_detect_fails_a_source_shorter_than_the_window(small_csv, tmp_path, capsys):
    assert run_detect(small_csv, tmp_path / "o", ["--window-length", "80"]) == EXIT_PIPELINE
    error = json.loads(capsys.readouterr().err)
    assert error["error"] == "NoWindowScored" and "60 samples" in error["message"]
    assert not (tmp_path / "o").exists()


def test_detect_dump_surface(small_csv, tmp_path):
    """Each window's rows run p ascending, then b ascending; their minimum is
    the timeline's divergence, and the first row within 1e-15 of it, the
    estimator's tie rule, is the timeline's (p_hat, b_hat)."""
    out = tmp_path / "out"
    assert run_detect(small_csv, out, ["--dump-surface"]) == EXIT_OK
    with open(out / "surface_run000.csv") as fh:
        rows = list(csv.DictReader(fh))
    with open(out / "timeline_run000.csv") as fh:
        timeline = list(csv.DictReader(fh))
    # 4 windows x 3 p values x 3 b values
    assert len(rows) == 36 and len(timeline) == 4
    for fit in timeline:
        cells = [
            (int(r["p"]), float(r["b"]), float(r["divergence"]))
            for r in rows
            if r["end_index"] == fit["end_index"]
        ]
        pairs = [(p, b) for p, b, _ in cells]
        assert pairs == sorted(set(pairs)) and len(pairs) == 9
        least = min(d for _, _, d in cells)
        assert least == float(fit["divergence"])
        first = next((p, b) for p, b, d in cells if d <= least + 1e-15)
        assert first == (int(fit["p_hat"]), float(fit["b_hat"]))


def test_detect_scores_no_pair_at_a_b_whose_density_fails(tmp_path):
    """At c = 95 / 100 the b = 0.95 density fails its node-mass check, so
    the run searches that b but scores every window without it."""
    path = tmp_path / "wide.csv"
    np.savetxt(path, generate_ar1(Ar1Spec(b=0.3, seed=44), N=95, T=200), delimiter=",")
    out = tmp_path / "out"
    code = main(
        ["detect", "--input", str(path), "--output-dir", str(out), "--window-length", "100",
         "--stride", "50", "--p-max", "2", "--b-step", "0.95", "--dump-surface"]
    )
    assert code == EXIT_OK
    assert json.loads((out / "report.json").read_text())["grid"]["b_values"] == [0.0, 0.95]
    with open(out / "timeline_run000.csv") as fh:
        assert [float(r["b_hat"]) for r in csv.DictReader(fh)] == [0.0, 0.0, 0.0]
    with open(out / "surface_run000.csv") as fh:
        assert {float(r["b"]) for r in csv.DictReader(fh)} == {0.0}


def test_detect_refuses_an_unknown_case_before_any_write(tmp_path):
    """The case names are `datagen.CASES`'s: the parser offers those, and a
    RunConfig with another is a ConfigError that writes nothing."""
    config = RunConfig(case="case9", output_dir=str(tmp_path / "o"))
    with pytest.raises(ConfigError, match="case9"):
        cli.run_detect(config)
    assert not (tmp_path / "o").exists()
    parser = cli._build_parser()
    (commands,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    (case,) = (a for a in commands.choices["detect"]._actions if a.dest == "case")
    assert case.choices == sorted(datagen.CASES)


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


def test_runconfig_takes_workers_as_one_only():
    """`detect` runs on one thread: workers=1 is accepted and stored nowhere,
    any other count is refused."""
    assert RunConfig(case="case1", workers=1) == RunConfig(case="case1")
    with pytest.raises(ConfigError):
        RunConfig(case="case1", workers=2)


@pytest.mark.parametrize("flags", [["--workers", "2"], ["--dump-densities"]], ids=" ".join)
def test_detect_has_no_workers_flag(flags, tmp_path, capsys):
    """Neither is an option: `detect` runs on one thread, and `factorspec
    spectrum` is the one writer of a model density curve."""
    out = tmp_path / "o"
    with pytest.raises(SystemExit) as exc:
        main(["detect", "--case", "case1", "--output-dir", str(out), *flags])
    assert exc.value.code == 2  # argparse's usage error
    assert f"unrecognized arguments: {' '.join(flags)}" in capsys.readouterr().err
    assert not out.exists()


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
        ["--epsilon", "inf"],
        ["--epsilon", "1e-200"],
        ["--p-max", "-1"],
        ["--b-step", "0"],
        ["--b-step", "-0.1"],
        ["--hold", "0"],
        ["--threshold", "0"],
        ["--noise-b", "1.0"],
        ["--window-length", "1"],
        ["--seed", "-1"],
    ],
    ids=" ".join,
)
def test_detect_rejects_out_of_range_options(flags, tmp_path, capsys, monkeypatch):
    """Each is refused before any record is synthesized or read, the change
    rule and the window geometry included."""
    swept, sourced = [], []
    real_sweep, real_source = cli.sweep, cli._source_for_run
    monkeypatch.setattr(cli, "sweep", lambda *a, **kw: swept.append(a) or real_sweep(*a, **kw))
    monkeypatch.setattr(
        cli, "_source_for_run", lambda *a: sourced.append(a) or real_source(*a)
    )
    assert run_case(tmp_path / "o", flags) == EXIT_CONFIG
    error = json.loads(capsys.readouterr().err)
    assert error["error"] == "ConfigError"
    if flags[0] == "--seed":
        assert "seed = -1" in error["message"]
    assert swept == [] and sourced == []
    assert not (tmp_path / "o").exists()


def test_detect_refuses_an_option_before_reading_the_input(tmp_path, capsys, monkeypatch):
    """`--stride 0` needs no record, so a 118 x 20000 CSV is not parsed."""
    digits = np.random.default_rng(6).integers(0, 10, 20000).astype(str)
    path = tmp_path / "wide.csv"
    path.write_text("".join(",".join(np.roll(digits, k)) + "\n" for k in range(118)))
    loads = []
    real = cli.load_csv
    monkeypatch.setattr(cli, "load_csv", lambda *a, **kw: loads.append(a) or real(*a, **kw))
    code = main(["detect", "--input", str(path), "--output-dir", str(tmp_path / "o"),
                 "--stride", "0"])
    assert code == EXIT_CONFIG
    assert json.loads(capsys.readouterr().err)["error"] == "ConfigError"
    assert loads == []


def test_detect_builds_its_grid_once(small_csv, tmp_path, monkeypatch):
    built = []
    real = RunConfig.grid
    monkeypatch.setattr(RunConfig, "grid", lambda self: built.append(self) or real(self))
    assert run_detect(small_csv, tmp_path / "o") == EXIT_OK
    assert len(built) == 1


def test_validate_refuses_a_seed_that_is_not_an_integer():
    """`operator.index` judges the seed, and its TypeError is told as a
    ConfigError that names the seed."""
    with pytest.raises(ConfigError, match=r"seed = 1\.5 must be a non-negative integer"):
        RunConfig(case="case1", seed=1.5).validate()


def test_validate_refuses_a_seed_sequence(tmp_path):
    """numpy seeds a generator from a list, but a run adds k to its seed for
    run k, so a list is refused before anything is read or written."""
    config = RunConfig(case="case1", seed=[1, 2], output_dir=str(tmp_path / "o"))
    with pytest.raises(ConfigError, match=r"seed = \[1, 2\] must be a non-negative integer"):
        cli.run_detect(config)
    assert not (tmp_path / "o").exists()


def test_a_numpy_integer_seed_runs_as_its_int(tmp_path):
    """A seed of np.int64(3) writes every output, the same as seed 3, and
    report.json holds it as the int 3."""
    flags = dict(case="case1", stride=50, p_max=2, b_step=0.45, bins=20)
    for name, seed in (("numpy", np.int64(3)), ("int", 3)):
        cli.run_detect(RunConfig(seed=seed, output_dir=str(tmp_path / name), **flags))
    for name in ("timeline_run000.csv", "run_average.csv"):
        assert (tmp_path / "numpy" / name).read_bytes() == (tmp_path / "int" / name).read_bytes()
    report = json.loads((tmp_path / "numpy" / "report.json").read_text())
    assert report["seeds"] == [3] and report["config"]["seed"] == 3


def test_validate_bounds_the_b_grid_before_building_it(monkeypatch):
    """A b step below 0.001 (more than 951 b values) is refused with the
    count it would search, and no grid is built for it."""
    built = []
    real = cli.SearchGrid
    monkeypatch.setattr(cli, "SearchGrid", lambda *a, **kw: built.append(kw) or real(*a, **kw))
    with pytest.raises(ConfigError, match="950001 b values"):
        RunConfig(case="case1", b_step=1e-6).validate()
    assert built == []
    assert len(RunConfig(case="case1", b_step=0.001).validate().b_values) == 951
    assert len(built) == 1


@pytest.mark.parametrize("p_max", [30, 10**6])
def test_validate_bounds_p_max_before_building_the_grid(monkeypatch, p_max):
    """Every window has rank N < T, so p_max >= --window-length can be
    scored on no window: it is refused before its p grid is built."""
    built = []
    real = cli.SearchGrid
    monkeypatch.setattr(cli, "SearchGrid", lambda *a, **kw: built.append(kw) or real(*a, **kw))
    with pytest.raises(ConfigError, match="p_max"):
        RunConfig(case="case1", window_length=30, p_max=p_max).validate()
    assert built == []
    assert RunConfig(case="case1", window_length=30, p_max=29).validate().p_values[-1] == 29


def test_validate_refuses_a_huge_p_grid_before_building_it():
    """p_max < window_length does not bound the p grid, as the window length
    has no cap: the surface's cell count is checked from the grid's size
    before any p tuple is made."""
    tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        with pytest.raises(ConfigError, match="cells must have at most"):
            RunConfig(case="case1", window_length=10**6, p_max=10**6 - 1).validate()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.parametrize(
    "flags, size",
    [
        pytest.param(["--bins", "100000000"], "bins = 100000000", id="bins"),
        pytest.param(["--b-step", "0.001", "--bins", "10000"], "104610000 cells", id="surface"),
    ],
)
def test_detect_bounds_what_its_bins_allocate(flags, size, tmp_path, capsys, monkeypatch):
    """A bin count or a (p, b, bin) surface past its cap is refused, with
    its size, before any record is made or any model is built."""
    sourced = []
    monkeypatch.setattr(cli, "_source_for_run", lambda *a: sourced.append(a))
    assert run_case(tmp_path / "o", ["--p-max", "10", *flags]) == EXIT_CONFIG
    error = json.loads(capsys.readouterr().err)
    assert error["error"] == "ConfigError" and size in error["message"]
    assert sourced == [] and not (tmp_path / "o").exists()


def test_detect_names_a_byte_that_is_not_utf8_as_a_bad_cell(tmp_path, capsys):
    """The CSV is read as UTF-8 with a bad byte replaced, so the byte is an
    unparseable cell: exit 4, its row and column named, nothing written."""
    path = tmp_path / "latin.csv"
    path.write_bytes(b"1,2,3\n4,\xff5,6\n7,8,9\n")
    code = main(["detect", "--input", str(path), "--output-dir", str(tmp_path / "o")])
    assert code == EXIT_PIPELINE
    assert json.loads(capsys.readouterr().err) == {
        "error": "CsvParseError", "message": "unparseable value at row 2, column 2"
    }
    assert not (tmp_path / "o").exists()


def test_detect_scores_a_csv_row_at_the_float_limit(small_csv, tmp_path):
    """A channel of +-1.7e308 reads, and standardizes to the bits of that
    channel scaled by 2**-1024, so detect writes the timeline of the
    scaled record."""
    x = np.loadtxt(small_csv, delimiter=",")
    x[3] = np.where(x[3] < 0, -1.7e308, 1.7e308)
    huge, scaled = tmp_path / "huge.csv", tmp_path / "scaled.csv"
    np.savetxt(huge, x, fmt="%.17g", delimiter=",")
    x[3] = np.ldexp(x[3], -1024)
    np.savetxt(scaled, x, fmt="%.17g", delimiter=",")
    assert run_detect(huge, tmp_path / "huge") == EXIT_OK
    assert run_detect(scaled, tmp_path / "scaled") == EXIT_OK
    timeline = "timeline_run000.csv"
    assert (tmp_path / "huge" / timeline).read_bytes() == (tmp_path / "scaled" / timeline).read_bytes()


def test_detect_rejects_bad_counts(small_csv, tmp_path):
    assert run_detect(small_csv, tmp_path / "o", ["--runs", "0"]) == EXIT_CONFIG


@pytest.mark.parametrize("existing", [False, True], ids=["new", "existing"])
def test_atomic_write_leaves_no_file_when_its_writer_fails(tmp_path, existing):
    """A writer's error is raised again and its temp file removed: a new
    target is not made, and an existing one keeps its old content."""
    target = tmp_path / "out.csv"
    if existing:
        target.write_text("old\n")

    def fail(fh):
        fh.write("partial")
        raise RuntimeError("writer failed")

    with pytest.raises(RuntimeError, match="writer failed"):
        cli._atomic_write(target, fail)
    assert [p.name for p in tmp_path.iterdir()] == (["out.csv"] if existing else [])
    if existing:
        assert target.read_text() == "old\n"


@pytest.mark.parametrize("command", ["spectrum", "detect"])
def test_an_output_under_a_regular_file_exits_with_an_io_error(command, small_csv, tmp_path, capsys):
    """An OSError, here FileExistsError from making a directory where a
    regular file is (the curve's parent, or detect's output directory),
    exits 3 with a JSON error record, and the file is left as it was."""
    blocker = tmp_path / "blocker"
    blocker.write_text("kept\n")
    if command == "spectrum":
        args = ["spectrum", "--b", "0.3", "--c", "0.472", "--points", "50",
                "--output", str(blocker / "curve.csv")]
    else:
        args = ["detect", "--input", str(small_csv), "--output-dir", str(blocker), *DETECT_FLAGS]
    assert main(args) == EXIT_IO
    error = json.loads(capsys.readouterr().err)
    assert error["error"] == "FileExistsError" and str(blocker) in error["message"]
    assert blocker.read_text() == "kept\n"


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


def test_spectrum_refuses_a_density_that_fails_its_mass_check(tmp_path, capsys):
    """At c = 0.95 the b = 0.95 density's node mass is off 1 by more than
    1e-6: `spectrum` writes it no more than the estimator bins it."""
    out = tmp_path / "curve.csv"
    assert main(["spectrum", "--b", "0.95", "--c", "0.95", "--output", str(out)]) == EXIT_PIPELINE
    error = json.loads(capsys.readouterr().err)
    assert error["error"] == "ModelDensityError" and "has mass" in error["message"]
    assert not out.exists()


def test_spectrum_refuses_a_smoothed_density_below_zero(tmp_path, capsys):
    """At epsilon = 10 the smoothed b = 0.95 density dips to -0.027: the
    curve is refused as a failed density is, and nothing is written."""
    out = tmp_path / "curve.csv"
    args = ["spectrum", "--b", "0.95", "--c", "0.472", "--epsilon", "10", "--output", str(out)]
    assert main(args) == EXIT_PIPELINE
    error = json.loads(capsys.readouterr().err)
    assert error["error"] == "ModelDensityError" and "b=0.95" in error["message"]
    assert not out.exists()


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
        ["--epsilon", "inf"],
        ["--epsilon", "1e-200"],
        ["--points", "0"],
    ):
        args = ["spectrum", "--b", "0.3", "--c", "0.472", "--output", str(out), *bad]
        assert main(args) == EXIT_CONFIG, bad
        assert json.loads(capsys.readouterr().err)["error"] == "ConfigError"
    assert not out.exists()


def test_spectrum_bounds_its_points_before_building_a_curve(tmp_path, capsys, monkeypatch):
    """More than 10000 points is refused, with the count, before a curve
    is built or written."""
    written = []
    monkeypatch.setattr(
        cli, "smoothed_density", lambda nodes, rho, grid, eps: written.append(grid.size) or grid
    )
    args = ["spectrum", "--b", "0.3", "--c", "0.472", "--output", str(tmp_path / "c.csv")]
    assert main([*args, "--points", "100000000"]) == EXIT_CONFIG
    error = json.loads(capsys.readouterr().err)
    assert error["error"] == "ConfigError" and "points = 100000000" in error["message"]
    assert written == []
    assert main([*args, "--points", "10000"]) == EXIT_OK
    assert written == [10_000]
