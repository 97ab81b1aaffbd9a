import contextlib
import io
import json
import math
import tempfile
import tracemalloc
import warnings
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from newsca import (
    __version__,
    AnalyticModel,
    Boundary,
    Grid,
    InnovationRuleParams,
    LogisticParams,
    SimulationConfig,
    grid_from_text,
    grid_to_text,
    make_rng,
    reference_model,
)
import newsca.model
from newsca.model import MAX_NFEV
from newsca.reference import count_adoption, count_states, step_reference
from newsca.rules import MODELS
from newsca.cli import (
    EXIT_FIT_FAILURE,
    EXIT_IO,
    EXIT_NO_CONVERGENCE,
    EXIT_OK,
    EXIT_USAGE,
    PGM_LEVELS,
    build_manifest,
    build_parser,
    config_from_dict,
    config_to_dict,
    main,
    read_series_csv,
    write_model_csv,
    write_snapshot,
)
from shapes import extreme_series


def read_csv_rows(path):
    lines = path.read_text().splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


PGM_CODES = {"255": 0, "128": 1, "0": 2}  # white, grey and black, as a P2 reader sees them


def read_snapshot(path, config):
    """The grid a snapshot file shows; PGM levels are read through ``PGM_CODES``, not the writer's table."""
    text = path.read_text()
    if path.suffix == ".txt":
        return grid_from_text(text, config.rule_params.chars)
    lines = text.splitlines()
    assert lines[:3] == ["P2", f"{config.width} {config.height}", "255"], path
    return Grid(np.array([[PGM_CODES[v] for v in line.split()] for line in lines[3:]], dtype=np.uint8),
                config.boundary)


class TestSimulate:
    def test_writes_series_and_reports(self, tmp_path, capsys):
        out = tmp_path / "sim"
        code = main(["simulate", "--width", "12", "--height", "12", "--seed", "5",
                     "--outdir", str(out)])
        assert code == EXIT_OK
        header, rows = read_csv_rows(out / "series.csv")
        assert header == ["step", "white", "grey", "black",
                          "white_frac", "grey_frac", "black_frac"]
        assert rows[0][:4] == ["0", "143", "0", "1"]
        for row in rows:
            assert int(row[1]) + int(row[2]) + int(row[3]) == 144
        assert "converged_at=" in capsys.readouterr().out
        assert (out / "manifest.json").exists()

    def test_invalid_width_is_usage_error(self, tmp_path):
        assert main(["simulate", "--width", "0", "--outdir", str(tmp_path)]) == EXIT_USAGE

    def test_seed_row_without_col_is_usage_error(self, tmp_path):
        code = main(["simulate", "--seed-row", "2", "--outdir", str(tmp_path)])
        assert code == EXIT_USAGE

    # Whether argparse, the library or a command finds it, a usage mistake is
    # one "error:" line on stderr, and it is found before the outdir is made.
    @pytest.mark.parametrize("argv", [
        ["simulate", "--width", "abc"],
        ["simulate", "--width", "0"],
        ["simulate", "--seed-row", "2"],
        ["simulate", "--bogus"],
        ["simulate", "--boundary", "x"],
        ["ensemble", "--runs", "0"],
        ["ensemble", "--jobs", "0"],
        ["ensemble", "--runs", "100000000"],
        ["eval-model", "--t-min", "5", "--t-max", "1"],
    ], ids=["width-abc", "width-0", "seed-row-alone", "unknown-flag", "unknown-boundary",
            "runs-0", "jobs-0", "runs-above-max-cells", "t-max-below-t-min"])
    def test_usage_error_is_one_line(self, tmp_path, capsys, argv):
        out = tmp_path / "out"
        assert main([*argv, "--outdir", str(out)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert not out.exists()

    def test_non_convergence_exit_code(self, tmp_path):
        code = main(["simulate", "--max-steps", "5", "--outdir", str(tmp_path)])
        assert code == EXIT_NO_CONVERGENCE
        assert (tmp_path / "series.csv").exists()  # outputs still written

    def test_unspreadable_seed_converges_at_step_0(self, tmp_path, capsys):
        code = main(["simulate", "--adoption-threshold", "8", "--width", "5", "--height", "5",
                     "--max-steps", "50", "--outdir", str(tmp_path)])
        assert code == EXIT_OK
        assert "converged_at=0 " in capsys.readouterr().out
        assert len((tmp_path / "series.csv").read_text().splitlines()) == 2

    @pytest.mark.parametrize("flags", [
        ["--adoption-threshold", "nan"],
        ["--adoption-threshold", "inf"],
        ["--boost-factor", "nan"],
        ["--model", "innovation", "--innovation-threshold", "nan"],
    ], ids=["threshold-nan", "threshold-inf", "boost-nan", "innovation-nan"])
    def test_non_finite_rule_parameter_is_usage_error(self, tmp_path, capsys, flags):
        assert main(["simulate", *flags, "--outdir", str(tmp_path)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not (tmp_path / "series.csv").exists()

    # Each model's rule parameter class supplies its defaults, so a flag of
    # the other model would be silently dropped from the run and its manifest.
    @pytest.mark.parametrize("argv,model,names", [
        (["simulate", "--model", "innovation", "--boost-factor", "7", "--adoption-threshold", "3"],
         "innovation", ["'adoption_threshold'", "'boost_factor'"]),
        (["simulate", "--model", "news", "--innovation-threshold", "0.5"], "news", ["'threshold'"]),
        (["simulate", "--innovation-threshold", "0.5"], "news", ["'threshold'"]),
        (["ensemble", "--model", "innovation", "--boost-below", "0"], "innovation", ["'boost_below'"]),
    ], ids=["news-flags-for-innovation", "innovation-flag-for-news", "innovation-flag-for-default",
            "ensemble"])
    def test_rule_flag_of_another_model_is_usage_error(self, tmp_path, capsys, argv, model, names):
        assert main([*argv, "--outdir", str(tmp_path)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert f"--model {model}" in err and all(name in err for name in names)
        assert not any(tmp_path.iterdir())

    def test_negative_seed_is_usage_error(self, tmp_path, capsys):
        assert main(["simulate", "--seed", "-1", "--outdir", str(tmp_path)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "rng_seed" in err and err.count("\n") == 1
        assert not (tmp_path / "series.csv").exists()

    @pytest.mark.parametrize("argv", [
        ["simulate", "--width", "100000", "--height", "100000"],
        ["ensemble", "--runs", "1000", "--width", "1000", "--height", "1000"],
    ], ids=["field", "ensemble"])
    def test_above_max_cells_is_usage_error(self, tmp_path, capsys, argv):
        assert main([*argv, "--outdir", str(tmp_path)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "MAX_CELLS" in err and err.count("\n") == 1
        assert not any(tmp_path.iterdir())

    def test_negative_seed_in_manifest_is_io_error(self, tmp_path, capsys):
        assert main(["simulate", "--width", "6", "--height", "6", "--outdir", str(tmp_path)]) == EXIT_OK
        path = tmp_path / "manifest.json"
        manifest = json.loads(path.read_text())
        manifest["config"]["rng_seed"] = -1
        path.write_text(json.dumps(manifest))
        capsys.readouterr()
        code = main(["simulate", "--from-manifest", str(path), "--outdir", str(tmp_path / "b")])
        assert code == EXIT_IO
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "rng_seed" in err and err.count("\n") == 1

    def test_unknown_snapshot_format_in_manifest_is_io_error(self, tmp_path, capsys):
        assert main(["simulate", "--width", "6", "--height", "6", "--outdir", str(tmp_path)]) == EXIT_OK
        path = tmp_path / "manifest.json"
        manifest = json.loads(path.read_text())
        manifest["snapshot_format"] = "png"
        path.write_text(json.dumps(manifest))
        capsys.readouterr()
        code = main(["simulate", "--from-manifest", str(path), "--outdir", str(tmp_path / "b")])
        assert code == EXIT_IO
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "snapshot_format" in err and err.count("\n") == 1

    # The snapshot interval is simulate's own setting, not a field of the
    # engine's config: a flag below 1 is a usage error, and a manifest entry
    # that is no integer of at least 1 an I/O error.
    def test_snapshot_every_below_1_is_usage_error(self, tmp_path, capsys):
        code = main(["simulate", "--width", "6", "--height", "6", "--snapshot-every", "0",
                     "--outdir", str(tmp_path / "a")])
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == "error: snapshot_every must be >= 1\n"
        assert not (tmp_path / "a").exists()

    @pytest.mark.parametrize("value,message", [
        (0, "snapshot_every must be >= 1"),
        (-3, "snapshot_every must be >= 1"),
        ("5", "snapshot_every must be an integer, got '5'"),
        (True, "snapshot_every must be an integer, got True"),
        (2.5, "snapshot_every must be an integer, got 2.5"),
        ([2], "snapshot_every must be an integer, got [2]"),
        ({"a": 2}, "snapshot_every must be an integer, got {'a': 2}"),
    ], ids=["zero", "negative", "string", "bool", "float", "list", "object"])
    def test_bad_snapshot_every_in_manifest_is_io_error(self, tmp_path, capsys, value, message):
        assert main(["simulate", "--width", "6", "--height", "6", "--snapshot-every", "2",
                     "--outdir", str(tmp_path)]) == EXIT_OK
        path = tmp_path / "manifest.json"
        manifest = json.loads(path.read_text())
        manifest["config"]["snapshot_every"] = value
        path.write_text(json.dumps(manifest))
        capsys.readouterr()
        code = main(["simulate", "--from-manifest", str(path), "--outdir", str(tmp_path / "b")])
        assert code == EXIT_IO
        assert capsys.readouterr().err == f"error: {path}: {message}\n"
        assert not (tmp_path / "b").exists()

    def test_runs_in_simulate_manifest_is_io_error(self, tmp_path, capsys):
        assert main(["simulate", "--width", "8", "--height", "6", "--outdir", str(tmp_path)]) == EXIT_OK
        path = tmp_path / "manifest.json"
        manifest = json.loads(path.read_text())
        manifest["runs"] = 5
        path.write_text(json.dumps(manifest))
        capsys.readouterr()
        code = main(["simulate", "--from-manifest", str(path), "--outdir", str(tmp_path / "b")])
        assert code == EXIT_IO
        assert capsys.readouterr().err == f"error: {path}: simulate manifests hold no entry 'runs'\n"
        assert not (tmp_path / "b").exists()

    def test_ensemble_manifest_is_io_error(self, tmp_path, capsys):
        assert main(["ensemble", "--width", "6", "--height", "6", "--runs", "2",
                     "--outdir", str(tmp_path)]) == EXIT_OK
        capsys.readouterr()
        code = main(["simulate", "--from-manifest", str(tmp_path / "manifest.json"),
                     "--outdir", str(tmp_path / "b")])
        assert code == EXIT_IO
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "command" in err and err.count("\n") == 1
        assert not (tmp_path / "b").exists()

    def test_ascii_snapshots_at_intervals(self, tmp_path):
        code = main(["simulate", "--width", "10", "--height", "10", "--seed", "3",
                     "--snapshot-every", "10", "--outdir", str(tmp_path)])
        assert code == EXIT_OK
        snaps = sorted(tmp_path.glob("snapshot_*.txt"))
        assert snaps[0].name == "snapshot_000000.txt"
        first = snaps[0].read_text().splitlines()
        assert first[0] == "10 10 bounded"
        assert len(first) == 11
        assert "".join(first[1:]).count("#") == 1

    def test_pgm_snapshots(self, tmp_path):
        code = main(["simulate", "--width", "8", "--height", "6", "--seed", "3",
                     "--snapshot-every", "50", "--snapshot-format", "pgm",
                     "--outdir", str(tmp_path)])
        assert code == EXIT_OK
        lines = (tmp_path / "snapshot_000000.pgm").read_text().splitlines()
        assert lines[0] == "P2"
        assert lines[1] == "8 6"
        assert lines[2] == "255"
        values = {int(v) for line in lines[3:] for v in line.split()}
        assert values <= {0, 128, 255}

    # The 37x23 field is stepped on its light cone's crop for its first 9
    # states, and the 41x21 field, seeded on its right edge, for 19. The
    # toroidal runs start in a corner, so their spread wraps every edge; 0.3
    # is inexact in binary, so each of its cutoffs depends on how p * m rounds.
    @pytest.mark.parametrize("flags,every,config", [
        (["--width", "37", "--height", "23"], 5, SimulationConfig(width=37, height=23)),
        (["--width", "37", "--height", "23", "--snapshot-format", "pgm"], 5,
         SimulationConfig(width=37, height=23)),
        (["--width", "41", "--height", "21", "--seed-row", "10", "--seed-col", "40"], 3,
         SimulationConfig(width=41, height=21, seed_position=(10, 40))),
        *[(["--model", "innovation", "--innovation-threshold", str(p), "--boundary", "toroidal",
            "--width", "23", "--height", "15", "--seed-row", "0", "--seed-col", "0"], 3,
           SimulationConfig(width=23, height=15, seed_position=(0, 0), boundary=Boundary.TOROIDAL,
                            rule_params=InnovationRuleParams(threshold=p))) for p in (0.9, 0.3)],
    ], ids=["37x23-ascii", "37x23-pgm", "41x21-right-edge", "23x15-torus-0.9", "23x15-torus-0.3"])
    def test_snapshots_replay_reference_and_match_series(self, tmp_path, flags, every, config):
        argv = ["simulate", *flags, "--seed", "2", "--max-steps", "20", "--snapshot-every", str(every)]
        assert main(argv + ["--outdir", str(tmp_path)]) in (EXIT_OK, EXIT_NO_CONVERGENCE)
        _, rows = read_csv_rows(tmp_path / "series.csv")
        ext = "pgm" if "pgm" in flags else "txt"
        names = sorted(p.name for p in tmp_path.glob("snapshot_*"))
        assert names == [f"snapshot_{t:06d}.{ext}" for t in range(0, len(rows), every)]
        grid, rng, params = config.initial_grid(), make_rng(2), config.rule_params
        for t, row in enumerate(rows):
            if t % every == 0:
                assert read_snapshot(tmp_path / f"snapshot_{t:06d}.{ext}", config) == grid, t
            if params.name == "news":
                counts = count_states(grid)
            else:
                not_adopted, adopted = count_adoption(grid)
                counts = (not_adopted, 0, adopted)
            assert tuple(int(v) for v in row[1:4]) == counts, t
            grid = step_reference(grid, t, rng, params)

    def test_rerun_from_manifest_is_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["simulate", "--width", "15", "--height", "15", "--seed", "8",
                     "--snapshot-every", "7", "--outdir", str(a)]) == EXIT_OK
        assert main(["simulate", "--from-manifest", str(a / "manifest.json"),
                     "--outdir", str(b)]) == EXIT_OK
        names = sorted(p.name for p in a.iterdir())
        assert names == sorted(p.name for p in b.iterdir())
        assert len([n for n in names if n.startswith("snapshot_")]) > 2
        for name in names:
            assert (a / name).read_bytes() == (b / name).read_bytes(), name

    def test_outdir_from_environment(self, tmp_path, monkeypatch):
        monkeypatch.setenv("NEWSCA_OUTDIR", str(tmp_path / "envout"))
        assert main(["simulate", "--width", "8", "--height", "8", "--seed", "1"]) == EXIT_OK
        assert (tmp_path / "envout" / "series.csv").exists()


class TestEnsemble:
    def test_outputs_and_determinism(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        args = ["ensemble", "--width", "15", "--height", "15", "--seed", "7",
                "--runs", "6", "--max-steps", "600"]
        assert main(args + ["--outdir", str(a)]) == EXIT_OK
        assert main(args + ["--jobs", "3", "--outdir", str(b)]) == EXIT_OK
        for name in ("mean_series.csv", "convergence.csv", "summary.json", "manifest.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_mean_rows_sum_to_one(self, tmp_path):
        assert main(["ensemble", "--width", "12", "--height", "12", "--seed", "2",
                     "--runs", "4", "--outdir", str(tmp_path)]) == EXIT_OK
        steps, white, grey, black = read_series_csv(tmp_path / "mean_series.csv")
        assert np.max(np.abs(white + grey + black - 1.0)) <= 1e-12
        assert steps[0] == 0

    def test_convergence_csv_lists_every_run(self, tmp_path):
        assert main(["ensemble", "--width", "12", "--height", "12", "--seed", "2",
                     "--runs", "5", "--outdir", str(tmp_path)]) == EXIT_OK
        header, rows = read_csv_rows(tmp_path / "convergence.csv")
        assert header[0] == "run"
        assert len(rows) == 5

    def test_summary_contents(self, tmp_path):
        assert main(["ensemble", "--width", "15", "--height", "15", "--seed", "4",
                     "--runs", "5", "--outdir", str(tmp_path)]) == EXIT_OK
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["runs"] == 5
        assert summary["generator"] == "numpy-pcg64"
        assert set(summary["stabilization_ratio"]) == {"grey", "white", "black"}
        assert summary["cross_point"]["spread"] >= 0
        assert summary["manifest"]["config"]["width"] == 15

    def test_rerun_from_manifest(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["ensemble", "--width", "12", "--height", "12", "--seed", "9",
                     "--runs", "3", "--outdir", str(a)]) == EXIT_OK
        assert main(["ensemble", "--from-manifest", str(a / "manifest.json"),
                     "--outdir", str(b)]) == EXIT_OK
        assert (a / "mean_series.csv").read_bytes() == (b / "mean_series.csv").read_bytes()

    def test_unconverged_runs_exit_code(self, tmp_path):
        code = main(["ensemble", "--runs", "2", "--max-steps", "5",
                     "--outdir", str(tmp_path)])
        assert code == EXIT_NO_CONVERGENCE

    @pytest.mark.parametrize("command,flags,names", [
        ("ensemble", ["--width", "30", "--runs", "7"], "--width, --runs"),
        ("ensemble", ["--wid", "30"], "--width"),  # an abbreviation names the flag it stands for
        ("ensemble", ["--innovation-threshold", "0.5", "--model", "news"], "--model, --innovation-threshold"),
        ("simulate", ["--seed-row", "1", "--snapshot-every", "2", "--snapshot-format", "pgm"],
         "--seed-row, --snapshot-every, --snapshot-format"),
        ("simulate", ["--seed", "0", "--max-steps", "1000"], "--seed, --max-steps"),  # even at its default
    ])
    def test_config_flag_with_manifest_is_usage_error(self, tmp_path, capsys, command, flags, names):
        a, b = tmp_path / "a", tmp_path / "b"
        runs = ["--runs", "3"] if command == "ensemble" else []
        assert main([command, "--width", "8", "--height", "8", *runs, "--outdir", str(a)]) == EXIT_OK
        capsys.readouterr()
        code = main([command, "--from-manifest", str(a / "manifest.json"), *flags, "--outdir", str(b)])
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == f"error: --from-manifest takes no config flag, got {names}\n"
        assert not b.exists()

    @pytest.mark.parametrize("command", ["simulate", "ensemble"])
    def test_each_config_flag_names_a_field(self, command):
        # A config field is read from the flag whose dest is its name; the
        # others make seed_position, pick the model or are the command's own.
        names = {f.name for cls in (SimulationConfig, *MODELS.values()) for f in fields(cls)}
        names |= {"seed_row", "seed_col", "model", "runs", "snapshot_every", "snapshot_format"}
        dests = [dest for dest, _ in build_parser().parse_args([command]).config_flags]
        assert [dest for dest in dests if dest not in names] == []

    def test_runs_default_to_100(self, tmp_path):
        assert main(["ensemble", "--width", "4", "--height", "4", "--outdir", str(tmp_path)]) == EXIT_OK
        assert json.loads((tmp_path / "manifest.json").read_text())["runs"] == 100

    def test_manifest_rerun_takes_jobs_and_outdir(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["ensemble", "--width", "8", "--height", "8", "--seed", "5", "--runs", "4",
                     "--outdir", str(a)]) == EXIT_OK
        assert main(["ensemble", "--from-manifest", str(a / "manifest.json"), "--jobs", "2",
                     "--outdir", str(b)]) == EXIT_OK
        for name in ("mean_series.csv", "convergence.csv", "manifest.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes(), name


class TestEvalModel:
    def test_default_range_and_normalization(self, tmp_path):
        assert main(["eval-model", "--outdir", str(tmp_path)]) == EXIT_OK
        steps, white, grey, black = read_series_csv(tmp_path / "model_series.csv")
        assert len(steps) == 121
        assert np.max(np.abs(white + grey + black - 1.0)) <= 1e-12
        assert grey[30] == 0.375
        assert black[25] == pytest.approx(0.342358, abs=1e-6)
        assert white[0] == pytest.approx(0.994980, abs=1e-6)
        assert (tmp_path / "manifest.json").exists()

    def test_header_order_is_grey_white_black(self, tmp_path):
        assert main(["eval-model", "--t-max", "3", "--outdir", str(tmp_path)]) == EXIT_OK
        header, _ = read_csv_rows(tmp_path / "model_series.csv")
        assert header == ["step", "grey_frac", "white_frac", "black_frac"]

    def test_custom_parameters(self, tmp_path):
        assert main(["eval-model", "--grey-tau", "50", "--t-max", "60",
                     "--outdir", str(tmp_path)]) == EXIT_OK
        _, _, grey, _ = read_series_csv(tmp_path / "model_series.csv")
        assert grey[50] == 0.375

    def test_rows_are_written_as_they_are_formatted(self, tmp_path):
        # The largest range eval-model accepts has 2**26 rows, several GB of
        # text; writing it must not hold all of it in memory at once.
        path = tmp_path / "model_series.csv"
        slow = AnalyticModel(grey=LogisticParams(0.75, 1e5, 1e-5), white=LogisticParams(0.75, 5e4, 2e-5))
        tracemalloc.start()
        try:
            write_model_csv(path, range(200_000), slow)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        size = path.stat().st_size
        assert size > 10_000_000
        assert peak < size / 10, (peak, size)

    def test_invalid_parameters_rejected(self, tmp_path):
        assert main(["eval-model", "--grey-c", "1.5", "--outdir", str(tmp_path)]) == EXIT_USAGE
        assert main(["eval-model", "--t-max", "-5", "--outdir", str(tmp_path)]) == EXIT_USAGE

    @pytest.mark.parametrize("flags", [["--grey-gamma", "nan"], ["--white-gamma", "inf"]],
                             ids=["grey-gamma-nan", "white-gamma-inf"])
    def test_non_finite_parameter_is_usage_error(self, tmp_path, capsys, flags):
        assert main(["eval-model", *flags, "--t-max", "3", "--outdir", str(tmp_path)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not (tmp_path / "model_series.csv").exists()

    # A valid but steep curve's exponent passes the double range and saturates
    # to 0 or c: the values are exact, so no numpy warning is due.
    @pytest.mark.parametrize("flag,expected", [
        ("--grey-gamma", "step,grey_frac,white_frac,black_frac\n"
                         "0,0,0.9949803618067864,0.005019638193213642\n"
                         "1,0,0.99356688593971598,0.0064331140602839898\n"
                         "2,0,0.99175979302705508,0.0082402069729448843\n"
                         "3,0,0.98945227971756589,0.010547720282434106\n"),
        ("--white-gamma", "step,grey_frac,white_frac,black_frac\n"
                          "0,0.0082402069729448843,1,-0.0082402069729448843\n"
                          "1,0.0095567620980837042,1,-0.0095567620980837042\n"
                          "2,0.011080523769954791,1,-0.011080523769954791\n"
                          "3,0.012843024986795803,1,-0.012843024986795803\n"),
    ], ids=["grey-gamma", "white-gamma"])
    def test_steep_curve_raises_no_warning(self, tmp_path, flag, expected):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["eval-model", flag, "1e308", "--t-max", "3", "--outdir", str(tmp_path)]) == EXIT_OK
        assert (tmp_path / "model_series.csv").read_text() == expected

    def test_step_range_above_max_cells_is_usage_error(self, tmp_path, capsys):
        # Refused before anything is allocated or written: np.arange over
        # 10**15 steps would need 8 PB.
        outdir = tmp_path / "out"
        assert main(["eval-model", "--t-max", "1000000000000000", "--outdir", str(outdir)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and "MAX_CELLS" in err
        assert not outdir.exists()


class TestFit:
    def test_recovers_model_from_its_own_curves(self, tmp_path):
        model_dir, fit_dir = tmp_path / "model", tmp_path / "fit"
        assert main(["eval-model", "--outdir", str(model_dir)]) == EXIT_OK
        code = main(["fit", "--input", str(model_dir / "model_series.csv"),
                     "--outdir", str(fit_dir)])
        assert code == EXIT_OK
        params = json.loads((fit_dir / "fit_params.json").read_text())
        assert params["grey"]["params"]["c"] == pytest.approx(0.75, rel=1e-3)
        assert params["grey"]["params"]["tau"] == pytest.approx(30.0, rel=1e-3)
        assert params["grey"]["params"]["gamma"] == pytest.approx(0.15, rel=1e-3)
        assert params["white"]["params"]["c"] == pytest.approx(0.75, rel=1e-3)
        assert params["white"]["params"]["tau"] == pytest.approx(20.0, rel=1e-3)
        assert params["white"]["params"]["gamma"] == pytest.approx(0.25, rel=1e-3)
        assert params["black_rmse"] <= 1e-6
        for curve in ("grey", "white"):
            assert type(params[curve]["nfev"]) is int and params[curve]["nfev"] >= 1
            assert len(params[curve]["stderr"]) == 3 and max(params[curve]["stderr"]) < 1e-6
        header, rows = read_csv_rows(fit_dir / "fit_series.csv")
        assert header[:4] == ["step", "white_sim", "grey_sim", "black_sim"]
        assert len(rows) == 121
        assert (fit_dir / "manifest.json").exists()

    def test_each_fitted_sigmoid_evaluated_once(self, tmp_path, monkeypatch):
        # np.exp calls inside fit_logistic are the search's; the rest, one per
        # fitted sigmoid, serve both black_rmse and fit_series.csv.
        assert main(["eval-model", "--outdir", str(tmp_path / "model")]) == EXIT_OK
        calls, searching = [], []
        exp, fit_logistic = np.exp, newsca.model.fit_logistic

        def counted_fit(*args, **kwargs):
            searching.append(True)
            try:
                return fit_logistic(*args, **kwargs)
            finally:
                searching.pop()

        monkeypatch.setattr(np, "exp", lambda x: calls.append("search" if searching else "outside") or exp(x))
        monkeypatch.setattr(newsca.model, "fit_logistic", counted_fit)
        assert main(["fit", "--input", str(tmp_path / "model" / "model_series.csv"),
                     "--outdir", str(tmp_path / "fit")]) == EXIT_OK
        assert "search" in calls and calls.count("outside") == 2

    def test_byte_order_mark_is_dropped(self, tmp_path):
        # Excel's "CSV UTF-8" starts the file with one.
        assert main(["eval-model", "--outdir", str(tmp_path / "model")]) == EXIT_OK
        plain, marked = tmp_path / "model" / "model_series.csv", tmp_path / "marked.csv"
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        params = []
        for csv_path in (plain, marked):
            out = tmp_path / csv_path.stem
            assert main(["fit", "--input", str(csv_path), "--outdir", str(out)]) == EXIT_OK
            fitted = json.loads((out / "fit_params.json").read_text())
            params.append([fitted[curve]["params"] for curve in ("grey", "white")])
        assert params[0] == params[1]

    def test_fractional_steps_kept_in_fit_series(self, tmp_path):
        t = np.arange(0, 120.5, 0.5)
        grey, white, _ = reference_model().curves(t)
        csv_path = tmp_path / "half.csv"
        csv_path.write_text("step,white_frac,grey_frac\n" + "".join(
            f"{s!r},{w!r},{g!r}\n" for s, w, g in zip(t.tolist(), white.tolist(), grey.tolist())))
        assert main(["fit", "--input", str(csv_path), "--outdir", str(tmp_path / "out")]) == EXIT_OK
        _, given = read_csv_rows(csv_path)
        _, written = read_csv_rows(tmp_path / "out" / "fit_series.csv")
        assert [float(row[0]) for row in written] == [float(row[0]) for row in given]
        assert [row[0] for row in written[:3]] == ["0", "0.5", "1"]

    def test_too_few_rows_is_fit_failure(self, tmp_path):
        csv_path = tmp_path / "tiny.csv"
        csv_path.write_text(
            "step,white_frac,grey_frac,black_frac\n"
            "0,0.9,0.1,0\n1,0.8,0.2,0\n2,0.7,0.3,0\n"
        )
        assert main(["fit", "--input", str(csv_path),
                     "--outdir", str(tmp_path / "out")]) == EXIT_FIT_FAILURE

    def test_white_whose_complement_rounds_to_a_constant_is_fit_failure(self, tmp_path):
        # White is fitted through 1 - white, which is 1.0 at every row here: a constant series.
        csv_path = tmp_path / "faint.csv"
        csv_path.write_text("step,white_frac,grey_frac\n" + "".join(
            f"{k},{(k + 1) * 1e-18!r},{k / 10!r}\n" for k in range(8)))
        assert main(["fit", "--input", str(csv_path), "--outdir", str(tmp_path / "out")]) == EXIT_FIT_FAILURE
        white = json.loads((tmp_path / "out" / "fit_params.json").read_text())["white"]
        assert (white["params"], white["rmse"], white["iterations"]) == (None, None, 0)
        assert white["message"] == "constant series carries no sigmoid information"

    # With no data row there is nothing to fit: the input is at fault (exit 2), not the fit (exit 4).
    @pytest.mark.parametrize("text", ["step,white_frac,grey_frac,black_frac\n",
                                      "step,white_frac,grey_frac,black_frac\n\n\n"],
                             ids=["header-only", "header-and-blank-lines"])
    def test_header_without_data_rows_is_io_error(self, tmp_path, capsys, text):
        csv_path = tmp_path / "empty.csv"
        csv_path.write_text(text)
        assert main(["fit", "--input", str(csv_path), "--outdir", str(tmp_path / "out")]) == EXIT_IO
        assert capsys.readouterr().err == f"error: {csv_path}: no data rows after the header\n"
        assert not (tmp_path / "out").exists()

    def test_malformed_csv_names_line(self, tmp_path, capsys):
        csv_path = tmp_path / "bad.csv"
        csv_path.write_text(
            "step,white_frac,grey_frac,black_frac\n0,0.9,0.1,0\n1,oops,0.2,0\n"
        )
        assert main(["fit", "--input", str(csv_path),
                     "--outdir", str(tmp_path / "out")]) == EXIT_IO
        assert "line 3" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_value_names_line(self, tmp_path, capsys, value):
        csv_path = tmp_path / "nan.csv"
        csv_path.write_text(
            "step,white_frac,grey_frac,black_frac\n"
            f"0,0.9,{value},0\n1,0.8,0.2,0\n2,0.7,0.3,0\n3,0.6,0.3,0.1\n4,0.5,0.3,0.2\n"
        )
        assert main(["fit", "--input", str(csv_path),
                     "--outdir", str(tmp_path / "out")]) == EXIT_IO
        assert "line 2" in capsys.readouterr().err

    @pytest.mark.parametrize("steps", [(0, 1, 1, 2, 3), (0, 2, 1, 3, 4)], ids=["repeated", "decreasing"])
    def test_steps_not_increasing_names_line(self, tmp_path, capsys, steps):
        csv_path = tmp_path / "steps.csv"
        csv_path.write_text("step,white_frac,grey_frac,black_frac\n"
                            + "".join(f"{t},0.8,0.1,0.1\n" for t in steps))
        assert main(["fit", "--input", str(csv_path),
                     "--outdir", str(tmp_path / "out")]) == EXIT_IO
        assert "line 4" in capsys.readouterr().err

    # Black is not range-checked on its own, but it must agree with white and grey.
    @pytest.mark.parametrize("row", ["1,0.8,1.5,0", "1,0.8,-0.5,0", "1,0.8,0.2,5"],
                             ids=["1.5", "-0.5", "black-contradicts"])
    def test_fraction_outside_unit_interval_names_line(self, tmp_path, capsys, row):
        csv_path = tmp_path / "range.csv"
        csv_path.write_text(
            "step,white_frac,grey_frac,black_frac\n"
            f"0,0.9,0.1,0\n{row}\n2,0.7,0.3,0\n3,0.6,0.3,0.1\n4,0.5,0.3,0.2\n"
        )
        assert main(["fit", "--input", str(csv_path),
                     "--outdir", str(tmp_path / "out")]) == EXIT_IO
        err = capsys.readouterr().err
        assert err.startswith(f"error: {csv_path}: line 3: ") and err.count("\n") == 1
        assert not (tmp_path / "out" / "fit_series.csv").exists()

    def test_field_above_csv_size_limit_is_io_error(self, tmp_path, capsys):
        csv_path = tmp_path / "huge.csv"
        csv_path.write_text("step,white_frac,grey_frac,black_frac\n0,0.9,0.1,0\n"
                            f'1,"{"x" * 200_000}",0.2,0\n')
        assert main(["fit", "--input", str(csv_path), "--outdir", str(tmp_path / "out")]) == EXIT_IO
        err = capsys.readouterr().err
        assert err.startswith(f"error: {csv_path}: ") and err.count("\n") == 1

    def test_row_after_multiline_field_names_its_own_line(self, tmp_path, capsys):
        csv_path = tmp_path / "multi.csv"
        csv_path.write_text('step,white_frac,grey_frac,note\n0,0.9,0.1,"two\nlines"\n1,oops,0.2,x\n')
        assert main(["fit", "--input", str(csv_path), "--outdir", str(tmp_path / "out")]) == EXIT_IO
        assert capsys.readouterr().err.startswith(f"error: {csv_path}: line 4: ")

    def test_header_field_above_csv_size_limit_names_line_1(self, tmp_path, capsys):
        csv_path = tmp_path / "bighead.csv"
        csv_path.write_text(f"step,{'x' * 200_000},white_frac,grey_frac\n0,1,0.9,0.1\n")
        assert main(["fit", "--input", str(csv_path), "--outdir", str(tmp_path / "out")]) == EXIT_IO
        err = capsys.readouterr().err
        assert err.startswith(f"error: {csv_path}: line 1: ") and err.count("\n") == 1

    def test_input_not_utf8_is_io_error(self, tmp_path, capsys):
        csv_path = tmp_path / "bin.csv"
        csv_path.write_bytes(b"step,white_frac,grey_frac,black_frac\n0,0.9,0.1,0\n1,\xff\xfe,0.2,0\n")
        assert main(["fit", "--input", str(csv_path), "--outdir", str(tmp_path / "out")]) == EXIT_IO
        err = capsys.readouterr().err
        assert err.startswith(f"error: {csv_path}: line 3: ") and err.count("\n") == 1

    def test_singular_fit_writes_null_stderr(self, tmp_path):
        # A step in grey is fitted exactly by an arbitrarily steep sigmoid,
        # whose Jacobian is singular; the standard errors are then undefined.
        t = np.arange(121)
        white = reference_model().curves(t)[1].tolist()
        grey = np.where(t >= 60, 0.7, 0.0).tolist()
        csv_path = tmp_path / "step.csv"
        csv_path.write_text("step,white_frac,grey_frac\n"
                            + "".join(f"{k},{w!r},{g!r}\n" for k, w, g in zip(t, white, grey)))
        assert main(["fit", "--input", str(csv_path), "--outdir", str(tmp_path / "out")]) == EXIT_OK
        text = (tmp_path / "out" / "fit_params.json").read_text()
        assert "NaN" not in text and "Infinity" not in text
        params = json.loads(text)
        assert params["grey"]["params"] is not None and params["grey"]["stderr"] is None
        assert all(map(math.isfinite, params["white"]["stderr"]))

    # Finite differences over steps 1e-300 apart underflow, and over steps
    # spanning +-1.7e308 overflow; neither may warn. The first leaves no
    # finite initial guess. The second fits a curve that is flat at every
    # sample but t = 0 and misses the data, so it is refused as saturated.
    @pytest.mark.parametrize("steps,reason", [
        (("0", "1e-300", "2e-300", "3e-300", "4e-300"), "initial guess"),
        (("-1.7e308", "-1e308", "0", "1e308", "1.7e308"), "saturated"),
    ], ids=["underflow", "overflow"])
    def test_extreme_step_spacing(self, tmp_path, capsys, steps, reason):
        csv_path = tmp_path / "extreme.csv"
        csv_path.write_text("step,white_frac,grey_frac\n" + "".join(
            f"{t},{w},{g}\n" for t, w, g in zip(steps, (0.9, 0.7, 0.5, 0.3, 0.1), (0, 0.15, 0.3, 0.45, 0.6))))
        assert main(["fit", "--input", str(csv_path), "--outdir", str(tmp_path / "out")]) == EXIT_FIT_FAILURE
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        params = json.loads((tmp_path / "out" / "fit_params.json").read_text())
        for curve in ("grey", "white"):
            assert params[curve]["params"] is None and reason in params[curve]["message"]

    # The early tail of a curve whose midpoint lies past the last sample:
    # both fits spend their 300 evaluations and stop unconverged, which is a
    # fit failure, reported in fit_params.json and in one stderr line.
    def test_fit_stopped_at_its_budget_is_fit_failure(self, tmp_path, capsys):
        t = np.arange(121)
        grey = (0.6 / (1 + np.exp(-0.05 * (t - 300)))).tolist()
        csv_path = tmp_path / "late.csv"
        csv_path.write_text("step,white_frac,grey_frac\n"
                            + "".join(f"{k},{1 - 1.2 * g!r},{g!r}\n" for k, g in zip(t.tolist(), grey)))
        assert main(["fit", "--input", str(csv_path), "--outdir", str(tmp_path / "out")]) == EXIT_FIT_FAILURE
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        params = json.loads((tmp_path / "out" / "fit_params.json").read_text())
        for curve in ("grey", "white"):
            assert params[curve]["params"] is not None and not params[curve]["converged"]
            assert params[curve]["nfev"] == MAX_NFEV
            assert f"{curve} fit did not converge ({params[curve]['message']})" in err
        assert "function evaluations" in err
        assert not (tmp_path / "out" / "fit_series.csv").exists()

    @pytest.mark.parametrize("text,missing", [("step,white_frac\n0,0.9\n", "'white_frac' or 'grey_frac'"),
                                              ("t,white_frac,grey_frac\n0,0.9,0.1\n", "'step'")],
                             ids=["no-grey", "no-step"])
    def test_missing_column_rejected(self, tmp_path, capsys, text, missing):
        csv_path = tmp_path / "cols.csv"
        csv_path.write_text(text)
        assert main(["fit", "--input", str(csv_path),
                     "--outdir", str(tmp_path / "out")]) == EXIT_IO
        assert capsys.readouterr().err == f"error: {csv_path}: line 1: missing {missing} column\n"

    def test_missing_input_is_io_error(self, tmp_path):
        assert main(["fit", "--input", str(tmp_path / "nope.csv"),
                     "--outdir", str(tmp_path)]) == EXIT_IO


class TestPipeline:
    def test_ensemble_then_fit(self, tmp_path):
        ens, fit = tmp_path / "ens", tmp_path / "fit"
        assert main(["ensemble", "--width", "12", "--height", "12", "--runs", "20", "--seed", "1",
                     "--outdir", str(ens)]) == EXIT_OK
        assert main(["fit", "--input", str(ens / "mean_series.csv"), "--outdir", str(fit)]) == EXIT_OK
        mean_header, mean_rows = read_csv_rows(ens / "mean_series.csv")
        fit_header, fit_rows = read_csv_rows(fit / "fit_series.csv")
        assert mean_header == ["step", "white_frac", "grey_frac", "black_frac"]
        assert fit_header[:4] == ["step", "white_sim", "grey_sim", "black_sim"]
        assert [row[:4] for row in fit_rows] == mean_rows


class TestManifestRoundTrip:
    def test_news_config(self):
        cfg = SimulationConfig(width=17, height=9, seed_position=(4, 11), rng_seed=99, max_steps=250)
        d = config_to_dict(cfg, snapshot_every=10)
        assert d["snapshot_every"] == 10 and config_to_dict(cfg)["snapshot_every"] is None
        assert config_from_dict(d) == cfg

    def test_innovation_config(self):
        cfg = SimulationConfig(rule_params=InnovationRuleParams(threshold=0.5))
        assert config_from_dict(config_to_dict(cfg)) == cfg

    def test_int_accepted_for_float_entry(self):
        d = config_to_dict(SimulationConfig(rule_params=InnovationRuleParams(threshold=2.0)))
        d["rule_params"]["threshold"] = 2
        assert config_from_dict(d) == SimulationConfig(rule_params=InnovationRuleParams(threshold=2.0))

    def test_default_center_survives(self):
        cfg = SimulationConfig()
        back = config_from_dict(config_to_dict(cfg))
        assert back.seed_position is None
        assert back == cfg

    @pytest.mark.parametrize("cls", MODELS.values(), ids=MODELS.keys())
    def test_rule_params_are_the_dataclass_fields(self, cls):
        cfg = SimulationConfig(rule_params=cls())
        d = config_to_dict(cfg)
        assert d["model"] == cls.name
        assert d["rule_params"] == asdict(cfg.rule_params)
        assert config_from_dict(d) == cfg

    # An edit changes the manifest in place, or is the text that replaces
    # it; None truncates it. Each message names the entry at fault.
    @pytest.mark.parametrize("edit,names", [
        (lambda m: m["config"].pop("max_steps"), "config must hold"),
        (lambda m: m["config"].update(colour="red"), "config must hold"),
        (lambda m: m["config"]["rule_params"].pop("boost_factor"), "rule_params of model 'news' must hold"),
        (lambda m: m["config"]["rule_params"].update(threshold=1.0), "rule_params of model 'news' must hold"),
        (lambda m: m["config"].update(model="rumor"), "config entry 'model'"),
        (lambda m: m.pop("runs"), "runs must be"),
        (None, "Expecting"),
        (lambda m: m["config"].update(width=6.5), "width must be an integer, got 6.5"),
        (lambda m: m["config"].update(max_steps=True), "max_steps must be an integer, got True"),
        (lambda m: m["config"].update(seed_position=[1, 2.0]), "seed_position[1] must be an integer, got 2.0"),
        (lambda m: m["config"].update(snapshot_every="5"), "snapshot_every must be an integer, got '5'"),
        (lambda m: m["config"]["rule_params"].update(boost_below=2.0), "boost_below must be an integer, got 2.0"),
        (lambda m: m["config"].update(boundary="open"), "boundary must be one of ['bounded', 'toroidal'], got 'open'"),
        (lambda m: m["config"].update(width=100_000, height=100_000), "field exceeds MAX_CELLS"),
        (lambda m: (m["config"].update(width=1000, height=1000), m.update(runs=1000)), "1000 runs"),
        (lambda m: m.update(command="simulate"), "command must be"),
        (lambda m: m.pop("command"), "missing key 'command'"),
        (lambda m: m.update(rng="mt19937"), "rng must be"),
        ("[]", "the manifest must be a JSON object"),
        ("null", "the manifest must be a JSON object"),
        (lambda m: m.update(config=list(m["config"].items())), "config must be a JSON object"),
        (lambda m: m["config"].update(model=["news"]), "config entry 'model'"),
        (lambda m: m["config"].update(rule_params=3), "config entry 'rule_params' must be a JSON object"),
        (lambda m: m["config"].update(snapshot_every=1), "config entry 'snapshot_every' must be null"),
        (lambda m: m.pop("version"), "missing key 'version'"),
        (lambda m: m.update(version=None), "version must be a string, got None"),
        (lambda m: m.update(version=1), "version must be a string, got 1"),
        (lambda m: m.update(snapshot_format="bogus", extra=1),
         "ensemble manifests hold no entry 'extra', 'snapshot_format'"),
        ("[" * 200_000, "nested too deeply"),
        ('{"command": "ensemble", "rng": "numpy-pcg64", "config": ' + "[" * 5000 + "]" * 5000 + "}",
         "nested too deeply"),
    ], ids=["missing-config-key", "extra-config-key", "missing-rule-key", "extra-rule-key",
            "unknown-model", "missing-runs", "invalid-json", "width-float", "max-steps-bool",
            "seed-position-float", "snapshot-every-string", "boost-below-float", "unknown-boundary",
            "field-above-max-cells", "runs-above-max-cells", "other-command", "missing-command",
            "other-generator", "manifest-list", "manifest-null", "config-list", "model-list",
            "rule-params-int", "snapshot-every-set", "missing-version", "version-null", "version-int",
            "stray-entries", "deep-json", "deep-config"])
    def test_malformed_manifest_is_io_error(self, tmp_path, capsys, edit, names):
        path = tmp_path / "manifest.json"
        assert main(["ensemble", "--width", "6", "--height", "6", "--runs", "2",
                     "--outdir", str(tmp_path)]) == EXIT_OK
        if edit is None:
            path.write_text(path.read_text()[:-10])
        elif isinstance(edit, str):
            path.write_text(edit)
        else:
            manifest = json.loads(path.read_text())
            edit(manifest)
            path.write_text(json.dumps(manifest))
        capsys.readouterr()
        code = main(["ensemble", "--from-manifest", str(path), "--outdir", str(tmp_path / "b")])
        assert code == EXIT_IO
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: ") and err.count("\n") == 1
        assert names in err
        # Entries are named by their JSON shape, not by a Python type.
        assert "newsca." not in err and "[int" not in err


def run_quietly(argv):
    """(exit code, stderr) of ``main(argv)``, stdout discarded."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def _series_rows():
    t = np.arange(12)
    grey, white, _ = (curve.tolist() for curve in reference_model().curves(t))
    return [["step", "white_frac", "grey_frac", "black_frac"]] + [
        [str(k), repr(w), repr(g), repr(1.0 - w - g)] for k, w, g in zip(t, white, grey)]


SERIES_ROWS = _series_rows()
N_ROWS = len(SERIES_ROWS) - 1  # data rows are SERIES_ROWS[1..N_ROWS], step k in row k + 1
NON_FINITE = st.sampled_from(["nan", "NaN", "inf", "-inf", "Infinity"])
# Without a digit, no text parses as a finite float.
NO_DIGITS = st.text(st.characters(blacklist_categories=("Nd", "Cs")), max_size=8)


def series_text(rows):
    return "".join(",".join(row) + "\n" for row in rows)


@st.composite
def mangled_series(draw):
    """A series CSV that is malformed, or too short to fit."""
    rows = [list(row) for row in SERIES_ROWS]
    kind = draw(st.sampled_from(["truncated", "swapped", "non-numeric", "out-of-range"]))
    if kind == "truncated":
        # At most three whole data rows survive.
        return series_text(rows)[:draw(st.integers(0, len(series_text(rows[:4]))))]
    if kind == "swapped" and draw(st.booleans()):
        i, k = draw(st.lists(st.integers(1, N_ROWS), min_size=2, max_size=2, unique=True))
        rows[i][0], rows[k][0] = rows[k][0], rows[i][0]
    elif kind == "swapped":
        # A fraction as step 2 or later cannot follow the step before it.
        i, j = draw(st.integers(3, N_ROWS)), draw(st.integers(1, 3))
        rows[i][0], rows[i][j] = rows[i][j], rows[i][0]
    elif kind == "non-numeric":
        i, j = draw(st.integers(1, N_ROWS)), draw(st.integers(0, 3))
        rows[i][j] = draw(NON_FINITE | NO_DIGITS)
    else:
        i, j = draw(st.integers(1, N_ROWS)), draw(st.integers(1, 2))
        value = draw(st.floats(1.0, 1e6, exclude_min=True) | st.floats(-1e6, 0.0, exclude_max=True))
        rows[i][j] = repr(value)
    return series_text(rows)


JSON_LEAVES = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=5)
JSON_CONTAINERS = (st.lists(st.integers(), max_size=3)
                   | st.dictionaries(st.text(max_size=3), st.integers(), max_size=2))
NOT_AN_OBJECT = JSON_LEAVES | st.lists(st.integers(), max_size=3)
NOT_AN_INT = (st.none() | st.booleans() | st.floats() | st.text(max_size=5) | JSON_CONTAINERS)
NOT_A_FLOAT = (st.none() | st.booleans() | st.sampled_from([math.nan, math.inf, -math.inf])
               | st.text(max_size=5) | JSON_CONTAINERS)
# Each manifest entry (a path of keys) with values it must reject; a manifest
# is mangled only at the entries it holds.
BAD_ENTRIES = {
    (): NOT_AN_OBJECT,
    ("config",): NOT_AN_OBJECT,
    ("snapshot_format",): JSON_LEAVES.filter(lambda v: v not in ("ascii", "pgm")),
    ("command",): JSON_LEAVES.filter(lambda v: v not in ("simulate", "ensemble")),
    ("runs",): NOT_AN_INT,
    ("rng",): JSON_LEAVES.filter(lambda v: v != "numpy-pcg64"),
    **{("config", name): NOT_AN_INT for name in ("width", "height", "rng_seed", "max_steps")},
    ("config", "model"): JSON_LEAVES.filter(lambda v: v not in MODELS) | JSON_CONTAINERS,
    ("config", "boundary"): JSON_LEAVES.filter(lambda v: v not in ("bounded", "toroidal")) | JSON_CONTAINERS,
    ("config", "seed_position"): (
        st.booleans() | st.integers() | st.floats() | st.text(max_size=5)
        | st.lists(st.integers(0, 5), max_size=4).filter(lambda v: len(v) != 2)
        | st.tuples(st.floats(), st.integers(0, 5)).map(list)),
    ("config", "snapshot_every"): st.booleans() | st.floats() | st.text(max_size=5) | JSON_CONTAINERS,
    ("config", "rule_params"): NOT_AN_OBJECT,
    ("config", "rule_params", "adoption_threshold"): NOT_A_FLOAT,
    ("config", "rule_params", "boost_factor"): NOT_A_FLOAT,
    ("config", "rule_params", "boost_below"): NOT_AN_INT,
    ("config", "rule_params", "threshold"): NOT_A_FLOAT,
}
SIMULATE_MANIFESTS = [
    build_manifest("simulate", SimulationConfig(width=6, height=6, rng_seed=1, rule_params=cls()),
                   snapshot_format="ascii")
    for cls in MODELS.values()]
ENSEMBLE_MANIFEST = build_manifest("ensemble", SimulationConfig(width=6, height=6, rng_seed=1), runs=2)


def holds(manifest, path):
    """Whether ``manifest`` has an entry at ``path``."""
    for key in path:
        if key not in manifest:
            return False
        manifest = manifest[key]
    return True


@st.composite
def mangled_manifest(draw, manifests):
    """The JSON text of one of ``manifests`` mangled so that it must be refused."""
    manifest = json.loads(json.dumps(draw(st.sampled_from(manifests))))
    kind = draw(st.sampled_from(["truncated", "swapped", "bad-value"]))
    if kind == "truncated":
        text = json.dumps(manifest, indent=2)
        return text[:draw(st.integers(0, len(text) - 1))]
    config = manifest["config"]
    if kind == "swapped":
        # No other entry holds a value these three accept.
        a = draw(st.sampled_from(["model", "rule_params", "boundary"]))
        b = draw(st.sampled_from(sorted(set(config) - {a})))
        config[a], config[b] = config[b], config[a]
        return json.dumps(manifest)
    path = draw(st.sampled_from([path for path in sorted(BAD_ENTRIES) if holds(manifest, path)]))
    value = draw(BAD_ENTRIES[path])
    if not path:
        return json.dumps(value)
    owner = manifest
    for key in path[:-1]:
        owner = owner[key]
    owner[path[-1]] = value
    return json.dumps(manifest)


class TestMangledInputs:
    """Mangled input ends in one ``error:`` line and a documented exit code, never a traceback."""

    @staticmethod
    def assert_one_error_line(err):
        assert "Traceback" not in err
        assert err.startswith("error: ") and err.count("\n") == 1, err

    # An error echoes at most a short head of the value it rejects.
    @pytest.mark.parametrize("width", ['"' + "x" * 1_000_000 + '"', "[" * 900 + "]" * 900],
                             ids=["million-character-string", "900-deep-array"])
    def test_echo_of_a_huge_value_is_cut(self, tmp_path, width):
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(ENSEMBLE_MANIFEST).replace('"width": 6', '"width": ' + width))
        code, err = run_quietly(["ensemble", "--from-manifest", str(path), "--outdir", str(tmp_path / "b")])
        assert code == EXIT_IO
        self.assert_one_error_line(err)
        assert len(err.encode()) < 300, err[:400]

    # An integer is echoed cut as well: one from a manifest, which json
    # reads up to 4,300 digits (exit 2), or from --jobs (exit 1). Each
    # fails on its own rule.
    @pytest.mark.parametrize("path,value,rule", [
        (("config", "rng_seed"), -10**4000, "rng_seed must be a non-negative integer"),
        (("config", "seed_position"), [10**4000, 0], "out of bounds"),
        (("config", "width"), 10**4000, "exceeds MAX_CELLS"),
        (("config", "rule_params", "boost_below"), 10**4000, "boost_below must be in [0, 8]"),
        (("runs",), -10**4000, "runs must be >= 1"),
        ((), -10**4000, "jobs must be >= 1")],
        ids=["rng_seed", "seed_position", "field-size", "boost_below", "runs", "jobs"])
    def test_echo_of_a_huge_integer_is_cut(self, tmp_path, path, value, rule):
        manifest = json.loads(json.dumps(ENSEMBLE_MANIFEST))
        argv = ["ensemble", "--from-manifest", str(tmp_path / "manifest.json"), "--outdir", str(tmp_path / "b")]
        if path:
            owner = manifest
            for key in path[:-1]:
                owner = owner[key]
            owner[path[-1]] = value
        else:
            argv += ["--jobs", str(value)]
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        code, err = run_quietly(argv)
        assert code == (EXIT_IO if path else EXIT_USAGE)
        self.assert_one_error_line(err)
        assert rule in err and len(err.encode()) < 300, err[:400]

    # An error in a series CSV names its line and its reason, and echoes a
    # cut row: a row with a 100,000-character field, which float() does not
    # parse or which follows a NaN, and a 5,000-digit grey fraction, which
    # reads as inf.
    @pytest.mark.parametrize("row,reason", [
        ("0,nan,0.1," + "x" * 100_000, "non-finite value in row"),
        ("0," + "x" * 100_000 + ",0.1", "unparseable row"),
        ("0,0.5," + "1" * 5000, "non-finite value in row")],
        ids=["after-nan", "unparseable-field", "5000-digit-grey"])
    def test_echo_of_a_huge_csv_row_is_cut(self, tmp_path, row, reason):
        path = tmp_path / "series.csv"
        path.write_text("step,white_frac,grey_frac\n" + row + "\n")
        code, err = run_quietly(["fit", "--input", str(path), "--outdir", str(tmp_path / "out")])
        assert code == EXIT_IO
        self.assert_one_error_line(err)
        assert f"line 2: {reason}" in err and len(err.encode()) < 300, err[:400]

    @settings(max_examples=50, deadline=None)
    @given(text=mangled_series())
    def test_mangled_series_csv(self, text):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "series.csv"
            path.write_text(text, encoding="utf-8")
            code, err = run_quietly(["fit", "--input", str(path), "--outdir", str(Path(tmp) / "out")])
        assert code in (EXIT_IO, EXIT_FIT_FAILURE)
        self.assert_one_error_line(err)

    # Steps whose differences pass the double range; some of these fits succeed.
    @settings(max_examples=50, deadline=None)
    @given(series=extreme_series())
    def test_series_at_extreme_steps(self, series):
        steps, grey, white = series
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "series.csv"
            path.write_text("step,white_frac,grey_frac\n"
                            + "".join(f"{t!r},{w!r},{g!r}\n" for t, w, g in zip(steps, white, grey)))
            code, err = run_quietly(["fit", "--input", str(path), "--outdir", str(Path(tmp) / "out")])
        assert code in (EXIT_OK, EXIT_FIT_FAILURE)
        if code == EXIT_OK:
            assert err == ""
        else:
            self.assert_one_error_line(err)

    def assert_manifest_refused(self, command, text):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "manifest.json"
            path.write_text(text, encoding="utf-8")
            code, err = run_quietly([command, "--from-manifest", str(path),
                                     "--outdir", str(Path(tmp) / "out")])
        assert code == EXIT_IO
        self.assert_one_error_line(err)

    @settings(max_examples=50, deadline=None)
    @given(text=mangled_manifest(SIMULATE_MANIFESTS))
    def test_mangled_simulate_manifest(self, text):
        self.assert_manifest_refused("simulate", text)

    @settings(max_examples=50, deadline=None)
    @given(text=mangled_manifest([ENSEMBLE_MANIFEST]))
    def test_mangled_ensemble_manifest(self, text):
        self.assert_manifest_refused("ensemble", text)


def per_cell_text(grid, chars):
    """grid_to_text written one cell at a time."""
    rows = ["".join(chars[int(v)] for v in row) for row in grid.cells]
    return "\n".join([f"{grid.width} {grid.height} {grid.boundary.value}", *rows]) + "\n"


def per_cell_pgm(grid, chars):
    """A pgm snapshot written one cell at a time."""
    rows = [" ".join(str(PGM_LEVELS[chars[int(v)]]) for v in row) for row in grid.cells]
    return "\n".join(["P2", f"{grid.width} {grid.height}", "255", *rows]) + "\n"


class TestSnapshotWriters:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), cls=st.sampled_from(list(MODELS.values())),
           boundary=st.sampled_from(list(Boundary)),
           shape=st.one_of(st.tuples(st.integers(1, 7), st.integers(1, 7)),
                           st.sampled_from([(1, 1), (1, 9), (9, 1)])))
    def test_writers_match_per_cell_rendering(self, data, cls, boundary, shape):
        cells = data.draw(arrays(np.uint8, shape, elements=st.integers(0, int(cls.seed_state))))
        grid = Grid(cells, boundary)
        assert grid_to_text(grid, cls.chars) == per_cell_text(grid, cls.chars)
        with tempfile.TemporaryDirectory() as tmp:
            path = write_snapshot(Path(tmp), 3, grid, "pgm", cls.chars)
            assert path.name == "snapshot_000003.pgm"
            assert path.read_text() == per_cell_pgm(grid, cls.chars)

    @pytest.mark.parametrize("cls", list(MODELS.values()), ids=list(MODELS))
    def test_code_outside_the_alphabet_rejected(self, tmp_path, cls):
        code = len(cls.chars)
        grid = Grid(np.array([[0, code], [1, 0]], dtype=np.uint8))
        with pytest.raises(ValueError, match=f"cell code {code} "):
            grid_to_text(grid, cls.chars)
        with pytest.raises(ValueError, match=f"cell code {code} "):
            write_snapshot(tmp_path, 0, grid, "pgm", cls.chars)


class TestTopLevel:
    def test_no_command_is_one_line_usage_error(self, capsys):
        assert main([]) == EXIT_USAGE
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: a command is required: simulate, ensemble, eval-model or fit\n"

    def test_version_flag(self, capsys):
        assert main(["--version"]) == EXIT_OK
        assert "newsca" in capsys.readouterr().out

    def test_unknown_command(self):
        assert main(["frobnicate"]) == EXIT_USAGE

    def test_one_parser_prints_to_each_call_s_streams(self, capsys):
        build_parser.cache_clear()
        first_out, first_err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(first_out), contextlib.redirect_stderr(first_err):
            assert main(["frobnicate"]) == EXIT_USAGE
        assert main(["--version"]) == EXIT_OK
        assert main(["--help"]) == EXIT_OK
        assert main(["simulate", "--width"]) == EXIT_USAGE
        assert build_parser.cache_info().misses == 1  # built by the first call, reused by the others
        assert first_out.getvalue() == ""
        assert first_err.getvalue().startswith("error: argument command: invalid choice: 'frobnicate'")
        out, err = capsys.readouterr()
        assert out.startswith(f"newsca {__version__}\nusage: newsca ")
        assert err == "error: argument --width: expected one argument\n"
