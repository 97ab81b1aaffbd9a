import json
from dataclasses import asdict

import numpy as np
import pytest

from newsca import SimulationConfig, InnovationRuleParams
from newsca.rules import MODELS
from newsca.cli import (
    EXIT_FIT_FAILURE,
    EXIT_IO,
    EXIT_NO_CONVERGENCE,
    EXIT_OK,
    EXIT_USAGE,
    config_from_dict,
    config_to_dict,
    main,
    read_series_csv,
)


def read_csv_rows(path):
    lines = path.read_text().splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


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

    def test_rerun_from_manifest_is_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["simulate", "--width", "15", "--height", "15", "--seed", "8",
                     "--outdir", str(a)]) == EXIT_OK
        assert main(["simulate", "--from-manifest", str(a / "manifest.json"),
                     "--outdir", str(b)]) == EXIT_OK
        assert (a / "series.csv").read_bytes() == (b / "series.csv").read_bytes()
        assert (a / "manifest.json").read_bytes() == (b / "manifest.json").read_bytes()

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
        assert params["white"]["params"]["tau"] == pytest.approx(20.0, rel=1e-3)
        assert params["black_rmse"] <= 1e-6
        header, rows = read_csv_rows(fit_dir / "fit_series.csv")
        assert header[:4] == ["step", "white_sim", "grey_sim", "black_sim"]
        assert len(rows) == 121
        assert (fit_dir / "manifest.json").exists()

    def test_too_few_rows_is_fit_failure(self, tmp_path):
        csv_path = tmp_path / "tiny.csv"
        csv_path.write_text(
            "step,white_frac,grey_frac,black_frac\n"
            "0,0.9,0.1,0\n1,0.8,0.2,0\n2,0.7,0.3,0\n"
        )
        assert main(["fit", "--input", str(csv_path),
                     "--outdir", str(tmp_path / "out")]) == EXIT_FIT_FAILURE

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

    def test_missing_column_rejected(self, tmp_path):
        csv_path = tmp_path / "cols.csv"
        csv_path.write_text("step,white_frac\n0,0.9\n")
        assert main(["fit", "--input", str(csv_path),
                     "--outdir", str(tmp_path / "out")]) == EXIT_IO

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
        cfg = SimulationConfig(width=17, height=9, seed_position=(4, 11),
                               rng_seed=99, max_steps=250, snapshot_every=10)
        assert config_from_dict(config_to_dict(cfg)) == cfg

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

    @pytest.mark.parametrize("edit", [
        lambda m: m["config"].pop("max_steps"),
        lambda m: m["config"].update(colour="red"),
        lambda m: m["config"]["rule_params"].pop("boost_factor"),
        lambda m: m["config"]["rule_params"].update(threshold=1.0),
        lambda m: m["config"].update(model="rumor"),
        lambda m: m.pop("runs"),
        None,
        lambda m: m["config"].update(width=6.5),
        lambda m: m["config"].update(max_steps=True),
        lambda m: m["config"].update(seed_position=[1, 2.0]),
        lambda m: m["config"].update(snapshot_every="5"),
        lambda m: m["config"]["rule_params"].update(boost_below=2.0),
        lambda m: m["config"].update(boundary="open"),
    ], ids=["missing-config-key", "extra-config-key", "missing-rule-key", "extra-rule-key",
            "unknown-model", "missing-runs", "invalid-json", "width-float", "max-steps-bool",
            "seed-position-float", "snapshot-every-string", "boost-below-float", "unknown-boundary"])
    def test_malformed_manifest_is_io_error(self, tmp_path, capsys, edit):
        path = tmp_path / "manifest.json"
        assert main(["ensemble", "--width", "6", "--height", "6", "--runs", "2",
                     "--outdir", str(tmp_path)]) == EXIT_OK
        if edit is None:
            path.write_text(path.read_text()[:-10])
        else:
            manifest = json.loads(path.read_text())
            edit(manifest)
            path.write_text(json.dumps(manifest))
        capsys.readouterr()
        code = main(["ensemble", "--from-manifest", str(path), "--outdir", str(tmp_path / "b")])
        assert code == EXIT_IO
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1


class TestTopLevel:
    def test_no_command_shows_help(self, capsys):
        assert main([]) == EXIT_USAGE
        assert "simulate" in capsys.readouterr().out

    def test_version_flag(self, capsys):
        assert main(["--version"]) == EXIT_OK
        assert "newsca" in capsys.readouterr().out

    def test_unknown_command(self):
        assert main(["frobnicate"]) == EXIT_USAGE
