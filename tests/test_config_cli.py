"""Config parsing, canonical echo, CLI subcommands and exit codes."""
import numpy as np
import pytest

import waxsim.cli as cli
from waxsim.config import ConfigBuilder, default_config, load_config
from waxsim.errors import ConfigError, NumericalError


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def csv_column(text, name):
    lines = text.strip().splitlines()
    idx = lines[0].split(",").index(name)
    return [row.split(",")[idx] for row in lines[1:]]


class TestConfigParsing:
    def test_defaults_build_domain_objects(self):
        cfg = default_config()
        assert cfg.particle().radius == 120e-9
        assert cfg.environment().preset == "ground"
        assert cfg.campaign().runs_per_time == 1000
        assert cfg.detection().aggregation == "best-time"

    def test_file_assignments_and_comments(self):
        cfg = load_config(
            """
            # particle block
            particle.radius_m = 60e-9
            csl.lambda_hz = 1e-13   # trailing comment
            toggles.gas = false
            """
        )
        assert cfg.get("particle.radius_m") == 60e-9
        assert cfg.get("csl.lambda_hz") == 1e-13
        assert cfg.toggles().gas is False

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            load_config("particle.color = blue\n")

    def test_malformed_line_rejected(self):
        with pytest.raises(ConfigError):
            load_config("particle.radius_m 120e-9\n")

    def test_bad_number_rejected(self):
        with pytest.raises(ConfigError):
            load_config("particle.radius_m = tiny\n")
        with pytest.raises(ConfigError):
            load_config("particle.radius_m = nan\n")

    def test_bad_bool_rejected(self):
        with pytest.raises(ConfigError):
            load_config("toggles.gas = maybe\n")

    def test_enum_rejected(self):
        with pytest.raises(ConfigError):
            load_config("environment.preset = orbit\n")
        with pytest.raises(ConfigError):
            load_config("detection.aggregation = vote\n")

    def test_grid_range_syntax(self):
        cfg = load_config("campaign.time_grid_s = 0:100:5\n")
        assert cfg.get("campaign.time_grid_s") == (0.0, 25.0, 50.0, 75.0, 100.0)

    def test_preset_overlay(self):
        cfg = load_config("environment.preset = space\n")
        env = cfg.environment()
        assert env.temperature == 35.0
        assert env.gas_pressure == 1e-12

    def test_explicit_key_survives_preset(self):
        cfg = load_config(
            "environment.preset = space\nenvironment.temperature_k = 32.0\n"
        )
        assert cfg.environment().temperature == 32.0

    def test_preset_conflict_is_an_error(self):
        cfg = load_config(
            "environment.preset = space\nenvironment.temperature_k = 300.0\n"
        )
        with pytest.raises(Exception):
            cfg.environment()

    @pytest.mark.parametrize("grid", ["", "5,5,10", "10,5", "-1,5", "0:0:3"])
    def test_bad_time_grid_rejected(self, grid):
        with pytest.raises(ConfigError, match="time_grid_s"):
            load_config(f"campaign.time_grid_s = {grid}\n")

    def test_round_trip(self):
        builder = ConfigBuilder()
        builder.set_raw("environment.preset", "space")
        builder.set_raw("csl.lambda_hz", "1e-13")
        builder.set_raw("campaign.time_grid_s", "0:10:3")
        cfg = builder.finalize()
        assert load_config(cfg.canonical_text()) == cfg


class TestCli:
    def test_rates_space_with_zero_csl(self, capsys):
        code, out, _ = run_cli(
            capsys, "rates", "--preset", "space", "--csl.lambda", "0"
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "channel,lambda_m2s"
        rows = dict(line.split(",") for line in lines[1:])
        assert float(rows["csl"]) == 0.0
        assert float(rows["total"]) > 0.0

    def test_rates_ground_no_gas(self, capsys):
        code, out, _ = run_cli(capsys, "rates", "--preset", "ground", "--no-gas")
        assert code == 0
        rows = dict(line.split(",") for line in out.strip().splitlines()[1:])
        assert float(rows["gas_collisions"]) == 0.0

    def test_malformed_config_exits_2_without_csv(self, capsys, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("particle.radius_m = banana\n")
        code, out, err = run_cli(capsys, "rates", "--config", str(bad))
        assert code == 2
        assert out == ""
        assert "error" in err

    def test_expand_default_is_monotone(self, capsys):
        code, out, _ = run_cli(capsys, "expand")
        assert code == 0
        sigma = [float(v) for v in csv_column(out, "sigma_m")]
        assert sigma == sorted(sigma)

    def test_expand_csl_dominates_bare_curve(self, capsys):
        _, bare, _ = run_cli(capsys, "expand", "--toggles", "none")
        _, csl, _ = run_cli(
            capsys, "expand", "--toggles", "none", "--csl", "--csl.lambda", "1e-13"
        )
        bare_sigma = np.array([float(v) for v in csv_column(bare, "sigma_m")])
        csl_sigma = np.array([float(v) for v in csv_column(csl, "sigma_m")])
        assert np.all(csl_sigma >= bare_sigma)
        assert csl_sigma[-1] > bare_sigma[-1]

    def test_expand_empty_grid_exits_2(self, capsys):
        code, out, err = run_cli(capsys, "expand", "--campaign.time_grid_s", "")
        assert code == 2
        assert out == ""

    def test_campaign_deterministic(self, capsys):
        argv = (
            "campaign",
            "--campaign.time_grid_s", "0,1,10",
            "--campaign.runs_per_time", "50",
            "--campaign.seed", "42",
        )
        code1, out1, _ = run_cli(capsys, *argv)
        code2, out2, _ = run_cli(capsys, *argv)
        assert code1 == code2 == 0
        assert out1 == out2

    def test_campaign_single_run_exits_2(self, capsys):
        code, out, err = run_cli(capsys, "campaign", "--campaign.runs_per_time", "1")
        assert code == 2
        assert "runs_per_time" in err

    def test_campaign_dump_samples(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "campaign",
            "--dump-samples",
            "--campaign.time_grid_s", "0,1",
            "--campaign.runs_per_time", "4",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "t_s,run_index,x_m"
        assert len(lines) == 9

    def test_bound_sweep_monotone_and_scaling(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "bound",
            "--preset", "space",
            "--campaign.time_grid_s", "1,3,10,30,100",
            "--bound.n_sweep", "100,400,1600",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "n_per_time,lambda_min_hz,lambda_min_grw,best_time_s"
        lam = [float(v) for v in csv_column(out, "lambda_min_hz")]
        assert all(a >= b for a, b in zip(lam, lam[1:]))
        assert abs(lam[1] / lam[0] - 0.5) < 0.02
        grw = [float(v) for v in csv_column(out, "lambda_min_grw")]
        assert grw[0] == lam[0] / 1e-16

    def test_bound_oracle_check_passes_quietly(self, capsys):
        code, out, err = run_cli(
            capsys,
            "bound",
            "--preset", "space",
            "--campaign.time_grid_s", "1,10,100",
            "--bound.n_sweep", "200",
            "--oracle-check",
            "--oracle-seeds", "40",
        )
        assert code == 0
        assert out.startswith("n_per_time,")
        assert "oracle check failed" not in err

    def test_feasibility_report(self, capsys):
        code, out, _ = run_cli(
            capsys, "feasibility", "--campaign.time_grid_s", "0,10,100"
        )
        assert code == 0
        assert "drop_m=490.5" in out
        assert "drop_m=49050.0" in out
        assert "fits=no" in out

    def test_config_file_and_flag_priority(self, capsys, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("csl.lambda_hz = 1e-15\nenvironment.preset = space\n")
        code, out, _ = run_cli(
            capsys,
            "rates", "--config", str(path), "--csl.lambda_hz", "0",
        )
        assert code == 0
        rows = dict(line.split(",") for line in out.strip().splitlines()[1:])
        assert float(rows["csl"]) == 0.0  # flag beat the file

    def test_config_via_environment_variable(self, capsys, tmp_path, monkeypatch):
        path = tmp_path / "env.cfg"
        path.write_text("environment.preset = space\n")
        monkeypatch.setenv("WAXSIM_CONFIG", str(path))
        code, out, _ = run_cli(capsys, "rates", "--print-config")
        assert code == 0
        assert "environment.preset = space" in out

    def test_print_config_round_trips(self, capsys):
        code, out, _ = run_cli(
            capsys, "rates", "--preset", "space", "--csl.lambda", "2e-14",
            "--print-config",
        )
        assert code == 0
        reparsed = load_config(out)
        assert reparsed.get("csl.lambda_hz") == 2e-14
        assert reparsed.get("environment.temperature_k") == 35.0
        assert reparsed.canonical_text() == out

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "rates.csv"
        code, out, _ = run_cli(capsys, "rates", "-o", str(target))
        assert code == 0
        assert out == ""
        assert target.read_text().startswith("channel,lambda_m2s")

    def test_unknown_flag_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["rates", "--bogus.key", "1"])
        assert exc.value.code == 2

    def test_numerical_failure_exits_3(self, capsys, monkeypatch):
        def boom(config, args):
            raise NumericalError("integration diverged")

        monkeypatch.setitem(cli._COMMANDS, "rates", boom)
        code, out, err = run_cli(capsys, "rates")
        assert code == 3
        assert "numerical failure" in err

    def test_validity_warning_goes_to_stderr(self, capsys):
        code, out, err = run_cli(
            capsys, "rates", "--particle.radius_m", "1e-5"
        )
        assert code == 0
        assert "warning" in err
        assert out.startswith("channel,")

    @pytest.mark.parametrize("command", ["rates", "expand", "campaign", "bound", "feasibility"])
    @pytest.mark.parametrize("grid", ["", "5,5,10", "10,5", "-1,5"])
    def test_bad_time_grid_exits_2_on_every_command(self, capsys, command, grid):
        code, out, err = run_cli(capsys, command, f"--campaign.time_grid_s={grid}")
        assert code == 2
        assert out == ""
        assert "campaign.time_grid_s" in err

    def test_chi_square_underflowing_z_exits_cleanly(self, capsys):
        code, out, err = run_cli(
            capsys,
            "bound",
            "--detection.aggregation", "chi-square-sum",
            "--detection.confidence_z", "40",
        )
        assert code in (2, 3)
        assert out == ""
        assert "Traceback" not in err
        assert "inf" not in err
        assert len(err.strip().splitlines()) == 1

    def test_campaign_too_large_for_memory_exits_2(self, capsys):
        # 21 x 1e15 doubles exceed any 64-bit address space, so the
        # allocation is refused at once whatever the overcommit policy
        code, out, err = run_cli(
            capsys, "campaign", "--campaign.runs_per_time", str(10**15)
        )
        assert code == 2
        assert out == ""
        assert "memory" in err
        assert len(err.strip().splitlines()) == 1

    def test_budget_warnings_on_every_model_command(self, capsys):
        big = ("--particle.radius_m", "5e-5")
        _, _, expand_err = run_cli(capsys, "expand", *big)
        expected = expand_err.splitlines()
        assert len(expected) == 2
        for argv in (
            ("campaign", "--campaign.runs_per_time", "10"),
            ("campaign", "--campaign.runs_per_time", "10", "--dump-samples"),
            ("bound",),
            ("rates",),
        ):
            code, _, err = run_cli(capsys, *argv, *big)
            assert code == 0
            assert err.splitlines() == expected

    def test_default_config_fires_no_budget_warning(self, capsys):
        for command in ("campaign", "bound"):
            code, _, err = run_cli(capsys, command, "--campaign.runs_per_time", "10")
            assert code == 0
            assert err == ""


class TestDashValues:
    @pytest.mark.parametrize(
        "key, value, reason",
        [
            ("--csl.lambda_hz", "-1e-9", "collapse_rate must be >= 0, got -1e-09"),
            ("--campaign.time_grid_s", "-1,5", "campaign.time_grid_s:"),
        ],
    )
    def test_spaced_and_joined_spellings_agree(self, capsys, key, value, reason):
        spaced = run_cli(capsys, "bound", key, value)
        joined = run_cli(capsys, "bound", f"{key}={value}")
        assert spaced == joined
        code, out, err = spaced
        assert code == 2
        assert out == ""
        assert len(err.strip().splitlines()) == 1
        assert reason in err

    def test_missing_value_before_an_option_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["bound", "--csl.lambda_hz", "--csl"])
        assert exc.value.code == 2


class TestBoundCommand:
    @pytest.mark.parametrize("seeds", ["0", "-3"])
    def test_oracle_seeds_below_one_exits_2(self, capsys, seeds):
        code, out, err = run_cli(capsys, "bound", "--oracle-check", "--oracle-seeds", seeds)
        assert code == 2
        assert out == ""
        assert len(err.strip().splitlines()) == 1
        assert "--oracle-seeds" in err
