"""Config parsing, canonical echo, CLI subcommands and exit codes."""
import argparse
import errno
import hashlib
import os
import re
import signal
import subprocess
import sys
import threading
import tracemalloc

import numpy as np
import pytest

import waxsim.cli as cli
from waxsim import dynamics, inference, protocol
from waxsim.config import SCHEMA, ConfigBuilder, load_config
from waxsim.errors import ConfigError, DomainError, NumericalError
from waxsim.dynamics import Scenario
from waxsim.protocol import CampaignConfig, run_campaign

SRC = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def waxsim_env():
    """The environment, with this checkout's package first on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    return env


def waxsim_process(*argv, stdout=subprocess.PIPE):
    """Start ``python -m waxsim argv`` with stderr (and by default stdout) piped."""
    return subprocess.Popen(
        [sys.executable, "-m", "waxsim", *argv],
        env=waxsim_env(),
        stdout=stdout,
        stderr=subprocess.PIPE,
    )


# sets the instrument terms of the variance model, which the default leaves
# at 0, and the other aggregation
NOISY_CONFIG = (
    "campaign.measurement_noise_m = 1e-3\n"
    "campaign.drift_velocity_std_m_s = 1e-4\n"
    "trap.occupancy = 5\n"
    "detection.aggregation = chi-square-sum\n"
)


def simd_features():
    """The AVX-512 feature groups that numpy dispatches to on this CPU."""
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    except ImportError:  # numpy < 2
        from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    return [
        name for name in ("X86_V4", "AVX512_ICL", "AVX512_SPR")
        if name in __cpu_dispatch__ and __cpu_features__.get(name)
    ]


def csv_column(text, name):
    lines = text.strip().splitlines()
    idx = lines[0].split(",").index(name)
    return [row.split(",")[idx] for row in lines[1:]]


class TestConfigParsing:
    def test_defaults_build_domain_objects(self):
        cfg = load_config()
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
            environment.gas_pressure_pa = 0
            """
        )
        assert cfg.get("particle.radius_m") == 60e-9
        assert cfg.get("csl.lambda_hz") == 1e-13
        assert cfg.environment().gas_pressure == 0.0

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
            load_config("toggles.blackbody = maybe\n")

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
        with pytest.raises(DomainError, match="space preset"):
            load_config(
                "environment.preset = space\nenvironment.temperature_k = 300.0\n"
            )

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


class TestGridRange:
    """A ``start:stop:count`` range that overflows, or whose count does not
    fit in memory, fails as the exit contract says."""

    def test_overflowing_span_is_a_numerical_failure(self, capsys):
        code, out, err = run_cli(capsys, "expand", "--campaign.time_grid_s=-1e308:1e308:3")
        assert code == 3
        assert out == ""
        assert err == (
            "waxsim: numerical failure: FloatingPointError: overflow encountered in subtract\n"
        )

    @pytest.mark.parametrize("command", ["rates", "expand"])
    def test_huge_count_is_too_large_for_memory(self, capsys, command):
        # 8e18 bytes of float64 exceed any address space: refused before
        # anything is allocated
        code, out, err = run_cli(capsys, command, "--campaign.time_grid_s=0:1:1000000000000000000")
        assert code == 2
        assert out == ""
        assert err.startswith("waxsim: error: campaign.time_grid_s: a range of ")
        assert err.endswith(" GB of physical memory\n") and len(err.splitlines()) == 1

    def test_count_beyond_physical_memory_is_refused(self, monkeypatch):
        # 40 bytes a time: the doubles and the tuple of floats of 10 times
        # fit in 400 bytes, those of 11 do not
        monkeypatch.setattr(dynamics, "_physical_memory", lambda: 400)
        config = load_config(overrides=[("campaign.time_grid_s", "0:1:10")])
        assert len(config.get("campaign.time_grid_s")) == 10
        with pytest.raises(ConfigError, match=r"^campaign\.time_grid_s: a range of 11 times "):
            load_config(overrides=[("campaign.time_grid_s", "0:1:11")])


class TestCli:
    def test_rates_space_with_zero_csl(self, capsys):
        code, out, _ = run_cli(
            capsys, "rates", "--environment.preset", "space", "--csl.lambda_hz", "0"
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "channel,lambda_m2s"
        rows = dict(line.split(",") for line in lines[1:])
        assert float(rows["csl"]) == 0.0
        assert float(rows["total"]) > 0.0

    def test_rates_ground_no_gas(self, capsys):
        code, out, _ = run_cli(
            capsys, "rates", "--environment.preset", "ground", "--environment.gas_pressure_pa", "0"
        )
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

    # one key of each parser kind but str, each with a value it cannot parse
    @pytest.mark.parametrize("form", ["flag", "file"])
    @pytest.mark.parametrize(
        "key, raw, message",
        [
            ("campaign.seed", "abc", "not an integer: 'abc'"),
            ("particle.radius_m", "tiny", "not a number: 'tiny'"),
            ("toggles.blackbody", "maybe", "not a boolean: 'maybe'"),
            ("bound.n_sweep", "100,x", "not an integer: 'x'"),
            ("campaign.time_grid_s", "0,y", "not a number: 'y'"),
        ],
    )
    def test_parse_error_names_its_key(self, capsys, tmp_path, form, key, raw, message):
        if form == "flag":
            argv, where = [f"--{key}", raw], ""
        else:
            bad = tmp_path / "bad.cfg"
            bad.write_text(f"{key} = {raw}\n")
            argv, where = ["--config", str(bad)], f"{bad}:1: "
        code, out, err = run_cli(capsys, "rates", *argv)
        assert (code, out) == (2, "")
        assert err == f"waxsim: error: {where}{key}: {message}\n"

    def test_expand_default_is_monotone(self, capsys):
        code, out, _ = run_cli(capsys, "expand")
        assert code == 0
        sigma = [float(v) for v in csv_column(out, "sigma_m")]
        assert sigma == sorted(sigma)

    def test_expand_csl_dominates_bare_curve(self, capsys):
        no_channels = ("--environment.gas_pressure_pa", "0", "--toggles.blackbody", "false")
        _, bare, _ = run_cli(capsys, "expand", *no_channels, "--csl.lambda_hz", "0")
        _, csl, _ = run_cli(capsys, "expand", *no_channels, "--csl.lambda_hz", "1e-13")
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
            "--environment.preset", "space",
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
            "--environment.preset", "space",
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

    @pytest.mark.parametrize(
        "make, reason",
        [
            (lambda path: None, f"[Errno {errno.ENOENT}] {os.strerror(errno.ENOENT)}: '{{path}}'"),
            (os.mkdir, f"[Errno {errno.EISDIR}] {os.strerror(errno.EISDIR)}: '{{path}}'"),
            (
                lambda path: path.write_bytes(b"campaign.seed = 3\n\xff\n"),
                "'utf-8' codec can't decode byte 0xff in position 18: invalid start byte",
            ),
        ],
        ids=["missing", "directory", "not-utf-8"],
    )
    @pytest.mark.parametrize("named_by", ["--config", "WAXSIM_CONFIG"])
    def test_unreadable_config_file_exits_2(
        self, capsys, tmp_path, monkeypatch, make, reason, named_by
    ):
        path = tmp_path / "run.cfg"
        make(path)
        if named_by == "WAXSIM_CONFIG":
            monkeypatch.setenv("WAXSIM_CONFIG", str(path))
            argv = ["rates"]
        else:
            argv = ["rates", "--config", str(path)]
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        reason = reason.format(path=path)
        assert err == f"waxsim: error: cannot read config file {path}: {reason}\n"

    def test_print_config_round_trips(self, capsys):
        code, out, _ = run_cli(
            capsys, "rates", "--environment.preset", "space", "--csl.lambda_hz", "2e-14",
            "--print-config",
        )
        assert code == 0
        reparsed = load_config(out)
        assert reparsed.get("csl.lambda_hz") == 2e-14
        assert reparsed.get("environment.temperature_k") == 35.0
        assert reparsed.canonical_text() == out

    def test_print_config_reparses_to_an_equal_config(self, capsys, tmp_path):
        path = tmp_path / "noisy.cfg"
        path.write_text(NOISY_CONFIG)
        cases = (([], load_config()), (["--config", str(path)], load_config(NOISY_CONFIG)))
        for extra, expected in cases:
            code, out, _ = run_cli(capsys, "bound", "--print-config", *extra)
            assert code == 0
            assert load_config(out) == expected
            assert "optical_permittivity" not in out
            assert "toggles.csl" not in out
            assert "toggles.gas" not in out

    @pytest.mark.parametrize(
        "key, raw",
        [
            ("particle.optical_permittivity_re", "2.1"),
            ("particle.optical_permittivity_im", "2.1"),
            ("toggles.csl", "false"),
            ("toggles.gas", "false"),
        ],
    )
    def test_removed_key_in_config_file_exits_2(self, capsys, tmp_path, key, raw):
        path = tmp_path / "old.cfg"
        path.write_text(f"{key} = {raw}\n")
        code, out, err = run_cli(capsys, "rates", "--config", str(path))
        assert (code, out, err) == (2, "", f"waxsim: error: {path}:1: unknown config key '{key}'\n")

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

    @pytest.mark.parametrize(
        "grid, code, line",
        [
            ("1e-100", 3, "waxsim: numerical failure: collapse-rate sensitivity underflows "
             "to 0 at every grid time (largest time 1e-100 s)"),
            ("0", 2, "waxsim: error: no sensitivity to the collapse rate: "
             "grid has no positive times"),
        ],
    )
    def test_bound_without_sensitivity_names_the_cause(self, capsys, grid, code, line):
        assert run_cli(capsys, "bound", f"--campaign.time_grid_s={grid}") == (code, "", line + "\n")

    @pytest.mark.parametrize(
        "argv, reason",
        [
            (("rates", "--particle.radius_m", "1e300"),
             "particle mass overflows at radius 1e+300 m, density 2200.0 kg/m^3"),
            (("expand", "--particle.radius_m", "1e300"),
             "particle mass overflows at radius 1e+300 m, density 2200.0 kg/m^3"),
            (("feasibility", "--campaign.time_grid_s", "1e200"),
             "drop distance at t = 1e+200 s is inf"),
            *[
                ((*command, key, "1e160"), reason)
                for command in [("campaign",), ("campaign", "--dump-samples"), ("bound",),
                                ("bound", "--oracle-check", "--oracle-seeds", "2")]
                for key, reason in [
                    ("--campaign.measurement_noise_m", "measurement noise variance overflows "
                     "double precision at measurement_noise = 1e+160 m"),
                    # (drift t)^2 at the first positive grid time
                    ("--campaign.drift_velocity_std_m_s",
                     "sample variance overflows double precision at t = 5.0 s"),
                ]
            ],
            # the noise's square is finite; the tile's squared deviations are not
            *[
                ((*command, "--campaign.measurement_noise_m", "1e154"),
                 "sample variance overflows double precision at t = 0.0 s")
                for command in [("campaign",), ("campaign", "--workers", "2")]
            ],
            # the t**3 of the collapse-rate sensitivity, before any variance
            *[
                ((*command, "--campaign.time_grid_s", grid),
                 f"collapse-rate sensitivity overflows double precision at t = {t} s")
                for command in [("bound",), ("bound", "--oracle-check", "--oracle-seeds", "2")]
                for grid, t in [("1e200", "1e+200"), ("1e103", "1e+103")]
            ],
            (("rates", "--particle.radius_m", "1e-120"),
             "particle mass underflows at radius 1e-120 m, density 2200.0 kg/m^3"),
            (("rates", "--particle.density_kg_m3", "1e-320"),
             "particle mass underflows at radius 1.2e-07 m, density 1e-320 kg/m^3"),
            # a float ** raises OverflowError in the thermal-photon rates
            (("rates", "--particle.internal_temperature_k", "1e150"),
             "blackbody emission rate overflows double precision at radius 1.2e-07 m, "
             "internal temperature 1e+150 K"),
            (("rates", "--environment.preset", "custom", "--environment.temperature_k", "1e150"),
             "blackbody scattering rate overflows double precision at radius 1.2e-07 m, "
             "environment temperature 1e+150 K"),
            (("rates", "--particle.radius_m", "1e100", "--particle.density_kg_m3", "1e-300"),
             "blackbody scattering rate overflows double precision at radius 1e+100 m, "
             "environment temperature 300.0 K"),
            # each (sens / se)^2 underflows, so the pooled sum is 0 at the first N
            (("bound", "--detection.aggregation", "chi-square-sum",
              "--campaign.measurement_noise_m", "1e150"),
             "pooled collapse-rate sensitivity sum((sens / se)^2) underflows to 0 at N = 100"),
        ],
    )
    def test_overflow_names_the_quantity_and_input(self, capsys, argv, reason):
        assert run_cli(capsys, *argv) == (3, "", f"waxsim: numerical failure: {reason}\n")

    @pytest.mark.parametrize("command", ["rates", "expand", "campaign", "bound", "feasibility"])
    @pytest.mark.parametrize(
        "key, value, reason",
        [
            ("trap.occupancy", "1e308", "x_var = inf is not finite and > 0 at angular trap "
             "frequency 628318.5307179586 rad/s, occupancy 1e+308"),
            # 2 pi times the frequency is inf
            ("trap.frequency_hz", "1e308", "angular frequency overflows at frequency 1e+308 Hz"),
            ("trap.frequency_hz", "1e-300", "p_var = 0.0 is not finite and > 0 at angular "
             "trap frequency 6.283185307179586e-300 rad/s, occupancy 0.0"),
        ],
        ids=["occupancy", "high-frequency", "low-frequency"],
    )
    def test_trap_state_out_of_range_names_its_inputs(self, capsys, command, key, value, reason):
        line = f"waxsim: numerical failure: trap state {reason}\n"
        assert run_cli(capsys, command, f"--{key}", value) == (3, "", line)

    @pytest.mark.parametrize(
        "argv, reason",
        [
            # the variance model divides by mass^2
            *[
                ((command, "--particle.density_kg_m3", "1e-150"),
                 "particle mass squared underflows to 0 at mass 7.238229473870881e-171 kg")
                for command in ("expand", "campaign", "bound")
            ],
            # the gas de Broglie wavelength divides by the mean molecular momentum
            *[
                ((command, "--environment.gas_pressure_pa", "1",
                  "--environment.gas_temperature_k", "5e-324"),
                 "gas molecular momentum underflows to 0 at gas temperature 5e-324 K, "
                 "molecule mass 4.8105816759402e-26 kg")
                for command in ("rates", "expand")
            ],
        ],
    )
    def test_underflowing_divisor_names_the_quantity_and_input(self, capsys, argv, reason):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out, err) == (3, "", f"waxsim: numerical failure: {reason}\n")
        assert not re.search(r"\b[A-Z]\w*(Error|Exception)\b", err)

    @pytest.mark.parametrize("command", ["rates", "expand", "campaign", "bound", "feasibility"])
    @pytest.mark.parametrize("grid", ["", "5,5,10", "10,5", "-1,5"])
    def test_bad_time_grid_exits_2_on_every_command(self, capsys, command, grid):
        code, out, err = run_cli(capsys, command, f"--campaign.time_grid_s={grid}")
        assert code == 2
        assert out == ""
        assert "campaign.time_grid_s" in err

    @pytest.mark.parametrize(
        "argv",
        [("rates",), ("expand",), ("campaign",), ("bound",),
         ("bound", "--oracle-check", "--oracle-seeds", "2"), ("feasibility",)],
    )
    @pytest.mark.parametrize(
        "key, line",
        [
            ("campaign.measurement_noise_m", "waxsim: error: measurement_noise must be >= 0\n"),
            ("campaign.drift_velocity_std_m_s", "waxsim: error: drift_velocity_std must be >= 0\n"),
        ],
    )
    def test_negative_noise_exits_2_on_every_command(self, capsys, argv, key, line):
        code, out, err = run_cli(capsys, *argv, f"--{key}=-1e-3", "--bound.n_sweep", "100")
        assert (code, out, err) == (2, "", line)

    @pytest.mark.parametrize("command", ["rates", "expand", "campaign", "bound", "feasibility"])
    def test_negative_occupancy_exits_2_on_every_command(self, capsys, command):
        code, out, err = run_cli(capsys, command, "--trap.occupancy=-1")
        assert (code, out, err) == (2, "", "waxsim: error: occupancy must be >= 0, got -1.0\n")

    @pytest.mark.parametrize("command", ["rates", "expand", "campaign", "bound", "feasibility"])
    def test_negative_drop_height_exits_2_on_every_command(self, capsys, command):
        code, out, err = run_cli(capsys, command, "--feasibility.drop_height_m=-1")
        line = "waxsim: error: feasibility.drop_height_m must be >= 0, got -1.0\n"
        assert (code, out, err) == (2, "", line)

    # feasibility and --print-config read no gas rate, but the environment
    # that every command builds carries the rule
    @pytest.mark.parametrize(
        "argv",
        [("rates",), ("expand",), ("campaign",), ("bound",), ("feasibility",),
         ("rates", "--print-config")],
        ids=["rates", "expand", "campaign", "bound", "feasibility", "print-config"],
    )
    def test_zero_gas_temperature_at_pressure_exits_2_on_every_command(self, capsys, argv):
        code, out, err = run_cli(
            capsys, *argv, "--environment.preset", "custom", "--environment.gas_temperature_k", "0"
        )
        line = "waxsim: error: gas_temperature must be > 0 at nonzero pressure\n"
        assert (code, out, err) == (2, "", line)

    def test_zero_drop_height_is_a_height(self, capsys):
        code, out, err = run_cli(capsys, "feasibility", "--feasibility.drop_height_m=0")
        assert (code, err) == (0, "")
        assert out.startswith("platform drop-tower: drop height 0.0 m\n")

    @pytest.mark.parametrize("command", ["rates", "expand", "campaign", "bound", "feasibility"])
    @pytest.mark.parametrize(
        "flag, reason",
        [
            ("--detection.confidence_z=-1", "confidence_z must be > 0"),
            ("--campaign.runs_per_time=1", "runs_per_time must be >= 2, got 1"),
            ("--bound.n_sweep=1", "n_per_time must be >= 2, got 1"),
            ("--bound.n_sweep=", "bound.n_sweep must be non-empty"),
            ("--trap.frequency_hz=-1", "trap_frequency must be > 0, got -6.283185307179586"),
            ("--particle.radius_m=-1", "radius must be > 0, got -1.0"),
            ("--environment.temperature_k=-1", "temperature must be >= 0, got -1.0"),
            ("--csl.correlation_length_m=-1", "correlation_length must be > 0, got -1.0"),
            ("--campaign.seed=-1", "rng_seed must be >= 0, got -1"),
        ],
    )
    def test_every_command_validates_the_whole_config(self, capsys, command, flag, reason):
        # each key used to be rejected only by the commands whose models read it
        code, out, err = run_cli(capsys, command, flag)
        assert (code, out, err) == (2, "", f"waxsim: error: {reason}\n")

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

    @pytest.mark.parametrize("grid, fires", [("0,5", True), ("0", False)])
    def test_collapse_validity_on_expand_and_campaign(self, capsys, grid, fires):
        # at t = 0 the model width is 2e-12 m, far below a/3, while the 1 mm
        # readout noise puts every drawn width above it: the flag judges the
        # model widths that expand prints
        collapse = ("--csl.lambda_hz", "1e-6", "--campaign.time_grid_s", grid)
        _, _, expand_err = run_cli(capsys, "expand", *collapse)
        expected = expand_err.splitlines()
        assert expected == (
            ["waxsim: warning: collapse localization outside quadratic validity: "
             "sigma exceeds a/3, reported widths are conservative"] if fires else []
        )
        for argv in (
            ("campaign", "--campaign.runs_per_time", "10"),
            ("campaign", "--campaign.runs_per_time", "10", "--dump-samples"),
        ):
            code, _, err = run_cli(
                capsys, *argv, *collapse, "--campaign.measurement_noise_m", "1e-3"
            )
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

    def test_oracle_rates_beyond_physical_memory_exit_2(self, capsys, monkeypatch):
        # 100000 seeds x 4 N of float64 rates take 3.2 MB: refused before
        # any campaign runs
        calls = []
        monkeypatch.setattr(inference, "run_campaign", lambda *args, **kwargs: calls.append(args))
        monkeypatch.setattr(dynamics, "_physical_memory", lambda: 10**6)
        code, out, err = run_cli(capsys, "bound", "--oracle-check", "--oracle-seeds", "100000")
        assert (code, out, calls) == (2, "", [])
        assert err.startswith("waxsim: error: oracle rates (100000 seeds x 4 N) ")
        assert len(err.splitlines()) == 1

    def test_more_oracle_seeds_than_an_index_exit_2(self, capsys):
        code, out, err = run_cli(capsys, "bound", "--oracle-check", "--oracle-seeds", str(2**63))
        assert (code, out) == (2, "")
        assert err.startswith("waxsim: error: too many oracle seeds: ")
        assert len(err.splitlines()) == 1

    def test_oracle_mismatch_warns_once_per_n(self, capsys, monkeypatch):
        # an oracle at 10 times each closed form: the CSV is unchanged and
        # every row of the sweep warns
        closed = []
        real = inference._closed_forms

        def recording(*args, **kwargs):
            results = real(*args, **kwargs)
            closed.extend(result.lambda_min for result in results)
            return results

        monkeypatch.setattr(inference, "_closed_forms", recording)
        monkeypatch.setattr(
            inference, "bisect_lambda_mc_sweep", lambda *args, **kwargs: [10 * c for c in closed]
        )
        code, out, err = run_cli(capsys, "bound", "--oracle-check")
        assert code == 0
        digest = hashlib.sha256(out.encode()).hexdigest()
        assert digest == TestCommandBytes.PINNED["default", "bound"][0]
        n_sweep = load_config().get("bound.n_sweep")
        assert err.splitlines() == [
            f"waxsim: warning: oracle check failed at N={n}: closed form "
            f"{c:.3e} Hz vs Monte-Carlo {10 * c:.3e} Hz"
            for n, c in zip(n_sweep, closed)
        ]

    @pytest.mark.parametrize(
        "flag", ["--detection.confidence_z=1e300", "--campaign.measurement_noise_m=1e150"]
    )
    def test_rate_overflowing_in_grw_units_exits_3(self, capsys, flag):
        # lambda_min is finite in Hz; only lambda_min / 1e-16 overflows
        code, out, err = run_cli(capsys, "bound", flag)
        assert (code, out) == (3, "")
        assert err.startswith("waxsim: numerical failure: lambda_min = ")
        assert err.endswith(" Hz overflows in GRW units (lambda_min / 1e-16)\n")
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize(
        "argv, setups",
        [
            ((), 1),
            (("--oracle-check", "--oracle-seeds", "2"), 2),
            (("--oracle-check", "--oracle-seeds", "2", "--detection.aggregation",
              "chi-square-sum"), 2),
        ],
    )
    def test_one_detection_setup_for_the_closed_forms(self, capsys, monkeypatch, argv, setups):
        # one for every closed form of the sweep, and one for the oracle's
        calls = []
        real = inference._detection_setup

        def counting(n_sweep, *args):
            calls.append(tuple(n_sweep))
            return real(n_sweep, *args)

        monkeypatch.setattr(inference, "_detection_setup", counting)
        assert run_cli(capsys, "bound", *argv)[0] == 0
        assert calls == [tuple(load_config().get("bound.n_sweep"))] * setups

    def test_oracle_seeds_help_shows_its_default(self):
        parser = cli._build_parser()
        commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        bound = commands.choices["bound"]
        shown = " ".join(bound.format_help().split())  # unwrapped
        assert "--oracle-seeds N campaigns the Monte-Carlo oracle simulates (default 64)" in shown
        assert bound.parse_args([]).oracle_seeds == 64


class TestCollapseRateZero:
    """Rate 0 switches the collapse channel off: its geometry is never evaluated."""

    # a correlation length or reference mass whose geometry divides by zero
    # or overflows at any nonzero rate
    GEOMETRY = [
        ("--csl.correlation_length_m", "1e-300"),
        ("--csl.correlation_length_m", "1e300"),
        ("--csl.reference_mass_kg", "1e-300"),
    ]

    @pytest.mark.parametrize("geometry", GEOMETRY)
    @pytest.mark.parametrize(
        "command", [("rates",), ("expand",), ("campaign",), ("campaign", "--dump-samples")]
    )
    def test_unused_geometry_runs(self, capsys, command, geometry):
        code, out, err = run_cli(capsys, *command, *geometry)
        assert (code, err) == (0, "")
        assert "inf" not in out and "nan" not in out
        if command == ("rates",):
            assert "\ncsl,0.0\n" in out

    # the bound prices the collapse rate, so it evaluates the geometry at rate 1
    @pytest.mark.parametrize("geometry", GEOMETRY)
    def test_bound_still_fails_on_the_geometry(self, capsys, geometry):
        code, out, err = run_cli(capsys, "bound", *geometry)
        assert (code, out) == (3, "")
        assert err.startswith("waxsim: numerical failure: ")
        assert len(err.splitlines()) == 1


class TestOptionSpelling:
    def test_abbreviated_option_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["rates", "--csl.lambda_h", "1e-13"])
        assert exc.value.code == 2

    # each is spelt as its config key: --environment.preset,
    # --toggles.blackbody and --csl.lambda_hz; gas collisions and the
    # collapse channel have no toggle of their own, they are off at
    # --environment.gas_pressure_pa 0 and --csl.lambda_hz 0
    @pytest.mark.parametrize(
        "argv",
        [
            ("rates", "--preset", "space"),
            ("rates", "--toggles", "none"),
            ("rates", "--no-gas"),
            ("rates", "--no-blackbody"),
            ("rates", "--csl"),
            ("rates", "--csl.lambda", "1e-13"),
            ("rates", "--toggles.csl", "false"),
            ("rates", "--toggles.gas", "false"),
            ("expand", "--csl.lambda", "1e-13"),
        ],
    )
    def test_removed_spelling_is_a_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            cli.main(list(argv))
        assert exc.value.code == 2
        assert argv[1] in capsys.readouterr().err


class TestHelpDefaults:
    @staticmethod
    def shown_default(key):
        """The default that ``--help`` shows for ``--key``, as text."""
        parser = cli._build_parser()
        commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        for action in commands.choices["rates"]._actions:
            if action.option_strings == [f"--{key}"]:
                return re.fullmatch(r".*\(default (.*)\)", action.help).group(1)
        raise AssertionError(f"no --{key} option")

    # pasting the shown default back as the flag's value gives the default config
    @pytest.mark.parametrize("key", sorted(SCHEMA))
    def test_shown_default_reparses(self, key):
        shown = self.shown_default(key)
        assert "%" not in shown  # argparse would read it as a format
        assert load_config(overrides=[(key, shown)]) == load_config()


class TestWorkers:
    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_workers_below_one_exits_2(self, capsys, workers):
        code, out, err = run_cli(capsys, "campaign", "--workers", workers)
        assert code == 2
        assert out == ""
        assert len(err.strip().splitlines()) == 1
        assert "--workers" in err

    def test_refused_thread_exits_2(self, capsys, monkeypatch):
        def refuse(thread):
            raise RuntimeError("can't start new thread")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        code, out, err = run_cli(capsys, "campaign", "--workers", "2")
        assert (code, out) == (2, "")
        assert err == "waxsim: error: cannot start 2 sampling threads: can't start new thread\n"

    @pytest.mark.parametrize("command", ["rates", "expand", "bound", "feasibility"])
    def test_commands_without_workers_reject_it(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            cli.main([command, "--workers", "2"])
        assert exc.value.code == 2
        assert "--workers" in capsys.readouterr().err


class TestParserReuse:
    """Every ``cli.main`` call of a process parses with one parser; each call
    prints what it prints as the first call of a fresh process."""

    ORACLE = ("bound", "--oracle-check")
    DUMP = ("campaign", "--dump-samples", "--campaign.runs_per_time", "50")
    # (first call, second call); each first call sets what a later call must not see
    SEQUENCES = {
        "oracle seeds": ((*ORACLE, "--oracle-seeds", "8"), ORACLE),
        "dump": (DUMP, ("campaign",)),
        "usage error": (("rates", "--csl.lambda_h", "1e-13"), ("rates",)),
        "config error": (("bound", "--oracle-check", "--oracle-seeds", "0"), ("bound",)),
        "help": (("bound", "--help"), ("--help",)),
    }

    @staticmethod
    def in_process(capsys, argv):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:  # a usage error or --help
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out.encode(), captured.err.encode()

    @pytest.fixture
    def fixed_width(self, monkeypatch):
        # help and usage text wrap at the terminal width, which a pipe takes
        # from COLUMNS, in this process and in the fresh ones
        monkeypatch.setenv("COLUMNS", "80")

    def test_the_parser_is_built_once(self):
        assert cli._build_parser() is cli._build_parser()

    def test_parsing_leaves_the_defaults(self):
        parser = cli._build_parser()
        parser.parse_args(["bound", "--oracle-check", "--oracle-seeds", "8"])
        parser.parse_args(
            ["campaign", "--dump-samples", "--environment.preset", "ground", "--workers", "2"]
        )
        args = parser.parse_args(["bound"])
        assert (args.oracle_seeds, args.oracle_check) == (64, False)
        assert args.environment__preset is None
        args = parser.parse_args(["campaign"])
        assert (args.dump_samples, args.workers) == (False, None)

    @pytest.mark.parametrize("name", sorted(SEQUENCES))
    def test_each_call_prints_a_fresh_process_bytes(self, capsys, fixed_width, name):
        sequence = self.SEQUENCES[name]
        # the fresh processes run side by side, while this process runs the calls
        fresh = [waxsim_process(*argv) for argv in sequence]
        reused = [self.in_process(capsys, argv) for argv in sequence]
        for proc in fresh:
            out, err = proc.communicate(timeout=120)
            assert reused.pop(0) == (proc.returncode, out, err)


class TestCommandBytes:
    """SHA-256 of the stdout and stderr of the model commands, pinned before
    the variance model and the detection set-up were each merged into one.
    The stderr of the default ``oracle`` was pinned again, empty, when the
    best-time oracle came to test only the pre-registered time.

    Only the noisy config sees the drift, readout and occupancy terms; its
    ``campaign`` rows at t = 0, where readout noise dominates, move with a
    few-ulp change of the variance. The ``thirds`` grid has non-integer
    times, whose cubes round.
    """

    COMMANDS = {
        "campaign": ("campaign",),
        "rates": ("rates",),
        "expand": ("expand",),
        "bound": ("bound",),
        "oracle": ("bound", "--oracle-check", "--oracle-seeds", "16"),
        "feasibility": ("feasibility",),
    }
    EMPTY = hashlib.sha256(b"").hexdigest()
    THIRDS = ("--campaign.time_grid_s", "0:20:7")
    PINNED = {
        ("default", "campaign"): ("d68129a7a8776134bacd8b6bcb7e9cb3bddd656a1b25999599dffda191e87a4d", EMPTY),
        ("default", "rates"): ("3c51310a8400525f3c62b911af394f40dfb0a14006b203ca4c413963afca9022", EMPTY),
        ("default", "expand"): ("cf2d0181f7e6fb36344ab82507b85062727758edcb56e6a43c5e4261f767d1d6", EMPTY),
        ("default", "bound"): ("19d7500c4cf7d782ec53e8100645d457496bdbf81dabe2de91324d40fd0ab435", EMPTY),
        ("default", "oracle"): ("19d7500c4cf7d782ec53e8100645d457496bdbf81dabe2de91324d40fd0ab435", EMPTY),
        ("default", "feasibility"): ("b21582798091f843a41037b624d74e93424e1f3f740202baff9a658e7edfc2fe", EMPTY),
        ("noisy", "campaign"): ("e0366f69326bf056e61bf5cc1bb6922277473e36ce6767aab380ec01f9baf6ca", EMPTY),
        ("noisy", "rates"): ("3c51310a8400525f3c62b911af394f40dfb0a14006b203ca4c413963afca9022", EMPTY),
        ("noisy", "expand"): ("ee8eab8d69c27963ac76111d6b70596ad0cbb0c69d954ddb83b3139b235a61d1", EMPTY),
        ("noisy", "bound"): ("6ffa51073c6b006eda9ff5b1bf61af94c1157a2f75d252c81d1bf82475d91973", EMPTY),
        ("noisy", "oracle"): ("6ffa51073c6b006eda9ff5b1bf61af94c1157a2f75d252c81d1bf82475d91973", EMPTY),
        ("noisy", "feasibility"): ("b21582798091f843a41037b624d74e93424e1f3f740202baff9a658e7edfc2fe", EMPTY),
        ("thirds", "expand"): ("15b4d520fa0f45d286ae7cd755c832e2bd9284053dbb817627db7ae21f22a4b2", EMPTY),
        ("thirds", "bound"): ("e1ac62848d53e1e0fc503cecb1a1faf93bacef69b9ed662a5a53cefc54239631", EMPTY),
    }

    @pytest.mark.parametrize("config, command", sorted(PINNED))
    def test_pinned_digest(self, capsys, tmp_path, config, command):
        extra = list(self.THIRDS) if config == "thirds" else []
        if config == "noisy":
            path = tmp_path / "noisy.cfg"
            path.write_text(NOISY_CONFIG)
            extra = ["--config", str(path)]
        code, out, err = run_cli(capsys, *self.COMMANDS[command], *extra)
        assert code == 0
        digests = tuple(hashlib.sha256(text.encode()).hexdigest() for text in (out, err))
        assert digests == self.PINNED[config, command]

    @pytest.mark.skipif(
        "AVX512_ICL" not in simd_features(), reason="numpy dispatches no AVX512_ICL here"
    )
    @pytest.mark.parametrize("command", ["expand", "bound"])
    def test_bytes_do_not_depend_on_simd_features(self, command):
        # numpy's AVX-512 array power once rounded t**3 on this grid
        # differently from its other code paths
        outputs = set()
        for disabled in ("", " ".join(simd_features())):
            env = dict(waxsim_env(), NPY_DISABLE_CPU_FEATURES=disabled)
            proc = subprocess.run(
                [sys.executable, "-m", "waxsim", command, *self.THIRDS],
                env=env, capture_output=True, timeout=60,
            )
            assert (proc.returncode, proc.stderr) == (0, b"")
            outputs.add(proc.stdout)
        assert len(outputs) == 1


class TestCampaignBytes:
    """SHA-256 of seeded campaign CSVs, pinned before sampling was tiled.

    N = 2**16 + 3 and 2 * 2**16 + 1 end in ragged tiles of 3 and 1 runs.
    The width digests of rows of more than one tile were pinned again when
    widths came to be merged from tile moments (sigma_hat moved by 1 ulp in
    one row each); the dump digests are the originals.
    """

    BASE = ("campaign", "--campaign.time_grid_s", "0.5,2", "--campaign.seed", "7")
    PINNED = {
        (65539, False): "7f5303590702bcacb12af9ef97cdc5410e0ea959d377b4bc7f2c6429d99986a2",
        (65539, True): "f170cb3d9393af82bea2f36f24c7e2bc054d0dd3e4c91e94dffc2e68b8f6bd02",
        (131073, False): "680fc6b3f8fc4c5ff78a117c871a6bd72ff844968a430b1da2a9939dec4ad707",
        (131073, True): "ab53237dcd6512761e783ee775bc6810f49368e3e18118f81c1ca6a301df449a",
    }

    def digest(self, tmp_path, *extra):
        target = tmp_path / "out.csv"
        assert cli.main([*self.BASE, *extra, "-o", str(target)]) == 0
        return hashlib.sha256(target.read_bytes()).hexdigest()

    @pytest.mark.parametrize("n, dump", sorted(PINNED))
    def test_pinned_digest(self, tmp_path, n, dump):
        extra = ["--campaign.runs_per_time", str(n)] + ["--dump-samples"] * dump
        assert self.digest(tmp_path, *extra) == self.PINNED[n, dump]

    @pytest.mark.parametrize("n, workers", [(65539, "3"), (131073, "2")])
    def test_dump_with_workers_keeps_the_pinned_digest(self, tmp_path, n, workers):
        extra = ["--campaign.runs_per_time", str(n), "--dump-samples", "--workers", workers]
        assert self.digest(tmp_path, *extra) == self.PINNED[n, True]

    def test_thread_count_does_not_change_bytes(self, tmp_path):
        # 2 x (2**19 + 1) draws: above the parallel threshold, 9 tiles per time
        size = ["--campaign.runs_per_time", str(2**19 + 1)]
        digests = {
            self.digest(tmp_path, *size, *workers)
            for workers in ([], ["--workers", "1"], ["--workers", "2"], ["--workers", "3"])
        }
        assert digests == {"359f1e877905a07be41b3d48aa113ea389ee903aa9faf2d448631e8b0eca94c0"}


class TestOutputErrors:
    @pytest.mark.parametrize(
        "argv",
        [("rates",), ("campaign", "--dump-samples", "--campaign.runs_per_time", "10")],
    )
    @pytest.mark.parametrize("target", ["missing-dir/out.csv", "."])
    def test_unwritable_output_exits_2(self, capsys, tmp_path, argv, target):
        path = str(tmp_path / target)
        code, out, err = run_cli(capsys, *argv, "-o", path)
        assert code == 2
        assert out == ""
        assert "Traceback" not in err
        assert len(err.strip().splitlines()) == 1
        assert err.startswith(f"waxsim: error: cannot write output {path}: ")

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_failed_stdout_write_exits_2(self):
        with open("/dev/full", "w") as full:
            proc = waxsim_process("rates", stdout=full)
            _, err = proc.communicate(timeout=60)
        assert proc.returncode == 2
        assert err == b"waxsim: error: cannot write output <stdout>: No space left on device\n"

    def test_closed_stdout_descriptor_exits_2(self):
        proc = subprocess.run(
            ["sh", "-c", 'exec "$0" -m waxsim rates >&-', sys.executable],
            env=waxsim_env(), capture_output=True, timeout=60,
        )
        assert proc.returncode == 2
        assert proc.stderr == b"waxsim: error: cannot write output <stdout>: stdout is closed\n"


class TestStreamedDump:
    def test_closed_stdout_exits_0_quietly(self):
        # 420,001 lines: the writer blocks on the full pipe, then meets EPIPE
        proc = waxsim_process("campaign", "--dump-samples", "--campaign.runs_per_time", "20000")
        assert proc.stdout.readline() == b"t_s,run_index,x_m\n"
        proc.stdout.close()
        _, err = proc.communicate(timeout=120)
        assert proc.returncode == 0
        assert err == b""

    def test_stdout_bytes_equal_output_file_bytes(self, tmp_path):
        argv = [*TestCampaignBytes.BASE, "--dump-samples"]
        argv += ["--campaign.runs_per_time", str(2**16 + 3)]  # ragged last tiles
        target = tmp_path / "out.csv"
        assert cli.main([*argv, "-o", str(target)]) == 0
        proc = waxsim_process(*argv)
        out, err = proc.communicate(timeout=120)
        assert (proc.returncode, err) == (0, b"")
        assert out == target.read_bytes()

    def test_block_buffered_stdout_bytes_equal_output_file_bytes(self):
        # stdout is block-buffered, as on a pipe: the chunks leave it in
        # buffer-sized pieces; the digest is the pinned one
        argv = [*TestCampaignBytes.BASE, "--dump-samples", "--workers", "2"]
        argv += ["--campaign.runs_per_time", str(2**16 + 3)]  # ragged last tiles
        env = waxsim_env()
        env.pop("PYTHONUNBUFFERED", None)
        proc = subprocess.run(
            [sys.executable, "-m", "waxsim", *argv], env=env, capture_output=True, timeout=120
        )
        assert (proc.returncode, proc.stderr) == (0, b"")
        digest = hashlib.sha256(proc.stdout).hexdigest()
        assert digest == TestCampaignBytes.PINNED[2**16 + 3, True]

    def test_dump_forks_nothing(self, tmp_path, monkeypatch):
        # on a host that can start no process, --workers 2 and a default run on
        # 2 CPUs above the parallel threshold still write the pinned bytes
        def refused_fork():
            raise BlockingIOError(11, "Resource temporarily unavailable")

        monkeypatch.setattr(os, "fork", refused_fork)
        campaign = TestCampaignBytes()
        dump = ["--campaign.runs_per_time", str(2**16 + 3), "--dump-samples"]
        pinned = campaign.PINNED[2**16 + 3, True]
        assert campaign.digest(tmp_path, *dump, "--workers", "2") == pinned
        monkeypatch.setattr(protocol, "PARALLEL_MIN_DRAWS", 2)
        monkeypatch.setattr(protocol, "_available_cpus", lambda: 2)
        assert campaign.digest(tmp_path, *dump) == pinned

    @pytest.mark.parametrize("workers", ["1", "2", "3", "16"])
    def test_workers_do_not_change_the_dump(self, tmp_path, monkeypatch, workers):
        # 2 times x 3 tiles of at most 4 runs; the last tile of each row is ragged
        monkeypatch.setattr(protocol, "TILE_RUNS", 4)
        argv = [*TestCampaignBytes.BASE, "--dump-samples", "--campaign.runs_per_time", "10"]
        assert cli.main([*argv, "-o", str(tmp_path / "default.csv")]) == 0
        assert cli.main([*argv, "--workers", workers, "-o", str(tmp_path / "w.csv")]) == 0
        assert (tmp_path / "w.csv").read_bytes() == (tmp_path / "default.csv").read_bytes()

    @pytest.mark.parametrize("workers", [["--workers", "2"], []])
    def test_dump_starts_no_thread(self, tmp_path, monkeypatch, workers):
        # the dump draws no widths, so neither --workers 2 nor a default run
        # on 2 CPUs above the parallel threshold starts a thread pool
        def refuse(*args, **kwargs):
            raise AssertionError("a thread pool was started")

        monkeypatch.setattr(protocol, "ThreadPoolExecutor", refuse)
        monkeypatch.setattr(protocol, "PARALLEL_MIN_DRAWS", 2)
        monkeypatch.setattr(protocol, "_available_cpus", lambda: 2)
        argv = [*TestCampaignBytes.BASE, "--dump-samples", "--campaign.runs_per_time", "10"]
        assert cli.main([*argv, *workers, "-o", str(tmp_path / "dump.csv")]) == 0
        assert (tmp_path / "dump.csv").read_text().count("\n") == 1 + 2 * 10

    def test_closed_stdout_returns_0_from_main(self):
        # 63,001 lines in tiles of 3,000, each larger than the pipe; the reader
        # takes the header and closes it
        script = (
            "import sys\n"
            "from waxsim import cli\n"
            "sys.stderr.write(repr(cli.main(sys.argv[1:])))\n"
        )
        proc = subprocess.Popen(
            [sys.executable, "-c", script, "campaign", "--dump-samples",
             "--campaign.runs_per_time", "3000", "--workers", "2"],
            env=waxsim_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        assert proc.stdout.readline() == b"t_s,run_index,x_m\n"
        proc.stdout.close()
        _, err = proc.communicate(timeout=120)
        assert (proc.returncode, err) == (0, b"0")

    def test_reader_gone_before_the_first_write_is_no_error(self):
        # stdout is block-buffered, so the whole 201-line dump first reaches
        # the pipe, whose reader is gone, when the command flushes it
        read, write = os.pipe()
        os.close(read)
        env = waxsim_env()
        env.pop("PYTHONUNBUFFERED", None)
        argv = [*TestCampaignBytes.BASE, "--dump-samples", "--campaign.runs_per_time", "100"]
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "waxsim", *argv],
                env=env, stdout=write, stderr=subprocess.PIPE, timeout=120,
            )
        finally:
            os.close(write)
        assert (proc.returncode, proc.stderr) == (0, b"")

    def test_interrupt_exits_130_with_one_line(self):
        # Ctrl-C sends SIGINT to the terminal's process group: here, the new
        # session's, which holds the command
        proc = subprocess.Popen(
            [sys.executable, "-m", "waxsim", "campaign", "--dump-samples",
             "--campaign.runs_per_time", "300000"],
            env=waxsim_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            start_new_session=True,
        )
        try:
            assert proc.stdout.readline() == b"t_s,run_index,x_m\n"
            # the first row is written once the first tile is formatted
            assert proc.stdout.readline().startswith(b"0.0,0,")
            os.killpg(proc.pid, signal.SIGINT)
            _, err = proc.communicate(timeout=120)
        finally:
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait(timeout=60)
        assert (proc.returncode, err) == (130, b"waxsim: interrupted\n")
        with pytest.raises(ProcessLookupError):  # no process is left in the group
            os.killpg(proc.pid, 0)

    def test_dump_draws_each_tile_once(self, tmp_path, monkeypatch):
        import scipy.special

        calls = []
        ndtri = scipy.special.ndtri
        monkeypatch.setattr(
            scipy.special, "ndtri", lambda *a, **k: calls.append(1) or ndtri(*a, **k)
        )
        monkeypatch.setattr(protocol, "TILE_RUNS", 4)
        argv = [*TestCampaignBytes.BASE, "--dump-samples", "--campaign.runs_per_time", "10"]
        assert cli.main([*argv, "-o", str(tmp_path / "dump.csv")]) == 0
        assert len(calls) == 2 * 3  # 2 times x 3 tiles of at most 4 runs

    def test_dump_memory_is_one_tile(self, silica, ground, tmp_path):
        def emit_peak(tiles):
            config = CampaignConfig((0.5,), tiles * protocol.TILE_RUNS, rng_seed=7)
            data = run_campaign(config, Scenario(silica, ground))
            tracemalloc.start()
            try:
                cli._emit(data.csv_chunks(), str(tmp_path / "dump.csv"))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert emit_peak(6) <= 1.25 * emit_peak(2)
        # formatting one tile by repr peaked at 8.6 MB (Python 3.11, numpy 2.4); the
        # array kernel formats it in 6 blocks of about 10,900 lines in about 5.7 MB
        assert emit_peak(1) <= 8_600_000


class TestStartupInterrupt:
    """Ctrl-C before ``cli.main`` runs, while ``waxsim.cli`` is imported."""

    HOOK = os.path.join(os.path.dirname(os.path.abspath(__file__)), "interrupt_hook")

    @staticmethod
    def console_script():
        """The code of the ``waxsim`` console script that pyproject.toml declares."""
        with open(os.path.join(os.path.dirname(SRC), "pyproject.toml"), encoding="utf-8") as fh:
            module, func = re.search(r'^waxsim = "([\w.]+):(\w+)"$', fh.read(), re.M).groups()
        return f"import sys\nfrom {module} import {func}\nsys.exit({func}())\n"

    @pytest.mark.parametrize("entry", ["module", "console-script"])
    def test_interrupted_import_exits_130_with_one_line(self, entry):
        env = waxsim_env()
        env["PYTHONPATH"] = os.pathsep.join((self.HOOK, env["PYTHONPATH"]))
        start = ["-m", "waxsim"] if entry == "module" else ["-c", self.console_script()]
        proc = subprocess.run(
            [sys.executable, *start, "rates"], env=env, capture_output=True, timeout=60
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == (130, b"", b"waxsim: interrupted\n")


class TestShutdownInterrupt:
    """Ctrl-C after ``cli.main`` has returned, while the interpreter shuts down."""

    HOOK = os.path.join(os.path.dirname(os.path.abspath(__file__)), "shutdown_interrupt_hook")

    @pytest.mark.parametrize("entry", ["module", "console-script"])
    def test_complete_output_exits_with_the_commands_code(self, entry):
        env = waxsim_env()
        env["PYTHONPATH"] = os.pathsep.join((self.HOOK, env["PYTHONPATH"]))
        start = ["-m", "waxsim"] if entry == "module" else ["-c", TestStartupInterrupt.console_script()]
        proc = subprocess.run(
            [sys.executable, *start, "rates"], env=env, capture_output=True, timeout=60
        )
        rates = TestCommandBytes.PINNED[("default", "rates")][0]
        assert (proc.returncode, hashlib.sha256(proc.stdout).hexdigest(), proc.stderr) == (0, rates, b"")
