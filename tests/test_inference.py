"""Minimum detectable collapse rate: closed form and Monte-Carlo oracle."""
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from waxsim import (
    ChannelToggles,
    CSLParams,
    DetectionConfig,
    DetectionResult,
    DomainError,
    NumericalError,
    Scenario,
    bisect_lambda_mc_sweep,
    csl_sensitivity,
    detection_power_mc,
    ground_environment,
    min_detectable_lambda,
    space_environment,
)
import waxsim.cli as cli
import waxsim.inference as inference
from waxsim import dynamics, protocol
from waxsim.config import load_config
from waxsim.constants import LAMBDA_GRW
from waxsim.inference import _chi_square_quantile

GEOMETRY = CSLParams(collapse_rate=0.0, correlation_length=100e-9)
# composition of the collapse-rate and moment-evolution goldens at
# R = 120 nm, a = 100 nm, lambda = 1e-13 Hz, t = 100 s (50-digit arithmetic)
GOLDEN_EXCESS_100S = 3.4447718094116558e-9

GRID = tuple(np.geomspace(1.0, 100.0, 8))


class TestVarianceExcess:
    # the excess is the collapse rate times csl_sensitivity
    def test_golden_reference_configuration(self, silica):
        assert_allclose(
            1e-13 * csl_sensitivity(100.0, silica, GEOMETRY),
            GOLDEN_EXCESS_100S,
            rtol=1e-12,
        )


class TestClosedForm:
    def test_quadrupled_n_halves_lambda(self, silica, space):
        small = min_detectable_lambda(100, GRID, silica, space, GEOMETRY)
        large = min_detectable_lambda(400, GRID, silica, space, GEOMETRY)
        assert abs(large.lambda_min / small.lambda_min - 0.5) < 0.02

    def test_monotone_in_n(self, silica, space):
        values = [
            min_detectable_lambda(n, GRID, silica, space, GEOMETRY).lambda_min
            for n in (10, 30, 100, 300, 1000, 3000)
        ]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_monotone_in_t_max(self, silica, space):
        values = []
        for t_max in (3.0, 10.0, 30.0, 100.0):
            grid = tuple(np.geomspace(0.5, t_max, 8))
            values.append(
                min_detectable_lambda(200, grid, silica, space, GEOMETRY).lambda_min
            )
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_longer_time_strictly_helps_without_decoherence(self, silica, space):
        # with all standard channels off the sensitivity grows faster than
        # the statistical error, so lambda_min strictly falls with t_max
        no_gas = space_environment(gas_pressure=0.0)
        values = []
        for t_max in (10.0, 20.0, 40.0, 80.0):
            values.append(
                min_detectable_lambda(
                    200,
                    (t_max,),
                    silica,
                    no_gas,
                    GEOMETRY,
                    toggles=ChannelToggles(blackbody=False),
                ).lambda_min
            )
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_noise_never_helps(self, silica, space):
        clean = min_detectable_lambda(200, GRID, silica, space, GEOMETRY)
        noisy = min_detectable_lambda(
            200, GRID, silica, space, GEOMETRY, measurement_noise=1e-5
        )
        assert noisy.lambda_min >= clean.lambda_min

    def test_overflowing_sensitivity_names_its_time(self, silica, space):
        # t * t * t overflows at 1e103 s, under numpy's default error state too
        message = r"^collapse-rate sensitivity overflows double precision at t = 1e\+103 s$"
        with pytest.raises(NumericalError, match=message):
            min_detectable_lambda(100, (5.0, 1e103), silica, space, GEOMETRY)

    def test_grw_unit_identity(self, silica, space):
        res = min_detectable_lambda(100, GRID, silica, space, GEOMETRY)
        assert res.lambda_min_grw == res.lambda_min / LAMBDA_GRW

    def test_space_beats_ground_by_four_orders(self, silica):
        space_grid = tuple(np.geomspace(0.5, 100.0, 12))
        ground_grid = tuple(np.geomspace(0.5, 4.5, 12))
        lam_space = min_detectable_lambda(
            1000, space_grid, silica, space_environment(), GEOMETRY
        ).lambda_min
        lam_ground = min_detectable_lambda(
            1000, ground_grid, silica, ground_environment(), GEOMETRY
        ).lambda_min
        assert lam_space <= lam_ground / 1e4

    def test_reference_rate_reachable_in_space(self, silica, space):
        res = min_detectable_lambda(
            1000, tuple(np.geomspace(1.0, 100.0, 12)), silica, space, GEOMETRY
        )
        assert res.lambda_min <= 1e-13

    def test_best_time_reported(self, silica, space):
        res = min_detectable_lambda(100, GRID, silica, space, GEOMETRY)
        assert res.best_time in GRID

    def test_degenerate_grid_rejected(self, silica, space):
        with pytest.raises(DomainError):
            min_detectable_lambda(100, (0.0,), silica, space, GEOMETRY)
        with pytest.raises(DomainError):
            min_detectable_lambda(100, (), silica, space, GEOMETRY)
        with pytest.raises(DomainError):
            min_detectable_lambda(1, GRID, silica, space, GEOMETRY)

    @pytest.mark.parametrize(
        "noise", [dict(measurement_noise=-1e-3), dict(drift_velocity_std=-1e-4)]
    )
    def test_negative_noise_rejected_as_for_campaigns(self, silica, space, noise):
        # both enter squared; a campaign refuses them, so the bound does too
        name = next(iter(noise))
        with pytest.raises(DomainError, match=f"{name} must be >= 0"):
            min_detectable_lambda(100, GRID, silica, space, GEOMETRY, **noise)

    def test_chi_square_aggregation(self, silica, space):
        best = min_detectable_lambda(200, GRID, silica, space, GEOMETRY)
        pooled = min_detectable_lambda(
            200,
            GRID,
            silica,
            space,
            GEOMETRY,
            detection=DetectionConfig(aggregation="chi-square-sum"),
        )
        # pooling all grid times lands near the best single time
        assert 0.2 * best.lambda_min < pooled.lambda_min < 5.0 * best.lambda_min
        smaller_n = min_detectable_lambda(
            50,
            GRID,
            silica,
            space,
            GEOMETRY,
            detection=DetectionConfig(aggregation="chi-square-sum"),
        )
        assert smaller_n.lambda_min > pooled.lambda_min

    def test_detection_config_validation(self):
        with pytest.raises(DomainError):
            DetectionConfig(confidence_z=0.0)
        with pytest.raises(DomainError):
            DetectionConfig(aggregation="median")


class TestChiSquareThreshold:
    @pytest.mark.parametrize("z", [8.0, 9.0, 20.0])
    def test_matches_inverse_survival_function(self, z):
        # independent route: chi2.isf of the normal tail, both from
        # scipy.stats; chi2.ppf(1 - alpha) gave 83.53 for 83.67 at z = 8 and
        # inf from z = 9, as 1 - alpha rounds towards 1
        from scipy.stats import chi2, norm

        q = _chi_square_quantile(z, 6)
        assert np.isfinite(q)
        assert_allclose(q, chi2.isf(norm.sf(z), 6), rtol=1e-12)

    def test_underflowing_tail_rejected(self):
        with pytest.raises(DomainError, match="too large"):
            _chi_square_quantile(40.0, 6)

    def test_bound_finite_at_high_z(self, silica, space):
        detection = DetectionConfig(confidence_z=20.0, aggregation="chi-square-sum")
        res = min_detectable_lambda(200, GRID, silica, space, GEOMETRY, detection=detection)
        assert np.isfinite(res.lambda_min) and res.lambda_min > 0.0
        with pytest.raises(DomainError):
            min_detectable_lambda(
                200,
                GRID,
                silica,
                space,
                GEOMETRY,
                detection=DetectionConfig(confidence_z=40.0, aggregation="chi-square-sum"),
            )

    @pytest.mark.parametrize("bad", [float("inf"), float("nan")])
    def test_result_rejects_non_finite_rate(self, bad):
        with pytest.raises(DomainError):
            DetectionResult(lambda_min=bad, best_time=1.0, n_per_time=100)

    def test_rate_overflowing_in_grw_units_is_a_numerical_failure(self):
        # finite in Hz, infinite divided by the 1e-16 Hz reference
        with pytest.raises(NumericalError, match="overflows in GRW units"):
            DetectionResult(lambda_min=1e300, best_time=1.0, n_per_time=100)
        assert DetectionResult(lambda_min=1e290, best_time=1.0, n_per_time=100).lambda_min_grw


@pytest.fixture
def in_space(silica, space):
    """The default sphere in space, with the collapse geometry under test."""
    return Scenario(silica, space, GEOMETRY)


class TestMonteCarloOracle:
    def test_agrees_with_closed_form_within_factor_two(self, silica, space, in_space):
        n = 120
        closed = min_detectable_lambda(n, GRID, silica, space, GEOMETRY).lambda_min
        mc = bisect_lambda_mc_sweep((n,), GRID, in_space, seeds=range(1, 121))[0]
        assert 0.5 <= mc / closed <= 2.0

    def test_power_extremes(self, silica, space, in_space):
        n = 120
        closed = min_detectable_lambda(n, GRID, silica, space, GEOMETRY).lambda_min
        seeds = range(1, 201)
        high = detection_power_mc(10.0 * closed, n, GRID, in_space, seeds=seeds)
        low = detection_power_mc(closed / 10.0, n, GRID, in_space, seeds=seeds)
        assert high >= 0.99
        assert low <= 0.10

    # the standard error sqrt(2 / (N - 1)) has no value at N = 1
    def test_oracle_rejects_single_run_per_time(self, in_space):
        with pytest.raises(DomainError, match="n_per_time"):
            bisect_lambda_mc_sweep((1,), GRID, in_space, seeds=range(1, 5))

    def test_power_rejects_single_run_per_time(self, in_space):
        with pytest.raises(DomainError, match="n_per_time"):
            detection_power_mc(1e-13, 1, GRID, in_space, seeds=range(1, 5))

    def test_empty_seeds_rejected(self, in_space):
        with pytest.raises(DomainError):
            bisect_lambda_mc_sweep((60,), GRID, in_space, seeds=())
        with pytest.raises(DomainError):
            detection_power_mc(1e-13, 60, GRID, in_space, seeds=())

    def test_seeds_are_a_required_keyword(self, in_space):
        # no default: an empty seed list has no detection power to estimate
        with pytest.raises(TypeError, match="seeds"):
            bisect_lambda_mc_sweep((60,), GRID, in_space)
        with pytest.raises(TypeError, match="seeds"):
            detection_power_mc(1e-13, 60, GRID, in_space)
        with pytest.raises(TypeError):
            bisect_lambda_mc_sweep((60,), GRID, in_space, DetectionConfig(), range(4))

    def test_no_positive_times_rejected(self, in_space):
        with pytest.raises(DomainError):
            bisect_lambda_mc_sweep((60,), (0.0,), in_space, seeds=range(4))

    def test_overflowing_rate_is_a_numerical_failure(self):
        # z se / sens overflows at a tiny time; numpy is told only to stay
        # quiet, so the best-time rates of the seeds' table come out inf
        detection = DetectionConfig(confidence_z=1e50)
        with np.errstate(over="ignore"):
            with pytest.raises(NumericalError, match="oracle rate overflows"):
                bisect_lambda_mc_sweep(
                    (100,), (1e-95,), load_config().scenario(), detection, seeds=range(1, 5)
                )


class TestExactOracle:
    @pytest.mark.parametrize("aggregation", ["best-time", "chi-square-sum"])
    def test_result_is_where_simulated_power_reaches_half(self, aggregation):
        # the oracle works from one campaign per seed at rate 0; the power is
        # re-simulated at each rate here, as an independent reference
        config = load_config()
        model = dict(
            time_grid=config.get("campaign.time_grid_s"),
            scenario=config.scenario(),
            detection=DetectionConfig(aggregation=aggregation),
        )
        n, seeds = 400, range(1, 17)
        rate = bisect_lambda_mc_sweep((n,), seeds=seeds, **model)[0]
        above = detection_power_mc(rate * (1.0 + 1e-9), n, seeds=seeds, **model)
        below = detection_power_mc(rate * (1.0 - 1e-9), n, seeds=seeds, **model)
        assert above >= 0.5 > below

    def test_critical_rate_without_a_real_root_is_zero(self):
        # sum_t (a_t + lambda b_t)^2 = 1 with a = (10, -10), b = (11, -9):
        # 202 lambda^2 + 400 lambda + 199 = 0 has discriminant 200^2 - 202 * 199 = -198
        ones = np.ones(2)
        rate = inference._critical_rate(np.array([11.0, -9.0]), ones, ones, ones, ones, 1.0)
        assert rate == 0.0

    def test_one_campaign_per_seed(self, in_space, monkeypatch):
        calls = []
        real = inference.run_campaign

        def counting(config, *args, **kwargs):
            calls.append(config.rng_seed)
            return real(config, *args, **kwargs)

        monkeypatch.setattr(inference, "run_campaign", counting)
        seeds = range(1, 41)
        bisect_lambda_mc_sweep((120,), GRID, in_space, seeds=seeds)
        assert calls == list(seeds)


class TestOracleSweep:
    """One campaign per seed at the largest N; each N reads a run prefix."""

    SEEDS = range(1, 9)

    @staticmethod
    def model(aggregation="best-time"):
        config = load_config()
        return dict(
            time_grid=config.get("campaign.time_grid_s"),
            scenario=config.scenario(),
            detection=DetectionConfig(aggregation=aggregation),
        )

    def per_n(self, n_sweep, seeds=SEEDS, **model):
        return [bisect_lambda_mc_sweep((n,), seeds=seeds, **model)[0] for n in n_sweep]

    @pytest.mark.parametrize("aggregation", ["best-time", "chi-square-sum"])
    @settings(max_examples=30, deadline=None, database=None, derandomize=True)
    @given(
        sweep=st.lists(st.integers(min_value=2, max_value=2000), min_size=1, max_size=4),
        seeds=st.lists(
            st.integers(min_value=0, max_value=2**32), min_size=1, max_size=8, unique=True
        ),
    )
    @example(sweep=[400, 100, 400], seeds=list(SEEDS))  # unsorted, with a duplicate
    def test_equals_one_oracle_per_n(self, aggregation, sweep, seeds):
        model = self.model(aggregation)
        rates = bisect_lambda_mc_sweep(sweep, seeds=seeds, **model)
        assert rates == self.per_n(sweep, seeds, **model)
        if sweep == [400, 100, 400]:
            assert rates[0] == rates[2] and rates[0] != rates[1]

    @pytest.mark.parametrize("aggregation", ["best-time", "chi-square-sum"])
    def test_run_prefixes_across_tiles(self, monkeypatch, aggregation):
        # tiles of 4 runs and N = 13: run counts end mid-tile (2, 6, 11), on a
        # tile boundary (4, 8) and in the ragged last tile (13)
        monkeypatch.setattr(protocol, "TILE_RUNS", 4)
        model = self.model(aggregation)
        sweep = (13, 2, 4, 6, 8, 11)
        rates = bisect_lambda_mc_sweep(sweep, seeds=self.SEEDS, **model)
        assert rates == self.per_n(sweep, **model)

    @pytest.mark.parametrize("aggregation", ["best-time", "chi-square-sum"])
    def test_one_detection_setup_per_sweep(self, monkeypatch, aggregation):
        calls = []
        real = inference._detection_setup

        def counting(n_sweep, *args):
            calls.append(tuple(n_sweep))
            return real(n_sweep, *args)

        monkeypatch.setattr(inference, "_detection_setup", counting)
        sweep = load_config().get("bound.n_sweep")
        bisect_lambda_mc_sweep(sweep, seeds=self.SEEDS, **self.model(aggregation))
        assert calls == [tuple(sweep)]

    @pytest.mark.parametrize("z", [3.0, 0.5])
    def test_best_time_rates_follow_the_scalar_rule(self, z):
        # each seed's rate by the formula on Python floats, one N at a time,
        # from a campaign of every row at rate 0 (the oracle's draws only the
        # best time's); at z = 0.5 some rates clip at 0
        model = self.model()
        model["detection"] = DetectionConfig(confidence_z=z)
        scenario, sweep, seeds = model["scenario"], (100, 400, 1600), range(1, 17)
        times, sens, var_std, _, best, _ = inference._detection_setup(
            sweep, model["time_grid"], model["detection"], scenario
        )
        simulated = replace(scenario, csl=replace(scenario.csl, collapse_rate=0.0))
        per_seed = []
        for seed in seeds:
            plan = protocol.CampaignConfig(times, max(sweep), seed)
            data = protocol.run_campaign(plan, simulated, run_counts=sweep)
            rates = []
            for n in sweep:
                se_var = var_std * np.sqrt(2.0 / (n - 1))
                var_hat, sigma = data.var_hats[n].item(best), data.samples.sigmas.item(best)
                a = var_hat - var_std.item(best)
                b = var_hat / (sigma * sigma) * sens.item(best)
                rates.append(max((z * se_var.item(best) - a) / b, 0.0))
            assert bisect_lambda_mc_sweep(sweep, seeds=[seed], **model) == rates
            per_seed.append(rates)
        lower = (len(seeds) - 1) // 2
        medians = [sorted(column)[lower] for column in zip(*per_seed)]
        assert bisect_lambda_mc_sweep(sweep, seeds=seeds, **model) == medians
        assert (0.0 in sum(per_seed, [])) == (z < 1.0)

    @pytest.mark.parametrize("aggregation", ["best-time", "chi-square-sum"])
    def test_trap_state_prepared_once_per_sweep(self, monkeypatch, aggregation):
        # the oracle's scenario keeps its prepared state across its campaigns
        calls = []
        real = dynamics.initial_state
        monkeypatch.setattr(dynamics, "initial_state", lambda *a: calls.append(a) or real(*a))
        model = self.model(aggregation)
        counts = []
        for seeds in (range(1, 3), range(1, 9)):
            calls.clear()
            bisect_lambda_mc_sweep((100, 400), seeds=seeds, **model)
            counts.append(len(calls))
        assert counts == [1, 1]  # the standard scenario's

    @pytest.mark.parametrize("aggregation", ["best-time", "chi-square-sum"])
    def test_variance_model_evaluated_once_per_scenario(self, monkeypatch, aggregation):
        # the sweep's campaigns share its standard scenario's variances; the
        # power check's share those of the simulated one
        calls = []
        real = Scenario.variance
        monkeypatch.setattr(Scenario, "variance", lambda *a: calls.append(a[1]) or real(*a))
        model = self.model(aggregation)
        counts = []
        for seeds in (range(1, 3), range(1, 41)):
            calls.clear()
            bisect_lambda_mc_sweep((100, 400), seeds=seeds, **model)
            counts.append(len(calls))
            calls.clear()
            detection_power_mc(1e-6, 100, seeds=seeds, **model)
            counts.append(len(calls))
        assert counts == [1, 2, 1, 2]

    def test_rejects_an_empty_sweep(self):
        with pytest.raises(DomainError, match="n_sweep"):
            bisect_lambda_mc_sweep((), seeds=self.SEEDS, **self.model())

    def test_seeds_keep_the_callers_error_state(self):
        # the tile sums of squares overflow at the best time, the row drawn;
        # only a raised overflow names its time
        model = self.model()
        model["scenario"] = replace(model["scenario"], measurement_noise=1e154)
        message = r"^sample variance overflows double precision at t = 100\.0 s$"
        with np.errstate(over="raise"):
            with pytest.raises(NumericalError, match=message):
                bisect_lambda_mc_sweep((100, 400), seeds=self.SEEDS, **model)

    def test_bound_oracle_runs_one_campaign_per_seed(self, capsys, monkeypatch):
        calls = []
        real = inference.run_campaign

        def counting(config, *args, **kwargs):
            calls.append((config.rng_seed, config.runs_per_time))
            return real(config, *args, **kwargs)

        monkeypatch.setattr(inference, "run_campaign", counting)
        assert cli.main(["bound", "--oracle-check", "--oracle-seeds", "4"]) == 0
        capsys.readouterr()
        largest = max(load_config().get("bound.n_sweep"))
        assert calls == [(seed, largest) for seed in range(1, 5)]


class TestOracleDraws:
    """Best-time draws only the pre-registered time's row; chi-square-sum every
    row. The default-config sweeps are pinned in hex from before best-time
    drew one row."""

    @staticmethod
    def sweep(aggregation, seeds):
        n_sweep = load_config().get("bound.n_sweep")
        rates = bisect_lambda_mc_sweep(n_sweep, seeds=seeds, **TestOracleSweep.model(aggregation))
        return [rate.hex() for rate in rates]

    def tiles_drawn(self, monkeypatch, aggregation):
        """The grid index of each tile drawn by an 8-seed default sweep."""
        calls = []
        real = protocol._draw_tile
        monkeypatch.setattr(protocol, "_draw_tile", lambda *a: calls.append(a[2]) or real(*a))
        self.sweep(aggregation, range(1, 9))
        return calls

    def test_best_time_draws_one_tile_per_seed(self, monkeypatch):
        config = load_config()
        assert max(config.get("bound.n_sweep")) <= protocol.TILE_RUNS
        best = min_detectable_lambda(
            6400, config.get("campaign.time_grid_s"), config.particle(),
            config.environment(), config.csl(), trap_frequency=config.trap_frequency(),
        ).best_time
        grid = list(config.get("campaign.time_grid_s"))
        assert self.tiles_drawn(monkeypatch, "best-time") == [grid.index(best)] * 8

    def test_chi_square_sum_draws_every_row(self, monkeypatch):
        assert sorted(self.tiles_drawn(monkeypatch, "chi-square-sum")) == sorted(list(range(21)) * 8)

    def test_best_time_golden(self):
        assert self.sweep("best-time", range(1, 65)) == [
            "0x1.94d7df0559a6ap-22",
            "0x1.9b2d36c8c28b5p-23",
            "0x1.ae7abbf24da11p-24",
            "0x1.8d43b95e62fc6p-25",
        ]

    def test_chi_square_sum_golden(self):
        assert self.sweep("chi-square-sum", range(1, 17)) == [
            "0x1.0dc86786f65edp-23",
            "0x1.16ff83b58e7a7p-24",
            "0x1.1da506821916bp-25",
            "0x1.3c21e922fc814p-26",
        ]


class TestPreRegisteredTime:
    """Best-time aggregation tests only the time the closed form picks."""

    @staticmethod
    def default():
        config = load_config()
        return config, config.get("campaign.time_grid_s"), config.scenario(), config.detection()

    def test_oracle_matches_the_closed_form_on_the_default_config(self):
        # testing all 21 times instead gave ratios of 0.27-0.38 here
        config, grid, scenario, detection = self.default()
        sweep = config.get("bound.n_sweep")
        rates = bisect_lambda_mc_sweep(sweep, grid, scenario, detection, seeds=range(1, 65))
        for n, rate in zip(sweep, rates):
            closed = min_detectable_lambda(
                n, grid, config.particle(), config.environment(), config.csl(),
                detection=detection, trap_frequency=config.trap_frequency(),
            )
            assert 0.85 <= rate / closed.lambda_min <= 1.15, n

    def test_power_draws_only_the_best_times_row(self, monkeypatch):
        # best-time reads one of each seed's 21 rows, and draws no other
        _, grid, scenario, detection = self.default()
        rows = []
        draw_tile = protocol._draw_tile

        def recording(seed, sigma, i, *args):
            rows.append(i)
            return draw_tile(seed, sigma, i, *args)

        monkeypatch.setattr(protocol, "_draw_tile", recording)
        detection_power_mc(0.0, 400, grid, scenario, detection, seeds=range(1, 5))
        best = inference._detection_setup((400,), grid, detection, scenario)[4]
        assert rows == [best] * 4

    def test_false_alarms_at_rate_zero_stay_near_the_normal_tail(self):
        # Phi(-3) is 0.135 %, about 1.4 of 1000 campaigns; 8 or more has a
        # binomial probability near 1e-5. Testing all 21 times detected
        # about 4.3 % of campaigns.
        _, grid, scenario, detection = self.default()
        power = detection_power_mc(0.0, 400, grid, scenario, detection, seeds=range(1, 1001))
        assert round(power * 1000) <= 8

    # custom configs on which a best time picked at each N, by the rounding
    # of its standard errors, gave 7 and 4 distinct times over this sweep
    SWEEP = "2,3,5,10,100,400,1600,6400,99999"
    CUSTOM = {
        "1e4-pa-1000-times": {
            "environment.gas_pressure_pa": "1e4", "campaign.time_grid_s": "1:100:1000"
        },
        "1e8-pa": {"environment.gas_pressure_pa": "1e8"},
    }

    @staticmethod
    def custom(overrides, *argv):
        """``waxsim bound`` on a custom config over the 9-N sweep, and its grid."""
        overrides = {"environment.preset": "custom", "bound.n_sweep": TestPreRegisteredTime.SWEEP,
                     **overrides}
        flags = [f"--{key}={value}" for key, value in overrides.items()]
        grid = load_config(None, "<config>", overrides.items()).get("campaign.time_grid_s")
        return ["bound", *flags, *argv], list(grid)

    @pytest.mark.parametrize("aggregation", ["best-time", "chi-square-sum"])
    @pytest.mark.parametrize("overrides", CUSTOM.values(), ids=CUSTOM)
    def test_one_best_time_at_every_n(self, capsys, overrides, aggregation):
        # N scales every standard error by the same factor
        argv, _ = self.custom(overrides, "--detection.aggregation", aggregation)
        assert cli.main(argv) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 10
        assert len({line.rsplit(",", 1)[1] for line in lines[1:]}) == 1

    @pytest.mark.parametrize("overrides", CUSTOM.values(), ids=CUSTOM)
    def test_oracle_draws_one_row_per_seed(self, capsys, monkeypatch, overrides):
        # 4 seeds x 2 tiles of the largest N, 99999 runs, all of the best time
        assert protocol.TILE_RUNS < 99999 <= 2 * protocol.TILE_RUNS
        calls = []
        real = protocol._draw_tile
        monkeypatch.setattr(protocol, "_draw_tile", lambda *a: calls.append(a[2]) or real(*a))
        argv, grid = self.custom(overrides, "--oracle-check", "--oracle-seeds", "4")
        assert cli.main(argv) == 0
        best = float(capsys.readouterr().out.splitlines()[1].rsplit(",", 1)[1])
        assert calls == [grid.index(best)] * 8
