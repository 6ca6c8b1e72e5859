"""Minimum detectable collapse rate: closed form and Monte-Carlo oracle."""
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from waxsim import (
    ChannelToggles,
    CSLParams,
    DetectionConfig,
    DetectionResult,
    DomainError,
    Scenario,
    bisect_lambda_mc_sweep,
    detection_power_mc,
    ground_environment,
    min_detectable_lambda,
    space_environment,
    variance_excess,
)
import waxsim.cli as cli
import waxsim.inference as inference
from waxsim import protocol
from waxsim.config import load_config
from waxsim.constants import LAMBDA_GRW
from waxsim.inference import _chi_square_quantile

GEOMETRY = CSLParams(collapse_rate=0.0, correlation_length=100e-9)
# composition of the collapse-rate and moment-evolution goldens at
# R = 120 nm, a = 100 nm, lambda = 1e-13 Hz, t = 100 s (50-digit arithmetic)
GOLDEN_EXCESS_100S = 3.4447718094116558e-9

GRID = tuple(np.geomspace(1.0, 100.0, 8))


class TestVarianceExcess:
    def test_zero_rate(self, silica):
        assert variance_excess(0.0, 50.0, silica, GEOMETRY) == 0.0

    def test_linear_in_rate(self, silica):
        one = variance_excess(1e-14, 50.0, silica, GEOMETRY)
        two = variance_excess(2e-14, 50.0, silica, GEOMETRY)
        assert_allclose(two, 2.0 * one, rtol=1e-12)

    def test_golden_reference_configuration(self, silica):
        assert_allclose(
            variance_excess(1e-13, 100.0, silica, GEOMETRY),
            GOLDEN_EXCESS_100S,
            rtol=1e-12,
        )

    def test_rejects_negative(self, silica):
        with pytest.raises(DomainError):
            variance_excess(1e-13, -1.0, silica, GEOMETRY)
        with pytest.raises(DomainError):
            variance_excess(-1e-13, 1.0, silica, GEOMETRY)


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
        values = []
        for t_max in (10.0, 20.0, 40.0, 80.0):
            values.append(
                min_detectable_lambda(
                    200,
                    (t_max,),
                    silica,
                    space,
                    GEOMETRY,
                    toggles=ChannelToggles.none(),
                ).lambda_min
            )
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_noise_never_helps(self, silica, space):
        clean = min_detectable_lambda(200, GRID, silica, space, GEOMETRY)
        noisy = min_detectable_lambda(
            200, GRID, silica, space, GEOMETRY, measurement_noise=1e-5
        )
        assert noisy.lambda_min >= clean.lambda_min

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

    def per_n(self, n_sweep, **model):
        return [bisect_lambda_mc_sweep((n,), seeds=self.SEEDS, **model)[0] for n in n_sweep]

    @pytest.mark.parametrize("aggregation", ["best-time", "chi-square-sum"])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_equals_one_oracle_per_n(self, aggregation, workers):
        model = self.model(aggregation)
        sweep = (400, 100, 400)  # unsorted, with a duplicate
        rates = bisect_lambda_mc_sweep(sweep, seeds=self.SEEDS, workers=workers, **model)
        assert rates == self.per_n(sweep, **model)
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

    def test_rejects_an_empty_sweep(self):
        with pytest.raises(DomainError, match="n_sweep"):
            bisect_lambda_mc_sweep((), seeds=self.SEEDS, **self.model())

    @pytest.mark.parametrize("workers", [1, 2])
    def test_pooled_seeds_keep_the_callers_error_state(self, workers):
        # the tile sums of squares overflow; numpy's error state is per thread
        model = self.model()
        model["scenario"] = replace(model["scenario"], measurement_noise=1e154)
        with np.errstate(over="raise"):
            with pytest.raises(FloatingPointError):
                bisect_lambda_mc_sweep((100, 400), seeds=self.SEEDS, workers=workers, **model)

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

    def test_false_alarms_at_rate_zero_stay_near_the_normal_tail(self):
        # Phi(-3) is 0.135 %, about 1.4 of 1000 campaigns; 8 or more has a
        # binomial probability near 1e-5. Testing all 21 times detected
        # about 4.3 % of campaigns.
        _, grid, scenario, detection = self.default()
        power = detection_power_mc(0.0, 400, grid, scenario, detection, seeds=range(1, 1001))
        assert round(power * 1000) <= 8
