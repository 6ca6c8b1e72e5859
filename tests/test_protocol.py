"""Campaign simulation: determinism, statistics, width estimation."""
import math
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from waxsim import (
    CampaignConfig,
    ChannelToggles,
    CSLParams,
    DomainError,
    NumericalError,
    Scenario,
    bisect_lambda_mc_sweep,
    campaign_curve,
    campaign_to_csv,
    estimate_width,
    run_campaign,
)
from waxsim import protocol

SIGMA0 = 2.2956497833141595e-12  # ground-state width of the default sphere


def make_config(**overrides):
    defaults = dict(time_grid=(0.0, 1.0, 10.0), runs_per_time=100, rng_seed=7)
    defaults.update(overrides)
    return CampaignConfig(**defaults)


class TestCampaignConfig:
    def test_rejects_empty_grid(self):
        with pytest.raises(DomainError):
            make_config(time_grid=())

    def test_rejects_single_run(self):
        with pytest.raises(DomainError):
            make_config(runs_per_time=1)

    def test_rejects_unsorted_or_negative_grid(self):
        with pytest.raises(DomainError):
            make_config(time_grid=(1.0, 0.5))
        with pytest.raises(DomainError):
            make_config(time_grid=(-1.0, 0.5))

    def test_rejects_negative_seed(self):
        with pytest.raises(DomainError, match=r"^rng_seed must be >= 0, got -1$"):
            make_config(rng_seed=-1)


class TestScenario:
    def test_rejects_negative_noise(self, silica, ground):
        with pytest.raises(DomainError, match=r"^measurement_noise must be >= 0$"):
            Scenario(silica, ground, measurement_noise=-1e-12)
        with pytest.raises(DomainError, match=r"^drift_velocity_std must be >= 0$"):
            Scenario(silica, ground, drift_velocity_std=-1e-9)

    def test_rejects_negative_occupancy(self, silica, ground):
        with pytest.raises(DomainError, match=r"^occupancy must be >= 0, got -1.0$"):
            Scenario(silica, ground, occupancy=-1.0)

    def test_rejects_non_positive_trap_frequency(self, silica, ground):
        with pytest.raises(DomainError, match=r"^trap_frequency must be > 0, got 0.0$"):
            Scenario(silica, ground, trap_frequency=0.0)


class TestNumericalFailure:
    def test_overflowing_variance_is_refused(self, silica, ground):
        # (drift t)^2 overflows to inf; numpy is told only to stay quiet
        scenario = Scenario(silica, ground, drift_velocity_std=1e160)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericalError, match="sample variance overflows"):
                run_campaign(make_config(), scenario)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_pool_tasks_keep_the_callers_error_state(self, silica, ground, workers):
        # the tile sums of squares overflow; numpy's error state is per thread
        config = make_config(time_grid=(10.0,), runs_per_time=1000)
        scenario = Scenario(silica, ground, drift_velocity_std=1e152)
        with np.errstate(over="raise"):
            with pytest.raises(FloatingPointError):
                run_campaign(config, scenario, workers=workers)


class TestDeterminism:
    def test_same_seed_identical(self, silica, ground):
        config = make_config()
        a = run_campaign(config, Scenario(silica, ground))
        b = run_campaign(config, Scenario(silica, ground))
        assert np.array_equal(a.samples, b.samples)
        assert "".join(a.csv_chunks()) == "".join(b.csv_chunks())

    def test_different_seed_differs(self, silica, ground):
        a = run_campaign(make_config(rng_seed=1), Scenario(silica, ground))
        b = run_campaign(make_config(rng_seed=2), Scenario(silica, ground))
        assert not np.array_equal(a.samples, b.samples)

    def test_parallel_matches_serial(self, silica, ground):
        config = make_config(time_grid=tuple(float(t) for t in range(0, 12)))
        serial = run_campaign(config, Scenario(silica, ground))
        threaded = run_campaign(config, Scenario(silica, ground), workers=4)
        assert "".join(serial.csv_chunks()) == "".join(threaded.csv_chunks())

    def test_estimates_reproducible(self, silica, ground):
        config = make_config()
        first = campaign_to_csv(campaign_curve(config, Scenario(silica, ground)))
        second = campaign_to_csv(campaign_curve(config, Scenario(silica, ground)))
        assert first == second


class TestStatistics:
    def test_variance_additivity(self, silica, ground):
        # generated variance must match x_var + (v t)^2 + noise^2 within
        # 3 standard errors of the variance estimate at N = 1e5
        config = make_config(time_grid=(10.0,), runs_per_time=100_000, rng_seed=101)
        scenario = Scenario(silica, ground, measurement_noise=1e-6, drift_velocity_std=1e-7)
        data = run_campaign(config, scenario)
        target = scenario.variance(np.array([10.0]))[0]
        sample_var = np.var(data.samples[0], ddof=1)
        se = target * math.sqrt(2.0 / (config.runs_per_time - 1))
        assert abs(sample_var - target) < 3.0 * se

    def test_ground_state_width_at_release(self, silica, ground):
        config = make_config(time_grid=(0.0, 1.0), runs_per_time=100_000, rng_seed=5)
        data = run_campaign(config, Scenario(silica, ground, toggles=ChannelToggles.none()))
        sample_std = np.std(data.samples[0], ddof=1)
        assert_allclose(sample_std, SIGMA0, rtol=0.02)

    def test_large_n_tracks_model_variance(self, silica, ground):
        config = make_config(time_grid=(0.5, 5.0), runs_per_time=100_000, rng_seed=17)
        data = run_campaign(config, Scenario(silica, ground))
        for row, sigma in zip(data.samples, data.samples.sigmas):
            se = sigma**2 * math.sqrt(2.0 / (config.runs_per_time - 1))
            assert abs(np.var(row, ddof=1) - sigma**2) < 3.0 * se

    def test_collapse_channel_inflates_samples(self, silica, space):
        config = make_config(time_grid=(100.0,), runs_per_time=20_000, rng_seed=3)
        csl = CSLParams(collapse_rate=1e-12)
        off = run_campaign(config, Scenario(silica, space, toggles=ChannelToggles.standard()))
        on = run_campaign(config, Scenario(silica, space, csl, ChannelToggles()))
        assert np.var(on.samples[0]) > np.var(off.samples[0])


class TestEstimateWidth:
    def test_constant_samples_give_zero(self):
        # 8 samples so the float mean is exact and the deviations vanish
        est = estimate_width(1.0, [3.0e-9] * 8)
        assert est.sigma_hat == 0.0
        assert est.standard_error == 0.0

    def test_standard_error_formula(self):
        rng = np.random.default_rng(2)
        x = rng.normal(0.0, 1e-9, size=50)
        est = estimate_width(2.0, x)
        assert_allclose(est.sigma_hat, np.std(x, ddof=1), rtol=1e-12)
        assert_allclose(
            est.standard_error, est.sigma_hat * math.sqrt(1.0 / 98.0), rtol=1e-12
        )
        assert est.sample_count == 50

    def test_error_halves_when_n_quadruples(self):
        rng = np.random.default_rng(3)
        x = rng.normal(0.0, 1e-9, size=200)
        small = estimate_width(1.0, x)
        big = estimate_width(1.0, np.tile(x, 4))
        # same sigma_hat up to the ddof correction, a quarter the variance SE
        assert abs(big.standard_error / small.standard_error - 0.5) < 0.02

    def test_rejects_short_input(self):
        with pytest.raises(DomainError):
            estimate_width(1.0, [1.0])

    def test_calibration_four_sigma(self):
        # |sigma_hat - sigma| < 4 SE in at least 99% of seeded repetitions
        sigma = 2.5e-9
        hits = 0
        reps = 1000
        n = 50
        rng = np.random.default_rng(11)
        for _ in range(reps):
            est = estimate_width(1.0, rng.normal(0.0, sigma, size=n))
            if abs(est.sigma_hat - sigma) < 4.0 * est.standard_error:
                hits += 1
        assert hits >= 0.99 * reps

    def test_coverage_calibration(self, silica, ground):
        # nominal 1-sigma error bars cover the generating width 68% +- 3%
        grid = (1.0, 10.0)
        n = 100
        campaigns = 10_000
        covered = 0
        total = 0
        truth = np.sqrt(Scenario(silica, ground).variance(np.array(grid)))
        for seed in range(campaigns):
            config = make_config(time_grid=grid, runs_per_time=n, rng_seed=seed)
            data = run_campaign(config, Scenario(silica, ground))
            for row, sigma in zip(data.samples, truth):
                est = estimate_width(1.0, row)
                covered += abs(est.sigma_hat - sigma) < est.standard_error
                total += 1
        coverage = covered / total
        assert 0.65 <= coverage <= 0.71


class TestSerialization:
    def test_raw_csv_shape(self, silica, ground):
        config = make_config(time_grid=(0.0, 2.0), runs_per_time=3)
        data = run_campaign(config, Scenario(silica, ground))
        lines = "".join(data.csv_chunks()).splitlines()
        assert lines[0] == "t_s,run_index,x_m"
        assert len(lines) == 1 + 2 * 3
        t, run, x = lines[1].split(",")
        assert float(t) == 0.0 and run == "0"
        float(x)  # parses

    def test_estimate_csv_format(self, silica, ground):
        estimates = campaign_curve(make_config(), Scenario(silica, ground))
        lines = campaign_to_csv(estimates).splitlines()
        assert lines[0] == "t_s,sigma_hat_m,sigma_err_m,n_samples"
        assert len(lines) == 4
        assert lines[1].endswith(",100")

    def test_single_time_grid(self, silica, ground):
        estimates = campaign_curve(make_config(time_grid=(5.0,)), Scenario(silica, ground))
        assert len(estimates) == 1
        assert estimates[0].t == 5.0


class TestTiledSampling:
    def test_tile_size_does_not_change_samples(self, silica, ground, monkeypatch):
        # 4-run tiles give ragged last tiles and many advance() calls
        config = make_config(runs_per_time=1001)
        whole = run_campaign(config, Scenario(silica, ground))
        monkeypatch.setattr(protocol, "TILE_RUNS", 4)
        tiled = run_campaign(config, Scenario(silica, ground))
        assert np.array_equal(whole.samples, tiled.samples)

    @pytest.mark.parametrize("workers", [0, -3])
    def test_rejects_workers_below_one(self, silica, ground, workers):
        with pytest.raises(DomainError, match="workers"):
            run_campaign(make_config(), Scenario(silica, ground), workers=workers)

    def test_small_campaigns_start_no_thread(self, silica, space, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a thread pool was started")

        monkeypatch.setattr(protocol, "ThreadPoolExecutor", refuse)
        config = make_config(runs_per_time=protocol.PARALLEL_MIN_DRAWS // 3 - 1)
        data = run_campaign(config, Scenario(silica, space))
        assert data.samples.shape == (3, config.runs_per_time)
        [rate] = bisect_lambda_mc_sweep(
            (400,), (1.0, 10.0, 100.0), Scenario(silica, space, CSLParams(0.0, 100e-9)),
            seeds=range(1, 9),
        )
        assert rate > 0.0

    @staticmethod
    def record_pools(monkeypatch, cpus):
        """``cpus`` CPUs; list the size of every pool requested."""
        requested = []

        def recording_pool(max_workers):
            requested.append(max_workers)
            return ThreadPoolExecutor(max_workers=1)

        monkeypatch.setattr(protocol, "ThreadPoolExecutor", recording_pool)
        monkeypatch.setattr(protocol, "_available_cpus", lambda: cpus)
        return requested

    def test_explicit_workers_always_pool(self, silica, ground, monkeypatch):
        # below the threshold and above the CPU count
        config = make_config()
        serial = run_campaign(config, Scenario(silica, ground))
        requested = self.record_pools(monkeypatch, cpus=1)
        pooled = run_campaign(config, Scenario(silica, ground), workers=4)
        assert requested == [4]
        assert np.array_equal(serial.samples, pooled.samples)

    def test_pool_starts_no_more_threads_than_tiles(self, silica, ground, monkeypatch):
        import scipy.special

        ndtri = scipy.special.ndtri
        counts = []

        def counting_ndtri(*args, **kwargs):
            counts.append(threading.active_count())
            return ndtri(*args, **kwargs)

        monkeypatch.setattr(scipy.special, "ndtri", counting_ndtri)
        before = threading.active_count()
        run_campaign(make_config(), Scenario(silica, ground), workers=64)  # 3 tiles
        assert len(counts) == 3
        assert max(counts) <= before + 3

    def test_default_pool_uses_the_available_cpus(self, silica, ground, monkeypatch):
        requested = self.record_pools(monkeypatch, cpus=5)
        monkeypatch.setattr(protocol, "PARALLEL_MIN_DRAWS", 0)
        config = make_config(runs_per_time=protocol.TILE_RUNS + 1)  # 6 tiles
        run_campaign(config, Scenario(silica, ground))
        run_campaign(config, Scenario(silica, ground), workers=1)
        assert requested == [5]


class TestTileMoments:
    def test_single_tile_rows_equal_np_var(self, silica, ground):
        data = run_campaign(make_config(runs_per_time=1001), Scenario(silica, ground))
        assert np.array_equal(data.var_hat, np.var(data.samples, axis=1, ddof=1))
        for row, var_hat in zip(data.samples, data.var_hat):
            assert var_hat == np.var(row, ddof=1)

    @pytest.mark.parametrize("n, tile_runs", [(2 * protocol.TILE_RUNS + 1, None), (1001, 4)])
    def test_merged_tiles_within_4_ulp_of_np_std(self, silica, ground, monkeypatch, n, tile_runs):
        if tile_runs is not None:
            monkeypatch.setattr(protocol, "TILE_RUNS", tile_runs)
        config = make_config(runs_per_time=n)
        samples = run_campaign(config, Scenario(silica, ground)).samples
        for est, row in zip(campaign_curve(config, Scenario(silica, ground)), samples):
            reference = np.std(row, ddof=1)
            assert abs(est.sigma_hat - reference) <= 4 * np.spacing(reference)

    def test_workers_do_not_change_var_hat(self, silica, ground):
        config = make_config(time_grid=(0.5, 2.0), runs_per_time=8 * protocol.TILE_RUNS + 1)
        var_hats = [
            run_campaign(config, Scenario(silica, ground), workers=workers).var_hat
            for workers in (1, 2, 3)
        ]
        assert all(np.array_equal(var_hats[0], other) for other in var_hats[1:])


class TestStreamingSerialization:
    def test_one_chunk_per_tile(self, silica, ground, monkeypatch):
        monkeypatch.setattr(protocol, "TILE_RUNS", 4)
        data = run_campaign(make_config(runs_per_time=10), Scenario(silica, ground))
        chunks = list(data.csv_chunks())
        assert len(chunks) == 1 + 3 * math.ceil(10 / 4)
        assert chunks[0] == "t_s,run_index,x_m\n"
        assert max(chunk.count("\n") for chunk in chunks[1:]) == 4
        assert [chunk.count("\n") for chunk in chunks[1:4]] == [4, 4, 2]
        assert chunks[2].startswith("0.0,4,")

    def test_memory_beyond_physical_is_refused(self, silica, ground, monkeypatch):
        # the moments of 3 tiles need 72 bytes; nothing is allocated
        monkeypatch.setattr(protocol, "_physical_memory", lambda: 71)
        with pytest.raises(DomainError, match="physical memory"):
            run_campaign(make_config(), Scenario(silica, ground))
        monkeypatch.setattr(protocol, "_physical_memory", lambda: 72)
        samples = run_campaign(make_config(), Scenario(silica, ground)).samples
        # materialising the 3 x 100 doubles needs 2400 bytes
        with pytest.raises(DomainError, match="physical memory"):
            np.asarray(samples)
        monkeypatch.setattr(protocol, "_physical_memory", lambda: 2400)
        assert np.asarray(samples).shape == (3, 100)

    def test_unknown_physical_memory_skips_the_check(self, silica, ground, monkeypatch):
        monkeypatch.setattr(protocol, "_physical_memory", lambda: None)
        samples = run_campaign(make_config(), Scenario(silica, ground)).samples
        assert np.asarray(samples).shape == (3, 100)


class TestPooledDump:
    """``csv_chunks(workers)`` above 1 formats the tiles in forked processes."""

    @pytest.fixture
    def data(self, silica, ground, monkeypatch):
        # 3 times x 3 tiles of at most 4 runs; the last tile of each row is ragged
        monkeypatch.setattr(protocol, "TILE_RUNS", 4)
        return run_campaign(make_config(runs_per_time=10), Scenario(silica, ground))

    @pytest.fixture
    def submitted(self, monkeypatch):
        """The tile index of each task submitted to a process pool, in order."""
        import concurrent.futures

        tiles = []

        class RecordingPool(concurrent.futures.ProcessPoolExecutor):
            def submit(self, fn, *args):
                tiles.append(args[-1])
                return super().submit(fn, *args)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        return tiles

    @pytest.mark.parametrize("workers", [2, 3, 16])
    def test_pooled_chunks_equal_serial_chunks(self, data, submitted, workers):
        assert list(data.csv_chunks(workers)) == list(data.csv_chunks(1))
        assert submitted == list(range(9))

    def test_tiles_are_formatted_in_pool_processes(self, data, monkeypatch):
        import os

        monkeypatch.setattr(protocol, "_tile_csv", lambda view, t_reprs, k, out: f"{os.getpid()}\n")
        pids = {int(chunk) for chunk in list(data.csv_chunks(2))[1:]}
        assert 1 <= len(pids) <= 2
        assert os.getpid() not in pids

    def test_pool_holds_at_most_workers_tiles(self, data, submitted):
        chunks = data.csv_chunks(2)
        next(chunks)  # the header starts no pool
        assert submitted == []
        for taken in range(1, 10):
            next(chunks)
            assert len(submitted) == min(taken + 2, 9)
        chunks.close()

    def test_closing_early_joins_the_processes(self, data):
        import multiprocessing

        chunks = data.csv_chunks(2)
        next(chunks), next(chunks)
        assert multiprocessing.active_children() != []
        chunks.close()
        assert multiprocessing.active_children() == []

    def test_pool_tasks_keep_the_callers_error_state(self, data, monkeypatch):
        monkeypatch.setattr(
            protocol, "_tile_csv", lambda view, t_reprs, k, out: f"{sorted(np.geterr().items())}\n"
        )
        with np.errstate(over="raise", under="warn", divide="ignore", invalid="raise"):
            expected = f"{sorted(np.geterr().items())}\n"
            assert set(list(data.csv_chunks(2))[1:]) == {expected}

    def test_library_default_is_serial(self, data, submitted, monkeypatch):
        # forking a caller that runs other threads is unsafe; only the CLI pools by default
        monkeypatch.setattr(protocol, "PARALLEL_MIN_DRAWS", 0)
        monkeypatch.setattr(protocol, "_available_cpus", lambda: 4)
        assert protocol.default_workers(data.samples.size) == 4
        assert list(data.csv_chunks()) == list(data.csv_chunks(1))
        assert "".join(data.csv_chunks()) == "".join(data.csv_chunks(4))
        assert submitted == list(range(9))  # the explicit csv_chunks(4) only

    def test_no_fork_runs_serially(self, data, submitted, monkeypatch):
        import multiprocessing

        monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
        assert list(data.csv_chunks(2)) == list(data.csv_chunks(1))
        assert submitted == []

    @pytest.mark.parametrize("workers", [0, -1])
    def test_rejects_workers_below_one(self, data, workers):
        with pytest.raises(DomainError, match="workers must be >= 1"):
            next(data.csv_chunks(workers))


class TestMomentsEngine:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_memory_does_not_grow_with_runs(self, silica, ground, workers):
        def peak(tiles):
            config = CampaignConfig((0.5,), tiles * protocol.TILE_RUNS, rng_seed=7)
            tracemalloc.start()
            try:
                run_campaign(config, Scenario(silica, ground), workers=workers)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        run_campaign(make_config(), Scenario(silica, ground))  # imports done before measuring
        assert peak(6) <= 1.25 * peak(2)

    def test_shape_and_size_draw_nothing(self, silica, ground, monkeypatch):
        import scipy.special

        ndtri = scipy.special.ndtri
        calls = []

        def counting_ndtri(*args, **kwargs):
            calls.append(1)
            return ndtri(*args, **kwargs)

        samples = run_campaign(make_config(), Scenario(silica, ground)).samples
        monkeypatch.setattr(scipy.special, "ndtri", counting_ndtri)
        assert samples.shape == (3, 100)
        assert samples.size == 300
        assert len(samples) == 3
        assert calls == []
        samples[0]  # one row of one tile
        assert len(calls) == 1

    def test_pool_runs_one_task_per_worker(self, silica, ground, monkeypatch):
        submitted = []

        class RecordingPool(ThreadPoolExecutor):
            def submit(self, *args, **kwargs):
                submitted.append(args)
                return super().submit(*args, **kwargs)

        monkeypatch.setattr(protocol, "TILE_RUNS", 4)
        config = make_config(runs_per_time=1001)  # 3 x 251 tiles
        serial = run_campaign(config, Scenario(silica, ground))
        monkeypatch.setattr(protocol, "ThreadPoolExecutor", RecordingPool)
        pooled = run_campaign(config, Scenario(silica, ground), workers=2)
        assert 1 <= len(submitted) <= 2
        assert np.array_equal(serial.var_hat, pooled.var_hat)

    def test_rows_are_redrawn_identically(self, silica, ground):
        samples = run_campaign(make_config(runs_per_time=1001), Scenario(silica, ground)).samples
        whole = np.asarray(samples)
        assert np.array_equal(samples[-1], whole[2])
        assert all(np.array_equal(a, b) for a, b in zip(samples, whole))
        with pytest.raises(IndexError):
            samples[3]

    def test_more_workers_than_cores_lose_no_tile(self, silica, ground, monkeypatch):
        # 753 tiles shared by 8 threads that switch every microsecond: a tile
        # drawn twice or skipped leaves a stale record and moves var_hat
        monkeypatch.setattr(protocol, "TILE_RUNS", 4)
        config = make_config(runs_per_time=1001)
        serial = run_campaign(config, Scenario(silica, ground))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            pooled = run_campaign(config, Scenario(silica, ground), workers=8)
        finally:
            sys.setswitchinterval(interval)
        assert np.array_equal(serial.var_hat, pooled.var_hat)


class TestRunPrefixes:
    """``run_counts``: the row variances of a campaign's first m runs."""

    @pytest.mark.parametrize("workers", [1, 2])
    def test_prefix_equals_the_shorter_campaign(self, silica, ground, monkeypatch, workers):
        # tiles of 4 runs, N = 13: counts end mid-tile, on a tile boundary,
        # several tiles in and at N, in the ragged last tile
        monkeypatch.setattr(protocol, "TILE_RUNS", 4)
        config = make_config(runs_per_time=13)
        counts = (11, 2, 3, 4, 6, 8, 12, 13, 4)
        data = run_campaign(config, Scenario(silica, ground), workers=workers, run_counts=counts)
        assert sorted(data.var_hats) == sorted(set(counts))
        for m in counts:
            shorter = run_campaign(replace(config, runs_per_time=m), Scenario(silica, ground))
            assert np.array_equal(data.var_hats[m], shorter.var_hat)
        assert data.var_hat is data.var_hats[13]

    def test_more_workers_than_cores_lose_no_cut(self, silica, ground, monkeypatch):
        # 753 tiles, 3 of every 251 cut, shared by 8 threads that switch
        # every microsecond: a lost cut record moves that prefix's variance
        monkeypatch.setattr(protocol, "TILE_RUNS", 4)
        config = make_config(runs_per_time=1001)
        counts = (7, 501, 998, 1001)
        serial = run_campaign(config, Scenario(silica, ground), run_counts=counts)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            pooled = run_campaign(config, Scenario(silica, ground), workers=8, run_counts=counts)
        finally:
            sys.setswitchinterval(interval)
        assert all(np.array_equal(serial.var_hats[m], pooled.var_hats[m]) for m in counts)

    def test_default_is_all_runs(self, silica, ground):
        data = run_campaign(make_config(), Scenario(silica, ground))
        assert list(data.var_hats) == [100]

    @pytest.mark.parametrize("m", [1, 101])
    def test_count_outside_the_campaign_rejected(self, silica, ground, m):
        with pytest.raises(DomainError, match="run counts"):
            run_campaign(make_config(), Scenario(silica, ground), run_counts=(50, m))

    def test_no_counts_draw_nothing(self, silica, ground, monkeypatch):
        import scipy.special

        calls = []
        ndtri = scipy.special.ndtri
        monkeypatch.setattr(
            scipy.special, "ndtri", lambda *a, **k: calls.append(1) or ndtri(*a, **k)
        )
        data = run_campaign(make_config(), Scenario(silica, ground), run_counts=())
        assert calls == [] and data.var_hats == {}
        with pytest.raises(KeyError):
            data.var_hat
        full = run_campaign(make_config(), Scenario(silica, ground))
        assert list(data.csv_chunks()) == list(full.csv_chunks())


class TestSelectedRows:
    """``rows``: draw and merge only some grid rows, each as the full campaign does."""

    @pytest.mark.parametrize("workers", [1, 8])
    def test_rows_equal_the_full_campaigns_rows(self, silica, ground, workers):
        # two tiles per row; counts end mid-tile in either tile, on the tile
        # boundary and in the ragged last tile
        config = make_config(time_grid=(0.0, 1.0, 2.0, 5.0, 10.0), runs_per_time=70_001)
        counts = (2, 40_000, protocol.TILE_RUNS, 66_000, 70_001)
        full = run_campaign(config, Scenario(silica, ground), run_counts=counts)
        data = run_campaign(
            config, Scenario(silica, ground), workers=workers, run_counts=counts, rows=(3, 1, 3)
        )
        for m in counts:
            assert data.var_hats[m].tobytes() == full.var_hats[m][[1, 3]].tobytes()
        assert data.samples.shape == (5, 70_001)
        assert np.array_equal(data.samples.sigmas, full.samples.sigmas)

    def test_every_row_is_the_default(self, silica, ground):
        config = make_config()
        full = run_campaign(config, Scenario(silica, ground), rows=range(3))
        assert np.array_equal(full.var_hat, run_campaign(config, Scenario(silica, ground)).var_hat)

    # empty, out of [0, 3), not integers, not a sequence
    @pytest.mark.parametrize("rows", [(), [-1], (0, 3), (1.0,), ("0",), 2])
    def test_bad_rows_rejected(self, silica, ground, rows):
        with pytest.raises(DomainError, match="^rows must"):
            run_campaign(make_config(), Scenario(silica, ground), rows=rows)
