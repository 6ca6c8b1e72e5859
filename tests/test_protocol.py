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
    run_campaign,
)
from waxsim import dynamics, protocol

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
    @pytest.mark.parametrize(
        "model, where",
        [
            # (drift t)^2 overflows to inf, first at t = 1 s
            (dict(drift_velocity_std=1e160), r" at t = 1\.0 s"),
            # the noise's square is finite; the tile's squared deviations are
            # not, and only the merged variances show it
            (dict(measurement_noise=1e154), ""),
        ],
        ids=["drift", "merged"],
    )
    def test_overflowing_variance_is_refused(self, silica, ground, model, where):
        # numpy is told only to stay quiet
        scenario = Scenario(silica, ground, **model)
        message = f"^sample variance overflows double precision{where}$"
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericalError, match=message):
                run_campaign(make_config(), scenario)

    # a dump merges no variance; it and the widths refuse before drawing a tile
    @pytest.mark.parametrize("run_counts", [(), None], ids=["dump", "widths"])
    def test_overflowing_draw_variance_is_refused(self, silica, ground, monkeypatch, run_counts):
        drawn = []
        monkeypatch.setattr(protocol, "_draw_tile", lambda *args: drawn.append(args))
        # (drift t)^2 overflows at t = 1 s only
        scenario = Scenario(silica, ground, drift_velocity_std=1e200)
        message = r"^sample variance overflows double precision at t = 1\.0 s$"
        with np.errstate(over="ignore"):
            with pytest.raises(NumericalError, match=message):
                run_campaign(CampaignConfig((0.0, 1.0), 3, 1), scenario, run_counts=run_counts)
        assert drawn == []

    @pytest.mark.parametrize("workers", [1, 2])
    def test_pool_tasks_keep_the_callers_error_state(self, silica, ground, workers):
        # the tile sums of squares overflow; numpy's error state is per thread.
        # Only a raised overflow names its time: a thread that warned instead
        # would fail the test with the RuntimeWarning
        config = make_config(time_grid=(10.0,), runs_per_time=1000)
        scenario = Scenario(silica, ground, drift_velocity_std=1e152)
        message = r"^sample variance overflows double precision at t = 10\.0 s$"
        with np.errstate(over="raise"):
            with pytest.raises(NumericalError, match=message):
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

    def test_ground_state_width_at_release(self, silica, no_gas):
        config = make_config(time_grid=(0.0, 1.0), runs_per_time=100_000, rng_seed=5)
        off = ChannelToggles(blackbody=False)
        data = run_campaign(config, Scenario(silica, no_gas, toggles=off))
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
        off = run_campaign(config, Scenario(silica, space, CSLParams(collapse_rate=0.0)))
        on = run_campaign(config, Scenario(silica, space, csl, ChannelToggles()))
        assert np.var(on.samples[0]) > np.var(off.samples[0])


class TestEstimateWidth:
    """The widths that ``campaign_curve`` estimates from each row's variance."""

    def test_standard_error_formula(self, silica, ground):
        config = make_config(time_grid=(2.0,), runs_per_time=50, rng_seed=2)
        (est,) = campaign_curve(config, Scenario(silica, ground))
        var_hat = run_campaign(config, Scenario(silica, ground)).var_hat[0]
        assert est.sigma_hat == math.sqrt(var_hat)
        assert est.standard_error == est.sigma_hat * math.sqrt(1.0 / (2.0 * (50 - 1)))
        assert est.sample_count == 50

    def test_error_halves_when_n_quadruples(self, silica, ground):
        small, big = (
            campaign_curve(make_config(time_grid=(1.0,), runs_per_time=n), Scenario(silica, ground))
            for n in (20_000, 80_000)
        )
        # sigma_hat agrees to its 0.5 % sampling error, a quarter the variance SE
        assert abs(big[0].standard_error / small[0].standard_error - 0.5) < 0.02

    def test_calibration_four_sigma(self, silica, ground):
        # |sigma_hat - sigma| < 4 SE in at least 99% of seeded repetitions
        sigma = math.sqrt(Scenario(silica, ground).variance(np.array([1.0]))[0])
        hits = 0
        reps = 1000
        for seed in range(reps):
            config = make_config(time_grid=(1.0,), runs_per_time=50, rng_seed=seed)
            (est,) = campaign_curve(config, Scenario(silica, ground))
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
            for est, sigma in zip(campaign_curve(config, Scenario(silica, ground)), truth):
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

    # the default pools from PARALLEL_MIN_DRAWS drawn rows x N on, on more
    # than one CPU; 3 times x 10 runs is 30 draws, one row of them 10
    @pytest.mark.parametrize(
        "cpus, runs, rows, pools",
        [(2, 9, None, []), (2, 10, None, [2]), (1, 10, None, []), (2, 10, (0,), [])],
    )
    def test_default_pools_from_the_drawn_rows_threshold(
        self, silica, ground, monkeypatch, cpus, runs, rows, pools
    ):
        requested = self.record_pools(monkeypatch, cpus=cpus)
        monkeypatch.setattr(protocol, "PARALLEL_MIN_DRAWS", 30)
        monkeypatch.setattr(protocol, "TILE_RUNS", 4)
        run_campaign(make_config(runs_per_time=runs), Scenario(silica, ground), rows=rows)
        assert requested == pools


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
        monkeypatch.setattr(dynamics, "_physical_memory", lambda: 71)
        with pytest.raises(DomainError, match="physical memory"):
            run_campaign(make_config(), Scenario(silica, ground))
        monkeypatch.setattr(dynamics, "_physical_memory", lambda: 72)
        samples = run_campaign(make_config(), Scenario(silica, ground)).samples
        # materialising the 3 x 100 doubles needs 2400 bytes
        with pytest.raises(DomainError, match="physical memory"):
            np.asarray(samples)
        monkeypatch.setattr(dynamics, "_physical_memory", lambda: 2400)
        assert np.asarray(samples).shape == (3, 100)

    def test_unknown_physical_memory_skips_the_check(self, silica, ground, monkeypatch):
        monkeypatch.setattr(dynamics, "_physical_memory", lambda: None)
        samples = run_campaign(make_config(), Scenario(silica, ground)).samples
        assert np.asarray(samples).shape == (3, 100)


class TestInProcessDump:
    """``csv_chunks()`` re-draws and formats each tile in this process as it is taken."""

    @pytest.fixture
    def data(self, silica, ground, monkeypatch):
        # 3 times x 3 tiles of at most 4 runs; the last tile of each row is ragged
        monkeypatch.setattr(protocol, "TILE_RUNS", 4)
        return run_campaign(make_config(runs_per_time=10), Scenario(silica, ground))

    @pytest.fixture
    def drawn(self, monkeypatch):
        """The grid index and first run of each tile the samples view draws, in order."""
        tiles = []
        draw_tile = protocol.CampaignSamples.draw_tile

        def recording(view, i, a, out):
            tiles.append((i, a))
            return draw_tile(view, i, a, out)

        monkeypatch.setattr(protocol.CampaignSamples, "draw_tile", recording)
        return tiles

    # a short tile, one whole tile, one run past it, two whole tiles, a ragged third
    @pytest.mark.parametrize("runs", [2, 4, 5, 8, 9])
    def test_lines_give_back_the_samples(self, silica, ground, monkeypatch, runs):
        monkeypatch.setattr(protocol, "TILE_RUNS", 4)
        data = run_campaign(make_config(runs_per_time=runs), Scenario(silica, ground))
        samples = np.asarray(data.samples)
        chunks = list(data.csv_chunks())
        assert len(chunks) == 1 + 3 * math.ceil(runs / 4)
        lines = "".join(chunks[1:]).splitlines()
        assert [line.rsplit(",", 1)[0] for line in lines] == [
            f"{t!r},{r}" for t in data.times.tolist() for r in range(runs)
        ]
        xs = np.array([float(line.rsplit(",", 1)[1]) for line in lines])
        assert xs.tobytes() == samples.ravel().tobytes()

    def test_each_tile_is_drawn_when_its_chunk_is_taken(self, data, drawn):
        chunks = data.csv_chunks()
        assert next(chunks) == "t_s,run_index,x_m\n"
        assert drawn == []  # the header draws nothing
        tiles = [(i, a) for i in range(3) for a in (0, 4, 8)]
        for taken in range(9):
            next(chunks)
            assert drawn == tiles[: taken + 1]
        with pytest.raises(StopIteration):
            next(chunks)

    def test_closing_early_draws_no_more_tiles(self, data, drawn):
        chunks = data.csv_chunks()
        next(chunks), next(chunks)
        chunks.close()
        assert drawn == [(0, 0)]
        with pytest.raises(StopIteration):
            next(chunks)

    def test_interleaved_dumps_share_no_buffer(self, data):
        first, second = data.csv_chunks(), data.csv_chunks()
        pairs = list(zip(first, second))
        assert [a for a, _ in pairs] == [b for _, b in pairs] == list(data.csv_chunks())

    @pytest.mark.parametrize("state", ["raise", "warn", "ignore"])
    def test_chunks_under_the_callers_error_state(self, data, state):
        # the kernel's bytes do not depend on the caller's numpy error state,
        # and taking the chunks leaves that state as it was
        expected = list(data.csv_chunks())
        with np.errstate(all=state):
            before = np.geterr()
            assert list(data.csv_chunks()) == expected
            assert np.geterr() == before

    def test_repr_fallback_gives_the_kernel_bytes(self, data, monkeypatch):
        from waxsim import _dumpfmt

        kernel = list(data.csv_chunks())
        monkeypatch.setattr(_dumpfmt, "all_normal", lambda xs: False)
        assert list(data.csv_chunks()) == kernel

    def test_takes_no_workers(self, data):
        with pytest.raises(TypeError):
            data.csv_chunks(2)
        assert not hasattr(protocol, "default_workers")


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

    def test_refused_thread_is_a_domain_error(self, silica, ground, monkeypatch):
        def refuse(thread):
            raise RuntimeError("can't start new thread")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        refused = r"^cannot start 2 sampling threads: can't start new thread$"
        with pytest.raises(DomainError, match=refused):
            run_campaign(make_config(), Scenario(silica, ground), workers=2)

    def test_started_threads_stop_when_one_is_refused(self, silica, ground, monkeypatch):
        # the first thread starts and is held in its first tile until the pool
        # shuts down; the host refuses the second. The first must then draw
        # no further tile of the 3 x 25
        monkeypatch.setattr(protocol, "TILE_RUNS", 4)
        start, shutdown = threading.Thread.start, ThreadPoolExecutor.shutdown
        draw = protocol._draw_tile
        started, drawn, released = [], [], threading.Event()

        def start_one(thread):
            if started:
                raise RuntimeError("can't start new thread")
            started.append(thread)
            start(thread)

        def releasing(pool, *args, **kwargs):
            released.set()
            return shutdown(pool, *args, **kwargs)

        def held(*args):
            released.wait(timeout=60)
            drawn.append(args[2:4])
            return draw(*args)

        monkeypatch.setattr(threading.Thread, "start", start_one)
        monkeypatch.setattr(ThreadPoolExecutor, "shutdown", releasing)
        monkeypatch.setattr(protocol, "_draw_tile", held)
        with pytest.raises(DomainError, match="^cannot start 2 sampling threads"):
            run_campaign(make_config(), Scenario(silica, ground), workers=2)
        assert len(started) == 1
        assert drawn in ([], [(0, 0)])

    def test_pool_buffers_beyond_physical_memory_are_refused(self, silica, ground, monkeypatch):
        # 3 tiles of 100 runs: a pool of at least 3 threads holds two tiles of
        # doubles each, 4800 bytes (the 72 bytes of moments fit); refused
        # before any thread starts
        def no_thread(thread):
            raise AssertionError("a thread started")

        start = threading.Thread.start
        monkeypatch.setattr(threading.Thread, "start", no_thread)
        monkeypatch.setattr(dynamics, "_physical_memory", lambda: 4799)
        buffers = r"^sampling buffers \(3 threads x 2 x 100 doubles\) would take"
        with pytest.raises(DomainError, match=buffers):
            run_campaign(make_config(), Scenario(silica, ground), workers=10**6)
        # the serial path holds one tile's buffers, as before
        serial = run_campaign(make_config(), Scenario(silica, ground))
        monkeypatch.setattr(threading.Thread, "start", start)
        monkeypatch.setattr(dynamics, "_physical_memory", lambda: 4800)
        pooled = run_campaign(make_config(), Scenario(silica, ground), workers=10**6)
        assert np.array_equal(serial.var_hat, pooled.var_hat)

    def test_rows_are_redrawn_identically(self, silica, ground):
        samples = run_campaign(make_config(runs_per_time=1001), Scenario(silica, ground)).samples
        whole = np.asarray(samples)
        assert np.array_equal(samples[-1], whole[2])
        assert all(np.array_equal(a, b) for a, b in zip(samples, whole))
        with pytest.raises(IndexError):
            samples[3]

    def test_sigmas_are_read_only(self, silica, ground):
        # the rows re-drawn are those the widths came from; seeds of one
        # scenario and grid share the array
        data = run_campaign(make_config(), Scenario(silica, ground))
        with pytest.raises(ValueError, match="read-only"):
            data.samples.sigmas[2] = 1.0
        assert np.var(data.samples[2], ddof=1) == data.var_hat[2]

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

    @pytest.mark.parametrize("workers", [1, 3])
    @pytest.mark.parametrize("rows, drawn", [(None, 3), ((2, 0), 2)])
    def test_each_tile_moments_computed_once(
        self, silica, ground, monkeypatch, workers, rows, drawn
    ):
        # tiles of 4, 4, 4 and 3 runs: one _tile_moments per drawn tile, plus
        # one per drawn row and count that ends inside its tile (2, 3, 5, 11,
        # and 13 and 14 in the ragged last tile); 4, 8, 12 and 15 end with
        # their tile and take its moments
        monkeypatch.setattr(protocol, "TILE_RUNS", 4)
        sizes = []
        tile_moments = protocol._tile_moments

        def counting(out, dev):
            sizes.append(out.size)
            return tile_moments(out, dev)

        monkeypatch.setattr(protocol, "_tile_moments", counting)
        counts = (2, 3, 4, 5, 8, 11, 12, 13, 14, 15)
        config = make_config(runs_per_time=15)
        run_campaign(config, Scenario(silica, ground), workers, run_counts=counts, rows=rows)
        per_row = [4, 4, 4, 3] + [2, 3, 1, 3, 1, 2]
        assert sorted(sizes) == sorted(per_row * drawn)

    def test_default_is_all_runs(self, silica, ground):
        data = run_campaign(make_config(), Scenario(silica, ground))
        assert list(data.var_hats) == [100]

    @pytest.mark.parametrize("m", [1, 101])
    def test_count_outside_the_campaign_rejected(self, silica, ground, m):
        with pytest.raises(DomainError, match="run counts"):
            run_campaign(make_config(), Scenario(silica, ground), run_counts=(50, m))

    # not integers, not a sequence
    @pytest.mark.parametrize("counts", [(5.0,), ("5",), (50, None), 5])
    def test_counts_that_are_not_integers_rejected(self, silica, ground, counts):
        with pytest.raises(DomainError, match="^run_counts must be a sequence of integers"):
            run_campaign(make_config(), Scenario(silica, ground), run_counts=counts)

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
