"""Monte-Carlo simulation of the release-expand-measure experimental cycle.

A campaign repeats the cycle N times per grid time: prepare the trapped state,
release, let the packet expand for t, record the position along the
measurement axis, retrap. Each recorded position is a draw from a zero-mean
normal whose variance is the model position variance at t plus two optional
instrumental terms,

    var_total(t) = x_var(t) + (drift_velocity_std * t)^2 + measurement_noise^2,

covering run-to-run center-of-mass velocity scatter and readout noise. Runs
are independent (fresh preparation each cycle).

Randomness contract: the stream for grid index i is a Philox counter-based
generator keyed by (seed, i); run r consumes the r-th uniform of that stream,
mapped through the inverse normal CDF. Sampling works on fixed tiles: one
grid index and a block of ``TILE_RUNS`` runs starting at a multiple of
``TILE_RUNS``. A tile builds the (seed, i) stream itself and skips to its
first run with ``Philox.advance(a // 4)``, which is exact because Philox
yields four 64-bit words per counter step and each uniform takes one word.
Tile boundaries depend on neither the thread count nor the machine, so results
are reproducible bit-for-bit for a given seed however the tiles are scheduled.
An explicit ``workers`` above 1 runs the tiles on a pool of that many
threads. By default, campaigns of at least ``PARALLEL_MIN_DRAWS`` draws use
one thread per available CPU and smaller campaigns run serially.
``workers`` only changes wall time, never output.

Widths come from tile moments: each tile returns its run count, mean and
sum of squared deviations, computed on the thread that drew it, and a row's
tiles are merged in tile order, first half with second half, with the
pairwise update of Chan, Golub & LeVeque (Am. Stat. 37(3), 1983). The
sample variance therefore depends on ``TILE_RUNS`` but not on ``workers``;
a row of one tile gets exactly the value of ``np.var(row, ddof=1)``.

The raw-sample CSV is produced by ``PositionSamples.csv_chunks`` on the same
tiles: the header, then one string per tile, so a caller that writes each
chunk as it comes (``waxsim campaign --dump-samples``) holds O(tile) CSV
text, whatever the campaign size. ``PositionSamples.to_csv`` joins the
chunks. ``run_campaign`` refuses, with ``DomainError``, a sample array
larger than the host's physical memory.
"""
from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .decoherence import ChannelToggles, CSLParams, total_budget
from .dynamics import _x_var_free, check_time_grid, initial_state
from .errors import DomainError
from .materials import DEFAULT_TRAP_FREQUENCY, Environment, Particle


@dataclass(frozen=True)
class CampaignConfig:
    """Measurement plan for one campaign.

    Attributes
    ----------
    time_grid : tuple of float
        Expansion times [s]; non-empty, non-negative, strictly increasing.
    runs_per_time : int
        Repetitions N per grid time, >= 2 so a variance is estimable.
    measurement_noise : float
        Position-readout standard deviation [m], >= 0.
    drift_velocity_std : float
        Run-to-run center-of-mass velocity spread [m/s], >= 0.
    occupancy : float
        Mean phonon number of the prepared trap state, >= 0.
    rng_seed : int
        64-bit campaign seed.
    """

    time_grid: tuple[float, ...]
    runs_per_time: int
    measurement_noise: float = 0.0
    drift_velocity_std: float = 0.0
    occupancy: float = 0.0
    rng_seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "time_grid", tuple(float(t) for t in self.time_grid))
        check_time_grid(self.time_grid)
        if self.runs_per_time < 2:
            raise DomainError(
                f"runs_per_time must be >= 2, got {self.runs_per_time}"
            )
        check_noise(self.measurement_noise, self.drift_velocity_std)
        if self.occupancy < 0.0:
            raise DomainError("occupancy must be >= 0")


@dataclass(frozen=True)
class PositionSamples:
    """Synthetic position records, one row of ``samples`` per grid time.

    ``true_sigmas`` holds the total standard deviation each row was drawn
    with (model width plus drift and readout terms). ``var_hat`` holds each
    row's unbiased (ddof=1) sample variance, merged from tile moments.
    """

    times: np.ndarray
    samples: np.ndarray  # shape (len(times), runs_per_time)
    true_sigmas: np.ndarray
    var_hat: np.ndarray

    def csv_chunks(self) -> Iterator[str]:
        """Raw-sample CSV in pieces: the header, then one string per tile.

        A tile is one grid time and runs ``[a, a + TILE_RUNS)``, as in
        :func:`run_campaign`, so a chunk holds at most ``TILE_RUNS`` lines
        and writing the chunks one by one needs O(tile) memory.
        """
        yield "t_s,run_index,x_m\n"
        for t, row in zip(self.times, self.samples):
            t_repr = repr(float(t))
            for a in range(0, row.size, TILE_RUNS):
                xs = row[a : a + TILE_RUNS].tolist()
                yield "".join([f"{t_repr},{r},{x!r}\n" for r, x in enumerate(xs, a)])

    def to_csv(self) -> str:
        """Raw-sample CSV: header ``t_s,run_index,x_m``."""
        return "".join(self.csv_chunks())


@dataclass(frozen=True)
class WidthEstimate:
    """Estimated wave-packet width at one grid time."""

    t: float
    sigma_hat: float
    standard_error: float
    sample_count: int

    def __post_init__(self) -> None:
        if self.sample_count < 2:
            raise DomainError("sample_count must be >= 2")
        if self.sigma_hat < 0.0 or self.standard_error < 0.0:
            raise DomainError("sigma_hat and standard_error must be >= 0")


# runs per tile; a multiple of 4, so a tile starts on a Philox counter step
TILE_RUNS = 2**16
# by default, campaigns with fewer draws (T x N) than this run their tiles
# serially: on a 2-core host two threads were slower than one up to 168 k
# draws (21 x 8000) and faster from 210 k (21 x 10000) on
PARALLEL_MIN_DRAWS = 2**18


def check_noise(measurement_noise: float, drift_velocity_std: float) -> None:
    """Reject a negative readout noise or velocity spread.

    Both enter the variance model squared, so a negative value would
    silently act as its absolute value.
    """
    if measurement_noise < 0.0:
        raise DomainError("measurement_noise must be >= 0")
    if drift_velocity_std < 0.0:
        raise DomainError("drift_velocity_std must be >= 0")


def check_workers(workers: int | None, name: str = "workers") -> None:
    """Reject a thread count below 1; ``None`` means the default."""
    if workers is not None and workers < 1:
        raise DomainError(f"{name} must be >= 1, got {workers}")


def _physical_memory() -> int | None:
    """Bytes of physical memory, or None where ``sysconf`` cannot tell."""
    try:
        return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, ValueError, OSError):  # no sysconf, or no such name
        return None


def _available_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not on every platform
        return os.cpu_count() or 1


def _total_variance(
    times: np.ndarray,
    particle: Particle,
    env: Environment,
    csl: CSLParams | None,
    toggles: ChannelToggles,
    trap_frequency: float,
    occupancy: float,
    measurement_noise: float,
    drift_velocity_std: float,
) -> np.ndarray:
    """Per-draw variance at each time [m^2]: x_var(t) + (drift t)^2 + noise^2.

    The one variance model: campaigns sample with it, and the detection bound
    and its oracle predict with it, with the collapse channel off.
    """
    budget = total_budget(particle, env, csl, toggles)
    state0 = initial_state(particle, trap_frequency, occupancy)
    x_var = _x_var_free(state0, particle.mass, budget.total, times)
    return x_var + (drift_velocity_std * times) ** 2 + measurement_noise**2


def sampling_sigma(
    config: CampaignConfig,
    particle: Particle,
    env: Environment,
    csl: CSLParams | None = None,
    toggles: ChannelToggles = ChannelToggles(),
    trap_frequency: float = DEFAULT_TRAP_FREQUENCY,
) -> np.ndarray:
    """Total per-draw standard deviation at each grid time [m]."""
    return np.sqrt(
        _total_variance(
            np.asarray(config.time_grid),
            particle,
            env,
            csl,
            toggles,
            trap_frequency,
            config.occupancy,
            config.measurement_noise,
            config.drift_velocity_std,
        )
    )


def run_campaign(
    config: CampaignConfig,
    particle: Particle,
    env: Environment,
    csl: CSLParams | None = None,
    toggles: ChannelToggles = ChannelToggles(),
    trap_frequency: float = DEFAULT_TRAP_FREQUENCY,
    workers: int | None = None,
) -> PositionSamples:
    """Generate the synthetic position dataset for one campaign.

    Parameters
    ----------
    config : CampaignConfig
    particle, env, csl, toggles, trap_frequency
        Model inputs, as for :func:`waxsim.dynamics.expansion_curve`.
    workers : int, optional
        Thread count; more than 1 always samples on a pool of that many
        threads. The default is the available CPUs for campaigns of at
        least ``PARALLEL_MIN_DRAWS`` draws and 1 below. Output is
        byte-identical to the serial path.

    Returns
    -------
    PositionSamples
        With the full ``T x N`` sample array and each row's sample
        variance.

    Raises
    ------
    DomainError
        If ``workers`` is below 1, or the ``T x N`` sample array would not
        fit in the host's physical memory.
    """
    # imported here, before any worker starts, so that importing waxsim
    # does not load scipy
    from scipy.special import ndtri

    check_workers(workers)
    times = np.asarray(config.time_grid)
    sigmas = sampling_sigma(config, particle, env, csl, toggles, trap_frequency)
    n = config.runs_per_time
    # refuse what would only fit in swap or overcommitted virtual memory
    needed = 8 * times.size * n
    physical = _physical_memory()
    if physical is not None and needed > physical:
        raise DomainError(
            f"campaign needs {needed / 1e9:.3g} GB of samples ({times.size} x {n} "
            f"doubles), more than the {physical / 1e9:.3g} GB of physical memory"
        )
    samples = np.empty((times.size, n))
    tiles = ((i, a) for i in range(times.size) for a in range(0, n, TILE_RUNS))

    def fill(tile: tuple[int, int]) -> tuple[int, float, float]:
        """Draw one tile; return its run count, mean and sum of squared deviations."""
        i, a = tile
        key = np.random.SeedSequence(entropy=config.rng_seed, spawn_key=(i,))
        bitgen = np.random.Philox(key)
        if a:
            bitgen.advance(a // 4)
        out = samples[i, a : a + TILE_RUNS]
        np.random.Generator(bitgen).random(out=out)
        # random() is [0, 1); shift the measure-zero 0.0 away from ndtri's pole
        np.maximum(out, 2.0**-54, out=out)
        ndtri(out, out=out)
        out *= sigmas[i]
        # the operations of np.var, while the tile is in cache; no BLAS (out @ out),
        # whose threads would compete with the workers
        mean = np.add.reduce(out) / out.size
        dev = np.subtract(out, mean)
        np.multiply(dev, dev, out=dev)
        return out.size, mean, np.add.reduce(dev)

    if workers is None:
        workers = _available_cpus() if samples.size >= PARALLEL_MIN_DRAWS else 1
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            moments = list(pool.map(fill, tiles))
    else:
        moments = [fill(tile) for tile in tiles]
    per_row = len(moments) // times.size
    rows = (moments[k : k + per_row] for k in range(0, len(moments), per_row))
    var_hat = np.array([m2 / (n - 1) for _, _, m2 in map(_merged_moments, rows)])
    return PositionSamples(times, samples, sigmas, var_hat)


def _merged_moments(tiles: Sequence[tuple[int, float, float]]) -> tuple[int, float, float]:
    """``(n, mean, M2)`` of consecutive tiles, merged pairwise in tile order.

    The update of Chan, Golub & LeVeque (1983), applied to the two halves
    (the first one the longer), so rounding error grows with the log of the
    tile count. One tile is returned as it is.
    """
    if len(tiles) == 1:
        return tiles[0]
    half = (len(tiles) + 1) // 2
    n_a, mean_a, m2_a = _merged_moments(tiles[:half])
    n_b, mean_b, m2_b = _merged_moments(tiles[half:])
    n = n_a + n_b
    delta = mean_b - mean_a
    return n, mean_a + delta * (n_b / n), m2_a + (m2_b + delta * delta * (n_a * n_b / n))


def _width_estimate(t: float, variance: float, n: int) -> WidthEstimate:
    """Width estimate from an unbiased sample variance of ``n`` positions.

    sigma_hat is the square root of the variance. The standard error of the
    variance estimate is sigma_hat^2 sqrt(2/(N-1)) (normal sampling theory);
    propagating to sigma gives sigma_hat sqrt(1/(2(N-1))).
    """
    sigma_hat = math.sqrt(variance)
    return WidthEstimate(
        t=float(t),
        sigma_hat=sigma_hat,
        standard_error=sigma_hat * math.sqrt(1.0 / (2.0 * (n - 1))),
        sample_count=n,
    )


def estimate_width(t: float, samples: Sequence[float]) -> WidthEstimate:
    """Width estimate from the positions recorded at one grid time.

    sigma_hat is the square root of the unbiased (ddof=1) sample variance;
    its standard error is sigma_hat sqrt(1/(2(N-1))).
    """
    x = np.asarray(samples, dtype=float)
    if x.ndim != 1 or x.size < 2:
        raise DomainError("need at least 2 samples at one grid time")
    return _width_estimate(t, np.var(x, ddof=1), x.size)


def campaign_curve(
    config: CampaignConfig,
    particle: Particle,
    env: Environment,
    csl: CSLParams | None = None,
    toggles: ChannelToggles = ChannelToggles(),
    trap_frequency: float = DEFAULT_TRAP_FREQUENCY,
    workers: int | None = None,
) -> tuple[WidthEstimate, ...]:
    """Run a campaign and estimate the width at every grid time."""
    data = run_campaign(config, particle, env, csl, toggles, trap_frequency, workers)
    n = config.runs_per_time
    return tuple(_width_estimate(t, v, n) for t, v in zip(data.times, data.var_hat))


def campaign_to_csv(estimates: Sequence[WidthEstimate]) -> str:
    """CSV text: header ``t_s,sigma_hat_m,sigma_err_m,n_samples``."""
    lines = ["t_s,sigma_hat_m,sigma_err_m,n_samples"]
    for e in estimates:
        lines.append(
            f"{e.t!r},{e.sigma_hat!r},{e.standard_error!r},{e.sample_count}"
        )
    return "\n".join(lines) + "\n"
