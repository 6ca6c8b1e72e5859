"""Minimum detectable collapse rate from campaign statistics.

The collapse channel adds a variance excess that is exactly linear in the
collapse rate lambda,

    excess(lambda, t) = (2/3) hbar^2 Lambda_csl(lambda) t^3 / m^2,

on top of the standard-physics prediction. A campaign measures the sample
variance at each grid time with standard error var_std(t) sqrt(2/(N-1))
(normal sampling theory, N runs per time, var_std including the standard
decoherence channels plus drift and readout terms). The smallest detectable
rate is the lambda whose excess first exceeds ``confidence_z`` standard
errors:

``best-time`` aggregation (default)
    lambda_min = min over t of  z * SE_var(t) / (d excess / d lambda)(t)
    The minimizing time, ``best_time``, is picked from the model before any
    data exist, and a campaign is tested at that one time.

``chi-square-sum`` aggregation
    all grid times pooled,  sum_t (lambda s_t / SE_t)^2 = q  where
    q = chdtri(len(grid), Phi(-confidence_z)) is the chi-square quantile
    whose upper tail mass equals the one-sided normal tail at
    ``confidence_z``. Above z of about 37.6, Phi(-z) underflows to 0 and
    the threshold is rejected.

Both are closed-form because the excess is linear in lambda.
``bisect_lambda_mc`` validates the closed form end to end: it simulates
one campaign per seed through :mod:`waxsim.protocol`, finds the exact rate
at which each seed is detected at the same threshold, and returns the rate
with 50 percent detection power: the lower median of those rates.
``bisect_lambda_mc_sweep`` does this for every N of a sweep from one
campaign per seed at the largest N, reading each N from a run prefix.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .constants import LAMBDA_GRW, hbar
from .decoherence import ChannelToggles, CSLParams, lambda_csl
from .dynamics import DetectionConfig, Scenario, _check_runs, grid_times
from .errors import DomainError, NumericalError
from .materials import DEFAULT_TRAP_FREQUENCY, Environment, Particle
from .protocol import CampaignConfig, PositionSamples, _thread_map, run_campaign


@dataclass(frozen=True)
class DetectionResult:
    """Smallest detectable collapse rate for a given campaign size.

    ``lambda_min_grw`` reports the same rate in units of the historical
    reference value 1e-16 Hz; both must be finite.
    """

    lambda_min: float
    best_time: float
    n_per_time: int

    def __post_init__(self) -> None:
        if not (0.0 < self.lambda_min and math.isfinite(self.lambda_min_grw)):
            raise DomainError(
                f"lambda_min must be > 0 and finite in GRW units too, got {self.lambda_min}"
            )

    @property
    def lambda_min_grw(self) -> float:
        return self.lambda_min / LAMBDA_GRW


def variance_excess(
    collapse_rate: float,
    t: float,
    particle: Particle,
    csl_geometry: CSLParams,
) -> float:
    """Collapse-induced addition to the position variance at time t [m^2].

    (2/3) hbar^2 Lambda_csl t^3 / m^2, linear in ``collapse_rate``. Only the
    correlation length and reference mass of ``csl_geometry`` are used; its
    own rate is ignored in favor of the explicit argument.
    """
    if t < 0.0:
        raise DomainError(f"t must be >= 0, got {t}")
    if collapse_rate < 0.0:
        raise DomainError(f"collapse_rate must be >= 0, got {collapse_rate}")
    return collapse_rate * csl_sensitivity(t, particle, csl_geometry)


def csl_sensitivity(
    t: float | np.ndarray, particle: Particle, csl_geometry: CSLParams
) -> float | np.ndarray:
    """d(variance excess)/d(lambda) at time t [m^2/Hz], elementwise over an array.

    The cube is ``(t * t * t)``, the rule of the variance model, so one
    time gives the same bits alone or in an array, on any CPU.
    """
    rate_per_hz = lambda_csl(particle, replace(csl_geometry, collapse_rate=1.0))
    return (2.0 / 3.0) * hbar * hbar * rate_per_hz * (t * t * t) / particle.mass**2


def _chi_square_quantile(confidence_z: float, dof: int) -> float:
    """Chi-square threshold matching the one-sided z threshold's tail mass.

    ``chdtri`` inverts the upper tail directly, so the quantile stays exact
    where ``1 - alpha`` would round to 1. scipy is imported here so that
    importing waxsim does not load it.
    """
    from scipy.special import chdtri, ndtr

    alpha = ndtr(-confidence_z)
    if alpha <= 0.0:
        raise DomainError(
            f"confidence_z = {confidence_z!r} is too large for chi-square-sum "
            "aggregation: its tail probability underflows (limit about 37.6)"
        )
    return float(chdtri(dof, alpha))


def _detection_setup(
    n_per_time: int, time_grid: Sequence[float], detection: DetectionConfig, scenario: Scenario
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, float | None, int]:
    """Validated inputs and the standard-physics prediction of a detection.

    Returns ``(times, sens, var_std, se_var, q, best)``: the grid, the
    :func:`csl_sensitivity` at each time, the per-draw variance with the
    collapse channel off (drift and readout terms included), its standard
    error for N runs, the chi-square threshold (``None`` for best-time
    aggregation) and the index of the most sensitive time, the one time
    best-time aggregation tests.
    """
    _check_runs(n_per_time, "n_per_time")
    times = np.array(grid_times(time_grid))
    sens = csl_sensitivity(times, scenario.particle, scenario.csl)
    if not np.any(sens > 0.0):
        if np.any(times > 0.0):  # sensitivity ~ t^3 underflows at tiny times
            raise NumericalError(
                "collapse-rate sensitivity underflows to 0 at every grid time "
                f"(largest time {float(times[-1])!r} s)"
            )
        raise DomainError(
            "no sensitivity to the collapse rate: grid has no positive times"
        )
    var_std = replace(scenario, toggles=replace(scenario.toggles, csl=False)).variance(times)
    se_var = var_std * np.sqrt(2.0 / (n_per_time - 1))
    per_time = np.full(times.size, np.inf)
    usable = sens > 0.0
    per_time[usable] = detection.confidence_z * se_var[usable] / sens[usable]
    q = None
    if detection.aggregation == "chi-square-sum":
        q = _chi_square_quantile(detection.confidence_z, times.size)
    return times, sens, var_std, se_var, q, int(np.argmin(per_time))


def min_detectable_lambda(
    n_per_time: int,
    time_grid: Sequence[float],
    particle: Particle,
    env: Environment,
    csl_geometry: CSLParams = CSLParams(collapse_rate=0.0),
    toggles: ChannelToggles = ChannelToggles.standard(),
    detection: DetectionConfig = DetectionConfig(),
    trap_frequency: float = DEFAULT_TRAP_FREQUENCY,
    occupancy: float = 0.0,
    measurement_noise: float = 0.0,
    drift_velocity_std: float = 0.0,
) -> DetectionResult:
    """Closed-form smallest detectable collapse rate.

    Parameters
    ----------
    n_per_time : int
        Campaign repetitions N per grid time, >= 2.
    time_grid : sequence of float
        Expansion times [s]; non-empty, non-negative, strictly increasing
        and containing at least one t > 0.
    csl_geometry : CSLParams
        Correlation length and reference mass of the collapse model under
        test (its rate field is unused).
    toggles : ChannelToggles
        Standard channels present in the background model.
    detection : DetectionConfig
    trap_frequency, occupancy, measurement_noise, drift_velocity_std
        Preparation and noise model, as in :class:`waxsim.dynamics.Scenario`.

    Returns
    -------
    DetectionResult
        ``best_time`` is the most sensitive grid time (the minimizer for
        best-time aggregation).
    """
    scenario = Scenario(
        particle, env, csl_geometry, toggles, trap_frequency, occupancy,
        measurement_noise, drift_velocity_std,
    )
    times, sens, _, se_var, q, best = _detection_setup(n_per_time, time_grid, detection, scenario)
    if q is None:
        lam = float(detection.confidence_z * se_var[best] / sens[best])
    else:
        usable = sens > 0.0
        lam = float(np.sqrt(q / np.sum((sens[usable] / se_var[usable]) ** 2)))
    return DetectionResult(
        lambda_min=lam, best_time=float(times[best]), n_per_time=n_per_time
    )


def _over_seeds(
    read: Callable[[PositionSamples], object],
    seeds: Sequence[int],
    collapse_rate: float,
    n_per_time: int,
    times: np.ndarray,
    scenario: Scenario,
    workers: int | None = None,
    run_counts: Sequence[int] | None = None,
) -> list:
    """``read`` of one simulated campaign per seed, in seed order.

    The campaigns simulate ``scenario`` with the collapse channel on at
    ``collapse_rate``. An explicit ``workers`` above 1 runs the seeds'
    campaigns on one pool of that many threads, each campaign serial;
    otherwise the seeds run one after another and ``workers`` goes to each
    :func:`waxsim.protocol.run_campaign`.
    """
    if not seeds:
        raise DomainError("seeds must be non-empty")
    simulated = replace(
        scenario,
        csl=replace(scenario.csl, collapse_rate=collapse_rate),
        toggles=replace(scenario.toggles, csl=True),
    )
    pooled = workers is not None and workers > 1

    def one(seed: int) -> object:
        plan = CampaignConfig(times, n_per_time, int(seed))
        return read(run_campaign(plan, simulated, 1 if pooled else workers, run_counts))

    if pooled:
        return _thread_map(one, seeds, workers)
    return [one(seed) for seed in seeds]


def detection_power_mc(
    collapse_rate: float,
    n_per_time: int,
    time_grid: Sequence[float],
    scenario: Scenario,
    detection: DetectionConfig = DetectionConfig(),
    seeds: Sequence[int] = (),
) -> float:
    """Monte-Carlo detection probability at a given collapse rate.

    Simulates one campaign per seed with the collapse channel active at
    ``collapse_rate``, compares the sample variance against the
    standard-physics prediction at ``best_time`` (best-time) or at every
    grid time (chi-square-sum), and applies the threshold
    ``confidence_z``. Returns the detected fraction.
    """
    times, _, var_std, se_var, q, best = _detection_setup(
        n_per_time, time_grid, detection, scenario
    )

    def detected(data: PositionSamples) -> bool:
        z = (data.var_hat - var_std) / se_var
        if q is None:
            return bool(z[best] >= detection.confidence_z)
        return bool(np.sum(z**2) >= q)

    hits = _over_seeds(detected, seeds, collapse_rate, n_per_time, times, scenario)
    return sum(hits) / len(seeds)


def _critical_rate(
    var_hat: np.ndarray,
    v0: np.ndarray,
    sens: np.ndarray,
    var_std: np.ndarray,
    se_var: np.ndarray,
    detection: DetectionConfig,
    q: float | None,
    best: int,
) -> float:
    """Smallest rate at which one seed's campaign is detected.

    ``var_hat`` is the seed's sample variance at rate 0 and ``v0`` the true
    variance it was drawn with. With common random numbers the sample
    variance at rate lambda is ``w * (v0 + lambda * sens)``, ``w = var_hat /
    v0``, so the z-score at each time is linear in lambda:
    ``(a + lambda * b) / se_var`` with ``a = var_hat - var_std`` and
    ``b = w * sens``. Best-time aggregation tests grid index ``best`` only,
    where ``sens`` is positive.
    """
    a = var_hat - var_std
    b = var_hat / v0 * sens
    if q is None:
        return max(float((detection.confidence_z * se_var[best] - a[best]) / b[best]), 0.0)
    # upper root of sum_t ((a + lambda b) / se)^2 = q, written
    # A lambda^2 + 2 B lambda + C = 0 and solved without cancellation
    a, b = a / se_var, b / se_var
    quad, half_lin, const = np.sum(b * b), np.sum(a * b), np.sum(a * a) - q
    disc = half_lin * half_lin - quad * const
    if disc < 0.0:
        return 0.0
    root = math.sqrt(disc)
    if half_lin <= 0.0:
        upper = (root - half_lin) / quad
    else:
        upper = -const / (half_lin + root)
    return max(upper, 0.0)


def bisect_lambda_mc(
    n_per_time: int,
    time_grid: Sequence[float],
    scenario: Scenario,
    detection: DetectionConfig = DetectionConfig(),
    seeds: Sequence[int] = (),
    workers: int | None = None,
) -> float:
    """Smallest collapse rate with Monte-Carlo detection power >= 1/2.

    Simulates each seed's campaign once, at collapse rate 0 with the
    collapse channel on. Under common random numbers a seed's sample
    variance at rate lambda is ``w_t * (v0_t + lambda * sens_t)``, where
    ``w_t = var_hat_t / true_sigma_t**2`` does not depend on lambda, ``v0_t``
    is the true variance at rate 0 and ``sens_t`` is :func:`csl_sensitivity`.
    Each seed therefore has an exact critical rate, the smallest lambda it
    detects:

    ``best-time``
        ``(z se_t + var_std_t - w_t v0_t) / (w_t sens_t)`` at the time
        :func:`min_detectable_lambda` reports as ``best_time``, clipped at 0.
        Testing only that time, chosen from the model before any data, is
        the decision rule the closed form prices; the smallest rate over all
        times would be a look-elsewhere test with a higher false-alarm rate.
    ``chi-square-sum``
        the upper root of ``sum_t ((w_t v0_t - var_std_t + lambda w_t
        sens_t) / se_t)^2 = q``, or 0 when there is no real root.

    The power at lambda is the share of seeds whose critical rate is
    <= lambda, and the result is the smallest critical rate at which that
    share reaches 1/2: the lower median of the per-seed rates, the
    ``(len(seeds) + 1) // 2``-th smallest. The campaigns are simulated, not
    modelled, so the result stays an independent check of
    :func:`min_detectable_lambda`.
    ``workers`` changes only wall time (see :func:`bisect_lambda_mc_sweep`,
    whose one-N case this is).

    Returns
    -------
    float
        The rate [Hz], >= 0.
    """
    return bisect_lambda_mc_sweep(
        (n_per_time,), time_grid, scenario, detection, seeds, workers
    )[0]


def bisect_lambda_mc_sweep(
    n_sweep: Sequence[int],
    time_grid: Sequence[float],
    scenario: Scenario,
    detection: DetectionConfig = DetectionConfig(),
    seeds: Sequence[int] = (),
    workers: int | None = None,
) -> list[float]:
    """:func:`bisect_lambda_mc` at each N of ``n_sweep``, in sweep order.

    Each seed's campaign is simulated once, at the largest N. Run r of grid
    time i is the r-th draw of the stream keyed by (seed, i) whatever the
    campaign size, so the first N runs of that campaign are the N-run
    campaign of the same seed, and each N reads its row variances from that
    run prefix (see :func:`waxsim.protocol.run_campaign`). Every rate is
    bit-identical to a separate :func:`bisect_lambda_mc` call.

    An explicit ``workers`` above 1 simulates the seeds' campaigns on one
    pool of that many threads; otherwise it is passed to each
    :func:`waxsim.protocol.run_campaign` call. It changes only wall time.
    """
    if not n_sweep:
        raise DomainError("n_sweep must be non-empty")
    # only the standard error, and with it the best time, depends on N
    se_var, best = {}, {}
    for n in n_sweep:
        times, sens, var_std, se_var[n], q, best[n] = _detection_setup(
            n, time_grid, detection, scenario
        )

    def critical_rates(data: PositionSamples) -> list[float]:
        v0 = data.true_sigmas**2
        return [
            _critical_rate(data.var_hats[n], v0, sens, var_std, se_var[n], detection, q, best[n])
            for n in n_sweep
        ]

    per_seed = _over_seeds(
        critical_rates, seeds, 0.0, max(n_sweep), times, scenario, workers, n_sweep
    )
    # the lower median: the first order statistic whose share of seeds reaches 1/2
    return [float(np.sort(rates)[(len(per_seed) - 1) // 2]) for rates in zip(*per_seed)]
