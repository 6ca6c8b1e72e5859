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
with 50 percent detection power, an order statistic of those rates.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .constants import LAMBDA_GRW, hbar
from .decoherence import ChannelToggles, CSLParams, lambda_csl
from .dynamics import check_time_grid
from .errors import DomainError
from .materials import DEFAULT_TRAP_FREQUENCY, Environment, Particle
from .protocol import (
    CampaignConfig,
    PositionSamples,
    _total_variance,
    check_noise,
    run_campaign,
)


@dataclass(frozen=True)
class DetectionConfig:
    """Detection threshold and aggregation rule."""

    confidence_z: float = 3.0
    aggregation: str = "best-time"

    def __post_init__(self) -> None:
        if self.confidence_z <= 0.0:
            raise DomainError("confidence_z must be > 0")
        if self.aggregation not in ("best-time", "chi-square-sum"):
            raise DomainError(f"unknown aggregation {self.aggregation!r}")


@dataclass(frozen=True)
class DetectionResult:
    """Smallest detectable collapse rate for a given campaign size.

    ``lambda_min_grw`` reports the same rate in units of the historical
    reference value 1e-16 Hz.
    """

    lambda_min: float
    best_time: float
    n_per_time: int

    def __post_init__(self) -> None:
        if not 0.0 < self.lambda_min < math.inf:
            raise DomainError(
                f"lambda_min must be finite and > 0, got {self.lambda_min}"
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
    t: float, particle: Particle, csl_geometry: CSLParams
) -> float:
    """d(variance excess)/d(lambda) at time t [m^2/Hz]."""
    rate_per_hz = lambda_csl(
        particle,
        CSLParams(
            collapse_rate=1.0,
            correlation_length=csl_geometry.correlation_length,
            reference_mass=csl_geometry.reference_mass,
        ),
    )
    return (2.0 / 3.0) * hbar * hbar * rate_per_hz * t**3 / particle.mass**2


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
    n_per_time: int,
    time_grid: Sequence[float],
    particle: Particle,
    env: Environment,
    csl_geometry: CSLParams,
    toggles: ChannelToggles,
    trap_frequency: float,
    occupancy: float,
    measurement_noise: float,
    drift_velocity_std: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Validated inputs and the standard-physics prediction of a detection.

    Returns ``(times, sens, var_std, se_var)``: the grid, the
    :func:`csl_sensitivity` at each time, the per-draw variance with the
    collapse channel off (drift and readout terms included) and its
    standard error for N runs.
    """
    if n_per_time < 2:
        raise DomainError(f"n_per_time must be >= 2, got {n_per_time}")
    check_noise(measurement_noise, drift_velocity_std)
    times = check_time_grid(time_grid)
    sens = np.array(
        [csl_sensitivity(t, particle, csl_geometry) for t in times]
    )
    if not np.any(sens > 0.0):
        raise DomainError(
            "no sensitivity to the collapse rate: grid has no positive times"
        )
    std_toggles = ChannelToggles(
        gas=toggles.gas, blackbody=toggles.blackbody, csl=False
    )
    var_std = _total_variance(
        times,
        particle,
        env,
        None,
        std_toggles,
        trap_frequency,
        occupancy,
        measurement_noise,
        drift_velocity_std,
    )
    se_var = var_std * np.sqrt(2.0 / (n_per_time - 1))
    return times, sens, var_std, se_var


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
        Preparation and noise model.

    Returns
    -------
    DetectionResult
        ``best_time`` is the most sensitive grid time (the minimizer for
        best-time aggregation).
    """
    times, sens, _, se_var = _detection_setup(
        n_per_time,
        time_grid,
        particle,
        env,
        csl_geometry,
        toggles,
        trap_frequency,
        occupancy,
        measurement_noise,
        drift_velocity_std,
    )
    usable = sens > 0.0
    per_time = np.full(times.size, np.inf)
    per_time[usable] = detection.confidence_z * se_var[usable] / sens[usable]
    best = int(np.argmin(per_time))

    if detection.aggregation == "best-time":
        lam = float(per_time[best])
    else:
        q = _chi_square_quantile(detection.confidence_z, times.size)
        lam = float(np.sqrt(q / np.sum((sens[usable] / se_var[usable]) ** 2)))
    return DetectionResult(
        lambda_min=lam, best_time=float(times[best]), n_per_time=n_per_time
    )


def _seed_campaigns(
    seeds: Sequence[int],
    collapse_rate: float,
    n_per_time: int,
    times: np.ndarray,
    particle: Particle,
    env: Environment,
    csl_geometry: CSLParams,
    toggles: ChannelToggles,
    trap_frequency: float,
    occupancy: float,
    measurement_noise: float,
    drift_velocity_std: float,
    workers: int | None = None,
) -> Iterator[PositionSamples]:
    """One simulated campaign per seed, collapse channel on at ``collapse_rate``."""
    if not seeds:
        raise DomainError("seeds must be non-empty")
    csl = CSLParams(
        collapse_rate=collapse_rate,
        correlation_length=csl_geometry.correlation_length,
        reference_mass=csl_geometry.reference_mass,
    )
    run_toggles = ChannelToggles(
        gas=toggles.gas, blackbody=toggles.blackbody, csl=True
    )
    for seed in seeds:
        config = CampaignConfig(
            time_grid=times,
            runs_per_time=n_per_time,
            measurement_noise=measurement_noise,
            drift_velocity_std=drift_velocity_std,
            occupancy=occupancy,
            rng_seed=int(seed),
        )
        yield run_campaign(
            config, particle, env, csl, run_toggles, trap_frequency, workers
        )


def detection_power_mc(
    collapse_rate: float,
    n_per_time: int,
    time_grid: Sequence[float],
    particle: Particle,
    env: Environment,
    csl_geometry: CSLParams = CSLParams(collapse_rate=0.0),
    toggles: ChannelToggles = ChannelToggles.standard(),
    detection: DetectionConfig = DetectionConfig(),
    seeds: Sequence[int] = (),
    trap_frequency: float = DEFAULT_TRAP_FREQUENCY,
    occupancy: float = 0.0,
    measurement_noise: float = 0.0,
    drift_velocity_std: float = 0.0,
) -> float:
    """Monte-Carlo detection probability at a given collapse rate.

    Simulates one campaign per seed with the collapse channel active at
    ``collapse_rate``, compares each grid time's sample variance against the
    standard-physics prediction, and applies the configured aggregation at
    threshold ``confidence_z``. Returns the detected fraction.
    """
    model = (particle, env, csl_geometry, toggles, trap_frequency, occupancy,
             measurement_noise, drift_velocity_std)
    times, _, var_std, se_var = _detection_setup(n_per_time, time_grid, *model)
    if detection.aggregation == "chi-square-sum":
        q = _chi_square_quantile(detection.confidence_z, times.size)

    detected = 0
    for data in _seed_campaigns(seeds, collapse_rate, n_per_time, times, *model):
        z = (data.var_hat - var_std) / se_var
        if detection.aggregation == "best-time":
            hit = bool(np.max(z) >= detection.confidence_z)
        else:
            hit = bool(np.sum(z**2) >= q)
        detected += hit
    return detected / len(seeds)


def _critical_rate(
    var_hat: np.ndarray,
    v0: np.ndarray,
    sens: np.ndarray,
    var_std: np.ndarray,
    se_var: np.ndarray,
    detection: DetectionConfig,
    q: float | None,
) -> float:
    """Smallest rate at which one seed's campaign is detected.

    ``var_hat`` is the seed's sample variance at rate 0 and ``v0`` the true
    variance it was drawn with. With common random numbers the sample
    variance at rate lambda is ``w * (v0 + lambda * sens)``, ``w = var_hat /
    v0``, so the z-score at each time is linear in lambda:
    ``(a + lambda * b) / se_var`` with ``a = var_hat - var_std`` and
    ``b = w * sens``.
    """
    a = var_hat - var_std
    b = var_hat / v0 * sens
    if detection.aggregation == "best-time":
        # a time with no sensitivity detects at every rate or at none
        gap = detection.confidence_z * se_var - a
        with np.errstate(divide="ignore", invalid="ignore"):
            per_time = np.where(
                b > 0.0, gap / b, np.where(gap <= 0.0, 0.0, np.inf)
            )
        return max(float(np.min(per_time)), 0.0)
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
    particle: Particle,
    env: Environment,
    csl_geometry: CSLParams = CSLParams(collapse_rate=0.0),
    seeds: Sequence[int] = (),
    toggles: ChannelToggles = ChannelToggles.standard(),
    detection: DetectionConfig = DetectionConfig(),
    trap_frequency: float = DEFAULT_TRAP_FREQUENCY,
    occupancy: float = 0.0,
    measurement_noise: float = 0.0,
    drift_velocity_std: float = 0.0,
    power_target: float = 0.5,
    workers: int | None = None,
) -> float:
    """Smallest collapse rate with Monte-Carlo detection power >= ``power_target``.

    Simulates each seed's campaign once, at collapse rate 0 with the
    collapse channel on. Under common random numbers a seed's sample
    variance at rate lambda is ``w_t * (v0_t + lambda * sens_t)``, where
    ``w_t = var_hat_t / true_sigma_t**2`` does not depend on lambda, ``v0_t``
    is the true variance at rate 0 and ``sens_t`` is :func:`csl_sensitivity`.
    Each seed therefore has an exact critical rate, the smallest lambda it
    detects:

    ``best-time``
        min over t of ``(z se_t + var_std_t - w_t v0_t) / (w_t sens_t)``,
        clipped at 0.
    ``chi-square-sum``
        the upper root of ``sum_t ((w_t v0_t - var_std_t + lambda w_t
        sens_t) / se_t)^2 = q``, or 0 when there is no real root.

    The power at lambda is the share of seeds whose critical rate is
    <= lambda, and the result is the smallest critical rate at which that
    share reaches ``power_target``, in (0, 1]: an order statistic of the
    per-seed rates. The campaigns are simulated, not modelled, so the
    result stays an independent check of :func:`min_detectable_lambda`.
    ``workers`` is passed to each :func:`waxsim.protocol.run_campaign` call
    and changes only wall time.

    Returns
    -------
    float
        The rate [Hz], >= 0.
    """
    if not 0.0 < power_target <= 1.0:
        raise DomainError(f"power_target must be in (0, 1], got {power_target}")
    model = (particle, env, csl_geometry, toggles, trap_frequency, occupancy,
             measurement_noise, drift_velocity_std)
    times, sens, var_std, se_var = _detection_setup(n_per_time, time_grid, *model)
    q = None
    if detection.aggregation == "chi-square-sum":
        q = _chi_square_quantile(detection.confidence_z, times.size)

    rates = []
    for data in _seed_campaigns(seeds, 0.0, n_per_time, times, *model, workers):
        rates.append(
            _critical_rate(
                data.var_hat, data.true_sigmas**2, sens, var_std, se_var, detection, q
            )
        )
    rates = np.sort(rates)
    # the first order statistic whose share of seeds reaches the target
    shares = np.arange(1, rates.size + 1) / rates.size
    return float(rates[np.searchsorted(shares, power_target)])
