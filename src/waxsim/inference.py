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
campaigns through :mod:`waxsim.protocol` and bisects lambda for 50 percent
detection power at the same threshold.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .constants import LAMBDA_GRW, hbar
from .decoherence import ChannelToggles, CSLParams, lambda_csl, total_budget
from .dynamics import _x_var_free, check_time_grid, initial_state
from .errors import BracketingError, DomainError
from .materials import DEFAULT_TRAP_FREQUENCY, Environment, Particle
from .protocol import CampaignConfig, run_campaign


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


def standard_variance(
    time_grid: Sequence[float],
    particle: Particle,
    env: Environment,
    toggles: ChannelToggles = ChannelToggles.standard(),
    trap_frequency: float = DEFAULT_TRAP_FREQUENCY,
    occupancy: float = 0.0,
    measurement_noise: float = 0.0,
    drift_velocity_std: float = 0.0,
) -> np.ndarray:
    """Per-draw variance under standard physics only, at each grid time [m^2].

    The collapse channel is always excluded here regardless of ``toggles``;
    drift and readout contributions are included.
    """
    times = np.asarray(list(time_grid), dtype=float)
    std_toggles = ChannelToggles(
        gas=toggles.gas, blackbody=toggles.blackbody, csl=False
    )
    budget = total_budget(particle, env, None, std_toggles)
    state0 = initial_state(particle, trap_frequency, occupancy)
    x_var = _x_var_free(state0, particle.mass, budget.total, times)
    return x_var + (drift_velocity_std * times) ** 2 + measurement_noise**2


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
    if n_per_time < 2:
        raise DomainError(f"n_per_time must be >= 2, got {n_per_time}")
    times = check_time_grid(time_grid)

    sens = np.array(
        [csl_sensitivity(t, particle, csl_geometry) for t in times]
    )
    if not np.any(sens > 0.0):
        raise DomainError(
            "no sensitivity to the collapse rate: grid has no positive times"
        )
    var_std = standard_variance(
        times,
        particle,
        env,
        toggles,
        trap_frequency,
        occupancy,
        measurement_noise,
        drift_velocity_std,
    )
    se_var = var_std * np.sqrt(2.0 / (n_per_time - 1))

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
    if not seeds:
        raise DomainError("seeds must be non-empty")
    times = list(time_grid)
    var_std = standard_variance(
        times,
        particle,
        env,
        toggles,
        trap_frequency,
        occupancy,
        measurement_noise,
        drift_velocity_std,
    )
    se_var = var_std * np.sqrt(2.0 / (n_per_time - 1))
    csl = CSLParams(
        collapse_rate=collapse_rate,
        correlation_length=csl_geometry.correlation_length,
        reference_mass=csl_geometry.reference_mass,
    )
    run_toggles = ChannelToggles(
        gas=toggles.gas, blackbody=toggles.blackbody, csl=True
    )
    if detection.aggregation == "chi-square-sum":
        q = _chi_square_quantile(detection.confidence_z, len(times))

    detected = 0
    for seed in seeds:
        config = CampaignConfig(
            time_grid=tuple(times),
            runs_per_time=n_per_time,
            measurement_noise=measurement_noise,
            drift_velocity_std=drift_velocity_std,
            occupancy=occupancy,
            rng_seed=int(seed),
        )
        data = run_campaign(
            config, particle, env, csl, run_toggles, trap_frequency
        )
        var_hat = np.var(data.samples, axis=1, ddof=1)
        z = (var_hat - var_std) / se_var
        if detection.aggregation == "best-time":
            hit = bool(np.max(z) >= detection.confidence_z)
        else:
            hit = bool(np.sum(z**2) >= q)
        detected += hit
    return detected / len(seeds)


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
    lambda_lo: float = 1e-22,
    lambda_hi: float = 1e-6,
    power_target: float = 0.5,
    rel_tol: float = 0.05,
) -> float:
    """Smallest collapse rate with Monte-Carlo detection power >= ``power_target``.

    Bisects in log(lambda) between ``lambda_lo`` and ``lambda_hi`` using the
    same seed list at every rate (common random numbers, so the estimated
    power is monotone for best-time aggregation and the bisection is
    well posed). Raises :class:`waxsim.errors.BracketingError` with the
    evaluated power curve attached if the bracket does not straddle the
    target.

    Returns
    -------
    float
        The bracketed rate [Hz], converged to ``rel_tol`` relative width.
    """
    if not seeds:
        raise DomainError("seeds must be non-empty")
    times = [t for t in time_grid]
    if not any(t > 0.0 for t in times):
        raise DomainError(
            "no sensitivity to the collapse rate: grid has no positive times"
        )
    if not (0.0 < lambda_lo < lambda_hi):
        raise DomainError("need 0 < lambda_lo < lambda_hi")

    def power(rate: float) -> float:
        return detection_power_mc(
            rate,
            n_per_time,
            times,
            particle,
            env,
            csl_geometry,
            toggles,
            detection,
            seeds,
            trap_frequency,
            occupancy,
            measurement_noise,
            drift_velocity_std,
        )

    curve = []
    p_lo = power(lambda_lo)
    curve.append((lambda_lo, p_lo))
    p_hi = power(lambda_hi)
    curve.append((lambda_hi, p_hi))
    if p_lo >= power_target or p_hi < power_target:
        raise BracketingError(
            f"power bracket invalid: power({lambda_lo:.3e}) = {p_lo:.3f}, "
            f"power({lambda_hi:.3e}) = {p_hi:.3f}, target {power_target}",
            power_curve=curve,
        )

    lo, hi = lambda_lo, lambda_hi
    while hi / lo > 1.0 + rel_tol:
        mid = float(np.sqrt(lo * hi))
        p_mid = power(mid)
        curve.append((mid, p_mid))
        if p_mid >= power_target:
            hi = mid
        else:
            lo = mid
    return hi
