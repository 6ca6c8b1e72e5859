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
    data exist, and a campaign is tested at that one time. N scales every
    SE_var(t) by the same factor, so ``best_time`` is the same at every N.

``chi-square-sum`` aggregation
    all grid times pooled,  sum_t (lambda s_t / SE_t)^2 = q  where
    q = chdtri(len(grid), Phi(-confidence_z)) is the chi-square quantile
    whose upper tail mass equals the one-sided normal tail at
    ``confidence_z``. Above z of about 37.6, Phi(-z) underflows to 0 and
    the threshold is rejected.

Both are closed-form because the excess is linear in lambda.
``bisect_lambda_mc_sweep`` validates the closed form end to end: it
simulates one campaign per seed through :mod:`waxsim.protocol`, finds the
exact rate at which each seed is detected at the same threshold, and
returns the rate with 50 percent detection power: the lower median of
those rates. It does this for every N of a sweep from one campaign per
seed at the largest N, reading each N from a run prefix. For best-time
aggregation each campaign draws only the pre-registered time's row, the
one the test reads at every N, and one array rule per N turns the seeds'
variances there into rates. A sweep's closed forms share one detection
set-up, and so do its oracle rates.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .constants import LAMBDA_GRW, hbar
from .decoherence import ChannelToggles, CSLParams, lambda_csl
from .dynamics import DetectionConfig, Scenario, _check_memory, _check_runs, grid_times
from .errors import DomainError, NumericalError
from .materials import DEFAULT_TRAP_FREQUENCY, Environment, Particle
from .protocol import CampaignConfig, run_campaign


@dataclass(frozen=True)
class DetectionResult:
    """Smallest detectable collapse rate for a given campaign size.

    ``lambda_min_grw`` reports the same rate in units of the historical
    reference value 1e-16 Hz. A rate that is not positive and finite is a
    ``DomainError``; a finite rate that overflows in GRW units is a
    ``NumericalError``.
    """

    lambda_min: float
    best_time: float
    n_per_time: int

    def __post_init__(self) -> None:
        if not (0.0 < self.lambda_min < math.inf):
            raise DomainError(f"lambda_min must be > 0 and finite, got {self.lambda_min}")
        if not math.isfinite(self.lambda_min_grw):
            raise NumericalError(
                f"lambda_min = {self.lambda_min!r} Hz overflows in GRW units "
                f"(lambda_min / {LAMBDA_GRW!r})"
            )

    @property
    def lambda_min_grw(self) -> float:
        return self.lambda_min / LAMBDA_GRW


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


def _standard_error(var_std: np.ndarray, n: int) -> np.ndarray:
    """Standard error of the sample variance of ``n`` normal draws whose
    true variance is ``var_std``: ``var_std * sqrt(2 / (n - 1))``."""
    return var_std * np.sqrt(2.0 / (n - 1))


def _detection_setup(
    n_sweep: Sequence[int], time_grid: Sequence[float], detection: DetectionConfig,
    scenario: Scenario,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, float | None, int, Scenario]:
    """Validated inputs and the standard-physics prediction of a detection.

    Returns ``(times, sens, var_std, q, best, standard)``: the grid, the
    :func:`csl_sensitivity` at each time, the per-draw variance of
    ``standard``, the scenario at collapse rate 0 (drift and
    readout terms included), the chi-square threshold (``None`` for
    best-time aggregation) and the index of the most sensitive time, the
    one time best-time aggregation tests: the first of the smallest
    ``var_std / sens`` over the times with ``sens > 0``. None of them
    depends on N, which scales every standard error by the same
    ``sqrt(2 / (N - 1))``; ``n_sweep`` is only checked.
    """
    for n in n_sweep:
        _check_runs(n, "n_per_time")
    grid = grid_times(time_grid)
    times = np.array(grid)
    with np.errstate(over="ignore"):  # an inf is refused below, at its time
        sens = csl_sensitivity(times, scenario.particle, scenario.csl)
    if not np.isfinite(sens).all():
        raise NumericalError(
            "collapse-rate sensitivity overflows double precision at "
            f"t = {times[~np.isfinite(sens)][0].item()!r} s"
        )
    usable = sens > 0.0
    if not np.any(usable):
        if np.any(times > 0.0):  # sensitivity ~ t^3 underflows at tiny times
            raise NumericalError(
                "collapse-rate sensitivity underflows to 0 at every grid time "
                f"(largest time {float(times[-1])!r} s)"
            )
        raise DomainError(
            "no sensitivity to the collapse rate: grid has no positive times"
        )
    standard = replace(scenario, csl=replace(scenario.csl, collapse_rate=0.0))
    var_std = standard.grid_variance(grid)[0]
    per_time = np.full(times.size, np.inf)
    per_time[usable] = var_std[usable] / sens[usable]
    q = None
    if detection.aggregation == "chi-square-sum":
        q = _chi_square_quantile(detection.confidence_z, times.size)
    return times, sens, var_std, q, int(np.argmin(per_time)), standard


def min_detectable_lambda(
    n_per_time: int,
    time_grid: Sequence[float],
    particle: Particle,
    env: Environment,
    csl_geometry: CSLParams = CSLParams(collapse_rate=0.0),
    toggles: ChannelToggles = ChannelToggles(),
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
        test (its rate field is unused: the background model is at rate 0).
    toggles : ChannelToggles
        Whether the thermal-photon channels are in the background model, by
        default on; the gas channel is off at pressure 0 in ``env``.
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
    return _closed_forms((n_per_time,), time_grid, scenario, detection)[0]


def _closed_forms(
    n_sweep: Sequence[int], time_grid: Sequence[float], scenario: Scenario,
    detection: DetectionConfig,
) -> list[DetectionResult]:
    """:func:`min_detectable_lambda` at each N of ``n_sweep``, in sweep
    order, from one :func:`_detection_setup`."""
    times, sens, var_std, q, best, _ = _detection_setup(n_sweep, time_grid, detection, scenario)
    usable = sens > 0.0
    results = []
    for n in n_sweep:
        se_var = _standard_error(var_std, n)
        if q is None:
            lam = float(detection.confidence_z * se_var[best] / sens[best])
        else:
            pooled = np.sum((sens[usable] / se_var[usable]) ** 2)
            if pooled == 0.0:
                raise NumericalError(
                    "pooled collapse-rate sensitivity sum((sens / se)^2) underflows "
                    f"to 0 at N = {n}"
                )
            lam = float(np.sqrt(q / pooled))
        results.append(DetectionResult(lambda_min=lam, best_time=float(times[best]), n_per_time=n))
    return results


def _critical_rate(
    var_hat: np.ndarray,
    v0: np.ndarray,
    sens: np.ndarray,
    var_std: np.ndarray,
    se_var: np.ndarray,
    q: float,
) -> float:
    """Smallest rate that one seed's chi-square-sum test detects, from its
    sample variances ``var_hat`` at rate 0 and the true variances ``v0``
    they were drawn with (see :func:`bisect_lambda_mc_sweep`)."""
    # upper root of sum_t (a + lambda b)^2 = q, a and b in standard errors,
    # written A lambda^2 + 2 B lambda + C = 0 and solved without cancellation
    a = (var_hat - var_std) / se_var
    b = var_hat / v0 * sens / se_var
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


def bisect_lambda_mc_sweep(
    n_sweep: Sequence[int],
    time_grid: Sequence[float],
    scenario: Scenario,
    detection: DetectionConfig = DetectionConfig(),
    *,
    seeds: Sequence[int],
) -> list[float]:
    """Smallest collapse rate with Monte-Carlo detection power >= 1/2, at
    each N of ``n_sweep``, in sweep order.

    Simulates each seed's campaign once, at the largest N, of the set-up's
    standard scenario: ``scenario`` at collapse rate 0. Under
    common random numbers a seed's sample variance at rate lambda is ``w_t
    * (v0_t + lambda * sens_t)``, where ``v0_t`` is the true variance at rate
    0, ``w_t = var_hat_t / v0_t`` does not depend on lambda and ``sens_t`` is
    :func:`csl_sensitivity`. So each seed has an exact critical rate, the
    smallest lambda it detects:

    ``best-time``
        ``(z se_t + var_std_t - w_t v0_t) / (w_t sens_t)``, clipped at 0, at
        the ``best_time`` of :func:`min_detectable_lambda`. Testing only that
        time, chosen before any data, is the rule the closed form prices;
        the smallest rate over all times would be a look-elsewhere test.
    ``chi-square-sum``
        the upper root of ``sum_t ((w_t v0_t - var_std_t + lambda w_t
        sens_t) / se_t)^2 = q``, or 0 when there is no real root.

    Each N's result is the lower median of the per-seed rates, the smallest
    rate that half the seeds detect. The campaigns are simulated, not
    modelled, so the result is an independent check of the closed form.

    Run r of grid time i is the r-th draw of the stream keyed by (seed, i)
    at any campaign size, so each N reads its variances from a run prefix
    (see :func:`waxsim.protocol.run_campaign`), and every rate is
    bit-identical to the one-N sweep ``bisect_lambda_mc_sweep((n,), ...)[0]``.
    For ``best-time`` each campaign draws only the best time's row (``rows``
    of :func:`waxsim.protocol.run_campaign`), as the full campaign draws it,
    so the rates are those of the full campaign; ``chi-square-sum`` reads,
    and draws, every row. Best-time seeds fill the table below with their
    variances in that row at each N, and one array expression per N, the
    formula above, turns a column into rates.

    ``seeds`` must be non-empty; a ``range`` holds many at no cost. The
    per-seed rates are one float64 table, seeds x sweep, which is refused
    with ``DomainError`` before any campaign runs if it would not fit in
    physical memory. The seeds' campaigns run one after another.
    Returns the rates [Hz], each >= 0.
    """
    if not n_sweep:
        raise DomainError("n_sweep must be non-empty")
    times, sens, var_std, q, best, standard = _detection_setup(
        n_sweep, time_grid, detection, scenario
    )
    # only the standard error depends on N
    se_vars = [_standard_error(var_std, n) for n in n_sweep]

    try:
        count = len(seeds)
    except OverflowError:  # a range longer than any index
        raise DomainError(f"too many oracle seeds: {seeds!r}") from None
    if not count:
        raise DomainError("seeds must be non-empty")
    _check_memory(8 * count * len(n_sweep), f"oracle rates ({count} seeds x {len(n_sweep)} N)")
    table = np.empty((count, len(n_sweep)))
    # best-time tests the best time alone: draw only its row
    grid, largest, rows = tuple(times.tolist()), max(n_sweep), [best] if q is None else None
    v0 = np.square(standard.grid_variance(grid)[1])  # the same for every seed
    for k, seed in enumerate(seeds):
        data = run_campaign(CampaignConfig(grid, largest, int(seed)), standard,
                            run_counts=n_sweep, rows=rows)
        if q is None:  # each N's variance at the best time; the rates follow below
            table[k] = [data.var_hats[n][0] for n in n_sweep]
        else:
            table[k] = [_critical_rate(data.var_hats[n], v0, sens, var_std, se_var, q)
                        for n, se_var in zip(n_sweep, se_vars)]
    if q is None:
        z = detection.confidence_z
        for j, se_var in enumerate(se_vars):
            v = table[:, j]
            rate = (z * se_var[best] - (v - var_std[best])) / (v / v0[best] * sens[best])
            table[:, j] = np.where(rate < 0.0, 0.0, rate)  # max(rate, 0.0): keeps -0.0
    # the lower median: the first order statistic whose share of seeds reaches 1/2
    lower = (count - 1) // 2
    table.partition(lower, axis=0)
    medians = table[lower].tolist()
    if not all(map(math.isfinite, medians)):  # inf where the caller's errstate lets it pass
        raise NumericalError("Monte-Carlo oracle rate overflows double precision")
    return medians
