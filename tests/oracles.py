"""Verification oracles: independent routes to what the models compute.

They live in the test tree, apart from the models they check: no model or
command uses them, and the installed package does not ship them. The tests
import this module as ``oracles``. Importing it loads numpy and the sampling
and inference layers, but no scipy.

Moment evolution
----------------
:func:`evolve_numeric` integrates the moment equations of
:mod:`waxsim.dynamics` with a generic fixed-step 4th-order Runge-Kutta
scheme, :func:`rk4_integrate`, as a check on the closed form of
:func:`waxsim.dynamics.evolve_free`.

Collapse-rate convention
------------------------
The closed-form sphere factor in :func:`waxsim.decoherence.sphere_geometry_factor`
is re-derived here from first principles, with no reference to that formula.
The collapse decoherence function for center-of-mass displacement s is, in
the adopted normalization,

    Gamma(s) = (lambda/m0^2) [ I(0) - I(s) ],
    I(s) = integral rho(x) rho(y) exp(-(x - y + s)^2 / 4 a^2) d^3x d^3y,

and the localization rate is the quadratic coefficient Gamma(s) ~ Lambda s^2
at small s. Writing the Gaussian kernel as an overlap of smearing functions
g(r) = (pi a^2)^(-3/4) exp(-r^2 / 2 a^2) turns I(s) into the autocorrelation
of the smeared mass density mu = g * rho,

    I(s) = integral mu(z) mu(z + s) d^3z,

which this module evaluates by radial quadrature for a homogeneous sphere:
mu from a 1-D Gauss-Legendre integral, I(s) from a 2-D reduction, and the
quadratic coefficient from a Richardson-extrapolated finite difference in s.
Everything is numeric; no series or closed form for the sphere factor enters.

Detection power
---------------
:func:`detection_power_mc` re-simulates one campaign per seed at a given
collapse rate and counts the detections, as a check on the exact per-seed
rates of :func:`waxsim.inference.bisect_lambda_mc_sweep`.
"""
from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from waxsim.constants import hbar
from waxsim.dynamics import DetectionConfig, GaussianState, Scenario, _check_evolution
from waxsim.errors import DomainError
from waxsim.inference import _detection_setup, _standard_error
from waxsim.protocol import CampaignConfig, run_campaign


def rk4_integrate(
    deriv: Callable[[float, np.ndarray], np.ndarray],
    y0: np.ndarray,
    t0: float,
    t1: float,
    steps: int,
) -> np.ndarray:
    """Generic fixed-step classical Runge-Kutta (order 4) integrator.

    Returns the state at ``t1`` after ``steps`` equal steps from ``t0``.
    """
    if steps < 1:
        raise DomainError(f"steps must be >= 1, got {steps}")
    h = (t1 - t0) / steps
    y = np.asarray(y0, dtype=float)
    t = t0
    for _ in range(steps):
        k1 = deriv(t, y)
        k2 = deriv(t + 0.5 * h, y + 0.5 * h * k1)
        k3 = deriv(t + 0.5 * h, y + 0.5 * h * k2)
        k4 = deriv(t + h, y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        t += h
    return y


def evolve_numeric(
    state: GaussianState,
    mass: float,
    localization_rate: float,
    t: float,
    steps: int = 10_000,
) -> GaussianState:
    """Integrate the moment ODEs with fixed-step RK4 (verification path).

    Parameters
    ----------
    state, mass, localization_rate, t
        As in :func:`waxsim.dynamics.evolve_free`.
    steps : int
        Number of RK4 steps, >= 1.

    Returns
    -------
    GaussianState
    """
    _check_evolution(mass, localization_rate, t)
    h2L2 = 2.0 * hbar * hbar * localization_rate

    def deriv(_t: float, y: np.ndarray) -> np.ndarray:
        x_var, xp_cov, p_var = y
        return np.array([2.0 * xp_cov / mass, p_var / mass, h2L2])

    y0 = np.array([state.x_var, state.xp_cov, state.p_var])
    if t == 0.0:
        return state
    y = rk4_integrate(deriv, y0, 0.0, t, steps)
    return GaussianState(x_var=y[0], xp_cov=y[1], p_var=y[2])


#: Grid extent beyond the sphere edge, in correlation lengths; the smeared
#: density is Gaussian-small there.
_TAIL = 9.0
#: Radial grid points of the smeared-density spline, and the Gauss-Legendre
#: order of its inner integral over the sphere's radius.
_DENSITY_GRID, _DENSITY_QUAD = 4000, 200
#: Smallest displacement s (units of a) of the finite-difference extraction;
#: s and 2s are combined by Richardson extrapolation to cancel the O(s^2)
#: contamination.
_PROBE_SEPARATION = 0.02
#: Gauss-Legendre order of the outer radial integral.
_OUTER_ORDER = 1200


def _smeared_density(ratio: float):
    """Spline of mu(r) for a unit-mass sphere of radius ``ratio`` (lengths in a).

    mu(r) = (pi)^(-3/4) rho0 * 2 pi / r * int_0^R x
            [exp(-(r-x)^2/2) - exp(-(r+x)^2/2)] dx
    """
    from scipy.interpolate import CubicSpline

    rmax = ratio + _TAIL
    r = np.linspace(0.0, rmax, _DENSITY_GRID)
    nodes, weights = np.polynomial.legendre.leggauss(_DENSITY_QUAD)
    x = 0.5 * ratio * (nodes + 1.0)
    w = 0.5 * ratio * weights
    rho0 = 1.0 / (4.0 / 3.0 * np.pi * ratio**3)

    rr = r[:, None]
    xx = x[None, :]
    core = np.exp(-0.5 * (rr - xx) ** 2) - np.exp(-0.5 * (rr + xx) ** 2)
    radial = 2.0 * np.pi * rho0 * (core * xx * w[None, :]).sum(axis=1)
    mu = np.empty_like(r)
    mu[1:] = radial[1:] / r[1:]
    mu[0] = 4.0 * np.pi * rho0 * (w * x**2 * np.exp(-0.5 * x**2)).sum()
    return CubicSpline(r, np.pi ** (-0.75) * mu), rmax


def csl_sphere_factor_bruteforce(ratio: float) -> float:
    """Sphere geometry factor from the smeared-density double integral.

    Parameters
    ----------
    ratio : float
        Sphere radius over correlation length, R/a, > 0.

    Returns
    -------
    float
        The factor normalized so a point particle gives exactly 1, i.e. the
        quadratic coefficient of Gamma divided by 1/(4 a^2) at unit mass and
        unit rate.
    """
    from scipy.interpolate import CubicSpline

    if ratio <= 0.0:
        raise DomainError(f"ratio must be > 0, got {ratio}")
    mu, rmax = _smeared_density(ratio)

    # Antiderivative W(y) = int_0^y w mu(w) dw for the angular reduction
    # I(s) = (2 pi / s) int r mu(r) [W(r+s) - W(|r-s|)] dr.
    r_dense = np.linspace(0.0, rmax, 6000)
    w_mu = CubicSpline(r_dense, r_dense * mu(r_dense))
    W = w_mu.antiderivative()

    nodes, weights = np.polynomial.legendre.leggauss(_OUTER_ORDER)
    rg = 0.5 * rmax * (nodes + 1.0)
    wg = 0.5 * rmax * weights
    r_mu = rg * mu(rg)

    def deficit(s: float) -> float:
        # I(0) - I(s); the bracket is O(s^2) pointwise, so the difference is
        # formed before integrating and no large-term cancellation occurs.
        bracket = 2.0 * r_mu - (W(rg + s) - W(np.abs(rg - s))) / s
        return 2.0 * np.pi * float((wg * r_mu * bracket).sum())

    s = _PROBE_SEPARATION
    coeff_s = deficit(s) / s**2
    coeff_2s = deficit(2.0 * s) / (4.0 * s**2)
    coeff = (4.0 * coeff_s - coeff_2s) / 3.0
    return coeff / 0.25


def detection_power_mc(
    collapse_rate: float,
    n_per_time: int,
    time_grid: Sequence[float],
    scenario: Scenario,
    detection: DetectionConfig = DetectionConfig(),
    *,
    seeds: Sequence[int],
) -> float:
    """Monte-Carlo detection probability at a given collapse rate.

    Simulates one campaign per seed with the scenario's collapse rate set to
    ``collapse_rate`` (0 simulates standard physics), compares the sample
    variance against the standard-physics prediction at ``best_time``
    (best-time) or at every grid time (chi-square-sum), and applies the
    threshold ``confidence_z``. Each campaign draws only the rows its test reads.
    ``seeds`` must be non-empty. Returns the detected fraction.
    """
    times, _, var_std, q, best, _ = _detection_setup((n_per_time,), time_grid, detection, scenario)
    se_var = _standard_error(var_std, n_per_time)
    if not seeds:
        raise DomainError("seeds must be non-empty")
    simulated = scenario.replace(csl=scenario.csl.replace(collapse_rate=collapse_rate))
    hits, rows = 0, [best] if q is None else list(range(times.size))
    grid, var_std, se_var = tuple(times.tolist()), var_std[rows], se_var[rows]
    for seed in seeds:
        data = run_campaign(CampaignConfig(grid, n_per_time, int(seed)), simulated, rows=rows)
        z = (data.var_hat - var_std) / se_var
        hits += bool(z[0] >= detection.confidence_z if q is None else np.sum(z**2) >= q)
    return hits / len(seeds)
