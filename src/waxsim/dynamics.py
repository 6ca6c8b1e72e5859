"""Second-moment evolution of the center-of-mass state through free expansion.

The state is Gaussian and one-dimensional (the measurement axis), so three
moments suffice: the position variance <x^2>, the symmetrized covariance
<xp+px>/2 and the momentum variance <p^2>. Free flight with a localization
rate Lambda (the -Lambda [x,[x,rho]] master-equation term) evolves them as

    d<p^2>/dt      = 2 hbar^2 Lambda
    d(<xp+px>/2)/dt = <p^2>/m
    d<x^2>/dt      = <xp+px>/m

whose closed-form solution is polynomial in t; the t^3 term in <x^2> is the
decoherence signature the measurement protocol targets.
``evolve_numeric`` in the test tree (``tests/oracles.py``) integrates the
same system with a generic fixed-step 4th-order Runge-Kutta scheme as an
independent check on the closed form.

The quadratic localization form holds for wave-packet spreads small against
the collapse correlation length; curves that leave that regime are flagged,
not rejected (the quadratic form overestimates localization there, so the
flagged results are conservative).

The input rules every command applies also live here, in pure Python: the
grid rule (:func:`grid_times`), the run and worker counts, the memory rule
(:func:`_check_memory`), the campaign plan (:class:`CampaignConfig`) and
the detection threshold (:class:`DetectionConfig`). So does the cell rule
of every table the commands print but the dump (:func:`csv_table`). numpy
is imported only where an array is built: on reading
:attr:`ExpansionCurve.times` and :attr:`ExpansionCurve.sigmas`, and in
:meth:`Scenario.grid_variance`. The config, :func:`expansion_curve` and
the commands ``rates``, ``expand`` and ``feasibility`` run without it.
"""
from __future__ import annotations

import math
import operator
import os
from functools import cached_property
from typing import TYPE_CHECKING, Iterable, Sequence

from ._record import record
from .constants import hbar
from .decoherence import ChannelToggles, CSLParams, DecoherenceBudget, total_budget
from .errors import DomainError, NumericalError
from .materials import DEFAULT_TRAP_FREQUENCY, Environment, Particle

if TYPE_CHECKING:
    import numpy as np

#: Relative slack on the Heisenberg product at construction.
_PURITY_TOLERANCE = 1e-9
#: float64 machine epsilon; scales the evaluation allowance below.
_EPS = 2.220446049250313e-16


def heisenberg_allowance(x_var: float, xp_cov: float, p_var: float) -> float:
    """Float64 resolution of the Heisenberg determinant at these moments.

    For an expanded state the determinant x_var p_var - xp_cov^2 sits many
    orders of magnitude below the products themselves, so rounding of the
    stored moments perturbs it at the scale eps * (x_var p_var + xp_cov^2).
    Purity checks must grant this allowance or they reject exact physics.
    """
    return 32.0 * _EPS * (x_var * p_var + xp_cov * xp_cov)


@record
class GaussianState:
    """Centered second moments of the 1-D center-of-mass state.

    Attributes
    ----------
    x_var : float
        Position variance <x^2> [m^2], finite and > 0.
    xp_cov : float
        Symmetrized covariance <xp+px>/2 [kg m^2/s], finite.
    p_var : float
        Momentum variance <p^2> [kg^2 m^2/s^2], finite and > 0.

    The Heisenberg bound x_var p_var - xp_cov^2 >= hbar^2/4 is enforced at
    construction with 1e-9 relative slack plus the floating-point allowance
    of :func:`heisenberg_allowance`.
    """

    x_var: float
    xp_cov: float
    p_var: float

    def __post_init__(self) -> None:
        for name, var in (("x_var", self.x_var), ("p_var", self.p_var)):
            if not 0.0 < var < math.inf:
                raise DomainError(f"{name} = {var!r} is not finite and > 0")
        if not math.isfinite(self.xp_cov):
            raise DomainError(f"xp_cov = {self.xp_cov!r} is not finite")
        bound = 0.25 * hbar * hbar * (1.0 - _PURITY_TOLERANCE)
        allowance = heisenberg_allowance(self.x_var, self.xp_cov, self.p_var)
        if self.heisenberg_product < bound - allowance:
            raise DomainError(
                "moments violate the Heisenberg bound: "
                f"x_var*p_var - xp_cov^2 = {self.heisenberg_product:.6e} < hbar^2/4"
            )

    @property
    def sigma(self) -> float:
        """Wave-packet width sqrt(<x^2>) [m]."""
        return math.sqrt(self.x_var)

    @property
    def heisenberg_product(self) -> float:
        """x_var * p_var - xp_cov^2, bounded below by hbar^2/4."""
        return self.x_var * self.p_var - self.xp_cov**2


def initial_state(
    particle: Particle,
    trap_frequency: float = DEFAULT_TRAP_FREQUENCY,
    occupancy: float = 0.0,
) -> GaussianState:
    """Thermal trap state at mean phonon number ``occupancy``.

    x_var = (2 nbar + 1) hbar / (2 m omega), p_var = (2 nbar + 1) hbar m
    omega / 2, xp_cov = 0. ``occupancy`` = 0 is the motional ground state,
    which saturates the Heisenberg bound. NumericalError where either
    variance is not finite and above 0 in double precision.
    """
    if trap_frequency <= 0.0:
        raise DomainError(f"trap_frequency must be > 0, got {trap_frequency}")
    if occupancy < 0.0:
        raise DomainError(f"occupancy must be >= 0, got {occupancy}")
    width = (2.0 * occupancy + 1.0)
    m_omega = particle.mass * trap_frequency
    # m omega may underflow to 0, or overflow where the frequency is inf
    x_var = width * hbar / (2.0 * m_omega) if m_omega > 0.0 else math.inf
    p_var = width * hbar * m_omega / 2.0
    try:
        return GaussianState(x_var=x_var, xp_cov=0.0, p_var=p_var)
    except DomainError as error:  # a variance out of range: name the inputs
        raise NumericalError(
            f"trap state {error} at angular trap frequency {trap_frequency!r} rad/s, "
            f"occupancy {occupancy!r}"
        ) from None


def _check_evolution(mass: float, localization_rate: float, t: float) -> None:
    """The mass, rate and time checks of :func:`evolve_free` and its RK4 oracle."""
    if mass <= 0.0:
        raise DomainError(f"mass must be > 0, got {mass}")
    if localization_rate < 0.0:
        raise DomainError(f"localization_rate must be >= 0, got {localization_rate}")
    if t < 0.0:
        raise DomainError(f"t must be >= 0, got {t}")


def evolve_free(
    state: GaussianState, mass: float, localization_rate: float, t: float
) -> GaussianState:
    """Closed-form free evolution with momentum diffusion.

    Parameters
    ----------
    state : GaussianState
        Moments at release.
    mass : float
        Particle mass [kg], > 0.
    localization_rate : float
        Total localization rate Lambda [m^-2 s^-1], >= 0.
    t : float
        Evolution time [s], >= 0.

    Returns
    -------
    GaussianState
        p_var(t)  = p_var0 + 2 hbar^2 Lambda t
        xp_cov(t) = xp_cov0 + p_var0 t/m + hbar^2 Lambda t^2/m
        x_var(t)  = x_var0 + 2 xp_cov0 t/m + p_var0 t^2/m^2
                    + (2/3) hbar^2 Lambda t^3/m^2
    """
    _check_evolution(mass, localization_rate, t)
    h2L = hbar * hbar * localization_rate
    return GaussianState(
        x_var=_x_var_free(state, mass, localization_rate, t),
        xp_cov=state.xp_cov + state.p_var * t / mass + h2L * t * t / mass,
        p_var=state.p_var + 2.0 * h2L * t,
    )


@record
class ExpansionCurve:
    """Sampled wave-packet width sigma(t) and the budget that produced it.

    The samples are held as tuples of floats, so that a curve is built and
    written without numpy; :attr:`times` and :attr:`sigmas` return them as
    new float64 arrays.
    """

    time_values: tuple[float, ...]
    sigma_values: tuple[float, ...]
    budget: DecoherenceBudget
    warnings: tuple[str, ...] = ()

    @property
    def times(self) -> np.ndarray:
        """Grid times [s]."""
        import numpy as np

        return np.array(self.time_values)

    @property
    def sigmas(self) -> np.ndarray:
        """Wave-packet width sqrt(<x^2>) at each grid time [m]."""
        import numpy as np

        return np.array(self.sigma_values)

    def to_csv(self) -> str:
        """CSV text: header ``t_s,sigma_m,lambda_total_m2s``, one row per sample."""
        total = float(self.budget.total)
        rows = ((t, s, total) for t, s in zip(self.time_values, self.sigma_values))
        return csv_table("t_s,sigma_m,lambda_total_m2s", rows)


def csv_table(header: str, rows: Iterable[Iterable[float | int | str]]) -> str:
    """CSV text of a table a command prints: ``header``, then each row's cells
    joined by commas, each line ending in ``\\n``; a float is spelled as ``repr``
    spells a Python float, an int in decimal and a string as it is."""
    lines = (",".join(repr(float(c)) if isinstance(c, float) else str(c) for c in r) for r in rows)
    return "".join(f"{line}\n" for line in (header, *lines))


def _mass_squared(mass: float) -> float:
    """``mass**2``, the divisor of the t^2 and t^3 terms; NumericalError
    where it underflows to 0."""
    mass2 = mass**2
    if not mass2:
        raise NumericalError(f"particle mass squared underflows to 0 at mass {mass!r} kg")
    return mass2


def _x_var_free(
    state: GaussianState, mass: float, localization_rate: float, times: float | np.ndarray
) -> float | np.ndarray:
    """Closed-form x_var(t), for one time or elementwise over a time array.

    Each power of a time is a product of IEEE multiplies, ``(times * times)``
    and ``(t * t * t)`` as in :func:`waxsim.inference.csl_sensitivity`, so a
    Python float and each element of an array give the same bits. numpy's
    array power rounds ``t**3`` differently with the CPU's SIMD features;
    Python's ``t**2`` is the libm ``pow``, which may miss the product by 1
    ulp, while numpy's array ``t**2`` is the product.
    """
    mass2 = _mass_squared(mass)
    h2L = hbar * hbar * localization_rate
    return (
        state.x_var
        + 2.0 * state.xp_cov * times / mass
        + state.p_var * (times * times) / mass2
        + (2.0 / 3.0) * h2L * (times * times * times) / mass2
    )


@record
class Scenario:
    """One sphere in one environment: the inputs of the variance model.

    Attributes
    ----------
    particle : Particle
    environment : Environment
        Its pressure 0 zeroes the gas channel.
    csl : CSLParams
        Collapse parameters; rate 0, the default, zeroes the collapse
        channel. The detection bound predicts, and its oracle simulates, at
        rate 0: :mod:`waxsim.inference` uses only the correlation length
        and reference mass.
    toggles : ChannelToggles
        Whether the thermal-photon channels are in the budget.
    trap_frequency : float
        Angular trap frequency [rad/s], > 0.
    occupancy : float
        Mean phonon number of the prepared trap state, >= 0.
    measurement_noise : float
        Position-readout standard deviation [m], >= 0.
    drift_velocity_std : float
        Run-to-run center-of-mass velocity spread [m/s], >= 0.
    """

    particle: Particle
    environment: Environment
    csl: CSLParams = CSLParams(collapse_rate=0.0)
    toggles: ChannelToggles = ChannelToggles()
    trap_frequency: float = DEFAULT_TRAP_FREQUENCY
    occupancy: float = 0.0
    measurement_noise: float = 0.0
    drift_velocity_std: float = 0.0

    def __post_init__(self) -> None:
        # the trap frequency and occupancy rules: those of the preparation
        self.state0
        # both enter the variance squared, so a negative value would
        # silently act as its absolute value
        if self.measurement_noise < 0.0:
            raise DomainError("measurement_noise must be >= 0")
        if self.drift_velocity_std < 0.0:
            raise DomainError("drift_velocity_std must be >= 0")

    @cached_property
    def state0(self) -> GaussianState:
        """The prepared trap state (:func:`initial_state`)."""
        return initial_state(self.particle, self.trap_frequency, self.occupancy)

    @cached_property
    def budget(self) -> DecoherenceBudget:
        """The localization budget of the selected channels."""
        return total_budget(self.particle, self.environment, self.csl, self.toggles)

    def variance(self, times: float | np.ndarray) -> float | np.ndarray:
        """The per-draw variance [m^2], at one time or at each time of an
        array; an element of an array gets the bits of its float.

        The one variance model, x_var(t) + (drift t)^2 + noise^2: campaigns
        (:func:`waxsim.protocol.run_campaign`) sample with it, the detection
        bound and its oracle (:mod:`waxsim.inference`) predict with it at
        collapse rate 0 (both through :meth:`grid_variance`), and
        :func:`expansion_curve` takes it at each grid time with both
        instrumental terms at 0.
        """
        x_var = _x_var_free(self.state0, self.particle.mass, self.budget.total, times)
        drift = self.drift_velocity_std * times
        return x_var + drift * drift + self.measurement_noise**2

    def grid_variance(self, time_grid: tuple[float, ...]) -> tuple[np.ndarray, np.ndarray]:
        """Read-only arrays of the per-draw variance and standard deviation
        at each time of a :func:`grid_times` grid, memoised for the last grid
        as :attr:`state0` and :attr:`budget` are. NumericalError where a
        variance overflows: the noise's square, or the first such time.
        """
        memo = self.__dict__.get("_grid_memo")
        if memo is not None and memo[0] == time_grid:
            return memo[1]
        import numpy as np

        try:
            self.measurement_noise**2
        except OverflowError:  # where float ** raises, numpy's would be inf
            raise NumericalError(
                "measurement noise variance overflows double precision at "
                f"measurement_noise = {self.measurement_noise!r} m"
            ) from None
        times = np.array(time_grid)
        with np.errstate(over="ignore"):  # an inf is refused below, at its time
            variance = self.variance(times)
        overflowed = ~np.isfinite(variance)
        if overflowed.any():
            t = times[overflowed][0].item()
            raise NumericalError(f"sample variance overflows double precision at t = {t!r} s")
        sigmas = np.sqrt(variance)
        variance.flags.writeable = sigmas.flags.writeable = False
        self.__dict__["_grid_memo"] = (time_grid, (variance, sigmas))
        return variance, sigmas


def grid_times(time_grid: Sequence[float]) -> tuple[float, ...]:
    """The grid as a tuple of floats, if it is a valid grid of expansion times.

    The one grid rule shared by the models and the config: non-empty,
    finite, non-negative and strictly increasing. Raises DomainError
    otherwise.
    """
    times = tuple(map(float, time_grid))
    if not times:
        raise DomainError("time_grid must be non-empty")
    if not (all(map(math.isfinite, times)) and min(times) >= 0.0):
        raise DomainError("time_grid must be finite and non-negative")
    if not all(map(operator.lt, times, times[1:])):
        raise DomainError("time_grid must be strictly increasing")
    return times


def _check_runs(runs: int, name: str) -> None:
    """Reject fewer than 2 runs per grid time: a variance needs two."""
    if runs < 2:
        raise DomainError(f"{name} must be >= 2, got {runs}")


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


def _check_memory(needed: int, what: str) -> None:
    """Refuse what would only fit in swap or overcommitted virtual memory:
    ``needed`` bytes of ``what``, with ``DomainError``."""
    physical = _physical_memory()
    if physical is not None and needed > physical:
        raise DomainError(
            f"{what} would take {needed / 1e9:.3g} GB, more than the "
            f"{physical / 1e9:.3g} GB of physical memory"
        )


@record
class CampaignConfig:
    """Measurement plan for one campaign (:func:`waxsim.protocol.run_campaign`);
    what is measured is a :class:`Scenario`.

    Attributes
    ----------
    time_grid : tuple of float
        Expansion times [s]; non-empty, non-negative, strictly increasing.
    runs_per_time : int
        Repetitions N per grid time, >= 2 so a variance is estimable.
    rng_seed : int
        Campaign seed, >= 0.
    """

    time_grid: tuple[float, ...]
    runs_per_time: int
    rng_seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "time_grid", grid_times(self.time_grid))
        _check_runs(self.runs_per_time, "runs_per_time")
        if self.rng_seed < 0:
            raise DomainError(f"rng_seed must be >= 0, got {self.rng_seed}")


#: The detection aggregation rules of :mod:`waxsim.inference`.
AGGREGATIONS = ("best-time", "chi-square-sum")


@record
class DetectionConfig:
    """Detection threshold and aggregation rule (:mod:`waxsim.inference`)."""

    confidence_z: float = 3.0
    aggregation: str = "best-time"

    def __post_init__(self) -> None:
        if self.confidence_z <= 0.0:
            raise DomainError("confidence_z must be > 0")
        if self.aggregation not in AGGREGATIONS:
            raise DomainError(f"unknown aggregation {self.aggregation!r}")


def expansion_curve(
    particle: Particle,
    env: Environment,
    csl: CSLParams = CSLParams(collapse_rate=0.0),
    toggles: ChannelToggles = ChannelToggles(),
    trap_frequency: float = DEFAULT_TRAP_FREQUENCY,
    occupancy: float = 0.0,
    time_grid: Sequence[float] = (),
) -> ExpansionCurve:
    """Wave-packet width sigma(t) over a time grid for the selected channels.

    The grid must be non-empty, non-negative and strictly increasing. Any
    channel validity warnings are propagated, followed by the
    :func:`collapse_validity` flag.
    Raises NumericalError if the variance at a grid time is not finite.

    Scalar Python, one :meth:`Scenario.variance` per grid time: the same
    bits as ``np.sqrt(scenario.variance(np.array(time_grid)))``.
    """
    times = grid_times(time_grid)
    scenario = Scenario(particle, env, csl, toggles, trap_frequency, occupancy)
    sigmas = []
    for t in times:
        variance = scenario.variance(t)
        if not math.isfinite(variance):
            raise NumericalError(f"wave-packet variance at t = {t!r} s is {variance!r}")
        sigmas.append(math.sqrt(variance))

    budget = scenario.budget
    warnings = budget.warnings + collapse_validity(scenario, times)
    return ExpansionCurve(times, tuple(sigmas), budget, warnings)


def collapse_validity(scenario: Scenario, times: Sequence[float]) -> tuple[str, ...]:
    """The collapse-validity flag, as zero or one warning.

    It is raised when the collapse rate is above 0 and a model width
    sigma(t) (that of :func:`expansion_curve`, without the drift and readout
    terms) exceeds a/3 at a grid time: there the small-separation quadratic
    form stops being quantitatively reliable.
    """
    csl, particle = scenario.csl, scenario.particle
    if csl.collapse_rate > 0.0:
        state0, total = scenario.state0, scenario.budget.total
        x_vars = (_x_var_free(state0, particle.mass, total, t) for t in times)
        if any(math.sqrt(v) > csl.correlation_length / 3.0 for v in x_vars):
            return (
                "collapse localization outside quadratic validity: sigma exceeds "
                "a/3, reported widths are conservative",
            )
    return ()
