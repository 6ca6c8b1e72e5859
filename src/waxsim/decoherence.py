"""Position-localization rates for the decoherence channels acting on the sphere.

Every channel is expressed as a localization rate Lambda [m^-2 s^-1], the
coefficient of the position double-commutator term -Lambda [x, [x, rho]] in
the center-of-mass master equation. Rates from independent channels add.

Adopted closed forms (point-particle, long-wavelength limit for the thermal
channels; diffuse scattering for the gas channel; see docs/models.md for the
full statements and provenance of each):

Thermal-photon scattering  (environment temperature T_e)
    Lambda_sc = 8! zeta(9) * (8 c R^6 / 9 pi) * (kB T_e / hbar c)^9
                * Re[(eps-1)/(eps+2)]^2

Thermal-photon absorption (T_e) and emission (internal temperature T_i)
    Lambda_abs/em = (16 pi^5 c R^3 / 189) * (kB T / hbar c)^6
                    * Im[(eps-1)/(eps+2)]

Gas collisions (pressure P, molecule mass m_g, gas temperature T_g)
    Lambda_gas = (8 sqrt(2 pi) / 3 sqrt(3)) * m_g vbar P R^2 / hbar^2,
    vbar = sqrt(2 kB T_g / m_g)

Collapse-model localization for a homogeneous sphere (rate lambda,
correlation length a, reference mass m0)
    Lambda_csl = lambda (m/m0)^2 f(R/a) / (4 a^2),
    f(x) = 6/x^6 * (x^2 - 2 + (x^2 + 2) exp(-x^2)),  f(0) = 1.

The collapse normalization is fixed by the point-particle decoherence
function lambda (m/m0)^2 (1 - exp(-s^2/4a^2)): expanding at small separation
s gives the quadratic coefficient above. ``tests/oracles.py`` re-derives
f(R/a) by brute-force quadrature of the underlying smeared-mass-density
double integral, with no reference to the closed form.
"""
from __future__ import annotations

import math

from ._record import record
from .constants import amu, c, hbar, kB
from .errors import DomainError, NumericalError
from .materials import Environment, Particle

#: 8! * zeta(9) * 8 / (9 pi), prefactor of the thermal-scattering rate.
_SCATTERING_PREFACTOR = 40320.0 * 1.0020083928260822 * 8.0 / (9.0 * math.pi)
#: 16 pi^5 / 189, prefactor of the absorption/emission rates.
_ABS_EMIT_PREFACTOR = 16.0 * math.pi**5 / 189.0
#: 8 sqrt(2 pi) / (3 sqrt(3)), prefactor of the gas-collision rate.
_GAS_PREFACTOR = 8.0 * math.sqrt(2.0 * math.pi) / (3.0 * math.sqrt(3.0))

#: Long-wavelength model guard: thermal wavelength must exceed the radius by
#: at least this factor, otherwise results are flagged.
_VALIDITY_FACTOR = 10.0


@record
class CSLParams:
    """Collapse-model parameters.

    Attributes
    ----------
    collapse_rate : float
        Per-nucleon collapse rate lambda [Hz], >= 0.
    correlation_length : float
        Localization correlation length a [m], > 0.
    reference_mass : float
        Reference mass m0 the rate is quoted against [kg], > 0
        (one atomic mass unit by convention).
    """

    collapse_rate: float
    correlation_length: float = 100e-9
    reference_mass: float = amu

    def __post_init__(self) -> None:
        if self.collapse_rate < 0.0:
            raise DomainError(f"collapse_rate must be >= 0, got {self.collapse_rate}")
        if self.correlation_length <= 0.0:
            raise DomainError(
                f"correlation_length must be > 0, got {self.correlation_length}"
            )
        if self.reference_mass <= 0.0:
            raise DomainError(
                f"reference_mass must be > 0, got {self.reference_mass}"
            )


@record
class ChannelToggles:
    """Whether the thermal-photon channels feed the total budget.

    The other channels have no toggle: gas collisions are off at pressure 0
    and the collapse channel at collapse rate 0.
    """

    blackbody: bool = True


@record
class BlackbodyRates:
    """The three thermal-photon localization rates [m^-2 s^-1].

    ``warnings`` is non-empty when the long-wavelength assumption behind the
    closed forms is violated; the values are still the closed-form ones and
    should be treated as extrapolations.
    """

    scattering: float
    absorption: float
    emission: float
    warnings: tuple[str, ...] = ()


@record
class DecoherenceBudget:
    """Per-channel localization rates [m^-2 s^-1]; a channel that is off is 0, the total finite."""

    blackbody_scattering: float
    blackbody_absorption: float
    blackbody_emission: float
    gas_collisions: float
    csl: float
    warnings: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not math.isfinite(self.total):
            raise NumericalError(
                f"localization budget is not finite: total {self.total} m^-2 s^-1"
            )

    @property
    def total(self) -> float:
        return (
            self.blackbody_scattering
            + self.blackbody_absorption
            + self.blackbody_emission
            + self.gas_collisions
            + self.csl
        )


def thermal_wavelength(temperature: float) -> float:
    """Characteristic thermal-photon wavelength 2 pi hbar c / (kB T) [m]."""
    if temperature < 0.0:
        raise DomainError(f"temperature must be >= 0, got {temperature}")
    if temperature == 0.0:
        return math.inf
    return 2.0 * math.pi * hbar * c / (kB * temperature)


def _clausius_mossotti(eps: complex) -> complex:
    return (eps - 1.0) / (eps + 2.0)


def lambda_blackbody(particle: Particle, env: Environment) -> BlackbodyRates:
    """Localization rates from scattering, absorption and emission of thermal photons.

    Scattering and absorption are driven by the environment temperature,
    emission by the sphere's internal temperature. All three use the
    long-wavelength (point-particle) closed forms quoted in the module
    docstring; if the thermal wavelength at the relevant temperature is not
    at least 10x the radius, the result is flagged rather than rejected.

    Parameters
    ----------
    particle : Particle
    env : Environment

    Returns
    -------
    BlackbodyRates
        (scattering, absorption, emission) in m^-2 s^-1, plus validity
        warnings. Raises NumericalError, naming the channel, the radius and
        the temperature, where a rate is not finite in double precision.
    """
    cm = _clausius_mossotti(complex(particle.thermal_permittivity))
    R = particle.radius
    temperatures = {"environment": env.temperature, "internal": particle.internal_temperature}

    def rate(channel, prefactor, r_power, label, t_power, factor):
        """prefactor c R^r_power (kB T / hbar c)^t_power factor, at the ``label`` temperature."""
        T = temperatures[label]
        try:
            value = prefactor * c * R**r_power * (kB * T / (hbar * c)) ** t_power * factor
        except OverflowError:  # a float ** raises where a * gives inf
            value = math.inf
        if not math.isfinite(value):
            raise NumericalError(
                f"blackbody {channel} rate overflows double precision at radius {R!r} m, "
                f"{label} temperature {T!r} K"
            )
        return value

    scattering = rate("scattering", _SCATTERING_PREFACTOR, 6, "environment", 9, cm.real**2)
    absorption = rate("absorption", _ABS_EMIT_PREFACTOR, 3, "environment", 6, cm.imag)
    emission = rate("emission", _ABS_EMIT_PREFACTOR, 3, "internal", 6, cm.imag)

    warnings = []
    for label, T in temperatures.items():
        if thermal_wavelength(T) < _VALIDITY_FACTOR * R:
            warnings.append(
                f"blackbody rates outside model validity: thermal wavelength at "
                f"{label} temperature {T} K is not >> radius"
            )
    return BlackbodyRates(scattering, absorption, emission, tuple(warnings))


def _mean_gas_speed(env: Environment) -> float:
    """vbar = sqrt(2 kB T_g / m_g) [m/s], the speed of both gas-channel formulas."""
    return math.sqrt(2.0 * kB * env.gas_temperature / env.gas_particle_mass)


def lambda_gas(particle: Particle, env: Environment) -> float:
    """Localization rate from diffuse scattering of residual gas molecules.

    Linear in pressure and proportional to the geometric cross section R^2;
    see the module docstring for the closed form.

    Returns
    -------
    float
        Lambda_gas [m^-2 s^-1]; exactly 0 when the pressure is 0.
    """
    if env.gas_pressure == 0.0:
        return 0.0
    vbar = _mean_gas_speed(env)
    return (
        _GAS_PREFACTOR
        * env.gas_particle_mass
        * vbar
        * env.gas_pressure
        * particle.radius**2
        / hbar**2
    )


def sphere_geometry_factor(ratio: float) -> float:
    """Geometric factor f(R/a) of the homogeneous-sphere collapse rate.

    f(x) = 6/x^6 * (x^2 - 2 + (x^2 + 2) exp(-x^2)), with f(0) = 1. A series
    expansion is used below x = 0.1 where the direct expression cancels
    catastrophically.
    """
    if ratio < 0.0:
        raise DomainError(f"ratio must be >= 0, got {ratio}")
    x2 = ratio * ratio
    if ratio < 0.1:
        # f = 1 - x^2/2 + 3 x^4/20 - x^6/30 + ...
        return 1.0 + x2 * (-0.5 + x2 * (0.15 - x2 / 30.0))
    return 6.0 / x2**3 * (x2 - 2.0 + (x2 + 2.0) * math.exp(-x2))


def lambda_csl(particle: Particle, csl: CSLParams) -> float:
    """Collapse-model localization rate for the homogeneous sphere.

    Lambda_csl = lambda (m/m0)^2 f(R/a) / (4 a^2); the small-separation
    quadratic coefficient of the collapse decoherence function, valid for
    center-of-mass separations well below the correlation length a.

    Returns
    -------
    float
        Lambda_csl [m^-2 s^-1]; exactly 0 when the rate is 0, before the
        geometry is evaluated.
    """
    if csl.collapse_rate == 0.0:
        return 0.0
    a = csl.correlation_length
    factor = sphere_geometry_factor(particle.radius / a)
    mass_ratio = particle.mass / csl.reference_mass
    return csl.collapse_rate * mass_ratio**2 * factor / (4.0 * a**2)


def total_budget(
    particle: Particle,
    env: Environment,
    csl: CSLParams = CSLParams(collapse_rate=0.0),
    toggles: ChannelToggles = ChannelToggles(),
) -> DecoherenceBudget:
    """Assemble the per-channel localization budget; a channel that is off is 0.

    Parameters
    ----------
    particle, env : Particle, Environment
        Pressure 0 in ``env`` zeroes the gas channel.
    csl : CSLParams
        Collapse parameters; rate 0, the default, zeroes the collapse
        channel.
    toggles : ChannelToggles
        Whether the thermal-photon channels are on.

    Returns
    -------
    DecoherenceBudget
        Rates in m^-2 s^-1; ``total`` is their exact sum. Model-validity
        warnings from the active channels are propagated.
    """
    warnings: list[str] = []
    sc = ab = em = 0.0
    if toggles.blackbody:
        bb = lambda_blackbody(particle, env)
        sc, ab, em = bb.scattering, bb.absorption, bb.emission
        warnings.extend(bb.warnings)
    gas = lambda_gas(particle, env)
    if env.gas_pressure > 0.0:
        momentum = env.gas_particle_mass * _mean_gas_speed(env)
        if not momentum:
            raise NumericalError(
                "gas molecular momentum underflows to 0 at gas temperature "
                f"{env.gas_temperature!r} K, molecule mass {env.gas_particle_mass!r} kg"
            )
        gas_wavelength = 2.0 * math.pi * hbar / momentum
        if gas_wavelength > particle.radius / _VALIDITY_FACTOR:
            warnings.append(
                "gas rate outside model validity: molecular de Broglie "
                "wavelength is not << radius"
            )
    return DecoherenceBudget(sc, ab, em, gas, lambda_csl(particle, csl), tuple(warnings))
