"""Particle and environment descriptions plus free-fall feasibility arithmetic.

The default particle is a fused-silica nanosphere (radius 120 nm, density
2200 kg/m^3). Its thermal-band permittivity enters the thermal-photon rates
through the Clausius-Mossotti factor (eps-1)/(eps+2) and carries a small
positive imaginary part representing band-averaged absorption. It is a plain
config input and can be overridden.

Environments come in two named presets:

``ground``
    300 K laboratory, 1e-5 Pa residual air (mean molecular mass 28.97 amu).
``space``
    35 K thermally shielded platform, 1e-12 Pa residual hydrogen.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

from .constants import amu as _amu
from .constants import g as _g
from .errors import DomainError, NumericalError

#: Mean molecular mass of air [kg].
AIR_MOLECULE_MASS = 28.97 * _amu
#: Molecular mass of H2, the dominant residual gas around a cold spacecraft [kg].
H2_MOLECULE_MASS = 2.01588 * _amu

#: Default fused-silica material values (overridable everywhere).
FUSED_SILICA_DENSITY = 2200.0
FUSED_SILICA_THERMAL_PERMITTIVITY = 2.1 + 0.25j  # effective, thermal-photon band

#: The names an :class:`Environment` preset may take.
PRESETS = ("ground", "space", "custom")

#: Default trap angular frequency [rad/s] (2*pi*100 kHz).
DEFAULT_TRAP_FREQUENCY = 2.0 * math.pi * 1e5


def sphere_mass(radius: float, density: float) -> float:
    """Mass of a homogeneous sphere.

    Parameters
    ----------
    radius : float
        Sphere radius [m], > 0.
    density : float
        Mass density [kg/m^3], > 0.

    Returns
    -------
    float
        Mass [kg], density * (4/3) pi radius^3. Raises NumericalError if
        it overflows or underflows to 0.
    """
    if radius <= 0.0:
        raise DomainError(f"radius must be > 0, got {radius}")
    if density <= 0.0:
        raise DomainError(f"density must be > 0, got {density}")
    try:
        mass = density * (4.0 / 3.0) * math.pi * radius**3
    except OverflowError:  # float ** raises where * gives inf
        mass = math.inf
    if not 0.0 < mass < math.inf:
        flow = "overflows" if mass else "underflows"
        raise NumericalError(
            f"particle mass {flow} at radius {radius!r} m, density {density!r} kg/m^3"
        )
    return mass


def drop_distance(free_fall_time: float) -> float:
    """Distance a released particle falls in uniform surface gravity.

    Parameters
    ----------
    free_fall_time : float
        Free-fall duration [s], >= 0.

    Returns
    -------
    float
        (1/2) g t^2 [m]. Raises NumericalError if it is not finite.
    """
    if free_fall_time < 0.0:
        raise DomainError(f"free_fall_time must be >= 0, got {free_fall_time}")
    try:
        drop = 0.5 * _g * free_fall_time**2
    except OverflowError:  # float ** raises where * gives inf
        drop = math.inf
    if not math.isfinite(drop):
        raise NumericalError(f"drop distance at t = {free_fall_time!r} s is {drop!r}")
    return drop


@dataclass(frozen=True)
class Particle:
    """Geometric and material description of the nanosphere.

    Attributes
    ----------
    radius : float
        Sphere radius [m], > 0.
    mass_density : float
        Material density [kg/m^3], > 0.
    thermal_permittivity : complex
        Effective relative permittivity over the thermal-photon band
        (imag >= 0).
    internal_temperature : float
        Bulk temperature of the sphere [K], >= 0; held constant during
        free expansion.
    mass : float
        Derived, density * (4/3) pi radius^3 [kg].
    """

    radius: float
    mass_density: float
    thermal_permittivity: complex = FUSED_SILICA_THERMAL_PERMITTIVITY
    internal_temperature: float = 400.0
    mass: float = field(init=False)

    def __post_init__(self) -> None:
        if self.internal_temperature < 0.0:
            raise DomainError(
                f"internal_temperature must be >= 0, got {self.internal_temperature}"
            )
        if complex(self.thermal_permittivity).imag < 0.0:
            raise DomainError("thermal_permittivity must have imag >= 0")
        # sphere_mass validates radius and density
        object.__setattr__(self, "mass", sphere_mass(self.radius, self.mass_density))


def fused_silica_particle(radius: float = 120e-9, **overrides) -> Particle:
    """A fused-silica sphere with the documented default material constants."""
    return Particle(radius=radius, mass_density=FUSED_SILICA_DENSITY, **overrides)


@dataclass(frozen=True)
class Environment:
    """Thermal and vacuum conditions around the particle.

    Attributes
    ----------
    temperature : float
        Environment (radiation) temperature [K], >= 0.
    gas_pressure : float
        Residual gas pressure [Pa], >= 0.
    gas_particle_mass : float
        Mass of one gas molecule [kg], > 0.
    gas_temperature : float
        Kinetic temperature of the residual gas [K], >= 0, and > 0 at
        nonzero pressure.
    preset : str
        One of ``ground``, ``space``, ``custom``. Named presets pin the
        invariants below; ``custom`` allows anything physical.
    """

    temperature: float
    gas_pressure: float
    gas_particle_mass: float
    gas_temperature: float
    preset: str = "custom"

    def __post_init__(self) -> None:
        if self.temperature < 0.0:
            raise DomainError(f"temperature must be >= 0, got {self.temperature}")
        if self.gas_pressure < 0.0:
            raise DomainError(f"gas_pressure must be >= 0, got {self.gas_pressure}")
        if self.gas_particle_mass <= 0.0:
            raise DomainError(
                f"gas_particle_mass must be > 0, got {self.gas_particle_mass}"
            )
        if self.gas_temperature < 0.0:
            raise DomainError(
                f"gas_temperature must be >= 0, got {self.gas_temperature}"
            )
        if self.gas_temperature == 0.0 and self.gas_pressure > 0.0:
            raise DomainError("gas_temperature must be > 0 at nonzero pressure")
        if self.preset not in PRESETS:
            raise DomainError(f"unknown preset {self.preset!r}")
        if self.preset == "ground" and self.temperature != 300.0:
            raise DomainError("ground preset requires temperature == 300 K")
        if self.preset == "space":
            if not 30.0 <= self.temperature <= 40.0:
                raise DomainError("space preset requires temperature in [30, 40] K")
            if self.gas_pressure > 1e-12:
                raise DomainError("space preset requires gas_pressure <= 1e-12 Pa")


def ground_environment(
    gas_pressure: float = 1e-5,
    gas_particle_mass: float = AIR_MOLECULE_MASS,
    gas_temperature: float = 300.0,
) -> Environment:
    """300 K laboratory environment with residual air."""
    return Environment(
        temperature=300.0,
        gas_pressure=gas_pressure,
        gas_particle_mass=gas_particle_mass,
        gas_temperature=gas_temperature,
        preset="ground",
    )


def space_environment(
    temperature: float = 35.0,
    gas_pressure: float = 1e-12,
    gas_particle_mass: float = H2_MOLECULE_MASS,
    gas_temperature: float | None = None,
) -> Environment:
    """Thermally shielded space platform: 30-40 K and ultra-high vacuum."""
    return Environment(
        temperature=temperature,
        gas_pressure=gas_pressure,
        gas_particle_mass=gas_particle_mass,
        gas_temperature=temperature if gas_temperature is None else gas_temperature,
        preset="space",
    )
