"""Particle, environment and feasibility arithmetic."""
import dataclasses
import math
import re

import pytest
from numpy.testing import assert_allclose

from waxsim import (
    DomainError,
    Environment,
    NumericalError,
    Particle,
    drop_distance,
    fused_silica_particle,
    ground_environment,
    initial_state,
    space_environment,
    sphere_mass,
)
from waxsim.constants import hbar

# Frozen with 50-digit arithmetic from the volume formula.
SILICA_120NM_MASS = 1.5924104842515944e-17
# sqrt(hbar / (2 m omega)) at omega = 2 pi 1e5 rad/s, same precision.
SIGMA0_120NM = 2.2956497833141595e-12

OMEGA = 2.0 * math.pi * 1e5


def test_sphere_mass_golden():
    assert_allclose(sphere_mass(120e-9, 2200.0), SILICA_120NM_MASS, rtol=1e-12)


def test_sphere_mass_unit_cancellation():
    # volume factor cancels: radius 1 m at density 3/(4 pi) is exactly 1 kg
    assert_allclose(sphere_mass(1.0, 3.0 / (4.0 * math.pi)), 1.0, rtol=1e-12)


def test_sphere_mass_cubic_scaling():
    m1 = sphere_mass(1.7e-7, 1234.0)
    m2 = sphere_mass(3.4e-7, 1234.0)
    assert_allclose(m2, 8.0 * m1, rtol=1e-12)


@pytest.mark.parametrize("radius,density", [(0.0, 2200.0), (-1e-9, 2200.0), (1e-7, 0.0), (1e-7, -5.0)])
def test_sphere_mass_rejects_nonpositive(radius, density):
    with pytest.raises(DomainError):
        sphere_mass(radius, density)


@pytest.mark.parametrize(
    "radius,density",
    [(1e300, 2200.0), (1e102, 2200.0), (1.2e-7, 1e308), (1e-120, 2200.0), (1.2e-7, 1e-320)],
)
def test_sphere_mass_overflow_is_a_numerical_error(radius, density):
    # radius**3 raises at 1e300; elsewhere the products overflow to inf, or
    # underflow to 0, silently
    flow = "overflows" if radius * density > 1.0 else "underflows"
    reason = f"particle mass {flow} at radius {radius!r} m, density {density!r} kg/m^3"
    with pytest.raises(NumericalError, match=re.escape(reason)):
        sphere_mass(radius, density)


def ground_state_width(radius, density, trap_frequency):
    """sigma_0 = sqrt(hbar / (2 m omega)), the width of the occupancy-0 state."""
    return initial_state(Particle(radius, density), trap_frequency).sigma


def test_ground_state_width_golden():
    assert_allclose(ground_state_width(120e-9, 2200.0, OMEGA), SIGMA0_120NM, rtol=1e-12)


def test_ground_state_width_scalings():
    base = ground_state_width(1e-7, 2000.0, OMEGA)
    assert_allclose(ground_state_width(1e-7, 8000.0, OMEGA), base / 2.0, rtol=1e-12)
    assert_allclose(ground_state_width(1e-7, 2000.0, 4.0 * OMEGA), base / 2.0, rtol=1e-12)


def test_ground_state_width_identity():
    particle = Particle(9e-8, 1213.0)
    w = initial_state(particle, OMEGA).sigma
    assert_allclose(w**2 * (2.0 * particle.mass * OMEGA / hbar), 1.0, rtol=1e-12)


def test_ground_state_width_rejects_nonpositive():
    with pytest.raises(DomainError):
        ground_state_width(1e-7, 0.0, OMEGA)
    with pytest.raises(DomainError):
        ground_state_width(1e-7, 2000.0, -1.0)


def test_drop_distance_long_expansion_scale():
    assert 480.0 <= drop_distance(10.0) <= 500.0
    assert 4.8e4 <= drop_distance(100.0) <= 5.0e4
    assert drop_distance(0.0) == 0.0


def test_drop_distance_quadratic():
    assert_allclose(drop_distance(34.0), 4.0 * drop_distance(17.0), rtol=1e-12)


def test_drop_distance_rejects_negative():
    with pytest.raises(DomainError):
        drop_distance(-0.1)


@pytest.mark.parametrize("time", [1e154, 1.3e154, 1e200])
def test_drop_distance_overflow_is_a_numerical_error(time):
    # up to about 1.3e154 t**2 is finite, but 0.5 * g * t**2 overflows to inf
    # without raising; at 1e200 t**2 itself raises OverflowError
    with pytest.raises(NumericalError, match=re.escape(f"drop distance at t = {time!r} s is inf")):
        drop_distance(time)


def test_particle_mass_is_derived(silica):
    assert silica.mass == sphere_mass(silica.radius, silica.mass_density)
    assert silica.internal_temperature == 400.0


def test_particle_rejects_bad_values():
    with pytest.raises(DomainError):
        fused_silica_particle(internal_temperature=-1.0)
    with pytest.raises(DomainError):
        fused_silica_particle(thermal_permittivity=2.1 - 0.1j)
    with pytest.raises(DomainError):
        Particle(radius=-1e-9, mass_density=2200.0)


def test_particle_is_immutable(silica):
    with pytest.raises(dataclasses.FrozenInstanceError):
        silica.radius = 1.0


def test_ground_preset_invariants(ground):
    assert ground.preset == "ground"
    assert ground.temperature == 300.0
    assert ground.gas_pressure == 1e-5


def test_space_preset_invariants(space):
    assert space.preset == "space"
    assert 30.0 <= space.temperature <= 40.0
    assert space.gas_pressure <= 1e-12


def test_preset_invariants_enforced():
    with pytest.raises(DomainError):
        space_environment(temperature=50.0)
    with pytest.raises(DomainError):
        space_environment(gas_pressure=1e-9)
    with pytest.raises(DomainError):
        Environment(
            temperature=299.0,
            gas_pressure=1e-5,
            gas_particle_mass=4.8e-26,
            gas_temperature=300.0,
            preset="ground",
        )


def test_custom_environment_allows_extremes():
    env = Environment(
        temperature=0.0,
        gas_pressure=0.0,
        gas_particle_mass=4.8e-26,
        gas_temperature=0.0,
    )
    assert env.preset == "custom"


def test_zero_gas_temperature_with_pressure_rejected():
    with pytest.raises(DomainError, match="gas_temperature must be > 0 at nonzero pressure"):
        Environment(
            temperature=300.0,
            gas_pressure=1e-6,
            gas_particle_mass=4.81e-26,
            gas_temperature=0.0,
        )
