"""Localization rates: thermal photons, gas collisions, collapse model."""
import math

import pytest
from numpy.testing import assert_allclose

from waxsim import (
    ChannelToggles,
    CSLParams,
    DomainError,
    Environment,
    Particle,
    csl_sphere_factor_bruteforce,
    decoherence,
    fused_silica_particle,
    lambda_blackbody,
    lambda_csl,
    lambda_gas,
    sphere_geometry_factor,
    thermal_wavelength,
    total_budget,
)

# Goldens frozen with 50-digit arithmetic from the closed forms in
# docs/models.md at the default material constants (eps_bb = 2.1 + 0.25i),
# R = 120 nm, T_env = 300 K, T_int = 400 K.
GOLDEN_SCATTERING = 8545063302043936.6
GOLDEN_ABSORPTION = 3.0164758422286373e18
GOLDEN_EMISSION = 1.6948539162919751e19
# ground preset: air (28.97 amu) at 300 K and 1e-5 Pa
GOLDEN_GAS_GROUND = 9.9752611086539004e26
# R = 120 nm, a = 100 nm, lambda = 1e-13 Hz, silica sphere
GOLDEN_CSL = 1.1781740485792614e20
GOLDEN_F_12 = 0.51245717967644604


def _custom_env(temperature, pressure=0.0, gas_mass=4.81e-26, gas_temp=300.0):
    return Environment(
        temperature=temperature,
        gas_pressure=pressure,
        gas_particle_mass=gas_mass,
        gas_temperature=gas_temp,
    )


class TestBlackbody:
    def test_golden_triple(self, silica, ground):
        bb = lambda_blackbody(silica, ground)
        assert_allclose(bb.scattering, GOLDEN_SCATTERING, rtol=1e-12)
        assert_allclose(bb.absorption, GOLDEN_ABSORPTION, rtol=1e-12)
        assert_allclose(bb.emission, GOLDEN_EMISSION, rtol=1e-12)
        assert bb.warnings == ()

    def test_cold_environment_kills_scattering_and_absorption(self, silica):
        bb = lambda_blackbody(silica, _custom_env(0.0))
        assert bb.scattering == 0.0
        assert bb.absorption == 0.0
        assert bb.emission > 0.0

    def test_cold_sphere_kills_emission(self, ground):
        particle = fused_silica_particle(internal_temperature=0.0)
        bb = lambda_blackbody(particle, ground)
        assert bb.emission == 0.0
        assert bb.scattering > 0.0

    def test_temperature_scaling_exponents(self, silica):
        lo = lambda_blackbody(silica, _custom_env(150.0))
        hi = lambda_blackbody(silica, _custom_env(300.0))
        assert_allclose(hi.scattering / lo.scattering, 2.0**9, rtol=1e-6)
        assert_allclose(hi.absorption / lo.absorption, 2.0**6, rtol=1e-6)
        cool = lambda_blackbody(fused_silica_particle(internal_temperature=200.0), _custom_env(300.0))
        warm = lambda_blackbody(fused_silica_particle(internal_temperature=400.0), _custom_env(300.0))
        assert_allclose(warm.emission / cool.emission, 2.0**6, rtol=1e-6)

    def test_validity_flag_when_wavelength_comparable_to_radius(self, silica):
        # thermal wavelength at 300 K is ~48 um; a 10 um sphere breaks the
        # long-wavelength assumption and must come back flagged, not rejected
        big = fused_silica_particle(radius=10e-6)
        bb = lambda_blackbody(big, _custom_env(300.0))
        assert bb.warnings
        assert "outside model validity" in bb.warnings[0]
        assert bb.scattering > 0.0

    def test_thermal_wavelength(self):
        assert thermal_wavelength(0.0) == math.inf
        assert_allclose(thermal_wavelength(300.0), 4.79592292207e-5, rtol=1e-9)


class TestGas:
    def test_zero_pressure_is_zero(self, silica):
        assert lambda_gas(silica, _custom_env(300.0, pressure=0.0)) == 0.0

    def test_linear_in_pressure(self, silica):
        lo = lambda_gas(silica, _custom_env(300.0, pressure=1e-7))
        hi = lambda_gas(silica, _custom_env(300.0, pressure=2e-7))
        assert_allclose(hi, 2.0 * lo, rtol=1e-12)

    def test_golden_ground(self, silica, ground):
        assert_allclose(lambda_gas(silica, ground), GOLDEN_GAS_GROUND, rtol=1e-12)

    def test_space_pressure_is_seven_orders_down(self, silica):
        # linear in P: 1e-12 Pa vs 1e-5 Pa, all else equal
        ground_like = _custom_env(300.0, pressure=1e-5)
        space_like = _custom_env(300.0, pressure=1e-12)
        ratio = lambda_gas(silica, ground_like) / lambda_gas(silica, space_like)
        assert_allclose(ratio, 1e7, rtol=1e-9)

    def test_cross_section_scaling(self, ground):
        small = fused_silica_particle(radius=60e-9)
        large = fused_silica_particle(radius=120e-9)
        assert_allclose(
            lambda_gas(large, ground) / lambda_gas(small, ground), 4.0, rtol=1e-12
        )

    def test_zero_gas_temperature_with_pressure_rejected(self, silica):
        with pytest.raises(DomainError):
            lambda_gas(silica, _custom_env(300.0, pressure=1e-6, gas_temp=0.0))


class TestCSL:
    def test_zero_rate_is_zero(self, silica):
        assert lambda_csl(silica, CSLParams(collapse_rate=0.0)) == 0.0

    def test_zero_rate_skips_the_geometry(self, silica, monkeypatch):
        # rate 0 is the off switch: a geometry that would divide by zero or
        # overflow is never evaluated, as lambda_gas skips its model at
        # pressure 0
        def refuse(ratio):
            raise AssertionError("geometry factor evaluated at rate 0")

        monkeypatch.setattr(decoherence, "sphere_geometry_factor", refuse)
        assert lambda_csl(silica, CSLParams(0.0)) == 0.0

    def test_point_limit(self):
        # R << a: the geometry factor drops out
        tiny = fused_silica_particle(radius=1e-12)
        csl = CSLParams(collapse_rate=1e-13, correlation_length=100e-9)
        expected = (
            csl.collapse_rate
            * (tiny.mass / csl.reference_mass) ** 2
            / (4.0 * csl.correlation_length**2)
        )
        assert_allclose(lambda_csl(tiny, csl), expected, rtol=1e-8)

    def test_golden_rate(self, silica):
        csl = CSLParams(collapse_rate=1e-13, correlation_length=100e-9)
        assert_allclose(lambda_csl(silica, csl), GOLDEN_CSL, rtol=1e-12)

    def test_quadratic_in_mass(self):
        csl = CSLParams(collapse_rate=1e-13)
        light = fused_silica_particle()
        heavy = Particle(radius=light.radius, mass_density=2.0 * light.mass_density)
        assert_allclose(
            lambda_csl(heavy, csl), 4.0 * lambda_csl(light, csl), rtol=1e-9
        )

    def test_monotone_in_rate(self, silica):
        rates = [1e-16, 1e-14, 1e-12, 1e-10]
        values = [lambda_csl(silica, CSLParams(collapse_rate=r)) for r in rates]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_invalid_params_rejected(self):
        with pytest.raises(DomainError):
            CSLParams(collapse_rate=-1e-16)
        with pytest.raises(DomainError):
            CSLParams(collapse_rate=1e-16, correlation_length=0.0)


class TestGeometryFactor:
    def test_point_value(self):
        assert sphere_geometry_factor(0.0) == 1.0

    def test_golden(self):
        assert_allclose(sphere_geometry_factor(1.2), GOLDEN_F_12, rtol=1e-12)

    def test_series_direct_crossover_is_smooth(self):
        below = sphere_geometry_factor(0.1 - 1e-9)
        above = sphere_geometry_factor(0.1 + 1e-9)
        assert_allclose(below, above, rtol=1e-7)

    def test_rejects_negative(self):
        with pytest.raises(DomainError):
            sphere_geometry_factor(-0.5)

    @pytest.mark.parametrize("ratio", [0.1, 1.0, 1.2, 5.0])
    def test_against_bruteforce_quadrature(self, ratio):
        # independent route: numeric double integral of the smeared mass
        # density, quadratic coefficient extracted by finite differences
        assert_allclose(
            sphere_geometry_factor(ratio),
            csl_sphere_factor_bruteforce(ratio),
            rtol=1e-3,
        )


class TestBudget:
    def test_all_off_is_zero(self, silica, no_gas):
        budget = total_budget(
            silica, no_gas, CSLParams(0.0), ChannelToggles(blackbody=False)
        )
        assert budget.total == 0.0

    def test_gas_off_blackbody_on(self, silica, no_gas):
        budget = total_budget(silica, no_gas)
        assert budget.gas_collisions == 0.0
        assert budget.csl == 0.0
        assert budget.total == (
            budget.blackbody_scattering
            + budget.blackbody_absorption
            + budget.blackbody_emission
        )

    def test_single_channel(self, silica, ground):
        toggles = ChannelToggles(blackbody=False)
        budget = total_budget(silica, ground, toggles=toggles)
        assert budget.total == budget.gas_collisions
        assert budget.gas_collisions == lambda_gas(silica, ground)

    def test_total_is_exact_sum(self, silica, ground):
        budget = total_budget(silica, ground, CSLParams(1e-13))
        assert budget.total == (
            budget.blackbody_scattering
            + budget.blackbody_absorption
            + budget.blackbody_emission
            + budget.gas_collisions
            + budget.csl
        )

    def test_all_entries_finite_nonnegative(self, silica, space):
        budget = total_budget(silica, space, CSLParams(1e-13))
        for value in (
            budget.blackbody_scattering,
            budget.blackbody_absorption,
            budget.blackbody_emission,
            budget.gas_collisions,
            budget.csl,
            budget.total,
        ):
            assert math.isfinite(value) and value >= 0.0

    def test_missing_csl_params_means_zero_channel(self, silica, ground):
        budget = total_budget(silica, ground, toggles=ChannelToggles())
        assert budget.csl == 0.0
