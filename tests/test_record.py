"""The frozen records: construction, immutability, equality, ``replace`` and ``repr``."""
import numpy as np
import pytest

from waxsim import (
    CampaignConfig,
    ChannelToggles,
    CSLParams,
    DomainError,
    Particle,
    Scenario,
    fused_silica_particle,
    ground_environment,
)
from waxsim.protocol import CampaignSamples


class TestConstruction:
    def test_positional_and_keyword_in_field_order_with_defaults(self):
        positional = CSLParams(1e-8, 2e-7)
        keyword = CSLParams(correlation_length=2e-7, collapse_rate=1e-8)
        assert positional == keyword
        assert positional.reference_mass == CSLParams(0.0).reference_mass

    @pytest.mark.parametrize(
        "args, kwargs, message",
        [
            ((), {}, "missing required argument 'collapse_rate'"),
            ((0.0,), {"rate": 1.0}, "unexpected keyword argument 'rate'"),
            ((0.0,), {"collapse_rate": 1.0}, "multiple values for argument 'collapse_rate'"),
            ((0.0, 1e-7, 1e-27, 4), {}, "takes 3 positional arguments but 4 were given"),
        ],
        ids=["missing", "unknown", "repeated", "too-many"],
    )
    def test_bad_arguments_raise_type_error(self, args, kwargs, message):
        with pytest.raises(TypeError, match=message):
            CSLParams(*args, **kwargs)

    def test_derived_field_is_refused(self):
        with pytest.raises(TypeError, match="'mass'"):
            Particle(radius=1e-7, mass_density=2200.0, mass=1.0)

    def test_post_init_runs_after_the_fields_are_set(self):
        config = CampaignConfig([0.0, 1.0], 2)
        assert config.time_grid == (0.0, 1.0)
        with pytest.raises(DomainError):
            CampaignConfig((0.0, 1.0), 1)


class TestFrozen:
    @pytest.mark.parametrize("name", ["radius", "mass", "unknown"])
    def test_assignment_and_deletion_name_the_field(self, silica, name):
        before = vars(silica).copy()
        with pytest.raises(AttributeError, match=f"'{name}'"):
            setattr(silica, name, 1.0)
        with pytest.raises(AttributeError, match=f"'{name}'"):
            delattr(silica, name)
        assert vars(silica) == before

    def test_cached_properties_still_memoise(self, silica, ground):
        scenario = Scenario(silica, ground)
        assert scenario.state0 is scenario.state0
        assert scenario.budget is scenario.budget


class TestEquality:
    def test_equal_values_are_equal_and_hash_alike(self):
        assert CSLParams(1e-8) == CSLParams(1e-8)
        assert hash(CSLParams(1e-8)) == hash(CSLParams(1e-8))
        assert CSLParams(1e-8) != CSLParams(2e-8)
        assert len({ChannelToggles(), ChannelToggles(), ChannelToggles(False)}) == 2

    def test_other_classes_are_unequal(self):
        assert ChannelToggles(True) != (True,)
        assert ChannelToggles(True).__eq__((True,)) is NotImplemented

    def test_nested_records_compare_by_value(self):
        assert Scenario(fused_silica_particle(), ground_environment()) == Scenario(
            fused_silica_particle(), ground_environment()
        )

    def test_campaign_samples_keep_identity_equality(self):
        sigmas = np.ones(2)
        view = CampaignSamples(0, sigmas, 4)
        assert view == view
        assert view != CampaignSamples(0, sigmas, 4)
        assert hash(view) == object.__hash__(view)


class TestReplace:
    def test_changes_only_the_named_fields(self):
        csl = CSLParams(1e-8, 2e-7)
        assert csl.replace(collapse_rate=0.0) == CSLParams(0.0, 2e-7)
        assert csl == CSLParams(1e-8, 2e-7)

    def test_revalidates(self):
        with pytest.raises(DomainError, match="collapse_rate"):
            CSLParams(0.0).replace(collapse_rate=-1.0)

    def test_recomputes_a_derived_field(self, silica):
        assert silica.replace(radius=2 * silica.radius).mass == pytest.approx(8 * silica.mass)

    def test_refuses_a_derived_field(self, silica):
        with pytest.raises(TypeError, match="'mass'"):
            silica.replace(mass=1.0)


def test_particle_repr():
    assert repr(fused_silica_particle()) == (
        "Particle(radius=1.2e-07, mass_density=2200.0, thermal_permittivity=(2.1+0.25j), "
        "internal_temperature=400.0, mass=1.5924104842515937e-17)"
    )


def test_scenario_repr():
    assert repr(Scenario(fused_silica_particle(), ground_environment())) == (
        "Scenario(particle=Particle(radius=1.2e-07, mass_density=2200.0, "
        "thermal_permittivity=(2.1+0.25j), internal_temperature=400.0, "
        "mass=1.5924104842515937e-17), environment=Environment(temperature=300.0, "
        "gas_pressure=1e-05, gas_particle_mass=4.8105816759402e-26, gas_temperature=300.0, "
        "preset='ground'), csl=CSLParams(collapse_rate=0.0, correlation_length=1e-07, "
        "reference_mass=1.6605390666e-27), toggles=ChannelToggles(blackbody=True), "
        "trap_frequency=628318.5307179586, occupancy=0.0, measurement_noise=0.0, "
        "drift_velocity_std=0.0)"
    )
