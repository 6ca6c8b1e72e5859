import pytest

from waxsim import fused_silica_particle, ground_environment, space_environment


@pytest.fixture
def silica():
    """120 nm fused-silica sphere at 400 K internal temperature."""
    return fused_silica_particle()


@pytest.fixture
def ground():
    return ground_environment()


@pytest.fixture
def no_gas():
    """The ground preset at pressure 0: its gas channel is off."""
    return ground_environment(gas_pressure=0.0)


@pytest.fixture
def space():
    return space_environment()
