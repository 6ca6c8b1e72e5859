"""waxsim: wave-packet expansion of levitated nanospheres.

Predicts the free expansion of a nanosphere's center-of-mass wave packet
under standard decoherence (gas collisions, thermal photons) and collapse
models, simulates the release-expand-measure protocol as seeded Monte-Carlo
campaigns, and computes the minimum collapse rate detectable for a given
measurement budget.

Importing the package loads numpy only; scipy is imported by the functions
that use it (campaign sampling, chi-square thresholds, the quadrature
oracle).
"""
from .constants import LAMBDA_GRW, amu, c, g, hbar, kB
from .decoherence import (
    BlackbodyRates,
    ChannelToggles,
    CSLParams,
    DecoherenceBudget,
    lambda_blackbody,
    lambda_csl,
    lambda_gas,
    sphere_geometry_factor,
    thermal_wavelength,
    total_budget,
)
from .dynamics import (
    ExpansionCurve,
    GaussianState,
    Scenario,
    evolve_free,
    expansion_curve,
    initial_state,
)
from .errors import (
    ConfigError,
    DomainError,
    NumericalError,
    WaxsimError,
)
from .inference import (
    DetectionConfig,
    DetectionResult,
    bisect_lambda_mc,
    bisect_lambda_mc_sweep,
    csl_sensitivity,
    detection_power_mc,
    min_detectable_lambda,
    variance_excess,
)
from .materials import (
    DEFAULT_TRAP_FREQUENCY,
    Environment,
    Particle,
    drop_distance,
    environment_preset,
    fused_silica_particle,
    ground_environment,
    ground_state_width,
    space_environment,
    sphere_mass,
)
from .protocol import (
    CampaignConfig,
    PositionSamples,
    WidthEstimate,
    campaign_curve,
    campaign_to_csv,
    estimate_width,
    run_campaign,
)

from .validation import csl_sphere_factor_bruteforce, evolve_numeric, rk4_integrate

__version__ = "0.1.0"

__all__ = [
    "BlackbodyRates",
    "CSLParams",
    "CampaignConfig",
    "ChannelToggles",
    "ConfigError",
    "DEFAULT_TRAP_FREQUENCY",
    "DecoherenceBudget",
    "DetectionConfig",
    "DetectionResult",
    "DomainError",
    "Environment",
    "ExpansionCurve",
    "GaussianState",
    "LAMBDA_GRW",
    "NumericalError",
    "Particle",
    "PositionSamples",
    "Scenario",
    "WaxsimError",
    "WidthEstimate",
    "amu",
    "bisect_lambda_mc",
    "bisect_lambda_mc_sweep",
    "c",
    "campaign_curve",
    "campaign_to_csv",
    "csl_sensitivity",
    "csl_sphere_factor_bruteforce",
    "detection_power_mc",
    "drop_distance",
    "environment_preset",
    "estimate_width",
    "evolve_free",
    "evolve_numeric",
    "expansion_curve",
    "fused_silica_particle",
    "g",
    "ground_environment",
    "ground_state_width",
    "hbar",
    "initial_state",
    "kB",
    "lambda_blackbody",
    "lambda_csl",
    "lambda_gas",
    "min_detectable_lambda",
    "rk4_integrate",
    "run_campaign",
    "space_environment",
    "sphere_geometry_factor",
    "sphere_mass",
    "thermal_wavelength",
    "total_budget",
    "variance_excess",
]
