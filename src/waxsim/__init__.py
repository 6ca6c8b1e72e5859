"""waxsim: wave-packet expansion of levitated nanospheres.

Predicts the free expansion of a nanosphere's center-of-mass wave packet
under standard decoherence (gas collisions, thermal photons) and collapse
models, simulates the release-expand-measure protocol as seeded Monte-Carlo
campaigns, and computes the minimum collapse rate detectable for a given
measurement budget.

Importing the package loads none of its modules, and so neither numpy nor
scipy: each public name imports its module on first use (PEP 562). The
scalar modules (``constants``, ``errors``, ``materials``, ``decoherence``,
``dynamics``) load no numpy; ``dynamics`` imports it in its array functions,
``protocol``, ``inference`` and ``validation`` at import. scipy is imported
by the functions that use it (campaign sampling, chi-square thresholds, the
quadrature oracle). ``validation`` holds the verification oracles (RK4
moments, sphere-factor quadrature, Monte-Carlo detection power); it imports
``protocol`` and ``inference``, and no model or command imports it.
"""
from importlib import import_module

__version__ = "0.1.0"

# module -> the public names it defines
_EXPORTS = {
    "constants": ("LAMBDA_GRW", "amu", "c", "g", "hbar", "kB"),
    "decoherence": (
        "BlackbodyRates",
        "ChannelToggles",
        "CSLParams",
        "DecoherenceBudget",
        "lambda_blackbody",
        "lambda_csl",
        "lambda_gas",
        "sphere_geometry_factor",
        "thermal_wavelength",
        "total_budget",
    ),
    "dynamics": (
        "CampaignConfig",
        "DetectionConfig",
        "ExpansionCurve",
        "GaussianState",
        "Scenario",
        "evolve_free",
        "expansion_curve",
        "initial_state",
    ),
    "errors": ("ConfigError", "DomainError", "NumericalError", "WaxsimError"),
    "inference": (
        "DetectionResult",
        "bisect_lambda_mc_sweep",
        "csl_sensitivity",
        "min_detectable_lambda",
    ),
    "materials": (
        "DEFAULT_TRAP_FREQUENCY",
        "Environment",
        "Particle",
        "drop_distance",
        "fused_silica_particle",
        "ground_environment",
        "space_environment",
        "sphere_mass",
    ),
    "protocol": (
        "PositionSamples",
        "WidthEstimate",
        "campaign_curve",
        "campaign_to_csv",
        "run_campaign",
    ),
    "validation": (
        "csl_sphere_factor_bruteforce",
        "detection_power_mc",
        "evolve_numeric",
        "rk4_integrate",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # not cached here, so a name always reads its module's current binding
    return getattr(import_module(f".{module}", __name__), name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
