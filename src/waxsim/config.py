"""Run configuration: line-oriented config files, typed keys, canonical echo.

Config files are plain text, one ``section.key = value`` assignment per line;
blank lines and ``#`` comments are ignored. Every key has a fixed SI unit and
a documented default; unknown keys are rejected. A parsed configuration
echoes back canonically (all keys, schema order) and the echo re-parses to an
equal configuration.

Float lists accept either a comma-separated list (``0,5,10``) or a linear
range ``start:stop:count``; the canonical form is always the comma list.
A range gives the floats of ``numpy.linspace(start, stop, count)``, which
is imported only to parse one; a span, product or sum that overflows raises
``FloatingPointError`` and the CLI reports it as a numerical failure. A
count whose doubles and floats (40 bytes a time) would not fit in physical
memory is refused before anything is allocated.

Nothing else here imports numpy: the rules that ``ConfigBuilder.finalize``
applies live in :mod:`waxsim.dynamics` and the other model modules, which
are pure Python up to their array functions.
"""
from __future__ import annotations

import math
from typing import Iterable, Mapping

from .constants import amu
from .decoherence import ChannelToggles, CSLParams
from .dynamics import (
    AGGREGATIONS, CampaignConfig, DetectionConfig, Scenario, _check_memory, _check_runs,
    grid_times,
)
from .errors import ConfigError, DomainError
from .materials import (
    AIR_MOLECULE_MASS,
    PRESETS,
    Environment,
    Particle,
    ground_environment,
    space_environment,
)

# key -> (type, default, unit, help)
SCHEMA: dict[str, tuple[str, object, str, str]] = {
    "particle.radius_m": ("float", 120e-9, "m", "sphere radius"),
    "particle.density_kg_m3": ("float", 2200.0, "kg/m^3", "material density"),
    "particle.thermal_permittivity_re": ("float", 2.1, "-", "Re eps over the thermal band"),
    "particle.thermal_permittivity_im": ("float", 0.25, "-", "Im eps over the thermal band"),
    "particle.internal_temperature_k": ("float", 400.0, "K", "bulk temperature of the sphere"),
    "environment.preset": ("str", "ground", "-", "ground, space or custom"),
    "environment.temperature_k": ("float", 300.0, "K", "environment radiation temperature"),
    "environment.gas_pressure_pa": ("float", 1e-5, "Pa", "residual gas pressure"),
    "environment.gas_particle_mass_kg": ("float", AIR_MOLECULE_MASS, "kg", "gas molecule mass"),
    "environment.gas_temperature_k": ("float", 300.0, "K", "gas kinetic temperature"),
    "trap.frequency_hz": ("float", 1e5, "Hz", "trap frequency (omega = 2 pi f)"),
    "trap.occupancy": ("float", 0.0, "-", "mean phonon number after cooling"),
    "csl.lambda_hz": ("float", 0.0, "Hz", "collapse rate"),
    "csl.correlation_length_m": ("float", 100e-9, "m", "collapse correlation length"),
    "csl.reference_mass_kg": ("float", amu, "kg", "reference mass for the rate"),
    "toggles.blackbody": ("bool", True, "-", "enable thermal-photon channels"),
    "campaign.time_grid_s": (
        "floatlist",
        tuple(float(t) for t in range(0, 105, 5)),
        "s",
        "expansion times (comma list or start:stop:count)",
    ),
    "campaign.runs_per_time": ("int", 1000, "-", "repetitions N per grid time"),
    "campaign.measurement_noise_m": ("float", 0.0, "m", "position readout std dev"),
    "campaign.drift_velocity_std_m_s": ("float", 0.0, "m/s", "run-to-run velocity spread"),
    "campaign.seed": ("int", 1, "-", "campaign RNG seed"),
    "detection.confidence_z": ("float", 3.0, "-", "detection threshold in standard errors"),
    "detection.aggregation": ("str", "best-time", "-", "best-time or chi-square-sum"),
    "bound.n_sweep": ("intlist", (100, 400, 1600, 6400), "-", "N values for the bound sweep"),
    "feasibility.platform": ("str", "drop-tower", "-", "label for the drop platform"),
    "feasibility.drop_height_m": ("float", 100.0, "m", "available drop height"),
}

_ENUMS = {"environment.preset": PRESETS, "detection.aggregation": AGGREGATIONS}

# keys a named environment preset supplies when not set explicitly
_PRESET_VALUES = {
    env.preset: {
        "environment.temperature_k": env.temperature,
        "environment.gas_pressure_pa": env.gas_pressure,
        "environment.gas_particle_mass_kg": env.gas_particle_mass,
        "environment.gas_temperature_k": env.gas_temperature,
    }
    for env in (ground_environment(), space_environment())
}


def _parse_bool(raw: str) -> bool:
    low = raw.strip().lower()
    if low in ("true", "yes", "on", "1"):
        return True
    if low in ("false", "no", "off", "0"):
        return False
    raise ConfigError(f"not a boolean: {raw!r}")


def _parse_float(raw: str) -> float:
    try:
        value = float(raw)
    except ValueError as exc:
        raise ConfigError(f"not a number: {raw!r}") from exc
    if not math.isfinite(value):
        raise ConfigError(f"number must be finite: {raw!r}")
    return value


def _parse_floatlist(raw: str) -> tuple[float, ...]:
    raw = raw.strip()
    if ":" in raw:
        parts = raw.split(":")
        if len(parts) != 3:
            raise ConfigError(f"range must be start:stop:count, got {raw!r}")
        start, stop = _parse_float(parts[0]), _parse_float(parts[1])
        count = _parse_int(parts[2])
        if count < 1:
            raise ConfigError("range count must be >= 1")
        # linspace's doubles, then a tuple of 8-byte references to 24-byte floats
        _check_memory(40 * count, f"a range of {count} times")
        import numpy as np

        with np.errstate(over="raise", divide="raise", invalid="raise"):
            return tuple(float(v) for v in np.linspace(start, stop, count))
    return tuple(_parse_float(p) for p in raw.split(",") if p.strip())


def _parse_int(raw: str) -> int:
    try:
        return int(raw.strip(), 10)
    except ValueError as exc:
        raise ConfigError(f"not an integer: {raw!r}") from exc


def _parse_intlist(raw: str) -> tuple[int, ...]:
    return tuple(_parse_int(p) for p in raw.split(",") if p.strip())


_PARSERS = {
    "float": _parse_float,
    "int": _parse_int,
    "bool": _parse_bool,
    "str": lambda raw: raw.strip(),
    "floatlist": _parse_floatlist,
    "intlist": _parse_intlist,
}


def _canonical(kind: str, value) -> str:
    if kind == "bool":
        return "true" if value else "false"
    if kind == "float":
        return repr(float(value))
    if kind == "floatlist":
        return ",".join(repr(float(v)) for v in value)
    if kind == "intlist":
        return ",".join(str(int(v)) for v in value)
    return str(value)


class ConfigBuilder:
    """Accumulates assignments (defaults < file < flags) and finalizes."""

    def __init__(self) -> None:
        self.values: dict[str, object] = {k: v[1] for k, v in SCHEMA.items()}
        self.explicit: set[str] = set()

    def set_raw(self, key: str, raw: str) -> None:
        if key not in SCHEMA:
            raise ConfigError(f"unknown config key {key!r}")
        kind = SCHEMA[key][0]
        try:
            value = _PARSERS[kind](raw)
        # a malformed value, or (DomainError) a range too large for memory
        except (ConfigError, DomainError) as exc:
            raise ConfigError(f"{key}: {exc}") from exc
        if key in _ENUMS and value not in _ENUMS[key]:
            raise ConfigError(
                f"{key} must be one of {', '.join(_ENUMS[key])}, got {value!r}"
            )
        self.values[key] = value
        self.explicit.add(key)

    def read_text(self, text: str, source: str = "<config>") -> None:
        for lineno, line in enumerate(text.splitlines(), start=1):
            stripped = line.split("#", 1)[0].strip()
            if not stripped:
                continue
            if "=" not in stripped:
                raise ConfigError(
                    f"{source}:{lineno}: expected 'key = value', got {line!r}"
                )
            key, raw = stripped.split("=", 1)
            try:
                self.set_raw(key.strip(), raw.strip())
            except ConfigError as exc:
                raise ConfigError(f"{source}:{lineno}: {exc}") from exc

    def finalize(self) -> "RunConfig":
        values = dict(self.values)
        preset = values["environment.preset"]
        for key, value in _PRESET_VALUES.get(preset, {}).items():
            if key not in self.explicit:
                values[key] = value
        try:
            grid_times(values["campaign.time_grid_s"])
        except DomainError as exc:
            raise ConfigError(f"campaign.time_grid_s: {exc}") from exc
        config = RunConfig(values)
        # every command, whatever models it evaluates, rejects the same
        # inputs: build each model object once
        for build in (config.campaign, config.scenario, config.detection):
            build()
        if not values["bound.n_sweep"]:
            raise ConfigError("bound.n_sweep must be non-empty")
        for n in values["bound.n_sweep"]:
            _check_runs(n, "n_per_time")
        height = values["feasibility.drop_height_m"]
        if height < 0.0:
            raise ConfigError(f"feasibility.drop_height_m must be >= 0, got {height!r}")
        return config


class RunConfig:
    """Finalized, validated key-value configuration.

    Equality is by resolved values, so the canonical echo round-trips to an
    equal instance.
    """

    def __init__(self, values: Mapping[str, object]) -> None:
        self._values = dict(values)

    def __eq__(self, other) -> bool:
        return isinstance(other, RunConfig) and self._values == other._values

    def __repr__(self) -> str:
        return f"RunConfig({self._values!r})"

    def get(self, key: str):
        try:
            return self._values[key]
        except KeyError as exc:
            raise ConfigError(f"unknown config key {key!r}") from exc

    def canonical_text(self) -> str:
        lines = []
        section = None
        for key, (kind, _default, unit, help_text) in SCHEMA.items():
            this_section = key.split(".", 1)[0]
            if this_section != section:
                if section is not None:
                    lines.append("")
                lines.append(f"# [{this_section}]")
                section = this_section
            comment = f"  # {unit}; {help_text}" if unit != "-" else f"  # {help_text}"
            lines.append(f"{key} = {_canonical(kind, self._values[key])}{comment}")
        return "\n".join(lines) + "\n"

    # ---- domain-object accessors -------------------------------------

    def particle(self) -> Particle:
        return Particle(
            radius=self.get("particle.radius_m"),
            mass_density=self.get("particle.density_kg_m3"),
            thermal_permittivity=complex(
                self.get("particle.thermal_permittivity_re"),
                self.get("particle.thermal_permittivity_im"),
            ),
            internal_temperature=self.get("particle.internal_temperature_k"),
        )

    def environment(self) -> Environment:
        return Environment(
            temperature=self.get("environment.temperature_k"),
            gas_pressure=self.get("environment.gas_pressure_pa"),
            gas_particle_mass=self.get("environment.gas_particle_mass_kg"),
            gas_temperature=self.get("environment.gas_temperature_k"),
            preset=self.get("environment.preset"),
        )

    def csl(self) -> CSLParams:
        return CSLParams(
            collapse_rate=self.get("csl.lambda_hz"),
            correlation_length=self.get("csl.correlation_length_m"),
            reference_mass=self.get("csl.reference_mass_kg"),
        )

    def toggles(self) -> ChannelToggles:
        return ChannelToggles(blackbody=self.get("toggles.blackbody"))

    def trap_frequency(self) -> float:
        """Angular trap frequency [rad/s]."""
        return 2.0 * math.pi * self.get("trap.frequency_hz")

    def campaign(self) -> CampaignConfig:
        return CampaignConfig(
            time_grid=self.get("campaign.time_grid_s"),
            runs_per_time=self.get("campaign.runs_per_time"),
            rng_seed=self.get("campaign.seed"),
        )

    def scenario(self) -> Scenario:
        """The sphere, its environment, preparation and instrument."""
        return Scenario(
            particle=self.particle(),
            environment=self.environment(),
            csl=self.csl(),
            toggles=self.toggles(),
            trap_frequency=self.trap_frequency(),
            occupancy=self.get("trap.occupancy"),
            measurement_noise=self.get("campaign.measurement_noise_m"),
            drift_velocity_std=self.get("campaign.drift_velocity_std_m_s"),
        )

    def detection(self) -> DetectionConfig:
        return DetectionConfig(
            confidence_z=self.get("detection.confidence_z"),
            aggregation=self.get("detection.aggregation"),
        )


def load_config(
    file_text: str | None = None,
    source: str = "<config>",
    overrides: Iterable[tuple[str, str]] = (),
) -> RunConfig:
    """Build a RunConfig from optional file text plus raw flag overrides."""
    builder = ConfigBuilder()
    if file_text is not None:
        builder.read_text(file_text, source)
    for key, raw in overrides:
        builder.set_raw(key, raw)
    return builder.finalize()
