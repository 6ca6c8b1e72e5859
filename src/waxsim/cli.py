"""Command-line front end.

One binary with five subcommands, all driven by the same configuration:

    waxsim rates        per-channel localization budget as CSV
    waxsim expand       wave-packet width curve sigma(t) as CSV
    waxsim campaign     seeded synthetic measurement campaign as CSV
    waxsim bound        minimum detectable collapse rate vs N as CSV
    waxsim feasibility  free-fall drop distances vs an available drop height

Configuration comes from an optional file (``--config`` or the
``WAXSIM_CONFIG`` environment variable) plus flag overrides; flags win.
Every config key is addressable as ``--section.key value``. Exit codes:
0 success, 2 usage or config error (including a run too large to allocate),
3 numerical failure. Model-validity warnings go to stderr and do not change
the exit code.
"""
from __future__ import annotations

import argparse
import os
import re
import sys

from .config import SCHEMA, ConfigBuilder, RunConfig
from .decoherence import total_budget
from .dynamics import expansion_curve
from .errors import ConfigError, DomainError, NumericalError, WaxsimError
from .inference import bisect_lambda_mc, min_detectable_lambda
from .materials import drop_distance
from .protocol import campaign_curve, campaign_to_csv, run_campaign

_TOGGLE_WORDS = {
    "none": {"toggles.gas": False, "toggles.blackbody": False, "toggles.csl": False},
    "standard": {"toggles.gas": True, "toggles.blackbody": True, "toggles.csl": False},
    "all": {"toggles.gas": True, "toggles.blackbody": True, "toggles.csl": True},
}


# options that take a value. argparse reads a following token that starts
# with "-" and is not a plain number (-1e-9, -1,5) as an option of its own.
_VALUE_OPTIONS = frozenset(
    ["--config", "-o", "--output", "--preset", "--toggles", "--workers"]
    + ["--oracle-seeds", "--csl.lambda"]
    + [f"--{key}" for key in SCHEMA]
)
_OPTION_LIKE = re.compile(r"--|-[A-Za-z]$")


def _join_dash_values(argv: list[str]) -> list[str]:
    """Spell ``--key -value`` as ``--key=-value`` so argparse keeps the value.

    A following ``--name`` or ``-x`` is left alone: it is an option, and
    argparse reports the missing value.
    """
    joined: list[str] = []
    for arg in argv:
        if (
            joined
            and joined[-1] in _VALUE_OPTIONS
            and arg.startswith("-")
            and not _OPTION_LIKE.match(arg)
        ):
            joined[-1] = f"{joined[-1]}={arg}"
        else:
            joined.append(arg)
    return joined


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH", help="config file (else $WAXSIM_CONFIG)")
    common.add_argument(
        "--print-config",
        action="store_true",
        help="echo the resolved configuration canonically and exit",
    )
    common.add_argument("-o", "--output", metavar="PATH", help="write output here instead of stdout")
    common.add_argument(
        "--preset",
        choices=("ground", "space", "custom"),
        help="environment preset (shorthand for --environment.preset)",
    )
    common.add_argument(
        "--toggles",
        choices=sorted(_TOGGLE_WORDS),
        help="channel selection word applied before individual channel flags",
    )
    common.add_argument("--no-gas", action="store_true", help="disable gas collisions")
    common.add_argument("--no-blackbody", action="store_true", help="disable thermal-photon channels")
    common.add_argument("--csl", action="store_true", help="enable the collapse channel")
    common.add_argument("--workers", type=int, metavar="N", help="worker threads (output is identical)")
    for key, (kind, default, unit, help_text) in SCHEMA.items():
        names = [f"--{key}"]
        if key == "csl.lambda_hz":
            names.append("--csl.lambda")
        common.add_argument(
            *names,
            dest=key.replace(".", "__"),
            metavar="VALUE",
            help=f"{help_text} [{unit}] (default {default})",
        )

    parser = argparse.ArgumentParser(
        prog="waxsim",
        description="Wave-packet expansion simulator and collapse-rate inference.",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("rates", parents=[common], help="per-channel localization budget CSV")
    sub.add_parser("expand", parents=[common], help="wave-packet width curve CSV")
    p_campaign = sub.add_parser("campaign", parents=[common], help="seeded measurement campaign CSV")
    p_campaign.add_argument(
        "--dump-samples",
        action="store_true",
        help="emit raw positions (t_s,run_index,x_m) instead of width estimates",
    )
    p_bound = sub.add_parser("bound", parents=[common], help="minimum detectable collapse rate CSV")
    p_bound.add_argument(
        "--oracle-check",
        action="store_true",
        help="cross-check each row against the Monte-Carlo power oracle",
    )
    p_bound.add_argument(
        "--oracle-seeds", type=int, default=64, metavar="N", help="seeds per oracle power estimate"
    )
    sub.add_parser("feasibility", parents=[common], help="drop-distance report")
    return parser


def _resolve_config(args: argparse.Namespace) -> RunConfig:
    builder = ConfigBuilder()
    path = args.config or os.environ.get("WAXSIM_CONFIG") or None
    if path:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}") from exc
        builder.read_text(text, source=path)
    if args.preset:
        builder.set_raw("environment.preset", args.preset)
    if args.toggles:
        for key, value in _TOGGLE_WORDS[args.toggles].items():
            builder.set_value(key, value)
    if args.no_gas:
        builder.set_value("toggles.gas", False)
    if args.no_blackbody:
        builder.set_value("toggles.blackbody", False)
    if args.csl:
        builder.set_value("toggles.csl", True)
    for key in SCHEMA:
        raw = getattr(args, key.replace(".", "__"), None)
        if raw is not None:
            builder.set_raw(key, raw)
    return builder.finalize()


def _budget_warnings(config: RunConfig) -> list[str]:
    """Validity warnings of the configured budget, as ``expand`` reports them."""
    budget = total_budget(
        config.particle(), config.environment(), config.csl(), config.toggles()
    )
    return list(budget.warnings)


def _cmd_rates(config: RunConfig, args) -> tuple[str, list[str]]:
    budget = total_budget(
        config.particle(), config.environment(), config.csl(), config.toggles()
    )
    rows = [
        ("blackbody_scattering", budget.blackbody_scattering),
        ("blackbody_absorption", budget.blackbody_absorption),
        ("blackbody_emission", budget.blackbody_emission),
        ("gas_collisions", budget.gas_collisions),
        ("csl", budget.csl),
        ("total", budget.total),
    ]
    lines = ["channel,lambda_m2s"]
    lines.extend(f"{name},{value!r}" for name, value in rows)
    return "\n".join(lines) + "\n", list(budget.warnings)


def _cmd_expand(config: RunConfig, args) -> tuple[str, list[str]]:
    curve = expansion_curve(
        config.particle(),
        config.environment(),
        config.csl(),
        config.toggles(),
        config.trap_frequency(),
        config.get("trap.occupancy"),
        config.get("campaign.time_grid_s"),
    )
    return curve.to_csv(), list(curve.warnings)


def _cmd_campaign(config: RunConfig, args) -> tuple[str, list[str]]:
    if args.dump_samples:
        data = run_campaign(
            config.campaign(),
            config.particle(),
            config.environment(),
            config.csl(),
            config.toggles(),
            config.trap_frequency(),
            workers=args.workers,
        )
        return data.to_csv(), _budget_warnings(config)
    estimates = campaign_curve(
        config.campaign(),
        config.particle(),
        config.environment(),
        config.csl(),
        config.toggles(),
        config.trap_frequency(),
        workers=args.workers,
    )
    return campaign_to_csv(estimates), _budget_warnings(config)


def _cmd_bound(config: RunConfig, args) -> tuple[str, list[str]]:
    if args.oracle_seeds < 1:
        raise ConfigError(f"--oracle-seeds must be >= 1, got {args.oracle_seeds}")
    n_sweep = config.get("bound.n_sweep")
    if not n_sweep:
        raise ConfigError("bound.n_sweep must be non-empty")
    grid = config.get("campaign.time_grid_s")
    kwargs = dict(
        particle=config.particle(),
        env=config.environment(),
        csl_geometry=config.csl(),
        toggles=config.toggles(),
        detection=config.detection(),
        trap_frequency=config.trap_frequency(),
        occupancy=config.get("trap.occupancy"),
        measurement_noise=config.get("campaign.measurement_noise_m"),
        drift_velocity_std=config.get("campaign.drift_velocity_std_m_s"),
    )

    results = [min_detectable_lambda(n, grid, **kwargs) for n in n_sweep]

    warnings = _budget_warnings(config)
    if args.oracle_check:
        seeds = list(range(1, args.oracle_seeds + 1))
        for n, res in zip(n_sweep, results):
            mc = bisect_lambda_mc(
                n,
                grid,
                seeds=seeds,
                lambda_lo=res.lambda_min / 32.0,
                lambda_hi=res.lambda_min * 32.0,
                **kwargs,
            )
            if not (0.5 <= mc / res.lambda_min <= 2.0):
                warnings.append(
                    f"oracle check failed at N={n}: closed form "
                    f"{res.lambda_min:.3e} Hz vs Monte-Carlo {mc:.3e} Hz"
                )

    lines = ["n_per_time,lambda_min_hz,lambda_min_grw,best_time_s"]
    for res in results:
        lines.append(
            f"{res.n_per_time},{res.lambda_min!r},{res.lambda_min_grw!r},{res.best_time!r}"
        )
    return "\n".join(lines) + "\n", warnings


def _cmd_feasibility(config: RunConfig, args) -> tuple[str, list[str]]:
    platform = config.get("feasibility.platform")
    height = config.get("feasibility.drop_height_m")
    lines = [f"platform {platform}: drop height {height!r} m"]
    for t in config.get("campaign.time_grid_s"):
        drop = drop_distance(t)
        fits = "yes" if drop <= height else "no"
        lines.append(f"t_s={t!r} drop_m={drop!r} fits={fits}")
    return "\n".join(lines) + "\n", []


_COMMANDS = {
    "rates": _cmd_rates,
    "expand": _cmd_expand,
    "campaign": _cmd_campaign,
    "bound": _cmd_bound,
    "feasibility": _cmd_feasibility,
}


def _emit(text: str, output: str | None) -> None:
    if output:
        with open(output, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _build_parser().parse_args(_join_dash_values(argv))
    try:
        config = _resolve_config(args)
        if args.print_config:
            _emit(config.canonical_text(), args.output)
            return 0
        text, warnings = _COMMANDS[args.command](config, args)
    except (ConfigError, DomainError) as exc:
        print(f"waxsim: error: {exc}", file=sys.stderr)
        return 2
    except (NumericalError, WaxsimError) as exc:
        print(f"waxsim: numerical failure: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        reason = str(exc) or "allocation failed"
        print(f"waxsim: error: run too large for memory: {reason}", file=sys.stderr)
        return 2
    _emit(text, args.output)
    for message in warnings:
        print(f"waxsim: warning: {message}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
