"""Command-line front end.

One binary with five subcommands, all driven by the same configuration:

    waxsim rates        per-channel localization budget as CSV
    waxsim expand       wave-packet width curve sigma(t) as CSV
    waxsim campaign     seeded synthetic measurement campaign as CSV
    waxsim bound        minimum detectable collapse rate vs N as CSV
    waxsim feasibility  free-fall drop distances vs an available drop height

Configuration comes from an optional file (``--config`` or the
``WAXSIM_CONFIG`` environment variable) plus flag overrides; flags win.
Each config key has exactly one flag, ``--section.key value``. Exit codes:
0 success, 2 usage or config error (including a run too large for memory and
an output that cannot be written), 3 numerical failure (including an
overflow, a division by zero or a nan anywhere in the run), 130 interrupted
(SIGINT, Ctrl-C, from the first import of this module on, caught by
:func:`waxsim.__main__.main`). Every config key is validated before any
command runs. A reader closing stdout early (``waxsim campaign
--dump-samples | head``) ends the run with exit 0. Model-validity warnings
go to stderr and do not change the exit code.

Each command imports only the layers it runs: ``rates``, ``expand``,
``feasibility`` and ``--print-config`` are scalar Python and load no numpy
(unless the time grid is given as a ``start:stop:count`` range, which numpy
parses); ``campaign`` loads numpy and the sampling layer
(:mod:`waxsim.protocol`), and ``bound`` adds the inference layer
(:mod:`waxsim.inference`).
"""
from __future__ import annotations

import argparse
import contextlib
import functools
import os
import re
import sys
from typing import Iterable

from .config import SCHEMA, RunConfig, _canonical, load_config
from .dynamics import check_workers, collapse_validity, csv_table, expansion_curve
from .errors import ConfigError, DomainError, NumericalError, WaxsimError
from .materials import drop_distance


# options that take a value. argparse reads a following token that starts
# with "-" and is not a plain number (-1e-9, -1,5) as an option of its own.
_VALUE_OPTIONS = frozenset(
    ["--config", "-o", "--output", "--workers", "--oracle-seeds"]
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


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command line's parser, built once per process.

    ``parse_args`` leaves a parser as it was, so every :func:`main` call of a
    process shares this one.
    """
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH", help="config file (else $WAXSIM_CONFIG)")
    common.add_argument(
        "--print-config",
        action="store_true",
        help="echo the resolved configuration canonically and exit",
    )
    common.add_argument("-o", "--output", metavar="PATH", help="write output here instead of stdout")
    for key, (kind, default, unit, help_text) in SCHEMA.items():
        common.add_argument(
            f"--{key}",
            dest=key.replace(".", "__"),
            metavar="VALUE",
            help=f"{help_text} [{unit}] (default {_canonical(kind, default)})",
        )

    parser = argparse.ArgumentParser(
        prog="waxsim",
        description="Wave-packet expansion simulator and collapse-rate inference.",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_command(name: str, help_text: str) -> argparse.ArgumentParser:
        # no abbreviations: --csl.lambda_h must not run as --csl.lambda_hz
        return sub.add_parser(name, parents=[common], help=help_text, allow_abbrev=False)

    add_command("rates", "per-channel localization budget CSV")
    add_command("expand", "wave-packet width curve CSV")
    p_campaign = add_command("campaign", "seeded measurement campaign CSV")
    p_campaign.add_argument(
        "--workers",
        type=int,
        metavar="N",
        help="worker threads for sampling (default: available CPUs for large "
        "campaigns; output is identical); the --dump-samples bytes and path do "
        "not depend on it",
    )
    p_campaign.add_argument(
        "--dump-samples",
        action="store_true",
        help="emit raw positions (t_s,run_index,x_m) instead of width estimates",
    )
    p_bound = add_command("bound", "minimum detectable collapse rate CSV")
    p_bound.add_argument(
        "--oracle-check",
        action="store_true",
        help="cross-check each row against the Monte-Carlo power oracle",
    )
    p_bound.add_argument(
        "--oracle-seeds",
        type=int,
        default=64,
        metavar="N",
        help="campaigns the Monte-Carlo oracle simulates (default %(default)s)",
    )
    add_command("feasibility", "drop-distance report")
    return parser


def _resolve_config(args: argparse.Namespace) -> RunConfig:
    """The config file, then the key flags."""
    path = args.config or os.environ.get("WAXSIM_CONFIG") or None
    text = None
    if path:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    overrides = [
        (key, raw)
        for key in SCHEMA
        if (raw := getattr(args, key.replace(".", "__"), None)) is not None
    ]
    return load_config(text, path or "<config>", overrides)


def _scalar(command):
    """Mark a command that computes in scalar Python only."""
    command.scalar = True
    return command


@_scalar
def _cmd_rates(config: RunConfig, args) -> tuple[str, list[str]]:
    budget = config.scenario().budget
    rows = [
        ("blackbody_scattering", budget.blackbody_scattering),
        ("blackbody_absorption", budget.blackbody_absorption),
        ("blackbody_emission", budget.blackbody_emission),
        ("gas_collisions", budget.gas_collisions),
        ("csl", budget.csl),
        ("total", budget.total),
    ]
    return csv_table("channel,lambda_m2s", rows), list(budget.warnings)


@_scalar
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


def _cmd_campaign(config: RunConfig, args) -> tuple[str | Iterable[str], list[str]]:
    from .protocol import campaign_curve, campaign_to_csv, run_campaign

    plan, scenario = config.campaign(), config.scenario()
    if args.dump_samples:
        # the dump re-draws its tiles as it writes them; no width is merged
        text = run_campaign(plan, scenario, run_counts=()).csv_chunks()
    else:
        text = campaign_to_csv(campaign_curve(plan, scenario, args.workers))
    return text, [*scenario.budget.warnings, *collapse_validity(scenario, plan.time_grid)]


def _cmd_bound(config: RunConfig, args) -> tuple[str, list[str]]:
    from .inference import _closed_forms, bisect_lambda_mc_sweep

    if args.oracle_seeds < 1:
        raise ConfigError(f"--oracle-seeds must be >= 1, got {args.oracle_seeds}")
    n_sweep = config.get("bound.n_sweep")
    grid = config.get("campaign.time_grid_s")
    scenario, detection = config.scenario(), config.detection()
    results = _closed_forms(n_sweep, grid, scenario, detection)

    warnings = list(scenario.budget.warnings)
    if args.oracle_check:
        seeds = range(1, args.oracle_seeds + 1)
        oracle = bisect_lambda_mc_sweep(n_sweep, grid, scenario, detection, seeds=seeds)
        for n, res, mc in zip(n_sweep, results, oracle):
            if not (0.5 <= mc / res.lambda_min <= 2.0):
                warnings.append(
                    f"oracle check failed at N={n}: closed form "
                    f"{res.lambda_min:.3e} Hz vs Monte-Carlo {mc:.3e} Hz"
                )

    rows = [(r.n_per_time, r.lambda_min, r.lambda_min_grw, r.best_time) for r in results]
    return csv_table("n_per_time,lambda_min_hz,lambda_min_grw,best_time_s", rows), warnings


@_scalar
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


def _error_state(command) -> contextlib.AbstractContextManager:
    """A command's overflow, division by zero or nan raises, so that it is a
    numerical failure, never an inf or nan in the output. A ``@_scalar``
    command runs without numpy and checks its own results: scalar Python
    raises on ``**`` and on division by zero, but ``*``, ``/`` and ``+``
    overflow to ``inf`` silently."""
    if getattr(command, "scalar", False):
        return contextlib.nullcontext()
    import numpy as np

    return np.errstate(over="raise", divide="raise", invalid="raise")


def _emit(chunks: str | Iterable[str], output: str | None) -> None:
    """Write one string, or each string of an iterable, to ``output`` or stdout."""
    if isinstance(chunks, str):
        chunks = (chunks,)
    if output:
        try:
            with open(output, "w", encoding="utf-8", newline="") as fh:
                fh.writelines(chunks)
        except OSError as exc:
            raise ConfigError(f"cannot write output {output}: {exc.strerror or exc}") from exc
        return
    if sys.stdout is None:  # started with file descriptor 1 closed
        raise ConfigError("cannot write output <stdout>: stdout is closed")
    try:
        sys.stdout.writelines(chunks)
        sys.stdout.flush()
    except OSError as exc:
        # Python flushes stdout again at exit; point it at devnull so that
        # the final flush cannot fail a second time
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        # a reader that closed the pipe early (``waxsim ... | head``) is no error
        if not isinstance(exc, BrokenPipeError):
            raise ConfigError(f"cannot write output <stdout>: {exc.strerror or exc}") from exc


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _build_parser().parse_args(_join_dash_values(argv))
    try:
        check_workers(getattr(args, "workers", None), "--workers")
        config = _resolve_config(args)
        if args.print_config:
            _emit(config.canonical_text(), args.output)
            return 0
        command = _COMMANDS[args.command]
        with _error_state(command):
            text, warnings = command(config, args)
            _emit(text, args.output)
    except (ConfigError, DomainError) as exc:
        print(f"waxsim: error: {exc}", file=sys.stderr)
        return 2
    except (NumericalError, WaxsimError) as exc:
        print(f"waxsim: numerical failure: {exc}", file=sys.stderr)
        return 3
    except ArithmeticError as exc:  # OverflowError, ZeroDivisionError, FloatingPointError
        print(f"waxsim: numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        reason = str(exc) or "allocation failed"
        print(f"waxsim: error: run too large for memory: {reason}", file=sys.stderr)
        return 2
    for message in warnings:
        print(f"waxsim: warning: {message}", file=sys.stderr)
    return 0
