"""Workload definitions: the argv of each op, and the check of its output.

Every op runs on waxsim's default configuration plus the flags listed here.
The workload seed only picks ``--campaign.seed`` values; the program sees
nothing but the generated argv. ``bound --oracle-check`` pins its oracle
seeds to ``1..--oracle-seeds``, so on ``bound-oracle`` the workload seed
changes no input the program sees.

A check raises ``CheckFailed`` with a one-line reason. Expected values come
from in-process calls to the library's public functions, made once while
the worker sets up.
"""
from __future__ import annotations

import math
import random

import numpy as np

from waxsim import drop_distance, expansion_curve, min_detectable_lambda, total_budget
from waxsim.config import load_config

NAMES = ("cli-cold", "campaign-widths", "campaign-dump", "bound-oracle")
IN_PROCESS = {"campaign-widths", "campaign-dump", "bound-oracle"}
ROTATION = ("rates", "expand", "campaign", "bound", "feasibility")

# config overrides per size and workload; each is also passed as --key value
SIZES = {
    "full": {
        "campaign-widths": [("campaign.runs_per_time", "1000000")],
        "campaign-dump": [("campaign.runs_per_time", "20000")],
    },
    "tiny": {
        "campaign-widths": [("campaign.runs_per_time", "1000")],
        "campaign-dump": [("campaign.runs_per_time", "100")],
        "bound-oracle": [("bound.n_sweep", "100,400")],
    },
}
# 16 oracle seeds keep a bound op near 2 s, so a run holds enough ops for a
# steady median; the CLI default of 64 makes an op 6-8 s (see NOTES.md)
ORACLE_SEEDS = {"full": 16, "tiny": 8}

HEADERS = {
    "rates": "channel,lambda_m2s",
    "expand": "t_s,sigma_m,lambda_total_m2s",
    "campaign": "t_s,sigma_hat_m,sigma_err_m,n_samples",
    "dump": "t_s,run_index,x_m",
    "bound": "n_per_time,lambda_min_hz,lambda_min_grw,best_time_s",
}

# allowed distance of a width estimate from the model, in standard errors
WIDTH_TOLERANCE_SE = 5.0


class CheckFailed(Exception):
    """An op's output is wrong."""


class Workload:
    """Op generator and output checks for one workload at one size."""

    def __init__(self, name: str, seed: int, size: str = "full"):
        if name not in NAMES:
            raise ValueError(f"unknown workload {name!r}")
        self.name = name
        self.in_process = name in IN_PROCESS
        self._rng = random.Random(seed)
        overrides = SIZES[size].get(name, [])
        self._flags = [arg for key, raw in overrides for arg in (f"--{key}", raw)]
        self._oracle_seeds = ORACLE_SEEDS[size]
        self.config = load_config(overrides=overrides)
        self._expect()

    def _expect(self) -> None:
        c = self.config
        self.grid = np.asarray(c.get("campaign.time_grid_s"), dtype=float)
        self.budget = total_budget(c.particle(), c.environment(), c.csl(), c.toggles())
        self.curve = expansion_curve(
            c.particle(), c.environment(), c.csl(), c.toggles(),
            c.trap_frequency(), c.get("trap.occupancy"), self.grid)
        self.bound = [
            min_detectable_lambda(
                n, self.grid, particle=c.particle(), env=c.environment(),
                csl_geometry=c.csl(), toggles=c.toggles(), detection=c.detection(),
                trap_frequency=c.trap_frequency(), occupancy=c.get("trap.occupancy"),
                measurement_noise=c.get("campaign.measurement_noise_m"),
                drift_velocity_std=c.get("campaign.drift_velocity_std_m_s"))
            for n in c.get("bound.n_sweep")
        ]
        self.closed_form = {r.n_per_time: r.lambda_min for r in self.bound}

    def _seed_flags(self) -> list[str]:
        return ["--campaign.seed", str(self._rng.randrange(1, 2**31))]

    def next_round(self) -> list[tuple[str, list[str]]]:
        """The next ops as (kind, argv without -o); a full rotation on cli-cold."""
        if self.name == "cli-cold":
            return [(cmd, [cmd] + (self._seed_flags() if cmd == "campaign" else []))
                    for cmd in ROTATION]
        if self.name == "bound-oracle":
            return [("bound", ["bound", "--oracle-check", "--oracle-seeds",
                               str(self._oracle_seeds), *self._flags])]
        argv = ["campaign", *self._flags, *self._seed_flags()]
        if self.name == "campaign-dump":
            return [("dump", argv + ["--dump-samples"])]
        return [("campaign", argv)]

    def determinism_argv(self) -> list[str]:
        """A campaign whose serial and --workers 2 bytes must be identical."""
        if self.name in ("campaign-widths", "campaign-dump"):
            return self.next_round()[0][1]
        return ["campaign", "--dump-samples", *self._seed_flags()]

    def check(self, kind: str, path: str) -> int:
        """Check one op's output file; return the campaign draws it reports."""
        if kind == "dump":
            return self._check_dump(path)
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        if kind == "feasibility":
            self._check_feasibility(text)
            return 0
        rows = _parse_csv(text, HEADERS[kind])
        return getattr(self, f"_check_{kind}")(rows)

    def _check_rates(self, rows) -> int:
        b = self.budget
        want = [("blackbody_scattering", b.blackbody_scattering),
                ("blackbody_absorption", b.blackbody_absorption),
                ("blackbody_emission", b.blackbody_emission),
                ("gas_collisions", b.gas_collisions), ("csl", b.csl), ("total", b.total)]
        got = [(r[0], float(r[1])) for r in rows]
        if got != want:
            raise CheckFailed(f"rates differ from total_budget: {got}")
        return 0

    def _check_expand(self, rows) -> int:
        got = np.array(rows, dtype=float)
        want = np.column_stack([self.curve.times, self.curve.sigmas,
                                np.full(self.grid.size, self.curve.budget.total)])
        if got.shape != want.shape or not np.array_equal(got, want):
            raise CheckFailed("expand rows differ from expansion_curve")
        return 0

    def _check_campaign(self, rows) -> int:
        got = np.array(rows, dtype=float)
        n = self.config.get("campaign.runs_per_time")
        if got.shape != (self.grid.size, 4):
            raise CheckFailed(f"campaign has shape {got.shape}")
        if not np.array_equal(got[:, 0], self.grid) or not np.all(got[:, 3] == n):
            raise CheckFailed("campaign times or sample counts are wrong")
        model = self.curve.sigmas
        se = model * math.sqrt(1.0 / (2.0 * (n - 1)))
        off = np.abs(got[:, 1] - model) / se
        if np.any(off > WIDTH_TOLERANCE_SE):
            raise CheckFailed(f"sigma_hat is {off.max():.2f} SE from expansion_curve")
        return int(got[:, 3].sum())

    def _check_dump(self, path) -> int:
        with open(path, encoding="utf-8") as fh:
            header = fh.readline().rstrip("\n")
            if header != HEADERS["dump"]:
                raise CheckFailed(f"wrong header {header!r}")
            data = np.loadtxt(fh, delimiter=",", ndmin=2)
        n = self.config.get("campaign.runs_per_time")
        if data.shape != (self.grid.size * n, 3):
            raise CheckFailed(f"dump has shape {data.shape}, want ({self.grid.size * n}, 3)")
        if not np.all(np.isfinite(data)):
            raise CheckFailed("non-finite value in dump")
        if not (np.array_equal(data[:, 0], np.repeat(self.grid, n))
                and np.array_equal(data[:, 1], np.tile(np.arange(n), self.grid.size))):
            raise CheckFailed("dump times or run indices are wrong")
        return len(data)

    def _check_bound(self, rows) -> int:
        want = [[str(r.n_per_time), repr(r.lambda_min), repr(r.lambda_min_grw),
                 repr(r.best_time)] for r in self.bound]
        if rows != want:
            raise CheckFailed("bound rows differ from min_detectable_lambda")
        return 0

    def _check_feasibility(self, text: str) -> None:
        lines = text.splitlines()
        if len(lines) != self.grid.size + 1 or not lines[0].startswith("platform "):
            raise CheckFailed("feasibility report has the wrong shape")
        for t, line in zip(self.grid, lines[1:]):
            fields = dict(part.split("=", 1) for part in line.split())
            drop = float(fields["drop_m"])
            if float(fields["t_s"]) != t or drop != drop_distance(t) or not math.isfinite(drop):
                raise CheckFailed(f"feasibility line is wrong: {line!r}")


def _parse_csv(text: str, header: str) -> list[list[str]]:
    """Rows of a CSV with the given header; every numeric cell must be finite."""
    lines = text.splitlines()
    if not lines or lines[0] != header:
        raise CheckFailed(f"wrong header {lines[0] if lines else ''!r}")
    width = header.count(",") + 1
    rows = [line.split(",") for line in lines[1:]]
    for row in rows:
        if len(row) != width:
            raise CheckFailed(f"row has {len(row)} fields: {row}")
        for cell in row:
            try:
                value = float(cell)
            except ValueError:
                continue
            if not math.isfinite(value):
                raise CheckFailed(f"non-finite value {cell!r}")
    return rows
