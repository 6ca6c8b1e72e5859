"""Exit-code contract of the CLI under extreme model inputs.

Every input gives either a finite answer (exit 0, only warnings on stderr)
or exit 2 (usage or config) or 3 (numerical) with one line on stderr:
never a traceback, a numpy warning, or an ``inf``/``nan`` in the output.
Each case sets one config key to an extreme value on one command.
"""
import math
import re

import pytest

import waxsim.cli as cli
from waxsim.config import SCHEMA

COMMANDS = ("rates", "expand", "campaign", "bound", "feasibility")
FLOAT_VALUES = ("-1", "0", "1e-300", "1e-30", "1e30", "1e300")
INT_VALUES = ("-1", "0")
# squares that overflow past the float range (1e154, 1.3e154: t**2 is
# finite, g t**2 / 2 is not), a square that overflows at once (1e200) and
# a subnormal time whose square underflows to 0, and a time whose collapse
# sensitivity (~t^3) underflows to 0
GRID_VALUES = ("1e154", "1.3e154", "1e200", "0,1e-320", "1e-100")
BASE = ("--environment.preset", "custom", "--campaign.runs_per_time", "20")

CASES = [
    (command, *BASE, f"--{key}={value}")
    for command in COMMANDS
    for key, (kind, *_) in SCHEMA.items()
    if kind in ("float", "int", "intlist")
    for value in (FLOAT_VALUES if kind == "float" else INT_VALUES)
] + [
    (command, *BASE, f"--campaign.time_grid_s={grid}")
    for command in COMMANDS
    for grid in GRID_VALUES
] + [
    # the tile sums of squares overflow on the sampling threads
    ("campaign", "--campaign.drift_velocity_std_m_s", "1e150",
     "--campaign.runs_per_time", "70000", "--workers", workers)
    for workers in ("1", "2")
] + [
    # the dump formats its tiles in pool processes
    ("campaign", "--dump-samples", "--campaign.drift_velocity_std_m_s", "1e150",
     "--campaign.runs_per_time", "20", "--workers", "2")
]


def _numbers(out):
    """Every field of the output that parses as a float."""
    for field in re.split(r"[,\s=]+", out):
        try:
            yield float(field)
        except ValueError:
            pass


@pytest.mark.parametrize("argv", CASES, ids=" ".join)
def test_extreme_input_gives_an_answer_or_one_line(capsys, argv):
    code = cli.main(list(argv))
    out, err = capsys.readouterr()
    assert code in (0, 2, 3)
    assert "Traceback" not in err
    if code:
        assert out == ""
        assert len(err.splitlines()) == 1 and err.endswith("\n")
    else:
        assert all(math.isfinite(x) for x in _numbers(out))
        assert all(line.startswith("waxsim: warning: ") for line in err.splitlines())
