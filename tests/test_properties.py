"""Property tests (Hypothesis) of the command line's input contract and of
the campaign's determinism contract.

Generated values of ``campaign.time_grid_s`` (comma lists and
``start:stop:count`` ranges), ``bound.n_sweep`` and ``campaign.seed`` go
through ``cli.main([..., "--print-config"])``. Every input exits 0, 2 or 3;
a failure prints one line and no traceback, and an echo re-parses to the
configuration it came from.

A range count is either small (at most 10^4) or far above any physical
memory (10^20 and up), which the parser refuses before it allocates: no
example asks for a grid that the parser would really build at a size that
costs memory.

Generated campaigns (run counts of one, two and three tiles, run prefixes,
a subset of rows, 1 to 4 threads) give the variances of the serial campaign
of every row, bit for bit.
"""
import contextlib
import io

from hypothesis import example, given, settings
from hypothesis import strategies as st

import waxsim.cli as cli
from waxsim.config import load_config
from waxsim.protocol import TILE_RUNS, CampaignConfig, run_campaign

COMMANDS = ("rates", "expand", "campaign", "bound", "feasibility")

any_float = st.floats()  # nan and the infinities included
time = st.floats(min_value=0.0, max_value=1e6)
# +-1e308 as both ends: the span overflows, a numerical failure
endpoint = st.one_of(time, any_float, st.sampled_from([-1e308, 1e308])).map(repr)
comma_lists = st.one_of(
    st.lists(time, min_size=1, max_size=6, unique=True).map(sorted),  # mostly valid
    st.lists(any_float, max_size=6),
).map(lambda values: ",".join(map(repr, values)))
counts = st.one_of(
    st.integers(min_value=-3, max_value=10**4),
    st.sampled_from([10**20, 2**63]),
    st.integers(min_value=10**20),
)
ranges = st.builds("{}:{}:{}".format, endpoint, endpoint, counts)
grids = st.one_of(comma_lists, ranges)
runs = st.integers(min_value=2, max_value=10**6)
sweeps = st.one_of(
    st.lists(runs, min_size=1, max_size=5),
    st.lists(st.one_of(st.integers(max_value=10**6), st.integers(min_value=2**62)), max_size=5),
).map(lambda ns: ",".join(map(str, ns)))
seeds = st.one_of(
    st.integers(min_value=0, max_value=2**32), st.integers(max_value=-1),
    st.integers(min_value=2**63),
)


def run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(st.sampled_from(COMMANDS), grids, sweeps, seeds)
@example("rates", "-1e+308:1e+308:3", "100", 1)  # exit 3
@example("bound", "1:2:100000000000000000000", "100", 1)  # exit 2
@example("campaign", "0:100:21", "100,400", 2**63)  # exit 0
def test_print_config_exits_0_2_or_3_and_round_trips(command, grid, sweep, seed):
    overrides = [
        ("campaign.time_grid_s", grid), ("bound.n_sweep", sweep), ("campaign.seed", str(seed)),
    ]
    code, out, err = run(
        [command, *(f"--{key}={value}" for key, value in overrides), "--print-config"]
    )
    assert code in (0, 2, 3)
    assert "Traceback" not in err
    if code:
        assert out == ""
        assert len(err.splitlines()) == 1 and err.endswith("\n")
        return
    assert err == ""
    assert load_config(out) == load_config(overrides=overrides)


SCENARIO = load_config().scenario()
# one tile, one either side of a tile boundary, and a ragged third tile
CAMPAIGN_RUNS = (1000, TILE_RUNS - 1, TILE_RUNS + 1, 2 * TILE_RUNS + 1)


@st.composite
def campaigns(draw):
    """A plan, its run prefixes, the rows to draw and a thread count."""
    grid = draw(st.lists(st.floats(0.0, 100.0), min_size=1, max_size=3, unique=True))
    n = draw(st.sampled_from(CAMPAIGN_RUNS))
    plan = CampaignConfig(tuple(sorted(grid)), n, rng_seed=draw(st.integers(0, 2**32)))
    counts = draw(st.lists(st.integers(2, n), min_size=1, max_size=3))
    rows = draw(st.lists(st.integers(0, len(grid) - 1), min_size=1, max_size=len(grid)))
    return plan, counts, rows, draw(st.integers(1, 4))


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(campaigns())
def test_rows_and_threads_keep_the_serial_variances(campaign):
    plan, counts, rows, workers = campaign
    serial = run_campaign(plan, SCENARIO, workers=1, run_counts=counts)
    drawn = run_campaign(plan, SCENARIO, workers=workers, run_counts=counts, rows=rows)
    assert drawn.var_hats.keys() == serial.var_hats.keys() == set(counts)
    for m, variances in drawn.var_hats.items():
        assert variances.tobytes() == serial.var_hats[m][sorted(set(rows))].tobytes()
