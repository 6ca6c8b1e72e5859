"""The CI's slow checks, too large for tier-1: about 15 s on 2 cores.

Run them with ``PYTHONPATH=src python -m pytest -q ci_tests``; pyproject's
``testpaths`` keeps them out of a plain ``pytest``. A check of the command
line starts ``python -m waxsim`` with this checkout's package first on
PYTHONPATH, in a fresh interpreter.
"""
import os
import re
import subprocess
import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import waxsim
from waxsim import _dumpfmt, cli
from waxsim.config import load_config
from waxsim.protocol import TILE_RUNS, run_campaign

SRC = os.path.dirname(os.path.dirname(os.path.abspath(waxsim.__file__)))


def run_python(*argv, cwd):
    """``python argv`` in ``cwd``, with this checkout's package first on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, *argv], cwd=cwd, env=env, capture_output=True, text=True, timeout=600
    )


# the dump formats its floats with an array kernel; read back, every field
# must be spelled as repr and str spell it. 21 x 70,001 lines on the default
# grid (1e-12 m at t = 0, mm to cm later), then with a 1e150 m/s drift, whose
# positions have 3-digit exponents
@pytest.mark.parametrize(
    "extra", [[], ["--campaign.drift_velocity_std_m_s", "1e150"]], ids=["plain", "wide"]
)
def test_dump_spells_every_number_as_repr_does(tmp_path, extra):
    path = tmp_path / "dump.csv"
    proc = run_python(
        "-m", "waxsim", "campaign", "--dump-samples", "--campaign.runs_per_time", "70001",
        *extra, "-o", str(path), cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    lines = three_digit_exponents = 0
    with open(path) as fh:
        assert next(fh) == "t_s,run_index,x_m\n"
        for line in fh:
            t, run, x = line.rstrip("\n").split(",")
            assert x == repr(float(x)), line
            assert run == str(int(run)), line
            if extra and re.search(r"e\+1[0-9][0-9]$", x):
                three_digit_exponents += 1
            lines += 1
    assert lines == 21 * 70001
    if extra:
        assert three_digit_exponents


# tier-1 compares the kernel with repr on 300 generated bit patterns; this
# check on about 2e6 seeded random ones of normal doubles, with run indices
# that gain digits
def test_dump_kernel_spells_2e6_random_doubles_as_repr_does():
    rng = np.random.default_rng(2020)
    for first in range(0, 2 * 10**6, 10**5):
        bits = rng.integers(0, 2**64, 10**5, dtype=np.uint64)
        xs = bits.view(np.float64)
        xs = xs[np.isfinite(xs) & (np.abs(xs) >= np.finfo(float).tiny)]
        # csv_lines hands any other tile to repr, which would check itself
        assert _dumpfmt.all_normal(xs)
        got = _dumpfmt.csv_lines("0.5", first, xs)
        want = "".join(f"0.5,{r},{x!r}\n" for r, x in enumerate(xs.tolist(), first))
        if got != want:
            pairs = zip(got.splitlines(), want.splitlines())
            pytest.fail("kernel, repr: %r, %r" % next(p for p in pairs if p[0] != p[1]))


# uniform bit patterns above are almost all in exponent form (about 3 % have
# a decimal point position in [-4, 16]); this check on about 2e6 values
# log-uniform over 1e-5 to 1e17, with random significand bits and signs,
# is mostly positional: 0.000ddd, ddd.ddd and ddd00.0
def test_dump_kernel_spells_2e6_positional_doubles_as_repr_does():
    rng = np.random.default_rng(2015)
    for first in range(0, 2 * 10**6, 10**5):
        magnitudes = 10 ** rng.uniform(-5, 17, 10**5)
        bits = magnitudes.view(np.uint64) & np.uint64(0x7FF0_0000_0000_0000)
        bits |= rng.integers(0, 2**52, 10**5, dtype=np.uint64)
        bits |= rng.integers(0, 2, 10**5, dtype=np.uint64) << np.uint64(63)
        xs = bits.view(np.float64)
        got = _dumpfmt.csv_lines("0.5", first, xs)
        want = "".join(f"0.5,{r},{x!r}\n" for r, x in enumerate(xs.tolist(), first))
        if got != want:
            pairs = zip(got.splitlines(), want.splitlines())
            pytest.fail("kernel, repr: %r, %r" % next(p for p in pairs if p[0] != p[1]))


# a tile is formatted in the fewest equal blocks of at most BLOCK_ROWS lines,
# so a block's length, and with it the scratch, follows the tile's. Tier-1
# bounds the one-tile peak at 2**16 runs; this check at one block of
# BLOCK_ROWS lines, two of about half that, two of almost BLOCK_ROWS, two of
# 10,000 lines (the benchmark's dump) and six: the traced peak of writing a
# one-time dump
@pytest.mark.parametrize(
    "runs", [_dumpfmt.BLOCK_ROWS, _dumpfmt.BLOCK_ROWS + 1, 2 * _dumpfmt.BLOCK_ROWS - 1, 20_000,
             2**16],
)
def test_dump_memory_is_one_tile_at_every_block_length(tmp_path, runs):
    def emit_peak(n):
        config = load_config(None, "<config>", [
            ("campaign.time_grid_s", "0.5"), ("campaign.runs_per_time", str(n)),
        ])
        data = run_campaign(config.campaign(), config.scenario(), run_counts=())
        tracemalloc.start()
        try:
            cli._emit(data.csv_chunks(), str(tmp_path / "dump.csv"))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    emit_peak(2)  # loads scipy.special and builds the kernel's tables
    # the bound of tier-1's test_dump_memory_is_one_tile
    assert emit_peak(runs) <= 8_600_000


# tier-1 cuts run prefixes mostly at tiles of 4 runs; this check at the real
# TILE_RUNS: a 3-time campaign of 3 * TILE_RUNS + 5 runs, read at 2, every
# tile boundary +-1 and N, on 1, 2 and 3 workers and on rows (2, 0), must
# give each m-run campaign's variances byte for byte (about 6 M draws)
@pytest.mark.filterwarnings("error")
def test_run_prefixes_at_the_real_tile_size():
    n = 3 * TILE_RUNS + 5
    config = load_config(None, "<config>", [
        ("campaign.time_grid_s", "5,50,100"),
        ("campaign.runs_per_time", str(n)),
        ("campaign.measurement_noise_m", "1e-3"),
    ])
    plan, scenario = config.campaign(), config.scenario()
    counts = sorted({2, n} | {k * TILE_RUNS + d for k in (1, 2, 3) for d in (-1, 0, 1)})
    want = {m: run_campaign(replace(plan, runs_per_time=m), scenario).var_hat for m in counts}
    for workers, rows in ((1, None), (2, None), (3, None), (None, (2, 0))):
        got = run_campaign(plan, scenario, workers, run_counts=counts, rows=rows).var_hats
        picked = slice(None) if rows is None else sorted(rows)
        for m in counts:
            assert got[m].tobytes() == want[m][picked].tobytes(), (workers, rows, m)


# a pool of 2 or 3 threads gives the serial path's bits: every run count's
# variances and every re-drawn row, at 1 to 3 times and 1 to 3 real tiles per
# row, with random run counts, drawn rows and seeds (100 campaigns)
@settings(max_examples=100, deadline=None, database=None, derandomize=True)
@given(data=st.data())
def test_pooled_campaigns_equal_serial_ones(data):
    draw = data.draw
    times = draw(st.integers(1, 3))
    n = (draw(st.integers(1, 3)) - 1) * TILE_RUNS + draw(st.integers(2, TILE_RUNS))
    counts = draw(st.lists(st.integers(2, n), min_size=1, max_size=4))
    rows = draw(st.none() | st.lists(st.integers(0, times - 1), min_size=1, max_size=3))
    workers = draw(st.sampled_from([2, 3]))
    config = load_config(None, "<config>", [
        ("campaign.time_grid_s", ",".join(str(5.0 * (k + 1)) for k in range(times))),
        ("campaign.runs_per_time", str(n)),
        ("campaign.seed", str(draw(st.integers(0, 2**32)))),
    ])
    plan, scenario = config.campaign(), config.scenario()
    serial = run_campaign(plan, scenario, 1, run_counts=counts, rows=rows)
    pooled = run_campaign(plan, scenario, workers, run_counts=counts, rows=rows)
    assert sorted(serial.var_hats) == sorted(pooled.var_hats) == sorted(set(counts))
    for m in serial.var_hats:
        assert serial.var_hats[m].tobytes() == pooled.var_hats[m].tobytes(), m
    for i in sorted(set(range(times) if rows is None else rows)):
        assert serial.samples[i].tobytes() == pooled.samples[i].tobytes(), i


# the Monte-Carlo oracle of the default bound, at the CLI's default seed
# count, agrees with the closed form under both aggregations: an "oracle
# check failed" warning, or anything else on stderr, fails the check
@pytest.mark.parametrize("aggregation", ["best-time", "chi-square-sum"])
def test_default_bound_passes_its_oracle_check(tmp_path, aggregation):
    proc = run_python(
        "-m", "waxsim", "bound", "--oracle-check", "--detection.aggregation", aggregation,
        cwd=tmp_path,
    )
    assert (proc.returncode, proc.stderr) == (0, "")


# 21 x 4e6 = 84 M draws, which needed a 672 MB sample array when campaigns
# held their samples; tiles and moments keep it far lower. A fresh
# interpreter, since this process's peak holds the other checks' memory. It
# reads its own high-water mark, VmHWM (Linux): Linux carries ru_maxrss
# across fork and exec, so the child's would hold this process's peak
def test_large_campaign_runs_in_bounded_memory(tmp_path):
    script = (
        "import re\n"
        "from waxsim import cli\n"
        "assert cli.main(['campaign', '--campaign.runs_per_time', '4000000', '-o', 'out.csv']) == 0\n"
        "with open('/proc/self/status') as fh:\n"
        "    print(int(re.search(r'VmHWM:\\s+(\\d+) kB', fh.read()).group(1)) / 1024)\n"
    )
    proc = run_python("-c", script, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    peak_mb = float(proc.stdout)
    assert peak_mb < 150, f"peak RSS {peak_mb:.0f} MB, limit 150 MB"
