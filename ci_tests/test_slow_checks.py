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
from dataclasses import replace

import numpy as np
import pytest

import waxsim
from waxsim import _dumpfmt
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
# interpreter, since this process's peak holds the other checks' memory
def test_large_campaign_runs_in_bounded_memory(tmp_path):
    script = (
        "import resource\n"
        "from waxsim import cli\n"
        "assert cli.main(['campaign', '--campaign.runs_per_time', '4000000', '-o', 'out.csv']) == 0\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)\n"
    )
    proc = run_python("-c", script, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    peak_mb = float(proc.stdout)
    assert peak_mb < 150, f"peak RSS {peak_mb:.0f} MB, limit 150 MB"
