"""Fixed reference work, timed next to every op to normalise for machine speed.

On a shared host the speed of the same CPU work swings by up to 2x over
seconds and drifts over minutes, so an op's time in seconds moves with the
neighbours as much as with the program. Each op is therefore timed between
two runs of a reference that runs no waxsim code, and the end-to-end op
metrics are op time over the mean of the two reference times around it.
A change to waxsim moves the op and not the reference, so the ratio moves
with it; a change of machine speed moves both, so the ratio does not.

Contention slows memory-bound, compute-bound and interpreter-bound work by
different factors, so each workload's reference does the same kinds of work
as its op, at a smaller size, with numpy and scipy called directly:

- ``cli-cold``: a fresh interpreter that imports numpy and ``scipy.stats``,
  the libraries whose import dominates ``python -m waxsim`` start-up.
- ``campaign-widths``: 21 Philox streams of 200,000 uniforms mapped through
  ``ndtri`` and reduced to a standard deviation (sampling and widths).
- ``campaign-dump``: 21 streams of 10,000 draws written as 210,000 CSV lines
  (sampling and serialisation).
- ``bound-oracle``: 48 small campaigns at each of N = 100, 400, 1600 and
  6400, each reduced to per-time variances (many small draws, as in the
  Monte-Carlo power oracle).
"""
from __future__ import annotations

import os
import subprocess
import sys
import time

import numpy as np
from scipy.special import ndtri

GRID_TIMES = 21


def _draws(seed: int, grid_index: int, count: int) -> np.ndarray:
    key = np.random.SeedSequence(entropy=seed, spawn_key=(grid_index,))
    u = np.random.Generator(np.random.Philox(key)).random(count)
    return ndtri(np.maximum(u, 2.0**-54))


def _fresh_interpreter(tmpdir: str) -> None:
    subprocess.run([sys.executable, "-c", "import numpy, scipy.stats"],
                   stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, check=True,
                   timeout=120)


def _widths(tmpdir: str) -> str:
    lines = ["t,sigma"]
    for i in range(GRID_TIMES):
        lines.append(f"{float(i)!r},{float(np.std(_draws(7, i, 200_000), ddof=1))!r}")
    return "\n".join(lines) + "\n"


def _dump(tmpdir: str) -> None:
    # written one grid time at a time, so the reference adds little to peak RSS
    with open(os.path.join(tmpdir, "reference.csv"), "w", encoding="utf-8") as fh:
        fh.write("t,r,x\n")
        for i in range(GRID_TIMES):
            t_repr = repr(float(i))
            lines = [f"{t_repr},{r},{float(x)!r}" for r, x in enumerate(_draws(7, i, 10_000))]
            fh.write("\n".join(lines) + "\n")


def _oracle(tmpdir: str) -> None:
    for n in (100, 400, 1600, 6400):
        for seed in range(1, 49):
            samples = np.empty((GRID_TIMES, n))
            for i in range(GRID_TIMES):
                samples[i] = _draws(seed, i, n)
            np.var(samples, axis=1, ddof=1)


WORK = {
    "cli-cold": _fresh_interpreter,
    "campaign-widths": _widths,
    "campaign-dump": _dump,
    "bound-oracle": _oracle,
}


def measure(workload: str, tmpdir: str) -> float:
    """Seconds taken by one run of the workload's reference work."""
    work = WORK[workload]
    t0 = time.perf_counter()
    work(tmpdir)
    return time.perf_counter() - t0
