"""Monte-Carlo simulation of the release-expand-measure experimental cycle.

A campaign repeats the cycle N times per grid time: prepare the trapped state,
release, let the packet expand for t, record the position along the
measurement axis, retrap. Each recorded position is a draw from a zero-mean
normal whose variance is the model position variance at t plus two optional
instrumental terms,

    var_total(t) = x_var(t) + (drift_velocity_std * t)^2 + measurement_noise^2,

covering run-to-run center-of-mass velocity scatter and readout noise
(:meth:`waxsim.dynamics.Scenario.variance`). Runs are independent (fresh
preparation each cycle). A ``CampaignConfig`` is the plan: grid, N and seed.

Randomness contract: the stream for grid index i is a Philox counter-based
generator keyed by (seed, i); run r consumes the r-th uniform of that stream,
mapped through the inverse normal CDF. Sampling works on fixed tiles: one
grid index and a block of ``TILE_RUNS`` runs starting at a multiple of
``TILE_RUNS``. A tile builds the (seed, i) stream itself and skips to its
first run with ``Philox.advance(a // 4)``, which is exact because Philox
yields four 64-bit words per counter step and each uniform takes one word.
Tile boundaries depend on neither the thread count nor the machine, so results
are reproducible bit-for-bit for a given seed however the tiles are scheduled.
An explicit ``workers`` above 1 runs the tiles on a pool of that many
threads. By default, campaigns of at least ``PARALLEL_MIN_DRAWS`` draws use
one thread per available CPU and smaller campaigns run serially.
``workers`` only changes wall time, never output.

Widths come from tile moments: each tile returns its run count, mean and
sum of squared deviations, computed on the thread that drew it, and a row's
tiles are merged in tile order, first half with second half, with the
pairwise update of Chan, Golub & LeVeque (Am. Stat. 37(3), 1983). The
sample variance therefore depends on ``TILE_RUNS`` but not on ``workers``;
a row of one tile gets exactly the value of ``np.var(row, ddof=1)``.

Run prefixes: ``run_campaign(..., run_counts=ms)`` also merges each row's
variance of its first m runs, for each m in ``ms``. Run r is the same draw
whatever the campaign size, so the first m runs are the m-run campaign of
the same seed. Tiles before the one that holds run m - 1 are whole in both;
each m keeps one record per row of its last tile: the moments of that
tile's first runs, up to m, recorded by the worker that draws it, or the
tile's own moments when m ends with the tile. Merging the whole tiles and
that record gives the m-run campaign's tile list in its order, so the
variance is bit-identical to that campaign's.
The Monte-Carlo oracle draws each seed once at the largest N of a sweep
and reads every N from a prefix.

Selected rows: ``run_campaign(..., rows=idx)`` draws and merges only the
grid rows in ``idx``. Each keeps its stream ``(seed, i)``, so its
variances are bit-identical to the same row of the full campaign, while
the ``samples`` view still re-draws every row. The best-time oracle tests
one pre-registered time, so it draws only that time's row.

Memory contract: ``run_campaign`` keeps no sample array. Each worker draws
its tiles into one reused tile buffer and keeps only the tile's moments, a
24-byte record per tile; that table is the only allocation that grows with
the campaign, and ``run_campaign`` refuses, with ``DomainError``, a table
larger than the host's physical memory, and so a pool's buffers, two tiles
per thread. A thread that the host refuses to start is a ``DomainError``
too; the threads that did start draw no further tile.
``PositionSamples.samples`` is a ``CampaignSamples`` view: its shape and
size cost nothing, while indexing a row, iterating and ``np.asarray``
re-draw the rows through the same tile kernel, so they give the bits the
campaign drew; its ``sigmas`` are read-only. ``np.asarray`` refuses a
``T x N`` array larger than physical memory.

The raw-sample CSV is produced by ``PositionSamples.csv_chunks``, which
re-draws the same tiles: the header, then one string per tile, in tile
order, so a caller that writes each chunk as it comes (``waxsim campaign
--dump-samples``) holds O(tile) memory, whatever the campaign size;
``"".join(csv_chunks())`` is the whole CSV as one string. With
``run_counts=()`` a campaign merges no variance and draws nothing, so a
dump built on it draws each tile once. Each tile's lines are spelled by
:func:`waxsim._dumpfmt.csv_lines`, as ``repr`` spells them. Tiles are
re-drawn and formatted one after another in the calling process, so the
dump's bytes and its code path do not depend on the campaign's thread
count (``workers``, ``waxsim campaign --workers``).
"""
from __future__ import annotations

import itertools
import math
import operator
import os
import threading
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from typing import Iterator, Sequence

import numpy as np

from ._record import record
from .dynamics import CampaignConfig, Scenario, _check_memory, check_workers, csv_table
from .errors import DomainError, NumericalError


@record(eq=False)
class CampaignSamples:
    """Read-only ``T x N`` view of a campaign's positions, re-drawn on demand.

    ``sigmas``, each row's standard deviation, is read-only, so the rows
    stay those the campaign drew. ``shape``, ``size`` and ``len()`` draw
    nothing. ``view[i]``, iteration and ``np.asarray(view)`` draw rows tile
    by tile through the campaign's kernel, so they return the positions the
    campaign's widths came from.
    A tile is addressed by its grid index ``i`` and its first run ``a``, a
    multiple of ``TILE_RUNS``: runs ``[a, a + TILE_RUNS)``, cut at N.
    """

    seed: int
    sigmas: np.ndarray
    runs: int

    @property
    def shape(self) -> tuple[int, int]:
        return (self.sigmas.size, self.runs)

    @property
    def size(self) -> int:
        return self.sigmas.size * self.runs

    def __len__(self) -> int:
        return self.sigmas.size

    def draw_tile(self, i: int, a: int, out: np.ndarray) -> np.ndarray:
        """Draw the tile of grid index ``i`` that starts at run ``a`` into the
        start of ``out``; return the drawn runs."""
        count = min(TILE_RUNS, self.runs - a)
        return _draw_tile(self.seed, self.sigmas[i], i, a, count, out)

    def _fill_row(self, i: int, row: np.ndarray) -> None:
        for a in range(0, self.runs, TILE_RUNS):
            self.draw_tile(i, a, row[a:])

    def __getitem__(self, key: int) -> np.ndarray:
        # IndexError out of range, negative from the end, TypeError for a slice
        i = range(len(self))[operator.index(key)]
        _check_memory(8 * self.runs, f"a campaign row of {self.runs} doubles")
        row = np.empty(self.runs)
        self._fill_row(i, row)
        return row

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        _check_memory(8 * self.size, f"campaign samples ({len(self)} x {self.runs} doubles)")
        out = np.empty(self.shape)
        for i in range(len(self)):
            self._fill_row(i, out[i])
        return out if dtype is None else out.astype(dtype, copy=False)


@record
class PositionSamples:
    """Synthetic position records, one row of ``samples`` per grid time.

    ``samples`` is a :class:`CampaignSamples` view that re-draws the
    positions when read; its ``sigmas`` holds the total standard deviation
    each row was drawn with (model width plus drift and readout terms).
    ``var_hats`` maps each run count ``m`` the campaign was asked for to
    each drawn row's unbiased (ddof=1) sample variance of runs ``[0, m)``,
    merged from tile moments, in ascending grid order; every row unless the
    campaign was given ``rows``.
    """

    times: np.ndarray
    samples: CampaignSamples  # shape (len(times), runs_per_time)
    var_hats: dict[int, np.ndarray]

    @property
    def var_hat(self) -> np.ndarray:
        """Each drawn row's sample variance over all N runs (``KeyError`` if not asked for)."""
        return self.var_hats[self.samples.runs]

    def csv_chunks(self) -> Iterator[str]:
        """Raw-sample CSV in pieces: the header, then one string per tile, in tile order.

        Each tile is re-drawn into one reused buffer and formatted in this
        process, as the caller takes its chunk. A chunk holds at most
        ``TILE_RUNS`` lines, so writing the chunks one by one needs memory
        for one tile of text.
        """
        from ._dumpfmt import csv_lines  # loaded only for a dump

        yield "t_s,run_index,x_m\n"
        view = self.samples
        buffer = np.empty(min(view.runs, TILE_RUNS))
        for i, t in enumerate(self.times.tolist()):
            for a in range(0, view.runs, TILE_RUNS):
                yield csv_lines(repr(t), a, view.draw_tile(i, a, buffer))


@record
class WidthEstimate:
    """Estimated wave-packet width at one grid time."""

    t: float
    sigma_hat: float
    standard_error: float
    sample_count: int

    def __post_init__(self) -> None:
        if self.sample_count < 2:
            raise DomainError("sample_count must be >= 2")
        if self.sigma_hat < 0.0 or self.standard_error < 0.0:
            raise DomainError("sigma_hat and standard_error must be >= 0")


# runs per tile; a multiple of 4, so a tile starts on a Philox counter step
TILE_RUNS = 2**16
# one tile's moments: run count, mean and sum of squared deviations
_MOMENTS = np.dtype([("n", np.int64), ("mean", np.float64), ("m2", np.float64)])
# by default, campaigns with fewer draws (T x N) than this run their tiles
# serially: on a 2-core host two threads were slower than one up to 168 k
# draws (21 x 8000) and faster from 210 k (21 x 10000) on
PARALLEL_MIN_DRAWS = 2**18


def _available_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not on every platform
        return os.cpu_count() or 1


def _draw_tile(
    seed: int, sigma: float, i: int, a: int, count: int, out: np.ndarray
) -> np.ndarray:
    """Runs ``[a, a + count)`` of grid index ``i``, drawn into ``out[:count]``.

    The one sampling kernel: the Philox stream keyed by ``(seed, i)``,
    advanced to run ``a`` (a multiple of 4), mapped through the inverse
    normal CDF and scaled by ``sigma``.
    """
    # imported on use, so that importing waxsim does not load scipy
    from scipy.special import ndtri

    key = np.random.SeedSequence(entropy=seed, spawn_key=(i,))
    bitgen = np.random.Philox(key)
    if a:
        bitgen.advance(a // 4)
    out = out[:count]
    np.random.Generator(bitgen).random(out=out)
    # random() is [0, 1); shift the measure-zero 0.0 away from ndtri's pole
    np.maximum(out, 2.0**-54, out=out)
    ndtri(out, out=out)
    out *= sigma
    return out


def _tile_moments(out: np.ndarray, dev: np.ndarray) -> tuple[int, float, float]:
    """Run count, mean and sum of squared deviations of a tile.

    The operations of ``np.var``, with ``dev`` (as long as ``out``) as
    scratch; no BLAS (``out @ out``), whose threads would compete with the
    workers.
    """
    mean = np.add.reduce(out) / out.size
    np.subtract(out, mean, out=dev)
    np.multiply(dev, dev, out=dev)
    return out.size, mean, np.add.reduce(dev)


def run_campaign(
    plan: CampaignConfig,
    scenario: Scenario,
    workers: int | None = None,
    run_counts: Sequence[int] | None = None,
    rows: Sequence[int] | None = None,
) -> PositionSamples:
    """Generate the synthetic position dataset for one campaign.

    Parameters
    ----------
    plan : CampaignConfig
    scenario : Scenario
        What is measured; each draw's variance is ``scenario.variance``.
    workers : int, optional
        Thread count; more than 1 always samples on a pool of that many
        threads. The default is the available CPUs for campaigns of at
        least ``PARALLEL_MIN_DRAWS`` draws (drawn rows x N) and 1 below.
        Output is
        byte-identical to the serial path.
    run_counts : sequence of int, optional
        The run counts ``m``, each in ``[2, N]``, at which to merge each
        row's sample variance of runs ``[0, m)``; the default is ``(N,)``.
        Each ``m`` keeps one record of its last tile, the moments of the
        tile's runs below ``m``, and merges it after the whole tiles before
        it: the same tiles in the same order as an ``m``-run campaign with
        the same seed, so the variance is bit-identical to that campaign's.
        An empty sequence draws nothing: the result is only the re-drawing
        view.
    rows : sequence of int, optional
        The grid indices to draw, each in ``[0, T)``; the default is every
        row. Each row keeps its Philox key ``(seed, i)``, so its variances
        are bit-identical to the same row of the full campaign.

    Returns
    -------
    PositionSamples
        With each requested run count's variances, one per drawn row in
        ascending grid order, and a view that re-draws the full ``T x N``
        samples on demand.

    Raises
    ------
    DomainError
        If ``workers`` is below 1, ``run_counts`` is not a sequence of
        integers or holds a count outside ``[2, N]``, ``rows`` is empty or
        holds a non-integer or an index outside ``[0, T)``, the per-tile
        moment table or the pool's tile buffers would not fit in the host's
        physical memory, or the host refuses to start a pool thread.
    NumericalError
        If a draw's variance or a row's sample variance overflows double precision.

    Beyond its draws and tile moments a call costs little: the variance
    model runs once per scenario and grid
    (:meth:`~waxsim.dynamics.Scenario.grid_variance`), so the seeds of an
    oracle sweep share it and its read-only ``sigmas``. The serial path runs
    the tile body on the calling thread; a pool task runs the same body
    under the tile queue's lock and the caller's numpy error state.
    """
    check_workers(workers)
    _, sigmas = scenario.grid_variance(plan.time_grid)
    n = plan.runs_per_time
    counts = [n] if run_counts is None else _integers(run_counts, "run_counts", "integers")
    for m in counts:
        if not 2 <= m <= n:
            raise DomainError(f"run counts must lie in [2, {n}], got {m}")
    drawn = _grid_rows(rows, sigmas.size)
    times = np.array(plan.time_grid)
    view = CampaignSamples(plan.rng_seed, sigmas, n)
    if not counts:
        return PositionSamples(times, view, {})
    per_row = -(-n // TILE_RUNS)  # tiles per row
    count = len(drawn) * per_row
    _check_memory(
        count * _MOMENTS.itemsize, f"campaign tile moments ({len(drawn)} x {per_row} tiles)"
    )
    moments = np.empty((len(drawn), per_row), _MOMENTS)
    # last[r, s]: the moments of run count counts[s]'s last tile in drawn
    # row r, cut to the runs that belong to the count
    last = np.empty((len(drawn), len(counts)), _MOMENTS)

    def draw(r: int, j: int, out: np.ndarray, dev: np.ndarray) -> None:
        # the one tile body: the j-th tile of drawn row r, drawn into out
        # (dev is scratch); record its moments, and each count's that ends in it
        a = j * TILE_RUNS
        tile = view.draw_tile(drawn[r], a, out)
        try:
            moments[r, j] = record = _tile_moments(tile, dev[: tile.size])
            for s, m in enumerate(counts):
                kept = m - a  # m ends in this tile if 0 < kept <= size
                if kept == tile.size:
                    last[r, s] = record
                elif 0 < kept < tile.size:
                    last[r, s] = _tile_moments(tile[:kept], dev[:kept])
        except FloatingPointError:  # a square or a sum overflows under np.errstate(over="raise")
            t = plan.time_grid[drawn[r]]
            raise NumericalError(
                f"sample variance overflows double precision at t = {t!r} s"
            ) from None

    if workers is None:
        workers = _available_cpus() if len(drawn) * n >= PARALLEL_MIN_DRAWS else 1
    # the tile queue: (r, j) is the j-th tile of drawn row r
    undrawn = itertools.product(range(len(drawn)), range(per_row))
    # one task per thread, each with its own tile and scratch buffers
    tasks, size = min(workers, count), min(n, TILE_RUNS)
    if workers == 1:
        out, dev = np.empty((2, size))
        for r, j in undrawn:
            draw(r, j, out, dev)
    else:
        _check_memory(16 * tasks * size, f"sampling buffers ({tasks} threads x 2 x {size} doubles)")
        lock, errors = threading.Lock(), np.geterr()

        def drain(out: np.ndarray, dev: np.ndarray) -> None:
            # numpy's error state is per thread; a pool thread takes the caller's
            with np.errstate(**errors):
                while True:
                    with lock:
                        r, j = next(undrawn, (None, None))
                    if r is None:
                        return
                    draw(r, j, out, dev)

        with ThreadPoolExecutor(max_workers=workers) as pool:
            try:
                started = [pool.submit(drain, *b) for b in np.empty((tasks, 2, size))]
            except RuntimeError as exc:  # the host refused a thread
                with lock:  # the threads that did start draw no further tile
                    deque(undrawn, maxlen=0)
                raise DomainError(f"cannot start {tasks} sampling threads: {exc}") from exc
            for task in started:
                task.result()  # re-raises a thread's exception

    # each count's sum of squared deviations: the m-run campaign's tiles in
    # its order, the whole tiles before m's last tile, then that tile's record
    m2 = last["m2"]
    for s, m in enumerate(counts):
        if before := (m - 1) // TILE_RUNS:
            heads = moments[:, :before].tolist()
            m2[:, s] = [_merged_moments(h + [t])[2] for h, t in zip(heads, last[:, s].tolist())]
    var = m2.T / np.subtract(counts, 1)[:, None]
    if not np.isfinite(var).all():
        raise NumericalError("sample variance overflows double precision")
    return PositionSamples(times, view, dict(zip(counts, var)))


def _integers(values: Sequence[int], name: str, what: str) -> list[int]:
    """``values`` as ascending distinct integers; ``DomainError`` if it is not
    a sequence of integers (``what`` names them)."""
    try:
        return sorted(set(map(operator.index, values)))
    except TypeError as exc:  # not a sequence, or an item that is not an integer
        raise DomainError(f"{name} must be a sequence of {what}, got {values!r}") from exc


def _grid_rows(rows: Sequence[int] | None, size: int) -> list[int]:
    """``rows`` of :func:`run_campaign` as ascending distinct grid indices."""
    if rows is None:
        return list(range(size))
    drawn = _integers(rows, "rows", "grid indices")
    if not drawn:
        raise DomainError("rows must be non-empty")
    if drawn[0] < 0 or drawn[-1] >= size:
        bad = drawn[0] if drawn[0] < 0 else drawn[-1]
        raise DomainError(f"rows must lie in [0, {size}), got {bad}")
    return drawn


def _merged_moments(tiles: Sequence[tuple[int, float, float]]) -> tuple[int, float, float]:
    """``(n, mean, M2)`` of consecutive tiles, merged pairwise in tile order.

    The update of Chan, Golub & LeVeque (1983), applied to the two halves
    (the first one the longer), so rounding error grows with the log of the
    tile count. One tile is returned as it is.
    """
    if len(tiles) == 1:
        return tiles[0]
    half = (len(tiles) + 1) // 2
    n_a, mean_a, m2_a = _merged_moments(tiles[:half])
    n_b, mean_b, m2_b = _merged_moments(tiles[half:])
    n = n_a + n_b
    delta = mean_b - mean_a
    return n, mean_a + delta * (n_b / n), m2_a + (m2_b + delta * delta * (n_a * n_b / n))


def campaign_curve(
    plan: CampaignConfig, scenario: Scenario, workers: int | None = None
) -> tuple[WidthEstimate, ...]:
    """Run a campaign and estimate the width at every grid time.

    sigma_hat is the square root of the unbiased sample variance of the N
    runs. The standard error of the variance estimate is sigma_hat^2
    sqrt(2/(N-1)) (normal sampling theory); propagating to sigma gives
    sigma_hat sqrt(1/(2(N-1))).
    """
    data = run_campaign(plan, scenario, workers)
    n = plan.runs_per_time
    rel_err = math.sqrt(1.0 / (2.0 * (n - 1)))
    sigmas = [math.sqrt(v) for v in data.var_hat]
    return tuple(WidthEstimate(float(t), s, s * rel_err, n) for t, s in zip(data.times, sigmas))


def campaign_to_csv(estimates: Sequence[WidthEstimate]) -> str:
    """CSV text: header ``t_s,sigma_hat_m,sigma_err_m,n_samples``."""
    rows = ((e.t, e.sigma_hat, e.standard_error, e.sample_count) for e in estimates)
    return csv_table("t_s,sigma_hat_m,sigma_err_m,n_samples", rows)
