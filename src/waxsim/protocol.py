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
that tile is cut at m, and the worker that draws it also records the
moments of its first runs. Merging the whole tiles and the cut one gives
the m-run campaign's tile list in its order, so the variance is
bit-identical to that campaign's.
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
larger than the host's physical memory. ``PositionSamples.samples`` is a
``CampaignSamples`` view: its shape and size cost nothing, while indexing a
row, iterating and ``np.asarray`` re-draw the rows through the same tile
kernel, so they give the bits the campaign drew. ``np.asarray`` refuses a
``T x N`` array larger than physical memory.

The raw-sample CSV is produced by ``PositionSamples.csv_chunks``, which
re-draws the same tiles: the header, then one string per tile, in tile
order, so a caller that writes each chunk as it comes (``waxsim campaign
--dump-samples``) holds O(tile) memory, whatever the campaign size;
``"".join(csv_chunks())`` is the whole CSV as one string. With
``run_counts=()`` a campaign merges no variance and draws nothing, so a
dump built on it draws each tile once. Formatting the floats is interpreter
work that holds the GIL, so threads cannot share it:
``csv_chunks(workers)`` above 1 re-draws and formats the tiles on a pool of
that many forked processes. It keeps at most ``workers`` tiles in flight
and submits the next one as the caller takes a chunk, so memory stays
O(workers tiles); the chunks are the ones the serial path yields. Where the
platform cannot fork, the tiles are formatted serially. ``csv_chunks`` is
serial by default, since forking a multi-threaded caller is unsafe;
``waxsim campaign --dump-samples``, which runs no other thread, takes the
rule of ``run_campaign`` (:func:`default_workers`).
"""
from __future__ import annotations

import math
import operator
import os
import threading
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .dynamics import CampaignConfig, Scenario, check_workers
from .errors import DomainError, NumericalError


@dataclass(frozen=True, eq=False)
class CampaignSamples:
    """Read-only ``T x N`` view of a campaign's positions, re-drawn on demand.

    ``shape``, ``size`` and ``len()`` draw nothing. ``view[i]``, iteration
    and ``np.asarray(view)`` draw rows tile by tile through the campaign's
    kernel, so they return the positions the campaign's widths came from.
    Tile ``k`` is grid index ``k // tiles_per_row`` and the
    ``k % tiles_per_row``-th block of ``tile_runs`` runs.
    """

    seed: int
    sigmas: np.ndarray
    runs: int
    tile_runs: int

    @property
    def shape(self) -> tuple[int, int]:
        return (self.sigmas.size, self.runs)

    @property
    def size(self) -> int:
        return self.sigmas.size * self.runs

    @property
    def tiles_per_row(self) -> int:
        return -(-self.runs // self.tile_runs)

    def __len__(self) -> int:
        return self.sigmas.size

    def draw_tile(self, k: int, out: np.ndarray) -> tuple[int, int, np.ndarray]:
        """Draw tile ``k`` into the start of ``out``: (grid index, first run, runs)."""
        i, j = divmod(k, self.tiles_per_row)
        a = j * self.tile_runs
        count = min(self.tile_runs, self.runs - a)
        return i, a, _draw_tile(self.seed, self.sigmas[i], i, a, count, out)

    def _fill_row(self, i: int, row: np.ndarray) -> None:
        first = i * self.tiles_per_row
        for j in range(self.tiles_per_row):
            self.draw_tile(first + j, row[j * self.tile_runs :])

    def __getitem__(self, key: int) -> np.ndarray:
        # IndexError out of range, negative from the end, TypeError for a slice
        i = range(len(self))[operator.index(key)]
        _check_memory(8 * self.runs, f"a row of {self.runs} doubles")
        row = np.empty(self.runs)
        self._fill_row(i, row)
        return row

    def __iter__(self) -> Iterator[np.ndarray]:
        return (self[i] for i in range(len(self)))

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        _check_memory(8 * self.size, f"samples ({len(self)} x {self.runs} doubles)")
        out = np.empty(self.shape)
        for i in range(len(self)):
            self._fill_row(i, out[i])
        return out if dtype is None else out.astype(dtype, copy=False)


@dataclass(frozen=True)
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

    def csv_chunks(self, workers: int = 1) -> Iterator[str]:
        """Raw-sample CSV in pieces: the header, then one string per tile, in tile order.

        With ``workers`` 1, the default, the tiles are re-drawn and
        formatted in this process, into one reused buffer. Above 1, they
        are formatted on a pool of that many processes forked from this
        one, at most ``workers`` tiles at a time; where the platform cannot
        fork, serially. Forking a process that runs other threads can
        deadlock a child on a lock one of them held, so pass ``workers``
        above 1 only from a single-threaded caller (``waxsim campaign
        --dump-samples`` takes :func:`default_workers`). The chunks are the
        same either way. A chunk holds at most ``tile_runs`` lines, so
        writing the chunks one by one needs memory for ``workers`` tiles of
        text. Close the iterator if it is not read to its end: that shuts
        the pool down and joins its processes.
        """
        check_workers(workers)
        yield "t_s,run_index,x_m\n"
        view = self.samples
        t_reprs = [repr(float(t)) for t in self.times]
        count = len(view) * view.tiles_per_row
        if workers > 1 and count > 1:
            import multiprocessing

            if "fork" in multiprocessing.get_all_start_methods():
                yield from _forked_tile_csv(view, t_reprs, count, workers)
                return
        buffer = np.empty(min(view.runs, view.tile_runs))
        for k in range(count):
            yield _tile_csv(view, t_reprs, k, buffer)


def _tile_csv(view: CampaignSamples, t_reprs: Sequence[str], k: int, out: np.ndarray) -> str:
    """CSV lines ``t_s,run_index,x_m`` of tile ``k``, re-drawn into ``out``."""
    i, a, xs = view.draw_tile(k, out)
    t_repr = t_reprs[i]
    return "".join([f"{t_repr},{r},{x!r}\n" for r, x in enumerate(xs.tolist(), a)])


def _tile_task(errors: dict, view: CampaignSamples, t_reprs: Sequence[str], k: int) -> str:
    """:func:`_tile_csv` in a pool process, under the caller's floating-point error state."""
    with np.errstate(**errors):
        return _tile_csv(view, t_reprs, k, np.empty(min(view.runs, view.tile_runs)))


def _forked_tile_csv(
    view: CampaignSamples, t_reprs: Sequence[str], count: int, workers: int
) -> Iterator[str]:
    """``_tile_csv`` of tiles ``0 .. count - 1``, in order, on ``workers`` forked processes.

    At most ``workers`` tiles are in flight: the next tile is submitted as
    the caller takes a chunk, so a slow reader holds no queue of finished
    text. Closing the generator cancels the tiles not yet started and
    joins the processes. A process that dies raises ``DomainError``; a
    SIGINT (Ctrl-C) interrupts the caller only.

    Forked, not spawned: a forked child starts with numpy and scipy loaded,
    where a spawned one would import them again for every dump. The pool
    forks all its processes in the first ``submit``, before it starts its
    own threads.
    """
    import multiprocessing
    import signal
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    # loaded before the fork, so that no child imports it again
    import scipy.special  # noqa: F401

    errors = np.geterr()
    window = min(workers, count)
    forked_before = set(multiprocessing.active_children())
    pool = None
    try:
        # forked with SIGINT blocked, which the children keep; a SIGINT that
        # arrives meanwhile reaches this process when it is unblocked
        mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
        try:
            pool = ProcessPoolExecutor(window, multiprocessing.get_context("fork"))
            pending = deque(
                pool.submit(_tile_task, errors, view, t_reprs, k) for k in range(window)
            )
        except OSError as exc:  # a fork or a pipe refused: out of processes, memory or files
            # shutdown joins the processes of a started pool only: stop those forked so far
            for process in set(multiprocessing.active_children()) - forked_before:
                process.terminate()
                process.join()
            # multiprocessing flushes sys.stdout before it forks, so a reader of
            # stdout that left shows here; the caller's write would see the same
            if isinstance(exc, BrokenPipeError):
                raise
            raise DomainError(f"cannot start the dump's worker processes: {exc}") from exc
        finally:
            signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        for k in range(window, count + window):
            chunk = pending.popleft().result()
            if k < count:
                pending.append(pool.submit(_tile_task, errors, view, t_reprs, k))
            yield chunk
    except BrokenProcessPool as exc:  # killed, for example by the out-of-memory killer
        raise DomainError(f"a worker process died: {exc}") from exc
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)


@dataclass(frozen=True)
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


def _physical_memory() -> int | None:
    """Bytes of physical memory, or None where ``sysconf`` cannot tell."""
    try:
        return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, ValueError, OSError):  # no sysconf, or no such name
        return None


def _check_memory(needed: int, what: str) -> None:
    """Refuse what would only fit in swap or overcommitted virtual memory."""
    physical = _physical_memory()
    if physical is not None and needed > physical:
        raise DomainError(
            f"campaign needs {needed / 1e9:.3g} GB of {what}, more than the "
            f"{physical / 1e9:.3g} GB of physical memory"
        )


def default_workers(draws: int) -> int:
    """The pool size ``workers=None`` stands for: the available CPUs for a
    campaign of at least ``PARALLEL_MIN_DRAWS`` draws, 1 below."""
    return _available_cpus() if draws >= PARALLEL_MIN_DRAWS else 1


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
        The variance at ``m`` is bit-identical to that of an ``m``-run
        campaign with the same seed, because it merges the same tiles in
        the same order. An empty sequence draws nothing: the result is
        only the re-drawing view.
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
        If ``workers`` is below 1, a run count lies outside ``[2, N]``,
        ``rows`` is empty or holds a non-integer or an index outside
        ``[0, T)``, or the per-tile moment table would not fit in the
        host's physical memory.
    NumericalError
        If a row's sample variance overflows double precision.

    Pool tasks run under the caller's numpy floating-point error state, as
    the serial path does.
    """
    check_workers(workers)
    times = np.asarray(plan.time_grid)
    sigmas = np.sqrt(scenario.variance(times))
    n = plan.runs_per_time
    counts = sorted({n} if run_counts is None else set(map(operator.index, run_counts)))
    for m in counts:
        if not 2 <= m <= n:
            raise DomainError(f"run counts must lie in [2, {n}], got {m}")
    drawn = _grid_rows(rows, times.size)
    view = CampaignSamples(plan.rng_seed, sigmas, n, TILE_RUNS)
    if not counts:
        return PositionSamples(times, view, {})
    per_row, tile_runs = view.tiles_per_row, view.tile_runs
    # tile p of this campaign is tile p % per_row of row drawn[p // per_row]
    count = len(drawn) * per_row
    _check_memory(
        count * _MOMENTS.itemsize, f"tile moments ({len(drawn)} x {per_row} tiles)"
    )
    moments = np.empty(count, _MOMENTS)
    # run count m ends in tile column (m - 1) // tile_runs; if it ends before
    # that tile does, it also needs the moments of the tile's first runs
    column = {m: (m - 1) // tile_runs for m in counts}
    cut_at: dict[int, list[tuple[int, int]]] = {}  # column -> [(slot, runs kept)]
    slot = {}
    for m, j in column.items():
        kept = m - j * tile_runs
        if kept < min(tile_runs, n - j * tile_runs):
            slot[m] = len(slot)
            cut_at.setdefault(j, []).append((slot[m], kept))
    cuts = np.empty((len(drawn), len(slot)), _MOMENTS)
    undrawn = iter(range(count))
    lock = threading.Lock()

    def drain(buffers: np.ndarray) -> None:
        """Draw the next undrawn tile until none is left; record its moments."""
        out, dev = buffers
        while True:
            with lock:
                p = next(undrawn, None)
            if p is None:
                return
            r, j = divmod(p, per_row)
            _, _, tile = view.draw_tile(drawn[r] * per_row + j, out)
            moments[p] = _tile_moments(tile, dev[: tile.size])
            for s, kept in cut_at.get(j, ()):
                cuts[r, s] = _tile_moments(tile[:kept], dev[:kept])

    if workers is None:
        workers = default_workers(len(drawn) * n)
    # one task per thread, each with its own tile and scratch buffers
    buffers = np.empty((min(workers, count), 2, min(n, tile_runs)))
    if workers > 1:
        _thread_map(drain, buffers, workers)
    else:
        drain(buffers[0])

    def row_variance(r: int, m: int) -> float:
        """Drawn row ``r``'s variance of runs ``[0, m)``, from the m-run campaign's tiles."""
        j = column[m]
        tiles = moments[r * per_row : r * per_row + j + 1].tolist()
        if m in slot:
            tiles[j] = cuts[r, slot[m]].item()
        return _merged_moments(tiles)[2] / (m - 1)

    var_hats = {m: np.array([row_variance(r, m) for r in range(len(drawn))]) for m in counts}
    if not all(np.all(np.isfinite(v)) for v in var_hats.values()):
        raise NumericalError("sample variance overflows double precision")
    return PositionSamples(times, view, var_hats)


def _grid_rows(rows: Sequence[int] | None, size: int) -> list[int]:
    """``rows`` of :func:`run_campaign` as ascending distinct grid indices."""
    if rows is None:
        return list(range(size))
    try:
        drawn = sorted(set(map(operator.index, rows)))
    except TypeError as exc:  # not a sequence, or an item that is not an integer
        raise DomainError(f"rows must be a sequence of grid indices, got {rows!r}") from exc
    if not drawn:
        raise DomainError("rows must be non-empty")
    if drawn[0] < 0 or drawn[-1] >= size:
        bad = drawn[0] if drawn[0] < 0 else drawn[-1]
        raise DomainError(f"rows must lie in [0, {size}), got {bad}")
    return drawn


def _thread_map(func: Callable, items: Iterable, workers: int) -> list:
    """``[func(item) for item in items]`` on a pool of ``workers`` threads.

    Each call runs under the caller's numpy floating-point error state,
    which is per thread and does not reach pool threads by itself.
    """
    errors = np.geterr()

    def task(item):
        with np.errstate(**errors):
            return func(item)

    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(task, items))


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


def _width_estimate(t: float, variance: float, n: int) -> WidthEstimate:
    """Width estimate from an unbiased sample variance of ``n`` positions.

    sigma_hat is the square root of the variance. The standard error of the
    variance estimate is sigma_hat^2 sqrt(2/(N-1)) (normal sampling theory);
    propagating to sigma gives sigma_hat sqrt(1/(2(N-1))).
    """
    sigma_hat = math.sqrt(variance)
    return WidthEstimate(
        t=float(t),
        sigma_hat=sigma_hat,
        standard_error=sigma_hat * math.sqrt(1.0 / (2.0 * (n - 1))),
        sample_count=n,
    )


def estimate_width(t: float, samples: Sequence[float]) -> WidthEstimate:
    """Width estimate from the positions recorded at one grid time.

    sigma_hat is the square root of the unbiased (ddof=1) sample variance;
    its standard error is sigma_hat sqrt(1/(2(N-1))).
    """
    x = np.asarray(samples, dtype=float)
    if x.ndim != 1 or x.size < 2:
        raise DomainError("need at least 2 samples at one grid time")
    return _width_estimate(t, np.var(x, ddof=1), x.size)


def campaign_curve(
    plan: CampaignConfig, scenario: Scenario, workers: int | None = None
) -> tuple[WidthEstimate, ...]:
    """Run a campaign and estimate the width at every grid time."""
    data = run_campaign(plan, scenario, workers)
    n = plan.runs_per_time
    return tuple(_width_estimate(t, v, n) for t, v in zip(data.times, data.var_hat))


def campaign_to_csv(estimates: Sequence[WidthEstimate]) -> str:
    """CSV text: header ``t_s,sigma_hat_m,sigma_err_m,n_samples``."""
    lines = ["t_s,sigma_hat_m,sigma_err_m,n_samples"]
    for e in estimates:
        lines.append(
            f"{e.t!r},{e.sigma_hat!r},{e.standard_error!r},{e.sample_count}"
        )
    return "\n".join(lines) + "\n"
