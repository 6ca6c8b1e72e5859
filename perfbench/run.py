"""waxsim benchmark: four closed-loop workloads, end-to-end and per-layer metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of ``cli-cold``, ``campaign-widths``, ``campaign-dump``,
``bound-oracle`` or ``all``. Each workload is one client in one process: an
op starts only after the previous op finished and its output was checked.

Set-up: ``SETUPS`` fresh interpreters are started one after another; each
imports ``waxsim.cli`` and generates the workload's inputs. Each set-up time,
from spawn to ready, is divided by the time of a reference interpreter run
right after it, and ``setup_s`` is the median ratio times
``NOMINAL_REFERENCE_S``. The first one runs the ops for
``--seconds`` seconds and then checks, outside the timed loop, that serial
and ``--workers 2`` campaign bytes are identical; the others start after it
has ended and only set up.

``--trace 0`` reports the end-to-end metrics. Every op is timed between two
runs of a fixed reference work of the same kind (``reference.py``), and the
bounded op metrics are in units of ``ref``: op seconds over the mean of the
two reference times around the op. Plain seconds, the references' own
times and the slowest op are printed and recorded too, but not bounded: on
a shared host they move with the neighbours' load (see NOTES.md).

``--trace 1`` alternates traced and untraced ops and reports the per-layer
metrics: span counts and self times are per traced op,
``trace.overhead_s`` is the traced minus the untraced median op time, and
the ``import.*`` start-up times come from ``python -X importtime`` on the
set-up interpreters.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. The lines before it name every
metric with its unit and sample count, plus a run record (machine, library
versions, source digest, seed). ``attempted`` counts the ops plus the one
determinism check, and ``failed`` those of them that failed.
"""
from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import re
import select
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter

import reference

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

WORKLOADS = ("cli-cold", "campaign-widths", "campaign-dump", "bound-oracle")
SETUPS = {"full": 3, "tiny": 1}
# Set-up is timed against the cli-cold reference (a fresh interpreter that
# imports numpy and scipy.stats) run right after it, and setup_s is that
# ratio times this fixed length of one reference: the reference's median
# on the machine described in NOTES.md. It converts back to seconds without
# carrying the host's speed of the moment into the metric.
NOMINAL_REFERENCE_S = 1.4
# a timing percentile needs this many samples beyond it to be reported
TAIL_SAMPLES = 10

END_TO_END = {
    "setup_s": "s",
    "op_p50_ref": "ref",
    "draws_per_ref": "1/ref",
    "peak_rss_mb": "MB",
}
# printed and recorded with the end-to-end metrics, but not bounded (see NOTES.md)
UNBOUNDED = {"setup_s_measured": "s", "setup_ref_s": "s", "op_tail_ref": "ref",
             "op_s_p50": "s", "op_s_tail": "s", "draws_per_s": "1/s", "ref_s_p50": "s"}

IMPORTS = ("waxsim.cli", "waxsim.inference", "waxsim.validation", "scipy.stats", "numpy")
SPAN_METRICS = {
    "cli.main": ("self_s",),
    "config.finalize": ("calls", "self_s"),
    "decoherence.total_budget": ("calls", "self_s"),
    "dynamics.expansion_curve": ("self_s",),
    "protocol.run_campaign": ("calls", "self_s"),
    "protocol.campaign_curve": ("self_s",),
    "protocol.estimate_width": ("self_s",),
    "protocol.campaign_to_csv": ("self_s",),
    "protocol.to_csv": ("self_s",),
    "inference.min_detectable_lambda": ("self_s",),
    "inference.bisect_lambda_mc": ("calls",),
    "inference.detection_power_mc": ("calls", "self_s"),
}
PER_LAYER = {
    **{f"import.{m}_s": "s" for m in IMPORTS},
    **{f"{span}.{field}": ("count" if field == "calls" else "s")
       for span, fields in SPAN_METRICS.items() for field in fields},
    "protocol.draws": "count",
    "protocol.draws_per_s": "1/s",
    "protocol.csv_rows": "count",
    "protocol.csv_bytes": "B",
    "protocol.peak_array_bytes": "B",
    "inference.power_evals_per_row": "ratio",
    "inference.oracle_ratio_min": "ratio",
    "inference.oracle_ratio_max": "ratio",
    "inference.oracle_warnings": "count",
    "trace.op_s_p50_traced": "s",
    "trace.op_s_p50_untraced": "s",
    "trace.overhead_s": "s",
}


class BenchError(Exception):
    """The benchmark could not produce a result."""


def _read_line(proc: subprocess.Popen, timeout: float) -> str:
    ready, _, _ = select.select([proc.stdout], [], [], timeout)
    if not ready:
        raise BenchError(f"worker gave no output within {timeout} s")
    return proc.stdout.readline().strip()


def _stop(proc: subprocess.Popen) -> None:
    if proc.poll() is None:
        proc.kill()
    proc.wait()


def _run_worker(name: str, args, tmpdir: str):
    """Start SETUPS workers; return set-up and reference times, stderr texts, result.

    The first worker runs the ops; the others only set up, after the ops,
    so that the set-up samples are spread over the run. Without tracing,
    each worker waits at READY while the set-up reference runs.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    flags = ["-X", "importtime"] if args.trace else []
    setups, references, stderr_texts, result = [], [], [], None
    count = SETUPS[args.size]
    for i in range(count):
        err_path = os.path.join(tmpdir, f"worker{i}.err")
        cmd = [sys.executable, *flags, os.path.join(HERE, "worker.py"), name,
               str(args.seed), str(args.seconds), str(args.trace), args.size, tmpdir]
        with open(err_path, "w+", encoding="utf-8") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdin=subprocess.PIPE,
                                    stdout=subprocess.PIPE, stderr=err, text=True)
            try:
                line = _read_line(proc, 120)
                setups.append(time.perf_counter() - t0)
                if line == "READY" and not args.trace:
                    references.append(reference.measure("cli-cold", tmpdir))
                out, _ = proc.communicate("go\n" if i == 0 else "quit\n", timeout=170)
            finally:
                _stop(proc)
            err.seek(0)
            stderr_texts.append(err.read())
        if line != "READY" or proc.returncode != 0:
            raise BenchError(f"worker failed (exit {proc.returncode}):\n"
                             + stderr_texts[-1][-2000:])
        if i == 0:
            result = json.loads(out.strip().splitlines()[-1])
    return setups, references, stderr_texts, result


def _tail(times: list[float]) -> tuple[float, str]:
    """Highest percentile with TAIL_SAMPLES samples beyond it, else the maximum."""
    ordered = sorted(times)
    n = len(ordered)
    if n <= 2 * TAIL_SAMPLES:
        return ordered[-1], f"p100: {n} ops are too few for a tail percentile"
    k = n - 1 - TAIL_SAMPLES
    return ordered[k], f"p{100.0 * k / (n - 1):.1f}"


def _import_times(stderr_text: str) -> dict[str, float]:
    """Seconds spent importing each module in IMPORTS and its submodules.

    ``-X importtime`` prints the import tree children first, so it is read
    backwards. A module's time is the cumulative time of its topmost entries;
    this also covers a package that has no line of its own (scipy loads
    ``scipy.stats`` lazily, and only its submodules are listed). A module
    that was not imported reads 0.
    """
    totals = dict.fromkeys(IMPORTS, 0.0)
    stack: list[tuple[int, set[str]]] = []
    for match in reversed(list(re.finditer(
            r"^import time:\s*\d+\s*\|\s*(\d+)\s*\|( *)(\S+)$", stderr_text, re.M))):
        depth, name = len(match.group(2)), match.group(3)
        while stack and stack[-1][0] >= depth:
            stack.pop()
        inside = set(stack[-1][1]) if stack else set()
        for module in IMPORTS:
            if module not in inside and (name == module or name.startswith(module + ".")):
                totals[module] += int(match.group(1)) / 1e6
                inside.add(module)
        stack.append((depth, inside))
    return totals


def _end_to_end(setups, references, result) -> tuple[dict, dict, dict]:
    """The bounded metrics, and the unbounded ones for the report and record.

    Op metrics in ``ref`` are ratios: an op's seconds over the mean of the
    reference times before and after it (see ``reference.py``).
    ``draws_per_ref`` is the mean draws per op over the median op ratio.
    """
    ops = result["ops"]
    times = [op["seconds"] for op in ops]
    ratios = [op["seconds"] / op["ref_seconds"] for op in ops]
    draws = sum(op["draws"] for op in ops)
    op_p50_ref = statistics.median(ratios)
    values = {
        "setup_s": NOMINAL_REFERENCE_S * statistics.median(
            s / r for s, r in zip(setups, references)),
        "op_p50_ref": op_p50_ref,
        "draws_per_ref": draws / len(ops) / op_p50_ref,
        "peak_rss_mb": result["peak_rss_kb"] / 1024.0,
    }
    samples = {"setup_s": len(setups), "op_p50_ref": len(ops), "draws_per_ref": len(ops),
               "peak_rss_mb": 1}
    tail_ref, percentile = _tail(ratios)
    tail_s, _ = _tail(times)
    unbounded = {  # name -> (value, sample count)
        "setup_s_measured": (statistics.median(setups), len(setups)),
        "setup_ref_s": (statistics.median(references), len(references)),
        "op_tail_ref": (tail_ref, len(ops)),
        "op_s_p50": (statistics.median(times), len(ops)),
        "op_s_tail": (tail_s, len(ops)),
        "draws_per_s": (draws / sum(times), len(ops)),
        "ref_s_p50": (statistics.median(op["ref_seconds"] for op in ops), len(ops)),
    }
    return values, samples, {"tail_percentile": percentile, "unbounded": unbounded}


def _per_layer(stderr_texts, result) -> tuple[dict, dict, dict]:
    ops = result["ops"]
    traced = [op for op in ops if op["traced"] and op["layers"] is not None]
    untraced = [op for op in ops if not op["traced"]]
    k = max(len(traced), 1)
    values: dict[str, float] = {}
    imports = [_import_times(text) for text in stderr_texts]
    for module in IMPORTS:
        values[f"import.{module}_s"] = statistics.median(t[module] for t in imports)
    totals: dict[str, dict[str, float]] = {}
    counters: dict[str, float] = {}
    for op in traced:
        for span, entry in op["layers"]["layers"].items():
            acc = totals.setdefault(span, {"calls": 0, "incl_s": 0.0, "self_s": 0.0})
            for field in acc:
                acc[field] += entry[field]
        for key, value in op["layers"]["counters"].items():
            counters[key] = counters.get(key, 0.0) + value
    for span, fields in SPAN_METRICS.items():
        for field in fields:
            values[f"{span}.{field}"] = totals.get(span, {}).get(field, 0) / k
    sampling = totals.get("protocol.run_campaign", {}).get("incl_s", 0.0)
    draws = counters.get("protocol.draws", 0.0)
    values["protocol.draws"] = draws / k
    values["protocol.draws_per_s"] = draws / sampling if sampling else 0.0
    values["protocol.csv_rows"] = counters.get("protocol.csv_rows", 0.0) / k
    values["protocol.csv_bytes"] = counters.get("protocol.csv_bytes", 0.0) / k
    values["protocol.peak_array_bytes"] = max(
        (op["layers"]["counters"].get("protocol.peak_array_bytes", 0.0) for op in traced),
        default=0.0)
    bisections = totals.get("inference.bisect_lambda_mc", {}).get("calls", 0)
    evals = totals.get("inference.detection_power_mc", {}).get("calls", 0)
    values["inference.power_evals_per_row"] = evals / bisections if bisections else 0.0
    closed_form = {int(n): lam for n, lam in result["closed_form"].items()}
    ratios = [mc / closed_form[n] for op in traced for n, mc in op["layers"]["oracle"]]
    values["inference.oracle_ratio_min"] = min(ratios, default=0.0)
    values["inference.oracle_ratio_max"] = max(ratios, default=0.0)
    values["inference.oracle_warnings"] = statistics.mean(op["oracle_warnings"] for op in ops)
    p50_traced = statistics.median(op["seconds"] for op in traced) if traced else 0.0
    p50_untraced = statistics.median(op["seconds"] for op in untraced) if untraced else 0.0
    values["trace.op_s_p50_traced"] = p50_traced
    values["trace.op_s_p50_untraced"] = p50_untraced
    values["trace.overhead_s"] = p50_traced - p50_untraced
    samples = {name: len(traced) for name in PER_LAYER}
    samples.update({f"import.{m}_s": len(imports) for m in IMPORTS})
    samples["inference.oracle_warnings"] = len(ops)
    samples["trace.op_s_p50_untraced"] = len(untraced)
    samples["inference.oracle_ratio_min"] = samples["inference.oracle_ratio_max"] = len(ratios)
    notes = {"zero_means": "the layer did not run on this workload",
             "computed_not_measured": ["protocol.peak_array_bytes = 8 * T * N"]}
    return values, samples, notes


def _source_digest() -> str:
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(os.path.join(SRC, "waxsim")):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for filename in sorted(f for f in filenames if f.endswith(".py")):
            path = os.path.join(dirpath, filename)
            digest.update(os.path.relpath(path, SRC).encode())
            with open(path, "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


def _machine() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    versions = {}
    for package in ("numpy", "scipy"):
        try:
            versions[package] = importlib.metadata.version(package)
        except importlib.metadata.PackageNotFoundError:
            versions[package] = "not installed"
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                    capture_output=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {"nproc": os.cpu_count(), "cpu_model": cpu,
            "python": platform.python_version(), **versions,
            "git_commit": commit, "src_sha256": _source_digest()}


def run_workload(name: str, args, machine: dict) -> dict:
    """Run one workload, print its report lines and return its result object."""
    base = os.path.join(ROOT, ".perfbench_tmp")
    os.makedirs(base, exist_ok=True)
    tmpdir = tempfile.mkdtemp(dir=base)
    try:
        setups, references, stderr_texts, result = _run_worker(name, args, tmpdir)
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
        if not os.listdir(base):
            os.rmdir(base)
    ops = result["ops"]
    failed_ops = [op for op in ops if not op["ok"]]
    determinism = result["determinism"]
    attempted, failed = tally(result)
    if args.trace:
        values, samples, extra = _per_layer(stderr_texts, result)
        units = PER_LAYER
    else:
        values, samples, extra = _end_to_end(setups, references, result)
        units = END_TO_END
    for metric, unit in units.items():
        print(f"{name:16s} {metric:40s} {values[metric]:14.6g} {unit:6s} n={samples[metric]}")
    for metric, (value, count) in extra.get("unbounded", {}).items():
        label = f"{extra['tail_percentile']}, " if "tail" in metric else ""
        print(f"{name:16s} {metric:40s} {value:14.6g} {UNBOUNDED[metric]:6s} "
              f"n={count} ({label}not bounded)")
    print(f"{name:16s} {'failed_frac':40s} {failed / attempted:14.6g} {'frac':6s} n={attempted}")
    for op in failed_ops:
        print(f"{name:16s} failed op {op['kind']}: {op['reason']}")
    if determinism is not None:
        print(f"{name:16s} failed determinism check: {determinism}")
    record = {
        "workload": name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "size": args.size, **machine, "samples": samples, **extra,
        "failed_frac": failed / attempted, "ops_by_kind": Counter(op["kind"] for op in ops),
    }
    if name == "bound-oracle":
        record["seed_note"] = ("bound --oracle-check pins oracle seeds to 1..--oracle-seeds; "
                               "the workload seed changes no program input")
    print("record " + json.dumps(record, sort_keys=True))
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {m: {"value": values[m], "unit": u} for m, u in units.items()}}


def tally(result: dict) -> tuple[int, int]:
    """(attempted, failed): every op plus the one determinism check."""
    failed = sum(not op["ok"] for op in result["ops"]) + (result["determinism"] is not None)
    return len(result["ops"]) + 1, failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny runs every op at a small size, for the smoke test")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "waxsim", "cli.py")):
        print(f"perfbench: no waxsim sources under {SRC}", file=sys.stderr)
        return 2
    machine = _machine()
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = {name: run_workload(name, args, machine) for name in names}
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        final = results[names[0]]
    else:
        for name, res in results.items():
            print(f"result {name} " + json.dumps(res))
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{m}": v for name, r in results.items()
                        for m, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
