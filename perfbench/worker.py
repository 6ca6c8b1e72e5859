"""One benchmark process: set up, then run a workload's ops in a closed loop.

Started by ``run.py`` as ``python perfbench/worker.py WORKLOAD SEED SECONDS
TRACE SIZE TMPDIR`` with ``src`` on ``PYTHONPATH``. It imports ``waxsim.cli``,
builds the workload's inputs and expected outputs, prints ``READY`` and
waits for one line on stdin: ``go`` runs the loop and prints the result as
one JSON line, anything else exits. A set-up run by ``run.py`` that only
measures start-up ends at the ``READY`` line.

Each op starts after the previous one finished and its output was checked.
``cli-cold`` ops are fresh ``python -m waxsim`` processes; the other
workloads call ``waxsim.cli.main`` in this process. With TRACE=1, ops
alternate between traced and untraced (a whole rotation at a time on
``cli-cold``), so the result holds both and ``run.py`` can report the
tracing overhead.

Every op is timed between two runs of fixed reference work (see
``reference.py``): one before the first op, then one right after each op,
before its output is checked. Each op records its own seconds and the mean
of the two reference times around it.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import subprocess
import sys
import threading
import time
import traceback

import waxsim.cli as cli

import reference
import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))


def _in_process(argv: list[str]) -> tuple[int | None, str]:
    """Run cli.main(argv); return (exit code or None, stderr text)."""
    err = io.StringIO()
    try:
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # a traceback is a failed op, not a crash of the loop
        err.write(traceback.format_exc())
        code = None
    return code, err.getvalue()


def _subprocess(argv: list[str], spans_path: str | None,
                tmpdir: str) -> tuple[int | None, str, int]:
    """Run one fresh interpreter; traced through child.py when spans_path is set.

    Returns (exit code, stderr text, peak RSS of that process in KiB). The
    child is reaped with ``wait4`` so that its own peak RSS is known; the
    children-wide figure would include the reference interpreters.
    """
    if spans_path is None:
        cmd = [sys.executable, "-m", "waxsim", *argv]
    else:
        cmd = [sys.executable, os.path.join(HERE, "child.py"), spans_path, *argv]
    with open(os.path.join(tmpdir, "op.err"), "w+", encoding="utf-8") as err:
        proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                                stderr=err)
        watchdog = threading.Timer(120, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        return proc.returncode, err.read(), usage.ru_maxrss


def run_loop(workload: workloads.Workload, seconds: float, trace: bool, tmpdir: str,
             tamper=None) -> dict:
    """Run rounds of ops until ``seconds`` have passed (at least one round).

    ``tamper(path)``, if given, is called on each output before it is
    checked; the smoke test uses it to prove that a corrupted output counts
    as a failed op.
    """
    out_path = os.path.join(tmpdir, "out.csv")
    spans_path = os.path.join(tmpdir, "spans.json")
    full = tracing.Tracer()
    # untraced in-process ops hook only run_campaign, to count draws
    counter = tracing.Tracer(names=("protocol.run_campaign",))
    ops = []
    peak_rss_kb = 0
    start = time.perf_counter()
    ref_before = reference.measure(workload.name, tmpdir)
    round_index = 0
    while True:
        traced = trace and round_index % 2 == 0
        for kind, argv in workload.next_round():
            argv = argv + ["-o", out_path]
            with contextlib.suppress(FileNotFoundError):
                os.remove(out_path)
            layers = None
            if workload.in_process:
                tracer = full if traced else counter
                tracer.reset()
                tracer.install()
                t0 = time.perf_counter()
                try:
                    code, err = _in_process(argv)
                finally:
                    seconds_taken = time.perf_counter() - t0
                    tracer.uninstall()
                data = tracer.dump()
            else:
                t0 = time.perf_counter()
                code, err, rss_kb = _subprocess(argv, spans_path if traced else None, tmpdir)
                seconds_taken = time.perf_counter() - t0
                peak_rss_kb = max(peak_rss_kb, rss_kb)
                data = None
            ref_after = reference.measure(workload.name, tmpdir)
            if not workload.in_process and traced and code == 0:
                with open(spans_path, encoding="utf-8") as fh:
                    data = json.load(fh)
            reason = None
            draws = 0
            if code != 0:
                reason = f"exit code {code}"
            elif "Traceback" in err:
                reason = "traceback on stderr"
            else:
                try:
                    if tamper is not None:
                        tamper(out_path)
                    draws = workload.check(kind, out_path)
                except Exception as exc:  # any check error fails the op
                    reason = f"{type(exc).__name__}: {exc}"
            if data is not None:
                draws = int(data["counters"].get("protocol.draws", 0))
                if traced:
                    layers = data
            ops.append({
                "kind": kind, "seconds": seconds_taken,
                "ref_seconds": (ref_before + ref_after) / 2, "traced": traced,
                "ok": reason is None, "reason": reason, "draws": draws,
                "oracle_warnings": err.count("oracle check failed"), "layers": layers,
            })
            ref_before = ref_after
        round_index += 1
        # a traced run needs an untraced round too, for the overhead
        if time.perf_counter() - start >= seconds and round_index >= 1 + trace:
            break
    if workload.in_process:
        peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {"ops": ops, "peak_rss_kb": peak_rss_kb,
            "determinism": _determinism(workload, tmpdir),
            "closed_form": workload.closed_form}


def _determinism(workload: workloads.Workload, tmpdir: str) -> str | None:
    """Serial and --workers 2 campaign bytes must match; None when they do."""
    argv = workload.determinism_argv()
    outputs = []
    for extra in ([], ["--workers", "2"]):
        path = os.path.join(tmpdir, f"determinism{len(outputs)}.csv")
        code, err = _in_process(argv + extra + ["-o", path])
        if code != 0:
            return f"exit code {code}: {err.strip()[-200:]}"
        with open(path, "rb") as fh:
            outputs.append(fh.read())
        os.remove(path)
    if outputs[0] != outputs[1]:
        return "serial and --workers 2 campaign bytes differ"
    return None


def main() -> int:
    name, seed, seconds, trace, size, tmpdir = sys.argv[1:7]
    workload = workloads.Workload(name, int(seed), size)
    print("READY", flush=True)
    if sys.stdin.readline().strip() != "go":
        return 0
    result = run_loop(workload, float(seconds), trace == "1", tmpdir)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
