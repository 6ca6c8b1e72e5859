"""Smoke test for the benchmark itself, at a tiny size.

Run from the repository root with ``python -m pytest perfbench/test_smoke.py``.
"""
import json
import math
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    BENCHMARK = json.load(_fh)


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join("perfbench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def test_benchmark_json_matches_the_harness():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)
    assert list(run.WORKLOADS) == list(workloads.NAMES)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_every_metric_is_emitted_with_a_unit(workload, trace):
    out = _bench("--workload", workload, "--seed", "3", "--seconds", "0",
                 "--trace", str(trace), "--size", "tiny")
    assert out.returncode == 0, out.stderr
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    expected = run.PER_LAYER if trace else run.END_TO_END
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    for name, metric in result["metrics"].items():
        assert math.isfinite(metric["value"]), name
        assert any(line.split()[1:2] == [name] for line in lines), name
    printed = {line.split()[1] for line in lines[:-1] if len(line.split()) > 3}
    assert "failed_frac" in printed
    if not trace:  # the op metrics in seconds and the tail are printed, unbounded
        assert set(run.UNBOUNDED) <= printed
    record = json.loads(next(line for line in lines if line.startswith("record "))[7:])
    for key in ("nproc", "cpu_model", "python", "numpy", "scipy", "git_commit", "seed"):
        assert key in record
    assert set(record["samples"]) == set(expected)


def _nan_in_first_row(path):
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    cells = lines[1].split(",")
    cells[1] = "nan"
    lines[1] = ",".join(cells)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _drop_last_row(path):
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines[:-1]) + "\n")


def _wrong_header(path):
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("x" + text)


@pytest.mark.parametrize("workload, corrupt", [
    ("campaign-widths", _nan_in_first_row),
    ("campaign-dump", _drop_last_row),
    ("bound-oracle", _wrong_header),
])
def test_corrupted_output_counts_as_failed(workload, corrupt, tmp_path):
    result = worker.run_loop(workloads.Workload(workload, 3, "tiny"), 0, False,
                             str(tmp_path), tamper=corrupt)
    attempted, failed = run.tally(result)
    assert result["ops"] and not any(op["ok"] for op in result["ops"])
    assert failed == len(result["ops"]) and failed / attempted > 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = _bench("--workload", "cli-cold", "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path)
    assert out.returncode != 0
    assert out.stdout.strip() == ""
