"""Smoke test of the benchmark: every workload at a tiny size, untraced and
traced, plus the span arithmetic and the missing-library failure.

    python3 -m pytest -q perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from spans import Span, self_times  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]
SEED = 3
#: Printed in the report; they gate the run through "correct" and "failed"
#: rather than appearing among the JSON metrics.
REPORT_ONLY = {"rank1": "fraction", "failed_frac": "fraction"}


def bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def parse(proc: subprocess.CompletedProcess) -> tuple[dict[str, str], dict]:
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    units = {line.split()[1]: line.split()[3] for line in lines[:-1] if line.startswith("metric ")}
    return units, json.loads(lines[-1])


def check_result(result: dict, expected: dict[str, str]) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_reports_every_end_to_end_metric(workload):
    printed, result = parse(bench(workload, 0))
    expected = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    check_result(result, expected)
    assert printed.items() >= (expected | REPORT_ONLY).items()


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_per_layer_metric(workload):
    printed, result = parse(bench(workload, 1))
    expected = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    check_result(result, expected)
    assert printed.items() >= expected.items()

    lines = (ROOT / ".perfbench-out" / f"spans-{workload}-tiny-seed{SEED}.jsonl").read_text().splitlines()
    header, records = json.loads(lines[0]), [json.loads(line) for line in lines[1:]]
    assert header["pool_workers_traced"] is False
    by_id = {r["id"]: r for r in records}
    for r in records:
        assert 0 <= r["self_ns"] <= r["end_ns"] - r["start_ns"]
        if r["parent"] is not None:
            parent = by_id[r["parent"]]
            assert r["self_ns"] <= parent["end_ns"] - parent["start_ns"]


def test_self_time_subtracts_the_union_of_children():
    spans = [Span(0, "p", None, 0, 100), Span(1, "a", 0, 10, 30), Span(2, "b", 0, 20, 50),
             Span(3, "c", 0, 90, 120), Span(4, "d", 1, 12, 14)]
    assert self_times(spans) == {0: 50, 1: 18, 2: 30, 3: 30, 4: 2}


def test_fails_without_result_when_the_library_is_missing(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench(WORKLOADS[0], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
