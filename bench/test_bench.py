"""Tests of the benchmark itself (smallest size).

    python3 -m pytest bench/test_bench.py -q
"""
from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]


def run_bench(workload: str, trace: int, *extra: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--size", "smoke", *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", NAMES)
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_emits_every_metric_with_its_unit(workload, trace):
    doc = run_bench(workload, trace)
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert doc["correct"] is True and doc["failed"] == 0 and doc["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {k: v["unit"] for k, v in doc["metrics"].items()}
    for value in doc["metrics"].values():
        assert isinstance(value["value"], (int, float))
    if not trace:
        assert all(v["value"] > 0 for v in doc["metrics"].values())


@pytest.mark.parametrize("workload", NAMES)
def test_corrupted_reference_counts_as_failed(workload, tmp_path):
    refs = tmp_path / "refs"
    shutil.copytree(BENCH / "refs", refs)
    path = refs / f"{workload}.json"
    doc = json.loads(path.read_text())
    row = doc["smoke"]["0"]["steps"][0]["rows"][0]
    key = next(k for k, v in row.items() if isinstance(v, float) and k not in ("t", "x", "eps"))
    row[key] += 1e-3
    path.write_text(json.dumps(doc))
    out = run_bench(workload, 0, "--refs", str(refs))
    assert out["correct"] is False
    assert 0 < out["failed"] <= out["attempted"]


def test_missing_sources_exit_nonzero_without_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", NAMES[0], "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


@pytest.mark.xfail(strict=True, reason="kdv_phase_diagram warm-started from the fold row loses both edges at t = 0.22")
def test_chained_sweep_from_the_fold():
    """The sweep edge_sweep splits in two, run as one chained grid.

    Its rows must match the same references as the split sweeps.  This
    fails on the current continuation; once it passes, edge_sweep can run
    the grid as a single sweep.
    """
    sys.path.insert(0, str(ROOT / "src"))
    from kdvrmt import hopf, kdv_asym

    ref = json.loads((BENCH / "refs" / "edge_sweep.json").read_text())["full"]["0"]["steps"]
    want = [ref[0]["rows"][0], ref[1]["rows"][0]]
    rows = kdv_asym.kdv_phase_diagram(hopf.make_sech2_data(), [r["t"] for r in want])
    for row, r in zip(rows, want):
        for key in ("x_minus", "x_plus"):
            assert math.isfinite(row[key]) and abs(row[key] - r[key]) <= 1e-8, (row, r)
