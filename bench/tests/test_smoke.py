"""Smoke test of the campaign benchmark.

Runs the tiny `smoke` workload (2 days x 60 samples, every preset) with
and without tracing and checks the result schema, the metric names and
units against BENCHMARK.json, the exact counters and the output
digests. It sets no timing bound.

    python3 -m pytest bench/tests
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
RETRIEVALS_PER_ITERATION = 2 * 2 * 6     # sites x days x presets

# outputs of the smoke campaign at seed 20231111
DIGESTS = {
    "sessions.csv": "c71a8f601bf7e83a9ed1b9cccb84e3c95c900974f8a36074ddff9086ef271514",
    "rejections.csv": "e3f423d19acf4a42846e94e47a314380f33b903e2c4574ecbd66436b17cca9d9",
    "retrievals.csv": "bb795209d4ac54652b08990d091fbe3e0bbbc771a14a4e8a6d8fdaef14144deb",
    "metrics.csv": "0a6f504d914da0365dd5a82bfc6352962c08f7fbf4107d2c55fc2ee7b54c2c16",
}
EVALS_PER_PRESET = {"SCAV": 332, "SCAH": 332, "RDCA": 17824,
                    "DCA0": 24556, "DCA1": 26586, "DCA2": 24068}


def run_bench(root, trace, workload="smoke"):
    return subprocess.run(
        [sys.executable, str(root / "bench" / "run.py"), "--workload", workload,
         "--seed", "20231111", "--seconds", "1", "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, timeout=300)


def parse(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    detail = next(line for line in lines if line.startswith("detail "))
    return json.loads(lines[-1]), json.loads(detail[len("detail "):])


@pytest.fixture(scope="module")
def untraced():
    return parse(run_bench(ROOT, 0))


@pytest.fixture(scope="module")
def traced():
    return parse(run_bench(ROOT, 1))


def check_schema(result, specs):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= RETRIEVALS_PER_ITERATION
    assert result["attempted"] % RETRIEVALS_PER_ITERATION == 0
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {spec["name"]: spec["unit"] for spec in specs}
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))
        assert math.isfinite(metric["value"])


def test_end_to_end_result(untraced):
    result, detail = untraced
    check_schema(result, SPEC["end_to_end"])
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    assert metrics["ok_frac"] == 1.0
    assert detail["failed_frac"] == 0.0
    for name in ("campaign_rel", "setup_s", "peak_rss_mb", "sm_rmse_truth"):
        assert metrics[name] > 0.0, name
    assert detail["provenance"]["output_sha256"] == [DIGESTS]


def test_per_layer_counters(traced):
    result, detail = traced
    check_schema(result, SPEC["per_layer"])
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    assert metrics["preprocess.records"] == 240
    assert metrics["preprocess.accepted"] == 228
    for flag in ("max_exceeded", "min_violated", "pol_order_violated"):
        assert metrics[f"preprocess.rejected.{flag}"] == 4
    assert metrics["validation.nearest_reference.calls"] == 4
    assert metrics["retrieval.evals_total"] == sum(EVALS_PER_PRESET.values())
    assert metrics["retrieval.nonconverged"] == 0
    assert metrics["pipeline.write_artifacts.bytes"] == 9054
    per_preset = detail["per_preset"]
    assert {p: per_preset[p]["evals_total"] for p in EVALS_PER_PRESET} == EVALS_PER_PRESET
    assert all(per_preset[p]["n"] == 4 for p in EVALS_PER_PRESET)
    assert detail["provenance"]["output_sha256"] == [DIGESTS]
    assert detail["kernel_max_disagreement"] < 1e-12


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, 0, workload="season")
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())
