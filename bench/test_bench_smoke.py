"""Smoke test of the benchmark at tiny sizes.

Run with ``python -m pytest bench/test_bench_smoke.py``.  It checks that every
metric ``BENCHMARK.json`` names is reported with its unit, that the output
checks pass, and that the result line has the documented schema.  It puts
no threshold on any time.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# Single runs at 1/20 of the preset duration; the ensemble runs 2 replicas.
SMOKE_SCALE = "0.05"


def run_bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    command = [sys.executable, *SPEC["command"][1:]]
    args = ["--workload", workload, "--seed", "5", "--seconds", "1",
            "--trace", str(trace), "--scale", SMOKE_SCALE]
    return subprocess.run(command + args, cwd=cwd, capture_output=True, text=True, timeout=170)


def test_spec_shape():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["bench"]
    assert [w["name"] for w in SPEC["workloads"]] == ["tpp_csv", "grain_ensemble", "generic_json"]
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    for metric in SPEC["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_result_schema(workload, trace):
    proc = run_bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stdout
    assert result["failed"] == 0
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected
    }
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float))
    if trace:
        metrics = {name: m["value"] for name, m in result["metrics"].items()}
        recording = [v for name, v in metrics.items() if name.startswith("recording.")]
        if workload == "grain_ensemble":
            assert recording == [0] * len(recording)
        else:
            assert all(v > 0 for v in recording)
        if workload == "tpp_csv":
            assert metrics["criterion.amplitude_reject_ratio"] == 0
    else:
        assert "failed_fraction" in proc.stdout


def test_refuses_without_program(tmp_path):
    """With only BENCHMARK.json and the benchmark's files it fails and prints no result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = run_bench("tpp_csv", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
