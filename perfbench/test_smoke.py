"""Smoke tests of the benchmark: each workload at a tiny size, both modes.

Run from the repository root with ``python -m pytest perfbench``; the
package's own suite (``tests/``) does not collect this file.
"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import bench  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "0.5", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=120,
    )


def test_spec_lists_what_the_benchmark_reports():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == bench.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == bench.PER_LAYER_UNITS


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_smoke_run_is_correct_and_complete(workload, trace):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected
    }
    if trace:
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        for v in bench.PREDICTED:
            assert metrics[f"deconv.{v}.macs_over_predicted"] == 1.0
        assert metrics["ops.conv.macs_over_predicted"] == 1.0
        nn = WORKLOADS[workload].source == "nn-resize"
        assert metrics["ops.mac_ratio"] == pytest.approx(4 / 9 if nn else 1.0)


def test_checks_reject_wrong_and_non_finite_outputs():
    reference = np.zeros((1, 2, 2))

    def upst(values):
        arr = np.asarray(values, dtype="<f4").reshape(1, 2, 2)
        header = b"UPST" + (1).to_bytes(2, "little") + bytes([3])
        return header + np.asarray(arr.shape, "<u4").tobytes() + arr.tobytes()

    assert bench.check_output(upst([0, 0, 0, 5e-5]), reference) is None
    assert "non-finite" in bench.check_output(upst([np.nan] * 4), reference)
    assert "max-abs" in bench.check_output(upst([0, 0, 0, 1e-3]), reference)
    assert "unreadable" in bench.check_output(b"UPSX", reference)


def test_fails_without_the_package_source():
    bare = ROOT / ".perfbench-work" / f"bare-{os.getpid()}"
    try:
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = _run("verify-small", 0, cwd=bare)
        assert proc.returncode != 0
        assert proc.stdout == ""
    finally:
        shutil.rmtree(bare, ignore_errors=True)
