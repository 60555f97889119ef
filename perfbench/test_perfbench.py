"""Tests of the benchmark itself, on tiny instances of every workload.

Run from the repository root: python -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in DECLARED["workloads"]]


def test_stage_time_is_wall_time_less_sampling_scaled_by_host_speed():
    sys.path.insert(0, str(BENCH))
    import hostspeed

    # Marks: (clock, seconds spent sampling, index of the mark's chunk).
    sampler = hostspeed.Sampler([2 * hostspeed.REFERENCE_CHUNK_S] * 3)
    raw, normalized = sampler.stage((10.0, 0.5, 0), (14.0, 1.5, 2))
    assert raw == pytest.approx(3.0)
    assert normalized == pytest.approx(1.5)  # the host ran at half the reference speed


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--seconds", "1", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_prints_every_metric_with_its_unit(workload, trace):
    proc = bench("--workload", workload, "--seed", "0", "--trace", trace, "--smoke")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 2
    declared = DECLARED["per_layer" if trace == "1" else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert any(
            line.startswith(m["name"] + " ") and line.endswith(" " + m["unit"])
            for line in lines[:-1]
        ), f"{m['name']} not printed with its unit"


@pytest.mark.parametrize("workload", WORKLOADS)
def test_corrupted_operator_counts_as_failed_job(workload):
    proc = bench("--workload", workload, "--seed", "0", "--trace", "0", "--smoke", "--corrupt")
    assert proc.returncode == 1, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] >= 1
    assert "FAILED job: verification status fail" in proc.stdout


def test_jobs_with_different_hash_seeds_serialize_identical_bytes():
    proc = bench("--workload", WORKLOADS[0], "--seed", "5", "--trace", "0", "--smoke")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    record = json.loads((BENCH / "out" / f"{WORKLOADS[0]}-smoke-seed5-trace0.json").read_text())
    jobs = record["jobs"]
    assert len({j["hash_seed"] for j in jobs}) == len(jobs) >= 2
    assert len({j["sha256"] for j in jobs}) == 1


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench("--workload", WORKLOADS[0], "--seed", "0", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
