"""Self-test of the benchmark harness.

    PYTHONPATH=src python -m pytest -q benchmark/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
from workloads import WORKLOADS, make_request  # noqa: E402


@pytest.mark.parametrize("quick", [False, True])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_gives_byte_identical_configs(workload, quick):
    first = [make_request(workload, 7, i, quick).config_bytes() for i in range(3)]
    again = [make_request(workload, 7, i, quick).config_bytes() for i in range(3)]
    assert first == again
    assert make_request(workload, 8, 0, quick).config_bytes() != first[0]


def test_generated_sizes_match_the_workload_table():
    assert make_request("solve-mixed", 0, 0).n == 5004
    sweep = make_request("sweep-lambda", 0, 0)
    assert (sweep.n, sweep.solves) == (2504, 24)
    for seed in range(5):
        fragmented = make_request("solve-fragmented", seed, 0)
        assert len(fragmented.config["time_scale"]) == 600
        assert fragmented.n == 4350


def _corrupt_value(text: str) -> str:
    lines = text.splitlines()
    lines[5] = lines[5].split(",")[0] + ",-1.0"
    return "\n".join(lines) + "\n"


def _truncate(text: str) -> str:
    return "\n".join(text.splitlines()[:-3]) + "\n"


def _garble(text: str) -> str:
    return text.replace(",", ";", 4)


@pytest.mark.parametrize("corrupt", [_corrupt_value, _truncate, _garble])
def test_corrupted_solution_csv_counts_as_failed(tmp_path, corrupt):
    runner = run.Runner(time.perf_counter() + 60.0)
    req = make_request("solve-mixed", 0, 0, quick=True)
    good = run.run_request(runner, req, tmp_path)
    assert good.error is None

    request_dir = tmp_path / f"r{req.index}"
    csv = request_dir / "out" / "solution.csv"
    csv.write_text(corrupt(csv.read_text()))
    child = run.Child(good.code, good.wall_s, good.rss_mib)
    bad = run.judge(req, child, csv.parent, request_dir / "log.txt")
    assert bad.error

    summary = run.summarize([good, bad])
    assert (summary["attempted"], summary["failed"]) == (2, 1)
    assert summary["failed_fraction"] == 0.5


def _run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "benchmark/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=120,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_quick_mode_finishes_in_seconds(workload, trace):
    start = time.perf_counter()
    done = _run_bench(
        BENCH.parent, "--workload", workload, "--seed", "3", "--seconds", "1",
        "--trace", trace, "--quick",
    )
    assert time.perf_counter() - start < 30.0
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    expected = run.PER_LAYER if trace == "1" else run.END_TO_END
    assert {k: m["unit"] for k, m in result["metrics"].items()} == expected
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "benchmark", ignore=shutil.ignore_patterns("results"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    done = _run_bench(tmp_path, "--workload", WORKLOADS[0], "--seconds", "1")
    assert done.returncode != 0
    assert done.stdout == ""
