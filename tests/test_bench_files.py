"""Every committed ``BENCH_*.json`` at the repository root is a complete
before-and-after record: it parses, carries the benchmark harness's
context stamp, and holds both sides of every end-to-end metric on every
workload that ``BENCHMARK.json`` names."""

import json
import math
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"))
# the harness's context fields that fix the machine and the sources, and
# the bytecode setting, which moves every child's import time
STAMP = ("nproc", "cpu_model", "python", "numpy", "src_sha256", "PYTHONDONTWRITEBYTECODE")
SIDES = ("before", "after")


def test_a_bench_file_is_committed():
    assert BENCH_FILES


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda p: p.name)
def test_bench_file_holds_both_sides_of_every_end_to_end_metric(path):
    bench = json.loads(path.read_text())
    stamp = bench["stamp"]
    assert all(stamp.get(key) not in (None, "") for key in STAMP)
    assert set(stamp["src_sha256"]) == set(SIDES)
    for workload in SPEC["workloads"]:
        rows = bench["end_to_end"][workload["name"]]
        for metric in SPEC["end_to_end"]:
            row = rows[metric["name"]]
            for side in SIDES:
                q1, median, q3 = (row[side][k] for k in ("q1", "median", "q3"))
                assert all(math.isfinite(v) for v in (q1, median, q3))
                assert q1 <= median <= q3
