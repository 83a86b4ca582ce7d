"""Run a fixed set of 40 CLI calls and record everything they print and write.

    python tools/output_set.py OUT
    python tools/output_set.py --compare A B

The set is: requests 0 and 1 of seeds 0, 3 and 7 of each benchmark
workload (from ``benchmark/workloads.make_request``), ``threshold`` on those
18 configs, the README solve (``README_PROBLEM`` of ``tests/test_cli.py``),
its 901-lambda sweep, its 24-lambda sweep at ``h_max = 6e-4``, and
``verify``.  Each call is a fresh ``python -m chronofrac`` process with
this checkout's ``src`` on ``PYTHONPATH``; to record another commit, run
this script in a checkout of it.  Run ``<run>`` leaves ``OUT/<run>/``
with its ``config.json``, ``exit_code``, ``stdout``, ``stderr`` and every
output file under ``out/``.

``--compare A B`` reads two such directories and prints, per run, either
``identical`` or what differs: the largest relative change of each numeric
CSV column and of each numeric JSON value, and the name of any other
file that differs.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "benchmark"), str(ROOT / "tests"), str(ROOT / "src")]

SEEDS = (0, 3, 7)
README_SWEEP = ["--lambda-min", "0", "--lambda-max", "0.09", "--lambda-step", "0.0001"]
FINE_SWEEP = ["--lambda-min", "0", "--lambda-max", "0.092", "--lambda-step", "0.004"]


def runs() -> list[tuple[str, list[str], dict | None]]:
    """``(name, CLI arguments before --config, config)`` of every run."""
    from test_cli import README_PROBLEM
    from workloads import WORKLOADS, make_request

    out, thresholds = [], []
    for workload in WORKLOADS:
        for seed in SEEDS:
            for index in (0, 1):
                req = make_request(workload, seed, index)
                name = f"{workload}-s{seed}-r{index}"
                out.append((name, [req.command], req.config))
                thresholds.append((f"threshold-{name}", ["threshold"], req.config))
    return out + thresholds + [
        ("readme-solve", ["solve"], README_PROBLEM),
        ("readme-sweep", ["sweep", *README_SWEEP], README_PROBLEM),
        ("readme-fine-sweep", ["sweep", *FINE_SWEEP], {**README_PROBLEM, "h_max": 6e-4}),
        ("verify", ["verify"], None),
    ]


def record(out: Path) -> None:
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    env.pop("CHRONOFRAC_THREADS", None)
    for name, args, config in runs():
        run = out / name
        (run / "out").mkdir(parents=True)
        if config is not None:
            (run / "config.json").write_text(json.dumps(config, indent=1, sort_keys=True) + "\n")
            args = [*args, "--config", str(run / "config.json")]
        done = subprocess.run(
            [sys.executable, "-m", "chronofrac", *args, "--out", str(run / "out")],
            env=env, capture_output=True, cwd=run,
        )
        (run / "exit_code").write_text(f"{done.returncode}\n")
        (run / "stdout").write_bytes(done.stdout)
        (run / "stderr").write_bytes(done.stderr)
        print(f"{name}: exit {done.returncode}")


def _rel(a: float, b: float) -> float:
    return 0.0 if a == b else abs(a - b) / max(abs(a), abs(b))


def _leaves(obj, path: str = ""):
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield from _leaves(value, f"{path}.{key}" if path else key)
    elif isinstance(obj, list):
        for i, value in enumerate(obj):
            yield from _leaves(value, f"{path}[{i}]")
    else:
        yield path, obj


def _number(value) -> float | None:
    if isinstance(value, bool):
        return None
    try:
        return float(value)
    except (TypeError, ValueError):
        return None


def _changes(pairs) -> dict[str, float | str]:
    """Per key, the largest relative change of its numeric pairs, or
    ``"differs"`` when a pair that differs is not numeric."""
    worst: dict[str, float | str] = {}
    for key, a, b in pairs:
        x, y = _number(a), _number(b)
        if x is None or y is None:
            if a != b:
                worst[key] = "differs"
        elif worst.get(key) != "differs":
            worst[key] = max(worst.get(key, 0.0), _rel(x, y))
    return {key: v for key, v in worst.items() if v}


def _file_changes(a: Path, b: Path) -> dict[str, float | str]:
    if a.suffix == ".csv":
        with open(a) as fa, open(b) as fb:
            ra, rb = list(csv.DictReader(fa)), list(csv.DictReader(fb))
        if len(ra) != len(rb) or (ra and ra[0].keys() != rb[0].keys()):
            return {"rows or columns": "differs"}
        return _changes((k, ra[i][k], rb[i][k]) for i in range(len(ra)) for k in ra[i])
    if a.suffix == ".json":
        la, lb = list(_leaves(json.loads(a.read_text()))), list(_leaves(json.loads(b.read_text())))
        if [p for p, _ in la] != [p for p, _ in lb]:
            return {"keys": "differs"}
        return _changes((p, x, y) for (p, x), (_, y) in zip(la, lb))
    return {"bytes": "differ"}


def compare(a: Path, b: Path) -> None:
    for name in sorted({p.name for p in a.iterdir()} | {p.name for p in b.iterdir()}):
        ra, rb = a / name, b / name
        if not (ra.is_dir() and rb.is_dir()):
            print(f"{name}: only in {a if ra.is_dir() else b}")
            continue
        files = sorted(
            {p.relative_to(ra) for p in ra.rglob("*") if p.is_file()}
            | {p.relative_to(rb) for p in rb.rglob("*") if p.is_file()}
        )
        lines = []
        for f in files:
            fa, fb = ra / f, rb / f
            if not (fa.is_file() and fb.is_file()):
                lines.append(f"  {f}: only in {a if fa.is_file() else b}")
            elif fa.read_bytes() != fb.read_bytes():
                for key, c in (_file_changes(fa, fb) or {"layout": "differs"}).items():
                    lines.append(f"  {f} {key}: {c if isinstance(c, str) else f'{c:.2g} relative'}")
        print(f"{name}: identical" if not lines else f"{name}:\n" + "\n".join(lines))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("out", nargs="?", type=Path, help="directory to write, must not exist")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("A", "B"))
    args = parser.parse_args()
    if args.compare:
        compare(*args.compare)
    elif args.out:
        record(args.out)
    else:
        parser.error("give OUT or --compare A B")


if __name__ == "__main__":
    main()
