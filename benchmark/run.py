"""End-to-end and per-layer benchmark of the chronofrac CLI.

    python3 benchmark/run.py --workload solve-mixed --seed 0 --seconds 40 --trace 0

Each workload is a closed loop with one client: requests run one after
another, and each is a fresh ``python -m chronofrac`` process with the
checkout's own ``src`` on ``PYTHONPATH`` and ``CHRONOFRAC_THREADS`` unset,
which is what a CLI user pays per call.  The inputs are config files
generated from ``--seed`` (see ``workloads.py``); every request's output
is checked (see ``checks.py``), and ``chronofrac verify`` must pass once
per invocation.

With ``--trace 0`` the run reports the end-to-end metrics; with
``--trace 1`` it runs each request through ``tracer.py`` instead and
reports the per-layer metrics.  The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``;
the lines before it show every metric by name and unit.  A stamped
result file with every request goes to ``benchmark/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from dataclasses import asdict, dataclass, field
from importlib import metadata
from pathlib import Path

import checks
from workloads import WORKLOADS, Request, make_request

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"

DEFAULT_SEED = 0
SETUP_REPEATS = 9
# at least this many requests per run, so a median exists even when one
# request outlasts --seconds; the counts come from these first requests
MIN_REQUESTS = 3
# a run must end well within 180 s, whatever the program does
BUDGET_S = 160.0

END_TO_END = {
    "setup_s": "s",
    "request_s.p50": "s",
    "solves_per_s": "1/s",
    "peak_rss_mib": "MiB",
}
PER_LAYER = {
    "cli.import_s": "s",
    "solver.problem_from_json_s": "s",
    "timescale.build_grid_s": "s",
    "timescale.nodes": "count",
    "fractional.operator_build_s": "s",
    "fractional.operator_mib": "MiB-computed",
    "fractional.apply_s": "s",
    "timescale.delta_integral_s": "s",
    "timescale.grid_function_s": "s",
    "solver.apply_K_s": "s",
    "solver.picard_solve_s": "s",
    "solver.picard_iterations": "count",
    "solver.existence_diagnostics_s": "s",
    "cli.main_s": "s",
}
# fixed by the inputs, so taken from the first MIN_REQUESTS requests only
COUNTS = ("timescale.nodes", "fractional.operator_mib", "solver.picard_iterations")


# -- child processes --------------------------------------------------------


@dataclass(frozen=True)
class Child:
    code: int
    wall_s: float
    rss_mib: float


def _child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k != "CHRONOFRAC_THREADS"}
    inherited = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + inherited if inherited else "")
    return env


class Runner:
    """Starts children one at a time and reaps each with its resource usage."""

    def __init__(self, deadline: float) -> None:
        self.env = _child_env()
        self.deadline = deadline

    def run(self, args: list[str], log: Path) -> Child:
        timeout = max(1.0, self.deadline - time.perf_counter())
        with log.open("wb") as fh:
            start = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, *args],
                stdout=fh,
                stderr=subprocess.STDOUT,
                env=self.env,
                cwd=ROOT,
            )
            timer = threading.Timer(timeout, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Child(proc.returncode, wall, usage.ru_maxrss / 1024.0)


# -- requests ---------------------------------------------------------------


@dataclass
class Outcome:
    """One request as the client saw it."""

    index: int
    n: int
    solves: int
    code: int
    wall_s: float
    rss_mib: float
    error: str | None = None
    samples: list[float] = field(default_factory=list)
    layers: dict[str, float] = field(default_factory=dict)
    diagnostics_passed: list[bool] = field(default_factory=list)


def _log_tail(log: Path) -> str:
    return log.read_text(errors="replace")[-400:].strip()


def judge(req: Request, child: Child, out: Path, log: Path) -> Outcome:
    """Check a finished request's exit code and outputs."""
    outcome = Outcome(req.index, req.n, req.solves, child.code, child.wall_s, child.rss_mib)
    if child.code != 0:
        outcome.error = f"exit code {child.code}: {_log_tail(log)}"
        return outcome
    try:
        outcome.samples = checks.check_outputs(req, out)
    except checks.OutputError as exc:
        outcome.error = str(exc)
    return outcome


def _prepare(req: Request, work: Path) -> tuple[Path, Path, Path]:
    d = work / f"r{req.index}"
    d.mkdir(parents=True)
    config = d / "config.json"
    config.write_bytes(req.config_bytes())
    return d, config, d / "out"


def run_request(runner: Runner, req: Request, work: Path) -> Outcome:
    d, config, out = _prepare(req, work)
    args = ["-m", "chronofrac", req.command, "--config", str(config), "--out", str(out)]
    child = runner.run(args, d / "log.txt")
    return judge(req, child, out, d / "log.txt")


def _layer_metrics(layer_spans: list[dict], cli_spans: list[dict]) -> dict[str, float]:
    by_name = defaultdict(list)
    for s in layer_spans + cli_spans:
        by_name[s["name"]].append(s)

    def durations(name):
        return [s["end"] - s["start"] for s in by_name[name]]

    def first(name):
        return durations(name)[0]

    return {
        "cli.import_s": first("cli.import"),
        "solver.problem_from_json_s": first("solver.problem_from_json"),
        "timescale.build_grid_s": first("timescale.build_grid"),
        "timescale.nodes": by_name["timescale.build_grid"][0]["nodes"],
        "fractional.operator_build_s": first("fractional.operator_build"),
        "fractional.operator_mib": by_name["fractional.operator_build"][0]["bytes"] / 2**20,
        "fractional.apply_s": statistics.median(durations("fractional.apply")),
        "timescale.delta_integral_s": statistics.median(durations("timescale.delta_integral")),
        "timescale.grid_function_s": statistics.median(durations("timescale.grid_function")),
        "solver.apply_K_s": statistics.median(durations("solver.apply_K")),
        "solver.picard_solve_s": sum(durations("solver.picard_solve")),
        "solver.picard_iterations": sum(
            s["iterations"] for s in by_name["solver.picard_solve"]
        ),
        "solver.existence_diagnostics_s": sum(durations("solver.existence_diagnostics")),
        "cli.main_s": first("cli.main"),
    }


def trace_request(runner: Runner, req: Request, work: Path) -> tuple[Outcome, list[dict]]:
    """Run one request through the tracer: layers, then a cold ``cli.main``."""
    d, config, out = _prepare(req, work)
    tracer = str(BENCH / "tracer.py")
    layers_json, cli_json = d / "layers.json", d / "cli.json"
    layers = runner.run(
        [tracer, "layers", str(layers_json), str(config), *map(repr, req.lambdas)],
        d / "layers.log",
    )
    cli_args = [req.command, "--config", str(config), "--out", str(out)]
    cli = runner.run([tracer, "cli", str(cli_json), *cli_args], d / "cli.log")
    outcome = judge(req, cli, out, d / "cli.log")
    if layers.code != 0:
        outcome.error = f"layer trace exit code {layers.code}: {_log_tail(d / 'layers.log')}"
        return outcome, []
    if outcome.error:
        return outcome, []
    layer_spans = json.loads(layers_json.read_text())
    cli_spans = json.loads(cli_json.read_text())
    layers = _layer_metrics(layer_spans, cli_spans)
    if layers["timescale.nodes"] != req.n:
        outcome.error = f"grid has {layers['timescale.nodes']} nodes, expected {req.n}"
        return outcome, []
    outcome.layers = layers
    outcome.diagnostics_passed = [
        s["passed"] for s in layer_spans if s["name"] == "solver.existence_diagnostics"
    ]
    spans = [
        {"request": req.index, "process": proc, **s}
        for proc, group in (("layers", layer_spans), ("cli", cli_spans))
        for s in group
    ]
    return outcome, spans


# -- aggregation ------------------------------------------------------------


def tail_percentile(values: list[float]) -> tuple[float, float] | None:
    """The highest of p90, p99 and p99.9 with at least ten samples beyond
    it, and its nearest-rank value; None when the run is too short."""
    ordered = sorted(values)
    for p in (99.9, 99.0, 90.0):
        beyond = len(ordered) * (100.0 - p) / 100.0
        if beyond >= 10:
            return p, ordered[math.ceil(len(ordered) - beyond) - 1]
    return None


def summarize(outcomes: list[Outcome]) -> dict:
    failed = sum(1 for o in outcomes if o.error)
    return {
        "attempted": len(outcomes),
        "failed": failed,
        "failed_fraction": failed / len(outcomes),
    }


def end_to_end_metrics(setup: list[Child], outcomes: list[Outcome]) -> dict[str, float]:
    walls = [o.wall_s for o in outcomes]
    solved = sum(o.solves for o in outcomes if not o.error)
    return {
        "setup_s": statistics.median(c.wall_s for c in setup),
        "request_s.p50": statistics.median(walls),
        # closed loop with one client: solves per second the client waited
        "solves_per_s": solved / sum(walls),
        "peak_rss_mib": statistics.median(o.rss_mib for o in outcomes),
    }


def per_layer_metrics(outcomes: list[Outcome]) -> dict[str, float]:
    traced = [o.layers for o in outcomes if o.layers]
    if not traced:
        return {}
    return {
        name: statistics.median(
            t[name] for t in (traced[:MIN_REQUESTS] if name in COUNTS else traced)
        )
        for name in PER_LAYER
    }


# -- context stamp ----------------------------------------------------------


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
            check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip()


def _src_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode() + b"\0")
            digest.update(path.read_bytes())
    return digest.hexdigest()


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def context(args, outcomes: list[Outcome]) -> dict:
    return {
        "commit": _git_commit(),
        "src_sha256": _src_digest(),
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "quick": args.quick,
        "n": sorted({o.n for o in outcomes}),
    }


# -- the run ----------------------------------------------------------------


def run(args, work: Path) -> dict:
    started = time.perf_counter()
    runner = Runner(started + BUDGET_S)
    work.mkdir(parents=True)

    verify = runner.run(["-m", "chronofrac", "verify"], work / "verify.log")
    verify_tail = _log_tail(work / "verify.log").splitlines()[-1:]

    setup: list[Child] = []
    setup_config = work / "setup.json"
    setup_config.write_bytes(make_request(args.workload, args.seed, 0, args.quick).config_bytes())

    def set_up() -> None:
        setup.append(
            runner.run(
                ["-m", "chronofrac", "threshold", "--config", str(setup_config),
                 "--out", str(work / "setup")],
                work / f"setup{len(setup)}.log",
            )
        )

    outcomes: list[Outcome] = []
    spans: list[dict] = []
    start = time.perf_counter()
    deadline = start + args.seconds
    while len(outcomes) < MIN_REQUESTS or time.perf_counter() < deadline:
        # leave the last request, and a hung one, room within the budget
        if time.perf_counter() - started > BUDGET_S / 2:
            break
        # set-up samples spread evenly over the run, so that they see the
        # same machine as the requests
        due = (time.perf_counter() - start) / args.seconds * SETUP_REPEATS
        if not args.trace and len(setup) < min(due + 1, SETUP_REPEATS):
            set_up()
        req = make_request(args.workload, args.seed, len(outcomes), args.quick)
        if args.trace:
            outcome, req_spans = trace_request(runner, req, work)
            spans += req_spans
        else:
            outcome = run_request(runner, req, work)
        outcomes.append(outcome)
    loop_s = time.perf_counter() - start
    while not args.trace and len(setup) < SETUP_REPEATS:
        set_up()

    reference = None
    if args.seed == DEFAULT_SEED and not args.quick and not outcomes[0].error:
        try:
            checks.check_reference(outcomes[0].samples, checks.load_reference(args.workload))
            reference = "match"
        except checks.OutputError as exc:
            outcomes[0].error = f"reference mismatch: {exc}"
            reference = "mismatch"

    summary = summarize(outcomes)
    bad_setup = [c.code for c in setup if c.code != 0]
    if args.trace:
        metrics = per_layer_metrics(outcomes)
        units = PER_LAYER
    else:
        metrics = end_to_end_metrics(setup, outcomes)
        units = END_TO_END
    correct = (
        verify.code == 0
        and not bad_setup
        and summary["failed"] == 0
        and set(metrics) == set(units)
    )
    return {
        "context": context(args, outcomes),
        "correct": correct,
        "verify": {"exit_code": verify.code, "summary": verify_tail},
        "setup_exit_codes": [c.code for c in setup],
        "reference": reference,
        "loop_s": loop_s,
        **summary,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "requests": [asdict(o) for o in outcomes],
        "spans": spans,
    }


def _print_report(result: dict) -> None:
    ctx = result["context"]
    print(
        f"chronofrac benchmark: workload {ctx['workload']}, seed {ctx['seed']}, "
        f"{ctx['seconds']} s, trace {ctx['trace']}, n {', '.join(map(str, ctx['n']))}"
    )
    print(f"verify: exit code {result['verify']['exit_code']} {' '.join(result['verify']['summary'])}")
    if result["reference"]:
        print(f"reference samples: {result['reference']}")
    for name, m in result["metrics"].items():
        print(f"  {name:32s} {m['value']:.6g} {m['unit']}")
    if not ctx["trace"]:
        tail = tail_percentile([r["wall_s"] for r in result["requests"]])
        if tail is not None:
            print(f"  {'request_s.p' + format(tail[0], 'g'):32s} {tail[1]:.6g} s")
    print(
        f"  {'failed_fraction':32s} {result['failed_fraction']:.6g} fraction "
        f"({result['failed']} of {result['attempted']} requests)"
    )
    for r in result["requests"]:
        if r["error"]:
            print(f"  request {r['index']} failed: {r['error']}")
    if ctx["trace"]:
        verdicts = [p for r in result["requests"] for p in r["diagnostics_passed"]]
        print(
            f"  existence_diagnostics passed {sum(verdicts)} of {len(verdicts)} solves "
            "(recorded, not gated)"
        )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--quick", action="store_true", help="small inputs, for the harness self-test"
    )
    args = parser.parse_args(argv)
    if not (SRC / "chronofrac" / "__init__.py").is_file():
        print(f"error: no chronofrac sources under {SRC}", file=sys.stderr)
        return 2

    work = RESULTS / f"tmp-{args.workload}-{os.getpid()}"
    try:
        result = run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-quick' if args.quick else ''}.json"
    (RESULTS / name).write_text(json.dumps(result, indent=1) + "\n")

    _print_report(result)
    print(
        json.dumps(
            {
                "correct": result["correct"],
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": result["metrics"],
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
