"""Command line front end: solve, threshold, sweep and verify."""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import replace
from importlib import resources
from pathlib import Path
from typing import NoReturn

from .fractional import OperatorTooLarge, frac_integral, verify_composition
from .oracles import (
    OracleCase,
    closed_form_power_integral,
    constant_f_solution,
    extension_gap,
    load_suite,
)
from .solver import Bounds, ProblemSpec, apply_K, picard_solve, picard_sweep, problem_from_json
from .timescale import GridFunction, GridTooLarge, TimeScale, build_grid, json_number

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_VERIFY = 2
EXIT_NO_CONVERGENCE = 3
MAX_SWEEP = 10_000  # most lambda values one sweep may run
# rows of solution.csv formatted per pass, from Python floats: lists of a
# whole 5004-node solution raised a solve's peak RSS by 0.3 MiB
CSV_ROWS = 256


class ConfigError(Exception):
    """Bad usage, unreadable config, or violated problem invariants."""


class _Parser(argparse.ArgumentParser):
    # route usage errors through the single exit-code policy
    def error(self, message):
        raise ConfigError(message)


def _load_json(path: str):
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path} is not valid JSON: {exc}") from exc


def _load_problem(config) -> ProblemSpec:
    try:
        return problem_from_json(config)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _build_grid(spec: ProblemSpec) -> None:
    """Lay down the spec's grid, which it caches, so a scale that fails the
    grid's own checks ends here as a config error, not inside the solver."""
    try:
        spec.grid
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _out_dir(args) -> Path:
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {out}: {exc}") from exc
    return out


def _write_report(out: Path, report) -> None:
    # streamed: no whole-file string or list of rows is held beside the solve
    with open(out / "report.json", "w") as fh:
        json.dump(report.to_json(), fh, indent=2)
        fh.write("\n")
    # Python floats, whose repr round-trips exactly, keep the CSVs lossless;
    # CSV_ROWS at a time, so no list of every node's floats is held
    with open(out / "solution.csv", "w") as fh:
        fh.write("t,u\n")
        nodes, values = report.solution.grid.nodes, report.solution.values
        for i in range(0, len(nodes), CSV_ROWS):
            rows = zip(nodes[i : i + CSV_ROWS].tolist(), values[i : i + CSV_ROWS].tolist())
            fh.writelines(f"{t!r},{u!r}\n" for t, u in rows)
    rows = ["k,d_k"]
    rows += [f"{k},{d!r}" for k, d in enumerate(report.trace, start=1)]
    (out / "trace.csv").write_text("\n".join(rows) + "\n")


def cmd_solve(args) -> int:
    spec = _load_problem(_load_json(args.config))
    _build_grid(spec)
    out = _out_dir(args)
    report = picard_solve(spec)
    _write_report(out, report)
    status = "converged" if report.converged else "did not converge"
    print(
        f"solve: {status} in {report.iterations} iterations, "
        f"residual {report.residual:.3e}, q {report.spec.bounds.q:.6g}"
    )
    if args.strict and not report.converged:
        print("solve: non-convergence is fatal under --strict", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    return EXIT_OK


def cmd_threshold(args) -> int:
    spec = _load_problem(_load_json(args.config))
    out = _out_dir(args)
    b = spec.bounds
    data = {
        "lambda_star": b.lambda_star if math.isfinite(b.lambda_star) else "inf",
        "q_at_lambda": b.q,
        "terms": {"term1": b.terms[0], "term2": b.terms[1]},
    }
    (out / "threshold.json").write_text(json.dumps(data, indent=2) + "\n")
    shown = "inf" if not math.isfinite(b.lambda_star) else f"{b.lambda_star:.12g}"
    print(f"threshold: lambda_star {shown}, q at lambda {b.q:.12g}")
    return EXIT_OK


def _sweep_range(args, config: dict, spec: ProblemSpec) -> tuple[float, float, int]:
    """``(lambda_min, step, count)``: value k of the sweep is ``lambda_min + k step``,
    and no list of the values is held."""
    section = config.get("sweep", {}) if isinstance(config, dict) else {}
    if not isinstance(section, dict):
        raise ConfigError("field 'sweep' must be an object")

    def pick(flag_value, key):
        if flag_value is not None or section.get(key) is None:
            return flag_value
        try:
            return json_number(section[key], f"field '{key}' of 'sweep'")
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    lam_min = pick(args.lambda_min, "lambda_min")
    lam_max = pick(args.lambda_max, "lambda_max")
    step = pick(args.lambda_step, "lambda_step")
    if lam_min is None or lam_max is None or step is None:
        raise ConfigError(
            "sweep needs lambda_min, lambda_max and lambda_step "
            "(flags --lambda-min/--lambda-max/--lambda-step or a 'sweep' config section)"
        )
    if not all(math.isfinite(x) for x in (lam_min, lam_max, step)):
        raise ConfigError("sweep bounds and step must be finite")
    if step <= 0:
        raise ConfigError("field 'lambda_step' must be positive")
    if lam_max < lam_min:
        raise ConfigError("field 'lambda_max' must be at least lambda_min")
    if lam_min < 0:
        raise ConfigError("field 'lambda_min' must be nonnegative")
    span = (lam_max - lam_min) / step  # inf for a subnormal step: test it before floor
    if not span < MAX_SWEEP or (count := int(math.floor(span + 1e-9)) + 1) > MAX_SWEEP:
        raise ConfigError(f"sweep range must give at most {MAX_SWEEP} lambda values")
    try:  # the largest value meets every solve's checks, before any solve runs
        replace(spec, lam=lam_min + (count - 1) * step)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return lam_min, step, count


def _sweep_row(rep) -> str:
    flag = "true" if rep.converged else "false"
    lam, q, sup = rep.spec.lam, rep.spec.bounds.q, rep.solution.norm_inf()
    return f"{lam!r},{rep.iterations},{rep.residual!r},{q!r},{flag},{sup!r}\n"


def cmd_sweep(args) -> int:
    config = _load_json(args.config)
    spec = _load_problem(config)
    lam_min, step, count = _sweep_range(args, config, spec)
    _build_grid(spec)
    out = _out_dir(args)

    # each row is written as its report arrives, and no solution is kept past it
    bad = 0
    with open(out / "sweep.csv", "w") as fh:
        fh.write("lambda,iterations,residual,q,converged,sup_norm\n")
        for rep in picard_sweep(spec, (lam_min + k * step for k in range(count))):
            bad += not rep.converged
            fh.write(_sweep_row(rep))

    print(f"sweep: {count} runs, {bad} without convergence")
    if args.strict and bad:
        print("sweep: non-convergence is fatal under --strict", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    return EXIT_OK


# -- verify ----------------------------------------------------------------


def _power_integral(params) -> float:
    ts = TimeScale.interval(0.0, float(params["T"]))
    grid = build_grid(ts, float(params["h_max"]))
    beta = float(params["beta"])
    g = GridFunction.sample(grid, lambda s: 1.0 if beta == 0.0 else s**beta)
    return frac_integral(g, float(params["alpha"]), float(params["t"]))


def _discrete_integral(params) -> float:
    grid = build_grid(TimeScale.from_points(params["points"]), 1.0)
    g = GridFunction(grid, params["values"])
    return frac_integral(g, float(params["alpha"]), float(params["t"]))


def _apply_k(params) -> float:
    spec = problem_from_json(params["problem"])
    return apply_K(spec, GridFunction.zeros(spec.grid)).value_at(float(params["t"]))


def _constant_solution(params) -> float:
    spec = problem_from_json(params["problem"])
    rep = picard_solve(spec)
    c = spec.model.constants()[0]
    worst = 0.0
    for t, u in zip(spec.grid.nodes, rep.solution.values):
        exact = constant_f_solution(c, spec.lam, spec.alpha, spec.span, t - spec.timescale.t0)
        worst = max(worst, abs(u - exact))
    return worst


def _extension_inequality(params) -> float:
    ts = TimeScale.from_json(params["time_scale"])
    grid = build_grid(ts, float(params.get("h_max", 1.0)))
    g = GridFunction.sample(grid, lambda s: s)
    # violation amount; zero when the bound holds
    return max(0.0, -extension_gap(g))


# the production-path quantity each kind of oracle case pins down
_CASE_KINDS = {
    "gamma": lambda params: math.gamma(float(params["x"])),
    "power_integral": _power_integral,
    "discrete_integral": _discrete_integral,
    "apply_k": _apply_k,
    "threshold": lambda params: Bounds.of(
        *(float(params[k]) for k in ("alpha", "T", "c1", "c2", "lipschitz"))
    ).lambda_star,
    "sup_bound": lambda params: Bounds.of(
        *(float(params[k]) for k in ("alpha", "T", "c1", "c2")), 1.0, float(params["lambda"])
    ).sup,
    "constant_solution": _constant_solution,
    "power_closed_form": lambda params: closed_form_power_integral(
        *(float(params[k]) for k in ("alpha", "beta", "t"))
    ),
    "extension_inequality": _extension_inequality,
}


def _case_observed(case: OracleCase) -> float:
    """Evaluate the production-path quantity a case pins down."""
    kind = case.inputs.get("kind")
    observe = _CASE_KINDS.get(kind) if isinstance(kind, str) else None
    if observe is None:
        raise ConfigError(f"case '{case.name}' has unknown kind '{kind}'")
    return observe(case.inputs.get("params", {}))


def _run_cases(cases: list[OracleCase]) -> tuple[list[str], int]:
    lines = []
    failures = 0
    for case in cases:
        try:
            observed = _case_observed(case)
        except (ValueError, KeyError, TypeError, ArithmeticError) as exc:
            failures += 1
            lines.append(f"FAIL {case.name}: could not evaluate ({exc})")
            continue
        err = abs(observed - case.expected)
        if err <= case.tolerance:
            lines.append(
                f"ok   {case.name}: |obs-exp|={err:.3e} <= tol={case.tolerance:.1e}"
            )
        else:
            failures += 1
            lines.append(
                f"FAIL {case.name}: observed={observed!r} expected={case.expected!r} "
                f"|obs-exp|={err:.3e} > tol={case.tolerance:.1e}"
            )
    return lines, failures


def _refinement_study() -> tuple[list[str], int]:
    """Composition residuals must shrink as the grid refines."""
    ts = TimeScale.interval(0.0, 1.0)
    reps = [
        verify_composition(GridFunction.sample(build_grid(ts, h), lambda s: s), 0.5)
        for h in (1.0 / 64, 1.0 / 128, 1.0 / 256)
    ]
    lines = []
    failures = 0
    for label in ("err_DI", "err_ID"):
        errs = [rep.to_json()[label] for rep in reps]
        decreasing = all(b < a for a, b in zip(errs, errs[1:]))
        shown = ", ".join(f"{e:.3e}" for e in errs)
        if decreasing:
            lines.append(f"ok   composition_refinement_{label}: {shown}")
        else:
            failures += 1
            lines.append(f"FAIL composition_refinement_{label}: not decreasing: {shown}")
    return lines, failures


def _default_cases_dir() -> Path:
    return Path(str(resources.files("chronofrac") / "cases"))


def cmd_verify(args) -> int:
    cases_dir = Path(args.cases) if args.cases else _default_cases_dir()
    if not cases_dir.is_dir():
        raise ConfigError(f"cases directory {cases_dir} does not exist")
    cases: list[OracleCase] = []
    for path in sorted(cases_dir.glob("*.json")):
        try:
            cases.extend(load_suite(path))
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
    out = _out_dir(args) if args.out else None
    lines, failures = _run_cases(cases)
    ref_lines, ref_failures = _refinement_study()
    lines += ref_lines
    failures += ref_failures
    for line in lines:
        print(line)
    total = len(cases) + 2
    print(f"verify: {len(cases)} cases, {total} checks, {failures} failures")
    if out:
        (out / "verify.json").write_text(
            json.dumps({"checks": total, "failures": failures, "lines": lines}, indent=2)
            + "\n"
        )
    return EXIT_VERIFY if failures else EXIT_OK


# -- entry point -----------------------------------------------------------


def _build_parser() -> _Parser:
    parser = _Parser(prog="chronofrac", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="problem config JSON")
        p.add_argument("--out", required=True, help="output directory")

    p = sub.add_parser("solve", help="run Picard iteration, write report and CSVs")
    common(p)
    p.add_argument("--strict", action="store_true", help="non-convergence is fatal")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("threshold", help="write the uniqueness threshold report")
    common(p)
    p.set_defaults(func=cmd_threshold)

    p = sub.add_parser("sweep", help="solve over a lambda range, write sweep.csv")
    common(p)
    p.add_argument("--strict", action="store_true", help="non-convergence is fatal")
    p.add_argument("--lambda-min", type=float, default=None)
    p.add_argument("--lambda-max", type=float, default=None)
    p.add_argument("--lambda-step", type=float, default=None)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("verify", help="run the frozen oracle suites")
    p.add_argument("--cases", default=None, help="directory of case suites")
    p.add_argument("--out", default=None, help="optional directory for verify.json")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    # an OSError, from a file that cannot be read or written, names the file
    except (ConfigError, GridTooLarge, OperatorTooLarge, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def run() -> NoReturn:
    """Process entry point: ``main()``, then flush and end the process.

    ``os._exit`` skips interpreter teardown, which is mostly NumPy's
    module teardown and costs tens of milliseconds after the last output
    is written.  Every output file is closed before ``main()`` returns,
    so only the standard streams need flushing.  An exception from
    ``main()`` or from a flush propagates, and the normal exit prints it.
    """
    code = main()
    for stream in (sys.stdout, sys.stderr):
        if stream is not None:  # None when the descriptor was closed at start
            stream.flush()
    os._exit(code)
