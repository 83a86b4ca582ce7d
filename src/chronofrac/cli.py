"""Command line front end: solve, threshold, sweep and verify."""

from __future__ import annotations

import argparse
import json
import math
import sys
from importlib import resources
from pathlib import Path

from .fractional import OperatorTooLarge, frac_integral, gamma_fn, verify_composition
from .oracles import (
    OracleCase,
    closed_form_power_integral,
    constant_f_solution,
    extension_gap,
    load_suite,
)
from .solver import (
    ProblemSpec,
    apply_K,
    contraction_terms,
    picard_solve,
    problem_from_json,
    sup_bound,
    threshold_from_constants,
    uniqueness_threshold,
)
from .conductivity import ClampedAffine, model_from_json
from .timescale import GridFunction, GridTooLarge, TimeScale, build_grid

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_VERIFY = 2
EXIT_NO_CONVERGENCE = 3
MAX_SWEEP = 10_000  # most lambda values one sweep may run


class ConfigError(Exception):
    """Bad usage, unreadable config, or violated problem invariants."""


class _Parser(argparse.ArgumentParser):
    # route usage errors through the single exit-code policy
    def error(self, message):
        raise ConfigError(message)


def _fmt(x: float) -> str:
    # repr of a float round-trips exactly, keeping CSV output lossless
    return repr(float(x))


def _load_json(path: str):
    try:
        text = Path(path).read_text()
    except OSError as exc:
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


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_report(out: Path, report) -> None:
    # streamed: no whole-file string or list of rows is held beside the solve
    with open(out / "report.json", "w") as fh:
        json.dump(report.to_json(), fh, indent=2)
        fh.write("\n")
    with open(out / "solution.csv", "w") as fh:
        fh.write("t,u\n")
        nodes, values = report.solution.grid.nodes, report.solution.values
        fh.writelines(f"{_fmt(t)},{_fmt(u)}\n" for t, u in zip(nodes, values))
    rows = ["k,d_k"]
    rows += [f"{k},{_fmt(d)}" for k, d in enumerate(report.trace, start=1)]
    (out / "trace.csv").write_text("\n".join(rows) + "\n")


def cmd_solve(args) -> int:
    spec = _load_problem(_load_json(args.config))
    out = _out_dir(args)
    report = picard_solve(spec)
    _write_report(out, report)
    status = "converged" if report.converged else "did not converge"
    print(
        f"solve: {status} in {report.iterations} iterations, "
        f"residual {report.residual:.3e}, q {report.q:.6g}"
    )
    if args.strict and not report.converged:
        print("solve: non-convergence is fatal under --strict", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    return EXIT_OK


def cmd_threshold(args) -> int:
    spec = _load_problem(_load_json(args.config))
    out = _out_dir(args)
    c1, c2, lip = spec.model.constants()
    t1, t2 = contraction_terms(spec.alpha, spec.span, c1, c2, lip, spec.lam)
    lam_star = uniqueness_threshold(spec)
    data = {
        "lambda_star": lam_star if math.isfinite(lam_star) else "inf",
        "q_at_lambda": t1 + t2,
        "terms": {"term1": t1, "term2": t2},
    }
    (out / "threshold.json").write_text(json.dumps(data, indent=2) + "\n")
    shown = "inf" if not math.isfinite(lam_star) else f"{lam_star:.12g}"
    print(f"threshold: lambda_star {shown}, q at lambda {t1 + t2:.12g}")
    return EXIT_OK


def _sweep_range(args, config: dict) -> list[float]:
    section = config.get("sweep", {}) if isinstance(config, dict) else {}
    if not isinstance(section, dict):
        raise ConfigError("field 'sweep' must be an object")

    def pick(flag_value, key):
        if flag_value is not None:
            return flag_value
        return section.get(key)

    lam_min = pick(args.lambda_min, "lambda_min")
    lam_max = pick(args.lambda_max, "lambda_max")
    step = pick(args.lambda_step, "lambda_step")
    if lam_min is None or lam_max is None or step is None:
        raise ConfigError(
            "sweep needs lambda_min, lambda_max and lambda_step "
            "(flags --lambda-min/--lambda-max/--lambda-step or a 'sweep' config section)"
        )
    try:
        lam_min, lam_max, step = float(lam_min), float(lam_max), float(step)
    except (TypeError, ValueError) as exc:
        raise ConfigError("sweep bounds and step must be numbers") from exc
    if not all(math.isfinite(x) for x in (lam_min, lam_max, step)):
        raise ConfigError("sweep bounds and step must be finite")
    if step <= 0:
        raise ConfigError("field 'lambda_step' must be positive")
    if lam_max < lam_min:
        raise ConfigError("field 'lambda_max' must be at least lambda_min")
    if lam_min < 0:
        raise ConfigError("field 'lambda_min' must be nonnegative")
    span = (lam_max - lam_min) / step
    if not span < MAX_SWEEP:
        raise ConfigError(f"sweep range must give at most {MAX_SWEEP} lambda values")
    count = int(math.floor(span + 1e-9)) + 1
    return [lam_min + k * step for k in range(count)]


def cmd_sweep(args) -> int:
    config = _load_json(args.config)
    spec = _load_problem(config)
    lams = _sweep_range(args, config)
    out = _out_dir(args)

    rows = ["lambda,iterations,residual,q,converged,sup_norm"]
    bad = 0
    for lam in lams:
        rep = picard_solve(spec.at_lambda(lam))
        bad += not rep.converged
        flag = "true" if rep.converged else "false"
        rows.append(
            f"{_fmt(lam)},{rep.iterations},{_fmt(rep.residual)},{_fmt(rep.q)},"
            f"{flag},{_fmt(rep.solution.norm_inf())}"
        )
    (out / "sweep.csv").write_text("\n".join(rows) + "\n")

    print(f"sweep: {len(lams)} runs, {bad} without convergence")
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


def _sup_bound(params) -> float:
    spec = ProblemSpec(
        timescale=TimeScale.interval(0.0, float(params["T"])),
        alpha=float(params["alpha"]),
        lam=float(params["lambda"]),
        model=ClampedAffine(
            base=float(params["c1"]), slope=1.0, lo=float(params["c1"]), hi=float(params["c2"])
        ),
    )
    return sup_bound(spec)


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
    "gamma": lambda params: gamma_fn(float(params["x"])),
    "power_integral": _power_integral,
    "discrete_integral": _discrete_integral,
    "apply_k": _apply_k,
    "threshold": lambda params: threshold_from_constants(
        *(float(params[k]) for k in ("alpha", "T", "c1", "c2", "lipschitz"))
    ),
    "sup_bound": _sup_bound,
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
        except (ValueError, KeyError, TypeError) as exc:
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
    lines, failures = _run_cases(cases)
    ref_lines, ref_failures = _refinement_study()
    lines += ref_lines
    failures += ref_failures
    for line in lines:
        print(line)
    total = len(cases) + 2
    print(f"verify: {len(cases)} cases, {total} checks, {failures} failures")
    if args.out:
        out = _out_dir(args)
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
    except (ConfigError, GridTooLarge, OperatorTooLarge) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
