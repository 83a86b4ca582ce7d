"""End-to-end acceptance checks, one per shipped guarantee.

Each test prints a single ``[criterion N] PASS/FAIL`` line (visible under
``pytest -s``) and asserts the same condition, so the suite doubles as a
human-readable scorecard of the library's quantitative claims.
"""

import json
import math
import subprocess
import sys
from functools import lru_cache

import numpy as np

from chronofrac import (
    BoundedRational,
    Bounds,
    ClampedAffine,
    Constant,
    GridFunction,
    ProblemSpec,
    Table,
    TimeScale,
    apply_K,
    build_grid,
    existence_diagnostics,
    frac_derivative_all,
    frac_integral,
    frac_integral_all,
    picard_solve,
    verify_composition,
)
from chronofrac.oracles import (
    brute_force_discrete,
    brute_force_discrete_derivative,
    closed_form_power_integral,
    constant_f_solution,
    extension_inequality_check,
)
from conftest import make_scale


def _line(n: int, passed: bool, detail: str) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"[criterion {n:2d}] {status} — {detail}")
    assert passed, f"criterion {n}: {detail}"


def _affine_spec(lam: float, **kw) -> ProblemSpec:
    return ProblemSpec(
        timescale=TimeScale.interval(0.0, 1.0),
        alpha=0.25,
        lam=lam,
        model=ClampedAffine(base=1.0, slope=1.0, lo=1.0, hi=2.0),
        **kw,
    )


@lru_cache(maxsize=None)
def _constant_f_run():
    spec = ProblemSpec(
        timescale=TimeScale.interval(0.0, 1.0),
        alpha=0.25,
        lam=1.0,
        model=Constant(2.0),
        h_max=1.0 / 512,
    )
    return spec, picard_solve(spec)


@lru_cache(maxsize=None)
def _half_threshold_run():
    lam = 0.5 * _affine_spec(1.0).bounds.lambda_star
    spec = _affine_spec(lam, h_max=1.0 / 128)
    return spec, picard_solve(spec)


def test_criterion_01_discrete_exactness():
    ts = TimeScale.integers(0, 20)
    grid = build_grid(ts, 1.0)
    rng = np.random.default_rng(1)
    worst = 0.0
    for alpha in (0.1, 0.25, 0.4):
        for _ in range(20):
            vals = rng.uniform(0.5, 1.5, len(grid.nodes))
            g = GridFunction.from_array(grid, vals)
            for t in grid.nodes[1:]:
                got = frac_integral(g, alpha, t)
                ref = brute_force_discrete(ts, vals.tolist(), alpha, t)
                worst = max(worst, abs(got - ref) / abs(ref))
    _line(
        1,
        worst <= 1e-12,
        f"integer-scale integrals vs independent sums: max rel gap {worst:.3e} <= 1e-12",
    )


def test_criterion_02_power_rule_convergence_order():
    # piecewise-linear integrands are reproduced exactly, so the halving
    # ratio is only meaningful once the error is above rounding level
    floor = 1e-13
    hs = (1.0 / 128, 1.0 / 256, 1.0 / 512)
    ok = True
    details = []
    for alpha in (0.1, 0.25, 0.4):
        for beta in (0.0, 1.0, 2.0):
            errs = []
            for h in hs:
                grid = build_grid(TimeScale.interval(0.0, 1.0), h)
                g = GridFunction.sample(grid, lambda s: s**beta)
                vals = frac_integral_all(g, alpha)
                exact = np.array(
                    [closed_form_power_integral(alpha, beta, t) for t in grid.nodes]
                )
                errs.append(float(np.max(np.abs(vals - exact))))
            if errs[0] <= floor:
                details.append(f"a={alpha},b={beta}: exact ({errs[0]:.1e})")
                continue
            r1, r2 = errs[0] / errs[1], errs[1] / errs[2]
            good = 3.5 <= r1 <= 4.5 and 3.5 <= r2 <= 4.5
            ok = ok and good
            details.append(f"a={alpha},b={beta}: ratios {r1:.2f},{r2:.2f}")
    _line(2, ok, "; ".join(details))


def test_criterion_03_composition_identities():
    ts = TimeScale.interval(0.0, 1.0)
    reports = [
        verify_composition(GridFunction.sample(build_grid(ts, h), lambda s: s), 0.5)
        for h in (1.0 / 128, 1.0 / 256, 1.0 / 512)
    ]
    di = [r.err_di for r in reports]
    id_ = [r.err_id for r in reports]
    ok_cont = (
        di[-1] <= 5e-3
        and id_[-1] <= 5e-3
        and all(b < a for a, b in zip(di, di[1:]))
        and all(b < a for a, b in zip(id_, id_[1:]))
    )

    # on a fully discrete scale both composed pipelines are finite sums;
    # the production path must agree with independently coded sums
    tsd = TimeScale.integers(0, 8)
    grid = build_grid(tsd, 1.0)
    alpha = 0.3
    vals = [float(s * s) for s in range(9)]
    g = GridFunction(grid, tuple(vals))

    ig = GridFunction.from_array(grid, frac_integral_all(g, alpha))
    di_fast = frac_derivative_all(ig, alpha)
    i_ref = [brute_force_discrete(tsd, vals, alpha, float(t)) for t in range(9)]
    di_ref = [
        brute_force_discrete_derivative(tsd, i_ref, alpha, float(t)) for t in range(8)
    ]
    gap_di = float(np.max(np.abs(di_fast - np.asarray(di_ref))))

    dg = frac_derivative_all(g, alpha)
    id_fast = frac_integral_all(
        GridFunction.from_array(grid, np.append(dg, 0.0)), alpha
    )[:-1]
    d_ref = [brute_force_discrete_derivative(tsd, vals, alpha, float(t)) for t in range(8)]
    id_ref = [brute_force_discrete(tsd, d_ref + [0.0], alpha, float(t)) for t in range(8)]
    gap_id = float(np.max(np.abs(id_fast - np.asarray(id_ref))))

    ok_disc = gap_di <= 1e-10 and gap_id <= 1e-10
    _line(
        3,
        ok_cont and ok_disc,
        f"continuum residuals DI {di[-1]:.3e} / ID {id_[-1]:.3e} (<= 5e-3, decreasing); "
        f"discrete pipelines vs exact sums {max(gap_di, gap_id):.3e} <= 1e-10",
    )


def test_criterion_04_constant_conductivity_fixed_point():
    spec, report = _constant_f_run()
    exact = np.array(
        [constant_f_solution(2.0, 1.0, 0.25, 1.0, t) for t in spec.grid.nodes]
    )
    err = float(np.max(np.abs(report.solution.to_array() - exact)))
    ok = report.converged and report.iterations <= 2 and err <= 1e-9
    _line(
        4,
        ok,
        f"solved in {report.iterations} iterations (<= 2), "
        f"max gap to closed form {err:.3e} <= 1e-9",
    )


def test_criterion_05_uniqueness_threshold():
    spec = _affine_spec(1.0)
    lam_star = spec.bounds.lambda_star
    hand = math.gamma(1.5) / 9.0  # written out independently of the library
    gap = abs(lam_star - hand)
    q_at_star = _affine_spec(lam_star).bounds.q
    ok = gap <= 1e-12 and abs(q_at_star - 1.0) <= 1e-12
    _line(
        5,
        ok,
        f"lambda_star {lam_star:.12g} vs hand value {hand:.12g} (gap {gap:.1e}), "
        f"q at the threshold {q_at_star:.12g}",
    )


def test_criterion_06_empirical_contraction():
    spec, report = _half_threshold_run()
    q = spec.bounds.q
    rng = np.random.default_rng(6)
    n = len(spec.grid.nodes)
    worst = -math.inf
    for _ in range(100):
        u = GridFunction.from_array(spec.grid, rng.uniform(0.0, 10.0, n))
        v = GridFunction.from_array(spec.grid, rng.uniform(0.0, 10.0, n))
        lhs = float(np.max(np.abs(apply_K(spec, u).to_array() - apply_K(spec, v).to_array())))
        rhs = q * float(np.max(np.abs(u.to_array() - v.to_array())))
        worst = max(worst, lhs - rhs)
    pairs_ok = worst <= 1e-8
    ratios = [b / a for a, b in zip(report.trace, report.trace[1:]) if a > 0]
    ratio_ok = max(ratios) <= q + 0.05
    _line(
        6,
        pairs_ok and ratio_ok,
        f"100 pairs: max (|Ku-Kv| - q|u-v|) = {worst:.3e} <= 1e-8; "
        f"Picard step ratios max {max(ratios):.3f} <= q + 0.05 = {q + 0.05:.3f}",
    )


def test_criterion_07_a_priori_diagnostics():
    runs = [
        _constant_f_run(),
        _half_threshold_run(),
        (_affine_spec(0.0, h_max=1.0 / 128), None),
        (_affine_spec(0.05, h_max=1.0 / 128), None),
    ]
    results = []
    for spec, report in runs:
        if report is None:
            report = picard_solve(spec)
        diag = existence_diagnostics(spec, report)
        results.append(diag.passed and report.converged)
    ok = all(results)
    _line(
        7,
        ok,
        f"{sum(results)}/4 converged runs pass sup-norm, equicontinuity "
        "and residual checks",
    )


def _random_problem(k: int, rng: np.random.Generator) -> ProblemSpec:
    ts = make_scale(rng)
    alpha = float(rng.uniform(0.05, 0.45))
    fam = k % 4
    if fam == 0:
        model = Constant(float(rng.uniform(0.5, 3.0)))
    elif fam == 1:
        lo = float(rng.uniform(0.5, 1.0))
        model = ClampedAffine(
            base=lo, slope=float(rng.uniform(0.3, 1.5)), lo=lo, hi=lo + float(rng.uniform(0.5, 1.5))
        )
    elif fam == 2:
        c1 = float(rng.uniform(0.3, 1.0))
        model = BoundedRational(
            c1=c1, c2=c1 + float(rng.uniform(0.5, 1.5)), scale=float(rng.uniform(0.5, 2.0))
        )
    else:
        b1 = float(rng.uniform(0.5, 1.5))
        model = Table(
            breakpoints=(0.0, b1, b1 + float(rng.uniform(0.5, 1.5))),
            values=(
                float(rng.uniform(1.0, 2.0)),
                float(rng.uniform(0.5, 1.0)),
                float(rng.uniform(0.3, 0.8)),
            ),
        )
    span = ts.T - ts.t0
    c1_, c2_, lip = model.constants()
    if lip == 0.0:
        lam = float(rng.uniform(0.5, 2.0))
    else:
        lam_star = Bounds.of(alpha, span, c1_, c2_, lip).lambda_star
        lam = float(rng.uniform(0.2, 0.7)) * lam_star
    return ProblemSpec(
        timescale=ts, alpha=alpha, lam=lam, model=model, h_max=span / 128
    )


def test_criterion_08_positivity():
    rng = np.random.default_rng(123)
    good = 0
    worst_note = "all positive"
    for k in range(20):
        spec = _random_problem(k, rng)
        report = picard_solve(spec)
        u = report.solution.to_array()
        interior = u[1:]
        ok = (
            report.converged
            and u[0] == 0.0
            and bool(np.all(u >= 0.0))
            and bool(np.all(interior > 0.0))
        )
        good += ok
        if not ok:
            worst_note = f"config {k} failed (converged={report.converged})"
    _line(
        8,
        good == 20,
        f"{good}/20 random positive-multiplier runs give u(t0) = 0, "
        f"u > 0 beyond t0 ({worst_note})",
    )


def test_criterion_09_extension_inequality():
    rng = np.random.default_rng(9)
    checked = 0
    ok = True
    for _ in range(50):
        ts = make_scale(rng)
        grid = build_grid(ts, float(rng.uniform(0.05, 0.3)))
        for fn in (
            lambda t: t,
            lambda t: math.exp(0.3 * t),
            lambda t: 0.5 + 0.25 * t,
        ):
            g = GridFunction.sample(grid, fn)
            ok = ok and extension_inequality_check(g, tol=1e-10)
            checked += 1
    _line(
        9,
        ok and checked == 150,
        f"step-extension bound holds on {checked} scale/function combinations at 1e-10",
    )


def test_criterion_10_cli_round_trip(tmp_path):
    cfg = tmp_path / "problem.json"
    cfg.write_text(
        json.dumps(
            {
                "time_scale": [[0.0, 1.0]],
                "alpha": 0.25,
                "lambda": 1.0,
                "conductivity": {"family": "constant", "c": 2.0},
                "h_max": 1.0 / 512,
            }
        )
    )
    out = tmp_path / "out"
    solve = subprocess.run(
        [sys.executable, "-m", "chronofrac", "solve", "--config", str(cfg), "--out", str(out)],
        capture_output=True,
        text=True,
    )
    report = json.loads((out / "report.json").read_text())
    rows = (out / "solution.csv").read_text().strip().splitlines()[1:]
    err = 0.0
    for row in rows:
        t, u = (float(x) for x in row.split(","))
        err = max(err, abs(u - constant_f_solution(2.0, 1.0, 0.25, 1.0, t)))
    verify = subprocess.run(
        [sys.executable, "-m", "chronofrac", "verify"], capture_output=True, text=True
    )
    ok = (
        solve.returncode == 0
        and report["iterations"] <= 2
        and err <= 1e-9
        and verify.returncode == 0
    )
    _line(
        10,
        ok,
        f"solve exit {solve.returncode}, files reproduce the closed form to {err:.3e} "
        f"(<= 1e-9) in {report['iterations']} iterations; verify exit {verify.returncode}",
    )
