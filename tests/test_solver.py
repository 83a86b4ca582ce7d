import json
import math
import subprocess
import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from chronofrac import (
    BoundedRational,
    ClampedAffine,
    Constant,
    GridFunction,
    ProblemSpec,
    TimeScale,
    apply_K,
    build_grid,
    contraction_constant,
    contraction_terms,
    denominator,
    equicontinuity_modulus,
    existence_diagnostics,
    frac_integral_operator,
    picard_solve,
    problem_from_json,
    sup_bound,
    threshold_from_constants,
    uniqueness_threshold,
)
from chronofrac.cli import _write_report
from chronofrac.fractional import ROW_BLOCK, _weights
from chronofrac.oracles import constant_f_solution
from conftest import make_scale

GAMMA_3_2 = math.gamma(1.5)


def canonical_spec(lam: float, **kw) -> ProblemSpec:
    """Affine conductivity on the unit interval; every constant is hand-checkable."""
    return ProblemSpec(
        timescale=TimeScale.interval(0.0, 1.0),
        alpha=0.25,
        lam=lam,
        model=ClampedAffine(base=1.0, slope=1.0, lo=1.0, hi=2.0),
        **kw,
    )


# -- problem validation ----------------------------------------------------


@pytest.mark.parametrize(
    "kw,msg",
    [
        ({"alpha": 0.5}, "alpha must lie in"),
        ({"alpha": 0.0}, "alpha must lie in"),
        ({"alpha": 0.7}, "alpha must lie in"),
        ({"lam": -0.1}, "lambda must be nonnegative"),
        ({"tol": 0.0}, "tol must be positive"),
        ({"max_iter": 0}, "max_iter must be an integer >= 1"),
        ({"theta": 0.0}, "theta must lie in"),
        ({"theta": 1.5}, "theta must lie in"),
        ({"h_max": -1.0}, "h_max must be positive"),
        ({"alpha": math.nan}, "alpha must lie in"),
        ({"lam": math.nan}, "lambda must be nonnegative and finite"),
        ({"lam": math.inf}, "lambda must be nonnegative and finite"),
        ({"tol": math.nan}, "tol must be positive and finite"),
        ({"max_iter": math.inf}, "max_iter must be an integer >= 1"),
        ({"theta": math.nan}, "theta must lie in"),
        ({"h_max": math.inf}, "h_max must be positive and finite"),
    ],
)
def test_problem_rejections(kw, msg):
    base = dict(
        timescale=TimeScale.interval(0.0, 1.0),
        alpha=0.25,
        lam=1.0,
        model=Constant(1.0),
    )
    base.update(kw)
    with pytest.raises(ValueError, match=msg):
        ProblemSpec(**base)


def test_problem_defaults():
    spec = canonical_spec(0.05)
    assert spec.span == 1.0
    assert spec.h_max == 1.0 / 512
    assert spec.tol == 1e-10
    assert spec.max_iter == 200
    assert spec.theta == 1.0
    assert len(spec.grid.nodes) == 513


def test_problem_json_round_trip():
    spec = canonical_spec(0.05, h_max=0.01, tol=1e-8, max_iter=50, theta=0.5)
    back = problem_from_json(json.loads(json.dumps(spec.to_json())))
    assert back.to_json() == spec.to_json()


def test_problem_from_json_errors():
    good = canonical_spec(0.05).to_json()
    for key in ("time_scale", "alpha", "lambda", "conductivity"):
        broken = {k: v for k, v in good.items() if k != key}
        with pytest.raises(ValueError, match=f"missing required field '{key}'"):
            problem_from_json(broken)
    with pytest.raises(ValueError, match="field 'alpha' must be a number"):
        problem_from_json({**good, "alpha": "abc"})
    with pytest.raises(ValueError, match="field 'max_iter' must be an integer"):
        problem_from_json({**good, "max_iter": "soon"})
    with pytest.raises(ValueError, match="field 'max_iter' must be an integer"):
        problem_from_json({**good, "max_iter": math.inf})
    with pytest.raises(ValueError, match="must be a JSON object"):
        problem_from_json([1, 2])


# -- explicit constants ----------------------------------------------------


def test_contraction_terms_on_unit_window():
    t1, t2 = contraction_terms(0.25, 1.0, 1.0, 2.0, 1.0, lam=1.0)
    assert abs(t1 - 1.0 / GAMMA_3_2) <= 1e-15
    assert abs(t2 - 8.0 / GAMMA_3_2) <= 1e-14
    # both summands scale linearly with the multiplier
    s1, s2 = contraction_terms(0.25, 1.0, 1.0, 2.0, 1.0, lam=0.3)
    assert abs(s1 - 0.3 * t1) <= 1e-15
    assert abs(s2 - 0.3 * t2) <= 1e-15


def test_contraction_constant_and_threshold():
    spec = canonical_spec(1.0)
    q = contraction_constant(spec)
    assert abs(q - 9.0 / GAMMA_3_2) <= 1e-13
    assert abs(q - 10.155412503859614) <= 1e-12
    lam_star = uniqueness_threshold(spec)
    assert abs(lam_star - GAMMA_3_2 / 9.0) <= 1e-15
    assert abs(lam_star - 0.09846965838363977) <= 1e-15
    # at the threshold itself the constant sits at one
    assert abs(contraction_constant(canonical_spec(lam_star)) - 1.0) <= 1e-12


def test_threshold_infinite_for_flat_conductivity():
    spec = ProblemSpec(
        timescale=TimeScale.interval(0.0, 1.0),
        alpha=0.25,
        lam=3.0,
        model=Constant(2.0),
    )
    assert uniqueness_threshold(spec) == math.inf
    assert contraction_constant(spec) == 0.0


def test_threshold_on_wider_window():
    got = threshold_from_constants(0.4, 2.0, 1.0, 1.0, 1.0)
    hand = math.gamma(1.8) / (2.0**0.8 / 4.0 + 2.0**2.8 / 8.0)
    assert abs(got - hand) <= 1e-15
    assert abs(got - 0.7132526703972935) <= 1e-15


def test_sup_bound_value():
    assert abs(sup_bound(canonical_spec(0.05)) - 0.11283791670955126) <= 1e-15
    assert abs(sup_bound(canonical_spec(0.05)) - 0.1 / GAMMA_3_2) <= 1e-15


def test_equicontinuity_modulus_values_and_errors():
    spec = canonical_spec(1.0)
    assert equicontinuity_modulus(spec, 0.3, 0.3) == 0.0
    assert abs(equicontinuity_modulus(spec, 0.0, 1.0) - 2.0 / GAMMA_3_2) <= 1e-14
    with pytest.raises(ValueError, match="t1 <= t2"):
        equicontinuity_modulus(spec, 0.8, 0.2)
    with pytest.raises(ValueError, match="window"):
        equicontinuity_modulus(spec, 0.0, 1.5)


# -- operator --------------------------------------------------------------


def test_denominator_examples():
    spec = ProblemSpec(
        timescale=TimeScale.interval(0.0, 1.0), alpha=0.25, lam=1.0, model=Constant(2.0)
    )
    u = GridFunction.zeros(spec.grid)
    assert abs(denominator(spec, u) - 4.0) <= 1e-12

    spec_d = ProblemSpec(
        timescale=TimeScale.integers(0, 4),
        alpha=0.25,
        lam=1.0,
        model=Constant(1.0),
        h_max=1.0,
    )
    assert denominator(spec_d, GridFunction.zeros(spec_d.grid)) == 16.0

    spec_a = canonical_spec(1.0)
    assert abs(denominator(spec_a, GridFunction.zeros(spec_a.grid)) - 1.0) <= 1e-12


def test_apply_k_zero_multiplier_is_zero():
    spec = canonical_spec(0.0)
    out = apply_K(spec, GridFunction.sample(spec.grid, lambda t: 3.0 + t))
    assert np.all(out.to_array() == 0.0)


def test_apply_k_constant_conductivity_closed_form():
    spec = ProblemSpec(
        timescale=TimeScale.interval(0.0, 1.0), alpha=0.25, lam=1.0, model=Constant(2.0)
    )
    out = apply_K(spec, GridFunction.sample(spec.grid, lambda t: t * t))
    exact = np.array(
        [constant_f_solution(2.0, 1.0, 0.25, 1.0, t) for t in spec.grid.nodes]
    )
    assert out.values[0] == 0.0
    assert float(np.max(np.abs(out.to_array() - exact))) <= 1e-12


def test_apply_k_discrete_sample_value():
    spec = ProblemSpec(
        timescale=TimeScale.integers(0, 3),
        alpha=0.25,
        lam=1.0,
        model=Constant(1.0),
        h_max=1.0,
    )
    out = apply_K(spec, GridFunction.zeros(spec.grid))
    hand = (2.0**-0.5 + 1.0) / (9.0 * math.gamma(0.5))
    assert abs(out.value_at(2.0) - hand) <= 1e-15
    assert abs(out.value_at(2.0) - 0.1070146515499099) <= 1e-12


def test_apply_k_rejects_foreign_grid():
    spec = canonical_spec(0.05)
    other = ProblemSpec(
        timescale=TimeScale.interval(0.0, 1.0),
        alpha=0.25,
        lam=0.05,
        model=Constant(1.0),
        h_max=0.25,
    )
    with pytest.raises(ValueError, match="not sampled on the problem grid"):
        apply_K(spec, GridFunction.zeros(other.grid))


# -- Picard iteration ------------------------------------------------------


def test_picard_zero_multiplier():
    report = picard_solve(canonical_spec(0.0, h_max=1.0 / 64))
    assert report.converged
    assert report.iterations == 1
    assert np.all(report.solution.to_array() == 0.0)
    assert report.residual == 0.0
    assert report.positive


def test_picard_constant_conductivity_two_steps():
    spec = ProblemSpec(
        timescale=TimeScale.interval(0.0, 1.0), alpha=0.25, lam=1.0, model=Constant(2.0)
    )
    report = picard_solve(spec)
    assert report.converged
    assert report.iterations == 2
    assert report.trace[1] == 0.0
    exact = np.array(
        [constant_f_solution(2.0, 1.0, 0.25, 1.0, t) for t in spec.grid.nodes]
    )
    assert float(np.max(np.abs(report.solution.to_array() - exact))) <= 1e-9
    assert abs(report.solution.value_at(1.0) - 1.0 / (2.0 * GAMMA_3_2)) <= 1e-9


def test_picard_trace_contracts_at_rate_q():
    lam = 0.5 * uniqueness_threshold(canonical_spec(1.0))
    spec = canonical_spec(lam, h_max=1.0 / 128)
    report = picard_solve(spec)
    assert report.converged
    assert abs(report.q - 0.5) <= 1e-12
    ratios = [b / a for a, b in zip(report.trace, report.trace[1:]) if a > 0]
    assert max(ratios) <= report.q + 0.05
    assert report.apriori_bound is not None
    assert report.apriori_bound <= spec.tol * (1.0 + 1e-6)
    assert report.residual <= 2.0 * spec.tol


def test_picard_exhausts_iterations_without_raising():
    report = picard_solve(canonical_spec(1.0, h_max=1.0 / 64, max_iter=3))
    assert not report.converged
    assert report.iterations == 3
    assert len(report.trace) == 3
    assert report.apriori_bound is None  # q > 1 gives no contraction bound


def test_picard_damped_reaches_same_fixed_point():
    lam = 0.05
    plain = picard_solve(canonical_spec(lam, h_max=1.0 / 128))
    damped = picard_solve(canonical_spec(lam, h_max=1.0 / 128, theta=0.5))
    assert damped.converged
    assert damped.iterations > plain.iterations
    gap = np.abs(damped.solution.to_array() - plain.solution.to_array())
    assert float(np.max(gap)) <= 1e-9


@pytest.mark.parametrize("theta", [1.0, 0.5, 0.1])
def test_damped_picard_certificates_hold(theta):
    # the damped update (1 - theta) u + theta K(u) contracts only with
    # q_theta = 1 - theta + theta q, so both certificates must use q_theta
    rng = np.random.default_rng(17)
    scales = [TimeScale.interval(0.0, 1.0)] + [make_scale(rng) for _ in range(3)]
    for ts in scales:
        base = ProblemSpec(
            timescale=ts,
            alpha=0.25,
            lam=1.0,
            model=BoundedRational(c1=1.0, c2=2.0, scale=0.5),
            h_max=(ts.T - ts.t0) / 128,
            theta=theta,
            max_iter=2000,
        )
        spec = replace(base, lam=0.5 * uniqueness_threshold(base))
        report = picard_solve(spec)
        reference = picard_solve(replace(spec, theta=1.0, tol=1e-15))
        assert report.converged and reference.converged
        assert report.q == contraction_constant(spec)
        err = float(np.max(np.abs(report.solution.values - reference.solution.values)))
        assert err <= report.apriori_bound + reference.apriori_bound
        checks = {c.name: c for c in existence_diagnostics(spec, report).checks}
        assert checks["residual"].passed


def test_picard_custom_start_and_grid_check():
    spec = canonical_spec(0.05, h_max=1.0 / 128)
    from_zero = picard_solve(spec)
    from_ones = picard_solve(spec, GridFunction.sample(spec.grid, lambda t: 1.0))
    gap = np.abs(from_zero.solution.to_array() - from_ones.solution.to_array())
    assert float(np.max(gap)) <= 1e-9
    other = canonical_spec(0.05, h_max=0.5)
    with pytest.raises(ValueError, match="not sampled on the problem grid"):
        picard_solve(spec, GridFunction.zeros(other.grid))


def test_solve_report_serializes(tmp_path):
    spec = canonical_spec(0.05, h_max=1.0 / 64)
    report = picard_solve(spec)
    blob = json.dumps(report.to_json())
    data = json.loads(blob)
    assert data["converged"] is True
    assert data["positive"] is True
    # the solution goes to solution.csv alone, one row per node
    assert "solution" not in data
    _write_report(tmp_path, report)
    rows = (tmp_path / "solution.csv").read_text().splitlines()[1:]
    assert len(rows) == len(spec.grid) == len(report.solution.values)
    assert data["operator"] == frac_integral_operator(spec.grid, 0.5).to_json()
    flat = picard_solve(
        ProblemSpec(
            timescale=TimeScale.interval(0.0, 1.0),
            alpha=0.25,
            lam=1.0,
            model=Constant(2.0),
        )
    )
    assert json.loads(json.dumps(flat.to_json()))["lambda_star"] == "inf"


# -- diagnostics -----------------------------------------------------------


def test_diagnostics_pass_on_contractive_solution():
    spec = canonical_spec(0.05, h_max=1.0 / 128)
    report = picard_solve(spec)
    diag = existence_diagnostics(spec, report)
    assert diag.passed
    assert tuple(c.name for c in diag.checks) == (
        "sup_norm",
        "equicontinuity",
        "residual",
    )
    assert all(c.margin >= 0.0 for c in diag.checks)
    json.dumps(diag.to_json())


def test_diagnostics_pass_with_flat_conductivity():
    spec = ProblemSpec(
        timescale=TimeScale.interval(0.0, 1.0),
        alpha=0.25,
        lam=1.0,
        model=Constant(2.0),
        h_max=1.0 / 128,
    )
    diag = existence_diagnostics(spec, picard_solve(spec))
    assert diag.passed
    # flat conductivity has q = 0, so the residual bound is finite
    assert diag.checks[2].bound < math.inf


def test_residual_check_fails_past_the_threshold():
    # at 2 lambda* (q = 2) no contraction bounds the residual: the check
    # fails with bound inf, where it used to pass against it
    base = ProblemSpec(
        timescale=TimeScale(((0.0, 1.0), (1.5, 1.5), (2.0, 2.5))),
        alpha=0.25,
        lam=1.0,
        model=ClampedAffine(base=1.0, slope=1.0, lo=1.0, hi=2.0),
        h_max=0.01,
    )
    spec = base.at_lambda(2.0 * uniqueness_threshold(base))
    report = picard_solve(spec)
    assert report.converged and report.q == pytest.approx(2.0)
    diag = existence_diagnostics(spec, report)
    res = diag.checks[2]
    assert res.name == "residual" and not res.passed and res.bound == math.inf
    assert res.to_json()["bound"] == "inf" and res.to_json()["passed"] is False
    assert [c.passed for c in diag.checks[:2]] == [True, True]
    assert not diag.passed and diag.to_json()["passed"] is False


def _diagnostics_by_pair_loop(spec, report):
    # the equicontinuity check pair by pair with the scalar modulus: every
    # adjacent pair and every pair with the first node
    u = report.solution.values
    nodes = spec.grid.nodes
    n = len(nodes)
    eps = 1e-12 * (1.0 + float(np.max(np.abs(u))))
    pairs = [(i, i + 1) for i in range(n - 1)] + [(0, j) for j in range(1, n)]
    slack = 2.0 * report.residual + eps
    worst = -math.inf
    for i, j in pairs:
        incr = float(abs(u[j] - u[i]))
        worst = max(worst, incr - equicontinuity_modulus(spec, nodes[i], nodes[j]))
    return worst <= slack, worst, slack


def test_vectorised_equicontinuity_matches_pair_loop():
    rng = np.random.default_rng(31)
    for _ in range(25):
        spec = ProblemSpec(
            timescale=make_scale(rng),
            alpha=float(rng.uniform(0.05, 0.45)),
            lam=0.0,
            model=BoundedRational(1.0, float(rng.uniform(1.5, 3.0)), 0.5),
            h_max=float(rng.uniform(0.01, 0.2)),
        )
        spec = spec.at_lambda(float(rng.uniform(0.1, 0.9)) * uniqueness_threshold(spec))
        report = picard_solve(spec)
        # also a ramp from t0 that the modulus bounds over every short step
        # but not over the whole window, so the pairs with t0 decide
        nodes = spec.grid.nodes
        slope = 2.0 * equicontinuity_modulus(spec, nodes[0], nodes[-1]) / spec.span
        ramp = GridFunction(spec.grid, slope * (nodes - nodes[0]))
        for rep in (report, replace(report, solution=ramp)):
            check = existence_diagnostics(spec, rep).checks[1]
            passed, observed, bound = _diagnostics_by_pair_loop(spec, rep)
            assert check.passed == passed == (rep is report)
            assert abs(check.observed - observed) <= 1e-15 * abs(observed)
            assert abs(check.bound - bound) <= 1e-15 * abs(bound)


def test_diagnostics_hold_a_few_arrays_per_node():
    # the adjacent pairs come from differences, so the check holds a few
    # float arrays of n entries, not a Python pair or an index per node
    spec = ProblemSpec(
        timescale=TimeScale.interval(0.0, 1.0),
        alpha=0.25,
        lam=0.0,
        model=BoundedRational(1.0, 2.0, 0.5),
        h_max=5e-6,
    )
    spec = spec.at_lambda(0.5 * uniqueness_threshold(spec))
    report = picard_solve(spec)
    n = len(spec.grid.nodes)
    assert n == 200_001
    tracemalloc.start()
    try:
        diag = existence_diagnostics(spec, report)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert diag.passed
    assert peak <= 48 * n


def test_diagnostics_draw_nothing_at_random(tmp_path):
    # a fresh interpreter, so no earlier test has imported numpy.random:
    # the check uses fixed node pairs and must not load the generator
    script = """
import sys
from chronofrac import (
    ClampedAffine, ProblemSpec, TimeScale, existence_diagnostics, picard_solve,
)
spec = ProblemSpec(
    timescale=TimeScale(((0.0, 1.0), (1.5, 1.5), (2.0, 2.5))),
    alpha=0.25,
    lam=0.05,
    model=ClampedAffine(base=1.0, slope=1.0, lo=1.0, hi=2.0),
    h_max=0.01,
)
assert existence_diagnostics(spec, picard_solve(spec)).passed
print("numpy.random" in sys.modules)
"""
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, cwd=tmp_path
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_gap_increment_can_exceed_the_power_difference_modulus():
    # over a late gap the jump term of the integral is large, while the
    # power difference (t2 - t0)**(2a) - (t1 - t0)**(2a) of elapsed times
    # is tiny: the increment exceeds that, but not the concavity modulus
    # (t2 - t1)**(2a), and the diagnostics pass
    spec = ProblemSpec(
        timescale=TimeScale(((0.0, 9.0), (10.0, 10.0))),
        alpha=0.25,
        lam=1.0,
        model=Constant(1.0),
    )
    report = picard_solve(spec)
    assert report.converged and report.residual == 0.0
    u = report.solution
    incr = abs(u.value_at(10.0) - u.value_at(9.0))
    # the modulus over a unit step is the bare scale factor
    power_difference = equicontinuity_modulus(spec, 0.0, 1.0) * (10.0**0.5 - 9.0**0.5)
    assert incr > 2.0 * power_difference  # not a rounding artifact
    assert incr <= equicontinuity_modulus(spec, 9.0, 10.0)
    diag = existence_diagnostics(spec, report)
    assert [c.name for c in diag.checks if c.passed] == ["sup_norm", "equicontinuity", "residual"]
    assert diag.passed


def test_equicontinuity_modulus_bounds_every_node_pair():
    # the modulus bounds the increments of every operator image, whatever
    # the profile, over every node pair of random mixed scales; and the
    # diagnostics of a converged solve pass
    rng = np.random.default_rng(47)
    for _ in range(40):
        spec = ProblemSpec(
            timescale=make_scale(rng),
            alpha=float(rng.uniform(0.05, 0.45)),
            lam=float(rng.uniform(0.1, 2.0)),
            model=BoundedRational(1.0, float(rng.uniform(1.5, 3.0)), 0.5),
            h_max=float(rng.uniform(0.02, 0.2)),
        )
        grid = spec.grid
        u = GridFunction(grid, rng.uniform(-3.0, 3.0, len(grid)))
        ku = apply_K(spec, u).values
        c1, c2, _ = spec.model.constants()
        scale = spec.lam * c2 / ((c1 * spec.span) ** 2 * math.gamma(2.0 * spec.alpha + 1.0))
        i, j = np.triu_indices(len(grid), k=1)
        mod = scale * (grid.nodes[j] - grid.nodes[i]) ** (2.0 * spec.alpha)
        picks = rng.integers(0, len(i), 20)
        lib = [equicontinuity_modulus(spec, grid.nodes[i[k]], grid.nodes[j[k]]) for k in picks]
        np.testing.assert_allclose(lib, mod[picks], rtol=1e-14)
        slack = 1e-12 * (1.0 + np.max(np.abs(ku)))
        assert np.all(np.abs(ku[j] - ku[i]) <= mod + slack)
        spec = spec.at_lambda(0.5 * uniqueness_threshold(spec))
        assert existence_diagnostics(spec, picard_solve(spec)).passed


def test_grids_from_separate_builds_are_one_grid():
    # value equality: a grid rebuilt from the same scale and h_max is the
    # problem grid, hashes alike and hits the same cached operator
    spec = ProblemSpec(
        timescale=TimeScale(((0.0, 1.0), (1.5, 1.5), (2.0, 2.5))),
        alpha=0.25,
        lam=0.05,
        model=Constant(1.0),
        h_max=0.01,
    )
    rebuilt = build_grid(spec.timescale, spec.h_max)
    assert rebuilt is not spec.grid
    assert rebuilt == spec.grid and hash(rebuilt) == hash(spec.grid)
    assert frac_integral_operator(rebuilt, 0.5) is frac_integral_operator(spec.grid, 0.5)
    ku = apply_K(spec, GridFunction.zeros(rebuilt))
    assert ku.values[0] == 0.0 and np.all(ku.values[1:] > 0.0)
    assert build_grid(spec.timescale, 0.02) != spec.grid


def test_bounds_carry_the_kernel_error_of_the_far_field():
    # a flat conductivity makes K constant, so the iteration is exact after
    # one step and all that is left of the a priori bound is the far
    # field's kernel error: eps * sup_bound, which must cover the distance
    # to the solution with exact weights
    pts = np.cumsum(np.random.default_rng(5).uniform(0.2, 1.5, 400))
    spec = ProblemSpec(
        timescale=TimeScale.from_points(pts.tolist()),
        alpha=0.25,
        lam=1.0,
        model=Constant(2.0),
        h_max=1.0,
    )
    report = picard_solve(spec)
    eps = report.operator["eps"]
    assert report.operator["row_blocks"] == -(-400 // ROW_BLOCK) and 0.0 < eps < 1e-14
    assert report.q == 0.0 and report.trace[-1] == 0.0
    assert report.apriori_bound == eps * report.sup_bound > 0.0
    grid = spec.grid
    n = len(grid)
    fv = np.full(n, 2.0)
    exact = spec.lam * (_weights(grid.nodes, grid.gap_after, 0.5, 0, n, 0, n) @ fv)
    exact /= grid.window_integral(fv) ** 2
    assert np.max(np.abs(report.solution.values - exact)) <= report.apriori_bound
    u = report.solution.values
    res = {c.name: c for c in existence_diagnostics(spec, report).checks}["residual"]
    assert res.passed
    assert res.bound == spec.tol + eps * report.sup_bound + 1e-12 * (1.0 + np.max(np.abs(u)))
