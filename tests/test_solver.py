import json
import math
import subprocess
import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chronofrac import (
    BoundedRational,
    Bounds,
    ClampedAffine,
    Constant,
    GridFunction,
    ProblemSpec,
    TimeScale,
    apply_K,
    build_grid,
    denominator,
    equicontinuity_modulus,
    existence_diagnostics,
    frac_integral_operator,
    picard_solve,
    picard_sweep,
    problem_from_json,
    solver,
)
from chronofrac.cli import _write_report
from chronofrac.fractional import ROW_BLOCK, _Workspace, _weights
from chronofrac.oracles import constant_f_solution
from conftest import fragmented_scale, make_scale

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


def readme_spec(**kw) -> ProblemSpec:
    """The README's problem: interval, isolated point, interval, at h = 0.01."""
    return ProblemSpec(
        timescale=TimeScale(((0.0, 1.0), (1.5, 1.5), (2.0, 2.5))),
        alpha=0.25,
        lam=0.05,
        model=ClampedAffine(base=1.0, slope=1.0, lo=1.0, hi=2.0),
        h_max=0.01,
        **kw,
    )


def sweep_spec(**kw) -> ProblemSpec:
    """The README scale at 2504 nodes, 6 Picard lanes, as the lambda-sweep
    benchmark runs it."""
    return ProblemSpec(
        timescale=TimeScale(((0.0, 1.0), (1.5, 1.5), (2.0, 2.5))),
        alpha=0.25,
        lam=0.0,
        model=BoundedRational(c1=1.0, c2=2.5, scale=0.5),
        h_max=6e-4,
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
        ({"lam": True}, "lam must be a number, not a bool"),
        ({"tol": True}, "tol must be a number, not a bool"),
        ({"h_max": -1.0}, "h_max must be positive"),
        ({"alpha": math.nan}, "alpha must lie in"),
        ({"lam": math.nan}, "lambda must be nonnegative and finite"),
        ({"lam": math.inf}, "lambda must be nonnegative and finite"),
        ({"tol": math.nan}, "tol must be positive and finite"),
        ({"max_iter": math.inf}, "max_iter must be an integer >= 1"),
        ({"max_iter": True}, "max_iter must be a number, not a bool"),
        ({"h_max": math.inf}, "h_max must be positive and finite"),
        # a bool would pass every range check as 1 or 0, and to_json would
        # write it as true, which problem_from_json refuses
        ({"h_max": True}, "h_max must be a number, not a bool"),
        ({"alpha": np.True_}, "alpha must be a number, not a bool"),
        ({"max_iter": np.True_}, "max_iter must be a number, not a bool"),
        ({"max_iter": 2.5}, "max_iter must be an integer >= 1"),
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


def test_problem_rejects_a_lambda_whose_bounds_overflow():
    # each bound overflows alone in one case: q(lambda) on the README scale,
    # where 2e306 still passes; then, with q = 0, the sup bound under a small
    # flat conductivity and the numerator bound under a large one
    ts = TimeScale(((0.0, 1.0), (1.5, 1.5), (2.0, 2.5)))
    affine = ClampedAffine(base=1.0, slope=1.0, lo=1.0, hi=2.0)
    spec = ProblemSpec(ts, 0.25, 2e306, affine)
    assert math.isfinite(spec.bounds.q) and math.isfinite(spec.bounds.sup)
    for lam, model in ((1e307, affine), (1e300, Constant(1e-10)), (5.25e307, Constant(2.0))):
        with pytest.raises(ValueError) as caught:
            ProblemSpec(ts, 0.25, lam, model)
        assert str(caught.value) == f"lambda={lam!r} is so large that its bounds overflow"


def test_problem_defaults():
    spec = canonical_spec(0.05)
    assert spec.span == 1.0
    assert spec.h_max == 1.0 / 512
    assert spec.tol == 1e-10
    assert spec.max_iter == 200
    assert len(spec.grid.nodes) == 513


def test_problem_json_round_trip():
    # an integral max_iter of any numeric type is kept as an int, so its
    # JSON is an integer: json.dumps raises on NumPy's int64, and a stored
    # 50.0 would be written as 50.0
    for max_iter in (50, 50.0, np.int64(50), np.float64(50.0)):
        spec = canonical_spec(0.05, h_max=0.01, tol=1e-8, max_iter=max_iter)
        assert type(spec.max_iter) is int and spec.max_iter == 50
        back = problem_from_json(json.loads(json.dumps(spec.to_json())))
        assert back.to_json() == spec.to_json()
        assert back == spec


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
    t1, t2 = Bounds.of(0.25, 1.0, 1.0, 2.0, 1.0, lam=1.0).terms
    assert abs(t1 - 1.0 / GAMMA_3_2) <= 1e-15
    assert abs(t2 - 8.0 / GAMMA_3_2) <= 1e-14
    # both summands scale linearly with the multiplier
    s1, s2 = Bounds.of(0.25, 1.0, 1.0, 2.0, 1.0, lam=0.3).terms
    assert abs(s1 - 0.3 * t1) <= 1e-15
    assert abs(s2 - 0.3 * t2) <= 1e-15


def test_contraction_constant_and_threshold():
    spec = canonical_spec(1.0)
    q = spec.bounds.q
    assert abs(q - 9.0 / GAMMA_3_2) <= 1e-13
    assert abs(q - 10.155412503859614) <= 1e-12
    lam_star = spec.bounds.lambda_star
    assert abs(lam_star - GAMMA_3_2 / 9.0) <= 1e-15
    assert abs(lam_star - 0.09846965838363977) <= 1e-15
    # at the threshold itself the constant sits at one
    assert abs(canonical_spec(lam_star).bounds.q - 1.0) <= 1e-12


def test_threshold_infinite_for_flat_conductivity():
    spec = ProblemSpec(
        timescale=TimeScale.interval(0.0, 1.0),
        alpha=0.25,
        lam=3.0,
        model=Constant(2.0),
    )
    assert spec.bounds.lambda_star == math.inf
    assert spec.bounds.q == 0.0


def test_threshold_on_wider_window():
    got = Bounds.of(0.4, 2.0, 1.0, 1.0, 1.0).lambda_star
    hand = math.gamma(1.8) / (2.0**0.8 / 4.0 + 2.0**2.8 / 8.0)
    assert abs(got - hand) <= 1e-15
    assert abs(got - 0.7132526703972935) <= 1e-15


def test_sup_bound_value():
    assert abs(canonical_spec(0.05).bounds.sup - 0.11283791670955126) <= 1e-15
    assert abs(canonical_spec(0.05).bounds.sup - 0.1 / GAMMA_3_2) <= 1e-15


def test_bounds_follow_lambda_and_stay_out_of_equality():
    spec = canonical_spec(1.0)
    assert spec.bounds == Bounds.of(0.25, 1.0, 1.0, 2.0, 1.0)
    other = replace(spec, lam=0.3)
    assert other.bounds == Bounds.of(0.25, 1.0, 1.0, 2.0, 1.0, lam=0.3)
    assert other.bounds.lambda_star == spec.bounds.lambda_star
    # derived from the fields, so it takes no part in equality or hashing
    assert canonical_spec(1.0) == spec and hash(canonical_spec(1.0)) == hash(spec)
    with pytest.raises(TypeError):
        ProblemSpec(spec.timescale, 0.25, 1.0, spec.model, bounds=spec.bounds)


@pytest.mark.parametrize(
    "span,model",
    [
        (1e80, ClampedAffine(base=1.0, slope=1.0, lo=1.0, hi=2.0)),  # (c1 span)**4 overflows
        (1e-100, ClampedAffine(base=1.0, slope=1.0, lo=1.0, hi=2.0)),  # ... underflows to 0
        (1.0, Constant(1e-200)),
        (1.0, BoundedRational(c1=1.0, c2=1e300, scale=1.0)),  # c2**2 overflows
        (1.0, ClampedAffine(base=1.0, slope=1e308, lo=1.0, hi=2.0)),  # q = inf, nothing raised
        # the sup bound alone overflows, while q stays finite
        (1.0, ClampedAffine(base=1e-80, slope=1e-320, lo=1e-80, hi=1e150)),
    ],
)
def test_bounds_refuse_a_window_or_conductivity_out_of_range(span, model):
    c1, c2, lip = model.constants()
    message = (
        f"a window span of {span!r} with (c1, c2, L) = ({c1!r}, {c2!r}, {lip!r}) "
        "takes the bounds out of the float range"
    )
    for lam in (1.0, 1e-300):
        with pytest.raises(ValueError) as caught:
            Bounds.of(0.25, span, c1, c2, lip, lam)
        assert str(caught.value) == message
    with pytest.raises(ValueError) as caught:
        ProblemSpec(TimeScale.interval(0.0, span), 0.25, 0.05, model)
    assert str(caught.value) == message


# log-uniform over the positive floats, subnormals included
POSITIVE = st.floats(-323.0, 308.0).map(lambda e: 10.0**e)


@settings(max_examples=400, deadline=None)
@given(
    alpha=st.floats(0.0, 0.5, exclude_min=True, exclude_max=True),
    span=POSITIVE,
    bounds=st.lists(POSITIVE, min_size=2, max_size=2).map(sorted),
    lip=POSITIVE,
    lam=POSITIVE,
)
def test_bounds_are_finite_or_refused(alpha, span, bounds, lip, lam):
    c1, c2 = bounds
    try:
        Bounds.of(alpha, span, c1, c2, lip, lam)
    except ValueError:
        pass
    ts = TimeScale.interval(0.0, span)
    model = ClampedAffine(base=c1, slope=lip, lo=c1, hi=c2)
    try:
        spec = ProblemSpec(ts, alpha, lam, model)
    except ValueError:
        return
    b = spec.bounds
    assert all(map(math.isfinite, (b.q, b.sup, b.modulus, b.numerator)))


def test_equicontinuity_modulus_values_and_errors():
    spec = canonical_spec(1.0)
    assert equicontinuity_modulus(spec, 0.3, 0.3) == 0.0
    assert abs(equicontinuity_modulus(spec, 0.0, 1.0) - 2.0 / GAMMA_3_2) <= 1e-14
    with pytest.raises(ValueError, match="t1 <= t2"):
        equicontinuity_modulus(spec, 0.8, 0.2)
    # every comparison with NaN is false, so a NaN endpoint must fail each
    # guard rather than pass it on to a NaN modulus
    for t1, t2 in ((math.nan, 1.0), (0.0, math.nan), (math.nan, math.nan)):
        with pytest.raises(ValueError, match="t1 <= t2"):
            equicontinuity_modulus(spec, t1, t2)
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
    lam = 0.5 * canonical_spec(1.0).bounds.lambda_star
    spec = canonical_spec(lam, h_max=1.0 / 128)
    report = picard_solve(spec)
    assert report.converged
    assert abs(report.spec.bounds.q - 0.5) <= 1e-12
    ratios = [b / a for a, b in zip(report.trace, report.trace[1:]) if a > 0]
    assert max(ratios) <= report.spec.bounds.q + 0.05
    assert report.apriori_bound is not None
    assert report.apriori_bound <= spec.tol * (1.0 + 1e-6)
    assert report.residual <= 2.0 * spec.tol


def test_picard_exhausts_iterations_without_raising():
    report = picard_solve(canonical_spec(1.0, h_max=1.0 / 64, max_iter=3))
    assert not report.converged
    assert report.iterations == 3
    assert len(report.trace) == 3
    assert report.apriori_bound is None  # q > 1 gives no contraction bound


def test_picard_certificates_hold_on_random_mixed_scales():
    # at half the threshold the solve's a priori bound covers its distance
    # to a solve at tol = 1e-15 (up to that solve's own bound), and its
    # residual passes the diagnostics, on an interval and on random scales
    rng = np.random.default_rng(17)
    scales = [TimeScale.interval(0.0, 1.0)] + [make_scale(rng) for _ in range(3)]
    for ts in scales:
        base = ProblemSpec(
            timescale=ts,
            alpha=0.25,
            lam=1.0,
            model=BoundedRational(c1=1.0, c2=2.0, scale=0.5),
            h_max=(ts.T - ts.t0) / 128,
            max_iter=2000,
        )
        spec = replace(base, lam=0.5 * base.bounds.lambda_star)
        report = picard_solve(spec)
        reference = picard_solve(replace(spec, tol=1e-15))
        assert report.converged and reference.converged
        assert report.spec.bounds.q == spec.bounds.q
        err = float(np.max(np.abs(report.solution.values - reference.solution.values)))
        assert err <= report.apriori_bound + reference.apriori_bound
        checks = {c.name: c for c in existence_diagnostics(spec, report).checks}
        assert checks["residual"].passed


_LATTICE_ERROR_UNCOUNTED = pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 9: far from 0 the shared row blocks' lattice error is counted in no bound",
)


@pytest.mark.parametrize(
    "t0",
    [
        0.0,
        pytest.param(1e3, marks=_LATTICE_ERROR_UNCOUNTED),
        pytest.param(1e4, marks=_LATTICE_ERROR_UNCOUNTED),
    ],
)
def test_apriori_bound_holds_against_the_exact_rows(t0):
    # the reference is Picard on the exact rows, not a tighter solve on the
    # same operator, which would share the operator's weight error
    base = ProblemSpec(
        timescale=TimeScale.interval(t0, t0 + 0.1),
        alpha=0.25,
        lam=1.0,
        model=ClampedAffine(base=1.0, slope=1.0, lo=1.0, hi=2.0),
        h_max=1e-4,
        tol=1e-13,
    )
    spec = replace(base, lam=0.5 * base.bounds.lambda_star)
    report = picard_solve(spec)
    assert report.converged and existence_diagnostics(spec, report).passed
    grid = spec.grid
    n = len(grid)
    exact = _weights(grid.nodes, grid.gap_after, 0.5, 0, n)
    ref = np.zeros(n)
    for _ in range(spec.max_iter):
        fv = spec.model.apply(ref)
        nxt = spec.lam * (exact @ fv) / grid.window_integral(fv) ** 2
        if np.array_equal(nxt, ref):
            break
        ref = nxt
    else:
        raise AssertionError("the exact-row Picard iterate never stopped changing")
    assert np.max(np.abs(report.solution.values - ref)) <= report.apriori_bound


def test_picard_custom_start_and_grid_check():
    spec = canonical_spec(0.05, h_max=1.0 / 128)
    from_zero = picard_solve(spec)
    from_ones = picard_solve(spec, GridFunction.sample(spec.grid, lambda t: 1.0))
    gap = np.abs(from_zero.solution.to_array() - from_ones.solution.to_array())
    assert float(np.max(gap)) <= 1e-9
    other = canonical_spec(0.05, h_max=0.5)
    with pytest.raises(ValueError, match="not sampled on the problem grid"):
        picard_solve(spec, GridFunction.zeros(other.grid))


def test_sweep_batches_yield_the_lone_reports_in_order():
    # the first batch is unbalanced: a lane that hits max_iter, then
    # lambda = 0, which converges at once from zero; the batches after it
    # run descending multipliers.  Every report, from a custom start too,
    # is the one its lone solve gives, in the order asked
    # lambda = 40 needs 22 iterations and every other multiplier at most 20
    spec = canonical_spec(0.05, h_max=1.0 / 480, max_iter=21)
    width = solver.LANE_BYTES // (8 * len(spec.grid))
    lams = [40.0, 0.0] + [0.01 * k for k in range(2 * width + 3, 0, -1)]
    assert len(lams) == 2 * width + 5
    for u0 in (None, GridFunction.sample(spec.grid, lambda t: t)):
        reports = list(picard_sweep(spec, lams, u0))
        assert [report.spec.lam for report in reports] == lams
        for lam, report in zip(lams, reports):
            lone = picard_solve(replace(spec, lam=lam), u0)
            assert report.spec == lone.spec == replace(spec, lam=lam)
            assert report.spec.grid is spec.grid
            assert report.to_json() == lone.to_json()
            assert report.solution.values.tobytes() == lone.solution.values.tobytes()
            assert report.converged == (lam != 40.0)
    assert list(picard_sweep(spec, [])) == []


def test_a_lane_at_the_spec_multiplier_is_the_spec():
    # picard_solve's one lane is spec itself; a multiplier that only
    # compares equal to spec.lam gets its own copy on the same grid, since
    # the sign of -0.0 reaches K(u) and the solution
    spec = canonical_spec(0.0, h_max=1.0 / 64)
    assert picard_solve(spec).spec is spec
    (report,) = picard_sweep(spec, [-0.0])
    lone = picard_solve(replace(spec, lam=-0.0))
    assert math.copysign(1.0, report.spec.lam) == -1.0
    assert report.spec.grid is spec.grid
    assert report.solution.values.tobytes() == lone.solution.values.tobytes()
    assert np.signbit(report.solution.values).all()


def test_sweep_batch_applies_in_one_workspace():
    # 24 multipliers in 6 lanes of 2504 nodes, every report kept: the peak
    # is 9.6 (lanes, n) buffers, the batch's u beside one workspace, and the
    # reports (NumPy 2.4.6)
    spec = sweep_spec()
    n = len(spec.grid)
    width = solver.LANE_BYTES // (8 * n)
    assert (n, width) == (2504, 6)
    lams = [0.95 * spec.bounds.lambda_star * k / 23 for k in range(24)]
    list(picard_sweep(spec, lams[:1]))  # builds the operator
    tracemalloc.start()
    try:
        reports = list(picard_sweep(spec, lams))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(report.converged for report in reports)
    assert peak < 11 * 8 * width * n


def test_warm_lane_steps_allocate_no_lane_buffer(monkeypatch):
    # on 6 lanes of 2504 nodes a warm apply, and one whole iteration of the
    # lane loop around it, allocate under a tenth of a (lanes, n) buffer:
    # no elementwise step leaves NumPy an operand to copy
    spec = sweep_spec()
    n = len(spec.grid)
    lane_buffer = 8 * 6 * n
    ws = _Workspace(frac_integral_operator(spec.grid, 2.0 * spec.alpha), 6)
    ws.window[...] = np.random.default_rng(3).uniform(0.0, 2.0, (6, n))
    ws.apply(6)
    tracemalloc.start()
    try:
        ws.apply(6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.1 * lane_buffer

    marks = []  # the traced (current, peak since the last mark) at each apply

    class Marked(_Workspace):
        def apply(self, m: int) -> np.ndarray:
            marks.append(tracemalloc.get_traced_memory())
            tracemalloc.reset_peak()
            return super().apply(m)

    monkeypatch.setattr(solver, "_Workspace", Marked)
    lams = [0.95 * spec.bounds.lambda_star * k / 23 for k in range(18, 24)]
    tracemalloc.start()
    try:
        reports = list(picard_sweep(spec, lams))
    finally:
        tracemalloc.stop()
    # from the third apply to the fourth: one iteration of all six lanes,
    # none of which has left, since a lane leaves at the apply after its
    # last step
    assert min(len(report.trace) for report in reports) >= 4
    (current, _), (_, peak) = marks[2], marks[3]
    assert peak - current < 0.1 * lane_buffer


def _one_step_from_zero(spec: ProblemSpec) -> tuple[bytes, float]:
    """What one Picard step from zero must report, by ``apply_K``:
    the bytes of ``K(0)`` and the residual ``max |K(K(0)) - K(0)|``."""
    k0 = apply_K(spec, GridFunction.zeros(spec.grid))
    kk0 = apply_K(spec, k0)
    return k0.values.tobytes(), float(np.max(np.abs(kk0.values - k0.values)))


@pytest.mark.parametrize("scale", ["mixed", "fragmented", "discrete"])
def test_apply_k_is_the_picard_loops_k_bit_for_bit(scale):
    # apply_K is the one-lane case of the Picard loop's K step, so there is
    # one code path to K(u); this guards it.  One step from zero stops at
    # u = K(0), and the report's residual is one more apply: both must be
    # apply_K's, byte for byte
    rng = np.random.default_rng(11)
    if scale == "mixed":
        spec = readme_spec(max_iter=1)
    elif scale == "fragmented":
        ts = fragmented_scale(rng, 80)
        spec = replace(sweep_spec(max_iter=1), timescale=ts, lam=0.3, h_max=0.004)
    else:
        pts = np.cumsum(rng.uniform(0.2, 1.5, 300))
        spec = replace(readme_spec(max_iter=1), timescale=TimeScale.from_points(pts.tolist()))
    # more than one row block: the far field is in both paths
    assert frac_integral_operator(spec.grid, 2.0 * spec.alpha).eps > 0.0
    report = picard_solve(spec)
    assert report.iterations == 1 and not report.converged
    k0, residual = _one_step_from_zero(spec)
    assert report.solution.values.tobytes() == k0
    assert report.residual == residual > 0.0


def test_apply_k_is_every_sweep_lanes_k_bit_for_bit():
    # 8 multipliers on 2504 nodes run as two batches, of 6 lanes and of 2;
    # every lane's one step from zero is apply_K's, at the lane's own lambda
    spec = sweep_spec(max_iter=1)
    width = solver.LANE_BYTES // (8 * len(spec.grid))
    lams = [0.95 * spec.bounds.lambda_star * k / 7 for k in range(8)]
    assert width == 6 < len(lams)
    for report in picard_sweep(spec, lams):
        k0, residual = _one_step_from_zero(report.spec)
        assert report.solution.values.tobytes() == k0
        assert report.residual == residual


def test_solve_report_serializes(tmp_path):
    spec = canonical_spec(0.05, h_max=1.0 / 64)
    report = picard_solve(spec)
    blob = json.dumps(report.to_json())
    data = json.loads(blob)
    assert list(data) == [
        "iterations", "converged", "trace", "q", "lambda_star", "residual",
        "apriori_bound", "sup_bound", "positive", "operator",
    ]
    assert data["converged"] is True
    assert data["positive"] is True
    b = report.spec.bounds
    assert (data["q"], data["lambda_star"], data["sup_bound"]) == (b.q, b.lambda_star, b.sup)
    # the report's spec is the problem at its own multiplier, on the grid
    # solved on: the diagnostics and the writer build no second one
    assert report.spec == spec and existence_diagnostics(spec, report).passed
    _write_report(tmp_path, report)
    assert report.spec.grid is spec.grid
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
    spec = replace(base, lam=2.0 * base.bounds.lambda_star)
    report = picard_solve(spec)
    assert report.converged and report.spec.bounds.q == pytest.approx(2.0)
    diag = existence_diagnostics(spec, report)
    res = diag.checks[2]
    assert res.name == "residual" and not res.passed and res.bound == math.inf
    assert res.to_json()["bound"] == "inf" and res.to_json()["passed"] is False
    assert [c.passed for c in diag.checks[:2]] == [True, True]
    assert not diag.passed and diag.to_json()["passed"] is False


def test_diagnostics_of_a_sweep_report_build_no_second_grid():
    # the nodes come from the report's own grid, so checking a sweep's
    # report against a spec at its multiplier leaves that spec's grid unbuilt
    spec = canonical_spec(0.05, h_max=1.0 / 256)
    lams = [0.5 * spec.bounds.lambda_star, 0.9 * spec.bounds.lambda_star]
    for lam, report in zip(lams, picard_sweep(spec, lams)):
        at_lam = replace(spec, lam=lam)
        diag = existence_diagnostics(at_lam, report)
        assert "grid" not in at_lam.__dict__
        own = replace(spec, lam=lam)
        assert diag.to_json() == existence_diagnostics(own, picard_solve(own)).to_json()
        assert diag.passed


@pytest.mark.parametrize(
    "change,failing",
    [
        ({"lam": 5.0}, "equicontinuity"),
        ({"alpha": 0.3}, "equicontinuity"),
        ({"max_iter": 200}, "residual"),
        ({"tol": 1e-2}, "residual"),
    ],
)
def test_diagnostics_refuse_a_foreign_spec(change, failing):
    # each report fails one check at its own spec; checked against a spec
    # at 100 lambda, a spiked solution passed the equicontinuity check, and
    # against tol = 1e-2 an unconverged residual of 7.5e-9 passed a check
    # whose bound at the report's own tol is 1.3e-10
    spec = readme_spec(max_iter=3)
    report = picard_solve(spec)
    assert not report.converged and 1e-9 < report.residual < 1e-8
    if failing == "equicontinuity":
        u = report.solution.values.copy()
        u[len(u) // 2] += 0.01
        report = replace(report, solution=GridFunction(report.solution.grid, u), residual=0.0)
    checks = {c.name: c.passed for c in existence_diagnostics(spec, report).checks}
    assert [name for name, passed in checks.items() if not passed] == [failing]
    with pytest.raises(ValueError, match="not the one the report solved"):
        existence_diagnostics(replace(spec, **change), report)


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
        spec = replace(spec, lam=float(rng.uniform(0.1, 0.9)) * spec.bounds.lambda_star)
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
    spec = replace(spec, lam=0.5 * spec.bounds.lambda_star)
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
        spec = replace(spec, lam=0.5 * spec.bounds.lambda_star)
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
    assert report.spec.bounds.q == 0.0 and report.trace[-1] == 0.0
    assert report.apriori_bound == eps * report.spec.bounds.sup > 0.0
    grid = spec.grid
    n = len(grid)
    fv = np.full(n, 2.0)
    exact = spec.lam * (_weights(grid.nodes, grid.gap_after, 0.5, 0, n) @ fv)
    exact /= grid.window_integral(fv) ** 2
    assert np.max(np.abs(report.solution.values - exact)) <= report.apriori_bound
    u = report.solution.values
    res = {c.name: c for c in existence_diagnostics(spec, report).checks}["residual"]
    assert res.passed
    assert res.bound == spec.tol + eps * report.spec.bounds.sup + 1e-12 * (1.0 + np.max(np.abs(u)))
