import math

import numpy as np
import pytest

from chronofrac import (
    FracOrder,
    GridFunction,
    TimeScale,
    build_grid,
    frac_derivative,
    frac_derivative_all,
    frac_integral,
    frac_integral_all,
    frac_integral_operator,
    gamma_fn,
    kernel_weights,
    verify_composition,
)
from chronofrac.fractional import lower_matvec
from chronofrac.oracles import (
    brute_force_discrete,
    brute_force_discrete_derivative,
    closed_form_power_integral,
)
from conftest import make_scale


# -- gamma ----------------------------------------------------------------


@pytest.mark.parametrize(
    "x,expected",
    [
        (1.0, 1.0),
        (2.0, 1.0),
        (5.0, 24.0),
        (0.5, 1.7724538509055159),  # sqrt(pi)
        (1.5, 0.886226925452758),
    ],
)
def test_gamma_values(x, expected):
    assert abs(gamma_fn(x) - expected) <= 1e-13 * expected


@pytest.mark.parametrize("x", [0.0, -1.0, -0.5])
def test_gamma_domain(x):
    with pytest.raises(ValueError, match="x > 0"):
        gamma_fn(x)


def test_gamma_accuracy_against_mpmath():
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 30
    for x in np.linspace(0.05, 30.0, 121):
        exact = float(mp.gamma(mp.mpf(float(x))))
        assert abs(gamma_fn(float(x)) - exact) <= 1e-13 * exact


# -- order ----------------------------------------------------------------


def test_frac_order_validation():
    assert FracOrder(0.3).alpha == 0.3
    assert FracOrder(0.3).complement.alpha == 0.7
    for bad in (0.0, 1.0, -0.2, 1.7):
        with pytest.raises(ValueError, match="lie in"):
            FracOrder(bad)


# -- fractional integral ---------------------------------------------------


def test_integral_at_start_is_zero():
    grid = build_grid(TimeScale.interval(0.0, 1.0), 0.25)
    g = GridFunction.sample(grid, lambda t: 5.0)
    assert frac_integral(g, 0.5, 0.0) == 0.0


def test_integral_constant_on_interval_is_exact():
    # product integration reproduces the kernel moment exactly
    grid = build_grid(TimeScale.interval(0.0, 1.0), 1.0 / 256)
    g = GridFunction.sample(grid, lambda t: 1.0)
    assert abs(frac_integral(g, 0.5, 1.0) - 1.0 / gamma_fn(1.5)) <= 1e-13


def test_integral_linear_on_interval_is_exact():
    grid = build_grid(TimeScale.interval(0.0, 1.0), 1.0 / 64)
    g = GridFunction.sample(grid, lambda t: t)
    exact = closed_form_power_integral(0.5, 1.0, 1.0)
    assert abs(frac_integral(g, 0.5, 1.0) - exact) <= 1e-13


def test_integral_discrete_unit_sample():
    grid = build_grid(TimeScale.integers(0, 5), 1.0)
    g = GridFunction.sample(grid, lambda t: 1.0)
    v = frac_integral(g, 0.5, 3.0)
    assert abs(v - 1.2888668718844691) <= 1e-12
    # same finite sum, summed independently
    bf = brute_force_discrete(grid.timescale, [1.0] * 6, 0.5, 3.0)
    assert abs(v - bf) <= 1e-13


def test_integral_accepts_frac_order():
    grid = build_grid(TimeScale.integers(0, 5), 1.0)
    g = GridFunction.sample(grid, lambda t: 1.0)
    assert frac_integral(g, FracOrder(0.5), 3.0) == frac_integral(g, 0.5, 3.0)


def test_integral_matches_brute_force_on_random_discrete_scales():
    rng = np.random.default_rng(5)
    for _ in range(25):
        pts = np.cumsum(rng.uniform(0.2, 1.5, size=int(rng.integers(3, 9))))
        ts = TimeScale.from_points(pts.tolist())
        grid = build_grid(ts, 1.0)
        vals = rng.uniform(0.5, 2.0, len(grid.nodes))
        g = GridFunction.from_array(grid, vals)
        alpha = float(rng.uniform(0.05, 0.95))
        for t in grid.nodes[1:]:
            v = frac_integral(g, alpha, t)
            bf = brute_force_discrete(ts, vals.tolist(), alpha, t)
            assert abs(v - bf) <= 1e-12 * max(1.0, abs(bf))


def test_integral_positive_for_positive_samples():
    rng = np.random.default_rng(9)
    for _ in range(20):
        ts = make_scale(rng)
        grid = build_grid(ts, float(rng.uniform(0.05, 0.4)))
        g = GridFunction.from_array(grid, rng.uniform(0.1, 2.0, len(grid.nodes)))
        vals = frac_integral_all(g, float(rng.uniform(0.05, 0.95)))
        assert np.all(vals[1:] > 0.0)
        assert vals[0] == 0.0


def test_integral_second_order_on_smooth_data():
    ts = TimeScale.interval(0.0, 1.0)
    errs = []
    for h in (1.0 / 64, 1.0 / 128):
        grid = build_grid(ts, h)
        g = GridFunction.sample(grid, lambda s: s * s)
        vals = frac_integral_all(g, 0.25)
        exact = np.array([closed_form_power_integral(0.25, 2.0, t) for t in grid.nodes])
        errs.append(float(np.max(np.abs(vals - exact))))
    assert 3.0 <= errs[0] / errs[1] <= 5.0


# -- kernel weights --------------------------------------------------------


def test_weights_nonnegative_and_supported_before_t():
    rng = np.random.default_rng(13)
    for _ in range(15):
        ts = make_scale(rng)
        grid = build_grid(ts, float(rng.uniform(0.05, 0.4)))
        alpha = float(rng.uniform(0.05, 0.95))
        i = int(rng.integers(1, len(grid.nodes)))
        w = kernel_weights(grid, alpha, grid.nodes[i])
        assert not w.flags.writeable
        assert np.all(w >= 0.0)
        assert np.all(w[i + 1 :] == 0.0)


def test_weight_row_reproduces_integral():
    grid = build_grid(TimeScale(((0.0, 1.0), (2.0, 2.0), (3.0, 3.5))), 0.25)
    g = GridFunction.sample(grid, lambda t: math.sin(t) + 2.0)
    t = grid.nodes[-1]
    dot = float(kernel_weights(grid, 0.3, t) @ g.values)
    assert abs(dot - frac_integral(g, 0.3, t)) <= 1e-14


def test_scattered_cell_weight_is_exact_kernel_term():
    # on a fully discrete scale the weight of node j at target t is
    # (t - t_j)**(alpha - 1) * graininess / gamma(alpha)
    ts = TimeScale.integers(0, 4)
    grid = build_grid(ts, 1.0)
    alpha = 0.3
    w = kernel_weights(grid, alpha, 3.0)
    for j in range(3):
        expected = (3.0 - j) ** (alpha - 1.0) / math.gamma(alpha)
        assert abs(w[j] - expected) <= 1e-15
    assert w[3] == 0.0
    assert w[4] == 0.0


def test_operator_matrix_cached_and_read_only():
    grid = build_grid(TimeScale.interval(0.0, 1.0), 0.125)
    w1 = frac_integral_operator(grid, 0.5)
    w2 = frac_integral_operator(grid, 0.5)
    assert w1 is w2
    with pytest.raises(ValueError):
        w1[0, 0] = 1.0


@pytest.mark.parametrize("n", [1, 2, 127, 128, 129, 300])
def test_lower_matvec_matches_dense_product(n):
    # the row blocks must cover every row, including a short last block
    rng = np.random.default_rng(n)
    w = np.tril(rng.uniform(0.0, 1.0, (n, n)))
    g = rng.uniform(-1.0, 1.0, n)
    np.testing.assert_allclose(lower_matvec(w, g), w @ g, rtol=1e-13, atol=1e-13)


# -- fractional derivative -------------------------------------------------


def test_derivative_of_zero():
    grid = build_grid(TimeScale.interval(0.0, 1.0), 0.125)
    g = GridFunction.zeros(grid)
    assert frac_derivative(g, 0.5, 0.5) == 0.0


def test_derivative_needs_forward_neighbor():
    grid = build_grid(TimeScale.interval(0.0, 1.0), 0.125)
    g = GridFunction.sample(grid, lambda t: t)
    with pytest.raises(ValueError, match="after t"):
        frac_derivative(g, 0.5, 1.0)


def test_derivative_discrete_matches_brute_force_difference():
    ts = TimeScale.integers(0, 5)
    grid = build_grid(ts, 1.0)
    g = GridFunction.sample(grid, lambda t: 1.0)
    d = frac_derivative(g, 0.5, 2.0)
    expected = brute_force_discrete_derivative(ts, [1.0] * 6, 0.5, 2.0)
    assert abs(d - expected) <= 1e-12
    assert abs(d - 0.3257350079352801) <= 1e-12


def test_derivative_recovers_unit_rate_away_from_origin():
    # g whose fractional integral of complementary order is the identity,
    # so the derivative is 1; the forward difference is first order
    alpha = 0.5
    ts = TimeScale.interval(0.0, 1.0)
    for h in (1.0 / 64, 1.0 / 128):
        grid = build_grid(ts, h)
        g = GridFunction.sample(grid, lambda s: s**alpha / math.gamma(1.0 + alpha))
        dv = frac_derivative_all(g, alpha)
        x = np.asarray(grid.nodes[:-1])
        err = float(np.max(np.abs(dv[x >= 0.25] - 1.0)))
        assert err <= h


# -- composition -----------------------------------------------------------


def test_composition_residuals_shrink_on_continuum():
    ts = TimeScale.interval(0.0, 1.0)
    reports = [
        verify_composition(GridFunction.sample(build_grid(ts, h), lambda s: s), 0.5)
        for h in (1.0 / 64, 1.0 / 128, 1.0 / 256)
    ]
    di = [r.err_di for r in reports]
    id_ = [r.err_id for r in reports]
    assert di[0] > di[1] > di[2]
    assert id_[0] > id_[1] > id_[2]
    assert di[2] < 5e-3 and id_[2] < 5e-3
    assert reports[-1].to_json() == {
        "h_max": 1.0 / 256,
        "err_DI": di[2],
        "err_ID": id_[2],
    }


def test_composition_pipeline_is_exact_sums_on_discrete_scales():
    # both stages of each round trip reduce to finite kernel sums; the
    # production path must agree with independently coded sums to rounding
    ts = TimeScale.integers(0, 8)
    grid = build_grid(ts, 1.0)
    alpha = 0.3
    vals = [float(s * s) for s in range(9)]
    g = GridFunction(grid, tuple(vals))

    ig = GridFunction.from_array(grid, frac_integral_all(g, alpha))
    di_fast = frac_derivative_all(ig, alpha)
    i_or = [brute_force_discrete(ts, vals, alpha, float(t)) for t in range(9)]
    di_or = [brute_force_discrete_derivative(ts, i_or, alpha, float(t)) for t in range(8)]
    assert float(np.max(np.abs(di_fast - np.asarray(di_or)))) <= 1e-12

    dg = frac_derivative_all(g, alpha)
    id_fast = frac_integral_all(GridFunction.from_array(grid, np.append(dg, 0.0)), alpha)[:-1]
    d_or = [brute_force_discrete_derivative(ts, vals, alpha, float(t)) for t in range(8)]
    id_or = [brute_force_discrete(ts, d_or + [0.0], alpha, float(t)) for t in range(8)]
    assert float(np.max(np.abs(id_fast - np.asarray(id_or)))) <= 1e-12


def test_round_trip_is_not_the_identity_on_scattered_scales():
    # the composed operator at a node only sees samples at earlier nodes
    # (strictly lower triangular), so differentiating the integral cannot
    # reproduce g on a discrete scale; pin the behavior so nobody
    # "fixes" a tolerance to hide it
    ts = TimeScale.integers(0, 8)
    grid = build_grid(ts, 1.0)
    g = GridFunction.sample(grid, lambda s: s * s)
    alpha = 0.3
    ig = GridFunction.from_array(grid, frac_integral_all(g, alpha))
    di = frac_derivative_all(ig, alpha)
    assert di[1] == 0.0  # depends only on g(0) = 0, while g(1) = 1
    gap = float(np.max(np.abs(di - g.to_array()[:-1])))
    assert gap > 1.0
    rep = verify_composition(g, alpha)
    assert rep.err_di > 1.0
