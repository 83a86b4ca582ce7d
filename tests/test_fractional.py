import math
import re
import tracemalloc

import numpy as np
import pytest

from chronofrac import (
    GridFunction,
    TimeScale,
    build_grid,
    frac_derivative,
    frac_derivative_all,
    frac_integral,
    frac_integral_all,
    frac_integral_operator,
    fractional,
    kernel_weights,
    verify_composition,
)
from chronofrac.fractional import (
    FOLD_POINTS,
    FOLD_SIGMA,
    ROW_BLOCK,
    SOE_STEP,
    KernelOperator,
    OperatorTooLarge,
    _block_bytes,
    _fold,
    _hat_weights,
    _soe,
    _trapezoid,
    _weights,
)
from chronofrac.oracles import (
    brute_force_discrete,
    brute_force_discrete_derivative,
    closed_form_power_integral,
)
from conftest import fragmented_scale, make_scale


# -- reference weights ----------------------------------------------------
# The per-cell assembly the library used before its row-blocked one: the
# same hat weights of a cell (``_hat_weights``, whose accuracy the mpmath
# test below pins), one Python loop pass per cell, independent of the
# passes and clamps of ``fractional._weights``.


def _jump_weights(a, h, alpha, inv_gamma):
    # the same for the scattered cell [x_j, sigma(x_j)) of width h
    return a ** (alpha - 1.0) * h * inv_gamma, 0.0


def _weight_columns(x, gaps, alpha, r0, r1, c0, c1):
    """Weights of rows [r0, r1) at columns [c0, c1), one cell at a time."""
    w = np.zeros((r1 - r0, c1 - c0))
    inv_gamma = 1.0 / math.gamma(alpha)
    # cell j adds to columns j and j + 1 in every row past x_j
    for j in range(max(c0 - 1, 0), min(c1, r1 - 1)):
        lo, h = max(r0, j + 1), x[j + 1] - x[j]
        a_dist = x[lo:r1] - x[j]
        if gaps[j]:
            left, right = _jump_weights(a_dist, h, alpha, inv_gamma)
        else:
            left, right = _hat_weights(a_dist, x[lo:r1] - x[j + 1], h, alpha)
        if j >= c0:
            w[lo - r0 :, j - c0] += left
        if j + 1 < c1:
            w[lo - r0 :, j + 1 - c0] += right
    return np.maximum(w, 0.0, out=w)


def _block_moments(x, gaps, s, b0, b1):
    """The far field's moments of row block [b0, b1), one block at a time, as
    the library built them before its batched passes: every f2 by its
    18-term series below z = 1, independent of the per-rate term counts."""
    lo = max(b0 - 1, 0)
    xr = x[lo + 1 : b1]
    h = xr - x[lo : b1 - 1]
    z = np.multiply.outer(s, h)
    e, em = np.exp(-z), np.expm1(-z)
    big, zc, f12 = z >= 1.0, np.minimum(z, 1.0), -em / z
    f2 = np.zeros_like(z)
    for k in reversed(range(18)):
        f2 *= zc
        f2 += (-1.0) ** k / math.factorial(k + 2)
    np.divide(1.0 - f12, z, out=f2, where=big)
    f1 = f12 - f2
    np.divide(f12 - e, z, out=f1, where=big)
    jump = gaps[lo : b1 - 1]
    f1[:, jump] = e[:, jump]
    f2[:, jump] = 0.0
    scale = np.exp(np.multiply.outer(-s, x[b1 - 1] - xr)) * h
    m = np.zeros((len(s), ROW_BLOCK + 1))
    k = lo - b0 + 1
    m[:, k : k + len(h)] = f1 * scale
    m[:, k + 1 : k + 1 + len(h)] += f2 * scale
    return m


def _assert_weights_exact(x, gaps, alpha, r0, r1):
    w = _weights(x, gaps, alpha, r0, r1)
    assert w.shape == (r1 - r0, len(x))
    assert not w.flags.writeable
    assert np.array_equal(w, _weight_columns(x, gaps, alpha, r0, r1, 0, len(x)))


def test_weights_match_cell_loop_on_every_block_shape():
    # the same arithmetic in another order: equal bit for bit, on the whole
    # grid and on grids cut at random ends, as the callers cut them
    rng = np.random.default_rng(41)
    isolated = 0
    for _ in range(30):
        ts = make_scale(rng)
        isolated += any(lo == hi for lo, hi in ts.components)
        grid = build_grid(ts, float(rng.uniform(0.004, 0.05)))
        x, gaps, n = grid.nodes, grid.gap_after, len(grid)
        alpha = float(rng.uniform(0.02, 0.98))
        for r0, r1 in ((0, n), (0, 1), (n - 1, n)):
            _assert_weights_exact(x, gaps, alpha, r0, r1)
        for _ in range(12):
            c = int(rng.integers(0, n))
            m = int(rng.integers(1, n - c + 1))
            # a single row, then a block of rows of any height
            i = int(rng.integers(0, m))
            _assert_weights_exact(x[c : c + m], gaps[c:], alpha, i, i + 1)
            r0 = int(rng.integers(0, m))
            r1 = int(rng.integers(r0 + 1, m + 1))
            _assert_weights_exact(x[c : c + m], gaps[c:], alpha, r0, r1)
    assert isolated >= 10


@pytest.mark.parametrize("alpha", [0.05, 0.5, 0.95])
def test_weights_accurate_far_from_the_row(alpha):
    # the last row of [0, 1] at h = 1e-4 against its cell moments in 40-digit
    # arithmetic, on columns from 3 to 10**4 cells before the row, where the
    # closed form of the right-hat moment alone loses about a/h ulps
    mp = pytest.importorskip("mpmath")
    grid = build_grid(TimeScale.interval(0.0, 1.0), 1e-4)
    x, i = grid.nodes, len(grid) - 1
    w = kernel_weights(grid, alpha, 1.0)
    with mp.workdps(40):
        al, t = mp.mpf(alpha), mp.mpf(float(x[i]))

        def hats(j):
            # left and right hat moments of cell j over the kernel (t - s)**(al - 1)
            a, b = t - mp.mpf(float(x[j])), t - mp.mpf(float(x[j + 1]))
            m0 = (a**al - b**al) / al
            right = (a * m0 - (a ** (al + 1) - b ** (al + 1)) / (al + 1)) / (a - b)
            return m0 - right, right

        for j in np.unique(i - np.geomspace(3, 1e4, 80).astype(int)):
            exact = (hats(j)[0] + (hats(j - 1)[1] if j else 0)) / mp.gamma(al)
            assert abs(float((mp.mpf(float(w[j])) - exact) / exact)) <= 5e-14, j


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
    # the Gamma that every kernel weight and bound divides by
    assert abs(math.gamma(x) - expected) <= 1e-13 * expected


def test_gamma_accuracy_against_mpmath():
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 30
    for x in np.linspace(0.05, 30.0, 121):
        exact = float(mp.gamma(mp.mpf(float(x))))
        assert abs(math.gamma(float(x)) - exact) <= 1e-13 * exact


# -- order ----------------------------------------------------------------


def test_frac_order_validation():
    # an order is a plain number in (0, 1); NaN fails both comparisons
    grid = build_grid(TimeScale.integers(0, 5), 1.0)
    g = GridFunction.sample(grid, lambda t: 1.0)
    for bad in (0.0, 1.0, -0.1, math.nan):
        with pytest.raises(ValueError, match="lie in"):
            frac_integral(g, bad, 3.0)
        with pytest.raises(ValueError, match="lie in"):
            frac_integral_operator(grid, bad)


def test_equal_orders_share_one_cached_operator():
    grid = build_grid(TimeScale.integers(0, 5), 1.0)
    frac_integral_operator.cache_clear()
    op = frac_integral_operator(grid, 0.5)
    assert frac_integral_operator(grid, np.float64(0.5)) is op
    info = frac_integral_operator.cache_info()
    assert (info.hits, info.misses) == (1, 1)


# -- fractional integral ---------------------------------------------------


def test_integral_at_start_is_zero():
    grid = build_grid(TimeScale.interval(0.0, 1.0), 0.25)
    g = GridFunction.sample(grid, lambda t: 5.0)
    assert frac_integral(g, 0.5, 0.0) == 0.0


def test_integral_constant_on_interval_is_exact():
    # product integration reproduces the kernel moment exactly
    grid = build_grid(TimeScale.interval(0.0, 1.0), 1.0 / 256)
    g = GridFunction.sample(grid, lambda t: 1.0)
    assert abs(frac_integral(g, 0.5, 1.0) - 1.0 / math.gamma(1.5)) <= 1e-13


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


def test_single_node_evaluation_builds_no_operator(monkeypatch):
    # a one-node value needs one row, not the operator over the whole grid
    builds = []

    def counted(*args):
        builds.append(args)
        return KernelOperator(*args)

    monkeypatch.setattr(fractional, "KernelOperator", counted)
    frac_integral_operator.cache_clear()
    rng = np.random.default_rng(29)
    grid = build_grid(make_scale(rng), 0.02)
    g = GridFunction.from_array(grid, rng.uniform(0.5, 2.0, len(grid)))
    i = len(grid) - 2
    t = grid.nodes[i]
    value = frac_integral(g, 0.4, t)
    row = kernel_weights(grid, 0.4, t)
    assert builds == []
    assert value == float(row[: i + 1] @ g.values[: i + 1])
    assert abs(frac_integral_operator(grid, 0.4).apply(g.values)[i] - value) <= 1e-12 * value
    assert len(builds) == 1


def test_single_node_values_hold_one_row_pass_at_a_time():
    # one pass over the cells of one row holds about eight floats a node,
    # and the derivative takes its two rows one at a time
    grid = build_grid(TimeScale.interval(0.0, 1.0), 5e-6)
    n = len(grid)
    g = GridFunction.from_array(grid, np.random.default_rng(4).uniform(0.5, 2.0, n))
    assert n == 200_001
    values = (
        lambda: frac_integral(g, 0.5, 1.0),
        lambda: frac_derivative(g, 0.5, grid.nodes[-2]),
    )
    for value in values:
        tracemalloc.start()
        try:
            assert math.isfinite(value())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 72 * n


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


def _reachable(obj, seen=None):
    # every object reachable through attributes, lists, tuples and dicts,
    # the walk the benchmark tracer sizes the operator with
    seen = {} if seen is None else seen
    if id(obj) in seen:
        return seen
    seen[id(obj)] = obj
    if isinstance(obj, dict):
        children = list(obj.values())
    elif isinstance(obj, (list, tuple)):
        children = list(obj)
    elif isinstance(obj, np.ndarray):
        children = []
    else:
        children = list(getattr(obj, "__dict__", {}).values())
    for child in children:
        _reachable(child, seen)
    return seen


def test_operator_matrix_cached_and_read_only():
    grid = build_grid(TimeScale(((0.0, 1.0), (1.5, 1.5), (2.0, 2.5))), 1.0 / 256)
    w1 = frac_integral_operator(grid, 0.5)
    w2 = frac_integral_operator(grid, 0.5)
    assert w1 is w2
    arrays = [a for a in _reachable(w1).values() if isinstance(a, np.ndarray)]
    assert arrays and all(not a.flags.writeable for a in arrays)
    with pytest.raises(ValueError):
        w1.near[0, 0] = 1.0


def test_operator_arrays_reachable_without_closures():
    # the benchmark's fractional.operator_mib walks attributes, lists,
    # tuples and dicts; an array held only by a closure would read as 0,
    # and a view of a shared array would count its bytes again
    grid = build_grid(TimeScale(((0.0, 1.0), (1.5, 1.5), (2.0, 2.5))), 1.0 / 2048)
    op = KernelOperator(grid, 0.5)
    leaves = (np.ndarray, int, float, bool, str, type(None), np.floating)
    for obj in _reachable(op).values():
        assert not callable(obj)
        assert isinstance(obj, leaves + (dict, list, tuple)) or hasattr(obj, "__dict__")
    arrays = [a for a in _reachable(op).values() if isinstance(a, np.ndarray)]
    for i, a in enumerate(arrays):
        assert not any(np.shares_memory(a, b) for b in arrays[i + 1 :])
    summary = op.to_json()
    assert sum(a.nbytes for a in arrays) == summary["bytes"]
    assert summary["distinct_blocks"] < summary["row_blocks"]
    assert summary["bytes"] < 8 * len(grid) ** 2 / 10  # far below the dense matrix


def _long_interval_scale(rng: np.random.Generator, h: float) -> TimeScale:
    # two to four intervals of 128 cells or more, each either an exact
    # multiple of h (the spacing h) or not (a spacing just below h), with
    # isolated points and short intervals between them
    comps, cur = [], float(rng.uniform(-2.0, 2.0))
    for _ in range(int(rng.integers(2, 5))):
        cells = int(rng.integers(128, 320))
        width = cells * h if rng.random() < 0.5 else (cells - rng.uniform(0.1, 0.9)) * h
        comps.append((cur, cur + width))
        cur += width + float(rng.uniform(0.1, 0.5))
        for _ in range(int(rng.integers(0, 3))):
            short = 0.0 if rng.random() < 0.5 else float(rng.uniform(2.0, 20.0)) * h
            comps.append((cur, cur + short))
            cur += short + float(rng.uniform(0.1, 0.5))
    return TimeScale(tuple(comps))


def _reference_grids(rng):
    # long intervals of equal and unequal spacing, single uniform intervals,
    # then fragmented and discrete scales of three row blocks or more
    for _ in range(12):
        h = float(rng.uniform(0.002, 0.01))
        yield build_grid(_long_interval_scale(rng, h), h)
    for _ in range(2):
        a = float(rng.uniform(-2.0, 2.0))
        yield build_grid(TimeScale.interval(a, a + float(rng.uniform(1.0, 3.0))), 0.005)
    for _ in range(4):
        yield build_grid(fragmented_scale(rng, int(rng.integers(60, 120))), 0.005)
    for _ in range(4):
        pts = np.cumsum(rng.uniform(0.05, 1.5, int(rng.integers(300, 600))))
        yield build_grid(TimeScale.from_points(pts.tolist()), 1.0)


def _lattice_tol(x: np.ndarray) -> float:
    # the largest node-offset difference a shared row block may hide
    return fractional.UNIFORM_ULPS * np.finfo(float).eps * np.max(np.abs(x))


def _unpack(near: np.ndarray) -> np.ndarray:
    """(G, B, B + 1) blocks of a packed near field: row r of a block keeps
    its columns 0 ... r + 1, laid out row after row from r(r + 3)/2."""
    B = ROW_BLOCK
    assert near.shape[1:] == (B * (B + 3) // 2,)
    dense = np.zeros((len(near), B, B + 1))
    for r in range(B):
        at = r * (r + 3) // 2
        dense[:, r, : r + 2] = near[:, at : at + r + 2]
    return dense


def _block_groups(op: KernelOperator) -> list[int]:
    """Per row block, the index of the distinct arrays it reads."""
    group: list[int] = []
    for k0, k1, g, shared in op.runs:
        assert k0 == len(group) and k1 > k0
        group += [g] * (k1 - k0) if shared else list(range(g, g + k1 - k0))
    return group


def test_structured_operator_matches_dense_reference():
    rng = np.random.default_rng(2024)
    shared = unshared = 0
    for grid in _reference_grids(rng):
        alpha = float(rng.uniform(0.02, 0.98))
        x = grid.nodes
        n = len(x)
        dense = _weight_columns(x, grid.gap_after, alpha, 0, n, 0, n)
        op = KernelOperator(grid, alpha)
        summary = op.to_json()
        assert summary["row_blocks"] == -(-n // ROW_BLOCK) >= 3
        if summary["distinct_blocks"] < summary["row_blocks"]:
            shared += 1
        else:
            unshared += 1
        if len(grid.timescale.components) == 1:
            # a uniform interval: the first block, the interior, the last
            assert summary["distinct_blocks"] <= 3
        assert 0.0 < op.eps < 1e-14
        for g in (rng.uniform(-1.0, 1.0, n), rng.uniform(0.5, 2.0, n)):
            y = op.apply(g)
            ref = dense @ g
            assert np.max(np.abs(y - ref)) <= 1e-12 * np.max(np.abs(ref))
            assert y[0] == 0.0
            assert op.apply(g).tobytes() == y.tobytes()
        assert not kernel_weights(grid, alpha, x[0]).any()
        for i in rng.integers(0, n, 25).tolist() + [n - 1]:
            row = kernel_weights(grid, alpha, x[i])
            assert np.max(np.abs(row - dense[i])) <= 1e-12 * np.max(dense[i], initial=1.0)
            assert np.all(row >= 0.0)
        assert np.all(dense >= 0.0)
        # every weight, near or far, and every far-field factor is nonnegative
        for arr in (op.near, op.expo, op.moments, op.decay):
            assert np.all(arr >= 0.0)
        arrays = [a for a in _reachable(op).values() if isinstance(a, np.ndarray)]
        assert all(not a.flags.writeable for a in arrays)
    assert shared and unshared


def test_lanes_apply_bit_for_bit_as_lone_lanes():
    # an (m, n) apply makes, lane by lane, the calls a lone lane makes: on
    # shared, unshared and discrete row blocks, at one lane, on one row
    # block and off the row-block lattice, every row is its lane's apply
    rng = np.random.default_rng(19)
    grids = [build_grid(make_scale(rng), 0.01) for _ in range(3)]
    grids += [
        build_grid(fragmented_scale(rng, 80), 0.005),
        build_grid(TimeScale.from_points(np.cumsum(rng.uniform(0.05, 1.5, 333)).tolist()), 1.0),
        build_grid(TimeScale.interval(0.0, 1.0), 0.05),
    ]
    assert all(len(grid) % ROW_BLOCK for grid in grids)
    shared = unshared = 0
    for grid in grids:
        op = KernelOperator(grid, float(rng.uniform(0.05, 0.95)))
        shared += any(run[3] for run in op.runs)
        unshared += not all(run[3] for run in op.runs)
        for m in (1, 2, 5):
            lanes = rng.uniform(-1.0, 2.0, (m, len(grid)))
            y = op.apply(lanes)
            assert y.shape == lanes.shape
            for row, lane in zip(y, lanes):
                assert row.tobytes() == op.apply(lane).tobytes()
    assert shared and unshared


@pytest.mark.parametrize(
    "shape", [lambda n: (2 * n,), lambda n: (n + 1,), lambda n: (3, n + 1)],
    ids=["2n", "n+1", "3,n+1"],
)
def test_apply_refuses_samples_not_on_its_nodes(shape):
    # a 202-long vector on 101 nodes once failed deep inside NumPy, with
    # "cannot reshape array of size 256 into shape (128,)"
    op = KernelOperator(build_grid(TimeScale.interval(0.0, 1.0), 0.01), 0.5)
    g = np.ones(shape(op.n))
    shown = re.escape(f"not an array of shape {g.shape}")
    with pytest.raises(ValueError, match=f"on 101 nodes takes 101 samples .* {shown}"):
        op.apply(g)


def test_row_blocks_share_arrays_of_equal_geometry():
    # a row block reads the arrays of its group's first block: they are its
    # own near field, decays, moments and history-sum decay, to within the
    # lattice deviation; and a block whose nodes and gaps repeat that first
    # block's exactly always joins it
    rng = np.random.default_rng(2024)
    B, shared = ROW_BLOCK, 0
    for grid in _reference_grids(rng):
        x, gaps, n = grid.nodes, grid.gap_after, len(grid)
        alpha = float(rng.uniform(0.02, 0.98))
        op = KernelOperator(grid, alpha)
        s, w = op.rates, op.weights
        group = _block_groups(op)
        assert len(group) == -(-n // B) and len(op.decay) == len(op.near)
        assert group[0] == 0 and group[-1] == len(op.near) - 1
        assert all(b - a in (0, 1) for a, b in zip(group, group[1:]))
        first, dev, near = {}, 0.0, _unpack(op.near)
        for k, g in enumerate(group):
            b0, b1 = k * B, min(k * B + B, n)
            lo = max(b0 - 1, 0)
            off, gp = x[lo:b1] - x[lo], gaps[lo : b1 - 1]
            if g not in first:
                # the previous group's first block, when it has a node
                # before it, differs from this block
                if k and group[k - 1] in first:
                    k0, off0, gp0 = first[group[k - 1]]
                    same = k0 and len(off0) == len(off) and np.array_equal(off0, off)
                    assert not (same and np.array_equal(gp0, gp))
                first[g] = (k, off, gp)
                continue
            shared += 1
            k0, off0, gp0 = first[g]
            assert k0 > 0 and len(off0) == len(off) == B + 1
            assert np.array_equal(gp0, gp)
            d = float(np.max(np.abs(off - off0)))
            assert d <= _lattice_tol(x)
            dev = max(dev, d)
            own = (
                _weights(x[lo:b1], gaps[lo:], alpha, b0 - lo, b1 - lo),
                fractional._decays(x[b0:b1] - x[b0 - 1], s, w),
                _block_moments(x, gaps, s, b0, b1),
                np.exp(-s * (x[b1 - 1] - x[b0 - 1])),
            )
            for held, mine in zip((near[g], op.expo[g], op.moments[g], op.decay[g]), own):
                assert np.max(np.abs(held - mine)) <= 1e-12 * np.max(mine)
        assert op.lattice_dev == dev
    assert shared


def _dense_near(x, gaps, alpha, firsts):
    """The near field as a (B, B + 1) block per distinct row block, one
    ``_weights`` call a block on the nodes cut at b0 - 1, so that no cell
    before it adds: the construction before the near field was packed."""
    B, n = ROW_BLOCK, len(x)
    near = np.zeros((len(firsts), B, B + 1))
    for g, k in enumerate(firsts):
        b0 = k * B
        b1, lo = min(b0 + B, n), max(b0 - 1, 0)
        block = _weights(x[lo:b1], gaps[lo:b1], alpha, b0 - lo, b1 - lo)
        near[g, : b1 - b0, lo - b0 + 1 : b1 - b0 + 1] = block
    return near


@pytest.mark.parametrize("alpha", [0.05, 0.3, 0.5, 0.75, 0.95])
def test_packed_near_field_is_the_dense_blocks_kept_half(alpha):
    # on mixed, fragmented, discrete, one-row-block and partial-last-block
    # grids, the packed near field unpacks to the dense per-block weights
    # bit for bit, and those have no nonzero outside the kept columns
    rng = np.random.default_rng(int(alpha * 100))
    B = ROW_BLOCK
    grids = [build_grid(make_scale(rng), 0.01) for _ in range(3)]
    grids += [
        build_grid(fragmented_scale(rng, 120), 0.005),
        build_grid(TimeScale.from_points(np.cumsum(rng.uniform(0.05, 1.5, 300)).tolist()), 1.0),
        build_grid(TimeScale.interval(0.0, 1.0), 1.0 / 20),
        build_grid(TimeScale(((0.0, 0.5), (0.7, 0.7), (1.0, 1.3))), 1.0 / 64),
        build_grid(TimeScale.interval(0.0, 1.0), 1.0 / (4 * B - 1)),
    ]
    sizes = [len(grid) for grid in grids]
    assert min(sizes) <= B and any(size % B for size in sizes if size > B)
    r = np.arange(B)
    kept = np.arange(B + 1) <= r[:, None] + 1
    first_column = diagonal = 0
    for grid in grids:
        x, gaps = grid.nodes, grid.gap_after
        op = KernelOperator(grid, alpha)
        group = _block_groups(op)
        firsts = [group.index(g) for g in range(len(op.near))]
        dense = _dense_near(x, gaps, alpha, firsts)
        assert not dense[:, ~kept].any()
        assert _unpack(op.near).tobytes() == dense.tobytes()
        # the two columns each row adds to the lower triangle are not all zero
        first_column += np.count_nonzero(dense[:, :, 0])
        diagonal += np.count_nonzero(dense[:, r, r + 1])
    assert first_column and diagonal


@pytest.mark.parametrize("alpha", [0.05, 0.5, 0.95])
def test_batched_moments_equal_the_per_block_formula(alpha):
    # on the benchmark's three kinds of grid, every held moment of every
    # distinct block, passes and per-rate series lengths included, is the
    # one-block formula's to 4e-16 relative
    mixed = TimeScale(((0.0, 1.0), (1.5, 1.5), (2.0, 2.5)))
    grids = (
        build_grid(mixed, 3e-4),
        build_grid(mixed, 6e-4),
        build_grid(fragmented_scale(np.random.default_rng(0), 600), 0.005),
    )
    for grid in grids:
        x, gaps, n = grid.nodes, grid.gap_after, len(grid)
        op = KernelOperator(grid, alpha)
        group = _block_groups(op)
        firsts = [group.index(g) for g in range(len(op.near))]
        for g, k in enumerate(firsts):
            b0 = k * ROW_BLOCK
            ref = _block_moments(x, gaps, op.rates, b0, min(b0 + ROW_BLOCK, n))
            assert np.all(np.abs(op.moments[g] - ref) <= 4e-16 * np.abs(ref))


@pytest.mark.parametrize("delta", [4e-3, 1e-4, 1e-6])
@pytest.mark.parametrize("beta", [0.02, 0.05, 0.5, 0.95, 0.98])
def test_sum_of_exponentials_within_its_stored_error(beta, delta):
    # against t**(beta - 1) / gamma(beta) at points the build never sampled,
    # the endpoints included; the rates scale with span, so short and long
    # spans are checked alike, and near 1 sigma underflows unless the slow
    # terms are kept in log space
    rng = np.random.default_rng(11)
    for span in (2.5, 36.0, 17000.0):
        s, w, eps = _soe(beta, delta, span)
        t = np.exp(rng.uniform(math.log(delta), math.log(span), 20000))
        t = np.concatenate([[delta, span], t])
        approx = np.exp(-np.multiply.outer(t, s)) @ w
        exact = t ** (beta - 1.0) / math.gamma(beta)
        assert np.all(np.abs(approx - exact) <= eps * exact), span
        assert 0.0 < eps < 1e-14
        assert np.all(s > 0.0) and np.all(w > 0.0)
        # at most one term per trapezoidal step of McLean's variable, which
        # is at most 0.6 of the 16 Gauss-Jacobi nodes and 10 per dyadic
        # panel up to 40 / delta of the Gauss rules it replaced
        steps = math.log(50.0 * span / delta) + 1.0 + math.log(45.0 / (1.0 - beta))
        assert len(s) <= math.ceil(steps / SOE_STEP)
        assert len(s) <= 0.6 * (16 + 10 * math.ceil(math.log2(40.0 * span / delta)))


FOLD_ORDERS = [0.02, 0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 0.98]


@pytest.mark.parametrize("beta", FOLD_ORDERS)
def test_folded_terms_keep_the_moments_of_the_terms_they_replace(beta):
    # the Gauss rule of the terms with s span <= S = FOLD_SIGMA is exact for
    # sigma**j, j < 2k, on their discrete measure; its nodes lie inside the
    # folded range and, like its weights, are positive; and its error bound
    # 4 (S / 4)**(2k) mu gamma(beta) / (2k)!, over the kernel at span,
    # is under 1e-17
    m, nodes, weights = _fold(beta)
    log_sigma, w = _trapezoid(beta, 1.0, 1.0)
    sigma, w = np.exp(log_sigma[:m]), w[:m]
    assert len(nodes) == len(weights) == FOLD_POINTS < m
    assert np.all(log_sigma[:m] <= math.log(FOLD_SIGMA)) and log_sigma[m] > math.log(FOLD_SIGMA)
    assert sigma[0] < min(nodes) and max(nodes) < sigma[-1] and min(nodes) > 0.0
    assert list(nodes) == sorted(nodes) and min(weights) > 0.0
    for j in range(2 * FOLD_POINTS):
        exact = math.fsum(w * sigma**j)
        assert abs(math.fsum(np.array(weights) * np.array(nodes) ** j) - exact) <= 1e-13 * exact, j
    k = FOLD_POINTS
    bound = 4.0 * (FOLD_SIGMA / 4.0) ** (2 * k) * math.fsum(w) * math.gamma(beta) / math.factorial(2 * k)
    assert bound <= 1e-17


def _unfolded_terms(beta, delta, span):
    # the term count before the fold: the trapezoidal rule after its drop
    # of the fast terms, with the terms below s span = 2**-60 as one
    log_s, w = _trapezoid(beta, span, math.log(50.0 * span / delta) + 1.0)
    s = np.exp(log_s)
    fast = np.cumsum((w * np.exp(-s * delta))[::-1])
    n = len(s) - np.count_nonzero(fast < 1e-17 * delta ** (beta - 1.0) / math.gamma(beta))
    return n - max(int(np.count_nonzero(s < 2.0**-60 / span)) - 1, 0)


def test_fold_keeps_eps_and_drops_terms_on_every_order_span_and_ratio():
    # 13 orders x 6 spans x 6 ratios span / delta: every rate and weight
    # positive and finite, eps under 3.6e-15 (the largest on this grid
    # before the fold), and at least 9 terms fewer than the unfolded rule
    cases = 0
    for beta in FOLD_ORDERS:
        for span in (1e-3, 1.0, 2.5, 36.0, 1e3, 1e6):
            for ratio in (2.0, 1e2, 1e4, 1e6, 1e9, 1e12):
                s, w, eps = _soe(beta, span / ratio, span)
                assert np.all(np.isfinite(s) & (s > 0.0)) and np.all(np.isfinite(w) & (w > 0.0))
                assert 0.0 < eps <= 3.6e-15, (beta, span, ratio)
                assert len(s) <= _unfolded_terms(beta, span / ratio, span) - 9, (beta, span, ratio)
                cases += 1
    assert cases == 468


def test_mixed_scale_shares_its_row_blocks():
    # the benchmark's mixed scale: its two intervals have one spacing, so
    # the first block, one per interval, the one across the gaps and the
    # short last one are all the distinct blocks there are
    grid = build_grid(TimeScale(((0.0, 1.0), (1.5, 1.5), (2.0, 2.5))), 3e-4)
    op = KernelOperator(grid, 0.5)
    summary = op.to_json()
    assert summary["row_blocks"] == -(-len(grid) // ROW_BLOCK) == 157
    assert summary["distinct_blocks"] <= 5
    assert summary["bytes"] < 500_000
    assert 0 < summary["soe_terms"] < 128 and 0.0 < summary["eps"] < 1e-14
    assert 0.0 <= summary["lattice_dev"] <= _lattice_tol(grid.nodes)


def test_admission_estimate_equals_the_bytes_held():
    # the estimate made before any array is built is the bytes of the row
    # blocks: near, expo, moments and decay, each one row per distinct block
    rng = np.random.default_rng(3)
    grids = [
        build_grid(TimeScale(((0.0, 1.0), (1.5, 1.5), (2.0, 2.5))), 1.0 / 300),
        build_grid(TimeScale(((0.0, 1.0), (1.5, 1.5), (2.0, 2.7))), 1.0 / 300),
        build_grid(fragmented_scale(rng, 80), 0.005),
        build_grid(TimeScale.interval(0.0, 1.0), 0.05),
    ]
    for grid in grids:
        op = KernelOperator(grid, 0.3)
        summary = op.to_json()
        held = sum(a.nbytes for a in (op.near, op.expo, op.moments, op.decay))
        need = _block_bytes(summary["distinct_blocks"], summary["soe_terms"])
        assert need == held
        assert summary["bytes"] == held + op.rates.nbytes + op.weights.nbytes


def _scattered_points(n: int) -> TimeScale:
    return TimeScale.from_points(np.cumsum(np.random.default_rng(7).uniform(0.2, 1.5, n)).tolist())


def test_operator_refuses_row_blocks_over_the_cap(monkeypatch):
    # 1.2e6 scattered points share no row block: 37500 distinct blocks of
    # about 1.4 kB a node need 1.59 GiB, refused under a 1 GiB cap before
    # any block is built
    monkeypatch.setattr(fractional, "DENSE_CAP", 2**30)
    grid = build_grid(_scattered_points(1_200_000), 1.0)
    tracemalloc.start()
    try:
        with pytest.raises(OperatorTooLarge, match=r"needs 1\.59 GiB of blocks, above the 1 GiB"):
            frac_integral_operator(grid, 0.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_fragmented_operator_holds_its_error_budget_in_bytes():
    # row blocks of 32, McLean's step of 0.25, the slow terms folded into a
    # Gauss rule and only the near field's kept half held: a 600-component
    # fragmented scale's operator holds 4.53 MB, 2 % allowed (5.06 MB with
    # the near field dense, 5.85 MB with no fold either, 8.1 MB at blocks
    # of 64 and step 0.2), with its kernel error still under 1.5e-15; the
    # near field is built before the rest, so the build peaks at most
    # 0.25 MiB above what it holds (0.23 MiB here)
    grid = build_grid(fragmented_scale(np.random.default_rng(1), 600), 0.005)
    tracemalloc.start()
    try:
        summary = KernelOperator(grid, 0.5).to_json()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= summary["bytes"] + 0.25 * 2**20
    assert summary["distinct_blocks"] == summary["row_blocks"] == -(-len(grid) // ROW_BLOCK)
    assert summary["bytes"] < 4_617_000
    assert 0.0 < summary["eps"] < 1.5e-15


def test_million_node_uniform_operator_holds_each_array_once():
    # [0, 1] at h = 1e-6: 31,251 row blocks, nearly all of one geometry; the
    # operator holds one row of every array per distinct block, none per
    # row block (18.6 MB when decay had a row per block)
    grid = build_grid(TimeScale.interval(0.0, 1.0), 1e-6)
    n = len(grid)
    op = KernelOperator(grid, 0.5)
    summary = op.to_json()
    assert n == 1_000_001 and summary["row_blocks"] == 31_251
    assert summary["bytes"] < 1_000_000
    need = _block_bytes(summary["distinct_blocks"], summary["soe_terms"])
    assert summary["bytes"] == need + op.rates.nbytes + op.weights.nbytes
    g = np.random.default_rng(5).uniform(0.5, 2.0, n)
    y = op.apply(g)
    for i in (n // 3, n // 2, n - 2, n - 1):
        ref = float(kernel_weights(grid, 0.5, grid.nodes[i]) @ g)
        assert abs(y[i] - ref) <= 1e-12 * ref


def test_long_shared_run_away_from_zero_matches_exact_rows():
    # [1, 2] at h = 1e-5: one run of about 3,100 blocks shares one set of
    # arrays, its decay row too, built on the run's first block; stepping
    # the history sums by that one row does not drift along the run
    grid = build_grid(TimeScale.interval(1.0, 2.0), 1e-5)
    n = len(grid)
    op = KernelOperator(grid, 0.5)
    assert max(k1 - k0 for k0, k1, _, shared in op.runs if shared) > 3000
    g = np.random.default_rng(6).uniform(0.5, 2.0, n)
    y = op.apply(g)
    for i in np.linspace(ROW_BLOCK + 1, n - 1, 9).astype(int).tolist():
        ref = float(kernel_weights(grid, 0.5, grid.nodes[i]) @ g)
        assert abs(y[i] - ref) <= 1e-12 * ref


def test_unequal_long_intervals_build_in_memory_linear_in_n_terms():
    # the 25001 x 16668 cross block between spacings 6e-5 and 1/16667 once
    # needed 3.1 GiB dense and was refused; each interval now shares one set
    # of row-block arrays, and the far field crosses the gap
    grid = build_grid(TimeScale(((0.0, 1.0), (2.0, 3.5))), 6e-5)
    n = len(grid)
    tracemalloc.start()
    try:
        op = KernelOperator(grid, 0.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    terms = len(op.rates)
    assert op.to_json()["distinct_blocks"] <= 5
    assert 0 < terms < 128 and peak < 2 * 8 * n * terms
    g = np.ones(n)
    y = op.apply(g)
    for i in (16668, 30000, n - 1):
        ref = float(kernel_weights(grid, 0.5, grid.nodes[i]) @ g)
        assert abs(y[i] - ref) <= 1e-12 * ref


def test_discrete_scale_of_20000_points_builds_in_linear_memory():
    # once refused at 2.98 GiB dense: no two row blocks alike, so each holds
    # its exact near field and N history terms a node
    grid = build_grid(_scattered_points(20000), 1.0)
    n = len(grid)
    tracemalloc.start()
    try:
        op = KernelOperator(grid, 0.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    terms = len(op.rates)
    assert op.to_json()["distinct_blocks"] == op.to_json()["row_blocks"]
    assert peak < 8 * n * (3 * terms + 2 * ROW_BLOCK)
    g = np.random.default_rng(1).uniform(0.5, 2.0, n)
    y = op.apply(g)
    for i in (300, 5000, n - 1):
        ref = float(kernel_weights(grid, 0.5, grid.nodes[i]) @ g)
        assert abs(y[i] - ref) <= 1e-12 * ref


def test_discrete_scale_of_1e5_points_shares_between_its_holes():
    # the integers with 30 holes: a hole changes at most the two row blocks
    # whose cells hold it and starts one new group after them, so the
    # operator holds under 128 bytes a node, against 1.4 kB unshared
    rng = np.random.default_rng(19)
    holes = rng.choice(np.arange(1, 100_029), 30, replace=False)
    pts = np.delete(np.arange(100_030.0), holes)
    grid = build_grid(TimeScale.from_points(pts.tolist()), 1.0)
    n = len(grid)
    op = KernelOperator(grid, 0.5)
    summary = op.to_json()
    assert n == 100_000 and summary["distinct_blocks"] <= 3 * 30 + 3
    held = sum(a.nbytes for a in (op.near, op.expo, op.moments, op.decay))
    need = _block_bytes(summary["distinct_blocks"], summary["soe_terms"])
    assert need == held and summary["bytes"] < 128 * n
    g = np.random.default_rng(2).uniform(0.5, 2.0, n)
    y = op.apply(g)
    for i in (777, 54321, n - 1):
        ref = float(kernel_weights(grid, 0.5, grid.nodes[i]) @ g)
        assert abs(y[i] - ref) <= 1e-12 * ref


def test_fragmented_scale_of_many_long_intervals_builds_in_linear_memory():
    # 600 components at h_max = 7e-4: dozens of intervals past 128 nodes,
    # whose segment pairs once needed 3.2 GiB of blocks; the far field now
    # crosses every gap, in O(nN) memory
    grid = build_grid(fragmented_scale(np.random.default_rng(0), 600), 7e-4)
    n = len(grid)
    tracemalloc.start()
    try:
        op = KernelOperator(grid, 0.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert n > 20000 and peak < 100e6
    g = np.random.default_rng(3).uniform(0.5, 2.0, n)
    y = op.apply(g)
    for i in (2000, n // 2, n - 1):
        ref = float(kernel_weights(grid, 0.5, grid.nodes[i]) @ g)
        assert abs(y[i] - ref) <= 1e-12 * ref


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


def test_frac_derivative_builds_no_operator(monkeypatch):
    # a one-node derivative needs two weight rows of the complementary order
    builds = []

    def counted(*args):
        builds.append(args)
        return KernelOperator(*args)

    monkeypatch.setattr(fractional, "KernelOperator", counted)
    frac_integral_operator.cache_clear()
    rng = np.random.default_rng(37)
    cases = []
    for _ in range(12):
        grid = build_grid(make_scale(rng), float(rng.uniform(0.01, 0.1)))
        g = GridFunction.from_array(grid, rng.uniform(0.5, 2.0, len(grid)))
        alpha = float(rng.uniform(0.05, 0.95))
        idx = rng.integers(0, len(grid) - 1, 6).tolist() + [0, len(grid) - 2]
        cases.append((g, alpha, idx, [frac_derivative(g, alpha, grid.nodes[i]) for i in idx]))
    assert builds == []
    for g, alpha, idx, values in cases:
        ref = frac_derivative_all(g, alpha)[idx]
        assert np.all(np.abs(np.array(values) - ref) <= 1e-12 * np.abs(ref))


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
