import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chronofrac import SNAP, Grid, GridFunction, TimeScale, build_grid, delta_integral
from chronofrac.timescale import GridTooLarge
from conftest import fragmented_scale, make_scale


# -- construction and validation ------------------------------------------


def test_rejects_empty():
    with pytest.raises(ValueError):
        TimeScale(())


def test_rejects_reversed_component():
    with pytest.raises(ValueError, match="reversed"):
        TimeScale(((1.0, 0.0),))


def test_rejects_overlap():
    with pytest.raises(ValueError, match="disjoint"):
        TimeScale(((0.0, 1.0), (0.5, 2.0)))


def test_rejects_touching_components():
    with pytest.raises(ValueError, match="disjoint"):
        TimeScale(((0.0, 1.0), (1.0, 2.0)))


def test_rejects_single_point_scale():
    with pytest.raises(ValueError, match="nondegenerate"):
        TimeScale(((2.0, 2.0),))


def test_rejects_nonfinite():
    with pytest.raises(ValueError, match="finite"):
        TimeScale(((0.0, math.inf),))


def test_rejects_components_that_are_not_pairs():
    for comps in (((0.0, 1.0, 2.0),), ((0.0,),), ((0.0, 1.0), (2.0,))):
        with pytest.raises(ValueError):
            TimeScale(comps)


def test_components_are_float_pairs_beside_their_bounds():
    # any number type in, Python float tuples stored, and one read-only
    # array of the same bounds that every check ran on
    ts = TimeScale([[0, 1], (np.float32(1.5), 1.5), [2, 2.5]])
    assert ts.components == ((0.0, 1.0), (1.5, 1.5), (2.0, 2.5))
    assert all(type(v) is float for c in ts.components for v in c)
    assert not ts._bounds.flags.writeable
    assert np.array_equal(ts._bounds, np.array(ts.components))
    assert ts == TimeScale(ts.components) and hash(ts) == hash(TimeScale(ts.components))
    assert "_bounds" not in repr(ts)


def test_endpoints():
    ts = TimeScale(((-1.0, 0.5), (2.0, 2.0)))
    assert ts.t0 == -1.0
    assert ts.T == 2.0


def test_from_points_sorts_and_dedupes():
    ts = TimeScale.from_points([3.0, 1.0, 2.0, 1.0])
    assert ts.components == ((1.0, 1.0), (2.0, 2.0), (3.0, 3.0))
    assert TimeScale.from_points(p for p in (3, 1, 2, 1)) == ts
    with pytest.raises(ValueError, match="finite"):
        TimeScale.from_points([0.0, 1.0, math.nan])


def test_json_round_trip():
    ts = TimeScale(((0.0, 1.0), (2.0, 2.0), (3.0, 4.5)))
    assert TimeScale.from_json(ts.to_json()) == ts
    with pytest.raises(ValueError, match="pairs"):
        TimeScale.from_json([[0.0], [1.0]])


# -- membership and jump operators ----------------------------------------


def test_membership_with_snap():
    ts = TimeScale(((0.0, 1.0), (2.0, 2.0)))
    assert ts.contains(0.5)
    assert ts.contains(1.0 + 0.5 * SNAP)
    assert ts.contains(2.0 - 0.5 * SNAP)
    assert not ts.contains(1.5)
    assert not ts.contains(-0.1)
    assert 2.0 in ts


@pytest.mark.parametrize(
    "t,sigma,rho,mu",
    [
        (0.0, 0.0, 0.0, 0.0),  # left endpoint of an interval: dense, rho clamps
        (0.5, 0.5, 0.5, 0.0),  # interior point: dense both ways
        (1.0, 2.0, 1.0, 1.0),  # interval end facing a gap: right-scattered
        (2.0, 3.0, 1.0, 1.0),  # isolated point: scattered both ways
        (3.0, 3.0, 2.0, 0.0),  # start of the last interval
        (4.0, 4.0, 4.0, 0.0),  # right boundary: sigma clamps to T
    ],
)
def test_jump_operators_mixed_scale(t, sigma, rho, mu):
    ts = TimeScale(((0.0, 1.0), (2.0, 2.0), (3.0, 4.0)))
    assert ts.sigma(t) == sigma
    assert ts.rho(t) == rho
    assert ts.graininess(t) == mu


def test_jump_operators_integer_scale():
    ts = TimeScale.integers(0, 5)
    assert ts.sigma(2.0) == 3.0
    assert ts.rho(2.0) == 1.0
    assert ts.graininess(2.0) == 1.0
    assert ts.sigma(5.0) == 5.0
    assert ts.rho(0.0) == 0.0


def test_jump_operator_outside_scale():
    ts = TimeScale.interval(0.0, 1.0)
    with pytest.raises(ValueError, match="not a point"):
        ts.sigma(1.5)
    with pytest.raises(ValueError, match="not a point"):
        ts.rho(-0.5)


@st.composite
def scales(draw):
    ncomp = draw(st.integers(1, 4))
    cur = draw(st.floats(-5.0, 5.0))
    comps = []
    for _ in range(ncomp):
        if draw(st.booleans()):
            comps.append((cur, cur))
        else:
            width = draw(st.floats(0.125, 2.0))
            comps.append((cur, cur + width))
            cur += width
        cur += draw(st.floats(0.125, 1.0))
    if comps[0][0] >= comps[-1][1]:
        comps.append((cur, cur + 1.0))
    return TimeScale(tuple(comps))


@settings(max_examples=60, deadline=None)
@given(scales(), st.data())
def test_jump_operator_algebra(ts, data):
    grid = build_grid(ts, 0.25)
    t = data.draw(st.sampled_from(grid.nodes))
    s = ts.sigma(t)
    r = ts.rho(t)
    assert s >= t
    assert r <= t
    assert ts.contains(s) and ts.contains(r)
    assert ts.graininess(t) == s - t
    if s > t + SNAP:  # right-scattered: jumping back recovers t
        assert ts.rho(s) == t
    assert ts.sigma(ts.T) == ts.T
    assert ts.rho(ts.t0) == ts.t0


# -- grids -----------------------------------------------------------------


def test_build_grid_interval():
    grid = build_grid(TimeScale.interval(0.0, 1.0), 0.5)
    assert grid.nodes.tolist() == [0.0, 0.5, 1.0]
    assert grid.gap_after.tolist() == [False, False]


def test_build_grid_discrete():
    grid = build_grid(TimeScale.integers(0, 3), 10.0)
    assert grid.nodes.tolist() == [0.0, 1.0, 2.0, 3.0]
    assert grid.gap_after.tolist() == [True, True, True]


def test_build_grid_mixed():
    ts = TimeScale(((0.0, 1.0), (2.0, 2.0)))
    grid = build_grid(ts, 1.0)
    assert grid.nodes.tolist() == [0.0, 1.0, 2.0]
    assert grid.gap_after.tolist() == [False, True]


def test_build_grid_spacing_cap():
    ts = TimeScale.interval(0.0, 1.0)
    grid = build_grid(ts, 0.3)
    widths = np.diff(grid.nodes)
    assert np.all(widths <= 0.3 + SNAP)
    assert grid.nodes[0] == 0.0 and grid.nodes[-1] == 1.0


def test_build_grid_keeps_endpoints_exact():
    ts = TimeScale(((0.1, 0.7), (1.3, 2.9)))
    grid = build_grid(ts, 0.17)
    for lo, hi in ts.components:
        assert lo in grid.nodes
        assert hi in grid.nodes


def test_build_grid_rejects_bad_h():
    with pytest.raises(ValueError, match="h_max"):
        build_grid(TimeScale.interval(0.0, 1.0), 0.0)
    # counted from the components before any node is laid down
    with pytest.raises(GridTooLarge, match=r"1e\+12 nodes, above the 5000000 node cap"):
        build_grid(TimeScale(((0.0, 1.0), (2.0, 2.0))), 1e-12)


def test_build_grid_nodes_equal_linspace_per_component():
    # one vectorised pass lays down, byte for byte, what np.linspace gives
    # each component: k ((b - a) / n) + a, with the last node b itself
    rng = np.random.default_rng(23)
    for i in range(60):
        if i % 3 == 0:
            ts = make_scale(rng)
        elif i % 3 == 1:
            ts = fragmented_scale(rng, int(rng.integers(1, 80)))
        else:
            pts = np.cumsum(rng.uniform(1e-3, 2.0, int(rng.integers(2, 60))))
            ts = TimeScale.from_points((pts - rng.uniform(0.0, 50.0)).tolist())
        h_max = float(np.exp(rng.uniform(np.log(1e-3), np.log(2.0))))
        parts = []
        for lo, hi in ts.components:
            cells = max(1, math.ceil((hi - lo) / h_max - SNAP)) if hi > lo else 0
            parts.append(np.linspace(lo, hi, cells + 1))
        assert build_grid(ts, h_max).nodes.tobytes() == np.concatenate(parts).tobytes()


def test_grid_hash_reads_neither_nodes_nor_components(monkeypatch):
    # the operator cache hashes the grid on every application of K: equal
    # grids hash equal without hashing their scale's components
    ts = TimeScale(((0.0, 1.0), (1.5, 1.5), (2.0, 2.5)))
    grid, rebuilt = build_grid(ts, 0.01), build_grid(TimeScale(ts.components), 0.01)

    def refuse(self):
        raise AssertionError("TimeScale hashed")

    monkeypatch.setattr(TimeScale, "__hash__", refuse)
    assert grid is not rebuilt and grid == rebuilt and hash(grid) == hash(rebuilt)
    assert build_grid(ts, 0.02) != grid


def test_grid_rejects_foreign_node():
    ts = TimeScale(((0.0, 1.0), (2.0, 3.0)))
    with pytest.raises(ValueError, match="outside"):
        Grid(ts, (0.0, 1.0, 1.5, 2.0, 3.0), 2.0)
    with pytest.raises(ValueError, match="outside"):
        Grid(ts, (0.0, 1.0, 1.0 + 2.0 * SNAP, 2.0, 3.0), 2.0)
    with pytest.raises(ValueError, match="outside"):
        Grid(ts, (0.0, 1.0, math.nan, 2.0, 3.0), 2.0)
    # an endpoint within SNAP snaps onto the scale
    grid = Grid(ts, (0.0, 1.0 + 0.5 * SNAP, 2.0, 3.0), 2.0)
    assert grid.gap_after.tolist() == [False, True, False]


def test_grid_arrays_read_only_and_copied():
    source = np.array([0.0, 0.5, 1.0])
    grid = Grid(TimeScale.interval(0.0, 1.0), source, 0.5)
    source[1] = 0.25  # the nodes are a copy, not a view of the caller's array
    assert grid.nodes.tolist() == [0.0, 0.5, 1.0]
    assert grid.nodes.dtype == float and grid.gap_after.dtype == bool
    for arr in (grid.nodes, grid.gap_after):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0


def test_gap_after_marks_component_changes():
    # a cell is a gap exactly when its two nodes lie in different components
    rng = np.random.default_rng(17)
    for _ in range(30):
        ts = make_scale(rng)
        grid = build_grid(ts, float(rng.uniform(0.05, 0.5)))
        comp = [
            next(k for k, (lo, hi) in enumerate(ts.components) if lo <= t <= hi)
            for t in grid.nodes.tolist()
        ]
        assert grid.gap_after.tolist() == [a != b for a, b in zip(comp, comp[1:])]


def test_grid_rejects_missing_endpoint():
    ts = TimeScale(((0.0, 1.0), (2.0, 2.0)))
    with pytest.raises(ValueError):
        Grid(ts, (0.0, 1.0), 1.0)


def test_index_of():
    grid = build_grid(TimeScale.interval(0.0, 1.0), 0.25)
    assert grid.index_of(0.5) == 2
    assert grid.index_of(0.5 + 0.1 * SNAP) == 2
    with pytest.raises(ValueError, match="not a grid node"):
        grid.index_of(0.3)


# -- grid functions --------------------------------------------------------


def test_grid_function_validation():
    grid = build_grid(TimeScale.interval(0.0, 1.0), 0.5)
    with pytest.raises(ValueError, match="count"):
        GridFunction(grid, (1.0, 2.0))
    with pytest.raises(ValueError, match="finite"):
        GridFunction(grid, (1.0, math.nan, 2.0))
    with pytest.raises(ValueError, match="finite"):
        GridFunction(grid, (1.0, 2.0, -math.inf))
    g = GridFunction.sample(grid, lambda t: 2.0 * t)
    assert g.values.dtype == float and not g.values.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        g.values[0] = 1.0
    source = np.array([0.0, 1.0, 2.0])
    h = GridFunction.from_array(grid, source)
    source[0] = 9.0  # the samples are a copy, not a view of the caller's array
    assert h.value_at(0.0) == 0.0
    assert g.value_at(0.5) == 1.0
    assert g.norm_inf() == 2.0


# -- delta integral --------------------------------------------------------


def test_delta_integral_integer_scale():
    grid = build_grid(TimeScale.integers(0, 4), 1.0)
    g = GridFunction.sample(grid, lambda t: t)
    # sum of g(t) * graininess over {0,1,2,3}
    assert delta_integral(g, 0.0, 4.0) == 6.0


def test_delta_integral_interval():
    grid = build_grid(TimeScale.interval(0.0, 1.0), 1.0 / 128)
    g = GridFunction.sample(grid, lambda t: t)
    assert abs(delta_integral(g, 0.0, 1.0) - 0.5) < 1e-14


def test_delta_integral_mixed():
    ts = TimeScale(((0.0, 1.0), (2.0, 2.0)))
    g = GridFunction.sample(build_grid(ts, 1.0), lambda t: 1.0)
    assert delta_integral(g, 0.0, 2.0) == 2.0


def test_delta_integral_empty_window():
    grid = build_grid(TimeScale.interval(0.0, 1.0), 0.25)
    g = GridFunction.sample(grid, lambda t: 3.0)
    assert delta_integral(g, 0.5, 0.5) == 0.0


def test_delta_integral_bound_errors():
    grid = build_grid(TimeScale.interval(0.0, 1.0), 0.25)
    g = GridFunction.sample(grid, lambda t: 1.0)
    with pytest.raises(ValueError, match="a <= b"):
        delta_integral(g, 0.75, 0.25)
    with pytest.raises(ValueError, match="not a grid node"):
        delta_integral(g, 0.1, 0.75)


def test_delta_measure_of_windows():
    # integrating 1 over [a, b) returns b - a on any scale: interval parts
    # by width, scattered points by graininess, telescoping across gaps
    rng = np.random.default_rng(11)
    for _ in range(200):
        ts = make_scale(rng)
        grid = build_grid(ts, float(rng.uniform(0.05, 0.4)))
        one = GridFunction.sample(grid, lambda t: 1.0)
        n = len(grid.nodes)
        i, j = sorted(int(k) for k in rng.choice(n, size=2, replace=False))
        a, b = grid.nodes[i], grid.nodes[j]
        assert abs(delta_integral(one, a, b) - (b - a)) <= 1e-12 * max(1.0, b - a)


def test_delta_integral_matches_cell_loop():
    # the cached weight vectors against the plain per-cell sum; only the
    # summation order differs, so agreement is to a few hundred ulps
    rng = np.random.default_rng(19)
    for _ in range(100):
        ts = make_scale(rng)
        grid = build_grid(ts, float(rng.uniform(0.05, 0.4)))
        n = len(grid.nodes)
        v = rng.uniform(-3.0, 3.0, n)
        i, j = sorted(int(k) for k in rng.choice(n, size=2, replace=False))
        loop = 0.0
        for k in range(i, j):
            w = grid.nodes[k + 1] - grid.nodes[k]
            loop += v[k] * w if grid.gap_after[k] else 0.5 * (v[k] + v[k + 1]) * w
        got = delta_integral(GridFunction(grid, v), grid.nodes[i], grid.nodes[j])
        scale = 3.0 * (grid.nodes[j] - grid.nodes[i])
        assert abs(got - loop) <= 1e-13 * max(1.0, scale)


def test_delta_integral_additivity():
    # split windows agree with the whole up to last-ulp accumulation order
    rng = np.random.default_rng(7)
    for _ in range(300):
        ts = make_scale(rng)
        grid = build_grid(ts, float(rng.uniform(0.05, 0.4)))
        n = len(grid.nodes)
        if n < 3:
            continue
        g = GridFunction.from_array(grid, rng.uniform(-3.0, 3.0, n))
        ia, ic = sorted(int(k) for k in rng.choice(n, size=2, replace=False))
        ib = int(rng.integers(ia, ic + 1))
        a, b, c = grid.nodes[ia], grid.nodes[ib], grid.nodes[ic]
        whole = delta_integral(g, a, c)
        split = delta_integral(g, a, b) + delta_integral(g, b, c)
        assert abs(whole - split) <= 1e-13 * max(1.0, abs(whole))


def test_delta_integral_linearity():
    rng = np.random.default_rng(3)
    for _ in range(100):
        ts = make_scale(rng)
        grid = build_grid(ts, float(rng.uniform(0.05, 0.4)))
        n = len(grid.nodes)
        v1 = rng.uniform(-2.0, 2.0, n)
        v2 = rng.uniform(-2.0, 2.0, n)
        a_, b_ = float(rng.uniform(-3.0, 3.0)), float(rng.uniform(-3.0, 3.0))
        lhs = delta_integral(GridFunction.from_array(grid, a_ * v1 + b_ * v2), ts.t0, ts.T)
        rhs = a_ * delta_integral(GridFunction.from_array(grid, v1), ts.t0, ts.T) + b_ * delta_integral(
            GridFunction.from_array(grid, v2), ts.t0, ts.T
        )
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))
