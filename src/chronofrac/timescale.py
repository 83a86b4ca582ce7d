"""Compact time scales and functions sampled on them.

A time scale is kept in canonical form: a finite, ordered union of
disjoint closed intervals, a single point being the degenerate interval.
In this form the jump operators are exact, and the delta integral reduces
to ordinary Riemann integration over the continuous parts plus
graininess-weighted sums at the right-scattered points.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Iterable, Sequence

import numpy as np

__all__ = [
    "SNAP",
    "GridTooLarge",
    "TimeScale",
    "Grid",
    "GridFunction",
    "build_grid",
    "delta_integral",
]

# Absolute tolerance for snapping query points onto interval endpoints and
# grid nodes, so boundary lookups never miss by a rounding error.
SNAP = 1e-12
# Most nodes ``build_grid`` lays down.  The kernel operator's row blocks
# hold about 1.4 kB per node where no two blocks are alike (5.6 MiB at 4350
# fragmented nodes), so ``fractional.DENSE_CAP`` binds near 1.3 million
# such nodes; uniform intervals share their blocks and stay under this cap.
MAX_NODES = 5_000_000


class GridTooLarge(ValueError):
    """``build_grid`` would lay down more than ``MAX_NODES`` nodes."""


def _snap_index(lo: np.ndarray, hi: np.ndarray, t) -> np.ndarray:
    """Per point of ``t``, the index of the last sorted closed range
    ``[lo, hi]`` starting at or below ``t + SNAP``, when ``t`` lies in it
    up to ``SNAP``; -1 otherwise."""
    t = np.asarray(t, dtype=float)
    i = lo.searchsorted(t + SNAP, side="right") - 1
    # i = -1 reads the last range, and the i >= 0 term masks it
    on = (lo[i] - SNAP <= t) & (t <= hi[i] + SNAP) & (i >= 0)
    return (i + 1) * on - 1


@dataclass(frozen=True)
class TimeScale:
    """Finite union of disjoint closed intervals on the real line.

    Parameters
    ----------
    components:
        Ordered ``(lo, hi)`` pairs with ``lo <= hi``; a pair with
        ``lo == hi`` is an isolated point.  Consecutive components must be
        separated by a positive gap, and the scale as a whole must span a
        nondegenerate window.
    """

    components: tuple[tuple[float, float], ...]
    # read-only (k, 2) array of the [lo, hi] components, checked once
    _bounds: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not len(self.components):
            raise ValueError("time scale needs at least one component")
        bounds = np.array(self.components, dtype=float)
        if bounds.ndim != 2 or bounds.shape[1] != 2:
            raise ValueError("components must be (lo, hi) pairs")
        bounds.setflags(write=False)
        lo, hi = bounds.T
        if not np.isfinite(bounds).all():
            raise ValueError("component endpoints must be finite")
        if (hi < lo).any():
            k = int(np.argmax(hi < lo))
            raise ValueError(f"component [{lo[k]}, {hi[k]}] is reversed")
        if (lo[1:] <= hi[:-1]).any():
            raise ValueError("components must be disjoint and strictly sorted")
        if not lo[0] < hi[-1]:
            raise ValueError("time scale must span a nondegenerate window")
        # the tuples of a discrete scale share one float per point
        lows = lo.tolist()
        highs = lows if np.array_equal(lo, hi) else hi.tolist()
        object.__setattr__(self, "components", tuple(zip(lows, highs)))
        object.__setattr__(self, "_bounds", bounds)

    # -- basic geometry --------------------------------------------------

    @property
    def t0(self) -> float:
        """Left endpoint of the scale."""
        return self.components[0][0]

    @property
    def T(self) -> float:
        """Right endpoint of the scale."""
        return self.components[-1][1]

    def _component_of(self, t) -> np.ndarray:
        # component index per point of t, snapping onto endpoints; -1 off the scale
        return _snap_index(self._bounds[:, 0], self._bounds[:, 1], t)

    def _component_index(self, t: float) -> int:
        i = int(self._component_of(t))
        if i < 0:
            raise ValueError(f"t={t!r} is not a point of the time scale")
        return i

    def contains(self, t: float) -> bool:
        """Membership test, snapping onto endpoints within ``SNAP``."""
        return bool(self._component_of(t) >= 0)

    __contains__ = contains

    # -- jump operators --------------------------------------------------

    def sigma(self, t: float) -> float:
        """Forward jump operator.

        Returns ``t`` itself at right-dense points, the next component's
        left endpoint at right-scattered points, and ``T`` at the right
        boundary of the scale.
        """
        i = self._component_index(t)
        hi = self.components[i][1]
        if t < hi - SNAP:
            return t
        if i + 1 < len(self.components):
            return self.components[i + 1][0]
        return self.T

    def rho(self, t: float) -> float:
        """Backward jump operator, with ``rho(t0) = t0`` at the left end."""
        i = self._component_index(t)
        lo = self.components[i][0]
        if t > lo + SNAP:
            return t
        if i > 0:
            return self.components[i - 1][1]
        return self.t0

    def graininess(self, t: float) -> float:
        """Forward gap ``sigma(t) - t``; zero at right-dense points."""
        return self.sigma(t) - t

    # -- construction helpers --------------------------------------------

    @classmethod
    def interval(cls, a: float, b: float) -> TimeScale:
        """The single closed interval [a, b]."""
        return cls(((a, b),))

    @classmethod
    def from_points(cls, points: Iterable[float]) -> TimeScale:
        """A fully discrete scale made of the given isolated points."""
        pts = np.unique(np.fromiter(points, dtype=float))
        return cls(np.stack([pts, pts], axis=1))

    @classmethod
    def integers(cls, a: int, b: int) -> TimeScale:
        """The integer points of [a, b]."""
        return cls.from_points(range(a, b + 1))

    # -- serialization ---------------------------------------------------

    def to_json(self) -> list[list[float]]:
        """Canonical JSON form: an array of ``[lo, hi]`` pairs."""
        return [[lo, hi] for lo, hi in self.components]

    @classmethod
    def from_json(cls, data: Sequence[Sequence[float]]) -> TimeScale:
        try:
            comps = tuple((float(pair[0]), float(pair[1])) for pair in data)
        except (TypeError, ValueError, IndexError) as exc:
            raise ValueError(
                "time scale JSON must be an array of [lo, hi] pairs"
            ) from exc
        return cls(comps)


@dataclass(frozen=True, eq=False)
class Grid:
    """Discretization nodes over a time scale.

    Every component endpoint is a node, every node lies on the scale, and
    consecutive nodes inside a continuous interval are at most ``h_max``
    apart.  Consequently each consecutive node pair spans either a cell of
    an interval or exactly one scattered jump, never a mixture.  ``nodes``
    (a copy of the input) and ``gap_after`` are read-only arrays; a gap
    flag is True when the open cell from a node to the next lies outside
    the scale, i.e. the node is right-scattered.  Grids compare by value.
    """

    timescale: TimeScale
    nodes: np.ndarray
    h_max: float
    gap_after: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        nodes = np.array(self.nodes, dtype=float)
        nodes.setflags(write=False)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "h_max", float(self.h_max))
        if not self.h_max > 0:
            raise ValueError("h_max must be positive")
        if nodes.ndim != 1 or len(nodes) < 2:
            raise ValueError("grid needs at least two nodes")
        width = nodes[1:] - nodes[:-1]
        if (width <= 0).any():
            raise ValueError("grid nodes must be strictly increasing")
        ts = self.timescale
        if abs(nodes[0] - ts.t0) > SNAP or abs(nodes[-1] - ts.T) > SNAP:
            raise ValueError("grid must span the whole time scale")
        off = ts._component_of(nodes) < 0
        if off.any():
            raise ValueError(f"grid node {nodes[off][0].item()!r} lies outside the time scale")
        if (_snap_index(nodes, nodes, ts._bounds) < 0).any():
            raise ValueError("every component endpoint must be a grid node")
        gap = ts._component_of(0.5 * (nodes[:-1] + nodes[1:])) < 0
        gap.setflags(write=False)
        object.__setattr__(self, "gap_after", gap)
        if (~gap & (width > self.h_max * (1.0 + 1e-9) + SNAP)).any():
            raise ValueError("cell wider than h_max inside an interval")

    def __eq__(self, other) -> bool:
        return self is other or (
            isinstance(other, Grid)
            and (self.timescale, self.h_max) == (other.timescale, other.h_max)
            and np.array_equal(self.nodes, other.nodes)
        )

    def __hash__(self) -> int:
        # O(1), reading no node or component: the operator cache hashes it per K
        ts = self.timescale
        return hash((ts.t0, ts.T, len(ts.components), self.h_max, len(self.nodes)))

    def index_of(self, t: float) -> int:
        """Index of the node equal to ``t`` up to the snap tolerance."""
        j = int(_snap_index(self.nodes, self.nodes, t))
        if j < 0:
            raise ValueError(f"t={t!r} is not a grid node")
        return j

    def __len__(self) -> int:
        return len(self.nodes)

    @cached_property
    def _cell_weights(self) -> tuple[np.ndarray, np.ndarray]:
        # cell j = [nodes[j], nodes[j + 1]) contributes
        # left[j] * g[j] + right[j] * g[j + 1]: trapezoid halves on a
        # continuous cell, the graininess and nothing on a scattered one
        width = np.diff(self.nodes)
        left = np.where(self.gap_after, width, 0.5 * width)
        right = np.where(self.gap_after, 0.0, 0.5 * width)
        left.setflags(write=False)
        right.setflags(write=False)
        return left, right

    def window_integral(self, values: np.ndarray, i: int = 0, j: int | None = None) -> float:
        """Delta integral of node samples over [nodes[i], nodes[j]).

        ``j`` defaults to the last node, so the default window is the
        whole scale [t0, T).
        """
        left, right = self._cell_weights
        if j is None:
            j = len(self.nodes) - 1
        return float(left[i:j] @ values[i:j] + right[i:j] @ values[i + 1 : j + 1])


def build_grid(ts: TimeScale, h_max: float) -> Grid:
    """Uniformly subdivide each continuous component of ``ts``.

    Each nondegenerate interval gets the smallest uniform subdivision with
    spacing at most ``h_max``; isolated points contribute themselves.  The
    interval endpoints are reproduced exactly.  Raises ``GridTooLarge``
    before allocating anything when the grid would pass ``MAX_NODES``.
    """
    if not h_max > 0:
        raise ValueError("h_max must be positive")
    lo, hi = ts._bounds.T
    cells = np.where(hi > lo, np.maximum(1.0, np.ceil((hi - lo) / h_max - SNAP)), 0.0)
    count = float(cells.sum()) + len(cells)
    if not count <= MAX_NODES:
        raise GridTooLarge(
            f"h_max={h_max!r} gives a grid of {count:.7g} nodes, above the {MAX_NODES} node cap"
        )
    # every component in one pass, as np.linspace lays each down: node k of
    # n cells is k ((b - a) / n) + a, and the last is b itself
    sizes = cells.astype(np.intp) + 1
    ends, comp = np.cumsum(sizes) - 1, np.repeat(np.arange(len(sizes)), sizes)
    step = np.divide(hi - lo, cells, out=np.zeros_like(cells), where=cells > 0)
    nodes = (np.arange(len(comp)) - (ends - sizes + 1)[comp]) * step[comp] + lo[comp]
    nodes[ends] = hi
    return Grid(ts, nodes, float(h_max))


@dataclass(frozen=True, eq=False)
class GridFunction:
    """Real samples at the grid nodes.

    Inside continuous intervals the samples are read as the piecewise
    linear interpolant; at scattered nodes they are point values.
    ``values`` is a read-only float array with one finite entry per node.
    """

    grid: Grid
    values: np.ndarray

    def __post_init__(self) -> None:
        values = np.array(self.values, dtype=float)
        if values.shape != (len(self.grid.nodes),):
            raise ValueError("value count must match node count")
        if not np.isfinite(values).all():
            raise ValueError("grid function values must be finite")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    @classmethod
    def sample(cls, grid: Grid, fn: Callable[[float], float]) -> GridFunction:
        return cls(grid, [fn(t) for t in grid.nodes.tolist()])

    @classmethod
    def from_array(cls, grid: Grid, values) -> GridFunction:
        return cls(grid, values)

    @classmethod
    def zeros(cls, grid: Grid) -> GridFunction:
        return cls(grid, np.zeros(len(grid.nodes)))

    def to_array(self) -> np.ndarray:
        """A writable copy of the samples."""
        return self.values.copy()

    def value_at(self, t: float) -> float:
        return float(self.values[self.grid.index_of(t)])

    def norm_inf(self) -> float:
        return float(np.max(np.abs(self.values)))


def delta_integral(g: GridFunction, a: float, b: float) -> float:
    """Delta integral of ``g`` over the window [a, b).

    Continuous cells contribute the trapezoid of the interpolant; a
    scattered cell contributes ``g(t) * graininess(t)``, the exact delta
    integral over [t, sigma(t)).  Consistent with the half-open window,
    the value at ``b`` itself never enters.

    Parameters
    ----------
    g:
        Sampled integrand.
    a, b:
        Grid nodes with ``a <= b``.

    Returns
    -------
    float
        The delta integral; zero when ``a == b``.
    """
    grid = g.grid
    ia = grid.index_of(a)
    ib = grid.index_of(b)
    if ia > ib:
        raise ValueError("integration bounds must satisfy a <= b")
    return grid.window_integral(g.values, ia, ib)
