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
# hold about 1 kB per node where no two blocks are alike (4.3 MiB at 4350
# fragmented nodes), 1.4 kB on a million scattered points, whose far field
# takes more terms, so ``fractional.DENSE_CAP`` binds near 1.5 million such
# nodes; a uniform interval shares its blocks, 0.13 MB at a million nodes.
MAX_NODES = 5_000_000


class GridTooLarge(ValueError):
    """``build_grid`` would lay down more than ``MAX_NODES`` nodes."""


def json_number(value, name: str) -> float:
    """``value`` as a float when it is a JSON number.  ``float`` alone
    would also take a string or a boolean; here they raise ``ValueError``
    naming ``name``, as does an integer beyond the float range."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{name} must be a number")
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"{name} is out of the float range") from None


def _snap_index(lo: np.ndarray, hi: np.ndarray, t) -> np.ndarray:
    """Per point of ``t``, the index of the last sorted closed range
    ``[lo, hi]`` starting at or below ``t + SNAP``, when ``t`` lies in it
    up to ``SNAP``; -1 otherwise."""
    t = np.asarray(t, dtype=float)
    i = lo.searchsorted(t + SNAP, side="right") - 1
    # i = -1 reads the last range, and the i >= 0 term masks it
    on = (lo[i] - SNAP <= t) & (t <= hi[i] + SNAP) & (i >= 0)
    return (i + 1) * on - 1


@dataclass(frozen=True, eq=False)
class TimeScale:
    """Finite union of disjoint closed intervals on the real line.

    Parameters
    ----------
    components:
        Ordered ``(lo, hi)`` pairs with ``lo <= hi``; a pair with
        ``lo == hi`` is an isolated point.  Consecutive components must be
        separated by a positive gap, and the scale as a whole must span a
        nondegenerate window.  Kept as a read-only (k, 2) float array (a
        copy of the input).  Scales compare by value and hash in O(1).
    """

    components: np.ndarray

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
        object.__setattr__(self, "components", bounds)

    def __eq__(self, other) -> bool:
        return isinstance(other, TimeScale) and np.array_equal(self.components, other.components)

    def __hash__(self) -> int:
        # O(1), reading the two ends alone, as Grid.__hash__ does
        return hash((self.t0, self.T, len(self.components)))

    # -- basic geometry --------------------------------------------------

    @property
    def t0(self) -> float:
        """Left endpoint of the scale."""
        return float(self.components[0, 0])

    @property
    def T(self) -> float:
        """Right endpoint of the scale."""
        return float(self.components[-1, 1])

    def _component_of(self, t) -> np.ndarray:
        # component index per point of t, snapping onto endpoints; -1 off the scale
        return _snap_index(self.components[:, 0], self.components[:, 1], t)

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
        if t < self.components[i, 1] - SNAP:
            return t
        if i + 1 < len(self.components):
            return float(self.components[i + 1, 0])
        return self.T

    def rho(self, t: float) -> float:
        """Backward jump operator, with ``rho(t0) = t0`` at the left end."""
        i = self._component_index(t)
        if t > self.components[i, 0] + SNAP:
            return t
        if i > 0:
            return float(self.components[i - 1, 1])
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
        return self.components.tolist()

    @classmethod
    def from_json(cls, data: Sequence[Sequence[float]]) -> TimeScale:
        shape = "field 'time_scale' must be an array of [lo, hi] pairs"
        if not isinstance(data, (list, tuple)):
            raise ValueError(shape)
        comps = []
        for i, pair in enumerate(data):
            if not (isinstance(pair, (list, tuple)) and len(pair) == 2):
                raise ValueError(f"{shape}; entry {i} is {pair!r}")
            name = f"an end of field 'time_scale' entry {i}"
            comps.append((json_number(pair[0], name), json_number(pair[1], name)))
        return cls(tuple(comps))


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
        if (nodes[1:] <= nodes[:-1]).any():
            raise ValueError("grid nodes must be strictly increasing")
        ts = self.timescale
        if abs(nodes[0] - ts.t0) > SNAP or abs(nodes[-1] - ts.T) > SNAP:
            raise ValueError("grid must span the whole time scale")
        off = ts._component_of(nodes) < 0
        if off.any():
            raise ValueError(f"grid node {nodes[off][0].item()!r} lies outside the time scale")
        # one column of ends at a time: half the temporaries of all 2k at once
        if any((_snap_index(nodes, nodes, ends) < 0).any() for ends in ts.components.T):
            raise ValueError("every component endpoint must be a grid node")
        gap = ts._component_of(0.5 * (nodes[:-1] + nodes[1:])) < 0
        gap.setflags(write=False)
        object.__setattr__(self, "gap_after", gap)
        if (~gap & (np.diff(nodes) > self.h_max * (1.0 + 1e-9) + SNAP)).any():
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

    def window_integral(
        self, values: np.ndarray, i: int = 0, j: int | None = None
    ) -> float | np.ndarray:
        """Delta integral of node samples over [nodes[i], nodes[j]).

        ``j`` defaults to the last node, so the default window is the
        whole scale [t0, T).  ``values`` of shape (m, n) are m lanes of
        samples, which give one integral per lane, each bit-identical to
        that lane's float.
        """
        left, right = self._cell_weights
        if j is None:
            j = len(self.nodes) - 1
        total = np.vecdot(left[i:j], values[..., i:j]) + np.vecdot(
            right[i:j], values[..., i + 1 : j + 1]
        )
        return float(total) if np.ndim(total) == 0 else total


def build_grid(ts: TimeScale, h_max: float) -> Grid:
    """Uniformly subdivide each continuous component of ``ts``.

    Each nondegenerate interval gets the smallest uniform subdivision with
    spacing at most ``h_max``; isolated points contribute themselves.  The
    interval endpoints are reproduced exactly.  Raises ``GridTooLarge``
    before allocating anything when the grid would pass ``MAX_NODES``.
    """
    if not h_max > 0:
        raise ValueError("h_max must be positive")
    lo, hi = ts.components.T
    width = hi - lo
    cells = np.ceil(width / h_max - SNAP)
    np.maximum(cells, 1.0, out=cells)
    cells *= width > 0.0  # a point has no cell
    count = float(cells.sum()) + len(cells)
    if not count <= MAX_NODES:
        raise GridTooLarge(
            f"h_max={h_max!r} gives a grid of {count:.7g} nodes, above the {MAX_NODES} node cap"
        )
    # every component in one pass, as np.linspace lays each down: node k of
    # n cells is k ((b - a) / n) + a, and the last is b itself.  In place,
    # one n-length temporary at a time beside the nodes, and the k-length
    # arrays freed as they are done with: on a discrete scale k is n
    sizes = cells.astype(np.intp)
    del width, cells
    sizes += 1
    starts = np.cumsum(sizes)
    starts -= sizes
    nodes = np.arange(float(starts[-1] + sizes[-1]))
    nodes -= np.repeat(starts, sizes)
    del starts
    step = hi - lo
    np.divide(step, sizes - 1, out=step, where=sizes > 1)
    nodes *= np.repeat(step, sizes)
    del step
    nodes += np.repeat(lo, sizes)
    ends = np.cumsum(sizes, out=sizes)
    ends -= 1
    nodes[ends] = hi
    del sizes, ends  # Grid copies the nodes: free the rest first
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
