"""Compact time scales and functions sampled on them.

A time scale is kept in canonical form: a finite, ordered union of
disjoint closed intervals, a single point being the degenerate interval.
In this form the jump operators are exact, and the delta integral reduces
to ordinary Riemann integration over the continuous parts plus
graininess-weighted sums at the right-scattered points.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Sequence

import numpy as np

__all__ = [
    "SNAP",
    "TimeScale",
    "Grid",
    "GridFunction",
    "build_grid",
    "delta_integral",
]

# Absolute tolerance for snapping query points onto interval endpoints and
# grid nodes, so boundary lookups never miss by a rounding error.
SNAP = 1e-12


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

    def __post_init__(self) -> None:
        comps = tuple((float(lo), float(hi)) for lo, hi in self.components)
        object.__setattr__(self, "components", comps)
        if not comps:
            raise ValueError("time scale needs at least one component")
        for lo, hi in comps:
            if not (math.isfinite(lo) and math.isfinite(hi)):
                raise ValueError("component endpoints must be finite")
            if hi < lo:
                raise ValueError(f"component [{lo}, {hi}] is reversed")
        for (_, hi), (lo, _) in zip(comps, comps[1:]):
            if lo <= hi:
                raise ValueError("components must be disjoint and strictly sorted")
        if not comps[0][0] < comps[-1][1]:
            raise ValueError("time scale must span a nondegenerate window")

    # -- basic geometry --------------------------------------------------

    @property
    def t0(self) -> float:
        """Left endpoint of the scale."""
        return self.components[0][0]

    @property
    def T(self) -> float:
        """Right endpoint of the scale."""
        return self.components[-1][1]

    @cached_property
    def _lowers(self) -> tuple[float, ...]:
        return tuple(lo for lo, _ in self.components)

    def _component_index(self, t: float) -> int:
        i = bisect_right(self._lowers, t + SNAP) - 1
        if i >= 0:
            lo, hi = self.components[i]
            if lo - SNAP <= t <= hi + SNAP:
                return i
        raise ValueError(f"t={t!r} is not a point of the time scale")

    def contains(self, t: float) -> bool:
        """Membership test, snapping onto endpoints within ``SNAP``."""
        try:
            self._component_index(t)
        except ValueError:
            return False
        return True

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
        pts = sorted(set(float(p) for p in points))
        return cls(tuple((p, p) for p in pts))

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


@dataclass(frozen=True)
class Grid:
    """Discretization nodes over a time scale.

    Every component endpoint is a node, every node lies on the scale, and
    consecutive nodes inside a continuous interval are at most ``h_max``
    apart.  Consequently each consecutive node pair spans either a cell of
    an interval or exactly one scattered jump, never a mixture.
    """

    timescale: TimeScale
    nodes: tuple[float, ...]
    h_max: float

    def __post_init__(self) -> None:
        nodes = tuple(float(t) for t in self.nodes)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "h_max", float(self.h_max))
        if self.h_max <= 0:
            raise ValueError("h_max must be positive")
        if len(nodes) < 2:
            raise ValueError("grid needs at least two nodes")
        if any(b <= a for a, b in zip(nodes, nodes[1:])):
            raise ValueError("grid nodes must be strictly increasing")
        ts = self.timescale
        if abs(nodes[0] - ts.t0) > SNAP or abs(nodes[-1] - ts.T) > SNAP:
            raise ValueError("grid must span the whole time scale")
        for t in nodes:
            if not ts.contains(t):
                raise ValueError(f"grid node {t!r} lies outside the time scale")
        for lo, hi in ts.components:
            if not (self.has_node(lo) and self.has_node(hi)):
                raise ValueError("every component endpoint must be a grid node")
        for a, b, gap in zip(nodes, nodes[1:], self.gap_after):
            if not gap and b - a > self.h_max * (1.0 + 1e-9) + SNAP:
                raise ValueError("cell wider than h_max inside an interval")

    @cached_property
    def gap_after(self) -> tuple[bool, ...]:
        """Per consecutive node pair: True when the open interval between
        them lies outside the scale, i.e. the left node is right-scattered."""
        ts = self.timescale
        return tuple(
            not ts.contains(0.5 * (a + b))
            for a, b in zip(self.nodes, self.nodes[1:])
        )

    def index_of(self, t: float) -> int:
        """Index of the node equal to ``t`` up to the snap tolerance."""
        i = bisect_right(self.nodes, t)
        for j in (i - 1, i):
            if 0 <= j < len(self.nodes) and abs(self.nodes[j] - t) <= SNAP:
                return j
        raise ValueError(f"t={t!r} is not a grid node")

    def has_node(self, t: float) -> bool:
        try:
            self.index_of(t)
        except ValueError:
            return False
        return True

    def __len__(self) -> int:
        return len(self.nodes)

    @cached_property
    def _cell_weights(self) -> tuple[np.ndarray, np.ndarray]:
        # cell j = [nodes[j], nodes[j + 1]) contributes
        # left[j] * g[j] + right[j] * g[j + 1]: trapezoid halves on a
        # continuous cell, the graininess and nothing on a scattered one
        width = np.diff(self.nodes)
        gap = np.array(self.gap_after, dtype=bool)
        left = np.where(gap, width, 0.5 * width)
        right = np.where(gap, 0.0, 0.5 * width)
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
    interval endpoints are reproduced exactly.
    """
    if h_max <= 0:
        raise ValueError("h_max must be positive")
    nodes: list[float] = []
    for lo, hi in ts.components:
        if hi == lo:
            nodes.append(lo)
        else:
            n = max(1, math.ceil((hi - lo) / h_max - SNAP))
            nodes.extend(np.linspace(lo, hi, n + 1).tolist())
    return Grid(ts, tuple(nodes), float(h_max))


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
        return cls(grid, [fn(t) for t in grid.nodes])

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
