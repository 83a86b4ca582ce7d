"""Left Riemann-Liouville fractional integral and derivative on time scales.

The fractional integral of order ``alpha`` in (0, 1) convolves the sampled
function against the weakly singular kernel ``(t - s)**(alpha - 1)``.  On
continuous cells the kernel moments are evaluated in closed form and only
the function is interpolated linearly (product integration), which keeps
the scheme exact for piecewise-linear data and second order for smooth
data all the way into the singular endpoint.  Right-scattered cells
contribute the exact graininess-weighted kernel evaluation, so on a fully
discrete scale every value is an exact finite sum.

The fractional derivative is the delta derivative of the integral of
complementary order: exact at right-scattered nodes, a first-order forward
difference at right-dense ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .timescale import Grid, GridFunction

__all__ = [
    "FracOrder",
    "CompositionReport",
    "gamma_fn",
    "kernel_weights",
    "frac_integral",
    "frac_integral_all",
    "frac_integral_operator",
    "lower_matvec",
    "frac_derivative",
    "frac_derivative_all",
    "verify_composition",
]


def gamma_fn(x: float) -> float:
    """Euler gamma function on the positive half line.

    Delegates to the platform implementation (Lanczos-class accuracy,
    relative error well below 1e-13 on (0, 30]).  Nonpositive arguments
    are rejected: the operators here never evaluate at the poles.
    """
    if x <= 0:
        raise ValueError("gamma_fn requires x > 0")
    return math.gamma(x)


@dataclass(frozen=True)
class FracOrder:
    """Fractional order restricted to the open interval (0, 1)."""

    alpha: float

    def __post_init__(self) -> None:
        a = float(self.alpha)
        object.__setattr__(self, "alpha", a)
        if not 0.0 < a < 1.0:
            raise ValueError("fractional order must lie in (0, 1)")

    @property
    def complement(self) -> FracOrder:
        """The order ``1 - alpha`` used by the derivative."""
        return FracOrder(1.0 - self.alpha)


def _alpha_of(order: FracOrder | float) -> float:
    if isinstance(order, FracOrder):
        return order.alpha
    return FracOrder(float(order)).alpha


def _power_difference(a: np.ndarray, b: np.ndarray, p: float) -> np.ndarray:
    # a**p - b**p for 0 <= b < a.  Far from the target node a and b are
    # close and the direct difference cancels, so rewrite through expm1.
    out = a**p
    pos = b > 0.0
    if np.any(pos):
        ap = a[pos]
        bp = b[pos]
        out[pos] = bp**p * np.expm1(p * np.log1p((ap - bp) / bp))
    return out


@lru_cache(maxsize=64)
def _weight_matrix(grid: Grid, alpha: float) -> np.ndarray:
    """Dense lower-triangular product-integration weights.

    Row ``i`` holds quadrature weights against the kernel
    ``(t_i - s)**(alpha - 1) / gamma(alpha)`` so that ``W @ g`` evaluates
    the fractional integral at every node at once.  Row 0 is empty: the
    integral over the empty window is zero.
    """
    x = np.asarray(grid.nodes, dtype=float)
    n = x.size
    w = np.zeros((n, n))
    inv_gamma = 1.0 / math.gamma(alpha)
    gaps = grid.gap_after
    for j in range(n - 1):
        h = x[j + 1] - x[j]
        a_dist = x[j + 1 :] - x[j]
        if gaps[j]:
            w[j + 1 :, j] += a_dist ** (alpha - 1.0) * h * inv_gamma
        else:
            b_dist = x[j + 1 :] - x[j + 1]
            p0 = _power_difference(a_dist, b_dist, alpha)
            p1 = _power_difference(a_dist, b_dist, alpha + 1.0)
            m0 = p0 / alpha
            m1 = a_dist * m0 - p1 / (alpha + 1.0)
            w[j + 1 :, j] += (m0 - m1 / h) * inv_gamma
            w[j + 1 :, j + 1] += (m1 / h) * inv_gamma
    # every weight is nonnegative in exact arithmetic; clamp the few that
    # round a hair below zero
    np.maximum(w, 0.0, out=w)
    w.setflags(write=False)
    return w


def frac_integral_operator(grid: Grid, order: FracOrder | float) -> np.ndarray:
    """Matrix mapping node samples to fractional-integral values.

    The returned array is cached per (grid, order) and marked read-only.
    """
    return _weight_matrix(grid, _alpha_of(order))


def lower_matvec(w: np.ndarray, g: np.ndarray) -> np.ndarray:
    """``w @ g`` for a lower-triangular ``w``, on the calling thread: 128-row
    blocks skip the zero columns, and no BLAS thread stalls on a busy core."""
    out = np.empty(len(g))
    for r in range(0, len(g), 128):
        out[r : r + 128] = np.vecdot(w[r : r + 128, : r + 128], g[: r + 128])
    return out


def kernel_weights(grid: Grid, order: FracOrder | float, t: float) -> np.ndarray:
    """Read-only weight row of the fractional integral at the grid node ``t``.

    Entry ``j`` multiplies the sample at node ``j``; entries at nodes past
    ``t`` are zero and every entry is nonnegative.
    """
    return _weight_matrix(grid, _alpha_of(order))[grid.index_of(t)]


def frac_integral(g: GridFunction, order: FracOrder | float, t: float) -> float:
    """Left Riemann-Liouville fractional integral of ``g`` at a node.

    Evaluates the delta integral of ``(t - s)**(alpha - 1) * g(s)`` over
    the window from the start of the scale to ``t``, divided by
    ``gamma(alpha)``.  The value at the first node is exactly zero.
    """
    i = g.grid.index_of(t)
    row = _weight_matrix(g.grid, _alpha_of(order))[i]
    return float(row[: i + 1] @ g.values[: i + 1])


def frac_integral_all(g: GridFunction, order: FracOrder | float) -> np.ndarray:
    """Fractional integral of ``g`` at every grid node."""
    return lower_matvec(_weight_matrix(g.grid, _alpha_of(order)), g.values)


def frac_derivative(g: GridFunction, order: FracOrder | float, t: float) -> float:
    """Left Riemann-Liouville fractional derivative of ``g`` at a node.

    Computed as the delta derivative of the integral of complementary
    order ``1 - alpha``: at a right-scattered node the forward difference
    to ``sigma(t)`` is the exact delta derivative, at a right-dense node
    it is a first-order forward difference at grid resolution.  The last
    node has no neighbor to difference against and is rejected.
    """
    grid = g.grid
    i = grid.index_of(t)
    if i == len(grid.nodes) - 1:
        raise ValueError("frac_derivative needs a node after t")
    f = frac_integral_all(g, 1.0 - _alpha_of(order))
    return float((f[i + 1] - f[i]) / (grid.nodes[i + 1] - grid.nodes[i]))


def frac_derivative_all(g: GridFunction, order: FracOrder | float) -> np.ndarray:
    """Fractional derivative at every node but the last."""
    f = frac_integral_all(g, 1.0 - _alpha_of(order))
    return np.diff(f) / np.diff(g.grid.nodes)


@dataclass(frozen=True)
class CompositionReport:
    """Max-norm residuals of the two composition round trips."""

    h_max: float
    err_di: float
    err_id: float

    def to_json(self) -> dict:
        return {"h_max": self.h_max, "err_DI": self.err_di, "err_ID": self.err_id}


def verify_composition(g: GridFunction, order: FracOrder | float) -> CompositionReport:
    """Measure both composition residuals for ``g`` on its grid.

    ``err_DI`` is the max-norm of ``D(I g) - g`` and ``err_ID`` of
    ``I(D g) - g``, both over all nodes that admit a forward difference.
    On continuum scales both shrink under grid refinement; ``err_ID`` is
    only meaningful when ``g`` vanishes at the start of the scale.
    """
    alpha = _alpha_of(order)
    grid = g.grid
    vals = g.values

    integ = GridFunction.from_array(grid, frac_integral_all(g, alpha))
    di = frac_derivative_all(integ, alpha)
    err_di = float(np.max(np.abs(di - vals[:-1])))

    dg = frac_derivative_all(g, alpha)
    padded = GridFunction.from_array(grid, np.append(dg, 0.0))
    idg = frac_integral_all(padded, alpha)[:-1]
    err_id = float(np.max(np.abs(idg - vals[:-1])))

    return CompositionReport(h_max=grid.h_max, err_di=err_di, err_id=err_id)
