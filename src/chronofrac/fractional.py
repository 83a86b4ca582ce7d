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
    "KernelOperator",
    "OperatorTooLarge",
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


# An interval of at least this many nodes is its own operator segment;
# shorter components merge into dense runs, where an FFT would not pay.
MIN_SEGMENT = 128
# ulps of the node magnitude by which a uniform lattice's nodes may stray
UNIFORM_ULPS = 16
DENSE_CAP = 2 * 2**30  # bytes of dense blocks above which an operator is refused
# entries per weight-assembly pass, which holds about a dozen temporaries of
# this size: 2**16 raised the peak memory of a fragmented-grid solve by 5 MiB
CHUNK = 2**14


class OperatorTooLarge(ValueError):
    """The dense blocks of a kernel operator would exceed ``DENSE_CAP``."""


def _weights(x, gaps, alpha: float, r0: int, r1: int, c0: int, c1: int) -> np.ndarray:
    """Read-only weights of rows [r0, r1) at columns [c0, c1), by passes
    over a block of rows and every cell that reaches the block."""
    # column k of w is column c0 - 1 + k: a cell reaches one column either side
    w = np.zeros((r1 - r0, c1 - c0 + 2))
    j0, j1 = max(c0 - 1, 0), min(c1, r1 - 1)
    inv_gamma = 1.0 / math.gamma(alpha)
    step = max(CHUNK // max(j1 - j0, 1), 1)
    # rows up to x_{j0} are zero; a pass takes the cells left of its last row
    for r in range(max(r0, j0 + 1), r1, step):
        re = min(r + step, r1)
        je = min(j1, re - 1)
        # cell j adds to columns j and j + 1 in every row past x_j; the
        # clamps zero a and b in the other rows and change no valid entry,
        # since rounding is monotone
        xi, xj, xk = x[r:re, None], x[j0:je], x[j0 + 1 : je + 1]
        h = xk - xj
        a = np.maximum(xi - xj, 0.0)
        b = np.maximum(xi - xk, 0.0)
        # kernel moments a**p - b**p through expm1, which does not cancel
        # far from the target node where a and b are close
        with np.errstate(divide="ignore", invalid="ignore"):
            lr = np.log1p((a - b) / b)
            d0 = b**alpha * np.expm1(alpha * lr)
            d1 = b ** (alpha + 1.0) * np.expm1((alpha + 1.0) * lr)
        at = b == 0.0
        d0[at] = a[at] ** alpha
        d1[at] = a[at] ** (alpha + 1.0)
        m0 = d0 / alpha
        m1 = a * m0 - d1 / (alpha + 1.0)
        m1 /= h
        right = m1 * inv_gamma
        left = (m0 - m1) * inv_gamma
        # a scattered cell of width h is one graininess-weighted kernel term
        jump = np.flatnonzero(gaps[j0:je])
        aj = a[:, jump]
        with np.errstate(divide="ignore"):
            left[:, jump] = np.where(aj > 0.0, aj ** (alpha - 1.0), 0.0) * h[jump] * inv_gamma
        right[:, jump] = 0.0
        k = j0 - c0 + 1
        w[r - r0 : re - r0, k : k + je - j0] += left
        w[r - r0 : re - r0, k + 1 : k + 1 + je - j0] += right
    # every weight is nonnegative in exact arithmetic; clamp the few that
    # round a hair below zero, in place, so the block is never copied
    out = np.maximum(w, 0.0, out=w)[:, 1:-1]
    out.setflags(write=False)
    return out


def _lattice_tol(x: np.ndarray) -> float:
    return UNIFORM_ULPS * np.finfo(float).eps * max(abs(x[0]), abs(x[-1]))


def _segments(x: np.ndarray, gaps: np.ndarray) -> list[tuple[int, int, float | None]]:
    """``(start, stop, h)`` per segment: a long uniform interval with
    spacing ``h``, or a maximal run of everything else with ``h = None``."""
    starts = [0, *(np.flatnonzero(gaps) + 1).tolist()]
    segs: list[tuple[int, int, float | None]] = []
    for s, e in zip(starts, starts[1:] + [len(x)]):
        h = (x[e - 1] - x[s]) / (e - s - 1) if e - s >= MIN_SEGMENT else None
        if h and np.max(np.abs(x[s:e] - (np.arange(e - s) * h + x[s]))) > _lattice_tol(x[s:e]):
            h = None
        if h is None and segs and segs[-1][2] is None:
            s = segs.pop()[0]
        segs.append((s, e, h))
    return segs


class _DenseBlock:
    """Explicit weights of rows [r0, r1) at columns [c0, c1)."""

    def __init__(self, x, gaps, alpha, r0, r1, c0, c1):
        self.r0, self.r1, self.c0, self.c1 = r0, r1, c0, c1
        self.w = _weights(x, gaps, alpha, r0, r1, c0, c1)

    def add_to(self, out: np.ndarray, g: np.ndarray) -> None:
        gc = g[self.c0 : self.c1]
        diagonal = (self.r0, self.r1) == (self.c0, self.c1)
        out[self.r0 : self.r1] += lower_matvec(self.w, gc) if diagonal else np.vecdot(self.w, gc)


class _ToeplitzBlock:
    """Weights of rows [r0, r1) at columns [c0, c1) that depend only on the
    row index minus the column index, applied by FFT convolution."""

    def __init__(self, x, gaps, alpha, r0, r1, c0, c1):
        self.r0, self.r1, self.c0, self.c1 = r0, r1, c0, c1
        # generator from the exact first row and column: gen[d + c1 - c0 - 1]
        # is the weight at row offset minus column offset d
        row = _weights(x, gaps, alpha, r0, r0 + 1, c0 + 1, c1)[0]
        col = _weights(x, gaps, alpha, r0, r1, c0, c0 + 1)[:, 0]
        gen = np.concatenate([row[::-1], col])
        self.size = 1 << (len(gen) - 1).bit_length()
        self.spectrum = np.fft.rfft(gen, self.size)

    def add_to(self, out: np.ndarray, g: np.ndarray) -> None:
        nc = self.c1 - self.c0
        y = np.fft.irfft(np.fft.rfft(g[self.c0 : self.c1], self.size) * self.spectrum, self.size)
        out[self.r0 : self.r1] += y[nc - 1 : nc - 1 + self.r1 - self.r0]


class KernelOperator:
    """Product-integration weights of the fractional integral on a grid.

    Row ``i`` holds quadrature weights against the kernel
    ``(t_i - s)**(alpha - 1) / gamma(alpha)``; the matrix is lower
    triangular and row 0 is empty.  It is held by blocks between grid
    segments: between uniform intervals of one spacing Toeplitz but for
    the edge columns, with O(n) memory and an O(n log n) product; dense
    and exact everywhere else, so on all of a scattered or fragmented
    grid.  Arrays are read-only and reachable through attributes and lists.
    """

    def __init__(self, grid: Grid, alpha: float):
        x, gaps = grid.nodes, grid.gap_after
        segs = _segments(x, gaps)
        plan = []
        for r, (r0, r1, hr) in enumerate(segs):
            for c0, c1, hc in segs[: r + 1]:
                if hr and hc and abs(hr - hc) * (r1 - r0 + c1 - c0) <= _lattice_tol(x[c0:r1]):
                    # one lattice: Toeplitz but for the first column and the
                    # last, which carries the gap weight in rows past it
                    plan += [
                        (_DenseBlock, r0, r1, c0, c0 + 1),
                        (_ToeplitzBlock, r0, r1, c0 + 1, c1 - 1),
                        (_DenseBlock, r0, r1, c1 - 1, c1),
                    ]
                else:
                    plan.append((_DenseBlock, r0, r1, c0, c1))
        dense_bytes = sum(8 * (b[2] - b[1]) * (b[4] - b[3]) for b in plan if b[0] is _DenseBlock)
        if dense_bytes > DENSE_CAP:
            raise OperatorTooLarge(
                f"the kernel operator on {len(x)} nodes needs {dense_bytes / 2**30:.3g} GiB "
                f"of dense blocks, above the {DENSE_CAP / 2**30:.3g} GiB cap"
            )
        self.alpha, self.nodes, self.gaps = alpha, x, gaps
        self.blocks = [kind(x, gaps, alpha, *span) for kind, *span in plan]
        for arr in (a for b in self.blocks for a in vars(b).values()):
            if isinstance(arr, np.ndarray):
                arr.setflags(write=False)

    def apply(self, g: np.ndarray) -> np.ndarray:
        """The product ``W @ g``: the fractional integral at every node."""
        out = np.zeros(len(self.nodes))
        for block in self.blocks:
            block.add_to(out, g)
        out[0] = 0.0  # the empty window, exactly, whatever the FFT rounds to
        return out

    def row(self, i: int) -> np.ndarray:
        """Read-only weight row ``i``, assembled exactly; ``IndexError``
        for ``i`` outside [0, n)."""
        n = len(self.nodes)
        if not 0 <= i < n:
            raise IndexError(f"row {i} is outside the {n} rows of the operator")
        return _weights(self.nodes, self.gaps, self.alpha, i, i + 1, 0, n)[0]


@lru_cache(maxsize=4)
def frac_integral_operator(grid: Grid, order: FracOrder | float) -> KernelOperator:
    """Operator mapping node samples to fractional-integral values, cached
    per (grid, order).  The cache holds at most 4 operators of under 2 GiB
    (``DENSE_CAP``) of dense blocks plus O(n) Toeplitz arrays each, so at
    most about 8 GiB.  Raises ``OperatorTooLarge`` before allocating any
    block when the dense blocks would pass the cap."""
    return KernelOperator(grid, _alpha_of(order))


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
    ``t`` are zero and every entry is nonnegative.  Builds no operator.
    """
    i = grid.index_of(t)
    return _weights(grid.nodes, grid.gap_after, _alpha_of(order), i, i + 1, 0, len(grid))[0]


def frac_integral(g: GridFunction, order: FracOrder | float, t: float) -> float:
    """Left Riemann-Liouville fractional integral of ``g`` at a node.

    Evaluates the delta integral of ``(t - s)**(alpha - 1) * g(s)`` over
    the window from the start of the scale to ``t``, divided by
    ``gamma(alpha)``.  The value at the first node is exactly zero.
    Evaluates one weight row and builds no operator.
    """
    grid = g.grid
    i = grid.index_of(t)
    row = _weights(grid.nodes, grid.gap_after, _alpha_of(order), i, i + 1, 0, i + 1)[0]
    return float(row @ g.values[: i + 1])


def frac_integral_all(g: GridFunction, order: FracOrder | float) -> np.ndarray:
    """Fractional integral of ``g`` at every grid node."""
    return frac_integral_operator(g.grid, order).apply(g.values)


def frac_derivative(g: GridFunction, order: FracOrder | float, t: float) -> float:
    """Left Riemann-Liouville fractional derivative of ``g`` at a node.

    Computed as the delta derivative of the integral of complementary
    order ``1 - alpha``: at a right-scattered node the forward difference
    to ``sigma(t)`` is the exact delta derivative, at a right-dense node
    it is a first-order forward difference at grid resolution.  The last
    node has no neighbor to difference against and is rejected.
    Evaluates two weight rows and builds no operator.
    """
    grid = g.grid
    i = grid.index_of(t)
    if i == len(grid.nodes) - 1:
        raise ValueError("frac_derivative needs a node after t")
    w = _weights(grid.nodes, grid.gap_after, 1.0 - _alpha_of(order), i, i + 2, 0, i + 2)
    f = w @ g.values[: i + 2]
    return float((f[1] - f[0]) / (grid.nodes[i + 1] - grid.nodes[i]))


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
