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
# It is also the row-block height of the sum-of-exponentials blocks.
MIN_SEGMENT = 128
# ulps of the node magnitude by which a uniform lattice's nodes may stray
UNIFORM_ULPS = 16
DENSE_CAP = 2 * 2**30  # bytes of blocks, of every kind, above which an operator is refused
# entries per weight-assembly pass, which holds about a dozen temporaries of
# this size: 2**16 raised the peak memory of a fragmented-grid solve by 5 MiB
CHUNK = 2**14


class OperatorTooLarge(ValueError):
    """The blocks of a kernel operator would exceed ``DENSE_CAP``."""


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


def _soe(beta: float, delta: float, span: float) -> tuple[np.ndarray, np.ndarray, float]:
    """Rates ``s`` and weights ``w`` of ``sum_l w_l exp(-s_l t)``, which
    approximates the kernel ``t**(beta - 1) / gamma(beta)`` on [delta, span],
    and ``eps``, twice its largest relative error on a log-spaced sample.

    The kernel is ``int_0^inf exp(-s t) s**(-beta) ds`` over
    ``gamma(beta) gamma(1 - beta)``.  Gauss-Jacobi (Golub-Welsch) takes the
    weight ``s**(-beta)`` on [0, 1/span]; 10-point Gauss-Legendre rules
    take dyadic panels from there to ``40 / delta``, past which the
    integrand is below ``exp(-40)`` of its value on [0, 1/delta].
    """
    a = -beta  # Jacobi weight (1 + y)**a on [-1, 1]
    k = np.arange(16.0)
    diag = a * a / ((2 * k + a) * (2 * k + a + 2))
    k = k[1:]
    off = np.sqrt(4 * k * k * (k + a) ** 2 / ((2 * k + a) ** 2 * ((2 * k + a) ** 2 - 1)))
    y, vec = np.linalg.eigh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    top = 1.0 / span
    u, wu = np.polynomial.legendre.leggauss(10)
    left = top * 2.0 ** np.arange(max(math.ceil(math.log2(40.0 * span / delta)), 1))
    panel = (left[:, None] * (3.0 + u) / 2.0).ravel()
    # s = top (1 + y) / 2; the weight's mass on [-1, 1] is 2**(1 + a) / (1 + a)
    s = np.concatenate([top * (1.0 + y) / 2.0, panel])
    w = np.concatenate(
        [
            top ** (1.0 + a) / (1.0 + a) * vec[0] ** 2,
            (left[:, None] / 2.0 * wu).ravel() * panel**a,
        ]
    ) / (math.gamma(beta) * math.gamma(1.0 - beta))
    # 64 samples an octave: a panel's error varies over about one octave
    t = np.geomspace(delta, span, int(64 * math.log2(span / delta)) + 2)
    err = np.max(np.abs(_decays(t, s, w).sum(axis=1) * math.gamma(beta) * t ** (1.0 - beta) - 1.0))
    return s, w, 2.0 * float(err)


def _decays(d: np.ndarray, s: np.ndarray, w: np.ndarray) -> np.ndarray:
    """``w * exp(-d s)`` over every distance ``d >= 0`` and rate ``s``."""
    e = np.multiply.outer(d, -s)
    np.exp(e, out=e)
    e *= w
    return e


# series of the hat moment f2 of _moments, for z < 1 where its closed form
# cancels: coefficient k is (-1)**k / (k + 2)!, and 18 terms reach 1e-17
_F2 = np.array([(-1.0) ** k / math.factorial(k + 2) for k in range(18)])


def _moments(x, gaps, s, j0: int, j1: int, ref: float, col0: int, ncols: int) -> np.ndarray:
    """(N, ncols) matrix taking samples at columns [col0, col0 + ncols) to
    the N history sums at ``ref`` of the cells [j0, j1), which end by ref.

    A sum holds ``exp(-s (ref - u))`` integrated against the linear
    interpolant of the samples over each continuous cell (its left and
    right hat moments, at columns j and j + 1), or the graininess term
    ``h exp(-s (ref - x_j))`` of each scattered cell, at column j.  A
    right hat past the last column is dropped: that column is not here.
    """
    m = np.zeros((len(s), ncols))
    for a in range(j0, j1, MIN_SEGMENT):
        b = min(a + MIN_SEGMENT, j1)
        xr = x[a + 1 : b + 1]
        h = xr - x[a:b]
        z = np.multiply.outer(s, h)
        # with v = (x_{j+1} - u) / h: f1 = int_0^1 exp(-z v) v dv and
        # f2 = int_0^1 exp(-z v) (1 - v) dv, the weights of g_j and g_{j+1}
        e, em = np.exp(-z), np.expm1(-z)
        f1 = (-em - z * e) / (z * z)
        f2 = (z + em) / (z * z)
        # below z = 1, f2 from its series and f1 from f1 + f2 = -expm1(-z) / z
        small = z < 1.0
        zs = z[small]
        f2[small] = np.polynomial.polynomial.polyval(zs, _F2)
        f1[small] = -em[small] / zs - f2[small]
        jump = gaps[a:b]
        f1[:, jump] = e[:, jump]
        f2[:, jump] = 0.0
        scale = np.exp(np.multiply.outer(-s, ref - xr)) * h
        k = a - col0
        m[:, k : k + b - a] += f1 * scale
        end = min(k + 1 + b - a, ncols)
        m[:, k + 1 : end] += (f2 * scale)[:, : end - k - 1]
    return m


class _DenseBlock:
    """Explicit weights of rows [r0, r1) at columns [c0, c1)."""

    kind = "dense"

    def __init__(self, op, r0, r1, c0, c1):
        self.r0, self.r1, self.c0, self.c1 = r0, r1, c0, c1
        self.w = _weights(op.nodes, op.gaps, op.alpha, r0, r1, c0, c1)

    @staticmethod
    def nbytes(r0, r1, c0, c1, terms):
        return 8 * (r1 - r0) * (c1 - c0)

    def add_to(self, out: np.ndarray, g: np.ndarray) -> None:
        gc = g[self.c0 : self.c1]
        diagonal = (self.r0, self.r1) == (self.c0, self.c1)
        out[self.r0 : self.r1] += lower_matvec(self.w, gc) if diagonal else np.vecdot(self.w, gc)


class _ToeplitzBlock:
    """Weights of rows [r0, r1) at columns [c0, c1) that depend only on the
    row index minus the column index, applied by FFT convolution."""

    kind = "toeplitz"

    def __init__(self, op, r0, r1, c0, c1):
        x, gaps, alpha = op.nodes, op.gaps, op.alpha
        self.r0, self.r1, self.c0, self.c1 = r0, r1, c0, c1
        # generator from the exact first row and column: gen[d + c1 - c0 - 1]
        # is the weight at row offset minus column offset d
        row = _weights(x, gaps, alpha, r0, r0 + 1, c0 + 1, c1)[0]
        col = _weights(x, gaps, alpha, r0, r1, c0, c0 + 1)[:, 0]
        gen = np.concatenate([row[::-1], col])
        self.size = 1 << (len(gen) - 1).bit_length()
        self.spectrum = np.fft.rfft(gen, self.size)

    @staticmethod
    def nbytes(r0, r1, c0, c1, terms):
        return 16 * ((1 << (r1 - r0 + c1 - c0 - 2).bit_length()) // 2 + 1)

    def add_to(self, out: np.ndarray, g: np.ndarray) -> None:
        nc = self.c1 - self.c0
        y = np.fft.irfft(np.fft.rfft(g[self.c0 : self.c1], self.size) * self.spectrum, self.size)
        out[self.r0 : self.r1] += y[nc - 1 : nc - 1 + self.r1 - self.r0]


class _ExpBlock:
    """Weights of rows [r0, r1) at columns [c0, c1), both sides longer than
    ``MIN_SEGMENT``, with the kernel on every far cell replaced by the
    operator's sum of N exponentials, in O((rows + columns) N) memory.

    Off the diagonal every cell is far: ``E_R (M_C g_C)``, with ``M_C``
    the moments of the cells at ``x[c1]`` and ``E_R`` the decays from
    there to the rows.  On the diagonal, rows go in blocks of
    ``MIN_SEGMENT``.  The cells inside a row block and the one just
    before it keep their exact weights (``near``).  Every earlier cell is
    far and enters through N history sums at the node before the block,
    carried on from block to block: ``H <- exp(-s dx) H + M_b g_b``.
    """

    kind = "exp"

    def __init__(self, op, r0, r1, c0, c1):
        x, gaps, s, w = op.nodes, op.gaps, op.rates, op.weights
        self.r0, self.r1, self.c0, self.c1 = r0, r1, c0, c1
        if r0 >= c1:
            self.moments = _moments(x, gaps, s, c0, c1, x[c1], c0, c1 - c0)
            self.expo = _decays(x[r0:r1] - x[c1], s, w)
            return
        B, nb = MIN_SEGMENT, -(-(r1 - r0) // MIN_SEGMENT)
        self.near = np.zeros((nb, B, B + 1))
        self.expo = np.zeros((nb, B, len(s)))
        self.moments = np.zeros((nb, len(s), B + 1))
        self.decay = np.zeros((nb, len(s)))
        # row block k takes columns [b0 - 1, b1), the first from cell b0 - 1
        # alone: the nodes are cut there so no earlier cell adds to it
        for k, b0 in enumerate(range(r0, r1, B)):
            b1, lo = min(b0 + B, r1), max(b0 - 1, 0)
            near = _weights(x[lo:], gaps[lo:], op.alpha, b0 - lo, b1 - lo, 0, b1 - lo)
            self.near[k, : b1 - b0, lo - b0 + 1 : b1 - b0 + 1] = near
            if k:
                self.expo[k, : b1 - b0] = _decays(x[b0:b1] - x[b0 - 1], s, w)
            if k > 1:
                self.decay[k] = np.exp(-s * (x[b0 - 1] - x[b0 - 1 - B]))
            if b1 < r1:
                j0 = max(b0 - 1, c0)
                self.moments[k] = _moments(x, gaps, s, j0, b1 - 1, x[b1 - 1], b0 - 1, B + 1)

    @staticmethod
    def reach(x, gaps, r0, r1, c0, c1) -> float:
        """Smallest distance from a row to the nearest kernel argument of a
        far cell: the right end of a continuous cell, the left of a scattered one."""
        if r0 >= c1:
            rows, last = np.array([r0]), np.array([c1 - 1])
        else:
            rows = np.arange(r0 + MIN_SEGMENT, r1, MIN_SEGMENT)
            last = rows - 2
        return float(np.min(x[rows] - np.where(gaps[last], x[last], x[last + 1])))

    @staticmethod
    def nbytes(r0, r1, c0, c1, terms):
        if r0 >= c1:
            return 8 * terms * (r1 - r0 + c1 - c0)
        B = MIN_SEGMENT
        return 8 * -(-(r1 - r0) // B) * (B * terms + terms * (B + 1) + B * (B + 1) + terms)

    def add_to(self, out: np.ndarray, g: np.ndarray) -> None:
        if not hasattr(self, "near"):
            hist = np.vecdot(self.moments, g[self.c0 : self.c1])
            out[self.r0 : self.r1] += np.vecdot(self.expo, hist)
            return
        B, nb = MIN_SEGMENT, len(self.near)
        # window k holds g at columns [r0 + kB - 1, r0 + (k + 1) B); the
        # column before the block and the rows past it read zero
        gp = np.zeros(nb * B + 1)
        gp[1 : 1 + self.c1 - self.c0] = g[self.c0 : self.c1]
        gw = np.lib.stride_tricks.sliding_window_view(gp, B + 1)[::B, None, :]
        inc = np.vecdot(self.moments, gw)
        hist = np.zeros_like(inc)
        for k in range(1, nb):
            hist[k] = self.decay[k] * hist[k - 1] + inc[k - 1]
        y = np.vecdot(self.near, gw) + np.vecdot(self.expo, hist[:, None, :])
        out[self.r0 : self.r1] += y.ravel()[: self.r1 - self.r0]


class KernelOperator:
    """Product-integration weights of the fractional integral on a grid.

    Row ``i`` holds quadrature weights against the kernel
    ``(t_i - s)**(alpha - 1) / gamma(alpha)``; the matrix is lower
    triangular and row 0 is empty.  It is held by blocks between grid
    segments, of three kinds:

    - between uniform intervals of one spacing, Toeplitz but for the edge
      columns: O(n) memory and an O(n log n) product, exact;
    - where either side has at most ``MIN_SEGMENT`` nodes, dense and exact;
    - everywhere else, so on all of a long scattered or fragmented run,
      ``_ExpBlock``: exact near the diagonal, and a sum of ``N``
      exponentials for the kernel on the far cells, in O(nN).

    The sum's relative kernel error is at most ``eps`` (0 with no such
    block).  Every weight integrates the kernel against a nonnegative hat,
    so every far weight is within ``eps`` of its exact value, relatively.
    Arrays are read-only and reachable through attributes and lists.
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
                elif min(r1 - r0, c1 - c0) > MIN_SEGMENT:
                    plan.append((_ExpBlock, r0, r1, c0, c1))
                else:
                    plan.append((_DenseBlock, r0, r1, c0, c1))
        self.alpha, self.nodes, self.gaps = alpha, x, gaps
        far = [_ExpBlock.reach(x, gaps, *span) for kind, *span in plan if kind is _ExpBlock]
        if far:
            self.rates, self.weights, self.eps = _soe(alpha, min(far), x[-1] - x[0])
        else:
            self.rates, self.weights, self.eps = np.empty(0), np.empty(0), 0.0
        need = sum(kind.nbytes(*span, len(self.rates)) for kind, *span in plan)
        if need > DENSE_CAP:
            raise OperatorTooLarge(
                f"the kernel operator on {len(x)} nodes needs {need / 2**30:.3g} GiB "
                f"of blocks, above the {DENSE_CAP / 2**30:.3g} GiB cap"
            )
        self.blocks = [kind(self, *span) for kind, *span in plan]
        for arr in self._arrays():
            arr.setflags(write=False)

    def _arrays(self):
        yield from (self.nodes, self.gaps, self.rates, self.weights)
        for b in self.blocks:
            yield from (a for a in vars(b).values() if isinstance(a, np.ndarray))

    def to_json(self) -> dict:
        """Block counts per kind, bytes, and the far field's term count and
        kernel error: fixed by the grid and order, so equal run to run."""
        return {
            "blocks": {
                k: sum(b.kind == k for b in self.blocks) for k in ("toeplitz", "dense", "exp")
            },
            "bytes": sum(a.nbytes for a in self._arrays()),
            "soe_terms": len(self.rates),
            "eps": self.eps,
        }

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
    per (grid, order).  The cap ``DENSE_CAP`` counts the blocks of every
    kind, so the 4 cached operators hold at most 8 GiB of blocks beside
    their grids; a 4350-node fragmented grid takes 18 MiB, a 20000-point
    discrete scale 90 MiB.  Raises ``OperatorTooLarge`` before allocating
    any block when the blocks would pass the cap."""
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
