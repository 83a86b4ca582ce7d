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
    "CompositionReport",
    "KernelOperator",
    "OperatorTooLarge",
    "gamma_fn",
    "kernel_weights",
    "frac_integral",
    "frac_integral_all",
    "frac_integral_operator",
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


def _alpha_of(order: float) -> float:
    """The fractional order as a float, which must lie in (0, 1)."""
    alpha = float(order)
    if not 0.0 < alpha < 1.0:  # NaN fails both comparisons
        raise ValueError("fractional order must lie in (0, 1)")
    return alpha


# Rows of the kernel operator go in blocks of this height.  A distinct block
# holds (B + 1)(B + N) + BN floats for N far-field terms, and its near field,
# B + 1 floats a row, is about half zeros.  Against 64, 32 (with N from 82 to
# 66 at SOE_STEP 0.25) took the seed-0 fragmented operator from 8.1 to
# 5.9 MB, at the same apply time; 16 saved 0.4 MB more but applied about
# 30 % slower.
ROW_BLOCK = 32
# ulps of the node magnitude by which two row blocks' node offsets may differ
# and the blocks still share their arrays
UNIFORM_ULPS = 16
DENSE_CAP = 2 * 2**30  # bytes of row blocks above which an operator is refused
# entries per weight-assembly pass, which holds about a dozen temporaries of
# this size: 2**16 raised the peak memory of a fragmented-grid solve by 5 MiB
CHUNK = 2**14


class OperatorTooLarge(ValueError):
    """The row blocks of a kernel operator would exceed ``DENSE_CAP``."""


# a cell no wider than FAR times the distance from its right end to the row
# is far: its right-hat weight takes SERIES_TERMS terms of a series, to 1e-17
FAR = 1.0 / 32.0
SERIES_TERMS = 11


@lru_cache(maxsize=8)
def _hat_series(alpha: float) -> tuple[float, ...]:
    """Coefficients of ``F(z) = int_0^z (z - w) (1 + w)**(alpha - 1) dw / z**2``
    in z, the highest first: ``binom(alpha - 1, k) / ((k + 1)(k + 2))``."""
    coef, binom = [], 1.0
    for k in range(SERIES_TERMS):
        coef.append(binom / ((k + 1) * (k + 2)))
        binom *= (alpha - 1 - k) / (k + 1)
    return tuple(reversed(coef))


def _hat_weights(a, b, h, alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """Left and right hat weights of cells of width ``h`` that start ``a``
    and end ``b`` before the row (both 0 past it).

    With ``z = h / b``, from the width itself since the rounded ``a - b`` is
    off by about ``a / h`` ulps, the kernel's integral over a cell,
    ``m0 = b**alpha expm1(alpha log1p(z)) / alpha``, does not cancel; the
    right hat's ``(m0 / z + m0 - b**alpha) / (alpha + 1)`` loses about
    ``1 / z`` ulps, so far cells take it as ``b**alpha z F(z)``.
    """
    # in place where it can be: the temporaries of a tall pass cost more
    # than its arithmetic
    at = b == 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        z = h / b
        bp = b**alpha
        m0 = np.log1p(z)
        np.expm1(np.multiply(m0, alpha, out=m0), out=m0)
        m0 *= bp
        m0 /= alpha
        m1 = m0 / z
        m1 += m0
        m1 -= bp
        m1 /= alpha + 1.0
        far = z <= FAR
        if far.any():
            f = np.zeros_like(z)
            for c in _hat_series(alpha):
                f *= z
                f += c
            f *= z
            f *= bp
            np.putmask(m1, far, f)
    # a cell that ends at the row is whole, the right hat alpha / (alpha + 1) of it
    m0[at] = a[at] ** alpha / alpha
    m1[at] = m0[at] / (alpha + 1.0)
    m0 -= m1
    m0 /= math.gamma(alpha)
    m1 /= math.gamma(alpha)
    return m0, m1


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
        left, right = _hat_weights(a, b, h, alpha)
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


SOE_STEP = 0.25  # the trapezoidal step in McLean's variable x


def _soe(beta: float, delta: float, span: float) -> tuple[np.ndarray, np.ndarray, float]:
    """Rates ``s`` and weights ``w`` of ``sum_l w_l exp(-s_l t)``, which
    approximates the kernel ``t**(beta - 1) / gamma(beta)`` on [delta, span],
    and ``eps``, twice its largest relative error on a log-spaced sample.

    The kernel is ``int_0^inf exp(-s t) s**(-beta) ds`` over
    ``gamma(beta) gamma(1 - beta)``.  In McLean's ``x``, with
    ``s = exp(x - exp(-x)) / span``, the integrand decays double
    exponentially both ways, and its trapezoidal rule of step ``SOE_STEP``
    has positive rates and weights and errs by about 50 times
    ``exp(-pi**2 / SOE_STEP)``, or 4e-16 at the step 0.25 (W. McLean,
    *Exponential sum approximations for t**(-beta)*, 2018).  That is below
    the 1e-15 or so by which the sum rounds, which sets ``eps``, so a finer
    step would only add terms.
    """
    x = np.arange(-math.log(45.0 / (1.0 - beta)), math.log(50.0 * span / delta) + 1.0, SOE_STEP)
    # in log space: as beta -> 1 the slowest rates underflow long before w
    log_s = x - np.exp(-x) - math.log(span)
    w = np.exp((1.0 - beta) * log_s + np.log1p(np.exp(-x)))
    w *= SOE_STEP / (math.gamma(beta) * math.gamma(1.0 - beta))
    s = np.exp(log_s)
    # keep n terms: the fast ones past them sum to under 1e-17 of the kernel at delta
    fast = np.cumsum((w * np.exp(-s * delta))[::-1])
    n = len(s) - np.count_nonzero(fast < 1e-17 * delta ** (beta - 1.0) / math.gamma(beta))
    # exp(-s t) is 1 to double precision below s span = 2**-60, so the slow
    # terms there are one term, at the largest of their rates
    k = max(int(np.searchsorted(s, 2.0**-60 / span)) - 1, 0)
    w, s = np.concatenate([[w[: k + 1].sum()], w[k + 1 : n]]), s[k:n]
    # 64 samples an octave: the error oscillates about once per step in x
    t = np.geomspace(delta, span, int(64 * math.log2(span / delta)) + 2)
    err = np.max(np.abs(_decays(t, s, w).sum(axis=1) * math.gamma(beta) * t ** (1.0 - beta) - 1.0))
    return s, w, 2.0 * float(err)


def _decays(d: np.ndarray, s: np.ndarray, w: np.ndarray) -> np.ndarray:
    """``w * exp(-d s)`` over every distance ``d >= 0`` and rate ``s``."""
    e = np.multiply.outer(d, -s)
    np.exp(e, out=e)
    e *= w
    return e


# series of the hat moment f2 of _moments in -z, the highest term first, for
# z < 1 where its closed form cancels: term k is (-z)**k / (k + 2)!, to 1e-17
_F2 = [1.0 / math.factorial(k + 2) for k in reversed(range(18))]


def _moments(x, gaps, s, firsts: np.ndarray) -> np.ndarray:
    """(G, N, ROW_BLOCK + 1) matrices, one per row block ``k`` of
    ``firsts``, each taking the samples at columns [b0 - 1, b0 + ROW_BLOCK),
    ``b0 = k ROW_BLOCK``, to the N history sums at ``ref = x[b1 - 1]`` of the
    cells of the row block [b0, b1) and the cell before it: each holds
    ``exp(-s (ref - u))`` integrated against the linear interpolant of the
    samples over a continuous cell (its left and right hat moments, at
    columns j and j + 1), or ``h exp(-s (ref - x_j))`` for a scattered one.
    Each pass takes whole blocks, up to ``CHUNK`` entries.
    """
    B, n, N = ROW_BLOCK, len(x), len(s)
    m = np.zeros((len(firsts), N, B + 1))
    step = max(CHUNK // max(N * B, 1), 1)
    for g in range(0, len(firsts), step):
        b0 = firsts[g : g + step, None, None] * B
        # cell j of column c is b0 - 1 + c; the cells before the grid and
        # past the block are clipped onto real ones and scaled by 0
        j = b0 - 1 + np.arange(B)
        ok = (j >= 0) & (j < n - 1)
        j = np.clip(j, 0, n - 2)
        h = x[j + 1] - x[j]
        nz = -s[:, None] * h
        # with z = s h and v = (x_{j+1} - u) / h: f1 = int_0^1 exp(-z v) v dv
        # and f2 = int_0^1 exp(-z v) (1 - v) dv, the weights of g_j and g_{j+1}
        e, f12 = np.exp(nz), np.expm1(nz)
        # f12 = f1 + f2 = -expm1(-z) / z; the closed forms f2 = (1 - f12) / z
        # and f1 = (f12 - e) / z cancel below z = 1, where f2 is its series
        f12 /= nz
        small = nz > -1.0
        zs = nz[small]
        f = np.zeros_like(zs)
        for c in _F2:
            f *= zs
            f += c
        f2 = np.empty_like(nz)
        f2[small] = f
        np.divide(f12 - 1.0, nz, out=f2, where=~small)
        f1 = f12 - f2
        np.divide(e - f12, nz, out=f1, where=~small)
        jump = gaps[j] & ok
        np.copyto(f1, e, where=jump)
        np.copyto(f2, 0.0, where=jump)
        ref = x[np.minimum(b0 + B, n) - 1]
        scale = np.exp(-s[:, None] * (ref - x[j + 1]))
        scale *= h * ok
        np.multiply(f1, scale, out=m[g : g + step, :, :B])
        f2 *= scale
        m[g : g + step, :, 1:] += f2
    return m


def _row_groups(x: np.ndarray, gaps: np.ndarray) -> tuple[np.ndarray, float]:
    """Per row block, the index of the distinct arrays it reads, and the
    largest node-offset difference between a block and the arrays it reuses.
    A block reuses the previous block's arrays when its nodes, from the one
    before it, lie at the offsets of the nodes they were built on, within
    ``UNIFORM_ULPS`` ulps of the largest node, with the same gap flags."""
    B, n = ROW_BLOCK, len(x)
    tol = UNIFORM_ULPS * np.finfo(float).eps * max(abs(x[0]), abs(x[-1]))
    group = np.zeros(-(-n // B), dtype=np.intp)
    dev, ref, ref_gaps = 0.0, np.empty(0), np.empty(0, dtype=bool)
    for k, b0 in enumerate(range(B, n, B), 1):
        off, gap = x[b0 - 1 : b0 + B] - x[b0 - 1], gaps[b0 - 1 : b0 + B - 1]
        d = np.max(np.abs(off - ref)) if len(off) == len(ref) else math.inf
        if d <= tol and np.array_equal(gap, ref_gaps):
            group[k], dev = group[k - 1], max(dev, float(d))
        else:
            group[k], ref, ref_gaps = group[k - 1] + 1, off, gap
    return group, dev


def _block_bytes(distinct: int, row_blocks: int, terms: int) -> int:
    """Bytes of an operator's ``near``, ``expo``, ``moments`` and ``decay``."""
    B = ROW_BLOCK
    return 8 * (distinct * ((B + 1) * (B + terms) + B * terms) + row_blocks * terms)


class KernelOperator:
    """Product-integration weights of the fractional integral on a grid.

    Row ``i`` holds quadrature weights against the kernel
    ``(t_i - s)**(alpha - 1) / gamma(alpha)``; the matrix is lower
    triangular and row 0 is empty.  Rows go in blocks of ``ROW_BLOCK``.
    The cells inside a row block and the one before it keep their exact
    weights (``near``).  Every earlier cell, across every gap, enters
    through N history sums at the node before the block, carried on over
    the whole grid: ``H <- decay H + moments g``, read out by ``expo``, in
    O(nN) memory and time.  Blocks of equal geometry share ``near``,
    ``expo`` and ``moments`` (``_row_groups``); ``lattice_dev``, the node
    offset difference behind that, is not counted in ``eps``.

    The sum's relative kernel error is at most ``eps`` (0 for one row
    block).  Every weight integrates the kernel against a nonnegative hat,
    so every far weight is within ``eps`` of its exact value, relatively.
    Arrays are read-only attributes, each held once.
    """

    def __init__(self, grid: Grid, alpha: float):
        x, gaps = grid.nodes, grid.gap_after
        B, n = ROW_BLOCK, len(x)
        group, self.lattice_dev = _row_groups(x, gaps)
        self.alpha, self.nodes, self.gaps = alpha, x, gaps
        # a block's far cells end at the cell two before its first row:
        # their kernel argument is nearest at its right end if continuous,
        # at its left if scattered
        rows = np.arange(B, n, B)
        last = rows - 2
        if len(rows):
            delta = np.min(x[rows] - np.where(gaps[last], x[last], x[last + 1]))
            self.rates, self.weights, self.eps = _soe(alpha, float(delta), x[-1] - x[0])
        else:
            self.rates, self.weights, self.eps = np.empty(0), np.empty(0), 0.0
        s, w, terms = self.rates, self.weights, len(self.rates)
        distinct = int(group[-1]) + 1
        need = _block_bytes(distinct, len(group), terms)
        if need > DENSE_CAP:
            raise OperatorTooLarge(
                f"the kernel operator on {n} nodes needs {need / 2**30:.3g} GiB "
                f"of blocks, above the {DENSE_CAP / 2**30:.3g} GiB cap"
            )
        # distinct arrays g come from the first block k that reads them
        firsts = np.flatnonzero(np.diff(group, prepend=-1))
        self.moments = _moments(x, gaps, s, firsts)
        # expo reads the sums at the node before the block from each of its
        # rows; block 0 has no sums, and rows past the grid read none
        r = firsts[:, None] * B + np.arange(B)
        self.expo = _decays(x[np.minimum(r, n - 1)] - x[np.maximum(r[:, :1] - 1, 0)], s, w)
        self.expo[(r >= n) | (r < B)] = 0.0
        # the near field of block k takes columns [b0 - 1, b1), the first
        # from cell b0 - 1 alone: the nodes are cut there so no earlier cell adds
        self.near = np.zeros((distinct, B, B + 1))
        for g, k in enumerate(firsts.tolist()):
            b0 = k * B
            b1, lo = min(b0 + B, n), max(b0 - 1, 0)
            block = _weights(x[lo:], gaps[lo:], alpha, b0 - lo, b1 - lo, 0, b1 - lo)
            self.near[g, : b1 - b0, lo - b0 + 1 : b1 - b0 + 1] = block
        # decay[k] carries the sums from the node before block k - 1 to the
        # one before block k; block 1 starts them, so it needs none
        self.decay = np.zeros((len(group), terms))
        ends = rows[1:] - 1
        self.decay[2:] = np.exp(np.multiply.outer(x[ends - B] - x[ends], s))
        # runs of blocks: one set of arrays for all of them, or the blocks'
        # own consecutive sets
        starts = np.flatnonzero(np.diff(group, prepend=-1, append=-1)).tolist()
        self.runs = []
        for k0, k1 in zip(starts, starts[1:]):
            shared = k1 - k0 > 1
            if not shared and self.runs and not self.runs[-1][3]:
                k0 = self.runs.pop()[0]
            self.runs.append((k0, k1, int(group[k0]), shared))
        for arr in vars(self).values():
            if isinstance(arr, np.ndarray):
                arr.setflags(write=False)

    def to_json(self) -> dict:
        """Row blocks, distinct blocks, bytes, and the far field's term
        count, kernel error and lattice deviation: fixed by the grid and
        order, so equal run to run."""
        return {
            "row_blocks": len(self.decay),
            "distinct_blocks": len(self.near),
            "bytes": sum(a.nbytes for a in vars(self).values() if isinstance(a, np.ndarray)),
            "soe_terms": len(self.rates),
            "eps": self.eps,
            "lattice_dev": self.lattice_dev,
        }

    def _per_block(self, a: np.ndarray, v: np.ndarray) -> np.ndarray:
        """``a[group[k]] @ v[k]`` for every row block k."""
        out = np.empty((len(v), a.shape[1]))
        for k0, k1, g, shared in self.runs:
            if shared:
                out[k0:k1] = v[k0:k1] @ a[g].T
            else:
                out[k0:k1] = np.vecdot(a[g : g + k1 - k0], v[k0:k1, None, :])
        return out

    def apply(self, g: np.ndarray) -> np.ndarray:
        """The product ``W @ g``: the fractional integral at every node."""
        B, n, nb = ROW_BLOCK, len(self.nodes), len(self.decay)
        # window k holds g at columns [kB - 1, (k + 1) B); the column before
        # the grid and the rows past it read zero
        gp = np.zeros(nb * B + 1)
        gp[1 : n + 1] = g
        gw = np.lib.stride_tricks.sliding_window_view(gp, B + 1)[::B]
        inc = self._per_block(self.moments, gw)
        hist = np.zeros_like(inc)
        for d, i, prev, h in zip(self.decay[1:], inc, hist, hist[1:]):
            np.multiply(d, prev, out=h)
            h += i
        y = self._per_block(self.near, gw) + self._per_block(self.expo, hist)
        return y.ravel()[:n]

    def row(self, i: int) -> np.ndarray:
        """Read-only weight row ``i``, assembled exactly; ``IndexError``
        for ``i`` outside [0, n)."""
        n = len(self.nodes)
        if not 0 <= i < n:
            raise IndexError(f"row {i} is outside the {n} rows of the operator")
        return _weights(self.nodes, self.gaps, self.alpha, i, i + 1, 0, n)[0]


@lru_cache(maxsize=4)
def frac_integral_operator(grid: Grid, order: float) -> KernelOperator:
    """Operator mapping node samples to fractional-integral values, cached
    per (grid, order).  The cap ``DENSE_CAP`` counts the row blocks, so the
    4 cached operators hold at most 8 GiB of blocks beside their grids; a
    4350-node fragmented grid takes 5.6 MiB, a 20000-point discrete scale
    28 MiB and a 5004-node grid of two uniform intervals 0.33 MiB.  Raises
    ``OperatorTooLarge`` before allocating any block when the blocks would
    pass the cap."""
    return KernelOperator(grid, _alpha_of(order))


def kernel_weights(grid: Grid, order: float, t: float) -> np.ndarray:
    """Read-only weight row of the fractional integral at the grid node ``t``.

    Entry ``j`` multiplies the sample at node ``j``; entries at nodes past
    ``t`` are zero and every entry is nonnegative.  Builds no operator.
    """
    i = grid.index_of(t)
    return _weights(grid.nodes, grid.gap_after, _alpha_of(order), i, i + 1, 0, len(grid))[0]


def frac_integral(g: GridFunction, order: float, t: float) -> float:
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


def frac_integral_all(g: GridFunction, order: float) -> np.ndarray:
    """Fractional integral of ``g`` at every grid node."""
    return frac_integral_operator(g.grid, order).apply(g.values)


def frac_derivative(g: GridFunction, order: float, t: float) -> float:
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


def frac_derivative_all(g: GridFunction, order: float) -> np.ndarray:
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


def verify_composition(g: GridFunction, order: float) -> CompositionReport:
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
