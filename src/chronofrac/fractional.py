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
# B + 1 floats a row, is about half zeros.  Against 64, 32 took the seed-0
# fragmented operator from 8.1 to 5.9 MB at N = 66, at the same apply time
# (the Gauss fold of _soe then took N to 55 and it to 5.1 MB); 16 saved
# 0.4 MB more but applied about 30 % slower.
ROW_BLOCK = 32
# ulps of the node magnitude by which two row blocks' node offsets may differ
# and the blocks still share their arrays
UNIFORM_ULPS = 16
DENSE_CAP = 2 * 2**30  # bytes of row blocks above which an operator is refused
# entries per pass of _moments, which holds about a dozen temporaries of this
# size: 2**16 raised the peak memory of a fragmented-grid solve by 5 MiB
CHUNK = 2**14
# row blocks whose decays a workspace of several lanes repeats at once: on
# the 2504-node sweep-lambda grid (79 row blocks, 63 terms) 8 of them take
# a fifth of a (6, n) buffer, where all 79 would take two
DECAY_CHUNK = 8


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


def _weights(x, gaps, alpha: float, r0: int, r1: int) -> np.ndarray:
    """Read-only weights of rows [r0, r1) at every column of ``x``, in one
    pass over the cells left of row ``r1 - 1``."""
    # cell j adds to columns j and j + 1 in every row past x_j; the clamps zero
    # a and b in the other rows and change no valid entry: rounding is monotone
    m = r1 - 1
    xi, xj, xk = x[r0:r1, None], x[:m], x[1 : m + 1]
    h = xk - xj
    a = np.maximum(xi - xj, 0.0)
    b = np.maximum(xi - xk, 0.0)
    left, right = _hat_weights(a, b, h, alpha)
    # a scattered cell of width h is one graininess-weighted kernel term
    inv_gamma = 1.0 / math.gamma(alpha)
    jump = np.flatnonzero(gaps[:m])
    aj = a[:, jump]
    with np.errstate(divide="ignore"):
        left[:, jump] = np.where(aj > 0.0, aj ** (alpha - 1.0), 0.0) * h[jump] * inv_gamma
    right[:, jump] = 0.0
    # allocated after _hat_weights returns, so never beside its temporaries
    w = np.zeros((r1 - r0, len(x)))
    w[:, :m] += left
    w[:, 1 : m + 1] += right
    # every weight is nonnegative in exact arithmetic; clamp the few that
    # round a hair below zero, in place, so the block is never copied
    np.maximum(w, 0.0, out=w)
    w.setflags(write=False)
    return w


SOE_STEP = 0.25  # the trapezoidal step in McLean's variable x
# the terms with s span <= FOLD_SIGMA become a FOLD_POINTS-point Gauss rule
FOLD_SIGMA = 1.0
FOLD_POINTS = 7


def _trapezoid(beta: float, span: float, stop: float) -> tuple[np.ndarray, np.ndarray]:
    """McLean's trapezoidal rule for the order-``beta`` kernel on a window of
    ``span``, over the steps ``x < stop``: each term's log rate and weight.
    ``log(s span)`` and ``w span**(1 - beta)`` depend on the order alone."""
    x = np.arange(-math.log(45.0 / (1.0 - beta)), stop, SOE_STEP)
    # in log space: as beta -> 1 the slowest rates underflow long before w
    log_s = x - np.exp(-x) - math.log(span)
    w = np.exp((1.0 - beta) * log_s + np.log1p(np.exp(-x)))
    w *= SOE_STEP / (math.gamma(beta) * math.gamma(1.0 - beta))
    return log_s, w


def _stieltjes(sigma: list[float], w: list[float], k: int) -> tuple[list[float], list[float]]:
    """Coefficients ``a_j``, ``b_j`` (j < k) of the monic polynomials
    ``p_{j+1} = (x - a_j) p_j - b_j p_{j-1}`` orthogonal for the measure
    ``sum_l w_l delta(x - sigma_l)``, ``b_0`` its mass: Stieltjes' procedure."""
    a, b = [], []
    prev, cur, norm_prev = [0.0] * len(sigma), [1.0] * len(sigma), 1.0
    for _ in range(k):
        sq = [wl * p * p for wl, p in zip(w, cur)]
        norm = math.fsum(sq)
        a.append(math.fsum(q * x for q, x in zip(sq, sigma)) / norm)
        b.append(norm / norm_prev)
        prev, cur = cur, [(x - a[-1]) * p - b[-1] * q for x, p, q in zip(sigma, cur, prev)]
        norm_prev = norm
    return a, b


def _jacobi_nodes(a: list[float], b: list[float]) -> list[float]:
    """Zeros of ``p_k``, ascending: the eigenvalues of the Jacobi matrix of
    diagonal ``a`` and off-diagonal ``sqrt(b[1:])``, by implicit QL with
    Wilkinson shifts."""
    d, e = list(a), [math.sqrt(v) for v in b[1:]] + [0.0]
    k = len(d)
    for l in range(k):
        while True:
            m = l
            while m < k - 1 and abs(e[m]) > 2.0**-53 * (abs(d[m]) + abs(d[m + 1])):
                m += 1
            if m == l:
                break
            g = (d[l + 1] - d[l]) / (2.0 * e[l])
            g = d[m] - d[l] + e[l] / (g + math.copysign(math.hypot(g, 1.0), g))
            s = c = 1.0
            p = 0.0
            # no e[i] of the sweep is 0, so neither is any rotation's r
            for i in range(m - 1, l - 1, -1):
                f, h = s * e[i], c * e[i]
                r = e[i + 1] = math.hypot(f, g)
                s, c = f / r, g / r
                g = d[i + 1] - p
                r = (d[i] - g) * s + 2.0 * c * h
                p = s * r
                d[i + 1] = g + p
                g = c * r - h
            d[l] -= p
            e[l] = g
            e[m] = 0.0
    return sorted(d)


def _recurrence(a: list[float], b: list[float], x: float) -> tuple[float, float, float]:
    """``p_k(x)``, ``p_k'(x)`` and ``sum_{j<k} p_j(x)**2 / |p_j|**2``, with
    ``|p_j|**2 = b_0 ... b_j``: the reciprocal of the Christoffel number at a
    zero ``x`` of ``p_k``, its Gauss weight."""
    p_prev, p, dp_prev, dp, norm, total = 0.0, 1.0, 0.0, 0.0, 1.0, 0.0
    for aj, bj in zip(a, b):
        norm *= bj
        total += p * p / norm
        p_prev, p, dp_prev, dp = p, (x - aj) * p - bj * p_prev, dp, p + (x - aj) * dp - bj * dp_prev
    return p, dp, total


@lru_cache(maxsize=8)
def _fold(beta: float) -> tuple[int, tuple[float, ...], tuple[float, ...]]:
    """The count of McLean's terms with ``s span <= FOLD_SIGMA``, and the
    nodes ``s span`` and weights ``w span**(1 - beta)`` of the
    ``FOLD_POINTS``-point Gauss rule of their discrete measure, in Python
    floats: a LAPACK call would page OpenBLAS in, 0.5 MiB per process."""
    # sigma = 1 at x = 0.567, so the steps below x = 1 hold every folded term
    log_sigma, w = _trapezoid(beta, 1.0, 1.0)
    m = int(np.count_nonzero(log_sigma <= math.log(FOLD_SIGMA)))
    a, b = _stieltjes(np.exp(log_sigma[:m]).tolist(), w[:m].tolist(), FOLD_POINTS)
    nodes, weights = [], []
    for x in _jacobi_nodes(a, b):
        # Newton on p_k: QL leaves the small nodes off by ulps of the largest
        for _ in range(2):
            p, dp, _ = _recurrence(a, b, x)
            x -= p / dp
        nodes.append(x)
        weights.append(1.0 / _recurrence(a, b, x)[2])
    # the weights sum to the mass b_0, up to rounding that scales them all
    scale = b[0] / math.fsum(weights)
    return m, tuple(nodes), tuple(v * scale for v in weights)


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

    The slow terms, ``sigma = s span <= S = FOLD_SIGMA``, become the
    ``k = FOLD_POINTS`` point Gauss rule of their measure ``mu`` in sigma
    (Golub & Welsch 1969): positive nodes and weights, exact for
    ``sigma**j``, j < 2k.  On ``g = exp(-sigma t / span)`` it errs by
    ``g^(2k)(xi) / (2k)! int pi_k**2 dmu``, with ``|g^(2k)| <= 1`` for
    ``t <= span`` and, as the monic Chebyshev polynomial on [0, S] is at
    most ``2 (S / 4)**k``, ``int pi_k**2 dmu <= 4 (S / 4)**(2k) mu``.
    ``mu`` is within 20 % of ``(S / span)**(1 - beta) / (gamma(beta)
    gamma(2 - beta))``, so over the kernel the error is at most
    ``4.8 S**(1 - beta) (S / 4)**(2k) / (gamma(2 - beta) (2k)!)``,
    2.3e-19 at S = 1 and k = 7.  ``mu`` depends on beta alone, up to
    the factor ``span**(beta - 1)``, so the rule is cached per order.
    """
    log_s, w = _trapezoid(beta, span, math.log(50.0 * span / delta) + 1.0)
    s = np.exp(log_s)
    # keep n terms: the fast ones past them sum to under 1e-17 of the kernel at delta
    fast = np.cumsum((w * np.exp(-s * delta))[::-1])
    n = len(s) - np.count_nonzero(fast < 1e-17 * delta ** (beta - 1.0) / math.gamma(beta))
    m, nodes, weights = _fold(beta)
    s = np.concatenate([np.array(nodes) / span, s[m:n]])
    w = np.concatenate([np.array(weights) * span ** (beta - 1.0), w[m:n]])
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
        self.n = n
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
            block = _weights(x[lo:b1], gaps[lo:b1], alpha, b0 - lo, b1 - lo)
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

    def _per_block(self, a: np.ndarray, v: np.ndarray, out: np.ndarray) -> np.ndarray:
        """``out[:, k] = a[group[k]] @ v[:, k]`` for every row block k and
        lane: each lane makes the calls a lone lane would, so lanes agree
        bit for bit with separate applies."""
        for k0, k1, g, shared in self.runs:
            if shared:
                np.matmul(v[:, k0:k1], a[g].T, out=out[:, k0:k1])
            else:
                np.vecdot(a[g : g + k1 - k0], v[:, k0:k1, None, :], out=out[:, k0:k1])
        return out

    def apply(self, g: np.ndarray) -> np.ndarray:
        """The product ``W @ g``: the fractional integral at every node.

        ``g`` is one sample vector of length n, or an (m, n) array of m
        lanes, lanes first.  Row i of the result is lane i's integral,
        bit-identical to applying the operator to that lane alone.  Each
        call allocates a workspace for its lanes: the padded samples, the
        history sums, past one lane the decays of ``DECAY_CHUNK`` row blocks
        repeated per lane, and the result.  A Picard batch allocates one and
        reuses it in every apply, which then allocates nothing at the size of
        its lanes.
        """
        n = self.n
        if np.shape(g)[-1:] != (n,):
            raise ValueError(
                f"the operator on {n} nodes takes {n} samples on the last axis, "
                f"not an array of shape {np.shape(g)}"
            )
        ws = _Workspace(self, np.size(g) // n)
        ws.window[...] = np.reshape(g, (-1, n))
        return ws.apply(len(ws.window)).reshape(np.shape(g))


class _Workspace:
    """The buffers of ``KernelOperator.apply`` to up to ``width`` lanes,
    allocated once and reused by every ``apply``.

    ``gp`` and ``image`` have one row of nb B + 1 floats a lane, node j of
    the lane at column j + 1, the columns that ``nodes`` views.  Lane i's
    samples go in ``window[i]``, the nodes of row i of ``gp``; ``apply``
    zeroes the other columns, so a caller may run an elementwise step over
    the whole rows.  ``hist[k]`` holds the N history sums at the node before
    row block k; ``hist[0]`` stays zero.  ``decay`` takes the operator's
    decays of ``DECAY_CHUNK`` row blocks at a time, repeated once per lane,
    so that each step of several lanes runs over contiguous (m, N) blocks: a
    broadcast step costs more than the step itself.  One lane steps by the
    operator's own decays and has no ``decay``.  The result goes in
    ``image``, at the samples' columns; each ``apply`` writes over them.
    """

    def __init__(self, op: KernelOperator, width: int):
        nb, terms = len(op.decay), len(op.rates)
        self.op = op
        self.gp = np.zeros((width, nb * ROW_BLOCK + 1))
        self.window = self.nodes(self.gp)
        self.hist = np.zeros((nb + 1, width, terms))
        self.decay = np.empty((DECAY_CHUNK, width, terms)) if width > 1 else None
        self.image = np.zeros_like(self.gp)

    def nodes(self, rows: np.ndarray) -> np.ndarray:
        """The node columns of ``rows``, rows laid out as ``gp``'s."""
        return rows[:, 1 : self.op.n + 1]

    def apply(self, m: int) -> np.ndarray:
        """``W @ g`` for the first ``m`` lanes of ``window``, written into
        ``image``, as an (m, n) view of it."""
        op, B, nb = self.op, ROW_BLOCK, len(self.op.decay)
        gp, hist, image = self.gp[:m], self.hist[:, :m], self.image[:m]
        gp[:, 0] = 0.0
        gp[:, op.n + 1 :] = 0.0
        # window k holds a lane at columns [kB - 1, (k + 1) B): a strided view
        # made directly, since sliding_window_view spends more Python time on
        # it than a lane's recurrence step takes
        gw = np.ndarray((m, nb, B + 1), float, gp, 0, (gp.strides[0], 8 * B, 8))
        # block k's moments go to hist[k + 1], and each step adds the sums
        # before block k, carried on by its decay
        op._per_block(op.moments, gw, hist[1:].transpose(1, 0, 2))
        # several lanes by a chunk of decays at a time, one lane by all the
        # operator's own at once
        step = DECAY_CHUNK if m > 1 else nb
        for k in range(1, nb, step):
            decay = op.decay[k : k + step, None]
            if m > 1:
                repeated = self.decay[: len(decay), :m]
                repeated[...] = decay
                decay = repeated
            for d, prev, h in zip(decay, hist[k - 1 :], hist[k:]):
                h += d * prev
        op._per_block(op.near, gw, image[:, 1:].reshape(m, nb, B))
        # the far field's part goes into the windows, which are read by now,
        # at the same columns as the near field's; column 0 stays zero
        op._per_block(op.expo, hist[:nb].transpose(1, 0, 2), gw[..., 1:])
        image += gp
        return self.nodes(image)


@lru_cache(maxsize=4)
def frac_integral_operator(grid: Grid, order: float) -> KernelOperator:
    """Operator mapping node samples to fractional-integral values, cached
    per (grid, order).  The cap ``DENSE_CAP`` counts the row blocks, so the
    4 cached operators hold at most 8 GiB of blocks beside their grids; a
    4350-node fragmented grid takes 4.9 MiB, a 20000-point discrete scale
    24 MiB and a 5004-node grid of two uniform intervals 0.24 MiB.  Raises
    ``OperatorTooLarge`` before allocating any block when the blocks would
    pass the cap."""
    return KernelOperator(grid, _alpha_of(order))


def kernel_weights(grid: Grid, order: float, t: float) -> np.ndarray:
    """Read-only weight row of the fractional integral at the grid node ``t``.

    Entry ``j`` multiplies the sample at node ``j``; entries at nodes past
    ``t`` are zero and every entry is nonnegative.  Builds no operator.
    """
    i = grid.index_of(t)
    return _weights(grid.nodes, grid.gap_after, _alpha_of(order), i, i + 1)[0]


def frac_integral(g: GridFunction, order: float, t: float) -> float:
    """Left Riemann-Liouville fractional integral of ``g`` at a node.

    Evaluates the delta integral of ``(t - s)**(alpha - 1) * g(s)`` over
    the window from the start of the scale to ``t``, divided by
    ``gamma(alpha)``.  The value at the first node is exactly zero.
    Evaluates one weight row and builds no operator.
    """
    grid = g.grid
    i = grid.index_of(t)
    row = _weights(grid.nodes[: i + 1], grid.gap_after, _alpha_of(order), i, i + 1)[0]
    return float(row @ g.values[: i + 1])


def frac_integral_all(g: GridFunction, order: float) -> np.ndarray:
    """Fractional integral of ``g`` at every grid node: one lane of the
    cached operator's ``apply``, which takes several functions on the grid
    at once as the rows of an (m, n) array."""
    return frac_integral_operator(g.grid, order).apply(g.values)


def frac_derivative(g: GridFunction, order: float, t: float) -> float:
    """Left Riemann-Liouville fractional derivative of ``g`` at a node.

    Computed as the delta derivative of the integral of complementary
    order ``1 - alpha``: at a right-scattered node the forward difference
    to ``sigma(t)`` is the exact delta derivative, at a right-dense node
    it is a first-order forward difference at grid resolution.  The last
    node has no neighbor to difference against and is rejected.
    Evaluates two weight rows, one at a time, and builds no operator.
    """
    x = g.grid.nodes
    i = g.grid.index_of(t)
    if i == len(x) - 1:
        raise ValueError("frac_derivative needs a node after t")
    f = [frac_integral(g, 1.0 - _alpha_of(order), s) for s in x[i : i + 2]]
    return float((f[1] - f[0]) / (x[i + 1] - x[i]))


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
