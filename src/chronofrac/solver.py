"""Fixed-point machinery for the fractional nonlocal thermistor problem.

The solution operator sends a temperature profile ``u`` on a time scale to

    K(u)(t) = lam / gamma(2 a) * int_{t0}^{t} (t - s)**(2 a - 1) f(u(s)) ds
              ------------------------------------------------------------
                        ( delta integral of f(u) over [t0, T) )**2

with fractional exponent ``a`` in (0, 1/2), source multiplier ``lam`` and
conductivity model ``f``.  Solutions are fixed points of ``K``.  Because
``f`` is bounded into [c1, c2] and Lipschitz, ``K`` is Lipschitz on the
sampled profiles with an explicit constant that is linear in ``lam``;
below the reciprocal of that slope (the uniqueness threshold) Picard
iteration is a contraction and the computed solution comes with a priori
error and sup-norm bounds that this module also exposes.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field, replace
from functools import cached_property
from itertools import islice

import numpy as np

from .conductivity import ConductivityModel, model_from_json
from .fractional import KernelOperator, _Workspace, frac_integral_operator, gamma_fn
from .timescale import SNAP, Grid, GridFunction, TimeScale, build_grid, json_number

__all__ = [
    "ProblemSpec",
    "Bounds",
    "SolveReport",
    "DiagnosticCheck",
    "ExistenceDiagnostics",
    "denominator",
    "apply_K",
    "equicontinuity_modulus",
    "picard_solve",
    "picard_sweep",
    "existence_diagnostics",
    "problem_from_json",
]

DEFAULT_CELLS = 512
# bytes of each (lanes, n) buffer of the Picard loop.  On the 2504-node
# sweep-lambda grid a batch holds about five of them (u, and in its
# workspace the padded samples, K(u), two for the 63 history sums and a
# fifth of one for 8 row blocks' decays), and one batch peaks at 6.8 with
# its reports: the lane count keeps the loop's memory fixed, as
# fractional.CHUNK does for _moments.  On that grid (2-core Xeon) it gives
# 6 lanes: the 24-lambda Picard went from 42 to 23 ms in process, for
# 0.7 MiB of peak RSS; 8 to 13 lanes were no faster and cost up to 2.3 MiB
LANE_BYTES = 2**17


@dataclass(frozen=True)
class ProblemSpec:
    """Full description of one thermistor problem instance.

    ``h_max`` defaults to the window length divided by 512.  Picard
    iterates ``u <- K(u)`` and stops once ``|K(u) - u| <= tol``, or after
    ``max_iter`` steps.  A bool is no number here, and an integral
    ``max_iter`` is kept as an ``int``, so ``to_json`` always round-trips.
    """

    timescale: TimeScale
    alpha: float
    lam: float
    model: ConductivityModel
    h_max: float | None = None
    tol: float = 1e-10
    max_iter: int = 200
    bounds: Bounds = field(init=False, compare=False)

    def __post_init__(self) -> None:
        for name in ("alpha", "lam", "h_max", "tol", "max_iter"):
            if isinstance(getattr(self, name), (bool, np.bool_)):
                raise ValueError(f"{name} must be a number, not a bool")
        if not 0.0 < self.alpha < 0.5:
            raise ValueError("alpha must lie in (0, 0.5)")
        if not 0.0 <= self.lam < math.inf:
            raise ValueError("lambda must be nonnegative and finite")
        if not 0.0 < self.tol < math.inf:
            raise ValueError("tol must be positive and finite")
        if not (1 <= self.max_iter < math.inf and int(self.max_iter) == self.max_iter):
            raise ValueError("max_iter must be an integer >= 1")
        object.__setattr__(self, "max_iter", int(self.max_iter))
        if self.h_max is None:
            object.__setattr__(self, "h_max", self.span / DEFAULT_CELLS)
        if not 0.0 < self.h_max < math.inf:
            raise ValueError("h_max must be positive and finite")
        bounds = Bounds.of(self.alpha, self.span, *self.model.constants(), self.lam)
        if not all(map(math.isfinite, (bounds.q, bounds.sup, bounds.modulus, bounds.numerator))):
            raise ValueError(f"lambda={self.lam!r} is so large that its bounds overflow")
        object.__setattr__(self, "bounds", bounds)

    @property
    def span(self) -> float:
        """Window length ``T - t0``; the length entering every bound."""
        return self.timescale.T - self.timescale.t0

    @cached_property
    def grid(self) -> Grid:
        return build_grid(self.timescale, self.h_max)

    def to_json(self) -> dict:
        return {
            "time_scale": self.timescale.to_json(),
            "alpha": self.alpha,
            "lambda": self.lam,
            "conductivity": self.model.to_json(),
            "h_max": self.h_max,
            "tol": self.tol,
            "max_iter": self.max_iter,
        }


def problem_from_json(data: dict) -> ProblemSpec:
    """Build a ProblemSpec from parsed JSON, naming any offending field."""
    if not isinstance(data, dict):
        raise ValueError("problem config must be a JSON object")

    def need(key):
        if key not in data:
            raise ValueError(f"missing required field '{key}'")
        return data[key]

    ts = TimeScale.from_json(need("time_scale"))
    model = model_from_json(need("conductivity"))
    kwargs = {
        "timescale": ts,
        "alpha": json_number(need("alpha"), "field 'alpha'"),
        "lam": json_number(need("lambda"), "field 'lambda'"),
        "model": model,
    }
    for key in ("h_max", "tol"):
        if data.get(key) is not None:
            kwargs[key] = json_number(data[key], f"field '{key}'")
    # Picard runs undamped: an old config still loads if its "theta" is 1
    theta = data.get("theta")
    if theta is not None and json_number(theta, "field 'theta'") != 1.0:
        raise ValueError("field 'theta' was removed: Picard runs undamped, so it may only be 1")
    max_iter = data.get("max_iter")
    if max_iter is not None:
        if isinstance(max_iter, float) and max_iter.is_integer():
            max_iter = int(max_iter)
        if isinstance(max_iter, bool) or not isinstance(max_iter, int):
            raise ValueError("field 'max_iter' must be an integer")
        kwargs["max_iter"] = max_iter
    return ProblemSpec(**kwargs)


# -- explicit constants ----------------------------------------------------


@dataclass(frozen=True)
class Bounds:
    """The explicit constants of one problem, each evaluated once.

    ``terms`` are the two summands of ``q`` at ``lam``, from perturbing the
    numerator and the squared denominator.  ``lambda_star`` is ``1 / q`` at
    ``lam = 1`` (``inf`` for a flat conductivity).  ``sup`` bounds ``K(u)``
    for every ``u``, ``modulus * (t2 - t1)**(2 alpha)`` is the
    equicontinuity modulus, and ``numerator`` bounds ``lam I^(2 alpha) f(u)``.
    """

    terms: tuple[float, float]
    lambda_star: float
    sup: float
    modulus: float
    numerator: float

    @property
    def q(self) -> float:
        """Lipschitz constant of the solution operator."""
        return self.terms[0] + self.terms[1]

    @classmethod
    def of(
        cls, alpha: float, span: float, c1: float, c2: float, lipschitz: float, lam: float = 1.0
    ) -> Bounds:
        """The constants for window length ``span`` and conductivity constants
        ``(c1, c2, lipschitz)``; ``ValueError`` if any overflows at ``lam = 1``."""
        try:
            g = gamma_fn(2.0 * alpha + 1.0)

            def at(lam: float) -> tuple[float, ...]:  # terms, sup, modulus, numerator
                return (
                    lam * span ** (2.0 * alpha) * lipschitz / ((c1 * span) ** 2 * g),
                    2.0 * lam * c2**2 * span ** (2.0 * (alpha + 1.0)) * lipschitz
                    / ((c1 * span) ** 4 * g),
                    lam * c2 * span ** (2.0 * alpha) / ((c1 * span) ** 2 * g),
                    lam * c2 / ((c1 * span) ** 2 * g),
                    lam * c2 * span ** (2.0 * alpha) / g,
                )

            unit = at(1.0)
            slope = unit[0] + unit[1]
            if all(map(math.isfinite, (slope, *unit))):
                t1, t2, sup, modulus, numerator = at(lam)
                lam_star = math.inf if slope == 0.0 else 1.0 / slope
                return cls((t1, t2), lam_star, sup, modulus, numerator)
        except (OverflowError, ZeroDivisionError):  # only lam-free factors raise
            pass
        raise ValueError(
            f"a window span of {span!r} with (c1, c2, L) = ({c1!r}, {c2!r}, "
            f"{lipschitz!r}) takes the bounds out of the float range"
        )


def equicontinuity_modulus(spec: ProblemSpec, t1: float, t2: float) -> float:
    """Uniform bound on ``|K(u)(t2) - K(u)(t1)|`` for ``t1 <= t2``.

    Grows like ``(t2 - t1)**(2 alpha)``, so it vanishes as ``t2 -> t1``
    independently of ``u``.  Up to the scale factor the increment is
    ``A - B``: ``A`` integrates ``(t2 - s)**(2a - 1) f`` over [t1, t2) and
    ``B`` integrates ``((t1 - s)**(2a - 1) - (t2 - s)**(2a - 1)) f`` over
    [t0, t1).  Both are nonnegative with integrands increasing in ``s``,
    so each delta integral, jump terms included, is at most the continuum
    integral ``c2 (t2 - t1)**(2a) / (2a)``.
    """
    ts = spec.timescale
    if not t1 <= t2:  # NaN fails it too
        raise ValueError("pair must satisfy t1 <= t2")
    if not (ts.t0 - SNAP <= t1 and t2 <= ts.T + SNAP):
        raise ValueError("pair must lie inside the time scale window")
    return spec.bounds.modulus * (t2 - t1) ** (2.0 * spec.alpha)


# -- the operator ----------------------------------------------------------


def _check_grid(spec: ProblemSpec, u: GridFunction) -> None:
    if u.grid != spec.grid:
        raise ValueError("grid function is not sampled on the problem grid")


def denominator(spec: ProblemSpec, u: GridFunction) -> float:
    """The nonlocal coupling: squared delta integral of ``f(u)``.

    Bounded below by ``(c1 * span)**2 > 0``, so the operator never
    divides by anything small.
    """
    _check_grid(spec, u)
    return spec.grid.window_integral(spec.model.apply(u.values)) ** 2


def apply_K(spec: ProblemSpec, u: GridFunction) -> GridFunction:
    """One application of the solution operator to a sampled profile.

    The result starts at exactly zero (the fractional integral over the
    empty window) and is nonnegative whenever ``lam >= 0``.
    """
    _check_grid(spec, u)
    fv = spec.model.apply(u.values)
    ku = frac_integral_operator(spec.grid, 2.0 * spec.alpha).apply(fv)
    ku *= spec.lam
    # squared as a Python float by libm's pow, as each Picard lane is: on
    # random floats pow(x, 2) differs from x * x about once in a thousand
    ku /= spec.grid.window_integral(fv) ** 2
    return GridFunction(spec.grid, ku)


# -- Picard iteration ------------------------------------------------------


def _contraction(spec: ProblemSpec, eps: float) -> tuple[float, float, float] | None:
    """``None`` unless ``K`` contracts, ``q < 1``: then ``q``, the gap
    ``1 - q`` and ``eps * sup``, how far a kernel error ``eps`` moves ``K(u)``."""
    q = spec.bounds.q
    if q < 1.0:
        return q, 1.0 - q, eps * spec.bounds.sup
    return None


@dataclass(frozen=True)
class SolveReport:
    """Everything produced by one Picard run.

    ``spec`` is the problem solved, at its own ``lam``.  ``trace[k]`` is the
    sup-norm update size at iteration ``k + 1``, and ``apriori_bound`` the
    error bound ``(q * trace[-1] + eps * sup) / (1 - q)`` against
    the fixed point of the exact-kernel operator, present only when ``q < 1``.
    ``operator`` is the kernel operator's ``to_json()``, with ``eps`` its far
    field's kernel error.  ``solution.csv``, not ``to_json``, holds the solution.
    """

    spec: ProblemSpec
    solution: GridFunction
    iterations: int
    converged: bool
    trace: tuple[float, ...]
    residual: float
    apriori_bound: float | None
    positive: bool
    operator: dict

    def to_json(self) -> dict:
        b = self.spec.bounds
        return {
            "iterations": self.iterations,
            "converged": self.converged,
            "trace": list(self.trace),
            "q": b.q,
            "lambda_star": b.lambda_star if math.isfinite(b.lambda_star) else "inf",
            "residual": self.residual,
            "apriori_bound": self.apriori_bound,
            "sup_bound": b.sup,
            "positive": self.positive,
            "operator": self.operator,
        }


def picard_solve(spec: ProblemSpec, u0: GridFunction | None = None) -> SolveReport:
    """Iterate the solution operator, ``u <- K(u)``, to a fixed point.

    Starts from ``u0`` (default: identically zero) and stops when
    ``|K(u) - u|`` drops to ``tol`` or ``max_iter`` is exhausted; the
    latter is reported through ``converged``, not raised.  The residual
    is measured by one extra operator application after the loop.  The
    one-lane case of ``picard_sweep``.
    """
    (report,) = picard_sweep(spec, [spec.lam], u0)
    return report


class _Lane:
    """One ``spec``'s Picard run in a batch of ``picard_sweep``.
    ``converged`` is set when the run stops, and ``report`` one apply later.
    A plain class: a dataclass costs each CLI process 0.5 ms to create."""

    __slots__ = ("spec", "trace", "converged", "report")

    def __init__(self, spec: ProblemSpec):
        self.spec = spec
        self.trace: list[float] = []
        self.converged: bool | None = None


def picard_sweep(
    spec: ProblemSpec, lams: Iterable[float], u0: GridFunction | None = None
) -> Iterator[SolveReport]:
    """``picard_solve`` of ``spec`` at every multiplier of ``lams``, in order.

    The multipliers run in consecutive batches, as the lanes of one Picard
    loop on ``spec``'s grid: as many as ``LANE_BYTES`` allows, each from
    ``u0``.  A lane leaves after one more apply past its last step, which
    gives its residual, and a batch's reports come once its last lane has
    left.  Each report is the one ``picard_solve`` gives alone, bit for bit,
    and its ``spec`` is ``spec`` at its multiplier on ``spec``'s own grid.
    """
    grid = spec.grid
    n = len(grid.nodes)
    if u0 is None:
        start = np.zeros(n)
    else:
        _check_grid(spec, u0)
        start = u0.values
    width = max(1, LANE_BYTES // (8 * n))
    op = frac_integral_operator(grid, 2.0 * spec.alpha)
    lams = iter(lams)
    while batch := [_Lane(_at(spec, lam)) for lam in islice(lams, width)]:
        yield from _run_batch(spec, batch, start, op)


def _at(spec: ProblemSpec, lam: float) -> ProblemSpec:
    """``spec`` at the multiplier ``lam``, on ``spec``'s grid: ``spec`` itself
    when ``lam`` is its own multiplier object, else a copy handed that grid,
    so that no report's ``spec.grid`` builds a second one.  Identity, not
    equality: -0.0 equals 0.0, but its sign reaches ``K(u)``."""
    if lam is spec.lam:
        return spec
    at = replace(spec, lam=lam)
    vars(at)["grid"] = spec.grid  # where the cached property keeps it
    return at


def _run_batch(
    spec: ProblemSpec, batch: list[_Lane], start: np.ndarray, op: KernelOperator
) -> list:
    """The reports of ``batch``, its lanes run from ``start`` by ``op``.  The
    lanes' ``u`` are the leading rows of one array, in order, beside one
    workspace for every apply: ``f(u)`` goes into its window, ``K(u)`` into
    its image, and each lane that stays copies its image into its row.  A
    frame of its own, so the batch's arrays go before the next's."""
    lanes = batch
    ws = _Workspace(op, len(batch))
    # u takes the workspace's padded layout, so that each elementwise step
    # runs once over whole contiguous blocks: NumPy copies an operand of
    # several rows not laid end to end
    u = np.zeros_like(ws.gp)
    ws.nodes(u)[...] = start
    while lanes:
        m = len(lanes)
        um, fu, image = u[:m], ws.gp[:m], ws.image[:m]
        spec.model._apply_into(um, fu)
        # squared as Python floats, by libm's pow as a lone lane always was: on
        # random floats pow(x, 2) differs from x * x about once in a thousand
        den = np.array([w**2 for w in spec.grid.window_integral(ws.window[:m]).tolist()])
        ku = ws.apply(m)
        ku *= np.array([lane.spec.lam for lane in lanes])[:, None]
        ku /= den[:, None]
        rows = []
        for i, lane in enumerate(lanes):
            if lane.converged is not None:
                lane.report = _report(spec, lane, ws.nodes(um)[i], ku[i], op)
            else:
                rows.append(i)
        # the steps |K(u) - u| go into the padded samples, free after the
        # apply, where a scratch buffer of their own would cost one more lane
        np.abs(np.subtract(image, um, out=fu), out=fu)
        steps = np.max(ws.window[:m], axis=1).tolist()
        for i in rows:
            lane = lanes[i]
            lane.trace.append(steps[i])
            if steps[i] <= spec.tol:
                lane.converged = True
            elif len(lane.trace) == spec.max_iter:
                lane.converged = False
        # the staying lanes' images become their u, in the leading rows, in order
        for j, i in enumerate(rows):
            u[j] = image[i]
        lanes = [lanes[i] for i in rows]
    return [lane.report for lane in batch]


def _report(spec: ProblemSpec, lane: _Lane, u: np.ndarray, ku: np.ndarray, op: KernelOperator):
    """The report of a lane that leaves the loop at ``u``, with image ``ku``,
    on ``spec``'s grid, through the kernel operator ``op``."""
    apriori = None
    if contraction := _contraction(lane.spec, op.eps):
        q, gap, kernel = contraction
        apriori = (q * lane.trace[-1] + kernel) / gap
    return SolveReport(
        spec=lane.spec,
        solution=GridFunction(spec.grid, u),
        iterations=len(lane.trace),
        converged=lane.converged,
        trace=tuple(lane.trace),
        residual=float(np.max(np.abs(ku - u))),
        apriori_bound=apriori,
        positive=bool(np.all(u >= 0.0)),
        operator=op.to_json(),
    )


# -- a posteriori diagnostics ---------------------------------------------


@dataclass(frozen=True)
class DiagnosticCheck:
    """One a posteriori check: ``observed`` must stay below ``bound``."""

    name: str
    passed: bool
    observed: float
    bound: float

    @property
    def margin(self) -> float:
        return self.bound - self.observed

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "passed": self.passed,
            "observed": self.observed,
            "bound": self.bound if math.isfinite(self.bound) else "inf",
            "margin": self.margin if math.isfinite(self.margin) else "inf",
        }


@dataclass(frozen=True)
class ExistenceDiagnostics:
    """Bundle of a posteriori checks against the explicit bounds."""

    checks: tuple[DiagnosticCheck, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json(self) -> dict:
        return {
            "passed": self.passed,
            "checks": [c.to_json() for c in self.checks],
        }


def existence_diagnostics(spec: ProblemSpec, report: SolveReport) -> ExistenceDiagnostics:
    """Check a computed solution against the a priori bounds of its own
    problem; ``ValueError`` unless ``spec == report.spec``.

    Three checks: the sup norm against ``sup``, the increments over
    every adjacent node pair and every pair ``(t0, t_j)`` with the first
    node against the equicontinuity modulus, and the residual against the
    fixed-point bound ``(tol (1 + q) + eps * sup) / (1 - q)``, with ``eps``
    the report's kernel error.  When ``q >= 1`` no contraction bounds the
    residual: its bound is ``inf`` and the check fails.
    The modulus applies exactly to operator images; the solution is one
    only up to the residual, so both checks carry that slack plus a
    rounding allowance.
    """
    if spec != report.spec:
        raise ValueError("the spec is not the one the report solved")
    spec = report.spec
    u = report.solution.values
    nodes = report.solution.grid.nodes
    obs_sup = float(np.max(np.abs(u)))
    allowance = 1e-12 * (1.0 + obs_sup)
    bnd_sup = spec.bounds.sup + report.residual + allowance
    sup_check = DiagnosticCheck(
        name="sup_norm", passed=obs_sup <= bnd_sup, observed=obs_sup, bound=bnd_sup
    )

    scale, power = spec.bounds.modulus, 2.0 * spec.alpha
    slack = 2.0 * report.residual + allowance
    # pairs with t0 join the adjacent ones because K(u)(t0) = 0 and K(u)
    # grows like the modulus itself; each family is one in-place pass over
    # two arrays of n - 1 entries, which keeps the check O(n) in memory
    worst = max(
        _worst_excess(np.diff(u), np.diff(nodes), scale, power),
        _worst_excess(u[1:] - u[0], nodes[1:] - nodes[0], scale, power),
    )
    equi_check = DiagnosticCheck(
        name="equicontinuity", passed=bool(worst <= slack), observed=worst, bound=slack
    )

    bnd_res = math.inf
    if contraction := _contraction(spec, report.operator["eps"]):
        q, gap, kernel = contraction
        bnd_res = (spec.tol * (1.0 + q) + kernel) / gap + allowance
    res_check = DiagnosticCheck(
        name="residual",
        passed=contraction is not None and report.residual <= bnd_res,
        observed=report.residual,
        bound=bnd_res,
    )

    return ExistenceDiagnostics(checks=(sup_check, equi_check, res_check))


def _worst_excess(du: np.ndarray, dt: np.ndarray, scale: float, power: float) -> float:
    """Largest ``|du| - scale * dt**power``, computed in place in ``du`` and ``dt``."""
    np.abs(du, out=du)
    dt **= power
    dt *= scale
    du -= dt
    return float(np.max(du))
