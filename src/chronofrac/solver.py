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
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .conductivity import ConductivityModel, model_from_json
from .fractional import frac_integral_operator, gamma_fn
from .timescale import Grid, GridFunction, TimeScale, build_grid

__all__ = [
    "ProblemSpec",
    "SolveReport",
    "DiagnosticCheck",
    "ExistenceDiagnostics",
    "contraction_terms",
    "threshold_from_constants",
    "denominator",
    "apply_K",
    "contraction_constant",
    "uniqueness_threshold",
    "sup_bound",
    "equicontinuity_modulus",
    "picard_solve",
    "existence_diagnostics",
    "problem_from_json",
]

DEFAULT_CELLS = 512


@dataclass(frozen=True)
class ProblemSpec:
    """Full description of one thermistor problem instance.

    ``h_max`` defaults to the window length divided by 512.  ``theta`` is
    the damping weight of the Picard update ``(1 - theta) u + theta K(u)``;
    ``theta = 1`` is the undamped iteration.
    """

    timescale: TimeScale
    alpha: float
    lam: float
    model: ConductivityModel
    h_max: float | None = None
    tol: float = 1e-10
    max_iter: int = 200
    theta: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha < 0.5:
            raise ValueError("alpha must lie in (0, 0.5)")
        if not 0.0 <= self.lam < math.inf:
            raise ValueError("lambda must be nonnegative and finite")
        if not 0.0 < self.tol < math.inf:
            raise ValueError("tol must be positive and finite")
        if not (1 <= self.max_iter < math.inf and int(self.max_iter) == self.max_iter):
            raise ValueError("max_iter must be an integer >= 1")
        if not 0.0 < self.theta <= 1.0:
            raise ValueError("theta must lie in (0, 1]")
        if self.h_max is None:
            object.__setattr__(self, "h_max", self.span / DEFAULT_CELLS)
        if not 0.0 < self.h_max < math.inf:
            raise ValueError("h_max must be positive and finite")

    @property
    def span(self) -> float:
        """Window length ``T - t0``; the length entering every bound."""
        return self.timescale.T - self.timescale.t0

    @cached_property
    def grid(self) -> Grid:
        return build_grid(self.timescale, self.h_max)

    def at_lambda(self, lam: float) -> ProblemSpec:
        """The same problem at multiplier ``lam``, sharing this one's grid."""
        other = replace(self, lam=lam)
        other.__dict__["grid"] = self.grid
        return other

    def to_json(self) -> dict:
        return {
            "time_scale": self.timescale.to_json(),
            "alpha": self.alpha,
            "lambda": self.lam,
            "conductivity": self.model.to_json(),
            "h_max": self.h_max,
            "tol": self.tol,
            "max_iter": self.max_iter,
            "theta": self.theta,
        }


def problem_from_json(data: dict) -> ProblemSpec:
    """Build a ProblemSpec from parsed JSON, naming any offending field."""
    if not isinstance(data, dict):
        raise ValueError("problem config must be a JSON object")

    def need(key):
        if key not in data:
            raise ValueError(f"missing required field '{key}'")
        return data[key]

    def number(key, value):
        try:
            return float(value)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"field '{key}' must be a number") from exc

    ts = TimeScale.from_json(need("time_scale"))
    model = model_from_json(need("conductivity"))
    kwargs = {
        "timescale": ts,
        "alpha": number("alpha", need("alpha")),
        "lam": number("lambda", need("lambda")),
        "model": model,
    }
    for key, attr in (("h_max", "h_max"), ("tol", "tol"), ("theta", "theta")):
        if key in data and data[key] is not None:
            kwargs[attr] = number(key, data[key])
    if "max_iter" in data and data["max_iter"] is not None:
        try:
            kwargs["max_iter"] = int(data["max_iter"])
        except (TypeError, ValueError, OverflowError) as exc:
            raise ValueError("field 'max_iter' must be an integer") from exc
    return ProblemSpec(**kwargs)


# -- explicit constants ----------------------------------------------------


def contraction_terms(
    alpha: float,
    span: float,
    c1: float,
    c2: float,
    lipschitz: float,
    lam: float = 1.0,
) -> tuple[float, float]:
    """The two summands of the Lipschitz bound on the solution operator.

    The first comes from perturbing the numerator, the second from
    perturbing the squared denominator; both are linear in ``lam``.
    """
    g = gamma_fn(2.0 * alpha + 1.0)
    t1 = lam * span ** (2.0 * alpha) * lipschitz / ((c1 * span) ** 2 * g)
    t2 = (
        2.0
        * lam
        * c2**2
        * span ** (2.0 * (alpha + 1.0))
        * lipschitz
        / ((c1 * span) ** 4 * g)
    )
    return (t1, t2)


def threshold_from_constants(
    alpha: float, span: float, c1: float, c2: float, lipschitz: float
) -> float:
    """Largest source multiplier with a contractive solution operator.

    Infinite when the conductivity is flat (zero Lipschitz constant): the
    operator is then independent of ``u`` and any multiplier is fine.
    """
    slope = sum(contraction_terms(alpha, span, c1, c2, lipschitz, lam=1.0))
    if slope == 0.0:
        return math.inf
    return 1.0 / slope


def contraction_constant(spec: ProblemSpec) -> float:
    """Lipschitz constant of the solution operator at the problem's lambda."""
    c1, c2, lip = spec.model.constants()
    return sum(contraction_terms(spec.alpha, spec.span, c1, c2, lip, spec.lam))


def uniqueness_threshold(spec: ProblemSpec) -> float:
    """The multiplier below which the fixed point is provably unique."""
    c1, c2, lip = spec.model.constants()
    return threshold_from_constants(spec.alpha, spec.span, c1, c2, lip)


def sup_bound(spec: ProblemSpec) -> float:
    """A priori sup-norm bound on ``K(u)``, uniform over profiles ``u``."""
    c1, c2, _ = spec.model.constants()
    g = gamma_fn(2.0 * spec.alpha + 1.0)
    return spec.lam * c2 * spec.span ** (2.0 * spec.alpha) / ((c1 * spec.span) ** 2 * g)


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
    if t1 > t2:
        raise ValueError("pair must satisfy t1 <= t2")
    if t1 < ts.t0 - 1e-12 or t2 > ts.T + 1e-12:
        raise ValueError("pair must lie inside the time scale window")
    return _modulus_scale(spec) * (t2 - t1) ** (2.0 * spec.alpha)


def _modulus_scale(spec: ProblemSpec) -> float:
    c1, c2, _ = spec.model.constants()
    return spec.lam * c2 / ((c1 * spec.span) ** 2 * gamma_fn(2.0 * spec.alpha + 1.0))


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


def _apply_k_array(spec: ProblemSpec, u: np.ndarray) -> np.ndarray:
    fv = spec.model.apply(u)
    den = spec.grid.window_integral(fv) ** 2
    return spec.lam * frac_integral_operator(spec.grid, 2.0 * spec.alpha).apply(fv) / den


def apply_K(spec: ProblemSpec, u: GridFunction) -> GridFunction:
    """One application of the solution operator to a sampled profile.

    The result starts at exactly zero (the fractional integral over the
    empty window) and is nonnegative whenever ``lam >= 0``.
    """
    _check_grid(spec, u)
    return GridFunction(spec.grid, _apply_k_array(spec, u.values))


# -- Picard iteration ------------------------------------------------------


def _damped_contraction(theta: float, q: float) -> tuple[float, float]:
    """Contraction constant ``q_theta = 1 - theta + theta * q`` of the damped
    update ``(1 - theta) u + theta K(u)``, and its gap ``1 - q_theta``.

    The gap is formed as ``theta * (1 - q)``, so a small ``theta`` cannot
    round it to zero.
    """
    return 1.0 - theta + theta * q, theta * (1.0 - q)


@dataclass(frozen=True)
class SolveReport:
    """Everything produced by one Picard run.

    ``trace[k]`` is the sup-norm update size at iteration ``k + 1``;
    ``q`` is the Lipschitz constant of the solution operator, and
    ``apriori_bound`` the error bound
    ``(q_theta * trace[-1] + eps * sup_bound) / (1 - q_theta)`` of the damped
    update against the fixed point of the exact-kernel operator, present
    only when ``q < 1``.  ``operator`` is the kernel operator's
    ``to_json()``; its ``eps`` is the relative kernel error of the far
    field, which moves ``K(u)`` by at most ``eps * sup_bound``.
    The solution itself is not serialised: ``solution.csv`` holds it.
    """

    solution: GridFunction
    iterations: int
    converged: bool
    trace: tuple[float, ...]
    q: float
    lambda_star: float
    residual: float
    apriori_bound: float | None
    sup_bound: float
    positive: bool
    operator: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "iterations": self.iterations,
            "converged": self.converged,
            "trace": list(self.trace),
            "q": self.q,
            "lambda_star": self.lambda_star if math.isfinite(self.lambda_star) else "inf",
            "residual": self.residual,
            "apriori_bound": self.apriori_bound,
            "sup_bound": self.sup_bound,
            "positive": self.positive,
            "operator": self.operator,
        }


def picard_solve(spec: ProblemSpec, u0: GridFunction | None = None) -> SolveReport:
    """Iterate the damped solution operator to a fixed point.

    Starts from ``u0`` (default: identically zero) and stops when the
    sup-norm update drops to ``tol`` or ``max_iter`` is exhausted; the
    latter is reported through ``converged``, not raised.  The residual
    is measured by one extra operator application after the loop.
    """
    grid = spec.grid
    if u0 is None:
        u = np.zeros(len(grid.nodes))
    else:
        _check_grid(spec, u0)
        u = u0.values
    theta = spec.theta
    trace: list[float] = []
    converged = False
    for _ in range(spec.max_iter):
        ku = _apply_k_array(spec, u)
        nxt = ku if theta == 1.0 else (1.0 - theta) * u + theta * ku
        step = float(np.max(np.abs(nxt - u)))
        trace.append(step)
        u = nxt
        if step <= spec.tol:
            converged = True
            break
    residual = float(np.max(np.abs(_apply_k_array(spec, u) - u)))
    q = contraction_constant(spec)
    q_theta, gap = _damped_contraction(theta, q)
    operator = frac_integral_operator(grid, 2.0 * spec.alpha).to_json()
    sup = sup_bound(spec)
    apriori = (q_theta * trace[-1] + operator["eps"] * sup) / gap if q < 1.0 else None
    return SolveReport(
        solution=GridFunction(grid, u),
        iterations=len(trace),
        converged=converged,
        trace=tuple(trace),
        q=q,
        lambda_star=uniqueness_threshold(spec),
        residual=residual,
        apriori_bound=apriori,
        sup_bound=sup,
        positive=bool(np.all(u >= 0.0)),
        operator=operator,
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
    """Check a computed solution against the a priori bounds.

    Three checks: the sup norm against ``sup_bound``, the increments over
    every adjacent node pair and every pair ``(t0, t_j)`` with the first
    node against the equicontinuity modulus, and the residual against the
    fixed-point bound ``(tol * (1 + q_theta) + eps * sup_bound) / (1 - q_theta)``
    of the damped update, with ``eps`` the report's kernel error.  When
    ``q >= 1`` no contraction bounds the residual: its bound is ``inf`` and
    the check fails.
    The modulus applies exactly to operator images; the solution is one
    only up to the residual, so both checks carry that slack plus a
    rounding allowance.
    """
    u = report.solution.values
    nodes = spec.grid.nodes
    eps = 1e-12 * (1.0 + float(np.max(np.abs(u))))

    obs_sup = float(np.max(np.abs(u)))
    bnd_sup = report.sup_bound + report.residual + eps
    sup_check = DiagnosticCheck(
        name="sup_norm", passed=obs_sup <= bnd_sup, observed=obs_sup, bound=bnd_sup
    )

    scale, power = _modulus_scale(spec), 2.0 * spec.alpha
    slack = 2.0 * report.residual + eps
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

    if report.q < 1.0:
        q_theta, gap = _damped_contraction(spec.theta, report.q)
        kernel = report.operator.get("eps", 0.0) * report.sup_bound
        bnd_res = (spec.tol * (1.0 + q_theta) + kernel) / gap + eps
    else:
        bnd_res = math.inf
    res_check = DiagnosticCheck(
        name="residual",
        passed=report.q < 1.0 and report.residual <= bnd_res,
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
