"""Independent reference values for testing the production operators.

Everything here is deliberately primitive: plain Python floats, explicit
ascending-order sums, closed forms where they exist.  Nothing imports the
production quadrature, so an agreement between the two paths is evidence,
not a tautology.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from .timescale import GridFunction, TimeScale, json_number

__all__ = [
    "closed_form_power_integral",
    "brute_force_discrete",
    "brute_force_discrete_derivative",
    "constant_f_solution",
    "extension_gap",
    "extension_inequality_check",
    "OracleCase",
    "load_suite",
]


def closed_form_power_integral(alpha: float, beta: float, t: float) -> float:
    """Fractional integral of ``s**beta`` on the continuum at time ``t``.

    Equals ``gamma(beta + 1) / gamma(beta + alpha + 1) * t**(beta + alpha)``.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    if beta < 0.0:
        raise ValueError("beta must be nonnegative")
    if t < 0.0:
        raise ValueError("t must be nonnegative")
    if t == 0.0:
        return 0.0
    return math.gamma(beta + 1.0) / math.gamma(beta + alpha + 1.0) * t ** (beta + alpha)


def _discrete_points(ts: TimeScale) -> list[float]:
    points = []
    for lo, hi in ts.components.tolist():
        if lo != hi:
            raise ValueError("brute force sums need a fully discrete time scale")
        points.append(lo)
    return points


def _point_index(points: list[float], t: float) -> int:
    """Index of the first point within 1e-12 of ``t``."""
    for i, p in enumerate(points):
        if abs(p - t) <= 1e-12:
            return i
    raise ValueError(f"t={t!r} is not a point of the time scale")


def brute_force_discrete(
    ts: TimeScale, values: Sequence[float], alpha: float, t: float
) -> float:
    """Exact fractional-integral sum on a fully discrete scale.

    ``values`` aligns with the points of ``ts``.  The sum runs in
    ascending order over the points strictly before ``t``, each term
    ``(t - s)**(alpha - 1) * g(s) * graininess(s) / gamma(alpha)``.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    points = _discrete_points(ts)
    if len(values) != len(points):
        raise ValueError("value count must match point count")
    it = _point_index(points, t)
    total = 0.0
    for i in range(it):
        mu = points[i + 1] - points[i]
        total += (t - points[i]) ** (alpha - 1.0) * float(values[i]) * mu / math.gamma(alpha)
    return total


def brute_force_discrete_derivative(
    ts: TimeScale, values: Sequence[float], alpha: float, t: float
) -> float:
    """Exact fractional-derivative difference on a fully discrete scale.

    The delta derivative of the complementary-order integral:
    ``(F(sigma(t)) - F(t)) / graininess(t)`` with ``F`` the brute-force
    sum of order ``1 - alpha``.
    """
    points = _discrete_points(ts)
    it = _point_index(points, t)
    if it == len(points) - 1:
        raise ValueError("the last point has no forward neighbor")
    f_here = brute_force_discrete(ts, values, 1.0 - alpha, points[it])
    f_next = brute_force_discrete(ts, values, 1.0 - alpha, points[it + 1])
    return (f_next - f_here) / (points[it + 1] - points[it])


def constant_f_solution(c: float, lam: float, alpha: float, T: float, t: float) -> float:
    """Exact thermistor solution for constant conductivity ``c``.

    With ``f`` constant the operator does not depend on ``u`` and the
    fixed point is ``lam * t**(2 alpha) / (c * T**2 * gamma(2 alpha + 1))``.
    """
    if not 0.0 < alpha < 0.5:
        raise ValueError("alpha must lie in (0, 0.5)")
    if c <= 0 or T <= 0:
        raise ValueError("c and T must be positive")
    if not 0.0 <= t <= T:
        raise ValueError("t must lie in [0, T]")
    return lam * t ** (2.0 * alpha) / (c * T**2 * math.gamma(2.0 * alpha + 1.0))


def extension_gap(g: GridFunction) -> float:
    """Signed slack of the step-extension comparison.

    For nondecreasing samples the delta integral over the whole window is
    bounded by the ordinary integral of the step extension that holds the
    last scale value across every gap.  Returns ``rhs - lhs``; both sides
    are computed here from scratch, walking the scale component by
    component.
    """
    grid = g.grid
    ts = grid.timescale
    vals = g.values
    for a, b in zip(vals, vals[1:]):
        if b < a:
            raise ValueError("extension comparison needs nondecreasing samples")

    lhs = 0.0
    nodes = grid.nodes
    for j in range(len(nodes) - 1):
        width = nodes[j + 1] - nodes[j]
        if grid.gap_after[j]:
            lhs += vals[j] * width
        else:
            lhs += 0.5 * (vals[j] + vals[j + 1]) * width

    rhs = 0.0
    for ci, (lo, hi) in enumerate(ts.components.tolist()):
        if hi > lo:
            # the extension restricted to a component is the sampled
            # function itself, integrated exactly as a polyline
            i0 = grid.index_of(lo)
            i1 = grid.index_of(hi)
            for j in range(i0, i1):
                rhs += 0.5 * (vals[j] + vals[j + 1]) * (nodes[j + 1] - nodes[j])
        if ci + 1 < len(ts.components):
            gap = ts.components[ci + 1][0] - hi
            rhs += vals[grid.index_of(hi)] * gap
    return rhs - lhs


def extension_inequality_check(g: GridFunction, tol: float = 1e-10) -> bool:
    """Whether the delta integral respects the step-extension bound."""
    return extension_gap(g) >= -tol


@dataclass(frozen=True)
class OracleCase:
    """One frozen regression case: inputs, expected value, tolerance."""

    name: str
    inputs: dict
    expected: float
    tolerance: float

    @classmethod
    def from_json(cls, data: dict) -> OracleCase:
        if not isinstance(data, dict):
            raise ValueError(f"oracle case must be a JSON object, not {data!r}")
        for key in ("name", "inputs", "expected", "tolerance"):
            if key not in data:
                raise ValueError(f"oracle case is missing field '{key}'")
        if not isinstance(data["inputs"], dict):
            raise ValueError("oracle case field 'inputs' must be an object")
        return cls(
            name=str(data["name"]),
            inputs=dict(data["inputs"]),
            expected=json_number(data["expected"], "oracle case field 'expected'"),
            tolerance=json_number(data["tolerance"], "oracle case field 'tolerance'"),
        )


def load_suite(path: str | Path) -> list[OracleCase]:
    """Load a JSON file holding a list of oracle cases; a ``ValueError`` names it."""
    try:
        data = json.loads(Path(path).read_text())
    except ValueError as exc:  # bytes that are not UTF-8, or malformed JSON
        raise ValueError(f"{path}: {exc}") from None
    if not isinstance(data, list):
        raise ValueError(f"{path}: oracle suite must be a JSON array of cases")
    cases = []
    for i, obj in enumerate(data):
        try:
            cases.append(OracleCase.from_json(obj))
        except ValueError as exc:
            raise ValueError(f"{path}: entry {i}: {exc}") from None
    return cases
