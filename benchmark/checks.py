"""Output checks for one benchmark request.

A request passes when the CLI exited 0 and its files satisfy the bounds
the program certifies about itself, recomputed here from the config:
convergence, the residual bound ``tol (1 + q) / (1 - q)`` with
``q = lambda / lambda*``, positivity, the sup bound, and the node count.
For the default seed one request per workload is also compared with
frozen solution samples, which catches a fast path whose residual check
passes on the wrong operator.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

from workloads import Request, lambda_star, sup_bound

REFERENCES = Path(__file__).with_name("references.json")
# sampled solution values per solve request
SAMPLES = 17
# Picard stops within tol = 1e-10 of the fixed point; a wrong operator
# moves the solution by far more than this
REFERENCE_TOL = 1e-8


class OutputError(Exception):
    """The program's output is missing, malformed or violates a bound."""


def _residual_bound(config: dict, lam: float) -> float:
    q = lam / lambda_star(config)
    return config["tol"] * (1.0 + q) / (1.0 - q)


def _read_csv(path: Path, header: list[str]) -> list[list[str]]:
    try:
        with path.open(newline="") as fh:
            rows = list(csv.reader(fh))
    except OSError as exc:
        raise OutputError(f"cannot read {path.name}: {exc}") from exc
    if not rows or rows[0] != header:
        raise OutputError(f"{path.name} does not start with {','.join(header)}")
    return rows[1:]


def _number(text: str, what: str) -> float:
    try:
        x = float(text)
    except ValueError as exc:
        raise OutputError(f"{what} {text!r} is not a number") from exc
    if not math.isfinite(x):
        raise OutputError(f"{what} is {text}")
    return x


def _check_solve(req: Request, out: Path) -> list[float]:
    try:
        report = json.loads((out / "report.json").read_text())
    except (OSError, ValueError) as exc:
        raise OutputError(f"cannot read report.json: {exc}") from exc
    lam = req.lambdas[0]
    if report.get("converged") is not True:
        raise OutputError("report.json: not converged")
    residual = _number(str(report.get("residual")), "residual")
    if not residual <= _residual_bound(req.config, lam):
        raise OutputError(f"residual {residual!r} above tol (1 + q) / (1 - q)")
    rows = _read_csv(out / "solution.csv", ["t", "u"])
    if len(rows) != req.n:
        raise OutputError(f"solution.csv has {len(rows)} nodes, expected {req.n}")
    u = [_number(row[1] if len(row) == 2 else "", "u") for row in rows]
    if min(u) < 0.0:
        raise OutputError(f"negative temperature {min(u)!r}")
    if max(u) > sup_bound(req.config, lam) + residual:
        raise OutputError(f"max u {max(u)!r} above the sup bound")
    step = (req.n - 1) / (SAMPLES - 1)
    return [u[round(k * step)] for k in range(SAMPLES)]


def _check_sweep(req: Request, out: Path) -> list[float]:
    header = ["lambda", "iterations", "residual", "q", "converged", "sup_norm"]
    rows = _read_csv(out / "sweep.csv", header)
    if len(rows) != len(req.lambdas):
        raise OutputError(f"sweep.csv has {len(rows)} rows, expected {len(req.lambdas)}")
    sups = []
    for row, lam in zip(rows, req.lambdas):
        if len(row) != len(header):
            raise OutputError(f"sweep.csv row {row} is malformed")
        got = _number(row[0], "lambda")
        if abs(got - lam) > 1e-12 * (1.0 + lam):
            raise OutputError(f"sweep.csv lambda {got!r}, expected {lam!r}")
        if row[4] != "true":
            raise OutputError(f"lambda {lam!r}: not converged")
        residual = _number(row[2], "residual")
        if not residual <= _residual_bound(req.config, lam):
            raise OutputError(f"lambda {lam!r}: residual above tol (1 + q) / (1 - q)")
        sup = _number(row[5], "sup_norm")
        if not 0.0 <= sup <= sup_bound(req.config, lam) + residual:
            raise OutputError(f"lambda {lam!r}: sup_norm {sup!r} outside [0, sup bound]")
        sups.append(sup)
    return sups


def check_outputs(req: Request, out: Path) -> list[float]:
    """Check the files a request wrote to ``out`` and return its samples.

    The samples are the solution at ``SAMPLES`` evenly spaced nodes for
    ``solve``, and the sup norm per lambda for ``sweep``.  Raises
    ``OutputError`` on the first violated check.
    """
    if req.command == "solve":
        return _check_solve(req, out)
    return _check_sweep(req, out)


def load_reference(workload: str) -> list[float]:
    return json.loads(REFERENCES.read_text())[workload]


def check_reference(samples: list[float], reference: list[float]) -> None:
    """Raise ``OutputError`` unless ``samples`` match the frozen values."""
    if len(samples) != len(reference):
        raise OutputError(f"{len(samples)} samples, reference has {len(reference)}")
    for k, (got, want) in enumerate(zip(samples, reference)):
        if abs(got - want) > REFERENCE_TOL * (1.0 + abs(want)):
            raise OutputError(f"sample {k} is {got!r}, reference {want!r}")
