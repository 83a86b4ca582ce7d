"""Seeded problem configs for the benchmark workloads.

Every request is a pure function of ``(workload, seed, index)``, so one
seed always gives byte-identical config files.  The quantities that size
and check the inputs (the uniqueness threshold, the sup bound, the node
count, the sweep's lambda list) are computed here from their closed forms,
independently of the program under test: the program only ever sees the
config files.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass

ALPHA = 0.25
TOL = 1e-10
MAX_ITER = 200
# [0,1] ∪ {1.5} ∪ [2,2.5], the time scale of the README example
README_SCALE = ((0.0, 1.0), (1.5, 1.5), (2.0, 2.5))
# the CLI's tolerance for snapping an interval length onto h_max
_SNAP = 1e-12


@dataclass(frozen=True)
class Sizes:
    """Input size of one workload; ``QUICK`` shrinks each for self-tests."""

    h_max: float
    sweep_lambdas: int = 24
    components: int = 600


FULL = {
    "solve-mixed": Sizes(h_max=3e-4),
    "sweep-lambda": Sizes(h_max=6e-4),
    "solve-fragmented": Sizes(h_max=0.005),
}
QUICK = {
    "solve-mixed": Sizes(h_max=0.01),
    "sweep-lambda": Sizes(h_max=0.02, sweep_lambdas=6),
    "solve-fragmented": Sizes(h_max=0.02, components=40),
}
WORKLOADS = tuple(FULL)


@dataclass(frozen=True)
class Request:
    """One CLI call: its command, its config, and what it must produce."""

    workload: str
    index: int
    command: str
    config: dict
    n: int
    lambdas: tuple[float, ...]

    @property
    def solves(self) -> int:
        return len(self.lambdas)

    def config_bytes(self) -> bytes:
        return (json.dumps(self.config, indent=1, sort_keys=True) + "\n").encode()


# -- closed forms, mirrored from the paper's constants ----------------------


def constants(conductivity: dict) -> tuple[float, float, float]:
    """Certified ``(c1, c2, L)`` of a conductivity config."""
    family = conductivity["family"]
    if family == "clamped_affine":
        return conductivity["lo"], conductivity["hi"], abs(conductivity["slope"])
    if family == "bounded_rational":
        c1, c2 = conductivity["c1"], conductivity["c2"]
        return c1, c2, (c2 - c1) / conductivity["scale"]
    if family == "table":
        bps, vals = conductivity["breakpoints"], conductivity["values"]
        slopes = [
            abs((v1 - v0) / (b1 - b0))
            for b0, b1, v0, v1 in zip(bps, bps[1:], vals, vals[1:])
        ]
        return min(vals), max(vals), max(slopes, default=0.0)
    raise ValueError(f"no closed form for conductivity family {family!r}")


def _span(scale) -> float:
    return scale[-1][1] - scale[0][0]


def lambda_star(config: dict) -> float:
    """Uniqueness threshold: the reciprocal of the contraction slope in lambda."""
    a, span = config["alpha"], _span(config["time_scale"])
    c1, c2, lip = constants(config["conductivity"])
    g = math.gamma(2.0 * a + 1.0)
    t1 = span ** (2.0 * a) * lip / ((c1 * span) ** 2 * g)
    t2 = 2.0 * c2**2 * span ** (2.0 * (a + 1.0)) * lip / ((c1 * span) ** 4 * g)
    return 1.0 / (t1 + t2)


def sup_bound(config: dict, lam: float) -> float:
    """A priori bound on ``max K(u)`` at multiplier ``lam``."""
    a, span = config["alpha"], _span(config["time_scale"])
    c1, c2, _ = constants(config["conductivity"])
    return lam * c2 * span ** (2.0 * a) / ((c1 * span) ** 2 * math.gamma(2.0 * a + 1.0))


def node_count(scale, h_max: float) -> int:
    """Nodes of the uniform subdivision the CLI builds for ``scale``."""
    return sum(
        1 if lo == hi else max(1, math.ceil((hi - lo) / h_max - _SNAP)) + 1
        for lo, hi in scale
    )


def sweep_lambdas(section: dict) -> tuple[float, ...]:
    """The lambda values ``chronofrac sweep`` runs for a ``sweep`` section."""
    lo, hi, step = section["lambda_min"], section["lambda_max"], section["lambda_step"]
    count = int(math.floor((hi - lo) / step + 1e-9)) + 1
    return tuple(lo + k * step for k in range(count))


# -- the workloads ------------------------------------------------------------


def _base(scale, h_max: float, conductivity: dict) -> dict:
    return {
        "time_scale": [list(c) for c in scale],
        "alpha": ALPHA,
        "conductivity": conductivity,
        "h_max": h_max,
        "tol": TOL,
        "max_iter": MAX_ITER,
    }


def _solve_mixed(rng: random.Random, sizes: Sizes) -> tuple[dict, tuple[float, ...]]:
    lo = rng.uniform(0.8, 1.2)
    config = _base(
        README_SCALE,
        sizes.h_max,
        {
            "family": "clamped_affine",
            "base": lo + rng.uniform(0.0, 0.2),
            "slope": rng.uniform(0.5, 2.0),
            "lo": lo,
            "hi": lo + rng.uniform(0.5, 1.5),
        },
    )
    config["lambda"] = rng.uniform(0.1, 0.9) * lambda_star(config)
    return config, (config["lambda"],)


def _sweep_lambda(rng: random.Random, sizes: Sizes) -> tuple[dict, tuple[float, ...]]:
    c1 = rng.uniform(0.8, 1.2)
    config = _base(
        README_SCALE,
        sizes.h_max,
        {
            "family": "bounded_rational",
            "c1": c1,
            "c2": c1 + rng.uniform(0.5, 1.5),
            "scale": rng.uniform(0.5, 2.0),
        },
    )
    # lambda_max is an exact multiple of the step, so the CLI's count is exact
    step = 0.95 * lambda_star(config) / (sizes.sweep_lambdas - 1)
    config["lambda"] = 0.0
    config["sweep"] = {
        "lambda_min": 0.0,
        "lambda_max": step * (sizes.sweep_lambdas - 1),
        "lambda_step": step,
    }
    return config, sweep_lambdas(config["sweep"])


def _fragmented_scale(rng: random.Random, count: int) -> list[tuple[float, float]]:
    # Half isolated points, half intervals of width U(0.02, 0.1), in seeded
    # order with gaps.  Widths come in antithetic pairs w, 0.12 - w: for
    # w / h_max not an integer the pair always has 0.12 / h_max + 1 cells,
    # so every scale has the same node count and requests differ in layout,
    # not in size.
    widths = []
    for _ in range(count // 4):
        w = rng.uniform(0.02, 0.1)
        widths += [w, 0.12 - w]
    widths += [0.0] * (count // 2)
    rng.shuffle(widths)
    scale, t = [], 0.0
    for width in widths:
        scale.append((t, t + width))
        t += width + rng.uniform(0.01, 0.05)
    return scale


def _solve_fragmented(
    rng: random.Random, sizes: Sizes
) -> tuple[dict, tuple[float, ...]]:
    scale = _fragmented_scale(rng, sizes.components)
    breakpoints = [0.0]
    for _ in range(4):
        breakpoints.append(breakpoints[-1] + rng.uniform(0.05, 0.5))
    config = _base(
        scale,
        sizes.h_max,
        {
            "family": "table",
            "breakpoints": breakpoints,
            "values": [rng.uniform(1.0, 2.0) for _ in breakpoints],
        },
    )
    config["lambda"] = 0.5 * lambda_star(config)
    return config, (config["lambda"],)


_GENERATORS = {
    "solve-mixed": ("solve", _solve_mixed),
    "sweep-lambda": ("sweep", _sweep_lambda),
    "solve-fragmented": ("solve", _solve_fragmented),
}


def make_request(workload: str, seed: int, index: int, quick: bool = False) -> Request:
    """Request ``index`` of ``workload`` under ``seed``."""
    command, generate = _GENERATORS[workload]
    sizes = (QUICK if quick else FULL)[workload]
    # a string seed is hashed with SHA-512, so it is stable across processes
    rng = random.Random(f"{workload}/{seed}/{index}")
    config, lambdas = generate(rng, sizes)
    n = node_count(config["time_scale"], config["h_max"])
    return Request(workload, index, command, config, n, lambdas)
