"""Time calls into chronofrac's public layers for one benchmark request.

Each mode runs in a fresh interpreter with the checkout's ``src`` on
``PYTHONPATH`` and writes its spans as JSON to EMIT:

    python tracer.py layers EMIT CONFIG LAMBDA...
    python tracer.py cli EMIT CLI_ARG...

``layers`` times the first ``import chronofrac``, config parsing, the grid
build and the cold kernel-operator build once each; then warm repeats of
each ingredient of one application of ``K``; then a warm Picard solve and
its existence diagnostics for every LAMBDA.  ``cli`` times one cold
in-process ``cli.main``.  It needs its own process: the operator cache
would make ``cli.main`` warm after ``layers`` has built the operator.

A span is ``{"name", "start", "end", "parent"}`` in seconds since the
process's first span, plus counts where the layer has them.  Every span
but the root has the root ``request`` as its parent.
"""

from __future__ import annotations

import json
import sys
import time
from contextlib import contextmanager
from pathlib import Path

WARM_REPEATS = 5


class Spans:
    def __init__(self) -> None:
        self.origin = time.perf_counter()
        self.items: list[dict] = []

    @contextmanager
    def span(self, name: str, parent: str | None = "request", **counts):
        """Record a span; the body may add counts to the yielded dict."""
        start = time.perf_counter() - self.origin
        item = {"name": name, "parent": parent, **counts}
        yield item
        item["start"] = start
        item["end"] = time.perf_counter() - self.origin
        self.items.append(item)


def _array_bytes(obj, seen: set[int]) -> int:
    # bytes of every ndarray reachable from obj: the operator may be a bare
    # matrix or an object holding several arrays
    import numpy as np

    if id(obj) in seen:
        return 0
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if isinstance(obj, dict):
        return sum(_array_bytes(v, seen) for v in obj.values())
    if isinstance(obj, (list, tuple)):
        return sum(_array_bytes(v, seen) for v in obj)
    fields = getattr(obj, "__dict__", {})
    slots = [getattr(obj, s) for s in getattr(obj, "__slots__", ()) if hasattr(obj, s)]
    return _array_bytes(fields, seen) + _array_bytes(slots, seen)


def trace_layers(spans: Spans, config_path: str, lambdas: list[float]) -> None:
    with spans.span("cli.import"):
        import chronofrac as cf
    from dataclasses import replace

    data = json.loads(Path(config_path).read_text())
    with spans.span("solver.problem_from_json"):
        spec = cf.problem_from_json(data)
    with spans.span("timescale.build_grid") as item:
        grid = cf.build_grid(spec.timescale, spec.h_max)
    item["nodes"] = len(grid.nodes)
    order = 2.0 * spec.alpha
    with spans.span("fractional.operator_build") as item:
        operator = cf.frac_integral_operator(grid, order)
    item["bytes"] = _array_bytes(operator, set())

    u = cf.apply_K(spec, cf.GridFunction.zeros(grid))
    values = u.to_array()
    ts = spec.timescale
    for _ in range(WARM_REPEATS):
        with spans.span("fractional.apply"):
            cf.frac_integral_all(u, order)
        with spans.span("timescale.delta_integral"):
            cf.delta_integral(u, ts.t0, ts.T)
        with spans.span("timescale.grid_function"):
            cf.GridFunction.from_array(grid, values)
        with spans.span("solver.apply_K"):
            cf.apply_K(spec, u)

    for lam in lambdas:
        with spans.span("solver.picard_solve", lam=lam) as item:
            # the CLI solves the config's own spec and sweeps with replace()
            spec_lam = spec if lam == spec.lam else replace(spec, lam=lam)
            report = cf.picard_solve(spec_lam)
        item["iterations"] = report.iterations
        with spans.span("solver.existence_diagnostics", lam=lam) as item:
            diagnostics = cf.existence_diagnostics(spec_lam, report)
        item["passed"] = diagnostics.passed


def trace_cli(spans: Spans, argv: list[str]) -> int:
    with spans.span("cli.import"):
        from chronofrac import cli
    with spans.span("cli.main"):
        return cli.main(argv)


def main(argv: list[str]) -> int:
    mode, emit, rest = argv[0], argv[1], argv[2:]
    spans = Spans()
    code = 0
    with spans.span("request", parent=None):
        if mode == "layers":
            trace_layers(spans, rest[0], [float(x) for x in rest[1:]])
        elif mode == "cli":
            code = trace_cli(spans, rest)
        else:
            raise SystemExit(f"unknown tracer mode {mode!r}")
    Path(emit).write_text(json.dumps(spans.items) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
