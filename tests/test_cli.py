import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from chronofrac import fractional, picard_solve, problem_from_json, solver
from chronofrac.cli import _build_parser, _sweep_range, main
from conftest import fragmented_scale

ROOT = Path(__file__).resolve().parents[1]

CONSTANT_PROBLEM = {
    "time_scale": [[0.0, 1.0]],
    "alpha": 0.25,
    "lambda": 1.0,
    "conductivity": {"family": "constant", "c": 2.0},
}

AFFINE_PROBLEM = {
    "time_scale": [[0.0, 1.0]],
    "alpha": 0.25,
    "lambda": 0.05,
    "conductivity": {
        "family": "clamped_affine",
        "base": 1.0,
        "slope": 1.0,
        "lo": 1.0,
        "hi": 2.0,
    },
    "h_max": 1.0 / 128,
}


def write_config(tmp_path, data, name="problem.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data, indent=2))
    return str(path)


def read_csv(path):
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


# -- solve -----------------------------------------------------------------


def test_solve_round_trip(tmp_path):
    cfg = write_config(tmp_path, CONSTANT_PROBLEM)
    out = tmp_path / "out"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 0

    report = json.loads((out / "report.json").read_text())
    assert report["converged"] is True
    assert report["iterations"] <= 2
    assert report["lambda_star"] == "inf"
    assert report["positive"] is True

    rows = read_csv(out / "solution.csv")
    assert float(rows[0]["t"]) == 0.0 and float(rows[0]["u"]) == 0.0
    last = rows[-1]
    assert float(last["t"]) == 1.0
    exact = 1.0 / (2.0 * math.gamma(1.5))
    assert abs(float(last["u"]) - exact) <= 1e-9

    trace = read_csv(out / "trace.csv")
    assert len(trace) == report["iterations"]
    assert trace[0]["k"] == "1"


def test_solve_is_deterministic(tmp_path):
    cfg = write_config(tmp_path, AFFINE_PROBLEM)
    for d in ("a", "b"):
        assert main(["solve", "--config", cfg, "--out", str(tmp_path / d)]) == 0
    for name in ("solution.csv", "trace.csv", "report.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_solve_rejects_bad_alpha(tmp_path, capsys):
    cfg = write_config(tmp_path, {**CONSTANT_PROBLEM, "alpha": 0.7})
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
    assert "alpha must lie in (0, 0.5)" in capsys.readouterr().err


def test_solve_rejects_non_finite_tol(tmp_path, capsys):
    cfg = write_config(tmp_path, {**CONSTANT_PROBLEM, "tol": math.nan})
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
    assert "tol must be positive and finite" in capsys.readouterr().err


def test_solve_rejects_missing_field(tmp_path, capsys):
    cfg = write_config(tmp_path, {k: v for k, v in CONSTANT_PROBLEM.items() if k != "lambda"})
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
    assert "missing required field 'lambda'" in capsys.readouterr().err


def test_solve_rejects_unreadable_config(tmp_path, capsys):
    assert main(["solve", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path)]) == 1
    assert "cannot read" in capsys.readouterr().err


def test_solve_rejects_malformed_json(tmp_path, capsys):
    # malformed JSON, and bytes that are not UTF-8: one error line that
    # names the file, from every command that reads a config
    bad = tmp_path / "bad.json"
    for data, message in [(b"{not json", "is not valid JSON"), (b"\xff\xfe{}", "cannot read")]:
        bad.write_bytes(data)
        for command in ("solve", "sweep", "threshold"):
            assert main([command, "--config", str(bad), "--out", str(tmp_path / "out")]) == 1
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1
            assert message in err and str(bad) in err


AFFINE = AFFINE_PROBLEM["conductivity"]
TABLE = {"family": "table", "breakpoints": [0.0, 1.0], "values": [1.0, 2.0]}
SWEEP = {"lambda_min": 0.0, "lambda_max": 0.04, "lambda_step": 0.02}
PAIRS = "field 'time_scale' must be an array of [lo, hi] pairs"


@pytest.mark.parametrize(
    "command,change,message",
    [
        pytest.param("solve", {"alpha": "0.25"}, "field 'alpha' must be a number", id="alpha"),
        pytest.param("solve", {"lambda": True}, "field 'lambda' must be a number", id="lambda"),
        pytest.param("solve", {"h_max": "0.01"}, "field 'h_max' must be a number", id="h_max"),
        pytest.param("solve", {"tol": False}, "field 'tol' must be a number", id="tol"),
        pytest.param("solve", {"theta": [1.0]}, "field 'theta' must be a number", id="theta"),
        pytest.param(
            "solve", {"alpha": 10**400}, "field 'alpha' is out of the float range", id="huge"
        ),
        pytest.param("solve", {"max_iter": 2.7}, "'max_iter' must be an integer", id="max_iter"),
        pytest.param(
            "solve", {"max_iter": True}, "'max_iter' must be an integer", id="max_iter-bool"
        ),
        pytest.param(
            "solve", {"max_iter": "200"}, "'max_iter' must be an integer", id="max_iter-str"
        ),
        pytest.param("solve", {"time_scale": ["01"]}, f"{PAIRS}; entry 0 is '01'", id="scale"),
        pytest.param(
            "solve", {"time_scale": [[0, 1, 5]]}, f"{PAIRS}; entry 0 is [0, 1, 5]", id="triple"
        ),
        pytest.param("solve", {"time_scale": "[[0, 1]]"}, PAIRS, id="scale-str"),
        pytest.param(
            "solve",
            {"time_scale": [[0, 1], ["2", 3]]},
            "an end of field 'time_scale' entry 1 must be a number",
            id="scale-end",
        ),
        pytest.param(
            "solve",
            {"conductivity": {**AFFINE, "slope": "1"}},
            "conductivity field 'slope' must be a number",
            id="slope",
        ),
        pytest.param(
            "solve",
            {"conductivity": {"family": "constant", "c": True}},
            "conductivity field 'c' must be a number",
            id="c",
        ),
        pytest.param(
            "solve",
            {"conductivity": {**TABLE, "values": ["1", 2.0]}},
            "an entry of conductivity field 'values' must be a number",
            id="table-values",
        ),
        pytest.param(
            "solve",
            {"conductivity": {**TABLE, "breakpoints": "0,1"}},
            "conductivity field 'breakpoints' must be an array of numbers",
            id="table-breakpoints",
        ),
        pytest.param(
            "solve",
            {"conductivity": {"family": ["constant"], "c": 1.0}},
            "unknown conductivity family ['constant']",
            id="family",
        ),
        pytest.param(
            "sweep",
            {"sweep": {**SWEEP, "lambda_step": "0.02"}},
            "field 'lambda_step' of 'sweep' must be a number",
            id="sweep-step",
        ),
        pytest.param(
            "sweep",
            {"sweep": {**SWEEP, "lambda_min": False}},
            "field 'lambda_min' of 'sweep' must be a number",
            id="sweep-min",
        ),
    ],
)
def test_config_numbers_must_be_json_numbers(tmp_path, capsys, command, change, message):
    # float() would take "0.25", true and "01"; int() would cut 2.7 to 2
    cfg = write_config(tmp_path, {**AFFINE_PROBLEM, **change})
    assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


def test_integral_max_iter_is_read_as_an_integer():
    spec = problem_from_json({**AFFINE_PROBLEM, "max_iter": 50.0})
    assert spec.max_iter == 50 and isinstance(spec.max_iter, int)


def test_usage_errors_exit_one(tmp_path, capsys):
    assert main(["solve", "--config", "x.json"]) == 1  # --out missing
    assert main(["frobnicate"]) == 1  # unknown subcommand
    assert main([]) == 1  # no subcommand
    assert main(["verify", "--strict"]) == 1  # verify has no --strict
    cfg = write_config(tmp_path, AFFINE_PROBLEM)
    threshold = ["threshold", "--config", cfg, "--out", str(tmp_path / "t")]
    assert main(threshold + ["--strict"]) == 1  # threshold has no --strict
    assert "error:" in capsys.readouterr().err


def test_solve_strict_flags_non_convergence(tmp_path, capsys):
    stuck = {
        **AFFINE_PROBLEM,
        "lambda": 1.0,  # far above the uniqueness threshold
        "max_iter": 3,
    }
    cfg = write_config(tmp_path, stuck)
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "soft")]) == 0
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "hard"), "--strict"]) == 3
    captured = capsys.readouterr()
    assert "non-convergence is fatal" in captured.err
    assert captured.out.count("did not converge in 3 iterations") == 2
    report = json.loads((tmp_path / "hard" / "report.json").read_text())
    assert report["converged"] is False


@pytest.mark.parametrize("command", ["solve", "sweep"])
def test_an_undamped_theta_still_loads_and_any_other_is_refused(tmp_path, capsys, command):
    # Picard runs undamped: "theta": 1 names the iteration every run makes,
    # so it changes no output byte.  Any other value asks for a damped
    # update that does not exist, and as unknown keys are ignored it would
    # run undamped unnoticed, so it fails in one line
    problem = {**AFFINE_PROBLEM, "sweep": SWEEP}

    def run(name, extra):
        cfg = write_config(tmp_path, {**problem, **extra}, f"{name}.json")
        return main([command, "--config", cfg, "--out", str(tmp_path / name)])

    assert run("plain", {}) == 0
    files = sorted(path.name for path in (tmp_path / "plain").iterdir())
    for name, theta in (("int", 1), ("float", 1.0)):
        assert run(name, {"theta": theta}) == 0
        for file in files:
            assert (tmp_path / name / file).read_bytes() == (tmp_path / "plain" / file).read_bytes()
    assert len(set(capsys.readouterr().out.splitlines())) == 1
    for theta in (0.5, 1.5, 0):
        assert run(f"refused-{theta}", {"theta": theta}) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and not (tmp_path / f"refused-{theta}").exists()
        assert captured.err == (
            "error: field 'theta' was removed: Picard runs undamped, so it may only be 1\n"
        )


# -- threshold -------------------------------------------------------------


def test_threshold_report(tmp_path):
    cfg = write_config(tmp_path, AFFINE_PROBLEM)
    out = tmp_path / "out"
    assert main(["threshold", "--config", cfg, "--out", str(out)]) == 0
    data = json.loads((out / "threshold.json").read_text())
    assert abs(data["lambda_star"] - math.gamma(1.5) / 9.0) <= 1e-15
    # q scales linearly in lambda: at lambda = 0.05 it is 0.05 * 9 / gamma(1.5)
    assert abs(data["q_at_lambda"] - 0.05 * 9.0 / math.gamma(1.5)) <= 1e-13
    t1, t2 = data["terms"]["term1"], data["terms"]["term2"]
    assert abs((t1 + t2) - data["q_at_lambda"]) <= 1e-15
    assert abs(t1 - 0.05 / math.gamma(1.5)) <= 1e-14


def test_threshold_infinite_for_flat_model(tmp_path):
    cfg = write_config(tmp_path, CONSTANT_PROBLEM)
    out = tmp_path / "out"
    assert main(["threshold", "--config", cfg, "--out", str(out)]) == 0
    data = json.loads((out / "threshold.json").read_text())
    assert data["lambda_star"] == "inf"
    assert data["q_at_lambda"] == 0.0


# -- sweep -----------------------------------------------------------------

SWEEP_FLAGS = ["--lambda-min", "0.0", "--lambda-max", "0.06", "--lambda-step", "0.01"]



def test_sweep_with_flags(tmp_path):
    cfg = write_config(tmp_path, AFFINE_PROBLEM)
    out = tmp_path / "out"
    rc = main(
        [
            "sweep",
            "--config",
            cfg,
            "--out",
            str(out),
            "--lambda-min",
            "0.0",
            "--lambda-max",
            "0.08",
            "--lambda-step",
            "0.02",
        ]
    )
    assert rc == 0
    rows = read_csv(out / "sweep.csv")
    assert len(rows) == 5
    lams = [float(r["lambda"]) for r in rows]
    assert lams == sorted(lams)
    assert lams[0] == 0.0 and abs(lams[-1] - 0.08) <= 1e-12
    # the zero-multiplier run is the zero profile
    assert float(rows[0]["sup_norm"]) == 0.0
    assert rows[0]["converged"] == "true"
    # q is linear in lambda, so consecutive gaps agree
    qs = [float(r["q"]) for r in rows]
    gaps = [b - a for a, b in zip(qs, qs[1:])]
    assert all(abs(g - gaps[0]) <= 1e-12 for g in gaps)
    assert all(r["converged"] == "true" for r in rows)  # all below threshold


def test_sweep_from_config_section(tmp_path):
    cfg = write_config(
        tmp_path,
        {**AFFINE_PROBLEM, "sweep": {"lambda_min": 0.0, "lambda_max": 0.04, "lambda_step": 0.02}},
    )
    out = tmp_path / "out"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    assert len(read_csv(out / "sweep.csv")) == 3


def test_sweep_requires_a_range(tmp_path, capsys):
    cfg = write_config(tmp_path, AFFINE_PROBLEM)
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
    assert "sweep needs lambda_min" in capsys.readouterr().err


def test_sweep_rejects_bad_step(tmp_path, capsys):
    cfg = write_config(tmp_path, AFFINE_PROBLEM)
    rc = main(
        [
            "sweep",
            "--config",
            cfg,
            "--out",
            str(tmp_path / "out"),
            "--lambda-min",
            "0.0",
            "--lambda-max",
            "0.1",
            "--lambda-step",
            "-0.01",
        ]
    )
    assert rc == 1
    assert "lambda_step" in capsys.readouterr().err


@pytest.mark.parametrize(
    "values,message",
    [
        pytest.param({"--lambda-min": "nan"}, "must be finite", id="--lambda-min"),
        pytest.param({"--lambda-max": "inf"}, "must be finite", id="--lambda-max"),
        pytest.param({"--lambda-step": "nan"}, "must be finite", id="--lambda-step"),
        # finite bounds whose lambda count overflows to inf
        pytest.param(
            {"--lambda-max": "1e300", "--lambda-step": "1e-300"},
            "at most 10000 lambda values",
            id="count",
        ),
    ],
)
def test_sweep_rejects_non_finite_range(tmp_path, capsys, values, message):
    cfg = write_config(tmp_path, AFFINE_PROBLEM)
    args = ["sweep", "--config", cfg, "--out", str(tmp_path / "out"), *SWEEP_FLAGS]
    for flag, value in values.items():
        args[args.index(flag) + 1] = value
    assert main(args) == 1
    assert message in capsys.readouterr().err


def test_sweep_refuses_a_count_past_the_cap(tmp_path, capsys):
    # a span of 9999.99999999995 steps is under the cap but rounds to 10001
    # values, the last of them 0.01, past lambda_max
    cfg = write_config(tmp_path, AFFINE_PROBLEM)
    out = tmp_path / "out"
    flags = ["--lambda-min", "0", "--lambda-max", "9.99999999999995e-3", "--lambda-step", "1e-6"]
    assert main(["sweep", "--config", cfg, "--out", str(out), *flags]) == 1
    assert "at most 10000 lambda values" in capsys.readouterr().err
    assert not out.exists()
    # 9.999e-3 gives exactly the cap, counted without running its solves
    flags[3] = "9.999e-3"
    args = _build_parser().parse_args(["sweep", "--config", cfg, "--out", str(out), *flags])
    assert _sweep_range(args, AFFINE_PROBLEM, problem_from_json(AFFINE_PROBLEM)) == (
        0.0,
        1e-6,
        10_000,
    )


def test_sweep_strict_non_convergence(tmp_path, capsys):
    cfg = write_config(tmp_path, {**AFFINE_PROBLEM, "max_iter": 2})
    args = [
        "sweep",
        "--config",
        cfg,
        "--out",
        str(tmp_path / "out"),
        "--lambda-min",
        "0.5",
        "--lambda-max",
        "0.5",
        "--lambda-step",
        "0.1",
        "--strict",
    ]
    assert main(args) == 3
    assert "non-convergence is fatal" in capsys.readouterr().err


def test_sweep_deterministic_across_thread_counts(tmp_path):
    cfg = write_config(tmp_path, AFFINE_PROBLEM)
    blobs = []
    for d in ("a", "b"):
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path / d), *SWEEP_FLAGS]) == 0
        blobs.append((tmp_path / d / "sweep.csv").read_bytes())
    assert blobs[0] == blobs[1]


def test_sweep_rows_match_single_solves(tmp_path):
    cfg = write_config(tmp_path, AFFINE_PROBLEM)
    out = tmp_path / "out"
    assert main(["sweep", "--config", cfg, "--out", str(out), *SWEEP_FLAGS]) == 0
    rows = read_csv(out / "sweep.csv")
    assert len(rows) == 7
    spec = problem_from_json(AFFINE_PROBLEM)
    for row in rows:
        lam = float(row["lambda"])
        rep = picard_solve(replace(spec, lam=lam))
        assert row == {
            "lambda": repr(lam),
            "iterations": str(rep.iterations),
            "residual": repr(rep.residual),
            "q": repr(rep.spec.bounds.q),
            "converged": "true" if rep.converged else "false",
            "sup_norm": repr(rep.solution.norm_inf()),
        }


# the README's scale at 1503 nodes, where a lane loop runs a handful of lanes
README_PROBLEM = {
    **AFFINE_PROBLEM,
    "time_scale": [[0.0, 1.0], [1.5, 1.5], [2.0, 2.5]],
    "h_max": 1e-3,
}


def test_sweep_lanes_write_the_rows_of_single_solves(tmp_path):
    # twice the lanes and three more multipliers, from lambda = 0: three
    # batches, where lanes that hit max_iter run beside lanes that converge
    # (in 1 or in 16 to 19 iterations), and every row is its single
    # solve's, in lambda order
    problem = {
        **README_PROBLEM,
        "max_iter": 17,
        "conductivity": {"family": "bounded_rational", "c1": 1.0, "c2": 3.0, "scale": 0.5},
    }
    spec = problem_from_json(problem)
    count = 2 * (solver.LANE_BYTES // (8 * len(spec.grid))) + 3
    assert count >= 7
    cfg = write_config(tmp_path, problem)
    out = tmp_path / "out"
    flags = ["--lambda-min", "0", "--lambda-max", repr(5.0 * (count - 1)), "--lambda-step", "5"]
    assert main(["sweep", "--config", cfg, "--out", str(out), *flags]) == 0
    rows = read_csv(out / "sweep.csv")
    assert len(rows) == count
    for k, row in enumerate(rows):
        rep = picard_solve(replace(spec, lam=5.0 * k))
        assert row == {
            "lambda": repr(5.0 * k),
            "iterations": str(rep.iterations),
            "residual": repr(rep.residual),
            "q": repr(rep.spec.bounds.q),
            "converged": "true" if rep.converged else "false",
            "sup_norm": repr(rep.solution.norm_inf()),
        }
    assert {row["converged"] for row in rows} == {"true", "false"}


def test_sweep_memory_does_not_grow_with_its_lambda_count(tmp_path):
    # the lanes hold O(lanes n) floats, a finished lane only its row, and
    # the range no list of its values: 2000 multipliers peak within 10 % of
    # 16, which already fill every lane
    problem = {**README_PROBLEM, "max_iter": 1}
    assert solver.LANE_BYTES // (8 * len(problem_from_json(problem).grid)) < 16
    cfg = write_config(tmp_path, problem)
    out = tmp_path / "out"
    peaks = []
    for count in (16, 16, 2000):  # the first run builds the operator
        flags = ["--lambda-min", "0", "--lambda-max", repr(0.001 * (count - 1))]
        tracemalloc.start()
        try:
            args = ["sweep", "--config", cfg, "--out", str(out), *flags, "--lambda-step", "0.001"]
            assert main(args) == 0
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert len(read_csv(out / "sweep.csv")) == 2000
    assert peaks[2] <= 1.1 * peaks[1]


def test_sweep_builds_one_grid_and_one_operator(tmp_path, monkeypatch):
    calls = {"grid": 0, "operator": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    monkeypatch.setattr(solver, "build_grid", counted("grid", solver.build_grid))
    monkeypatch.setattr(
        fractional, "KernelOperator", counted("operator", fractional.KernelOperator)
    )
    fractional.frac_integral_operator.cache_clear()
    cfg = write_config(tmp_path, AFFINE_PROBLEM)
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "out"), *SWEEP_FLAGS]) == 0
    assert len(read_csv(tmp_path / "out" / "sweep.csv")) == 7
    assert calls == {"grid": 1, "operator": 1}


@pytest.mark.parametrize("command", ["solve", "sweep"])
def test_operator_over_memory_cap_exits_one(tmp_path, capsys, monkeypatch, command):
    # a 4350-node fragmented scale needs 5.6 MiB of row blocks: over a cap
    # lowered to 1 MiB it is refused, as a real over-cap scale would be,
    # without the seconds such a scale takes to lay down
    monkeypatch.setattr(fractional, "DENSE_CAP", 2**20)
    fractional.frac_integral_operator.cache_clear()
    rng = np.random.default_rng(17)
    scale = [list(c) for c in fragmented_scale(rng, 600).components]
    cfg = write_config(tmp_path, {**AFFINE_PROBLEM, "time_scale": scale, "h_max": 0.005})
    args = [command, "--config", cfg, "--out", str(tmp_path / "out")]
    assert main(args + (SWEEP_FLAGS if command == "sweep" else [])) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "GiB of blocks, above the 0.000977 GiB cap" in err
    assert "Traceback" not in err


def test_unequal_long_intervals_solve_in_memory_linear_in_n_terms(tmp_path):
    # once refused for a 3.1 GiB dense cross block between the spacings
    cfg = write_config(
        tmp_path, {**AFFINE_PROBLEM, "time_scale": [[0.0, 1.0], [2.0, 3.5]], "h_max": 6e-5}
    )
    fractional.frac_integral_operator.cache_clear()
    tracemalloc.start()
    try:
        code = main(["solve", "--config", cfg, "--out", str(tmp_path / "out")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    n, terms = 41669, report["operator"]["soe_terms"]
    assert report["converged"] and report["operator"]["distinct_blocks"] <= 5
    assert 0 < terms < 128 and peak < 2 * 8 * n * terms


def test_report_describes_the_operator(tmp_path):
    # block counts, bytes, terms, kernel error and lattice deviation: no
    # timings, so the report stays byte-identical from run to run
    rng = np.random.default_rng(17)
    scale = [list(c) for c in fragmented_scale(rng, 100).components]
    cfg = write_config(tmp_path, {**AFFINE_PROBLEM, "time_scale": scale, "h_max": 0.005})
    for d in ("a", "b"):
        fractional.frac_integral_operator.cache_clear()
        assert main(["solve", "--config", cfg, "--out", str(tmp_path / d)]) == 0
    text = (tmp_path / "a" / "report.json").read_bytes()
    assert text == (tmp_path / "b" / "report.json").read_bytes()
    op = json.loads(text)["operator"]
    assert set(op) == {"row_blocks", "distinct_blocks", "bytes", "soe_terms", "eps", "lattice_dev"}
    assert 0 < op["distinct_blocks"] <= op["row_blocks"] and op["lattice_dev"] >= 0.0
    assert op["soe_terms"] > 0 and 0.0 < op["eps"] < 1e-14 and op["bytes"] > 0
    assert "solution" not in json.loads(text)


@pytest.mark.parametrize("command", ["solve", "sweep"])
def test_grid_over_node_cap_exits_one(tmp_path, capsys, command):
    # 1e12 nodes: refused from the count, before any array is allocated
    cfg = write_config(tmp_path, {**AFFINE_PROBLEM, "h_max": 1e-12})
    args = [command, "--config", cfg, "--out", str(tmp_path / "out")]
    tracemalloc.start()
    try:
        code = main(args + (SWEEP_FLAGS if command == "sweep" else []))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 1 and peak < 4 * 2**20
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "1e+12 nodes" in err
    assert "Traceback" not in err
    # threshold needs no grid, so the same config succeeds there
    assert main(["threshold", "--config", cfg, "--out", str(tmp_path / "out")]) == 0


@pytest.mark.parametrize("command", ["solve", "sweep"])
def test_grid_that_fails_its_own_check_exits_one(tmp_path, capsys, command):
    # cells of 1e-4 on [1e5, 100001] round wider than h_max: the grid is
    # built before the solver runs, so its check ends in one error line
    cfg = write_config(tmp_path, {**AFFINE_PROBLEM, "time_scale": [[1e5, 100001]], "h_max": 1e-4})
    args = [command, "--config", cfg, "--out", str(tmp_path / "out")]
    assert main(args + (SWEEP_FLAGS if command == "sweep" else [])) == 1
    err = capsys.readouterr().err
    assert err == "error: cell wider than h_max inside an interval\n"
    # threshold builds no grid, so the same config succeeds there
    assert main(["threshold", "--config", cfg, "--out", str(tmp_path / "out")]) == 0


def test_write_report_streams_its_files(tmp_path):
    # a report of 1e5 nodes: writing it holds no list of row strings and
    # no whole-file string beside the solution
    from chronofrac import Constant, ProblemSpec
    from chronofrac.cli import _write_report
    from chronofrac.timescale import GridFunction, TimeScale, build_grid

    ts = TimeScale.interval(0.0, 1.0)
    grid = build_grid(ts, 1e-5)
    u = GridFunction.from_array(grid, np.sin(grid.nodes) / 3.0)
    spec = ProblemSpec(ts, 0.25, 0.4, Constant(2.0), h_max=1e-5)
    report = solver.SolveReport(spec, u, 3, True, (0.5, 1e-6, 1e-12), 1e-12, 1e-11, True, {})
    tracemalloc.start()
    try:
        _write_report(tmp_path, report)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 128 * len(grid)
    assert json.loads((tmp_path / "report.json").read_text()) == report.to_json()
    lines = (tmp_path / "solution.csv").read_text().splitlines()
    assert lines[0] == "t,u" and len(lines) == len(grid) + 1
    assert lines[-1] == f"{1.0!r},{float(u.values[-1])!r}"
    assert (tmp_path / "trace.csv").read_text() == "k,d_k\n1,0.5\n2,1e-06\n3,1e-12\n"


# the README's scale and conductivity; a lambda past about 2.3e306 there
# overflows q(lambda), the sup bound or the numerator bound
OVERFLOW_PROBLEM = {**AFFINE_PROBLEM, "time_scale": [[0.0, 1.0], [1.5, 1.5], [2.0, 2.5]]}
SWEEP_TO_1E308 = ["--lambda-min", "0", "--lambda-max", "1e308", "--lambda-step", "1e306"]

# windows and conductivities that take the bounds out of the float range
# already at lambda = 1: a power overflows, or one underflows to a zero divisor
OUT_OF_RANGE = {
    "window-1e80": {"time_scale": [[0.0, 1e80]]},
    "window-1e-100": {"time_scale": [[0.0, 1e-100]]},
    "window-near-max": {"time_scale": [[1e300, 1.5e300]]},
    "constant-1e-200": {"conductivity": {"family": "constant", "c": 1e-200}},
    "table-1e-170": {
        "conductivity": {"family": "table", "breakpoints": [0.0, 1.0], "values": [1e-170, 1.0]}
    },
    "rational-c2-1e300": {
        "conductivity": {"family": "bounded_rational", "c1": 1.0, "c2": 1e300, "scale": 1.0}
    },
}


@pytest.mark.parametrize(
    "command,change,flags,message",
    [
        # the ids pytest gave these three when lambda was the only parameter
        pytest.param("solve", {"lambda": 1e308}, [], "lambda=1e+308 ", id="solve-1e+308-flags0"),
        pytest.param(
            "threshold", {"lambda": 1e308}, [], "lambda=1e+308 ", id="threshold-1e+308-flags1"
        ),
        pytest.param("sweep", {}, SWEEP_TO_1E308, "lambda=1e+308 ", id="sweep-0.05-flags2"),
        *(
            pytest.param(
                command,
                change,
                SWEEP_FLAGS if command == "sweep" else [],
                "a window span of ",
                id=f"{command}-{name}",
            )
            for name, change in OUT_OF_RANGE.items()
            for command in ("solve", "threshold", "sweep")
        ),
    ],
)
def test_overflowing_lambda_fails_at_the_boundary(
    tmp_path, capsys, command, change, flags, message
):
    cfg = write_config(tmp_path, {**OVERFLOW_PROBLEM, **change})
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out), *flags]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}") and err.count("\n") == 1
    # nothing is written, so no JSON file can hold Infinity
    assert not out.exists()


def test_a_table_whose_slope_overflows_fails_in_one_line(tmp_path):
    # its slope 1e300 / 1e-300 is past the float range: L = inf, which the
    # bounds refuse, and no RuntimeWarning is printed before the error line
    table = {"family": "table", "breakpoints": [0.0, 1e-300], "values": [1.0, 1e300]}
    cfg = write_config(tmp_path, {**AFFINE_PROBLEM, "conductivity": table})
    out = tmp_path / "out"
    proc = _child(["threshold", "--config", cfg, "--out", str(out)], capture_output=True)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: a window span of ") and proc.stderr.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("command", ["solve", "threshold", "sweep", "verify"])
def test_an_out_that_cannot_be_created_exits_one(tmp_path, capsys, command):
    # --out names an existing file: one error line, exit 1, nothing written
    cfg = write_config(tmp_path, AFFINE_PROBLEM)
    taken = tmp_path / "taken"
    taken.write_text("kept\n")
    args = [command, "--out", str(taken)]
    if command != "verify":
        args += ["--config", cfg]
    if command == "sweep":
        args += SWEEP_FLAGS
    before = sorted(tmp_path.rglob("*"))
    assert main(args) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert re.fullmatch(r"error: cannot create output directory \S+: .+\n", captured.err)
    assert sorted(tmp_path.rglob("*")) == before and taken.read_text() == "kept\n"


@pytest.mark.parametrize(
    "command,name",
    [("solve", "report.json"), ("threshold", "threshold.json"), ("sweep", "sweep.csv"),
     ("verify", "verify.json")],
)
def test_an_output_file_that_cannot_be_written_exits_one(tmp_path, capsys, command, name):
    # a directory stands where the output file goes: one error line that
    # names the file, exit 1
    cfg = write_config(tmp_path, AFFINE_PROBLEM)
    out = tmp_path / "out"
    (out / name).mkdir(parents=True)
    args = [command, "--out", str(out)]
    if command != "verify":
        args += ["--config", cfg]
    if command == "sweep":
        args += SWEEP_FLAGS
    assert main(args) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(out / name) in err


# -- verify ----------------------------------------------------------------


def test_verify_shipped_suite(tmp_path, capsys):
    assert main(["verify", "--out", str(tmp_path / "out")]) == 0
    out = capsys.readouterr().out
    assert "0 failures" in out
    assert "FAIL" not in out
    data = json.loads((tmp_path / "out" / "verify.json").read_text())
    assert data["failures"] == 0
    assert data["checks"] == len(data["lines"])


def test_verify_catches_a_regression(tmp_path, capsys):
    cases = [
        {
            "name": "deliberately_wrong_gamma",
            "inputs": {"kind": "gamma", "params": {"x": 1.0}},
            "expected": 2.0,
            "tolerance": 1e-12,
        }
    ]
    (tmp_path / "cases").mkdir()
    (tmp_path / "cases" / "suite.json").write_text(json.dumps(cases))
    assert main(["verify", "--cases", str(tmp_path / "cases")]) == 2
    out = capsys.readouterr().out
    assert "FAIL deliberately_wrong_gamma" in out
    assert "1 failures" in out


def test_verify_reports_a_case_that_overflows(tmp_path, capsys):
    # math.gamma(200) raises OverflowError; the case fails, the run goes on
    cases = [
        {"name": "huge_gamma", "inputs": {"kind": "gamma", "params": {"x": 200}}},
        {"name": "unit_gamma", "inputs": {"kind": "gamma", "params": {"x": 1.0}}},
    ]
    for case in cases:
        case.update(expected=1.0, tolerance=1e-12)
    (tmp_path / "cases").mkdir()
    (tmp_path / "cases" / "suite.json").write_text(json.dumps(cases))
    assert main(["verify", "--cases", str(tmp_path / "cases")]) == 2
    out = capsys.readouterr().out
    assert "FAIL huge_gamma: could not evaluate (math range error)" in out
    assert "ok   unit_gamma" in out and "1 failures" in out


def test_verify_empty_directory(tmp_path, capsys):
    (tmp_path / "cases").mkdir()
    assert main(["verify", "--cases", str(tmp_path / "cases")]) == 0
    assert "0 cases" in capsys.readouterr().out


def test_verify_missing_directory(tmp_path, capsys):
    assert main(["verify", "--cases", str(tmp_path / "nope")]) == 1
    assert "does not exist" in capsys.readouterr().err


@pytest.mark.parametrize(
    "entry,message",
    [
        pytest.param(5, "entry 1: oracle case must be a JSON object", id="case"),
        pytest.param(
            {"name": "a", "inputs": 5, "expected": 1.0, "tolerance": 1e-12},
            "entry 1: oracle case field 'inputs' must be an object",
            id="inputs",
        ),
    ],
)
def test_verify_rejects_a_malformed_suite(tmp_path, capsys, entry, message):
    good = {"name": "g", "inputs": {"kind": "gamma", "params": {"x": 1.0}}}
    good.update(expected=1.0, tolerance=1e-12)
    (tmp_path / "cases").mkdir()
    (tmp_path / "cases" / "suite.json").write_text(json.dumps([good, entry]))
    assert main(["verify", "--cases", str(tmp_path / "cases")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"suite.json: {message}" in err


@pytest.mark.parametrize(
    "make",
    [
        pytest.param(lambda path: path.mkdir(), id="directory"),
        pytest.param(lambda path: path.write_text("[{not json"), id="json"),
        pytest.param(lambda path: path.write_bytes(b"\xff\xfe[]"), id="utf8"),
    ],
)
def test_verify_names_a_suite_it_cannot_read(tmp_path, capsys, make):
    # bad.json sits among good suites: one error line that names it, exit 1
    good = [{"name": "g", "inputs": {"kind": "gamma", "params": {"x": 1.0}},
             "expected": 1.0, "tolerance": 1e-12}]
    cases = tmp_path / "cases"
    cases.mkdir()
    for name in ("a.json", "z.json"):
        (cases / name).write_text(json.dumps(good))
    make(cases / "bad.json")
    assert main(["verify", "--cases", str(cases)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert str(cases / "bad.json") in captured.err


# -- real process entry points ---------------------------------------------

# the console script's target, as pyproject.toml declares it
SCRIPT = re.search(
    r'^chronofrac = "([\w.]+):(\w+)"$', (ROOT / "pyproject.toml").read_text(), re.MULTILINE
)
# each way into a process, with an exit hook that only interpreter teardown runs
ENTRIES = {
    "module": "import runpy; runpy.run_module('chronofrac', run_name='__main__', alter_sys=True)",
    "console script": f"import sys; from {SCRIPT[1]} import {SCRIPT[2]}; sys.exit({SCRIPT[2]}())",
}


def _buffered() -> dict[str, str]:
    # buffered standard streams, as a user's shell gives them to a file or
    # pipe; read per call, so the sources that conftest puts on PYTHONPATH
    # reach the child also from a checkout where the package is not installed
    return {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}


def _child(args, **kwargs):
    return subprocess.run(
        [sys.executable, "-m", "chronofrac", *args], text=True, env=_buffered(), **kwargs
    )


def _check_solve_outputs(out, stdout):
    assert "solve: converged in" in stdout
    n = len(problem_from_json(CONSTANT_PROBLEM).grid)
    assert len((out / "solution.csv").read_text().splitlines()) == n + 1
    report = json.loads((out / "report.json").read_text())
    trace = (out / "trace.csv").read_text()
    assert trace.endswith("\n") and len(trace.splitlines()) == report["iterations"] + 1


def test_module_entry_point(tmp_path):
    # stdout to a file and to a pipe are both block-buffered: the summary
    # line is there only if the process flushes before it ends
    cfg = write_config(tmp_path, CONSTANT_PROBLEM)
    args = ["solve", "--config", cfg]
    with open(tmp_path / "stdout.txt", "w") as fh:
        proc = _child([*args, "--out", str(tmp_path / "file")], stdout=fh)
    assert proc.returncode == 0
    _check_solve_outputs(tmp_path / "file", (tmp_path / "stdout.txt").read_text())
    proc = _child([*args, "--out", str(tmp_path / "pipe")], capture_output=True)
    assert proc.returncode == 0, proc.stderr
    _check_solve_outputs(tmp_path / "pipe", proc.stdout)


@pytest.mark.parametrize("entry", ENTRIES)
def test_entry_points_end_without_interpreter_teardown(tmp_path, entry):
    cfg = write_config(tmp_path, CONSTANT_PROBLEM)
    hook = "import atexit; atexit.register(print, 'interpreter teardown'); "
    argv = ["chronofrac", "solve", "--config", cfg, "--out", str(tmp_path / "out")]
    proc = subprocess.run(
        [sys.executable, "-c", f"import sys; sys.argv = {argv!r}; {hook}{ENTRIES[entry]}"],
        capture_output=True,
        text=True,
        env=_buffered(),
    )
    assert proc.returncode == 0, proc.stderr
    assert "interpreter teardown" not in proc.stdout
    _check_solve_outputs(tmp_path / "out", proc.stdout)


# exit code 0, and 0 for --help, are checked by the tests beside this one
@pytest.mark.parametrize(
    "change,code,message",
    [
        pytest.param({"alpha": 0.7}, 1, "error: alpha must lie", id="bad config"),
        pytest.param(
            {"lambda": 1.0, "max_iter": 3}, 3, "non-convergence is fatal", id="strict"
        ),
    ],
)
def test_exit_codes_come_through_the_entry_point(tmp_path, change, code, message):
    cfg = write_config(tmp_path, {**AFFINE_PROBLEM, **change})
    args = ["solve", "--config", cfg, "--out", str(tmp_path / "out"), "--strict"]
    proc = _child(args, capture_output=True)
    assert proc.returncode == code
    assert message in proc.stderr


def test_help_lists_subcommands():
    proc = _child(["--help"], capture_output=True)
    assert proc.returncode == 0
    for name in ("solve", "threshold", "sweep", "verify"):
        assert name in proc.stdout
