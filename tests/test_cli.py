import json
import math
import subprocess
import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from chronofrac import fractional, picard_solve, problem_from_json, solver
from chronofrac.cli import main
from conftest import fragmented_scale

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
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["solve", "--config", str(bad), "--out", str(tmp_path / "out")]) == 1
    assert "not valid JSON" in capsys.readouterr().err


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
    err = capsys.readouterr().err
    assert "non-convergence is fatal" in err
    report = json.loads((tmp_path / "hard" / "report.json").read_text())
    assert report["converged"] is False


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
            "q": repr(rep.q),
            "converged": "true" if rep.converged else "false",
            "sup_norm": repr(rep.solution.norm_inf()),
        }


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


def test_write_report_streams_its_files(tmp_path):
    # a report of 1e5 nodes: writing it holds no list of row strings and
    # no whole-file string beside the solution
    from chronofrac.cli import _write_report
    from chronofrac.timescale import GridFunction, TimeScale, build_grid

    grid = build_grid(TimeScale.interval(0.0, 1.0), 1e-5)
    u = GridFunction.from_array(grid, np.sin(grid.nodes) / 3.0)
    report = solver.SolveReport(u, 3, True, (0.5, 1e-6, 1e-12), 0.4, 2.0, 1e-12, 1e-11, 1.0, True)
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


def test_verify_empty_directory(tmp_path, capsys):
    (tmp_path / "cases").mkdir()
    assert main(["verify", "--cases", str(tmp_path / "cases")]) == 0
    assert "0 cases" in capsys.readouterr().out


def test_verify_missing_directory(tmp_path, capsys):
    assert main(["verify", "--cases", str(tmp_path / "nope")]) == 1
    assert "does not exist" in capsys.readouterr().err


# -- real process entry points ---------------------------------------------


def test_module_entry_point(tmp_path):
    cfg = write_config(tmp_path, CONSTANT_PROBLEM)
    proc = subprocess.run(
        [sys.executable, "-m", "chronofrac", "solve", "--config", cfg, "--out", str(tmp_path / "out")],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert "converged in" in proc.stdout
    assert (tmp_path / "out" / "solution.csv").exists()


def test_help_lists_subcommands():
    proc = subprocess.run(
        [sys.executable, "-m", "chronofrac", "--help"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    for name in ("solve", "threshold", "sweep", "verify"):
        assert name in proc.stdout
