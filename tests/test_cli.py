import json
import math
import subprocess
import sys
from dataclasses import replace

import pytest

from chronofrac import picard_solve, problem_from_json
from chronofrac.cli import main

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


@pytest.mark.parametrize("flag", ["--lambda-min", "--lambda-max", "--lambda-step"])
def test_sweep_rejects_non_finite_range(tmp_path, capsys, flag):
    cfg = write_config(tmp_path, AFFINE_PROBLEM)
    args = ["sweep", "--config", cfg, "--out", str(tmp_path / "out"), *SWEEP_FLAGS]
    args[args.index(flag) + 1] = "inf" if flag == "--lambda-max" else "nan"
    assert main(args) == 1
    assert "must be finite" in capsys.readouterr().err


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
