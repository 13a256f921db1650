import json
import math
import os

import numpy as np
import pytest

from nonconvex_mm.cli import main

from helpers import read_csv_columns


def run_cli(*args):
    return main(list(args))


SMALL = ["--n", "60", "--p", "12", "--sparsity", "3", "--noise-sd", "0.5",
         "--seed", "21"]


# -------------------------------------------------------------------- solve
def test_solve_heavy_penalty_converges_to_zero(tmp_path, capsys):
    out = tmp_path / "w.txt"
    code = run_cli("solve", *SMALL, "--lambda", "5.0", "--epsilon", "1.0",
                   "--weights-out", str(out))
    captured = capsys.readouterr().out
    assert code == 0
    assert "converged      : True" in captured
    assert "nonzeros       : 0 / 12" in captured
    vals = [float(v) for v in out.read_text().split()]
    assert vals == [0.0] * 12


def test_solve_missing_file_exits_1(capsys):
    code = run_cli("solve", "--data", "/nonexistent/file.libsvm")
    assert code == 1
    assert "error" in capsys.readouterr().err


def test_bad_flag_exits_1(capsys):
    assert run_cli("solve", "--scheme", "z") == 1
    assert run_cli("nope") == 1


def test_solve_capped_l1_scheme_b_rejected(capsys):
    code = run_cli("solve", *SMALL, "--penalty", "capped-l1", "--lambda", "0.3",
                   "--scheme", "b")
    assert code == 1
    assert "scheme" in capsys.readouterr().err


def test_solve_nonfinite_writes_partial_trace_and_exits_1(tmp_path, capsys):
    path = tmp_path / "trace.json"
    with pytest.warns(UserWarning), np.errstate(over="ignore", invalid="ignore"):
        code = run_cli("solve", *SMALL, "--loss", "ls", "--penalty", "mcp", "--rho", "0.05",
                       "--tol", "0", "--out", str(path), "--format", "json", "--no-timing")
    assert code == 1
    err = capsys.readouterr().err
    assert "nonconvex-mm: error: objective became non-finite at iteration" in err
    doc = json.loads(path.read_text())
    assert doc["stop_reason"] == "nonfinite" and doc["converged"] is False
    assert f"at iteration {len(doc['iter'])};" in err
    assert all(math.isfinite(v) for v in doc["objective"] + doc["final_w"])


@pytest.mark.parametrize("flag, value, message", [
    ("--rho", "nan", "mu must be positive and finite"),
    ("--mu", "inf", "mu must be positive and finite"),
    ("--tol", "nan", "tol must be finite"),
])
def test_solve_nonfinite_setting_exits_1(capsys, flag, value, message):
    assert run_cli("solve", *SMALL, flag, value) == 1
    assert f"nonconvex-mm: error: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("loss", ["ls", "logistic"])
def test_solve_overflowing_noise_sd_exits_1(capsys, loss):
    # with logistic loss the +-inf noise used to set the labels, and the
    # run exited 0
    code = run_cli("solve", "--noise-sd", "1e308", "--n", "20", "--p", "4", "--sparsity", "2",
                   "--loss", loss)
    assert code == 1
    assert "nonconvex-mm: error: noise_sd=1e+308 is too large" in capsys.readouterr().err


def test_solve_with_a_nonfinite_start_objective_exits_1(capsys):
    # ||y||^2 overflows: the residual's sum of squares is inf, with no
    # RuntimeWarning, and main reports the objective by name
    code = run_cli("solve", "--loss", "ls", "--penalty", "scad", "--scheme", "a", "--n", "60",
                   "--p", "12", "--sparsity", "3", "--noise-sd", "1e155")
    assert code == 1
    assert ("nonconvex-mm: error: objective is not finite at the starting point"
            in capsys.readouterr().err)


def test_solve_budget_exhausted_exits_2(tmp_path):
    code = run_cli("solve", *SMALL, "--lambda", "0.2", "--epsilon", "1.0",
                   "--max-iter", "3", "--tol", "1e-14")
    assert code == 2


def test_solve_writes_descent_valid_trace(tmp_path):
    # the experiment protocol: logistic + LOG, mu = rho * sum ||x_i||^2/(4n)
    path = tmp_path / "trace.csv"
    code = run_cli("solve", "--n", "200", "--p", "50", "--sparsity", "5",
                   "--noise-sd", "0.5", "--seed", "42",
                   "--loss", "logistic", "--penalty", "log-eps",
                   "--lambda", "0.2", "--epsilon", "1.0", "--rho", "1.01",
                   "--scheme", "b", "--out", str(path), "--max-iter", "5000",
                   "--tol", "1e-10")
    assert code == 0
    header, rows = read_csv_columns(path)
    assert header == ["iter", "objective", "step_norm", "residual", "elapsed_sec"]
    objs = [float(r[1]) for r in rows]
    assert all(b <= a + 1e-12 * max(1.0, abs(a)) for a, b in zip(objs, objs[1:]))
    # final weights land in a sidecar next to the csv trace
    sidecar = str(path) + ".weights"
    assert os.path.exists(sidecar)
    with open(sidecar) as fh:
        assert len(fh.readlines()) == 50


def test_solve_json_output(tmp_path):
    path = tmp_path / "trace.json"
    code = run_cli("solve", *SMALL, "--lambda", "0.3", "--format", "json",
                   "--out", str(path))
    assert code == 0
    import json
    payload = json.loads(path.read_text())
    assert payload["config"]["seed"] == 21
    assert payload["config"]["scheme"] == "b"
    assert payload["stop_reason"] == "tol"


def test_cli_determinism_byte_identical(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    flags = ["solve", *SMALL, "--lambda", "0.2", "--no-timing", "--tol", "1e-8"]
    assert run_cli(*flags, "--out", str(a)) == 0
    assert run_cli(*flags, "--out", str(b)) == 0
    assert a.read_bytes() == b.read_bytes()


def test_elapsed_column_measured_without_flag(tmp_path):
    path = tmp_path / "t.csv"
    assert run_cli("solve", *SMALL, "--lambda", "0.2", "--out", str(path)) == 0
    cols_header, rows = read_csv_columns(path)
    elapsed = [float(r[4]) for r in rows]
    assert elapsed[-1] > 0.0
    assert all(a <= b for a, b in zip(elapsed, elapsed[1:]))


# -------------------------------------------------------------------- bench
def test_bench_schemes_agree(tmp_path, capsys):
    path = tmp_path / "bench.csv"
    code = run_cli("bench", *SMALL, "--lambda", "0.2", "--epsilon", "1.0",
                   "--tol", "1e-10", "--out", str(path))
    out = capsys.readouterr().out
    assert code == 0
    header, rows = read_csv_columns(path)
    assert header == ["iter", "elapsed_sec", "objective_a", "objective_b"]
    fa = float(rows[-1][2])
    fb = float(rows[-1][3])
    assert abs(fa - fb) <= 1e-4 * (1.0 + abs(fa))
    assert "|F_a - F_b|" in out
    # each scheme's steps, loss evaluations and final certified residual,
    # and no time per iteration
    assert "time per iteration" not in out
    lines = out.splitlines()
    assert lines[0].split() == ["scheme", "steps", "loss", "evals", "final", "kkt"]
    for scheme, line in zip("ab", lines[1:3]):
        name, steps, evals, kkt = line.split()
        assert name == scheme
        assert 0 < int(steps) <= int(evals)
        assert 0.0 <= float(kkt) < 1e-4
    assert len(rows) == max(int(line.split()[1]) for line in lines[1:3]) + 1


def test_bench_pads_the_shorter_scheme_with_its_final_objective(tmp_path):
    # each objective column is that scheme's own solve trace; a scheme that
    # stopped earlier repeats its final objective down to the last row
    flags = [*SMALL, "--lambda", "0.2", "--epsilon", "1.0", "--tol", "1e-8", "--no-timing"]
    bench = tmp_path / "bench.csv"
    assert run_cli("bench", *flags, "--out", str(bench)) == 0
    _, rows = read_csv_columns(bench)
    lengths = []
    for col, scheme in ((2, "a"), (3, "b")):
        trace = tmp_path / f"{scheme}.csv"
        assert run_cli("solve", *flags, "--scheme", scheme, "--out", str(trace)) == 0
        _, trace_rows = read_csv_columns(trace)
        objective = [r[1] for r in trace_rows]
        lengths.append(len(objective))
        padded = objective + [objective[-1]] * (len(rows) - len(objective))
        assert [r[col] for r in rows] == padded
    assert len(rows) == max(lengths) > min(lengths)
    assert [r[:2] for r in rows] == [[str(k), "0.0"] for k in range(len(rows))]


@pytest.mark.parametrize("flag", [["--scheme", "b"], ["--format", "json"],
                                  ["--weights-out", "w.txt"]])
def test_bench_refuses_the_flags_of_a_single_trace(tmp_path, capsys, monkeypatch, flag):
    # bench writes one combined CSV for both schemes; it has no scheme to
    # pick, no trace format and no single final w
    monkeypatch.chdir(tmp_path)
    code = run_cli("bench", *SMALL, "--lambda", "0.2", *flag, "--out", "bench.out")
    assert code == 1
    assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_bench_capped_l1_runs_scheme_a_only(tmp_path, capsys):
    path = tmp_path / "bench.csv"
    code = run_cli("bench", *SMALL, "--penalty", "capped-l1", "--lambda", "0.3",
                   "--theta", "1.0", "--tol", "1e-8", "--out", str(path))
    out = capsys.readouterr().out
    assert code == 0
    assert "scheme b unsupported" in out
    _, rows = read_csv_columns(path)
    assert all(r[3] == "" for r in rows)


def test_bench_deterministic_csv(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    flags = ["bench", *SMALL, "--lambda", "0.2", "--no-timing", "--tol", "1e-8"]
    assert run_cli(*flags, "--out", str(a)) == 0
    assert run_cli(*flags, "--out", str(b)) == 0
    assert a.read_bytes() == b.read_bytes()


# ----------------------------------------------------------------- diagnose
def test_diagnose_healthy_run_exits_0(capsys):
    code = run_cli("diagnose", *SMALL, "--lambda", "0.2", "--tol", "1e-10")
    out = capsys.readouterr().out
    assert code == 0
    assert "all inequality checks passed" in out
    assert "rate regime" in out


def test_diagnose_forced_bad_mu_exits_3(capsys):
    with pytest.warns(UserWarning):
        code = run_cli("diagnose", *SMALL, "--lambda", "0.2", "--rho", "0.5",
                       "--max-iter", "50")
    out = capsys.readouterr().out
    assert code == 3
    assert "FAILED checks" in out
    assert "gamma" in out or "majorization" in out


def test_diagnose_budget_exhausted_exits_2(tmp_path, capsys):
    path = tmp_path / "diag.json"
    code = run_cli("diagnose", *SMALL, "--lambda", "0.02", "--epsilon", "1.0",
                   "--tol", "1e-10", "--max-iter", "100", "--format", "json",
                   "--out", str(path))
    assert "all inequality checks passed" in capsys.readouterr().out
    assert code == 2
    import json
    payload = json.loads(path.read_text())
    assert payload["converged"] is False
    assert payload["stop_reason"] == "budget"
    assert payload["certificate"]["passed"] is True


def test_diagnose_start_at_critical_point_trivial_report(capsys):
    code = run_cli("diagnose", *SMALL, "--lambda", "5.0", "--epsilon", "1.0")
    out = capsys.readouterr().out
    assert code == 0
    assert "rate regime" in out


def test_diagnose_json_embeds_rate_fit(tmp_path):
    path = tmp_path / "diag.json"
    code = run_cli("diagnose", *SMALL, "--lambda", "0.2", "--epsilon", "1.0",
                   "--tol", "1e-10", "--format", "json", "--out", str(path))
    assert code == 0
    import json
    payload = json.loads(path.read_text())
    assert payload["rate_fit"]["regime"] in ("linear", "sublinear", "finite",
                                             "undetermined")
    assert "fit_quality" in payload["rate_fit"]
    cert = payload["certificate"]
    assert cert["passed"] is True and cert["failures"] == []
    assert cert["worst_descent"] >= -1e-9 and cert["worst_bound"] >= -1e-8
