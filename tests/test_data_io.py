import hashlib
import json
import os

import numpy as np
import pytest
import scipy.sparse as sp

from nonconvex_mm import (
    Dataset,
    IterateTrace,
    LeastSquaresLoss,
    LibsvmFormatError,
    LogisticLoss,
    LogEpsilonPenalty,
    MmConfig,
    ProblemInstance,
    SyntheticSpec,
    read_libsvm,
    read_trace_csv,
    run_mm,
    synth_generate,
    write_libsvm,
    write_trace,
)

from helpers import read_csv_columns

FIXTURE = os.path.join(os.path.dirname(__file__), "fixtures", "tiny.libsvm")

# frozen at first generation of SyntheticSpec(200, 50, 5, 0.1, 42, regression)
GOLDEN_SHA256 = "23e079065a8245bb55032e11017ec52fc7ba4a455dfc3dae3a1d3ccd8900d818"


# ------------------------------------------------------------------ libsvm
def test_fixture_parsed_token_by_token():
    data = read_libsvm(FIXTURE)
    expected = np.array([
        [0.5, 0.0, 2.0, 0.0],
        [0.0, -1.25, 0.0, 3.5],
        [1.0, 2.0, 3.0, 4.0],
    ])
    assert data.n == 3 and data.p == 4
    np.testing.assert_array_equal(data.X.toarray(), expected)
    np.testing.assert_array_equal(data.y, [1.0, -1.0, 1.0])


def test_single_line_example(tmp_path):
    path = tmp_path / "one.libsvm"
    path.write_text("+1 1:0.5 3:2.0\n")
    data = read_libsvm(path)
    assert data.p >= 3
    np.testing.assert_array_equal(data.X.toarray()[0], [0.5, 0.0, 2.0])
    assert data.y[0] == 1.0


def test_empty_file_rejected(tmp_path):
    path = tmp_path / "empty.libsvm"
    path.write_text("# only a comment\n\n")
    with pytest.raises(LibsvmFormatError, match="no samples"):
        read_libsvm(path)


def test_malformed_token_reports_line_number(tmp_path):
    path = tmp_path / "bad.libsvm"
    path.write_text("+1 1:0.5\n-1 2:oops\n")
    with pytest.raises(LibsvmFormatError, match=":2:"):
        read_libsvm(path)


def test_nonincreasing_indices_rejected(tmp_path):
    path = tmp_path / "order.libsvm"
    path.write_text("+1 3:1.0 2:1.0\n")
    with pytest.raises(LibsvmFormatError, match=":1:.*increasing"):
        read_libsvm(path)
    path.write_text("+1 0:1.0\n")
    with pytest.raises(LibsvmFormatError, match="1-based"):
        read_libsvm(path)


def test_label_only_row_is_an_empty_csr_row(tmp_path):
    path = tmp_path / "gap.libsvm"
    path.write_text("+1 1:0.5 3:2.0\n-1\n+1 2:1.0\n")
    data = read_libsvm(path)
    np.testing.assert_array_equal(data.X.indptr, [0, 2, 2, 3])
    np.testing.assert_array_equal(data.X.toarray(),
                                  [[0.5, 0.0, 2.0], [0.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    np.testing.assert_array_equal(data.y, [1.0, -1.0, 1.0])


def test_duplicate_index_rejected_with_line_number(tmp_path):
    path = tmp_path / "dup.libsvm"
    path.write_text("+1 1:1.0\n-1 2:1 2:3\n")
    with pytest.raises(LibsvmFormatError, match=r":2: indices must be strictly increasing \(2 after 2\)"):
        read_libsvm(path)


def test_label_normalization(tmp_path):
    path = tmp_path / "zeroone.libsvm"
    path.write_text("1 1:1.0\n0 1:2.0\n")
    data = read_libsvm(path)
    np.testing.assert_array_equal(data.y, [1.0, -1.0])
    path.write_text("2 1:1.0\n0 1:2.0\n")
    with pytest.raises(LibsvmFormatError, match="labels"):
        read_libsvm(path)


def test_regression_labels_kept_verbatim(tmp_path):
    path = tmp_path / "reg.libsvm"
    path.write_text("0.25 1:1.0\n-3.5 1:2.0\n")
    data = read_libsvm(path, task="regression")
    np.testing.assert_array_equal(data.y, [0.25, -3.5])


def test_force_p(tmp_path):
    path = tmp_path / "forced.libsvm"
    path.write_text("+1 1:1.0\n")
    data = read_libsvm(path, force_p=10)
    assert data.p == 10
    with pytest.raises(LibsvmFormatError, match="exceeds"):
        read_libsvm(path, force_p=0)


def test_force_p_below_the_largest_index_rejected(tmp_path):
    path = tmp_path / "wide.libsvm"
    path.write_text("+1 1:1.0 5:2.0\n-1 2:1.0\n")
    with pytest.raises(LibsvmFormatError, match="feature index 5 exceeds forced p=3"):
        read_libsvm(path, force_p=3)


def test_libsvm_round_trip_exact(tmp_path):
    spec = SyntheticSpec(n=25, p=12, sparsity=4, noise_sd=0.3, seed=9,
                         task="classification")
    data, _ = synth_generate(spec)
    path = tmp_path / "round.libsvm"
    write_libsvm(data, path)
    back = read_libsvm(path, force_p=data.p)
    np.testing.assert_array_equal(back.X.toarray(), np.asarray(data.X))
    np.testing.assert_array_equal(back.y, data.y)


def test_libsvm_round_trip_sparse(tmp_path):
    X = sp.csr_matrix(np.array([[0.0, 1.5], [2.25, 0.0]]))
    data = Dataset(X=X, y=np.array([1.0, -1.0]), task="classification")
    path = tmp_path / "sp.libsvm"
    write_libsvm(data, path)
    back = read_libsvm(path)
    np.testing.assert_array_equal(back.X.toarray(), X.toarray())
    np.testing.assert_array_equal(back.y, data.y)


# --------------------------------------------------------------- synthetic
def test_noise_free_regression_is_exactly_fit():
    spec = SyntheticSpec(n=40, p=10, sparsity=3, noise_sd=0.0, seed=5,
                         task="regression")
    data, w_true = synth_generate(spec)
    assert LeastSquaresLoss(data).value(w_true) == 0.0


def test_seed_determinism_bitwise():
    spec = SyntheticSpec(n=30, p=8, sparsity=2, noise_sd=0.4, seed=123,
                         task="classification")
    d1, w1 = synth_generate(spec)
    d2, w2 = synth_generate(spec)
    assert np.asarray(d1.X).tobytes() == np.asarray(d2.X).tobytes()
    assert d1.y.tobytes() == d2.y.tobytes()
    assert w1.tobytes() == w2.tobytes()


def test_golden_checksum_frozen():
    spec = SyntheticSpec(n=200, p=50, sparsity=5, noise_sd=0.1, seed=42,
                         task="regression")
    data, w = synth_generate(spec)
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(data.X).tobytes())
    h.update(np.ascontiguousarray(data.y).tobytes())
    h.update(np.ascontiguousarray(w).tobytes())
    assert h.hexdigest() == GOLDEN_SHA256


def test_sparsity_and_magnitude_contract():
    spec = SyntheticSpec(n=20, p=15, sparsity=6, noise_sd=0.0, seed=77,
                         task="classification")
    data, w = synth_generate(spec)
    nz = w[w != 0]
    assert nz.size == 6
    assert np.all((np.abs(nz) >= 0.5) & (np.abs(nz) <= 2.0))
    assert set(np.unique(data.y)) <= {-1.0, 1.0}


def test_spec_validation():
    with pytest.raises(ValueError):
        SyntheticSpec(n=10, p=5, sparsity=6)
    with pytest.raises(ValueError):
        SyntheticSpec(n=0, p=5, sparsity=1)
    with pytest.raises(ValueError):
        SyntheticSpec(n=10, p=5, sparsity=1, noise_sd=-0.1)


# ------------------------------------------------------------------ traces
def test_empty_trace_is_header_only_csv(tmp_path):
    path = tmp_path / "empty.csv"
    write_trace(IterateTrace(), "csv", path)
    assert path.read_text() == "iter,objective,step_norm,residual,elapsed_sec\n"


def test_one_row_trace_round_trips_exactly(tmp_path):
    tr = IterateTrace()
    tr.append(0, 1.2345678901234567, 0.0, 3.3e-7, 0.015625)
    path = tmp_path / "one.csv"
    write_trace(tr, "csv", path)
    cols = read_trace_csv(path)
    assert cols["iter"][0] == 0.0
    assert cols["objective"][0] == 1.2345678901234567
    assert cols["step_norm"][0] == 0.0
    assert cols["residual"][0] == 3.3e-7
    assert cols["elapsed_sec"][0] == 0.015625


def test_converged_run_csv_objective_nonincreasing(tmp_path):
    spec = SyntheticSpec(n=80, p=15, sparsity=3, noise_sd=0.5, seed=21,
                         task="classification")
    data, _ = synth_generate(spec)
    prob = ProblemInstance(loss=LogisticLoss(data),
                           penalty=LogEpsilonPenalty(lam=0.2, eps=1.0))
    trace = run_mm(prob, MmConfig(scheme="b", max_iter=2000, tol=1e-10))
    path = tmp_path / "run.csv"
    write_trace(trace, "csv", path)
    header, rows = read_csv_columns(path)  # independent line-by-line reader
    assert header == ["iter", "objective", "step_norm", "residual", "elapsed_sec"]
    objs = [float(r[1]) for r in rows]
    # nonincreasing up to evaluation roundoff (true drops near convergence sit
    # below one ulp of F)
    assert all(b <= a + 1e-12 * max(1.0, abs(a)) for a, b in zip(objs, objs[1:]))


def test_json_trace_carries_config_echo(tmp_path):
    spec = SyntheticSpec(n=30, p=6, sparsity=2, noise_sd=0.5, seed=3,
                         task="classification")
    data, _ = synth_generate(spec)
    prob = ProblemInstance(loss=LogisticLoss(data),
                           penalty=LogEpsilonPenalty(lam=0.3, eps=0.5))
    trace = run_mm(prob, MmConfig(scheme="a", max_iter=100, tol=1e-8))
    trace.meta["seed"] = 3
    path = tmp_path / "run.json"
    write_trace(trace, "json", path)
    payload = json.loads(path.read_text())
    assert payload["config"]["scheme"] == "a"
    assert payload["config"]["lambda"] == 0.3
    assert payload["config"]["penalty"] == {"kind": "log_eps", "lam": 0.3, "eps": 0.5}
    assert payload["config"]["seed"] == 3
    assert payload["config"]["mu"] == pytest.approx(trace.meta["mu"])
    assert payload["objective"] == trace.objective
    assert payload["final_w"] == [float(v) for v in trace.final_w]
    assert payload["converged"] is True


def test_json_trace_carries_each_rows_mu(tmp_path):
    spec = SyntheticSpec(n=30, p=6, sparsity=2, noise_sd=0.5, seed=3,
                         task="classification")
    data, _ = synth_generate(spec)
    prob = ProblemInstance(loss=LogisticLoss(data),
                           penalty=LogEpsilonPenalty(lam=0.3, eps=0.5))
    trace = run_mm(prob, MmConfig(scheme="b", max_iter=100, tol=1e-8))
    path = tmp_path / "run.json"
    write_trace(trace, "json", path)
    payload = json.loads(path.read_text())
    assert payload["mu"] == trace.mu
    assert payload["mu"][0] is None and len(payload["mu"]) == len(payload["iter"])
    assert payload["beta"] == trace.beta and payload["beta"][0] is None
    csv_path = tmp_path / "run.csv"
    write_trace(trace, "csv", csv_path)
    assert csv_path.read_text().splitlines()[0] == "iter,objective,step_norm,residual,elapsed_sec"


def test_unknown_format_rejected(tmp_path):
    with pytest.raises(ValueError):
        write_trace(IterateTrace(), "xml", tmp_path / "x")
