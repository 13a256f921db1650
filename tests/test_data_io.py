import hashlib
import json
import math
import os
import re
import warnings
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import HealthCheck, given, settings, strategies as st

import nonconvex_mm.data_io as data_io

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

from helpers import read_csv_columns, read_libsvm_lines

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


@pytest.mark.parametrize("fmt", ["dense", "csr", "csc", "coo"])
def test_writer_output_is_the_same_for_every_matrix_format(tmp_path, fmt):
    # every entry is written whatever the storage; -0.0 is dropped
    # like 0.0, and an all-zero row is its label alone
    X = np.array([[1.0, -0.0, 2.5], [0.0, 0.0, 0.0], [0.0, 3.0, 5e-324]])
    X = X if fmt == "dense" else sp.csr_matrix(X).asformat(fmt)
    path = tmp_path / f"{fmt}.libsvm"
    write_libsvm(Dataset(X=X, y=np.array([1.0, -1.0, 1.0]), task="classification"), path)
    assert path.read_text() == "+1 1:1.0 3:2.5\n-1\n+1 2:3.0 3:5e-324\n"


def test_index_beyond_int32_rejected_with_line_number(tmp_path):
    path = tmp_path / "huge.libsvm"
    path.write_text("+1 1:1.0\n-1 3000000000:1.0\n")
    with pytest.raises(LibsvmFormatError,
                       match=r"huge\.libsvm:2: index 3000000000 exceeds the largest supported"):
        read_libsvm(path)
    # beyond int64 the vectorized conversion overflows; the line is still named
    path.write_text("+1 1:1.0\n-1 1:1.0\n+1 99999999999999999999:1.0\n")
    with pytest.raises(LibsvmFormatError, match=r":3: index 99999999999999999999 exceeds"):
        read_libsvm(path)
    path.write_text(f"+1 {2**31 - 1}:1.0\n")
    assert read_libsvm(path).p == 2**31 - 1


@pytest.mark.parametrize("text, match", [
    ("1 1:1.0\nnan 1:2.0\n", r":2: non-finite label 'nan'"),
    ("1 1:1.0\n-inf 1:2.0\n", r":2: non-finite label '-inf'"),
    ("1 1:1.0\n2 1:1.0 2:inf\n", r":2: non-finite value in '2:inf'"),
    ("1 1:nan\n", r":1: non-finite value in '1:nan'"),
    ("# head\n1 1:1.0\n\n2 3:1e999\n", r":4: non-finite value in '3:1e999'"),
], ids=["nan-label", "inf-label", "inf-value", "nan-value", "overflowing-value"])
def test_non_finite_number_rejected_with_line_number(tmp_path, text, match):
    path = tmp_path / "nonfinite.libsvm"
    path.write_text(text)
    for task in ("regression", "classification"):
        with pytest.raises(LibsvmFormatError, match=match):
            read_libsvm(path, task=task)


@pytest.mark.parametrize("line, token", [
    ("+1 1:2:3 4", "1:2:3"),   # one token with two ':' beside one with none
    ("+1 3: 4:5", "3:"),
    ("+1 :3 4:5", ":3"),
    ("+1 2:1 7", "7"),
])
def test_token_without_exactly_one_colon_is_located_not_misread(tmp_path, line, token):
    path = tmp_path / "colons.libsvm"
    path.write_text(f"-1 1:1.0\n{line}\n")
    with pytest.raises(LibsvmFormatError, match=f":2: bad feature token '{token}'"):
        read_libsvm(path)


def _never_locate(*args):
    raise AssertionError("a well-formed file entered the error-locating loop")


def test_well_formed_files_never_enter_the_error_loop(tmp_path):
    paths = [FIXTURE]
    text = "# header\r\n+1 1:0.5 3:2.0 # tail\r\n-1\r\n\r\n  +1\t2:1e-300   4:-0  \r\n-1 1:5"
    paths.append(tmp_path / "mixed.libsvm")
    paths[-1].write_bytes(text.encode())
    spec = SyntheticSpec(n=30, p=40, sparsity=5, noise_sd=0.1, seed=4, task="regression")
    data, _ = synth_generate(spec)
    X = np.asarray(data.X)
    X[np.abs(X) < 1.0] = 0.0
    paths.append(tmp_path / "sparse.libsvm")
    write_libsvm(Dataset(X=sp.csr_matrix(X), y=data.y, task="regression"), paths[-1])
    with mock.patch.object(data_io, "_locate_error", _never_locate):
        for path in paths:
            read_libsvm(path, task="regression", force_p=100)


_SEPARATORS = st.sampled_from([" ", " ", " ", "  ", "\t", " \t "])
_VALUES = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.floats(-1e3, 1e3, allow_nan=False).map(lambda v: f"{v:.6e}"),
    st.integers(-10**6, 10**6).map(str),
    st.sampled_from(["+0.5", "-0", "0", "5e-324", "1E-300", "-2.5e+10", ".5", "7."]),
)


@st.composite
def libsvm_texts(draw):
    """(file text, task, force_p, lines of data rows) for a well-formed file
    with empty and label-only rows, comments, blank lines and mixed line
    endings; force_p may leave trailing all-zero columns."""
    task = draw(st.sampled_from(["regression", "classification"]))
    if task == "classification":
        label_set = draw(st.sampled_from([["+1", "-1"], ["1", "-1"], ["0", "1"]]))
        labels = st.sampled_from(label_set)
    else:
        labels = st.one_of(st.floats(-1e6, 1e6, allow_nan=False).map(repr),
                           st.integers(-5, 5).map(str))
    p_used = draw(st.integers(1, 12))
    lines, data_lines = [], []
    for _ in range(draw(st.integers(1, 8))):
        for _ in range(draw(st.integers(0, 2))):
            lines.append(draw(st.sampled_from(["", "   ", "# a comment", "  # 1:2 3:4"])))
        cols = sorted(draw(st.sets(st.integers(1, p_used), max_size=p_used)))
        tokens = [draw(labels)] + [f"{j}:{draw(_VALUES)}" for j in cols]
        line = draw(st.sampled_from(["", " ", "\t"]))
        for tok in tokens:
            line += tok + draw(_SEPARATORS)
        line = line[:-1] + draw(st.sampled_from(["", " ", " # note 9:9"]))
        data_lines.append(len(lines))
        lines.append(line)
    ending = draw(st.sampled_from(["\n", "\r\n"]))
    text = ending.join(lines) + draw(st.sampled_from([ending, ""]))
    force_p = draw(st.one_of(st.none(), st.integers(p_used, p_used + 5)))
    return text, task, force_p, data_lines


@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=libsvm_texts())
def test_reader_bitwise_equal_to_the_line_loop(tmp_path, case):
    text, task, force_p, _ = case
    path = tmp_path / "case.libsvm"
    path.write_bytes(text.encode())
    try:
        X, y = read_libsvm_lines(path, task=task, force_p=force_p)
    except ValueError as err:
        # e.g. "no features present" when every row is label-only
        with pytest.raises(LibsvmFormatError) as caught:
            read_libsvm(path, task=task, force_p=force_p)
        assert str(caught.value) == str(err)
        return
    with mock.patch.object(data_io, "_locate_error", _never_locate):
        data = read_libsvm(path, task=task, force_p=force_p)
    assert data.X.shape == X.shape
    for name in ("data", "indices", "indptr"):
        a, b = getattr(data.X, name), getattr(X, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
    assert data.y.dtype == y.dtype and data.y.tobytes() == y.tobytes()


# kind -> (injected token or None for a replaced label, whether the line loop
# reports the same message)
_FAULTS = {
    "bad-label": ("abc", True),
    "colon-label": ("1:2", True),
    "nan-label": ("nan", False),
    "inf-label": ("-inf", False),
    "word": ("x", True),
    "two-colons": ("5:1:2", True),
    "empty-index": (":5", True),
    "empty-value": ("5:", True),
    "float-index": ("1.5:2", True),
    "integral-float-index": ("1.0:2", True),
    "exponent-index": ("1e1:2", True),
    "underscore-index": ("{j}_0:1", False),
    "underscore-value": ("{j}:2_5", False),
    "non-ascii-index": ("\u0661:1", False),
    "non-ascii-value": ("{j}:\u0663", False),
    "bad-value": ("{j}:abc", True),
    "zero-index": ("0:1", True),
    "negative-index": ("-3:1", True),
    "repeated-index": ("{last}:1", True),
    "nan-value": ("{j}:nan", False),
    "inf-value": ("{j}:1e999", False),
    "int32-index": ("3000000000:1", False),
    "int64-index": ("99999999999999999999:1", False),
}


@settings(max_examples=120, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=libsvm_texts(), data=st.data())
def test_one_malformed_token_is_reported_on_its_line(tmp_path, case, data):
    text, task, force_p, data_lines = case
    kind = data.draw(st.sampled_from(sorted(_FAULTS)))
    token, same_message = _FAULTS[kind]
    ending = "\r\n" if "\r\n" in text else "\n"
    lines = text.split(ending)
    at = data.draw(st.sampled_from(data_lines))
    line, hash_, comment = lines[at].partition("#")
    tokens = line.split()
    last = int(tokens[-1].split(":")[0]) if len(tokens) > 1 else 0
    if kind.endswith("label"):
        tokens[0] = token
    else:
        tokens.append(token.format(j=last + 1, last=last))
    lines[at] = " ".join(tokens) + " " + hash_ + comment
    path = tmp_path / "bad.libsvm"
    path.write_bytes(ending.join(lines).encode())
    # the injected index last + 1 may pass p by one; that is not the fault tested
    force_p = None if force_p is None else force_p + 1
    with pytest.raises(LibsvmFormatError) as caught:
        read_libsvm(path, task=task, force_p=force_p)
    assert str(caught.value).startswith(f"{path}:{at + 1}: ")
    if same_message:
        with pytest.raises(ValueError) as expected:
            read_libsvm_lines(path, task=task, force_p=force_p)
        assert str(caught.value) == str(expected.value)


@pytest.mark.parametrize("line, match", [
    ("-1 1_0:2", r":2: bad feature token '1_0:2'"),
    ("-1 1:2_5", r":2: bad feature token '1:2_5'"),
    ("-1 \u0661:2", r":2: bad feature token '\u0661:2'"),
    ("-1 1:\u0663", r":2: bad feature token '1:\u0663'"),
    ("1_0 1:2", r":2: bad label '1_0'"),
    ("-1 2:1 -99999999999999999999:1", r":2: index -99999999999999999999 is not 1-based"),
    ("-1 99999999999999999999:1:2", r":2: bad feature token '99999999999999999999:1:2'"),
], ids=["underscore-index", "underscore-value", "non-ascii-index", "non-ascii-value",
        "underscore-label", "int64-negative-index", "int64-index-two-colons"])
def test_numbers_follow_numpys_grammar_on_both_paths(tmp_path, line, match):
    # Python's int() and float() accept underscores and non-ASCII digits;
    # numpy's text reader, which reads every number, does not
    path = tmp_path / "grammar.libsvm"
    path.write_text(f"+1 1:1.0\n{line}\n", encoding="utf-8")
    with pytest.raises(LibsvmFormatError, match=match):
        read_libsvm(path)


def test_csr_arrays_are_contiguous_and_hold_only_their_own_memory(tmp_path):
    path = tmp_path / "rows.libsvm"
    path.write_text("+1 1:0.5 3:2.0\n-1\n+1 2:1.0 4:-3e-5 9:7\n")
    for source in (FIXTURE, path):
        X = read_libsvm(source).X
        for name in ("data", "indices", "indptr"):
            a = getattr(X, name)
            # csr_matrix may keep a same-size view of the array it was given;
            # a field of a structured array would keep a larger buffer alive
            owner = a
            while isinstance(owner.base, np.ndarray):
                owner = owner.base
            assert a.flags.c_contiguous and owner.flags.owndata, name
            assert owner.nbytes == a.nbytes, name


def test_float_index_rejected_where_numpy_reads_it_with_a_warning(tmp_path):
    # numpy from 1.23, until that deprecation expired, read "1.5" into an
    # integer field as 1 and warned from its own frame, which no
    # "nonconvex_mm" warning filter matches
    real_loadtxt = np.loadtxt

    def old_loadtxt(rows, dtype=float, **kwargs):
        rows = list(rows)
        if np.dtype(dtype).names:
            for k, row in enumerate(rows):
                idx, colon, val = row.partition(":")
                try:
                    int(idx)
                except ValueError:
                    try:
                        as_float = float(idx)
                    except ValueError:
                        continue
                    warnings.warn("loadtxt(): Parsing an integer via a float is deprecated.",
                                  DeprecationWarning, stacklevel=1)
                    rows[k] = f"{int(as_float)}{colon}{val}"
        return real_loadtxt(rows, dtype=dtype, **kwargs)

    path = tmp_path / "float-index.libsvm"
    path.write_text("+1 1:1.0\n-1 1.5:2\n")
    with mock.patch.object(data_io.np, "loadtxt", old_loadtxt):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DeprecationWarning)
            pair = old_loadtxt(["1.5:2"], dtype=data_io._PAIR, delimiter=":", ndmin=1)
        assert pair.item(0) == (1, 2.0)
        with pytest.raises(LibsvmFormatError, match=r":2: bad feature token '1.5:2'"):
            read_libsvm(path)


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
    with pytest.raises(ValueError, match="^unknown task 'ranking'$"):
        SyntheticSpec(n=10, p=5, sparsity=1, task="ranking")


@pytest.mark.parametrize("noise_sd", [math.nan, math.inf, -math.inf])
def test_nonfinite_noise_sd_refused(noise_sd):
    # with NaN noise every classification score is NaN and every label -1,
    # a data set that MM solves to a "converged" zero vector
    message = f"noise_sd must be finite and nonnegative, got {noise_sd!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        SyntheticSpec(n=30, p=5, sparsity=2, noise_sd=noise_sd, task="classification")


@pytest.mark.parametrize("task", ["regression", "classification"])
def test_noise_sd_that_overflows_a_draw_refused(task):
    # 1e308 is finite, but 1e308 times a draw above 1.8 is not; the
    # package's own overflow would turn into an error under pyproject's
    # warning filter, so this passes only when no overflow happens
    spec = SyntheticSpec(n=20, p=4, sparsity=2, noise_sd=1e308, task=task)
    with pytest.raises(ValueError, match=r"^noise_sd=1e\+308 is too large"):
        synth_generate(spec)
    data, _ = synth_generate(SyntheticSpec(n=20, p=4, sparsity=2, noise_sd=1e300, task=task))
    assert np.isfinite(data.y).all()


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
    assert path.read_text().splitlines()[1] == "0,1.2345678901234567,0.0,3.3e-07,0.015625"
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
