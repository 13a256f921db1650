import math
import re
import warnings

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import eigsh

from nonconvex_mm import (
    Dataset,
    LeastSquaresLoss,
    LogisticLoss,
    McpPenalty,
    MmConfig,
    ProblemInstance,
    certify,
    dc_problem_from_penalty,
    least_squares_strong_convexity,
    make_loss,
    run_mm,
)

from helpers import fd_gradient


def regression(X, y):
    return Dataset(X=np.asarray(X, dtype=float), y=np.asarray(y, dtype=float),
                   task="regression")


def classification(X, y):
    return Dataset(X=np.asarray(X, dtype=float), y=np.asarray(y, dtype=float),
                   task="classification")


def random_classification(rng, n, p):
    X = rng.normal(size=(n, p))
    y = rng.choice([-1.0, 1.0], size=n)
    return classification(X, y)


# ----------------------------------------------------------- least squares
def test_ls_value_identity_cases():
    d = regression(np.eye(2), [1.0, 1.0])
    loss = LeastSquaresLoss(d)
    assert loss.value(np.zeros(2)) == pytest.approx(0.5)
    assert loss.value(np.ones(2)) == 0.0


def test_ls_value_hand_example():
    d = regression([[1.0, 2.0], [3.0, 4.0]], [1.0, 0.0])
    loss = LeastSquaresLoss(d)
    # residuals: (1+2-1, 3+4-0) = (2, 7); value = (4 + 49)/4
    expected = (2.0**2 + 7.0**2) / (2.0 * 2)
    assert expected == 13.25
    assert loss.value(np.array([1.0, 1.0])) == pytest.approx(13.25, rel=1e-15)


def test_ls_gradient_zero_residual():
    d = regression(np.eye(3), [0.3, -0.2, 0.9])
    np.testing.assert_allclose(LeastSquaresLoss(d).gradient(d.y), np.zeros(3), atol=1e-16)


def test_ls_gradient_at_origin():
    d = regression(np.eye(2), [1.0, 1.0])
    np.testing.assert_allclose(LeastSquaresLoss(d).gradient(np.zeros(2)), [-0.5, -0.5])


def test_ls_gradient_finite_differences():
    rng = np.random.default_rng(0)
    d = regression(rng.normal(size=(5, 3)), rng.normal(size=5))
    loss = LeastSquaresLoss(d)
    w = rng.normal(size=3)
    fd = fd_gradient(loss.value, w)
    np.testing.assert_allclose(loss.gradient(w), fd, rtol=1e-6, atol=1e-8)


def test_ls_lipschitz_identity_and_diag():
    for n in (2, 5):
        d = regression(np.eye(n), np.ones(n))
        assert LeastSquaresLoss(d).lipschitz == pytest.approx(1.0 / n, rel=1e-7)
    d = regression(np.diag([2.0, 1.0]), [0.0, 0.0])
    assert LeastSquaresLoss(d).lipschitz == pytest.approx(2.0, rel=1e-7)


def gram_top_eigenvalue(X):
    # X X^T and X^T X share their nonzero eigenvalues; solve the smaller
    X = X.toarray() if sp.issparse(X) else X
    G = X @ X.T if X.shape[0] < X.shape[1] else X.T @ X
    return float(np.linalg.eigvalsh(G / X.shape[0])[-1])


def test_ls_lipschitz_against_dense_eigensolver():
    rng = np.random.default_rng(42)
    X = rng.normal(size=(10, 4))
    d = regression(X, rng.normal(size=10))
    assert LeastSquaresLoss(d).lipschitz == pytest.approx(gram_top_eigenvalue(X), rel=1e-12)


def test_power_iteration_reports_convergence():
    # the Lanczos solve that replaced the power iteration reports a failure to
    # converge by raising (ArpackNoConvergence) or warning, never by a silent
    # unconverged estimate; here it converges to machine precision
    rng = np.random.default_rng(9)
    X = rng.normal(size=(30, 6))
    d = regression(X, rng.normal(size=30))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        lam = LeastSquaresLoss(d).lipschitz
    assert lam == pytest.approx(gram_top_eigenvalue(X), rel=1e-12)


def negatively_correlated_design(n=200):
    # two standardized features: X^T X / n = [[1, r], [r, 1]] with r < 0,
    # whose eigenvector for the smaller eigenvalue 1 + r is the ones vector
    rng = np.random.default_rng(3)
    a = rng.normal(size=n)
    X = np.column_stack([a, -0.81 * a + 0.59 * rng.normal(size=n)])
    X = (X - X.mean(axis=0)) / X.std(axis=0)
    return X, X @ np.array([1.0, 0.5]) + 0.3 * rng.normal(size=n)


def clustered_spectrum_design(n=60, p=40):
    # top three eigenvalues of X^T X / n are 1, 1 - 1e-9, 1 - 2e-9
    rng = np.random.default_rng(5)
    U, _ = np.linalg.qr(rng.normal(size=(n, p)))
    V, _ = np.linalg.qr(rng.normal(size=(p, p)))
    ev = np.concatenate([[1.0, 1.0 - 1e-9, 1.0 - 2e-9], rng.uniform(0.1, 0.9, size=p - 3)])
    return U * np.sqrt(n * ev) @ V.T


def tall_csr_design():
    return sp.random(200, 12, density=0.3, format="csr",
                     random_state=np.random.default_rng(16))


def sparse_p_much_greater_than_n_design():
    # 500 power-iteration steps from the ones vector miss 1e-8 relative
    # change here, and the trace bound is 150x above the top eigenvalue
    rng = np.random.Generator(np.random.Philox(key=15))
    return sp.random(300, 2000, density=0.05, format="csr", random_state=rng,
                     data_rvs=rng.standard_normal)


@pytest.mark.parametrize("design", [
    lambda: negatively_correlated_design()[0],
    # rows orthogonal to the ones vector, so the ones vector lies in the null space
    lambda: np.array([[-1.0, 4.0, -1.0, -2.0], [1.25, -2.75, -0.75, 2.25]]) / 10.0,
    clustered_spectrum_design,
    lambda: np.random.default_rng(7).normal(size=(5, 1)),
    lambda: np.random.default_rng(8).normal(size=(1, 5)),
    lambda: np.array([[-3.0]]),
    lambda: tall_csr_design(),
    lambda: clustered_spectrum_design().T,
], ids=["negatively-correlated", "rows-orthogonal-to-ones", "clustered-spectrum",
        "p-1", "n-1", "n-1-p-1", "tall-csr", "clustered-spectrum-wide"])
def test_ls_lipschitz_exact_on_hard_designs(design):
    X = design()
    d = Dataset(X=X, y=np.ones(X.shape[0]), task="regression")
    assert LeastSquaresLoss(d).lipschitz == pytest.approx(gram_top_eigenvalue(X), rel=1e-12)


@pytest.mark.parametrize("design", [
    lambda: negatively_correlated_design()[0],
    clustered_spectrum_design,
    lambda: np.random.default_rng(7).normal(size=(5, 1)),
    lambda: np.array([[-3.0]]),
    lambda: tall_csr_design(),
], ids=["negatively-correlated", "clustered-spectrum", "p-1", "n-1-p-1", "tall-csr"])
def test_ls_lipschitz_from_certified_spectrum_exact(design):
    # after the strong-convexity certificate, L_f is the top of its spectrum
    X = design()
    d = Dataset(X=X, y=np.ones(X.shape[0]), task="regression")
    least_squares_strong_convexity(d)
    lam = LeastSquaresLoss(d).lipschitz
    assert lam == d.gram_spectrum[-1]
    assert lam == pytest.approx(gram_top_eigenvalue(X), rel=1e-12)


def test_lipschitz_exact_when_power_iteration_stalls_on_sparse_design():
    X = sparse_p_much_greater_than_n_design()
    d = Dataset(X=X, y=np.ones(300), task="regression")
    lam = gram_top_eigenvalue(X)
    assert LeastSquaresLoss(d).lipschitz == pytest.approx(lam, rel=1e-12)
    assert float(X.multiply(X).sum()) / 300 > 100 * lam


@pytest.mark.parametrize("sparse", [False, True])
@pytest.mark.parametrize("scale", [1e-12, 1e-14, "tiny"])
def test_lanczos_exact_at_small_design_scales(sparse, scale):
    # ARPACK's convergence test is absolute for small eigenvalues: at 1e-12
    # and 1e-14 the top eigenvalue read 1e-8 and 4e-6 low, and a Gram matrix
    # of 1.5 * tiny * I read up to 13 * tiny
    if scale == "tiny":
        Q, _ = np.linalg.qr(np.random.default_rng(1).normal(size=(50, 20)))
        tiny = np.finfo(float).tiny
        X, expected = Q * np.sqrt(1.5 * tiny * 50), 1.5 * tiny
    else:
        X = np.random.default_rng(0).normal(size=(247, 196)) * scale
        expected = gram_top_eigenvalue(X)
    d = Dataset(X=sp.csr_matrix(X) if sparse else X, y=np.zeros(X.shape[0]), task="regression")
    # approx's default absolute tolerance 1e-12 would pass any value here
    assert d.gram_top_eigenvalue == pytest.approx(expected, rel=1e-12, abs=0.0)
    assert "gram_spectrum" not in d.__dict__


def test_lipschitz_repeatable_bitwise():
    X = sparse_p_much_greater_than_n_design()
    d = Dataset(X=X, y=np.ones(300), task="regression")
    assert len({LeastSquaresLoss(d).lipschitz for _ in range(5)}) == 1


def count_eigen_solves(monkeypatch):
    """Counts of np.linalg.eigvalsh and the Lanczos eigsh that losses runs."""
    import nonconvex_mm.losses as losses_mod
    calls = {"eigvalsh": 0, "eigsh": 0}

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(np.linalg, "eigvalsh", counting("eigvalsh", np.linalg.eigvalsh))
    monkeypatch.setattr(losses_mod, "eigsh", counting("eigsh", losses_mod.eigsh))
    return calls


@pytest.mark.parametrize("sparse", [False, True])
def test_tall_data_set_runs_one_eigen_solve(sparse, monkeypatch):
    # L_f and gamma_u of every loss and DC problem on one data set come from
    # one eigvalsh of the cached Gram matrix
    rng = np.random.default_rng(17)
    X = rng.normal(size=(200, 10))
    if sparse:
        X = sp.csr_matrix(np.where(rng.random(X.shape) < 0.5, X, 0.0))
    d = Dataset(X=X, y=rng.normal(size=200), task="regression")
    calls = count_eigen_solves(monkeypatch)
    pen = McpPenalty(lam=0.1, gamma=3.0)
    losses = [LeastSquaresLoss(d), LeastSquaresLoss(d)]
    probs = [dc_problem_from_penalty(loss, pen) for loss in losses]
    lips = [loss.lipschitz for loss in losses]
    assert calls == {"eigvalsh": 1, "eigsh": 0}
    assert lips[0] == lips[1] == d.gram_spectrum[-1]
    assert probs[0].gamma_u == probs[1].gamma_u == d.gram_spectrum[0] > 0


def test_wide_sparse_design_takes_lanczos_and_never_builds_the_gram(monkeypatch):
    # p*p > nnz(X): a p x p Gram would outweigh the design
    X = sparse_p_much_greater_than_n_design()
    d = Dataset(X=X, y=np.ones(300), task="regression")
    assert X.shape[1] ** 2 > X.nnz
    calls = count_eigen_solves(monkeypatch)
    lips = [LeastSquaresLoss(d).lipschitz for _ in range(2)]
    assert calls == {"eigvalsh": 0, "eigsh": 1}
    assert lips[0] == lips[1]
    assert "gram" not in d.__dict__ and "gram_spectrum" not in d.__dict__


@pytest.mark.parametrize("design", [
    lambda: np.random.default_rng(19).normal(size=(40, 7)),
    lambda: np.random.default_rng(20).normal(size=(7, 40)),
    lambda: np.random.default_rng(21).normal(size=(9, 9)),
    tall_csr_design,
    sparse_p_much_greater_than_n_design,
], ids=["tall", "wide", "square", "tall-csr", "wide-csr"])
def test_lanczos_runs_on_the_smaller_gram_side(design, monkeypatch):
    # X^T X / n and X X^T / n share their top eigenvalue; ARPACK is given
    # the min(n, p) x min(n, p) one
    import nonconvex_mm.losses as losses_mod
    X = design()
    shapes = []

    def recording(A, *args, **kwargs):
        shapes.append(A.shape)
        v = np.random.default_rng(0).standard_normal(A.shape[1])
        assert A.matvec(v).shape == (A.shape[0],)
        return eigsh(A, *args, **kwargs)

    monkeypatch.setattr(losses_mod, "eigsh", recording)
    d = Dataset(X=X, y=np.ones(X.shape[0]), task="regression")
    lam = LeastSquaresLoss(d).lipschitz
    m = min(X.shape)
    assert shapes == [(m, m)]
    assert lam == pytest.approx(gram_top_eigenvalue(X), rel=1e-12)


@pytest.mark.parametrize("sparse", [False, True])
def test_curvature_alone_takes_lanczos_on_a_tall_design(sparse, monkeypatch):
    # an MM set-up asks only for L_f: no p x p Gram is formed for it, and a
    # certificate made afterwards leaves the cached L_f as it was
    rng = np.random.default_rng(18)
    X = rng.normal(size=(200, 10))
    if sparse:
        X = sp.csr_matrix(np.where(rng.random(X.shape) < 0.5, X, 0.0))
    d = Dataset(X=X, y=rng.normal(size=200), task="regression")
    calls = count_eigen_solves(monkeypatch)
    lam = LeastSquaresLoss(d).lipschitz
    assert calls == {"eigvalsh": 0, "eigsh": 1}
    assert "gram" not in d.__dict__ and "gram_spectrum" not in d.__dict__
    dc_problem_from_penalty(LeastSquaresLoss(d), McpPenalty(lam=0.1, gamma=3.0))
    assert calls == {"eigvalsh": 1, "eigsh": 1}
    assert LeastSquaresLoss(d).lipschitz == lam
    assert lam == pytest.approx(d.gram_spectrum[-1], rel=1e-12)


def test_negatively_correlated_design_converges_and_certifies():
    X, y = negatively_correlated_design()
    prob = ProblemInstance(loss=LeastSquaresLoss(regression(X, y)),
                           penalty=McpPenalty(lam=0.1, gamma=3.0))
    trace = run_mm(prob, MmConfig(scheme="a", tol=1e-10))
    assert trace.meta["stop_reason"] == "tol"
    assert certify(trace).passed


def test_zero_design_rejected():
    d = regression(np.zeros((3, 2)), np.ones(3))
    with pytest.raises(ValueError):
        LeastSquaresLoss(d).lipschitz
    dc = classification(np.zeros((3, 2)), [1.0, -1.0, 1.0])
    with pytest.raises(ValueError):
        LogisticLoss(dc).lipschitz


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("sparse", [False, True])
@pytest.mark.parametrize("scale, what", [(1e-200, "underflow to 0"), (1e200, "overflow"),
                                         (1e-162, "underflow")])
@pytest.mark.parametrize("ask", ["ls_lipschitz", "logistic_lipschitz", "cccp_setup"])
def test_design_at_extreme_scale_rejected_with_its_scale(capfd, sparse, scale, what, ask):
    # 1e-200 once read as an all-zero design; at 1e200 Lanczos raised an
    # ArpackError after LAPACK printed to stderr, and the logistic bound was
    # inf.  At 1e-162 the sums of squares are subnormal: Lanczos found its
    # start vector zero, and the logistic bound was 5e-324
    rng = np.random.default_rng(14)
    X = rng.normal(size=(50, 20))
    X[0, 0] = 4.0
    X = X * scale
    X = sp.csr_matrix(X) if sparse else X
    if ask == "logistic_lipschitz":
        loss = LogisticLoss(Dataset(X=X, y=rng.choice([-1.0, 1.0], size=50),
                                    task="classification"))
    else:
        loss = LeastSquaresLoss(Dataset(X=X, y=rng.normal(size=50), task="regression"))
    message = f"design matrix scale out of range: its largest entry magnitude {4.0 * scale:.3g}"
    with pytest.raises(ValueError, match=re.escape(message) + f".*{what}"):
        if ask == "cccp_setup":
            dc_problem_from_penalty(loss, McpPenalty(lam=0.2, gamma=3.0))
        else:
            loss.lipschitz
    assert capfd.readouterr().err == ""


def test_strong_convexity_modulus_matches_eigensolver():
    rng = np.random.default_rng(4)
    X = rng.normal(size=(40, 8))
    d = regression(X, rng.normal(size=40))
    lam_min = float(np.linalg.eigvalsh(X.T @ X / 40).min())
    assert least_squares_strong_convexity(d) == pytest.approx(lam_min, rel=1e-6)
    flat = regression(np.ones((5, 3)), np.ones(5))  # rank 1
    with pytest.raises(ValueError):
        least_squares_strong_convexity(flat)


# --------------------------------------------------------------- logistic
def test_logistic_value_at_origin_is_log2():
    rng = np.random.default_rng(1)
    d = random_classification(rng, 7, 3)
    assert LogisticLoss(d).value(np.zeros(3)) == pytest.approx(math.log(2.0), rel=1e-14)


def test_logistic_saturated_margin():
    d = classification([[10.0]], [1.0])
    assert LogisticLoss(d).value(np.array([10.0])) == pytest.approx(0.0, abs=1e-12)


def test_logistic_value_matches_naive_formula_at_moderate_margins():
    rng = np.random.default_rng(2)
    d = random_classification(rng, 4, 2)
    loss = LogisticLoss(d)
    w = rng.uniform(-2, 2, size=2)
    margins = d.y * (d.X @ w)
    assert np.all(np.abs(margins) <= 20)
    naive = float(np.mean(np.log(1.0 + np.exp(-margins))))
    assert loss.value(w) == pytest.approx(naive, abs=1e-12)


def test_logistic_gradient_at_origin():
    rng = np.random.default_rng(3)
    d = random_classification(rng, 6, 4)
    expected = -(d.y[:, None] * d.X).sum(axis=0) / (2.0 * 6)
    np.testing.assert_allclose(LogisticLoss(d).gradient(np.zeros(4)), expected, rtol=1e-14)


def test_logistic_gradient_mirrored_symmetry():
    X = np.array([[1.0, 2.0], [1.0, 2.0], [0.5, -3.0], [0.5, -3.0]])
    y = np.array([1.0, -1.0, 1.0, -1.0])
    d = classification(X, y)
    np.testing.assert_allclose(LogisticLoss(d).gradient(np.zeros(2)), np.zeros(2), atol=1e-16)


def test_logistic_gradient_finite_differences():
    rng = np.random.default_rng(5)
    d = random_classification(rng, 8, 3)
    loss = LogisticLoss(d)
    w = rng.normal(size=3)
    np.testing.assert_allclose(loss.gradient(w), fd_gradient(loss.value, w),
                               rtol=1e-6, atol=1e-8)


def test_logistic_lipschitz_values():
    X = np.full((6, 4), 1.0)  # each row has ||x||^2 = 4
    d = classification(X, np.resize([1.0, -1.0], 6))
    assert LogisticLoss(d).lipschitz == pytest.approx(1.0)
    d2 = classification([[3.0, 4.0]], [1.0])
    assert LogisticLoss(d2).lipschitz == pytest.approx(6.25)


def test_logistic_lipschitz_frobenius_identity():
    rng = np.random.default_rng(72)
    X = rng.normal(size=(72, 30))
    d = classification(X, rng.choice([-1.0, 1.0], size=72))
    acc = math.fsum(float(v) for v in (X * X).ravel())  # independent summation
    assert LogisticLoss(d).lipschitz == pytest.approx(acc / 288.0, rel=1e-13)


# ------------------------------------------------ invariants across losses
@pytest.mark.parametrize("sparse", [False, True])
def test_value_and_grad_is_one_evaluation_of_both_formulas(sparse):
    # bitwise equal to the residual and margin formulas written out here
    rng = np.random.default_rng(11)
    X = rng.normal(size=(25, 7))
    Xs = sp.csr_matrix(X) if sparse else X
    w = rng.normal(size=7)
    y = rng.normal(size=25)
    f, g = LeastSquaresLoss(Dataset(X=Xs, y=y, task="regression")).value_and_grad(w)
    r = np.asarray(Xs @ w).ravel() - y
    assert f == float(r @ r) / 50.0
    np.testing.assert_array_equal(g, np.asarray(Xs.T @ r).ravel() / 25)

    y = rng.choice([-1.0, 1.0], size=25)
    loss = LogisticLoss(Dataset(X=Xs, y=y, task="classification"))
    f, g = loss.value_and_grad(w)
    m = y * np.asarray(Xs @ w).ravel()
    assert f == float(np.mean(np.maximum(-m, 0.0) + np.log1p(np.exp(-np.abs(-m)))))
    sig = np.where(-m >= 0, 1.0 / (1.0 + np.exp(m)), np.exp(-m) / (1.0 + np.exp(-m)))
    np.testing.assert_array_equal(g, np.asarray(Xs.T @ (-y * sig / 25)).ravel())
    assert (loss.value(w), *loss.gradient(w)) == (f, *g)


def test_sparse_gradient_reuses_the_transpose_built_with_the_loss(monkeypatch):
    rng = np.random.default_rng(12)
    Xs = sp.random(30, 9, density=0.4, format="csr", random_state=rng)
    w = rng.normal(size=9)
    y = rng.normal(size=30)
    labels = rng.choice([-1.0, 1.0], size=30)
    losses = [LeastSquaresLoss(Dataset(X=Xs, y=y, task="regression")),
              LogisticLoss(Dataset(X=Xs, y=labels, task="classification"))]
    expected = [loss.gradient(w) for loss in losses]

    def no_transpose(self, *args, **kwargs):
        raise AssertionError("gradient built a new transpose of the design")

    monkeypatch.setattr(sp.csr_matrix, "transpose", no_transpose)
    for loss, g in zip(losses, expected):
        np.testing.assert_array_equal(loss.gradient(w), g)


@pytest.mark.parametrize("sparse", [False, True])
def test_gram_pair_is_cached_read_only_and_bitwise_the_formula(sparse):
    rng = np.random.default_rng(13)
    X = rng.normal(size=(40, 6))
    Xs = sp.csr_matrix(X) if sparse else X
    d = Dataset(X=Xs, y=rng.normal(size=40), task="regression")
    G, b = d.gram
    expected = (Xs.T @ Xs) / 40
    np.testing.assert_array_equal(G, expected.toarray() if sparse else expected)
    np.testing.assert_array_equal(b, np.asarray(Xs.T @ d.y).ravel() / 40)
    assert d.gram[0] is G and d.gram[1] is b
    with pytest.raises(ValueError):
        G[0, 0] = 1.0
    ev = d.gram_spectrum
    np.testing.assert_array_equal(ev, np.linalg.eigvalsh(G))
    assert d.gram_spectrum is ev
    with pytest.raises(ValueError):
        ev[0] = 1.0


def _make_losses(rng):
    dr = regression(rng.normal(size=(20, 6)), rng.normal(size=20))
    dc = random_classification(rng, 20, 6)
    return [LeastSquaresLoss(dr), LogisticLoss(dc)]


def test_gradient_consistency_100_random_pairs():
    rng = np.random.default_rng(10)
    for loss in _make_losses(rng):
        for _ in range(100):
            w = rng.normal(size=6) * rng.uniform(0.2, 3.0)
            g = loss.gradient(w)
            fd = fd_gradient(loss.value, w)
            np.testing.assert_allclose(g, fd, rtol=1e-5, atol=1e-7)


def test_lipschitz_bound_and_descent_lemma():
    rng = np.random.default_rng(11)
    for loss in _make_losses(rng):
        L = loss.lipschitz
        for _ in range(100):
            u = rng.normal(size=6) * 2
            v = rng.normal(size=6) * 2
            gap = np.linalg.norm(loss.gradient(u) - loss.gradient(v))
            assert gap <= L * np.linalg.norm(u - v) + 1e-10
            quad = loss.value(v) + loss.gradient(v) @ (u - v) \
                + 0.5 * L * float((u - v) @ (u - v))
            assert loss.value(u) <= quad + 1e-10


def test_weighted_sum_lipschitz_additivity():
    # h = sum alpha_i f_i over single-sample logistic losses; the combined
    # constant sum |alpha_i| L_i must satisfy the gradient Lipschitz bound
    rng = np.random.default_rng(12)
    n, p = 10, 4
    X = rng.normal(size=(n, p))
    y = rng.choice([-1.0, 1.0], size=n)
    alphas = rng.uniform(-2.0, 2.0, size=n)
    parts = [LogisticLoss(classification(X[i:i + 1], y[i:i + 1])) for i in range(n)]
    L_total = sum(abs(a) * part.lipschitz for a, part in zip(alphas, parts))

    def grad(w):
        return sum(a * part.gradient(w) for a, part in zip(alphas, parts))

    for _ in range(100):
        u, v = rng.normal(size=p) * 2, rng.normal(size=p) * 2
        assert np.linalg.norm(grad(u) - grad(v)) <= L_total * np.linalg.norm(u - v) + 1e-10


# ----------------------------------------------------------------- dataset
def test_sparse_design_matches_dense():
    rng = np.random.default_rng(13)
    X = rng.normal(size=(15, 5))
    X[rng.random(X.shape) < 0.6] = 0.0
    y = rng.normal(size=15)
    dense = LeastSquaresLoss(regression(X, y))
    sparse = LeastSquaresLoss(Dataset(X=sp.csr_matrix(X), y=y, task="regression"))
    w = rng.normal(size=5)
    assert sparse.value(w) == pytest.approx(dense.value(w), rel=1e-14)
    np.testing.assert_allclose(sparse.gradient(w), dense.gradient(w), rtol=1e-14)
    assert sparse.lipschitz == pytest.approx(dense.lipschitz, rel=1e-12)


def test_dataset_validation():
    with pytest.raises(ValueError):
        Dataset(X=np.ones((2, 2)), y=np.array([1.0, 2.0]), task="classification")
    with pytest.raises(ValueError):
        Dataset(X=np.array([[np.inf, 0.0]]), y=np.array([1.0]), task="regression")
    with pytest.raises(ValueError):
        Dataset(X=np.ones((2, 2)), y=np.array([1.0]), task="regression")
    with pytest.raises(ValueError):
        Dataset(X=np.ones((2, 2)), y=np.array([1.0, -1.0]), task="ranking")
    with pytest.raises(ValueError):
        make_loss("hinge", regression(np.eye(2), np.ones(2)))
    with pytest.raises(ValueError):
        LogisticLoss(regression(np.eye(2), np.ones(2)))
    with pytest.raises(ValueError, match="^design matrix must be 2-dimensional$"):
        Dataset(X=np.ones(3), y=np.ones(3), task="regression")
    with pytest.raises(ValueError, match=r"^need n >= 1 and p >= 1$"):
        Dataset(X=np.ones((0, 2)), y=np.ones(0), task="regression")
    with pytest.raises(ValueError, match="^targets have non-finite entries$"):
        Dataset(X=np.ones((2, 2)), y=np.array([1.0, np.nan]), task="regression")
    labels = Dataset(X=np.eye(2), y=np.array([1.0, -1.0]), task="classification")
    with pytest.raises(ValueError, match="^least-squares loss needs regression targets$"):
        LeastSquaresLoss(labels)


@pytest.mark.parametrize("kind, task", [("ls", "regression"), ("logistic", "classification")])
def test_loss_names_the_task_of_the_data_it_takes(kind, task):
    loss = make_loss(kind, Dataset(X=np.eye(2), y=np.array([1.0, -1.0]), task=task))
    assert loss.task == type(loss).task == task and loss.kind == kind


def test_dimension_mismatch_rejected():
    d = regression(np.eye(3), np.ones(3))
    loss = LeastSquaresLoss(d)
    with pytest.raises(ValueError):
        loss.value(np.ones(4))
    with pytest.raises(ValueError):
        loss.gradient(np.ones(2))
