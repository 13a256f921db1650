import math

import numpy as np
import pytest

from nonconvex_mm import (
    CappedL1Penalty,
    LogEpsilonPenalty,
    LogPenalty,
    McpPenalty,
    ScadPenalty,
    UnsupportedPenaltyError,
    make_penalty,
)

from helpers import prox_grid_oracle, zeta_reference

SMOOTH = [
    ("log", LogPenalty(lam=0.7, theta=2.0), {"lam": 0.7, "theta": 2.0}),
    ("log_eps", LogEpsilonPenalty(lam=0.7, eps=0.4), {"lam": 0.7, "eps": 0.4}),
    ("scad", ScadPenalty(lam=0.7, theta=3.5), {"lam": 0.7, "theta": 3.5}),
    ("mcp", McpPenalty(lam=0.7, gamma=2.5), {"lam": 0.7, "gamma": 2.5}),
]
ALL = SMOOTH + [("capped_l1", CappedL1Penalty(lam=0.7, theta=1.2), {"lam": 0.7, "theta": 1.2})]


# ---------------------------------------------------------------- values
def test_mcp_flat_region_value():
    pen = McpPenalty(lam=1.0, gamma=2.0)
    assert pen.value(5.0) == pytest.approx(1.0, abs=1e-15)  # lam^2*gamma/2


def test_scad_zero():
    assert ScadPenalty(lam=0.9, theta=4.0).value(0.0) == 0.0


def test_log_normalization_point():
    pen = LogPenalty(lam=1.0, theta=math.e - 1.0)
    assert pen.value(1.0) == pytest.approx(1.0, rel=1e-14)


@pytest.mark.parametrize("kind,pen,params", ALL)
def test_value_matches_reference_formula(kind, pen, params):
    t = np.linspace(0.0, 6.0, 400)
    np.testing.assert_allclose(pen.value(t), zeta_reference(kind, t, **params),
                               rtol=1e-13, atol=1e-13)


@pytest.mark.parametrize("kind,pen,params", ALL)
def test_value_continuous_across_breakpoints(kind, pen, params):
    t = np.linspace(0.0, 6.0, 200001)
    v = pen.value(t)
    assert np.max(np.abs(np.diff(v))) < 1e-3


def test_negative_argument_rejected():
    with pytest.raises(ValueError):
        McpPenalty(lam=1.0, gamma=2.0).value(-0.1)
    with pytest.raises(ValueError):
        ScadPenalty(lam=1.0, theta=3.0).deriv(np.array([0.2, -0.2]))


# ------------------------------------------------------------ derivatives
def test_mcp_derivative_flat():
    pen = McpPenalty(lam=1.0, gamma=2.0)
    assert pen.deriv(2.0) == 0.0
    assert pen.deriv(5.0) == 0.0


def test_scad_derivative_linear_piece():
    assert ScadPenalty(lam=1.0, theta=3.0).deriv(0.5) == pytest.approx(1.0)


def test_log_eps_derivative_at_zero():
    assert LogEpsilonPenalty(lam=1.0, eps=0.1).deriv(0.0) == pytest.approx(10.0)


def test_capped_derivative_kink_rejected():
    pen = CappedL1Penalty(lam=1.0, theta=1.5)
    assert pen.deriv(1.0) == 1.0
    assert pen.deriv(2.0) == 0.0
    with pytest.raises(UnsupportedPenaltyError):
        pen.deriv(1.5)


@pytest.mark.parametrize("kind,pen,params", SMOOTH)
def test_derivative_matches_finite_differences(kind, pen, params):
    # FD of the reference value formula, away from breakpoints
    rng = np.random.default_rng(1)
    t = rng.uniform(0.01, 5.0, size=200)
    h = 1e-7
    fd = (zeta_reference(kind, t + h, **params) - zeta_reference(kind, t - h, **params)) / (2 * h)
    np.testing.assert_allclose(pen.deriv(t), fd, rtol=5e-6, atol=5e-6)


@pytest.mark.parametrize("kind,pen,params", SMOOTH)
def test_derivative_nonincreasing_and_lipschitz_on_grid(kind, pen, params):
    t = np.linspace(0.0, 10.0, 10_000)
    d = pen.deriv(t)
    assert np.all(np.diff(d) <= 1e-12)
    L = pen.deriv_lipschitz()
    assert np.all(np.abs(np.diff(d)) <= L * np.diff(t) + 1e-12)


def test_curvature_constants_match_grid_sup():
    # sup |zeta''| estimated by differencing zeta' on a fine grid
    cases = [
        (McpPenalty(lam=1.0, gamma=2.0), 0.5),
        (ScadPenalty(lam=1.0, theta=3.0), 0.5),
        (LogEpsilonPenalty(lam=1.0, eps=0.5), 4.0),
    ]
    for pen, expected in cases:
        assert pen.deriv_lipschitz() == pytest.approx(expected, rel=1e-12)
        t = np.linspace(0.0, 8.0, 20_001)
        d = pen.deriv(t)
        sup = np.max(np.abs(np.diff(d)) / np.diff(t))
        assert sup <= expected + 1e-9
        assert sup >= 0.98 * expected  # the constant is tight, not just valid


def test_capped_l1_curvature_rejected():
    with pytest.raises(UnsupportedPenaltyError):
        CappedL1Penalty(lam=1.0, theta=1.0).deriv_lipschitz()


# ---------------------------------------------------------------- concavity
@pytest.mark.parametrize("kind,pen,params", SMOOTH)
def test_concavity_on_nonnegative_axis(kind, pen, params):
    rng = np.random.default_rng(7)
    for _ in range(300):
        t1, t2 = np.sort(rng.uniform(0.0, 6.0, size=2))
        a = rng.uniform(0.0, 1.0)
        mix = pen.value(a * t1 + (1 - a) * t2)
        assert mix >= a * pen.value(t1) + (1 - a) * pen.value(t2) - 1e-12


def test_log_eps_graph_identity():
    # lam * log(1 + a|t|) with a = 1/eps is the same function
    pen = LogEpsilonPenalty(lam=0.8, eps=0.25)
    alpha = 1.0 / 0.25
    t = np.linspace(0.0, 5.0, 101)
    np.testing.assert_allclose(pen.value(t), 0.8 * np.log(1.0 + alpha * t), rtol=1e-14)


# -------------------------------------------------------------------- prox
def test_prox_at_zero_is_zero():
    for _, pen, _ in ALL:
        assert pen.prox(0.0, 0.7) == 0.0


def test_mcp_prox_flat_region_passthrough():
    pen = McpPenalty(lam=1.0, gamma=2.0)
    out = pen.prox(10.0, 1.0)
    assert out == pytest.approx(10.0, abs=1e-12)
    # closed form must match the grid minimum in objective value
    _, grid_min = prox_grid_oracle("mcp", 10.0, 1.0, lam=1.0, gamma=2.0)
    obj = (out - 10.0) ** 2 / 2.0 + pen.value(abs(out))
    assert obj <= grid_min + 1e-6


def test_log_prox_small_input_thresholded_to_zero():
    pen = LogPenalty(lam=0.3, theta=0.3)
    out = pen.prox(0.05, 0.5)
    assert out == 0.0
    arg, _ = prox_grid_oracle("log", 0.05, 0.5, step=1e-5, lam=0.3, theta=0.3)
    assert abs(arg) < 1e-4


@pytest.mark.parametrize("kind,pen,params", ALL)
def test_prox_beats_grid_search(kind, pen, params):
    rng = np.random.default_rng(11)
    for _ in range(100):
        u = float(rng.uniform(-2.5, 2.5))
        alpha = float(rng.uniform(0.05, 3.0))
        out = pen.prox(u, alpha)
        obj = (out - u) ** 2 / (2 * alpha) + pen.value(abs(out))
        _, grid_min = prox_grid_oracle(kind, u, alpha, **params)
        assert obj <= grid_min + 1e-6
        # shrinkage and sign agreement
        assert abs(out) <= abs(u) + 1e-15
        assert out * u >= 0.0


def test_prox_vectorized_matches_scalar():
    pen = ScadPenalty(lam=0.6, theta=3.7)
    rng = np.random.default_rng(3)
    u = rng.normal(size=40) * 2
    out = pen.prox(u, 0.8)
    for i in range(u.size):
        assert out[i] == pytest.approx(pen.prox(float(u[i]), 0.8), abs=1e-15)


def test_prox_tie_break_prefers_smaller_magnitude():
    # capped-l1 with lam=1, theta=0.5, alpha=1, u=1: the objective equals
    # exactly 0.5 both at w=0 and at w=1 (the two global minimizers), so the
    # tie-break must return 0
    pen = CappedL1Penalty(lam=1.0, theta=0.5)
    obj = lambda w: (w - 1.0) ** 2 / 2.0 + pen.value(abs(w))
    assert obj(0.0) == obj(1.0) == 0.5
    assert pen.prox(1.0, 1.0) == 0.0


# ------------------------------------------------------------ reg / interval
def test_reg_value_examples():
    pen = McpPenalty(lam=1.0, gamma=2.0)
    assert pen.reg_value(np.zeros(4)) == 0.0
    assert pen.reg_value(np.array([5.0, -5.0])) == pytest.approx(2.0)
    rng = np.random.default_rng(5)
    w = rng.normal(size=9)
    assert pen.reg_value(w) == pytest.approx(float(np.sum(pen.value(np.abs(w)))))


def test_subdiff_interval_at_zero_and_kink():
    pen = ScadPenalty(lam=0.5, theta=3.0)
    iv = pen.subdiff_interval(0.0)
    assert iv.lo == -0.5 and iv.hi == 0.5
    cap = CappedL1Penalty(lam=0.9, theta=1.5)
    iv = cap.subdiff_interval(1.5)
    assert iv.lo == 0.0 and iv.hi == pytest.approx(0.9)
    iv = cap.subdiff_interval(-1.5)
    assert iv.lo == pytest.approx(-0.9) and iv.hi == 0.0
    smooth = pen.subdiff_interval(2.0)
    assert smooth.lo == smooth.hi == pytest.approx(pen.deriv(2.0))


@pytest.mark.parametrize("pen", [ScadPenalty(lam=0.5, theta=3.0),
                                 CappedL1Penalty(lam=0.9, theta=1.5),
                                 LogEpsilonPenalty(lam=0.4, eps=0.5)])
def test_subdiff_interval_array_matches_scalar(pen):
    u = np.array([0.0, 1.5, -1.5, 2.0, -0.2, 7.0])
    lo, hi = pen.subdiff_interval(u)
    assert lo.shape == hi.shape == u.shape
    for i, ui in enumerate(u):
        assert (lo[i], hi[i]) == tuple(pen.subdiff_interval(float(ui)))


# ------------------------------------------------------------------ factory
def test_make_penalty_dispatch():
    pen = make_penalty("mcp", 0.4, gamma=2.0)
    assert isinstance(pen, McpPenalty) and pen.lam == 0.4
    with pytest.raises(ValueError):
        make_penalty("nope", 1.0)


def test_parameter_validation():
    with pytest.raises(ValueError):
        ScadPenalty(lam=1.0, theta=2.0)  # needs theta > 2
    with pytest.raises(ValueError):
        McpPenalty(lam=0.0, gamma=1.0)
    with pytest.raises(ValueError):
        LogPenalty(lam=1.0, theta=0.0)
    with pytest.raises(ValueError):
        LogEpsilonPenalty(lam=1.0, eps=0.0)
    with pytest.raises(ValueError):
        CappedL1Penalty(lam=1.0, theta=-1.0)
