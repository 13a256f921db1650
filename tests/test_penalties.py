import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nonconvex_mm import (
    CappedL1Penalty,
    Dataset,
    LeastSquaresLoss,
    LogEpsilonPenalty,
    LogPenalty,
    McpPenalty,
    MmConfig,
    ProblemInstance,
    ScadPenalty,
    UnsupportedPenaltyError,
    certify,
    make_penalty,
    run_mm,
)

from helpers import prox_enumeration, prox_grid_oracle, prox_piece_changes, zeta_reference

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
    with pytest.raises(ValueError):
        ScadPenalty(lam=1.0, theta=3.0).deriv(np.array([np.nan, -0.2]))
    # NaN alone and empty input are not negative, so neither raises
    assert ScadPenalty(lam=1.0, theta=3.0).deriv(np.array([np.nan])).shape == (1,)
    assert McpPenalty(lam=1.0, gamma=2.0).value(np.array([])).shape == (0,)


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


@pytest.mark.parametrize("pen,u,alpha,expected", [
    # h(0) = u^2/(2*alpha) equals the flat value lam^2*gamma/2 = 1
    (McpPenalty(lam=1.0, gamma=2.0), 2.0, 2.0, 0.0),
    # h(0) = 16/8 equals the flat value (theta+1)*lam^2/2 = 2
    (ScadPenalty(lam=1.0, theta=3.0), 4.0, 4.0, 0.0),
    # h(0.5) = (0.5 - 3.5)^2/6 + 0.5 equals the flat value 2
    (ScadPenalty(lam=1.0, theta=3.0), -3.5, 3.0, -0.5),
    # h(1) = (1 - 3)^2/4 + 1 equals the flat value 2 and the whole middle
    # piece, which is linear at alpha = theta - 1
    (ScadPenalty(lam=1.0, theta=3.0), 3.0, 2.0, 1.0),
])
def test_prox_exact_ties_go_to_the_smaller_magnitude(pen, u, alpha, expected):
    # the larger minimizer is u itself, on the flat piece
    assert (expected - u) ** 2 / (2 * alpha) + pen.value(abs(expected)) == pen.value(abs(u))
    assert pen.prox(u, alpha) == expected


@pytest.mark.parametrize("kind,pen,params", ALL)
@pytest.mark.parametrize("alpha", [0.3, 2.5, 40.0])
def test_prox_maps_nonfinite_input_to_itself(kind, pen, params, alpha):
    u = np.array([np.inf, -np.inf, np.nan, 1.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = pen.prox(u, alpha)
        assert pen.prox(-np.inf, alpha) == -np.inf
    assert out[0] == np.inf and out[1] == -np.inf and np.isnan(out[2])
    assert out[3] == pen.prox(1.0, alpha)


def test_prox_rejects_nonpositive_or_nan_step():
    pen = ScadPenalty(lam=1.0, theta=3.0)
    for alpha in (0.0, -1.0, float("nan")):
        with pytest.raises(ValueError, match="alpha must be positive"):
            pen.prox(1.0, alpha)


def test_prox_keeps_shape_and_leaves_input_alone():
    pen = McpPenalty(lam=0.5, gamma=2.0)
    u = np.arange(-6.0, 6.0).reshape(3, 4)[:, ::2]
    before = u.copy()
    out = pen.prox(u, 3.0)
    assert out.shape == u.shape
    np.testing.assert_array_equal(u, before)
    np.testing.assert_array_equal(out, pen.prox(u.ravel(), 3.0).reshape(u.shape))


# ------------------------------------------- prox against the enumeration
def _pow10(lo, hi):
    return st.floats(lo, hi).map(lambda e: 10.0 ** e)


def _piece_scale(pen, alpha):
    return max(alpha, 1.0) * pen.lam * 10.0


@st.composite
def _prox_case(draw, kind):
    # below lam ~ 1e-6 every objective is under the absolute tie tolerance,
    # so half the draws come from scales where a wrong piece shows
    lam = draw(st.one_of(_pow10(-12, 6), _pow10(-2, 2)))
    if kind == "log":
        pen = LogPenalty(lam=lam, theta=draw(_pow10(-2, 2)))
        edge = 1.0 / (pen.lam / math.log(pen.theta + 1.0) * pen.theta ** 2)
    elif kind == "log_eps":
        pen = LogEpsilonPenalty(lam=lam, eps=draw(_pow10(-2, 2)))
        edge = pen.eps ** 2 / pen.lam
    elif kind == "scad":
        pen = ScadPenalty(lam=lam, theta=draw(st.floats(2.0, 20.0, exclude_min=True)))
        edge = pen.theta - 1.0
    elif kind == "mcp":
        pen = McpPenalty(lam=lam, gamma=draw(_pow10(-1, 2)))
        edge = pen.gamma
    else:
        pen = CappedL1Penalty(lam=lam, theta=lam * draw(_pow10(-2, 2)))
        edge = 2.0 * pen.theta / lam
    # the step on both sides of, and at, the penalty's regime boundary
    alpha = draw(st.one_of(
        _pow10(-3, 3),
        st.sampled_from([edge, math.nextafter(edge, 0.0), math.nextafter(edge, math.inf),
                         edge * (1 - 1e-9), edge * (1 + 1e-9), edge / 2, edge * 1.05,
                         edge * 2]),
    ))
    alpha = min(max(alpha, 1e-3), 1e3)
    # |u| near the scale where the pieces meet, and anywhere up to 1e150
    scale = _piece_scale(pen, alpha)
    mag = st.one_of(st.just(0.0), _pow10(-3, 1.5).map(lambda m: scale * m), _pow10(-20, 150))
    u = draw(st.lists(st.tuples(mag, st.sampled_from([-1.0, 1.0])), min_size=1, max_size=40))
    return pen, alpha, np.array([m * sgn for m, sgn in u])


# relative offsets from a piece change: within rounding of it, and far
# enough that the wrong piece loses by more than the tie tolerance
_NEAR = np.array([-1e-6, -1e-9, -1e-12, 0.0, 1e-12, 1e-9, 1e-6])


def _near_piece_changes(pen, alpha):
    scale = _piece_scale(pen, alpha)
    edges = prox_piece_changes(pen, alpha, scale * 1e-6, scale * 1e3)
    return (edges[:, None] * (1.0 + _NEAR)).ravel()


def _check_against_enumeration(pen, alpha, u):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = pen.prox(u, alpha)
    _, best = prox_enumeration(pen, u, alpha)
    obj = (out - u) ** 2 / (2.0 * alpha) + pen.value(np.abs(out))
    worst = np.max(obj - best - 1e-12 * (1.0 + np.abs(best)))
    assert worst <= 0.0, (pen, alpha, u[np.argmax(obj - best)])
    assert np.all(np.abs(out) <= np.abs(u))
    assert np.all((out == 0) | (np.sign(out) == np.sign(u)))


@pytest.mark.parametrize("kind", ["log", "log_eps", "scad", "mcp", "capped_l1"])
@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data())
def test_prox_matches_enumeration_oracle(kind, data):
    pen, alpha, u = data.draw(_prox_case(kind))
    near = _near_piece_changes(pen, alpha)
    if data.draw(st.booleans()):
        near = -near
    _check_against_enumeration(pen, alpha, np.concatenate([u, near]))


# ------------------------------------------------------------ reg / interval
@pytest.mark.parametrize("pen,flat", [(ScadPenalty(lam=0.7, theta=3.5), 4.5 * 0.7 * 0.7 / 2.0),
                                     (McpPenalty(lam=0.7, gamma=3.5), 0.7 * 0.7 * 3.5 / 2.0)],
                         ids=["scad", "mcp"])
def test_value_far_past_the_flat_point_does_not_overflow(pen, flat):
    # the piece before the flat one squares its argument; it is not
    # selected past the flat point, so its argument is clipped there
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert pen.reg_value(np.array([1e160, -1e300])) == 2 * flat


def test_reg_value_examples():
    pen = McpPenalty(lam=1.0, gamma=2.0)
    assert pen.reg_value(np.zeros(4)) == 0.0
    assert pen.reg_value(np.array([5.0, -5.0])) == pytest.approx(2.0)
    rng = np.random.default_rng(5)
    w = rng.normal(size=9)
    assert pen.reg_value(w) == pytest.approx(float(np.sum(pen.value(np.abs(w)))))


def _support_sum_vectors():
    rng = np.random.default_rng(5)
    w = rng.normal(scale=3.0, size=2000)
    w[rng.random(2000) < 0.9] = 0.0
    zeros = np.flatnonzero(w == 0.0)
    w[zeros[::3]] = -0.0
    yield "sparse", w
    yield "dense", rng.normal(scale=3.0, size=301)
    yield "zeros", np.zeros(50)
    yield "negative-zeros", np.full(50, -0.0)
    yield "empty", np.zeros(0)


@pytest.mark.parametrize("kind,pen,params", ALL)
def test_reg_value_is_the_sum_over_every_coordinate_bit_for_bit(kind, pen, params):
    # reg_value and the penalty term of run_mm's trace rows both evaluate
    # zeta on the support only and sum the values scattered into a zero
    # vector: the bits of the sum of zeta(|w_i|) over all p coordinates
    for name, w in _support_sum_vectors():
        dense = float(np.add.reduce(pen.value(np.abs(w))))
        (idx, vals), total = pen._support_sum(w)
        assert total.hex() == pen.reg_value(w).hex() == dense.hex(), name
        # the row stores the nonzeros, with no -0.0 among them
        np.testing.assert_array_equal(idx, np.flatnonzero(w))
        assert vals.tobytes() == w[np.flatnonzero(w)].tobytes()


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


def test_log_derivative_past_the_largest_double_is_zero_without_a_warning():
    # theta * t overflows to inf at t = 1e308, where zeta' is a finite 0
    pen = LogPenalty(lam=0.3, theta=2.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        lo, hi = pen.subdiff_interval(np.array([1e308, -1e308]))
    assert lo.tolist() == hi.tolist() == [0.0, -0.0]


@pytest.mark.parametrize("pen", [ScadPenalty(lam=0.5, theta=3.0),
                                 CappedL1Penalty(lam=0.9, theta=1.5),
                                 LogEpsilonPenalty(lam=0.4, eps=0.5),
                                 McpPenalty(lam=0.5, gamma=2.0),
                                 LogPenalty(lam=0.3, theta=2.0)])
def test_subdiff_interval_array_matches_scalar(pen):
    # +-0, +-inf, a subnormal and the capped-l1 kink (theta = 1.5)
    u = np.array([0.0, -0.0, 1.5, -1.5, 2.0, -0.2, 7.0, np.inf, -np.inf, 5e-324, -5e-324])
    lo, hi = pen.subdiff_interval(u)
    assert lo.shape == hi.shape == u.shape
    for i, ui in enumerate(u):
        assert (lo[i], hi[i]) == tuple(pen.subdiff_interval(float(ui)))
    # the two-branch formula against the interval written out piece by
    # piece, with zeta'(0) at zero; the bytes compare the signs of zeros
    lo_t, hi_t = pen.deriv_interval(np.abs(u))
    d0 = pen.deriv(0.0)
    ref_lo = np.where(u > 0, lo_t, np.where(u < 0, -hi_t, -d0))
    ref_hi = np.where(u > 0, hi_t, np.where(u < 0, -lo_t, d0))
    assert lo.tobytes() == ref_lo.tobytes() and hi.tobytes() == ref_hi.tobytes()


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


@pytest.mark.parametrize("make, kwargs, message", [
    (LogPenalty, {"lam": 0.0, "theta": 1.0}, "lam must be positive"),
    (LogPenalty, {"lam": 1.0, "theta": -1.0}, "theta must be positive"),
    (LogEpsilonPenalty, {"lam": -1.0, "eps": 1.0}, "lam must be positive"),
    (LogEpsilonPenalty, {"lam": 1.0, "eps": 0.0}, "eps must be positive"),
    (ScadPenalty, {"lam": 0.0, "theta": 3.7}, "lam must be positive"),
    (ScadPenalty, {"lam": 1.0, "theta": 2.0}, "SCAD requires theta > 2"),
    (ScadPenalty, {"lam": 1.0, "theta": -1.0}, "SCAD requires theta > 2"),
    (McpPenalty, {"lam": -0.5, "gamma": 2.0}, "lam must be positive"),
    (McpPenalty, {"lam": 1.0, "gamma": 0.0}, "gamma must be positive"),
    (CappedL1Penalty, {"lam": 0.0, "theta": 1.0}, "lam must be positive"),
    (CappedL1Penalty, {"lam": 1.0, "theta": -1.0}, "theta must be positive"),
])
def test_each_invalid_parameter_is_named_in_its_error(make, kwargs, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        make(**kwargs)


@pytest.mark.parametrize("kind,pen,params", ALL)
def test_params_are_the_fields_and_rebuild_the_penalty(kind, pen, params):
    assert pen.kind == kind and pen.params() == params
    assert make_penalty(kind, **params) == pen


# ------------------------------------------------------------ extreme shapes
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("make, param, value", [
    (LogPenalty, "theta", 5e-324),          # lam / log1p(theta) overflows
    (LogPenalty, "theta", 1e200),           # the curvature scale * theta**2 overflows
    (LogPenalty, "theta", math.inf),
    (LogPenalty, "theta", math.nan),
    (LogEpsilonPenalty, "eps", 1e-300),     # lam / eps / eps overflows
    (LogEpsilonPenalty, "eps", 5e-324),
    (LogEpsilonPenalty, "eps", math.inf),
])
def test_log_shapes_with_nonfinite_constants_rejected(capfd, make, param, value):
    message = f"{make.__name__}: {param}={value!r} with lam=0.3 is out of range"
    with pytest.raises(ValueError, match=re.escape(message)):
        make(lam=0.3, **{param: value})
    assert capfd.readouterr().err == ""


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("make, kwargs, shown", [
    (ScadPenalty, {"lam": 0.1, "theta": math.inf}, "theta=inf with lam=0.1"),
    (ScadPenalty, {"lam": math.inf, "theta": 3.7}, "theta=3.7 with lam=inf"),
    (ScadPenalty, {"lam": 0.1, "theta": math.nan}, "theta=nan with lam=0.1"),
    (McpPenalty, {"lam": math.nan, "gamma": 3.0}, "gamma=3.0 with lam=nan"),
    (McpPenalty, {"lam": 0.1, "gamma": math.inf}, "gamma=inf with lam=0.1"),
    (McpPenalty, {"lam": 0.1, "gamma": 1e-320}, "gamma=1e-320 with lam=0.1"),  # 1/gamma is inf
    (CappedL1Penalty, {"lam": math.inf, "theta": 1.0}, "theta=1.0 with lam=inf"),
    (CappedL1Penalty, {"lam": 0.1, "theta": math.nan}, "theta=nan with lam=0.1"),
    (LogEpsilonPenalty, {"lam": math.nan, "eps": 1.0}, "eps=1.0 with lam=nan"),
])
def test_nonfinite_parameter_or_curvature_rejected(capfd, make, kwargs, shown):
    # a NaN passes the positivity check, and an infinite deriv_lipschitz
    # makes run_mm's residual bound (mu + L_f + L_zeta)*||step|| vacuous
    with pytest.raises(ValueError, match=re.escape(f"{make.__name__}: {shown} is out of range")):
        make(**kwargs)
    with pytest.raises(ValueError, match="is out of range"):
        make_penalty(make.kind, **kwargs)
    assert capfd.readouterr().err == ""


@pytest.mark.filterwarnings("error")
def test_log_penalty_with_tiny_theta_is_the_l1_limit(capfd):
    # log(theta + 1.0) is 0 here; log1p keeps the normalizer, and the prox
    # root never squares 1/theta, so nothing overflows
    pen = LogPenalty(lam=0.3, theta=1e-300)
    t = np.array([0.0, 0.5, 2.0])
    np.testing.assert_allclose(pen.value(t), 0.3 * t, rtol=1e-15)
    assert pen.deriv(0.0) == pytest.approx(0.3, rel=1e-15)
    u = np.array([0.1, -0.2, 1.0, -5.0, np.inf, np.nan])
    np.testing.assert_allclose(pen.prox(u, 2.0),
                               np.sign(u) * np.maximum(np.abs(u) - 0.6, 0.0), rtol=1e-15)
    rng = np.random.default_rng(40)
    X = rng.normal(size=(40, 6))
    data = Dataset(X=X, y=X @ np.array([1.0, -1.0, 0, 0, 0, 0]) + 0.1 * rng.normal(size=40),
                   task="regression")
    prob = ProblemInstance(loss=LeastSquaresLoss(data), penalty=pen)
    for scheme in ("a", "b"):
        trace = run_mm(prob, MmConfig(scheme=scheme, tol=1e-10))
        assert trace.converged and certify(trace).passed
    assert capfd.readouterr().err == ""


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("pen", [
    LogPenalty(lam=0.3, theta=2.0), LogEpsilonPenalty(lam=0.3, eps=0.5),
    # 1/b is huge: t = |u| + 1/b is at least 1e200 at every entry
    LogPenalty(lam=0.3, theta=1e-200), LogEpsilonPenalty(lam=0.3, eps=1e200),
    # q = 2*sqrt(alpha*c) is large against the ordinary entries
    LogEpsilonPenalty(lam=2.0, eps=1e-3),
])
def test_log_prox_of_a_huge_input_does_not_overflow(pen):
    # the root never squares t = |u| + 1/b, so a huge |u| or 1/b, up to the
    # largest double, next to ordinary entries neither overflows (a
    # RuntimeWarning, an error here) nor moves the others
    u = np.array([1e160, 1.0, -1e300, 3.0, 1.7e308, -1.7e308])
    out = pen.prox(u, 1.0)
    huge = [0, 2, 4, 5]
    np.testing.assert_array_equal(out[huge], u[huge])
    np.testing.assert_array_equal(out[[1, 3]], pen.prox(u[[1, 3]], 1.0))
