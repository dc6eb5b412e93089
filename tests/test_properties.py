"""Property tests over random curves (Hypothesis)."""

from math import exp, expm1, inf, isfinite, isnan, log, nan

from hypothesis import assume, given, settings, strategies as st

from ammix import (
    CurveParams,
    Family,
    MixSpec,
    Parabolic,
    PowerLaw,
    PriceVector,
    Uniform,
    arbitrage_state,
    check_convexity,
    eval_mixed,
    point_at,
    portfolio_value,
    reduced_value,
    spot_rate,
)
from ammix import _kernels as k
from ammix.analysis import _certified_convex
from ammix.errors import InvalidParameterError, NonDifferentiablePointError
from ammix.schedules import (
    CONVEXITY_GRID_INSET,
    CONVEXITY_GRID_SIZE,
    CONVEXITY_MARGIN_TOL,
    S_MAX,
    S_MIN,
    schedule_coeffs,
)

scale = st.floats(min_value=1e-2, max_value=1e2)
weight = st.floats(min_value=0.0, max_value=1.0)
curves = st.builds(CurveParams, a=scale, b=scale, x0=scale, y0=scale)
mixes = st.one_of(
    st.builds(MixSpec, st.sampled_from(Family), st.builds(Uniform, weight)),
    st.builds(MixSpec.scheduled, st.builds(PowerLaw, st.floats(min_value=0.1, max_value=8.0))),
    st.builds(MixSpec.scheduled, st.builds(Parabolic, bias=weight, center=weight)),
)


def _assume_accepted(params, mix):
    """Keep only curves arbitrage_state accepts: uniform or certified convex."""
    if not mix.is_uniform:
        try:
            assume(_certified_convex(params, mix))
        except InvalidParameterError:  # a parabola leaving [0, 1]
            assume(False)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(params=curves, mix=mixes)
def test_spot_rate_finite_and_positive_at_ends_and_anchor(params, mix):
    """On every curve arbitrage_state accepts (scheduled ones certified convex)."""
    _assume_accepted(params, mix)
    for state in (point_at(params, mix, S_MIN), point_at(params, mix, S_MAX), params.initial_state):
        rate = spot_rate(params, mix, state)
        assert isfinite(rate) and rate > 0.0, (state, rate)


# --- the portfolio value V(P) = inf { P . X : A(X) = 1 } --------------------------
#
# V is an infimum of linear functions of P, so it is 1-homogeneous and
# concave, and nondecreasing as reserves are never negative (Angeris &
# Chitra 2020, "Improved Price Oracles: Constant Function Market Makers").

prices = st.floats(min_value=1e-2, max_value=1e2)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(params=curves, mix=mixes, p1=prices, p2=prices, lam=st.floats(min_value=1e-3, max_value=1e3))
def test_portfolio_value_is_homogeneous(params, mix, p1, p2, lam):
    _assume_accepted(params, mix)
    value = portfolio_value(params, mix, PriceVector(p1, p2))
    scaled = portfolio_value(params, mix, PriceVector(lam * p1, lam * p2))
    assert abs(scaled - lam * value) <= 1e-9 * lam * value


@settings(max_examples=100, deadline=None, derandomize=True)
@given(params=curves, mix=mixes, r1=prices, r2=prices)
def test_reduced_value_nondecreasing_and_midpoint_concave(params, mix, r1, r2):
    _assume_accepted(params, mix)
    lo, hi = sorted((r1, r2))
    u_lo, u_mid, u_hi = (reduced_value(params, mix, r) for r in (lo, 0.5 * (lo + hi), hi))
    tol = 1e-9 * u_hi
    assert u_lo <= u_hi + tol
    assert u_mid >= 0.5 * (u_lo + u_hi) - tol


@settings(max_examples=100, deadline=None, derandomize=True)
@given(params=curves, mix=mixes, p1=prices, p2=prices)
def test_arbitrage_state_is_on_the_curve(params, mix, p1, p2):
    _assume_accepted(params, mix)
    state = arbitrage_state(params, mix, PriceVector(p1, p2))
    assert abs(eval_mixed(params, mix, state) - 1.0) <= 1e-9


@settings(max_examples=100, deadline=None, derandomize=True)
@given(params=curves, mix=mixes, q=st.floats(min_value=0.0, max_value=1.0))
def test_arbitrage_state_matches_the_rate(params, mix, q):
    """The spot rate at the arbitrage state is r, for r inside the curve's range.

    r is the spot rate at s = 1e-6 + q (1 - 2e-6).  The solve places s within
    about 1e-15, so the rate matches within 1e-9 wherever |d log(rate)/ds|
    stays below 1e6; next to the ends, where the rate goes like 1/s or
    1/(1 - s), the solved rate is only as close as 1e-15/s.
    """
    _assume_accepted(params, mix)
    r = spot_rate(params, mix, point_at(params, mix, 1e-6 + q * (1.0 - 2e-6)))
    r_max = spot_rate(params, mix, point_at(params, mix, S_MIN))
    r_min = spot_rate(params, mix, point_at(params, mix, S_MAX))
    assume(r_min < r < r_max)
    state = arbitrage_state(params, mix, PriceVector(r, 1.0))
    assert abs(spot_rate(params, mix, state) - r) <= 1e-9 * r


def _scalar_certificate(params, schedule, grid_size):
    """The certificate as a scalar loop over k.lam_chain: (min, worst_s, skipped)."""
    kind, q0, q1, q2 = schedule_coeffs(schedule, params.s0)
    step = (1.0 - 2.0 * CONVEXITY_GRID_INSET) / (grid_size - 1)
    min_margin, worst_s, skipped = inf, nan, 0
    for i in range(grid_size):
        s = CONVEXITY_GRID_INSET + i * step
        try:
            lam, lamp, lampp = k.lam_chain(kind, q0, q1, q2, s, params.a, params.b, params.x0,
                                           params.y0, params.alpha, params.beta)
        except NonDifferentiablePointError:
            skipped += 1
            continue
        margin = lam * lampp - 2.0 * lamp * lamp
        if margin < min_margin:
            min_margin, worst_s = margin, s
    return min_margin, worst_s, skipped


def _margin_and_scale(params, schedule, s):
    """The scalar margin lam lam'' - 2 lam'^2 at s, and the size of its terms.

    The size is the margin recomputed with every factor and every term of
    lam_chain taken in absolute value, including the two logs of g and the
    two terms of the numerator of g'.  Rounding error in the margin is at
    most a small multiple of eps times this size.  It is |lam lam''| +
    2 lam'^2 except next to s0, where g and g' cancel and the margin of a
    power law with exponent below 2 is rounding noise in any evaluation.
    """
    kind, q0, q1, q2 = schedule_coeffs(schedule, params.s0)
    a, b, x0, y0, alpha, beta = (params.a, params.b, params.x0, params.y0,
                                 params.alpha, params.beta)
    lam, lamp, lampp = k.lam_chain(kind, q0, q1, q2, s, a, b, x0, y0, alpha, beta)
    t, tp, tpp = k.sched_eval(kind, q0, q1, q2, s, params.s0)
    c, s0, deg, u = params.c, params.s0, params.deg, 1.0 - s
    p = c * exp(k.ray_log_ratio(s, a, b, x0, y0, alpha, beta)[0])
    pmc = c * expm1((abs(alpha * log(s0 / s)) + abs(beta * log((1.0 - s0) / u))) / deg)
    pp = p * (beta * s + alpha * u) / (deg * s * u)
    ppp = (2.0 * alpha * alpha * u * u + alpha * beta * (1.0 - 2.0 * s) ** 2
           + 2.0 * beta * beta * s * s) / (s * s * u * u * deg * deg) * p
    size0 = pmc * abs(t) + c
    size1 = pmc * abs(tp) + pp * abs(t)
    size2 = pmc * abs(tpp) + 2.0 * pp * abs(tp) + ppp * abs(t)
    return lam * lampp - 2.0 * lamp * lamp, size0 * size2 + 2.0 * size1 * size1


# s0 is exactly 0.5 on these, and most odd grids put a point on it
symmetric_curves = st.builds(lambda u, v: CurveParams(u, v, v, u), scale, scale)
schedules = st.one_of(
    st.builds(Uniform, weight),
    st.builds(PowerLaw, st.one_of(st.floats(min_value=0.25, max_value=8.0),
                                  st.sampled_from([0.5, 1.0, 2.0, 3.0]))),
    st.builds(Parabolic, bias=weight, center=weight),
)
grids = st.one_of(st.integers(min_value=3, max_value=9000),
                  st.integers(min_value=1, max_value=4500).map(lambda h: 2 * h + 1),
                  st.just(CONVEXITY_GRID_SIZE))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(params=st.one_of(curves, symmetric_curves), schedule=schedules, grid_size=grids)
def test_array_certificate_matches_scalar_loop(params, schedule, grid_size):
    """check_convexity against the scalar loop it replaced.

    The two evaluate the same operations and differ only where numpy's
    exp/log/expm1/power round differently from libm's, so each margin
    agrees within 1e-9 of the size of its terms.  The minima then agree
    within the larger size at the two worst points, and the scalar margin
    at the array's worst point (symmetric curves tie) lies within both
    sizes of the scalar minimum.
    """
    try:
        schedule_coeffs(schedule, params.s0)
    except InvalidParameterError:  # a parabola leaving [0, 1]
        assume(False)
    report = check_convexity(params, schedule, grid_size)
    min_margin, worst_s, skipped = _scalar_certificate(params, schedule, grid_size)
    assert (report.grid_size, report.skipped) == (grid_size, skipped)
    assert report.passed == (min_margin >= CONVEXITY_MARGIN_TOL)
    if isnan(worst_s):  # every point skipped
        assert report.min_margin == inf and isnan(report.worst_s)
        return
    _, size = _margin_and_scale(params, schedule, worst_s)
    at_worst, size_at_worst = _margin_and_scale(params, schedule, report.worst_s)
    assert abs(report.min_margin - min_margin) <= 1e-9 * max(size, size_at_worst)
    assert min_margin <= at_worst <= min_margin + 1e-9 * (size + size_at_worst)
