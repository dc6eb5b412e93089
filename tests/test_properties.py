"""Property tests over random curves (Hypothesis)."""

from math import exp, expm1, inf, isfinite, isnan, log, nan

from hypothesis import assume, given, settings, strategies as st

from ammix import (
    Currency,
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
    s_of_state,
    spot_rate,
    state_for_x,
    state_for_y,
    swap,
)
from ammix import _kernels as k
from ammix.core import market
from ammix.errors import (
    InsufficientLiquidityError,
    InvalidParameterError,
    NonDifferentiablePointError,
)
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
    if not isinstance(mix.schedule, Uniform):
        try:
            assume(market(params, mix).certified)
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


@settings(max_examples=100, deadline=None, derandomize=True)
@given(params=curves, mix=mixes, s1=st.floats(min_value=S_MIN, max_value=S_MAX),
       s2=st.floats(min_value=S_MIN, max_value=S_MAX))
def test_spot_rate_does_not_increase_along_s(params, mix, s1, s2):
    """Convexity: the rate falls along the curve, up to rounding on curves whose
    rate is nearly constant (measured 2.8e-16 relative over 4,000 examples)."""
    _assume_accepted(params, mix)
    lo, hi = sorted((s1, s2))
    r_lo = spot_rate(params, mix, point_at(params, mix, lo))
    r_hi = spot_rate(params, mix, point_at(params, mix, hi))
    assert r_hi <= r_lo * (1.0 + 1e-12), (r_lo, r_hi)


# --- trades and the mirror --------------------------------------------------------

inner = st.floats(min_value=1e-6, max_value=1.0 - 1e-6)
trade_fracs = st.floats(min_value=1e-6, max_value=10.0)


def _sell(params, mix, s, currency, frac):
    """Sell frac of the currency's reserve from the curve point at s.

    Returns (start, post-trade state, output); trades beyond the curve's
    reach, and trades landing within 1e-6 of an end of s, are not drawn.
    """
    start = point_at(params, mix, s)
    amount = frac * (start.x if currency is Currency.CUR1 else start.y)
    try:
        post, q = swap(params, mix, start, currency, amount)
    except InsufficientLiquidityError:
        assume(False)
    assume(1e-6 <= s_of_state(params, post) <= 1.0 - 1e-6)
    return start, post, q.output_amount


@settings(max_examples=100, deadline=None, derandomize=True)
@given(params=curves, t=st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True),
       s=inner)
def test_arithmetic_point_at_is_on_the_curve(params, t, s):
    """The arithmetic scaling is exact to rounding (worst measured |A - 1|
    over 20,000 examples, s near the ends included: 8.9e-16)."""
    mix = MixSpec.arithmetic(t)
    assert abs(eval_mixed(params, mix, point_at(params, mix, s)) - 1.0) <= 2e-15


@settings(max_examples=100, deadline=None, derandomize=True)
@given(params=curves, mix=mixes, s=inner, currency=st.sampled_from(Currency), frac=trade_fracs)
def test_swap_lands_on_the_curve(params, mix, s, currency, frac):
    """A trade landing at s in [1e-6, 1 - 1e-6] stays on the curve (worst
    measured |A - 1| over 4,000 examples: 7.3e-12)."""
    _assume_accepted(params, mix)
    _, post, _ = _sell(params, mix, s, currency, frac)
    assert abs(eval_mixed(params, mix, post) - 1.0) <= 1e-9


@settings(max_examples=100, deadline=None, derandomize=True)
@given(params=curves, mix=mixes, s=inner, currency=st.sampled_from(Currency), frac=trade_fracs)
def test_selling_the_output_back_restores_the_reserves(params, mix, s, currency, frac):
    """Selling the output back returns the start (worst measured relative
    error over 4,000 examples: 6.3e-7, where one reserve is 1e-6 of the
    curve's scale and the solve's 1e-14 in s shows)."""
    _assume_accepted(params, mix)
    start, post, output = _sell(params, mix, s, currency, frac)
    back = Currency.CUR2 if currency is Currency.CUR1 else Currency.CUR1
    end, _ = swap(params, mix, post, back, output)
    assert abs(end.x - start.x) <= 1e-5 * start.x
    assert abs(end.y - start.y) <= 1e-5 * start.y


@settings(max_examples=100, deadline=None, derandomize=True)
@given(params=curves, mix=mixes, s=inner)
def test_state_for_y_is_the_mirrored_x_solve(params, mix, s):
    """Relabeling x <-> y swaps (a, x0) with (b, y0) and reflects s -> 1 - s,
    which turns a parabola's t(0) = bias into 1 - bias."""
    _assume_accepted(params, mix)
    y = point_at(params, mix, s).y
    schedule = mix.schedule
    if isinstance(schedule, Parabolic):
        schedule = Parabolic(1.0 - schedule.bias, schedule.center)
    mirrored = state_for_x(CurveParams(params.b, params.a, params.y0, params.x0),
                           MixSpec(mix.family, schedule), y)
    got = state_for_y(params, mix, y)
    assert (got.x, got.y) == (mirrored.y, mirrored.x)


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
            lam, lamp, lampp = k.lam_chain(kind, q0, q1, q2, s, *params._curve)
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
    alpha, beta = params.alpha, params.beta
    lam, lamp, lampp = k.lam_chain(kind, q0, q1, q2, s, *params._curve)
    t, tp, tpp = k.sched_eval(kind, q0, q1, q2, s, params.s0)
    c, s0, deg, u = params.c, params.s0, params.deg, 1.0 - s
    p = c * exp(k.ray_log_ratio(s, *params._curve)[0])
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


# --- an oracle for V(P) that does not share the solver ----------------------------
#
# Closed forms where the curve is a line or a calibrated constant product, and
# the envelope identities everywhere: U(r) = V(r, 1) is concave with
# U'(r) = x*(r) and U(r) - r U'(r) = y*(r) at the arbitrage state X*(r)
# (Angeris, Evans & Chitra 2021, "Replicating Market Makers").  The rate is
# drawn as a multiple of the anchor rate a/b.

rate_ratios = st.floats(min_value=1e-2, max_value=1e2)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(params=curves, family=st.sampled_from(Family), ratio=rate_ratios, p2=prices)
def test_constant_sum_value_closed_form(params, family, ratio, p2):
    """At t = 0 every family is the line a x + b y = C: V = C min(p1/a, p2/b).

    Away from the anchor rate the infimum sits at an intercept, and the
    solve returns the end state S_MIN inside it in s, which is worth
    C S_MIN |p1/a - p2/b| more (1e-10 relative at most over 1,500
    random examples).
    """
    a, b, c = params.a, params.b, params.c
    p1 = ratio * a / b * p2
    value = portfolio_value(params, MixSpec(family, Uniform(0.0)), PriceVector(p1, p2))
    exact = c * min(p1 / a, p2 / b)
    excess = c * S_MIN * abs(p1 / a - p2 / b)
    assert -1e-15 * exact <= value - exact <= excess + 1e-15 * exact, (value, exact, excess)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(params=curves, family=st.sampled_from(Family), ratio=rate_ratios, p2=prices)
def test_constant_product_value_closed_form(params, family, ratio, p2):
    """At t = 1 every family is x^alpha y^beta = x0^alpha y0^beta with
    alpha + beta = 1: V = x0^alpha y0^beta (p1/alpha)^alpha (p2/beta)^beta
    (2.4e-15 relative at most over 1,500 random examples)."""
    alpha, beta = params.alpha, params.beta
    p1 = ratio * params.a / params.b * p2
    value = portfolio_value(params, MixSpec(family, Uniform(1.0)), PriceVector(p1, p2))
    exact = (params.x0 ** alpha * params.y0 ** beta
             * (p1 / alpha) ** alpha * (p2 / beta) ** beta)
    assert abs(value - exact) <= 1e-12 * exact, (value, exact)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(params=curves, mix=mixes, ratio=rate_ratios)
def test_reduced_value_envelope_identities(params, mix, ratio):
    """U'(r) = x*(r) and U(r) - r U'(r) = y*(r), with U' from the difference
    quotients of U at r +- h, h = 1e-5 r.

    Errors are normalized by U(r)/r = x* + y*/r: where the solve clamps to an
    end, x* is about 5e-11 of the value, and an error relative to it says
    nothing.  The quotients divide U's rounding noise by 1e-5.

    U is concave, so x* lies between the forward and the backward quotient
    everywhere, kinks included.  The central quotient is checked only where
    it estimates U' to second order: not where the two quotients differ by
    more than 1e-3 of the value, as the step then does not resolve U's
    curvature (near-constant-sum stretches), and not on power laws with
    exponent below 2, whose t'' is unbounded at s0, so that U is not smooth
    at r = a/b (a central error of 1e-4 at r = (1 - 1e-5) a/b, measured).
    Over 6,000 random examples the worst errors were 1.3e-7 for the central
    quotient and 9.5e-8 outside the bracket.
    """
    _assume_accepted(params, mix)
    r = ratio * params.a / params.b
    h = 1e-5 * r
    u, u_up, u_down = (reduced_value(params, mix, q) for q in (r, r + h, r - h))
    star = arbitrage_state(params, mix, PriceVector(r, 1.0))
    size = star.x + star.y / r
    forward, backward = (u_up - u) / h, (u - u_down) / h
    assert forward - 1e-6 * size <= star.x <= backward + 1e-6 * size, (forward, star.x, backward)
    smooth_at_anchor = not (isinstance(mix.schedule, PowerLaw) and mix.schedule.exponent < 2.0)
    if smooth_at_anchor and backward - forward <= 1e-3 * size:
        slope = (u_up - u_down) / (2.0 * h)
        assert abs(slope - star.x) <= 1e-6 * size, (slope, star.x)
        assert abs(u - r * slope - star.y) <= 1e-6 * r * size, (u - r * slope, star.y)
