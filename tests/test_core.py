import ast
import gc
import math
import random
import re
import weakref
from pathlib import Path

import pytest

from ammix import (
    CurveParams,
    Family,
    MarketState,
    MixSpec,
    calibrate_weights,
    eval_component,
    eval_mixed,
    grad_mixed,
    spot_rate,
)
from ammix import Parabolic, PowerLaw, StableswapDynamic, Uniform, point_at, state_for_x, state_for_y
import ammix
from ammix import _kernels as k
from ammix.core import market
from ammix.errors import (
    AmmixError,
    DegenerateGradientError,
    InvalidParameterError,
    NonDifferentiablePointError,
    UnsupportedScheduleError,
)

ALL_FAMILIES = [Family.ARITHMETIC, Family.GEOMETRIC, Family.HOMOTOPY]
T_GRID = [i / 10 for i in range(11)]


# --- calibrate_weights ------------------------------------------------------

def test_calibrate_symmetric():
    assert calibrate_weights(1, 1, 1, 1) == (0.5, 0.5)


def test_calibrate_pool():
    alpha, beta = calibrate_weights(1, 2, 3000, 1000)
    assert alpha == pytest.approx(0.6, abs=1e-15)
    assert beta == pytest.approx(0.4, abs=1e-15)
    # cross-check the parallelism condition (a, b) || (alpha/x0, beta/y0)
    assert 1 * (beta / 1000) == pytest.approx(2 * (alpha / 3000), rel=1e-14)


def test_calibrate_scaling_cancels():
    assert calibrate_weights(2, 2, 5, 5) == (0.5, 0.5)


def test_calibrate_rejects_nonpositive():
    with pytest.raises(InvalidParameterError):
        calibrate_weights(0.0, 1, 1, 1)
    with pytest.raises(InvalidParameterError):
        calibrate_weights(1, -2, 1, 1)
    with pytest.raises(InvalidParameterError):
        calibrate_weights(1, 1, math.inf, 1)


def test_params_cached_constants(pool_params):
    assert pool_params.c == 5000.0
    assert pool_params.s0 == pytest.approx(0.6, abs=1e-15)
    assert pool_params.alpha + pool_params.beta == pytest.approx(1.0, abs=1e-15)


@pytest.mark.parametrize("args, s0", [((1e300, 1, 1, 1), "1.0"), ((1e-200, 1, 1e-200, 1), "0.0")])
def test_params_reject_anchor_at_ray_end(args, s0):
    # s0 rounds to an end of (0, 1), where the s-kernels' log(s0) or log(1 - s0) is undefined
    with pytest.raises(InvalidParameterError) as info:
        CurveParams(*args)
    message = str(info.value)
    assert f"s0 = a*x0/(a*x0 + b*y0) = {s0} is not strictly inside (0, 1)" in message
    assert f"a={args[0]!r}, b={args[1]!r}, x0={args[2]!r}, y0={args[3]!r}" in message


def test_params_reject_weighted_total_underflow():
    with pytest.raises(InvalidParameterError, match="underflows to 0"):
        CurveParams(1e-200, 1e-200, 1e-200, 1e-200)


def test_state_requires_positive():
    with pytest.raises(InvalidParameterError):
        MarketState(0.0, 1.0)
    with pytest.raises(InvalidParameterError):
        MarketState(1.0, -1.0)


def test_mixspec_non_homotopy_needs_uniform():
    with pytest.raises(InvalidParameterError):
        MixSpec(Family.ARITHMETIC, PowerLaw(2.0))
    MixSpec(Family.HOMOTOPY, PowerLaw(2.0))  # fine


# --- eval_component ---------------------------------------------------------

def test_component_initial_point(unit_params, unit_state):
    assert eval_component(unit_params, unit_state) == (1.0, 1.0)


def test_component_hand_values(unit_params):
    assert eval_component(unit_params, MarketState(4, 1)) == pytest.approx((2.5, 2.0))
    assert eval_component(unit_params, MarketState(2, 2)) == pytest.approx((2.0, 2.0))


# --- eval_mixed -------------------------------------------------------------

def test_mixed_normalized_at_initial_point(unit_params, pool_params):
    for params in (unit_params, pool_params):
        state = params.initial_state
        for family in ALL_FAMILIES:
            for t in T_GRID:
                value = eval_mixed(params, MixSpec(family, Uniform(t)), state)
                assert abs(value - 1.0) <= 1e-12


def test_mixed_geometric_value(unit_params):
    # A0 = A1 = 2 at (2, 2); the weighted geometric mean of equal values is
    # that value again, for every t
    value = eval_mixed(unit_params, MixSpec.geometric(0.5), MarketState(2, 2))
    assert value == pytest.approx(2.0, rel=1e-12)


def test_mixed_homotopy_membership(unit_params):
    # point produced by the s = 0.25, t = 0.5 parametrization; membership oracle
    state = MarketState(0.5386751345948129, 1.6160254037844386)
    value = eval_mixed(unit_params, MixSpec.homotopy(0.5), state)
    assert value == pytest.approx(1.0, abs=1e-12)


def test_mixed_endpoint_reduction(unit_params):
    # t = 0 reduces to the A0-based form, t = 1 to the A1-based form
    rng = random.Random(7)
    for _ in range(25):
        state = MarketState(rng.uniform(0.2, 5), rng.uniform(0.2, 5))
        a0, a1 = eval_component(unit_params, state)
        assert eval_mixed(unit_params, MixSpec.arithmetic(0.0), state) == pytest.approx(a0, abs=1e-12)
        assert eval_mixed(unit_params, MixSpec.arithmetic(1.0), state) == pytest.approx(a1, abs=1e-12)
        assert eval_mixed(unit_params, MixSpec.geometric(0.0), state) == pytest.approx(a0, abs=1e-12)
        assert eval_mixed(unit_params, MixSpec.geometric(1.0), state) == pytest.approx(a1, abs=1e-12)
        deg = unit_params.deg
        assert eval_mixed(unit_params, MixSpec.homotopy(0.0), state) == pytest.approx(1 / a0, abs=1e-12)
        assert eval_mixed(unit_params, MixSpec.homotopy(1.0), state) == pytest.approx(a1 ** (-1 / deg), abs=1e-12)


def test_geometric_homogeneity(unit_params, pool_params):
    # exact identity A_geo(k x, k y) = k**((1-t) + deg*t) * A_geo(x, y);
    # with calibrated exponents deg = 1, so every mixing is 1-homogeneous
    for params in (unit_params, pool_params):
        for t in (0.0, 0.3, 0.5, 0.8, 1.0):
            mix = MixSpec.geometric(t)
            state = MarketState(1.7 * params.x0, 0.4 * params.y0)
            base = eval_mixed(params, mix, state)
            expo = (1 - t) + params.deg * t
            for k in (0.5, 2.0, 7.0):
                scaled = eval_mixed(params, mix, MarketState(k * state.x, k * state.y))
                assert scaled == pytest.approx(k**expo * base, rel=1e-10)


def test_arithmetic_inhomogeneous_with_degree_two_product():
    # the basic construction A0 = (x+y)/2, A1 = x*y (degree 2): the weighted
    # sum is not homogeneous of any single degree, unlike the geometric mean
    def a_arith(x, y, t):
        return (x + y) / 2 * (1 - t) + x * y * t

    def a_geo(x, y, t):
        return ((x + y) / 2) ** (1 - t) * (x * y) ** t

    t, k = 0.5, 2.0
    expo = (1 - t) + 2 * t
    x, y = 1.3, 0.6
    geo_gap = abs(a_geo(k * x, k * y, t) - k**expo * a_geo(x, y, t)) / a_geo(k * x, k * y, t)
    arith_gap = abs(a_arith(k * x, k * y, t) - k**expo * a_arith(x, y, t)) / a_arith(k * x, k * y, t)
    assert geo_gap <= 1e-10
    assert arith_gap > 1e-3


# --- grad_mixed -------------------------------------------------------------

def _fd_grad(params, mix, state):
    def f(x, y):
        value = eval_mixed(params, mix, MarketState(x, y))
        if mix.family is Family.HOMOTOPY:
            return 1.0 / value  # gradients use the increasing orientation
        return value

    hx = 1e-6 * max(1.0, abs(state.x))
    hy = 1e-6 * max(1.0, abs(state.y))
    gx = (f(state.x + hx, state.y) - f(state.x - hx, state.y)) / (2 * hx)
    gy = (f(state.x, state.y + hy) - f(state.x, state.y - hy)) / (2 * hy)
    return gx, gy


def test_grad_csmm_constant(unit_params):
    for family in ALL_FAMILIES:
        mix = MixSpec(family, Uniform(0.0))
        for state in (MarketState(1, 1), MarketState(2, 2), MarketState(0.3, 4)):
            assert grad_mixed(unit_params, mix, state) == pytest.approx((0.5, 0.5), rel=1e-12)


def test_grad_cpmm_initial(unit_params, unit_state):
    for family in ALL_FAMILIES:
        mix = MixSpec(family, Uniform(1.0))
        assert grad_mixed(unit_params, mix, unit_state) == pytest.approx((0.5, 0.5), rel=1e-12)


def test_grad_parallel_to_weights_at_anchor(pool_params):
    state = pool_params.initial_state
    for family in ALL_FAMILIES:
        for t in (0.0, 0.25, 0.5, 0.75, 1.0):
            gx, gy = grad_mixed(pool_params, MixSpec(family, Uniform(t)), state)
            assert gx / gy == pytest.approx(pool_params.a / pool_params.b, rel=1e-12)


def test_grad_matches_finite_differences(unit_params, pool_params):
    rng = random.Random(21)
    for params in (unit_params, pool_params):
        for _ in range(10):
            family = rng.choice(ALL_FAMILIES)
            t = rng.choice([0.0, 0.25, 0.5, 0.75, 1.0])
            state = MarketState(
                params.x0 * rng.uniform(0.4, 2.5),
                params.y0 * rng.uniform(0.4, 2.5),
            )
            got = grad_mixed(params, MixSpec(family, Uniform(t)), state)
            want = _fd_grad(params, MixSpec(family, Uniform(t)), state)
            assert got == pytest.approx(want, rel=1e-6)


def test_grad_scheduled_matches_finite_differences(unit_params, pool_params):
    rng = random.Random(5)
    schedules = [PowerLaw(2.0), PowerLaw(4.0), Parabolic(bias=0.2, center=0.5)]
    for params in (unit_params, pool_params):
        for schedule in schedules:
            for _ in range(5):
                mix = MixSpec.scheduled(schedule)
                state = MarketState(
                    params.x0 * rng.uniform(0.5, 2.0),
                    params.y0 * rng.uniform(0.5, 2.0),
                )
                got = grad_mixed(params, mix, state)
                want = _fd_grad(params, mix, state)
                assert got == pytest.approx(want, rel=1e-6)


# --- spot_rate --------------------------------------------------------------

def test_spot_initial_rate_is_weight_ratio(unit_params, pool_params):
    for params, expect in ((unit_params, 1.0), (pool_params, 0.5)):
        state = params.initial_state
        for family in ALL_FAMILIES:
            for t in (0.0, 0.5, 1.0):
                rate = spot_rate(params, MixSpec(family, Uniform(t)), state)
                assert rate == pytest.approx(expect, abs=1e-9)


def test_spot_cpmm_is_reserve_ratio(unit_params):
    rate = spot_rate(unit_params, MixSpec.homotopy(1.0), MarketState(0.5, 2.0))
    assert rate == pytest.approx(4.0, rel=1e-12)


# --- the (x, y) kernels against the formulas they replaced --------------------

def _reference_grad_mixed(params, mix, state):
    # grad_mixed as it was before its arithmetic moved to _kernels.pure.grad_xy
    if isinstance(mix.schedule, Uniform):
        t, tp = mix.schedule.t, 0.0
    else:
        _, kind, q0, q1, q2 = market(params, mix).codes
        ax = params.a * state.x
        t, tp = k.sched_first(kind, q0, q1, q2, ax / (ax + params.b * state.y), params.s0)
    x, y = state.x, state.y
    a, b, alpha, beta, c, deg = params.a, params.b, params.alpha, params.beta, params.c, params.deg
    a0 = (params.a * state.x + params.b * state.y) / params.c
    a1 = (state.x / params.x0) ** params.alpha * (state.y / params.y0) ** params.beta
    n = a * x + b * y
    if mix.family is Family.ARITHMETIC:
        return (
            (1.0 - t) * a / c + t * a1 * alpha / x,
            (1.0 - t) * b / c + t * a1 * beta / y,
        )
    if mix.family is Family.GEOMETRIC:
        g = a0 ** (1.0 - t) * a1**t
        return (
            g * ((1.0 - t) * a / n + t * alpha / x),
            g * ((1.0 - t) * b / n + t * beta / y),
        )
    w = a1 ** (-1.0 / deg)
    raw = (1.0 - t) * c / n + t * w
    raw_x = -(1.0 - t) * c * a / (n * n) - t * w * alpha / (deg * x)
    raw_y = -(1.0 - t) * c * b / (n * n) - t * w * beta / (deg * y)
    if tp != 0.0:
        s_x = a * b * y / (n * n)
        s_y = -a * b * x / (n * n)
        dt_term = w - c / n
        raw_x += tp * s_x * dt_term
        raw_y += tp * s_y * dt_term
    inv2 = 1.0 / (raw * raw)
    return -raw_x * inv2, -raw_y * inv2


def _reference_spot_rate(params, mix, state):
    try:
        gx, gy = _reference_grad_mixed(params, mix, state)
    except NonDifferentiablePointError:
        return params.a / params.b
    if gy == 0.0:
        raise DegenerateGradientError("vanishing partial derivative in y")
    return gx / gy


def _reference_checked_spot_rate(params, mix, state):
    # spot_rate refuses a rate that is not positive and finite
    rate = _reference_spot_rate(params, mix, state)
    if not 0.0 < rate < math.inf:
        raise InvalidParameterError(f"spot rate {rate!r} at reserves ({state.x!r}, {state.y!r}) "
                                    "is not positive and finite")
    return rate


def _reference_eval_mixed(params, mix, state):
    a0 = (params.a * state.x + params.b * state.y) / params.c
    a1 = (state.x / params.x0) ** params.alpha * (state.y / params.y0) ** params.beta
    if isinstance(mix.schedule, Uniform):
        t = mix.schedule.t
    else:
        _, kind, q0, q1, q2 = market(params, mix).codes
        ax = params.a * state.x
        t = k.sched_value(kind, q0, q1, q2, ax / (ax + params.b * state.y), params.s0)
    if mix.family is Family.ARITHMETIC:
        return a0 * (1.0 - t) + a1 * t
    if mix.family is Family.GEOMETRIC:
        return a0 ** (1.0 - t) * a1**t
    return (1.0 - t) / a0 + a1 ** (-1.0 / params.deg) * t


def _kernel_cases(n, seed):
    """(params, mix, state) draws over all 3 families and the uniform,
    power-law and parabolic schedules, the anchor state and underflowing
    reserves included."""
    rng = random.Random(seed)
    for _ in range(n):
        params = CurveParams(rng.uniform(0.3, 3.0), rng.uniform(0.3, 3.0),
                             10 ** rng.uniform(-2, 4), 10 ** rng.uniform(-2, 4))
        mixes = [MixSpec(family, Uniform(rng.choice([0.0, 1.0, rng.uniform(0.0, 1.0)])))
                 for family in ALL_FAMILIES]
        mixes += [MixSpec.scheduled(PowerLaw(rng.choice([0.5, 1.0, 2.0, rng.uniform(0.25, 8.0)]))),
                  MixSpec.scheduled(Parabolic(bias=0.5, center=rng.uniform(0.3, 0.7)))]
        states = [params.initial_state,  # s == s0 exactly: no t' for a power law with k <= 1
                  MarketState(params.x0 * 10 ** rng.uniform(-3, 3), params.y0 * 10 ** rng.uniform(-3, 3)),
                  point_at(params, MixSpec.homotopy(0.5), rng.uniform(0.001, 0.999)),
                  MarketState(1e-320, params.y0)]  # x/x0 underflows: A1 == 0
        for mix in mixes:
            try:
                market(params, mix)
            except InvalidParameterError:  # a parabola leaving [0, 1] at this s0
                continue
            for state in states:
                yield params, mix, state


def _same_outcome(reference, kernel, *args):
    """kernel(*args) returns what reference(*args) returns, bit for bit (NaN
    and the sign of zero included: repr round-trips a float), or raises
    what it raises, except that a float-range failure of the formulas
    (ZeroDivisionError or OverflowError) is an InvalidParameterError
    naming it; returns the type the kernel raised, or None."""
    try:
        want = reference(*args)
    except AmmixError as exc:
        with pytest.raises(type(exc), match=re.escape(str(exc))):
            kernel(*args)
        return type(exc)
    except ArithmeticError as exc:
        with pytest.raises(InvalidParameterError,
                           match=re.escape(f"{type(exc).__name__}: {exc}")):
            kernel(*args)
        return InvalidParameterError
    assert repr(kernel(*args)) == repr(want), args
    return None


def test_xy_kernels_match_the_formulas_they_replaced_bit_for_bit():
    raised = set()
    for params, mix, state in _kernel_cases(60, 1212):
        m = market(params, mix)
        grad = lambda p, mx, st: k.grad_xy(*m.codes, st.x, st.y, *m.curve)
        raised.add(_same_outcome(_reference_grad_mixed, grad, params, mix, state))
        raised.add(_same_outcome(_reference_grad_mixed, grad_mixed, params, mix, state))
        rate = lambda p, mx, st: k.rate_xy(*m.codes, st.x, st.y, *m.curve)
        raised.add(_same_outcome(_reference_spot_rate, rate, params, mix, state))
        raised.add(_same_outcome(_reference_checked_spot_rate, spot_rate, params, mix, state))
        raised.add(_same_outcome(_reference_eval_mixed, eval_mixed, params, mix, state))
    # the k <= 1 anchor, A1 == 0 with gy == 0, and A1 == 0 under a negative power
    assert {NonDifferentiablePointError, DegenerateGradientError, InvalidParameterError} <= raised


def test_spot_rate_at_power_law_anchor_is_weight_ratio(pool_params):
    for exponent in (0.5, 1.0):
        mix = MixSpec.scheduled(PowerLaw(exponent))
        with pytest.raises(NonDifferentiablePointError):
            grad_mixed(pool_params, mix, pool_params.initial_state)
        assert spot_rate(pool_params, mix, pool_params.initial_state) == pool_params.a / pool_params.b


def test_spot_rate_refuses_vanishing_gy():
    params = CurveParams(1.0, 1.0, 1e10, 1.0)
    with pytest.raises(DegenerateGradientError, match="vanishing partial derivative in y"):
        spot_rate(params, MixSpec.arithmetic(1.0), MarketState(1e-320, 1.0))


# --- market -----------------------------------------------------------------

def test_market_is_resolved_once_per_curve(pool_params):
    mix = MixSpec.scheduled(Parabolic(bias=0.2, center=0.5))
    m = market(pool_params, mix)
    assert market(pool_params, MixSpec.scheduled(Parabolic(0.2, 0.5))) is m
    alpha, beta = pool_params.alpha, pool_params.beta
    assert m.curve == (1.0, 2.0, 3000.0, 1000.0, alpha, beta, 5000.0, alpha, alpha + beta)
    assert m.mirrored is m.mirrored
    assert m.mirrored.curve == CurveParams(2.0, 1.0, 1000.0, 3000.0)._curve
    assert m.mirrored.mix == MixSpec.scheduled(Parabolic(bias=0.8, center=0.5))


def test_a_curve_and_its_markets_are_freed_by_refcounting():
    """No Market refers back to a curve object, so dropping the last
    reference to a curve frees it, its Market, the mirror and the
    certificate at once, with the cyclic collector off."""
    gc.disable()
    try:
        params = CurveParams(1.0, 2.0, 3000.0, 1000.0)
        m = market(params, MixSpec.scheduled(Parabolic(bias=0.2, center=0.5)))
        assert m.mirrored.mix == MixSpec.scheduled(Parabolic(bias=0.8, center=0.5))
        assert m.certified
        curve, held = weakref.ref(params), weakref.ref(m)
        del params, m
        assert curve() is None and held() is None
    finally:
        gc.enable()


def test_curve_constants_are_the_kernels_derivation():
    """CurveParams derives its nine kernel constants with curve_constants,
    and its c and s0 are the same floats: on random curves and on the
    mirrored market of each."""
    rng = random.Random(1616)
    for _ in range(500):
        params = CurveParams(10 ** rng.uniform(-3, 3), 10 ** rng.uniform(-3, 3),
                             10 ** rng.uniform(-4, 4), 10 ** rng.uniform(-4, 4))
        mix = MixSpec.scheduled(PowerLaw(rng.uniform(0.5, 8.0)))
        mirrored = market(params, mix).mirrored.curve
        for p in (params, CurveParams(*mirrored[:4])):
            want = k.curve_constants(p.a, p.b, p.x0, p.y0, p.alpha, p.beta)
            assert p._curve == want, p
            assert (p.c, p.s0, p.deg) == want[6:], p
        assert mirrored == want  # the mirrored curve's own constants


DYNAMIC_REFUSALS = {
    "spot_rate": lambda p, mix, state: spot_rate(p, mix, state),
    "grad_mixed": lambda p, mix, state: grad_mixed(p, mix, state),
    "point_at": lambda p, mix, state: point_at(p, mix, 0.5),
    "state_for_x": lambda p, mix, state: state_for_x(p, mix, state.x),
    "state_for_y": lambda p, mix, state: state_for_y(p, mix, state.y),
    "market": lambda p, mix, state: market(p, mix),
}


def test_dynamic_stableswap_blend_is_evaluated(unit_params):
    # t = D^2 / (16 A x y + D^2) = 4 / 20 at (2, 0.5)
    state = MarketState(2.0, 0.5)
    mix = MixSpec.scheduled(StableswapDynamic(1.0, 2.0))
    assert eval_mixed(unit_params, mix, state) == pytest.approx(
        eval_mixed(unit_params, MixSpec.homotopy(0.2), state), rel=1e-15)


@pytest.mark.parametrize("call", DYNAMIC_REFUSALS.values(), ids=DYNAMIC_REFUSALS.keys())
def test_dynamic_stableswap_blend_refused_by_s_kernels(unit_params, unit_state, call):
    mix = MixSpec.scheduled(StableswapDynamic(1.0, 2.0))
    with pytest.raises(UnsupportedScheduleError, match="depends on the state"):
        call(unit_params, mix, unit_state)


# --- re-anchoring a curve at a state ----------------------------------------
# CurveParams(a=rate, b=1, x0=x, y0=y) re-anchors a curve at the state (x, y)
# with a fresh initial rate: every family passes through the state there.

def test_rebase_example():
    new = CurveParams(a=4.0, b=1.0, x0=0.5, y0=2.0)
    assert (new.a, new.b, new.x0, new.y0) == (4.0, 1.0, 0.5, 2.0)
    assert new.alpha == pytest.approx(0.5, abs=1e-15)
    assert new.beta == pytest.approx(0.5, abs=1e-15)


def test_rebase_identity(unit_params, unit_state):
    new = CurveParams(a=1.0, b=1.0, x0=unit_state.x, y0=unit_state.y)
    assert new == unit_params


def test_rebase_pool_weights_invariant():
    new = CurveParams(a=0.5, b=1.0, x0=3000.0, y0=1000.0)
    assert (new.a, new.b) == (0.5, 1.0)
    assert new.alpha == pytest.approx(0.6, abs=1e-14)
    assert new.beta == pytest.approx(0.4, abs=1e-14)


def test_rebase_passes_through_state_at_new_rate():
    state = MarketState(0.5, 2.0)
    new = CurveParams(a=4.0, b=1.0, x0=state.x, y0=state.y)
    for family in ALL_FAMILIES:
        for t in (0.0, 0.5, 1.0):
            mix = MixSpec(family, Uniform(t))
            assert eval_mixed(new, mix, state) == pytest.approx(1.0, abs=1e-12)
            assert spot_rate(new, mix, state) == pytest.approx(4.0, rel=1e-9)


def test_rebase_rejects_nonpositive_rate(unit_state):
    with pytest.raises(InvalidParameterError):
        CurveParams(a=0.0, b=1.0, x0=unit_state.x, y0=unit_state.y)


# --- the package surface -----------------------------------------------------

_ROOT = Path(__file__).resolve().parent.parent


def _uses(path):
    """The names a module reads, as names or attributes; a top-level
    definition's references to itself are not uses."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    for stmt in tree.body:
        own = getattr(stmt, "name", None)
        for node in ast.walk(stmt):
            name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
            if name is not None and name != own:
                yield name


def test_every_public_name_has_a_user():
    """Each name in ``ammix.__all__`` is used in the library outside its own
    definition and ``__init__.py``, by the acceptance or property suites, or
    in the README; a name only its own unit tests call is not public surface."""
    package = Path(ammix.__file__).parent
    modules = [p for p in package.rglob("*.py") if p != package / "__init__.py"]
    tests = [_ROOT / "tests" / "test_acceptance.py", _ROOT / "tests" / "test_properties.py"]
    used = {name for path in modules + tests for name in _uses(path)}
    readme = (_ROOT / "README.md").read_text(encoding="utf-8")
    unused = [name for name in ammix.__all__
              if name not in used and not re.search(rf"\b{re.escape(name)}\b", readme)]
    assert not unused
