import math
import random

import pytest

from ammix import (
    Family,
    MarketState,
    MixSpec,
    eval_mixed,
    lambda_mix,
    point_at,
    s_of_state,
    scaling_factors,
    state_for_x,
    state_for_y,
)
from ammix import CurveParams, PowerLaw, Uniform
from ammix.errors import InvalidParameterError, OutOfRangeError
from ammix.schedules import S_MAX, S_MIN

FAMILIES = [Family.ARITHMETIC, Family.GEOMETRIC, Family.HOMOTOPY]


# --- s_of_state -------------------------------------------------------------

def test_s_symmetric(unit_params):
    assert s_of_state(unit_params, MarketState(1, 1)) == 0.5


def test_s_direct(unit_params):
    assert s_of_state(unit_params, MarketState(3, 1)) == pytest.approx(0.75, abs=1e-15)


def test_s_pool(pool_params):
    s = s_of_state(pool_params, MarketState(3000, 1000))
    assert s == pytest.approx(0.6, abs=1e-15)
    assert s == pytest.approx(pool_params.s0, abs=1e-15)


def test_s_state_on_ray(unit_params):
    # the state must be a positive multiple of (s/a, (1-s)/b)
    state = MarketState(2.5, 0.7)
    s = s_of_state(unit_params, state)
    vx, vy = s / unit_params.a, (1 - s) / unit_params.b
    assert state.x * vy == pytest.approx(state.y * vx, rel=1e-12)


# --- scaling_factors --------------------------------------------------------

def test_scaling_initial(unit_params):
    pair = scaling_factors(unit_params, MarketState(1, 1))
    assert (pair.lambda0, pair.lambda1) == (1.0, 1.0)


def test_scaling_hand_value(unit_params):
    pair = scaling_factors(unit_params, MarketState(4, 1))
    assert pair.lambda0 == pytest.approx(0.4, abs=1e-15)
    assert pair.lambda1 == pytest.approx(0.5, abs=1e-15)
    # scaled points land on their surfaces
    assert (0.4 * 4 + 0.4 * 1) / 2 == pytest.approx(1.0, abs=1e-12)
    assert math.sqrt((0.5 * 4) * (0.5 * 1)) == pytest.approx(1.0, abs=1e-12)


def test_scaling_symmetric(unit_params):
    pair = scaling_factors(unit_params, MarketState(2, 2))
    assert pair.lambda0 == pytest.approx(0.5, abs=1e-15)
    assert pair.lambda1 == pytest.approx(0.5, abs=1e-15)


def test_scaling_surfaces_random(pool_params):
    from ammix import eval_component
    rng = random.Random(3)
    for _ in range(20):
        v = MarketState(rng.uniform(100, 9000), rng.uniform(100, 9000))
        pair = scaling_factors(pool_params, v)
        a0, _ = eval_component(pool_params, MarketState(pair.lambda0 * v.x, pair.lambda0 * v.y))
        _, a1 = eval_component(pool_params, MarketState(pair.lambda1 * v.x, pair.lambda1 * v.y))
        assert abs(a0 - 1.0) <= 1e-12
        assert abs(a1 - 1.0) <= 1e-12


# --- lambda_mix -------------------------------------------------------------

def test_lambda_hom_csmm_endpoint(unit_params):
    assert lambda_mix(unit_params, Family.HOMOTOPY, 0.5, 0.0) == 2.0


def test_lambda_hom_frozen_value(unit_params):
    lam = lambda_mix(unit_params, Family.HOMOTOPY, 0.25, 0.5)
    assert lam == pytest.approx(1 + 2 / math.sqrt(3), rel=1e-12)
    # oracle: the scaled base point satisfies the homotopy invariant
    state = MarketState(lam * 0.25, lam * 0.75)
    assert eval_mixed(unit_params, MixSpec.homotopy(0.5), state) == pytest.approx(1.0, abs=1e-12)


def test_lambda_geo_cpmm_endpoint(unit_params):
    lam = lambda_mix(unit_params, Family.GEOMETRIC, 0.25, 1.0)
    assert lam == pytest.approx(4 / math.sqrt(3), rel=1e-12)


def test_lambda_arith_on_anchor_ray(unit_params):
    # on the ray through the anchor every family passes through (1, 1)
    assert lambda_mix(unit_params, Family.ARITHMETIC, 0.5, 0.7) == pytest.approx(2.0, rel=1e-12)


def test_lambda_arith_root_membership(pool_params):
    for s in (0.1, 0.35, 0.6, 0.85):
        for t in (0.2, 0.5, 0.9):
            lam = lambda_mix(pool_params, Family.ARITHMETIC, s, t)
            state = MarketState(lam * s / pool_params.a, lam * (1 - s) / pool_params.b)
            value = eval_mixed(pool_params, MixSpec.arithmetic(t), state)
            assert value == pytest.approx(1.0, abs=1e-10)


def test_lambda_rejects_bad_inputs(unit_params):
    with pytest.raises(InvalidParameterError):
        lambda_mix(unit_params, Family.HOMOTOPY, 0.0, 0.5)
    with pytest.raises(InvalidParameterError):
        lambda_mix(unit_params, Family.HOMOTOPY, 0.5, 1.5)
    with pytest.raises(InvalidParameterError):
        lambda_mix(unit_params, Family.HOMOTOPY, 0.5, math.nextafter(1.0, 2.0))


# --- point_at ---------------------------------------------------------------

def test_point_at_anchor(unit_params):
    for family in FAMILIES:
        state = point_at(unit_params, MixSpec(family, Uniform(0.37)), 0.5)
        assert state.x == pytest.approx(1.0, rel=1e-12)
        assert state.y == pytest.approx(1.0, rel=1e-12)


def test_point_at_frozen_hom(unit_params):
    state = point_at(unit_params, MixSpec.homotopy(0.5), 0.25)
    assert state.x == pytest.approx(0.5386751345948129, rel=1e-12)
    assert state.y == pytest.approx(1.6160254037844386, rel=1e-12)


def test_point_at_csmm_line(unit_params):
    state = point_at(unit_params, MixSpec.arithmetic(0.0), 0.25)
    assert state.x == pytest.approx(0.5, rel=1e-12)
    assert state.y == pytest.approx(1.5, rel=1e-12)


def test_membership_grid(unit_params, pool_params):
    for params in (unit_params, pool_params):
        for family in FAMILIES:
            for t in (0.0, 0.25, 0.5, 0.75, 1.0):
                mix = MixSpec(family, Uniform(t))
                for i in range(1, 10):
                    s = i / 10
                    state = point_at(params, mix, s)
                    assert abs(eval_mixed(params, mix, state) - 1.0) <= 1e-10


def test_round_trip(unit_params, pool_params):
    for params in (unit_params, pool_params):
        for family in FAMILIES:
            mix = MixSpec(family, Uniform(0.6))
            for i in range(1, 10):
                s = i / 10
                assert s_of_state(params, point_at(params, mix, s)) == pytest.approx(s, abs=1e-12)


def test_endpoint_divergence_direction(unit_params):
    # even on the small unit curve the geometric/homotopy scalings diverge
    # as s heads to the endpoints while the arithmetic one saturates
    lam_g6 = lambda_mix(unit_params, Family.GEOMETRIC, 1e-6, 0.5)
    lam_g12 = lambda_mix(unit_params, Family.GEOMETRIC, 1e-12, 0.5)
    lam_h6 = lambda_mix(unit_params, Family.HOMOTOPY, 1e-6, 0.5)
    lam_h12 = lambda_mix(unit_params, Family.HOMOTOPY, 1e-12, 0.5)
    lam_a6 = lambda_mix(unit_params, Family.ARITHMETIC, 1e-6, 0.5)
    lam_a12 = lambda_mix(unit_params, Family.ARITHMETIC, 1e-12, 0.5)
    assert lam_g12 > 10 * lam_g6
    assert lam_h12 > 10 * lam_h6
    assert lam_a12 < 10 * unit_params.c
    assert abs(lam_a12 - lam_a6) < 1e-2  # saturating toward C/(1-t)


# --- state_for_x / state_for_y ----------------------------------------------

def test_state_for_x_cpmm(unit_params):
    state = state_for_x(unit_params, MixSpec.arithmetic(1.0), 4.0)
    assert state.x == 4.0
    assert state.y == pytest.approx(0.25, rel=1e-12)


def test_state_for_x_csmm(unit_params):
    state = state_for_x(unit_params, MixSpec.arithmetic(0.0), 1.5)
    assert state.y == pytest.approx(0.5, rel=1e-12)


def _homotopy_curve(d):
    """(params, mix): a homotopy with a, b, x0, y0 in [0.5, 2], t in [0, 1]."""
    params = CurveParams(*(d.floats(0.5, 2.0) for _ in range(4)))
    return params, MixSpec.homotopy(d.floats(0.0, 1.0))


def test_state_for_x_out_of_range(unit_params, draws):
    with pytest.raises(OutOfRangeError) as err:
        state_for_x(unit_params, MixSpec.arithmetic(0.0), 3.0)
    assert err.value.max_reachable == pytest.approx(2.0, rel=1e-9)
    # at the reach itself the Newton polish lands on the curve's end, S_MAX
    for mix in (MixSpec.arithmetic(0.0), MixSpec.homotopy(0.5)):
        with pytest.raises(OutOfRangeError) as err:
            state_for_x(unit_params, mix, 1e300)
        state = state_for_x(unit_params, mix, err.value.max_reachable)
        assert state.y == point_at(unit_params, mix, S_MAX).y, mix
    # each end's own x is in reach: the reach rounds as point_at's x does
    for params, mix in draws(300, _homotopy_curve):
        for s in (S_MIN, S_MAX):
            state_for_x(params, mix, point_at(params, mix, s).x)


def test_state_for_x_is_exact_under_power_of_two_scaling():
    """x0, y0 and the target scaled by 2**-20 scale the solved state by
    2**-20 exactly, through the bisection and the Newton polish alike,
    though x'(s) falls from about 1 to about 1e-6."""
    rng = random.Random(1919)
    for _ in range(200):
        a, b, x0, y0 = (rng.uniform(0.5, 2.0) for _ in range(4))
        mix = MixSpec(rng.choice(FAMILIES), Uniform(rng.uniform(0.0, 1.0)))
        params, small = CurveParams(a, b, x0, y0), CurveParams(a, b, x0 * 2**-20, y0 * 2**-20)
        x = point_at(params, mix, rng.uniform(0.05, 0.95)).x
        assert state_for_x(small, mix, x * 2**-20).y == state_for_x(params, mix, x).y * 2**-20


def test_state_for_x_precision(pool_params):
    for family in FAMILIES:
        mix = MixSpec(family, Uniform(0.5))
        for target in (500.0, 2999.0, 3000.0, 4000.0, 9000.0):
            state = state_for_x(pool_params, mix, target)
            assert abs(state.x - target) <= 1e-12 * max(1.0, target)
            assert abs(eval_mixed(pool_params, mix, state) - 1.0) <= 1e-10


@pytest.mark.parametrize("params, exponent, x", [
    (CurveParams(1.0, 2.0, 3000.0, 1000.0), 4.0, 3060.0),
    # the bisection ends exactly on s0 = 0.8064468156563596, where a power
    # law of exponent below 1 has no t': rate_s's s0 branch gives the
    # cusp's (C, a/b), from which the polish takes its slope
    (CurveParams(1.0416346525001732, 1.0, 2.0, 0.5), 0.9044831890178828, 2.0),
], ids=["pool", "no-slope-at-s0"])
def test_state_for_x_scheduled(params, exponent, x):
    mix = MixSpec.scheduled(PowerLaw(exponent))
    state = state_for_x(params, mix, x)
    assert state.x == x
    assert abs(eval_mixed(params, mix, state) - 1.0) <= 1e-10


def test_state_for_y_matches_x_solve(unit_params):
    mix = MixSpec.homotopy(0.5)
    state = state_for_y(unit_params, mix, 1.6160254037844386)
    assert state.x == pytest.approx(0.5386751345948129, rel=1e-10)
    assert abs(eval_mixed(unit_params, mix, state) - 1.0) <= 1e-10


@pytest.mark.parametrize("y", [-1.0, 0.0, float("nan"), float("inf")])
def test_state_for_y_reports_a_bad_target_as_y(unit_params, y):
    with pytest.raises(InvalidParameterError, match=r"^y_target must be positive and finite"):
        state_for_y(unit_params, MixSpec.arithmetic(0.5), y)


def test_state_for_y_reports_reach_in_y(unit_params):
    with pytest.raises(OutOfRangeError) as err:
        state_for_y(unit_params, MixSpec.arithmetic(0.5), 1e9)
    # the reach is the y the solver reaches, at the curve's end s = S_MIN, not
    # the intercept y = 4 it never reaches
    assert str(err.value) == (
        "y=1000000000.0 beyond the curve's reach (max reachable y is 3.9999920001)")
    assert err.value.max_reachable == 3.999992000100487
    assert state_for_y(unit_params, MixSpec.arithmetic(0.5), err.value.max_reachable).y \
        == err.value.max_reachable
    with pytest.raises(OutOfRangeError) as err:
        state_for_y(unit_params, MixSpec.arithmetic(0.5), 1e-300)
    assert str(err.value).startswith("y=1e-300 below the curve's reach (min representable y is ")
    assert state_for_y(unit_params, MixSpec.arithmetic(0.5), err.value.max_reachable).y \
        == err.value.max_reachable
