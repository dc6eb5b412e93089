import random
from math import inf, nan, nextafter, ulp

import pytest

from ammix import (
    CurveParams,
    Currency,
    Family,
    MarketState,
    MixSpec,
    PowerLaw,
    Uniform,
    eval_mixed,
    max_extractable,
    point_at,
    quote,
    spot_rate,
    state_for_x,
    swap,
)
from ammix.errors import InsufficientLiquidityError, InvalidParameterError, OutOfRangeError
from ammix.schedules import S_MIN

FAMILIES = [Family.ARITHMETIC, Family.GEOMETRIC, Family.HOMOTOPY]


def test_quote_cpmm_sell_one(unit_params, unit_state):
    q = quote(unit_params, MixSpec.arithmetic(1.0), unit_state, Currency.CUR1, 1.0)
    assert q.output_amount == pytest.approx(0.5, rel=1e-9)
    assert q.spot_before == pytest.approx(1.0, rel=1e-12)
    assert q.effective_price == pytest.approx(0.5, rel=1e-9)
    assert q.slippage == pytest.approx(0.5, rel=1e-9)


def test_quote_csmm_no_slippage(unit_params, unit_state):
    q = quote(unit_params, MixSpec.arithmetic(0.0), unit_state, Currency.CUR1, 0.5)
    assert q.output_amount == pytest.approx(0.5, rel=1e-9)
    assert q.slippage == pytest.approx(0.0, abs=1e-12)


def test_quote_homotopy_between_endpoints(unit_params, unit_state):
    # the mixed curve pays between the constant-sum and constant-product outputs
    q = quote(unit_params, MixSpec.homotopy(0.5), unit_state, Currency.CUR1, 0.5)
    assert 1 / 3 < q.output_amount < 0.5
    # membership of the implied post-trade state
    post = MarketState(1.5, 1.0 - q.output_amount)
    assert abs(eval_mixed(unit_params, MixSpec.homotopy(0.5), post) - 1.0) <= 1e-10


def test_quote_rejects_zero_amount(unit_params, unit_state):
    # and any amount that is not positive and finite, before any solve: a
    # negative amount would first solve a backwards trade, and the others
    # would fail later with other messages
    for amount in (0.0, -0.5, inf, nan):
        for trade in (quote, swap):
            for currency in Currency:
                with pytest.raises(InvalidParameterError, match=(
                        rf"^trade amount must be positive and finite, got {amount!r}$")):
                    trade(unit_params, MixSpec.homotopy(0.5), unit_state, currency, amount)


def test_sell_cur2_spot_is_the_reciprocal_rate(pool_params):
    # off the anchor the rate is neither 1 nor a/b; selling currency 2 prices
    # currency 2 in units of currency 1, at 1/rate
    for mix in (MixSpec.arithmetic(0.4), MixSpec.geometric(0.7), MixSpec.scheduled(PowerLaw(2.0))):
        state = point_at(pool_params, mix, 0.1)
        rate = spot_rate(pool_params, mix, state)
        assert abs(rate - 1.0) > 0.1 and abs(rate - pool_params.a / pool_params.b) > 0.1
        q = quote(pool_params, mix, state, Currency.CUR2, 10.0)
        assert q.spot_before == 1.0 / rate
        assert q.effective_price == q.output_amount / 10.0
        assert q.slippage == abs(q.spot_before - q.effective_price) / q.spot_before


def test_trade_from_off_curve_state_rejected(unit_params):
    # (1, 2) is not on the unit CPMM x*y = 1: no quote, no swap
    off = MarketState(1.0, 2.0)
    mix = MixSpec.arithmetic(1.0)
    for trade in (quote, swap):
        for currency in Currency:
            with pytest.raises(InvalidParameterError, match="off the curve"):
                trade(unit_params, mix, off, currency, 0.001)


@pytest.mark.parametrize("params, mix, state, amount", [
    # 1 + 1e-16 rounds to 1: output 0
    (CurveParams(1.0, 1.0, 1.0, 1.0), MixSpec.arithmetic(0.5), MarketState(1.0, 1.0), 1e-16),
    (CurveParams(1.0, 1.0, 1.0, 1.0), MixSpec.homotopy(0.5), MarketState(1.0, 1.0), 1e-16),
])
def test_trade_below_solver_resolution_rejected(params, mix, state, amount):
    assert abs(eval_mixed(params, mix, state) - 1.0) <= 1e-15
    for trade in (quote, swap):
        for currency in Currency:
            with pytest.raises(InvalidParameterError, match="not positive and finite"):
                trade(params, mix, state, currency, amount)


def test_tiny_arithmetic_trade_resolved():
    # 5e-15 next to the x end: the arithmetic scaling is exact to rounding, so
    # the solve resolves it (output 1.1e-13 for cur1, 4.1e-16 for cur2)
    params, mix = CurveParams(1.0, 1.0, 2.0, 0.5), MixSpec.arithmetic(0.5)
    state = MarketState(4.999869298498733e-06, 4.999864298629435)
    for currency in Currency:
        new_state, q = swap(params, mix, state, currency, 5e-15)
        assert 0.0 < q.output_amount < float("inf")
        assert quote(params, mix, state, currency, 5e-15) == q
        assert abs(eval_mixed(params, mix, new_state) - 1.0) <= 1e-15


def test_swap_cpmm(unit_params, unit_state):
    new_state, q = swap(unit_params, MixSpec.arithmetic(1.0), unit_state, Currency.CUR1, 1.0)
    assert new_state.x == pytest.approx(2.0, rel=1e-12)
    assert new_state.y == pytest.approx(0.5, rel=1e-9)


def test_swap_reverse_returns_to_start(unit_params, unit_state):
    for family in FAMILIES:
        for t in (0.0, 0.5, 1.0):
            mix = MixSpec(family, Uniform(t))
            mid, q = swap(unit_params, mix, unit_state, Currency.CUR1, 0.4)
            back, _ = swap(unit_params, mix, mid, Currency.CUR2, q.output_amount)
            assert back.x == pytest.approx(unit_state.x, abs=1e-9)
            assert back.y == pytest.approx(unit_state.y, abs=1e-9)


def test_swap_path_independence(pool_params):
    state = pool_params.initial_state
    for family in FAMILIES:
        mix = MixSpec(family, Uniform(0.5))
        one_shot, _ = swap(pool_params, mix, state, Currency.CUR1, 100.0)
        mid, _ = swap(pool_params, mix, state, Currency.CUR1, 60.0)
        two_step, _ = swap(pool_params, mix, mid, Currency.CUR1, 40.0)
        assert two_step.x == pytest.approx(one_shot.x, abs=1e-9)
        assert two_step.y == pytest.approx(one_shot.y, abs=1e-9)


def test_swap_conserves_invariant(pool_params):
    state = pool_params.initial_state
    for family in FAMILIES:
        for t in (0.25, 0.75):
            mix = MixSpec(family, Uniform(t))
            post, _ = swap(pool_params, mix, state, Currency.CUR2, 50.0)
            assert abs(eval_mixed(pool_params, mix, post) - 1.0) <= 1e-10


def test_swap_scheduled_pool_less_slippage_than_cpmm(pool_params):
    # selling 2% of the cur1 reserve: the stabilized schedule quotes closer
    # to spot than the pure constant-product curve
    state = pool_params.initial_state
    stabilized = MixSpec.scheduled(PowerLaw(4.0))
    cpmm = MixSpec.homotopy(1.0)
    post, q_stab = swap(pool_params, stabilized, state, Currency.CUR1, 60.0)
    assert abs(eval_mixed(pool_params, stabilized, post) - 1.0) <= 1e-10
    q_cpmm = quote(pool_params, cpmm, state, Currency.CUR1, 60.0)
    assert q_stab.slippage < q_cpmm.slippage


def test_trader_never_beats_spot(unit_params, pool_params):
    # convex curve: the realized price of a sell cannot exceed the quoted spot
    for params in (unit_params, pool_params):
        state = params.initial_state
        for family in FAMILIES:
            for t in (0.0, 0.3, 0.8, 1.0):
                mix = MixSpec(family, Uniform(t))
                q = quote(params, mix, state, Currency.CUR1, 0.05 * state.x)
                assert q.effective_price <= q.spot_before + 1e-12 * q.spot_before


def test_insufficient_liquidity_carries_max(unit_params, unit_state):
    mix = MixSpec.arithmetic(0.0)
    with pytest.raises(InsufficientLiquidityError) as err:
        quote(unit_params, mix, unit_state, Currency.CUR1, 5.0)
    assert err.value.max_amount == pytest.approx(1.0, rel=1e-9)
    # the reported maximum is itself tradable
    q = quote(unit_params, mix, unit_state, Currency.CUR1, err.value.max_amount * (1 - 1e-9))
    assert q.output_amount <= 1.0


def _max_amount(params, mix, state, sell):
    """The max_amount of a sale too large for the curve, checked to be the
    largest amount whose sum with the reserve held does not pass the
    solver's reach."""
    with pytest.raises(InsufficientLiquidityError) as err:
        quote(params, mix, state, sell, 1e12)
    max_amount = err.value.max_amount
    held = state.x if sell is Currency.CUR1 else state.y
    reach = err.value.__cause__.max_reachable
    assert held + max_amount <= reach < held + nextafter(max_amount, inf)
    return max_amount


def test_reported_max_amount_is_tradable():
    # on every finite-intercept curve, in either direction: quoting exactly
    # max_amount is solved, and the next float up is refused
    rng = random.Random(18)
    for _ in range(1000):
        params = CurveParams(rng.uniform(0.3, 3.0), rng.uniform(0.3, 3.0),
                             rng.uniform(0.5, 4000.0), rng.uniform(0.5, 4000.0))
        family = rng.choice(FAMILIES)
        t = rng.uniform(0.0, 0.999) if family is Family.ARITHMETIC else 0.0
        mix = MixSpec(family, Uniform(t))
        state = point_at(params, mix, rng.uniform(0.01, 0.99))
        sell = rng.choice([Currency.CUR1, Currency.CUR2])
        max_amount = _max_amount(params, mix, state, sell)
        q = quote(params, mix, state, sell, max_amount)
        assert q.input_amount == max_amount > 0.0
        with pytest.raises(InsufficientLiquidityError):
            quote(params, mix, state, sell, nextafter(max_amount, inf))
    # a few ulps of the reach below it, under the solve's resolution, the
    # bound still holds
    params, mix = CurveParams(1.3, 1.0, 0.7, 1.6), MixSpec.arithmetic(0.5)
    with pytest.raises(OutOfRangeError) as err:
        state_for_x(params, mix, 1e300)
    reach = err.value.max_reachable
    for k in (1, 3, 8):
        _max_amount(params, mix, state_for_x(params, mix, reach - k * ulp(reach)), Currency.CUR1)


def test_max_extractable_csmm(unit_params, unit_state):
    bound = max_extractable(unit_params, MixSpec.arithmetic(0.0), unit_state, Currency.CUR2)
    assert bound.attainable
    assert bound.amount == pytest.approx(1.0, abs=1e-9)


def test_max_extractable_cpmm(unit_params, unit_state):
    bound = max_extractable(unit_params, MixSpec.arithmetic(1.0), unit_state, Currency.CUR2)
    assert not bound.attainable
    assert bound.amount == 1.0


def test_max_extractable_scheduled(unit_params, unit_state):
    # a schedule's homotopy curve only approaches the axes: the whole
    # reserve bounds the extraction, and no trade reaches it
    mix = MixSpec.scheduled(PowerLaw(2.0))
    for currency in Currency:
        bound = max_extractable(unit_params, mix, unit_state, currency)
        assert not bound.attainable
        assert bound.amount == 1.0


def test_max_extractable_arith_strictly_inside(unit_params, unit_state):
    bound = max_extractable(unit_params, MixSpec.arithmetic(0.5), unit_state, Currency.CUR2)
    assert bound.attainable
    assert bound.amount < 1.0
    # oracle: bisect the largest solvable trade in the extraction direction
    lo, hi = 0.0, 1.0
    mix = MixSpec.arithmetic(0.5)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        try:
            from ammix import state_for_y
            state_for_y(unit_params, mix, 1.0 - mid)
            lo = mid
        except Exception:
            hi = mid
    assert bound.amount == pytest.approx(lo, abs=1e-9)


def test_liquidity_dichotomy(unit_params, unit_state):
    # finite for arithmetic below t = 1 and for every family at t = 0;
    # supremum-only for geometric/homotopy above t = 0
    for t in (0.0, 0.5):
        assert max_extractable(unit_params, MixSpec.arithmetic(t), unit_state, Currency.CUR2).attainable
    for family in (Family.GEOMETRIC, Family.HOMOTOPY):
        assert max_extractable(unit_params, MixSpec(family, Uniform(0.0)), unit_state, Currency.CUR2).attainable
        for t in (0.5, 1.0):
            bound = max_extractable(unit_params, MixSpec(family, Uniform(t)), unit_state, Currency.CUR2)
            assert not bound.attainable
            assert bound.amount == 1.0


def test_max_extractable_cur1_side(unit_params, unit_state):
    bound = max_extractable(unit_params, MixSpec.arithmetic(0.0), unit_state, Currency.CUR1)
    assert bound.attainable
    assert bound.amount == pytest.approx(1.0, abs=1e-9)
    # a = 1e-9 puts the arithmetic curve's end at S_MIN a thousandth of the
    # anchor's x: the reserve there stays in the pool
    params = CurveParams(1e-9, 1.0, 1.0, 1.0)
    mix = MixSpec.arithmetic(0.5)
    end = point_at(params, mix, S_MIN)
    assert end.x > 1e-3 * params.x0
    bound = max_extractable(params, mix, params.initial_state, Currency.CUR1)
    assert bound.attainable
    assert bound.amount == params.x0 - end.x
