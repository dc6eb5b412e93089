"""Swap execution and quoting along a fixed curve, fee-free.

A trade adds the input amount to one reserve and walks the state along the
invariant's level set; the drop in the other reserve is the output.
Slippage compares the pre-trade spot price p1 against the realized price
p2 = output/input: slippage = |p1 - p2| / |p1|.  A trade starts only from
a state on the curve, |A(X) - 1| <= ON_CURVE_TOL, and must pay out a
positive, finite amount, which a trade below the solver's resolution
does not.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from math import fsum, inf, isfinite, nextafter, ulp

from ammix.core import CurveParams, MarketState, MixSpec, eval_mixed, spot_rate
from ammix.errors import InsufficientLiquidityError, InvalidParameterError, OutOfRangeError
from ammix.parametrize import point_at, state_for_x, state_for_y
from ammix.schedules import ON_CURVE_TOL, S_MAX, S_MIN


class Currency(Enum):
    CUR1 = "cur1"
    CUR2 = "cur2"


@dataclass(frozen=True)
class Quote:
    """Priced trade: what goes in, what comes out, and the realized slippage."""

    input_currency: Currency
    input_amount: float
    output_amount: float
    spot_before: float
    effective_price: float
    slippage: float


def _solve_trade(params: CurveParams, mix: MixSpec, state: MarketState,
                 input_currency: Currency, amount: float) -> tuple[MarketState, Quote]:
    if not (isfinite(amount) and amount > 0.0):
        raise InvalidParameterError(f"trade amount must be positive and finite, got {amount!r}")
    residual = eval_mixed(params, mix, state) - 1.0
    if not abs(residual) <= ON_CURVE_TOL:
        raise InvalidParameterError(
            f"state ({state.x!r}, {state.y!r}) is off the curve: A(X) - 1 = {residual!r}"
        )
    rate = spot_rate(params, mix, state)
    sells_x = input_currency is Currency.CUR1
    p1 = rate if sells_x else 1.0 / rate
    held, solve = (state.x, state_for_x) if sells_x else (state.y, state_for_y)
    try:
        new_state = solve(params, mix, held + amount)
    except OutOfRangeError as exc:
        # the largest amount whose sum with held does not round past the reach:
        # the midpoint between the reach and the next float up, less held, as
        # fsum rounds it, or the float below where its sum with held rounds up
        reach = exc.max_reachable
        max_amount = fsum((reach, -held, ulp(reach) / 2.0))
        if held + max_amount > reach:
            max_amount = nextafter(max_amount, -inf)
        raise InsufficientLiquidityError(
            f"trade of {amount!r} {input_currency.value} exceeds the curve's reach",
            max_amount=max_amount,
        ) from exc
    output = state.y - new_state.y if sells_x else state.x - new_state.x
    if not (isfinite(output) and output > 0.0):
        raise InvalidParameterError(f"trade of {amount!r} {input_currency.value} gives output "
                                    f"{output!r}, which is not positive and finite")
    p2 = output / amount
    quote_ = Quote(
        input_currency=input_currency,
        input_amount=amount,
        output_amount=output,
        spot_before=p1,
        effective_price=p2,
        slippage=abs(p1 - p2) / abs(p1),
    )
    return new_state, quote_


def quote(params: CurveParams, mix: MixSpec, state: MarketState,
          input_currency: Currency, amount: float) -> Quote:
    """Price a trade without executing it."""
    return _solve_trade(params, mix, state, input_currency, amount)[1]


def swap(params: CurveParams, mix: MixSpec, state: MarketState,
         input_currency: Currency, amount: float) -> tuple[MarketState, Quote]:
    """Execute a trade; returns the post-trade state and its quote."""
    return _solve_trade(params, mix, state, input_currency, amount)


@dataclass(frozen=True)
class LiquidityBound:
    """How much of a currency the curve can pay out.

    ``attainable`` marks curves that actually end at a finite intercept
    (constant-sum-like); supremum-only curves approach the bound
    asymptotically and never pay the full reserve.
    """

    amount: float
    attainable: bool


def max_extractable(params: CurveParams, mix: MixSpec, state: MarketState,
                    currency: Currency) -> LiquidityBound:
    """Bound on the extractable amount of ``currency`` from the state.

    Arithmetic mixings with t < 1 (and every family at t = 0) have finite
    intercepts, so the bound is reached at finite cost; geometric and
    homotopy mixings with t > 0 only approach the full reserve.
    """
    if not mix.has_finite_intercept:
        reserve = state.y if currency is Currency.CUR2 else state.x
        return LiquidityBound(amount=reserve, attainable=False)
    if currency is Currency.CUR2:
        end = point_at(params, mix, S_MAX)
        return LiquidityBound(amount=state.y - end.y, attainable=True)
    end = point_at(params, mix, S_MIN)
    return LiquidityBound(amount=state.x - end.x, attainable=True)
