"""Impermanent loss, arbitrage states, and portfolio value functions.

Given external prices P, arbitrageurs drain the market until P is normal
to the curve, i.e. until the internal exchange rate matches p1/p2; the
value left behind is V(P) = inf { P . X : A(X) = 1 }.  Impermanent loss
compares that post-arbitrage pool value with simply holding the deposit.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import isfinite
from typing import Sequence

from ammix.core import CurveParams, MarketState, MixSpec, spot_rate
from ammix.errors import InvalidParameterError, UnsupportedCurveError
from ammix.parametrize import point_at
from ammix.schedules import S_MAX, S_MIN, Uniform, _bisect, check_convexity


@dataclass(frozen=True)
class PriceVector:
    """External prices of the two currencies; the rate is p1/p2."""

    p1: float
    p2: float

    def __post_init__(self) -> None:
        if not (isfinite(self.p1) and self.p1 > 0.0 and isfinite(self.p2) and self.p2 > 0.0):
            raise InvalidParameterError(f"prices must be positive and finite, got {self!r}")

    def value_of(self, state: MarketState) -> float:
        return self.p1 * state.x + self.p2 * state.y

    @property
    def rate(self) -> float:
        return self.p1 / self.p2


@dataclass(frozen=True)
class ILReport:
    """Pool-versus-hold comparison at the final prices."""

    il: float
    held_value: float
    pool_value: float


def impermanent_loss(p_f: PriceVector, x_i: MarketState, x_f: MarketState) -> ILReport:
    """IL = (P_f . X_f) / (P_f . X_i) - 1."""
    held = p_f.value_of(x_i)
    pool = p_f.value_of(x_f)
    return ILReport(il=pool / held - 1.0, held_value=held, pool_value=pool)


@lru_cache(maxsize=256)
def _certified_convex(params: CurveParams, mix: MixSpec) -> bool:
    return check_convexity(params, mix.schedule).passed


def arbitrage_state(params: CurveParams, mix: MixSpec, p: PriceVector) -> MarketState:
    """The on-curve state arbitrageurs leave behind at prices p.

    Solves spot(s) = p1/p2 by bisection (the spot rate is monotone along a
    convex curve).  Rates beyond the curve's supported range map to the
    clamped endpoint states, where the infimum is attained.
    """
    if not isinstance(mix.schedule, Uniform) and not _certified_convex(params, mix):
        raise UnsupportedCurveError(
            "the schedule fails the convexity certificate; arbitrage states are undefined"
        )
    r = p.rate

    def rate_at(s: float) -> float:
        return spot_rate(params, mix, point_at(params, mix, s))

    lo, hi = S_MIN, S_MAX
    r_max, r_min = rate_at(lo), rate_at(hi)
    if r_max == r_min:
        # constant-rate curve: at the matching price ratio every point
        # attains the infimum; report the anchor state
        if r > r_max:
            return point_at(params, mix, lo)
        if r < r_min:
            return point_at(params, mix, hi)
        return MarketState(params.x0, params.y0)
    if r >= r_max:
        return point_at(params, mix, lo)
    if r <= r_min:
        return point_at(params, mix, hi)
    return point_at(params, mix, _bisect(lambda s: rate_at(s) > r, lo, hi, atol=1e-15))


def portfolio_value(params: CurveParams, mix: MixSpec, p: PriceVector) -> float:
    """V(P) = P . arbitrage_state(P); 1-homogeneous in P."""
    return p.value_of(arbitrage_state(params, mix, p))


def reduced_value(params: CurveParams, mix: MixSpec, r: float) -> float:
    """U(r) = V(r, 1), the portfolio value against the rate alone."""
    if not (isfinite(r) and r > 0.0):
        raise InvalidParameterError(f"rate must be positive and finite, got {r!r}")
    return portfolio_value(params, mix, PriceVector(r, 1.0))


DEFAULT_RATE_RATIOS = (0.5, 2.0)
DEFAULT_PRICE_SCALES = (1.0, 3.0, 10.0)


def erli_discrepancy(params: CurveParams, mix: MixSpec,
                     rate_scenarios: Sequence[tuple[PriceVector, float]] | None = None,
                     price_level_scales: Sequence[float] | None = None) -> float:
    """Largest IL spread across price levels sharing a rate ratio.

    For each scenario (initial prices, final/initial rate ratio) and each
    scale k, the currency-1 price level is multiplied by k, the deposit is
    taken at the scaled initial equilibrium, and IL is evaluated at the
    scaled final prices.  A rate-level-independent curve yields the same IL
    at every scale, so the returned spread is ~0; a positive value is a
    witness that IL depends on more than the rate ratio.
    """
    if rate_scenarios is None:
        base = PriceVector(params.a / params.b, 1.0)
        rate_scenarios = [(base, ratio) for ratio in DEFAULT_RATE_RATIOS]
    if price_level_scales is None:
        price_level_scales = DEFAULT_PRICE_SCALES
    if not rate_scenarios or not price_level_scales:
        raise InvalidParameterError("rate_scenarios and price_level_scales must be non-empty")
    worst = 0.0
    for p_init, ratio in rate_scenarios:
        if not (isfinite(ratio) and ratio > 0.0):
            raise InvalidParameterError(f"rate ratio must be positive, got {ratio!r}")
        ils = []
        for scale in price_level_scales:
            if not (isfinite(scale) and scale > 0.0):
                raise InvalidParameterError(f"price scale must be positive, got {scale!r}")
            p_i = PriceVector(p_init.p1 * scale, p_init.p2)
            p_f = PriceVector(p_i.p1 * ratio, p_i.p2)
            x_i = arbitrage_state(params, mix, p_i)
            x_f = arbitrage_state(params, mix, p_f)
            ils.append(impermanent_loss(p_f, x_i, x_f).il)
        worst = max(worst, max(ils) - min(ils))
    return worst
