"""Impermanent loss, arbitrage states, and portfolio value functions.

Given external prices P, arbitrageurs drain the market until P is normal
to the curve, i.e. until the internal exchange rate matches p1/p2; the
value left behind is V(P) = inf { P . X : A(X) = 1 }.  Impermanent loss
compares that post-arbitrage pool value with simply holding the deposit.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from math import ceil, exp, inf, isfinite, log, log1p, log2, nan
from typing import Sequence

from ammix import _kernels as k
from ammix.core import CurveParams, MarketState, MixSpec, market
from ammix.errors import (
    ConvergenceError,
    InvalidCurveError,
    InvalidParameterError,
    UnsupportedCurveError,
)
from ammix.parametrize import _reserves_on
from ammix.schedules import S_MAX, S_MIN, Uniform, _bisect, _check_reserves, _refuse_bools

# the width in s every arbitrage state is bisected to, and the least
# distance of a narrowing step from its bracket's ends
_S_TOL = 1e-15
_EDGE = 0.25 * _S_TOL

# cap on spot-rate evaluations per narrowing: one from [S_MIN, S_MAX] takes
# about 10.4 (12.6 with the 2 end rates and the replay, for prices within a
# factor of 10 of a/b on random uniform curves), a row of a rate grid about
# 4, and the bracket guard ends every narrowing within about 70
_MAX_RATE_EVALS = 100

# evaluations a narrowing may spend beyond the halvings of a bisection
_SPARE_EVALS = 20


def _value_at(p1: float, p2: float, x: float, y: float) -> float:
    """P.X = p1*x + p2*y; InvalidParameterError when it overflows the float range."""
    value = p1 * x + p2 * y
    if not isfinite(value):
        raise InvalidParameterError(f"portfolio value P.X = {value!r} is not finite at prices "
                                    f"({p1!r}, {p2!r}) and reserves ({x!r}, {y!r})")
    return value


@dataclass(frozen=True)
class PriceVector:
    """External prices of the two currencies; the rate is p1/p2."""

    p1: float
    p2: float

    def __post_init__(self) -> None:
        _refuse_bools(self, "p1", "p2")
        if not (isfinite(self.p1) and self.p1 > 0.0 and isfinite(self.p2) and self.p2 > 0.0):
            raise InvalidParameterError(f"prices must be positive and finite, got {self!r}")

    def value_of(self, state: MarketState) -> float:
        """P . X; InvalidParameterError when it overflows the float range."""
        return _value_at(self.p1, self.p2, state.x, state.y)

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
    """IL = (P_f . X_f) / (P_f . X_i) - 1, refused where it is not finite."""
    held = p_f.value_of(x_i)
    pool = p_f.value_of(x_f)
    il = pool / held - 1.0 if held else inf
    if not isfinite(il):
        raise InvalidParameterError(f"impermanent loss {il!r} is not finite: P.X_i = {held!r}")
    return ILReport(il=il, held_value=held, pool_value=pool)


def _logit(s: float) -> float:
    return log(s) - log1p(-s)


def arbitrage_states(params: CurveParams, mix: MixSpec,
                     prices: Sequence[PriceVector]) -> list[MarketState]:
    """The on-curve states arbitrageurs leave behind at each of the prices;
    the reserves ``_arbitrage_reserves`` solves at each rate p1/p2, as
    ``MarketState``s."""
    rates = [p.rate for p in prices]
    return [MarketState(x, y) for x, y in _arbitrage_reserves(params, mix, rates)]


def _arbitrage_reserves(params: CurveParams, mix: MixSpec,
                        rates: Sequence[float]) -> list[tuple[float, float]]:
    """The reserves (x, y) of the on-curve state arbitrageurs leave behind at
    each of the rates p1/p2.

    Solves spot(s) = r on [S_MIN, S_MAX] (the spot rate falls
    monotonically along a convex curve) and returns the s that bisection of
    [S_MIN, S_MAX] to a width of 1e-15 returns wherever the rate is
    monotone, in a handful of rate evaluations instead of one per halving.
    Rates beyond the curve's supported range map to the clamped endpoint
    states, where the infimum is attained.

    The ``Market`` and its certificate, the two end rates and the reserves at
    the two ends are resolved once for all the rates, and every spot rate
    is ``_kernels.rate_s`` at s, on the market's unpacked codes and
    constants: the rate ``rate_xy`` takes at the ray point, in s alone,
    with no reserve product or power.  The reserves of its lam are checked
    as ``MarketState`` checks them.  Each solved s becomes its reserves
    through ``parametrize._reserves_on``; no ``MarketState`` is built here.
    Each price is solved in three steps, all in this function's frame:

    - **Warm start.**  The two end rates and the final bracket ends of
      every price narrowed before are kept, sorted in s, and a price
      starts from the two kept points next to each other in s whose rates
      straddle it, so the prices of a grid warm each other in any order.
      It then probes the s extrapolated in (log rate, logit s) from the
      two prices narrowed before it, when that s falls strictly inside
      its bracket.
    - **Narrowing.**  Illinois regula falsi on log rate against logit(s)
      keeps rate(lo) > r >= rate(hi); when the log rate equals log r at
      both ends the step is the midpoint.  Each step stays at least a
      quarter of 1e-15 inside the bracket, so a step that lands next to
      the root also closes it, and after j evaluations the bracket is
      never wider than 1e-15 * 2**(n - j), n being the halvings bisection
      needs plus ``_SPARE_EVALS``, so no solve narrows for more than n
      evaluations, even where the log rate is flat at rounding level.
    - **Replay.**  Once the bracket is at most 1e-15 wide, ``_bisect``
      halves [S_MIN, S_MAX] with it as its known bracket: a midpoint
      outside it takes the side it implies, and only one inside it is
      evaluated.

    Every price strictly between the end rates takes these three steps.
    Where the computed rate is monotone the replay returns bisection's own
    s, whatever bracket the price was narrowed from, so a price gets the
    same s in a batch and alone.  Where it is not (at rounding level next
    to a root, or near an end rate of a curve whose rate is constant to a
    few ULPs end to end, where it steps back and forth between
    neighbouring floats over long stretches) a midpoint outside the
    bracket takes the side the bracket implies, which can move the answer
    by a few final bisection widths, 8.9e-16 each.

    Raises InvalidCurveError when a spot rate met on the way is not positive
    and finite, and ConvergenceError when a price's narrowing runs out of
    its ``_MAX_RATE_EVALS`` evaluations.
    """
    m = market(params, mix)
    if not isinstance(mix.schedule, Uniform) and not m.certified:
        raise UnsupportedCurveError(
            "the schedule fails the convexity certificate; arbitrage states are undefined"
        )
    family, kind, q0, q1, q2 = m.codes
    a, b, x0, y0, alpha, beta, c, s0 = m.curve
    rate_s = k.rate_s
    max_evals = _MAX_RATE_EVALS

    def rate(s: float) -> float:
        lam, value = rate_s(family, kind, q0, q1, q2, s, a, b, x0, y0, alpha, beta, c, s0)
        x = lam * s / a
        y = lam * (1.0 - s) / b
        if not (0.0 < x < inf and 0.0 < y < inf):  # False for NaN
            _check_reserves(x, y)  # raises MarketState's error
        if not 0.0 < value < inf:  # False for NaN
            raise InvalidCurveError(f"spot rate {value!r} at s={s!r} is not positive and finite")
        return value

    r_max = rate(S_MIN)
    r_min = rate(S_MAX)
    known_s = [S_MIN, S_MAX]  # the kept points, ascending
    known_neg = [-r_max, -r_min]  # minus the rate at each, ascending where the rate falls
    first, last = _reserves_on(m, S_MIN), _reserves_on(m, S_MAX)
    if r_max == r_min:
        # constant-rate curve: at the matching price ratio every point
        # attains the infimum; report the anchor state
        anchor = (params.x0, params.y0)
        return [first if r > r_max else last if r < r_min else anchor for r in rates]
    # (log rate, logit s) of the two prices narrowed last, older first
    v0 = u0 = v1 = u1 = nan
    reserves = []
    for r in rates:
        if r >= r_max:
            reserves.append(first)
            continue
        if r <= r_min:
            reserves.append(last)
            continue
        # the ends hold r_max > r > r_min, so 0 < i < len and, monotone
        # or not, the rate at known_s[i - 1] is > r and at known_s[i] <= r
        i = bisect_left(known_neg, -r)
        lo, hi, r_lo, r_hi = known_s[i - 1], known_s[i], -known_neg[i - 1], -known_neg[i]
        log_r = log(r)
        # NaN until two prices are narrowed, and for a repeated log rate
        u = u1 + (u1 - u0) * (log_r - v1) / (v1 - v0) if v1 != v0 else nan
        if -700.0 < u < 700.0:  # exp overflows past 709
            s = 1.0 / (1.0 + exp(-u))
            if lo < s < hi:
                value = rate(s)
                if value > r:
                    lo, r_lo = s, value
                else:
                    hi, r_hi = s, value
        u_lo, u_hi = _logit(lo), _logit(hi)
        f_lo, f_hi = log(r_lo) - log_r, log(r_hi) - log_r
        kept = 0  # +1 after the low end moved, -1 after the high end moved
        evals = 0
        n_max = ceil(log2((hi - lo) / _S_TOL)) + _SPARE_EVALS
        allowed = _S_TOL * 2.0 ** (n_max - 1)  # bracket width after the next step, halved per step
        while hi - lo > _S_TOL:
            if evals == max_evals:
                raise ConvergenceError(
                    f"solve for {r!r} not narrowed to {_S_TOL!r} after {max_evals} "
                    f"evaluations; last bracket [{lo!r}, {hi!r}]"
                )
            s = 0.5 * (lo + hi)
            if f_lo > f_hi:
                w = f_hi / (f_hi - f_lo)  # in [0, 1], as f_lo >= 0 >= f_hi
                s = 1.0 / (1.0 + exp(w * (u_hi - u_lo) - u_hi))
                # min(max(s, lo + _EDGE, hi - allowed), hi - _EDGE, lo + allowed),
                # comparison for comparison
                if s < lo + _EDGE:
                    s = lo + _EDGE
                if s < hi - allowed:
                    s = hi - allowed
                if hi - _EDGE < s:
                    s = hi - _EDGE
                if lo + allowed < s:
                    s = lo + allowed
            value = rate(s)
            evals += 1
            allowed *= 0.5
            f = log(value) - log_r
            if value > r:
                lo, r_lo, u_lo, f_lo = s, value, log(s) - log1p(-s), f  # _logit(s)
                if kept == 1:
                    f_hi *= 0.5
                kept = 1
            else:
                hi, r_hi, u_hi, f_hi = s, value, log(s) - log1p(-s), f
                if kept == -1:
                    f_lo *= 0.5
                kept = -1
        # keep the final bracket ends, which lie between the two points
        # the price started from
        if hi != known_s[i]:
            known_s.insert(i, hi)
            known_neg.insert(i, -r_hi)
        if lo != known_s[i - 1]:
            known_s.insert(i, lo)
            known_neg.insert(i, -r_lo)
        s = _bisect(lambda mid: rate(mid) > r, S_MIN, S_MAX, atol=_S_TOL, known=(lo, hi))
        v0, u0, v1, u1 = v1, u1, log_r, _logit(s)
        reserves.append(_reserves_on(m, s))
    return reserves


def arbitrage_state(params: CurveParams, mix: MixSpec, p: PriceVector) -> MarketState:
    """The on-curve state arbitrageurs leave behind at prices p; see
    ``arbitrage_states``."""
    return arbitrage_states(params, mix, [p])[0]


def portfolio_value(params: CurveParams, mix: MixSpec, p: PriceVector) -> float:
    """V(P) = P . arbitrage_state(P); 1-homogeneous in P."""
    return p.value_of(arbitrage_state(params, mix, p))


def reduced_values(params: CurveParams, mix: MixSpec, rates: Sequence[float]) -> list[float]:
    """U(r) = V(r, 1) at each of the rates, on the reserves solved in one
    batch as for ``arbitrage_states``, with no record built per rate: the
    bits of ``PriceVector(r, 1.0).value_of`` the state there."""
    for r in rates:
        if not (isfinite(r) and r > 0.0):
            raise InvalidParameterError(f"rate must be positive and finite, got {r!r}")
    reserves = _arbitrage_reserves(params, mix, rates)
    return [_value_at(r, 1.0, x, y) for r, (x, y) in zip(rates, reserves)]


def reduced_value(params: CurveParams, mix: MixSpec, r: float) -> float:
    """U(r) = V(r, 1), the portfolio value against the rate alone."""
    return reduced_values(params, mix, [r])[0]


DEFAULT_RATE_RATIOS = (0.5, 2.0)
DEFAULT_PRICE_SCALES = (1.0, 3.0, 10.0)


def erli_discrepancy(params: CurveParams, mix: MixSpec) -> float:
    """Largest IL spread across price levels sharing a rate ratio.

    For each final/initial rate ratio in ``DEFAULT_RATE_RATIOS`` and each
    scale k in ``DEFAULT_PRICE_SCALES``, the currency-1 price of (a/b, 1) is
    multiplied by k, the deposit is taken at that scaled initial
    equilibrium, and IL is evaluated at the scaled final prices.  A
    rate-level-independent curve yields the same IL at every scale, so the
    returned spread is ~0; a positive value is a witness that IL depends on
    more than the rate ratio.
    """
    prices = []  # the (initial, final) prices of each ratio and scale, in that order
    for ratio in DEFAULT_RATE_RATIOS:
        for scale in DEFAULT_PRICE_SCALES:
            p_i = PriceVector(params.a / params.b * scale, 1.0)
            prices += [p_i, PriceVector(p_i.p1 * ratio, 1.0)]
    # one batch for every price
    states = arbitrage_states(params, mix, prices)
    ils = [impermanent_loss(p_f, x_i, x_f).il
           for p_f, x_i, x_f in zip(prices[1::2], states[0::2], states[1::2])]
    n = len(DEFAULT_PRICE_SCALES)
    return max(max(ils[i:i + n]) - min(ils[i:i + n]) for i in range(0, len(ils), n))
