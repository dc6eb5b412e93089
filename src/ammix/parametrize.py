"""The (s, t) parametrization of the region between the CSMM and CPMM.

Every direction from the origin is indexed by s = a*x/(a*x + b*y) through
the base point v(s) = (s/a, (1-s)/b).  Scaling v(s) by lam places it on a
chosen curve: lam = C on the constant-sum line, lam = P(s) on the
constant-product curve, and the mixing-specific lam(s, t) in between.
Inverting x(s) = (s/a) lam(s) recovers states from coordinates, which is
how trades are solved.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isfinite

from ammix import _kernels as k
from ammix.core import (
    _FAMILY_CODE,
    CurveParams,
    Family,
    Market,
    MarketState,
    MixSpec,
    eval_component,
    market,
)
from ammix.core import s_of_state  # noqa: F401  (also public as ammix.parametrize.s_of_state)
from ammix.errors import InvalidParameterError, OutOfRangeError
from ammix.schedules import S_MAX, S_MIN, _check_reserves, _check_s


@dataclass(frozen=True)
class ScalingPair:
    """Scalings moving one direction onto the CSMM and CPMM surfaces."""

    lambda0: float
    lambda1: float


def scaling_factors(params: CurveParams, v: MarketState) -> ScalingPair:
    """Scalings (lambda0, lambda1) such that lambda_i * v lies on A_i = 1:
    1/A_i(v), each component being 1-homogeneous."""
    a0, a1 = eval_component(params, v)
    return ScalingPair(lambda0=1.0 / a0, lambda1=1.0 / a1)


def lambda_mix(params: CurveParams, family: Family, s: float, t: float) -> float:
    """Scaling placing the base point on the family's curve for blend t.

    Every family's scaling is a closed form; the arithmetic one is the root
    of lam*(1-t)/C + lam * (s/(a*x0))**alpha * ((1-s)/(b*y0))**beta * t = 1,
    which is linear in lam since the weights are calibrated
    (alpha + beta = 1).
    """
    _check_s(s)
    if not (isfinite(t) and 0.0 <= t <= 1.0):
        raise InvalidParameterError(f"blend weight must be in [0, 1], got {t!r}")
    return k.lam_at(_FAMILY_CODE[family], 0, t, 0.0, 0.0, s, *params._curve)


def point_at(params: CurveParams, mix: MixSpec, s: float) -> MarketState:
    """The curve point at ray coordinate s (schedule resolved through t(s))."""
    _check_s(s)
    return MarketState(*_reserves_on(market(params, mix), s))


def _reserves_on(m: Market, s: float) -> tuple[float, float]:
    """The reserves (x, y) of ``point_at``'s state on a resolved market, for
    an s already checked against [S_MIN, S_MAX]; raises ``MarketState``'s
    error where they are not positive and finite."""
    lam = k.lam_at(*m.codes, s, *m.curve)
    x, y = lam * s / m.curve[0], lam * (1.0 - s) / m.curve[1]
    _check_reserves(x, y)
    return x, y


def _solve_first_reserve(m: Market, target: float, name: str) -> float:
    """The other reserve of the state on ``m`` whose first reserve (x on ``m``,
    called ``name`` in messages) is ``target``, solved by bisection in s."""
    if not (isfinite(target) and target > 0.0):
        raise InvalidParameterError(f"{name}_target must be positive and finite, got {target!r}")
    a, b = m.curve[0], m.curve[1]
    # rounded as _reserves_on rounds x, so each end's own x is in reach
    lo = k.lam_at(*m.codes, S_MIN, *m.curve) * S_MIN / a
    hi = k.lam_at(*m.codes, S_MAX, *m.curve) * S_MAX / a
    if target > hi:
        raise OutOfRangeError(
            f"{name}={target!r} beyond the curve's reach (max reachable {name} is {hi:.12g})",
            max_reachable=hi,
        )
    if target < lo:
        raise OutOfRangeError(
            f"{name}={target!r} below the curve's reach (min representable {name} is {lo:.12g})",
            max_reachable=lo,
        )
    s = k.solve_s_for_x(*m.codes, target, *m.curve, S_MIN, S_MAX)
    lam = k.lam_at(*m.codes, s, *m.curve)
    return lam * (1.0 - s) / b


def state_for_x(params: CurveParams, mix: MixSpec, x_target: float) -> MarketState:
    """The on-curve state with the given x reserve, solved by bisection in s."""
    return MarketState(x_target, _solve_first_reserve(market(params, mix), x_target, "x"))


def state_for_y(params: CurveParams, mix: MixSpec, y_target: float) -> MarketState:
    """The on-curve state with the given y reserve (x-solve on the mirrored market)."""
    return MarketState(_solve_first_reserve(market(params, mix).mirrored, y_target, "y"), y_target)
