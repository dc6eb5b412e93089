"""Blend-weight schedules t(s) and the convexity machinery built on them.

A schedule turns the uniform blend weight of a homotopy curve into a
function of the ray parameter s, which reshapes the curve region by region.
Schedules must keep t inside [0, 1] and keep the resulting curve convex;
``check_convexity`` certifies the latter on a dense grid via the margin
lam*lam'' - 2*lam'^2 >= 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil, exp, isfinite, log, log1p, log2, sqrt
from typing import TYPE_CHECKING, Union

import numpy as np

from ammix import _kernels as k
from ammix.errors import (
    ConvergenceError,
    InvalidCurveError,
    InvalidParameterError,
    UnsupportedScheduleError,
)

if TYPE_CHECKING:
    from ammix.core import CurveParams, MarketState

S_MIN = 1e-12
S_MAX = 1.0 - 1e-12

CONVEXITY_GRID_SIZE = 10_001
CONVEXITY_GRID_INSET = 1e-4
CONVEXITY_MARGIN_TOL = -1e-9
_CONVEXITY_BLOCK = 4096


def _check_s(s: float) -> float:
    if not (S_MIN <= s <= S_MAX):
        raise InvalidParameterError(f"s={s!r} outside the supported range [{S_MIN}, {S_MAX}]")
    return s


def _bisect(below, lo: float, hi: float, atol: float = 0.0, rtol: float = 0.0) -> float:
    """Root of a monotone 1-D problem bracketed by [lo, hi], by bisection.

    ``below(x)`` is true when the root lies above x.  The bracket is halved
    at most 200 times and stops once hi - lo <= atol + rtol*hi; the midpoint
    of the final bracket is returned.
    """
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if below(mid):
            lo = mid
        else:
            hi = mid
        if hi - lo <= atol + rtol * hi:
            break
    return 0.5 * (lo + hi)


# evaluations _regula_falsi may spend beyond the halvings of a bisection
_SPARE_EVALS = 20


def _logit(s: float) -> float:
    return log(s) - log1p(-s)


def _regula_falsi(h, target: float, lo: float, hi: float, h_lo: float, h_hi: float,
                  atol: float, max_evals: int) -> float:
    """Root of h(s) = target for a decreasing, positive, finite h on 0 < lo < hi < 1.

    Returns what ``_bisect(lambda s: h(s) > target, lo, hi, atol=atol)``
    returns wherever h is monotone, in a handful of evaluations of h instead
    of one per halving.  h_lo and h_hi are the values already known at the
    ends, with h_lo > target >= h_hi, and atol > 0.

    Illinois regula falsi on log h against logit(s) narrows the bracket,
    keeping h(lo) > target >= h(hi); when log h equals log target at both
    ends the step is the midpoint.  Two guards bound the interpolated
    steps:

    - each step stays at least atol/4 inside the bracket, so a step that
      lands next to the root also closes it;
    - after j evaluations the bracket is never wider than atol * 2**(n - j),
      n being the halvings bisection needs plus ``_SPARE_EVALS``, so no
      solve narrows for more than n evaluations, even where log h is flat
      at rounding level and interpolation learns nothing.

    When hi - lo <= atol the halvings of ``_bisect`` are replayed: a
    midpoint outside the bracket takes the side the bracket implies, and
    only one inside it is evaluated.  The midpoint of the final halving is
    returned.  ConvergenceError is raised after ``max_evals`` calls of h
    while narrowing.
    """
    log_target = log(target)
    start = lo, hi  # the bracket the replayed bisection starts from
    u_lo, u_hi = _logit(lo), _logit(hi)
    f_lo, f_hi = log(h_lo) - log_target, log(h_hi) - log_target
    kept = 0  # +1 after the low end moved, -1 after the high end moved
    evals = 0
    edge = 0.25 * atol  # least distance of a step from the bracket ends
    n_max = ceil(log2((hi - lo) / atol)) + _SPARE_EVALS
    while hi - lo > atol:
        if evals == max_evals:
            raise ConvergenceError(
                f"solve for {target!r} not narrowed to {atol!r} after {max_evals} "
                f"evaluations; last bracket [{lo!r}, {hi!r}]"
            )
        s = 0.5 * (lo + hi)
        if f_lo > f_hi:
            w = f_hi / (f_hi - f_lo)  # in [0, 1], as f_lo >= 0 >= f_hi
            s = 1.0 / (1.0 + exp(w * (u_hi - u_lo) - u_hi))
            allowed = atol * 2.0 ** (n_max - evals - 1)  # bracket width after this step
            s = min(max(s, lo + edge, hi - allowed), hi - edge, lo + allowed)
        value = h(s)
        evals += 1
        f = log(value) - log_target
        if value > target:
            lo, u_lo, f_lo = s, _logit(s), f
            if kept == 1:
                f_hi *= 0.5
            kept = 1
        else:
            hi, u_hi, f_hi = s, _logit(s), f
            if kept == -1:
                f_lo *= 0.5
            kept = -1
    # only the replayed midpoints inside (lo, hi) need h
    return _bisect(lambda mid: mid <= lo or (mid < hi and h(mid) > target), *start, atol=atol)


@dataclass(frozen=True)
class Uniform:
    """Constant blend weight t on the whole curve."""

    t: float

    def __post_init__(self) -> None:
        if not (isfinite(self.t) and 0.0 <= self.t <= 1.0):
            raise InvalidParameterError(f"uniform blend weight must be in [0, 1], got {self.t!r}")


@dataclass(frozen=True)
class PowerLaw:
    """t(s) = |(s - s0)/M|**exponent with M = max(s0, 1 - s0).

    Larger exponents hold the curve near its constant-sum behaviour around
    the initial point, i.e. act as a stability dial.  exponent = 0 would
    make t discontinuous at s0 and is rejected.
    """

    exponent: float

    def __post_init__(self) -> None:
        if not (isfinite(self.exponent) and self.exponent > 0.0):
            raise InvalidParameterError(f"power-law exponent must be > 0, got {self.exponent!r}")


@dataclass(frozen=True)
class Parabolic:
    """Quadratic t(s) pinned at t(0) = bias, t(1) = 1 - bias, t(s0) = center."""

    bias: float
    center: float

    def __post_init__(self) -> None:
        if not (isfinite(self.bias) and 0.0 <= self.bias <= 1.0):
            raise InvalidParameterError(f"bias must be in [0, 1], got {self.bias!r}")
        if not (isfinite(self.center) and 0.0 <= self.center <= 1.0):
            raise InvalidParameterError(f"center must be in [0, 1], got {self.center!r}")


@dataclass(frozen=True)
class StableswapDynamic:
    """State-dependent blend t(x, y) = D^2 / (16 A x y + D^2), n = 2 only."""

    amplification: float
    scale: float

    def __post_init__(self) -> None:
        if not (isfinite(self.amplification) and self.amplification > 0.0):
            raise InvalidParameterError(f"amplification must be > 0, got {self.amplification!r}")
        if not (isfinite(self.scale) and self.scale > 0.0):
            raise InvalidParameterError(f"scale must be > 0, got {self.scale!r}")


TSchedule = Union[Uniform, PowerLaw, Parabolic, StableswapDynamic]


def parabolic_coefficients(schedule: Parabolic, s0: float) -> tuple[float, float, float]:
    """Quadratic coefficients (c2, c1, c0) of the parabolic schedule at pivot s0.

    Raises if the parabola leaves [0, 1] anywhere on [0, 1]; besides the
    pinned points only the vertex can be extremal.
    """
    bias, center = schedule.bias, schedule.center
    denom = s0 * (1.0 - s0)
    c2 = ((1.0 - 2.0 * bias) * s0 + (bias - center)) / denom
    c1 = -((1.0 - 2.0 * bias) * s0 * s0 + (bias - center)) / denom
    c0 = bias
    if c2 != 0.0:
        vertex = -c1 / (2.0 * c2)
        if 0.0 < vertex < 1.0:
            tv = (c2 * vertex + c1) * vertex + c0
            if tv < -1e-12 or tv > 1.0 + 1e-12:
                raise InvalidParameterError(
                    f"parabolic schedule leaves [0, 1]: t({vertex:.6g}) = {tv:.6g}"
                )
    return c2, c1, c0


def schedule_coeffs(schedule: TSchedule, s0: float) -> tuple[int, float, float, float]:
    """Kernel-level (kind, q0, q1, q2) encoding of a schedule."""
    if isinstance(schedule, Uniform):
        return k.SCHED_UNIFORM, schedule.t, 0.0, 0.0
    if isinstance(schedule, PowerLaw):
        return k.SCHED_POWERLAW, schedule.exponent, 0.0, 0.0
    if isinstance(schedule, Parabolic):
        c2, c1, c0 = parabolic_coefficients(schedule, s0)
        return k.SCHED_PARABOLIC, c2, c1, c0
    raise UnsupportedScheduleError(
        "the dynamic Stableswap blend depends on the state, not on s alone; "
        "evaluate it through stableswap_dynamic_residual"
    )


def t_of_s(schedule: TSchedule, params: "CurveParams", s: float) -> tuple[float, float, float]:
    """Blend weight and its first two s-derivatives, (t, t', t'').

    Power-law schedules have singular derivatives at s = s0 when the
    exponent is below 2; those points raise.
    """
    _check_s(s)
    kind, q0, q1, q2 = schedule_coeffs(schedule, params.s0)
    return k.sched_eval(kind, q0, q1, q2, s, params.s0)


def t_first(schedule: TSchedule, params: "CurveParams", s: float) -> tuple[float, float]:
    """(t, t') only; singular at s0 just for power laws with exponent <= 1."""
    _check_s(s)
    kind, q0, q1, q2 = schedule_coeffs(schedule, params.s0)
    return k.sched_first(kind, q0, q1, q2, s, params.s0)


def lambda_derivs(params: "CurveParams", schedule: TSchedule, s: float) -> tuple[float, float, float]:
    """(lam, lam', lam'') of the scheduled homotopy scaling at s."""
    _check_s(s)
    kind, q0, q1, q2 = schedule_coeffs(schedule, params.s0)
    return k.lam_chain(kind, q0, q1, q2, s, params.a, params.b, params.x0,
                       params.y0, params.alpha, params.beta)


def curve_derivatives(params: "CurveParams", schedule: TSchedule, s: float) -> tuple[float, float]:
    """Implicit (dy/dx, d2y/dx2) of the scheduled homotopy curve at s."""
    lam, lamp, lampp = lambda_derivs(params, schedule, s)
    xps = lam + s * lamp
    if xps <= 0.0:
        raise InvalidCurveError(
            f"x'(s) <= 0 at s={s!r}: the schedule broke the curve's monotone trace"
        )
    dy_dx = (lamp / xps - 1.0) * (params.a / params.b)
    d2y_dx2 = (lam * lampp - 2.0 * lamp * lamp) / xps**3 * (params.a * params.a / params.b)
    return dy_dx, d2y_dx2


@dataclass(frozen=True)
class ConvexityReport:
    """Grid certificate for lam*lam'' - 2*lam'^2 >= 0."""

    passed: bool
    min_margin: float
    worst_s: float
    grid_size: int
    skipped: int


def check_convexity(params: "CurveParams", schedule: TSchedule,
                    grid_size: int = CONVEXITY_GRID_SIZE) -> ConvexityReport:
    """Certify curve convexity by sampling the margin on a uniform s-grid.

    Grid points where the schedule derivative is singular are skipped and
    counted.  The certificate passes iff the minimum sampled margin stays
    above -1e-9; NaN margins are ignored and the first strict minimum sets
    ``worst_s``.  The grid is evaluated in blocks of ``_CONVEXITY_BLOCK``
    points, so memory stays bounded for any grid size.
    """
    if grid_size < 3:
        raise InvalidParameterError(f"grid_size must be >= 3, got {grid_size!r}")
    kind, q0, q1, q2 = schedule_coeffs(schedule, params.s0)
    a, b, x0, y0 = params.a, params.b, params.x0, params.y0
    alpha, beta = params.alpha, params.beta
    lo = CONVEXITY_GRID_INSET
    step = (1.0 - 2.0 * CONVEXITY_GRID_INSET) / (grid_size - 1)
    min_margin = float("inf")
    worst_s = float("nan")
    skipped = 0
    with np.errstate(all="ignore"):
        for start in range(0, grid_size, _CONVEXITY_BLOCK):
            s = lo + np.arange(start, min(start + _CONVEXITY_BLOCK, grid_size)) * step
            lam, lamp, lampp, singular = k.lam_chain_array(kind, q0, q1, q2, s, a, b, x0, y0,
                                                           alpha, beta)
            margin = lam * lampp - 2.0 * lamp * lamp
            skipped += int(np.count_nonzero(singular))
            margin[singular | np.isnan(margin)] = np.inf
            i = np.argmin(margin)
            if margin[i] < min_margin:
                min_margin = float(margin[i])
                worst_s = float(s[i])
    return ConvexityReport(
        passed=min_margin >= CONVEXITY_MARGIN_TOL,
        min_margin=min_margin,
        worst_s=worst_s,
        grid_size=grid_size,
        skipped=skipped,
    )


def stableswap_dynamic_residual(amplification: float, scale: float, state: "MarketState") -> float:
    """Residual of the n = 2 dynamic-blend Stableswap homotopy curve.

    Zero iff the state satisfies
    16*A*D*x*y/(x + y) + D^3/(2*sqrt(x*y)) = 16*A*x*y + D^2.
    """
    if amplification <= 0.0 or scale <= 0.0:
        raise InvalidParameterError("amplification and scale must be > 0")
    x, y = state.x, state.y
    lhs = 16.0 * amplification * scale * x * y / (x + y) + scale**3 / (2.0 * sqrt(x * y))
    rhs = 16.0 * amplification * x * y + scale * scale
    return lhs - rhs
