"""Blend-weight schedules t(s) and the convexity machinery built on them.

A schedule turns the uniform blend weight of a homotopy curve into a
function of the ray parameter s, which reshapes the curve region by region.
Schedules must keep t inside [0, 1] and keep the resulting curve convex;
``check_convexity`` certifies the latter on a dense grid via the margin
lam*lam'' - 2*lam'^2 >= 0.

The dynamic Stableswap blend depends on the state instead; its residual
and the y-solve on it, ``stableswap_dynamic_y``, live here side by side,
as do the checks and tolerances the layers above share.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from math import inf, isfinite, sqrt
from typing import TYPE_CHECKING, Union

import numpy as np

from ammix import _kernels as k
from ammix.errors import (
    ConvergenceError,
    InvalidCurveError,
    InvalidParameterError,
    NonDifferentiablePointError,
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

_FLOAT_MAX = sys.float_info.max

# |A(X) - 1| a state on a curve may show; for the dynamic Stableswap curve,
# relative to the size of its terms
ON_CURVE_TOL = 1e-9


def _check_s(s: float) -> float:
    if not (S_MIN <= s <= S_MAX):
        raise InvalidParameterError(f"s={s!r} outside the supported range [{S_MIN}, {S_MAX}]")
    return s


def _check_reserves(x: float, y: float) -> None:
    """Raise InvalidParameterError unless both reserves are positive and finite."""
    if not (isfinite(x) and x > 0.0 and isfinite(y) and y > 0.0):
        raise InvalidParameterError(f"reserves must be positive and finite, got ({x!r}, {y!r})")


def _refuse_bools(record: object, *names: str) -> None:
    """Raise InvalidParameterError naming the first of ``record``'s float
    fields that holds True or False: bool is a number to Python, but not a
    price, a reserve or a weight."""
    for name in names:
        value = getattr(record, name)
        if isinstance(value, bool):
            raise InvalidParameterError(f"{name} must be a float, got {value!r}")


# halvings _bisect may take before it raises ConvergenceError
_BISECT_HALVINGS = 200


def _bisect(below, lo: float, hi: float, atol: float = 0.0, rtol: float = 0.0,
            known: tuple[float, float] = (-inf, inf)) -> float:
    """Root of a monotone 1-D problem bracketed by [lo, hi], by bisection.

    ``below(x)`` is true when the root lies above x.  The bracket is halved
    at most ``_BISECT_HALVINGS`` times and stops once hi - lo <= atol +
    rtol*hi; the midpoint of the final bracket is returned.  ``known`` is a
    bracket (k_lo, k_hi) already known to hold the root: a midpoint at or
    below k_lo keeps the upper half and one at or above k_hi the lower half
    without a call, so only midpoints strictly inside it call ``below``.
    Raises ConvergenceError when the halvings run out first.
    """
    k_lo, k_hi = known
    tol = atol + rtol * hi  # the stop width at the current hi; atol when rtol is 0
    for _ in range(_BISECT_HALVINGS):
        # 0.5*(lo + hi) to the bit wherever lo/2 is normal, without
        # overflowing on a bracket near the largest float
        mid = 0.5 * lo + 0.5 * hi
        # each branch tests the stop rule on the bracket it leaves
        if mid <= k_lo or (mid < k_hi and below(mid)):
            lo = mid
            if hi - mid <= tol:
                break
        else:
            hi = mid
            if rtol:
                tol = atol + rtol * mid
            if mid - lo <= tol:
                break
    else:
        raise ConvergenceError(
            f"bisection not narrowed to atol={atol!r}, rtol={rtol!r} in {_BISECT_HALVINGS} "
            f"halvings; last bracket [{lo!r}, {hi!r}]"
        )
    return 0.5 * lo + 0.5 * hi


@dataclass(frozen=True)
class Uniform:
    """Constant blend weight t on the whole curve."""

    t: float

    def __post_init__(self) -> None:
        _refuse_bools(self, "t")
        if not (isfinite(self.t) and 0.0 <= self.t <= 1.0):
            raise InvalidParameterError(f"uniform blend weight must be in [0, 1], got {self.t!r}")


@dataclass(frozen=True)
class PowerLaw:
    """t(s) = |(s - s0)/M|**exponent with M = max(s0, 1 - s0).

    M depends on the curve, not on the schedule: ``schedule_coeffs`` takes
    it from s0 once per curve and the kernels read it as q1.  Larger
    exponents hold the curve near its constant-sum behaviour around the
    initial point, i.e. act as a stability dial.  exponent = 0 would make
    t discontinuous at s0 and is rejected.
    """

    exponent: float

    def __post_init__(self) -> None:
        _refuse_bools(self, "exponent")
        if not (isfinite(self.exponent) and self.exponent > 0.0):
            raise InvalidParameterError(f"power-law exponent must be > 0, got {self.exponent!r}")


@dataclass(frozen=True)
class Parabolic:
    """Quadratic t(s) pinned at t(0) = bias, t(1) = 1 - bias, t(s0) = center."""

    bias: float
    center: float

    def __post_init__(self) -> None:
        _refuse_bools(self, "bias", "center")
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
        _refuse_bools(self, "amplification", "scale")
        if not (isfinite(self.amplification) and self.amplification > 0.0):
            raise InvalidParameterError(f"amplification must be > 0, got {self.amplification!r}")
        if not (isfinite(self.scale) and self.scale > 0.0):
            raise InvalidParameterError(f"scale must be > 0, got {self.scale!r}")

    def weight(self, state: "MarketState") -> float:
        """The blend weight t at a state."""
        d2 = self.scale * self.scale
        return d2 / (16.0 * self.amplification * state.x * state.y + d2)


TSchedule = Union[Uniform, PowerLaw, Parabolic, StableswapDynamic]


def parabolic_coefficients(schedule: Parabolic, s0: float) -> tuple[float, float, float]:
    """Quadratic coefficients (c2, c1, c0) of the parabolic schedule at pivot s0.

    Raises if the parabola leaves [0, 1] on [S_MIN, S_MAX]; only the ends
    and the vertex can be extremal, and t is taken there as the kernels take
    it, so that the rounding of c2 and c1 (large where s0*(1 - s0) is small)
    cannot move t(S_MAX) off the pinned value 1 - bias unseen.
    """
    bias, center = schedule.bias, schedule.center
    denom = s0 * (1.0 - s0)
    c2 = ((1.0 - 2.0 * bias) * s0 + (bias - center)) / denom
    c1 = -((1.0 - 2.0 * bias) * s0 * s0 + (bias - center)) / denom
    c0 = bias
    points = [S_MIN, S_MAX]
    if c2 != 0.0:
        vertex = -c1 / (2.0 * c2)
        if 0.0 < vertex < 1.0:
            points.append(vertex)
    for s in points:
        t = (c2 * s + c1) * s + c0
        if t < -1e-12 or t > 1.0 + 1e-12:
            raise InvalidParameterError(f"parabolic schedule leaves [0, 1]: t({s:.6g}) = {t:.6g}")
    return c2, c1, c0


def schedule_coeffs(schedule: TSchedule, s0: float) -> tuple[int, float, float, float]:
    """Kernel-level (kind, q0, q1, q2) encoding of a schedule at pivot s0.

    A power law is (1, exponent, M, 0) with M = max(s0, 1 - s0), derived
    here once per curve, as a parabola's coefficients are, not by the kernels.
    """
    if isinstance(schedule, Uniform):
        return k.SCHED_UNIFORM, schedule.t, 0.0, 0.0
    if isinstance(schedule, PowerLaw):
        return k.SCHED_POWERLAW, schedule.exponent, s0 if s0 >= 1.0 - s0 else 1.0 - s0, 0.0
    if isinstance(schedule, Parabolic):
        c2, c1, c0 = parabolic_coefficients(schedule, s0)
        return k.SCHED_PARABOLIC, c2, c1, c0
    raise UnsupportedScheduleError(
        "the dynamic Stableswap blend depends on the state, not on s alone; "
        "evaluate it through stableswap_dynamic_residual"
    )


def lambda_derivs(params: "CurveParams", schedule: TSchedule, s: float) -> tuple[float, float, float]:
    """(lam, lam', lam'') of the scheduled homotopy scaling at s: the array
    kernel of the certificate at one point; refused where one is not finite."""
    _check_s(s)
    kind, q0, q1, q2 = schedule_coeffs(schedule, params.s0)
    with np.errstate(all="ignore"):
        *chain, singular = k.lam_chain_array(kind, q0, q1, q2, np.float64(s), *params._curve)
    if singular:
        raise NonDifferentiablePointError(f"power-law schedule with exponent {q0!r} is singular at s0")
    if not np.isfinite(chain).all():
        raise InvalidParameterError(f"(lam, lam', lam'') at s={s!r} is not finite")
    return float(chain[0]), float(chain[1]), float(chain[2])


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
    counted.  NaN margins are ignored and the first strict minimum sets
    ``worst_s``.  The certificate passes iff the minimum sampled margin is
    finite and at least -1e-9, so a grid that sampled no margin fails.  The
    grid is evaluated in blocks of ``_CONVEXITY_BLOCK`` points, so memory
    stays bounded for any grid size.
    """
    if grid_size < 3:
        raise InvalidParameterError(f"grid_size must be >= 3, got {grid_size!r}")
    kind, q0, q1, q2 = schedule_coeffs(schedule, params.s0)
    curve = params._curve
    lo = CONVEXITY_GRID_INSET
    step = (1.0 - 2.0 * CONVEXITY_GRID_INSET) / (grid_size - 1)
    min_margin = float("inf")
    worst_s = float("nan")
    skipped = 0
    with np.errstate(all="ignore"):
        for start in range(0, grid_size, _CONVEXITY_BLOCK):
            s = lo + np.arange(start, min(start + _CONVEXITY_BLOCK, grid_size)) * step
            lam, lamp, lampp, singular = k.lam_chain_array(kind, q0, q1, q2, s, *curve)
            margin = lam * lampp - 2.0 * lamp * lamp
            skipped += int(np.count_nonzero(singular))
            margin[singular | np.isnan(margin)] = np.inf
            i = np.argmin(margin)
            if margin[i] < min_margin:
                min_margin = float(margin[i])
                worst_s = float(s[i])
    return ConvexityReport(
        passed=CONVEXITY_MARGIN_TOL <= min_margin < inf,
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
    StableswapDynamic(amplification, scale)  # checks A and D
    return dynamic_residual_xy(amplification, scale, state.x, state.y)


def dynamic_residual_xy(amplification: float, scale: float, x: float, y: float) -> float:
    """``stableswap_dynamic_residual`` at reserves (x, y), unchecked: for a
    solver that checked A, D and its bracket once."""
    lhs = 16.0 * amplification * scale * x * y / (x + y) + scale**3 / (2.0 * sqrt(x * y))
    rhs = 16.0 * amplification * x * y + scale * scale
    return lhs - rhs


def stableswap_dynamic_y(amplification: float, scale: float, x: float) -> float:
    """The y on the dynamic Stableswap curve at x, bisected in y to a
    relative 1e-15 on [1e-12*D, 4*D], whose top doubles, up to the largest
    float, until the residual there is not positive.

    Raises InvalidParameterError when A, D, x or the bracket's top is not
    positive and finite, when the curve's y lies above the largest float,
    when the curve's terms leave the float range, and when the y found
    leaves a residual not below ON_CURVE_TOL*(16*A*x*y + D^2), as where the
    curve's y lies below the bracket or every term underflows to 0.0.
    """
    StableswapDynamic(amplification, scale)  # checks A and D

    def below(y: float) -> bool:
        return dynamic_residual_xy(amplification, scale, x, y) > 0.0

    try:
        # x and the first top are checked once: the doubled tops are capped
        # at the largest float, and the midpoints below them are positive
        # and finite
        hi = 4.0 * scale
        _check_reserves(x, hi)
        while below(hi):
            if hi == _FLOAT_MAX:
                raise InvalidParameterError(
                    f"the curve's y at x={x!r} lies above the largest float")
            hi = min(2.0 * hi, _FLOAT_MAX)
        y = _bisect(below, 1e-12 * scale, hi, rtol=1e-15)
        residual = dynamic_residual_xy(amplification, scale, x, y)
    except ArithmeticError as exc:
        raise InvalidParameterError(
            f"the curve's terms leave the float range at x={x!r} ({type(exc).__name__})"
        ) from exc
    size = 16.0 * amplification * x * y + scale * scale
    # strict: a size of 0.0 means every term underflowed, and a residual
    # of 0.0 then shows nothing
    if not abs(residual) < ON_CURVE_TOL * size:
        raise InvalidParameterError(
            f"no y on the curve at x={x!r}: the solve ends at y={y!r} with residual "
            f"{residual!r} against terms of size {size!r}"
        )
    return y
