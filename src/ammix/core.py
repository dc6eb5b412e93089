"""Curve parameters and the three CSMM/CPMM mixing invariants.

A market is anchored at an initial state (x0, y0) with linear weights
(a, b).  The constant-sum and constant-product components are normalized
to equal 1 there:

    A0(x, y) = (a*x + b*y) / (a*x0 + b*y0)
    A1(x, y) = x**alpha * y**beta / (x0**alpha * y0**beta)

with (alpha, beta) calibrated so both components share the initial
exchange rate a/b.  A mixing blends the two with weight t: arithmetic
(weighted sum), geometric (weighted product), or homotopy (each curve
point sits exactly fraction t along the segment between its constant-sum
and constant-product projections).  The market is the level set
A_t(x, y) = 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from math import inf, isfinite

from ammix import _kernels as k
from ammix.errors import InvalidParameterError
from ammix.schedules import (
    Parabolic,
    PowerLaw,
    StableswapDynamic,
    TSchedule,
    Uniform,
    _check_reserves,
    _refuse_bools,
    check_convexity,
    schedule_coeffs,
)


def calibrate_weights(a: float, b: float, x0: float, y0: float) -> tuple[float, float]:
    """Exponents (alpha, beta) giving the CPMM the initial rate a/b.

    alpha = a*x0 / (a*x0 + b*y0) and beta = b*y0 / (a*x0 + b*y0), i.e. the
    normalized solution of (a, b) parallel to (alpha/x0, beta/y0).
    """
    return _anchor_constants(a, b, x0, y0)[4:6]


def _anchor_constants(a: float, b: float, x0: float, y0: float) -> tuple[float, ...]:
    """The eight constants the kernels take, (a, b, x0, y0, alpha, beta, C,
    s0): the one derivation of C = a*x0 + b*y0, of the calibrated weights
    and of s0 = alpha = a*x0/C."""
    for name, v in (("a", a), ("b", b), ("x0", x0), ("y0", y0)):
        if not (isfinite(v) and v > 0.0):
            raise InvalidParameterError(f"{name} must be positive and finite, got {v!r}")
    c = a * x0 + b * y0
    if c == 0.0:
        raise InvalidParameterError(
            f"a*x0 + b*y0 underflows to 0 for a={a!r}, b={b!r}, x0={x0!r}, y0={y0!r}"
        )
    s0 = a * x0 / c
    return a, b, x0, y0, s0, b * y0 / c, c, s0


@dataclass(frozen=True)
class CurveParams:
    """Anchor constants of a 2-currency market.

    The derived fields are cached at construction: calibrated exponents
    (alpha, beta), the weighted total c = a*x0 + b*y0, and the initial ray
    coordinate s0 = a*x0/c.  ``_curve`` holds the eight constants the
    kernels take, in their order, and ``_markets`` the
    ``Market`` of each mix this instance was resolved with.
    """

    a: float
    b: float
    x0: float
    y0: float
    alpha: float = field(init=False)
    beta: float = field(init=False)
    c: float = field(init=False)
    s0: float = field(init=False)

    def __post_init__(self) -> None:
        _refuse_bools(self, "a", "b", "x0", "y0")
        curve = _anchor_constants(self.a, self.b, self.x0, self.y0)
        alpha, beta, c, s0 = curve[4:]
        # every s-kernel takes log(s0) and log(1 - s0)
        if not 0.0 < s0 < 1.0:
            raise InvalidParameterError(
                f"anchor ray coordinate s0 = a*x0/(a*x0 + b*y0) = {s0!r} is not strictly "
                f"inside (0, 1) for a={self.a!r}, b={self.b!r}, x0={self.x0!r}, y0={self.y0!r}"
            )
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "s0", s0)
        object.__setattr__(self, "_curve", curve)
        # this instance's markets by mix, filled by ``market``
        object.__setattr__(self, "_markets", {})

    @property
    def initial_state(self) -> "MarketState":
        return MarketState(self.x0, self.y0)


@dataclass(frozen=True)
class MarketState:
    """Current reserves of the two currencies; strictly positive."""

    x: float
    y: float

    def __post_init__(self) -> None:
        _refuse_bools(self, "x", "y")
        _check_reserves(self.x, self.y)


class Family(Enum):
    ARITHMETIC = "arithmetic"
    GEOMETRIC = "geometric"
    HOMOTOPY = "homotopy"


_FAMILY_CODE = {
    Family.ARITHMETIC: k.FAMILY_ARITHMETIC,
    Family.GEOMETRIC: k.FAMILY_GEOMETRIC,
    Family.HOMOTOPY: k.FAMILY_HOMOTOPY,
}


@dataclass(frozen=True)
class MixSpec:
    """A mixing family plus its blend schedule.

    Arithmetic and geometric mixings only support a uniform weight; the
    homotopy family accepts any schedule.
    """

    family: Family
    schedule: TSchedule

    def __post_init__(self) -> None:
        if not isinstance(self.schedule, (Uniform, PowerLaw, Parabolic, StableswapDynamic)):
            raise InvalidParameterError(f"not a schedule: {self.schedule!r}")
        if self.family is not Family.HOMOTOPY and not isinstance(self.schedule, Uniform):
            raise InvalidParameterError(
                f"{self.family.value} mixing requires a uniform blend weight"
            )
        # the kernels' family code, looked up once; it hashes alike in every
        # process, and the spec is hashed once: it keys each curve's markets
        object.__setattr__(self, "_family_code", _FAMILY_CODE[self.family])
        object.__setattr__(self, "_hash", hash((self._family_code, self.schedule)))

    def __hash__(self) -> int:
        return self._hash

    @classmethod
    def arithmetic(cls, t: float) -> "MixSpec":
        return cls(Family.ARITHMETIC, Uniform(t))

    @classmethod
    def geometric(cls, t: float) -> "MixSpec":
        return cls(Family.GEOMETRIC, Uniform(t))

    @classmethod
    def homotopy(cls, t: float) -> "MixSpec":
        return cls(Family.HOMOTOPY, Uniform(t))

    @classmethod
    def scheduled(cls, schedule: TSchedule) -> "MixSpec":
        return cls(Family.HOMOTOPY, schedule)

    @property
    def has_finite_intercept(self) -> bool:
        """Whether the curve ends at finite intercepts on the axes.

        Arithmetic mixings with t < 1, and every family at t = 0, do; the
        other mixings run to infinity and only approach the axes.
        """
        if not isinstance(self.schedule, Uniform):
            return False
        t = self.schedule.t
        return t == 0.0 or (self.family is Family.ARITHMETIC and t < 1.0)


@dataclass(frozen=True, eq=False)
class Market:
    """A curve resolved for the s-kernels; build it with ``market``.

    The ``_markets`` dict of the ``CurveParams`` object it was resolved
    from holds it, and it refers to no curve object, so the curve and its
    markets are freed together.

    ``codes`` = (family, kind, q0, q1, q2) and ``curve`` = (a, b, x0, y0,
    alpha, beta, C, s0) are in the order the kernels take them, so the
    scaling at ray coordinate s is ``k.lam_at(*m.codes, s, *m.curve)``; a
    power law's q1 is its scale M = max(s0, 1 - s0).
    """

    mix: MixSpec
    codes: tuple[int, int, float, float, float]
    curve: tuple[float, float, float, float, float, float, float, float]

    @cached_property
    def mirrored(self) -> "Market":
        """The same market with x and y relabeled: s -> 1 - s, so a parabola
        pinned at t(0) = bias starts at 1 - bias."""
        a, b, x0, y0 = self.curve[:4]
        sched = self.mix.schedule
        if isinstance(sched, Parabolic):
            sched = Parabolic(bias=1.0 - sched.bias, center=sched.center)
        return market(CurveParams(a=b, b=a, x0=y0, y0=x0), MixSpec(self.mix.family, sched))

    @cached_property
    def certified(self) -> bool:
        """Whether the curve passes ``check_convexity``'s certificate, taken
        on first use."""
        return check_convexity(CurveParams(*self.curve[:4]), self.mix.schedule).passed


def market(params: CurveParams, mix: MixSpec) -> Market:
    """The ``Market`` of (params, mix), built once per curve object and mix.

    It is kept in ``params._markets``, keyed by mix: a caller that holds
    its curve objects pays one dict probe and no field-by-field compare.
    Equal but distinct curve objects each build their own.

    Its ``curve`` is the eight constants of ``params._curve``.  The dynamic
    Stableswap blend depends on the state, not on s alone:
    ``schedule_coeffs`` raises UnsupportedScheduleError for it here, on
    every s-kernel path.  Only ``eval_mixed`` evaluates it.
    """
    m = params._markets.get(mix)
    if m is None:
        kind, q0, q1, q2 = schedule_coeffs(mix.schedule, params.s0)
        m = params._markets[mix] = Market(mix, (mix._family_code, kind, q0, q1, q2), params._curve)
    return m


def eval_component(params: CurveParams, state: MarketState) -> tuple[float, float]:
    """Normalized component values (A0, A1) at the state; both 1 at (x0, y0)."""
    return k.components_xy(state.x, state.y, *params._curve)


def s_of_state(params: CurveParams, state: MarketState) -> float:
    """Ray coordinate s = a*x / (a*x + b*y); always in (0, 1) for positive reserves."""
    ax = params.a * state.x
    return ax / (ax + params.b * state.y)


def _blend_weight(params: CurveParams, mix: MixSpec, state: MarketState) -> float:
    """Resolve the blend weight t at a state, for any schedule kind."""
    sched = mix.schedule
    if isinstance(sched, Uniform):
        return sched.t
    if isinstance(sched, StableswapDynamic):
        return sched.weight(state)
    _, kind, q0, q1, q2 = market(params, mix).codes
    # no range check: the s of a positive state lies in (0, 1), where kernels
    # are defined, even if it rounds past S_MIN/S_MAX
    return k.sched_value(kind, q0, q1, q2, s_of_state(params, state), params.s0)


def eval_mixed(params: CurveParams, mix: MixSpec, state: MarketState) -> float:
    """Value of the mixed invariant at the state; the state is on the AMM iff 1."""
    return k.value_xy(mix._family_code, _blend_weight(params, mix, state),
                      state.x, state.y, *params._curve)


def grad_mixed(params: CurveParams, mix: MixSpec, state: MarketState) -> tuple[float, float]:
    """Outward-oriented gradient of the mixed invariant at the state; see
    ``_kernels.pure.grad_xy``."""
    m = market(params, mix)
    return k.grad_xy(*m.codes, state.x, state.y, *m.curve)


def spot_rate(params: CurveParams, mix: MixSpec, state: MarketState) -> float:
    """Internal exchange rate of currency 1 in units of currency 2.

    The anchor rate a/b where a power-law schedule leaves the invariant
    without a gradient, DegenerateGradientError where gy == 0; see
    ``_kernels.pure.rate_xy``.  Raises InvalidParameterError where the
    rate is not positive and finite (its partials underflow or overflow).
    """
    m = market(params, mix)
    rate = k.rate_xy(*m.codes, state.x, state.y, *m.curve)
    if not 0.0 < rate < inf:  # False for NaN
        raise InvalidParameterError(f"spot rate {rate!r} at reserves ({state.x!r}, {state.y!r}) "
                                    "is not positive and finite")
    return rate
