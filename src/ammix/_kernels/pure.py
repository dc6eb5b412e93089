"""Scalar kernels for curve evaluation and root solving, on flat floats.

``lam_at``, the trade solve's inner call, is fused: it computes the blend
weight and g(s) in one frame, repeating the float operations of
``sched_value`` and ``ray_log_ratio`` in their order, and the helpers stay
as the reference it is tested against.  The other s-kernels call the
helpers: ``rate_s`` takes g from ``ray_log_ratio`` and (t, t') from
``_sched_clamped``, and ``lam_arith`` takes g from its caller.  ``rate_s``,
the spot rate at ray coordinate s in one formula for every family, is the
one ray kernel of both solves: the arbitrage solve's rate, and the slope of
the trade solve's polish.  The chain (lam, lam', lam'') and t'' have no
scalar body: ``arrays.lam_chain_array`` calls ``ray_log_ratio`` and
``sched_first`` on numpy arrays.

The kernels at a state (x, y) hold the mixed invariant, its gradient and
the spot rate, each formula in one body: ``components_xy`` gives
(A0, A1), which ``value_xy`` blends; ``grad_xy`` gives the gradient, with
a schedule's (t, t') from ``_sched_clamped``, and ``rate_xy``, the spot
rate at a user's (x, y), is the ratio of its partials.  ``ammix.core``
wraps them for ``MarketState`` arguments.  Reserves whose terms leave the
float range (A1 underflowing to 0 under a negative power, say) raise
InvalidParameterError, not a bare ArithmeticError.

Conventions:

* family codes: 0 = arithmetic, 1 = geometric, 2 = homotopy
* schedule kinds: 0 = uniform (q0 = t), 1 = power law (q0 = exponent,
  q1 = M = max(s0, 1 - s0)), 2 = parabolic (q0, q1, q2 = quadratic
  coefficients, highest first)
* curve constants are passed as (a, b, x0, y0, alpha, beta, c, s0), as
  ``CurveParams`` derives them once per curve: the sum C = a*x0 + b*y0
  and s0 = a*x0/C.  No kernel derives them again.
* the weights are calibrated, alpha + beta = 1 (``core.calibrate_weights``),
  so the CPMM component is 1-homogeneous and every formula here is written
  for that case.
* the CPMM ray scaling is computed as P(s) = C * exp(g(s)) with
  g(s) = alpha*log(s0/s) + beta*log((1-s0)/(1-s)), which makes P(s0) == C
  exact and keeps P - C = C*expm1(g) accurate near s0.
"""

from __future__ import annotations

from math import copysign, exp, expm1, log

from ammix.errors import (
    ConvergenceError,
    DegenerateGradientError,
    InvalidParameterError,
    NonDifferentiablePointError,
    ScheduleRangeError,
)

_MAX_ITER = 200


def ray_log_ratio(s, a, b, x0, y0, alpha, beta, c, s0, log=log):
    """g(s) and g'(s) for the CPMM scaling along the ray at parameter s.

    ``log`` is ``math.log`` for a float s; the array kernels pass ``np.log``.
    """
    g = alpha * log(s0 / s) + beta * log((1.0 - s0) / (1.0 - s))
    gp = (beta * s - alpha * (1.0 - s)) / (s * (1.0 - s))
    return g, gp


def lam_arith(t, g, c):
    """Scaling putting the ray point on the arithmetic mix with weight t.

    The root C/((1-t) + t*exp(-g)) of lam*(1-t)/C + t*lam/P = 1, with
    P = C*exp(g), so C/P = exp(-g), and g = g(s) from ``ray_log_ratio``
    taken by the caller.  No C*P or C/P is formed, so the root is exact
    under power-of-two scaling of the anchor wherever it is a normal float.
    """
    if t <= 0.0:
        return c
    if t >= 1.0:
        return c * exp(g)
    return c / (1.0 - t + t * exp(-g))


def sched_value(kind, q0, q1, q2, s, s0):
    """Blend weight t(s) of a schedule, checked and clamped into [0, 1];
    defined everywhere on (0, 1).  kind must be 1 (power law) or 2
    (parabola): callers take a uniform weight (kind 0) as q0 itself."""
    if kind == 1:
        t = (abs(s - s0) / q1) ** q0
    else:
        t = (q0 * s + q1) * s + q2
    if t < -1e-12 or t > 1.0 + 1e-12:
        raise ScheduleRangeError(f"schedule value t={t!r} outside [0, 1] at s={s!r}")
    return min(1.0, max(0.0, t))


def sched_first(kind, q0, q1, q2, s, s0):
    """(t, t') — raises only where the first derivative fails to exist."""
    if kind == 0:
        return q0, 0.0
    if kind == 1:
        d = s - s0
        if d == 0.0:
            if q0 <= 1.0:
                raise NonDifferentiablePointError(
                    f"power-law schedule with exponent {q0!r} has no derivative at s0"
                )
            return 0.0, 0.0
        u = abs(d) / q1
        return u**q0, copysign(q0 / q1 * u ** (q0 - 1.0), d)
    t = (q0 * s + q1) * s + q2
    return t, 2.0 * q0 * s + q1


def lam_at(family, kind, q0, q1, q2, s, a, b, x0, y0, alpha, beta, c, s0):
    """Scaling lam(s) for any (family, schedule) pair.

    Uniform weights (kind 0) take t = q0 and the family's closed form,
    which is C itself at t = 0; a schedule takes t(s) from ``sched_value``
    and the homotopy formula C + C*expm1(g)*t.  ``sched_value`` and
    ``ray_log_ratio`` are inlined here, operation for operation.
    """
    if kind == 0:
        t = q0
    else:
        if kind == 1:
            t = (abs(s - s0) / q1) ** q0
        else:
            t = (q0 * s + q1) * s + q2
        if t < -1e-12 or t > 1.0 + 1e-12:
            raise ScheduleRangeError(f"schedule value t={t!r} outside [0, 1] at s={s!r}")
        # min(1.0, max(0.0, t)), -0.0 and NaN included
        if not t > 0.0:
            t = 0.0
        elif t > 1.0:
            t = 1.0
    g = alpha * log(s0 / s) + beta * log((1.0 - s0) / (1.0 - s))
    if kind == 0 and family == 0:
        return lam_arith(t, g, c)
    if kind == 0 and family == 1:
        return c * exp(g * t)
    # homotopy: lam = C*(1-t) + P*t
    return c + c * expm1(g) * t


def _sched_clamped(kind, q0, q1, q2, s, s0):
    """(t, t') from ``sched_first``, t checked and clamped into [0, 1] by
    ``sched_value`` as ``lam_at`` checks and clamps it, and t' = 0 where
    the clamp moved t.  Raises ScheduleRangeError where ``lam_at`` does."""
    t, tp = sched_first(kind, q0, q1, q2, s, s0)
    if not 0.0 < t < 1.0:  # True for NaN
        clamped = sched_value(kind, q0, q1, q2, s, s0)
        if clamped != t:
            tp = 0.0
        t = clamped
    return t, tp


def rate_s(family, kind, q0, q1, q2, s, a, b, x0, y0, alpha, beta, c, s0):
    """(lam, rate) at ray coordinate s: ``lam_at``'s lam, and the spot rate
    ``rate_xy`` takes at the ray point lam*(s/a, (1-s)/b), in s alone.

    There A0 = lam/C and A1 = lam/P, so lam cancels from the ratio of the
    partials, and no reserve, product of reserves or power is formed.  Every
    family takes one formula,

        (a/b)*[(1-t)*K + w*alpha/s - t'*(1-s)*(P-C)]
             / [(1-t)*K + w*beta/(1-s) + t'*s*(P-C)],

    with (K, w) = (1, t*C/P) on the arithmetic mix, (1, t) on the geometric
    and (C, t*P) on the homotopy, and t' = 0 but on a schedule.  C/P is
    exp(-g): the arithmetic rate and lam form no C*P, C/P or 1/C.

    g comes from ``ray_log_ratio`` and a schedule's (t, t') from
    ``_sched_clamped``, so ScheduleRangeError is raised where ``lam_at``
    raises it; where t' does not exist (a power law of exponent <= 1 at s0)
    the rate is the anchor rate a/b, as in ``rate_xy``.  Raises
    DegenerateGradientError where the denominator (the partial in y)
    vanishes, and InvalidParameterError where a term leaves the float range.
    """
    try:
        g = ray_log_ratio(s, a, b, x0, y0, alpha, beta, c, s0)[0]
        t, tp = q0, 0.0
        if kind != 0:
            try:
                t, tp = _sched_clamped(kind, q0, q1, q2, s, s0)
            except NonDifferentiablePointError:
                return c, a / b  # s == s0, where t = 0 and g = 0
        if kind == 0 and family == 0:
            k, w, lam = 1.0, t * exp(-g), lam_arith(t, g, c)
        elif kind == 0 and family == 1:
            k, w, lam = 1.0, t, c * exp(g * t)
        else:
            pmc = c * expm1(g)
            k, w, lam = c, t * (c * exp(g)), c + pmc * t
        num, den = (1.0 - t) * k + w * alpha / s, (1.0 - t) * k + w * beta / (1.0 - s)
        if tp != 0.0:
            num -= tp * (1.0 - s) * pmc
            den += tp * s * pmc
        if den != 0.0:
            return lam, a / b * (num / den)
    except ArithmeticError as exc:
        raise InvalidParameterError(
            f"the spot rate is not representable at s={s!r}: {type(exc).__name__}: {exc}"
        ) from exc
    raise DegenerateGradientError("vanishing partial derivative in y")


def _float_range_error(x, y, exc):
    """The typed error for reserves whose terms leave the float range: A1
    underflowing to 0 under a negative power, or a square of a*x + b*y."""
    return InvalidParameterError(
        f"the invariant is not representable at reserves ({x!r}, {y!r}): "
        f"{type(exc).__name__}: {exc}"
    )


def components_xy(x, y, a, b, x0, y0, alpha, beta, c, s0):
    """Normalized component values (A0, A1) at (x, y); both 1 at (x0, y0)."""
    a0 = (a * x + b * y) / c
    a1 = (x / x0) ** alpha * (y / y0) ** beta
    return a0, a1


def value_xy(family, t, x, y, a, b, x0, y0, alpha, beta, c, s0):
    """Value of the mixed invariant at (x, y) for blend weight t; 1 on the curve.

    t is passed resolved, since the dynamic Stableswap blend depends on
    the state and has no schedule code.
    """
    try:
        a0, a1 = components_xy(x, y, a, b, x0, y0, alpha, beta, c, s0)
        if family == 0:
            return a0 * (1.0 - t) + a1 * t
        if family == 1:
            return a0 ** (1.0 - t) * a1**t
        return (1.0 - t) / a0 + a1 ** -1.0 * t
    except ArithmeticError as exc:
        raise _float_range_error(x, y, exc) from exc


def grad_xy(family, kind, q0, q1, q2, x, y, a, b, x0, y0, alpha, beta, c, s0):
    """Outward-oriented gradient (gx, gy) of the mixed invariant at (x, y).

    The homotopy invariant as tabulated decreases as reserves grow, so its
    gradient is taken on the reciprocal form; with that orientation every
    family reduces to grad A0 at t = 0 and grad A1 at t = 1, and the ratio
    of the partials is the internal exchange rate for all of them.  A
    schedule takes (t, t') from ``_sched_clamped`` at s = a*x/(a*x + b*y),
    as ``rate_s`` does, so t is checked and clamped as
    ``lam_at`` checks and clamps it, ScheduleRangeError is raised where
    ``lam_at`` raises it, and NonDifferentiablePointError where t' does
    not exist.  A1 is ``components_xy``'s, operation for operation.
    """
    try:
        n = a * x + b * y
        if kind == 0:
            t, tp = q0, 0.0
        else:
            t, tp = _sched_clamped(kind, q0, q1, q2, a * x / n, s0)
        a1 = (x / x0) ** alpha * (y / y0) ** beta
        if family == 0:
            return (
                (1.0 - t) * a / c + t * a1 * alpha / x,
                (1.0 - t) * b / c + t * a1 * beta / y,
            )
        if family == 1:
            g = (n / c) ** (1.0 - t) * a1**t
            return (
                g * ((1.0 - t) * a / n + t * alpha / x),
                g * ((1.0 - t) * b / n + t * beta / y),
            )
        # homotopy: differentiate the raw (decreasing) form, then flip via 1/A
        w = a1 ** -1.0
        raw = (1.0 - t) * c / n + t * w
        raw_x = -(1.0 - t) * c * a / (n * n) - t * w * alpha / x
        raw_y = -(1.0 - t) * c * b / (n * n) - t * w * beta / y
        if tp != 0.0:
            s_x = a * b * y / (n * n)
            s_y = -a * b * x / (n * n)
            dt_term = w - c / n
            raw_x += tp * s_x * dt_term
            raw_y += tp * s_y * dt_term
        inv2 = 1.0 / (raw * raw)
        return -raw_x * inv2, -raw_y * inv2
    except ArithmeticError as exc:
        raise _float_range_error(x, y, exc) from exc


def rate_xy(family, kind, q0, q1, q2, x, y, a, b, x0, y0, alpha, beta, c, s0):
    """Internal exchange rate gx/gy of currency 1 in units of currency 2 at (x, y).

    The ratio of ``grad_xy``'s partials, with its errors.  Power-law
    schedules with exponent <= 1 leave the ambient invariant without a
    gradient exactly at s0, but the curve's tangent limit there is the
    anchor rate a/b for every schedule (shared-rate calibration), so that
    is the rate returned there.  Raises DegenerateGradientError when
    gy == 0.
    """
    try:
        gx, gy = grad_xy(family, kind, q0, q1, q2, x, y, a, b, x0, y0, alpha, beta, c, s0)
    except NonDifferentiablePointError:
        return a / b
    if gy == 0.0:
        raise DegenerateGradientError("vanishing partial derivative in y")
    return gx / gy


def solve_s_for_x(family, kind, q0, q1, q2, x_target, a, b, x0, y0, alpha, beta, c, s0,
                  s_lo, s_hi):
    """Invert x(s) = (s/a) lam(s) by bisection, then one Newton polish.

    The bracket [s_lo, s_hi] must already contain the solution; x(s) is
    increasing on valid curves.  Raises ConvergenceError when ``_MAX_ITER``
    halvings leave the bracket wider than 1e-14.  The polish's slope is
    x'(s) = lam/(a*(1-s) + b*r*s), the curve's dy/dx being -r, with (lam, r)
    from one ``rate_s`` call: (C, a/b) at a power law's cusp.  It is skipped
    unless x'(s) > 0, and a step out of [s_lo, s_hi] is not taken.
    """
    lo = s_lo
    hi = s_hi
    for _ in range(_MAX_ITER):
        mid = 0.5 * (lo + hi)
        xm = mid / a * lam_at(family, kind, q0, q1, q2, mid, a, b, x0, y0, alpha, beta, c, s0)
        if xm < x_target:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-14:
            break
    else:
        raise ConvergenceError(
            f"solve for x={x_target!r} not narrowed to 1e-14 in {_MAX_ITER} halvings; "
            f"last bracket [{lo!r}, {hi!r}]"
        )
    s = 0.5 * (lo + hi)
    lam, r = rate_s(family, kind, q0, q1, q2, s, a, b, x0, y0, alpha, beta, c, s0)
    d = a * (1.0 - s) + b * r * s
    xp = lam / d if d != 0.0 else 0.0
    if xp > 0.0:
        s_new = s - (s / a * lam - x_target) / xp
        if s_lo <= s_new <= s_hi:
            s = s_new
    return s
