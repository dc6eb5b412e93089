"""Kernel formulas in 60-digit ``decimal``, from the kernels' own float inputs.

Each float converts to ``Decimal`` exactly, and ``Decimal.ln``, ``exp``
and ``**`` are correctly rounded (``**`` almost always), so a value here
is the exact result of the kernel's formula on its inputs to about 1e-58
relative: the rounding a kernel adds is its distance from it, counted in
ULPs of the correctly rounded result or in units of the size of its terms.
The formulas are written for calibrated weights, alpha + beta = 1, as the
kernels are; where the floats' alpha + beta is 1 within an ULP, the
difference is an ULP of the result.  The Stableswap completion, a
rational function of its inputs, is exact in ``Fraction``.
"""

from decimal import Decimal, localcontext
from fractions import Fraction
from math import exp, expm1, inf, log, prod, ulp
from sys import float_info

DIGITS = 60


def lam_arith(s, t, alpha, beta, c, s0):
    """The arithmetic blend's scaling at ray coordinate s for weight t.

    The root of its defining equation lam*(1-t)/C + t*lam/P = 1, linear in
    lam for calibrated weights (alpha + beta = 1), with
    P = C*exp(alpha*log(s0/s) + beta*log((1-s0)/(1-s))).
    """
    with localcontext() as ctx:
        ctx.prec = DIGITS
        s, t, alpha, beta, c, s0 = map(Decimal, (s, t, alpha, beta, c, s0))
        g = alpha * (s0 / s).ln() + beta * ((1 - s0) / (1 - s)).ln()
        p = c * g.exp()
        return 1 / ((1 - t) / c + t / p)


def ray_rate(family, kind, q0, q1, q2, s, a, b, alpha, beta, c, s0):
    """The spot rate at ray coordinate s, and its relative condition.

    The rate is the ratio of the invariant's partials at the ray point
    lam(s)*(s/a, (1-s)/b), where A0 = lam/C and A1 = lam/P, so that lam
    cancels:

    - arithmetic: (a/b)*[(1-t)/C + t*alpha/(P*s)] / [(1-t)/C + t*beta/(P*(1-s))]
    - geometric: (a/b)*[(1-t) + t*alpha/s] / [(1-t) + t*beta/(1-s)]
    - homotopy (every schedule): (a/b)*[(1-t)*C + t*P*alpha/s - t'*(1-s)*(P-C)]
      / [(1-t)*C + t*P*beta/(1-s) + t'*s*(P-C)]

    with P = C*exp(g) and (t, t') from ``sched_chain``, t clamped into
    [0, 1] as the kernels clamp it (a parabola may leave it by 1e-12).  At
    s0 on a power
    law it is the anchor rate a/b: the tangent limit where t' has no value
    (exponents <= 1), and what the formula gives above 1, where t = t' = 0.

    The condition is what a float evaluation's rounding is measured in: the
    magnitudes of the numerator's terms over the numerator, the same for
    the denominator, where t, t', P and P - C count with their sizes as
    ``lam_chain`` takes them, plus |s * d(log rate)/ds|, the relative
    change of the rate per relative change of s, since a rate taken at
    reserves rounded from the ray point is the rate at a rounded s.
    """
    rate = _ray_rate(family, kind, q0, q1, q2, s, a, b, alpha, beta, c, s0)
    if kind == 1 and s == s0:
        return rate, 1.0
    with localcontext() as ctx:
        ctx.prec = DIGITS
        h = Decimal(s) * Decimal("1e-25")
        up, down = (_ray_rate(family, kind, q0, q1, q2, Decimal(s) + d, a, b, alpha, beta, c, s0)
                    for d in (h, -h))
        slope = float(abs((up - down) / (2 * h) * Decimal(s) / rate))
    t, tp = map(float, _clamped(*sched_chain(kind, q0, q1, q2, s, s0)[:2]))
    u = 1.0 - s
    size_g = abs(alpha * log(s0 / s)) + abs(beta * log((1.0 - s0) / u))
    g = alpha * log(s0 / s) + beta * log((1.0 - s0) / u)
    p = c * exp(g)
    size_p = p * (1.0 + size_g)
    size_pmc = size_p + c * abs(expm1(g))
    if kind == 1:
        st, stp = (1.0 + q0) * abs(t), (1.0 + q0) * abs(tp)
    elif kind == 2:
        st, stp = (abs(q0) * s + abs(q1)) * s + abs(q2), 2.0 * abs(q0) * s + abs(q1)
    else:
        st, stp = t, 0.0
    if family == 0:
        terms = ((1.0 + st) / c, st * alpha / (p * s), st * alpha * size_g / (p * s)), \
                ((1.0 + st) / c, st * beta / (p * u), st * beta * size_g / (p * u))
        vals = ((1.0 - t) / c + t * alpha / (p * s), (1.0 - t) / c + t * beta / (p * u))
    elif family == 1:
        terms = (1.0 + st, st * alpha / s), (1.0 + st, st * beta / u)
        vals = (1.0 - t + t * alpha / s, 1.0 - t + t * beta / u)
    else:
        pmc = c * expm1(g)
        terms = ((1.0 + st) * c, st * size_p * alpha / s, stp * u * size_pmc), \
                ((1.0 + st) * c, st * size_p * beta / u, stp * s * size_pmc)
        vals = ((1.0 - t) * c + t * p * alpha / s - tp * u * pmc,
                (1.0 - t) * c + t * p * beta / u + tp * s * pmc)
    kappa = sum(sum(ts) / abs(v) for ts, v in zip(terms, vals))
    return rate, kappa + slope


def _clamped(t, tp):
    """t clamped into [0, 1] as the kernels clamp it, and t' = 0 where that
    moved t: the curve's t(s) is the clamped one."""
    if t < 0:
        return Decimal(0), Decimal(0)
    if t > 1:
        return Decimal(1), Decimal(0)
    return t, tp


def _ray_rate(family, kind, q0, q1, q2, s, a, b, alpha, beta, c, s0):
    with localcontext() as ctx:
        ctx.prec = DIGITS
        da, db = Decimal(a), Decimal(b)
        if kind == 1 and s == s0:
            return da / db
        t, tp = _clamped(*sched_chain(kind, q0, q1, q2, s, s0)[:2])
        ds, dal, dbe, dc, ds0 = map(Decimal, (s, alpha, beta, c, s0))
        u = 1 - ds
        p = dc * (dal * (ds0 / ds).ln() + dbe * ((1 - ds0) / u).ln()).exp()
        if family == 0:
            num, den = (1 - t) / dc + t * dal / (p * ds), (1 - t) / dc + t * dbe / (p * u)
        elif family == 1:
            num, den = (1 - t) + t * dal / ds, (1 - t) + t * dbe / u
        else:
            num = (1 - t) * dc + t * p * dal / ds - tp * u * (p - dc)
            den = (1 - t) * dc + t * p * dbe / u + tp * ds * (p - dc)
        return da / db * num / den


def relative(got, exact):
    """|got - exact| / |exact|, as a float."""
    with localcontext() as ctx:
        ctx.prec = DIGITS
        return float(abs(Decimal(got) - exact) / abs(exact))


def ulps(got, exact):
    """|got - exact| in ULPs of the float nearest ``exact``."""
    with localcontext() as ctx:
        ctx.prec = DIGITS
        return float(abs(Decimal(got) - exact) / Decimal(ulp(float(exact))))


def sched_chain(kind, q0, q1, q2, s, s0):
    """(t, t', t'') of a schedule at s, or None at s0 on a power law of
    exponent below 2, where t'' has no finite value.

    kind 0 is the uniform t = q0, kind 1 the power law (|s - s0|/M)**k with
    k = q0 and M = q1, and kind 2 the parabola (q0*s + q1)*s + q2.  The
    power law's derivatives are k*t/(s - s0) and k*(k - 1)*t/(s - s0)**2.
    """
    with localcontext() as ctx:
        ctx.prec = DIGITS
        q0, q1, q2, s, s0 = map(Decimal, (q0, q1, q2, s, s0))
        if kind == 0:
            return q0, Decimal(0), Decimal(0)
        if kind == 2:
            return (q0 * s + q1) * s + q2, 2 * q0 * s + q1, 2 * q0
        d = s - s0
        if d == 0:
            if q0 < 2:
                return None
            return Decimal(0), Decimal(0), 2 / (q1 * q1) if q0 == 2 else Decimal(0)
        t = (abs(d) / q1) ** q0
        return t, q0 * t / d, q0 * (q0 - 1) * t / (d * d)


def lam_chain(kind, q0, q1, q2, s, alpha, beta, c, s0):
    """The scheduled homotopy chain at s, and the size of its terms, or None
    where ``sched_chain`` is None.

    Returns ``(values, sizes)``, two dicts keyed "t", "t'", "t''", "lam",
    "lam'", "lam''" and "margin": the values in ``Decimal`` of t(s) and
    lam = C + (P - C)*t with P = C*exp(g), g = alpha*ln(s0/s) +
    beta*ln((1-s0)/(1-s)), their first two derivatives (P' = P*g' and
    P'' = P*(g'^2 + g'')), and the margin lam*lam'' - 2*lam'^2.

    A size is the value recomputed in floats with every factor and term in
    absolute value, where P counts (1 + |alpha*ln(s0/s)| +
    |beta*ln((1-s0)/(1-s))|) times: exp turns g's absolute rounding, a
    few ULPs of its two terms and of 1, into a relative error of P.  A
    power law's t, t' and t'' count 1 + k times, the relative error that
    **k makes of a rounded |s - s0|/M.  Rounding in a float evaluation of
    the chain is at most a small multiple of eps times these sizes.
    """
    chain = sched_chain(kind, q0, q1, q2, s, s0)
    if chain is None:
        return None
    with localcontext() as ctx:
        ctx.prec = DIGITS
        t, tp, tpp = chain
        ds, da, db, dc, ds0 = map(Decimal, (s, alpha, beta, c, s0))
        u = 1 - ds
        g = da * (ds0 / ds).ln() + db * ((1 - ds0) / u).ln()
        gp = db / u - da / ds
        gpp = da / (ds * ds) + db / (u * u)
        p = dc * g.exp()
        pp, ppp = p * gp, p * (gp * gp + gpp)
        lam = (p - dc) * t + dc
        lamp = (p - dc) * tp + pp * t
        lampp = (p - dc) * tpp + 2 * pp * tp + ppp * t
        values = {"t": t, "t'": tp, "t''": tpp, "lam": lam, "lam'": lamp, "lam''": lampp,
                  "margin": lam * lampp - 2 * lamp * lamp}
    u = 1.0 - s
    size_g = abs(alpha * log(s0 / s)) + abs(beta * log((1.0 - s0) / u))
    p = c * exp(float(g))
    size_p = p * (1.0 + size_g)
    size_pmc = size_p + c * abs(expm1(float(g)))
    size_gp = (beta * s + alpha * u) / (s * u)
    size_gpp = alpha / (s * s) + beta / (u * u)
    if kind == 1:
        st, stp, stpp = ((1.0 + q0) * abs(float(v)) for v in chain)
    elif kind == 2:
        st = (abs(q0) * s + abs(q1)) * s + abs(q2)
        stp, stpp = 2.0 * abs(q0) * s + abs(q1), 2.0 * abs(q0)
    else:
        st, stp, stpp = q0, 0.0, 0.0
    size_lam = size_pmc * st + c
    size_lamp = size_pmc * stp + size_p * size_gp * st
    size_lampp = (size_pmc * stpp + 2.0 * size_p * size_gp * stp
                  + size_p * (size_gp * size_gp + size_gpp) * st)
    sizes = {"t": st, "t'": stp, "t''": stpp, "lam": size_lam, "lam'": size_lamp,
             "lam''": size_lampp, "margin": size_lam * size_lampp + 2.0 * size_lamp * size_lamp}
    return values, sizes


def size_errors(got, values, sizes):
    """|got - value| for each key of ``got``, in units of eps times its size:
    0 where the two are equal, inf where they differ on a size of 0."""
    with localcontext() as ctx:
        ctx.prec = DIGITS
        errors = {}
        for key, value in got.items():
            gap = abs(Decimal(value) - values[key])
            size = float_info.epsilon * sizes[key]
            errors[key] = 0.0 if gap == 0 else inf if size == 0.0 else float(gap / Decimal(size))
        return errors


def stableswap_completion(n, scale, chi, partial):
    """The last reserve on the Stableswap invariant, exactly, and the size
    of its closed form's terms.

    The invariant chi*D**(n-1)*sum(x) + prod(x) = chi*D**n + (D/n)**n is
    linear in x_n, so in ``Fraction`` its root is exact:
    x_n = (L*(D - sum(p)) + (D/n)**n) / (L + prod(p)) with L = chi*D**(n-1).
    The size is the same quotient with |D - sum(p)|.
    """
    d, lev = Fraction(scale), Fraction(chi) * Fraction(scale) ** (n - 1)
    gap, den = d - sum(map(Fraction, partial)), lev + prod(map(Fraction, partial))
    return (lev * gap + (d / n) ** n) / den, float((lev * abs(gap) + (d / n) ** n) / den)
