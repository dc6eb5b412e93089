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
