"""Kernel formulas in 60-digit ``decimal``, from the kernels' own float inputs.

Each float converts to ``Decimal`` exactly, and ``Decimal.ln`` and ``exp``
are correctly rounded, so a value here is the exact result of the kernel's
formula on its inputs to about 1e-58 relative: the rounding a kernel adds
is its distance from it, counted in ULPs of the correctly rounded result.
"""

from decimal import Decimal, localcontext
from math import ulp

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
