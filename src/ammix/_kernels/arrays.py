"""NumPy array kernels for the scheduled homotopy chain (lam, lam', lam'').

``lam_chain_array`` is the chain's one body: ``check_convexity`` evaluates
it over blocks of a grid of s, and ``lambda_derivs`` at one ``np.float64``.
g and g' come from ``pure.ray_log_ratio``, a uniform or parabolic (t, t')
from ``pure.sched_first``, and the power law's (t, t', t'') and every t''
from ``sched_chain_array``.  Where t'' does not exist (s == s0 on power
laws with exponent < 2) the element is marked in the returned mask and its
values are meaningless; callers run the kernels under ``np.errstate``."""

from __future__ import annotations

import numpy as np

from ammix._kernels.pure import ray_log_ratio, sched_first


def sched_chain_array(kind, q0, q1, q2, s, s0):
    """(t, t', t'', singular) of a schedule over an array s."""
    if kind != 1:
        t, tp = sched_first(kind, q0, q1, q2, s, s0)
        return t, tp, 2.0 * q0 if kind == 2 else 0.0, np.zeros(np.shape(s), dtype=bool)
    d = s - s0
    # at d == 0 with exponent >= 2: t = t' = 0, and t'' = 2/M**2 at
    # exponent 2 (0**0 == 1), else 0
    u = np.abs(d) / q1
    t = u**q0
    tp = np.copysign(q0 / q1 * u ** (q0 - 1.0), d)
    tpp = q0 * (q0 - 1.0) / (q1 * q1) * u ** (q0 - 2.0)
    return t, tp, tpp, (d == 0.0) if q0 < 2.0 else np.zeros(np.shape(s), dtype=bool)


def lam_chain_array(kind, q0, q1, q2, s, a, b, x0, y0, alpha, beta, c, s0):
    """(lam, lam', lam'', singular) for the homotopy family over an array s.

    lam   = (P - C) t + C
    lam'  = (P - C) t' + P' t
    lam'' = (P - C) t'' + 2 P' t' + P'' t
    with P = C exp(g), P' = g' P and
    P'' = [2 alpha^2 (1-s)^2 + alpha beta (1-2s)^2 + 2 beta^2 s^2]
          / [s^2 (1-s)^2] * P.
    """
    t, tp, tpp, singular = sched_chain_array(kind, q0, q1, q2, s, s0)
    g, gp = ray_log_ratio(s, a, b, x0, y0, alpha, beta, c, s0, log=np.log)
    p = c * np.exp(g)
    pmc = c * np.expm1(g)
    pp = p * gp
    u = 1.0 - s
    num = 2.0 * alpha * alpha * u * u + alpha * beta * (1.0 - 2.0 * s) ** 2 + 2.0 * beta * beta * s * s
    ppp = num / (s * s * u * u) * p
    lam = pmc * t + c
    lamp = pmc * tp + pp * t
    lampp = pmc * tpp + 2.0 * pp * tp + ppp * t
    return lam, lamp, lampp, singular
