"""NumPy array form of the scheduled homotopy chain kernel.

``lam_chain_array`` evaluates ``pure.lam_chain`` (and the ``sched_eval``
inside it) over an array of s, operation for operation in the same order,
so each element differs from the scalar kernel only in the last bits that
numpy's exp/log/expm1/power give against libm's.  Grid workloads call it
instead of looping over the scalar kernel.

Where ``sched_eval`` raises (s == s0 on power laws with exponent < 2) the
element is marked in the returned mask instead, and its values are
meaningless.  Callers run it under ``np.errstate``: the singular elements
divide by zero.
"""

from __future__ import annotations

import numpy as np


def lam_chain_array(kind, q0, q1, q2, s, a, b, x0, y0, alpha, beta, c, s0):
    """(lam, lam', lam'', singular) for the homotopy family over an array s."""
    singular = np.zeros(s.shape, dtype=bool)
    # sched_eval
    if kind == 0:
        t, tp, tpp = q0, 0.0, 0.0
    elif kind == 1:
        d = s - s0
        if q0 < 2.0:
            singular = d == 0.0
        # at d == 0 with exponent >= 2 these are sched_eval's values there:
        # t = t' = 0, and t'' = 2/M**2 at exponent 2 (0**0 == 1), else 0
        u = np.abs(d) / q1
        t = u**q0
        tp = np.copysign(q0 / q1 * u ** (q0 - 1.0), d)
        tpp = q0 * (q0 - 1.0) / (q1 * q1) * u ** (q0 - 2.0)
    else:
        t = (q0 * s + q1) * s + q2
        tp = 2.0 * q0 * s + q1
        tpp = 2.0 * q0
    # ray_log_ratio
    g = alpha * np.log(s0 / s) + beta * np.log((1.0 - s0) / (1.0 - s))
    gp = (beta * s - alpha * (1.0 - s)) / (s * (1.0 - s))
    # lam_chain
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
