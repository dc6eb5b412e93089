"""The kernels, bound from ``pure`` (flat floats) and ``arrays`` (numpy
arrays of s), and their integer codes.  ``lam_chain_array`` is the one
body of the chain (lam, lam', lam'') that the convexity certificate and
``lambda_derivs`` evaluate."""

from ammix._kernels.arrays import lam_chain_array, sched_chain_array
from ammix._kernels.pure import (
    components_xy,
    grad_xy,
    lam_arith,
    lam_at,
    lam_prime_at,
    rate_s,
    rate_xy,
    ray_log_ratio,
    sched_first,
    sched_value,
    solve_s_for_x,
    value_xy,
)

BACKEND = "pure"

FAMILY_ARITHMETIC = 0
FAMILY_GEOMETRIC = 1
FAMILY_HOMOTOPY = 2

SCHED_UNIFORM = 0
SCHED_POWERLAW = 1
SCHED_PARABOLIC = 2
