"""Kernel backend selection.

The compiled extension is preferred when present; the pure-Python module is
the fallback.  Set ``AMMIX_KERNELS=pure`` to force the fallback even where
the extension is built; ``test_env_override_selects_pure`` checks this.
``lam_chain_array``, the numpy array form of ``lam_chain``, is the same
for both backends.
"""

import os

from ammix._kernels.arrays import lam_chain_array

FAMILY_ARITHMETIC = 0
FAMILY_GEOMETRIC = 1
FAMILY_HOMOTOPY = 2

SCHED_UNIFORM = 0
SCHED_POWERLAW = 1
SCHED_PARABOLIC = 2

if os.environ.get("AMMIX_KERNELS", "").lower() == "pure":
    from ammix._kernels import pure as _impl
else:
    try:
        from ammix._kernels import _fast as _impl  # type: ignore[attr-defined]
    except ImportError:
        from ammix._kernels import pure as _impl

BACKEND = _impl.BACKEND_NAME

ray_log_ratio = _impl.ray_log_ratio
lam_arith = _impl.lam_arith
lam_uniform = _impl.lam_uniform
lam_uniform_with_prime = _impl.lam_uniform_with_prime
sched_value = _impl.sched_value
sched_first = _impl.sched_first
sched_eval = _impl.sched_eval
lam_chain = _impl.lam_chain
lam_at = _impl.lam_at
lam_prime_at = _impl.lam_prime_at
solve_s_for_x = _impl.solve_s_for_x
