"""The general-n Stableswap invariant and its arithmetic-mixing form.

Stableswap's leverage parameter chi interpolates between constant-product
(chi = 0) and constant-sum (chi -> infinity).  Normalizing the invariant
shows it is exactly an arithmetic mixing with blend weight
t = n**-n / (chi + n**-n); ``equivalence_check`` verifies that identity
numerically on arbitrary states.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import fsum, inf, isfinite, nan, prod
from numbers import Integral
from typing import Sequence

from ammix.errors import InvalidParameterError
from ammix.schedules import StableswapDynamic, _refuse_bools


def _check_n(n: int) -> None:
    """Raise InvalidParameterError unless n is an integer >= 2; bool is an
    Integral, but True is not a currency count."""
    if isinstance(n, bool) or not (isinstance(n, Integral) and n >= 2):
        raise InvalidParameterError(f"n must be an integer >= 2, got {n!r}")


@dataclass(frozen=True)
class StableswapParams:
    """Pool constants: currency count n, invariant scale, and leverage chi.

    The balanced initial state holds scale/n of every currency.
    """

    n: int
    scale: float
    chi: float

    def __post_init__(self) -> None:
        _check_n(self.n)
        _refuse_bools(self, "scale", "chi")
        if not (isfinite(self.scale) and self.scale > 0.0):
            raise InvalidParameterError(f"scale must be positive and finite, got {self.scale!r}")
        if not (isfinite(self.chi) and self.chi >= 0.0):
            raise InvalidParameterError(f"chi must be >= 0, got {self.chi!r}")


def _check_reserves(n: int, reserves: Sequence[float]) -> None:
    if len(reserves) != n:
        raise InvalidParameterError(f"expected {n} reserves, got {len(reserves)}")
    if any(not (isfinite(x) and x > 0.0) for x in reserves):
        raise InvalidParameterError(f"reserves must be positive and finite, got {reserves!r}")


def invariant_residual(ss: StableswapParams, reserves: Sequence[float]) -> float:
    """LHS - RHS of chi*D**(n-1)*sum(x) + prod(x) = chi*D**n + (D/n)**n;
    InvalidParameterError where a power of D leaves the float range."""
    _check_reserves(ss.n, reserves)
    d, n, chi = ss.scale, ss.n, ss.chi
    try:
        lhs = chi * d ** (n - 1) * sum(reserves) + prod(reserves)
        rhs = chi * d**n + (d / n) ** n
    except OverflowError as exc:
        raise InvalidParameterError(
            f"the invariant's terms leave the float range at scale {d!r}: {exc}"
        ) from exc
    return lhs - rhs


def t_from_chi(chi: float, n: int) -> float:
    """Blend weight of the equivalent arithmetic mixing: n**-n / (chi + n**-n)."""
    if chi < 0.0 or not isfinite(chi):
        raise InvalidParameterError(f"chi must be >= 0 and finite, got {chi!r}")
    _check_n(n)
    nn = float(n) ** (-n)
    return nn / (chi + nn)


def chi_from_t(t: float, n: int) -> float:
    """Inverse of t_from_chi: chi = n**-n * (1 - t) / t, refused where not finite."""
    if not (0.0 < t <= 1.0):
        raise InvalidParameterError(f"t must be in (0, 1], got {t!r}")
    _check_n(n)
    chi = float(n) ** (-n) * (1.0 - t) / t
    if not isfinite(chi):
        raise InvalidParameterError(f"chi = {chi!r} is not finite at t={t!r}")
    return chi


def dynamic_chi(amplification: float, scale: float, reserves: Sequence[float]) -> float:
    """State-tracking leverage chi = A * prod(x) / (D/n)**n; equals A when balanced."""
    StableswapDynamic(amplification, scale)  # checks A and D
    n = len(reserves)
    _check_reserves(n, reserves)
    return amplification * prod(reserves) / (scale / n) ** n


def normalized_components(scale: float, reserves: Sequence[float]) -> tuple[float, float]:
    """(A0, A1) with A0 = sum(x)/D and A1 = (n/D)**n * prod(x); both 1 when balanced."""
    n = len(reserves)
    a0 = sum(reserves) / scale
    a1 = (n / scale) ** n * prod(reserves)
    return a0, a1


def equivalence_check(ss: StableswapParams, reserves: Sequence[float]) -> float:
    """|A0*(1-t) + A1*t - 1| with t = t_from_chi(chi, n).

    Zero exactly when the reserves satisfy the Stableswap invariant: the
    numerical content of the chi <-> t reparametrization.
    """
    _check_reserves(ss.n, reserves)
    t = t_from_chi(ss.chi, ss.n)
    a0, a1 = normalized_components(ss.scale, reserves)
    return abs(a0 * (1.0 - t) + a1 * t - 1.0)


def solve_reserve(ss: StableswapParams, partial: Sequence[float]) -> float:
    """Last reserve putting (partial..., x_n) on the invariant, solved in
    u = x/D, where it reads chi*sum(u) + prod(u) = chi + n**-n with no
    power of D, and is linear in u_n:
    u_n = (chi*(1 - sum(u_p)) + n**-n) / (chi + prod(u_p)), with
    1 - sum(u_p) taken as (D - sum(p))/D by ``fsum``.  So the completion
    scales with D across the float range, and x_n = D*u_n.
    """
    n, d = ss.n, ss.scale
    if len(partial) != n - 1:
        raise InvalidParameterError(f"expected {n - 1} fixed reserves, got {len(partial)}")
    _check_reserves(n - 1, partial)
    try:
        gap = fsum([d, *(-p for p in partial)]) / d
    except OverflowError:  # the partial reserves sum past the float range
        gap = -inf
    den = ss.chi + prod(p / d for p in partial)  # 0 only where chi == 0 and prod underflows
    x = d * ((ss.chi * gap + float(n) ** -n) / den) if den else nan
    if not (isfinite(x) and x > 0.0):
        raise InvalidParameterError(f"no on-surface completion for partial reserves {partial!r}")
    return x
