import math
import random
import re
import sys
from fractions import Fraction

import pytest

from ammix import (
    CurveParams,
    MarketState,
    MixSpec,
    StableswapParams,
    chi_from_t,
    dynamic_chi,
    equivalence_check,
    eval_mixed,
    invariant_residual,
    stableswap_dynamic_residual,
    t_from_chi,
)
from ammix.errors import InvalidParameterError
from ammix.stableswap import normalized_components, solve_reserve
import oracle


def test_residual_balanced_two():
    for chi in (0.7, 0.0):  # chi = 0 is the constant-product pool
        assert invariant_residual(StableswapParams(n=2, scale=2.0, chi=chi), [1.0, 1.0]) == 0.0


def test_residual_balanced_three():
    ss = StableswapParams(n=3, scale=3.0, chi=0.3)
    assert invariant_residual(ss, [1.0, 1.0, 1.0]) == 0.0


def test_residual_root_solved_point():
    """The completion is the exact rational root of the invariant on the
    same floats, within 8 eps of the size of the closed form's terms
    (``oracle.stableswap_completion``): scales 1e-8 to 1e8; near-empty
    completions of 5.6e-13 and 5.6e-15 at D = 1; n = 3; and n = 4 with x4
    near 4e-6*D, where the numerator's two terms cancel: 200 ULPs of x4,
    inside the budget.
    What leaves no positive and finite completion is refused."""
    for n, scale, chi, partial in ((2, 2.0, 0.25, [1.5]), (2, 1e-8, 0.25, [5e-9]),
                                   (2, 1e8, 0.25, [5e7]), (2, 1.0, 0.25, [1.999999999995]),
                                   (2, 1.0, 0.25, [1.99999999999995]), (3, 3.0, 10.0, [0.7, 1.9]),
                                   (4, 1.0, 0.3, [0.3, 0.3, 0.41301633771372814])):
        ss = StableswapParams(n=n, scale=scale, chi=chi)
        x = solve_reserve(ss, partial)
        root, size = oracle.stableswap_completion(n, scale, chi, partial)
        assert abs(Fraction(x) - root) <= 8 * sys.float_info.epsilon * size, (n, scale, partial)
        assert abs(invariant_residual(ss, [*partial, x])) <= 1e-10 * scale**n
    with pytest.raises(InvalidParameterError, match=re.escape("expected 1 fixed reserves, got 2")):
        solve_reserve(StableswapParams(n=2, scale=2.0, chi=0.25), [0.5, 0.5])
    ss = StableswapParams(n=2, scale=1.0, chi=0.25)
    for bad in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(InvalidParameterError, match="reserves must be positive and finite"):
            solve_reserve(ss, [bad])
    for partial in ([2.0], [2.5]):  # x2 = 0 exactly, and x2 < 0
        with pytest.raises(InvalidParameterError, match=re.escape(
                f"no on-surface completion for partial reserves {partial!r}")):
            solve_reserve(ss, partial)


@pytest.mark.parametrize("n, scale, chi, partial", [
    (2, 1e200, 0.25, [5e199]),  # D**(n-1) and (D/n)**n overflowed: OverflowError
    (2, 1e-200, 0.0, [1e-200]),  # (D/n)**n underflowed to 0: refused
    (2, 1e-160, 0.25, [1e-160]),  # a subnormal (D/n)**n: 1.99998e-161 for 2e-161
    (2, 1e-160, 0.0, [1e-160]),  # 2.49997e-161 for 2.5e-161
    (3, 3e300, 10.0, [0.7e300, 1.9e300]),
    (4, 1e-300, 0.3, [0.3e-300, 0.3e-300, 0.41301633771372814e-300]),
])
def test_completion_across_the_float_range(n, scale, chi, partial):
    """The completion is solved in u = x/D, with no power of D, so it stays
    within the budget of the exact root at any scale, and at the scale
    times a power of 2 it is the completion times that power, exactly."""
    x = solve_reserve(StableswapParams(n=n, scale=scale, chi=chi), partial)
    root, size = oracle.stableswap_completion(n, scale, chi, partial)
    assert abs(Fraction(x) - root) <= 8 * sys.float_info.epsilon * size, (n, scale, partial)
    factors = [f for f in (2.0**100, 2.0**-100) if 1e-290 < scale * f < 1e290]
    for f in factors:
        scaled = StableswapParams(n=n, scale=scale * f, chi=chi)
        assert solve_reserve(scaled, [p * f for p in partial]) == x * f, (n, scale, f)
    assert factors


def test_past_the_float_range_is_refused():
    """A power of D past the float range in the residual, and partial
    reserves whose sum is (fsum raised OverflowError in D - sum(p))."""
    ss = StableswapParams(n=2, scale=1e200, chi=0.25)
    with pytest.raises(InvalidParameterError, match="the invariant's terms leave the float "
                                                    "range at scale 1e[+]200"):
        invariant_residual(ss, [5e199, 5e199])
    with pytest.raises(InvalidParameterError, match="no on-surface completion"):
        solve_reserve(StableswapParams(n=3, scale=1e308, chi=1.0), [1.7e308, 1.7e308])


def test_residual_dimension_mismatch():
    ss = StableswapParams(n=3, scale=3.0, chi=0.5)
    with pytest.raises(InvalidParameterError):
        invariant_residual(ss, [1.0, 1.0])
    for x in (0.0, -1.0, math.inf):
        with pytest.raises(InvalidParameterError, match="reserves must be positive and finite"):
            invariant_residual(ss, [1.0, 1.0, x])


@pytest.mark.parametrize("scale, chi, error", [
    (0.0, 0.25, "scale must be positive and finite, got 0.0"),
    (-1.0, 0.25, "scale must be positive and finite, got -1.0"),
    (math.inf, 0.25, "scale must be positive and finite, got inf"),
    (2.0, -1.0, "chi must be >= 0, got -1.0"),
    (2.0, math.inf, "chi must be >= 0, got inf"),
])
def test_pool_constants_refused(scale, chi, error):
    with pytest.raises(InvalidParameterError, match=re.escape(error)):
        StableswapParams(n=2, scale=scale, chi=chi)


def test_t_from_chi_endpoints():
    assert t_from_chi(0.0, 2) == 1.0
    assert t_from_chi(0.25, 2) == pytest.approx(0.5, rel=1e-15)
    assert t_from_chi(1e6, 2) == pytest.approx(2.5e-7, rel=1e-6)


def test_t_from_chi_monotone_and_bounded():
    chis = [0.0, 1e-3, 0.1, 0.25, 1.0, 10.0, 1e4]
    ts = [t_from_chi(c, 2) for c in chis]
    assert all(0.0 < t <= 1.0 for t in ts)
    assert all(a > b for a, b in zip(ts, ts[1:]))


def test_chi_round_trip():
    for n in (2, 3):
        for chi in (0.01, 0.25, 1.0, 10.0, 1e4):
            assert chi_from_t(t_from_chi(chi, n), n) == pytest.approx(chi, rel=1e-12)
    assert chi_from_t(1.0, 2) == 0.0
    for t in (0.0, 1.0000005):
        with pytest.raises(InvalidParameterError, match=re.escape(f"t must be in (0, 1], got {t}")):
            chi_from_t(t, 2)


def test_chi_rejects_negative():
    with pytest.raises(InvalidParameterError):
        t_from_chi(-1.0, 2)


@pytest.mark.parametrize("n", [1, 2.5, 2.0, "3", None, True, False])
def test_currency_count_must_be_an_integer_of_at_least_two(n):
    """n = "3" raised a bare TypeError, and n = 2.5 built a pool and gave
    t_from_chi(1.0, 2.5) = 0.0919: each now refuses n by name."""
    error = re.escape(f"n must be an integer >= 2, got {n!r}")
    with pytest.raises(InvalidParameterError, match=error):
        StableswapParams(n=n, scale=2.0, chi=0.25)
    with pytest.raises(InvalidParameterError, match=error):
        t_from_chi(1.0, n)
    with pytest.raises(InvalidParameterError, match=error):
        chi_from_t(0.5, n)


def test_dynamic_chi_balanced():
    assert dynamic_chi(5.0, 2.0, [1.0, 1.0]) == 5.0


def test_dynamic_chi_product_invariant():
    assert dynamic_chi(1.0, 2.0, [2.0, 0.5]) == 1.0


def test_dynamic_chi_scaled():
    assert dynamic_chi(1.0, 2.0, [2.0, 2.0]) == pytest.approx(4.0, rel=1e-15)


@pytest.mark.parametrize("amp, scale, error", [
    (True, 2.0, "amplification must be a float, got True"),
    (1.0, False, "scale must be a float, got False"),
    (0.0, 2.0, "amplification must be > 0, got 0.0"),
    (1.0, math.inf, "scale must be > 0, got inf"),
])
def test_dynamic_chi_refuses_what_the_dynamic_blend_refuses(amp, scale, error):
    with pytest.raises(InvalidParameterError, match=re.escape(error)):
        dynamic_chi(amp, scale, [1.0, 1.0])


def test_equivalence_balanced():
    ss = StableswapParams(n=2, scale=2.0, chi=0.25)
    assert equivalence_check(ss, [1.0, 1.0]) == 0.0  # scale/n of each currency


def test_equivalence_on_surface():
    ss = StableswapParams(n=2, scale=2.0, chi=0.25)
    y = solve_reserve(ss, [1.5])
    assert equivalence_check(ss, [1.5, y]) <= 1e-9


def test_equivalence_off_surface():
    ss = StableswapParams(n=2, scale=2.0, chi=0.25)
    assert equivalence_check(ss, [1.7, 1.7]) > 1e-3
    assert abs(invariant_residual(ss, [1.7, 1.7])) > 1e-3


def test_chi_substitution_gives_reciprocal_product_curve():
    # substituting the state-tracking chi into the invariant collapses it to
    # A*n**n*sum(x) + D = A*D*n**n + D**(n+1)/(n**n*prod(x)) on the same states
    rng = random.Random(13)
    for n in (2, 3):
        amp, scale = 1.3, 2.0
        for _ in range(20):
            reserves = [scale / n * rng.uniform(0.4, 1.8) for _ in range(n)]
            chi = dynamic_chi(amp, scale, reserves)
            ss = StableswapParams(n=n, scale=scale, chi=chi)
            res = invariant_residual(ss, reserves)
            prod = math.prod(reserves)
            alt = (amp * n**n * sum(reserves) + scale
                   - amp * scale * n**n
                   - scale ** (n + 1) / (n**n * prod))
            # the two residual forms differ by the positive factor prod(x)/D
            assert res == pytest.approx(alt * prod / scale, rel=1e-9, abs=1e-12)


def test_section_four_homotopy_form_matches_residual():
    # states on the dynamic curve satisfy the blended form
    # D(1-t)/(x+y) + D t/(2 sqrt(xy)) = 1 with t = D^2/(16 A x y + D^2)
    amp, scale = 1.0, 2.0
    half = scale / 2
    params = CurveParams(1.0, 1.0, half, half)
    from ammix import StableswapDynamic
    mix = MixSpec.scheduled(StableswapDynamic(amp, scale))
    for x in (0.4, 0.8, 1.0, 1.6, 2.2):
        lo, hi = 1e-9, 10.0 * scale
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if stableswap_dynamic_residual(amp, scale, MarketState(x, mid)) > 0:
                lo = mid
            else:
                hi = mid
        state = MarketState(x, 0.5 * (lo + hi))
        assert abs(stableswap_dynamic_residual(amp, scale, state)) <= 1e-9 * scale**2
        assert eval_mixed(params, mix, state) == pytest.approx(1.0, abs=1e-9)


def test_normalized_components_balanced():
    a0, a1 = normalized_components(2.0, [1.0, 1.0])
    assert (a0, a1) == (1.0, 1.0)
    a0, a1 = normalized_components(3.0, [1.0, 1.0, 1.0])
    assert (a0, a1) == (1.0, 1.0)
