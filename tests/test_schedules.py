import math
import random
import re
import tracemalloc
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from ammix import (
    CurveParams,
    MarketState,
    MixSpec,
    Parabolic,
    PowerLaw,
    StableswapDynamic,
    Uniform,
    check_convexity,
    curve_derivatives,
    lambda_derivs,
    stableswap_dynamic_residual,
    stableswap_dynamic_y,
)
from ammix import _kernels
from ammix import schedules
from ammix._kernels.arrays import lam_chain_array
from ammix.core import market
from ammix.cli import run_command
from ammix.errors import (
    ConvergenceError,
    InvalidParameterError,
    NonDifferentiablePointError,
    UnsupportedScheduleError,
)
from ammix.schedules import CONVEXITY_GRID_INSET, ON_CURVE_TOL, schedule_coeffs

# --- schedule construction ---------------------------------------------------

def test_uniform_range_checked():
    with pytest.raises(InvalidParameterError):
        Uniform(1.5)
    with pytest.raises(InvalidParameterError):
        Uniform(-0.1)


def test_powerlaw_rejects_zero_exponent():
    with pytest.raises(InvalidParameterError):
        PowerLaw(0.0)
    with pytest.raises(InvalidParameterError):
        PowerLaw(-1.0)


@pytest.mark.parametrize("bias, center, error", [
    (-0.1, 0.5, "bias must be in [0, 1], got -0.1"),
    (math.nan, 0.5, "bias must be in [0, 1], got nan"),
    (0.5, 1.5, "center must be in [0, 1], got 1.5"),
    (0.5, math.inf, "center must be in [0, 1], got inf"),
])
def test_parabolic_refuses_a_pin_outside_the_unit_interval(bias, center, error):
    with pytest.raises(InvalidParameterError, match=re.escape(error)):
        Parabolic(bias=bias, center=center)


def test_parabolic_range_vetted_against_curve(unit_params):
    # bias 0.9 with a low center dips the vertex below zero on [0, 1]
    bad = Parabolic(bias=0.95, center=0.01)
    with pytest.raises(InvalidParameterError):
        schedule_coeffs(bad, unit_params.s0)
    # s0 = 1 - 3e-9: c2 and c1, over s0*(1 - s0), round so that t(S_MAX)
    # misses its pin 1 - bias = 0 by 3e-9, with the vertex at s = 1
    skewed = CurveParams(71.98636318447703, 65.61502859272154, 0.30390023567803764, 1e-09)
    with pytest.raises(InvalidParameterError, match=re.escape("t(1) = -2.99931e-09")):
        market(skewed, MixSpec.scheduled(Parabolic(bias=1.0, center=0.0)))


# --- t(s) and its derivatives: the kernels on schedule_coeffs -----------------

def _t_chain(schedule, params, s):
    """(t, t', t'') of a schedule on a curve as floats, and whether t'' is
    singular there: ``sched_chain_array`` at one s, on the schedule's
    kernel encoding at the curve's s0."""
    with np.errstate(all="ignore"):
        t, tp, tpp, singular = _kernels.sched_chain_array(
            *schedule_coeffs(schedule, params.s0), np.float64(s), params.s0)
    return float(t), float(tp), float(tpp), bool(singular)


def _t_first(schedule, params, s):
    """(t, t') of a schedule on a curve, from ``sched_first``."""
    return _kernels.sched_first(*schedule_coeffs(schedule, params.s0), s, params.s0)


def test_uniform_schedule_chain(unit_params):
    for s in (0.1, 0.5, 0.9):
        assert _t_chain(Uniform(0.3), unit_params, s) == (0.3, 0.0, 0.0, False)


def test_powerlaw_encodes_its_scale_as_q1():
    # the kernels read M = max(s0, 1 - s0) from q1 instead of deriving it
    rng = random.Random(1617)
    for s0 in [0.5, 0.5000001, 0.25, 0.75, 1e-12, 1.0 - 1e-12] + [rng.random() for _ in range(200)]:
        k = rng.uniform(0.1, 8.0)
        assert schedule_coeffs(PowerLaw(k), s0) == (1, k, max(s0, 1.0 - s0), 0.0), s0


def test_powerlaw_singularities(unit_params):
    s0 = unit_params.s0
    for k in (0.5, 1.0, 1.99):
        assert _t_chain(PowerLaw(k), unit_params, s0)[3]
        message = f"power-law schedule with exponent {k!r} is singular at s0"
        with pytest.raises(NonDifferentiablePointError, match=re.escape(message)):
            lambda_derivs(unit_params, PowerLaw(k), s0)
    # two derivatives exist from exponent 2 up
    assert _t_chain(PowerLaw(2.0), unit_params, s0) == (0.0, 0.0, 8.0, False)
    assert _t_chain(PowerLaw(4.0), unit_params, s0) == (0.0, 0.0, 0.0, False)
    # first derivative exists down to (but not at) exponent 1
    assert _t_first(PowerLaw(1.5), unit_params, s0) == (0.0, 0.0)
    assert _t_first(PowerLaw(math.nextafter(1.0, 2.0)), unit_params, s0) == (0.0, 0.0)
    with pytest.raises(NonDifferentiablePointError):
        _t_first(PowerLaw(1.0), unit_params, s0)


def test_parabolic_pinned_values(unit_params):
    s0 = unit_params.s0
    # evaluate the quadratic at the pinned abscissas via its coefficients
    from ammix.schedules import parabolic_coefficients
    for bias, center in ((0.2, 0.5), (0.5, 1.0)):  # the second's top is 1.0 exactly
        c2, c1, c0 = parabolic_coefficients(Parabolic(bias=bias, center=center), s0)
        poly = lambda s: (c2 * s + c1) * s + c0
        assert poly(0.0) == pytest.approx(bias, abs=1e-12)
        assert poly(1.0) == pytest.approx(1.0 - bias, abs=1e-12)
        assert poly(s0) == pytest.approx(center, abs=1e-12)


def test_parabolic_of_pool_curve(pool_params):
    from ammix.schedules import parabolic_coefficients
    c2, c1, c0 = parabolic_coefficients(Parabolic(bias=0.2, center=0.5), pool_params.s0)
    poly = lambda s: (c2 * s + c1) * s + c0
    assert poly(0.0) == pytest.approx(0.2, abs=1e-12)
    assert poly(1.0) == pytest.approx(0.8, abs=1e-12)
    assert poly(pool_params.s0) == pytest.approx(0.5, abs=1e-12)


def test_dynamic_schedule_rejected_by_schedule_coeffs(unit_params):
    with pytest.raises(UnsupportedScheduleError):
        schedule_coeffs(StableswapDynamic(1.0, 2.0), unit_params.s0)


def test_schedule_range_on_unit_interval(unit_params, pool_params):
    # every constructible schedule keeps t within [0, 1] across the curve
    schedules = [Uniform(0.4), PowerLaw(1.0), PowerLaw(2.0), PowerLaw(8.0),
                 Parabolic(bias=0.2, center=0.5), Parabolic(bias=0.8, center=0.5)]
    for params in (unit_params, pool_params):
        for sched in schedules:
            for i in range(101):
                s = max(1e-12, min(1 - 1e-12, i / 100))
                if abs(s - params.s0) < 1e-9 and isinstance(sched, PowerLaw):
                    continue
                t = _t_chain(sched, params, s)[0]
                assert -1e-12 <= t <= 1.0 + 1e-12


# --- lambda_derivs ----------------------------------------------------------

def test_lambda_derivs_uniform_at_anchor(unit_params):
    derivs = lambda_derivs(unit_params, Uniform(0.37), unit_params.s0)
    assert derivs[1] == pytest.approx(0.0, abs=1e-12)
    assert [type(v) for v in derivs] == [float] * 3


# --- curve_derivatives ------------------------------------------------------

def test_curve_slope_at_anchor(unit_params, pool_params):
    for params in (unit_params, pool_params, CurveParams(1.0, 1.0, 0.25, 0.25)):  # x'(s) below 1
        for t in (0.0, 0.3, 0.7, 1.0):
            dy_dx, _ = curve_derivatives(params, Uniform(t), params.s0)
            assert dy_dx == pytest.approx(-params.a / params.b, rel=1e-9)


def test_curve_csmm_is_line(unit_params):
    for s in (0.2, 0.5, 0.8):
        dy_dx, d2 = curve_derivatives(unit_params, Uniform(0.0), s)
        assert dy_dx == pytest.approx(-1.0, rel=1e-12)
        assert d2 == pytest.approx(0.0, abs=1e-12)


def test_curve_cpmm_second_derivative(unit_params):
    # y = 1/x has y'' = 2/x^3: 2 at x = 1 and 0.25 at x = 2 (s = 0.8)
    for s, want in ((0.5, 2.0), (0.8, 0.25)):
        assert curve_derivatives(unit_params, Uniform(1.0), s)[1] == pytest.approx(want, rel=1e-10)


def test_slope_negative_everywhere(pool_params):
    for sched in (Uniform(0.4), PowerLaw(4.0)):
        for i in range(1, 20):
            s = i / 20
            dy_dx, _ = curve_derivatives(pool_params, sched, s)
            assert dy_dx < 0.0


# --- check_convexity --------------------------------------------------------

def test_cpmm_convex_with_positive_margin(unit_params):
    report = check_convexity(unit_params, Uniform(1.0))
    assert report.passed
    assert report.min_margin > 0.0


def test_csmm_margin_zero(unit_params):
    report = check_convexity(unit_params, Uniform(0.0))
    assert report.passed
    assert report.min_margin == pytest.approx(0.0, abs=1e-15)


def test_convexity_report_fields(unit_params):
    report = check_convexity(unit_params, PowerLaw(1.0), grid_size=101)
    assert report.grid_size == 101
    assert math.isfinite(report.min_margin)
    with pytest.raises(InvalidParameterError):
        check_convexity(unit_params, Uniform(0.5), grid_size=2)


def test_convexity_without_a_sampled_margin_fails(unit_params):
    # t'' = k(k-1)/M^2 * u^(k-2) is inf*0 at every grid point, so every margin
    # is NaN; a certificate that sampled nothing must not pass
    report = check_convexity(unit_params, PowerLaw(1e300), grid_size=30)
    assert (report.passed, report.min_margin, report.skipped) == (False, math.inf, 0)
    assert math.isnan(report.worst_s)


def test_convexity_skips_singular_points(unit_params):
    # exponent below 2 is singular at s0 = 0.5, which an odd grid hits exactly
    report = check_convexity(unit_params, PowerLaw(1.0), grid_size=10_001)
    assert report.skipped >= 1
    assert report.passed


@pytest.fixture
def kernel_spy(monkeypatch):
    """Records the s arrays check_convexity passes to the array kernel.

    ``spy.nan_at`` (a set of s values) makes the kernel return a NaN
    lam at those points.
    """
    from ammix import _kernels

    spy = SimpleNamespace(grids=[], nan_at=set())

    def kernel(kind, q0, q1, q2, s, *curve):
        spy.grids.append(s.copy())
        lam, lamp, lampp, singular = lam_chain_array(kind, q0, q1, q2, s, *curve)
        lam[np.isin(s, list(spy.nan_at))] = math.nan
        return lam, lamp, lampp, singular

    monkeypatch.setattr(_kernels, "lam_chain_array", kernel)
    return spy


@pytest.mark.parametrize("grid_size", [3, 4096, 4097, 10_001])
def test_convexity_grid_points_exact(unit_params, kernel_spy, grid_size):
    # every block together covers lo + i*step, i = 0..grid_size-1, as floats
    report = check_convexity(unit_params, PowerLaw(3.0), grid_size=grid_size)
    lo = CONVEXITY_GRID_INSET
    step = (1.0 - 2.0 * CONVEXITY_GRID_INSET) / (grid_size - 1)
    assert np.concatenate(kernel_spy.grids).tolist() == [lo + i * step for i in range(grid_size)]
    assert report.grid_size == grid_size


def test_convexity_ignores_nan_margins(pool_params, kernel_spy):
    schedule = PowerLaw(3.0)
    clean = check_convexity(pool_params, schedule, grid_size=10_001)
    # a NaN at the worst point drops that point only, not the rest of its block
    kernel_spy.nan_at = {clean.worst_s}
    kernel_spy.grids.clear()
    report = check_convexity(pool_params, schedule, grid_size=10_001)
    s = np.concatenate(kernel_spy.grids)
    lam, lamp, lampp, _ = lam_chain_array(*schedule_coeffs(schedule, pool_params.s0), s,
                                          *pool_params._curve)
    margin = lam * lampp - 2.0 * lamp * lamp
    margin[s == clean.worst_s] = math.inf
    assert (report.min_margin, report.worst_s) == (margin.min(), s[margin.argmin()])
    assert report.min_margin > clean.min_margin
    assert report.skipped == 0


def test_convexity_memory_bounded_on_large_grid(unit_params):
    # the grid is evaluated in fixed-size blocks; one pass over a million
    # points at once would hold over 100 MB of temporaries
    tracemalloc.start()
    try:
        report = check_convexity(unit_params, PowerLaw(0.5), grid_size=1_000_001)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.grid_size == 1_000_001
    assert peak < 16 * 2**20


def test_convexity_cli_raises_no_warning(capsys):
    # the singular point at s0 divides by zero inside the array kernel
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run_command(["convexity", "--schedule", "powerlaw", "--k", "0.5"])
    captured = capsys.readouterr()
    assert code == 0 and captured.out
    assert captured.err == ""


# --- stableswap_dynamic_residual and the y-solve on it -----------------------------------------

def test_dynamic_residual_balanced():
    assert stableswap_dynamic_residual(1.0, 2.0, MarketState(1.0, 1.0)) == 0.0


def test_dynamic_residual_off_curve():
    assert abs(stableswap_dynamic_residual(1.0, 2.0, MarketState(2.0, 2.0))) > 1e-3


@pytest.mark.parametrize("amp, scale", [
    (math.nan, 2.0), (math.inf, 2.0), (-math.inf, 2.0), (True, 2.0),
    (1.0, math.nan), (1.0, math.inf), (1.0, -math.inf), (1.0, False),
])
def test_dynamic_residual_refuses_non_finite_parameters(amp, scale):
    # StableswapDynamic's refusals; unchecked, a non-finite value gives a NaN
    # residual and a boolean runs as 1 or 0
    name, value = ("amplification", amp) if scale == 2.0 else ("scale", scale)
    must = "a float" if isinstance(value, bool) else "> 0"
    message = f"{name} must be {must}, got {value!r}"
    with pytest.raises(InvalidParameterError, match=re.escape(message)):
        stableswap_dynamic_residual(amp, scale, MarketState(1.0, 1.0))


def test_dynamic_residual_root_solved():
    # the y-solve at fixed x = 1.5; the residual itself is the oracle
    amp, scale, x = 1.0, 2.0, 1.5
    y = stableswap_dynamic_y(amp, scale, x)
    assert abs(stableswap_dynamic_residual(amp, scale, MarketState(x, y))) <= 1e-9 * scale**2


def _reference_dynamic_y(amp, scale, x):
    # the y-solve's bisection before it ran on the unchecked residual:
    # a MarketState and the constant checks at every halving
    def below(y):
        return stableswap_dynamic_residual(amp, scale, MarketState(x, y)) > 0.0

    hi = 4.0 * scale
    while below(hi):
        hi *= 2.0
    return schedules._bisect(below, 1e-12 * scale, hi, rtol=1e-15)


def test_dynamic_y_solve_matches_the_checked_bisection():
    rng = random.Random(41)
    for _ in range(60):
        amp, scale = 10 ** rng.uniform(-1, 3), 10 ** rng.uniform(-3, 6)
        x = 0.5 * scale * rng.uniform(0.2, 2.5)
        assert stableswap_dynamic_y(amp, scale, x) == _reference_dynamic_y(amp, scale, x)
    # y = 26 > 4*D: the bracket's top doubles twice
    assert stableswap_dynamic_y(1.0, 2.0, 0.01) == _reference_dynamic_y(1.0, 2.0, 0.01)


def test_dynamic_y_solve_raises_its_bracket_past_the_first_top():
    """Near the x axis the curve's y lies above the first top 4*D = 8, so
    the top doubles until it brackets the root, up to the largest float.
    Here y is about 0.25/x: 1.25e13*D at x = 1e-14, 0.99 of the largest
    float at x = 1.4e-309, and past it at x = 1e-310."""
    y = stableswap_dynamic_y(1.0, 2.0, 0.01)
    assert y == pytest.approx(26.01455, rel=1e-6) and y > 8.0
    for x in (0.01, 1e-14, 1.4e-309):
        y = stableswap_dynamic_y(1.0, 2.0, x)
        residual = stableswap_dynamic_residual(1.0, 2.0, MarketState(x, y))
        assert abs(residual) <= ON_CURVE_TOL * (16.0 * x * y + 4.0), (x, y, residual)
    with pytest.raises(InvalidParameterError,
                       match=re.escape("the curve's y at x=1e-310 lies above the largest float")):
        stableswap_dynamic_y(1.0, 2.0, 1e-310)


@pytest.mark.parametrize("args, error", [
    ((math.nan, 2.0, 1.0), "amplification must be > 0, got nan"),
    ((1.0, 0.0, 1.0), "scale must be > 0, got 0.0"),
    ((1.0, 2.0, 0.0), "reserves must be positive and finite, got (0.0, 8.0)"),
    ((1.0, 2.0, math.inf), "reserves must be positive and finite, got (inf, 8.0)"),
    ((1.0, 1e200, 1e199), "the curve's terms leave the float range at x=1e+199 (OverflowError)"),
    ((1e300, 1.0, 1.25), "no y on the curve at x=1.25: the solve ends at y="),
    # residual -1.0e-10 against terms of size 16*A*x*y + D**2 = 1.16e-10
    ((1e-3, 1e-5, 1e8), "no y on the curve at x=100000000.0: the solve ends at y="),
    # the curve's y, D**2/4x = 2.5e-401, lies below the float range; the
    # residual and its size both underflow to 0.0 at the bracket's bottom
    ((1e-200, 1e-200, 1.0), "no y on the curve at x=1.0: the solve ends at y=1.0000000000000003e-212"
                            " with residual 0.0 against terms of size 0.0"),
], ids=["nan-amplification", "zero-scale", "zero-x", "infinite-x", "overflow", "off-curve",
        "off-curve-small-d", "underflow"])
def test_dynamic_y_solve_refusals(args, error):
    with pytest.raises(InvalidParameterError) as info:
        stableswap_dynamic_y(*args)
    assert str(info.value).startswith(error)


def test_dynamic_curve_not_any_uniform_homotopy():
    # no single uniform blend value reproduces the dynamic curve
    from ammix import eval_mixed
    amp, scale = 1.0, 2.0
    params = CurveParams(1.0, 1.0, scale / 2, scale / 2)
    xs = [0.3, 0.5, 0.8, 1.0, 1.3, 1.8, 2.4]
    states = [MarketState(x, stableswap_dynamic_y(amp, scale, x)) for x in xs]
    for i in range(1, 20):
        t = i / 20
        mix = MixSpec.homotopy(t)
        worst = max(abs(eval_mixed(params, mix, st) - 1.0) for st in states)
        assert worst > 1e-3, t


def test_bisect_raises_when_halvings_run_out(monkeypatch):
    # [0, 1] narrows to 1e-12 after 40 halvings
    root = schedules._bisect(lambda x: x < 0.3, 0.0, 1.0, atol=1e-12)
    assert abs(root - 0.3) <= 1e-12
    # a root at the top: [0, 4] narrows to rtol*hi = 4e-15 after 50 halvings
    assert schedules._bisect(lambda x: True, 0.0, 4.0, rtol=1e-15) == 4.0 - 2.0**-49
    # a bracket exactly atol wide stops, whichever end moved last
    monkeypatch.setattr(schedules, "_BISECT_HALVINGS", 40)
    assert schedules._bisect(lambda x: True, 0.0, 1.0, atol=2.0**-40) == 1.0 - 2.0**-41
    assert schedules._bisect(lambda x: False, 0.0, 1.0, atol=2.0**-40) == 2.0**-41
    monkeypatch.setattr(schedules, "_BISECT_HALVINGS", 39)
    with pytest.raises(ConvergenceError, match="in 39 halvings"):
        schedules._bisect(lambda x: x < 0.3, 0.0, 1.0, atol=1e-12)


def _lambda_replay(h, target, start, lo, hi, atol):
    # _regula_falsi's replay before _bisect took a known bracket: one
    # predicate call per halving, h only inside (lo, hi)
    return schedules._bisect(lambda mid: mid <= lo or (mid < hi and h(mid) > target),
                             *start, atol=atol)


def test_bisect_known_bracket_matches_lambda_replay():
    """The same s and the same h calls as the predicate it replaced, for
    brackets from 1e-16 wide to the whole start range, a rate with noise at
    rounding level (not monotone) included."""
    rng = random.Random(2024)
    start = (schedules.S_MIN, schedules.S_MAX)
    evaluated = 0
    for i in range(400):
        root = 10 ** rng.uniform(-11, 0) if i % 2 else 1.0 - 10 ** rng.uniform(-11, -0.3)
        width = 10 ** rng.uniform(-16, 0)
        lo = max(start[0], root - width * rng.random())
        hi = min(start[1], lo + width)
        noise = 1e-15 * (i % 3)

        def h(s, calls):
            calls.append(s)
            return (1.0 - s) / s * (1.0 + noise * math.sin(1e15 * s))

        target = (1.0 - root) / root
        old_calls, new_calls = [], []
        want = _lambda_replay(lambda s: h(s, old_calls), target, start, lo, hi, 1e-15)
        got = schedules._bisect(lambda s: h(s, new_calls) > target, *start, atol=1e-15,
                                known=(lo, hi))
        assert got == want, (root, lo, hi)
        assert new_calls == old_calls
        assert all(lo < s < hi for s in new_calls)
        evaluated += len(new_calls)
    assert evaluated > 400
