"""Property tests over random curves, drawn from each test's seed alone
(the ``draws`` fixture of ``conftest.py``)."""

import ast
import os
import subprocess
import sys
from math import inf, isfinite, nextafter
from pathlib import Path

from ammix import (
    Currency,
    CurveParams,
    Family,
    MixSpec,
    Parabolic,
    PowerLaw,
    PriceVector,
    Uniform,
    arbitrage_state,
    check_convexity,
    eval_mixed,
    point_at,
    portfolio_value,
    reduced_value,
    s_of_state,
    spot_rate,
    state_for_x,
    state_for_y,
    swap,
)
from ammix.errors import InsufficientLiquidityError, InvalidParameterError
from ammix.schedules import (
    CONVEXITY_GRID_INSET,
    CONVEXITY_GRID_SIZE,
    CONVEXITY_MARGIN_TOL,
    S_MAX,
    S_MIN,
    schedule_coeffs,
)
from conftest import Reject
import oracle

EPS = sys.float_info.epsilon


def test_spot_rate_finite_and_positive_at_ends_and_anchor(draws):
    """On every curve arbitrage_state accepts (scheduled ones certified convex)."""
    for params, mix in draws(100, lambda d: d.accepted_curve()):
        for state in (point_at(params, mix, S_MIN), point_at(params, mix, S_MAX),
                      params.initial_state):
            rate = spot_rate(params, mix, state)
            assert isfinite(rate) and rate > 0.0, (params, mix, state, rate)


def test_spot_rate_does_not_increase_along_s(draws):
    """Convexity: the rate falls along the curve, up to rounding on curves whose
    rate is nearly constant (measured 2.8e-16 relative over 4,000 examples)."""
    def case(d):
        return (*d.accepted_curve(), d.floats(S_MIN, S_MAX), d.floats(S_MIN, S_MAX))

    for params, mix, s1, s2 in draws(100, case):
        lo, hi = sorted((s1, s2))
        r_lo = spot_rate(params, mix, point_at(params, mix, lo))
        r_hi = spot_rate(params, mix, point_at(params, mix, hi))
        assert r_hi <= r_lo * (1.0 + 1e-12), (params, mix, lo, hi, r_lo, r_hi)


# --- trades and the mirror --------------------------------------------------------


def _inner(d):
    """s in [1e-6, 1 - 1e-6]."""
    return d.floats(1e-6, 1.0 - 1e-6)


def _sale(d):
    """(params, mix, currency, start, post-trade state, output): a sale of
    a fraction in [1e-6, 10] of the currency's reserve, from the curve point
    at s.  Trades beyond the curve's reach, and trades landing within 1e-6
    of an end of s, are rejected.
    """
    params, mix = d.accepted_curve()
    s, currency, frac = _inner(d), d.choice(Currency), d.floats(1e-6, 10.0)
    start = point_at(params, mix, s)
    amount = frac * (start.x if currency is Currency.CUR1 else start.y)
    try:
        post, q = swap(params, mix, start, currency, amount)
    except InsufficientLiquidityError:
        raise Reject
    if not 1e-6 <= s_of_state(params, post) <= 1.0 - 1e-6:
        raise Reject
    return params, mix, currency, start, post, q.output_amount


def test_arithmetic_point_at_is_on_the_curve(draws):
    """The arithmetic scaling is exact to rounding (worst measured |A - 1|
    over 20,000 examples, s near the ends included: 8.9e-16)."""
    # t in the open (0, 1), whose float ends are 5e-324 and 1 - 2**-53
    cases = draws(100, lambda d: (d.curve(), d.floats(5e-324, nextafter(1.0, 0.0)), _inner(d)))
    for params, t, s in cases:
        mix = MixSpec.arithmetic(t)
        assert abs(eval_mixed(params, mix, point_at(params, mix, s)) - 1.0) <= 2e-15, (params, t, s)


def test_swap_lands_on_the_curve(draws):
    """A trade landing at s in [1e-6, 1 - 1e-6] stays on the curve (worst
    measured |A - 1| over 4,000 examples: 7.3e-12)."""
    for params, mix, _, _, post, _ in draws(100, _sale):
        assert abs(eval_mixed(params, mix, post) - 1.0) <= 1e-9, (params, mix, post)


def test_selling_the_output_back_restores_the_reserves(draws):
    """Selling the output back returns the start (worst measured relative
    error over 4,000 examples: 6.3e-7, where one reserve is 1e-6 of the
    curve's scale and the solve's 1e-14 in s shows)."""
    for params, mix, currency, start, post, output in draws(100, _sale):
        back = Currency.CUR2 if currency is Currency.CUR1 else Currency.CUR1
        end, _ = swap(params, mix, post, back, output)
        assert abs(end.x - start.x) <= 1e-5 * start.x, (params, mix, start, end)
        assert abs(end.y - start.y) <= 1e-5 * start.y, (params, mix, start, end)


def test_state_for_y_is_the_mirrored_x_solve(draws):
    """Relabeling x <-> y swaps (a, x0) with (b, y0) and reflects s -> 1 - s,
    which turns a parabola's t(0) = bias into 1 - bias."""
    for params, mix, s in draws(100, lambda d: (*d.accepted_curve(), _inner(d))):
        y = point_at(params, mix, s).y
        schedule = mix.schedule
        if isinstance(schedule, Parabolic):
            schedule = Parabolic(1.0 - schedule.bias, schedule.center)
        mirrored = state_for_x(CurveParams(params.b, params.a, params.y0, params.x0),
                               MixSpec(mix.family, schedule), y)
        got = state_for_y(params, mix, y)
        assert (got.x, got.y) == (mirrored.y, mirrored.x), (params, mix, s)


# --- the portfolio value V(P) = inf { P . X : A(X) = 1 } --------------------------
#
# V is an infimum of linear functions of P, so it is 1-homogeneous and
# concave, and nondecreasing as reserves are never negative (Angeris &
# Chitra 2020, "Improved Price Oracles: Constant Function Market Makers").

def _price(d):
    """A price in [1e-2, 1e2]."""
    return d.floats(1e-2, 1e2)


def test_portfolio_value_is_homogeneous(draws):
    cases = draws(100, lambda d: (*d.accepted_curve(), _price(d), _price(d), d.floats(1e-3, 1e3)))
    for params, mix, p1, p2, lam in cases:
        value = portfolio_value(params, mix, PriceVector(p1, p2))
        scaled = portfolio_value(params, mix, PriceVector(lam * p1, lam * p2))
        assert abs(scaled - lam * value) <= 1e-9 * lam * value, (params, mix, p1, p2, lam)


def test_reduced_value_nondecreasing_and_midpoint_concave(draws):
    for params, mix, r1, r2 in draws(100, lambda d: (*d.accepted_curve(), _price(d), _price(d))):
        lo, hi = sorted((r1, r2))
        u_lo, u_mid, u_hi = (reduced_value(params, mix, r) for r in (lo, 0.5 * (lo + hi), hi))
        tol = 1e-9 * u_hi
        assert u_lo <= u_hi + tol, (params, mix, lo, hi)
        assert u_mid >= 0.5 * (u_lo + u_hi) - tol, (params, mix, lo, hi)


def test_arbitrage_state_is_on_the_curve(draws):
    for params, mix, p1, p2 in draws(100, lambda d: (*d.accepted_curve(), _price(d), _price(d))):
        state = arbitrage_state(params, mix, PriceVector(p1, p2))
        assert abs(eval_mixed(params, mix, state) - 1.0) <= 1e-9, (params, mix, p1, p2)


def _rate_inside(d):
    """(params, mix, r): r is the spot rate at s = 1e-6 + q (1 - 2e-6), q in
    [0, 1], rejected unless strictly inside the curve's range of rates."""
    params, mix = d.accepted_curve()
    r = spot_rate(params, mix, point_at(params, mix, 1e-6 + d.floats(0.0, 1.0) * (1.0 - 2e-6)))
    r_max = spot_rate(params, mix, point_at(params, mix, S_MIN))
    r_min = spot_rate(params, mix, point_at(params, mix, S_MAX))
    if not r_min < r < r_max:
        raise Reject
    return params, mix, r


def test_arbitrage_state_matches_the_rate(draws):
    """The spot rate at the arbitrage state is r, for r inside the curve's range.

    r is the spot rate at s = 1e-6 + q (1 - 2e-6).  The solve places s within
    about 1e-15, so the rate matches within 1e-9 wherever |d log(rate)/ds|
    stays below 1e6; next to the ends, where the rate goes like 1/s or
    1/(1 - s), the solved rate is only as close as 1e-15/s.
    """
    for params, mix, r in draws(100, _rate_inside):
        state = arbitrage_state(params, mix, PriceVector(r, 1.0))
        assert abs(spot_rate(params, mix, state) - r) <= 1e-9 * r, (params, mix, r)


def _certificate_case(d):
    """(params, schedule, grid size, probes).  Half the curves are
    symmetric, (u, v, v, u): s0 is exactly 0.5 on these, and most odd grids
    put a point on it.  Exponents in [0.25, 8] or one of 0.5, 1, 2 and 3;
    grids of 3-9,000 points, odd ones of 3-9,001, or the default size.  A
    parabola leaving [0, 1] is rejected.  The two probes in [0, 1] pick
    grid points by their place on the grid."""
    if d.rng.random() < 0.5:
        params = d.curve()
    else:
        u, v = d.floats(1e-2, 1e2), d.floats(1e-2, 1e2)
        params = CurveParams(u, v, v, u)
    kind = d.rng.randrange(3)
    if kind == 0:
        schedule = Uniform(d.floats(0.0, 1.0))
    elif kind == 1:
        schedule = PowerLaw(d.floats(0.25, 8.0) if d.rng.random() < 0.5
                            else d.choice([0.5, 1.0, 2.0, 3.0]))
    else:
        schedule = Parabolic(d.floats(0.0, 1.0), d.floats(0.0, 1.0))
    grid = d.rng.randrange(3)
    grid_size = (d.integers(3, 9000) if grid == 0 else 2 * d.integers(1, 4500) + 1 if grid == 1
                 else CONVEXITY_GRID_SIZE)
    try:
        schedule_coeffs(schedule, params.s0)
    except InvalidParameterError:  # a parabola leaving [0, 1]
        raise Reject
    return params, schedule, grid_size, (d.floats(0.0, 1.0), d.floats(0.0, 1.0))


# the certificate's budget, in units of eps times the size of a margin's
# terms (``oracle.lam_chain``)
MARGIN_BUDGET = 8.0


def test_array_certificate_matches_decimal_oracle(draws):
    """check_convexity against the 60-digit oracle.

    The skipped points are the grid points at s0 where the oracle has no
    t''.  The reported minimum is the oracle's margin at worst_s within
    MARGIN_BUDGET eps of the size of its terms, and it lies below the
    oracle's margin, within the budget of both sizes, at worst_s's grid
    neighbours, at both ends of the grid and at two drawn grid points.
    """
    worst = 0.0
    for params, schedule, grid_size, probes in draws(200, _certificate_case):
        case = (params, schedule, grid_size)
        report = check_convexity(params, schedule, grid_size)
        coeffs = schedule_coeffs(schedule, params.s0)

        def exact(s):
            return oracle.lam_chain(*coeffs, s, params.alpha, params.beta, params.c, params.s0)

        step = (1.0 - 2.0 * CONVEXITY_GRID_INSET) / (grid_size - 1)
        grid = [CONVEXITY_GRID_INSET + i * step for i in range(grid_size)]
        assert report.grid_size == grid_size, case
        assert report.skipped == sum(exact(s) is None for s in grid if s == params.s0), case
        assert report.passed == (CONVEXITY_MARGIN_TOL <= report.min_margin < inf), case
        assert isfinite(report.min_margin), case  # no drawn schedule makes a NaN margin
        values, sizes = exact(report.worst_s)
        err = oracle.size_errors({"margin": report.min_margin}, values, sizes)["margin"]
        assert err <= MARGIN_BUDGET, (case, err)
        worst = max(worst, err)
        i = grid.index(report.worst_s)
        for j in {0, max(i - 1, 0), min(i + 1, grid_size - 1), grid_size - 1,
                  *(round(probe * (grid_size - 1)) for probe in probes)}:
            chain = exact(grid[j])
            if chain is not None:
                budget = MARGIN_BUDGET * EPS * (chain[1]["margin"] + sizes["margin"])
                assert report.min_margin <= float(chain[0]["margin"]) + budget, (case, grid[j])
    print(f"worst error of min_margin in eps of its size: {worst}")


# --- an oracle for V(P) that does not share the solver ----------------------------
#
# Closed forms where the curve is a line or a calibrated constant product, and
# the envelope identities everywhere: U(r) = V(r, 1) is concave with
# U'(r) = x*(r) and U(r) - r U'(r) = y*(r) at the arbitrage state X*(r)
# (Angeris, Evans & Chitra 2021, "Replicating Market Makers").  The rate is
# drawn as a multiple of the anchor rate a/b.

def _family_ratio_price(d):
    """(params, family, ratio, p2): the rate a multiple in [1e-2, 1e2] of
    a/b, and p2 a price."""
    return d.curve(), d.choice(Family), d.floats(1e-2, 1e2), _price(d)


def test_constant_sum_value_closed_form(draws):
    """At t = 0 every family is the line a x + b y = C: V = C min(p1/a, p2/b).

    Away from the anchor rate the infimum sits at an intercept, and the
    solve returns the end state S_MIN inside it in s, which is worth
    C S_MIN |p1/a - p2/b| more (1e-10 relative at most over 1,500
    random examples).
    """
    for params, family, ratio, p2 in draws(100, _family_ratio_price):
        a, b, c = params.a, params.b, params.c
        p1 = ratio * a / b * p2
        value = portfolio_value(params, MixSpec(family, Uniform(0.0)), PriceVector(p1, p2))
        exact = c * min(p1 / a, p2 / b)
        excess = c * S_MIN * abs(p1 / a - p2 / b)
        assert -1e-15 * exact <= value - exact <= excess + 1e-15 * exact, (params, value, excess)


def test_constant_product_value_closed_form(draws):
    """At t = 1 every family is x^alpha y^beta = x0^alpha y0^beta with
    alpha + beta = 1: V = x0^alpha y0^beta (p1/alpha)^alpha (p2/beta)^beta
    (2.4e-15 relative at most over 1,500 random examples)."""
    for params, family, ratio, p2 in draws(100, _family_ratio_price):
        alpha, beta = params.alpha, params.beta
        p1 = ratio * params.a / params.b * p2
        value = portfolio_value(params, MixSpec(family, Uniform(1.0)), PriceVector(p1, p2))
        exact = (params.x0 ** alpha * params.y0 ** beta
                 * (p1 / alpha) ** alpha * (p2 / beta) ** beta)
        assert abs(value - exact) <= 1e-12 * exact, (params, value, exact)


def test_reduced_value_envelope_identities(draws):
    """U'(r) = x*(r) and U(r) - r U'(r) = y*(r), with U' from the difference
    quotients of U at r +- h, h = 1e-5 r.

    Errors are normalized by U(r)/r = x* + y*/r: where the solve clamps to an
    end, x* is about 5e-11 of the value, and an error relative to it says
    nothing.  The quotients divide U's rounding noise by 1e-5.

    U is concave, so x* lies between the forward and the backward quotient
    everywhere, kinks included.  The central quotient is checked only where
    it estimates U' to second order: not where the two quotients differ by
    more than 1e-3 of the value, as the step then does not resolve U's
    curvature (near-constant-sum stretches), and not on power laws with
    exponent below 2, whose t'' is unbounded at s0, so that U is not smooth
    at r = a/b (a central error of 1e-4 at r = (1 - 1e-5) a/b, measured).
    Over 6,000 random examples the worst errors were 1.3e-7 for the central
    quotient and 9.5e-8 outside the bracket.
    """
    for params, mix, ratio in draws(100, lambda d: (*d.accepted_curve(), d.floats(1e-2, 1e2))):
        r = ratio * params.a / params.b
        h = 1e-5 * r
        u, u_up, u_down = (reduced_value(params, mix, q) for q in (r, r + h, r - h))
        star = arbitrage_state(params, mix, PriceVector(r, 1.0))
        size = star.x + star.y / r
        forward, backward = (u_up - u) / h, (u - u_down) / h
        assert forward - 1e-6 * size <= star.x <= backward + 1e-6 * size, (params, mix, ratio)
        smooth_at_anchor = not (isinstance(mix.schedule, PowerLaw) and mix.schedule.exponent < 2.0)
        if smooth_at_anchor and backward - forward <= 1e-3 * size:
            slope = (u_up - u_down) / (2.0 * h)
            assert abs(slope - star.x) <= 1e-6 * size, (slope, star.x)
            assert abs(u - r * slope - star.y) <= 1e-6 * r * size, (u - r * slope, star.y)


# --- the draws themselves ----------------------------------------------------------

_DRAW_PROBE = """
import random, sys
sys.path[:0] = [{tests!r}, {src!r}]
from conftest import _draws
print(repr(_draws(random.Random("probe"), 30, lambda d: (
    d.accepted_curve(), d.floats(1e-6, 1.0), d.any_float(), d.integers(1, 300)))))
"""


def test_drawn_cases_depend_on_the_seed_alone(tmp_path):
    """The same seed draws the same cases in a fresh interpreter with
    another hash seed, and run from another directory."""
    tests = Path(__file__).resolve().parent
    probe = _DRAW_PROBE.format(tests=str(tests), src=str(tests.parent / "src"))
    outputs = {
        subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True,
                       cwd=cwd, env={**os.environ, "PYTHONHASHSEED": hash_seed}).stdout
        for cwd, hash_seed in ((tests, "0"), (tmp_path, "4242"))
    }
    assert len(outputs) == 1 and "CurveParams" in outputs.pop()


def test_no_test_module_imports_hypothesis():
    """Every randomized test draws through ``conftest.draws``: Hypothesis
    mixes constants mined from the imported modules into its draws, so its
    cases change with the code under test."""
    found = []
    for path in sorted(Path(__file__).resolve().parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            names = ([alias.name for alias in node.names] if isinstance(node, ast.Import)
                     else [node.module or ""] if isinstance(node, ast.ImportFrom) else [])
            found += [(path.name, name) for name in names if name.split(".")[0] == "hypothesis"]
    assert found == []
