"""The kernels ``ammix._kernels`` binds, and their references: the fused
pure kernels must match the composition of their helpers bit for bit; the
arithmetic scaling, the spot rates, the array chain kernel and the
schedule's t, t' and t'' must stay within a budget of the 60-digit oracle
in ``oracle.py``; and the slope of lam and the homotopy's gradient must
match central differences."""

import ast
import random
import re
import sys
from decimal import Decimal, localcontext
from math import exp, expm1, nextafter, ulp
from pathlib import Path

import numpy as np
import pytest

import ammix
import ammix._kernels as selector
from ammix import MixSpec, Parabolic, PowerLaw, Uniform, point_at
from ammix import core
from ammix._kernels import arrays, pure
from ammix.core import CurveParams, _check_reserves, market
from ammix.errors import (
    AmmixError,
    ConvergenceError,
    DegenerateGradientError,
    InvalidParameterError,
    NonDifferentiablePointError,
    ScheduleRangeError,
)
from ammix.schedules import S_MAX, S_MIN, schedule_coeffs
from conftest import Reject
import oracle


def _random_curves(n, seed):
    rng = random.Random(seed)
    curves = []
    for _ in range(n):
        a = rng.uniform(0.3, 3.0)
        b = rng.uniform(0.3, 3.0)
        x0 = rng.uniform(0.5, 4000.0)
        y0 = rng.uniform(0.5, 4000.0)
        c = a * x0 + b * y0
        alpha = a * x0 / c
        curves.append((a, b, x0, y0, alpha, 1.0 - alpha))
    return curves


def _constants(a, b, x0, y0, alpha, beta):
    """The eight constants the kernels take, derived here rather than by
    ``CurveParams``, so the bit-for-bit checks do not rest on it:
    C = a*x0 + b*y0 and s0 = a*x0/C (0.5 where C underflows to 0, which
    CurveParams refuses)."""
    c = a * x0 + b * y0
    return a, b, x0, y0, alpha, beta, c, a * x0 / c if c > 0.0 else 0.5


def _lam_arith(s, t, *eight):
    """``pure.lam_arith`` at s with g(s) from ``ray_log_ratio``, as its
    callers take it."""
    return pure.lam_arith(t, pure.ray_log_ratio(s, *eight)[0], eight[6])


def _powerlaw_scale(s0):
    """A power law's q1, M = max(s0, 1 - s0), derived here."""
    return s0 if s0 >= 1.0 - s0 else 1.0 - s0


def test_selected_backend_reported():
    assert ammix.KERNEL_BACKEND == "pure"
    exported = {name: value for name, value in vars(selector).items()
                if not name.startswith("_") and callable(value)}
    assert "lam_at" in exported
    for name, value in exported.items():
        assert value is getattr(pure, name, None) or value is getattr(arrays, name, None), name


# the derivations of C, s0 and a power law's M from a curve's constants, and
# of the CPMM's degree, which calibrated weights fix at 1
_DERIVATIONS = {"a * x0 + b * y0", "a * x0 / c", "alpha + beta", "s0 >= 1.0 - s0"}


def test_curve_constants_are_derived_in_one_place():
    """Each curve's C, alpha, beta and s0 come from ``core._anchor_constants``
    (and M from ``schedules.schedule_coeffs``): nothing else in ``core.py``
    or under ``_kernels`` derives them, and nothing takes the degree
    alpha + beta."""
    found = []
    for path in [Path(core.__file__), *sorted(Path(pure.__file__).parent.glob("*.py"))]:
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            where = getattr(stmt, "name", "<module>")
            for node in ast.walk(stmt):
                if isinstance(node, (ast.BinOp, ast.Compare)) and ast.unparse(node) in _DERIVATIONS:
                    found.append((path.name, where, ast.unparse(node)))
    assert sorted(found) == [("core.py", "_anchor_constants", "a * x0 + b * y0"),
                             ("core.py", "_anchor_constants", "a * x0 / c")]


def test_kernels_are_written_for_calibrated_weights():
    """No ``_kernels`` function takes or names a degree ``deg``: the
    weights are calibrated, alpha + beta = 1.  ``lam_arith`` is its closed
    form, with no loop."""
    named, loops = [], []
    for path in sorted(Path(pure.__file__).parent.glob("*.py")):
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            where = getattr(stmt, "name", "<module>")
            for node in ast.walk(stmt):
                if "deg" in (getattr(node, "arg", None), getattr(node, "id", None)):
                    named.append((path.name, where))
                elif isinstance(node, (ast.For, ast.While)):
                    loops.append(where)
    assert named == []
    assert "solve_s_for_x" in loops and "lam_arith" not in loops


# terms of the invariant's components and of the homotopy's raw gradient
_XY_TERMS = {"(a * x + b * y) / c", "(x / x0) ** alpha * (y / y0) ** beta",
             "(1.0 - t) * c / n + t * w", "t * w * alpha / x",
             "t * w * beta / y", "w - c / n", "1.0 / (raw * raw)"}


def test_xy_formulas_have_one_body():
    """(A0, A1) are written only in ``components_xy`` (and A1 again in
    ``grad_xy``), the gradient only in ``grad_xy``: ``value_xy`` and
    ``rate_xy`` call them instead of repeating their terms."""
    found, calls = [], set()
    for path in sorted(Path(pure.__file__).parent.glob("*.py")):
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            where = getattr(stmt, "name", "<module>")
            for node in ast.walk(stmt):
                if isinstance(node, ast.BinOp) and ast.unparse(node) in _XY_TERMS:
                    found.append((where, ast.unparse(node)))
                elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                    calls.add((where, node.func.id))
    assert sorted(found) == [("components_xy", "(a * x + b * y) / c"),
                             ("components_xy", "(x / x0) ** alpha * (y / y0) ** beta"),
                             ("grad_xy", "(1.0 - t) * c / n + t * w"),
                             ("grad_xy", "(x / x0) ** alpha * (y / y0) ** beta"),
                             ("grad_xy", "1.0 / (raw * raw)"),
                             ("grad_xy", "t * w * alpha / x"),
                             ("grad_xy", "t * w * beta / y"),
                             ("grad_xy", "w - c / n")]
    assert ("rate_xy", "grad_xy") in calls
    assert ("value_xy", "components_xy") in calls


# g(s) (its scalar and array forms), g'(s)'s numerator, a parabola's t and
# t', a power law's t', the numerator of P'' and the arithmetic scaling's
# two forms
_S_TERMS = {"alpha * log(s0 / s)", "alpha * np.log(s0 / s)", "beta * s - alpha * (1.0 - s)",
            "(q0 * s + q1) * s + q2", "2.0 * q0 * s + q1",
            "copysign(q0 / q1 * u ** (q0 - 1.0), d)",
            "2.0 * alpha * alpha * u * u + alpha * beta * (1.0 - 2.0 * s) ** 2"
            " + 2.0 * beta * beta * s * s",
            "cp / ((1.0 - t) * p + t * c)", "c / (1.0 - t + t * (c / p))"}


def test_s_formulas_have_one_body():
    """Across the scalar and the array kernels, g(s) is written only in
    ``ray_log_ratio`` and in the fused ``lam_at``, g'(s) only in
    ``ray_log_ratio``, a parabola's t only there, in ``sched_value`` and in
    ``sched_first``, the scalar schedule slopes only in ``sched_first``,
    P'' only in ``lam_chain_array`` and the arithmetic scaling only in
    ``lam_arith``: ``lam_prime_at``, ``rate_s``, ``lam_chain_array``,
    ``sched_chain_array`` and ``lam_at`` take them from there instead of
    repeating them (``lam_prime_at``, ``rate_s`` and ``grad_xy`` take the
    clamped (t, t') from ``_sched_clamped``, which checks and clamps t
    through ``sched_value``), and ``lam_arith`` takes g from its caller."""
    found, calls, names = [], set(), set()
    for path in (Path(pure.__file__), Path(arrays.__file__)):
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            where = getattr(stmt, "name", "<module>")
            for node in ast.walk(stmt):
                if isinstance(node, (ast.BinOp, ast.Call)) and ast.unparse(node) in _S_TERMS:
                    found.append((where, ast.unparse(node)))
                if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                    calls.add((where, node.func.id))
                elif isinstance(node, ast.Name):
                    names.add((where, node.id))
    assert sorted(found) == [("lam_arith", "c / (1.0 - t + t * (c / p))"),
                             ("lam_arith", "cp / ((1.0 - t) * p + t * c)"),
                             ("lam_at", "(q0 * s + q1) * s + q2"),
                             ("lam_at", "alpha * log(s0 / s)"),
                             ("lam_chain_array", "2.0 * alpha * alpha * u * u + alpha * beta"
                              " * (1.0 - 2.0 * s) ** 2 + 2.0 * beta * beta * s * s"),
                             ("ray_log_ratio", "alpha * log(s0 / s)"),
                             ("ray_log_ratio", "beta * s - alpha * (1.0 - s)"),
                             ("sched_first", "(q0 * s + q1) * s + q2"),
                             ("sched_first", "2.0 * q0 * s + q1"),
                             ("sched_first", "copysign(q0 / q1 * u ** (q0 - 1.0), d)"),
                             ("sched_value", "(q0 * s + q1) * s + q2")]
    assert {("lam_prime_at", "ray_log_ratio"), ("lam_prime_at", "_sched_clamped"),
            ("_sched_clamped", "sched_first"), ("_sched_clamped", "sched_value"),
            ("rate_s", "ray_log_ratio"), ("rate_s", "_sched_clamped"), ("rate_s", "lam_arith"),
            ("grad_xy", "_sched_clamped"),
            ("lam_chain_array", "ray_log_ratio"), ("lam_chain_array", "sched_chain_array"),
            ("sched_chain_array", "sched_first"), ("lam_at", "lam_arith"),
            ("lam_prime_at", "lam_arith")} <= calls
    assert ("grad_xy", "sched_first") not in calls
    assert ("lam_arith", "log") not in names


def _reference_lam_at(family, kind, q0, q1, q2, s, a, b, x0, y0, alpha, beta):
    # lam_at as the composition of sched_value, ray_log_ratio and the uniform closed forms
    curve = (a, b, x0, y0, alpha, beta)
    c = a * x0 + b * y0
    eight = _constants(*curve)
    if kind != 0:
        t = pure.sched_value(kind, q0, q1, q2, s, a * x0 / c)
        return c + c * expm1(pure.ray_log_ratio(s, *eight)[0]) * t
    if family == 0:
        return _lam_arith(s, q0, *eight)
    g, _ = pure.ray_log_ratio(s, *eight)
    if family == 1:
        return c * exp(g * q0)
    return c + c * expm1(g) * q0


def _fusion_cases(n, seed):
    """(family, kind, q0, q1, q2, s, curve) draws over every family and schedule kind."""
    rng = random.Random(seed)
    for curve in _random_curves(n, seed):
        a, b, x0, y0, alpha, beta = curve
        s0 = a * x0 / (a * x0 + b * y0)
        schedules = [
            (0, rng.choice([0.0, 1.0, rng.uniform(0.0, 1.0)]), 0.0, 0.0),
            (1, rng.choice([0.5, 1.0, 2.0, rng.uniform(0.25, 8.0)]), _powerlaw_scale(s0), 0.0),
            (2, 0.3, -0.2, 0.4),
            (2, -1.0, 1.0, rng.uniform(0.0, 0.75)),  # t in [0, 1]
            (2, 0.0, 0.0, 1.0 + 5e-13),  # clamped down to 1
            (2, 0.0, 0.0, -5e-13),  # clamped up to 0
            (2, 0.0, 0.0, 1.0 + 1e-12),  # the range check's bounds, clamped
            (2, 0.0, 0.0, -1e-12),
            (2, 0.0, 0.0, nextafter(1.0 + 1e-12, 2.0)),  # a float past them: ScheduleRangeError
            (2, 0.0, 0.0, nextafter(-1e-12, -1.0)),
            (2, -0.0, -0.0, -0.0),  # t == -0.0
            (2, 0.0, 0.0, rng.choice([1.5, -0.5, 1.0 + 1.5e-12, -1.5e-12])),  # ScheduleRangeError
        ]
        for kind, q0, q1, q2 in schedules:
            for s in (rng.uniform(S_MIN, S_MAX), rng.uniform(0.001, 0.999), s0, S_MIN, S_MAX):
                for family in range(3):
                    yield family, kind, q0, q1, q2, s, curve


def test_lam_at_matches_helper_composition_bit_for_bit():
    # lam_at inlines sched_value and ray_log_ratio; the same float operations in
    # the same order give the same bits, and the schedule check raises the same
    # way, naming the unclamped t
    raised = 0
    for family, kind, q0, q1, q2, s, curve in _fusion_cases(40, 505):
        try:
            want = _reference_lam_at(family, kind, q0, q1, q2, s, *curve)
        except ScheduleRangeError as exc:
            t = pure.sched_first(kind, q0, q1, q2, s, _constants(*curve)[7])[0]
            assert f"t={t!r} outside [0, 1]" in str(exc)
            with pytest.raises(ScheduleRangeError, match=re.escape(str(exc))):
                pure.lam_at(family, kind, q0, q1, q2, s, *_constants(*curve))
            raised += 1
            continue
        got = pure.lam_at(family, kind, q0, q1, q2, s, *_constants(*curve))
        assert got == want, (family, kind, q0, q1, q2, s, curve)
    assert raised > 0


@pytest.mark.parametrize("scale", [1e154, 1e200, 1e250, 1e300, 1e-170, 1e-250, 1e-300])
def test_lam_arith_solves_where_c_times_p_leaves_the_float_range(scale):
    """C*P passes 1.8e308 on curves this large, and underflows to 0 on
    curves this small; the closed form is taken as C/((1 - t) + t*C/P)
    there, and lands on the curve as on a unit curve, instead of running
    into NaN (overflow) or ZeroDivisionError (underflow)."""
    rng = random.Random(1543)
    for _ in range(200):
        a, b = rng.uniform(0.3, 3.0), rng.uniform(0.3, 3.0)
        p = CurveParams(a, b, scale * rng.uniform(0.5, 2.0), scale * rng.uniform(0.5, 2.0))
        curve = p._curve
        s, t = rng.uniform(1e-4, 1.0 - 1e-4), rng.uniform(1e-9, 1.0 - 1e-9)
        lam = _lam_arith(s, t, *curve)
        x, y = lam * s / p.a, lam * (1.0 - s) / p.b
        assert abs(pure.value_xy(0, t, x, y, *curve) - 1.0) <= 1e-15, (s, t, curve)
        # the same curve at unit scale, scaled back up
        unit = _constants(p.a, p.b, p.x0 / scale, p.y0 / scale, p.alpha, p.beta)
        assert lam == pytest.approx(scale * _lam_arith(s, t, *unit), rel=1e-14)


# worst ULPs per unit of (1 + kappa) over the bulk of s and within 1e-6 of its ends
_LAM_ARITH_ULPS = {"bulk": 3.0, "ends": 4.0}


def _lam_arith_case(d):
    """(region, curve, s, t): s in [1e-6, 1 - 1e-6], or in [S_MIN, 1e-6] or
    its mirror, and t in [0, 1], both ends included.  Half the curves have
    x0 and y0 scaled by 10**e, e in [-160, 153], so that C*P runs from
    subnormal to past 1.8e308 and lam_arith takes both of its forms."""
    region = d.choice(("bulk", "low", "high"))
    if region == "bulk":
        s = d.floats(1e-6, 1.0 - 1e-6)
    else:
        u = d.floats(S_MIN, 1e-6)
        s, region = (u, "ends") if region == "low" else (1.0 - u, "ends")
    p = d.curve()
    if d.rng.random() < 0.5:
        scale = 10.0 ** d.floats(-160.0, 153.0)
        p = CurveParams(p.a, p.b, scale * p.x0, scale * p.y0)
    return region, p, s, d.floats(0.0, 1.0)


def test_lam_arith_within_ulp_budget_of_decimal_oracle(draws):
    """The arithmetic lam_at against the 60-digit oracle.  exp turns
    g's rounding into |g| ULPs of P, and lam takes the share
    kappa = |g|*t*lam/P of that, up to 28 at the ends: the budget is a
    fixed number of ULPs per unit of (1 + kappa), by region.  At the ends
    of t it is C and P = C*exp(g) themselves.  Between them both forms are
    taken: C*P/((1-t)*P + t*C) where C*P is a normal float, and
    C/((1-t) + t*C/P) where it is not."""
    worst, forms = {}, set()
    for region, p, s, t in draws(1000, _lam_arith_case):
        got = pure.lam_at(0, 0, t, 0.0, 0.0, s, *p._curve)
        exact = oracle.lam_arith(s, t, p.alpha, p.beta, p.c, p.s0)
        g = pure.ray_log_ratio(s, *p._curve)[0]
        if t in (0.0, 1.0):
            assert got == (p.c if t == 0.0 else p.c * exp(g)), (p, s, t)
        else:
            forms.add(sys.float_info.min <= p.c * (p.c * exp(g)) <= sys.float_info.max)
        kappa = abs(g) * t * got / (p.c * exp(g))
        err = oracle.ulps(got, exact) / (1.0 + kappa)
        assert err <= _LAM_ARITH_ULPS[region], (p, s, t, err)
        worst[region] = max(worst.get(region, 0.0), err)
    print(f"worst ULPs per (1 + kappa): {worst}")
    assert sorted(worst) == ["bulk", "ends"] and forms == {True, False}


def test_solve_s_for_x_raises_when_halvings_run_out(monkeypatch):
    # a homotopy blend, whose lam_at does not iterate: from [S_MIN, S_MAX] the
    # bracket reaches 1e-14 after 47 halvings
    p = CurveParams(0.5, 1, 3000, 1000)
    curve = p._curve
    s = pure.solve_s_for_x(2, 0, 0.6, 0.0, 0.0, 4000.0, *curve, S_MIN, S_MAX)
    monkeypatch.setattr(pure, "_MAX_ITER", 47)
    assert pure.solve_s_for_x(2, 0, 0.6, 0.0, 0.0, 4000.0, *curve, S_MIN, S_MAX) == s
    monkeypatch.setattr(pure, "_MAX_ITER", 46)
    with pytest.raises(ConvergenceError, match="not narrowed to 1e-14 in 46 halvings"):
        pure.solve_s_for_x(2, 0, 0.6, 0.0, 0.0, 4000.0, *curve, S_MIN, S_MAX)


def _central_difference_cases():
    """(code, s, eight constants) on 20 random curves, then on the
    ``_fusion_cases`` draws where lam_at has a slope to take: not where t(s)
    leaves [0, 1] beyond rounding (lam_at raises ``ScheduleRangeError``
    there; where it clamps t, lam_prime_at clamps it too) and not at s0
    under a power law with exponent <= 1 (``NonDifferentiablePointError``,
    pinned below)."""
    rng = random.Random(909)
    for curve in _random_curves(20, 9):
        a, b, x0, y0, alpha, beta = curve
        s0 = a * x0 / (a * x0 + b * y0)
        for kind, q0, q1, q2 in ((0, rng.uniform(0.05, 0.95), 0.0, 0.0),
                                 (1, rng.uniform(0.5, 4.0), _powerlaw_scale(s0), 0.0),
                                 (2, 0.3, -0.2, 0.4)):
            s = rng.choice([rng.uniform(0.05, 0.95), 0.5 * s0, 0.5 * (1.0 + s0)])
            for family in (range(3) if kind == 0 else (2,)):  # schedules blend homotopically
                yield (family, kind, q0, q1, q2), s, _constants(*curve)
    for family, kind, q0, q1, q2, s, curve in _fusion_cases(40, 606):
        eight = _constants(*curve)
        if kind == 1 and s == eight[7] and q0 <= 1.0:
            continue
        try:
            pure.lam_at(family, kind, q0, q1, q2, s, *eight)
        except ScheduleRangeError:
            continue
        yield (family, kind, q0, q1, q2), s, eight


def test_lam_prime_at_matches_central_difference_of_lam_at():
    # the uniform closed forms and the scheduled homotopy form both give lam_at's slope
    differenced = 0
    for code, s, curve in _central_difference_cases():
        lam, lamp = pure.lam_prime_at(*code, s, *curve)
        assert lam == pure.lam_at(*code, s, *curve)
        if code[1] == 1 and s == curve[7]:
            # t and t' vanish at s0, and so does lam'; the difference quotient
            # tends to 0 only as h**(k - 1) for exponents k in (1, 2)
            assert lamp == 0.0, (code, s, curve)
            continue
        # at S_MAX, s -/+ h are the floats next to s; a power law's t bends
        # within |s - s0| of s0, so the step stays well inside that
        h = 1e-4 * min(s, 1.0 - s)
        if code[1] == 1:
            h = min(h, 1e-3 * abs(s - curve[7]))
        h = max(h, ulp(s))
        lo, hi = pure.lam_at(*code, s - h, *curve), pure.lam_at(*code, s + h, *curve)
        if abs(hi - lo) <= 1e-12 * lam:
            # flat to lam_at's resolution, as the arithmetic blend is near the
            # curve's ends: lam' must not predict more change than that
            assert abs(lamp) * 2.0 * h <= 1e-11 * lam, (code, s, curve)
            continue
        slope = (hi - lo) / ((s + h) - (s - h))
        assert lamp == pytest.approx(slope, rel=1e-4, abs=1e-8 * lam), (code, s, curve)
        differenced += 1
    assert differenced > 1800


def test_lam_prime_at_zeroes_t_prime_only_where_the_clamp_moved_t():
    """A parabola with t' = 1 at s = 1/4 and t = 0 or 1 there exactly keeps
    t'; one that puts t 5e-13 outside [0, 1] is clamped, and its lam' is
    the uniform blend's at the clamped t, whose t' is 0."""
    eight = CurveParams(1.3, 1.0, 0.7, 1.6)._curve
    # kind 2 with q = (0, 1, q2): t = 1/4 + q2 and t' = 1
    for q2, t, moved in [(-0.25, 0.0, False), (-0.25 - 5e-13, 0.0, True),
                         (0.75, 1.0, False), (0.75 + 5e-13, 1.0, True)]:
        lam, lamp = pure.lam_prime_at(2, 2, 0.0, 1.0, q2, 0.25, *eight)
        uniform = pure.lam_prime_at(2, 0, t, 0.0, 0.0, 0.25, *eight)
        assert lam == uniform[0] and (lamp == uniform[1]) is moved, q2


def test_lam_prime_at_has_no_slope_at_s0_under_a_power_law_up_to_exponent_1():
    # t = (|s - s0|/M)**k has a cusp at s0 for k < 1 and a corner for k = 1;
    # the fusion draws at s0 that the central differences leave out, and more
    cases = [(family, k, (a, b, x0, y0, alpha, beta))
             for a, b, x0, y0, alpha, beta in _random_curves(5, 1010)
             for k in (0.25, 0.5, 1.0) for family in range(3)]
    cases += [(family, q0, curve) for family, kind, q0, _, _, s, curve in _fusion_cases(40, 606)
              if kind == 1 and q0 <= 1.0 and s == _constants(*curve)[7]]
    for family, k, curve in cases:
        eight = _constants(*curve)
        s0 = eight[7]
        with pytest.raises(NonDifferentiablePointError,
                           match=re.escape(f"power-law schedule with exponent {k!r} "
                                           "has no derivative at s0")):
            pure.lam_prime_at(family, 1, k, _powerlaw_scale(s0), 0.0, s0, *eight)
    assert len(cases) > 45


def _outcome(f, *args):
    """repr of f(*args), which round-trips a float (NaN and the sign of zero
    included), or the type and message of what it raises."""
    try:
        return repr(f(*args))
    except (AmmixError, ArithmeticError, ValueError) as exc:
        return type(exc), str(exc)


def _ray_args(family, kind, q0, q1, q2, s, a, b, x0, y0, alpha, beta):
    """The kernel arguments at ray coordinate s on six curve constants:
    the eight constants, and M = max(s0, 1 - s0) as a power law's q1."""
    curve = _constants(a, b, x0, y0, alpha, beta)
    if kind == 1:
        q1 = _powerlaw_scale(curve[7])
    return (family, kind, q0, q1, q2, s, *curve)


# (arguments at ray coordinate s, outcome through rate_s, which forms no
# reserve product): the first three raise in lam_at, the reserve check or
# rate_s's (1 - t)/C, and the fourth's partial in y underflows to 0
_RAY_RATE_EDGES = [(_ray_args(*args), want) for args, want in [
    # a parabola at t = 1.5
    ((2, 2, 0.0, 0.0, 1.5, 0.3, 1.0, 1.0, 1.0, 1.0, 0.5, 0.5), ScheduleRangeError),
    # x = lam*s/a underflows to 0: the reserve check
    ((2, 0, 0.0, 0.0, 0.0, 1e-300, 1e30, 1.0, 1e-30, 1.0, 0.5, 0.5), InvalidParameterError),
    # c = a*x0 + b*y0 underflows to 0, and so does the arithmetic lam at t = 0
    ((0, 0, 0.0, 0.0, 0.0, 0.5, 1e-200, 1e-200, 1e-200, 1e-200, 0.5, 0.5), InvalidParameterError),
    # beta*A1/y underflows to 0 on the constant-product curve: gy == 0
    ((0, 0, 1.0, 0.0, 0.0, S_MIN, 1.0, 1.0, 1.0, 1.0, 0.5, 1e-320), DegenerateGradientError),
    # (a*x + b*y)**2 would underflow to 0; at s = 0.5 on a curve symmetric in
    # (x, y) the rate is 1
    ((2, 0, 0.5, 0.0, 0.0, 0.5, 1.0, 1.0, 1e-170, 1e-170, 0.5, 0.5), 1.0),
    # power laws with exponent <= 1 have no t' at s0: the anchor rate a/b
    ((2, 1, 0.5, 0.0, 0.0, 0.5, 2.0, 1.0, 1.0, 2.0, 0.5, 0.5), 2.0),
    ((2, 1, 1.0, 0.0, 0.0, 0.5, 2.0, 1.0, 1.0, 2.0, 0.5, 0.5), 2.0),
    ((2, 1, 0.5, 0.0, 0.0, 0.5, 2.0, 4.0, 2.0, 1.0, 0.5, 0.5), 0.5),  # b != 1: a/b, not a*b
]]


def _ray_rate_s(family, kind, q0, q1, q2, s, *curve):
    """The spot rate at ray coordinate s as arbitrage_states takes it:
    ``rate_s``, then the reserves of its lam and the MarketState check."""
    lam, rate = pure.rate_s(family, kind, q0, q1, q2, s, *curve)
    _check_reserves(lam * s / curve[0], lam * (1.0 - s) / curve[1])
    return rate


@pytest.mark.parametrize("args, want", _RAY_RATE_EDGES)
def test_ray_rate_edges_through_rate_s(args, want):
    """Every outcome is a rate or a typed error: rate_s wraps what would
    leave it as a bare ArithmeticError, as rate_xy does."""
    got = _outcome(_ray_rate_s, *args)
    assert got[0] is want if isinstance(want, type) else got == repr(want)


# the spot rate's budget, in units of eps times its condition (``oracle.ray_rate``)
RATE_BUDGET = 4.0


def _rate_case(d):
    """(params, market, s): a and b in [1e-2, 1e2] and a skewed anchor, x0
    and y0 in [1e-9, 1]; any mix; s in [1e-6, 1 - 1e-6], in [S_MIN, 1e-6]
    or its mirror.  A parabola leaving [0, 1] is rejected."""
    params = CurveParams(d.floats(1e-2, 1e2), d.floats(1e-2, 1e2), d.floats(1e-9, 1.0),
                         d.floats(1e-9, 1.0))
    try:
        m = market(params, d.mix())
    except InvalidParameterError:
        raise Reject
    region = d.choice(("bulk", "low", "high"))
    u = d.floats(S_MIN, 1e-6)
    s = d.floats(1e-6, 1.0 - 1e-6) if region == "bulk" else u if region == "low" else 1.0 - u
    return params, m, s


def test_spot_rates_within_budget_of_decimal_oracle(draws):
    """rate_xy at point_at(s), and rate_s at s, against the 60-digit ray
    rate at s: each within RATE_BUDGET eps per unit of the rate's
    condition (at most 2.2 for rate_xy and 0.9 for rate_s over 40,000
    draws of four other seeds; the relative error itself reaches about
    4e-15 where the condition is about 20, and 0.28 where a parabola's t
    cancels to 1e-7 next to s = 1).  rate_s's lam is lam_at's, bit for bit.  On the homotopy the oracle is also
    the curve's slope (a/b)*(lam - lam'*(1-s))/(lam + lam'*s), from
    ``oracle.lam_chain``, to 1e-40, where the weights sum to 1 exactly: both forms take alpha + beta = 1, and elsewhere they differ
    by P*t*(1 - alpha - beta) in each term."""
    worst, sloped = {}, 0
    for params, m, s in draws(1000, _rate_case):
        anchor = (params.a, params.b, params.alpha, params.beta, params.c, params.s0)
        exact, kappa = oracle.ray_rate(*m.codes, s, *anchor)
        chain = oracle.lam_chain(*m.codes[1:], s, *anchor[2:])
        if (m.codes[0] == 2 and Decimal(params.alpha) + Decimal(params.beta) == 1 and chain is not None
                and 0 <= chain[0]["t"] <= 1):
            lam, lamp = chain[0]["lam"], chain[0]["lam'"]
            with localcontext() as ctx:
                ctx.prec = oracle.DIGITS
                a, b, ds = map(Decimal, (params.a, params.b, s))
                slope = a / b * (lam - lamp * (1 - ds)) / (lam + lamp * ds)
            assert oracle.relative(slope, exact) <= 1e-40, (params, m.codes, s)
            sloped += 1
        state = point_at(params, m.mix, s)
        lam, rate = pure.rate_s(*m.codes, s, *m.curve)
        assert lam == pure.lam_at(*m.codes, s, *m.curve), (params, m.codes, s)
        for name, got in (("rate_xy", pure.rate_xy(*m.codes, state.x, state.y, *m.curve)),
                          ("rate_s", rate)):
            err = oracle.relative(got, exact) / (sys.float_info.epsilon * kappa)
            assert err <= RATE_BUDGET, (name, params, m.codes, s, err)
            worst[name, m.codes[:2]] = max(worst.get((name, m.codes[:2]), 0.0), err)
    print(f"worst errors in eps of the condition: {worst}; {sloped} slopes")
    assert len(worst) == 10 and sloped > 20


def test_rate_xy_takes_the_clamped_t():
    """A parabola pinned at t(0) = t(s0) = 0 dips to t = -9.1e-17 at
    s = 5.6e-11, inside the range check's 1e-12, and lam_at clamps it to
    0.  rate_xy used to take the unclamped t and t' = -1.6e-6 there, 2.2e-11
    relative (49,000 eps per unit of the condition) from the rate of the
    curve lam_at traces; it takes the clamped (t, t') as rate_s does."""
    params = CurveParams(0.5180348242104659, 53.807800927420104, 0.0001590822563526857,
                         0.9425331672125931)
    m = market(params, MixSpec.scheduled(Parabolic(bias=0.0, center=0.0)))
    s = 5.573370313104572e-11
    assert pure.sched_first(*m.codes[1:], s, params.s0)[0] < 0.0
    exact, kappa = oracle.ray_rate(*m.codes, s, params.a, params.b, params.alpha, params.beta,
                                   params.c, params.s0)
    state = point_at(params, m.mix, s)
    for got in (pure.rate_xy(*m.codes, state.x, state.y, *m.curve),
                pure.rate_s(*m.codes, s, *m.curve)[1]):
        assert oracle.relative(got, exact) <= RATE_BUDGET * sys.float_info.epsilon * kappa
    # a t past the range check's 1 + 1e-12 raises there, as in lam_at
    with pytest.raises(ScheduleRangeError):
        pure.rate_xy(2, 2, 0.0, 0.0, 1.0 + 5e-7, state.x, state.y, *m.curve)


def test_grad_xy_takes_a_slope_of_t_of_exactly_one():
    """t = s - 1/4 (kind 2, q = (0, 1, -1/4)) has t' = 1: the homotopy's
    partials are those of 1/value_xy at t(s(x, y)), by central differences
    with relative steps of 1e-6, and rate_s's rate at s is their ratio."""
    eight = CurveParams(1.3, 1.0, 0.7, 1.6)._curve
    a, b, s0 = eight[0], eight[1], eight[7]
    code = (2, 2, 0.0, 1.0, -0.25)

    def f(x, y):
        t = pure.sched_value(*code[1:], a * x / (a * x + b * y), s0)
        return 1.0 / pure.value_xy(2, t, x, y, *eight)

    for s in (0.3, 0.5, 0.7):
        lam = pure.lam_at(*code, s, *eight)
        x, y = lam * s / a, lam * (1.0 - s) / b
        fx = (f(x * (1.0 + 1e-6), y) - f(x * (1.0 - 1e-6), y)) / (2e-6 * x)
        fy = (f(x, y * (1.0 + 1e-6)) - f(x, y * (1.0 - 1e-6))) / (2e-6 * y)
        assert pure.grad_xy(*code, x, y, *eight) == pytest.approx((fx, fy), rel=1e-6), s
        assert pure.rate_s(*code, s, *eight)[1] == pytest.approx(fx / fy, rel=2e-6), s


# the chain's budget, in units of eps times the size of each value's terms
# (``oracle.lam_chain``)
CHAIN_BUDGET = 8.0


def _chain_case(d):
    """(curve, schedule coefficients, s): a uniform weight, a power law with
    exponent in [0.25, 8] or one of 0.5, 1, 1.5, 2 and 3, or a parabola, and
    an s in [S_MIN, 0.5] or its mirror, or s0 an eighth of the time.  A
    parabola leaving [0, 1] is rejected."""
    params = d.curve()
    kind = d.rng.randrange(3)
    if kind == 0:
        schedule = Uniform(d.floats(0.0, 1.0))
    elif kind == 1:
        schedule = PowerLaw(d.floats(0.25, 8.0) if d.rng.random() < 0.5
                            else d.choice([0.5, 1.0, 1.5, 2.0, 3.0]))
    else:
        schedule = Parabolic(d.floats(0.0, 1.0), d.floats(0.0, 1.0))
    try:
        coeffs = schedule_coeffs(schedule, params.s0)
    except InvalidParameterError:  # a parabola leaving [0, 1]
        raise Reject
    u = d.floats(S_MIN, 0.5)
    s = params.s0 if d.rng.random() < 1.0 / 8.0 else u if d.rng.random() < 0.5 else 1.0 - u
    return params, coeffs, s


def test_lam_chain_array_within_budget_of_decimal_oracle(draws):
    """lam_chain_array's (lam, lam', lam'') and margin, and the (t, t', t'')
    of sched_chain_array, against the 60-digit oracle: each within
    CHAIN_BUDGET eps of the size of its terms (at most 4.4 over 20,000
    draws of six other seeds).  Both kernels mark s exactly where the
    oracle has no t''."""
    worst = {}
    for params, coeffs, s in draws(500, _chain_case):
        exact = oracle.lam_chain(*coeffs, s, params.alpha, params.beta, params.c, params.s0)
        grid = np.array([s])
        with np.errstate(all="ignore"):
            t, tp, tpp, t_singular = selector.sched_chain_array(*coeffs, grid, params.s0)
            lam, lamp, lampp, singular = selector.lam_chain_array(*coeffs, grid, *params._curve)
        assert bool(singular[0]) == bool(t_singular[0]) == (exact is None), (params, coeffs, s)
        if exact is None:
            continue
        got = {key: float(np.broadcast_to(v, 1)[0]) for key, v in
               (("t", t), ("t'", tp), ("t''", tpp), ("lam", lam), ("lam'", lamp), ("lam''", lampp))}
        got["margin"] = got["lam"] * got["lam''"] - 2.0 * got["lam'"] * got["lam'"]
        for key, err in oracle.size_errors(got, *exact).items():
            assert err <= CHAIN_BUDGET, (key, err, params, coeffs, s)
            worst[key] = max(worst.get(key, 0.0), err)
    print(f"worst errors in eps of their sizes: {worst}")
